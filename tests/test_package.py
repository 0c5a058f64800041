import importlib
import pkgutil

import blockvi


def test_all_names_resolve():
    # a name deleted from a module but left in its __all__ breaks star imports
    missing = {}
    for info in pkgutil.walk_packages(blockvi.__path__, "blockvi."):
        module = importlib.import_module(info.name)
        names = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if names:
            missing[info.name] = names
    assert missing == {}
