import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_no_private_names_imported_across_modules():
    # a private name is its module's own business; another module that needs
    # it should get a public name instead
    root = Path(blockvi.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("blockvi"):
                continue
            offenders += [f"{path.relative_to(root)}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert offenders == []
