import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import blockvi
from blockvi.cli.manifest import MANIFEST_SCHEMA
from blockvi.solver import SCHEDULE_KEYS, SolverConfig, make_schedule


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


def _module_level(tree):
    """The statements of a module outside its function and class bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def test_no_function_level_package_imports():
    # an import of a package module inside a function hides a dependency
    # (often a cycle) from the module's header; stdlib imports may be deferred
    root = Path(blockvi.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(node) for node in _module_level(tree)}
        for node in ast.walk(tree):
            if id(node) in top:
                continue
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["blockvi" if node.level else node.module or ""]
            else:
                continue
            offenders += [f"{path.relative_to(root)}:{node.lineno} {name}"
                          for name in names if name.split(".")[0] == "blockvi"]
    assert offenders == []


def test_no_module_level_scipy_import():
    # importing scipy.fft costs more than a run without transforms takes, so
    # only the constructors of the operators that call it import it
    root = Path(blockvi.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in _module_level(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{path.relative_to(root)}:{node.lineno} {name}"
                          for name in names if name.split(".")[0] == "scipy"]
    assert offenders == []


def test_every_public_function_has_a_caller():
    # a public function that nothing outside its own module names is dead
    # weight; the package __init__s only re-export, so they do not count
    root = Path(blockvi.__file__).resolve().parent
    repo = root.parents[1]
    files = {path: path.read_text()
             for top in ("src", "tests", "bench")
             for path in (repo / top).rglob("*.py")
             if not (path.name == "__init__.py" and root in path.parents)}
    uncalled = []
    for info in pkgutil.walk_packages(blockvi.__path__, "blockvi."):
        module = importlib.import_module(info.name)
        own = Path(module.__file__).resolve()
        for name in getattr(module, "__all__", ()):
            if not inspect.isfunction(getattr(module, name)):
                continue
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            if not any(pattern.search(text) for path, text in files.items()
                       if path != own):
                uncalled.append(f"{info.name}.{name}")
    assert uncalled == []


def test_each_knob_has_one_definition_on_both_sides():
    # the manifest's solver and schedule keys restate the names that
    # SolverConfig and make_schedule take; an option deleted from only one
    # side would be refused by the manifest check, or be unreachable from it
    solver = MANIFEST_SCHEMA["properties"]["solver"]["properties"]
    manifest_keys = {"keep_snapshots" if k == "snapshots" else k for k in solver}
    config_keys = {f.name for f in dataclasses.fields(SolverConfig)}
    assert manifest_keys == config_keys - {"x0", "accelerate"}
    keyword_only = {name for name, p in
                    inspect.signature(make_schedule).parameters.items()
                    if p.kind is inspect.Parameter.KEYWORD_ONLY}
    assert set().union(*SCHEDULE_KEYS.values()) == keyword_only
