import ast
import dataclasses
import importlib
import inspect
import json
import pickle
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import blockvi
from blockvi.cli import (generate_experiment, load_manifest, read_pgm,
                         read_snapshots_csv, read_vector_csv, write_pgm)
from blockvi.cli.experiments import STOCK_PARAMETERS
from blockvi.cli.main import _cmd_trace_plot, build_parser
from blockvi.cli.manifest import (MANIFEST_SCHEMA, ExperimentManifest,
                                  default_manifest)
from blockvi.core import (ConstraintSet, Prescription, Problem, assemble_problem,
                          least_squares_objective)
from blockvi.errors import (
    EmptyBlock,
    FormatError,
    InvalidParameter,
    ManifestError,
    MissingReference,
    ShapeMismatch,
)
from blockvi.fne_ops import ResidualOf, SingletonProjector
from blockvi.linops import Identity
from blockvi.solver import (
    SCHEDULE_KEYS,
    ActivationSchedule,
    SolverConfig,
    make_schedule,
    solve,
)
from blockvi.space import BlockShape, SpacePoint


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


def test_no_private_numpy_import():
    # the package declares numpy>=1.24, and a private module such as
    # numpy.linalg._linalg exists in NumPy 2 alone, so no module imports,
    # at any level, a name under numpy with a part that starts with _
    root = Path(blockvi.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.relative_to(root)}:{node.lineno} {name}"
                          for name in names if name.split(".")[0] == "numpy"
                          and any(part.startswith("_") for part in name.split("."))]
    assert offenders == []


def _code_names(text: str) -> set:
    """The names a module's code uses: its ``Name`` and ``Attribute`` nodes
    and what it imports.  Prose in docstrings and comments does not count."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_function_has_a_caller():
    # a public function that no code outside its own module names is dead
    # weight; the package __init__s only re-export, so they do not count
    root = Path(blockvi.__file__).resolve().parent
    repo = root.parents[1]
    names = {path: _code_names(path.read_text())
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
            if not any(name in used for path, used in names.items() if path != own):
                uncalled.append(f"{info.name}.{name}")
    assert uncalled == []


def test_each_knob_has_one_definition_on_both_sides():
    # the manifest's solver and schedule keys restate the names that
    # SolverConfig and make_schedule take; an option deleted from only one
    # side would be refused by the manifest check, or be unreachable from it
    solver = MANIFEST_SCHEMA["properties"]["solver"]["properties"]
    manifest_keys = set(solver)
    config_keys = {f.name for f in dataclasses.fields(SolverConfig)}
    assert manifest_keys == config_keys - {"x0", "accelerate"}
    keyword_only = {name for name, p in
                    inspect.signature(make_schedule).parameters.items()
                    if p.kind is inspect.Parameter.KEYWORD_ONLY}
    assert set().union(*SCHEDULE_KEYS.values()) == keyword_only


@pytest.mark.parametrize("kind", sorted(STOCK_PARAMETERS))
def test_manifest_fields_are_the_schema_keys(tmp_path, kind):
    # ExperimentManifest is built from and written back to a payload by the
    # schema's key list alone, so its fields must be exactly those keys
    fields = {f.name for f in dataclasses.fields(ExperimentManifest)}
    assert fields == set(MANIFEST_SCHEMA["properties"]) | {"source_path"}
    payload = default_manifest(kind, 0)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload))
    assert load_manifest(path).to_dict() == {
        key: value for key, value in payload.items() if value != {}}


def _written(name, payload):
    """A refusal run on a file ``name`` of ``payload`` (bytes or text) in the
    test's directory."""
    def build(tmp_path):
        path = tmp_path / name
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        elif payload is not None:
            path.write_text(payload)
        return path
    return build


def _custom_with_rows(tmp_path):
    _written("matrix.csv", "1,2\n3,4\n")(tmp_path)
    _written("rhs.csv", "value\n1\n2\n3\n")(tmp_path)
    return generate_experiment("custom", {}, 0, {}, {
        "matrix_csv": str(tmp_path / "matrix.csv"),
        "rhs_csv": str(tmp_path / "rhs.csv")})


def _two_entry_problem():
    vec2 = BlockShape.vector(2)
    arm = Prescription(Identity(vec2),
                       ResidualOf(SingletonProjector(SpacePoint([1.0, 2.0]))),
                       SpacePoint.zeros(vec2), 1.0)
    return assemble_problem(ConstraintSet.whole_space(), [arm])


def _solve_from_another_shape(tmp_path):
    return solve(_two_entry_problem(), make_schedule("full", 1),
                 SolverConfig(1.0, 10, 0.0, SpacePoint.zeros(BlockShape.vector(3))))


def _config(**given):
    return lambda tmp_path: SolverConfig(
        **{"gamma": 1.0, "max_iters": 10, "tol": 0.0,
           "x0": SpacePoint.zeros(BlockShape.vector(1)), **given})


@pytest.mark.parametrize("build,error,message", [
    pytest.param(lambda p: generate_experiment("nope", {}, 0), InvalidParameter,
                 "unknown experiment kind 'nope'", id="experiment-kind"),
    pytest.param(lambda p: default_manifest("nope", 0), ManifestError,
                 "no defaults for experiment kind 'nope'", id="manifest-kind"),
    pytest.param(lambda p: generate_experiment("custom", {}, 0), InvalidParameter,
                 "custom experiments need matrix_csv and rhs_csv",
                 id="custom-no-csv"),
    pytest.param(_custom_with_rows, InvalidParameter,
                 "matrix rows and rhs length disagree", id="custom-rows-rhs"),
    pytest.param(lambda p: write_pgm(np.zeros(3), p / "x.pgm"), InvalidParameter,
                 "PGM export expects a 2-D array", id="pgm-1d"),
    pytest.param(lambda p: write_pgm(np.full((2, 2), np.nan), p / "x.pgm"),
                 InvalidParameter, "PGM export expects finite pixel values",
                 id="pgm-nan"),
    pytest.param(lambda p: read_pgm(_written("x.pgm", b"P5\n2")(p)), FormatError,
                 "x.pgm: truncated PGM header", id="pgm-truncated"),
    pytest.param(lambda p: read_pgm(_written("x.pgm", b"P5\n1 1\n65535\n\0\0")(p)),
                 FormatError, "x.pgm: unsupported maxval 65535", id="pgm-16-bit"),
    pytest.param(lambda p: read_vector_csv(
                     _written("v.csv", "value\n1.5\nabc\n")(p)),
                 FormatError, "v.csv: could not convert string to float: 'abc'",
                 id="vector-csv-text"),
    pytest.param(lambda p: read_snapshots_csv(
                     _written("s.csv", "k,components\n0,1.5,x\n")(p)),
                 FormatError, "s.csv: could not convert string to float: 'x'",
                 id="snapshots-csv-text"),
    pytest.param(lambda p: load_manifest(_written("m.json", "[1, 2]")(p)),
                 ManifestError, "m.json: manifest must be a JSON object",
                 id="manifest-array"),
    pytest.param(lambda p: load_manifest(_written("m.json", "{nope")(p)),
                 ManifestError, "m.json: line 1, column 2: Expecting property",
                 id="manifest-invalid-json"),
    pytest.param(lambda p: load_manifest(_written("m.json", None)(p)),
                 ManifestError, "m.json: .*No such file", id="manifest-missing"),
    pytest.param(lambda p: Problem(ConstraintSet.whole_space(), ()),
                 InvalidParameter, "at least one prescription is required",
                 id="problem-no-arms"),
    pytest.param(lambda p: _cmd_trace_plot(build_parser().parse_args(
                     ["trace-plot", str(p / "trace.csv"), "--ref", str(p / "x.csv")])),
                 MissingReference, "snapshots.csv: no iterate snapshots found",
                 id="trace-plot-no-snapshots"),
    pytest.param(lambda p: ActivationSchedule("explicit", (), 3), InvalidParameter,
                 "schedule must contain at least one index set",
                 id="schedule-no-sets"),
    pytest.param(lambda p: make_schedule("nope", 3), InvalidParameter,
                 "unknown schedule kind 'nope'", id="schedule-kind"),
    pytest.param(lambda p: make_schedule("full", 0), InvalidParameter,
                 "index_count must be >= 1", id="schedule-no-arms"),
    pytest.param(lambda p: make_schedule("cyclic_partition", 3, blocks=2,
                                         always_active=[0, 1, 2]),
                 EmptyBlock, "cyclic partition contains an empty cell",
                 id="cyclic-all-always-active"),
    pytest.param(lambda p: make_schedule("mod_skip", 3, expensive=[0], period=0),
                 InvalidParameter, "mod_skip needs a period >= 1",
                 id="mod-skip-period-0"),
    pytest.param(lambda p: make_schedule("mod_skip", 3, expensive=[0, 1, 2],
                                         period=2),
                 EmptyBlock, "skipping every arm would leave empty iterations",
                 id="mod-skip-all-expensive"),
    pytest.param(_config(max_iters=0), InvalidParameter, "max_iters must be >= 1",
                 id="config-max-iters"),
    pytest.param(_config(trace_every=0), InvalidParameter,
                 "trace_every must be >= 1", id="config-trace-every"),
    pytest.param(_solve_from_another_shape, ShapeMismatch,
                 "x0 lives outside the problem domain", id="solve-x0-shape"),
    pytest.param(lambda p: least_squares_objective(
                     _two_entry_problem(), SpacePoint.zeros(BlockShape.vector(3))),
                 ShapeMismatch, "point lives outside the problem domain",
                 id="objective-point-shape"),
    pytest.param(lambda p: assemble_problem(ConstraintSet.box(np.zeros(3), np.ones(3)),
                                            _two_entry_problem().prescriptions),
                 ShapeMismatch, r"the constraint does not project R\^2 into itself",
                 id="constraint-box-size"),
    pytest.param(lambda p: BlockShape((4,), ((2, 2), None)), InvalidParameter,
                 "extents and lengths must align", id="block-shape-extents"),
    pytest.param(lambda p: SpacePoint(np.zeros(3), BlockShape.vector(4)),
                 ShapeMismatch, "data length 3 != shape total 4",
                 id="space-point-length"),
    # each of these was silently truncated or accepted, or ended in a bare
    # TypeError or AttributeError
    pytest.param(lambda p: BlockShape((2.5,)), InvalidParameter,
                 "lengths: 2.5 is not an integer", id="block-shape-float-length"),
    pytest.param(lambda p: BlockShape.vector(True), InvalidParameter,
                 "lengths: True is not an integer", id="block-shape-bool-length"),
    pytest.param(_config(gamma="1.9"), InvalidParameter,
                 "gamma: '1.9' is not a real number", id="config-gamma-string"),
    pytest.param(_config(tol=None), InvalidParameter,
                 "tol: None is not a real number", id="config-tol-none"),
    pytest.param(_config(gamma=True), InvalidParameter,
                 "gamma: True is not a real number", id="config-gamma-bool"),
    pytest.param(_config(tol=False), InvalidParameter,
                 "tol: False is not a real number", id="config-tol-bool"),
    pytest.param(_config(x0=[0.0, 0.0]), InvalidParameter,
                 "x0: a list is not a SpacePoint", id="config-x0-list"),
    pytest.param(lambda p: make_schedule("full", 2.5), InvalidParameter,
                 "index_count: 2.5 is not an integer", id="schedule-float-count"),
    pytest.param(lambda p: make_schedule("full", "3"), InvalidParameter,
                 "index_count: '3' is not an integer", id="schedule-string-count"),
    pytest.param(lambda p: ActivationSchedule("explicit", [(0,)], 2.5),
                 InvalidParameter, "index_count: 2.5 is not an integer",
                 id="explicit-schedule-float-count"),
])
def test_each_refusal_raises_its_typed_error(tmp_path, build, error, message):
    # callers tell these refusals apart by their BlockviError subclass (the
    # CLI prints the message), so each keeps its own class and message
    with pytest.raises(error, match=message) as info:
        build(tmp_path)
    assert type(info.value) is error


@pytest.mark.parametrize("kind", ["image_recovery", "signal_recovery",
                                  "sparse_image", "source_separation", "custom",
                                  "log_penalty"])
def test_stock_problems_pickle_and_solve_bitwise(tmp_path, kind):
    # the constraint's projector is a partial of clamp or a module-level
    # identity, and the log-penalty shrinkage a partial of log_threshold, not
    # a lambda, so a stock problem pickles whole
    operators = {}
    if kind == "log_penalty":
        kind, operators = "sparse_image", {"log_penalty": True}
    if kind == "custom":
        operators = {"matrix_csv": str(_written("m.csv", "1,2\n3,4\n5,-6\n")(tmp_path)),
                     "rhs_csv": str(_written("b.csv", "value\n1\n2\n3\n")(tmp_path)),
                     "box_bounds": [-0.5, 0.5]}
    problem = generate_experiment(kind, {}, 0, {}, operators).problem
    if kind != "signal_recovery":
        # a box of two numbers, not two arrays of the domain's size
        box = problem.constraint.array_projector.keywords
        assert box["lo"].shape == box["hi"].shape == ()
    copy = pickle.loads(pickle.dumps(problem))
    runs = [solve(p, make_schedule("full", p.arm_count),
                  SolverConfig(1.9, 40, 0.0, SpacePoint.zeros(p.domain_shape),
                               trace_every=5))
            for p in (problem, copy)]
    solution, copied = (r.solution.data.tobytes() for r in runs)
    assert solution == copied
    records, copied = ([(t.n, t.residual, t.step_norm, t.active_set_id)
                        for t in r.trace.records] for r in runs)
    assert records == copied and len(records) == 9

