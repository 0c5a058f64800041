"""Per-layer span tracing of one ``blockvi run``, installed from outside the
program.

The traced run wraps the entry points through which the program reaches each
of its layers (the tables below), records one span per call and keeps the
spans in memory, aggregated per layer and per arm, until the run ends.  A
layer's figure is its *self* time: the span minus the spans of the wrapped
entry points it called.  An entry point that the program no longer has is not
an error: it is listed as untraced and its time stays in the self time of the
span that called it.

Spans inside the program are a later change; this module only wraps.
"""

from __future__ import annotations

import importlib
import os
import time
from types import ModuleType

SOLVER_LAYER = "solver"
# ROADMAP's bar for the profile: named layers, i.e. everything but the
# solver's own self time, cover at least this share of the traced solve.
COVERAGE_BAR = 0.90

# Module-level entry points: (layer, module, attribute path).  This is the one
# table that says where each layer is entered; rename here when the program's
# names change.
MODULE_ENTRY_POINTS = (
    ("cli.manifest", "blockvi.cli.main", "load_manifest"),
    ("cli.generate", "blockvi.cli.runner", "generate_experiment"),
    (SOLVER_LAYER, "blockvi.cli.runner", "solve"),
    ("solver.bounds", "blockvi.solver", "step_bounds"),
    ("core.residual", "blockvi.solver", "vi_residual"),
    ("core.residual", "blockvi.core", "vi_residual"),
    ("core.inconsistency", "blockvi.cli.runner", "inconsistency_bound"),
    ("cli.artifacts", "blockvi.cli.runner", "write_vector_csv"),
    ("cli.artifacts", "blockvi.cli.runner", "write_pgm"),
    ("cli.artifacts", "blockvi.cli.runner", "write_snapshots_csv"),
    ("cli.artifacts", "blockvi.cli.runner", "write_json"),
    ("cli.artifacts", "blockvi.solver", "SolverTrace.to_csv"),
)

# Array-level methods of each arm of the generated problem: (layer, attribute
# of the Prescription, method of that object).
ARM_ENTRY_POINTS = (
    ("linops.fwd", "linop", "_apply"),
    ("linops.adj", "linop", "_adjoint"),
    ("fne_ops", "fne", "_apply"),
)

# Projections of ``Problem.constraint``: (layer, attribute).  A constraint
# whose attribute is None simply has no such path.
CONSTRAINT_ENTRY_POINTS = (
    ("core.project", "array_projector"),
    ("core.project", "projector"),
)

# Constructions of this class are counted, not timed.
POINT_CLASS = ("space.points", "blockvi.space", "SpacePoint")

ARTIFACT_LAYER = "cli.artifacts"
GENERATE_LAYER = "cli.generate"
# The one artifact whose size varies between identical runs: its wall-clock
# seconds column.  Its writes are timed but their bytes are not counted.
WALL_CLOCK_ARTIFACT = "trace.csv"

_ABSENT = object()


def _resolve(module_name: str, path: str):
    """(owner, attribute) for a dotted attribute path inside a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise AttributeError(f"{module_name}:{path}")
    return owner, attr


class Tracer:
    """In-memory span aggregates of one process.

    ``spans`` maps (layer, arm) to [calls, self seconds, wall seconds]; arm is
    None for module-level entry points.  ``counts`` holds plain counters.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack = []
        self._undo = []
        self.spans = {}
        self.counts = {"space.points": 0, "cli.artifact_bytes": 0}
        self.untraced = set()

    # -- spans ----------------------------------------------------------------

    def wrap(self, layer, fn, arm=None):
        agg = self.spans.setdefault((layer, arm), [0, 0.0, 0.0])
        stack, clock = self._stack, self._clock

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                wall = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                agg[0] += 1
                agg[1] += wall - children[0]
                agg[2] += wall

        return traced

    def snapshot(self) -> dict:
        """Copy of the span aggregates and counters, for differences."""
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts)}

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        # instances may be frozen dataclasses, hence object.__setattr__
        setter = setattr if isinstance(owner, (type, ModuleType)) \
            else object.__setattr__
        self._undo.append((owner, attr, vars(owner).get(attr, _ABSENT), setter))
        setter(owner, attr, replacement)

    def restore(self):
        """Undo every patch, newest first."""
        while self._undo:
            owner, attr, original, setter = self._undo.pop()
            if original is not _ABSENT:
                setter(owner, attr, original)
            elif setter is setattr:
                delattr(owner, attr)
            else:
                object.__delattr__(owner, attr)

    def install(self, entry_points=MODULE_ENTRY_POINTS,
                arm_entry_points=ARM_ENTRY_POINTS):
        """Wrap the module-level entry points and count point constructions;
        the arms of each generated problem are wrapped when it is returned."""
        for layer, module_name, path in entry_points:
            try:
                owner, attr = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.untraced.add(f"{module_name}:{path}")
                continue
            wrapped = self.wrap(layer, getattr(owner, attr))
            if layer == ARTIFACT_LAYER:
                wrapped = self._counting_bytes(wrapped)
            elif layer == GENERATE_LAYER:
                wrapped = self._instrumenting(wrapped, arm_entry_points)
            self._patch(owner, attr, wrapped)
        self._count_points()

    def _counting_bytes(self, writer):
        counts = self.counts

        def counted(*args, **kwargs):
            out = writer(*args, **kwargs)
            if os.path.basename(args[1]) != WALL_CLOCK_ARTIFACT:
                counts["cli.artifact_bytes"] += os.path.getsize(args[1])
            return out

        return counted

    def _instrumenting(self, generate, arm_entry_points):
        def instrumented(*args, **kwargs):
            data = generate(*args, **kwargs)
            problem = getattr(data, "problem", None)
            if problem is None:
                self.untraced.add("ExperimentData.problem")
            else:
                self.instrument_problem(problem, arm_entry_points)
            return data

        return instrumented

    def instrument_problem(self, problem, arm_entry_points=ARM_ENTRY_POINTS):
        """Wrap the array-level methods of every arm and of the constraint."""
        for arm, prescription in enumerate(problem.prescriptions):
            for layer, role, method in arm_entry_points:
                obj = getattr(prescription, role, None)
                if obj is None or not hasattr(obj, method):
                    self.untraced.add(f"Prescription.{role}.{method}")
                elif method not in vars(obj):  # objects shared by arms: once
                    self._patch(obj, method,
                                self.wrap(layer, getattr(obj, method), arm))
        constraint = problem.constraint
        for layer, attr in CONSTRAINT_ENTRY_POINTS:
            if not hasattr(constraint, attr):
                self.untraced.add(f"ConstraintSet.{attr}")
            elif getattr(constraint, attr) is not None:
                self._patch(constraint, attr,
                            self.wrap(layer, getattr(constraint, attr)))

    def _count_points(self):
        layer, module_name, name = POINT_CLASS
        try:
            cls, _ = _resolve(module_name, name + ".__init__")
        except (ImportError, AttributeError):
            self.untraced.add(f"{module_name}:{name}")
            return
        init = cls.__init__
        counts = self.counts

        def counted_init(obj, *args, **kwargs):
            counts[layer] += 1
            init(obj, *args, **kwargs)

        self._patch(cls, "__init__", counted_init)


def span_difference(after: dict, before: dict) -> dict:
    """Aggregates accrued between two snapshots, as JSON-ready lists."""
    spans = []
    for key, (calls, self_s, wall_s) in after["spans"].items():
        prev = before["spans"].get(key, [0, 0.0, 0.0])
        if calls > prev[0]:
            spans.append([key[0], key[1], calls - prev[0],
                          self_s - prev[1], wall_s - prev[2]])
    counts = {k: v - before["counts"].get(k, 0) for k, v in after["counts"].items()}
    return {"spans": spans, "counts": counts}


def named_self_s(profile: dict) -> float:
    """Self seconds of a solve profile in named layers: all but the solver's
    own, which also holds the time of anything the tables do not wrap."""
    return sum(s[3] for s in profile["spans"] if s[0] != SOLVER_LAYER)


def check_coverage(profile: dict, wall_s: float) -> tuple:
    """(passed, share): the share of a traced solve's wall time that named
    layers account for, against COVERAGE_BAR.  A bar for the profile, not a
    check of the program's outputs."""
    share = named_self_s(profile) / wall_s
    return share >= COVERAGE_BAR, share
