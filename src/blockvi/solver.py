"""Block-iterative fixed-point solver with pluggable activation schedules.

Each iteration refreshes the auxiliary points of the activated arms only,

    t_i = x_n - (gamma / b_i) L_i*(F_i(L_i x_n) - p_i),   i in I_n,

keeps the others stale, and projects an average of the t_i back onto the
constraint set.  Convergence requires gamma in (0, 2), certified step
bounds b_i, and a covering schedule: every window of K consecutive active
sets must touch every arm.

The step bounds are certified per *activation atom*: a maximal set of arms
that every active set of the schedule either holds whole or does not touch.
The arms of an atom c (total weight W_c) are always refreshed together, so
they act as one arm L_c x = (L_i x)_{i in c} on the product space with inner
product sum_{i in c} (w_i / W_c) <., .>, and F_c = (F_i)_{i in c} is still
firmly nonexpansive.  Every arm of c may therefore share one bound

    b_c  >=  ||L_c||^2  =  || sum_{i in c} (w_i / W_c) L_i* L_i ||,

which can be far below the weighted mean of the per-arm ||L_i||^2 when the
maps of c point in different directions.  The bound is tightened only where
it is computed exactly: for multi-arm atoms of dense maps, b_c is the squared
largest singular value of the stacked rows sqrt(w_i / W_c) A_i.  Every other
arm keeps its ``Prescription.norm_sq_bound`` (b_i >= ||L_i||^2).

The averaging uses weights v_i proportional to w_i * b_i.  Dividing each
arm's update by b_i makes the arm operators 1-cocoercive (which is what the
gamma in (0, 2) guarantee needs), and multiplying the weights by b_i puts
the cancelled factor back, so fixed points satisfy

    -sum_i w_i L_i*(F_i(L_i x) - p_i)  in  N_C(x)

with the *problem's own* weights w_i -- the condition ``vi_residual``
measures.  Averaging with the raw w_i instead would steer the iteration to
a solution of a differently-weighted inequality whenever the bounds differ.

One array kernel evaluates the arms, a *group* at a time: at a point x it
returns the rows L_i*(F_i(L_i x) - p_i) of the group's arms.  The iteration
sets t_i = x - gamma_i * row_i for the groups of the active set, and the
residual reduces sum_i w_i row_i over the groups of all arms (taken as one
atom).  Within an activation atom, the arms whose map is a one-row
``DenseMatrix`` and whose FNEs fuse into one elementwise operator on R^k
(``FneOperator.stacked``; soft thresholds of one level, singleton projectors
and their residuals) form one group: one matvec with their stacked rows A_c,
one FNE call and one row scaling r[:, None] * A_c, whatever k.  Only the
order of each row's dot product differs from evaluating those arms one by
one.  Every other arm is a group of one, evaluated through its own
``_apply``/``_adjoint`` exactly as alone.
"""

from __future__ import annotations

import csv
import enum
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# vi_residual is re-exported: the public residual stays reachable through this
# module (bench/bench_trace.py wraps it here), while solve() calls the array
# form below directly.
from .core import Problem, vi_residual  # noqa: F401
from .errors import CoverageError, EmptyBlock, InvalidParameter, ShapeMismatch
from .linops import DenseMatrix
from .space import SpacePoint

__all__ = [
    "ActivationSchedule",
    "make_schedule",
    "validate_schedule",
    "SolverConfig",
    "SolverState",
    "TraceRecord",
    "SolverTrace",
    "SolveStatus",
    "SolveResult",
    "step",
    "solve",
    "activation_atoms",
    "step_bounds",
    "arm_gammas",
    "averaging_weights",
    "array_residual",
]


# ---------------------------------------------------------------------------
# activation schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActivationSchedule:
    """Periodic sequence of nonempty index sets with certified covering constant K."""

    kind: str
    sets: tuple            # one period of active sets, each a sorted tuple
    K: int
    index_count: int

    def active_set(self, n: int) -> tuple:
        return self.sets[n % len(self.sets)]


def validate_schedule(sets: Sequence[Sequence[int]], index_count: int) -> int:
    """Check the covering condition over one period and return the minimal K.

    K is the smallest window length such that every K consecutive active sets
    (starting anywhere) jointly touch every index.
    """
    period = [tuple(sorted(set(int(i) for i in s))) for s in sets]
    if not period:
        raise InvalidParameter("schedule must contain at least one index set")
    full = frozenset(range(index_count))
    for s in period:
        if not s:
            raise EmptyBlock("activation sets must be nonempty")
        if not frozenset(s) <= full:
            raise InvalidParameter(f"activation set {s} outside 0..{index_count - 1}")
    union = frozenset().union(*map(frozenset, period))
    if union != full:
        missing = sorted(full - union)
        raise CoverageError(f"indices {missing} are never activated")
    worst = 1
    m = len(period)
    for start in range(m):
        seen: set = set()
        k = 0
        while seen != full:
            seen |= set(period[(start + k) % m])
            k += 1
        worst = max(worst, k)
    return worst


def make_schedule(kind: str, index_count: int, *, blocks=None,
                  always_active: Sequence[int] = (), expensive: Sequence[int] = (),
                  period: Optional[int] = None,
                  sets: Optional[Sequence[Sequence[int]]] = None) -> ActivationSchedule:
    """Build one of the stock schedules and certify its covering constant.

    * ``full``: every arm at every iteration (K = 1).
    * ``cyclic_partition``: the arms outside ``always_active`` are split into
      ``blocks`` consecutive cells (or explicit cells), one cell per
      iteration plus the always-active arms (K = number of cells).
    * ``mod_skip``: all arms when n is a multiple of ``period``, all but the
      ``expensive`` arms otherwise (K = period).
    * ``explicit``: caller-provided period of index sets; K is measured.
    """
    if index_count < 1:
        raise InvalidParameter("index_count must be >= 1")
    all_idx = tuple(range(index_count))

    if kind == "full":
        period_sets = [all_idx]
    elif kind == "cyclic_partition":
        always = tuple(sorted(set(int(i) for i in always_active)))
        rest = [i for i in all_idx if i not in always]
        if isinstance(blocks, int):
            if blocks < 1 or (rest and blocks > len(rest)):
                raise InvalidParameter("block count must be in [1, #rotating arms]")
            cells = [list(c) for c in np.array_split(np.array(rest, dtype=int), blocks)]
        else:
            cells = [list(int(i) for i in c) for c in (blocks or [])]
            covered = set(i for c in cells for i in c)
            if covered != set(rest):
                raise CoverageError("explicit cells must partition the rotating arms")
        if any(len(c) == 0 for c in cells):
            raise EmptyBlock("cyclic partition contains an empty cell")
        period_sets = [tuple(sorted(always + tuple(c))) for c in cells]
    elif kind == "mod_skip":
        if period is None or period < 1:
            raise InvalidParameter("mod_skip needs a period >= 1")
        exp = tuple(sorted(set(int(i) for i in expensive)))
        cheap = tuple(i for i in all_idx if i not in exp)
        if not cheap and period > 1:
            raise EmptyBlock("skipping every arm would leave empty iterations")
        period_sets = [all_idx] + [cheap] * (period - 1)
    elif kind == "explicit":
        if not sets:
            raise InvalidParameter("explicit schedule needs index sets")
        period_sets = [tuple(sorted(set(int(i) for i in s))) for s in sets]
    else:
        raise InvalidParameter(f"unknown schedule kind {kind!r}")

    k = validate_schedule(period_sets, index_count)
    return ActivationSchedule(kind=kind, sets=tuple(tuple(s) for s in period_sets),
                              K=k, index_count=index_count)


# ---------------------------------------------------------------------------
# configuration, state, trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    gamma: float
    max_iters: int
    tol: float
    x0: SpacePoint
    trace_every: int = 1
    t_init_policy: str = "copy_x0"   # or "one_step"
    residual_theta: float = 1.0
    keep_snapshots: bool = False
    record_arm_gaps: bool = False

    def validate(self):
        if not 0.0 < self.gamma < 2.0:
            raise InvalidParameter(
                f"gamma = {self.gamma!r} rejected; the relaxation parameter "
                "must lie strictly inside (0, 2)")
        if self.max_iters < 1:
            raise InvalidParameter("max_iters must be >= 1")
        if self.tol < 0:
            raise InvalidParameter("tol must be nonnegative")
        if self.trace_every < 1:
            raise InvalidParameter("trace_every must be >= 1")
        if self.t_init_policy not in ("copy_x0", "one_step"):
            raise InvalidParameter("t_init_policy must be copy_x0 or one_step")
        if self.residual_theta <= 0:
            raise InvalidParameter("residual_theta must be positive")


@dataclass(frozen=True)
class SolverState:
    """Iterate x_n together with the auxiliary points t_{i, n-1}."""

    n: int
    x: SpacePoint
    t: tuple


@dataclass(frozen=True)
class TraceRecord:
    n: int
    seconds: float
    residual: float
    step_norm: float
    active_set_id: int
    arm_gaps: Optional[tuple] = None


@dataclass
class SolverTrace:
    """Per-iteration records plus optional iterate snapshots.

    ``active_sets`` registers each distinct activated set once; records refer
    to it by position.  ``iterates`` holds (k, seconds, x_k) with k = 0 the
    starting point, retained only when snapshots are requested.
    """

    records: list = field(default_factory=list)
    active_sets: list = field(default_factory=list)
    iterates: list = field(default_factory=list)

    def _set_id(self, active: tuple) -> int:
        try:
            return self.active_sets.index(active)
        except ValueError:
            self.active_sets.append(active)
            return len(self.active_sets) - 1

    def add(self, n: int, seconds: float, residual: float, step_norm: float,
            active: tuple, arm_gaps: Optional[tuple] = None):
        if self.records and n <= self.records[-1].n:
            raise InvalidParameter("trace records must be strictly increasing in n")
        self.records.append(TraceRecord(n, seconds, residual, step_norm,
                                        self._set_id(active), arm_gaps))

    def add_iterate(self, k: int, seconds: float, x: SpacePoint):
        self.iterates.append((k, seconds, x))

    @property
    def final_residual(self) -> float:
        return self.records[-1].residual if self.records else float("nan")

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "seconds", "residual", "step_norm", "active_set_id"])
            for r in self.records:
                writer.writerow([r.n, f"{r.seconds:.17g}", f"{r.residual:.17g}",
                                 f"{r.step_norm:.17g}", r.active_set_id])


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class SolveResult:
    solution: SpacePoint
    trace: SolverTrace
    status: SolveStatus


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

def activation_atoms(schedule: ActivationSchedule) -> tuple:
    """Maximal sets of arms that every active set holds whole or misses,
    in order of their first arm."""
    sets = [frozenset(s) for s in schedule.sets]
    atoms: dict = {}
    for i in range(schedule.index_count):
        atoms.setdefault(tuple(i in s for s in sets), []).append(i)
    return tuple(tuple(a) for a in atoms.values())


def step_bounds(problem: Problem,
                schedule: Optional[ActivationSchedule] = None) -> tuple:
    """Certified step bound b_i of every arm.

    Without a schedule every arm is its own atom and b_i is its
    ``norm_sq_bound``.  With one, the arms of a multi-arm atom of dense maps
    share the exact bound ||sum_{i in c} (w_i / W_c) A_i^T A_i|| whenever it
    is below their weighted mean sum_{i in c} w_i b_i / W_c.
    """
    bounds = [p.norm_sq_bound for p in problem.prescriptions]
    if schedule is None:
        return tuple(bounds)
    for atom in activation_atoms(schedule):
        arms = [problem.prescriptions[i] for i in atom]
        if len(arms) < 2 or not all(isinstance(p.linop, DenseMatrix) for p in arms):
            continue
        total = math.fsum(p.weight for p in arms)
        stacked = np.vstack([math.sqrt(p.weight / total) * p.linop.matrix
                             for p in arms])
        # allowance for the rounding error of the computed singular value
        slack = 1.0 + 8.0 * np.finfo(np.float64).eps * max(stacked.shape)
        certified = float(np.linalg.norm(stacked, 2)) ** 2 * slack
        if certified < math.fsum(p.weight * p.norm_sq_bound for p in arms) / total:
            for i in atom:
                bounds[i] = certified
    return tuple(bounds)


def arm_gammas(problem: Problem, gamma: float,
               schedule: Optional[ActivationSchedule] = None) -> tuple:
    """Arm step sizes gamma_i = gamma / b_i (see :func:`step_bounds`)."""
    return tuple(gamma / b for b in step_bounds(problem, schedule))


def averaging_weights(problem: Problem,
                      schedule: Optional[ActivationSchedule] = None) -> tuple:
    """Weights v_i = w_i b_i / sum_j w_j b_j used in the averaging step; they
    cancel the per-arm step scaling so fixed points solve the stated problem."""
    return _averaging_weights(problem, step_bounds(problem, schedule))


def _averaging_weights(problem: Problem, bounds) -> tuple:
    raw = [p.weight * b for p, b in zip(problem.prescriptions, bounds)]
    z = sum(raw)
    return tuple(r / z for r in raw)


@dataclass(frozen=True)
class _ArmGroup:
    """Arms that :func:`_arm_rows` evaluates in one pass: a single arm
    (``linop`` set), or one-row dense arms with fused FNEs (``matrix`` holds
    their stacked rows, ``fne`` acts on all of them elementwise)."""

    arms: object             # slice or index array of the arms, ascending
    fne: object
    target: np.ndarray
    linop: object = None
    matrix: Optional[np.ndarray] = None


def _arm_groups(problem: Problem, atom: Sequence[int]) -> tuple:
    """Split one activation atom into groups: for each FNE class, the atom's
    one-row dense arms when their FNEs fuse (``FneOperator.stacked``), and
    every other arm alone."""
    alone, rank_one = [], {}
    for i in atom:
        p = problem.prescriptions[i]
        if isinstance(p.linop, DenseMatrix) and p.linop.matrix.shape[0] == 1:
            rank_one.setdefault(type(p.fne), []).append(i)
        else:
            alone.append(i)
    groups = []
    for cls, arms in rank_one.items():
        pres = [problem.prescriptions[i] for i in arms]
        fne = cls.stacked([p.fne for p in pres]) if len(arms) > 1 else None
        if fne is None:
            alone.extend(arms)
            continue
        contiguous = arms == list(range(arms[0], arms[-1] + 1))
        groups.append(_ArmGroup(
            slice(arms[0], arms[-1] + 1) if contiguous else np.array(arms),
            fne, np.concatenate([p.target.data for p in pres]),
            matrix=np.vstack([p.linop.matrix for p in pres])))
    for i in alone:
        p = problem.prescriptions[i]
        groups.append(_ArmGroup(slice(i, i + 1), p.fne, p.target.data, p.linop))
    return tuple(groups)


def _arm_rows(group: _ArmGroup, x: np.ndarray) -> np.ndarray:
    """L_i*(F_i(L_i x) - p_i) for the arms of ``group``, one row per arm.

    A fused group costs one matvec, one FNE call and one row scaling; a single
    arm goes through its own ``_apply``/``_adjoint`` (and returns a flat row).
    """
    if group.matrix is None:
        image = group.fne._apply(group.linop._apply(x))
        return group.linop._adjoint(image - group.target)
    r = group.fne._apply(group.matrix @ x) - group.target
    return r[:, None] * group.matrix


def _refresh(groups, gammas: np.ndarray, x: np.ndarray, t: np.ndarray):
    """t_i = x - gamma_i L_i*(F_i(L_i x) - p_i) for the arms of ``groups``,
    in place; every other row of ``t`` stays bitwise as it was."""
    for g in groups:
        t[g.arms] = x - gammas[g.arms, None] * _arm_rows(g, x)


def array_residual(problem: Problem, x: np.ndarray, theta: float = 1.0,
                   groups: Optional[tuple] = None) -> float:
    """:func:`blockvi.core.vi_residual` on a flat array.  ``groups`` are the
    arm groups of all arms taken as one atom; they are built when omitted."""
    if groups is None:
        groups = _arm_groups(problem, range(problem.arm_count))
    rows = np.empty((problem.arm_count, x.size))
    for g in groups:
        rows[g.arms] = _arm_rows(g, x)
    z = x - theta * (np.asarray(problem.weights) @ rows)
    projected = problem.constraint.project_array(z, problem.domain_shape)
    return float(np.linalg.norm(x - projected)) / (1.0 + float(np.linalg.norm(x)))


def step(state: SolverState, problem: Problem, active: Sequence[int],
         config: SolverConfig) -> SolverState:
    """One exact iteration: refresh t_i for active arms, keep the rest stale,
    project the weighted average.  Pure function of (state, active); stale
    auxiliary points are carried over unchanged (bitwise).  No schedule fixes
    its atoms, so every arm is its own atom: per-arm bounds b_i =
    ``norm_sq_bound``, and every arm evaluated alone."""
    bounds = step_bounds(problem)
    gammas = config.gamma / np.asarray(bounds)
    vweights = np.asarray(_averaging_weights(problem, bounds))
    t_matrix = np.stack([ti.data for ti in state.t])
    _refresh([g for i in active for g in _arm_groups(problem, (i,))],
             gammas, state.x.data, t_matrix)
    x_next = problem.constraint.project_array(vweights @ t_matrix,
                                              problem.domain_shape)
    active_set = set(active)
    t_next = tuple(
        SpacePoint(t_matrix[i], problem.prescriptions[i].linop.input_shape)
        if i in active_set else state.t[i]
        for i in range(problem.arm_count))
    return SolverState(n=state.n + 1, x=SpacePoint(x_next, problem.domain_shape),
                       t=t_next)


def solve(problem: Problem, schedule: ActivationSchedule,
          config: SolverConfig) -> SolveResult:
    """Run the block iteration until the fixed-point residual drops below
    ``config.tol`` (checked every ``trace_every`` iterations) or ``max_iters``
    is reached.  Step sizes and averaging weights use the bounds certified for
    the schedule's activation atoms, and the arms of each atom are evaluated
    in groups (see the module docstring).  Deterministic given (problem,
    schedule, config)."""
    config.validate()
    if schedule.index_count != problem.arm_count:
        raise InvalidParameter("schedule was built for a different arm count")
    validate_schedule(schedule.sets, problem.arm_count)
    if config.x0.shape != problem.domain_shape:
        raise ShapeMismatch("x0 lives outside the problem domain")

    bounds = step_bounds(problem, schedule)
    gammas = config.gamma / np.asarray(bounds)
    vweights = np.asarray(_averaging_weights(problem, bounds))
    atom_groups = {atom: _arm_groups(problem, atom)
                   for atom in activation_atoms(schedule)}
    set_groups = [tuple(g for atom, groups in atom_groups.items()
                        if atom[0] in s for g in groups)
                  for s in schedule.sets]
    every_arm = tuple(range(problem.arm_count))
    all_groups = atom_groups.get(every_arm) or _arm_groups(problem, every_arm)
    if config.t_init_policy == "copy_x0":
        t = np.tile(config.x0.data, (problem.arm_count, 1))
    else:
        t = np.empty((problem.arm_count, config.x0.dim))
        _refresh(all_groups, gammas, config.x0.data, t)

    trace = SolverTrace()
    started = time.perf_counter()
    if config.keep_snapshots:
        trace.add_iterate(0, 0.0, config.x0)

    x = config.x0.data
    status = SolveStatus.MAX_ITERS
    for n in range(config.max_iters):
        active = schedule.active_set(n)
        prev_x = x
        _refresh(set_groups[n % len(set_groups)], gammas, x, t)
        x = problem.constraint.project_array(vweights @ t, problem.domain_shape)
        if n % config.trace_every == 0 or n == config.max_iters - 1:
            x_point = SpacePoint(x, problem.domain_shape)  # rejects non-finite x
            residual = array_residual(problem, x, config.residual_theta,
                                      all_groups)
            seconds = time.perf_counter() - started
            gaps = None
            if config.record_arm_gaps:
                gaps = tuple(p.gap(x_point) for p in problem.prescriptions)
            trace.add(n, seconds, residual,
                      float(np.linalg.norm(x - prev_x)), active, gaps)
            if config.keep_snapshots:
                trace.add_iterate(n + 1, seconds, x_point)
            if residual <= config.tol:
                status = SolveStatus.CONVERGED
                break
    return SolveResult(solution=SpacePoint(x, problem.domain_shape),
                       trace=trace, status=status)
