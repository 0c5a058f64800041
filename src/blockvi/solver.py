"""Block-iterative fixed-point solver with pluggable activation schedules.

Each iteration refreshes the auxiliary points of the activated arms only,

    t_i = x_n - (gamma / b_i) L_i*(F_i(L_i x_n) - p_i),   i in I_n,

keeps the others stale, and projects an average of the t_i back onto the
constraint set.  Convergence requires gamma in (0, 2), certified step
bounds b_i, and a covering schedule: every window of K consecutive active
sets must touch every arm.  A :class:`SolverConfig` checks gamma, and an
:class:`ActivationSchedule` certifies its own K and finds its activation
atoms, when it is built.

The step bounds are certified per *activation atom*: a maximal set of arms
that every active set of the schedule either holds whole or does not touch.
The arms of an atom c (total weight W_c) are always refreshed together, so
they act as one arm L_c x = (L_i x)_{i in c} on the product space with inner
product sum_{i in c} (w_i / W_c) <., .>, and F_c = (F_i)_{i in c} is still
firmly nonexpansive.  Every arm of c may therefore share one bound

    b_c  >=  ||L_c||^2  =  || sum_{i in c} (w_i / W_c) L_i* L_i ||,

which can be far below the weighted mean of the per-arm ||L_i||^2 when the
maps of c point in different directions.  The bound is tightened only where
it is computed exactly: for multi-arm atoms of dense maps, b_c is
:func:`blockvi.linops.certified_norm_sq` of the stacked rows A_i with row
weights w_i / W_c, the largest eigenvalue of their smaller weighted Gram
plus a stated allowance for its rounding.  Every other arm keeps its map's
certified ``norm_sq`` (b_i >= ||L_i||^2).  An atom is dense when every one
of its groups below has a ``DenseMatrix`` map.  One that is one fused group
is certified on its group's ``DenseMatrix``; any other dense atom stacks its
arms' own matrices, in atom order, for the bound alone.  The per-arm weights
and bounds come from :attr:`blockvi.core.Problem.arrays`.

The averaging uses weights v_i proportional to w_i * b_i.  Dividing each
arm's update by b_i makes the arm operators 1-cocoercive (which is what the
gamma in (0, 2) guarantee needs), and multiplying the weights by b_i puts
the cancelled factor back, so fixed points satisfy

    -sum_i w_i L_i*(F_i(L_i x) - p_i)  in  N_C(x)

with the *problem's own* weights w_i -- the condition ``vi_residual``
measures.  Averaging with the raw w_i instead would steer the iteration to
a solution of a differently-weighted inequality whenever the bounds differ.

The arms are evaluated in groups (:func:`blockvi.core.arm_groups`), built
once per atom by :meth:`blockvi.core.Problem.atom_groups`.  A group holds
its arms' weights w_i, which no schedule changes, so every solve reuses
them; the residual evaluates those of all arms as one atom
(:attr:`blockvi.core.Problem.groups`).  Every group is evaluated through its
``linop`` and ``fne`` (fused one-row dense arms through the ``DenseMatrix``
of their rows), and :func:`blockvi.core.pullback` reduces it to one
direction d_g: L_i*(F_i(L_i x) - p_i) for a single arm, sum_{i in g} w_i
L_i*(F_i(L_i x) - p_i) for a fused group.  The auxiliary state holds one row
per group, not one per arm, and every row starts at x_0.  A group is
refreshed whole, from one x, and the averaging step sees its arms only
through their v-weighted mean tau_g = sum_{i in g} (v_i / V_g) t_i,
V_g = sum_{i in g} v_i.  So the row of g is tau_g, a refresh sets

    tau_g = x - a_g d_g,   a_g = gamma_i for a single arm,  a_g = kappa / V_g
                           for a fused group,  kappa = gamma / sum_j w_j b_j,

and x' = P_C(sum_g V_g tau_g).  Since v_i gamma_i = kappa w_i, this is the
v-weighted mean of the per-arm t_i, and the b_i cancel from a_g.  A single
arm keeps its row t_i exactly, and the rows are ordered by each group's
first arm, so a problem without fused groups runs the per-arm iteration bit
for bit.

The stop test is the residual at a loop iterate x.  Every check evaluates
it with :func:`blockvi.core.array_residual` over the groups of
:attr:`blockvi.core.Problem.groups` and records it at once.  That pass
computes every d_g at x, so when the next iteration refreshes every row at x
and the schedule's groups are those, in their order, the refresh takes
those directions and evaluates no arm.  A run stops at the first check where
the residual meets ``tol``.  It checks at every multiple of ``trace_every``,
at its last iteration, and, when the last two checks (n', r') and (n, r)
have tol < r < r', at the first iteration from n + ln(tol / r) / rho, rho =
ln(r / r') / (n - n'), where the residual meets ``tol`` if it keeps its
rate.  Checks only read x, so they move no iterate.

A schedule whose period starts with the set of all arms (``full``,
``mod_skip``, or such an ``explicit`` period) is accelerated by safeguarded
type-II Anderson extrapolation (Walker & Ni, SIAM J. Numer. Anal. 49(4),
2011) of a *span map*.  A span is the smallest whole number S of base
iterations that is a multiple of the period and at least ``_Anderson.SPAN``:
``full`` runs spans of ``SPAN`` iterations, and a period of at least
``SPAN`` iterations (the stock ``mod_skip`` and ``signal_recovery``
manifests) runs one period a span.  One extrapolation step costs a fair
share of a cheap base iteration, so it is taken once per span, not after
every iteration.  Every span starts by rebuilding every row from x_{kS}, so
the span map Phi: x_{kS} -> x_{(k+1)S} depends on x alone, and x is
extrapolated.  Any other period (``cyclic_partition``, other ``explicit``
periods) leaves rows stale when a span starts, so it runs plain, as does
every schedule under ``SolverConfig(accelerate=False)``.

The fixed points are the right ones.  If Phi(x*) = x*, the plain iteration
started at x* is S-periodic.  It converges by the paper's theorem, so it is
constant.  Every row is refreshed within a span, so each is its refresh at
the constant x*, which is then a fixed point of every step and solves the
variational inequality.

Phi is also nonexpansive.  Call a *block* a multi-arm atom whose arms share
the bound b_c, or else a group of an atom without a shared bound; a group
lies in one atom, so every group lies in exactly one block, and a block is
always refreshed whole.  Write tau_B = sum_{g in B} (V_g / V_B) tau_g.  A
refresh sets tau_B to a nonexpansive map of x: for a shared-bound atom tau_B =
x - (gamma / b_c) L_c*(F_c(L_c x) - p_c), where F_c is firmly nonexpansive,
b_c >= ||L_c||^2 and gamma < 2; otherwise tau_B is the convex combination
sum_{i in B} (v_i / V_B)(x - gamma_i L_i*(F_i(L_i x) - p_i)) of maps of the
same kind with b_i >= ||L_i||^2.  Take two runs and let M_n be the largest of
||x_n - y_n|| and the distances ||tau_B - tau_B'||.  A refresh gives
||tau_B - tau_B'|| <= ||x_n - y_n||, a stale block keeps its distance, and the
projected average obeys ||x_{n+1} - y_{n+1}|| <= sum_B V_B ||tau_B - tau_B'||
(V_B >= 0, sum V_B = 1), so M_n never grows.  The first set of a span
refreshes every block, so M_1 <= ||x - y|| and ||Phi(x) - Phi(y)|| <=
||x - y||; for ``full``, Phi = T^S for the nonexpansive map T of one base
iteration.

At each span boundary the start s_k of the span just run and its image
f_k = Phi(s_k) give g_k = f_k - s_k.  With the differences dG, dF of the
last ``_Anderson.MEMORY`` pairs (g, f), the step solves the regularised
least-squares problem

    (dG^T dG + lambda I) a = dG^T g_k,   lambda = REG ||dG||_F^2,

and proposes s_{k+1} = f_k - dF^T a.  A candidate is checked once its span
has run.  Its span is kept when both

    ||f_k - s_k||  <=  K min_j ||f_j - s_j||,
    ||f_k - s_k||  <=  D ||g_0|| (n_kept + 1)^-(1 + EPS),

hold, and the candidate is accepted when also ||f_k - s_k|| <= C min_j
||f_j - s_j||, with the minimum over the earlier base points whose span was
kept (the first, s_0 = x_0, every plain step and every kept candidate) and
n_kept the spans kept so far.  (These constants are ``_Anderson.REG``,
``K``, ``D``, ``EPS`` and ``C``; C and K are not the constraint set or the
covering constant.)  The C test is the monotonicity control of Henderson &
Varadhan (J. Comput. Graph. Stat. 28(4), 2019); the bound on n_kept is the
safeguard of Zhang, O'Donoghue & Boyd (SIAM J. Optim. 30(4), 2020), which
alone never binds on the stock runs, so their counts would follow the
rounding of the k x k solve.  Any other candidate is rejected and restarts
the memory: a kept span's image f_k starts the next span, so the next step
has the one secant pair s_k -> f_k -> f_{k+1}; otherwise -- or for a
non-finite candidate, or a failed solve -- the span is discarded and the
next one starts from the plain step of the base point before it.  A
*progress restart* also empties the memory, without counting a rejection,
when the least residual ``best`` has not halved over ``_Anderson.R`` base
points (Henderson & Varadhan restart on a similar test): the mark is
``best`` when the count last reset, a base point where ``best`` is at most
half the mark resets it, and otherwise the R-th base point since the reset
empties the memory before that base point's pair is stored, and resets it.
Without it, the deep tail of the stock image run stalls at some values of
``MEMORY``.  The global-convergence theorem of Zhang et al. is proved for
type-I steps on an averaged map; Phi is shown above to be nonexpansive
only, so that theorem is not claimed here, and neither test adds one.  What holds: every
accepted residual ||f_k - s_k|| is within C times the least residual before
it, and every kept one within K times it; the kept residuals are summable,
since n_kept counts every kept span; if only finitely many spans are kept,
the base points follow the plain span map from some point on and converge
by the paper's theorem; and the extrapolated point only ever starts a span.
A progress restart only empties the memory, so the C and K tests, the ZOB
bound (Zhang, O'Donoghue & Boyd), the summable kept residuals and the
finite-kept-spans argument stand as written.  Residuals, trace records and
the returned solution are taken at projected loop iterates, so they lie in
C, and a run reports CONVERGED only on the plain loop's residual test.  A
check before a span start hands its directions to no refresh, because that
span starts at the candidate, not at the loop iterate.  The iteration count
includes the discarded spans.  The ``step_norm`` of the record at a span
start is measured from that span's start: the candidate, when one runs.
"""

from __future__ import annotations

import csv
import enum
import math
import numbers
import time
from dataclasses import astuple, dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .core import Problem, array_residual, pullback
from .core import vi_residual  # noqa: F401  (re-exported: benchmarks wrap it here)
from .errors import CoverageError, EmptyBlock, InvalidParameter, ShapeMismatch
from .linops import DenseMatrix, certified_norm_sq
from . import space
from .space import SpacePoint, integer

__all__ = [
    "ActivationSchedule",
    "make_schedule",
    "SCHEDULE_KEYS",
    "validate_schedule",
    "SolverConfig",
    "TraceRecord",
    "SolverTrace",
    "SolveStatus",
    "SolveResult",
    "solve",
    "activation_atoms",
    "step_bounds",
]

# ---------------------------------------------------------------------------
# activation schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActivationSchedule:
    """Periodic sequence of nonempty index sets, stored as sorted tuples of
    distinct ints, with the covering constant K they certify and their
    :func:`activation_atoms` (neither is an argument)."""

    kind: str
    sets: tuple            # one period of active sets, each a sorted tuple
    index_count: int
    K: int = field(init=False)
    atoms: tuple = field(init=False)

    def __post_init__(self):
        sets = tuple(_arm_set(s, "sets") for s in self.sets)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "K", validate_schedule(sets, self.index_count))
        object.__setattr__(self, "atoms", activation_atoms(self))

    def active_set(self, n: int) -> tuple:
        return self.sets[n % len(self.sets)]


def validate_schedule(sets: Sequence[Sequence[int]], index_count: int) -> int:
    """Check the covering condition over one period and return the minimal K.

    K is the smallest window length such that every K consecutive active sets
    (starting anywhere) jointly touch every index.
    """
    period = [_arm_set(s, "sets") for s in sets]
    full = frozenset(range(integer(index_count, "index_count")))
    if not period:
        raise InvalidParameter("schedule must contain at least one index set")
    for k, s in enumerate(period):
        if not s:
            raise EmptyBlock("sets: activation sets must be nonempty")
        outside = [i for i in s if not 0 <= i < index_count]
        if outside:
            raise InvalidParameter(f"sets: activation set {k} of the period has "
                                   f"arms {outside} outside 0..{index_count - 1}")
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


def _arm_set(values, key: str) -> tuple:
    """The distinct arm indices of ``values`` (none for None), ascending (see
    :func:`blockvi.space.integer`)."""
    values = list(() if values is None else values)
    if not all(type(i) is int for i in values):   # ints skip the slow check
        values = [integer(i, key) for i in values]
    return tuple(sorted(set(values)))


# the keyword arguments of ``make_schedule`` that each schedule kind uses
SCHEDULE_KEYS = {
    "full": (),
    "cyclic_partition": ("blocks", "always_active"),
    "mod_skip": ("period", "expensive"),
    "explicit": ("sets",),
}


def make_schedule(kind: str, index_count: int, *, blocks: Optional[int] = None,
                  always_active: Optional[Sequence[int]] = None,
                  expensive: Optional[Sequence[int]] = None,
                  period: Optional[int] = None,
                  sets: Optional[Sequence[Sequence[int]]] = None) -> ActivationSchedule:
    """Build one of the stock schedules (which certifies its own K).

    * ``full``: every arm at every iteration (K = 1).
    * ``cyclic_partition``: the arms outside ``always_active`` (none when
      omitted) are split into ``blocks`` (an integer count) consecutive
      cells, one cell per iteration plus the always-active arms (K = blocks).
      Arbitrary cells are an ``explicit`` schedule.
    * ``mod_skip``: all arms when n is a multiple of ``period``, all but the
      ``expensive`` arms (none when omitted) otherwise (K = period).
    * ``explicit``: caller-provided period of index sets; K is measured.

    A keyword that ``kind`` does not use (:data:`SCHEDULE_KEYS`) must be
    omitted or None.
    """
    if kind not in SCHEDULE_KEYS:
        raise InvalidParameter(f"unknown schedule kind {kind!r}")
    given = {"blocks": blocks, "always_active": always_active,
             "expensive": expensive, "period": period, "sets": sets}
    for key, value in given.items():
        if value is not None and key not in SCHEDULE_KEYS[kind]:
            raise InvalidParameter(f"schedule kind {kind!r} does not use {key!r}")
    if integer(index_count, "index_count") < 1:
        raise InvalidParameter("index_count must be >= 1")
    all_idx = tuple(range(index_count))

    if kind == "full":
        period_sets = [all_idx]
    elif kind == "cyclic_partition":
        always = _arm_set(always_active, "always_active")
        rest = [i for i in all_idx if i not in always]
        blocks = integer(blocks, "blocks")
        if blocks < 1 or (rest and blocks > len(rest)):
            raise InvalidParameter("blocks: block count must be in [1, #rotating arms]")
        cells = [c.tolist() for c in np.array_split(np.array(rest, dtype=int), blocks)]
        if any(len(c) == 0 for c in cells):
            raise EmptyBlock("always_active: cyclic partition contains an empty cell")
        period_sets = [always + tuple(c) for c in cells]
    elif kind == "mod_skip":
        period = integer(period, "period")
        if period < 1:
            raise InvalidParameter("mod_skip needs a period >= 1")
        exp = _arm_set(expensive, "expensive")
        if not set(exp) <= set(all_idx):
            raise InvalidParameter(f"expensive arms {exp} outside 0..{index_count - 1}")
        cheap = tuple(i for i in all_idx if i not in exp)
        if not cheap and period > 1:
            raise EmptyBlock(
                "expensive: skipping every arm would leave empty iterations")
        period_sets = [all_idx] + [cheap] * (period - 1)
    else:
        period_sets = () if sets is None else sets
    return ActivationSchedule(kind, period_sets, index_count)


# ---------------------------------------------------------------------------
# configuration, trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolverConfig:
    gamma: float
    max_iters: int
    tol: float
    x0: SpacePoint
    trace_every: int = 1
    snapshots: bool = False
    accelerate: bool = True          # Anderson extrapolation over spans

    def __post_init__(self):
        for key in ("gamma", "tol"):
            value = getattr(self, key)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise InvalidParameter(f"{key}: {value!r} is not a real number")
        # the class itself: a test may stand a counter in for this module's
        # name SpacePoint
        if not isinstance(self.x0, space.SpacePoint):
            raise InvalidParameter(
                f"x0: a {type(self.x0).__name__} is not a SpacePoint")
        if not 0.0 < self.gamma < 2.0:
            raise InvalidParameter(
                f"gamma = {self.gamma!r} rejected; the relaxation parameter "
                "must lie strictly inside (0, 2)")
        if integer(self.max_iters, "max_iters") < 1:
            raise InvalidParameter("max_iters must be >= 1")
        if not self.tol >= 0:                    # also catches NaN
            raise InvalidParameter("tol must be nonnegative")
        if integer(self.trace_every, "trace_every") < 1:
            raise InvalidParameter("trace_every must be >= 1")


@dataclass(frozen=True)
class TraceRecord:
    n: int
    seconds: float
    residual: float
    step_norm: float
    active_set_id: int


@dataclass
class SolverTrace:
    """Per-iteration records plus optional iterate snapshots.

    A record's ``active_set_id`` is its iteration's position in one period of
    the schedule, n % len(sets), so ``schedule.sets[active_set_id]`` is the
    set it activated.  ``iterates`` holds (k, seconds, x_k) with k = 0 the
    starting point, retained only when snapshots are requested.
    """

    records: list = field(default_factory=list)
    iterates: list = field(default_factory=list)

    def add(self, record: TraceRecord):
        if self.records and record.n <= self.records[-1].n:
            raise InvalidParameter("trace records must be strictly increasing in n")
        self.records.append(record)

    @property
    def final_residual(self) -> float:
        return self.records[-1].residual if self.records else float("nan")

    def to_csv(self, path):
        """One column per :class:`TraceRecord` field, floats as ``.17g``."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(f.name for f in fields(TraceRecord))
            for r in self.records:
                writer.writerow(f"{v:.17g}" if isinstance(v, float) else v
                                for v in astuple(r))


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class SolveResult:
    """``acceleration`` is ``{"memory", "accepted", "kept", "rejected",
    "restarts"}`` for an accelerated run: the Anderson memory, the counts of
    candidates accepted, kept (accepted or only failing the monotone test)
    and rejected, and the progress restarts.  It is ``{"skipped": why}`` when
    acceleration was asked for but the schedule's period does not start with
    every arm, and None when it was not asked for."""

    solution: SpacePoint
    trace: SolverTrace
    status: SolveStatus
    acceleration: Optional[dict] = None


# ---------------------------------------------------------------------------
# iteration
# ---------------------------------------------------------------------------

def activation_atoms(schedule: ActivationSchedule) -> tuple:
    """Maximal sets of arms that every active set holds whole or misses,
    in order of their first arm: the arms with equal columns of the
    set-by-arm membership array."""
    member = np.zeros((len(schedule.sets), schedule.index_count), dtype=bool)
    for j, s in enumerate(schedule.sets):
        member[j, list(s)] = True
    arms = np.lexsort(member[::-1])      # by membership, ascending within
    cuts = np.flatnonzero((member[:, arms[1:]] != member[:, arms[:-1]]).any(axis=0))
    return tuple(sorted((tuple(a.tolist()) for a in np.split(arms, cuts + 1)),
                        key=lambda atom: atom[0]))


def step_bounds(problem: Problem, schedule: ActivationSchedule) -> tuple:
    """Certified step bound b_i of every arm under ``schedule``.

    An arm keeps its map's ``norm_sq`` (``problem.arrays.bounds``) unless it
    lies in a multi-arm atom of ``schedule.atoms`` whose groups
    (:meth:`blockvi.core.Problem.atom_groups`) all have ``DenseMatrix`` maps:
    those arms share the bound on ||sum_{i in c} (w_i / W_c) A_i^T A_i|| that
    :func:`blockvi.linops.certified_norm_sq` certifies for their stacked rows
    whenever it is below their weighted mean sum_{i in c} w_i b_i / W_c.
    The rows are the matrix of the atom's one fused group when the atom is
    one group, and its arms' own matrices stacked in atom order otherwise.
    """
    weights, own = problem.arrays
    bounds = own.copy()
    for atom in schedule.atoms:
        groups = problem.atom_groups(atom)
        if len(atom) < 2 or not all(isinstance(g.linop, DenseMatrix) for g in groups):
            continue
        arms = np.asarray(atom)
        total = math.fsum(weights[arms].tolist())
        matrices = [problem.prescriptions[i].linop.matrix for i in atom]
        stacked = groups[0].linop.matrix if len(groups) == 1 else \
            np.concatenate(matrices)
        certified = certified_norm_sq(stacked, np.repeat(
            weights[arms] / total, [m.shape[0] for m in matrices]))
        if certified < math.fsum((weights[arms] * own[arms]).tolist()) / total:
            bounds[arms] = certified
    return tuple(bounds.tolist())


def _averaging_weights(problem: Problem, bounds) -> tuple:
    """(v, z): the averaging weights v_i = w_i b_i / z as an array and
    z = sum_j w_j b_j, summed in arm order."""
    raw = problem.arrays.weights * np.asarray(bounds)
    z = sum(raw.tolist())
    return raw / z, z


def _row_groups(problem: Problem, atoms, gamma: float,
                bounds: np.ndarray) -> tuple:
    """(groups, masses, scales): the arm groups of ``atoms``
    (:meth:`blockvi.core.Problem.atom_groups`) by first arm, one auxiliary
    row each; V_g = sum_{i in g} v_i; and the refresh's a_g of each group:
    gamma_i = gamma / b_i for a single arm, kappa / V_g with kappa = gamma /
    sum_j w_j b_j for a fused group (see the module docstring)."""
    vweights, total = _averaging_weights(problem, bounds)
    kappa = gamma / total
    groups = sorted((g for atom in atoms for g in problem.atom_groups(atom)),
                    key=lambda g: g.arms[0])
    masses = np.array([vweights[g.arms].sum() for g in groups])
    return groups, masses, [gamma / bounds[g.arms[0]] if len(g.arms) == 1
                            else kappa / mass for g, mass in zip(groups, masses)]


def _refresh(cell, x: np.ndarray, t: np.ndarray,
             directions: Optional[list] = None):
    """t[row] = x - a_g d_g for each (row, g, a_g) of ``cell``, in place, with
    d_g ``directions[row]`` when given, else the :func:`blockvi.core.pullback`
    of g at x; every other row of ``t`` stays bitwise as it was."""
    for row, g, scale in cell:
        direction = pullback(g, x) if directions is None else directions[row]
        np.subtract(x, scale * direction, out=t[row])


class _Anderson:
    """Safeguarded type-II Anderson extrapolation of the span map Phi (see
    the module docstring).  :meth:`next_start` takes the image of the
    current span's start and returns the start of the next span; it keeps
    the arrays it is given and returns, so callers must not write to them.
    A candidate's span is kept when its residual is within ``K`` times the
    least one of a kept span so far (``best``) and within the ZOB bound of
    ``D`` and ``EPS``.  The candidate is accepted, and the memory kept, when
    that residual is also within ``C`` times ``best`` (Henderson & Varadhan's
    monotonicity control).  A kept span that fails this restarts the memory
    from its image; a discarded one, from the plain step before it.  The
    memory is also emptied, as a progress restart and not a rejection, when
    ``best`` has not halved over ``R`` base points."""

    MEMORY = 13
    SPAN = 2               # least base iterations per extrapolation step
    R = 100                # base points without progress before a restart
    C = 2.0
    K = 10.0
    D = 1e6
    EPS = 1e-6
    REG = 1e-10

    def __init__(self, x0: np.ndarray):
        m = self.MEMORY
        self.dg = np.empty((m, x0.size))    # ring buffers of differences
        self.df = np.empty((m, x0.size))
        self.gram = np.empty((m, m))        # dg @ dg.T on the filled slots
        self.filled = 0        # slots 0..filled-1 hold columns
        self.slot = 0          # slot of the next column
        self.start = x0        # start of the span being run
        self.f = self.g = None  # f and f - s at the last base point s
        self.g0 = 0.0          # ||f - x0|| of the first call, set by it
        self.best = 0.0        # least ||f - s|| of a kept span, set likewise
        self.pending = False   # the span being run starts at a candidate
        self.accepted = self.kept = self.rejected = self.restarts = 0  # counts
        self.mark = math.inf   # best when the progress count last reset
        self.stalled = 0       # base points since then

    def next_start(self, f: np.ndarray) -> np.ndarray:
        g = f - self.start
        norm = math.sqrt(g @ g)
        if self.pending:
            self.pending = False
            bound = min(self.K * self.best,
                        self.D * self.g0 * (self.kept + 1) ** -(1.0 + self.EPS))
            if not norm <= bound:     # also catches NaN
                return self._restart()
            self.kept += 1
            if not norm <= self.C * self.best:
                # the monotone test fails: the span is kept, the memory not
                self.f, self.g = f, g
                return self._restart()
            self.accepted += 1
        if self.f is None:
            self.g0 = self.best = norm
        else:
            self.best = min(self.best, norm)
            self.stalled += 1
            if self.best <= 0.5 * self.mark or self.stalled == self.R:
                if self.best > 0.5 * self.mark:     # no progress: a restart
                    self.restarts += 1
                    self.filled = self.slot = 0
                self.mark, self.stalled = self.best, 0
            s = self.slot
            dg = np.subtract(g, self.g, out=self.dg[s])
            np.subtract(f, self.f, out=self.df[s])
            self.filled = k = max(self.filled, s + 1)
            self.gram[s, :k] = self.gram[:k, s] = self.dg[:k] @ dg
            self.slot = (s + 1) % len(self.dg)
        self.start, self.f, self.g = f, f, g
        k = self.filled
        if k == 0:
            return f
        gram = self.gram[:k, :k].copy()
        gram.ravel()[::k + 1] += self.REG * gram.trace()   # its diagonal
        try:
            a = np.linalg.solve(gram, self.dg[:k] @ g)
        except np.linalg.LinAlgError:
            return self._restart()
        candidate = f - a @ self.df[:k]
        if not math.isfinite(candidate @ candidate):   # NaN, inf or overflow
            return self._restart()
        self.start, self.pending = candidate, True
        return candidate

    def _restart(self) -> np.ndarray:
        """Count a rejection, empty the memory and resume from ``f``, the
        image of the last base point whose span was kept."""
        self.rejected += 1
        self.filled = self.slot = 0
        self.start = self.f
        return self.f


def _crossing(records, tol: float) -> float:
    """The iteration where the residual of the last two ``records``, (n', r')
    and (n, r), meets ``tol`` if it keeps its rate: n + ln(tol / r) / rho,
    rho = ln(r / r') / (n - n').  inf unless tol > 0 and tol < r < r' (so
    also for one record or a NaN)."""
    if len(records) == 2 and 0 < tol < records[1].residual < \
            records[0].residual < math.inf:
        (n0, r0), (n1, r1) = ((r.n, r.residual) for r in records)
        rho = (math.log(r1) - math.log(r0)) / (n1 - n0)
        if rho < 0:        # ln r may round to ln r'
            return n1 + (math.log(tol) - math.log(r1)) / rho
    return math.inf


def solve(problem: Problem, schedule: ActivationSchedule,
          config: SolverConfig) -> SolveResult:
    """Run the block iteration until the fixed-point residual drops below
    ``config.tol`` (checked at least every ``trace_every`` iterations, and
    where the last two checks predict it meets ``tol``) or ``max_iters`` is
    reached.  Step sizes and averaging weights use the bounds certified for
    the schedule's activation atoms, and the arms of each atom are evaluated
    in groups, with one auxiliary row per group (see the module docstring).
    Each check records ``vi_residual``'s value at its own iterate, from one
    pass over :attr:`Problem.groups`; when the next iteration refreshes those
    groups at that iterate, it reuses the pass's directions.  Snapshots stay
    arrays until the run ends.  When ``config.accelerate`` holds and the
    period starts with every arm, each span of whole periods starts at the
    Anderson extrapolation of x over the previous ones (see the module
    docstring).  Deterministic given (problem, schedule, config)."""
    if schedule.index_count != problem.arm_count:
        raise InvalidParameter("schedule was built for a different arm count")
    if config.x0.shape != problem.domain_shape:
        raise ShapeMismatch("x0 lives outside the problem domain")

    bounds = np.array(step_bounds(problem, schedule))
    groups, masses, scales = _row_groups(problem, schedule.atoms, config.gamma,
                                         bounds)
    cells = [tuple((row, g, a) for row, (g, a) in enumerate(zip(groups, scales))
                   if g.arms[0] in s) for s in schedule.sets]
    period = len(cells)
    refreshes_all = [len(cell) == len(groups) for cell in cells]
    # a refresh of every row can take a check's directions only when its
    # groups are the residual's, in the same order
    same = ([g.arms.tolist() for g in groups]
            == [g.arms.tolist() for g in problem.groups])
    reuses = [whole and same for whole in refreshes_all]
    t = np.tile(config.x0.data, (len(groups), 1))

    trace = SolverTrace()
    started = time.perf_counter()
    if config.snapshots:
        trace.iterates.append((0, 0.0, config.x0))
    due = math.inf      # the predicted check, from the last two records
    x = config.x0.data
    span = -(-_Anderson.SPAN // period) * period
    # a span led by every arm rebuilds every row from x, so x is its state
    accel = _Anderson(x) if config.accelerate and refreshes_all[0] else None
    directions = None   # the d_g of the last check, for a refresh that reuses them
    for n in range(config.max_iters):
        if accel is not None and n and n % span == 0:
            x = accel.next_start(x)
        prev_x = x
        _refresh(cells[n % period], x, t, directions)
        directions = None
        x = problem.constraint.array_projector(masses @ t)
        if n % config.trace_every == 0 or n == config.max_iters - 1 or n >= due:
            if not np.isfinite(x).all():
                raise InvalidParameter("SpacePoint entries must be finite")
            m = n + 1       # does the next iteration refresh every row at x?
            if reuses[m % period] and (accel is None or m % span):
                directions = []
            residual = array_residual(problem, x, directions=directions)
            seconds = time.perf_counter() - started
            step = x - prev_x
            trace.add(TraceRecord(n, seconds, residual, math.sqrt(step @ step),
                                  n % period))
            if config.snapshots:
                trace.iterates.append((n + 1, seconds, x))
            if residual <= config.tol:
                break
            due = _crossing(trace.records[-2:], config.tol)
    trace.iterates[1:] = [(k, s, SpacePoint(x_k, problem.domain_shape))
                          for k, s, x_k in trace.iterates[1:]]
    # the last iteration always checks, so this is the stop test's verdict
    status = (SolveStatus.CONVERGED if trace.final_residual <= config.tol
              else SolveStatus.MAX_ITERS)
    acceleration = None
    if accel is not None:
        acceleration = {"memory": accel.MEMORY, "accepted": accel.accepted,
                        "kept": accel.kept, "rejected": accel.rejected,
                        "restarts": accel.restarts}
    elif config.accelerate:
        acceleration = {"skipped": "the period does not start with every arm"}
    return SolveResult(SpacePoint(x, problem.domain_shape), trace, status,
                       acceleration)
