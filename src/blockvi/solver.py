"""Block-iterative fixed-point solver with pluggable activation schedules.

Each iteration refreshes the auxiliary points of the activated arms only,

    t_i = x_n - (gamma / b_i) L_i*(F_i(L_i x_n) - p_i),   i in I_n,

keeps the others stale, and projects an average of the t_i back onto the
constraint set.  Convergence requires gamma in (0, 2), certified step
bounds b_i, and a covering schedule: every window of K consecutive active
sets must touch every arm.  A :class:`SolverConfig` checks gamma, and an
:class:`ActivationSchedule` certifies its own K, when it is built.

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
plus a stated allowance for its rounding.  Every other arm keeps its
``Prescription.norm_sq_bound`` (b_i >= ||L_i||^2).  An atom that is one
fused group below is certified on its group's ``DenseMatrix``; any other dense
atom stacks its rows for the bound alone (:func:`blockvi.core.dense_rows`).
The per-arm weights, bounds and row counts come from
:attr:`blockvi.core.Problem.arrays`.

The averaging uses weights v_i proportional to w_i * b_i.  Dividing each
arm's update by b_i makes the arm operators 1-cocoercive (which is what the
gamma in (0, 2) guarantee needs), and multiplying the weights by b_i puts
the cancelled factor back, so fixed points satisfy

    -sum_i w_i L_i*(F_i(L_i x) - p_i)  in  N_C(x)

with the *problem's own* weights w_i -- the condition ``vi_residual``
measures.  Averaging with the raw w_i instead would steer the iteration to
a solution of a differently-weighted inequality whenever the bounds differ.

The arms are evaluated in groups (:func:`blockvi.core.arm_groups`), built
once per atom by :meth:`blockvi.core.Problem.atom_groups`; the residual
takes their own c_i = w_i, so a solve builds one grouping.  Every group
is evaluated through its ``linop`` and ``fne`` (fused one-row dense arms
through the ``DenseMatrix`` of their rows).  The auxiliary state holds one
row per group, not one per arm.  A group is refreshed whole, from one x, and
the averaging step sees its arms only through their v-weighted mean tau_g =
sum_{i in g} (v_i / V_g) t_i, V_g = sum_{i in g} v_i.  So the row of g is
tau_g, a refresh sets

    tau_g = x - sum_{i in g} c_i L_i*(F_i(L_i x) - p_i),   c_i = v_i gamma_i / V_g,

and x' = P_C(sum_g V_g tau_g).  Since v_i gamma_i = gamma w_i / sum_j w_j b_j,
the b_i cancel from c_i.  A single arm keeps c_i = gamma_i, V_g = v_i and its
row t_i exactly, and the rows are ordered by each group's first arm, so a
problem without fused groups runs the per-arm iteration bit for bit.

The stop test needs sum_i w_i L_i*(F_i(L_i x) - p_i) at a loop iterate x.
When the next iteration refreshes every row at x, it gives that sum for
free: with kappa = gamma / sum_j w_j b_j, v_i gamma_i = kappa w_i and
sum_g V_g = 1, so the sum is (x - sum_g V_g tau_g) / kappa, and the check
costs one projection and two norms.  Such a record (iteration n) is
written after the refresh of iteration n + 1; every other record runs the
explicit pass :func:`array_residual`.  Once kappa times the sum falls below
half an ulp of x, the refresh leaves x as it is and its form reads 0 while
the explicit residual need not; conversely, the explicit residual can meet
``tol`` while the form reads a few ulps above it.  So a check whose refresh
form reads at most ``tol`` plus the form's rounding bound is confirmed by
the explicit pass, and a run stops exactly where ``array_residual`` first
meets ``tol`` at a check.  The bound, with u = eps / 2 and R the larger of
||x|| and (sum_g ||tau_g||^2)^(1/2) >= max_g ||tau_g||: each row is stored
as the rounded x - q_g, q_g = sum_{i in g} c_i L_i*(F_i(L_i x) - p_i); the
mean m = sum_g V_g tau_g is a G-term sum per entry (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., §3.5); and x - m, the division
by kappa and the residual's own x - grad round once each.  Together they
move the form's gradient away from sum_g V_g q_g / kappa by at most
(G + 7) u R / kappa in norm, and masses that sum to 1 + delta add
delta x / kappa.  The projection is nonexpansive, so the residual moves by
at most ((G + 4) eps R + |delta| ||x||) / kappa + eps ||x||, over
1 + ||x|| (:func:`_refresh_slack`), where eps ||x|| covers the rounding of
x in the last subtraction.

Every schedule is accelerated by safeguarded type-II Anderson extrapolation
(Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011) of a *span map*.  A span is
the smallest whole number of periods that holds at least ``_Anderson.SPAN`` =
2 base iterations: S = 2 for ``full`` and for a period of 2, S = 4 for a
cyclic schedule of 4 cells, and S = 5 for a period of 5 (the stock
``mod_skip`` manifests).  One extrapolation step costs a fair share of a
cheap base iteration, so it is taken once per span, not after every
iteration.  On the stock image run (``full``), spans of 2 rather than 5 cut
the iterations to ``tol`` by about a third, for 6-13% more time per
iteration.
``SolverConfig(accelerate=False)`` runs every schedule plain.

  * When the period starts with the set of all arms (``full``, ``mod_skip``,
    or such an ``explicit`` period), every span starts by rebuilding every
    row from x_{kS}, so the span map Phi: x_{kS} -> x_{(k+1)S} depends on x
    alone, and x is extrapolated.
  * Otherwise (``cyclic_partition``, other ``explicit`` periods) some rows
    are stale when a span starts, and the rows are extrapolated instead:
    Psi: t_{kS-1} -> t_{(k+1)S-1} on the flattened G x n array (G groups),
    where x_{kS} = P_C(sum_g V_g t_{g,kS-1}) and the span then runs as usual.
    Psi depends on the rows alone.  After each step x = P_C(sum_g V_g t_g).

The fixed points are the right ones.  If Phi(x*) = x* or Psi(t*) = t*, the
plain iteration started there is S-periodic.  It converges -- for Psi this
needs convergence from arbitrary initial auxiliary points t_{i,-1}, which the
paper's block iteration takes as free data beside x_0 (every cyclic run
relies on the same property, since its first set leaves most t_i at their
initial values; a row tau_g is the run whose arms of g all start at tau_g) --
so a periodic run is constant.  Every group is refreshed within a span, so
each row is its refresh at the constant x*, which is then a fixed point of
every step and solves the variational inequality.

Both maps are also nonexpansive.  Call a *block* a multi-arm atom whose arms
share the bound b_c, or else a group of an atom without a shared bound; a
group lies in one atom, so every group lies in exactly one block, and a block
is always refreshed whole.  Write tau_B = sum_{g in B} (V_g / V_B) tau_g.  A
refresh sets tau_B to a nonexpansive map of x: for a shared-bound atom tau_B =
x - (gamma / b_c) L_c*(F_c(L_c x) - p_c), where F_c is firmly nonexpansive,
b_c >= ||L_c||^2 and gamma < 2; otherwise tau_B is the convex combination
sum_{i in B} (v_i / V_B)(x - gamma_i L_i*(F_i(L_i x) - p_i)) of maps of the
same kind with b_i >= ||L_i||^2.  Take two runs and let M_n be the largest of
||x_n - y_n|| and the distances ||tau_B - tau_B'||.  A refresh gives
||tau_B - tau_B'|| <= ||x_n - y_n||, a stale block keeps its distance, and the
projected average obeys ||x_{n+1} - y_{n+1}|| <= sum_B V_B ||tau_B - tau_B'||
(V_B >= 0, sum V_B = 1), so M_n never grows.  For Phi the first set of a span
refreshes every block, so M_1 <= ||x - y|| and ||Phi(x) - Phi(y)|| <=
||x - y||; for ``full``, Phi = T^S for the nonexpansive map T of one base
iteration.  For Psi, M_0 <= max_B ||tau_B - tau_B'|| and every block is
refreshed within the span, so Psi is nonexpansive in max_B ||tau_B - tau_B'||,
a norm on the rows when every block is one group (as on the stock
``signal_recovery`` manifest), and the run after a span boundary depends on
the rows only through the tau_B.

At each span boundary the start s_k of the span just run (x, or the rows)
and its image f_k (Phi(s_k), or Psi(s_k)) give g_k = f_k - s_k.  With the
differences dG, dF of the last m = 5 pairs (g, f), the step solves the
regularised least-squares problem

    (dG^T dG + lambda I) a = dG^T g_k,   lambda = 1e-10 ||dG||_F^2,

and proposes s_{k+1} = f_k - dF^T a.  The safeguard follows Zhang,
O'Donoghue & Boyd (SIAM J. Optim. 30(4), 2020): a candidate is checked once
its span has run, and it is accepted only while

    ||f_k - s_k||  <=  D ||g_0|| (n_acc + 1)^-(1 + eps),   D = 1e6, eps = 1e-6,

with n_acc the candidates accepted so far.  A rejected candidate -- or a
non-finite one, or a failed solve -- restarts the memory, and the next span
starts from the plain step f_k.  Their global-convergence theorem is proved
for type-I steps on an averaged map; Phi and Psi are shown above to be
nonexpansive only, so that theorem is not claimed here.  What holds: the
accepted residuals ||f_k - s_k|| are summable; if every candidate from some
point on is rejected, the base points follow the plain span map and converge
by the paper's theorem; and the extrapolated point only ever starts a span.
Residuals, trace records and the returned solution are taken at projected
loop iterates, so they lie in C, and a run reports CONVERGED only on the
plain loop's residual test.  The record before a span start keeps the
explicit residual, because that span starts at the candidate, not at the
loop iterate.  The iteration count includes the spans spent on rejected
candidates.  The ``step_norm`` of the record at a span start is
measured from that span's start: the candidate, or P_C(sum_g V_g t_g) at
the candidate rows, when one runs.
"""

from __future__ import annotations

import csv
import enum
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .core import (Problem, array_residual, dense_rows, gradient_residual,
                   pullback)
from .core import vi_residual  # noqa: F401  (re-exported: benchmarks wrap it here)
from .errors import CoverageError, EmptyBlock, InvalidParameter, ShapeMismatch
from .linops import certified_norm_sq
from .space import SpacePoint

__all__ = [
    "ActivationSchedule",
    "make_schedule",
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

_EPS = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# activation schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActivationSchedule:
    """Periodic sequence of nonempty index sets, stored as sorted tuples of
    distinct ints, with the covering constant K they certify (not an argument)."""

    kind: str
    sets: tuple            # one period of active sets, each a sorted tuple
    index_count: int
    K: int = field(init=False)

    def __post_init__(self):
        sets = tuple(_arm_set(s, "sets") for s in self.sets)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "K", validate_schedule(sets, self.index_count))

    def active_set(self, n: int) -> tuple:
        return self.sets[n % len(self.sets)]


def validate_schedule(sets: Sequence[Sequence[int]], index_count: int) -> int:
    """Check the covering condition over one period and return the minimal K.

    K is the smallest window length such that every K consecutive active sets
    (starting anywhere) jointly touch every index.
    """
    period = [_arm_set(s, "sets") for s in sets]
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


def _integer(value, key: str) -> int:
    """``value`` as an int when it is an integer (a ``numbers.Integral``
    other than a bool); :class:`InvalidParameter` naming ``key`` otherwise."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidParameter(f"{key}: {value!r} is not an integer")
    return int(value)


def _arm_set(values, key: str) -> tuple:
    """The distinct arm indices of ``values``, ascending (see :func:`_integer`)."""
    values = list(values)
    if not all(type(i) is int for i in values):   # ints skip the slow check
        values = [_integer(i, key) for i in values]
    return tuple(sorted(set(values)))


def make_schedule(kind: str, index_count: int, *, blocks: Optional[int] = None,
                  always_active: Sequence[int] = (), expensive: Sequence[int] = (),
                  period: Optional[int] = None,
                  sets: Optional[Sequence[Sequence[int]]] = None) -> ActivationSchedule:
    """Build one of the stock schedules (which certifies its own K).

    * ``full``: every arm at every iteration (K = 1).
    * ``cyclic_partition``: the arms outside ``always_active`` are split into
      ``blocks`` (an integer count) consecutive cells, one cell per
      iteration plus the always-active arms (K = blocks).  Arbitrary cells
      are an ``explicit`` schedule.
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
        always = _arm_set(always_active, "always_active")
        rest = [i for i in all_idx if i not in always]
        blocks = _integer(blocks, "blocks")
        if blocks < 1 or (rest and blocks > len(rest)):
            raise InvalidParameter("block count must be in [1, #rotating arms]")
        cells = [c.tolist() for c in np.array_split(np.array(rest, dtype=int), blocks)]
        if any(len(c) == 0 for c in cells):
            raise EmptyBlock("cyclic partition contains an empty cell")
        period_sets = [always + tuple(c) for c in cells]
    elif kind == "mod_skip":
        period = _integer(period, "period")
        if period < 1:
            raise InvalidParameter("mod_skip needs a period >= 1")
        exp = _arm_set(expensive, "expensive")
        if not set(exp) <= set(all_idx):
            raise InvalidParameter(f"expensive arms {exp} outside 0..{index_count - 1}")
        cheap = tuple(i for i in all_idx if i not in exp)
        if not cheap and period > 1:
            raise EmptyBlock("skipping every arm would leave empty iterations")
        period_sets = [all_idx] + [cheap] * (period - 1)
    elif kind == "explicit":
        period_sets = () if sets is None else sets
    else:
        raise InvalidParameter(f"unknown schedule kind {kind!r}")
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
    t_init_policy: str = "copy_x0"   # or "one_step"
    keep_snapshots: bool = False
    accelerate: bool = True          # Anderson extrapolation over spans

    def __post_init__(self):
        if not 0.0 < self.gamma < 2.0:
            raise InvalidParameter(
                f"gamma = {self.gamma!r} rejected; the relaxation parameter "
                "must lie strictly inside (0, 2)")
        if _integer(self.max_iters, "max_iters") < 1:
            raise InvalidParameter("max_iters must be >= 1")
        if not self.tol >= 0:                    # also catches NaN
            raise InvalidParameter("tol must be nonnegative")
        if _integer(self.trace_every, "trace_every") < 1:
            raise InvalidParameter("trace_every must be >= 1")
        if self.t_init_policy not in ("copy_x0", "one_step"):
            raise InvalidParameter("t_init_policy must be copy_x0 or one_step")


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
            active: tuple):
        if self.records and n <= self.records[-1].n:
            raise InvalidParameter("trace records must be strictly increasing in n")
        self.records.append(TraceRecord(n, seconds, residual, step_norm,
                                        self._set_id(active)))

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
    """``acceleration`` is ``{"memory", "accepted", "rejected"}`` (the counts
    of Anderson candidates) for an accelerated run, else None."""

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


def step_bounds(problem: Problem,
                schedule: Optional[ActivationSchedule] = None,
                atoms: Optional[tuple] = None) -> tuple:
    """Certified step bound b_i of every arm.

    Without a schedule every arm is its own atom and b_i is its
    ``norm_sq_bound``.  With one, the arms of a multi-arm atom of dense maps
    share the bound on ||sum_{i in c} (w_i / W_c) A_i^T A_i|| that
    :func:`blockvi.linops.certified_norm_sq` certifies for their stacked rows
    whenever it is below their weighted mean sum_{i in c} w_i b_i / W_c.
    The rows are the matrix of the atom's one fused group when the atom is
    one group (:meth:`blockvi.core.Problem.atom_groups`), and its
    :func:`blockvi.core.dense_rows` otherwise.  ``atoms`` are the schedule's
    :func:`activation_atoms`, computed when omitted.
    """
    weights, own, heights = problem.arrays
    bounds = own.copy()
    if schedule is not None:
        for atom in atoms or activation_atoms(schedule):
            arms = np.asarray(atom)
            if arms.size < 2 or not heights[arms].all():
                continue
            total = math.fsum(weights[arms].tolist())
            groups = problem.atom_groups(atom)
            stacked = groups[0].linop.matrix if len(groups) == 1 else \
                dense_rows(problem, atom)
            certified = certified_norm_sq(
                stacked, np.repeat(weights[arms] / total, heights[arms]))
            if certified < math.fsum((weights[arms] * own[arms]).tolist()) / total:
                bounds[arms] = certified
    return tuple(bounds.tolist())


def _averaging_weights(problem: Problem, bounds) -> tuple:
    """(v, z): the averaging weights v_i = w_i b_i / z as an array and
    z = sum_j w_j b_j, summed in arm order."""
    raw = problem.arrays.weights * np.asarray(bounds)
    z = sum(raw.tolist())
    return raw / z, z


def _row_groups(problem: Problem, atoms, gammas: np.ndarray,
                vweights: np.ndarray) -> tuple:
    """(row groups, masses, groups): the arm ``groups`` of ``atoms``
    (:meth:`blockvi.core.Problem.atom_groups`), by first arm; a copy of each
    with the refresh's c_i = v_i gamma_i / V_g, one auxiliary row each; and
    V_g = sum_{i in g} v_i (see the module docstring).  A single arm keeps
    c_i = gamma_i and V_g = v_i exactly."""
    groups = sorted((g for atom in atoms for g in problem.atom_groups(atom)),
                    key=lambda g: g.arms[0])
    masses = np.array([vweights[g.arms].sum() for g in groups])
    return ([replace(g, coef=gammas[g.arms] * (vweights[g.arms] / mass))
             for g, mass in zip(groups, masses)], masses, groups)


def _refresh(cell, x: np.ndarray, t: np.ndarray):
    """t[row] = x - sum_{i in g} c_i L_i*(F_i(L_i x) - p_i) for each pair
    (row, g) of ``cell``, in place; every other row of ``t`` stays bitwise as
    it was."""
    for row, g in cell:
        np.subtract(x, pullback(g, x), out=t[row])


def _refresh_slack(x: np.ndarray, t: np.ndarray, kappa: float,
                   drift: float) -> float:
    """Bound on the rounding error of the refresh form of the residual at x,
    given the rows t and drift = |1 - sum_g V_g| (see the module
    docstring)."""
    size = math.sqrt(x @ x)
    rows = max(size, math.sqrt(np.vdot(t, t)))
    return ((((len(t) + 4) * _EPS * rows + drift * size) / kappa + _EPS * size)
            / (1.0 + size))


class _Anderson:
    """Safeguarded type-II Anderson extrapolation of a span map, Phi or Psi
    (see the module docstring).  :meth:`next_start` takes the image of the
    current span's start and returns the start of the next span; it keeps
    the arrays it is given and returns, so callers must not write to them."""

    MEMORY = 5
    SPAN = 2               # least base iterations per extrapolation step
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
        self.pending = False   # the span being run starts at a candidate
        self.accepted = self.rejected = 0

    def next_start(self, f: np.ndarray) -> np.ndarray:
        g = f - self.start
        if self.pending:
            self.pending = False
            bound = self.D * self.g0 * (self.accepted + 1) ** -(1.0 + self.EPS)
            if not math.sqrt(g @ g) <= bound:     # also catches NaN
                return self._restart()
            self.accepted += 1
        if self.f is None:
            self.g0 = math.sqrt(g @ g)
        else:
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
        """Count a rejection, empty the memory and resume from the plain step
        f_k of the last base point."""
        self.rejected += 1
        self.filled = self.slot = 0
        self.start = self.f
        return self.f


def solve(problem: Problem, schedule: ActivationSchedule,
          config: SolverConfig) -> SolveResult:
    """Run the block iteration until the fixed-point residual drops below
    ``config.tol`` (checked every ``trace_every`` iterations) or ``max_iters``
    is reached.  Step sizes and averaging weights use the bounds certified for
    the schedule's activation atoms, and the arms of each atom are evaluated
    in groups, with one auxiliary row per group (see the module docstring).
    The residual runs through the same groups with c_i = w_i; when the next
    iteration refreshes every row at the checked iterate, the check is taken
    from that refresh instead, and a run stops only once the explicit
    residual confirms it.  When ``config.accelerate`` holds, each span of
    whole periods starts at the Anderson extrapolation of the previous ones:
    of x when the period starts with every arm, of the rows otherwise (see
    the module docstring).  Deterministic given (problem, schedule, config)."""
    if schedule.index_count != problem.arm_count:
        raise InvalidParameter("schedule was built for a different arm count")
    if config.x0.shape != problem.domain_shape:
        raise ShapeMismatch("x0 lives outside the problem domain")

    atoms = activation_atoms(schedule)
    bounds = np.array(step_bounds(problem, schedule, atoms))
    vweights, total = _averaging_weights(problem, bounds)
    groups, masses, residual_groups = _row_groups(
        problem, atoms, config.gamma / bounds, vweights)
    cells = [tuple((row, g) for row, g in enumerate(groups) if g.arms[0] in s)
             for s in schedule.sets]
    # once every row is refreshed at x, sum_i w_i L_i*(F_i(L_i x) - p_i) is
    # (x - masses @ t) / kappa (see the module docstring)
    kappa = config.gamma / total
    drift = abs(1.0 - math.fsum(masses.tolist()))
    refreshes_all = [len(cell) == len(groups) for cell in cells]
    if config.t_init_policy == "copy_x0":
        t = np.tile(config.x0.data, (len(groups), 1))
    else:
        t = np.empty((len(groups), config.x0.dim))
        _refresh(tuple(enumerate(groups)), config.x0.data, t)

    trace = SolverTrace()
    started = time.perf_counter()
    if config.keep_snapshots:
        trace.iterates.append((0, 0.0, config.x0))

    def record(n, x, step_norm, active, residual) -> bool:
        """Add the record of iteration n, whose loop iterate is x; True when
        the run stops there."""
        seconds = time.perf_counter() - started
        trace.add(n, seconds, residual, step_norm, active)
        if config.keep_snapshots:
            trace.iterates.append((n + 1, seconds, SpacePoint(x, problem.domain_shape)))
        return residual <= config.tol

    x = config.x0.data
    period = len(schedule.sets)
    span = -(-_Anderson.SPAN // period) * period
    # a span led by every arm rebuilds every row from x, so x is its state
    on_x = len(schedule.sets[0]) == problem.arm_count
    accel = None
    if config.accelerate:
        accel = _Anderson(x if on_x else t.flatten())
    status = SolveStatus.MAX_ITERS
    pending = None      # the record whose residual this refresh gives
    for n in range(config.max_iters):
        if accel is not None and n and n % span == 0:
            if on_x:
                x = accel.next_start(x)
            else:    # t is written in place: the accelerator keeps copies
                t[...] = accel.next_start(t.flatten()).reshape(t.shape)
                x = problem.constraint.array_projector(masses @ t)
        prev_x = x
        _refresh(cells[n % period], x, t)
        mean = masses @ t
        if pending is not None:
            residual = gradient_residual(problem, x, (x - mean) / kappa)
            # stop only on the explicit residual
            if residual <= config.tol + _refresh_slack(x, t, kappa, drift):
                residual = array_residual(problem, x, groups=residual_groups)
            if record(*pending, residual):
                status = SolveStatus.CONVERGED
                break
            pending = None
        x = problem.constraint.array_projector(mean)
        if n % config.trace_every == 0 or n == config.max_iters - 1:
            if not np.isfinite(x).all():
                raise InvalidParameter("SpacePoint entries must be finite")
            step = x - prev_x
            pending = (n, x, math.sqrt(step @ step),
                       schedule.active_set(n))
            m = n + 1       # does the next iteration refresh every row at x?
            if not (m < config.max_iters and refreshes_all[m % period]
                    and (accel is None or m % span)):
                if record(*pending, array_residual(problem, x, groups=residual_groups)):
                    status = SolveStatus.CONVERGED
                    break
                pending = None
    acceleration = None
    if accel is not None:
        acceleration = {"memory": accel.MEMORY, "accepted": accel.accepted,
                        "rejected": accel.rejected}
    return SolveResult(SpacePoint(x, problem.domain_shape), trace, status,
                       acceleration)
