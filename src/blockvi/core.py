"""Problem assembly and the diagnostics that characterize relaxed solutions.

A problem couples a constraint set C with weighted prescription arms
(L_i, F_i, p_i, w_i): find x in C whose weighted prescription residuals make
a nonnegative inner product with every feasible direction.  Equivalently,
x is a solution iff it is a fixed point of

    x  ->  proj_C(x - theta * sum_i w_i L_i*(F_i(L_i x) - p_i))

for any theta > 0, which is what :func:`vi_residual` measures.  C enters
only through its projector on flat arrays (:class:`ConstraintSet`).

One array kernel evaluates the arms a *group* at a time: it reduces
r_i = F_i(L_i x) - p_i to the group's direction d_g (:func:`pullback`).  The
residual (:func:`array_residual`) sums what each d_g adds to sum_i w_i L_i*
r_i and can hand the d_g to its caller; the solver's refresh steps along d_g,
and after a stop check reuses the directions that check computed.  The arms
of an activation atom (arms the solver always refreshes together) whose map
is a one-row ``DenseMatrix`` and whose FNEs fuse (``FneOperator.stacked``)
form one group, whose ``linop`` is the ``DenseMatrix`` of its own stacked
rows: one matvec, one FNE call and one adjoint.  Every other arm is a group
of one with its own maps.  A problem builds each atom's groups once
(:meth:`Problem.atom_groups`); the residual and the gaps read those of all
arms (:attr:`Problem.groups`).  A run's residual is its last record: each
stop check evaluates :func:`array_residual` at its own iterate, so after a
solve only the gaps are evaluated, in one pass (:func:`arm_gaps`), and the
inconsistency bound is their norm (:func:`inconsistency_bound`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    InvalidParameter,
    ShapeMismatch,
    UnsupportedObjective,
    WeightSumError,
)
from .fne_ops import clamp
from .linops import DenseMatrix
from .space import BlockShape, SpacePoint

__all__ = [
    "ConstraintSet",
    "Prescription",
    "Problem",
    "ArmArrays",
    "assemble_problem",
    "vi_residual",
    "prescription_images",
    "inconsistency_bound",
    "least_squares_objective",
    "arm_groups",
    "pullback",
    "array_residual",
    "arm_gaps",
    "WEIGHT_SUM_TOL",
    "WEIGHT_RENORM_WINDOW",
]

WEIGHT_SUM_TOL = 1e-12
WEIGHT_RENORM_WINDOW = 1e-9


@dataclass(frozen=True)
class ConstraintSet:
    """A closed convex set C represented by its (firmly nonexpansive)
    projector on flat arrays; :meth:`projector` is the same map on points.

    ``array_projector`` returns a new array or its argument, never storage
    it keeps: the solver keeps the iterates it returns, as snapshots and as
    the point whose directions a stop check hands to the next refresh."""

    array_projector: Callable[[np.ndarray], np.ndarray]

    def projector(self, x: SpacePoint) -> SpacePoint:
        return x.with_data(self.array_projector(x.data))

    @classmethod
    def whole_space(cls) -> "ConstraintSet":
        return cls(array_projector=_identity)

    @classmethod
    def box(cls, lo, hi) -> "ConstraintSet":
        lo_a = np.asarray(lo, dtype=np.float64)
        hi_a = np.asarray(hi, dtype=np.float64)
        if not np.all(lo_a <= hi_a):
            raise InvalidParameter("box bounds need lo <= hi componentwise")
        return cls(array_projector=functools.partial(clamp, lo=lo_a, hi=hi_a))


def _identity(a: np.ndarray) -> np.ndarray:
    return a


@dataclass(frozen=True)
class Prescription:
    """One arm of the model: target, Wiener pair (linear map + FNE map), weight.

    The linear map's certified ``norm_sq`` (>= the true squared operator
    norm), which must be positive and finite, is the arm's step bound b_i in
    gamma_i = gamma / b_i unless the solver certifies a smaller shared bound
    for the activation atom the arm belongs to (see
    :func:`blockvi.solver.step_bounds`).
    """

    linop: object
    fne: object
    target: SpacePoint
    weight: float

    def __post_init__(self):
        if self.linop.output_shape != self.fne.domain_shape:
            raise ShapeMismatch("linear map output and FNE domain disagree")
        if self.target.shape != self.fne.domain_shape:
            raise ShapeMismatch("target lives outside the FNE domain")
        if not 0 < self.weight <= 1:
            raise InvalidParameter("weight must lie in (0, 1]")
        if not 0 < self.linop.norm_sq < math.inf:     # also catches NaN
            raise InvalidParameter("the linear map's norm_sq must be positive and finite")
        object.__setattr__(self, "weight", float(self.weight))

    def image(self, x: SpacePoint) -> SpacePoint:
        """F_i(L_i x)."""
        return self.fne.apply(self.linop.apply(x))


class ArmArrays(NamedTuple):
    """Per-arm data of a problem as read-only arrays, in arm order."""

    weights: np.ndarray     # w_i
    bounds: np.ndarray      # linop.norm_sq, b_i >= ||L_i||^2


@dataclass(frozen=True)
class Problem:
    """Constraint set plus a nonempty ordered family of prescriptions."""

    constraint: ConstraintSet
    prescriptions: tuple

    def __post_init__(self):
        pres = tuple(self.prescriptions)
        object.__setattr__(self, "prescriptions", pres)
        if not pres:
            raise InvalidParameter("at least one prescription is required")
        domain = pres[0].linop.input_shape
        for p in pres[1:]:
            if p.linop.input_shape != domain:
                raise ShapeMismatch("prescriptions disagree on the domain space")
        total = math.fsum(p.weight for p in pres)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise WeightSumError(f"weights sum to {total!r}, expected 1")
        # C must map the domain into itself, which a box of another size does not
        n = domain.total
        try:
            fits = np.shape(self.constraint.array_projector(np.zeros(n))) == (n,)
        except ValueError:
            fits = False
        if not fits:
            raise ShapeMismatch(f"the constraint does not project R^{n} into itself")

    @property
    def domain_shape(self) -> BlockShape:
        return self.prescriptions[0].linop.input_shape

    @property
    def arm_count(self) -> int:
        return len(self.prescriptions)

    @functools.cached_property
    def arrays(self) -> ArmArrays:
        """The weights and bounds of the arms, read once on first use (the
        prescriptions are immutable); the one table of the arms' weights."""
        pres = self.prescriptions
        arrays = ArmArrays(np.array([p.weight for p in pres]),
                           np.array([p.linop.norm_sq for p in pres]))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @functools.cached_property
    def _atom_groups(self) -> dict:
        return {}

    def atom_groups(self, atom: Sequence[int]) -> tuple:
        """The :func:`arm_groups` of one activation atom, built on the first
        call for its arms and kept (the prescriptions are immutable)."""
        atom = tuple(atom)
        if atom not in self._atom_groups:
            self._atom_groups[atom] = arm_groups(self, atom)
        return self._atom_groups[atom]

    @functools.cached_property
    def groups(self) -> tuple:
        """The groups of all arms as one atom; the residual and the gaps
        read them."""
        return self.atom_groups(range(self.arm_count))


def assemble_problem(constraint: ConstraintSet,
                     prescriptions: Sequence[Prescription]) -> Problem:
    """Validate and assemble a problem instance.

    Weights are renormalized to sum exactly to one only when they already sum
    to one within 1e-9; larger deviations are treated as caller mistakes.
    """
    pres = tuple(prescriptions)
    if not pres:
        raise InvalidParameter("at least one prescription is required")
    total = math.fsum(p.weight for p in pres)
    if abs(total - 1.0) > WEIGHT_RENORM_WINDOW:
        raise WeightSumError(
            f"weights sum to {total!r}; beyond the 1e-9 renormalization window")
    if total != 1.0:
        pres = tuple(dataclasses.replace(p, weight=p.weight / total) for p in pres)
    return Problem(constraint=constraint, prescriptions=pres)


def vi_residual(problem: Problem, x: SpacePoint, theta: float = 1.0) -> float:
    """Scale-free fixed-point residual; zero exactly at solutions, for any theta > 0.

    ||x - proj_C(x - theta * sum_i w_i L_i*(F_i(L_i x) - p_i))|| / (1 + ||x||)

    Evaluated on arrays by the arm kernel (:func:`array_residual`).
    """
    if not theta > 0:
        raise InvalidParameter("theta must be positive")
    if x.shape != problem.domain_shape:
        raise ShapeMismatch("point lives outside the problem domain")
    return array_residual(problem, x.data, theta)


def prescription_images(problem: Problem, x: SpacePoint) -> list:
    """[F_i(L_i x)] in arm order; identical across the whole solution set."""
    return [p.image(x) for p in problem.prescriptions]


def inconsistency_bound(gaps) -> float:
    """Upper bound sqrt(sum_i ||p_i - F_i(L_i x)||^2) on the distance from the
    prescriptions to the realizable set, given the gaps ||p_i - F_i(L_i x)||
    at a solution x (:func:`arm_gaps`).

    Vanishes (within roundoff) exactly when every prescription holds at the
    solution.  It evaluates no arm and no residual: a caller that also
    reports the gaps passes the one array it has.  For a solve's result the
    residual is the last record of its trace (``trace.final_residual``),
    :func:`vi_residual` at that point bit for bit.
    """
    return math.sqrt(math.fsum(np.asarray(gaps, dtype=np.float64) ** 2))


def least_squares_objective(problem: Problem, x: SpacePoint) -> float:
    """(1/2) sum_i w_i d_{D_i}^2(L_i x) for pure feasibility problems.

    Defined only when every arm is a residual projector (F_i = Id - proj_{D_i})
    with zero target; vanishes exactly on points satisfying every constraint
    L_i x in D_i.
    """
    if x.shape != problem.domain_shape:
        raise ShapeMismatch("point lives outside the problem domain")
    for i, p in enumerate(problem.prescriptions):
        if not getattr(p.fne, "is_residual_projector", False):
            raise UnsupportedObjective(
                f"arm {i} is not a set-feasibility residual; the quadratic "
                "objective is undefined")
        if np.any(p.target.data != 0):
            raise UnsupportedObjective(f"arm {i} has a nonzero target")
    return 0.5 * math.fsum(problem.arrays.weights * arm_gaps(problem, x.data) ** 2)


@dataclass(frozen=True)
class _ArmGroup:
    """Arms that :func:`_fne_residuals` evaluates in one pass: a single arm
    with its own maps, or one-row dense arms with fused FNEs (``linop`` is the
    ``DenseMatrix`` of their stacked rows, ``fne`` acts on them elementwise),
    with the arms' weights w_i, which no schedule changes."""

    arms: np.ndarray         # the arms, ascending
    linop: object
    fne: object
    target: np.ndarray
    weights: np.ndarray      # w_i of ``arms``, in their order


def arm_groups(problem: Problem, atom: Sequence[int]) -> tuple:
    """Split one activation atom into groups: for each FNE class, the atom's
    arms whose map is a one-row ``DenseMatrix`` when their FNEs fuse
    (``FneOperator.stacked``), and every other arm alone.  A fused group's
    map is the ``DenseMatrix`` of its own arms' rows, stacked in atom order.
    Every group holds its arms' weights."""
    pres, weights = problem.prescriptions, problem.arrays.weights
    by_class, alone = {}, []                    # both in atom order
    for i in atom:
        linop = pres[i].linop
        if isinstance(linop, DenseMatrix) and linop.matrix.shape[0] == 1:
            by_class.setdefault(type(pres[i].fne), []).append(i)
        else:
            alone.append(i)
    groups = []
    for cls, arms in by_class.items():
        members = [pres[i] for i in arms]
        fne = cls.stacked([p.fne for p in members]) if len(arms) > 1 else None
        if fne is None:
            alone.extend(arms)
            continue
        rows = np.concatenate([p.linop.matrix for p in members])
        groups.append(_ArmGroup(
            np.array(arms), DenseMatrix(rows), fne,
            np.concatenate([p.target.data for p in members]), weights[arms]))
    groups += [_ArmGroup(np.array([i]), pres[i].linop, pres[i].fne,
                         pres[i].target.data, weights[[i]]) for i in alone]
    return tuple(groups)


def _fne_residuals(group: _ArmGroup, x: np.ndarray) -> np.ndarray:
    """r = F_i(L_i x) - p_i for the arms of ``group``: one ``linop`` and one
    ``fne`` call (one matvec and one elementwise FNE for a fused group)."""
    return group.fne._apply(group.linop._apply(x)) - group.target


def pullback(group: _ArmGroup, x: np.ndarray) -> np.ndarray:
    """The direction d_g of ``group`` at x: L_i*(r_i) for a single arm, and
    for a fused group one adjoint A^T (w * r) of its stacked rows A and
    weights w, its share of sum_i w_i L_i*(r_i); r_i = F_i(L_i x) - p_i."""
    r = _fne_residuals(group, x)
    if len(group.arms) == 1:
        return group.linop._adjoint(r)
    return group.linop._adjoint(group.weights * r)


def _flat_point(problem: Problem, x) -> np.ndarray:
    """``x`` as float64, which must be a flat array of the domain's size."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.domain_shape.total,):
        raise ShapeMismatch("point lives outside the problem domain")
    return x


def array_residual(problem: Problem, x: np.ndarray, theta: float = 1.0,
                   directions: Optional[list] = None) -> float:
    """:func:`vi_residual` on a flat array.  Each group of
    :attr:`Problem.groups`, in their order, adds its share of sum_i w_i
    L_i*(F_i(L_i x) - p_i) given its :func:`pullback` d_g: w_i d_g for a
    single arm, d_g itself for a fused group.  A list given as
    ``directions`` receives the d_g, in the same order."""
    x = _flat_point(problem, x)
    grad = np.zeros_like(x)
    for g in problem.groups:
        d = pullback(g, x)
        if directions is not None:
            directions.append(d)
        grad += d if len(g.arms) > 1 else g.weights[0] * d
    step = x - problem.constraint.array_projector(x - theta * grad)
    # math.sqrt(v @ v) is np.linalg.norm(v) of a flat array bit for bit,
    # without its dispatch
    return math.sqrt(step @ step) / (1.0 + math.sqrt(x @ x))


def arm_gaps(problem: Problem, x: np.ndarray) -> np.ndarray:
    """The gaps ||F_i(L_i x) - p_i|| of every arm at a flat array x, in arm
    order, from :attr:`Problem.groups`: |r_i| for the one-row arms of a fused
    group, ||r_i|| for a single arm."""
    x = _flat_point(problem, x)
    gaps = np.empty(problem.arm_count)
    for g in problem.groups:
        r = _fne_residuals(g, x)
        gaps[g.arms] = np.abs(r) if len(g.arms) > 1 else np.linalg.norm(r)
    return gaps
