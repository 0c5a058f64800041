"""Problem assembly and the diagnostics that characterize relaxed solutions.

A problem couples a constraint set C with weighted prescription arms
(L_i, F_i, p_i, w_i): find x in C whose weighted prescription residuals make
a nonnegative inner product with every feasible direction.  Equivalently,
x is a solution iff it is a fixed point of

    x  ->  proj_C(x - theta * sum_i w_i L_i*(F_i(L_i x) - p_i))

for any theta > 0, which is what :func:`vi_residual` measures.  C enters
only through its projector on flat arrays (:class:`ConstraintSet`).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

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
    "WEIGHT_SUM_TOL",
    "WEIGHT_RENORM_WINDOW",
]

WEIGHT_SUM_TOL = 1e-12
WEIGHT_RENORM_WINDOW = 1e-9


@dataclass(frozen=True)
class ConstraintSet:
    """A closed convex set C represented by its (firmly nonexpansive)
    projector on flat arrays; :meth:`projector` is the same map on points."""

    array_projector: Callable[[np.ndarray], np.ndarray]

    def projector(self, x: SpacePoint) -> SpacePoint:
        return x.with_data(self.array_projector(x.data))

    @classmethod
    def whole_space(cls) -> "ConstraintSet":
        return cls(array_projector=lambda a: a)

    @classmethod
    def box(cls, lo, hi) -> "ConstraintSet":
        lo_a = np.asarray(lo, dtype=np.float64)
        hi_a = np.asarray(hi, dtype=np.float64)
        if not np.all(lo_a <= hi_a):
            raise InvalidParameter("box bounds need lo <= hi componentwise")
        return cls(array_projector=lambda a: clamp(a, lo_a, hi_a))


@dataclass(frozen=True)
class Prescription:
    """One arm of the model: target, Wiener pair (linear map + FNE map), weight.

    ``norm_sq_bound`` is not an argument: it is always the linear map's
    certified ``norm_sq`` (>= the true squared operator norm).  It is the
    arm's step bound b_i in gamma_i = gamma / b_i unless the solver certifies
    a smaller shared bound for the activation atom the arm belongs to (see
    :func:`blockvi.solver.step_bounds`).
    """

    linop: object
    fne: object
    target: SpacePoint
    weight: float
    norm_sq_bound: float = field(init=False)

    def __post_init__(self):
        if self.linop.output_shape != self.fne.domain_shape:
            raise ShapeMismatch("linear map output and FNE domain disagree")
        if self.target.shape != self.fne.domain_shape:
            raise ShapeMismatch("target lives outside the FNE domain")
        if not 0 < self.weight <= 1:
            raise InvalidParameter("weight must lie in (0, 1]")
        bound = self.linop.norm_sq
        if not bound > 0:
            raise InvalidParameter("norm_sq_bound must be positive")
        object.__setattr__(self, "norm_sq_bound", float(bound))
        object.__setattr__(self, "weight", float(self.weight))

    def image(self, x: SpacePoint) -> SpacePoint:
        """F_i(L_i x)."""
        return self.fne.apply(self.linop.apply(x))


class ArmArrays(NamedTuple):
    """Per-arm data of a problem as read-only arrays, in arm order."""

    weights: np.ndarray     # w_i
    bounds: np.ndarray      # norm_sq_bound, b_i >= ||L_i||^2
    heights: np.ndarray     # rows of L_i when it is a DenseMatrix, else 0


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

    @property
    def domain_shape(self) -> BlockShape:
        return self.prescriptions[0].linop.input_shape

    @property
    def weights(self) -> tuple:
        return tuple(p.weight for p in self.prescriptions)

    @property
    def arm_count(self) -> int:
        return len(self.prescriptions)

    @functools.cached_property
    def arrays(self) -> ArmArrays:
        """The weights, bounds and dense row counts of the arms, read once
        on first use (the prescriptions are immutable)."""
        pres = self.prescriptions
        arrays = ArmArrays(
            np.array([p.weight for p in pres]),
            np.array([p.norm_sq_bound for p in pres]),
            np.array([p.linop.matrix.shape[0] if isinstance(p.linop, DenseMatrix)
                      else 0 for p in pres]))
        for a in arrays:
            a.flags.writeable = False
        return arrays


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

    Evaluated on arrays by the solver's arm kernel
    (:func:`blockvi.solver.array_residual`).
    """
    if not theta > 0:
        raise InvalidParameter("theta must be positive")
    if x.shape != problem.domain_shape:
        raise ShapeMismatch("point lives outside the problem domain")
    from .solver import array_residual  # deferred: the solver imports this module

    return array_residual(problem, x.data, theta)


def prescription_images(problem: Problem, x: SpacePoint) -> list:
    """[F_i(L_i x)] in arm order; identical across the whole solution set."""
    return [p.image(x) for p in problem.prescriptions]


def inconsistency_bound(problem: Problem, solution: SpacePoint,
                        tol: float = 1e-6) -> float:
    """Upper bound sqrt(sum_i ||p_i - F_i(L_i x)||^2) on the distance from the
    prescriptions to the realizable set, evaluated at a solution.

    Vanishes (within roundoff) exactly when every prescription holds at the
    solution.  The bound remains a valid estimate at imperfect solutions, so a
    residual above ``tol`` only warns.  The gaps are the solver's
    (:func:`blockvi.solver.arm_gaps`).
    """
    r = vi_residual(problem, solution)
    if r > tol:
        warnings.warn(
            f"inconsistency_bound evaluated at residual {r:.3e} > tol {tol:.1e}; "
            "treat the bound as an estimate",
            RuntimeWarning,
        )
    from .solver import arm_gaps  # deferred: the solver imports this module

    return math.sqrt(math.fsum(arm_gaps(problem, solution.data) ** 2))


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
    from .solver import arm_gaps  # deferred: the solver imports this module

    return 0.5 * math.fsum(np.asarray(problem.weights) * arm_gaps(problem, x.data) ** 2)
