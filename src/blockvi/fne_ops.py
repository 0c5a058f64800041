"""Catalog of firmly nonexpansive prescription operators and proxifications.

An operator F here is firmly nonexpansive (FNE):

    <x - y, Fx - Fy>  >=  ||Fx - Fy||^2   for all x, y.

Projectors onto closed convex sets, proximity operators, and residuals
Id - F of FNE maps all qualify.  Observation models that are *not* FNE
(hard thresholds, dead-zone roots, singular-value truncation, weakly convex
shrinkage) are handled by proxification: the equation ``Q y = q`` is replaced
by an equivalent equation ``F y = p`` with F firmly nonexpansive, so the
solver only ever evaluates FNE maps.

Capability flags:

* ``is_projector`` -- F is the projection onto a closed convex set.
* ``is_residual_projector`` -- F = Id - proj_D for a closed convex set D and
  the natural target is 0; then ``distance_sq`` returns d_D^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    InvalidParameter,
    NotInRange,
    RankDeficient,
    ShapeMismatch,
    UnsupportedObjective,
)
from .space import BlockShape, SpacePoint

__all__ = [
    "FneOperator",
    "IdentityFne",
    "BoxProjector",
    "LinfBallProjector",
    "SingletonProjector",
    "NonnegProjector",
    "BlockwiseConstantProjector",
    "Blockwise",
    "SoftThreshold",
    "GroupShrinkage",
    "SoftClip",
    "MeanAdjust",
    "PhasePrescription",
    "ResidualOf",
    "AveragedComposition",
    "SvdSoftThreshold",
    "BlockThresholdFne",
    "ScaledFne",
    "ForwardBackwardFne",
    "Proxification",
    "proxify_hard_threshold",
    "proxify_block_threshold",
    "proxify_svd",
    "proxify_root",
    "rank_to_threshold",
    "scale_to_fne",
    "make_projector",
    "soft_threshold",
    "hard_threshold",
    "log_threshold",
    "dead_zone_root",
    "dead_zone_quartic_root",
    "root_shift",
    "svd_hard_threshold",
    "svd_shift",
    "firm_nonexpansiveness_excess",
]


# ---------------------------------------------------------------------------
# scalar / elementwise building blocks
# ---------------------------------------------------------------------------

def soft_threshold(values, gamma: float):
    """sign(v) * max(|v| - gamma, 0); the boundary |v| = gamma maps to 0."""
    if gamma <= 0:
        raise InvalidParameter("soft threshold level must be positive")
    v = np.asarray(values, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)


def hard_threshold(values, gamma: float):
    """v where |v| > gamma, else 0 (ties at |v| = gamma go to 0)."""
    if gamma <= 0:
        raise InvalidParameter("hard threshold level must be positive")
    v = np.asarray(values, dtype=np.float64)
    return np.where(np.abs(v) > gamma, v, 0.0)


def dead_zone_root(values, rho: float):
    """sign(v) * sqrt(v^2 - rho^2) where |v| > rho, else 0."""
    v = np.asarray(values, dtype=np.float64)
    out = np.zeros_like(v)
    live = np.abs(v) > rho
    out[live] = np.sign(v[live]) * np.sqrt(v[live] ** 2 - rho ** 2)
    return out


def dead_zone_quartic_root(values, rho: float):
    """sign(v) * (v^4 - rho^4)^(1/4) where |v| > rho, else 0."""
    v = np.asarray(values, dtype=np.float64)
    out = np.zeros_like(v)
    live = np.abs(v) > rho
    out[live] = np.sign(v[live]) * (v[live] ** 4 - rho ** 4) ** 0.25
    return out


def root_shift(values, rho: float):
    """sign(v) * (sqrt(v^2 + rho^2) - rho); composes with the dead-zone root
    into the soft threshold at level rho."""
    v = np.asarray(values, dtype=np.float64)
    return np.sign(v) * (np.sqrt(v ** 2 + rho ** 2) - rho)


def log_threshold(values, rho: float, gamma: float):
    """Shrinkage induced by the logarithmic penalty log(rho + |.|).

    Three branches with dead zone [-gamma/rho, gamma/rho]:

        v >  gamma/rho:  (v - rho + sqrt((v + rho)^2 - 4 gamma)) / 2
        |v| <= gamma/rho: 0
        v < -gamma/rho:  (v + rho - sqrt((v - rho)^2 - 4 gamma)) / 2

    Requires 0 < gamma < rho^2 (the weak-convexity margin), otherwise the
    map is not single-valued.
    """
    if rho <= 0:
        raise InvalidParameter("rho must be positive")
    if not 0 < gamma < rho ** 2:
        raise InvalidParameter("need 0 < gamma < rho^2")
    v = np.asarray(values, dtype=np.float64)
    cut = gamma / rho
    out = np.zeros_like(v)
    pos = v > cut
    neg = v < -cut
    out[pos] = 0.5 * (v[pos] - rho + np.sqrt((v[pos] + rho) ** 2 - 4.0 * gamma))
    out[neg] = 0.5 * (v[neg] + rho - np.sqrt((v[neg] - rho) ** 2 - 4.0 * gamma))
    return out


def _svd(mat):
    u, s, vt = np.linalg.svd(np.asarray(mat, dtype=np.float64), full_matrices=False)
    return u, s, vt


def svd_hard_threshold(mat, rho: float):
    """Zero all singular values with sigma <= rho (low-rank compression)."""
    u, s, vt = _svd(mat)
    return (u * hard_threshold(s, rho)) @ vt


def svd_shift(mat, rho: float):
    """Shift every nonzero singular value by -rho (companion of the hard map)."""
    u, s, vt = _svd(mat)
    shifted = np.where(s > 0, s - rho, 0.0)
    return (u * shifted) @ vt


# ---------------------------------------------------------------------------
# operator base class
# ---------------------------------------------------------------------------

class FneOperator:
    """A firmly nonexpansive map on a fixed coordinate space."""

    kind = "abstract"
    is_projector = False
    is_residual_projector = False

    def __init__(self, domain_shape: BlockShape):
        self.domain_shape = domain_shape

    def apply(self, y: SpacePoint) -> SpacePoint:
        if y.shape != self.domain_shape:
            raise ShapeMismatch(f"{self.kind}: {y.shape} != {self.domain_shape}")
        return SpacePoint(self._apply(y.data), self.domain_shape)

    def _apply(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def has_distance_sq(self) -> bool:
        return self.is_residual_projector

    def distance_sq(self, y: SpacePoint) -> float:
        """d_D^2(y) for residual projectors F = Id - proj_D (it equals ||Fy||^2)."""
        if not self.is_residual_projector:
            raise UnsupportedObjective(f"{self.kind} does not expose a distance")
        if y.shape != self.domain_shape:
            raise ShapeMismatch(f"{self.kind}: {y.shape} != {self.domain_shape}")
        return float(np.sum(self._apply(y.data) ** 2))

    def describe(self) -> dict:
        return {"kind": self.kind}

    @classmethod
    def stacked(cls, ops: Sequence["FneOperator"]) -> Optional["FneOperator"]:
        """One elementwise operator on R^k whose j-th coordinate is ops[j]
        acting on R^1 (``ops`` are operators of this class on R^1), or None
        when they do not fuse.  The solver evaluates fused one-row arms
        together; the result must equal applying each op alone, bit for bit."""
        return None


class IdentityFne(FneOperator):
    kind = "identity"
    is_projector = True  # projection onto the whole space

    def _apply(self, y):
        return y


# ---------------------------------------------------------------------------
# projectors
# ---------------------------------------------------------------------------

class BoxProjector(FneOperator):
    """Componentwise clamp onto [lo, hi] (scalars or per-entry bounds)."""

    kind = "box"
    is_projector = True

    def __init__(self, lo, hi, domain_shape: BlockShape):
        super().__init__(domain_shape)
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if np.any(lo > hi):
            raise InvalidParameter("box bounds need lo <= hi componentwise")
        self.lo, self.hi = lo, hi

    def _apply(self, y):
        return np.clip(y, self.lo, self.hi)

    def describe(self):
        return {"kind": self.kind, "lo": np.min(self.lo).item(), "hi": np.max(self.hi).item()}


class LinfBallProjector(FneOperator):
    """Clamp onto the sup-norm ball of radius rho centered at the origin."""

    kind = "linf_ball"
    is_projector = True

    def __init__(self, rho: float, domain_shape: BlockShape):
        super().__init__(domain_shape)
        if rho <= 0:
            raise InvalidParameter("ball radius must be positive")
        self.rho = float(rho)

    def _apply(self, y):
        return np.clip(y, -self.rho, self.rho)

    def describe(self):
        return {"kind": self.kind, "rho": self.rho}


class SingletonProjector(FneOperator):
    kind = "singleton"
    is_projector = True

    def __init__(self, center: SpacePoint):
        super().__init__(center.shape)
        self.center = center

    def _apply(self, y):
        return self.center.data.copy()

    @classmethod
    def stacked(cls, ops):
        if any(type(op) is not SingletonProjector for op in ops):
            return None
        return SingletonProjector(
            SpacePoint(np.concatenate([op.center.data for op in ops])))


class NonnegProjector(FneOperator):
    kind = "nonneg_orthant"
    is_projector = True

    def _apply(self, y):
        return np.maximum(y, 0.0)


class BlockwiseConstantProjector(FneOperator):
    """Projection onto signals constant over given consecutive runs (run means)."""

    kind = "blockwise_constant"
    is_projector = True

    def __init__(self, run_lengths: Sequence[int], domain_shape: BlockShape):
        super().__init__(domain_shape)
        runs = tuple(int(r) for r in run_lengths)
        if any(r < 1 for r in runs) or sum(runs) != domain_shape.total:
            raise InvalidParameter("run lengths must be >= 1 and cover the signal")
        self.run_lengths = runs
        self._starts = np.concatenate([[0], np.cumsum(runs)[:-1]]).astype(int)

    def _apply(self, y):
        sums = np.add.reduceat(y, self._starts)
        means = sums / np.asarray(self.run_lengths, dtype=np.float64)
        return np.repeat(means, self.run_lengths)

    def describe(self):
        return {"kind": self.kind, "runs": list(self.run_lengths)}


class Blockwise(FneOperator):
    """Apply the j-th FNE operator to the j-th block of a product space."""

    kind = "blockwise"

    def __init__(self, ops: Sequence[FneOperator]):
        if not ops:
            raise InvalidParameter("blockwise needs at least one operator")
        self.ops = list(ops)
        super().__init__(BlockShape.product([op.domain_shape for op in self.ops]))
        self._sizes = [op.domain_shape.total for op in self.ops]
        self.is_projector = all(op.is_projector for op in self.ops)
        self.is_residual_projector = all(op.is_residual_projector for op in self.ops)

    def _apply(self, y):
        parts = np.split(y, np.cumsum(self._sizes)[:-1])
        return np.concatenate([op._apply(p) for op, p in zip(self.ops, parts)])

    def describe(self):
        return {"kind": self.kind, "blocks": [op.describe() for op in self.ops]}


def make_projector(set_kind: str, domain_shape: BlockShape, **params) -> FneOperator:
    """Factory for the stock projection operators (used by manifest loading)."""
    if set_kind == "box":
        return BoxProjector(params["lo"], params["hi"], domain_shape)
    if set_kind == "linf_ball":
        return LinfBallProjector(params["rho"], domain_shape)
    if set_kind == "singleton":
        return SingletonProjector(SpacePoint(params["center"], domain_shape))
    if set_kind == "blockwise_constant":
        return BlockwiseConstantProjector(params["run_lengths"], domain_shape)
    if set_kind == "nonneg_orthant":
        return NonnegProjector(domain_shape)
    raise InvalidParameter(f"unknown projector kind {set_kind!r}")


# ---------------------------------------------------------------------------
# proximity-type operators
# ---------------------------------------------------------------------------

class SoftThreshold(FneOperator):
    """Componentwise soft thresholding; equals Id minus the sup-ball projection."""

    kind = "soft_threshold"
    is_residual_projector = True

    def __init__(self, gamma: float, domain_shape: BlockShape):
        super().__init__(domain_shape)
        if gamma <= 0:
            raise InvalidParameter("threshold must be positive")
        self.gamma = float(gamma)

    def _apply(self, y):
        return soft_threshold(y, self.gamma)

    @classmethod
    def stacked(cls, ops):
        if any(type(op) is not SoftThreshold or op.gamma != ops[0].gamma
               for op in ops):
            return None
        return SoftThreshold(ops[0].gamma, BlockShape.vector(len(ops)))

    def describe(self):
        return {"kind": self.kind, "gamma": self.gamma}


class GroupShrinkage(FneOperator):
    """Per-block shrinkage y_j -> (1 - rho_j / max(||y_j||, rho_j)) y_j.

    Blocks are the blocks of the domain shape; equals Id minus the projection
    onto the product of Euclidean balls of radii rho_j, so single-coordinate
    blocks reduce to soft thresholding.
    """

    kind = "group_shrinkage"
    is_residual_projector = True

    def __init__(self, rhos, domain_shape: BlockShape):
        super().__init__(domain_shape)
        r = np.broadcast_to(np.asarray(rhos, dtype=np.float64),
                            (domain_shape.block_count,)).copy()
        if np.any(r <= 0):
            raise InvalidParameter("shrinkage radii must be positive")
        self.rhos = r
        self._offsets = domain_shape.offsets()

    def _apply(self, y):
        out = np.empty_like(y)
        for j in range(self.domain_shape.block_count):
            lo, hi = self._offsets[j], self._offsets[j + 1]
            block = y[lo:hi]
            nrm = np.linalg.norm(block)
            out[lo:hi] = (1.0 - self.rhos[j] / max(nrm, self.rhos[j])) * block
        return out

    def describe(self):
        return {"kind": self.kind, "rhos": self.rhos.tolist()}


class SoftClip(FneOperator):
    """Odd saturating nonlinearities with range (-1, 1)."""

    kind = "soft_clip"
    VARIANTS = ("rational", "arctan", "exp_sat")

    def __init__(self, variant: str, domain_shape: BlockShape):
        super().__init__(domain_shape)
        if variant not in self.VARIANTS:
            raise InvalidParameter(f"variant must be one of {self.VARIANTS}")
        self.variant = variant

    def _apply(self, y):
        if self.variant == "rational":
            return y / (1.0 + np.abs(y))
        if self.variant == "arctan":
            return 2.0 * np.arctan(y) / np.pi
        return np.sign(y) * (1.0 - np.exp(-np.abs(y)))

    def describe(self):
        return {"kind": self.kind, "variant": self.variant}


class MeanAdjust(FneOperator):
    """Shift a signal so its mean becomes exactly rho (projection onto the
    mean-rho affine slab)."""

    kind = "mean_adjust"
    is_projector = True

    def __init__(self, rho: float, domain_shape: BlockShape):
        super().__init__(domain_shape)
        self.rho = float(rho)

    def _apply(self, y):
        return y - (np.mean(y) - self.rho)

    def describe(self):
        return {"kind": self.kind, "rho": self.rho}


class PhasePrescription(FneOperator):
    """Residual of the projection onto the cone of signals whose DFT phases
    match a given phase field.

    F(y) = y - IDFT(|DFT y| * max(cos(angle(DFT y) - theta), 0) * exp(i theta));
    F(y) = 0 exactly when every nonzero DFT bin of y already has phase theta.
    The phase field must be conjugate-symmetric (come from a real signal),
    otherwise the correction acquires imaginary mass and the apply fails.
    """

    kind = "phase_prescription"
    is_residual_projector = True
    IMAG_TOL = 1e-9

    def __init__(self, theta, domain_shape: BlockShape):
        super().__init__(domain_shape)
        if domain_shape.block_count != 1 or domain_shape.extents[0] is None:
            raise InvalidParameter("phase prescription needs a single 2-D block")
        th = np.asarray(theta, dtype=np.float64)
        if th.shape != domain_shape.extents[0]:
            raise ShapeMismatch("phase field extents do not match the domain")
        if np.any(np.abs(th) > np.pi + 1e-12):
            raise InvalidParameter("phase entries must lie in [-pi, pi]")
        self.theta = th

    def _apply(self, y):
        rows, cols = self.domain_shape.extents[0]
        spectrum = np.fft.fft2(y.reshape(rows, cols))
        aligned = (np.abs(spectrum)
                   * np.maximum(np.cos(np.angle(spectrum) - self.theta), 0.0)
                   * np.exp(1j * self.theta))
        correction = np.fft.ifft2(aligned)
        imag_mass = np.linalg.norm(correction.imag)
        if imag_mass > self.IMAG_TOL * (1.0 + np.linalg.norm(correction.real)):
            raise InvalidParameter("phase field is not conjugate-symmetric")
        return y - correction.real.reshape(-1)

    def describe(self):
        return {"kind": self.kind}


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

class ResidualOf(FneOperator):
    """Id - F; firmly nonexpansive exactly when F is.

    The projector flags swap: the residual of a projector is a residual
    projector and vice versa.
    """

    kind = "residual_of"

    def __init__(self, op: FneOperator):
        super().__init__(op.domain_shape)
        self.op = op
        self.is_projector = op.is_residual_projector
        self.is_residual_projector = op.is_projector

    def _apply(self, y):
        return y - self.op._apply(y)

    @classmethod
    def stacked(cls, ops):
        inner = [op.op for op in ops]
        if any(type(op) is not ResidualOf or type(i) is not type(inner[0])
               for op, i in zip(ops, inner)):
            return None
        fused = type(inner[0]).stacked(inner)
        return None if fused is None else ResidualOf(fused)

    def describe(self):
        return {"kind": self.kind, "of": self.op.describe()}


class AveragedComposition(FneOperator):
    """(Id + R_1 o ... o R_m) / 2 for nonexpansive maps R_j.

    Firmly nonexpansive by construction.  Nonexpansiveness of the supplied
    maps is declared by the caller and spot-checked on random pairs.
    """

    kind = "averaged_composition"
    SPOT_PAIRS = 200

    def __init__(self, maps: Sequence, domain_shape: BlockShape, seed: int = 0,
                 spot_check: bool = True):
        super().__init__(domain_shape)
        if not maps:
            raise InvalidParameter("need at least one map")
        self.maps = [self._as_array_map(m) for m in maps]
        if spot_check:
            rng = np.random.default_rng(seed)
            n = domain_shape.total
            for idx, r in enumerate(self.maps):
                a = rng.standard_normal((self.SPOT_PAIRS, n))
                b = rng.standard_normal((self.SPOT_PAIRS, n))
                for xa, xb in zip(a, b):
                    lhs = np.linalg.norm(r(xa) - r(xb))
                    rhs = np.linalg.norm(xa - xb)
                    if lhs > rhs * (1.0 + 1e-10) + 1e-12:
                        raise InvalidParameter(f"map {idx} is not nonexpansive")

    @staticmethod
    def _as_array_map(m) -> Callable[[np.ndarray], np.ndarray]:
        if isinstance(m, FneOperator):
            return m._apply
        return m

    def _apply(self, y):
        z = y
        for r in reversed(self.maps):
            z = r(z)
        return 0.5 * (y + z)


class SvdSoftThreshold(FneOperator):
    """Soft-threshold the singular values of a matrix-shaped point at level rho.

    A single decomposition suffices; the map cannot increase rank.
    """

    kind = "svd_soft_threshold"

    def __init__(self, rho: float, domain_shape: BlockShape):
        super().__init__(domain_shape)
        if domain_shape.block_count != 1 or domain_shape.extents[0] is None:
            raise InvalidParameter("needs a single matrix-shaped block")
        if rho <= 0:
            raise InvalidParameter("rho must be positive")
        self.rho = float(rho)

    def _apply(self, y):
        mat = y.reshape(self.domain_shape.extents[0])
        u, s, vt = _svd(mat)
        return ((u * np.maximum(s - self.rho, 0.0)) @ vt).reshape(-1)

    def describe(self):
        return {"kind": self.kind, "rho": self.rho}


class BlockThresholdFne(FneOperator):
    """Per-block composition S_j o Q_j from the block-threshold proxification.

    Q_j keeps a block when its distance to D_j exceeds gamma_j and projects it
    otherwise; S_j pulls a block toward D_j by gamma_j along the projection
    direction.  The composition evaluates with one projection per block:

        F_j(y) = proj_j(y)                        if d_j(y) <= gamma_j,
                 y + (gamma_j / d_j(y)) (proj_j(y) - y)   otherwise.
    """

    kind = "block_threshold"

    def __init__(self, projectors: Sequence, gammas, domain_shape: BlockShape):
        super().__init__(domain_shape)
        m = domain_shape.block_count
        if len(projectors) != m:
            raise InvalidParameter("one projector per block required")
        g = np.broadcast_to(np.asarray(gammas, dtype=np.float64), (m,)).copy()
        if np.any(g <= 0):
            raise InvalidParameter("thresholds must be positive")
        self.gammas = g
        self.projectors = [self._as_block_proj(p) for p in projectors]
        self._offsets = domain_shape.offsets()

    @staticmethod
    def _as_block_proj(p) -> Callable[[np.ndarray], np.ndarray]:
        if isinstance(p, FneOperator):
            return lambda arr, _op=p: _op._apply(arr.reshape(-1))
        return p

    def _apply(self, y):
        out = np.empty_like(y)
        for j, proj in enumerate(self.projectors):
            lo, hi = self._offsets[j], self._offsets[j + 1]
            block = y[lo:hi]
            projected = np.asarray(proj(block), dtype=np.float64).reshape(-1)
            d = np.linalg.norm(block - projected)
            if d <= self.gammas[j]:
                out[lo:hi] = projected
            else:
                out[lo:hi] = block + (self.gammas[j] / d) * (projected - block)
        return out


class ScaledFne(FneOperator):
    """beta * Q for a map Q whose cocoercivity makes the scaling firmly
    nonexpansive; certified by a spot check at construction."""

    kind = "scaled"
    SPOT_PAIRS = 200

    def __init__(self, raw_map: Callable[[np.ndarray], np.ndarray], beta: float,
                 domain_shape: BlockShape, seed: int = 0, spot_check: bool = True,
                 sample_scale: float = 1.0):
        super().__init__(domain_shape)
        if not 0 < beta <= 1:
            raise InvalidParameter("beta must lie in (0, 1]")
        self.raw_map = raw_map
        self.beta = float(beta)
        if spot_check:
            excess = firm_nonexpansiveness_excess(
                self._apply, domain_shape.total, n_pairs=self.SPOT_PAIRS,
                seed=seed, scale=sample_scale)
            if excess > 0:
                raise InvalidParameter(
                    f"scaled map failed the firm-nonexpansiveness spot check "
                    f"(excess {excess:.3e})")

    def _apply(self, y):
        return self.beta * np.asarray(self.raw_map(y), dtype=np.float64)

    def describe(self):
        return {"kind": self.kind, "beta": self.beta}


def scale_to_fne(raw_map: Callable[[np.ndarray], np.ndarray], beta: float,
                 domain_shape: BlockShape, seed: int = 0,
                 sample_scale: float = 1.0) -> ScaledFne:
    """Wrap beta * raw_map as a certified firmly nonexpansive operator.

    For a shrinkage induced by a mu-weakly convex penalty at prox parameter
    gamma, any beta <= 1 - gamma * mu works; the complement Id - beta * raw_map
    is obtained with :class:`ResidualOf`.
    """
    return ScaledFne(raw_map, beta, domain_shape, seed=seed, sample_scale=sample_scale)


class ForwardBackwardFne(FneOperator):
    """(1 - gamma/(4 beta)) (Id - J(Id - gamma B)) for a resolvent J of a
    maximally monotone A (at parameter gamma) and a beta-cocoercive B.

    Zeros of this operator are exactly the zeros of A + B, so the pair
    (F, 0) prescribes membership in zer(A + B) -- including minimizers of
    f + g via A = subdifferential of f, B = gradient of g.
    """

    kind = "forward_backward"

    def __init__(self, resolvent, cocoercive_map, beta: float, gamma: float,
                 domain_shape: BlockShape):
        super().__init__(domain_shape)
        if beta <= 0:
            raise InvalidParameter("beta must be positive")
        if not 0 < gamma < 2 * beta:
            raise InvalidParameter("gamma must lie in (0, 2*beta)")
        self.resolvent = self._as_array_map(resolvent)
        self.cocoercive_map = self._as_array_map(cocoercive_map)
        self.beta = float(beta)
        self.gamma = float(gamma)

    @staticmethod
    def _as_array_map(m):
        if isinstance(m, FneOperator):
            return m._apply
        return m

    def _apply(self, y):
        forward = y - self.gamma * np.asarray(self.cocoercive_map(y), dtype=np.float64)
        backward = np.asarray(self.resolvent(forward), dtype=np.float64)
        return (1.0 - self.gamma / (4.0 * self.beta)) * (y - backward)

    def describe(self):
        return {"kind": self.kind, "beta": self.beta, "gamma": self.gamma}


# ---------------------------------------------------------------------------
# proxifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Proxification:
    """An FNE operator and target equivalent to a non-FNE equation Q y = q.

    The source pair is kept alongside so the sampled set-equivalence
    {y : Q y = q} = {y : F y = p} can be exercised directly.
    """

    fne: FneOperator
    target: SpacePoint
    source_map: Optional[Callable[[SpacePoint], SpacePoint]] = None
    source_value: Optional[SpacePoint] = None


def proxify_hard_threshold(gamma: float, q: SpacePoint) -> Proxification:
    """Replace a componentwise hard-threshold observation by a soft-threshold pair.

    Every component of q must be 0 or exceed gamma in magnitude (the range of
    the hard thresholder); the target shifts each surviving component toward
    zero by gamma.
    """
    if gamma <= 0:
        raise InvalidParameter("gamma must be positive")
    qv = q.data
    bad = (qv != 0) & (np.abs(qv) <= gamma)
    if np.any(bad):
        raise NotInRange(
            f"{int(bad.sum())} component(s) of q lie in (0, gamma]; "
            "not in the range of the hard thresholder")
    p = np.where(qv != 0, qv - gamma * np.sign(qv), 0.0)
    return Proxification(
        fne=SoftThreshold(gamma, q.shape),
        target=q.with_data(p),
        source_map=lambda y: y.with_data(hard_threshold(y.data, gamma)),
        source_value=q,
    )


def proxify_block_threshold(projectors: Sequence, gammas, q: SpacePoint) -> Proxification:
    """Block generalization of the hard-threshold proxification.

    Each block of q must lie in its set D_j or at distance > gamma_j from it.
    With singleton sets {0} and scalar blocks this reduces exactly to
    :func:`proxify_hard_threshold`.
    """
    fne = BlockThresholdFne(projectors, gammas, q.shape)
    offsets = q.shape.offsets()
    p = np.empty(q.dim)
    for j, proj in enumerate(fne.projectors):
        lo, hi = offsets[j], offsets[j + 1]
        block = q.data[lo:hi]
        projected = np.asarray(proj(block), dtype=np.float64).reshape(-1)
        d = np.linalg.norm(block - projected)
        if d == 0.0:
            p[lo:hi] = block
        elif d > fne.gammas[j]:
            p[lo:hi] = block + (fne.gammas[j] / d) * (projected - block)
        else:
            raise NotInRange(
                f"block {j} of q is at distance {d:.3e} in (0, gamma] from its set")

    def source(y: SpacePoint) -> SpacePoint:
        out = np.empty(y.dim)
        for j, proj in enumerate(fne.projectors):
            lo, hi = offsets[j], offsets[j + 1]
            block = y.data[lo:hi]
            projected = np.asarray(proj(block), dtype=np.float64).reshape(-1)
            d = np.linalg.norm(block - projected)
            out[lo:hi] = block if d > fne.gammas[j] else projected
        return y.with_data(out)

    return Proxification(fne=fne, target=q.with_data(p), source_map=source,
                         source_value=q)


def _rank_tolerance(s: np.ndarray, extents) -> float:
    return max(extents) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)


def proxify_svd(rho: float, q: SpacePoint) -> Proxification:
    """Replace a singular-value truncation observation by its soft-thresholded pair.

    q must lie in the range of the truncation: every singular value is (numerically)
    zero or exceeds rho.  The target shrinks the surviving singular values by rho.
    """
    if q.shape.block_count != 1 or q.shape.extents[0] is None:
        raise InvalidParameter("q must be a single matrix-shaped block")
    if rho <= 0:
        raise InvalidParameter("rho must be positive")
    extents = q.shape.extents[0]
    u, s, vt = _svd(q.data.reshape(extents))
    tiny = _rank_tolerance(s, extents)
    bad = (s > tiny) & (s <= rho)
    if np.any(bad):
        raise NotInRange(
            f"{int(bad.sum())} singular value(s) of q lie in (0, rho]; "
            "not in the range of the truncation")
    p = ((u * np.maximum(s - rho, 0.0)) @ vt).reshape(-1)
    return Proxification(
        fne=SvdSoftThreshold(rho, q.shape),
        target=q.with_data(p),
        source_map=lambda y: y.with_data(
            svd_hard_threshold(y.data.reshape(extents), rho).reshape(-1)),
        source_value=q,
    )


def rank_to_threshold(q: SpacePoint, r: int) -> float:
    """Estimate a truncation level from a rank-r observation: 0.99 * sigma_r(q).

    Valid whenever the unknown source has sigma_{r+1} below that level; the
    0.99 factor biases the estimate toward keeping rank r.
    """
    if q.shape.block_count != 1 or q.shape.extents[0] is None:
        raise InvalidParameter("q must be a single matrix-shaped block")
    extents = q.shape.extents[0]
    s = np.linalg.svd(q.data.reshape(extents), compute_uv=False)
    if not 1 <= r <= s.size:
        raise InvalidParameter(f"rank must lie in [1, {s.size}]")
    if s[r - 1] <= _rank_tolerance(s, extents):
        raise RankDeficient(f"sigma_{r}(q) vanishes; q has rank < {r}")
    return 0.99 * float(s[r - 1])


def proxify_root(rho: float, chi: float) -> Proxification:
    """Scalar dead-zone-root observation -> soft-threshold pair.

    The shift S(v) = sign(v)(sqrt(v^2 + rho^2) - rho) satisfies
    S o Q = soft threshold at rho, so (soft_rho, S(chi)) is equivalent to
    Q y = chi.  Q is surjective, hence any real chi is admissible.
    """
    if rho <= 0:
        raise InvalidParameter("rho must be positive")
    shape = BlockShape.vector(1)
    chi_point = SpacePoint([float(chi)], shape)
    return Proxification(
        fne=SoftThreshold(rho, shape),
        target=SpacePoint([float(root_shift(chi, rho))], shape),
        source_map=lambda y: y.with_data(dead_zone_root(y.data, rho)),
        source_value=chi_point,
    )


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def firm_nonexpansiveness_excess(apply_func: Callable[[np.ndarray], np.ndarray],
                                 dim: int, n_pairs: int = 1000, seed: int = 0,
                                 slack: float = 1e-10, scale: float = 1.0) -> float:
    """Worst violation of the FNE inequality over seeded random pairs.

    Returns max over pairs of ||Fx - Fy||^2 - <x - y, Fx - Fy> minus the
    slack budget slack * (1 + ||x - y||^2); nonpositive means the check passed.
    """
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_pairs):
        x = scale * rng.standard_normal(dim)
        y = scale * rng.standard_normal(dim)
        fx = np.asarray(apply_func(x), dtype=np.float64)
        fy = np.asarray(apply_func(y), dtype=np.float64)
        diff = fx - fy
        gap = float(diff @ diff - (x - y) @ diff)
        worst = max(worst, gap - slack * (1.0 + float((x - y) @ (x - y))))
    return worst
