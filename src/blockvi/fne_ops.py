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
  the natural target is 0; then ||F y|| = d_D(y), the arm's gap.
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
)
from .linops import RealFft2
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
    "clamp",
    "soft_threshold",
    "hard_threshold",
    "log_threshold",
    "dead_zone_root",
    "dead_zone_quartic_root",
    "root_shift",
    "svd_hard_threshold",
    "firm_nonexpansiveness_excess",
]


# ---------------------------------------------------------------------------
# scalar / elementwise building blocks
# ---------------------------------------------------------------------------

def clamp(values, lo: np.ndarray, hi: np.ndarray):
    """``np.clip`` with per-entry bounds, bit for bit, at about half its cost,
    for float64 bounds, 0-d and per-entry alike: a tie of signed zeros takes
    the bound's bits, as ``np.maximum`` and ``np.minimum`` return their
    second argument when the two compare equal."""
    return np.minimum(np.maximum(values, lo), hi)


def soft_threshold(values, gamma: float):
    """sign(v) * max(|v| - gamma, 0); the boundary |v| = gamma maps to 0."""
    if not gamma > 0:
        raise InvalidParameter("soft threshold level must be positive")
    v = np.asarray(values, dtype=np.float64)
    return np.sign(v) * np.maximum(np.abs(v) - gamma, 0.0)


def hard_threshold(values, gamma: float):
    """v where |v| > gamma, else 0 (ties at |v| = gamma go to 0)."""
    if not gamma > 0:
        raise InvalidParameter("hard threshold level must be positive")
    v = np.asarray(values, dtype=np.float64)
    return np.where(np.abs(v) > gamma, v, 0.0)


def _power_finite(v: np.ndarray, power: int, limit: float) -> np.ndarray:
    """``v``, refused with :class:`InvalidParameter` when an entry's
    ``power``-th power overflows, i.e. when |v| > ``limit`` (NaN passes)."""
    if np.any(np.abs(v) > limit):
        raise InvalidParameter(f"v^{power} must be finite: |v| <= {limit:g}")
    return v


def dead_zone_root(values, rho: float):
    """sign(v) * sqrt(v^2 - rho^2) where |v| > rho, else 0; rho^2 and v^2
    must be finite, so rho <= 1e154 and |v| <= 1e154."""
    if not rho > 0:
        raise InvalidParameter("rho must be positive")
    if not rho <= 1e154:
        raise InvalidParameter("rho^2 must be finite: rho <= 1e154")
    v = _power_finite(np.asarray(values, dtype=np.float64), 2, 1e154)
    out = np.zeros_like(v)
    live = np.abs(v) > rho
    out[live] = np.sign(v[live]) * np.sqrt(v[live] ** 2 - rho ** 2)
    return out


def dead_zone_quartic_root(values, rho: float):
    """sign(v) * (v^4 - rho^4)^(1/4) where |v| > rho, else 0; rho^4 and v^4
    must be finite, so rho <= 1e77 and |v| <= 1e77."""
    if not rho > 0:
        raise InvalidParameter("rho must be positive")
    if not rho <= 1e77:
        raise InvalidParameter("rho^4 must be finite: rho <= 1e77")
    v = _power_finite(np.asarray(values, dtype=np.float64), 4, 1e77)
    out = np.zeros_like(v)
    live = np.abs(v) > rho
    out[live] = np.sign(v[live]) * (v[live] ** 4 - rho ** 4) ** 0.25
    return out


def root_shift(values, rho: float):
    """sign(v) * (sqrt(v^2 + rho^2) - rho); composes with the dead-zone root
    into the soft threshold at level rho.  rho^2, v^2 and their sum must be
    finite, so |rho| <= 1e154 and |v| <= 1e154."""
    if not abs(rho) <= 1e154:
        raise InvalidParameter("rho^2 must be finite: |rho| <= 1e154")
    v = _power_finite(np.asarray(values, dtype=np.float64), 2, 1e154)
    with np.errstate(over="ignore"):
        total = v ** 2 + rho ** 2
    if np.any(np.isinf(total)):         # both squares near the largest float
        raise InvalidParameter("v^2 + rho^2 must be finite")
    return np.sign(v) * (np.sqrt(total) - rho)


def log_threshold(values, rho: float, gamma: float):
    """Shrinkage induced by the logarithmic penalty log(rho + |.|).

    Three branches with dead zone [-gamma/rho, gamma/rho]:

        v >  gamma/rho:  (v - rho + sqrt((v + rho)^2 - 4 gamma)) / 2
        |v| <= gamma/rho: 0
        v < -gamma/rho:  (v + rho - sqrt((v - rho)^2 - 4 gamma)) / 2

    Requires 0 < gamma < rho^2 (the weak-convexity margin), otherwise the
    map is not single-valued.
    """
    if not rho > 0:
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


# ---------------------------------------------------------------------------
# operator base class
# ---------------------------------------------------------------------------

class FneOperator:
    """A firmly nonexpansive map on a fixed coordinate space.

    ``_apply`` may return its argument or read-only storage it keeps, so
    callers must not write to its result."""

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
        if not np.all(lo <= hi):
            raise InvalidParameter("box bounds need lo <= hi componentwise")
        self.lo, self.hi = lo, hi

    def _apply(self, y):
        return clamp(y, self.lo, self.hi)

    def describe(self):
        return {"kind": self.kind, "lo": np.min(self.lo).item(), "hi": np.max(self.hi).item()}


class LinfBallProjector(BoxProjector):
    """Clamp onto the sup-norm ball of radius rho centered at the origin: the
    box [-rho, rho]^n."""

    kind = "linf_ball"

    def __init__(self, rho: float, domain_shape: BlockShape):
        if not rho > 0:
            raise InvalidParameter("ball radius must be positive")
        self.rho = float(rho)
        super().__init__(-self.rho, self.rho, domain_shape)

    def describe(self):
        return {"kind": self.kind, "rho": self.rho}


class SingletonProjector(FneOperator):
    kind = "singleton"
    is_projector = True

    def __init__(self, center: SpacePoint):
        super().__init__(center.shape)
        self.center = center

    def _apply(self, y):
        return self.center.data

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
        self._counts = np.array(runs)
        self._lengths = self._counts.astype(np.float64)

    def _apply(self, y):
        means = np.add.reduceat(y, self._starts) / self._lengths
        return means.repeat(self._counts)

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
        self._slices = BlockShape(tuple(op.domain_shape.total for op in self.ops)).slices
        self.is_projector = all(op.is_projector for op in self.ops)
        self.is_residual_projector = all(op.is_residual_projector for op in self.ops)

    def _apply(self, y):
        return np.concatenate([op._apply(y[s]) for op, s in zip(self.ops, self._slices)])

    def describe(self):
        return {"kind": self.kind, "blocks": [op.describe() for op in self.ops]}


# ---------------------------------------------------------------------------
# proximity-type operators
# ---------------------------------------------------------------------------

class SoftThreshold(FneOperator):
    """Componentwise soft thresholding; equals Id minus the sup-ball projection."""

    kind = "soft_threshold"
    is_residual_projector = True

    def __init__(self, gamma: float, domain_shape: BlockShape):
        super().__init__(domain_shape)
        if not gamma > 0:
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
        if not np.all(r > 0):
            raise InvalidParameter("shrinkage radii must be positive")
        self.rhos = r

    def _apply(self, y):
        out = np.empty_like(y)
        for where, rho in zip(self.domain_shape.slices, self.rhos):
            block = y[where]
            out[where] = (1.0 - rho / max(np.linalg.norm(block), rho)) * block
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
        # np.mean(y) bit for bit (the same pairwise sum and division), without
        # the dispatch that costs more than the sum on an image
        return y - (y.sum() / y.size - self.rho)

    def describe(self):
        return {"kind": self.kind, "rho": self.rho}


class PhasePrescription(FneOperator):
    """Residual of the projection onto the cone of signals whose DFT phases
    match a given phase field.

    F(y) = y - IDFT(|DFT y| * max(cos(angle(DFT y) - theta), 0) * exp(i theta));
    F(y) = 0 exactly when every nonzero DFT bin of y already has phase theta.
    With S = DFT y and the unit phasor phi = exp(i theta), the aligned bins
    are max(Re(S conj(phi)), 0) phi.  The phase field must be
    conjugate-symmetric (come from a real signal), so that the correction is
    real: phi[-k] = conj(phi[k]) within ``IMAG_TOL``, with -k taken modulo the
    extents, which also makes phi real on the self-conjugate bins.  It is
    checked once, and construction fails otherwise.  The map then runs on the
    half spectrum of the real FFT, with the phasor and its conjugate kept on
    the ``cols // 2 + 1`` columns it returns.  The transforms are scipy's
    pocketfft kernels ``r2c``/``c2r``, called as ``scipy.fft.rfft2``/``irfft2``
    call them (:class:`blockvi.linops.RealFft2`): the same results bit for
    bit, without the wrappers' per-call dispatch, which at image sizes costs
    more than the transform.
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
        phasor = np.exp(1j * th)
        # phasor[-k] for every bin k: reverse both axes, then roll bin 0 back
        mirrored = np.roll(phasor[::-1, ::-1], 1, axis=(0, 1))
        # written so that a NaN entry fails too
        if not np.max(np.abs(mirrored - np.conj(phasor))) <= self.IMAG_TOL:
            raise InvalidParameter("phase field is not conjugate-symmetric")
        self.theta = th
        half = th.shape[1] // 2 + 1
        self._phasor = phasor[:, :half]
        self._phasor_conj = np.conj(self._phasor)
        self._fft = RealFft2(th.shape[1])

    def _apply(self, y):
        spectrum = self._fft.forward(y.reshape(self.theta.shape))
        aligned = np.maximum((spectrum * self._phasor_conj).real, 0.0) * self._phasor
        return y - self._fft.inverse(aligned).reshape(-1)

    def describe(self):
        return {"kind": self.kind}


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def _as_array_map(m) -> Callable[[np.ndarray], np.ndarray]:
    """The array form of a map: an operator's ``_apply``, else ``m`` itself."""
    if isinstance(m, FneOperator):
        return m._apply
    return m


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
    maps is declared by the caller and spot-checked: R is nonexpansive
    exactly when (Id + R) / 2 is firmly nonexpansive.
    """

    kind = "averaged_composition"
    SPOT_PAIRS = 200

    def __init__(self, maps: Sequence, domain_shape: BlockShape):
        super().__init__(domain_shape)
        if not maps:
            raise InvalidParameter("need at least one map")
        self.maps = [_as_array_map(m) for m in maps]
        for idx, r in enumerate(self.maps):
            if firm_nonexpansiveness_excess(lambda v: 0.5 * (v + r(v)),
                                            domain_shape.total,
                                            n_pairs=self.SPOT_PAIRS) > 0:
                raise InvalidParameter(f"map {idx} is not nonexpansive")

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
        if not rho > 0:
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
        if not np.all(g > 0):
            raise InvalidParameter("thresholds must be positive")
        self.gammas = g
        self.projectors = [_as_array_map(p) for p in projectors]

    def blocks(self, y: np.ndarray):
        """(slice, block, proj_j(block), d_j(block)) for each block j of y."""
        for where, proj in zip(self.domain_shape.slices, self.projectors):
            block = y[where]
            projected = np.asarray(proj(block), dtype=np.float64).reshape(-1)
            yield where, block, projected, np.linalg.norm(block - projected)

    def _apply(self, y):
        out = np.empty_like(y)
        for (where, block, projected, d), g in zip(self.blocks(y), self.gammas):
            out[where] = projected if d <= g else block + (g / d) * (projected - block)
        return out


class ScaledFne(FneOperator):
    """beta * Q for a map Q whose cocoercivity makes the scaling firmly
    nonexpansive; certified by a spot check at construction.

    For a shrinkage induced by a mu-weakly convex penalty at prox parameter
    gamma, any beta <= 1 - gamma * mu works; the complement Id - beta * Q is
    obtained with :class:`ResidualOf`.
    """

    kind = "scaled"
    SPOT_PAIRS = 200

    def __init__(self, raw_map: Callable[[np.ndarray], np.ndarray], beta: float,
                 domain_shape: BlockShape, sample_scale: float = 1.0):
        super().__init__(domain_shape)
        if not 0 < beta <= 1:
            raise InvalidParameter("beta must lie in (0, 1]")
        self.raw_map = raw_map
        self.beta = float(beta)
        excess = firm_nonexpansiveness_excess(
            self._apply, domain_shape.total, n_pairs=self.SPOT_PAIRS,
            scale=sample_scale)
        if excess > 0:
            raise InvalidParameter(
                f"scaled map failed the firm-nonexpansiveness spot check "
                f"(excess {excess:.3e})")

    def _apply(self, y):
        return self.beta * np.asarray(self.raw_map(y), dtype=np.float64)

    def describe(self):
        return {"kind": self.kind, "beta": self.beta}


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
        if not beta > 0:
            raise InvalidParameter("beta must be positive")
        if not 0 < gamma < 2 * beta:
            raise InvalidParameter("gamma must lie in (0, 2*beta)")
        self.resolvent = _as_array_map(resolvent)
        self.cocoercive_map = _as_array_map(cocoercive_map)
        self.beta = float(beta)
        self.gamma = float(gamma)

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
    the hard thresholder).  The hard thresholder fixes its range, so the
    target is F(q): each surviving component shifts toward zero by gamma.
    """
    if not gamma > 0:
        raise InvalidParameter("gamma must be positive")
    qv = q.data
    bad = (qv != 0) & (np.abs(qv) <= gamma)
    if np.any(bad):
        raise NotInRange(
            f"{int(bad.sum())} component(s) of q lie in (0, gamma]; "
            "not in the range of the hard thresholder")
    fne = SoftThreshold(gamma, q.shape)
    return Proxification(
        fne=fne,
        target=fne.apply(q),
        source_map=lambda y: y.with_data(hard_threshold(y.data, gamma)),
        source_value=q,
    )


def proxify_block_threshold(projectors: Sequence, gammas, q: SpacePoint) -> Proxification:
    """Block generalization of the hard-threshold proxification.

    Each block of q must lie in its set D_j or at distance > gamma_j from it;
    Q fixes such a q, so the target is F(q).  With singleton sets {0} and
    scalar blocks this reduces exactly to :func:`proxify_hard_threshold`.
    """
    fne = BlockThresholdFne(projectors, gammas, q.shape)
    for j, ((_, _, _, d), g) in enumerate(zip(fne.blocks(q.data), fne.gammas)):
        if not (d == 0.0 or d > g):
            raise NotInRange(
                f"block {j} of q is at distance {d:.3e} in (0, gamma] from its set")

    def source(y: SpacePoint) -> SpacePoint:
        out = np.empty(y.dim)
        for (where, block, projected, d), g in zip(fne.blocks(y.data), fne.gammas):
            out[where] = block if d > g else projected
        return y.with_data(out)

    return Proxification(fne=fne, target=fne.apply(q), source_map=source,
                         source_value=q)


def _rank_tolerance(s: np.ndarray, extents) -> float:
    return max(extents) * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)


def proxify_svd(rho: float, q: SpacePoint) -> Proxification:
    """Replace a singular-value truncation observation by its soft-thresholded pair.

    q must lie in the range of the truncation: every singular value is (numerically)
    zero or exceeds rho.  The truncation fixes its range, so the target is
    F(q): the surviving singular values shrink by rho.
    """
    if q.shape.block_count != 1 or q.shape.extents[0] is None:
        raise InvalidParameter("q must be a single matrix-shaped block")
    if not rho > 0:
        raise InvalidParameter("rho must be positive")
    extents = q.shape.extents[0]
    _, s, _ = _svd(q.data.reshape(extents))
    tiny = _rank_tolerance(s, extents)
    bad = (s > tiny) & (s <= rho)
    if np.any(bad):
        raise NotInRange(
            f"{int(bad.sum())} singular value(s) of q lie in (0, rho]; "
            "not in the range of the truncation")
    fne = SvdSoftThreshold(rho, q.shape)
    return Proxification(
        fne=fne,
        target=fne.apply(q),
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
    if not rho > 0:
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
                                 scale: float = 1.0) -> float:
    """Worst violation of the FNE inequality over seeded random pairs.

    Returns max over pairs of ||Fx - Fy||^2 - <x - y, Fx - Fy> minus the
    roundoff budget 1e-10 * (1 + ||x - y||^2); nonpositive means the check
    passed.
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
        worst = max(worst, gap - 1e-10 * (1.0 + float((x - y) @ (x - y))))
    return worst
