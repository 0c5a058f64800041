"""Bounded linear operators with exact adjoints and certified squared-norm bounds.

Every operator knows its input/output block layout, applies forward and
adjoint maps, and carries ``norm_sq``: a certified upper bound on the squared
operator norm, obtained from a closed form when one exists and from power
iteration (with a 1.01 safety factor) otherwise.
"""

from __future__ import annotations

import warnings
from typing import Optional, Sequence

import numpy as np
import scipy.fft

from .errors import InvalidParameter, NonConvergenceWarning, ShapeMismatch
from .space import BlockShape, SpacePoint

__all__ = [
    "LinearOperator",
    "Identity",
    "DenseMatrix",
    "DictionaryRows",
    "FiniteDifference1D",
    "CircularConvolution2D",
    "Dct2D",
    "PairSum",
    "BlockStack",
    "estimate_norm_sq",
    "make_gaussian_kernel",
    "make_uniform_kernel",
]

POWER_ITER_MAX = 200
POWER_ITER_TOL = 1e-8
SAFETY_FACTOR = 1.01


class LinearOperator:
    """Base class: subclasses implement ``_apply`` and ``_adjoint`` on flat arrays."""

    kind = "abstract"

    def __init__(self, input_shape: BlockShape, output_shape: BlockShape):
        self.input_shape = input_shape
        self.output_shape = output_shape
        self._norm_sq: Optional[float] = None

    # -- forward / adjoint -------------------------------------------------

    def apply(self, x: SpacePoint) -> SpacePoint:
        if x.shape != self.input_shape:
            raise ShapeMismatch(f"{self.kind}: input {x.shape} != {self.input_shape}")
        return SpacePoint(self._apply(x.data), self.output_shape)

    def adjoint(self, y: SpacePoint) -> SpacePoint:
        if y.shape != self.output_shape:
            raise ShapeMismatch(f"{self.kind}: output {y.shape} != {self.output_shape}")
        return SpacePoint(self._adjoint(y.data), self.input_shape)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _adjoint(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    # -- norm bound ---------------------------------------------------------

    def exact_norm_sq(self) -> Optional[float]:
        """Closed-form upper bound on the squared operator norm, if known."""
        return None

    @property
    def norm_sq(self) -> float:
        if self._norm_sq is None:
            self._norm_sq = estimate_norm_sq(self)
        return self._norm_sq

    def describe(self) -> dict:
        return {"kind": self.kind, "norm_sq": self.norm_sq}


class Identity(LinearOperator):
    kind = "identity"

    def __init__(self, shape: BlockShape):
        super().__init__(shape, shape)

    def _apply(self, x):
        return x

    _adjoint = _apply

    def exact_norm_sq(self):
        return 1.0


class DenseMatrix(LinearOperator):
    """y = A x for an explicit row-major matrix A.

    The input/output block layouts default to flat vectors but may be any
    layout with matching total length (the matrix acts on the flat storage).
    """

    kind = "dense_matrix"

    def __init__(self, matrix, input_shape: Optional[BlockShape] = None,
                 output_shape: Optional[BlockShape] = None):
        a = np.asarray(matrix, dtype=np.float64)
        if a.ndim != 2:
            raise InvalidParameter("dense_matrix expects a 2-D array")
        self.matrix = a
        input_shape = input_shape or BlockShape.vector(a.shape[1])
        output_shape = output_shape or BlockShape.vector(a.shape[0])
        if input_shape.total != a.shape[1] or output_shape.total != a.shape[0]:
            raise ShapeMismatch("matrix dimensions disagree with the shapes")
        super().__init__(input_shape, output_shape)

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, y):
        return self.matrix.T @ y

    def exact_norm_sq(self):
        # rank-one maps have an exact norm; everything else goes to power iteration
        if 1 in self.matrix.shape:
            return float(np.sum(self.matrix ** 2))
        return None

    def describe(self):
        return {"kind": self.kind, "rows": self.matrix.shape[0],
                "cols": self.matrix.shape[1], "norm_sq": self.norm_sq}


class DictionaryRows(DenseMatrix):
    """Analysis map x -> (<x, e_j>)_j for dictionary vectors stored as rows."""

    kind = "dictionary_rows"


class FiniteDifference1D(LinearOperator):
    """Consecutive differences (x_2-x_1, ..., x_N-x_{N-1})."""

    kind = "finite_difference_1d"

    def __init__(self, n: int):
        if n < 2:
            raise InvalidParameter("finite differences need length >= 2")
        super().__init__(BlockShape.vector(n), BlockShape.vector(n - 1))

    def _apply(self, x):
        return np.diff(x)

    def _adjoint(self, y):
        out = np.zeros(self.input_shape.total)
        out[:-1] -= y
        out[1:] += y
        return out

    def exact_norm_sq(self):
        # largest eigenvalue of the difference Gramian (path-graph Laplacian),
        # with an allowance for the rounding error of the closed form
        n = self.input_shape.total
        slack = 1.0 + 8.0 * np.finfo(np.float64).eps * n
        return float(4.0 * np.sin(np.pi * (n - 1) / (2.0 * n)) ** 2) * slack

    def describe(self):
        return {"kind": self.kind, "n": self.input_shape.total, "norm_sq": self.norm_sq}


class CircularConvolution2D(LinearOperator):
    """2-D convolution with periodic boundaries, diagonalized by the DFT.

    The kernel is centered; the adjoint is convolution with the reflected
    kernel, implemented as multiplication by the conjugate transfer function.
    """

    kind = "circular_convolution_2d"

    def __init__(self, kernel, rows: int, cols: int):
        k = np.asarray(kernel, dtype=np.float64)
        if k.ndim != 2 or k.shape[0] % 2 == 0 or k.shape[1] % 2 == 0:
            raise InvalidParameter("kernel must be 2-D with odd extents")
        if k.shape[0] > rows or k.shape[1] > cols:
            raise InvalidParameter("kernel larger than the image")
        shape = BlockShape.image(rows, cols)
        super().__init__(shape, shape)
        self.kernel = k
        self.rows, self.cols = rows, cols
        padded = np.zeros((rows, cols))
        kr, kc = k.shape
        padded[:kr, :kc] = k
        # center the kernel at the origin so the transfer function has no shift
        padded = np.roll(padded, (-(kr // 2), -(kc // 2)), axis=(0, 1))
        self._transfer = np.fft.fft2(padded)

    def _conv(self, x, transfer):
        img = x.reshape(self.rows, self.cols)
        out = np.fft.ifft2(np.fft.fft2(img) * transfer).real
        return out.reshape(-1)

    def _apply(self, x):
        return self._conv(x, self._transfer)

    def _adjoint(self, y):
        return self._conv(y, np.conj(self._transfer))

    def exact_norm_sq(self):
        return float(np.max(np.abs(self._transfer) ** 2))

    def describe(self):
        return {"kind": self.kind, "kernel_extent": list(self.kernel.shape),
                "rows": self.rows, "cols": self.cols, "norm_sq": self.norm_sq}


class Dct2D(LinearOperator):
    """Orthonormal 2-D type-II discrete cosine transform (adjoint = inverse)."""

    kind = "dct_2d"

    def __init__(self, rows: int, cols: int):
        shape = BlockShape.image(rows, cols)
        super().__init__(shape, shape)
        self.rows, self.cols = rows, cols

    def _apply(self, x):
        img = x.reshape(self.rows, self.cols)
        return scipy.fft.dctn(img, type=2, norm="ortho").reshape(-1)

    def _adjoint(self, y):
        img = y.reshape(self.rows, self.cols)
        return scipy.fft.idctn(img, type=2, norm="ortho").reshape(-1)

    def exact_norm_sq(self):
        return 1.0


class PairSum(LinearOperator):
    """(x_1, x_2) -> x_1 + x_2 over a two-block product space."""

    kind = "pair_sum"

    def __init__(self, block_shape: BlockShape):
        if block_shape.block_count != 1:
            raise InvalidParameter("pair_sum components must be single-block")
        super().__init__(BlockShape.product([block_shape, block_shape]), block_shape)
        self._n = block_shape.total

    def _apply(self, x):
        return x[:self._n] + x[self._n:]

    def _adjoint(self, y):
        return np.concatenate([y, y])

    def exact_norm_sq(self):
        return 2.0


class BlockStack(LinearOperator):
    """Apply the j-th operator to the j-th input block and stack the outputs."""

    kind = "block_stack"

    def __init__(self, ops: Sequence[LinearOperator]):
        if not ops:
            raise InvalidParameter("block_stack needs at least one operator")
        self.ops = list(ops)
        super().__init__(
            BlockShape.product([op.input_shape for op in self.ops]),
            BlockShape.product([op.output_shape for op in self.ops]),
        )
        self._in_sizes = [op.input_shape.total for op in self.ops]
        self._out_sizes = [op.output_shape.total for op in self.ops]

    def _split(self, x, sizes):
        return np.split(x, np.cumsum(sizes)[:-1])

    def _apply(self, x):
        parts = self._split(x, self._in_sizes)
        return np.concatenate([op._apply(p) for op, p in zip(self.ops, parts)])

    def _adjoint(self, y):
        parts = self._split(y, self._out_sizes)
        return np.concatenate([op._adjoint(p) for op, p in zip(self.ops, parts)])

    def exact_norm_sq(self):
        # block-diagonal: the norm is the max over the certified child bounds
        return float(max(op.norm_sq for op in self.ops))

    def describe(self):
        return {"kind": self.kind, "blocks": [op.describe() for op in self.ops]}


def estimate_norm_sq(op: LinearOperator, max_iters: int = POWER_ITER_MAX,
                     tol: float = POWER_ITER_TOL, seed: int = 0) -> float:
    """Certified upper bound on ||L||^2.

    Closed forms are used when the operator provides one; otherwise power
    iteration on L*L runs until the Rayleigh quotient stabilizes and the
    estimate is inflated by a 1.01 safety factor.  If the iteration does not
    stabilize, a trace bound (sum of ||L e_k||^2, which dominates the largest
    eigenvalue of L*L) is returned with a warning.
    """
    exact = op.exact_norm_sq()
    if exact is not None:
        return float(exact)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.input_shape.total)
    v /= np.linalg.norm(v)
    lam_prev = 0.0
    for _ in range(max_iters):
        w = op._adjoint(op._apply(v))
        lam = float(np.dot(v, w))
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0  # zero operator
        v = w / nrm
        if abs(lam - lam_prev) <= tol * max(1.0, abs(lam)):
            return SAFETY_FACTOR * max(lam, nrm)
        lam_prev = lam
    warnings.warn(
        f"power iteration did not stabilize in {max_iters} iterations; "
        "falling back to the trace bound",
        NonConvergenceWarning,
    )
    n = op.input_shape.total
    basis = np.zeros(n)
    trace = 0.0
    for k in range(n):
        basis[k] = 1.0
        trace += float(np.sum(op._apply(basis) ** 2))
        basis[k] = 0.0
    return trace


def make_gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized isotropic Gaussian kernel on an odd size x size grid."""
    if size < 1 or size % 2 == 0:
        raise InvalidParameter("kernel size must be odd and >= 1")
    if sigma <= 0:
        raise InvalidParameter("sigma must be positive")
    r = np.arange(size) - size // 2
    g = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def make_uniform_kernel(size: int) -> np.ndarray:
    if size < 1 or size % 2 == 0:
        raise InvalidParameter("kernel size must be odd and >= 1")
    return np.full((size, size), 1.0 / (size * size))
