"""Bounded linear operators with exact adjoints and certified squared-norm bounds.

Every operator knows its input/output block layout, applies forward and
adjoint maps, and carries one bound, ``norm_sq``: a certified upper bound on
the squared operator norm, computed once, from a closed form with an
allowance for its own rounding where one exists, and otherwise from the map
materialised on the standard basis (the default
:attr:`LinearOperator.norm_sq`).  A :class:`DenseMatrix`, one row included,
is bounded by :func:`certified_norm_sq`.

Circular convolution runs on the half spectrum of the real FFT.  It,
:class:`Dct2D` and :class:`blockvi.fne_ops.PhasePrescription` call scipy's
compiled pocketfft kernels (``r2c``, ``c2r`` and ``dct`` of
``scipy/fft/_pocketfft/pypocketfft``) directly, with the arguments
``scipy.fft.rfft2``/``irfft2``/``dctn``/``idctn`` pass them: the same results
bit for bit, without the wrappers' argument handling and backend dispatch,
which on a 32 x 32 image cost more than the transform.

The kernel module is loaded from its file in scipy's installed package
directory (:func:`_pocketfft`), without importing ``scipy`` or ``scipy.fft``:
that import takes about 0.35 s (2-vCPU KVM guest), longer than a whole run of
a problem without transforms and about half the set-up of one with them,
while loading the extension alone takes under 2 ms.  The operators that use
it rebuild themselves from their extents when copied or pickled, since the
kernels' functions pickle by a module path that would import ``scipy.fft``.
The tests compare every operator with the public scipy functions bit for bit,
so a scipy release that moves or changes the kernel module fails there.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParameter, ShapeMismatch
from .space import BlockShape, SpacePoint

__all__ = [
    "LinearOperator",
    "Identity",
    "DenseMatrix",
    "FiniteDifference1D",
    "CircularConvolution2D",
    "Dct2D",
    "PairSum",
    "BlockStack",
    "certified_norm_sq",
    "make_gaussian_kernel",
    "make_uniform_kernel",
]


class LinearOperator:
    """Base class: subclasses implement ``_apply`` and ``_adjoint`` on flat arrays.

    ``_adjoint`` returns a new array or its argument, never storage the
    operator keeps: the solver scales the rows it returns in place.
    """

    kind = "abstract"

    def __init__(self, input_shape: BlockShape, output_shape: BlockShape):
        self.input_shape = input_shape
        self.output_shape = output_shape

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

    @functools.cached_property
    def norm_sq(self) -> float:
        """Certified upper bound on ||L||^2, computed on first use.

        Maps with a closed form override it.  This default materialises L on
        the standard basis as a matrix M of p rows and n columns.  Up to 2048
        columns the bound is :func:`certified_norm_sq` of M.  Above that it
        is the trace of M^T M (the sum of ||M e_k||^2, at least its largest
        eigenvalue), accumulated one column at a time and multiplied by
        1 + m eps, m = n + p + 1.  Each square m_jk^2 passes through at most
        n + p - 1 roundings (its own, the p-term sum of its column and the
        n-term sum over columns, in any order) and the product with that
        allowance through 2 more.  So with u = eps / 2 the result is at least
        trace(M^T M) (1 - m u)(1 + 2 m u), which is at least the trace while
        m eps <= 1 (barring underflow).
        """
        n = self.input_shape.total
        if n <= 2048:
            return certified_norm_sq(np.column_stack([self._apply(e) for e in np.eye(n)]))
        basis = np.zeros(n)
        trace = 0.0
        for k in range(n):
            basis[k] = 1.0
            trace += float(np.sum(self._apply(basis) ** 2))
            basis[k] = 0.0
        m = n + self.output_shape.total + 1
        return trace * (1.0 + m * float(np.finfo(np.float64).eps))

    def describe(self) -> dict:
        return {"kind": self.kind, "norm_sq": self.norm_sq}


class Identity(LinearOperator):
    kind = "identity"

    def __init__(self, shape: BlockShape):
        super().__init__(shape, shape)

    def _apply(self, x):
        return x

    _adjoint = _apply

    norm_sq = 1.0


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

    @functools.cached_property
    def norm_sq(self):
        return certified_norm_sq(self.matrix)

    def describe(self):
        return {"kind": self.kind, "rows": self.matrix.shape[0],
                "cols": self.matrix.shape[1], "norm_sq": self.norm_sq}


class FiniteDifference1D(LinearOperator):
    """Consecutive differences (x_2-x_1, ..., x_N-x_{N-1})."""

    kind = "finite_difference_1d"

    def __init__(self, n: int):
        if n < 2:
            raise InvalidParameter("finite differences need length >= 2")
        super().__init__(BlockShape.vector(n), BlockShape.vector(n - 1))

    def _apply(self, x):
        return x[1:] - x[:-1]           # np.diff's own subtraction

    def _adjoint(self, y):
        out = np.zeros(self.input_shape.total)
        out[:-1] -= y
        out[1:] += y
        return out

    @functools.cached_property
    def norm_sq(self):
        # largest eigenvalue of the difference Gramian (path-graph Laplacian),
        # with an allowance for the rounding error of the closed form
        n = self.input_shape.total
        slack = 1.0 + 8.0 * np.finfo(np.float64).eps * n
        return float(4.0 * np.sin(np.pi * (n - 1) / (2.0 * n)) ** 2 * slack)

    def describe(self):
        return {"kind": self.kind, "n": self.input_shape.total, "norm_sq": self.norm_sq}


@functools.cache
def _pocketfft():
    """scipy's compiled pocketfft module, loaded from its file.

    ``find_spec`` locates the scipy package without importing it, and the
    extension is loaded without running ``scipy/__init__`` or
    ``scipy/fft/__init__`` and is not entered in ``sys.modules``.  A later
    ``import scipy.fft`` gets the same module object from the interpreter's
    cache of extension modules.
    """
    name = "scipy.fft._pocketfft.pypocketfft"
    package = importlib.util.find_spec("scipy")
    if package is None:
        raise ImportError("the FFT operators need scipy's pocketfft kernels")
    finder = importlib.machinery.FileFinder(
        os.path.join(package.submodule_search_locations[0], "fft", "_pocketfft"),
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} extension in the installed scipy")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RealFft2:
    """scipy's pocketfft kernels ``r2c``/``c2r`` (:func:`_pocketfft`), called
    with the arguments ``scipy.fft.rfft2``/``irfft2`` pass them for real 2-D
    arrays of ``cols`` columns: axes (0, 1), no scaling forward, 1/N inverse.

    The arguments go by position: keyword calls into the kernels leave about
    1.9 MiB more resident after some thousand calls.  The kernels check
    neither dtype nor extent: :meth:`forward` takes a 2-D float64 array,
    :meth:`inverse` a 2-D complex128 array of ``cols // 2 + 1`` columns.
    Kept out of ``__all__``: it serves the two spectral operators only.
    """

    def __init__(self, cols: int):
        kernels = _pocketfft()
        self._r2c, self._c2r, self._cols = kernels.r2c, kernels.c2r, cols

    def __reduce__(self):
        return RealFft2, (self._cols,)

    def forward(self, a: np.ndarray) -> np.ndarray:
        return self._r2c(a, (0, 1), True, 0)

    def inverse(self, spectrum: np.ndarray) -> np.ndarray:
        return self._c2r(spectrum, (0, 1), self._cols, False, 2)


class CircularConvolution2D(LinearOperator):
    """2-D convolution with periodic boundaries, diagonalized by the real DFT.

    The kernel is centered.  Image and kernel are real, so their spectra are
    conjugate-symmetric and the half spectrum ``rfft2`` keeps (``cols // 2 + 1``
    columns) determines them; the forward map multiplies it by the kernel's
    half-spectrum transfer function and the adjoint (convolution with the
    reflected kernel) by its conjugate, both stored at construction.
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
        self._fft = RealFft2(cols)
        padded = np.zeros((rows, cols))
        kr, kc = k.shape
        padded[:kr, :kc] = k
        # center the kernel at the origin so the transfer function has no shift
        padded = np.roll(padded, (-(kr // 2), -(kc // 2)), axis=(0, 1))
        self._transfer = self._fft.forward(padded)
        self._transfer_conj = np.conj(self._transfer)

    def _conv(self, x, transfer):
        spectrum = self._fft.forward(x.reshape(self.rows, self.cols))
        return self._fft.inverse(spectrum * transfer).reshape(-1)

    def _apply(self, x):
        return self._conv(x, self._transfer)

    def _adjoint(self, y):
        return self._conv(y, self._transfer_conj)

    @functools.cached_property
    def norm_sq(self):
        # the largest squared transfer magnitude (the half spectrum holds every
        # magnitude), with an allowance for the rounding error of the FFT
        slack = 1.0 + 8.0 * np.finfo(np.float64).eps * self.rows * self.cols
        return float(np.max(np.abs(self._transfer) ** 2) * slack)

    def describe(self):
        return {"kind": self.kind, "kernel_extent": list(self.kernel.shape),
                "rows": self.rows, "cols": self.cols, "norm_sq": self.norm_sq}


class Dct2D(LinearOperator):
    """Orthonormal 2-D type-II discrete cosine transform (adjoint = inverse).

    Calls pocketfft's ``dct`` kernel (:func:`_pocketfft`) by position with the
    arguments ``scipy.fft.dctn``/``idctn(type=2, norm="ortho")`` pass it:
    type 2 forward, type 3 inverse, axes (0, 1), orthonormal scaling, no
    output buffer, one thread.
    """

    kind = "dct_2d"

    def __init__(self, rows: int, cols: int):
        shape = BlockShape.image(rows, cols)
        super().__init__(shape, shape)
        self.rows, self.cols = rows, cols
        self._dct = _pocketfft().dct

    def __reduce__(self):
        return Dct2D, (self.rows, self.cols)

    def _transform(self, x, dct_type):
        img = x.reshape(self.rows, self.cols)
        return self._dct(img, dct_type, (0, 1), 1, None, 1, None).reshape(-1)

    def _apply(self, x):
        return self._transform(x, 2)

    def _adjoint(self, y):
        return self._transform(y, 3)

    norm_sq = 1.0


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

    norm_sq = 2.0


def _slices(sizes) -> tuple:
    """The consecutive slices of the given sizes, from 0: the views that
    ``np.split`` at their cumulative sums returns."""
    ends = np.cumsum(list(sizes)).tolist()
    return tuple(slice(a, b) for a, b in zip([0] + ends, ends))


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
        self._in_slices = _slices(op.input_shape.total for op in self.ops)
        self._out_slices = _slices(op.output_shape.total for op in self.ops)

    def _apply(self, x):
        return np.concatenate([op._apply(x[s])
                               for op, s in zip(self.ops, self._in_slices)])

    def _adjoint(self, y):
        return np.concatenate([op._adjoint(y[s])
                               for op, s in zip(self.ops, self._out_slices)])

    @functools.cached_property
    def norm_sq(self):
        # block-diagonal: the norm is the max over the certified child bounds
        return float(max(op.norm_sq for op in self.ops))

    def describe(self):
        return {"kind": self.kind, "blocks": [op.describe() for op in self.ops]}


def certified_norm_sq(matrix: np.ndarray,
                      row_weights: Optional[np.ndarray] = None) -> float:
    """Certified upper bound on ||B||_2^2, B = diag(sqrt(c)) A, for the matrix
    A and the nonnegative row weights c (all 1 when omitted).

    The bound comes from ``eigvalsh`` of the smaller Gram G of B (B^T B when
    A is tall or square, B B^T when it is wide), with allowances for the
    rounding of G and of the eigensolver.  Let Ĝ be the computed Gram, lam
    its computed largest eigenvalue and t its computed trace, k its order, p
    the other extent of A and eps the machine epsilon.  Then

        ||B||_2^2  <=  (max(lam, 0) + (p + k + 8) eps t) (1 + 8 k eps).

    Write u = eps / 2 and gamma_j = j u / (1 - j u).  Equal weights scale
    the Gram of A, and unequal ones scale a copy of A's rows, so each of the
    p terms of an entry of Ĝ carries at most 4 roundings besides those of
    the sum:

    * Product (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
      ed., §3.5): |Ĝ - G| <= gamma_{p+4} |B|^T |B| entrywise (for either
      Gram), whatever the order of summation, so ||Ĝ - G||_2 <=
      gamma_{p+4} ||B||_F^2 = gamma_{p+4} trace(G).  The diagonal sums
      nonnegative terms, so trace(G) <= t / ((1 - gamma_{p+4})(1 - gamma_k)),
      and (p + k + 8) eps covers gamma_{p+4} times that factor.
    * Eigensolver (Golub & Van Loan, Matrix Computations, 4th ed., §8.3):
      the computed eigenvalues are those of Ĝ + F for a symmetric F with
      ||F||_2 <= rho ||Ĝ||_2, where rho = 4 k eps is taken as the
      allowance.  Weyl's inequality, with ||Ĝ||_2 <= max(lam_max(Ĝ), 0) +
      ||Ĝ - G||_2 because G is positive semidefinite, then gives
      ||B||_2^2 = lam_max(G) <= (max(lam, 0) + ||Ĝ - G||_2) / (1 - rho).
    * 1 + 8 k eps >= (1 + 6u) / (1 - rho) while k eps <= 1/32: the 6u left
      over covers the rounding of the bound's own formula and a relative
      error of 2u in the weights.

    On the stock dense atoms the bound lies less than 1e-11 (relative) above
    the squared largest singular value, and the eigenvalues of the Gram cost
    a fraction of the singular values of a tall stack.  A non-finite entry,
    or a Gram that overflows, gives the Gram's trace, inf or NaN, which
    ``Prescription`` refuses.  A 1 x 1 Gram is its own eigenvalue.
    """
    rows, cols = matrix.shape
    uniform = row_weights is None or bool(np.all(row_weights == row_weights[0]))
    with np.errstate(over="ignore", invalid="ignore"):
        b = matrix if uniform else matrix * np.sqrt(row_weights)[:, None]
        gram = b @ b.T if rows < cols else b.T @ b
        if row_weights is not None and uniform:
            gram *= row_weights[0]        # one weight scales the whole Gram
        trace = float(gram.trace())
    k, p = gram.shape[0], max(rows, cols)
    eps = np.finfo(np.float64).eps
    lam = trace
    if k > 1 and trace < np.inf:
        lam = max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)
    return float((lam + (p + k + 8) * eps * trace) * (1.0 + 8.0 * k * eps))


def make_gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Normalized isotropic Gaussian kernel on an odd size x size grid; 2 sigma^2
    must be a positive finite float, so sigma < 1e150.  A sigma so small that
    (r / sigma)^2 overflows gives exp(-inf) = 0 off the center: the delta."""
    if size < 1 or size % 2 == 0:
        raise InvalidParameter("kernel size must be odd and >= 1")
    if not (0 < sigma < 1e150 and 2.0 * sigma ** 2 > 0):
        raise InvalidParameter("sigma must lie in (0, 1e150), with 2 sigma^2 above 0")
    r = np.arange(size) - size // 2
    with np.errstate(over="ignore"):
        g = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2.0 * sigma ** 2))
    return g / g.sum()


def make_uniform_kernel(size: int) -> np.ndarray:
    if size < 1 or size % 2 == 0:
        raise InvalidParameter("kernel size must be odd and >= 1")
    return np.full((size, size), 1.0 / (size * size))
