import json
from fractions import Fraction

import numpy as np
import pytest

import blockvi.linops as linops
from blockvi.core import Prescription
from blockvi.errors import InvalidParameter, ShapeMismatch
from blockvi.fne_ops import (
    Blockwise,
    BlockThresholdFne,
    BoxProjector,
    GroupShrinkage,
    IdentityFne,
    LinfBallProjector,
    NonnegProjector,
    SoftThreshold,
)
from blockvi.linops import (
    BlockStack,
    CircularConvolution2D,
    Dct2D,
    DenseMatrix,
    FiniteDifference1D,
    Identity,
    LinearOperator,
    PairSum,
    certified_norm_sq,
    make_gaussian_kernel,
    make_uniform_kernel,
)
from blockvi.space import BlockShape, SpacePoint

from conftest import adjoint_defect, random_point
from spectral_reference import (
    SPECTRAL_EXTENTS,
    centered_kernel,
    full_convolution,
    full_transfer,
)


def _catalog(rng):
    img = BlockShape.image(8, 8)
    return [
        Identity(BlockShape.vector(7)),
        DenseMatrix(rng.standard_normal((5, 9))),
        DenseMatrix(rng.standard_normal((12, 6))),
        FiniteDifference1D(16),
        CircularConvolution2D(make_gaussian_kernel(5, 1.2), 8, 8),
        Dct2D(8, 8),
        PairSum(BlockShape.vector(4)),
        BlockStack([Identity(BlockShape.vector(3)), Dct2D(4, 4)]),
        # odd, even and non-square extents of the real half spectrum
        CircularConvolution2D(rng.standard_normal((3, 3)), 5, 7),
        CircularConvolution2D(rng.standard_normal((3, 5)), 6, 8),
        CircularConvolution2D(rng.standard_normal((3, 3)), 7, 4),
    ]


def test_identity_apply():
    op = Identity(BlockShape.vector(3))
    x = SpacePoint([1.0, -2.0, 0.5])
    assert op.apply(x) == x
    assert op.adjoint(x) == x


def test_finite_difference_apply():
    op = FiniteDifference1D(3)
    out = op.apply(SpacePoint([1.0, 3.0, 6.0]))
    np.testing.assert_array_equal(out.data, [2.0, 3.0])


def test_finite_difference_adjoint_hand_value():
    # transpose of [[-1, 1, 0], [0, -1, 1]] applied to (1, 0)
    op = FiniteDifference1D(3)
    out = op.adjoint(SpacePoint([1.0, 0.0]))
    np.testing.assert_array_equal(out.data, [-1.0, 1.0, 0.0])


def test_delta_kernel_convolution_is_identity(rng):
    op = CircularConvolution2D(np.ones((1, 1)), 6, 6)
    x = random_point(rng, op.input_shape)
    np.testing.assert_allclose(op.apply(x).data, x.data, atol=1e-12)


def test_pair_sum_adjoint_duplicates():
    op = PairSum(BlockShape.vector(1))
    out = op.adjoint(SpacePoint([3.0]))
    np.testing.assert_array_equal(out.data, [3.0, 3.0])


def test_shape_mismatch_raises(rng):
    op = DenseMatrix(rng.standard_normal((4, 3)))
    with pytest.raises(ShapeMismatch):
        op.apply(SpacePoint(np.zeros(4)))
    with pytest.raises(ShapeMismatch):
        op.adjoint(SpacePoint(np.zeros(3)))


@pytest.mark.parametrize("build,error,message", [
    (lambda: DenseMatrix(np.ones(3)), InvalidParameter, "2-D"),
    (lambda: DenseMatrix(np.ones((2, 3)), BlockShape.vector(4)), ShapeMismatch,
     "disagree"),
    (lambda: DenseMatrix(np.ones((2, 3)), None, BlockShape.vector(3)),
     ShapeMismatch, "disagree"),
    (lambda: FiniteDifference1D(1), InvalidParameter, "length >= 2"),
    (lambda: CircularConvolution2D(np.ones((2, 3)), 8, 8), InvalidParameter,
     "odd extents"),
    (lambda: CircularConvolution2D(np.ones((9, 3)), 8, 8), InvalidParameter,
     "larger than the image"),
    (lambda: PairSum(BlockShape.product([BlockShape.vector(2)] * 2)),
     InvalidParameter, "single-block"),
    (lambda: BlockStack([]), InvalidParameter, "at least one operator"),
], ids=["dense-1d", "dense-input", "dense-output", "difference-length",
        "kernel-even", "kernel-large", "pair-sum-blocks", "stack-empty"])
def test_constructors_refuse_what_they_cannot_build(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_adjoint_identity_all_kinds(rng):
    for op in _catalog(rng):
        assert adjoint_defect(op, rng) <= 0.0, op.kind


def _held_arrays(value) -> list:
    """The arrays an operator holds: those of its attributes, through nested
    operators and sequences."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (list, tuple)):
        return [a for item in value for a in _held_arrays(item)]
    if isinstance(value, LinearOperator):
        return [a for item in vars(value).values() for a in _held_arrays(item)]
    return []


def test_adjoint_returns_fresh_arrays(rng):
    # a stop check keeps the directions _adjoint returns for the solver's
    # next refresh, so two calls share no memory with each other or with
    # what the operator holds
    for op in _catalog(rng):
        y1, y2 = (rng.standard_normal(op.output_shape.total) for _ in range(2))
        out = [op._adjoint(y1), op._adjoint(y2)]
        assert not np.shares_memory(*out), op.kind
        for a in out:
            assert not any(np.shares_memory(a, h) for h in _held_arrays(op)), op.kind


def test_linearity_all_kinds(rng):
    for op in _catalog(rng):
        x = random_point(rng, op.input_shape)
        y = random_point(rng, op.input_shape)
        a, b = 1.7, -0.3
        lhs = op.apply(a * x + b * y)
        rhs = a * op.apply(x) + b * op.apply(y)
        scale = max(1.0, lhs.norm())
        assert (lhs - rhs).norm() <= 1e-12 * scale, op.kind


def test_norm_certification_all_kinds(rng):
    for op in _catalog(rng):
        bound = op.norm_sq
        for _ in range(500):
            x = random_point(rng, op.input_shape)
            x = (1.0 / x.norm()) * x
            assert op.apply(x).norm() ** 2 <= bound * (1.0 + 1e-9), op.kind


def test_norm_closed_forms(rng):
    assert Identity(BlockShape.vector(5)).norm_sq == 1.0
    assert Dct2D(4, 4).norm_sq == 1.0
    assert PairSum(BlockShape.vector(3)).norm_sq == 2.0
    # largest eigenvalue of the difference Gramian, within the certified range
    fd = FiniteDifference1D(128)
    assert 3.99 < fd.norm_sq <= 4.04
    np.testing.assert_allclose(fd.norm_sq, 4 * np.sin(np.pi * 127 / 256) ** 2)


@pytest.mark.parametrize("n", [2, 16, 128, 1000])
def test_finite_difference_bound_certified_without_slack(n):
    d = np.diff(np.eye(n), axis=0)
    assert FiniteDifference1D(n).norm_sq >= np.linalg.eigvalsh(d.T @ d)[-1]


def _hidden_seed_direction_matrix():
    """An 8 x 8 matrix whose top right singular vector is orthogonal to the
    seed-0 start vector of a power iteration, which therefore settles on the
    second singular value, 0.7, not on 1."""
    start = np.random.default_rng(0).standard_normal(8)
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(np.column_stack([start, rng.standard_normal((8, 7))]))
    right = q[:, [1, 0, 2, 3, 4, 5, 6, 7]]
    left, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    return left @ np.diag([1.0, 0.7, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05]) @ right.T


def test_dense_bound_certified_when_top_vector_misses_seed_direction():
    a = _hidden_seed_direction_matrix()
    top = np.linalg.norm(a, 2) ** 2
    assert DenseMatrix(a).norm_sq >= top > 1.0 - 1e-12


def _certificate_cases():
    """Tall, wide, square, rank-deficient and row-scaled matrices."""
    rng = np.random.default_rng(31)
    scaled_rows = 10.0 ** rng.uniform(-8, 8, 25)
    scaled_rows[[0, 1]] = 1e-8, 1e8
    return {
        "tall": rng.standard_normal((40, 7)),
        "wide": rng.standard_normal((7, 40)),
        "square": rng.standard_normal((12, 12)),
        "rank-deficient": rng.standard_normal((30, 3)) @ rng.standard_normal((3, 20)),
        "zero-rows": np.vstack([rng.standard_normal((4, 9)), np.zeros((5, 9))]),
        "row-scaled-tall": scaled_rows[:, None] * rng.standard_normal((25, 9)),
        "row-scaled-wide": scaled_rows[:6, None] * rng.standard_normal((6, 15)),
        "hidden-seed-direction": _hidden_seed_direction_matrix(),
    }


@pytest.mark.parametrize("name", list(_certificate_cases()))
def test_certified_bound_lies_above_the_squared_norm(name):
    a = _certificate_cases()[name]
    rng = np.random.default_rng(32)
    equal = np.full(a.shape[0], 0.3)
    unequal = 10.0 ** rng.uniform(-8, 8, a.shape[0])
    assert certified_norm_sq(a) >= np.linalg.norm(a, 2) ** 2
    for c in (equal, unequal):
        scaled = np.sqrt(c)[:, None] * a
        assert certified_norm_sq(a, c) >= np.linalg.norm(scaled, 2) ** 2


class _Opaque(LinearOperator):
    """A matrix behind apply/adjoint only: no closed-form norm."""

    kind = "opaque"

    def __init__(self, matrix):
        self.matrix = matrix
        super().__init__(BlockShape.vector(matrix.shape[1]),
                         BlockShape.vector(matrix.shape[0]))

    def _apply(self, x):
        return self.matrix @ x

    def _adjoint(self, y):
        return self.matrix.T @ y


def test_bound_without_closed_form_is_the_certified_gram_bound(rng):
    # the stated slack of certified_norm_sq: k = 5, p = 7, and the top
    # eigenvalue of the Gram may read up to 8 k eps above the SVD's
    a = rng.standard_normal((7, 5))
    top = np.linalg.norm(a, 2) ** 2
    eps = np.finfo(np.float64).eps
    bound = _Opaque(a).norm_sq
    assert top <= bound <= (top * (1.0 + 8.0 * 5 * eps)
                            + (7 + 5 + 8) * eps * np.sum(a ** 2)) * (1.0 + 8.0 * 5 * eps)


class _Diagonal(LinearOperator):
    """x -> d * x, also without a closed-form norm."""

    kind = "diagonal"

    def __init__(self, d):
        self.d = d
        super().__init__(BlockShape.vector(d.size), BlockShape.vector(d.size))

    def _apply(self, x):
        return self.d * x

    _adjoint = _apply


def test_bound_without_closed_form_above_2048_is_the_trace():
    d = np.linspace(-1.0, 0.5, 2049)
    bound = _Diagonal(d).norm_sq
    np.testing.assert_allclose(bound, np.sum(d ** 2))
    assert bound >= 1.0                       # ||diag(d)||^2


def test_trace_bound_is_never_below_the_exact_squared_norm():
    # for a one-row map the trace of L*L is ||L||^2 itself, and its bare
    # float sum rounded below the exact value on about half of these rows
    rng = np.random.default_rng(2049)
    below = []
    for k in range(20):
        row = rng.standard_normal((1, 2049))
        if Fraction(_Opaque(row).norm_sq) < sum(Fraction(v) ** 2 for v in row[0].tolist()):
            below.append(k)
    assert below == []


def test_every_stock_map_overrides_the_materialising_bound():
    maps = [getattr(linops, name) for name in linops.__all__]
    maps = [m for m in maps if isinstance(m, type) and issubclass(m, LinearOperator)
            and m is not LinearOperator]
    assert len(maps) == 7
    for m in maps:
        assert m.norm_sq is not LinearOperator.norm_sq, m.kind


def test_dense_bound_is_computed_once_per_map(tmp_path, monkeypatch):
    # Prescription, Problem.arrays and the summary's describe() each read a
    # map's norm_sq; without the cache the lsq set-up would triple its 600
    # row bounds
    from blockvi.cli import default_manifest, write_json, write_matrix_csv, write_vector_csv
    from blockvi.cli.main import main

    matrix = np.random.default_rng(7).standard_normal((6, 3))
    write_matrix_csv(matrix, tmp_path / "a.csv")
    write_vector_csv(np.arange(6.0), tmp_path / "b.csv")
    payload = default_manifest("custom", 0)
    payload["operators"] = {"matrix_csv": "a.csv", "rhs_csv": "b.csv"}
    write_json(payload, tmp_path / "manifest.json")
    seen = []
    certify = linops.certified_norm_sq
    monkeypatch.setattr(linops, "certified_norm_sq",
                        lambda a, *rest: seen.append(a) or certify(a, *rest))
    assert main(["run", str(tmp_path / "manifest.json")]) == 0
    summary = json.loads((tmp_path / "results" / "summary.json").read_text())
    assert [op["linop"]["kind"] for op in summary["operators"]] == ["dense_matrix"] * 6
    assert len(seen) == 6
    assert np.vstack(seen).tobytes() == matrix.tobytes()


def test_single_row_norm_is_exact(rng):
    row = rng.standard_normal((1, 9))
    op = DenseMatrix(row)
    np.testing.assert_allclose(op.norm_sq, np.sum(row**2))


def _one_row_maps():
    """200 seeded 1 x 128 rows, the dictionary rows of stock signal_recovery
    seeds 0 and 1, and the rows of the benchmark's seeded 600 x 100
    least-squares system (``default_rng(0)``, standard normal)."""
    from blockvi.cli import generate_experiment

    rows = list(np.random.default_rng(2026).standard_normal((200, 128)))
    for seed in (0, 1):
        problem = generate_experiment("signal_recovery", {}, seed).problem
        rows += [p.linop.matrix[0] for p in problem.prescriptions
                 if isinstance(p.linop, DenseMatrix)]
    return rows + list(np.random.default_rng(0).standard_normal((600, 100)))


def test_one_row_bound_is_never_below_the_exact_squared_norm():
    # a one-row map was bounded by its bare Frobenius sum, which rounds below
    # the exact sum of squares on about half of such rows
    rows = _one_row_maps()
    assert len(rows) == 200 + 2 * 150 + 600
    below = [k for k, row in enumerate(rows)
             if Fraction(DenseMatrix(row[None, :]).norm_sq)
             < sum(Fraction(v) ** 2 for v in row.tolist())]
    assert below == []


def test_one_row_bound_takes_its_one_gram_entry_as_the_eigenvalue():
    # a 1 x 1 Gram skips the eigensolver, whose eigenvalue is that entry
    eps = np.finfo(np.float64).eps
    for row in _one_row_maps()[:250]:
        b = row[None, :]
        gram = b @ b.T
        lam = max(float(np.linalg.eigvalsh(gram)[-1]), 0.0)
        bound = (lam + (row.size + 9) * eps * float(gram.trace())) * (1.0 + 8.0 * eps)
        assert certified_norm_sq(b) == bound
        assert certified_norm_sq(b.T) == bound


@pytest.mark.parametrize("matrix,weights", [
    ([[1e200, 1.0]], None),
    ([[1e200], [1.0]], None),
    ([[1e200, 1.0], [1.0, 1.0]], None),
    ([[1e200, 1.0], [1.0, 1.0]], [0.5, 0.5]),
    ([[1e200, 1.0], [1.0, 1.0]], [0.5, 0.25]),
    ([[1e154, 1.0], [1.0, 1.0]], [1e300, 1e300]),
], ids=["wide-row", "tall-column", "square", "equal-weights",
        "unequal-weights", "weight-overflows"])
def test_a_gram_that_overflows_bounds_the_map_by_inf(matrix, weights):
    # such a Gram warned "overflow encountered in matmul" inside the library;
    # its bound is now inf, which Prescription refuses typed
    matrix = np.array(matrix)
    row_weights = None if weights is None else np.array(weights)
    assert certified_norm_sq(matrix, row_weights) == np.inf
    if weights is None:
        op = DenseMatrix(matrix)
        assert op.norm_sq == np.inf
        with pytest.raises(InvalidParameter, match="norm_sq must be positive and finite"):
            Prescription(op, IdentityFne(op.output_shape),
                         SpacePoint.zeros(op.output_shape), 1.0)


def test_dct_orthonormal(rng):
    op = Dct2D(8, 8)
    for _ in range(50):
        x = random_point(rng, op.input_shape)
        assert abs(op.apply(x).norm() - x.norm()) <= 1e-10 * x.norm()
        np.testing.assert_allclose(op.adjoint(op.apply(x)).data, x.data, atol=1e-12)


@pytest.mark.parametrize("rows,cols", SPECTRAL_EXTENTS)
def test_dct_equals_public_dctn_bit_for_bit(rows, cols):
    # the operator calls scipy's private pocketfft dct kernel; if a scipy
    # release moves it or changes what dctn/idctn pass it, this fails
    from scipy.fft import dctn, idctn
    op = Dct2D(rows, cols)
    img = np.random.default_rng(rows * 100 + cols).standard_normal((rows, cols))
    assert np.array_equal(op.apply(SpacePoint(img)).block(0),
                          dctn(img, type=2, norm="ortho"))
    assert np.array_equal(op.adjoint(SpacePoint(img)).block(0),
                          idctn(img, type=2, norm="ortho"))


def _brute_force_circular_conv(img, kernel):
    rows, cols = img.shape
    kr, kc = kernel.shape
    out = np.zeros_like(img)
    for r in range(rows):
        for c in range(cols):
            acc = 0.0
            for i in range(kr):
                for j in range(kc):
                    rr = (r - (i - kr // 2)) % rows
                    cc = (c - (j - kc // 2)) % cols
                    acc += kernel[i, j] * img[rr, cc]
            out[r, c] = acc
    return out


def test_convolution_against_direct_sum(rng):
    # transform-domain implementation vs. literal circular sliding window
    kernel = make_gaussian_kernel(3, 0.9)
    op = CircularConvolution2D(kernel, 5, 5)
    img = rng.standard_normal((5, 5))
    expected = _brute_force_circular_conv(img, kernel)
    got = op.apply(SpacePoint(img)).block(0)
    np.testing.assert_allclose(got, expected, atol=1e-10)


@pytest.mark.parametrize("rows,cols", [(5, 7), (6, 8), (7, 4)])
def test_convolution_against_direct_sum_odd_even_non_square(rows, cols):
    rng = np.random.default_rng(rows * cols)
    for kernel in (make_gaussian_kernel(3, 0.9), rng.standard_normal((3, 3)),
                   rng.standard_normal((1, 3))):
        op = CircularConvolution2D(kernel, rows, cols)
        img = rng.standard_normal((rows, cols))
        got = op.apply(SpacePoint(img)).block(0)
        np.testing.assert_allclose(got, _brute_force_circular_conv(img, kernel),
                                   atol=1e-12)
        transfer = full_transfer(kernel, rows, cols)
        np.testing.assert_allclose(op.adjoint(SpacePoint(img)).block(0),
                                   full_convolution(img, np.conj(transfer)),
                                   atol=1e-12)


@pytest.mark.parametrize("rows,cols", SPECTRAL_EXTENTS)
def test_convolution_equals_public_real_fft_bit_for_bit(rows, cols):
    # the operator calls scipy's private pocketfft kernels; if a scipy release
    # moves them or changes what rfft2/irfft2 pass them, this fails
    from scipy.fft import irfft2, rfft2
    rng = np.random.default_rng(rows * 100 + cols)
    kernel = rng.standard_normal((1 if rows == 1 else 3, 3))
    op = CircularConvolution2D(kernel, rows, cols)
    transfer = rfft2(centered_kernel(kernel, rows, cols))
    assert np.array_equal(op._transfer, transfer)
    img = rng.standard_normal((rows, cols))
    for got, tf in ((op.apply(SpacePoint(img)), transfer),
                    (op.adjoint(SpacePoint(img)), np.conj(transfer))):
        assert np.array_equal(got.block(0), irfft2(rfft2(img) * tf, s=(rows, cols)))


@pytest.mark.parametrize("kernel,rows,cols", [
    (make_gaussian_kernel(15, 3.5), 32, 32),     # image_recovery
    (make_uniform_kernel(7), 32, 32),            # sparse_image
    (make_gaussian_kernel(5, 1.2), 7, 9),
    (make_uniform_kernel(3), 5, 7),
])
def test_convolution_bound_certified_without_slack(kernel, rows, cols):
    # a nonnegative kernel attains its norm at the zero frequency, so
    # ||L||^2 = (sum k)^2, here computed without rounding
    exact = sum(Fraction(float(v)) for v in kernel.ravel()) ** 2
    bound = CircularConvolution2D(kernel, rows, cols).norm_sq
    assert Fraction(bound) >= exact
    assert bound <= float(exact) * (1.0 + 1e-10)


def test_uniform_kernel_entries():
    k = make_uniform_kernel(3)
    np.testing.assert_allclose(k, np.full((3, 3), 1.0 / 9.0))


def test_gaussian_kernel_degenerate_size():
    np.testing.assert_allclose(make_gaussian_kernel(1, 2.0), [[1.0]])


def test_gaussian_kernel_paper_parameters():
    k = make_gaussian_kernel(15, 3.5)
    assert k.shape == (15, 15)
    np.testing.assert_allclose(k.sum(), 1.0, atol=1e-12)
    assert k[7, 7] == k.max()
    np.testing.assert_allclose(k, np.rot90(k), atol=1e-15)


def test_kernel_parameter_validation():
    with pytest.raises(InvalidParameter):
        make_gaussian_kernel(4, 1.0)
    with pytest.raises(InvalidParameter):
        make_gaussian_kernel(3, 0.0)
    with pytest.raises(InvalidParameter):
        make_gaussian_kernel(3, np.nan)
    with pytest.raises(InvalidParameter):
        make_uniform_kernel(2)


def test_block_stack_applies_blockwise(rng):
    op = BlockStack([Identity(BlockShape.vector(2)),
                     DenseMatrix(rng.standard_normal((3, 4)))])
    x = random_point(rng, op.input_shape)
    out = op.apply(x)
    np.testing.assert_array_equal(out.data[:2], x.data[:2])


def test_block_stack_splits_as_np_split_bitwise(rng):
    # the blocks are precomputed slice views; np.split at the cumulative
    # sizes gives the same views, so both maps keep every bit
    op = BlockStack([Identity(BlockShape.vector(3)), Dct2D(4, 4),
                     DenseMatrix(rng.standard_normal((5, 2)))])

    def split(v, ops, size):
        return np.split(v, np.cumsum([size(o) for o in ops])[:-1])

    x = rng.standard_normal(op.input_shape.total)
    y = rng.standard_normal(op.output_shape.total)
    forward = np.concatenate([o._apply(p) for o, p in zip(
        op.ops, split(x, op.ops, lambda o: o.input_shape.total))])
    back = np.concatenate([o._adjoint(p) for o, p in zip(
        op.ops, split(y, op.ops, lambda o: o.output_shape.total))])
    assert op._apply(x).tobytes() == forward.tobytes()
    assert op._adjoint(y).tobytes() == back.tobytes()


# a multi-block layout: a vector, a scalar, an image and a vector
_CUT = BlockShape((3, 1, 16, 5), (None, None, (4, 4), None))


def _offset_pairs(shape):
    """(start, stop) of each block, summed one length at a time."""
    out = [0]
    for n in shape.lengths:
        out.append(out[-1] + n)
    return list(zip(out[:-1], out[1:]))


def _blockwise_cut(rng):
    op = Blockwise([LinfBallProjector(0.5, BlockShape.vector(3)),
                    NonnegProjector(BlockShape.image(4, 4)),
                    SoftThreshold(0.3, BlockShape((2, 5)))])
    y = 2 * rng.standard_normal(op.domain_shape.total)
    parts = np.split(y, np.cumsum([o.domain_shape.total for o in op.ops])[:-1])
    return [op._apply(y)], [np.concatenate([o._apply(p) for o, p in zip(op.ops, parts)])]


def _group_shrinkage_cut(rng):
    op = GroupShrinkage([0.5, 2.0, 1.0, 3.0], _CUT)
    y = 2 * rng.standard_normal(_CUT.total)
    out = np.empty_like(y)
    for (lo, hi), rho in zip(_offset_pairs(_CUT), op.rhos):
        out[lo:hi] = (1.0 - rho / max(np.linalg.norm(y[lo:hi]), rho)) * y[lo:hi]
    return [op._apply(y)], [out]


def _block_threshold_cut(rng):
    boxes = [BoxProjector(-0.5, 0.5, BlockShape.vector(n)) for n in _CUT.lengths]
    op = BlockThresholdFne(boxes, [0.2, 0.1, 1.5, 0.4], _CUT)
    y = 2 * rng.standard_normal(_CUT.total)
    out = np.empty_like(y)
    for (lo, hi), box, g in zip(_offset_pairs(_CUT), boxes, op.gammas):
        block = y[lo:hi]
        projected = box._apply(block)
        d = np.linalg.norm(block - projected)
        out[lo:hi] = projected if d <= g else block + (g / d) * (projected - block)
    return [op._apply(y)], [out]


def _space_point_cut(rng):
    x = random_point(rng, _CUT)
    return ([x.block(j) for j in range(_CUT.block_count)],
            [x.data[lo:hi].reshape(_CUT.block_numpy_shape(j))
             for j, (lo, hi) in enumerate(_offset_pairs(_CUT))])


@pytest.mark.parametrize("cut", [_blockwise_cut, _group_shrinkage_cut,
                                 _block_threshold_cut, _space_point_cut])
def test_block_cuts_match_split_and_offsets_bitwise(rng, cut):
    # every block cut reads BlockShape.slices; np.split at the cumulative
    # sizes and offset pairs summed one length at a time give the same views
    got, expected = cut(rng)
    assert [(a.shape, a.tobytes()) for a in got] == \
        [(b.shape, b.tobytes()) for b in expected]


@pytest.mark.parametrize("n", [2, 3, 128, 1001])
def test_finite_difference_is_np_diff_bitwise(rng, n):
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
    assert FiniteDifference1D(n)._apply(x).tobytes() == np.diff(x).tobytes()

