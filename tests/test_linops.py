import numpy as np
import pytest

from blockvi.errors import InvalidParameter, ShapeMismatch
from blockvi.linops import (
    BlockStack,
    CircularConvolution2D,
    Dct2D,
    DenseMatrix,
    DictionaryRows,
    FiniteDifference1D,
    Identity,
    PairSum,
    estimate_norm_sq,
    make_gaussian_kernel,
    make_uniform_kernel,
)
from blockvi.space import BlockShape, SpacePoint

from conftest import adjoint_defect, random_point


def _catalog(rng):
    img = BlockShape.image(8, 8)
    return [
        Identity(BlockShape.vector(7)),
        DenseMatrix(rng.standard_normal((5, 9))),
        DictionaryRows(rng.standard_normal((12, 6))),
        FiniteDifference1D(16),
        CircularConvolution2D(make_gaussian_kernel(5, 1.2), 8, 8),
        Dct2D(8, 8),
        PairSum(BlockShape.vector(4)),
        BlockStack([Identity(BlockShape.vector(3)), Dct2D(4, 4)]),
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


def test_adjoint_identity_all_kinds(rng):
    for op in _catalog(rng):
        assert adjoint_defect(op, rng) <= 0.0, op.kind


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


def test_power_iteration_matches_exact_spectrum(rng):
    a = rng.standard_normal((7, 5))
    op = DenseMatrix(a)
    lam_true = np.linalg.eigvalsh(a.T @ a).max()
    est = estimate_norm_sq(op)
    assert lam_true <= est <= 1.02 * lam_true


def test_single_row_norm_is_exact(rng):
    row = rng.standard_normal((1, 9))
    op = DictionaryRows(row)
    np.testing.assert_allclose(op.norm_sq, np.sum(row**2))


def test_dct_orthonormal(rng):
    op = Dct2D(8, 8)
    for _ in range(50):
        x = random_point(rng, op.input_shape)
        assert abs(op.apply(x).norm() - x.norm()) <= 1e-10 * x.norm()
        np.testing.assert_allclose(op.adjoint(op.apply(x)).data, x.data, atol=1e-12)


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
        make_uniform_kernel(2)


def test_block_stack_applies_blockwise(rng):
    op = BlockStack([Identity(BlockShape.vector(2)),
                     DenseMatrix(rng.standard_normal((3, 4)))])
    x = random_point(rng, op.input_shape)
    out = op.apply(x)
    np.testing.assert_array_equal(out.data[:2], x.data[:2])


def test_power_iteration_fallback_warns_with_trace_bound(rng):
    from blockvi.errors import NonConvergenceWarning

    a = rng.standard_normal((6, 6))
    op = DenseMatrix(a)
    lam_true = np.linalg.eigvalsh(a.T @ a).max()
    # tol = 0 can never be met, so the iteration budget runs out
    with pytest.warns(NonConvergenceWarning):
        bound = estimate_norm_sq(op, max_iters=3, tol=0.0)
    np.testing.assert_allclose(bound, np.sum(a**2))   # trace of L*L
    assert bound >= lam_true
