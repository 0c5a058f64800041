import json

import numpy as np
import pytest

from blockvi.core import ConstraintSet
from blockvi.errors import InvalidParameter, NotInRange, RankDeficient, ShapeMismatch
from blockvi.fne_ops import (
    AveragedComposition,
    BlockThresholdFne,
    BlockwiseConstantProjector,
    Blockwise,
    BoxProjector,
    ForwardBackwardFne,
    GroupShrinkage,
    IdentityFne,
    LinfBallProjector,
    MeanAdjust,
    NonnegProjector,
    PhasePrescription,
    ResidualOf,
    ScaledFne,
    SingletonProjector,
    SoftClip,
    SoftThreshold,
    SvdSoftThreshold,
    clamp,
    dead_zone_quartic_root,
    dead_zone_root,
    firm_nonexpansiveness_excess,
    hard_threshold,
    log_threshold,
    proxify_block_threshold,
    proxify_hard_threshold,
    proxify_root,
    proxify_svd,
    rank_to_threshold,
    root_shift,
    soft_threshold,
)
from blockvi.space import BlockShape, SpacePoint

from spectral_reference import SPECTRAL_EXTENTS, full_phase

VEC8 = BlockShape.vector(8)
IMG4 = BlockShape.image(4, 4)
MAT43 = BlockShape.matrix(4, 3)
PROD = BlockShape((3, 3, 2))

LOG_RHO = 1.5
LOG_GAMMA = 0.05 / LOG_RHO**2


def _phase_field(seed=5, shape=(4, 4)):
    rng = np.random.default_rng(seed)
    return np.angle(np.fft.fft2(rng.standard_normal(shape)))


def catalog():
    """One configured instance of every operator kind in the toolbox."""
    return {
        "identity": IdentityFne(VEC8),
        "box": BoxProjector(-1.0, 2.0, VEC8),
        "linf_ball": LinfBallProjector(1.5, VEC8),
        "singleton": SingletonProjector(SpacePoint(np.linspace(0, 1, 8))),
        "nonneg": NonnegProjector(VEC8),
        "blockwise_constant": BlockwiseConstantProjector([4, 4], VEC8),
        "blockwise": Blockwise([LinfBallProjector(1.0, BlockShape.vector(4)),
                                NonnegProjector(BlockShape.vector(4))]),
        "soft_threshold": SoftThreshold(0.7, VEC8),
        "group_shrinkage": GroupShrinkage([0.5, 1.0, 0.25], PROD),
        "soft_clip_rational": SoftClip("rational", VEC8),
        "soft_clip_arctan": SoftClip("arctan", VEC8),
        "soft_clip_exp_sat": SoftClip("exp_sat", VEC8),
        "mean_adjust": MeanAdjust(3.0, VEC8),
        "phase": PhasePrescription(_phase_field(), IMG4),
        "residual_box": ResidualOf(BoxProjector(0.0, 1.0, VEC8)),
        "residual_mean": ResidualOf(MeanAdjust(138.0, VEC8)),
        "averaged_composition": AveragedComposition(
            [BoxProjector(-1, 1, VEC8), SoftClip("rational", VEC8)], VEC8),
        "svd_soft_threshold": SvdSoftThreshold(0.8, MAT43),
        "block_threshold": BlockThresholdFne(
            [BoxProjector(0.0, 1.0, BlockShape.vector(3)),
             SingletonProjector(SpacePoint(np.zeros(3))),
             BoxProjector(-0.5, 0.5, BlockShape.vector(2))],
            [1.0, 0.6, 0.9], PROD),
        "scaled_log": ScaledFne(
            lambda v: log_threshold(v, LOG_RHO, LOG_GAMMA), 0.95, VEC8),
        "forward_backward": ForwardBackwardFne(
            BoxProjector(-1, 1, VEC8), lambda v: 0.5 * v, 2.0, 1.0, VEC8),
    }


# ---------------------------------------------------------------------------
# firm nonexpansiveness and projector laws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(catalog().keys()))
def test_firm_nonexpansiveness_catalog(name):
    op = catalog()[name]
    excess = firm_nonexpansiveness_excess(op._apply, op.domain_shape.total,
                                          n_pairs=1000, seed=11, scale=2.0)
    assert excess <= 0.0


@pytest.mark.parametrize("name", list(catalog().keys()))
def test_describe_is_json_and_names_its_kind(name):
    # summary.json writes each arm's describe(), so it must serialize
    op = catalog()[name]
    described = json.loads(json.dumps(op.describe()))
    assert described["kind"] == op.kind


def test_projector_idempotence(rng):
    for name, op in catalog().items():
        if not op.is_projector:
            continue
        for _ in range(20):
            y = SpacePoint(3 * rng.standard_normal(op.domain_shape.total),
                           op.domain_shape)
            once = op.apply(y)
            twice = op.apply(once)
            assert (twice - once).norm() <= 1e-12 * (1 + once.norm()), name


def test_projector_distance_minimality(rng):
    # proj(y) is at least as close to y as 100 other members of the set
    for name, op in catalog().items():
        if not op.is_projector:
            continue
        y = SpacePoint(4 * rng.standard_normal(op.domain_shape.total),
                       op.domain_shape)
        p = op.apply(y)
        d = (y - p).norm()
        for _ in range(100):
            z = op.apply(SpacePoint(4 * rng.standard_normal(op.domain_shape.total),
                                    op.domain_shape))
            assert d <= (y - z).norm() + 1e-10, name


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def test_box_clamps():
    op = BoxProjector(0.0, 255.0, BlockShape.vector(1))
    assert op.apply(SpacePoint([300.0])).data[0] == 255.0


def test_blockwise_constant_mean():
    op = BlockwiseConstantProjector([2], BlockShape.vector(2))
    np.testing.assert_array_equal(op.apply(SpacePoint([1.0, 3.0])).data, [2.0, 2.0])


@pytest.mark.parametrize("runs", [[1], [8] * 16, [3, 1, 7, 2, 5]])
def test_blockwise_constant_means_as_before_bitwise(runs):
    # the run lengths are kept as arrays; the means and their repeats are
    # those of the per-call conversion, bit for bit
    op = BlockwiseConstantProjector(runs, BlockShape.vector(sum(runs)))
    rng = np.random.default_rng(len(runs))
    y = rng.standard_normal(sum(runs)) * 10.0 ** rng.uniform(-8, 8, sum(runs))
    starts = np.concatenate([[0], np.cumsum(runs)[:-1]]).astype(int)
    means = np.add.reduceat(y, starts) / np.asarray(runs, dtype=np.float64)
    assert op._apply(y).tobytes() == np.repeat(means, runs).tobytes()


def test_linf_ball_componentwise():
    op = LinfBallProjector(1.0, BlockShape.vector(2))
    np.testing.assert_array_equal(op.apply(SpacePoint([2.0, -0.5])).data, [1.0, -0.5])


def _clamp_cases():
    """(y, lo, hi): signed zeros, infinities and NaNs against scalar and
    per-entry bounds, on sizes below and above the vector widths."""
    rng = np.random.default_rng(7)
    values = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -1.5,
                       255.0, 300.0, -7.0, 5e-324, -5e-324, 1.0, -1.0])
    scalar = [(0.0, 255.0), (-0.0, 0.0), (0.0, -0.0), (0.0, 0.0), (-0.0, -0.0),
              (-np.inf, np.inf), (-np.inf, -0.0), (0.0, np.inf), (1.0, 1.0)]
    for n in (1, 15, 1024, 1031):
        y = rng.permutation(np.resize(values, n))
        for lo, hi in scalar:
            yield y, lo, hi
        lo = rng.choice([0.0, -0.0, -np.inf, -1.0, 1.0], n)
        hi = np.maximum(lo, rng.choice([0.0, -0.0, np.inf, 1.0, 255.0], n))
        flip = (lo == 0.0) & (rng.random(n) < 0.5)     # a zero of each sign
        hi[flip] = -lo[flip]
        yield y, lo, hi


def test_clamp_is_per_entry_np_clip_bit_for_bit():
    # np.clip takes the bound on a tie of signed zeros when the bounds are
    # per-entry arrays (and keeps the value when both are scalars or
    # stride-0 views); clamp takes the bound whichever form the bounds take
    for y, lo, hi in _clamp_cases():
        expected = np.clip(y, np.full(y.shape, lo), np.full(y.shape, hi)).tobytes()
        assert clamp(y, np.asarray(lo), np.asarray(hi)).tobytes() == expected, (lo, hi)
        box = BoxProjector(lo, hi, BlockShape.vector(y.size))
        assert box._apply(y).tobytes() == expected, (lo, hi)
        assert ConstraintSet.box(lo, hi).array_projector(y).tobytes() == expected
    for y, _, _ in _clamp_cases():
        for rho in (0.5, 1.0, 255.0, np.inf):
            ball = LinfBallProjector(rho, BlockShape.vector(y.size))
            assert ball._apply(y).tobytes() == np.clip(y, -rho, rho).tobytes(), rho


@pytest.mark.parametrize("build,error,message", [
    (lambda: log_threshold(np.ones(2), 0.0, 0.1), InvalidParameter,
     "rho must be positive"),
    (lambda: BlockwiseConstantProjector([3, 3], VEC8), InvalidParameter,
     "cover the signal"),
    (lambda: Blockwise([]), InvalidParameter, "at least one operator"),
    (lambda: SoftClip("cubic", VEC8), InvalidParameter, "variant"),
    (lambda: PhasePrescription(np.zeros(8), VEC8), InvalidParameter,
     "single 2-D block"),
    (lambda: PhasePrescription(np.zeros((3, 4)), IMG4), ShapeMismatch,
     "extents"),
    (lambda: AveragedComposition([], VEC8), InvalidParameter,
     "at least one map"),
    (lambda: SvdSoftThreshold(0.5, VEC8), InvalidParameter,
     "matrix-shaped block"),
    (lambda: BlockThresholdFne([], 0.5, VEC8), InvalidParameter,
     "one projector per block"),
    (lambda: ScaledFne(lambda v: v, 0.0, VEC8), InvalidParameter,
     r"beta must lie in \(0, 1\]"),
    (lambda: ForwardBackwardFne(lambda v: v, lambda v: v, 0.0, 0.5, VEC8),
     InvalidParameter, "beta must be positive"),
    (lambda: proxify_svd(0.5, SpacePoint(np.zeros(8))), InvalidParameter,
     "matrix-shaped block"),
    (lambda: rank_to_threshold(SpacePoint(np.zeros(8)), 1), InvalidParameter,
     "matrix-shaped block"),
    (lambda: rank_to_threshold(SpacePoint(np.eye(4).reshape(-1), IMG4), 5),
     InvalidParameter, r"rank must lie in \[1, 4\]"),
    (lambda: dead_zone_root(np.array([1.0]), 1e200), InvalidParameter,
     r"rho\^2 must be finite"),
    (lambda: root_shift(np.array([1.0]), 1e200), InvalidParameter,
     r"rho\^2 must be finite"),
    (lambda: proxify_root(1e200, 1.0), InvalidParameter,
     r"rho\^2 must be finite"),
], ids=["log-rho", "run-lengths", "blockwise-empty", "clip-variant",
        "phase-vector", "phase-extents", "composition-empty", "svd-vector",
        "block-projectors", "scaled-beta", "forward-backward-beta",
        "proxify-svd-vector", "rank-vector", "rank-range",
        "dead-zone-root-rho-overflow", "root-shift-rho-overflow",
        "proxify-root-rho-overflow"])
def test_constructors_refuse_what_they_cannot_build(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_box_bounds_validated():
    with pytest.raises(InvalidParameter):
        BoxProjector(1.0, 0.0, VEC8)
    # a NaN bound compares false both ways; its clamp would return NaN
    with pytest.raises(InvalidParameter):
        BoxProjector([0.0, np.nan], [1.0, 1.0], BlockShape.vector(2))


@pytest.mark.parametrize("build", [
    lambda: soft_threshold(1.0, np.nan),
    lambda: hard_threshold(1.0, np.nan),
    lambda: LinfBallProjector(np.nan, VEC8),
    lambda: SoftThreshold(np.nan, VEC8),
    lambda: GroupShrinkage([0.5, np.nan, 0.25], PROD),
    lambda: SvdSoftThreshold(np.nan, MAT43),
    lambda: BlockThresholdFne([IdentityFne(BlockShape.vector(8))], np.nan, VEC8),
    lambda: proxify_hard_threshold(np.nan, SpacePoint(np.zeros(3))),
    lambda: proxify_svd(np.nan, SpacePoint(np.eye(3))),
    lambda: proxify_root(np.nan, 1.0),
], ids=["soft_threshold", "hard_threshold", "LinfBallProjector", "SoftThreshold",
        "GroupShrinkage", "SvdSoftThreshold", "BlockThresholdFne",
        "proxify_hard_threshold", "proxify_svd", "proxify_root"])
def test_nan_parameters_are_rejected(build):
    # `rho <= 0` is false for NaN, so a NaN level would pass a check so
    # written; the proxifications then failed later, on a NaN target
    with pytest.raises(InvalidParameter, match="positive"):
        build()


# ---------------------------------------------------------------------------
# thresholding families
# ---------------------------------------------------------------------------

def test_soft_threshold_values():
    assert soft_threshold(2.0, 1.0) == 1.0
    assert soft_threshold(1.0, 1.0) == 0.0        # boundary maps to zero
    np.testing.assert_allclose(soft_threshold(0.13, 0.05), 0.08)
    with pytest.raises(InvalidParameter):
        soft_threshold(1.0, 0.0)


def test_hard_threshold_boundary():
    np.testing.assert_array_equal(hard_threshold([2.0, 1.0, -0.5], 1.0),
                                  [2.0, 0.0, 0.0])


def test_group_shrinkage_values():
    op = GroupShrinkage(1.0, BlockShape((2,)))
    block = np.array([2.0, 0.0])            # norm 2 -> scaled by 1/2
    np.testing.assert_allclose(op.apply(SpacePoint(block)).data, [1.0, 0.0])
    small = np.array([0.3, 0.4])            # norm 0.5 -> zeroed
    np.testing.assert_allclose(op.apply(SpacePoint(small)).data, [0.0, 0.0])


def test_group_shrinkage_scalar_blocks_reduce_to_soft(rng):
    shape = BlockShape((1,) * 100)
    op = GroupShrinkage(0.6, shape)
    v = 2 * rng.standard_normal(100)
    np.testing.assert_allclose(op.apply(SpacePoint(v, shape)).data,
                               soft_threshold(v, 0.6), atol=1e-15)


def test_zero_block_stays_zero():
    op = GroupShrinkage(1.0, BlockShape((3,)))
    np.testing.assert_array_equal(op.apply(SpacePoint(np.zeros(3))).data, np.zeros(3))


def test_moreau_decomposition(rng):
    # sup-ball projection and soft threshold reassemble the identity
    rho = 1.5
    v = 4 * rng.standard_normal(500)
    gap = np.clip(v, -rho, rho) + soft_threshold(v, rho) - v
    assert np.max(np.abs(gap)) <= 1e-12


# ---------------------------------------------------------------------------
# clips, mean adjustment, phase
# ---------------------------------------------------------------------------

def test_soft_clip_values():
    shape = BlockShape.vector(1)
    assert SoftClip("rational", shape).apply(SpacePoint([1.0])).data[0] == 0.5
    for variant in SoftClip.VARIANTS:
        assert SoftClip(variant, shape).apply(SpacePoint([0.0])).data[0] == 0.0
    big = SoftClip("exp_sat", shape).apply(SpacePoint([30.0])).data[0]
    assert 0.999 < big < 1.0             # saturates toward 1 from below


def test_soft_clip_range(rng):
    op = SoftClip("arctan", VEC8)
    out = op.apply(SpacePoint(100 * rng.standard_normal(8))).data
    assert np.all(np.abs(out) < 1.0)


def test_mean_adjust_oracles():
    shape = BlockShape.vector(2)
    op = MeanAdjust(138.0, shape)
    np.testing.assert_array_equal(op.apply(SpacePoint([0.0, 0.0])).data,
                                  [138.0, 138.0])
    y = SpacePoint([137.0, 139.0])       # mean already 138
    assert op.apply(y) == y
    z = op.apply(SpacePoint([5.0, -9.0]))
    np.testing.assert_allclose(np.mean(z.data), 138.0)
    assert op.apply(z) == z              # idempotent


@pytest.mark.parametrize("size", [1, 7, 1024])
def test_mean_adjust_matches_np_mean_bitwise(size):
    # the operator takes its mean as y.sum() / y.size
    y = 50.0 * np.random.default_rng(size).standard_normal(size) + 3.0
    assert (y.sum() / y.size).tobytes() == np.mean(y).tobytes()
    op = MeanAdjust(138.0, BlockShape.vector(size))
    assert op._apply(y).tobytes() == (y - (np.mean(y) - 138.0)).tobytes()


def test_phase_exact_match_maps_to_zero(rng):
    y = rng.standard_normal((4, 4))
    theta = np.angle(np.fft.fft2(y))
    op = PhasePrescription(theta, IMG4)
    assert op.apply(SpacePoint(y)).norm() <= 1e-12 * (1 + np.linalg.norm(y))
    assert op.apply(SpacePoint(np.zeros((4, 4)))).norm() == 0.0


def test_phase_opposed_field_passes_through(rng):
    # phases taken from -y differ by pi everywhere: the cosine clips to zero
    y = rng.standard_normal((4, 4))
    theta = np.angle(np.fft.fft2(-y))
    op = PhasePrescription(theta, IMG4)
    out = op.apply(SpacePoint(y))
    np.testing.assert_allclose(out.data, y.reshape(-1), atol=1e-12)


def test_phase_rejects_asymmetric_field():
    theta = np.zeros((4, 4))
    theta[1, 2] = 2.0                    # breaks conjugate symmetry
    with pytest.raises(InvalidParameter):
        PhasePrescription(theta, IMG4)
    theta = np.zeros((4, 4))
    theta[0, 0] = 0.5                    # a self-conjugate bin must be real
    with pytest.raises(InvalidParameter):
        PhasePrescription(theta, IMG4)
    theta = np.zeros((4, 4))
    theta[1, 2] = np.nan
    with pytest.raises(InvalidParameter):
        PhasePrescription(theta, IMG4)


@pytest.mark.parametrize("rows,cols", [(5, 7), (6, 8), (7, 4)])
def test_phase_matches_full_complex_formula(rows, cols):
    shape = BlockShape.image(rows, cols)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        theta = np.angle(np.fft.fft2(rng.standard_normal((rows, cols))))
        op = PhasePrescription(theta, shape)
        # a generic point, and one whose phases lie near the field
        for y in (rng.standard_normal((rows, cols)),
                  np.fft.ifft2(np.exp(1j * theta)).real
                  + 0.1 * rng.standard_normal((rows, cols))):
            got = op.apply(SpacePoint(y)).block(0)
            np.testing.assert_allclose(got, full_phase(y, theta),
                                       atol=1e-12 * (1 + np.linalg.norm(y)))


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 6), (2, 3), (5, 7), (6, 8),
                                       (7, 4), (32, 32)])
def test_phase_accepts_fields_of_real_signals(rows, cols):
    shape = BlockShape.image(rows, cols)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        theta = np.angle(np.fft.fft2(rng.standard_normal((rows, cols))))
        PhasePrescription(theta, shape)


@pytest.mark.parametrize("rows,cols", SPECTRAL_EXTENTS)
def test_phase_equals_public_real_fft_bit_for_bit(rows, cols):
    # the operator calls scipy's private pocketfft kernels; if a scipy release
    # moves them or changes what rfft2/irfft2 pass them, this fails
    from scipy.fft import irfft2, rfft2
    rng = np.random.default_rng(rows * 100 + cols)
    theta = np.angle(np.fft.fft2(rng.standard_normal((rows, cols))))
    op = PhasePrescription(theta, BlockShape.image(rows, cols))
    phasor = np.exp(1j * theta)[:, :cols // 2 + 1]
    y = rng.standard_normal((rows, cols))
    aligned = np.maximum((rfft2(y) * np.conj(phasor)).real, 0.0) * phasor
    expected = y - irfft2(aligned, s=(rows, cols))
    assert np.array_equal(op.apply(SpacePoint(y)).block(0), expected)


def test_phase_field_range_validated():
    with pytest.raises(InvalidParameter):
        PhasePrescription(np.full((4, 4), 4.0), IMG4)


# ---------------------------------------------------------------------------
# combinators
# ---------------------------------------------------------------------------

def test_averaged_composition_degenerate_cases(rng):
    neg = AveragedComposition([lambda v: -v], VEC8)
    y = SpacePoint(rng.standard_normal(8))
    assert neg.apply(y).norm() == 0.0
    ident = AveragedComposition([IdentityFne(VEC8), IdentityFne(VEC8)], VEC8)
    assert ident.apply(y) == y


def test_averaged_composition_rejects_expansive_map():
    with pytest.raises(InvalidParameter):
        AveragedComposition([lambda v: 2.0 * v], VEC8)


def test_residual_flags_swap():
    r = ResidualOf(BoxProjector(0, 1, VEC8))
    assert r.is_residual_projector and not r.is_projector
    rr = ResidualOf(r)
    assert rr.is_projector and not rr.is_residual_projector


VEC1 = BlockShape.vector(1)


@pytest.mark.parametrize("make", [
    lambda c: SoftThreshold(0.3, VEC1),
    lambda c: SingletonProjector(SpacePoint([c])),
    lambda c: ResidualOf(SingletonProjector(SpacePoint([c]))),
    lambda c: ResidualOf(SoftThreshold(0.3, VEC1)),
])
def test_stacked_equals_each_operator_alone(make, rng):
    centers = rng.standard_normal(7)
    ops = [make(c) for c in centers]
    fused = type(ops[0]).stacked(ops)
    y = 2 * rng.standard_normal(7)
    alone = np.concatenate([op._apply(y[j:j + 1]) for j, op in enumerate(ops)])
    assert fused._apply(y).tobytes() == alone.tobytes()


def test_stacked_refuses_what_does_not_fuse():
    assert SoftThreshold.stacked([SoftThreshold(0.1, VEC1),
                                  SoftThreshold(0.2, VEC1)]) is None
    assert ResidualOf.stacked([ResidualOf(SoftThreshold(0.1, VEC1)),
                               ResidualOf(SoftThreshold(0.2, VEC1))]) is None
    assert ResidualOf.stacked([ResidualOf(SoftThreshold(0.1, VEC1)),
                               ResidualOf(SingletonProjector(SpacePoint([0.1])))]) is None
    assert BoxProjector.stacked([BoxProjector(0, 1, VEC1),
                                 BoxProjector(0, 1, VEC1)]) is None


def test_singleton_returns_its_read_only_center():
    # a fused row group of a custom system evaluates its stacked singleton on
    # every pass, so the output is the center itself, not a fresh copy, and
    # a caller that wrote into it would move the center
    fused = SingletonProjector.stacked(
        [SingletonProjector(SpacePoint([c])) for c in (0.5, -1.0, 2.0)])
    for op in (fused, SingletonProjector(SpacePoint(np.linspace(0, 1, 8)))):
        out = op._apply(np.zeros(op.domain_shape.total))
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 1.0
        assert out.tobytes() == op.center.data.tobytes()


# ---------------------------------------------------------------------------
# singular-value machinery
# ---------------------------------------------------------------------------

def test_svd_soft_threshold_never_increases_rank(rng):
    op = SvdSoftThreshold(0.8, MAT43)
    for _ in range(100):
        y = rng.standard_normal((4, 3))
        out = op.apply(SpacePoint(y)).block(0)
        assert np.linalg.matrix_rank(out, tol=1e-10) <= np.linalg.matrix_rank(y)


def test_svd_commutes_with_orthogonal_conjugation(rng):
    op = SvdSoftThreshold(0.6, BlockShape.matrix(4, 4))
    for _ in range(20):
        d = np.abs(rng.standard_normal(4)) + 0.1
        y = np.diag(d)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        lhs = op.apply(SpacePoint(u @ y @ v.T)).block(0)
        rhs = u @ op.apply(SpacePoint(y)).block(0) @ v.T
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_rank_to_threshold_oracles():
    q = SpacePoint(np.diag([10.0, 5.0, 0.0]))
    assert rank_to_threshold(q, 2) == pytest.approx(4.95)
    with pytest.raises(RankDeficient):
        rank_to_threshold(SpacePoint(np.zeros((2, 2))), 1)
    sigma = 1500.0 / 0.99
    q2 = SpacePoint(np.diag([2 * sigma, sigma]))
    assert rank_to_threshold(q2, 2) == pytest.approx(1500.0)


# ---------------------------------------------------------------------------
# proxifications
# ---------------------------------------------------------------------------

def test_proxify_hard_threshold_oracles():
    pr = proxify_hard_threshold(1.0, SpacePoint([2.0, 0.0]))
    np.testing.assert_array_equal(pr.target.data, [1.0, 0.0])
    y = SpacePoint([2.0, 0.5])
    np.testing.assert_array_equal(pr.source_map(y).data, [2.0, 0.0])
    np.testing.assert_array_equal(pr.fne.apply(y).data, [1.0, 0.0])
    with pytest.raises(NotInRange):
        proxify_hard_threshold(1.0, SpacePoint([0.5]))


def test_proxify_block_threshold_oracles():
    box = BoxProjector(0.0, 1.0, BlockShape.vector(1))
    pr = proxify_block_threshold([box], [1.0], SpacePoint([3.0]))
    np.testing.assert_allclose(pr.target.data, [2.0])   # 3 + (1/2)(1 - 3)
    pr_in = proxify_block_threshold([box], [1.0], SpacePoint([0.5]))
    np.testing.assert_array_equal(pr_in.target.data, [0.5])
    with pytest.raises(NotInRange):
        proxify_block_threshold([box], [1.0], SpacePoint([1.5]))


def test_proxify_block_threshold_reduces_to_hard(rng):
    shape = BlockShape((1,) * 6)
    q = SpacePoint(hard_threshold(2 * rng.standard_normal(6), 0.8), shape)
    hard_pr = proxify_hard_threshold(0.8, q)
    block_pr = proxify_block_threshold(
        [SingletonProjector(SpacePoint([0.0]))] * 6, [0.8] * 6, q)
    np.testing.assert_allclose(hard_pr.target.data, block_pr.target.data)
    for _ in range(100):
        y = SpacePoint(2 * rng.standard_normal(6), shape)
        np.testing.assert_allclose(hard_pr.fne.apply(y).data,
                                   block_pr.fne.apply(y).data, atol=1e-14)


def test_proxify_svd_oracles():
    pr = proxify_svd(2.0, SpacePoint(np.diag([3.0, 0.0])))
    np.testing.assert_allclose(pr.target.block(0), np.diag([1.0, 0.0]), atol=1e-12)
    y = SpacePoint(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(pr.source_map(y).block(0), np.diag([3.0, 0.0]),
                               atol=1e-12)
    np.testing.assert_allclose(pr.fne.apply(y).block(0), np.diag([1.0, 0.0]),
                               atol=1e-12)
    with pytest.raises(NotInRange):
        proxify_svd(2.0, SpacePoint(np.diag([3.0, 1.0])))


@pytest.mark.parametrize("rho", [0.0, -1.0])
@pytest.mark.parametrize("root", [dead_zone_root, dead_zone_quartic_root])
def test_dead_zone_roots_reject_a_nonpositive_rho(root, rho):
    # a negative rho once ran into numpy's "invalid value" warning (and rho
    # = 0 returned the input), as the thresholds already refuse it
    with pytest.raises(InvalidParameter, match="rho must be positive"):
        root(np.array([0.5, -2.0]), rho)


@pytest.mark.parametrize("build,message", [
    (lambda: dead_zone_root(np.array([0.5, 1e200]), 1.0), r"v\^2 must be finite"),
    (lambda: dead_zone_root(np.array([-np.inf]), 1.0), r"v\^2 must be finite"),
    (lambda: root_shift(np.array([-1e200]), 1.0), r"v\^2 must be finite"),
    (lambda: root_shift(np.array([1e154]), 1e154), r"v\^2 \+ rho\^2 must be finite"),
    (lambda: dead_zone_quartic_root(np.array([1e78]), 1.0), r"v\^4 must be finite"),
    (lambda: proxify_root(1.0, 1e200), r"v\^2 must be finite"),
], ids=["dead-zone-root", "dead-zone-root-inf", "root-shift", "root-shift-sum",
        "quartic-root", "proxify-root"])
def test_roots_refuse_an_entry_whose_power_overflows(build, message):
    # such an entry warned "overflow encountered in square" (or in power)
    with pytest.raises(InvalidParameter, match=message):
        build()


@pytest.mark.parametrize("root", [dead_zone_root, dead_zone_quartic_root, root_shift])
def test_roots_let_nan_through(root):
    out = root(np.array([np.nan, 2.0, 1e77]), 1.0)
    assert out[1:].tolist() == root(np.array([2.0, 1e77]), 1.0).tolist()


def test_proxify_root_anchors():
    np.testing.assert_allclose(dead_zone_root(0.13, 0.05), 0.12)
    np.testing.assert_allclose(root_shift(0.12, 0.05), 0.08)
    np.testing.assert_allclose(root_shift(0.12, 0.05),
                               soft_threshold(0.13, 0.05))
    pr = proxify_root(0.05, 0.0)
    assert pr.target.data[0] == 0.0
    for y in np.linspace(-0.05, 0.05, 11):
        assert pr.source_map(SpacePoint([y])).data[0] == 0.0
        assert pr.fne.apply(SpacePoint([y])).data[0] == 0.0


def _equiv_members(name, rng):
    """(proxification, members of the source solution set, ambient dim)."""
    if name == "hard":
        q = SpacePoint(np.array([1.7, 0.0, -2.4, 0.0]))
        pr = proxify_hard_threshold(1.0, q)
        members = [SpacePoint(q.data + np.concatenate([[0], [u], [0], [v]]))
                   for u, v in rng.uniform(-1, 1, size=(40, 2))]
        return pr, members
    if name == "block":
        shape = BlockShape((2, 2))
        box = BoxProjector(0.0, 1.0, BlockShape.vector(2))
        q = SpacePoint(np.array([0.5, 1.0, 3.0, 0.0]), shape)
        pr = proxify_block_threshold([box, box], [0.8, 0.8], q)
        # first block sits inside its box: nudge along the outward normal at
        # the active face, staying within the threshold distance
        members = [SpacePoint(np.array([0.5, 1.0 + u, 3.0, 0.0]), shape)
                   for u in rng.uniform(0, 0.79, size=40)]
        return pr, members
    if name == "svd":
        q = SpacePoint(np.diag([5.0, 3.0, 0.0]))
        pr = proxify_svd(2.0, q)
        members = [SpacePoint(np.diag([5.0, 3.0, u]))
                   for u in rng.uniform(0, 1.99, size=40)]
        return pr, members
    q_val = 0.37
    pr = proxify_root(0.05, q_val)
    root = np.sign(q_val) * np.sqrt(q_val**2 + 0.05**2)
    return pr, [SpacePoint([root])]


@pytest.mark.parametrize("name", ["hard", "block", "svd", "root"])
def test_proxification_sampled_equivalence(name, rng):
    pr, members = _equiv_members(name, rng)
    tol = 1e-9
    dim = pr.target.dim
    shape = pr.target.shape
    # 500 random probes: membership under Q agrees with membership under F
    for _ in range(500):
        y = SpacePoint(3 * rng.standard_normal(dim), shape)
        source_holds = (pr.source_map(y) - pr.source_value).norm() <= tol
        fne_holds = (pr.fne.apply(y) - pr.target).norm() <= tol
        assert source_holds == fne_holds
    # every constructed solution of Q y = q satisfies F y = p (and conversely)
    for y in members:
        assert (pr.source_map(y) - pr.source_value).norm() <= tol
        assert (pr.fne.apply(y) - pr.target).norm() <= tol
    # Q fixes q on its range, so the target is exactly F(q)
    if name != "root":
        assert pr.fne.apply(pr.source_value) == pr.target


# ---------------------------------------------------------------------------
# weakly convex scaling
# ---------------------------------------------------------------------------

def test_log_threshold_oracles():
    assert log_threshold(0.03, 1.0, 0.05) == 0.0
    # positive branch, frozen from the closed form and checked against a
    # direct scalar minimization of log(rho+|t|) + (t-y)^2 / (2 gamma)
    np.testing.assert_allclose(log_threshold(2.0, 1.0, 0.05),
                               1.9832396974191326, rtol=1e-14)
    np.testing.assert_allclose(log_threshold(-2.0, 1.0, 0.05),
                               -1.9832396974191326, rtol=1e-14)
    with pytest.raises(InvalidParameter):
        log_threshold(1.0, 1.0, 1.5)     # gamma >= rho^2


def test_log_threshold_against_numeric_minimizer():
    from scipy.optimize import minimize_scalar
    rho, gamma = 1.0, 0.05

    def objective_min(y):
        best = np.log(rho) + y**2 / (2 * gamma)   # the kink at zero
        best_t = 0.0
        for lo, hi in [(-abs(y) - 4, 0.0), (0.0, abs(y) + 4)]:
            r = minimize_scalar(
                lambda t: np.log(rho + abs(t)) + (t - y) ** 2 / (2 * gamma),
                bounds=(lo, hi), method="bounded", options={"xatol": 1e-13})
            if r.fun < best:
                best, best_t = r.fun, r.x
        return best_t

    for y in [0.3, 1.0, 2.0, -0.8, -3.2, 0.04]:
        np.testing.assert_allclose(log_threshold(y, rho, gamma),
                                   objective_min(y), atol=1e-8)


def test_scaled_log_passes_unscaled_fails():
    raw = lambda v: log_threshold(v, LOG_RHO, LOG_GAMMA)
    scaled = ScaledFne(raw, 0.95, VEC8)
    assert firm_nonexpansiveness_excess(scaled._apply, 8, n_pairs=1000,
                                        seed=7, scale=0.3) <= 0.0
    # the certified cocoercivity scaling 1 - gamma * mu passes as well
    beta_exact = 1.0 - LOG_GAMMA / LOG_RHO**2
    exact = ScaledFne(raw, beta_exact, VEC8, sample_scale=0.3)
    assert firm_nonexpansiveness_excess(exact._apply, 8, n_pairs=1000,
                                        seed=7, scale=0.3) <= 0.0
    # without scaling the map is merely cocoercive: some pair must violate
    excess = firm_nonexpansiveness_excess(raw, 8, n_pairs=100_000 // 8,
                                          seed=3, scale=0.3)
    assert excess > 0.0


def test_scaled_fne_rejects_expansive_scaling():
    with pytest.raises(InvalidParameter):
        ScaledFne(lambda v: 3.0 * v, 1.0, VEC8)


# ---------------------------------------------------------------------------
# monotone-equilibrium operator
# ---------------------------------------------------------------------------

def test_forward_backward_hand_values(rng):
    shape = BlockShape.vector(4)
    # resolvent of the normal cone of {0} is the zero map; B(0) = 0
    zero_resolvent = lambda v: np.zeros_like(v)
    op = ForwardBackwardFne(zero_resolvent, lambda v: v, 1.0, 1.0, shape)
    assert op.apply(SpacePoint(np.zeros(4))).norm() == 0.0
    # A = 0 (resolvent Id), B = Id, beta = 1, gamma = 1: F = 0.75 Id
    op2 = ForwardBackwardFne(lambda v: v, lambda v: v, 1.0, 1.0, shape)
    y = SpacePoint(rng.standard_normal(4))
    np.testing.assert_allclose(op2.apply(y).data, 0.75 * y.data)
    with pytest.raises(InvalidParameter):
        ForwardBackwardFne(lambda v: v, lambda v: v, 1.0, 2.5, shape)


def test_forward_backward_zeros_match_projected_gradient(rng):
    # constrained quadratic: zeros of F coincide with the projected-gradient
    # fixed point computed by an independent iteration
    n = 5
    m = rng.standard_normal((n, n))
    q = m.T @ m + np.eye(n)
    b = rng.standard_normal(n)
    beta = 1.0 / np.linalg.eigvalsh(q).max()
    lo, hi = -0.2, 0.2
    grad = lambda v: q @ v - b
    proj = lambda v: np.clip(v, lo, hi)
    gamma = beta
    # oracle: plain projected gradient iteration
    z = np.zeros(n)
    for _ in range(20000):
        z = proj(z - gamma * grad(z))
    op = ForwardBackwardFne(proj, grad, beta, gamma, BlockShape.vector(n))
    assert op.apply(SpacePoint(z)).norm() <= 1e-9
    away = SpacePoint(z + 0.1)
    assert op.apply(away).norm() > 1e-4


# ---------------------------------------------------------------------------
# misc contract checks
# ---------------------------------------------------------------------------

def test_apply_shape_checked():
    op = SoftThreshold(1.0, VEC8)
    with pytest.raises(ShapeMismatch):
        op.apply(SpacePoint(np.zeros(4)))
