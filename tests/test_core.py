import numpy as np
import pytest

from blockvi.core import (
    ConstraintSet,
    Prescription,
    Problem,
    arm_gaps,
    array_residual,
    assemble_problem,
    inconsistency_bound,
    least_squares_objective,
    prescription_images,
    vi_residual,
)
from blockvi.errors import (
    InvalidParameter,
    ShapeMismatch,
    UnsupportedObjective,
    WeightSumError,
)
from blockvi.fne_ops import BoxProjector, IdentityFne, ResidualOf
from blockvi.linops import Identity
from blockvi.solver import SolverConfig, make_schedule, solve
from blockvi.space import BlockShape, SpacePoint

from problem_zoo import feasibility_problem, mixed_arms_problem, scalar_problem

VEC1 = BlockShape.vector(1)


def _identity_arm(target, weight, n=1):
    shape = BlockShape.vector(n)
    return Prescription(Identity(shape), IdentityFne(shape),
                        SpacePoint(np.full(n, float(target)), shape), weight)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_assemble_single_arm():
    prob = assemble_problem(ConstraintSet.whole_space(), [_identity_arm(5.0, 1.0)])
    assert prob.arm_count == 1
    assert prob.weights == (1.0,)


def test_assemble_uniform_pair():
    prob = assemble_problem(ConstraintSet.whole_space(),
                            [_identity_arm(1.0, 0.5), _identity_arm(2.0, 0.5)])
    assert prob.weights == (0.5, 0.5)


def test_assemble_rejects_bad_weight_sum():
    with pytest.raises(WeightSumError):
        assemble_problem(ConstraintSet.whole_space(),
                         [_identity_arm(1.0, 0.5), _identity_arm(2.0, 0.6)])


def test_assemble_renormalizes_tiny_drift():
    w = 0.5 + 2e-10
    prob = assemble_problem(ConstraintSet.whole_space(),
                            [_identity_arm(1.0, w), _identity_arm(2.0, w)])
    assert sum(prob.weights) == pytest.approx(1.0, abs=1e-15)


def test_assemble_requires_nonempty():
    with pytest.raises(InvalidParameter):
        assemble_problem(ConstraintSet.whole_space(), [])


def test_problem_strict_weight_invariant():
    with pytest.raises(WeightSumError):
        Problem(ConstraintSet.whole_space(),
                (_identity_arm(1.0, 0.5), _identity_arm(2.0, 0.5 + 1e-10)))


def test_prescription_shape_validation():
    shape = BlockShape.vector(2)
    with pytest.raises(ShapeMismatch):
        Prescription(Identity(shape), IdentityFne(BlockShape.vector(3)),
                     SpacePoint(np.zeros(3)), 1.0)
    with pytest.raises(ShapeMismatch):
        Prescription(Identity(shape), IdentityFne(shape), SpacePoint(np.zeros(3)), 1.0)


def test_prescription_weight_range():
    shape = BlockShape.vector(1)
    with pytest.raises(InvalidParameter):
        Prescription(Identity(shape), IdentityFne(shape), SpacePoint([0.0]), 0.0)
    with pytest.raises(InvalidParameter):
        Prescription(Identity(shape), IdentityFne(shape), SpacePoint([0.0]), 1.5)


def test_problem_domains_must_agree():
    with pytest.raises(ShapeMismatch):
        assemble_problem(ConstraintSet.whole_space(),
                         [_identity_arm(0.0, 0.5, n=1), _identity_arm(0.0, 0.5, n=2)])


# ---------------------------------------------------------------------------
# vi_residual
# ---------------------------------------------------------------------------

def test_residual_zero_at_unconstrained_root():
    prob = scalar_problem(ConstraintSet.whole_space(), 5.0)
    assert vi_residual(prob, SpacePoint([5.0]), 1.0) == 0.0


def test_residual_zero_at_active_bound():
    # target 5 outside [0, 1]: the displacement points into the normal cone at 1
    prob = scalar_problem(ConstraintSet.box([0.0], [1.0]), 5.0)
    for theta in (0.5, 1.0, 1.9):
        assert vi_residual(prob, SpacePoint([1.0]), theta) == 0.0


def test_residual_positive_off_solution():
    prob = scalar_problem(ConstraintSet.box([0.0], [1.0]), 5.0)
    for theta in (0.5, 1.0, 1.9):
        assert vi_residual(prob, SpacePoint([0.5]), theta) > 1e-3


def test_residual_theta_validated():
    prob = scalar_problem(ConstraintSet.whole_space(), 1.0)
    for theta in (0.0, np.nan):
        with pytest.raises(InvalidParameter):
            vi_residual(prob, SpacePoint([0.0]), theta)


@pytest.mark.parametrize("lo,hi", [([1.0], [0.0]), ([0.0, np.nan], [1.0, 1.0]),
                                   ([0.0, 0.0], [np.nan, 1.0])])
def test_box_bounds_validated(lo, hi):
    # a NaN bound compares false both ways; its clamp would return NaN
    with pytest.raises(InvalidParameter):
        ConstraintSet.box(lo, hi)


def test_residual_shape_checked():
    prob = scalar_problem(ConstraintSet.whole_space(), 1.0)
    with pytest.raises(ShapeMismatch):
        vi_residual(prob, SpacePoint([0.0, 0.0]), 1.0)


@pytest.mark.parametrize("kernel", [array_residual, arm_gaps])
def test_array_kernel_checks_its_point(kernel):
    # raw arrays of the wrong length or layout fail with a typed error, not a
    # numpy one, and integer arrays are taken as float64
    for prob in (mixed_arms_problem(0, consistent=False)[0],   # single arms
                 feasibility_problem(1, m=5, n=3)[0]):          # one fused group
        n = prob.domain_shape.total
        for bad in (np.zeros(n + 1), np.zeros((n, 1)), np.zeros((1, n)), np.float64(0)):
            with pytest.raises(ShapeMismatch):
                kernel(prob, bad)
        as_int = kernel(prob, np.arange(n))
        assert np.array_equal(as_int, kernel(prob, np.arange(n, dtype=np.float64)))


def test_root_characterization_theta_independent():
    # at solver outputs the residual vanishes for every theta; off solutions
    # it is positive for every theta
    for seed in range(4):
        prob, _ = mixed_arms_problem(seed, consistent=True)
        cfg = SolverConfig(gamma=1.5, max_iters=100000, tol=1e-11,
                           x0=SpacePoint(np.zeros(6)), trace_every=20)
        res = solve(prob, make_schedule("full", prob.arm_count), cfg)
        probe = SpacePoint(res.solution.data + 0.1)
        for theta in (0.5, 1.0, 1.9):
            assert vi_residual(prob, res.solution, theta) <= 5e-11
            assert vi_residual(prob, probe, theta) > 1e-6


@pytest.mark.parametrize("constraint", [
    ConstraintSet.whole_space(),
    ConstraintSet.box(np.full(100, -0.05), np.full(100, 0.05)),
])
def test_residual_matches_per_arm_formula_on_600_rows(constraint, rng):
    # the 600 row-wise singleton arms that a `custom` 600x100 system builds;
    # the residual evaluates them as one group, the reference arm by arm
    rows, _, _ = feasibility_problem(3, m=600, n=100)
    prob = assemble_problem(constraint, rows.prescriptions)
    x = SpacePoint(0.1 * rng.standard_normal(100))
    g = np.zeros(100)
    for p in prob.prescriptions:
        g += p.weight * p.linop.adjoint(p.image(x) - p.target).data
    z = constraint.projector(SpacePoint(x.data - g))
    expected = (x - z).norm() / (1.0 + x.norm())
    assert expected > 1e-3
    assert abs(vi_residual(prob, x) - expected) <= 1e-14 * expected


# ---------------------------------------------------------------------------
# inconsistency bound
# ---------------------------------------------------------------------------

def test_bound_zero_when_consistent():
    prob, _ = mixed_arms_problem(3, consistent=True)
    cfg = SolverConfig(gamma=1.5, max_iters=100000, tol=1e-10,
                       x0=SpacePoint(np.zeros(6)), trace_every=20)
    res = solve(prob, make_schedule("full", prob.arm_count), cfg)
    assert inconsistency_bound(prob, res.solution, tol=1e-8) <= 1e-8


def test_bound_hand_value_disjoint_sets():
    # C = [0, 1], arm demands membership in [2, 3]: gap of exactly one
    shape = VEC1
    arm = Prescription(Identity(shape),
                       ResidualOf(BoxProjector(2.0, 3.0, shape)),
                       SpacePoint([0.0]), 1.0)
    prob = assemble_problem(ConstraintSet.box([0.0], [1.0]), [arm])
    solution = SpacePoint([1.0])
    assert vi_residual(prob, solution) == 0.0
    assert inconsistency_bound(prob, solution, tol=1e-9) == pytest.approx(1.0)


def test_bound_shifted_targets_whole_space():
    # identity arms with equal targets stay consistent under a common shift
    shift = 0.7
    arms = [_identity_arm(2.0 + shift, 0.5, n=3), _identity_arm(2.0 + shift, 0.5, n=3)]
    prob = assemble_problem(ConstraintSet.whole_space(), arms)
    solution = SpacePoint(np.full(3, 2.0 + shift))
    assert inconsistency_bound(prob, solution, tol=1e-9) <= 1e-12


def test_bound_warns_at_poor_solutions():
    prob = scalar_problem(ConstraintSet.whole_space(), 5.0)
    with pytest.warns(RuntimeWarning):
        inconsistency_bound(prob, SpacePoint([0.0]), tol=1e-6)


# ---------------------------------------------------------------------------
# least-squares objective
# ---------------------------------------------------------------------------

def _feasibility_arm(lo, hi, weight):
    shape = VEC1
    return Prescription(Identity(shape), ResidualOf(BoxProjector(lo, hi, shape)),
                        SpacePoint([0.0]), weight)


def test_objective_zero_on_feasible_points():
    prob = assemble_problem(ConstraintSet.whole_space(),
                            [_feasibility_arm(2.0, 3.0, 1.0)])
    assert least_squares_objective(prob, SpacePoint([2.5])) == 0.0


def test_objective_hand_value():
    prob = assemble_problem(ConstraintSet.whole_space(),
                            [_feasibility_arm(2.0, 3.0, 1.0)])
    assert least_squares_objective(prob, SpacePoint([0.0])) == pytest.approx(2.0)


def test_objective_matches_linear_least_squares(rng):
    prob, matrix, rhs = feasibility_problem(11)
    x = SpacePoint(rng.standard_normal(matrix.shape[1]))
    expected = np.linalg.norm(matrix @ x.data - rhs) ** 2 / (2 * matrix.shape[0])
    assert least_squares_objective(prob, x) == pytest.approx(expected)


def test_objective_rejects_non_feasibility_arms():
    prob = scalar_problem(ConstraintSet.whole_space(), 5.0)  # F = Id arm
    with pytest.raises(UnsupportedObjective):
        least_squares_objective(prob, SpacePoint([0.0]))


def test_objective_rejects_nonzero_targets():
    shape = VEC1
    arm = Prescription(Identity(shape), ResidualOf(BoxProjector(0.0, 1.0, shape)),
                       SpacePoint([0.5]), 1.0)
    prob = assemble_problem(ConstraintSet.whole_space(), [arm])
    with pytest.raises(UnsupportedObjective):
        least_squares_objective(prob, SpacePoint([0.0]))


def test_solver_output_minimizes_objective(rng):
    prob, matrix, _ = feasibility_problem(21)
    n = matrix.shape[1]
    cfg = SolverConfig(gamma=1.9, max_iters=40000, tol=1e-10,
                       x0=SpacePoint(np.zeros(n)), trace_every=25)
    res = solve(prob, make_schedule("full", prob.arm_count), cfg)
    f_star = least_squares_objective(prob, res.solution)
    for _ in range(100):
        probe = SpacePoint(res.solution.data + 0.3 * rng.standard_normal(n))
        probe = prob.constraint.projector(probe)
        assert f_star <= least_squares_objective(prob, probe) + 1e-12


# ---------------------------------------------------------------------------
# solution-set structure
# ---------------------------------------------------------------------------

def test_consistent_solutions_satisfy_prescriptions():
    for seed in range(6):
        prob, _ = mixed_arms_problem(seed, consistent=True)
        cfg = SolverConfig(gamma=1.5, max_iters=200000, tol=1e-9,
                           x0=SpacePoint(np.zeros(6)), trace_every=20)
        res = solve(prob, make_schedule("full", prob.arm_count), cfg)
        assert arm_gaps(prob, res.solution.data).max() <= 1e-6


def test_prescription_images_unique_across_starts(rng):
    tol = 1e-8
    for seed in range(4):
        prob, _ = mixed_arms_problem(seed, consistent=False)
        images = []
        for trial in range(2):
            x0 = SpacePoint(rng.uniform(-1, 1, 6)) if trial else SpacePoint(np.zeros(6))
            cfg = SolverConfig(gamma=1.5, max_iters=300000, tol=tol,
                               x0=x0, trace_every=25)
            res = solve(prob, make_schedule("full", prob.arm_count), cfg)
            images.append(prescription_images(prob, res.solution))
        worst = max((a - b).norm() for a, b in zip(*images))
        assert worst <= 10 * (2 * tol)


# ---------------------------------------------------------------------------
# constraint-set laws
# ---------------------------------------------------------------------------

def test_constraint_projector_idempotent_and_fne(rng):
    n = 6
    sets = [ConstraintSet.whole_space(),
            ConstraintSet.box(np.full(n, -1.0), np.full(n, 2.0))]
    for cs in sets:
        for _ in range(50):
            y = SpacePoint(4 * rng.standard_normal(n))
            once = cs.projector(y)
            assert (cs.projector(once) - once).norm() <= 1e-12 * (1 + once.norm())
        for _ in range(200):
            a = SpacePoint(4 * rng.standard_normal(n))
            b = SpacePoint(4 * rng.standard_normal(n))
            da = cs.projector(a) - cs.projector(b)
            lhs = (a - b).inner(da)
            rhs = da.inner(da)
            assert lhs >= rhs - 1e-10 * (1 + (a - b).inner(a - b))

