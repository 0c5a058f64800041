import csv

import numpy as np
import pytest

from blockvi.cli import default_manifest, generate_experiment
from blockvi.core import ConstraintSet, Prescription, assemble_problem
from blockvi.errors import CoverageError, EmptyBlock, InvalidParameter
from blockvi.fne_ops import BoxProjector, IdentityFne, ResidualOf, SoftThreshold
from blockvi.linops import DenseMatrix, FiniteDifference1D, Identity
import blockvi.solver
from blockvi.solver import (
    SolveStatus,
    SolverConfig,
    SolverState,
    SolverTrace,
    activation_atoms,
    arm_gammas,
    averaging_weights,
    make_schedule,
    solve,
    step,
    step_bounds,
    validate_schedule,
)
from blockvi.solver import _arm_groups, _refresh
from blockvi.space import BlockShape, SpacePoint

from problem_zoo import feasibility_problem, mixed_arms_problem, scalar_problem


def _config(**kw):
    base = dict(gamma=1.0, max_iters=500, tol=1e-10,
                x0=SpacePoint(np.zeros(1)), trace_every=1)
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_full_schedule_k1():
    sched = make_schedule("full", 2)
    assert sched.K == 1
    assert sched.active_set(7) == (0, 1)


def test_cyclic_partition_k_equals_blocks():
    sched = make_schedule("cyclic_partition", 10, blocks=4, always_active=[0, 1])
    assert sched.K == 4
    for n in range(8):
        active = sched.active_set(n)
        assert 0 in active and 1 in active
    touched = set()
    for n in range(4):
        touched |= set(sched.active_set(n))
    assert touched == set(range(10))


def test_mod_skip_k_equals_period():
    sched = make_schedule("mod_skip", 3, expensive=[0], period=5)
    assert sched.K == 5
    assert sched.active_set(0) == (0, 1, 2)
    for n in range(1, 5):
        assert sched.active_set(n) == (1, 2)
    assert sched.active_set(5) == (0, 1, 2)


def test_explicit_schedule_scanned():
    sched = make_schedule("explicit", 3, sets=[[0], [1], [2]])
    assert sched.K == 3


def test_missing_index_raises_coverage_error():
    with pytest.raises(CoverageError):
        make_schedule("explicit", 3, sets=[[0], [1]])


def test_empty_set_rejected():
    with pytest.raises(EmptyBlock):
        validate_schedule([[0], []], 2)


def test_out_of_range_index_rejected():
    with pytest.raises(InvalidParameter):
        validate_schedule([[0, 5]], 2)


def test_validate_returns_minimal_k():
    # index 1 appears only every third set
    assert validate_schedule([[0, 1], [0], [0]], 2) == 3
    assert validate_schedule([[0, 1], [0, 1]], 2) == 1


# ---------------------------------------------------------------------------
# configuration guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.0, 2.0, -0.5, 2.5])
def test_gamma_range_guard(gamma):
    prob = scalar_problem(ConstraintSet.whole_space(), 5.0)
    cfg = _config(gamma=gamma)
    with pytest.raises(InvalidParameter):
        solve(prob, make_schedule("full", 1), cfg)


def test_bad_policy_rejected():
    with pytest.raises(InvalidParameter):
        solve(scalar_problem(ConstraintSet.whole_space(), 1.0),
              make_schedule("full", 1), _config(t_init_policy="warm"))


def test_schedule_arm_count_checked():
    prob = scalar_problem(ConstraintSet.whole_space(), 1.0)
    with pytest.raises(InvalidParameter):
        solve(prob, make_schedule("full", 3), _config())


# ---------------------------------------------------------------------------
# solve behavior
# ---------------------------------------------------------------------------

def test_converges_to_unconstrained_root():
    prob = scalar_problem(ConstraintSet.whole_space(), 5.0)
    cfg = _config(max_iters=200)
    res = solve(prob, make_schedule("full", 1), cfg)
    assert res.status is SolveStatus.CONVERGED
    assert res.trace.final_residual <= 1e-10
    np.testing.assert_allclose(res.solution.data, [5.0], atol=1e-9)


def test_converges_to_box_boundary():
    prob = scalar_problem(ConstraintSet.box([0.0], [1.0]), 5.0)
    res = solve(prob, make_schedule("full", 1), _config(max_iters=200))
    assert res.status is SolveStatus.CONVERGED
    np.testing.assert_allclose(res.solution.data, [1.0], atol=1e-9)


def test_least_squares_equivalence():
    prob, matrix, rhs = feasibility_problem(7)
    n = matrix.shape[1]
    cfg = _config(gamma=1.9, max_iters=50000, tol=1e-10,
                  x0=SpacePoint(np.zeros(n)), trace_every=25)
    res = solve(prob, make_schedule("full", prob.arm_count), cfg)
    oracle = np.linalg.solve(matrix.T @ matrix, matrix.T @ rhs)
    rel = np.linalg.norm(res.solution.data - oracle) / np.linalg.norm(oracle)
    assert res.status is SolveStatus.CONVERGED
    assert rel <= 1e-6


def test_max_iters_status():
    prob = scalar_problem(ConstraintSet.whole_space(), 5.0)
    res = solve(prob, make_schedule("full", 1), _config(gamma=0.01, max_iters=3))
    assert res.status is SolveStatus.MAX_ITERS


def test_converged_implies_residual_below_tol():
    for seed in range(3):
        prob, _ = mixed_arms_problem(seed, consistent=False)
        cfg = _config(gamma=1.5, max_iters=100000, tol=1e-8,
                      x0=SpacePoint(np.zeros(6)), trace_every=10)
        res = solve(prob, make_schedule("full", prob.arm_count), cfg)
        assert res.status is SolveStatus.CONVERGED
        assert res.trace.final_residual <= 1e-8


def test_bitwise_replay():
    prob, _ = mixed_arms_problem(5, consistent=False)
    sched = make_schedule("cyclic_partition", prob.arm_count, blocks=2)
    cfg = _config(gamma=1.3, max_iters=2000, tol=0.0,
                  x0=SpacePoint(np.zeros(6)), trace_every=7)
    a = solve(prob, sched, cfg)
    b = solve(prob, sched, cfg)
    assert a.solution.data.tobytes() == b.solution.data.tobytes()
    for ra, rb in zip(a.trace.records, b.trace.records):
        assert (ra.n, ra.residual, ra.step_norm, ra.active_set_id) == \
               (rb.n, rb.residual, rb.step_norm, rb.active_set_id)


# ---------------------------------------------------------------------------
# step semantics
# ---------------------------------------------------------------------------

def _identity_arm_state(p_value, x_value):
    shape = BlockShape.vector(2)
    arm = Prescription(Identity(shape), IdentityFne(shape),
                       SpacePoint(np.full(2, p_value), shape), 1.0)
    prob = assemble_problem(ConstraintSet.box(np.zeros(2), np.ones(2)), [arm])
    x = SpacePoint(np.full(2, x_value), shape)
    return prob, SolverState(0, x, (x,))


def test_step_zero_update_projects_current_point():
    # targets equal to the image: t_i = x_n, so x_{n+1} = proj_C(x_n)
    prob, state = _identity_arm_state(p_value=1.5, x_value=1.5)
    cfg = _config(gamma=1.0, x0=state.x)
    new = step(state, prob, (0,), cfg)
    np.testing.assert_array_equal(new.x.data, np.ones(2))   # clamped into C


def test_step_stale_blocks_bitwise_equal():
    prob, _ = mixed_arms_problem(2, consistent=False)
    shape = prob.domain_shape
    x = SpacePoint(np.linspace(-1, 1, shape.total), shape)
    state = SolverState(0, x, tuple(x for _ in range(prob.arm_count)))
    cfg = _config(gamma=1.5, x0=x)
    new = step(state, prob, (0, 2), cfg)
    assert new.t[1] is state.t[1]
    assert new.t[3] is state.t[3]
    assert new.t[0] is not state.t[0]


def test_step_equals_projection_gradient_for_feasibility_arms():
    # full activation, C whole space: one iteration is a gradient step on the
    # relaxed quadratic, with effective step gamma / sum_j w_j b_j
    prob, matrix, rhs = feasibility_problem(9)
    n = matrix.shape[1]
    x = SpacePoint(np.linspace(-1, 1, n))
    state = SolverState(0, x, tuple(x for _ in range(prob.arm_count)))
    gamma = 1.2
    cfg = _config(gamma=gamma, x0=x)
    new = step(state, prob, tuple(range(prob.arm_count)), cfg)
    z = sum(p.weight * p.norm_sq_bound for p in prob.prescriptions)
    grad = np.zeros(n)
    for i, p in enumerate(prob.prescriptions):
        row = matrix[i]
        grad += p.weight * row * (row @ x.data - rhs[i])
    np.testing.assert_allclose(new.x.data, x.data - (gamma / z) * grad,
                               rtol=1e-12, atol=1e-14)


def test_one_step_policy_matches_virtual_first_activation():
    prob, _ = mixed_arms_problem(1, consistent=True)
    x0 = SpacePoint(np.full(6, 0.3))
    cfg_warm = _config(gamma=1.4, max_iters=1, tol=0.0, x0=x0,
                       t_init_policy="one_step")
    gammas = arm_gammas(prob, 1.4)
    # a solve with max_iters=1 starting warm must match one plain step whose
    # stale arms were already updated at x0
    state = SolverState(0, x0, tuple(
        x0 - g * p.linop.adjoint(p.image(x0) - p.target)
        for p, g in zip(prob.prescriptions, gammas)))
    manual = step(state, prob, (0,), cfg_warm)
    res = solve(prob, make_schedule("explicit", prob.arm_count,
                                    sets=[[0], [1], [2], [3]]), cfg_warm)
    np.testing.assert_array_equal(res.solution.data, manual.x.data)


def test_averaging_weights_cancel_step_scaling():
    prob, _ = mixed_arms_problem(0, consistent=True)
    v = averaging_weights(prob)
    g = arm_gammas(prob, 1.0)
    products = [vi * gi for vi, gi in zip(v, g)]
    # v_i * gamma_i is proportional to w_i: the displacement keeps the
    # problem's own weighting
    ratios = [p / w for p, w in zip(products, (pr.weight for pr in prob.prescriptions))]
    np.testing.assert_allclose(ratios, ratios[0])


# ---------------------------------------------------------------------------
# step bounds per activation atom
# ---------------------------------------------------------------------------

def test_activation_atoms_split_by_membership():
    sched = make_schedule("cyclic_partition", 8, blocks=3, always_active=[0, 5])
    assert activation_atoms(sched) == ((0, 5), (1, 2), (3, 4), (6, 7))
    assert activation_atoms(make_schedule("full", 3)) == ((0, 1, 2),)
    assert activation_atoms(make_schedule("mod_skip", 3, expensive=[1],
                                          period=2)) == ((0, 2), (1,))


def _signal_recovery_case():
    payload = default_manifest("signal_recovery", 7)
    data = generate_experiment("signal_recovery", payload["dimensions"], 7,
                               payload["noise"], payload["operators"])
    spec = payload["schedule"]
    sched = make_schedule(spec["kind"], data.problem.arm_count,
                          blocks=spec["blocks"],
                          always_active=spec["always_active"])
    return data.problem, sched


def _feasibility_case():
    prob, _, _ = feasibility_problem(9)
    return prob, make_schedule("full", prob.arm_count)


def _explicit_matrix(linop):
    """The map as a matrix, column by column through its forward action."""
    shape = linop.input_shape
    return np.column_stack([linop.apply(SpacePoint(e, shape)).data
                            for e in np.eye(shape.total)])


@pytest.mark.parametrize("case", [_signal_recovery_case, _feasibility_case])
def test_atom_bounds_certified(case):
    prob, sched = case()
    bounds = step_bounds(prob, sched)
    per_arm = step_bounds(prob)
    tightened = 0
    for atom in activation_atoms(sched):
        arms = [prob.prescriptions[i] for i in atom]
        mats = [_explicit_matrix(p.linop) for p in arms]
        total = sum(p.weight for p in arms)
        gram = sum((p.weight / total) * (m.T @ m) for p, m in zip(arms, mats))
        b_c = sum(p.weight * bounds[i] for p, i in zip(arms, atom)) / total
        mean_per_arm = sum(p.weight * per_arm[i]
                           for p, i in zip(arms, atom)) / total
        top = np.linalg.eigvalsh(gram)[-1]
        assert b_c <= mean_per_arm
        if b_c < mean_per_arm:
            # a tightened atom shares one bound, certified without slack
            assert all(bounds[i] == bounds[atom[0]] for i in atom)
            assert b_c >= top
            tightened += 1
        else:
            # an untouched atom keeps each arm's own bound, certified to the
            # operator suite's rounding allowance
            assert all(bounds[i] == per_arm[i] for i in atom)
            assert b_c * (1.0 + 1e-9) >= top
    assert tightened >= 1
    v = averaging_weights(prob, sched)
    g = arm_gammas(prob, 1.9, sched)
    ratios = [vi * gi / p.weight for vi, gi, p in zip(v, g, prob.prescriptions)]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-13)


def test_solve_matches_step_loop_when_atoms_not_dense():
    # one atom of identity, finite-difference and dense arms: not all dense,
    # so the solver keeps the per-arm bounds that step() uses
    n = 6
    shape = BlockShape.vector(n)
    rng = np.random.default_rng(11)
    fd = FiniteDifference1D(n)
    dense = DenseMatrix(rng.standard_normal((3, n)))
    arms = [
        Prescription(Identity(shape), ResidualOf(BoxProjector(0.0, 1.0, shape)),
                     SpacePoint.zeros(shape), 0.5),
        Prescription(fd, SoftThreshold(0.1, fd.output_shape),
                     SpacePoint.zeros(fd.output_shape), 0.25),
        Prescription(dense, IdentityFne(dense.output_shape),
                     SpacePoint(rng.standard_normal(3)), 0.25),
    ]
    prob = assemble_problem(ConstraintSet.box(np.full(n, -2.0),
                                              np.full(n, 2.0)), arms)
    sched = make_schedule("full", prob.arm_count)
    x0 = SpacePoint(rng.uniform(-1, 1, n), shape)
    cfg = _config(gamma=1.7, max_iters=60, tol=0.0, x0=x0, keep_snapshots=True)
    res = solve(prob, sched, cfg)
    state = SolverState(0, x0, tuple(x0 for _ in range(prob.arm_count)))
    for k, _, x in res.trace.iterates[1:]:
        state = step(state, prob, sched.active_set(k - 1), cfg)
        assert x.data.tobytes() == state.x.data.tobytes(), k
    assert len(res.trace.iterates) == 61


def test_solve_certifies_bounds_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return step_bounds(*args, **kwargs)

    monkeypatch.setattr(blockvi.solver, "step_bounds", counted)
    prob, sched = _feasibility_case()
    cfg = _config(gamma=1.9, max_iters=20, tol=0.0,
                  x0=SpacePoint(np.zeros(8)), t_init_policy="one_step")
    solve(prob, sched, cfg)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# arm groups
# ---------------------------------------------------------------------------

def _signal_recovery_seed0():
    payload = default_manifest("signal_recovery", 0)
    data = generate_experiment("signal_recovery", payload["dimensions"], 0,
                               payload["noise"], payload["operators"])
    spec = payload["schedule"]
    sched = make_schedule(spec["kind"], data.problem.arm_count,
                          blocks=spec["blocks"],
                          always_active=spec["always_active"])
    return data.problem, sched, payload["solver"]["gamma"]


def test_grouped_solve_matches_public_arm_loop():
    # 300 iterations of the dictionary-row groups against arm-by-arm updates
    # through the public apply/adjoint; only the order of the row dot
    # products differs
    prob, sched, gamma = _signal_recovery_seed0()
    shape = prob.domain_shape
    x0 = SpacePoint.zeros(shape)
    res = solve(prob, sched, _config(gamma=gamma, max_iters=300, tol=0.0,
                                     x0=x0, trace_every=1000))
    gammas = arm_gammas(prob, gamma, sched)
    v = averaging_weights(prob, sched)
    t = [x0] * prob.arm_count
    x = x0
    for n in range(300):
        for i in sched.active_set(n):
            p = prob.prescriptions[i]
            t[i] = x - gammas[i] * p.linop.adjoint(p.image(x) - p.target)
        x = SpacePoint(sum(vi * ti.data for vi, ti in zip(v, t)), shape)
    err = np.linalg.norm(res.solution.data - x.data) / np.linalg.norm(x.data)
    assert err <= 1e-12


def test_refresh_leaves_rows_outside_the_cell_bitwise():
    prob, sched, gamma = _signal_recovery_seed0()
    active = sched.active_set(1)
    groups = [g for atom in activation_atoms(sched) if atom[0] in active
              for g in _arm_groups(prob, atom)]
    fused = [g.matrix.shape[0] for g in groups if g.matrix is not None]
    assert fused == [len(active) - 2]          # the cell's dictionary rows
    rng = np.random.default_rng(3)
    t = rng.standard_normal((prob.arm_count, prob.domain_shape.total))
    before = t.copy()
    x = rng.standard_normal(prob.domain_shape.total)
    _refresh(groups, np.asarray(arm_gammas(prob, gamma, sched)), x, t)
    for i in range(prob.arm_count):
        if i in active:
            assert not np.array_equal(t[i], before[i]), i
        else:
            assert t[i].tobytes() == before[i].tobytes(), i


def test_unfused_rank_one_arms_match_per_arm_path():
    # one-row dense arms whose soft thresholds differ do not fuse: each is a
    # group of one, bitwise equal to updating the arms one at a time
    n, m = 5, 6
    shape = BlockShape.vector(n)
    rng = np.random.default_rng(4)
    arms = [Prescription(DenseMatrix(rng.standard_normal((1, n))),
                         SoftThreshold(0.1 * (1 + i % 2), BlockShape.vector(1)),
                         SpacePoint(rng.standard_normal(1)), 1.0 / m)
            for i in range(m)]
    prob = assemble_problem(ConstraintSet.box(np.full(n, -1.0),
                                              np.full(n, 1.0)), arms)
    sched = make_schedule("full", m)
    assert all(g.matrix is None for g in _arm_groups(prob, range(m)))
    x0 = SpacePoint(rng.uniform(-1, 1, n), shape)
    res = solve(prob, sched, _config(gamma=1.5, max_iters=40, tol=0.0, x0=x0,
                                     keep_snapshots=True))
    gammas = arm_gammas(prob, 1.5, sched)
    v = np.asarray(averaging_weights(prob, sched))
    t = np.tile(x0.data, (m, 1))
    x = x0.data
    for k, _, snap in res.trace.iterates[1:]:
        for i, p in enumerate(prob.prescriptions):
            image = p.fne._apply(p.linop._apply(x))
            t[i] = x - gammas[i] * p.linop._adjoint(image - p.target.data)
        x = prob.constraint.project_array(v @ t, shape)
        assert snap.data.tobytes() == x.tobytes(), k


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_records_strictly_increasing():
    trace = SolverTrace()
    trace.add(0, 0.0, 1.0, 1.0, (0,))
    with pytest.raises(InvalidParameter):
        trace.add(0, 0.1, 0.5, 0.5, (0,))


def test_trace_csv_roundtrip(tmp_path):
    prob, _ = mixed_arms_problem(4, consistent=True)
    cfg = _config(gamma=1.5, max_iters=200, tol=0.0,
                  x0=SpacePoint(np.zeros(6)), trace_every=13)
    res = solve(prob, make_schedule("full", prob.arm_count), cfg)
    path = tmp_path / "trace.csv"
    res.trace.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(res.trace.records)
    for row, rec in zip(rows, res.trace.records):
        assert int(row["n"]) == rec.n
        assert float(row["residual"]) == rec.residual       # 17 digits: lossless
        assert float(row["step_norm"]) == rec.step_norm
        assert float(row["seconds"]) == rec.seconds
        assert int(row["active_set_id"]) == rec.active_set_id


def test_snapshots_recorded_when_requested():
    prob = scalar_problem(ConstraintSet.whole_space(), 5.0)
    cfg = _config(max_iters=50, keep_snapshots=True)
    res = solve(prob, make_schedule("full", 1), cfg)
    ks = [k for k, _, _ in res.trace.iterates]
    assert ks[0] == 0
    assert ks == sorted(ks)
    assert res.trace.iterates[-1][2] == res.solution


def test_arm_gaps_recorded_when_requested():
    prob, _ = mixed_arms_problem(6, consistent=False)
    cfg = _config(gamma=1.5, max_iters=30, tol=0.0,
                  x0=SpacePoint(np.zeros(6)), record_arm_gaps=True)
    res = solve(prob, make_schedule("full", prob.arm_count), cfg)
    assert all(len(r.arm_gaps) == prob.arm_count for r in res.trace.records)
