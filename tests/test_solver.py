import csv
import dataclasses
import math
import re

import numpy as np
import pytest

from blockvi.cli import (
    default_manifest,
    generate_experiment,
    write_matrix_csv,
    write_vector_csv,
)
from blockvi.cli.experiments import STOCK_PARAMETERS
from blockvi.core import (ConstraintSet, Prescription, arm_gaps, arm_groups,
                          array_residual, assemble_problem,
                          prescription_images, pullback, vi_residual)
from blockvi.errors import CoverageError, EmptyBlock, InvalidParameter
from blockvi.fne_ops import (
    BoxProjector,
    IdentityFne,
    PhasePrescription,
    ResidualOf,
    SingletonProjector,
    SoftThreshold,
)
from blockvi.linops import CircularConvolution2D, DenseMatrix, FiniteDifference1D, Identity
import blockvi.core
import blockvi.solver
from blockvi.solver import (
    ActivationSchedule,
    SolveStatus,
    SolverConfig,
    SolverTrace,
    TraceRecord,
    activation_atoms,
    make_schedule,
    solve,
    step_bounds,
    validate_schedule,
)
from blockvi.solver import _averaging_weights, _refresh, _row_groups
from blockvi.space import BlockShape, SpacePoint

from problem_zoo import feasibility_problem, mixed_arms_problem, scalar_problem
from spectral_reference import full_convolution, full_phase, full_transfer


def _steps(prob, gamma, sched=None):
    """(gamma_i, v_i) of every arm from its certified step bound b_i:
    gamma / b_i and the averaging weights v_i = w_i b_i / sum_j w_j b_j."""
    bounds = np.asarray(prob.arrays.bounds if sched is None
                        else step_bounds(prob, sched))
    return (gamma / bounds).tolist(), _averaging_weights(prob, bounds)[0].tolist()


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


def test_cyclic_partition_takes_any_integral_block_count():
    sched = make_schedule("cyclic_partition", 6, blocks=np.int64(2),
                          always_active=[0, 1])
    assert sched.sets == ((0, 1, 2, 3), (0, 1, 4, 5))
    assert sched.K == 2


@pytest.mark.parametrize("blocks", [2.0, None, True, "2", [[2, 3], [4, 5]]],
                         ids=["float", "none", "bool", "string", "cells"])
def test_cyclic_partition_rejects_a_block_count_that_is_no_integer(blocks):
    # these used to end in a bare TypeError, a misleading CoverageError, or
    # a schedule built from explicit cells (an ``explicit`` schedule's job)
    with pytest.raises(InvalidParameter, match="blocks"):
        make_schedule("cyclic_partition", 6, blocks=blocks, always_active=[0, 1])


@pytest.mark.parametrize("key,kwargs", [
    ("sets", {"kind": "explicit", "sets": [[0, 1.9], [2]]}),
    ("expensive", {"kind": "mod_skip", "period": 2, "expensive": [0.5]}),
    ("always_active", {"kind": "cyclic_partition", "blocks": 2,
                       "always_active": [0.7]}),
    ("sets", {"kind": "explicit", "sets": [[0, True], [2]]}),
    ("period", {"kind": "mod_skip", "period": 2.0, "expensive": [0]}),
    ("period", {"kind": "mod_skip", "period": "2", "expensive": [0]}),
    ("period", {"kind": "mod_skip", "period": True, "expensive": [0]}),
    ("period", {"kind": "mod_skip", "period": None, "expensive": [0]}),
], ids=["float arm", "float expensive", "float always", "bool arm",
        "float period", "string period", "bool period", "no period"])
def test_schedules_reject_indices_and_periods_that_are_no_integers(key, kwargs):
    # these used to run truncated (arm 1.9 as 1, period True as 1) or end in
    # a bare TypeError
    kwargs = dict(kwargs)
    with pytest.raises(InvalidParameter, match=key):
        make_schedule(kwargs.pop("kind"), 3, **kwargs)


@pytest.mark.parametrize("kind,kwargs,key", [
    ("full", {"blocks": 4, "period": 2}, "blocks"),
    ("full", {"always_active": []}, "always_active"),
    ("cyclic_partition", {"blocks": 2, "period": 2}, "period"),
    ("mod_skip", {"period": 2, "sets": [[0]]}, "sets"),
    ("explicit", {"sets": [[0, 1, 2]], "expensive": [0]}, "expensive"),
])
def test_schedules_reject_keys_their_kind_does_not_use(kind, kwargs, key):
    # such a key was dropped: full with blocks=4 ran the full schedule
    with pytest.raises(InvalidParameter, match=rf"{kind}.*{key!r}"):
        make_schedule(kind, 3, **kwargs)


def test_validate_schedule_rejects_an_index_that_is_no_integer():
    with pytest.raises(InvalidParameter, match="sets"):
        validate_schedule([[0.5], [1]], 2)


def test_schedules_take_any_integral_index_and_period():
    sched = make_schedule("mod_skip", 3, period=np.int64(2),
                          expensive=[np.int32(0)])
    assert sched.sets == ((0, 1, 2), (1, 2))
    assert all(type(i) is int for s in sched.sets for i in s)
    assert validate_schedule([[np.int64(0)], [1]], 2) == 2


def test_mod_skip_k_equals_period():
    sched = make_schedule("mod_skip", 3, expensive=[0], period=5)
    assert sched.K == 5
    assert sched.active_set(0) == (0, 1, 2)
    for n in range(1, 5):
        assert sched.active_set(n) == (1, 2)
    assert sched.active_set(5) == (0, 1, 2)


def test_mod_skip_rejects_out_of_range_expensive_arms():
    with pytest.raises(InvalidParameter):
        make_schedule("mod_skip", 3, expensive=[7], period=5)


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


@pytest.mark.parametrize("build, error, message", [
    (lambda: make_schedule("cyclic_partition", 3, blocks=4), InvalidParameter,
     r"blocks: block count must be in \[1, #rotating arms\]"),
    (lambda: make_schedule("cyclic_partition", 3, blocks=2,
                           always_active=[0, 1, 2]),
     EmptyBlock, "always_active: cyclic partition contains an empty cell"),
    (lambda: make_schedule("mod_skip", 3, expensive=[0, 1, 2], period=2),
     EmptyBlock, "expensive: skipping every arm would leave empty iterations"),
    (lambda: validate_schedule([[0], []], 2), EmptyBlock,
     "sets: activation sets must be nonempty"),
    (lambda: validate_schedule([[1], [-2, 0, 1, 2, 5]], 2), InvalidParameter,
     r"sets: activation set 1 of the period has arms \[-2, 2, 5\] outside 0\.\.1"),
], ids=["blocks", "always_active", "expensive", "empty-set", "outside"])
def test_schedule_refusals_name_their_keyword(build, error, message):
    # a manifest's schedule refusal once named no key to mend, and the one
    # of an arm outside the problem printed the whole set
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_validate_returns_minimal_k():
    # index 1 appears only every third set
    assert validate_schedule([[0, 1], [0], [0]], 2) == 3
    assert validate_schedule([[0, 1], [0, 1]], 2) == 1


# ---------------------------------------------------------------------------
# configuration guards
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.0, 2.0, -0.5, 2.5])
def test_gamma_range_guard(gamma):
    # a config checks itself when it is built, so none reaches solve
    with pytest.raises(InvalidParameter):
        _config(gamma=gamma)


def test_nan_tol_rejected():
    # a NaN tol would never be met and silently spend the whole budget
    with pytest.raises(InvalidParameter, match="tol"):
        solve(scalar_problem(ConstraintSet.whole_space(), 1.0),
              make_schedule("full", 1), _config(tol=float("nan")))


@pytest.mark.parametrize("key,value", [("max_iters", 10.5), ("max_iters", True),
                                       ("trace_every", 2.5), ("trace_every", True)])
def test_counts_must_be_integers(key, value):
    # a float count had ended in a bare TypeError (max_iters) or run with a
    # fractional stride (trace_every); a bool ran as 1
    with pytest.raises(InvalidParameter, match=key):
        solve(scalar_problem(ConstraintSet.whole_space(), 1.0),
              make_schedule("full", 1), _config(**{key: value}))


def test_schedule_arm_count_checked():
    prob = scalar_problem(ConstraintSet.whole_space(), 1.0)
    with pytest.raises(InvalidParameter):
        solve(prob, make_schedule("full", 3), _config())


def test_schedule_with_a_wrong_covering_constant_rejected():
    # K goes into summary.json, so a hand-built schedule's K is the one its
    # sets certify: it cannot be stated, and sets that leave an arm out
    # build no schedule
    sched = ActivationSchedule("explicit", ((0, 1), (0,), (0,)), 2)
    assert sched.K == 3
    with pytest.raises(TypeError):
        ActivationSchedule("full", ((0,),), K=9, index_count=1)
    with pytest.raises(CoverageError):
        ActivationSchedule("explicit", ((0,), (0,)), 2)


def test_hand_built_schedule_runs_as_make_schedules():
    # a repeated arm once made a hand-built period look shorter than the arm
    # count, so it did not count as led by every arm and x was not extrapolated
    prob, xbar = mixed_arms_problem(0, False)
    sets = ((0, 1, 2, 3, 3),)
    hand = ActivationSchedule("explicit", sets, prob.arm_count)
    built = make_schedule("explicit", prob.arm_count, sets=sets)
    assert hand == built
    assert hand.sets == ((0, 1, 2, 3),)
    cfg = _config(gamma=1.5, max_iters=2000, tol=1e-10, trace_every=10,
                  x0=SpacePoint.zeros(xbar.shape))
    runs = [solve(prob, sched, cfg) for sched in (hand, built)]
    assert runs[0].status is runs[1].status is SolveStatus.CONVERGED
    assert runs[0].solution.data.tobytes() == runs[1].solution.data.tobytes()
    assert [(r.n, r.residual, r.step_norm, r.active_set_id)
            for r in runs[0].trace.records] == \
        [(r.n, r.residual, r.step_norm, r.active_set_id)
         for r in runs[1].trace.records]


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


def test_nonfinite_iterate_rejected(monkeypatch):
    # an arm whose FNE returns NaN makes x non-finite at the first record
    prob = scalar_problem(ConstraintSet.whole_space(), 5.0)
    monkeypatch.setattr(IdentityFne, "_apply", lambda self, y: np.full_like(y, np.nan))
    with pytest.raises(InvalidParameter, match="SpacePoint entries must be finite"):
        solve(prob, make_schedule("full", 1), _config(max_iters=10))


def test_converged_implies_residual_below_tol():
    for seed in range(3):
        prob, _ = mixed_arms_problem(seed, consistent=False)
        cfg = _config(gamma=1.5, max_iters=100000, tol=1e-8,
                      x0=SpacePoint(np.zeros(6)), trace_every=10)
        res = solve(prob, make_schedule("full", prob.arm_count), cfg)
        assert res.status is SolveStatus.CONVERGED
        assert res.trace.final_residual <= 1e-8
        # its records before the stop take their residual from the next
        # refresh; the stop itself holds on the explicit residual
        assert array_residual(prob, res.solution.data) <= 1e-8


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
# one iteration of solve
# ---------------------------------------------------------------------------

def test_step_zero_update_projects_current_point():
    # targets equal to the image: t_i = x_0, so x_1 = proj_C(x_0)
    shape = BlockShape.vector(2)
    arm = Prescription(Identity(shape), IdentityFne(shape),
                       SpacePoint(np.full(2, 1.5), shape), 1.0)
    prob = assemble_problem(ConstraintSet.box(np.zeros(2), np.ones(2)), [arm])
    res = solve(prob, make_schedule("full", 1),
                _config(max_iters=1, tol=0.0, x0=SpacePoint(np.full(2, 1.5), shape)))
    np.testing.assert_array_equal(res.solution.data, np.ones(2))   # clamped into C


def test_step_equals_projection_gradient_for_feasibility_arms():
    # full activation, C whole space: one iteration is a gradient step on the
    # relaxed quadratic, with effective step gamma / sum_j w_j b_j
    prob, matrix, rhs = feasibility_problem(9)
    sched = make_schedule("full", prob.arm_count)
    x = SpacePoint(np.linspace(-1, 1, matrix.shape[1]))
    gamma = 1.2
    res = solve(prob, sched, _config(gamma=gamma, max_iters=1, tol=0.0, x0=x))
    z = sum(p.weight * b for p, b in zip(prob.prescriptions, step_bounds(prob, sched)))
    grad = sum(p.weight * row * (row @ x.data - b)
               for p, row, b in zip(prob.prescriptions, matrix, rhs))
    np.testing.assert_allclose(res.solution.data, x.data - (gamma / z) * grad,
                               rtol=1e-12, atol=1e-14)


def test_averaging_weights_cancel_step_scaling():
    prob, _ = mixed_arms_problem(0, consistent=True)
    g, v = _steps(prob, 1.0)
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
    # a schedule finds its own atoms when it is built
    assert sched.atoms == activation_atoms(sched)
    assert ActivationSchedule("explicit", [(2, 0), (1,)], 3).atoms == ((0, 2), (1,))


def _signal_cyclic(problem):
    """The four cells of the stock signal_recovery period, arms 0 and 1 in
    each, as a ``cyclic_partition``: a period with no set of every arm."""
    return make_schedule("cyclic_partition", problem.arm_count, blocks=4,
                         always_active=[0, 1])


def _signal_recovery_case():
    payload = default_manifest("signal_recovery", 7)
    data = generate_experiment("signal_recovery", payload["dimensions"], 7,
                               payload["noise"], payload["operators"])
    return data.problem, _signal_cyclic(data.problem)


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
    per_arm = prob.arrays.bounds
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
    g, v = _steps(prob, 1.9, sched)
    ratios = [vi * gi / p.weight for vi, gi, p in zip(v, g, prob.prescriptions)]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-13)


def test_solve_certifies_bounds_once(monkeypatch):
    calls, atom_calls = [], []

    def counted(*args, **kwargs):
        calls.append(args)
        return step_bounds(*args, **kwargs)

    def counted_atoms(schedule):
        atom_calls.append(schedule)
        return activation_atoms(schedule)

    monkeypatch.setattr(blockvi.solver, "step_bounds", counted)
    monkeypatch.setattr(blockvi.solver, "activation_atoms", counted_atoms)
    # the schedule finds its atoms once, when it is built; solve reads them
    prob, sched = _feasibility_case()
    cfg = _config(gamma=1.9, max_iters=20, tol=0.0,
                  x0=SpacePoint(np.zeros(8)))
    solve(prob, sched, cfg)
    assert len(calls) == 1
    assert len(atom_calls) == 1


@pytest.mark.parametrize("case", [_signal_recovery_case, _feasibility_case])
def test_solve_builds_groups_once(monkeypatch, case):
    # the problem builds each atom's groups once, for its bound and its rows,
    # and the groups of all arms once, for the residual; once the problem
    # exists, the only matrices built are the fused groups' stacked rows,
    # one each
    stacks, builds = [], []
    init = DenseMatrix.__init__

    def counted_matrix(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stacks.append(self)

    def counted_groups(problem, atom):
        builds.append(tuple(atom))
        return arm_groups(problem, atom)

    monkeypatch.setattr(blockvi.core, "arm_groups", counted_groups)
    prob, sched = case()
    monkeypatch.setattr(DenseMatrix, "__init__", counted_matrix)
    solve(prob, sched, _config(gamma=1.9, max_iters=20, tol=0.0,
                               x0=SpacePoint.zeros(prob.domain_shape)))
    atoms = sorted({*activation_atoms(sched), tuple(range(prob.arm_count))})
    fused = [g.linop for atom in atoms for g in prob.atom_groups(atom)
             if len(g.arms) > 1]
    assert fused
    assert sorted(map(id, stacks)) == sorted(map(id, fused))
    assert sorted(builds) == atoms


def test_a_second_solve_builds_no_arm_group(monkeypatch):
    # a group holds no coefficients, so the refresh and the residual read the
    # problem's own groups: a solve once copied each group to attach its
    # refresh coefficients (6 copies on the stock signal_recovery manifest)
    prob, sched, cfg = _stock_case("signal_recovery", 0)
    cfg = SolverConfig(gamma=cfg.gamma, max_iters=50, tol=cfg.tol, x0=cfg.x0)
    solve(prob, sched, cfg)
    built = []
    init = blockvi.core._ArmGroup.__init__

    def counted(self, *args, **kwargs):
        built.append((args, kwargs))
        init(self, *args, **kwargs)

    monkeypatch.setattr(blockvi.core._ArmGroup, "__init__", counted)
    solve(prob, sched, cfg)
    assert built == []


def test_groups_stack_no_rows_that_no_group_holds(monkeypatch):
    # four multi-row dense arms: each is a group of one, which keeps its own
    # map, so the grouping of all arms builds no matrix
    stacks = []
    init = DenseMatrix.__init__

    def counted_matrix(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stacks.append(self)

    prob, _ = mixed_arms_problem(0, True)
    monkeypatch.setattr(DenseMatrix, "__init__", counted_matrix)
    groups = prob.groups
    assert len(groups) == prob.arm_count
    assert all(len(g.arms) == 1 for g in groups)
    assert stacks == []
    assert prob.groups is groups


_STOCK_KINDS = ["image_recovery", "signal_recovery", "sparse_image",
                "source_separation"]


def test_every_stock_period_starts_with_every_arm():
    # so every stock run is extrapolated on x: a period led by any other set
    # runs plain (test_periods_without_a_leading_full_set_run_plain)
    assert set(STOCK_PARAMETERS) == {*_STOCK_KINDS, "custom"}
    assert STOCK_PARAMETERS["custom"]["schedule"] == {"kind": "full"}
    for kind in _STOCK_KINDS:
        prob, sched, cfg = _stock_case(kind, 0)
        assert sched.sets[0] == tuple(range(prob.arm_count)), kind
        res = solve(prob, sched, dataclasses.replace(cfg, max_iters=12))
        assert set(res.acceleration) == {"memory", "accepted", "kept",
                                         "rejected", "restarts"}, kind


def _membership_atoms(schedule):
    """Reference: one membership tuple per arm, atoms in order of first arm."""
    sets = [frozenset(s) for s in schedule.sets]
    atoms = {}
    for i in range(schedule.index_count):
        atoms.setdefault(tuple(i in s for s in sets), []).append(i)
    return tuple(tuple(a) for a in atoms.values())


def test_activation_atoms_match_the_membership_tuples():
    schedules = [_stock_case(kind, 0)[1] for kind in _STOCK_KINDS]
    schedules.append(_feasibility_case()[1])
    rng = np.random.default_rng(41)
    for _ in range(40):
        m = int(rng.integers(1, 30))
        sets = [np.flatnonzero(rng.random(m) < rng.random()).tolist()
                for _ in range(int(rng.integers(1, 7)))]
        covered = set().union(*sets)
        sets.append([i for i in range(m) if i not in covered])
        schedules.append(make_schedule("explicit", m, sets=[s for s in sets if s]))
    for sched in schedules:
        atoms = activation_atoms(sched)
        assert atoms == _membership_atoms(sched)
        assert all(type(i) is int for atom in atoms for i in atom)


def _per_arm_row_groups(problem, atoms, gamma, bounds):
    """Reference: the row groups built arm by arm, as (arms, fne class,
    target, a_g, matrix, mass) in order of first arm: a_g = gamma / b_i for
    a single arm, kappa / V_g with kappa = gamma / sum_j w_j b_j for a fused
    group."""
    vweights, total = _averaging_weights(problem, bounds)
    groups = []
    for atom in atoms:
        pres = [problem.prescriptions[i] for i in atom]
        dense = [p.linop.matrix for p in pres if isinstance(p.linop, DenseMatrix)]
        rows = np.vstack(dense) if dense else None
        alone, rank_one, first_row, height = [], {}, {}, 0
        for i, p in zip(atom, pres):
            if isinstance(p.linop, DenseMatrix):
                first_row[i] = height
                height += p.linop.matrix.shape[0]
                if p.linop.matrix.shape[0] == 1:
                    rank_one.setdefault(type(p.fne), []).append(i)
                    continue
            alone.append(i)
        for cls, arms in rank_one.items():
            members = [problem.prescriptions[i] for i in arms]
            fne = cls.stacked([p.fne for p in members]) if len(arms) > 1 else None
            if fne is None:
                alone.extend(arms)
                continue
            matrix = rows if len(arms) == len(rows) else \
                rows[[first_row[i] for i in arms]]
            groups.append((arms, type(fne),
                           np.concatenate([p.target.data for p in members]),
                           matrix))
        groups += [([i], type(problem.prescriptions[i].fne),
                    problem.prescriptions[i].target.data, None)
                   for i in alone]
    groups.sort(key=lambda g: g[0][0])
    masses = [vweights[g[0]].sum() for g in groups]
    return [(arms, cls, target,
             gamma / bounds[arms[0]] if len(arms) == 1 else gamma / total / mass,
             matrix, mass)
            for (arms, cls, target, matrix), mass in zip(groups, masses)]


@pytest.mark.parametrize("case", _STOCK_KINDS + ["feasibility"])
def test_row_groups_match_the_per_arm_build_bitwise(case):
    prob, sched = _feasibility_case() if case == "feasibility" else \
        _stock_case(case, 0)[:2]
    atoms = activation_atoms(sched)
    bounds = np.asarray(step_bounds(prob, sched))
    groups, masses, scales = _row_groups(prob, atoms, 1.9, bounds)
    expected = _per_arm_row_groups(prob, atoms, 1.9, bounds)
    assert len(groups) == len(expected) == len(masses) == len(scales)
    for g, mass, a, (arms, cls, target, ref_a, matrix, ref_mass) in zip(
            groups, masses, scales, expected):
        assert g.arms.tolist() == list(arms)
        assert type(g.fne) is cls
        assert g.target.tobytes() == target.tobytes()
        assert np.float64(a).tobytes() == np.float64(ref_a).tobytes()
        assert mass.tobytes() == ref_mass.tobytes()
        if matrix is None:
            assert g.linop is prob.prescriptions[arms[0]].linop
        else:
            assert g.linop.matrix.tobytes() == matrix.tobytes()


def _stock_dense_atoms():
    """(problem, schedule) of every stock case with a multi-arm dense atom:
    the signal_recovery cells of seeds 0-9, and the 600 x 100 Gaussian
    least-squares systems of seeds 0 and 1 under ``full``."""
    for seed in range(10):
        yield _stock_case("signal_recovery", seed)[:2]
    for seed in (0, 1):
        prob, _, _ = feasibility_problem(seed, m=600, n=100)
        yield prob, make_schedule("full", prob.arm_count)


def test_stock_atom_bounds_lie_just_above_the_svd():
    # certified, and loose by less than 1e-10 relative, so the step stays tight
    atoms_seen = 0
    for prob, sched in _stock_dense_atoms():
        bounds = step_bounds(prob, sched)
        for atom in activation_atoms(sched):
            arms = [prob.prescriptions[i] for i in atom]
            if len(atom) < 2 or not all(isinstance(p.linop, DenseMatrix)
                                        for p in arms):
                continue
            total = math.fsum(p.weight for p in arms)
            scaled = np.vstack([np.sqrt(p.weight / total) * p.linop.matrix
                                for p in arms])
            top = np.linalg.norm(scaled, 2) ** 2
            assert all(bounds[i] == bounds[atom[0]] for i in atom)
            assert top <= bounds[atom[0]] <= top * (1.0 + 1e-10)
            atoms_seen += 1
    assert atoms_seen == 10 * 4 + 2


@pytest.mark.parametrize("case", ["signal_recovery", "least_squares"])
def test_solve_computes_no_svd(monkeypatch, case):
    # numpy's SVD gufuncs sit under np.linalg.svd, svdvals, norm(., 2),
    # matrix_rank, pinv and cond: the step bounds take eigenvalues of a
    # Gram instead, about a quarter of the cost on the 600 x 100 stack
    calls = []
    umath = np.linalg._umath_linalg
    for name in ("svd", "svd_f", "svd_s"):
        def counted(*args, _gufunc=getattr(umath, name), **kwargs):
            calls.append(None)
            return _gufunc(*args, **kwargs)
        monkeypatch.setattr(umath, name, counted)
    if case == "signal_recovery":
        prob, sched = _stock_case("signal_recovery", 0)[:2]
    else:
        prob, _, _ = feasibility_problem(0, m=600, n=100)
        sched = make_schedule("full", prob.arm_count)
    np.linalg.norm(np.eye(2), 2)            # the counter sees an SVD
    assert len(calls) == 1
    solve(prob, sched, _config(gamma=1.9, max_iters=20, tol=0.0,
                               x0=SpacePoint.zeros(prob.domain_shape)))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# arm groups
# ---------------------------------------------------------------------------

def _signal_recovery_seed0():
    payload = default_manifest("signal_recovery", 0)
    data = generate_experiment("signal_recovery", payload["dimensions"], 0,
                               payload["noise"], payload["operators"])
    return data.problem, _signal_cyclic(data.problem), payload["solver"]["gamma"]


def test_grouped_solve_matches_public_arm_loop():
    # 300 plain iterations of the dictionary-row groups, one aggregated row
    # each, against arm-by-arm updates through the public apply/adjoint; only
    # rounding differs
    prob, sched, gamma = _signal_recovery_seed0()
    shape = prob.domain_shape
    x0 = SpacePoint.zeros(shape)
    res = solve(prob, sched, _config(gamma=gamma, max_iters=300, tol=0.0,
                                     x0=x0, trace_every=1000, accelerate=False))
    gammas, v = _steps(prob, gamma, sched)
    t = [x0] * prob.arm_count
    x = x0
    for n in range(300):
        for i in sched.active_set(n):
            p = prob.prescriptions[i]
            t[i] = x - gammas[i] * p.linop.adjoint(p.image(x) - p.target)
        x = SpacePoint(sum(vi * ti.data for vi, ti in zip(v, t)), shape)
    err = np.linalg.norm(res.solution.data - x.data) / np.linalg.norm(x.data)
    assert err <= 1e-12


def _assert_gaps_match_public_images(prob, x):
    # the kernel's gaps against ||F_i(L_i x) - p_i|| through the public
    # SpacePoint apply, arm by arm
    expected = np.array([(p.image(x) - p.target).norm() for p in prob.prescriptions])
    gaps = arm_gaps(prob, x.data)
    assert gaps.shape == expected.shape
    assert np.all(np.abs(gaps - expected) <= 1e-13 * (1.0 + expected))


def test_arm_gaps_match_public_images_on_signal_recovery(rng):
    prob, _, _ = _signal_recovery_seed0()
    groups = prob.groups
    assert any(len(g.arms) > 1 for g in groups)           # fused arms
    assert any(len(g.arms) == 1 for g in groups)          # single arms
    _assert_gaps_match_public_images(
        prob, SpacePoint(rng.standard_normal(prob.domain_shape.total),
                         prob.domain_shape))


def test_arm_gaps_match_public_images_on_600_row_custom_problem(tmp_path, rng):
    matrix = rng.standard_normal((600, 100))
    rhs = matrix @ rng.standard_normal(100) + 0.5 * rng.standard_normal(600)
    write_matrix_csv(matrix, tmp_path / "matrix.csv")
    write_vector_csv(rhs, tmp_path / "rhs.csv")
    prob = generate_experiment("custom", {}, 0, {}, {
        "matrix_csv": str(tmp_path / "matrix.csv"),
        "rhs_csv": str(tmp_path / "rhs.csv")}).problem
    _assert_gaps_match_public_images(
        prob, SpacePoint(rng.standard_normal(100), prob.domain_shape))


def test_refresh_leaves_rows_outside_the_cell_bitwise():
    # one row per group: the two always-active arms and one fused row per
    # cell; refreshing cell 1 rewrites its rows and no other
    prob, sched, gamma = _signal_recovery_seed0()
    active = sched.active_set(1)
    atoms = activation_atoms(sched)
    groups, _, scales = _row_groups(prob, atoms, gamma,
                                    np.asarray(step_bounds(prob, sched)))
    assert len(groups) == 2 + len(sched.sets)
    cell = [(row, g, a) for row, (g, a) in enumerate(zip(groups, scales))
            if g.arms[0] in active]
    fused = [g.linop.matrix.shape[0] for _, g, _ in cell if len(g.arms) > 1]
    assert fused == [len(active) - 2]          # the cell's dictionary rows
    rng = np.random.default_rng(3)
    t = rng.standard_normal((len(groups), prob.domain_shape.total))
    before = t.copy()
    x = rng.standard_normal(prob.domain_shape.total)
    _refresh(cell, x, t)
    refreshed = {row for row, *_ in cell}
    assert len(refreshed) == 3
    for row in range(len(groups)):
        if row in refreshed:
            assert not np.array_equal(t[row], before[row]), row
        else:
            assert t[row].tobytes() == before[row].tobytes(), row


def _unfused_rank_one_rows():
    """One-row dense arms whose soft thresholds differ: they do not fuse."""
    n, m = 5, 6
    rng = np.random.default_rng(4)
    arms = [Prescription(DenseMatrix(rng.standard_normal((1, n))),
                         SoftThreshold(0.1 * (1 + i % 2), BlockShape.vector(1)),
                         SpacePoint(rng.standard_normal(1)), 1.0 / m)
            for i in range(m)]
    prob = assemble_problem(ConstraintSet.box(np.full(n, -1.0),
                                              np.full(n, 1.0)), arms)
    assert all(len(g.arms) == 1 for g in prob.groups)
    return prob, SpacePoint(rng.uniform(-1, 1, n), prob.domain_shape)


def _mixed_kinds_atom():
    """Identity, finite-difference and three-row dense arms in one atom: not
    all dense, so every arm keeps its own bound."""
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
    assert step_bounds(prob, make_schedule("full", 3)) == \
        tuple(prob.arrays.bounds.tolist())
    return prob, SpacePoint(rng.uniform(-1, 1, n), shape)


@pytest.mark.parametrize("case", [_unfused_rank_one_rows, _mixed_kinds_atom])
def test_unfused_rank_one_arms_match_per_arm_path(case):
    # every arm is a group of one: bitwise equal to updating the arms one at
    # a time
    prob, x0 = case()
    m = prob.arm_count
    sched = make_schedule("full", m)
    res = solve(prob, sched, _config(gamma=1.5, max_iters=40, tol=0.0, x0=x0,
                                     snapshots=True, accelerate=False))
    assert len(res.trace.iterates) == 41
    gammas, v = _steps(prob, 1.5, sched)
    v = np.asarray(v)
    t = np.tile(x0.data, (m, 1))
    x = x0.data
    for k, _, snap in res.trace.iterates[1:]:
        for i, p in enumerate(prob.prescriptions):
            image = p.fne._apply(p.linop._apply(x))
            t[i] = x - gammas[i] * p.linop._adjoint(image - p.target.data)
        x = prob.constraint.array_projector(v @ t)
        assert snap.data.tobytes() == x.tobytes(), k


def _interleaved_rows_problem():
    """Arms 0-5 soft-threshold rows (one slice group), arms 6, 8, 10 singleton
    residual rows (one index-array group) between box rows 7, 9, 11 (groups
    of one, their FNE does not fuse), and an identity arm 12."""
    n = 7
    rng = np.random.default_rng(11)
    arms = []
    for i in range(12):
        if i < 6:
            fne = SoftThreshold(0.2, BlockShape.vector(1))
        elif i % 2 == 0:
            fne = ResidualOf(SingletonProjector(SpacePoint(rng.standard_normal(1))))
        else:
            fne = BoxProjector(-0.3, 0.3, BlockShape.vector(1))
        arms.append(Prescription(DenseMatrix(rng.standard_normal((1, n))), fne,
                                 SpacePoint(0.1 * rng.standard_normal(1)), 1.0 / 13))
    arms.append(Prescription(Identity(BlockShape.vector(n)),
                             BoxProjector(-0.5, 0.5, BlockShape.vector(n)),
                             SpacePoint(rng.uniform(-0.5, 0.5, n)), 1.0 / 13))
    return assemble_problem(ConstraintSet.box(np.full(n, -1.0), np.full(n, 1.0)),
                            arms)


def test_in_place_rows_match_per_arm_formula_bitwise():
    prob = _interleaved_rows_problem()
    m, n = prob.arm_count, prob.domain_shape.total
    groups = prob.groups
    fused = [g.arms for g in groups if len(g.arms) > 1]
    np.testing.assert_array_equal(fused[0], range(6))
    np.testing.assert_array_equal(fused[1], [6, 8, 10])
    rng = np.random.default_rng(12)
    x = rng.uniform(-1, 1, n)
    # per-arm rows L_i* r_i, with each fused group's rows r_j * a_j taken
    # from its one FNE call
    rows = np.empty((m, n))
    for g in groups:
        if len(g.arms) == 1:
            p = prob.prescriptions[g.arms[0]]
            image = p.fne._apply(p.linop._apply(x))
            rows[g.arms[0]] = p.linop._adjoint(image - p.target.data)
        else:
            r = g.fne._apply(g.linop.matrix @ x) - g.target
            for j, i in enumerate(g.arms):
                rows[i] = r[j] * g.linop.matrix[j]
    gammas, v = map(np.asarray, _steps(prob, 1.5))
    row_groups, masses, scales = _row_groups(prob, (tuple(range(m)),), 1.5,
                                             prob.arrays.bounds)
    assert [list(g.arms) for g in row_groups] == \
        [list(range(6)), [6, 8, 10], [7], [9], [11], [12]]
    t = rng.standard_normal((len(row_groups), n))
    _refresh(tuple((row, g, a) for row, (g, a) in enumerate(zip(row_groups, scales))),
             x, t)
    for row, g in enumerate(row_groups):
        per_arm = [x - gammas[i] * rows[i] for i in g.arms]
        if len(g.arms) == 1:                   # the arm's own row, bitwise
            assert masses[row] == v[g.arms[0]]
            assert t[row].tobytes() == per_arm[0].tobytes(), row
        else:                                  # v-weighted mean of its arms
            mean = sum(v[i] * ti for i, ti in zip(g.arms, per_arm)) / v[g.arms].sum()
            np.testing.assert_allclose(t[row], mean, rtol=1e-12, atol=1e-12)
    z = x - 0.7 * (prob.arrays.weights @ rows)
    projected = prob.constraint.array_projector(z)
    expected = float(np.linalg.norm(x - projected)) / (1.0 + float(np.linalg.norm(x)))
    assert array_residual(prob, x, 0.7) == expected


def test_spectral_solve_matches_full_complex_reference():
    # 300 iterations of the stock image recovery instance against arm-by-arm
    # updates that run the blur and the phase arm on every complex DFT bin
    payload = default_manifest("image_recovery", 1)
    data = generate_experiment("image_recovery", payload["dimensions"], 1,
                               payload["noise"], payload["operators"])
    prob = data.problem
    sched = make_schedule(payload["schedule"]["kind"], prob.arm_count)
    gamma = payload["solver"]["gamma"]
    shape = prob.domain_shape
    rows, cols = shape.extents[0]
    blur, mean, phase = prob.prescriptions
    assert isinstance(blur.linop, CircularConvolution2D)
    assert isinstance(phase.linop, Identity)
    assert isinstance(phase.fne, PhasePrescription)
    x0 = SpacePoint.zeros(shape)
    res = solve(prob, sched, _config(gamma=gamma, max_iters=300, tol=0.0,
                                     x0=x0, trace_every=1000, accelerate=False))
    transfer = full_transfer(blur.linop.kernel, rows, cols)

    def arm_row(i, x):
        if i == 0:
            image = blur.fne._apply(
                full_convolution(x.reshape(rows, cols), transfer).reshape(-1))
            residual = (image - blur.target.data).reshape(rows, cols)
            return full_convolution(residual, np.conj(transfer)).reshape(-1)
        if i == 1:
            return mean.linop._adjoint(mean.fne._apply(x) - mean.target.data)
        return (full_phase(x.reshape(rows, cols), phase.fne.theta).reshape(-1)
                - phase.target.data)

    gammas, v = _steps(prob, gamma, sched)
    x = x0.data
    for n in range(300):
        t = [x - gammas[i] * arm_row(i, x) for i in sched.active_set(n)]
        x = prob.constraint.array_projector(sum(vi * ti for vi, ti in zip(v, t)))
    err = np.linalg.norm(res.solution.data - x) / np.linalg.norm(x)
    assert err <= 1e-12


# ---------------------------------------------------------------------------
# Anderson acceleration of the period map
# ---------------------------------------------------------------------------

def _mod_skip_problem(seed=3, period=5):
    prob, _ = mixed_arms_problem(seed, consistent=False)
    return prob, make_schedule("mod_skip", prob.arm_count, expensive=[3],
                               period=period)


def _accel_config(accelerate=True, **kw):
    kw = {"gamma": 1.5, "max_iters": 20000, "tol": 1e-8,
          "x0": SpacePoint(np.zeros(6)), **kw}
    return _config(accelerate=accelerate, **kw)


@pytest.mark.parametrize("kind,kw", [
    ("cyclic_partition", {"blocks": 3, "always_active": [0]}),
    ("explicit", {"sets": [[2, 3], [0, 1, 2, 3]]}),
    ("cyclic_partition", {"blocks": 2}),
    ("explicit", {"sets": [[0, 1], [0, 1, 2, 3], [2, 3]]}),
])
def test_periods_without_a_leading_full_set_run_plain(kind, kw):
    # a period that does not start with every arm: accelerate=False runs the
    # per-arm iteration bitwise, and with acceleration asked for the run is
    # that plain run bit for bit and says why it was not accelerated
    prob, _ = mixed_arms_problem(3, consistent=False)
    sched = make_schedule(kind, prob.arm_count, **kw)
    res = solve(prob, sched, _accel_config(False, max_iters=300,
                                           snapshots=True))
    assert res.acceleration is None
    gammas, v = _steps(prob, 1.5, sched)
    v = np.asarray(v)
    x = np.zeros(6)
    t = np.tile(x, (prob.arm_count, 1))
    for k, _, snap in res.trace.iterates[1:]:
        for i in sched.active_set(k - 1):
            p = prob.prescriptions[i]
            image = p.fne._apply(p.linop._apply(x))
            t[i] = x - gammas[i] * p.linop._adjoint(image - p.target.data)
        x = prob.constraint.array_projector(v @ t)
        assert snap.data.tobytes() == x.tobytes(), k
    _assert_runs_plain_with_acceleration_on(prob, sched)


def _assert_runs_plain_with_acceleration_on(prob, sched):
    """Asking ``sched``, whose period does not start with every arm, for
    acceleration runs the plain run bit for bit and records why."""
    plain = solve(prob, sched, _accel_config(False))
    fast = solve(prob, sched, _accel_config())
    assert plain.acceleration is None
    assert fast.acceleration == {
        "skipped": "the period does not start with every arm"}
    assert plain.status is fast.status is SolveStatus.CONVERGED
    assert fast.solution.data.tobytes() == plain.solution.data.tobytes()
    assert [(r.n, r.residual, r.step_norm) for r in fast.trace.records] == \
        [(r.n, r.residual, r.step_norm) for r in plain.trace.records]


@pytest.mark.parametrize("kind,kw", [
    ("full", {}),
    ("mod_skip", {"expensive": [3], "period": 1}),
])
def test_one_set_periods_accelerate_over_spans(kind, kw):
    prob, _ = mixed_arms_problem(3, consistent=False)
    sched = make_schedule(kind, prob.arm_count, **kw)
    plain = solve(prob, sched, _accel_config(False))
    fast = solve(prob, sched, _accel_config())
    assert plain.acceleration is None
    assert plain.status is fast.status is SolveStatus.CONVERGED
    assert fast.acceleration["accepted"] > 0
    assert fast.trace.records[-1].n < plain.trace.records[-1].n / 2
    np.testing.assert_allclose(fast.solution.data, plain.solution.data,
                               atol=1e-6)


@pytest.mark.parametrize("kind,kw,span", [
    ("full", {}, 2),
    ("mod_skip", {"expensive": [3], "period": 5}, 5),
    ("mod_skip", {"expensive": [3], "period": 2}, 2),
    ("explicit", {"sets": [[0, 1, 2, 3], [0], [1, 2], [3]]}, 4),
])
def test_anderson_steps_once_per_span(monkeypatch, kind, kw, span):
    # a span is the least whole number of periods with at least SPAN base
    # iterations; each _refresh call is one base iteration, so the calls
    # before next_start give the n at which it runs.  On this problem only
    # ``full`` meets tol = 0 within the 100 iterations, after 58 of them.
    prob, _ = mixed_arms_problem(0, consistent=False)
    sched = make_schedule(kind, prob.arm_count, **kw)
    refreshes, steps = [], []
    refresh, next_start = blockvi.solver._refresh, blockvi.solver._Anderson.next_start

    def counted_refresh(*args):
        refreshes.append(None)
        return refresh(*args)

    def counted_next_start(self, f):
        steps.append(len(refreshes))
        return next_start(self, f)

    monkeypatch.setattr(blockvi.solver, "_refresh", counted_refresh)
    monkeypatch.setattr(blockvi.solver._Anderson, "next_start",
                        counted_next_start)
    res = solve(prob, sched, _accel_config(max_iters=100, tol=0.0))
    runs = len(refreshes)
    assert runs == (58 if kind == "full" else 100)
    assert steps == list(range(span, runs, span))
    assert res.acceleration["accepted"] + res.acceleration["rejected"] > 0


def test_anderson_cuts_iterations_on_mod_skip():
    prob, sched = _mod_skip_problem()
    plain = solve(prob, sched, _accel_config(False))
    fast = solve(prob, sched, _accel_config())
    assert plain.acceleration is None
    assert fast.status is SolveStatus.CONVERGED
    assert fast.acceleration["memory"] == blockvi.solver._Anderson.MEMORY
    assert fast.acceleration["accepted"] > 0
    assert fast.trace.records[-1].n < plain.trace.records[-1].n / 2
    np.testing.assert_allclose(fast.solution.data, plain.solution.data,
                               atol=1e-6)


def test_anderson_accelerates_explicit_period_led_by_every_arm():
    prob, _ = mixed_arms_problem(3, consistent=False)
    sched = make_schedule("explicit", prob.arm_count,
                          sets=[[0, 1, 2, 3], [0, 1], [2, 3]])
    res = solve(prob, sched, _accel_config())
    assert res.status is SolveStatus.CONVERGED
    assert res.acceleration["accepted"] > 0


def test_anderson_rejected_periods_count_as_iterations(monkeypatch):
    # D = 0 rejects every candidate once its period has run: the run then
    # alternates a wasted candidate period with a plain one, and the plain
    # periods retrace the plain iteration bitwise, shifted by the wasted ones.
    # A record's residual comes from the next refresh unless a span starts
    # there, so the two runs' residuals agree only to rounding.
    P = 5
    prob, sched = _mod_skip_problem(period=P)
    plain = solve(prob, sched, _accel_config(False, snapshots=True))
    monkeypatch.setattr(blockvi.solver._Anderson, "D", 0.0)
    res = solve(prob, sched, _accel_config(snapshots=True))
    assert res.status is SolveStatus.CONVERGED
    assert res.trace.final_residual <= 1e-8
    ns = [r.n for r in res.trace.records]
    assert ns == list(range(len(ns)))          # every base iteration counted
    last_period = ns[-1] // P
    assert res.acceleration["accepted"] == 0
    assert res.acceleration["rejected"] == (last_period - 1) // 2 >= 1
    records = {r.n: r for r in plain.trace.records}
    iterates = {k: x for k, _, x in plain.trace.iterates}
    retraced = 0
    for r, (k, _, x) in zip(res.trace.records, res.trace.iterates[1:]):
        period, offset = divmod(r.n, P)
        if period < 2:
            m = r.n
        elif period % 2 == 1:                  # plain period (period + 1) / 2
            m = (period + 1) // 2 * P + offset
        else:
            continue
        assert k == r.n + 1
        assert x.data.tobytes() == iterates[m + 1].data.tobytes(), r.n
        assert r.step_norm == records[m].step_norm, r.n
        assert abs(r.residual - records[m].residual) <= 1e-12, r.n
        retraced += 1
    assert retraced >= 3 * P


def test_anderson_regularises_the_gram_as_before():
    # next_start adds REG * trace to the diagonal of a copy of the Gram; the
    # candidates are those of (gram + REG * trace * I) a = dG g bit for bit,
    # before and after the ring wraps
    rng = np.random.default_rng(11)
    n = 64
    acc = blockvi.solver._Anderson(rng.standard_normal(n))
    sizes = []
    for _ in range(2 * acc.MEMORY + 2):
        f = rng.standard_normal(n)
        out = acc.next_start(f)
        k = acc.filled
        if k == 0:
            assert out is f
            continue
        gram = acc.gram[:k, :k]
        a = np.linalg.solve(gram + acc.REG * gram.trace() * np.eye(k),
                            acc.dg[:k] @ acc.g)
        assert out.tobytes() == (f - a @ acc.df[:k]).tobytes(), k
        sizes.append(k)
    assert sizes.count(acc.MEMORY) >= 2        # the ring wrapped


def test_anderson_rejects_a_step_whose_gram_is_singular():
    # steps of equal residual g leave a zero difference, so the Gram and its
    # regulariser are 0: np.linalg.solve raises LinAlgError, and next_start
    # rejects the step for the plain one
    g = np.array([1.0, -2.0, 0.5])
    acc = blockvi.solver._Anderson(np.zeros(3))
    acc.next_start(g)
    f = 2 * g
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.zeros((1, 1)), np.zeros(1))
    assert acc.next_start(f) is f
    assert (acc.accepted, acc.rejected, acc.filled) == (0, 1, 0)


def _stalled_feed(residuals, dimension=8):
    """Run an _Anderson on f = s + r_k u_k, u_k a random unit vector, for
    the residuals r_k; returns it and its ``restarts`` after each call."""
    rng = np.random.default_rng(5)
    acc = blockvi.solver._Anderson(np.zeros(dimension))
    x, restarts = acc.start, []
    for r in residuals:
        u = rng.standard_normal(dimension)
        x = acc.next_start(x + r * u / np.linalg.norm(u))
        restarts.append(acc.restarts)
    return acc, restarts


def test_anderson_restarts_after_R_base_points_without_progress():
    # every residual is 1, so every candidate is accepted and best never
    # halves: the second base point sets the mark, and each R base points
    # after it empty the memory, which then holds the newest pair alone
    R = blockvi.solver._Anderson.R
    acc, restarts = _stalled_feed([1.0] * (2 * R + 3))
    assert restarts.index(1) == 1 + R and restarts.index(2) == 1 + 2 * R
    assert restarts[-1] == 2
    # every call but the first checks a candidate, and none is rejected
    assert (acc.accepted, acc.rejected) == (2 * R + 1, 0)
    acc, _ = _stalled_feed([1.0] * (R + 2))
    assert acc.filled == 1 and acc.restarts == 1


def test_anderson_never_restarts_while_the_residual_halves():
    # the residual halves (and more) once every R / 2 base points, so the
    # count never reaches R
    R = blockvi.solver._Anderson.R
    acc, restarts = _stalled_feed([0.45 ** (k // (R // 2)) for k in range(3 * R)])
    assert restarts[-1] == 0 and acc.rejected == 0
    assert acc.filled == acc.MEMORY


def test_anderson_restart_keeps_the_image_deep_tail():
    # at the stock memory this run takes 19 607-20 860 iterations over the
    # three last-bit versions of the k x k solve (as is, REG x (1 + 1e-3) and
    # a Cholesky solve), and 29 801-37 517 without the progress restart
    prob, sched, cfg = _stock_case("image_recovery", 9)
    res = solve(prob, sched, dataclasses.replace(cfg, tol=1e-10,
                                                 max_iters=25_001))
    assert res.status is SolveStatus.CONVERGED, res.trace.records[-1].n
    assert res.acceleration["restarts"] > 0


def test_anderson_memory_fills_ring_and_restarts(monkeypatch):
    rates = np.array([0.1, 0.5, 0.9, 0.3])       # Phi(x) = rates * x + 1
    # a memory below the dimension keeps the linear map from being solved
    # exactly, which would leave a zero Gram matrix
    monkeypatch.setattr(blockvi.solver._Anderson, "MEMORY", 3)

    def filled_after_each_call():
        acc = blockvi.solver._Anderson(np.zeros(4))
        x, filled = acc.start, []
        for _ in range(7):
            x = acc.next_start(rates * x + 1.0)
            filled.append(acc.filled)
        return acc, filled

    acc, filled = filled_after_each_call()
    assert filled == [0, 1, 2, 3, 3, 3, 3]
    assert (acc.accepted, acc.rejected) == (5, 0)
    monkeypatch.setattr(blockvi.solver._Anderson, "D", 0.0)
    acc, filled = filled_after_each_call()
    assert filled == [0, 1, 0, 1, 0, 1, 0]
    assert (acc.accepted, acc.rejected) == (0, 3)


def _anderson_with_a_candidate():
    # a plain span from 0 with residual 4, then one with residual 1: the best
    # residual is 1 and the candidate is (4, 1 - a), its first entry exact
    acc = blockvi.solver._Anderson(np.zeros(2))
    acc.next_start(np.array([4.0, 0.0]))
    assert acc.best == 4.0
    candidate = acc.next_start(np.array([4.0, 1.0]))
    assert acc.best == 1.0 and acc.filled == 1 and candidate[0] == 4.0
    return acc, candidate


@pytest.mark.parametrize("excess", [2.5, 20.0, float("nan")])
def test_anderson_rejects_a_residual_above_C_times_the_best(excess):
    # within K times the best (2.5) the span is kept and the memory restarts;
    # above it (20), or NaN, the span is discarded for the plain step
    acc, candidate = _anderson_with_a_candidate()
    plain = acc.f
    image = candidate + np.array([excess, 0.0])
    out = acc.next_start(image)
    kept = excess <= acc.K * acc.best
    assert out is (image if kept else plain)
    assert (acc.accepted, acc.rejected, acc.filled) == (0, 1, 0)
    assert acc.kept == kept and acc.best == 1.0
    f = out + np.array([0.25, 0.0])
    acc.next_start(f)                    # a plain span from out
    assert acc.best == 0.25
    if kept:                             # one pair: candidate -> image -> f
        assert acc.filled == 1 and acc.pending
        assert acc.dg[0].tolist() == [0.25 - excess, 0.0]
        assert acc.df[0].tolist() == (f - image).tolist()


def test_anderson_with_D_zero_discards_every_candidate(monkeypatch):
    # the ZOB bound of D = 0 fails every candidate, at any residual
    monkeypatch.setattr(blockvi.solver._Anderson, "D", 0.0)
    for excess in (0.5, 2.5):
        acc, candidate = _anderson_with_a_candidate()
        plain = acc.f
        assert acc.next_start(candidate + np.array([excess, 0.0])) is plain
        assert (acc.accepted, acc.rejected, acc.kept, acc.filled) == (0, 1, 0, 0)


def test_anderson_accepts_a_residual_of_C_times_the_best():
    acc, candidate = _anderson_with_a_candidate()
    f = candidate + np.array([acc.C * acc.best, 0.0])
    out = acc.next_start(f)
    assert (acc.accepted, acc.rejected, acc.filled) == (1, 0, 2)
    assert out is not f and acc.pending
    assert acc.best == 1.0


def test_anderson_best_residual_follows_accepted_candidates():
    # an accepted span of residual 0.5 lowers the best to 0.5, so the next
    # candidate's residual 1.5 (within C = 2 of the old best) is rejected
    acc, candidate = _anderson_with_a_candidate()
    candidate = acc.next_start(candidate + np.array([0.5, 0.0]))
    assert acc.accepted == 1 and acc.best == 0.5
    acc.next_start(candidate + np.array([0.0, 1.5]))
    assert (acc.accepted, acc.rejected, acc.filled) == (1, 1, 0)
    assert acc.best == 0.5


def _nonfinite_candidates_run_plain(monkeypatch, prob, sched):
    # a NaN regulariser makes every candidate non-finite: each is rejected
    # at once, so the run is the plain one bitwise
    plain = solve(prob, sched, _accel_config(False))
    monkeypatch.setattr(blockvi.solver._Anderson, "REG", float("nan"))
    res = solve(prob, sched, _accel_config())
    assert res.acceleration["accepted"] == 0
    assert res.acceleration["rejected"] > 0
    assert res.solution.data.tobytes() == plain.solution.data.tobytes()
    assert [r.n for r in res.trace.records] == [r.n for r in plain.trace.records]


def test_anderson_nonfinite_candidate_never_runs(monkeypatch):
    _nonfinite_candidates_run_plain(monkeypatch, *_mod_skip_problem())


def test_anderson_nonfinite_row_candidate_never_runs(monkeypatch):
    # a cyclic schedule extrapolates nothing, so it forms no candidate at all:
    # even a NaN regulariser leaves its accelerated run the plain one
    prob, _ = mixed_arms_problem(3, consistent=False)
    sched = make_schedule("cyclic_partition", prob.arm_count, blocks=2)
    def never(self, x0):
        raise AssertionError("a cyclic run built an accelerator")

    monkeypatch.setattr(blockvi.solver._Anderson, "REG", float("nan"))
    monkeypatch.setattr(blockvi.solver._Anderson, "__init__", never)
    _assert_runs_plain_with_acceleration_on(prob, sched)


def test_anderson_trace_keeps_base_numbering_and_stays_in_set():
    prob, sched = _mod_skip_problem(period=5)
    res = solve(prob, sched, _accel_config(trace_every=7, snapshots=True))
    assert res.status is SolveStatus.CONVERGED
    assert res.acceleration["accepted"] > 0
    ns = [r.n for r in res.trace.records]
    assert all(b > a for a, b in zip(ns, ns[1:]))
    # every grid check is kept; the predicted ones fall between them
    assert [n for n in ns if n % 7 == 0] == list(range(0, ns[-1] + 1, 7))
    assert [k for k, _, _ in res.trace.iterates] == [0] + [n + 1 for n in ns]
    assert res.trace.iterates[-1][2] == res.solution
    for _, _, point in res.trace.iterates:
        assert np.all(np.abs(point.data) <= 2.0)


def _stock_case(kind, seed):
    """The stock problem of ``kind``, its schedule and its solver config."""
    payload = default_manifest(kind, seed)
    prob = generate_experiment(kind, payload["dimensions"], seed,
                               payload["noise"], payload["operators"]).problem
    return (prob, make_schedule(index_count=prob.arm_count, **payload["schedule"]),
            SolverConfig(x0=SpacePoint.zeros(prob.domain_shape), **payload["solver"]))


def _accelerated_stock_vi_gap(kind, seed, box=(0.0, 255.0)):
    """VI gap of the accelerated stock solution, rebuilt from the arms' public
    apply/adjoint: max_y <x - y, g(x)> / (1 + ||x||)^2 over y in C, the box
    [lo, hi] given by ``box``; with ``box=None`` (C the whole space) over the
    ball ||y - x|| <= 1 + ||x||.  Returns it with the solver's tol."""
    prob, sched, cfg = _stock_case(kind, seed)
    res = solve(prob, sched, cfg)
    assert res.status is SolveStatus.CONVERGED
    assert res.acceleration["accepted"] > 0
    x = res.solution.data
    g = np.zeros_like(x)
    for p in prob.prescriptions:
        image = p.fne.apply(p.linop.apply(res.solution))
        g += p.weight * p.linop.adjoint(image - p.target).data
    if box is None:
        return float(np.linalg.norm(g)) / (1.0 + np.linalg.norm(x)), cfg.tol
    lo, hi = box
    assert np.all((x >= lo) & (x <= hi))
    y = np.where(g > 0, lo, hi)
    return float(np.dot(x - y, g)) / (1.0 + np.linalg.norm(x)) ** 2, cfg.tol


def test_accelerated_sparse_image_solves_the_vi():
    gap, tol = _accelerated_stock_vi_gap("sparse_image", 1)
    assert gap <= 10 * tol


def test_accelerated_image_recovery_solves_the_vi():
    gap, tol = _accelerated_stock_vi_gap("image_recovery", 1)
    assert gap <= 10 * tol


def test_accelerated_signal_recovery_solves_the_vi():
    # the stock period is led by every arm, so x is extrapolated; C is the
    # whole space
    gap, tol = _accelerated_stock_vi_gap("signal_recovery", 0, box=None)
    assert gap <= 10 * tol


def test_accelerated_source_separation_solves_the_vi():
    gap, tol = _accelerated_stock_vi_gap("source_separation", 0)
    assert gap <= 10 * tol


def _count_survives_a_last_bit_change(monkeypatch, kind, seed, max_iters=None):
    # a regulariser 1e-3 larger changes only the last bits of the k x k
    # solve; the count must stay within 1.25x of the count as is, and the
    # cap makes a stalled run fail fast
    prob, sched, cfg = _stock_case(kind, seed)
    as_is = solve(prob, sched, dataclasses.replace(
        cfg, max_iters=max_iters or cfg.max_iters))
    assert as_is.status is SolveStatus.CONVERGED, as_is.trace.records[-1].n
    cap = int(1.25 * (as_is.trace.records[-1].n + 1))
    monkeypatch.setattr(blockvi.solver._Anderson, "REG",
                        blockvi.solver._Anderson.REG * (1 + 1e-3))
    res = solve(prob, sched, dataclasses.replace(cfg, max_iters=cap))
    assert res.status is SolveStatus.CONVERGED, res.trace.records[-1].n


@pytest.mark.parametrize("kind, seed, max_iters", [
    ("image_recovery", 1, 7000),
    ("image_recovery", 3, 8000),
    ("sparse_image", 3, 3700),
])
def test_kept_spans_cut_counts_that_survive_a_last_bit_change(
        monkeypatch, kind, seed, max_iters):
    # max_iters lies above the counts as is (6 593, 7 616 and 3 601) and
    # below those of a memory of 5 without the progress restart (7 401,
    # 8 201 and 3 849), which lie below those of a rule that discarded every
    # span whose candidate failed the monotone test (8 001, 9 131 and 4 607)
    _count_survives_a_last_bit_change(monkeypatch, kind, seed, max_iters)


@pytest.mark.parametrize("seed", [0, 5])
def test_source_separation_count_survives_a_last_bit_change(monkeypatch, seed):
    _count_survives_a_last_bit_change(monkeypatch, "source_separation", seed)


@pytest.mark.parametrize("seed, count", [(1, 4201), (3, 4801)])
def test_sparse_image_count_survives_a_last_bit_change(monkeypatch, seed, count):
    # count: the stock run's count when gamma 1.9 was chosen; the run as is
    # must stay within 1.25x of it (gamma 1.0 takes 5 201 and 6 601, the
    # second above that cap)
    _count_survives_a_last_bit_change(monkeypatch, "sparse_image", seed,
                                      max_iters=int(1.25 * count))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", ["mixed_arms", "feasibility"])
def test_acceleration_keeps_the_fixed_points(family, seed):
    # the prescription images F_i(L_i x) are the same across the solution
    # set, so at a tight tol the accelerated and plain runs of every schedule
    # kind (x extrapolated, or a cyclic period run plain) must give the same
    # images
    if family == "mixed_arms":
        prob, _ = mixed_arms_problem(seed, consistent=False)
    else:
        prob = feasibility_problem(seed)[0]
    tol, m = 1e-12, prob.arm_count
    for sched in [make_schedule("full", m),
                  make_schedule("mod_skip", m, expensive=[m - 1], period=3),
                  make_schedule("cyclic_partition", m, blocks=2),
                  make_schedule("explicit", m, sets=[range(m), range(m // 2)])]:
        images = []
        for accelerate in (False, True):
            res = solve(prob, sched, _config(
                gamma=1.5, max_iters=100_000, tol=tol, trace_every=10,
                x0=SpacePoint.zeros(prob.domain_shape), accelerate=accelerate))
            assert res.status is SolveStatus.CONVERGED, (sched.kind, accelerate)
            images.append(np.concatenate(
                [y.data for y in prescription_images(prob, res.solution)]))
        plain, fast = images
        assert np.linalg.norm(fast - plain) <= 1e3 * tol * np.linalg.norm(plain), \
            sched.kind


# The span maps are nonexpansive (module docstring of blockvi.solver).  Each
# pair of points is checked within a roundoff allowance of 16 eps per base
# iteration on the size of the two points: one iteration rounds each point
# by a few eps of its norm (maps of norm at most one, averaging, projection).
# The pairs y = x + d follow d through the map, which turns d towards the
# directions the map shrinks least.

def _allowance(span, *points):
    return 16 * np.finfo(float).eps * span * sum(np.linalg.norm(p) for p in points)


@pytest.mark.parametrize("kind", _STOCK_KINDS)
def test_span_map_of_x_is_nonexpansive(kind):
    # every stock period starts with every arm, so every span starts by
    # refreshing every row from x, and Phi is S plain iterations from x alone
    prob, sched, cfg = _stock_case(kind, 0)
    assert len(sched.sets[0]) == prob.arm_count
    span = -(-blockvi.solver._Anderson.SPAN // len(sched.sets)) * len(sched.sets)
    shape = prob.domain_shape

    def phi(x):
        return solve(prob, sched, _config(
            gamma=cfg.gamma, max_iters=span, tol=0.0, trace_every=span,
            x0=SpacePoint(x, shape), accelerate=False)).solution.data

    rng = np.random.default_rng(21)
    x = prob.constraint.array_projector(rng.uniform(0.0, 255.0, shape.total))
    fx = phi(x)
    for size in (10.0, 1e-3):
        d = rng.standard_normal(shape.total)
        for _ in range(12):
            d *= size / np.linalg.norm(d)
            fy = phi(x + d)
            assert np.linalg.norm(fy - fx) <= \
                np.linalg.norm(d) + _allowance(span, x, x + d), (size, kind)
            d = fy - fx


# ---------------------------------------------------------------------------
# the stop test
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["image_recovery", "signal_recovery",
                                  "sparse_image", "source_separation"])
def test_refresh_form_matches_the_explicit_residual(monkeypatch, kind):
    # a period led by every arm, then the stock sets, checked at every
    # iteration: every record reads array_residual at its own iterate, and a
    # refresh of every row that follows a check takes the directions of that
    # check's pass when the schedule's groups are the problem's, so it makes
    # no pullback; every other refresh makes one per group of its cell.  The
    # cells of signal_recovery split its fused groups, so there no refresh
    # reuses.  Checked from a seeded point of C and from the solution.
    prob, sched, cfg = _stock_case(kind, 0)
    solution = solve(prob, sched, cfg).solution.data
    every = tuple(range(prob.arm_count))
    led = make_schedule("explicit", prob.arm_count, sets=[every, *sched.sets])
    iters = 3 * len(led.sets)
    explicit, pullbacks, refreshes = [], [], []

    def counted(*args, **kwargs):
        explicit.append(None)
        return array_residual(*args, **kwargs)

    def counted_pullback(*args):
        pullbacks.append(None)
        return pullback(*args)

    def counted_refresh(cell, *args):
        pullbacks.clear()
        _refresh(cell, *args)
        refreshes.append((len(pullbacks), len(cell)))

    monkeypatch.setattr(blockvi.solver, "array_residual", counted)
    monkeypatch.setattr(blockvi.solver, "pullback", counted_pullback)
    monkeypatch.setattr(blockvi.solver, "_refresh", counted_refresh)
    rng = np.random.default_rng(23)
    scale = 1.0 + np.linalg.norm(solution) / np.sqrt(solution.size)
    start = prob.constraint.array_projector(
        solution + scale * rng.standard_normal(solution.size))
    for x0 in (start, solution):
        explicit.clear()
        refreshes.clear()
        res = solve(prob, led, _config(gamma=cfg.gamma, max_iters=iters, tol=0.0,
                                       x0=SpacePoint(x0, prob.domain_shape),
                                       snapshots=True, accelerate=False))
        assert [r.n for r in res.trace.records] == list(range(iters))
        assert len(explicit) == iters and len(refreshes) == iters
        reused = [n for n in range(1, iters) if len(led.active_set(n)) == len(every)]
        assert len(reused) >= 2
        if kind == "signal_recovery":
            reused = []
        assert refreshes == [(0 if n in reused else size, size)
                             for n, (_, size) in enumerate(refreshes)]
        for r, (_, _, x) in zip(res.trace.records, res.trace.iterates[1:]):
            assert r.residual == array_residual(prob, x.data), r.n


@pytest.mark.parametrize("accelerate", [False, True])
@pytest.mark.parametrize("case", ["image_recovery", "signal_recovery",
                                  "feasibility", "signal_led_by_every_arm"])
def test_every_record_reads_the_explicit_residual_bitwise(case, accelerate):
    # every record's residual is array_residual at its own iterate, bit for
    # bit, whether or not the next refresh reuses the check's directions:
    # single arms (the stock image run), cyclic cells of fused arms, whose
    # pass sums the problem's own groups, not the cells', one fused group
    # of 600 rows, and the stock signal period, led by every arm, whose
    # atoms split the problem's fused groups, so no refresh reuses them
    if case == "signal_led_by_every_arm":
        prob, sched, cfg = _stock_case("signal_recovery", 0)
        assert len(sched.sets[0]) == prob.arm_count
        cfg = dataclasses.replace(cfg, max_iters=600, tol=0.0, trace_every=1,
                                  snapshots=True, accelerate=accelerate)
    elif case != "feasibility":
        prob, sched, cfg = _stock_case(case, 1)
        if case == "signal_recovery":
            sched = _signal_cyclic(prob)
        cfg = dataclasses.replace(cfg, max_iters=600, tol=0.0, trace_every=7,
                                  snapshots=True, accelerate=accelerate)
    else:
        prob, _, _ = feasibility_problem(0, m=600, n=100)
        sched = make_schedule("full", prob.arm_count)
        cfg = _config(gamma=1.9, max_iters=200, tol=0.0, trace_every=1,
                      x0=SpacePoint(np.zeros(100)), snapshots=True,
                      accelerate=accelerate)
    res = solve(prob, sched, cfg)
    assert len(res.trace.records) > 50
    for r, (_, _, x) in zip(res.trace.records, res.trace.iterates[1:]):
        assert r.residual == array_residual(prob, x.data), r.n


@pytest.mark.parametrize("case, pullbacks", [("feasibility", 90),
                                              ("image_recovery", 3003)])
def test_arm_evaluations_per_solve_are_pinned(monkeypatch, case, pullbacks):
    # each check evaluates every group of the problem at its iterate, and the
    # next refresh of every row takes those directions unless a span starts
    # there.  The fused 600-row system checks all 60 iterations (60 passes),
    # and its first refresh and the 29 at span starts evaluate; the stock
    # image run (3 groups) makes 1 000 refreshes and 12 checks, 11 of whose
    # directions are reused
    if case == "feasibility":
        prob, _, _ = feasibility_problem(0, m=600, n=100)
        sched = make_schedule("full", prob.arm_count)
        cfg = _config(gamma=1.9, max_iters=60, tol=0.0, trace_every=1,
                      x0=SpacePoint(np.zeros(100)))
    else:
        prob, sched, cfg = _stock_case(case, 1)
        cfg = dataclasses.replace(cfg, max_iters=1000)
    calls = []

    def counted(*args):
        calls.append(None)
        return pullback(*args)

    monkeypatch.setattr(blockvi.core, "pullback", counted)
    monkeypatch.setattr(blockvi.solver, "pullback", counted)
    res = solve(prob, sched, cfg)
    assert cfg.accelerate and res.status is SolveStatus.MAX_ITERS
    assert len(calls) == pullbacks


def test_zero_tol_run_never_stops_early():
    # within a few hundred iterations kappa = gamma / sum_j w_j b_j times the
    # gradient falls below half an ulp of x: the refresh then leaves x as it
    # is, while the gradient, and so the residual, need not be 0.  Every
    # check reads the explicit residual at its iterate, so a tol = 0 run
    # stops only where that residual is 0.
    prob, _ = mixed_arms_problem(0, consistent=False)
    for accelerate in (False, True):
        res = solve(prob, make_schedule("full", prob.arm_count),
                    _config(gamma=1.5, max_iters=400, tol=0.0, trace_every=7,
                            x0=SpacePoint(np.zeros(6)), accelerate=accelerate))
        if res.status is SolveStatus.CONVERGED:
            assert array_residual(prob, res.solution.data) == 0.0
        else:
            assert res.trace.records[-1].n == 399


def test_record_norms_are_np_linalg_norm_bitwise():
    # records take their norms as math.sqrt(v @ v), which must read what
    # np.linalg.norm reads, bit for bit
    prob, _ = mixed_arms_problem(2, consistent=False)
    res = solve(prob, make_schedule("full", prob.arm_count),
                _config(gamma=1.5, max_iters=30, tol=0.0, x0=SpacePoint(np.zeros(6)),
                        accelerate=False, snapshots=True))
    xs = [x.data for _, _, x in res.trace.iterates]
    for r in res.trace.records:
        assert r.step_norm == float(np.linalg.norm(xs[r.n + 1] - xs[r.n])), r.n
    rng = np.random.default_rng(43)
    for size in (1, 7, 1024):
        x, grad = rng.standard_normal(size), rng.standard_normal(size)
        box = ConstraintSet.box(np.full(size, -0.5), np.full(size, 0.5))
        # one arm whose gradient w L*(F(L x) - p) is grad: L = Id, F maps
        # everything to grad, p = 0 and w = 1
        shape = BlockShape.vector(size)
        arm = Prescription(Identity(shape), SingletonProjector(SpacePoint(grad, shape)),
                           SpacePoint.zeros(shape), 1.0)
        for constraint in (box, ConstraintSet.whole_space()):
            step = x - constraint.array_projector(x - grad)
            expected = float(np.linalg.norm(step)) / (1.0 + float(np.linalg.norm(x)))
            problem = assemble_problem(constraint, [arm])
            assert array_residual(problem, x) == expected, size


@pytest.mark.parametrize("seed, gamma, accelerate, stop", [
    (5, 1.9, False, 294),
    (2, 1.9, True, 70),
])
def test_run_stops_at_the_first_check_that_meets_tol(seed, gamma, accelerate,
                                                     stop):
    # at n = stop the explicit residual first reads 0 at a record; every
    # check reads that residual at its own iterate, so a tol = 0 run stops
    # at the first record whose explicit residual is 0
    prob, _ = mixed_arms_problem(seed, consistent=False)
    res = solve(prob, make_schedule("full", prob.arm_count),
                _config(gamma=gamma, max_iters=1000, tol=0.0, trace_every=7,
                        x0=SpacePoint(np.zeros(6)), accelerate=accelerate,
                        snapshots=True))
    met = [r.n for r, (_, _, x) in zip(res.trace.records, res.trace.iterates[1:])
           if array_residual(prob, x.data) == 0.0]
    assert res.status is SolveStatus.CONVERGED
    assert res.trace.records[-1].n == met[0] == stop


def _checks_by_the_rule(residuals, tol, trace_every, max_iters):
    """Reference of where a run checks its stop, given the residual after
    every iteration: at n = 0, then at the next grid check (a multiple of
    trace_every, or max_iters - 1) or, if sooner, at n* = n + ceil(ln(tol /
    r_n) / rho), rho = ln(r_n / r_n') / (n - n'), from the last two checks
    (n', r_n') and (n, r_n) when 0 < tol and r_n < r_n'."""
    checks = [0]
    while residuals[checks[-1]] > tol and checks[-1] < max_iters - 1:
        n = checks[-1]
        following = min((n // trace_every + 1) * trace_every, max_iters - 1)
        if len(checks) > 1 and tol > 0 and residuals[n] < residuals[checks[-2]]:
            rho = math.log(residuals[n] / residuals[checks[-2]]) / (n - checks[-2])
            crossing = n + math.log(tol / residuals[n]) / rho
            if crossing < following:        # a float: it may be huge
                following = math.ceil(crossing)
        checks.append(following)
    return checks


# (stop, grid stop) of stock runs: the iterations to the stop, and to the
# first check on the trace_every grid whose residual meets tol
_STOPS = {
    **{("signal_recovery", seed): stops for seed, stops in enumerate(
        zip((297, 254, 297, 270, 264, 263, 276, 258),
            (301, 301, 301, 301, 301, 301, 301, 301)))},
    ("sparse_image", 1): (2765, 2801),
}


@pytest.mark.parametrize("kind, seed", list(_STOPS))
def test_stop_checks_fall_where_the_rule_places_them(kind, seed):
    # checks only read x, so a run that records every residual (trace_every
    # = 1, tol = 0) has the same iterates; the reference rule, fed those
    # residuals, places the stock run's every record and its stop
    stop, grid_stop = _STOPS[kind, seed]
    prob, sched, cfg = _stock_case(kind, seed)
    res = solve(prob, sched, cfg)
    every = solve(prob, sched, dataclasses.replace(
        cfg, tol=0.0, trace_every=1, max_iters=grid_stop, snapshots=True))
    residuals = [r.residual for r in every.trace.records]
    ns = [r.n for r in res.trace.records]
    assert ns == _checks_by_the_rule(residuals, cfg.tol, cfg.trace_every,
                                     cfg.max_iters)
    assert res.status is SolveStatus.CONVERGED and ns[-1] + 1 == stop
    first = next(n for n, r in enumerate(residuals) if r <= cfg.tol)
    grid = next(n for n in range(0, grid_stop, cfg.trace_every)
                if residuals[n] <= cfg.tol)
    assert first <= ns[-1] <= grid == grid_stop - 1
    assert res.solution.data.tobytes() == \
        every.trace.iterates[ns[-1] + 1][2].data.tobytes()
    assert res.trace.final_residual == vi_residual(prob, res.solution)


@pytest.mark.parametrize("tol, trace_every, fake", [
    (0.0, 7, None),                                  # tol = 0
    (1e-8, 1, None),                                 # every iteration
    (1e-6, 10, [1.0, 2e-4, 1e-7]),                   # falls: checked at 17
    (0.0, 10, [1.0, 2e-4, 1e-7]),
    (1e-6, 10, [1e-3, 2e-3, 3e-3]),                  # rose
    (1e-6, 10, [1e-3, 1e-3, 1e-3]),                  # did not fall
    (1e-6, 10, [1.0, math.nan, 1e-5, 1e-7]),
], ids=["tol-0", "every-iteration", "falling", "falling-tol-0", "rising",
        "flat", "nan"])
def test_stop_checks_stay_on_the_grid_without_a_prediction(monkeypatch, tol,
                                                           trace_every, fake):
    # only a residual that fell between the last two checks, towards a tol
    # above 0, places a check off the grid; the falling case shows one
    prob, _ = mixed_arms_problem(0, consistent=False)
    sched = make_schedule("cyclic_partition", prob.arm_count, blocks=2)
    if fake is not None:       # every check of a cyclic run is explicit
        values = iter(fake + [fake[-1]] * 100)
        monkeypatch.setattr(blockvi.solver, "array_residual",
                            lambda problem, x, directions=None: next(values))
    res = solve(prob, sched, _config(gamma=1.5, max_iters=100, tol=tol,
                                     trace_every=trace_every,
                                     x0=SpacePoint(np.zeros(6))))
    ns = [r.n for r in res.trace.records]
    if fake is not None and tol > 0 and fake[1] < fake[0]:
        assert ns == [0, 10, 17]
    else:
        assert ns == [n for n in range(ns[-1] + 1)
                      if n % trace_every == 0 or n == 99]
        assert ns[-1] == 99 or res.status is SolveStatus.CONVERGED


# ---------------------------------------------------------------------------
# trace
# ---------------------------------------------------------------------------

def test_trace_records_strictly_increasing():
    trace = SolverTrace()
    trace.add(TraceRecord(0, 0.0, 1.0, 1.0, 0))
    with pytest.raises(InvalidParameter):
        trace.add(TraceRecord(0, 0.1, 0.5, 0.5, 0))


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


@pytest.mark.parametrize("accelerate", [False, True])
def test_trace_indexes_the_schedules_own_sets(accelerate):
    # a record's set id once indexed a registry of the sets met so far, which
    # no artifact wrote: the record at n = 3 read 1 instead of 3 here
    prob, xbar = mixed_arms_problem(0, False)
    sched = make_schedule("cyclic_partition", prob.arm_count, blocks=4)
    assert len(sched.sets) == 4
    cfg = _config(gamma=1.5, max_iters=200, tol=0.0, trace_every=3,
                  x0=SpacePoint.zeros(xbar.shape), accelerate=accelerate)
    records = solve(prob, sched, cfg).trace.records
    assert [r.n for r in records[:3]] == [0, 3, 6]
    for r in records:
        assert r.active_set_id == r.n % 4
        assert sched.sets[r.active_set_id] == sched.active_set(r.n)


def test_snapshots_recorded_when_requested():
    prob = scalar_problem(ConstraintSet.whole_space(), 5.0)
    cfg = _config(max_iters=50, snapshots=True)
    res = solve(prob, make_schedule("full", 1), cfg)
    ks = [k for k, _, _ in res.trace.iterates]
    assert ks[0] == 0
    assert ks == sorted(ks)
    assert res.trace.iterates[-1][2] == res.solution


def test_snapshots_stay_arrays_until_solve_returns(monkeypatch):
    # the loop keeps each snapshot as its iterate's array, and solve wraps
    # them in SpacePoints once, after the last refresh; the trace still
    # holds a SpacePoint per snapshot, taken at every record
    wrapped = []
    point, refresh = blockvi.solver.SpacePoint, blockvi.solver._refresh

    def flagged_point(*args, **kwargs):
        wrapped.append(None)
        return point(*args, **kwargs)

    def checked_refresh(*args):
        assert not wrapped
        return refresh(*args)

    monkeypatch.setattr(blockvi.solver, "SpacePoint", flagged_point)
    monkeypatch.setattr(blockvi.solver, "_refresh", checked_refresh)
    prob, _ = mixed_arms_problem(0, consistent=False)
    res = solve(prob, make_schedule("full", prob.arm_count),
                _config(gamma=1.5, max_iters=40, tol=0.0, trace_every=3,
                        x0=SpacePoint(np.zeros(6)), snapshots=True))
    assert wrapped
    assert [k for k, _, _ in res.trace.iterates] == \
        [0] + [r.n + 1 for r in res.trace.records]
    assert all(type(x) is point for _, _, x in res.trace.iterates)
    assert res.trace.iterates[-1][2] == res.solution


def test_solver_docstring_states_rules_not_counts():
    # measured counts go stale with every change to the iteration, so the
    # docstring names the Anderson constants, not their values, and quotes
    # no count (the project writes counts with grouped thousands, "7 185")
    doc = blockvi.solver.__doc__
    assert re.findall(r"\d \d{3}", doc) == []
    named = set(re.findall(r"``(?:_Anderson\.)?([A-Z][A-Z_]*)``", doc))
    assert named == {name for name in vars(blockvi.solver._Anderson)
                     if name.isupper()}
