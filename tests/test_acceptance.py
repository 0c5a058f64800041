"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 7's iteration budget is asserted exactly as stated; the
companion test directly below it runs the same instance with a larger
budget and checks that it converges within the same time gate.
"""

import itertools
import time
import warnings

import numpy as np

from blockvi.cli import (
    default_manifest,
    generate_experiment,
    load_manifest,
    run_manifest,
    write_json,
    write_matrix_csv,
    write_vector_csv,
)
from blockvi.core import (
    ConstraintSet,
    Prescription,
    arm_gaps,
    assemble_problem,
    inconsistency_bound,
    prescription_images,
)
from blockvi.errors import CoverageError
from blockvi.fne_ops import (
    ScaledFne,
    dead_zone_root,
    firm_nonexpansiveness_excess,
    log_threshold,
    root_shift,
    soft_threshold,
)
from blockvi.linops import DenseMatrix
from blockvi.fne_ops import ResidualOf, SingletonProjector
from blockvi.solver import SolveStatus, SolverConfig, make_schedule, solve
from blockvi.space import BlockShape, SpacePoint

from conftest import adjoint_defect, random_point
from problem_zoo import mixed_arms_problem
from test_fne_ops import _equiv_members, catalog
from test_linops import _catalog as linop_catalog


def _report(num: int, label: str, passed: bool):
    print(f"ACCEPTANCE {num}: {label}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {num} ({label})"


# ---------------------------------------------------------------------------
# 1. least-squares oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_least_squares_oracle():
    rng = np.random.default_rng(202401)
    m, n = 12, 8
    matrix = rng.standard_normal((m, n))
    rhs = rng.standard_normal(m)          # generic: the system is inconsistent
    prescriptions = [
        Prescription(DenseMatrix(matrix[i:i + 1, :]),
                     ResidualOf(SingletonProjector(SpacePoint([rhs[i]]))),
                     SpacePoint([0.0]), 1.0 / m)
        for i in range(m)
    ]
    problem = assemble_problem(ConstraintSet.whole_space(), prescriptions)
    config = SolverConfig(gamma=1.9, max_iters=50000, tol=1e-10,
                          x0=SpacePoint(np.zeros(n)), trace_every=25)
    started = time.perf_counter()
    result = solve(problem, make_schedule("full", m), config)
    elapsed = time.perf_counter() - started
    oracle = np.linalg.solve(matrix.T @ matrix, matrix.T @ rhs)
    rel = np.linalg.norm(result.solution.data - oracle) / np.linalg.norm(oracle)
    ok = (result.status is SolveStatus.CONVERGED and rel <= 1e-6
          and elapsed < 1.0)
    print(f"    rel_error={rel:.2e} runtime={elapsed:.2f}s")
    _report(1, "least-squares oracle equivalence", ok)


# ---------------------------------------------------------------------------
# 2. consistent-case exactness
# ---------------------------------------------------------------------------

def test_criterion_2_consistent_exactness():
    worst = 0.0
    for seed in range(20):
        problem, _ = mixed_arms_problem(seed, consistent=True)
        config = SolverConfig(gamma=1.5, max_iters=200000, tol=1e-9,
                              x0=SpacePoint(np.zeros(6)), trace_every=20)
        result = solve(problem, make_schedule("full", problem.arm_count), config)
        assert result.status is SolveStatus.CONVERGED, seed
        worst = max(worst, arm_gaps(problem, result.solution.data).max())
    print(f"    worst prescription gap over 20 instances: {worst:.2e}")
    _report(2, "consistent-case exactness", worst <= 1e-6)


# ---------------------------------------------------------------------------
# 3. prescription-image uniqueness across starts and schedules
# ---------------------------------------------------------------------------

def test_criterion_3_image_uniqueness():
    start_rng = np.random.default_rng(202403)
    worst_image, worst_bound = 0.0, 0.0
    for seed in range(100, 110):
        problem, _ = mixed_arms_problem(seed, consistent=False)
        m = problem.arm_count
        schedules = [
            make_schedule("full", m),
            make_schedule("cyclic_partition", m, blocks=2, always_active=[0]),
            make_schedule("mod_skip", m, expensive=[m - 1], period=5),
        ]
        starts = [SpacePoint(np.zeros(6))] + [
            SpacePoint(start_rng.uniform(-1.5, 1.5, 6)) for _ in range(2)]
        images, bounds = [], []
        for schedule, x0 in itertools.product(schedules, starts):
            config = SolverConfig(gamma=1.5, max_iters=300000, tol=1e-8,
                                  x0=x0, trace_every=25)
            result = solve(problem, schedule, config)
            assert result.status is SolveStatus.CONVERGED, seed
            images.append(prescription_images(problem, result.solution))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                bounds.append(inconsistency_bound(problem, result.solution,
                                                  tol=1e-6))
        for a, b in itertools.combinations(images, 2):
            worst_image = max(worst_image,
                              max((pa - pb).norm() for pa, pb in zip(a, b)))
        worst_bound = max(worst_bound, max(bounds) - min(bounds))
    print(f"    worst image gap={worst_image:.2e} "
          f"worst bound spread={worst_bound:.2e}")
    _report(3, "prescription-image uniqueness",
            worst_image <= 1e-5 and worst_bound <= 1e-5)


# ---------------------------------------------------------------------------
# 4. operator certification suite
# ---------------------------------------------------------------------------

def test_criterion_4_operator_certification():
    ok = True
    for name, op in catalog().items():
        excess = firm_nonexpansiveness_excess(
            op._apply, op.domain_shape.total, n_pairs=1000, seed=11, scale=2.0)
        if excess > 0.0:
            print(f"    FNE violation for {name}: {excess:.2e}")
            ok = False
    rng = np.random.default_rng(202404)
    for op in linop_catalog(rng):
        if adjoint_defect(op, rng, n_pairs=500) > 0.0:
            print(f"    adjoint defect for {op.kind}")
            ok = False
        bound = op.norm_sq
        for _ in range(500):
            x = random_point(rng, op.input_shape)
            x = (1.0 / x.norm()) * x
            if op.apply(x).norm() ** 2 > bound * (1.0 + 1e-9):
                print(f"    norm certification failed for {op.kind}")
                ok = False
                break
    rho = 1.5
    v = 4 * rng.standard_normal(2000)
    moreau_gap = np.max(np.abs(np.clip(v, -rho, rho)
                               + soft_threshold(v, rho) - v))
    print(f"    moreau identity gap: {moreau_gap:.2e}")
    ok = ok and moreau_gap <= 1e-12
    _report(4, "operator certification suite", ok)


# ---------------------------------------------------------------------------
# 5. proxification equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_proxification_equivalence():
    rng = np.random.default_rng(202405)
    ok = True
    for name in ("hard", "block", "svd", "root"):
        pr, members = _equiv_members(name, rng)
        shape = pr.target.shape
        for _ in range(500):
            y = SpacePoint(3 * rng.standard_normal(pr.target.dim), shape)
            source = (pr.source_map(y) - pr.source_value).norm() <= 1e-9
            prox = (pr.fne.apply(y) - pr.target).norm() <= 1e-9
            if source != prox:
                ok = False
        for y in members:
            if (pr.source_map(y) - pr.source_value).norm() > 1e-9 or \
               (pr.fne.apply(y) - pr.target).norm() > 1e-9:
                ok = False
    anchors = (abs(dead_zone_root(0.13, 0.05) - 0.12) <= 1e-12
               and abs(root_shift(0.12, 0.05) - 0.08) <= 1e-12
               and abs(root_shift(dead_zone_root(0.13, 0.05), 0.05)
                       - soft_threshold(0.13, 0.05)) <= 1e-12)
    _report(5, "proxification equivalence", ok and anchors)


# ---------------------------------------------------------------------------
# 6. weakly convex scaling necessity
# ---------------------------------------------------------------------------

def test_criterion_6_weakly_convex_scaling():
    rho = 1.5
    gamma = 0.05 / rho ** 2
    raw = lambda v: log_threshold(v, rho, gamma)
    scaled = ScaledFne(raw, 0.95, BlockShape.vector(8), sample_scale=0.3)
    scaled_excess = firm_nonexpansiveness_excess(
        scaled._apply, 8, n_pairs=1000, seed=202406, scale=0.3)
    unscaled_excess = firm_nonexpansiveness_excess(
        raw, 1, n_pairs=100_000, seed=202406, scale=0.3)
    print(f"    scaled excess={scaled_excess:.2e} "
          f"unscaled worst violation={unscaled_excess:.2e}")
    _report(6, "weakly convex scaling necessity",
            scaled_excess <= 0.0 and unscaled_excess > 0.0)


# ---------------------------------------------------------------------------
# 7. desk-scale piecewise/dictionary recovery analog
# ---------------------------------------------------------------------------

def _signal_analog_run(max_iters):
    payload = default_manifest("signal_recovery", 7)
    data = generate_experiment("signal_recovery", payload["dimensions"], 7,
                               payload["noise"], payload["operators"])
    problem = data.problem
    schedule = make_schedule("cyclic_partition", problem.arm_count,
                             blocks=4, always_active=[0, 1])
    config = SolverConfig(gamma=1.9, max_iters=max_iters, tol=1e-6,
                          x0=SpacePoint.zeros(problem.domain_shape),
                          trace_every=100)
    started = time.perf_counter()
    result = solve(problem, schedule, config)
    elapsed = time.perf_counter() - started
    truth = data.ground_truth
    rec_err = (result.solution - truth).norm() / truth.norm()
    obs_err = (data.observation - truth).norm() / truth.norm()
    return result, elapsed, rec_err, obs_err


def test_criterion_7_signal_analog_stated_budget():
    # Stated budget: 5000 iterations.  Each cyclic cell of dictionary rows
    # is one activation atom with a shared certified step bound, which
    # brings the 4-block cyclic schedule to about 4000 iterations.
    result, elapsed, rec_err, obs_err = _signal_analog_run(5000)
    converged = result.status is SolveStatus.CONVERGED
    print(f"    status={result.status.value} residual="
          f"{result.trace.final_residual:.2e} time={elapsed:.1f}s "
          f"rec_err={rec_err:.3f} obs_err={obs_err:.3f}")
    ok = converged and elapsed < 30.0 and rec_err <= obs_err
    _report(7, "signal analog within stated 5000-iteration budget", ok)


def test_criterion_7_signal_analog_measured_budget():
    # Same instance and tolerances with a generous budget: convergence,
    # time gate and reconstruction quality hold regardless of the stated
    # iteration count.
    result, elapsed, rec_err, obs_err = _signal_analog_run(90000)
    ok = (result.status is SolveStatus.CONVERGED and elapsed < 30.0
          and result.trace.final_residual <= 1e-6 and rec_err <= obs_err)
    print(f"    iterations={result.trace.records[-1].n + 1} "
          f"time={elapsed:.1f}s rec_err={rec_err:.3f} obs_err={obs_err:.3f}")
    _report(7, "signal analog at measured budget (supporting)", ok)


# ---------------------------------------------------------------------------
# 8. schedule covering validation
# ---------------------------------------------------------------------------

def test_criterion_8_schedule_covering():
    ok = make_schedule("full", 152).K == 1
    cyclic = make_schedule("cyclic_partition", 152, blocks=4,
                           always_active=[0, 1])
    ok = ok and cyclic.K == 4
    ok = ok and make_schedule("mod_skip", 152, expensive=[0], period=5).K == 5
    try:
        make_schedule("explicit", 3, sets=[[0], [1]])
        ok = False
    except CoverageError:
        pass
    _report(8, "schedule covering validation", ok)


# ---------------------------------------------------------------------------
# 9. manifest determinism
# ---------------------------------------------------------------------------

def _run_twice(tmp_path, kind, seed, payload_mutator=None):
    outputs = []
    for tag in ("a", "b"):
        d = tmp_path / f"{kind}_{tag}"
        d.mkdir()
        payload = default_manifest(kind, seed, output_dir="results")
        payload["solver"].update({"max_iters": 150, "trace_every": 10,
                                  "snapshots": True})
        if payload_mutator:
            payload_mutator(payload, d)
        path = d / "manifest.json"
        write_json(payload, path)
        run_manifest(load_manifest(path))
        outputs.append(d / "results")
    return outputs


def _assert_identical(outputs):
    names = sorted(p.name for p in outputs[0].iterdir())
    assert names == sorted(p.name for p in outputs[1].iterdir())
    for name in names:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        if name == "trace.csv":
            # wall-clock seconds are physically non-deterministic; every
            # other column must match byte for byte (see decisions ledger)
            rows_a = a.decode().splitlines()
            rows_b = b.decode().splitlines()
            assert len(rows_a) == len(rows_b)
            for ra, rb in zip(rows_a, rows_b):
                ca, cb = ra.split(","), rb.split(",")
                del ca[1], cb[1]
                assert ca == cb, name
        else:
            assert a == b, name


def test_criterion_9_determinism(tmp_path):
    for kind, seed in [("image_recovery", 3), ("signal_recovery", 7),
                       ("sparse_image", 5), ("source_separation", 9)]:
        _assert_identical(_run_twice(tmp_path, kind, seed))

    rng = np.random.default_rng(202409)
    shared = tmp_path / "data"
    shared.mkdir()
    write_matrix_csv(rng.standard_normal((10, 4)), shared / "a.csv")
    write_vector_csv(rng.standard_normal(10), shared / "b.csv")

    def custom_mutator(payload, _d):
        payload["operators"] = {"matrix_csv": str(shared / "a.csv"),
                                "rhs_csv": str(shared / "b.csv")}

    _assert_identical(_run_twice(tmp_path, "custom", 0, custom_mutator))
    _report(9, "manifest determinism", True)
