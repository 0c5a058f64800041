"""Tests of the benchmark itself: each output check must reject a wrong
answer, the determinism reference must follow the program's version, and the
traced run must survive entry points the program lacks."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench_checks as bc
import run_bench
from bench_trace import (ARM_ENTRY_POINTS, COVERAGE_BAR, MODULE_ENTRY_POINTS,
                         Tracer, check_coverage, span_difference)
from blockvi.cli import runner, write_json, write_matrix_csv, write_vector_csv
from blockvi.cli.main import main as blockvi_main
from blockvi.core import ConstraintSet, Prescription, assemble_problem
from blockvi.fne_ops import ResidualOf, SingletonProjector
from blockvi.linops import DenseMatrix
from blockvi.solver import SolverConfig, make_schedule, solve
from blockvi.space import SpacePoint

HERE = Path(__file__).resolve().parent
TOL = 1e-10


def _system(seed=3, m=12, n=4):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((m, n))
    return matrix, matrix @ rng.standard_normal(n) + rng.standard_normal(m)


def _solved(box):
    """A least-squares problem on C = box (or the whole space), solved."""
    matrix, rhs = _system()
    m, n = matrix.shape
    arms = [Prescription(DenseMatrix(matrix[i:i + 1]),
                         ResidualOf(SingletonProjector(SpacePoint([rhs[i]]))),
                         SpacePoint([0.0]), 1.0 / m) for i in range(m)]
    constraint = ConstraintSet.whole_space() if box is None else \
        ConstraintSet.box(np.full(n, box[0]), np.full(n, box[1]))
    problem = assemble_problem(constraint, arms)
    result = solve(problem, make_schedule("full", m),
                   SolverConfig(gamma=1.9, max_iters=100000, tol=TOL,
                                x0=SpacePoint(np.zeros(n))))
    return problem, result.solution.data.copy(), matrix, rhs


@pytest.mark.parametrize("box", [(-0.2, 0.2), None])
def test_optimality_rejects_perturbed_point(box):
    problem, x, _, _ = _solved(box)
    assert bc.check_in_set(x, box)[0]
    assert bc.check_optimality(problem, x, box, TOL)[0]
    moved = x.copy()
    moved[0] = 0.0 if box else moved[0] + 1e-3   # still inside C
    assert bc.check_in_set(moved, box)[0]
    passed, value = bc.check_optimality(problem, moved, box, TOL)
    assert not passed and value > bc.OPTIMALITY_FACTOR * TOL


def test_in_set_rejects_point_outside_box():
    assert not bc.check_in_set(np.array([0.0, 255.5]), (0.0, 255.0))[0]
    assert not bc.check_in_set(np.array([np.nan]), None)[0]


def test_lstsq_rejects_wrong_oracle():
    _, x, matrix, rhs = _solved(None)
    assert bc.check_lstsq(matrix, rhs, x)[0]
    assert not bc.check_lstsq(matrix, rhs + 1e-3, x)[0]
    assert not bc.check_lstsq(matrix[1:], rhs[1:], x)[0]


def test_recovery_rejects_worse_than_observation():
    truth = np.ones(4)
    assert bc.check_recovery(truth + 0.1, truth, truth + 0.2)[0]
    assert not bc.check_recovery(truth + 0.3, truth, truth + 0.2)[0]


def _write_results(directory: Path, seconds: str):
    directory.mkdir()
    (directory / "recovered.csv").write_text("value\n1.5\n2.25\n")
    (directory / "summary.json").write_text('{"iterations": 2}\n')
    (directory / "trace.csv").write_text(
        f"n,seconds,residual,step_norm,active_set_id\n0,{seconds},0.5,1,0\n")


def test_digest_ignores_seconds_and_rejects_flipped_byte(tmp_path):
    _write_results(tmp_path / "a", "0.001")
    _write_results(tmp_path / "b", "0.250")
    ref = bc.artifact_digest(tmp_path / "a")
    assert bc.check_digest(bc.artifact_digest(tmp_path / "b"), ref)[0]
    assert bc.check_digest(ref, None)[0]
    for name in ("recovered.csv", "summary.json", "trace.csv"):
        path = tmp_path / "b" / name
        original = path.read_bytes()
        flipped = bytearray(original)
        flipped[-2] ^= 0x01
        path.write_bytes(bytes(flipped))
        assert not bc.check_digest(bc.artifact_digest(tmp_path / "b"), ref)[0], name
        path.write_bytes(original)


@pytest.fixture
def small_bench(tmp_path, monkeypatch):
    """run_bench on a 12x4 least-squares system, against a copy of the
    program under tmp_path/src that a test may edit."""
    shutil.copytree(run_bench.SRC / "blockvi", tmp_path / "src" / "blockvi",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(run_bench, "SRC", tmp_path / "src")
    monkeypatch.setattr(run_bench, "OUT", tmp_path / "out")
    monkeypatch.setattr(run_bench, "LSQ_SHAPE", (12, 4))
    monkeypatch.setattr(run_bench, "MIN_SETUPS", 1)
    (tmp_path / "out").mkdir()

    def run(**kwargs):
        return run_bench.run("lsq_diagnostics", 0, 0.0, False, **kwargs)

    return run


def test_determinism_reference_follows_program_version(small_bench, monkeypatch):
    first = small_bench()
    assert first["result"]["correct"] and first["result"]["failed"] == 0
    runner_py = run_bench.SRC / "blockvi" / "cli" / "runner.py"
    source = runner_py.read_text()
    assert source.count('"kind": manifest.kind,') == 1
    runner_py.write_text(source.replace('"kind": manifest.kind,',
                                        '"kind": manifest.kind, "extra": 1,'))
    changed = small_bench()          # new summary.json bytes, new program
    assert changed["program"] != first["program"]
    assert changed["result"]["correct"] and changed["result"]["failed"] == 0
    # the same program writing other bytes than in the earlier run fails
    monkeypatch.setattr(bc, "artifact_digest", lambda _: "0" * 64)
    again = small_bench()
    assert not again["result"]["correct"] and again["result"]["failed"] == 1
    assert not again["checks"][0]["deterministic"][0]


def test_holdout_solves_the_held_back_instances(small_bench):
    report = small_bench(holdout=True)
    assert report["instances"] == list(run_bench.WORKLOADS["lsq_diagnostics"].holdout)
    assert report["result"]["correct"] and report["result"]["failed"] == 0


def test_coverage_bar_fails_on_unwrapped_slow_call():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])
    layer = tracer.wrap("linops.fwd", lambda: now.__setitem__(0, now[0] + 1.0))

    def solve_body(unwrapped_s):
        for _ in range(10):
            layer()
        now[0] += 0.5 + unwrapped_s     # loop overhead, then an unwrapped call

    solve = tracer.wrap("solver", solve_body)
    for unwrapped_s, passed in ((0.0, True), (5.0, False)):
        before, start = tracer.snapshot(), now[0]
        solve(unwrapped_s)
        profile = span_difference(tracer.snapshot(), before)
        ok, share = check_coverage(profile, now[0] - start)
        assert ok is passed
        assert share == pytest.approx(10.0 / (10.5 + unwrapped_s))
    assert 10.0 / 15.5 < COVERAGE_BAR <= 10.0 / 10.5


def test_traced_run_survives_missing_entry_points(tmp_path):
    matrix, rhs = _system()
    write_matrix_csv(matrix, tmp_path / "matrix.csv")
    write_vector_csv(rhs, tmp_path / "rhs.csv")
    write_json({"kind": "custom", "seed": 0, "output_dir": "results",
                "operators": {"matrix_csv": str(tmp_path / "matrix.csv"),
                              "rhs_csv": str(tmp_path / "rhs.csv")},
                "solver": {"gamma": 1.9, "max_iters": 20000, "tol": 1e-8,
                           "trace_every": 1},
                "schedule": {"kind": "full"}}, tmp_path / "manifest.json")
    original_solve = runner.solve
    tracer = Tracer()
    try:
        tracer.install(
            MODULE_ENTRY_POINTS + (("cli.generate", "blockvi.cli.runner", "gone"),
                                   ("solver", "blockvi.no_such_module", "solve")),
            ARM_ENTRY_POINTS + (("linops.fwd", "linop", "_gone"),))
        code = blockvi_main(["run", str(tmp_path / "manifest.json")])
    finally:
        tracer.restore()
    assert code == 0
    assert runner.solve is original_solve
    assert tracer.untraced == {"blockvi.cli.runner:gone",
                               "blockvi.no_such_module:solve",
                               "Prescription.linop._gone"}
    layers = {layer for layer, _ in tracer.spans}
    assert {"solver", "fne_ops", "linops.fwd", "core.residual",
            "cli.artifacts"} <= layers
    calls, solver_self, solver_wall = tracer.spans[("solver", None)]
    assert calls == 1 and 0.0 < solver_self < solver_wall
    assert tracer.counts["space.points"] > 0
    assert tracer.counts["cli.artifact_bytes"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "signal_recovery",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_metric_names_and_units_match_benchmark_json():
    from run_bench import END_TO_END_UNITS, PER_LAYER_UNITS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
