"""Benchmark of ``blockvi``: wall time to tolerance on four workloads, each
loading a different layer, with a separate traced per-layer profile.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run_bench.py --workload all     # every workload, both modes

Run it from the repository root; it imports the package from ``src/``.  Each
solve is a ``blockvi run`` of a manifest the benchmark writes, in a process of
its own with BLAS pinned to one thread (``bench_child.py``).  A run repeats
whole rounds (one solve of every instance of the workload) until ``--seconds``
have passed, checks every solve's outputs (``bench_checks.py``) and prints a
report whose last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over rounds;
with ``--trace 1`` every instance is solved once untraced and once traced
(``bench_trace.py``), and the metrics are the per-layer ones.  Run outputs go
to ``bench/out/``.  See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_SETUPS = 5           # set-up measurements per untraced run
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    kind: str            # experiment kind of the manifest
    instances: tuple     # manifest seeds solved in every round
    holdout: tuple       # seeds kept back for confirming claims (--holdout)
    box: Optional[tuple]  # the constraint set C, or None for the whole space


# The instances are fixed: iterations to tol swing by up to 80% between stock
# seeds (signal_recovery 3 101-5 701 over seeds 0-9), which would bury any
# change in code speed.  --seed only rotates the order within a round.
WORKLOADS = {
    "image_recovery": Workload("image_recovery", (1,), (3,), (0.0, 255.0)),
    "signal_recovery": Workload("signal_recovery", (0, 1), (7,), None),
    "sparse_image": Workload("sparse_image", (3,), (1,), (0.0, 255.0)),
    "lsq_diagnostics": Workload("custom", (0,), (1,), None),
}
LSQ_SHAPE = (600, 100)
LSQ_NOISE = 0.5          # residual noise that makes the system inconsistent

END_TO_END_UNITS = {
    "time_to_tol_s": "s", "iters_to_tol": "count", "us_per_iter": "us",
    "arm_updates_per_s": "1/s", "setup_s": "s", "run_s": "s",
    "peak_rss_mib": "MiB",
}
PER_LAYER_UNITS = {
    "cli.manifest_s": "s", "cli.generate_s": "s", "cli.artifacts_s": "s",
    "cli.artifact_bytes": "bytes", "core.inconsistency_s": "s",
    "solver.bounds_s": "s", "solver.bounds_calls": "count",
    "solver.self_us_per_iter": "us", "solver.arm_updates": "count",
    "linops.fwd_us_per_iter": "us", "linops.adj_us_per_iter": "us",
    "linops.calls": "count", "fne_ops.us_per_iter": "us",
    "fne_ops.calls": "count", "core.project_us_per_iter": "us",
    "core.residual_us_per_call": "us", "core.residual_calls": "count",
    "space.points_per_iter": "count", "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def program_digest(src: Path) -> str:
    """SHA-256 over the package's sources and the Python and numpy versions
    that run them: what must stay the same for outputs to repeat bytewise."""
    import numpy

    digest = hashlib.sha256(
        f"{platform.python_version()} {numpy.__version__}".encode())
    for path in sorted((src / "blockvi").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def lsq_system(seed: int):
    """Seeded inconsistent Gaussian system (matrix, rhs)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal(LSQ_SHAPE)
    rhs = matrix @ rng.standard_normal(LSQ_SHAPE[1]) \
        + LSQ_NOISE * rng.standard_normal(LSQ_SHAPE[0])
    return matrix, rhs


class Instance:
    """One manifest of a workload, written to its own directory, with what
    the checks need: the problem rebuilt by the program's public generator
    and, for the least-squares system, the benchmark's own matrix.  ``key``
    names the inputs and the program version (``program_digest``) that must
    write the same bytes every time."""

    def __init__(self, name: str, workload: Workload, seed: int, program: str):
        from blockvi.cli import default_manifest, write_json, write_matrix_csv, \
            write_vector_csv

        self.workload, self.seed = workload, seed
        self.dir = OUT / name / str(seed)
        self.results = self.dir / "results"
        self.dir.mkdir(parents=True, exist_ok=True)
        payload = default_manifest(workload.kind, seed, output_dir="results")
        self.system = None
        if workload.kind == "custom":
            self.system = lsq_system(seed)
            write_matrix_csv(self.system[0], self.dir / "matrix.csv")
            write_vector_csv(self.system[1], self.dir / "rhs.csv")
            payload["operators"] = {"matrix_csv": "matrix.csv",
                                    "rhs_csv": "rhs.csv"}
            payload["solver"]["trace_every"] = 1
        write_json(payload, self.dir / "manifest.json")
        self.payload = payload
        digest = hashlib.sha256()
        for path in sorted(self.dir.glob("*.csv")) + [self.dir / "manifest.json"]:
            digest.update(path.read_bytes())
        self.key = f"{name}/{seed}/{digest.hexdigest()[:16]}/{program[:16]}"
        self._problem = None

    @property
    def problem(self):
        if self._problem is None:
            from blockvi.cli import generate_experiment

            p = self.payload
            operators = {k: str(self.dir / v) if k.endswith("_csv") else v
                         for k, v in p.get("operators", {}).items()}
            self._problem = generate_experiment(
                p["kind"], p.get("dimensions", {}), p["seed"],
                p.get("noise", {}), operators).problem
        return self._problem

    def arm_updates(self, iterations: int) -> int:
        """Arm refreshes of the first ``iterations`` iterations: the sum of
        the active-set sizes of the manifest's schedule."""
        from blockvi.solver import make_schedule

        spec = dict(self.payload["schedule"])
        schedule = make_schedule(spec.pop("kind"), self.problem.arm_count, **spec)
        sizes = [len(s) for s in schedule.sets]
        periods, rest = divmod(iterations, len(sizes))
        return periods * sum(sizes) + sum(sizes[:rest])


# ---------------------------------------------------------------------------
# one solve
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "BLOCKVI_OUTPUT_ROOT"}
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def spawn(instance: Instance, traced=False, setup_only=False) -> Optional[dict]:
    """Run the child once; its record plus parent-side timings, or None when
    the process failed."""
    out = instance.dir / ("child-trace.json" if traced else "child.json")
    out.unlink(missing_ok=True)
    shutil.rmtree(instance.results, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "bench_child.py"), "manifest.json", str(out)]
    cmd += ["--trace"] * traced + ["--setup-only"] * setup_only
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=instance.dir, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"child timed out on {instance.key}\n")
        return None
    ended = time.monotonic()
    if proc.returncode != 0 or not out.exists():
        sys.stderr.write(f"child failed on {instance.key}:\n{proc.stderr}\n")
        return None
    record = json.loads(out.read_text())
    record["setup_s"] = record["solve_entry"] - started
    record["run_s"] = ended - started
    if not setup_only:
        record["solve_s"] = record["solve_exit"] - record["solve_entry"]
    return record


def check_outputs(instance: Instance, digests: dict) -> dict:
    """Every output check on the instance's results: name -> (passed, value)."""
    import bench_checks as bc

    res = instance.results
    x = bc.read_vector(res / "recovered.csv")
    tol = float(instance.payload["solver"]["tol"])
    checks = {
        "in_set": bc.check_in_set(x, instance.workload.box),
        "optimality": bc.check_optimality(instance.problem, x,
                                          instance.workload.box, tol),
    }
    if instance.system is not None:
        checks["lstsq"] = bc.check_lstsq(*instance.system, x)
    else:
        checks["recovery"] = bc.check_recovery(
            x, bc.read_vector(res / "ground_truth.csv"),
            bc.read_vector(res / "observation.csv"))
    digest = bc.artifact_digest(res)
    checks["deterministic"] = bc.check_digest(digest, digests.get(instance.key))
    digests.setdefault(instance.key, digest)
    return checks


def solve_once(instance: Instance, digests: dict, traced=False) -> dict:
    """One solve and its checks; ``ok`` is False when it crashed, did not
    converge (its outputs are then not checked) or failed a check."""
    record = spawn(instance, traced=traced)
    summary_path = instance.results / "summary.json"
    if record is None or record["exit_code"] != 0 or not summary_path.exists():
        return {"ok": False, "checks": {}}
    summary = json.loads(summary_path.read_text())
    if summary["status"] != "converged":
        return {"ok": False, "checks": {}}
    record["iterations"] = summary["iterations"]
    record["arm_updates"] = instance.arm_updates(summary["iterations"])
    record["checks"] = checks = check_outputs(instance, digests)
    if traced:
        record["coverage"] = bench_trace.check_coverage(
            record["solve_profile"], record["solve_s"])
    record["ok"] = all(passed for passed, _ in checks.values())
    return record


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(rounds: list, setups: list) -> dict:
    """Medians over rounds of the round totals (every solve of the round)."""
    per_round = []
    for solves in rounds:
        solve_s = sum(r["solve_s"] for r in solves)
        iters = sum(r["iterations"] for r in solves)
        per_round.append({
            "time_to_tol_s": solve_s,
            "iters_to_tol": iters,
            "us_per_iter": 1e6 * solve_s / iters,
            "arm_updates_per_s": sum(r["arm_updates"] for r in solves) / solve_s,
            "run_s": sum(r["run_s"] for r in solves),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in solves),
        })
    metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
    metrics["setup_s"] = statistics.median(setups)
    return metrics


def _layer(profile: dict, layer: str, field: int) -> float:
    """Sum over arms of one span field (2 calls, 3 self seconds)."""
    return sum(s[field] for s in profile["spans"] if s[0] == layer)


def per_layer(pairs: list) -> dict:
    """Per-layer figures of one round of (untraced, traced) solves: seconds
    and counts per solve, microseconds per iteration of the traced solves."""
    traced = [t for _, t in pairs]
    n = len(traced)
    iters = sum(t["iterations"] for t in traced)
    wall = sum(t["solve_s"] for t in traced)

    def solve_self(layer):
        return sum(_layer(t["solve_profile"], layer, 3) for t in traced)

    def solve_calls(layer):
        return sum(_layer(t["solve_profile"], layer, 2) for t in traced)

    def run_self(layer):
        return sum(_layer(t["run_profile"], layer, 3) for t in traced)

    residual_calls = solve_calls("core.residual")
    named = sum(bench_trace.named_self_s(t["solve_profile"]) for t in traced)
    return {
        "cli.manifest_s": run_self("cli.manifest") / n,
        "cli.generate_s": run_self("cli.generate") / n,
        "cli.artifacts_s": run_self("cli.artifacts") / n,
        "cli.artifact_bytes": sum(t["run_profile"]["counts"]["cli.artifact_bytes"]
                                  for t in traced) / n,
        "core.inconsistency_s": run_self("core.inconsistency") / n,
        "solver.bounds_s": solve_self("solver.bounds") / n,
        "solver.bounds_calls": solve_calls("solver.bounds") / n,
        "solver.self_us_per_iter": 1e6 * solve_self("solver") / iters,
        "solver.arm_updates": sum(t["arm_updates"] for t in traced) / n,
        "linops.fwd_us_per_iter": 1e6 * solve_self("linops.fwd") / iters,
        "linops.adj_us_per_iter": 1e6 * solve_self("linops.adj") / iters,
        "linops.calls": (solve_calls("linops.fwd") + solve_calls("linops.adj")) / n,
        "fne_ops.us_per_iter": 1e6 * solve_self("fne_ops") / iters,
        "fne_ops.calls": solve_calls("fne_ops") / n,
        "core.project_us_per_iter": 1e6 * solve_self("core.project") / iters,
        "core.residual_us_per_call": (1e6 * solve_self("core.residual")
                                      / max(residual_calls, 1)),
        "core.residual_calls": residual_calls / n,
        "space.points_per_iter": sum(t["solve_profile"]["counts"]["space.points"]
                                     for t in traced) / iters,
        "trace.overhead_pct": 100.0 * (wall / sum(u["solve_s"] for u, _ in pairs)
                                       - 1.0),
        "trace.coverage_pct": 100.0 * named / wall,
    }


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "machine": platform.machine(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "threads": THREAD_ENV,
    }


def run(name: str, seed: int, seconds: float, trace: bool, holdout=False) -> dict:
    workload = WORKLOADS[name]
    seeds = workload.holdout if holdout else workload.instances
    shift = seed % len(seeds)
    program = program_digest(SRC)
    instances = [Instance(name, workload, s, program)
                 for s in seeds[shift:] + seeds[:shift]]
    digests_path = OUT / "digests.json"
    digests = json.loads(digests_path.read_text()) if digests_path.exists() else {}

    rounds, started = [], time.monotonic()
    while not rounds or time.monotonic() - started < seconds:
        solves = []
        for inst in instances:
            untraced = solve_once(inst, digests)
            solves.append((untraced, solve_once(inst, digests, traced=True))
                          if trace else (untraced,))
        rounds.append(solves)

    records = [r for solves in rounds for pair in solves for r in pair]
    failed = sum(not r["ok"] for r in records)
    correct = all(passed for r in records for passed, _ in r["checks"].values())
    whole = [s for s in rounds if all(r["ok"] for pair in s for r in pair)]
    metrics, units, setups = {}, END_TO_END_UNITS, []
    if whole and trace:
        units = PER_LAYER_UNITS
        per_round = [per_layer(s) for s in whole]
        metrics = {k: statistics.median(r[k] for r in per_round) for k in units}
    elif whole:
        setups = [pair[0]["setup_s"] for s in whole for pair in s]
        for i in range(MIN_SETUPS - len(setups)):
            extra = spawn(instances[i % len(instances)], setup_only=True)
            if extra is not None:
                setups.append(extra["setup_s"])
        metrics = end_to_end([[pair[0] for pair in s] for s in whole], setups)
    correct = correct and bool(metrics)

    digests_path.write_text(json.dumps(digests, indent=1, sort_keys=True))
    report = {
        "workload": name, "seed": seed, "trace": int(trace), "holdout": holdout,
        "instances": [i.seed for i in instances], "rounds": len(rounds),
        "program": program[:16], "environment": environment(),
        "checks": [{"instance": i.seed, "traced": j == 1, **r["checks"]}
                   for solves in rounds for i, pair in zip(instances, solves)
                   for j, r in enumerate(pair)],
        "coverage": [r["coverage"] for r in records if "coverage" in r],
        "setup_samples": setups,
        "untraced": sorted({u for r in records for u in r.get("untraced", [])}),
        "result": {"correct": correct, "attempted": len(records),
                   "failed": failed,
                   "metrics": {k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()}},
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1, default=list))
    return report


def print_report(report: dict):
    env = report["environment"]
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  instances {report['instances']}  "
          f"rounds {report['rounds']}")
    print("   " + ", ".join(f"{k} {v}" for k, v in env.items()))
    names = dict.fromkeys(k for row in report["checks"] for k in row
                          if k not in ("instance", "traced"))
    for k in names:
        results = [row[k] for row in report["checks"] if k in row]
        numbers = [v for _, v in results if not isinstance(v, str)]
        shown = f"{max(numbers):.3g}" if numbers else results[-1][1][:16]
        passed = all(p for p, _ in results)
        print(f"   check {k:<16} {'ok' if passed else 'FAILED'}  (worst {shown})")
    if report["coverage"]:
        met = sum(passed for passed, _ in report["coverage"])
        lowest = min(value for _, value in report["coverage"])
        print(f"   bar   layers cover >= {bench_trace.COVERAGE_BAR:.0%} of "
              f"traced solve: met in {met} of {len(report['coverage'])} "
              f"(lowest {lowest:.1%})")
    if report["untraced"]:
        print("   untraced entry points: " + ", ".join(report["untraced"]))
    result = report["result"]
    for k, m in result["metrics"].items():
        print(f"   {k:<28} {m['value']:>16.6f} {m['unit']}")
    print(f"   solves attempted {result['attempted']}, failed {result['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="solve the held-back instances instead")
    args = parser.parse_args(argv)

    if not (SRC / "blockvi" / "__init__.py").is_file():
        print(f"error: no blockvi package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)

    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        jobs = [(args.workload, bool(args.trace))]
    results = []
    for name, trace in jobs:
        report = run(name, args.seed, args.seconds, trace, args.holdout)
        print_report(report)
        results.append((name, report["result"]))

    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{name}.{k}": m for name, r in results
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
