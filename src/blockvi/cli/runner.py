"""Manifest execution pipeline and relative-error trace analytics."""

from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from ..core import arm_gaps, inconsistency_bound
from ..errors import MissingReference
from ..solver import SolveStatus, SolverConfig, make_schedule, solve
from ..space import SpacePoint
from .experiments import generate_experiment
from .io import (
    write_json,
    write_pgm,
    write_snapshots_csv,
    write_vector_csv,
)
from .manifest import ExperimentManifest, resolve_output_dir

__all__ = ["run_manifest", "relative_error_trace", "write_point", "DB_FLOOR"]

DB_FLOOR = -300.0


def _build_schedule(spec: dict, arm_count: int):
    """The manifest's schedule; the manifest check admits beside ``kind``
    only the ``make_schedule`` keyword arguments that the kind uses."""
    kwargs = {k: v for k, v in spec.items() if k != "kind"}
    return make_schedule(spec["kind"], arm_count, **kwargs)


def _solver_config(spec: dict, domain_shape) -> SolverConfig:
    """The manifest's solver section, started at zero; the keys it omits
    take ``SolverConfig``'s defaults."""
    kwargs = {"keep_snapshots" if k == "snapshots" else k: v
              for k, v in spec.items()}
    return SolverConfig(x0=SpacePoint.zeros(domain_shape), **kwargs)


def write_point(point: SpacePoint, out_dir: Path, stem: str):
    """``stem.csv`` plus one PGM per image block of the point."""
    write_vector_csv(point.data, out_dir / f"{stem}.csv")
    image_blocks = [j for j in range(point.shape.block_count)
                    if point.shape.extents[j] is not None]
    if len(image_blocks) == 1:
        write_pgm(point.block(image_blocks[0]), out_dir / f"{stem}.pgm")
    else:
        for j in image_blocks:
            write_pgm(point.block(j), out_dir / f"{stem}_{j}.pgm")


def _rel_error(x: SpacePoint, ref: SpacePoint) -> float:
    denom = ref.norm()
    return (x - ref).norm() / denom if denom else float("nan")


def _input_operators(manifest: ExperimentManifest) -> dict:
    """The manifest's operators with relative input CSV paths taken against
    the manifest's directory, as a relative ``output_dir`` is."""
    operators = dict(manifest.operators)
    if manifest.source_path is not None:
        for key in ("matrix_csv", "rhs_csv"):
            if isinstance(operators.get(key), str):
                operators[key] = str(manifest.source_path.parent / operators[key])
    return operators


def run_manifest(manifest: ExperimentManifest) -> int:
    """Generate, solve, and write artifacts; returns the process exit code
    (0 converged, 2 iteration budget exhausted)."""
    data = generate_experiment(manifest.kind, manifest.dimensions, manifest.seed,
                               manifest.noise, _input_operators(manifest))
    problem = data.problem
    schedule = _build_schedule(manifest.schedule, problem.arm_count)
    config = _solver_config(manifest.solver, problem.domain_shape)

    out_dir = resolve_output_dir(manifest)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = solve(problem, schedule, config)

    write_point(result.solution, out_dir, "recovered")
    write_point(data.ground_truth, out_dir, "ground_truth")
    if data.observation is not None:
        write_point(data.observation, out_dir, "observation")
    result.trace.to_csv(out_dir / "trace.csv")
    if config.keep_snapshots:
        write_snapshots_csv(result.trace.iterates, out_dir / "snapshots.csv")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        bound = inconsistency_bound(problem, result.solution,
                                    tol=max(config.tol, 1e-12))

    metrics = {"recovered_rel_error": _rel_error(result.solution, data.ground_truth)}
    if data.observation is not None and data.observation_reference is not None:
        metrics["observation_rel_error"] = _rel_error(data.observation,
                                                      data.observation_reference)

    summary = {
        "kind": manifest.kind,
        "seed": manifest.seed,
        "status": result.status.value,
        "iterations": result.trace.records[-1].n + 1,
        "final_residual": result.trace.final_residual,
        "inconsistency_bound": bound,
        "arm_gaps": arm_gaps(problem, result.solution.data).tolist(),
        "weights": list(problem.weights),
        "metrics": metrics,
        "schedule": {"kind": schedule.kind, "K": schedule.K},
        "operators": [{"linop": p.linop.describe(), "fne": p.fne.describe()}
                      for p in problem.prescriptions],
        "notes": data.notes,
        "manifest": manifest.to_dict(),
    }
    if result.acceleration is not None:
        summary["acceleration"] = result.acceleration
    write_json(summary, out_dir / "summary.json")
    return 0 if result.status is SolveStatus.CONVERGED else 2


def relative_error_trace(iterates, reference) -> list:
    """(seconds, dB) pairs: 20 log10(||x_k - ref|| / ||x_0 - ref||) with a
    floor of -300 dB; the first entry is 0 dB by construction.

    ``iterates`` are (k, seconds, point) snapshot triples retained by the
    solver; ``reference`` is the high-precision limit point, which must differ
    from x_0 for the ratio to exist.
    """
    if reference is None:
        raise MissingReference("no reference point supplied")
    if not iterates:
        raise MissingReference("trace holds no iterate snapshots")

    def _flat(p):
        return p.data if isinstance(p, SpacePoint) else np.asarray(p, dtype=np.float64)

    ref = _flat(reference)
    x0 = _flat(iterates[0][2])
    if x0.shape != ref.shape:
        raise MissingReference("reference does not match the iterate space")
    denom = float(np.linalg.norm(x0 - ref))
    if denom == 0.0:
        raise MissingReference("the first iterate equals the reference")
    out = []
    for _, seconds, point in iterates:
        num = float(np.linalg.norm(_flat(point) - ref))
        db = 20.0 * math.log10(num / denom) if num else DB_FLOOR
        out.append((float(seconds), max(db, DB_FLOOR)))
    return out
