"""Manifest execution pipeline and relative-error trace analytics."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Optional

import numpy as np

from ..core import arm_gaps, inconsistency_bound
from ..errors import MissingReference
from ..solver import SolveStatus, SolverConfig, make_schedule, solve
from ..space import SpacePoint
from .experiments import ExperimentData, generate_experiment
from .io import (
    write_json,
    write_pgm,
    write_snapshots_csv,
    write_vector_csv,
)
from .manifest import ExperimentManifest, resolve_output_dir

__all__ = ["run_manifest", "relative_error_trace", "write_experiment_data",
           "DB_FLOOR"]

DB_FLOOR = -300.0


def _write_point(point: SpacePoint, out_dir: Path, stem: str):
    """``stem.csv`` plus one PGM per image block of the point."""
    write_vector_csv(point.data, out_dir / f"{stem}.csv")
    image_blocks = [j for j in range(point.shape.block_count)
                    if point.shape.extents[j] is not None]
    if len(image_blocks) == 1:
        write_pgm(point.block(image_blocks[0]), out_dir / f"{stem}.pgm")
    else:
        for j in image_blocks:
            write_pgm(point.block(j), out_dir / f"{stem}_{j}.pgm")


def write_experiment_data(data: ExperimentData, out_dir: Path):
    """The generated points of an experiment: ``ground_truth`` and, when the
    kind has one, ``observation`` (see :func:`_write_point`)."""
    _write_point(data.ground_truth, out_dir, "ground_truth")
    if data.observation is not None:
        _write_point(data.observation, out_dir, "observation")


def _rel_error(x: SpacePoint, ref: SpacePoint) -> Optional[float]:
    """||x - ref|| / ||ref||; None (null in JSON) when ref is 0, where the
    ratio does not exist."""
    denom = ref.norm()
    return (x - ref).norm() / denom if denom else None


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
    # the manifest check admits only the keys these take; the solver keys it
    # omits take SolverConfig's defaults
    schedule = make_schedule(index_count=problem.arm_count, **manifest.schedule)
    config = SolverConfig(x0=SpacePoint.zeros(problem.domain_shape), **manifest.solver)

    out_dir = resolve_output_dir(manifest)
    out_dir.mkdir(parents=True, exist_ok=True)

    result = solve(problem, schedule, config)

    _write_point(result.solution, out_dir, "recovered")
    write_experiment_data(data, out_dir)
    result.trace.to_csv(out_dir / "trace.csv")
    if config.snapshots:
        write_snapshots_csv(result.trace.iterates, out_dir / "snapshots.csv")

    gaps = arm_gaps(problem, result.solution.data)
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
        "inconsistency_bound": inconsistency_bound(gaps),
        "arm_gaps": gaps.tolist(),
        "weights": problem.arrays.weights.tolist(),
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
    points = [_flat(point) for _, _, point in iterates]
    if any(x.shape != ref.shape for x in points):
        raise MissingReference("reference does not match the iterate space")
    denom = float(np.linalg.norm(points[0] - ref))
    if denom == 0.0:
        raise MissingReference("the first iterate equals the reference")
    out = []
    for (_, seconds, _), x in zip(iterates, points):
        num = float(np.linalg.norm(x - ref))
        db = 20.0 * math.log10(num / denom) if num else DB_FLOOR
        out.append((float(seconds), max(db, DB_FLOOR)))
    return out
