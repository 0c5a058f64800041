"""Output checks of the benchmark, computed apart from the solver.

Each check takes what a run wrote to disk (or what the benchmark generated
itself) and returns ``(passed, value)``.  None of them calls the solver or its
residual: the VI gap is rebuilt from the arms' public ``apply``/``adjoint``,
the least-squares oracle is ``numpy.linalg.lstsq`` on the benchmark's own
matrix, and determinism compares file digests.
"""

from __future__ import annotations

import csv
import hashlib
import io

import numpy as np

# A recovered point passes when its optimality measure is at most this many
# times the solver's stopping tolerance.  At tol = 1e-6 the stock box
# workloads read 4-6e-7, so a factor of 10 leaves a margin without letting a
# point that is off the solution set through.
OPTIMALITY_FACTOR = 10.0
# numpy.linalg.lstsq against the recovered least-squares solution; the solver
# stops at tol = 1e-8 and lands within about 5e-9.
LSTSQ_REL_TOL = 1e-6


def read_vector(path) -> np.ndarray:
    """Values of a one-column CSV with a header line."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    return np.array([float(v) for v in lines[1:]], dtype=np.float64)


def rel_error(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(x - ref) / np.linalg.norm(ref))


def displacement(problem, x: np.ndarray) -> np.ndarray:
    """g(x) = sum_i w_i L_i*(F_i(L_i x) - p_i) from the arms' public maps."""
    from blockvi.space import SpacePoint

    point = SpacePoint(x, problem.domain_shape)
    g = np.zeros_like(x)
    for p in problem.prescriptions:
        image = p.fne.apply(p.linop.apply(point))
        g += p.weight * p.linop.adjoint(image - p.target).data
    return g


def check_in_set(x: np.ndarray, box) -> tuple:
    """x lies in C: the box ``(lo, hi)``, or the whole space when box is None."""
    if not np.all(np.isfinite(x)):
        return False, float("inf")
    if box is None:
        return True, 0.0
    lo, hi = box
    excess = float(max(np.max(lo - x), np.max(x - hi), 0.0))
    return excess == 0.0, excess


def check_optimality(problem, x: np.ndarray, box, tol: float) -> tuple:
    """VI optimality of x, scale-free.

    On a box C: the gap max_{y in C} <x - y, g(x)> / (1 + ||x||)^2, whose
    maximiser takes lo where g > 0 and hi where g < 0.  On the whole space:
    ||g(x)|| / (1 + ||x||).
    """
    g = displacement(problem, x)
    scale = 1.0 + float(np.linalg.norm(x))
    if box is None:
        value = float(np.linalg.norm(g)) / scale
    else:
        lo, hi = box
        y = np.where(g > 0, lo, hi)
        value = float(np.dot(x - y, g)) / scale ** 2
    return value <= OPTIMALITY_FACTOR * tol, value


def check_recovery(recovered: np.ndarray, truth: np.ndarray,
                   observation: np.ndarray) -> tuple:
    """Robust recovery: the recovered point is no farther from the ground
    truth (relative error) than the observation is."""
    rec, obs = rel_error(recovered, truth), rel_error(observation, truth)
    return rec <= obs, rec


def check_lstsq(matrix: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> tuple:
    """x matches numpy's least-squares solution of matrix @ x ~ rhs."""
    oracle = np.linalg.lstsq(matrix, rhs, rcond=None)[0]
    err = rel_error(x, oracle)
    return err <= LSTSQ_REL_TOL, err


def artifact_digest(results_dir) -> str:
    """SHA-256 over recovered.csv, summary.json and trace.csv without its
    wall-clock ``seconds`` column: equal for runs that must be identical."""
    h = hashlib.sha256()
    for name in ("recovered.csv", "summary.json"):
        with open(results_dir / name, "rb") as fh:
            h.update(fh.read())
    with open(results_dir / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("seconds")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        writer.writerow(row[:col] + row[col + 1:])
    h.update(out.getvalue().encode())
    return h.hexdigest()


def check_digest(digest: str, reference) -> tuple:
    """Determinism: passes when there is no reference yet or it matches."""
    return reference is None or digest == reference, digest
