"""On-disk formats: binary PGM images, headered CSV vectors, snapshot tables.

CSV payloads are written with 17 significant digits so float64 values
round-trip exactly.  PGM export clamps and rounds for display only; solver
state is never clamped.
"""

from __future__ import annotations

import json
import re

import numpy as np

from ..errors import FormatError, InvalidParameter

__all__ = [
    "write_pgm",
    "read_pgm",
    "write_vector_csv",
    "read_vector_csv",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_snapshots_csv",
    "read_snapshots_csv",
    "write_json",
]

FLOAT_FMT = "%.17g"


def write_pgm(image, path):
    """Binary (P5) grayscale image, maxval 255; values are clamped to [0, 255]
    and rounded at export time."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidParameter("PGM export expects a 2-D array")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameter("PGM export expects finite pixel values")
    payload = np.clip(np.rint(arr), 0, 255).astype(np.uint8)
    rows, cols = payload.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        fh.write(payload.tobytes())


def read_pgm(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM (P5) file")
    # header: magic, width, height, maxval; '#' comments allowed
    tokens, pos = [], 2
    while len(tokens) < 3:
        match = re.match(rb"(?:\s+|#[^\n]*\n)*(\d+)", data[pos:])
        if match is None:
            raise FormatError(f"{path}: truncated PGM header")
        tokens.append(int(match.group(1)))
        pos += match.end()
    cols, rows, maxval = tokens
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    pos += 1  # single whitespace byte after the header
    payload = data[pos:pos + rows * cols]
    if len(payload) != rows * cols:
        raise FormatError(f"{path}: expected {rows * cols} payload bytes")
    return np.frombuffer(payload, dtype=np.uint8).reshape(rows, cols).astype(np.float64)


def write_vector_csv(values, path):
    """One ``value`` header line, then one component per line."""
    arr = np.asarray(values, dtype=np.float64).reshape(-1)
    with open(path, "w", newline="") as fh:
        fh.write("value\n")
        for v in arr:
            fh.write((FLOAT_FMT % v) + "\n")


def _csv_lines(path, header: str) -> list:
    """The nonblank lines of ``path`` after its first, which must be
    ``header``: a file without it would lose its first line of data."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != header:
        raise FormatError(f"{path}: first line must be the header {header!r}")
    return lines


def read_vector_csv(path):
    lines = _csv_lines(path, "value")
    try:
        return np.array([float(v) for v in lines[1:]], dtype=np.float64)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_matrix_csv(matrix, path):
    arr = np.asarray(matrix, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        for row in np.atleast_2d(arr):
            fh.write(",".join(FLOAT_FMT % v for v in row) + "\n")


def read_matrix_csv(path):
    try:
        return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_snapshots_csv(iterates, path):
    """Iterate snapshots, one row per retained (k, seconds, point) triple of
    the solver's trace: index k, then the point's components."""
    with open(path, "w", newline="") as fh:
        fh.write("k,components\n")
        for k, _seconds, point in iterates:
            fh.write(str(int(k)) + ","
                     + ",".join(FLOAT_FMT % v for v in point.data) + "\n")


def read_snapshots_csv(path):
    out = []
    for ln in _csv_lines(path, "k,components")[1:]:
        parts = ln.split(",")
        try:
            out.append((int(parts[0]),
                        np.array([float(v) for v in parts[1:]], dtype=np.float64)))
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    return out


def write_json(obj, path):
    with open(path, "w", newline="") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
