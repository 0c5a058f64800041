"""Seeded generators for the four stock experiments plus externally supplied
linear systems.

Every random draw (ground truth, noise, dictionary) comes from a counter-based
generator keyed by the manifest seed, so a (kind, dimensions, seed, params)
tuple fully determines the instance.  Noise vectors are drawn standard normal
and rescaled so the requested SNR in dB holds exactly against the clean
reference signal.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from ..core import ConstraintSet, Prescription, Problem, assemble_problem
from ..errors import InvalidParameter
from ..fne_ops import (
    BlockwiseConstantProjector,
    Blockwise,
    BoxProjector,
    LinfBallProjector,
    MeanAdjust,
    PhasePrescription,
    ResidualOf,
    ScaledFne,
    SingletonProjector,
    SoftThreshold,
    dead_zone_quartic_root,
    log_threshold,
    proxify_root,
    proxify_svd,
    svd_hard_threshold,
)
from ..linops import (
    BlockStack,
    CircularConvolution2D,
    Dct2D,
    DenseMatrix,
    FiniteDifference1D,
    Identity,
    PairSum,
    make_gaussian_kernel,
    make_uniform_kernel,
)
from ..space import BlockShape, SpacePoint
from .io import read_matrix_csv, read_vector_csv

__all__ = ["ExperimentData", "generate_experiment", "EXPERIMENT_KINDS",
           "STOCK_PARAMETERS"]


@dataclass
class ExperimentData:
    ground_truth: SpacePoint
    problem: Problem
    observation: Optional[SpacePoint] = None
    observation_reference: Optional[SpacePoint] = None
    notes: dict = field(default_factory=dict)


def _streams(seed: int, names):
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: np.random.Generator(np.random.Philox(child))
            for name, child in zip(names, children)}


def _noise_for_snr(rng, reference: np.ndarray, snr_db: float) -> np.ndarray:
    """Standard normal noise rescaled so 20 log10(||ref|| / ||w||) == snr_db."""
    g = rng.standard_normal(reference.shape)
    target = np.linalg.norm(reference) * 10.0 ** (-snr_db / 20.0)
    return g * (target / np.linalg.norm(g))


# ---------------------------------------------------------------------------
# ground-truth phantoms
# ---------------------------------------------------------------------------

def _smooth_image(rng, rows, cols, lo=25.0, hi=230.0):
    yy, xx = np.mgrid[0:rows, 0:cols].astype(np.float64)
    field = 0.15 * (xx / cols) + 0.1 * (yy / rows)
    for _ in range(3):
        cy, cx = rng.uniform(0.15, 0.85, 2) * (rows, cols)
        width = rng.uniform(0.12, 0.3) * min(rows, cols)
        amp = rng.uniform(0.5, 1.0)
        field += amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * width ** 2))
    field -= field.min()
    field *= (hi - lo) / field.max()
    return field + lo


def _smooth_signal(rng, n):
    t = np.linspace(0.0, 1.0, n)
    x = 0.25 * np.sin(2 * np.pi * rng.uniform(0.8, 1.6) * t + rng.uniform(0, np.pi))
    for _ in range(3):
        center = rng.uniform(0.1, 0.9)
        width = rng.uniform(0.04, 0.15)
        x += rng.uniform(0.3, 0.8) * np.exp(-((t - center) ** 2) / (2 * width ** 2))
    return x


def _sparse_image(rng, rows, cols, density=0.05, lo=90.0, hi=255.0):
    img = np.zeros((rows, cols))
    k = max(4, int(density * rows * cols))
    idx = rng.choice(rows * cols, size=k, replace=False)
    img.reshape(-1)[idx] = rng.uniform(lo, hi, k)
    r0 = int(rng.integers(2, rows - 4))
    c0 = int(rng.integers(2, cols - 4))
    img[r0:r0 + 2, c0:c0 + 2] = rng.uniform(lo, hi)
    return img


_STAR_COUNT = 30


def _star_field(rng, rows, cols, count=_STAR_COUNT):
    img = np.zeros((rows, cols))
    idx = rng.choice(rows * cols, size=count, replace=False)
    img.reshape(-1)[idx] = rng.uniform(120.0, 255.0, count)
    return img


def _galaxy(rng, rows, cols, peak=200.0):
    yy, xx = np.mgrid[0:rows, 0:cols].astype(np.float64)
    cy, cx = rows / 2 + rng.uniform(-3, 3), cols / 2 + rng.uniform(-3, 3)
    angle = rng.uniform(0, np.pi)
    sa, ca = np.sin(angle), np.cos(angle)
    u = ca * (xx - cx) + sa * (yy - cy)
    v = -sa * (xx - cx) + ca * (yy - cy)
    wu = rng.uniform(0.25, 0.4) * cols
    wv = rng.uniform(0.1, 0.18) * rows
    return peak * np.exp(-(u ** 2) / (2 * wu ** 2) - (v ** 2) / (2 * wv ** 2))


# ---------------------------------------------------------------------------
# experiment builders
# ---------------------------------------------------------------------------

def _image_recovery(dimensions, seed, noise, operators):
    rows = int(dimensions["rows"])
    cols = int(dimensions["cols"])
    # the phantom is scaled by its range, which one pixel does not have
    if rows * cols < 2:
        raise InvalidParameter("'rows' * 'cols' must be >= 2")
    # the kernel takes no draw, so a size or sigma it refuses fails first
    kernel = make_gaussian_kernel(int(operators["kernel_size"]),
                                  float(operators["kernel_sigma"]))
    rngs = _streams(seed, ["truth", "blur_noise", "phase_noise"])
    shape = BlockShape.image(rows, cols)
    truth = _smooth_image(rngs["truth"], rows, cols)
    xbar = SpacePoint(truth, shape)

    blur = CircularConvolution2D(kernel, rows, cols)
    blurred = blur.apply(xbar)
    w1 = _noise_for_snr(rngs["blur_noise"], blurred.data,
                        float(noise["blur_snr_db"]))
    clip_max = float(operators["clip_max"])
    clipper = BoxProjector(0.0, clip_max, shape)
    p1 = clipper.apply(SpacePoint(blurred.data + w1, shape))

    mean_target = float(np.rint(truth.mean()))
    mean_arm = ResidualOf(MeanAdjust(mean_target, shape))

    w3 = _noise_for_snr(rngs["phase_noise"], xbar.data,
                        float(noise["phase_snr_db"]))
    theta = np.angle(np.fft.fft2((xbar.data + w3).reshape(rows, cols)))
    phase_arm = PhasePrescription(theta, shape)

    zero = SpacePoint.zeros(shape)
    prescriptions = [
        Prescription(blur, clipper, p1, 1.0 / 3.0),
        Prescription(Identity(shape), mean_arm, zero, 1.0 / 3.0),
        Prescription(Identity(shape), phase_arm, zero, 1.0 / 3.0),
    ]
    problem = assemble_problem(ConstraintSet.box(0.0, 255.0), prescriptions)
    return ExperimentData(
        ground_truth=xbar, problem=problem,
        observation=p1, observation_reference=xbar,
        notes={"mean_target": mean_target, "clip_max": clip_max,
               "kernel": {"size": kernel.shape[0], "kind": "gaussian"}})


def _signal_recovery(dimensions, seed, noise, operators):
    n = int(dimensions["n"])
    m = int(dimensions["dictionary_rows"])
    block_count = int(operators["block_count"])
    if block_count < 1:
        raise InvalidParameter("'block_count' must be >= 1")
    if n % block_count:
        raise InvalidParameter("block_count must divide the signal length")
    rngs = _streams(seed, ["truth", "obs_noise", "dictionary", "dict_noise"])
    shape = BlockShape.vector(n)
    xbar = SpacePoint(_smooth_signal(rngs["truth"], n), shape)

    blocks = BlockwiseConstantProjector([n // block_count] * block_count, shape)
    w1 = _noise_for_snr(rngs["obs_noise"], xbar.data,
                        float(noise["observation_snr_db"]))
    p1 = blocks.apply(SpacePoint(xbar.data + w1, shape))

    fd = FiniteDifference1D(n)
    fd_bound = float(operators["fd_bound"])
    fd_arm = SoftThreshold(fd_bound, fd.output_shape)

    rho = float(operators["root_threshold"])
    dictionary = rngs["dictionary"].standard_normal((m, n))
    clean = dead_zone_quartic_root(dictionary @ xbar.data, rho)
    w3 = _noise_for_snr(rngs["dict_noise"], clean,
                        float(noise["dictionary_snr_db"]))
    chi = clean + w3

    weight = 1.0 / (m + 2)
    prescriptions = [
        Prescription(Identity(shape), blocks, p1, weight),
        Prescription(fd, fd_arm, SpacePoint.zeros(fd.output_shape), weight),
    ]
    for j in range(m):
        prox = proxify_root(rho, float(chi[j]))
        prescriptions.append(
            Prescription(DenseMatrix(dictionary[j:j + 1, :]), prox.fne,
                         prox.target, weight))
    problem = assemble_problem(ConstraintSet.whole_space(), prescriptions)
    return ExperimentData(
        ground_truth=xbar, problem=problem,
        observation=p1, observation_reference=xbar,
        notes={"dictionary_rows": m, "root_threshold": rho,
               "fd_bound": fd_bound, "block_count": block_count})


def _low_rank_observation(z: np.ndarray, operators):
    """The observation of ``z`` with its singular values at most
    ``svd_threshold_rel`` times the largest zeroed, on the image shape of ``z``:
    the point, its proxification and the notes it adds to the summary."""
    rows, cols = z.shape
    rel = float(operators["svd_threshold_rel"])
    rho = rel * float(np.linalg.svd(z, compute_uv=False)[0])
    q = SpacePoint(svd_hard_threshold(z, rho), BlockShape.image(rows, cols))
    prox = proxify_svd(rho, q)
    rank = int(np.linalg.matrix_rank(q.block(0), tol=1e-8 * max(rows, cols)))
    return q, prox, {"svd_threshold": rho, "observation_rank": rank}


def _sparse_image_recovery(dimensions, seed, noise, operators):
    rows = int(dimensions["rows"])
    cols = int(dimensions["cols"])
    # the phantom's 2 x 2 patch starts at a row and a column in [2, size - 4)
    if min(rows, cols) < 7:
        raise InvalidParameter("'rows' and 'cols' must be >= 7")
    rngs = _streams(seed, ["truth", "blur_noise"])
    shape = BlockShape.image(rows, cols)
    xbar = SpacePoint(_sparse_image(rngs["truth"], rows, cols), shape)

    blur = CircularConvolution2D(make_uniform_kernel(int(operators["kernel_size"])),
                                 rows, cols)
    blurred = blur.apply(xbar)
    w1 = _noise_for_snr(rngs["blur_noise"], blurred.data,
                        float(noise["blur_snr_db"]))
    z = (blurred.data + w1).reshape(rows, cols)
    q1, prox, observed = _low_rank_observation(z, operators)

    radius = float(operators["sparsity_radius"])
    if operators["log_penalty"]:
        # log-penalty shrinkage made firmly nonexpansive by 0.95 scaling;
        # gamma = 0.05 / radius^2 must lie below radius^2, and the spot
        # check squares samples on the scale of the radius
        if not 0.05 ** 0.25 < radius <= 1e150:
            raise InvalidParameter("the log penalty needs 0.05^(1/4) < radius <= 1e150")
        gamma = 0.05 / radius ** 2
        shrink = ScaledFne(partial(log_threshold, rho=radius, gamma=gamma),
                           0.95, shape, sample_scale=radius)
        sparsity = ResidualOf(shrink)
    else:
        sparsity = LinfBallProjector(radius, shape)

    prescriptions = [
        Prescription(blur, prox.fne, prox.target, 0.5),
        Prescription(Identity(shape), sparsity, SpacePoint.zeros(shape), 0.5),
    ]
    problem = assemble_problem(ConstraintSet.box(0.0, 255.0), prescriptions)
    return ExperimentData(
        ground_truth=xbar, problem=problem,
        observation=q1, observation_reference=xbar,
        notes={**observed, "sparsity_radius": radius,
               "log_penalty": bool(operators["log_penalty"])})


def _source_separation(dimensions, seed, noise, operators):
    rows = int(dimensions["rows"])
    cols = int(dimensions["cols"])
    if rows * cols < _STAR_COUNT:
        raise InvalidParameter(
            f"'rows' * 'cols' must be >= {_STAR_COUNT} (one pixel per star)")
    rngs = _streams(seed, ["stars", "galaxy"])
    img = BlockShape.image(rows, cols)
    shape = BlockShape.product([img, img])
    stars = _star_field(rngs["stars"], rows, cols)
    galaxy = _galaxy(rngs["galaxy"], rows, cols)
    xbar = SpacePoint.of_blocks([stars, galaxy])

    pair_sum = PairSum(img)
    z = (stars + galaxy)
    q1, prox, observed = _low_rank_observation(z, operators)

    transform = BlockStack([Identity(img), Dct2D(rows, cols)])
    radii = (float(operators["sparsity_radius_direct"]),
             float(operators["sparsity_radius_transform"]))
    sparsity = Blockwise([LinfBallProjector(radii[0], img),
                          LinfBallProjector(radii[1], img)])

    prescriptions = [
        Prescription(pair_sum, prox.fne, prox.target, 0.5),
        Prescription(transform, sparsity, SpacePoint.zeros(shape), 0.5),
    ]
    problem = assemble_problem(ConstraintSet.box(0.0, 255.0), prescriptions)
    return ExperimentData(
        ground_truth=xbar, problem=problem,
        observation=q1,
        observation_reference=SpacePoint(z, img),
        notes={**observed, "sparsity_radii": list(radii)})


def _custom(dimensions, seed, noise, operators):
    """Externally supplied linear system A x = b as row-wise feasibility arms."""
    matrix_path = operators.get("matrix_csv")
    rhs_path = operators.get("rhs_csv")
    if not matrix_path or not rhs_path:
        raise InvalidParameter("custom experiments need matrix_csv and rhs_csv")
    matrix = read_matrix_csv(matrix_path)
    rhs = read_vector_csv(rhs_path)
    if matrix.shape[0] != rhs.size:
        raise InvalidParameter("matrix rows and rhs length disagree")
    # every step bound takes the Gram of some of these rows: refuse the first
    # row at which the squares of the rows so far sum past half the largest
    # float (one errstate for the whole matrix keeps the cost off each row)
    with np.errstate(over="ignore"):
        sums = np.cumsum(np.einsum("ij,ij->i", matrix, matrix))
    over = np.flatnonzero(sums > np.finfo(np.float64).max / 2)
    if over.size:
        raise InvalidParameter(
            f"{matrix_path}: row {over[0] + 1}: the squares of the rows up to "
            "this one sum past half the largest float, so a Gram would overflow")
    m, n = matrix.shape
    shape = BlockShape.vector(n)
    # one layout object and one (immutable) zero target for all rows:
    # building them per row cost most of set-up
    one = BlockShape.vector(1)
    zero = SpacePoint.zeros(one)
    prescriptions = [
        Prescription(DenseMatrix(matrix[i:i + 1, :], shape, one),
                     ResidualOf(SingletonProjector(SpacePoint([rhs[i]], one))),
                     zero, 1.0 / m)
        for i in range(m)
    ]
    bounds = operators.get("box_bounds")
    if bounds is None:
        constraint = ConstraintSet.whole_space()
    else:
        constraint = ConstraintSet.box(float(bounds[0]), float(bounds[1]))
    problem = assemble_problem(constraint, prescriptions)
    truth = SpacePoint(np.linalg.lstsq(matrix, rhs, rcond=None)[0], shape)
    return ExperimentData(ground_truth=truth, problem=problem,
                          notes={"rows": m, "cols": n})


_BUILDERS = {
    "image_recovery": _image_recovery,
    "signal_recovery": _signal_recovery,
    "sparse_image": _sparse_image_recovery,
    "source_separation": _source_separation,
    "custom": _custom,
}
EXPERIMENT_KINDS = tuple(_BUILDERS)

# The stock parameters of each kind: the one place they are written.  A
# manifest that leaves out a dimension, noise or operator key gets its value
# here; ``default_manifest`` writes the whole entry out.
STOCK_PARAMETERS = {
    "image_recovery": {
        "dimensions": {"rows": 32, "cols": 32},
        "noise": {"blur_snr_db": 24.0, "phase_snr_db": 49.0},
        "operators": {"kernel_size": 15, "kernel_sigma": 3.5, "clip_max": 60.0},
        "solver": {"gamma": 1.9, "max_iters": 80000, "tol": 1e-6,
                   "trace_every": 100, "snapshots": False},
        "schedule": {"kind": "full"},
    },
    "signal_recovery": {
        "dimensions": {"n": 128, "dictionary_rows": 150},
        "noise": {"observation_snr_db": -2.3, "dictionary_snr_db": 17.8},
        "operators": {"block_count": 16, "fd_bound": 0.025,
                      "root_threshold": 0.05},
        "solver": {"gamma": 1.9, "max_iters": 90000, "tol": 1e-6,
                   "trace_every": 100, "snapshots": True},
        # every arm, then the four cells of ``cyclic_partition`` with 4 blocks
        # and arms 0 and 1 always active: led by every arm, x is extrapolated
        "schedule": {"kind": "explicit",
                     "sets": [list(range(152)), [0, 1, *range(2, 40)],
                              [0, 1, *range(40, 78)], [0, 1, *range(78, 115)],
                              [0, 1, *range(115, 152)]]},
    },
    "sparse_image": {
        "dimensions": {"rows": 32, "cols": 32},
        "noise": {"blur_snr_db": 17.6},
        "operators": {"kernel_size": 7, "svd_threshold_rel": 0.05,
                      "sparsity_radius": 1.5, "log_penalty": False},
        "solver": {"gamma": 1.9, "max_iters": 400000, "tol": 1e-6,
                   "trace_every": 200, "snapshots": False},
        "schedule": {"kind": "mod_skip", "expensive": [0], "period": 5},
    },
    "source_separation": {
        "dimensions": {"rows": 48, "cols": 48},
        "noise": {},
        "operators": {"svd_threshold_rel": 0.08,
                      "sparsity_radius_direct": 10.0,
                      "sparsity_radius_transform": 45.0},
        # gamma 1.0, not 1.9: at 1.9 seed 3 stops 1.34x as far from its
        # tol-1e-10 limit as the plain run does (README, "Stock gamma")
        "solver": {"gamma": 1.0, "max_iters": 40000, "tol": 1e-6,
                   "trace_every": 100, "snapshots": False},
        "schedule": {"kind": "mod_skip", "expensive": [0], "period": 5},
    },
    "custom": {
        "dimensions": {},
        "noise": {},
        "operators": {},
        "solver": {"gamma": 1.9, "max_iters": 20000, "tol": 1e-8,
                   "trace_every": 25, "snapshots": False},
        "schedule": {"kind": "full"},
    },
}


# Operator keys that have no stock value, with the type each value must have.
_OPTIONAL_OPERATORS = {
    "custom": {"matrix_csv": str, "rhs_csv": str, "box_bounds": list},
}


def _is_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


# The JSON type a value must have, keyed by the type of its stock value.
_TYPE_CHECKS = {
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    int: ("an integer",
          lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    float: ("a finite number", _is_number),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a [lo, hi] pair of finite numbers",
           lambda v: isinstance(v, (list, tuple)) and len(v) == 2
           and all(map(_is_number, v))),
}


def _merged(kind: str, section: str, given: Optional[dict]) -> dict:
    """The stock ``section`` of ``kind`` overlaid with ``given``, whose keys
    must be named there or in the kind's optional operators."""
    stock, given = STOCK_PARAMETERS[kind][section], given or {}
    types = {key: type(value) for key, value in stock.items()}
    if section == "operators":
        types.update(_OPTIONAL_OPERATORS.get(kind, {}))
    for key, value in given.items():
        if key not in types:
            raise InvalidParameter(f"{kind} {section}: unknown key {key!r}")
        name, check = _TYPE_CHECKS[types[key]]
        if not check(value):
            raise InvalidParameter(
                f"{kind} {section}: {key!r} must be {name}, got {value!r}")
    return {**stock, **given}


def generate_experiment(kind: str, dimensions: dict, seed: int,
                        noise: Optional[dict] = None,
                        operators: Optional[dict] = None) -> ExperimentData:
    """Build the ground truth and assembled problem for one experiment kind;
    keys left out of ``dimensions``, ``noise`` and ``operators`` take their
    stock values from :data:`STOCK_PARAMETERS`.  A key named neither there
    nor among the kind's optional operators, or a value of another JSON type
    than the stock value (or a non-finite number), raises
    :class:`InvalidParameter`.  So does a value the kind's builder refuses,
    named with every key whose value is not the stock one."""
    if kind not in _BUILDERS:
        raise InvalidParameter(f"unknown experiment kind {kind!r}")
    merged = {section: _merged(kind, section, given) for section, given in
              zip(("dimensions", "noise", "operators"), (dimensions, noise, operators))}
    try:
        return _BUILDERS[kind](seed=int(seed), **merged)
    except InvalidParameter as exc:
        # an optional operator has no stock value, and a given one is not None
        changed = ", ".join(f"{section} {key!r} = {value!r}"
                            for section, values in merged.items()
                            for key, value in values.items()
                            if value != STOCK_PARAMETERS[kind][section].get(key))
        if not changed:
            raise
        raise InvalidParameter(f"{kind}: {changed}: {exc}") from None
