import copy
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

import blockvi
import blockvi.solver
from blockvi.cli import (
    default_manifest,
    generate_experiment,
    load_manifest,
    read_matrix_csv,
    read_pgm,
    read_snapshots_csv,
    read_vector_csv,
    relative_error_trace,
    run_manifest,
    write_json,
    write_matrix_csv,
    write_pgm,
    write_vector_csv,
)
from blockvi.cli.experiments import STOCK_PARAMETERS
from blockvi.cli.main import main
from blockvi.errors import (
    FormatError,
    InvalidParameter,
    ManifestError,
    MissingReference,
)
from blockvi.core import arm_gaps, arm_groups, array_residual, pullback
from blockvi.linops import DenseMatrix
from blockvi.solver import SolverConfig, make_schedule, solve, validate_schedule
from blockvi.space import SpacePoint


def _write_manifest(tmp_path, payload, name="manifest.json"):
    path = tmp_path / name
    write_json(payload, path)
    return path


def _write_nonstrict_manifest(tmp_path, payload):
    # NaN and Infinity, which write_json refuses but a hand-written
    # manifest may hold
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(payload))
    return path


def _strict_json(path):
    """The JSON file at ``path``, refusing NaN and the infinities, which
    strict JSON does not have."""
    def refuse(name):
        raise ValueError(f"{path}: {name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


def _small_manifest(kind, seed, **solver_overrides):
    payload = default_manifest(kind, seed, output_dir="results")
    payload["solver"].update({"max_iters": 120, "trace_every": 5,
                              "snapshots": True})
    payload["solver"].update(solver_overrides)
    return payload


# ---------------------------------------------------------------------------
# PGM and CSV formats
# ---------------------------------------------------------------------------

def test_pgm_payload_bytes(tmp_path):
    path = tmp_path / "tiny.pgm"
    write_pgm(np.array([[0.0, 255.0], [128.0, 64.0]]), path)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert raw[len(b"P5\n2 2\n255\n"):] == bytes([0, 255, 128, 64])


def test_pgm_clamps_for_display_only(tmp_path):
    path = tmp_path / "clamp.pgm"
    write_pgm(np.array([[-3.0, 300.0]]), path)
    np.testing.assert_array_equal(read_pgm(path), [[0.0, 255.0]])


def test_pgm_roundtrip_integer_images(tmp_path, rng):
    img = rng.integers(0, 256, size=(5, 7)).astype(np.float64)
    path = tmp_path / "rt.pgm"
    write_pgm(img, path)
    np.testing.assert_array_equal(read_pgm(path), img)


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n1 1\n255\n0")
    with pytest.raises(FormatError):
        read_pgm(path)


def test_pgm_rejects_short_payload(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(FormatError):
        read_pgm(path)


def test_vector_csv_lossless_roundtrip(tmp_path, rng):
    values = rng.standard_normal(50) * 1e6
    path = tmp_path / "v.csv"
    write_vector_csv(values, path)
    back = read_vector_csv(path)
    assert back.tobytes() == values.tobytes()


@pytest.mark.parametrize("shape", [(5, 1), (1, 5), (1, 1)])
def test_matrix_csv_roundtrip_keeps_a_single_row_or_column(tmp_path, rng, shape):
    # a one-column file has one value a line, which once read back as a row
    matrix = rng.standard_normal(shape)
    path = tmp_path / "m.csv"
    write_matrix_csv(matrix, path)
    back = read_matrix_csv(path)
    assert back.shape == shape
    assert back.tobytes() == matrix.tobytes()


@pytest.mark.parametrize("reader,text", [
    (read_vector_csv, "1.5\n2.5\n3.5\n"),
    (read_snapshots_csv, "0,1.5,2.5\n1,3.5,4.5\n"),
])
def test_csv_readers_reject_a_missing_header(tmp_path, reader, text):
    # without its header, the file's first line of data would be read as one
    path = tmp_path / "no_header.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match="no_header.csv"):
        reader(path)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    payload = default_manifest("signal_recovery", 7)
    path = _write_manifest(tmp_path, payload)
    manifest = load_manifest(path)
    assert manifest.kind == "signal_recovery"
    assert manifest.seed == 7
    assert manifest.solver["gamma"] == 1.9


def test_manifest_rejects_unknown_kind(tmp_path):
    payload = default_manifest("sparse_image", 1)
    payload["kind"] = "telescope"
    path = _write_manifest(tmp_path, payload)
    with pytest.raises(ManifestError, match=r"\$\['kind'\]"):
        load_manifest(path)


def test_manifest_rejects_missing_field(tmp_path):
    payload = default_manifest("sparse_image", 1)
    del payload["solver"]["gamma"]
    path = _write_manifest(tmp_path, payload)
    with pytest.raises(ManifestError, match="gamma"):
        load_manifest(path)


def test_manifest_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "kind": "sparse_image",\n  !\n}')
    with pytest.raises(ManifestError, match="line 3"):
        load_manifest(path)


def test_manifest_rejects_nonfinite_snr(tmp_path):
    payload = default_manifest("signal_recovery", 1)
    payload["noise"]["observation_snr_db"] = float("inf")
    path = _write_nonstrict_manifest(tmp_path, payload)
    with pytest.raises(ManifestError, match="finite"):
        load_manifest(path)


@pytest.mark.parametrize("name,value", [("tol", float("nan")),
                                        ("tol", float("inf")),
                                        ("gamma", float("nan"))])
def test_manifest_rejects_nonfinite_solver_numbers(tmp_path, name, value):
    payload = default_manifest("signal_recovery", 1)
    payload["solver"][name] = value
    path = _write_nonstrict_manifest(tmp_path, payload)
    with pytest.raises(ManifestError, match=rf"\['solver'\]\['{name}'\].*finite"):
        load_manifest(path)


@pytest.mark.parametrize("schedule,key", [
    ({"kind": "full", "blocks": 3}, "blocks"),
    ({"kind": "cyclic_partition", "blocks": 4, "period": 5}, "period"),
    ({"kind": "mod_skip", "period": 5, "always_active": [0]}, "always_active"),
    ({"kind": "explicit", "sets": [[0]], "expensive": [0]}, "expensive"),
], ids=["full", "cyclic_partition", "mod_skip", "explicit"])
def test_manifest_rejects_schedule_keys_the_kind_ignores(tmp_path, capsys,
                                                          schedule, key):
    # these keys used to be dropped silently and the run went on without them
    payload = _small_manifest("signal_recovery", 1)
    payload["schedule"] = schedule
    path = _write_manifest(tmp_path, payload)
    message = rf"\$\['schedule'\]\['{key}'\]: not used by schedule kind"
    with pytest.raises(ManifestError, match=message):
        load_manifest(path)
    assert main(["run", str(path)]) == 1
    assert f"['schedule']['{key}']" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


_DROP = object()

# single mutations of the signal_recovery manifest under the cyclic schedule
# of its stock cells (_cyclic_signal_manifest), each breaking one keyword of
# the schema (or none): (id, path, new value or _DROP)
_MUTATIONS = [
    ("missing kind", ("kind",), _DROP),
    ("missing output_dir", ("output_dir",), _DROP),
    ("missing tol", ("solver", "tol"), _DROP),
    ("missing schedule kind", ("schedule", "kind"), _DROP),
    ("extra top key", ("extra",), 1),
    ("extra solver key", ("solver", "extra"), 1),
    ("extra schedule key", ("schedule", "extra"), 1),
    ("extra operator key", ("operators", "extra"), 1),
    ("unknown kind", ("kind",), "telescope"),
    ("unknown schedule kind", ("schedule", "kind"), "random"),
    ("unknown t_init_policy", ("solver", "t_init_policy"), "warm"),
    ("unknown x0", ("solver", "x0"), "ones"),
    ("string seed", ("seed",), "1"),
    ("bool seed", ("seed",), True),
    ("bool gamma", ("solver", "gamma"), False),
    ("string tol", ("solver", "tol"), "1e-6"),
    ("integer tol", ("solver", "tol"), 0),
    ("int snapshots", ("solver", "snapshots"), 1),
    ("list solver", ("solver",), []),
    ("string dimension", ("dimensions", "n"), "128"),
    ("string noise", ("noise", "observation_snr_db"), "-2.3"),
    ("negative seed", ("seed",), -1),
    ("zero max_iters", ("solver", "max_iters"), 0),
    ("negative tol", ("solver", "tol"), -1e-6),
    ("zero dimension", ("dimensions", "n"), 0),
    ("empty output_dir", ("output_dir",), ""),
    ("integer output_dir", ("output_dir",), 3),
    ("negative always_active item", ("schedule", "always_active", 1), -1),
    ("string always_active item", ("schedule", "always_active", 1), "1"),
    ("always_active not an array", ("schedule", "always_active"), 0),
    ("negative sets item", ("schedule", "sets"), [[0], [1, -2]]),
    ("integer in sets", ("schedule", "sets"), [[0], 1]),
]


def _cyclic_signal_manifest(seed, **solver_overrides):
    """The stock signal_recovery manifest with the cells of its period as a
    ``cyclic_partition`` (arms 0 and 1 always active): a period that does not
    start with every arm, so it runs plain."""
    payload = _small_manifest("signal_recovery", seed, **solver_overrides)
    payload["schedule"] = {"kind": "cyclic_partition", "blocks": 4,
                           "always_active": [0, 1]}
    return payload


def _mutated(path, value):
    payload = copy.deepcopy(default_manifest("signal_recovery", 1))
    payload["schedule"] = _cyclic_signal_manifest(1)["schedule"]
    node = payload
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return payload


@pytest.mark.parametrize("path", [("schedule", "blocks"), ("seed",),
                                  ("solver", "max_iters")],
                         ids=["blocks", "seed", "max_iters"])
def test_manifest_rejects_integral_float_for_integer(tmp_path, path):
    # JSON Schema's "integer" admits 4.0; `blocks: 4.0` then ended in a stray
    # TypeError from make_schedule, and `seed: 4.0` ran on
    manifest = _write_manifest(tmp_path, _mutated(path, 4.0))
    where = re.escape("$" + "".join(f"[{key!r}]" for key in path))
    with pytest.raises(ManifestError, match=rf"{where}: 4\.0 is not of type 'integer'"):
        load_manifest(manifest)


@pytest.mark.parametrize("payload", [
    *(pytest.param(default_manifest(kind, 1), id=kind)
      for kind in ("image_recovery", "signal_recovery", "sparse_image",
                   "source_separation", "custom")),
    *(pytest.param(_mutated(path, value), id=name)
      for name, path, value in _MUTATIONS),
])
def test_manifest_check_agrees_with_jsonschema(payload):
    # the checker walks MANIFEST_SCHEMA itself; jsonschema is the reference
    jsonschema = pytest.importorskip("jsonschema")
    from blockvi.cli.manifest import MANIFEST_SCHEMA, _check

    best = jsonschema.exceptions.best_match(
        jsonschema.Draft202012Validator(MANIFEST_SCHEMA).iter_errors(payload))
    ours = _check(payload, MANIFEST_SCHEMA, ())
    if best is None:
        assert ours is None
    else:
        assert ours is not None and ours[0] == tuple(best.absolute_path)


@pytest.mark.parametrize("path", [("seed",), ("solver", "max_iters"),
                                  ("schedule", "blocks"), ("dimensions", "n"),
                                  ("schedule", "always_active", 1)])
def test_manifest_check_rejects_integral_floats_jsonschema_admits(path):
    jsonschema = pytest.importorskip("jsonschema")
    from blockvi.cli.manifest import MANIFEST_SCHEMA, _check

    payload = _mutated(path, 1.0)
    jsonschema.validate(payload, MANIFEST_SCHEMA)
    assert _check(payload, MANIFEST_SCHEMA, ()) == (
        path, "1.0 is not of type 'integer'")


def test_default_manifest_shares_nothing_with_the_stock_parameters():
    # its lists used to be the stock lists, so an edit in place reached every
    # later manifest of the kind
    stock = copy.deepcopy(STOCK_PARAMETERS["signal_recovery"])
    default_manifest("signal_recovery", 1)["schedule"]["sets"][1].append(40)
    assert STOCK_PARAMETERS["signal_recovery"] == stock
    fresh = default_manifest("signal_recovery", 1)
    assert fresh["schedule"]["sets"] == stock["schedule"]["sets"]


def test_manifest_rejects_solver_x0(tmp_path, capsys):
    # every run starts at zero, so the manifest names no starting point
    payload = _small_manifest("signal_recovery", 1, x0="zeros")
    path = _write_manifest(tmp_path, payload)
    message = "$['solver']: additional property 'x0' is not allowed"
    with pytest.raises(ManifestError, match=re.escape(message)):
        load_manifest(path)
    assert main(["run", str(path)]) == 1
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generated experiments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["image_recovery", "signal_recovery",
                                  "sparse_image", "source_separation"])
def test_generated_problems_validate(kind):
    payload = default_manifest(kind, 13)
    data = generate_experiment(kind, payload["dimensions"], 13,
                               payload["noise"], payload["operators"])
    prob = data.problem
    assert math.fsum(prob.arrays.weights.tolist()) == pytest.approx(1.0, abs=1e-12)
    assert prob.constraint.projector(data.ground_truth) == data.ground_truth
    # schedule from the default manifest covers the arms
    sched = make_schedule(index_count=prob.arm_count, **payload["schedule"])
    assert validate_schedule(sched.sets, prob.arm_count) == sched.K


def test_generation_is_seed_deterministic():
    payload = default_manifest("signal_recovery", 5)
    a = generate_experiment("signal_recovery", payload["dimensions"], 5,
                            payload["noise"], payload["operators"])
    b = generate_experiment("signal_recovery", payload["dimensions"], 5,
                            payload["noise"], payload["operators"])
    assert a.ground_truth == b.ground_truth
    assert a.observation == b.observation
    for pa, pb in zip(a.problem.prescriptions, b.problem.prescriptions):
        assert pa.target == pb.target



@pytest.mark.parametrize("kind", ["image_recovery", "signal_recovery",
                                  "sparse_image", "source_separation"])
def test_omitted_parameters_take_stock_values(kind):
    # a manifest that leaves out every dimension, noise and operator key
    # builds the same instance as the stock manifest, bit for bit
    payload = default_manifest(kind, 3)
    stock = generate_experiment(kind, payload["dimensions"], 3,
                                payload["noise"], payload["operators"])
    bare = generate_experiment(kind, {}, 3, {}, {})
    assert bare.notes == stock.notes
    assert bare.ground_truth == stock.ground_truth
    for pb, ps in zip(bare.problem.prescriptions, stock.problem.prescriptions,
                      strict=True):
        assert pb.target == ps.target
    # a numpy integer passes for an integer dimension
    numpy_ints = {key: np.int64(value)
                  for key, value in payload["dimensions"].items()}
    assert generate_experiment(kind, numpy_ints, 3, {}, {}).ground_truth \
        == stock.ground_truth

@pytest.mark.parametrize("kind, section, given, message", [
    pytest.param("sparse_image", "operators", {"svd_treshold_rel": 0.2},
                 "unknown key 'svd_treshold_rel'", id="misspelt"),
    pytest.param("image_recovery", "operators", {"kernel_size": "abc"},
                 "'kernel_size' must be an integer", id="string"),
    pytest.param("image_recovery", "operators", {"kernel_size": 15.0},
                 "'kernel_size' must be an integer", id="float-for-int"),
    pytest.param("sparse_image", "operators", {"log_penalty": 1},
                 "'log_penalty' must be a boolean", id="int-for-bool"),
    pytest.param("signal_recovery", "noise", {"observation_snr_db": float("nan")},
                 "'observation_snr_db' must be a finite number", id="nan"),
    pytest.param("signal_recovery", "dimensions", {"size": 64},
                 "unknown key 'size'", id="dimension"),
    pytest.param("signal_recovery", "operators", {"svd_threshold": 1.0},
                 "unknown key 'svd_threshold'", id="other-kinds-optional"),
    pytest.param("custom", "operators", {"box_bounds": [0.0]},
                 r"'box_bounds' must be a \[lo, hi\] pair", id="bounds"),
    pytest.param("image_recovery", "operators", {"mean_target": 100.0},
                 "unknown key 'mean_target'", id="mean-target"),
    pytest.param("sparse_image", "operators", {"svd_threshold": 17.0},
                 "unknown key 'svd_threshold'", id="svd-threshold-sparse"),
    pytest.param("source_separation", "operators", {"svd_threshold": 17.0},
                 "unknown key 'svd_threshold'", id="svd-threshold-separation"),
])
def test_unknown_or_ill_typed_keys_are_rejected(kind, section, given, message):
    # a misspelt key used to run silently with the stock value, and a string
    # where a number belongs ended in a stray ValueError
    sections = {"dimensions": {}, "noise": {}, "operators": {}, section: given}
    with pytest.raises(InvalidParameter, match=rf"{kind} {section}: {message}"):
        generate_experiment(kind, sections["dimensions"], 3, sections["noise"],
                            sections["operators"])


def test_run_reports_a_misspelt_key(tmp_path, capsys):
    payload = _small_manifest("sparse_image", 3)
    payload["operators"] = {"svd_treshold_rel": 0.2}
    assert main(["run", str(_write_manifest(tmp_path, payload))]) == 1
    assert "unknown key 'svd_treshold_rel'" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("kind,section,values,key", [
    ("signal_recovery", "operators", {"block_count": 0}, "block_count"),
    ("signal_recovery", "operators", {"block_count": -4}, "block_count"),
    ("sparse_image", "dimensions", {"rows": 6}, "rows"),
    ("sparse_image", "dimensions", {"cols": 3}, "cols"),
    ("source_separation", "dimensions", {"rows": 5, "cols": 5}, "rows"),
    ("image_recovery", "dimensions", {"rows": 1, "cols": 1}, "rows"),
    ("signal_recovery", "operators", {"root_threshold": -1.0}, "rho"),
    ("image_recovery", "operators", {"kernel_sigma": 1e-300}, "kernel_sigma"),
    ("image_recovery", "operators", {"kernel_sigma": 1e300}, "kernel_sigma"),
    ("signal_recovery", "operators", {"root_threshold": 1e300},
     "root_threshold"),
    ("sparse_image", "operators", {"sparsity_radius": 0.0}, "sparsity_radius"),
    ("sparse_image", "operators", {"sparsity_radius": 0.0, "log_penalty": True},
     "sparsity_radius"),
    ("sparse_image", "operators", {"sparsity_radius": 1e-300, "log_penalty": True},
     "sparsity_radius"),
    ("sparse_image", "operators", {"sparsity_radius": 0.1, "log_penalty": True},
     "sparsity_radius"),
    ("sparse_image", "operators", {"sparsity_radius": 1e154, "log_penalty": True},
     "sparsity_radius"),
    ("sparse_image", "operators", {"sparsity_radius": 1e200, "log_penalty": True},
     "sparsity_radius"),
    ("sparse_image", "operators", {"sparsity_radius": 1e300, "log_penalty": True},
     "sparsity_radius"),
    ("source_separation", "operators", {"sparsity_radius_direct": 0.0},
     "sparsity_radius_direct"),
    ("source_separation", "operators", {"sparsity_radius_transform": -1.0},
     "sparsity_radius_transform"),
])
def test_generators_reject_sizes_they_cannot_draw(tmp_path, capsys, kind,
                                                  section, values, key):
    # values the manifest check admits once escaped main as a bare
    # ZeroDivisionError or numpy ValueError, a traceback instead of an error
    # line; a one-pixel image and a negative root threshold ran into numpy
    # warnings first (a constant phantom, a negative power base)
    payload = _small_manifest(kind, 0)
    payload[section] = values
    assert main(["run", str(_write_manifest(tmp_path, payload))]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert key in lines[0]
    assert not (tmp_path / "results").exists()


def _edge_values(stock):
    """The edge values of a numeric stock key: 0-3, -1 and 7 for an integer;
    0, -1, 1e-300, 1e300, half and twice the stock value for a float."""
    if isinstance(stock, bool):
        return []
    if isinstance(stock, int):
        return [0, 1, 2, 3, -1, 7]
    return [0.0, -1.0, 1e-300, 1e300, stock / 2, stock * 2]


def _edge_cases():
    for kind in ("image_recovery", "signal_recovery", "sparse_image",
                 "source_separation"):
        for section in ("dimensions", "noise", "operators"):
            for key, stock in STOCK_PARAMETERS[kind][section].items():
                for value in _edge_values(stock):
                    yield kind, section, key, value


def test_every_admitted_edge_value_fails_typed_or_runs(tmp_path):
    # each numeric key of the generated kinds set to an edge value, seed 0:
    # a value the manifest check admits must run or raise a BlockviError;
    # kernel_sigma 1e-300 and 1e300 and root_threshold 1e300 once ended in a
    # numpy warning or a bare OverflowError
    untyped = []
    for k, (kind, section, key, value) in enumerate(_edge_cases()):
        payload = default_manifest(kind, 0, output_dir=f"results{k}")
        payload[section][key] = value
        payload["solver"]["max_iters"] = 3
        path = _write_manifest(tmp_path, payload, name=f"manifest{k}.json")
        try:
            run_manifest(load_manifest(path))
        except blockvi.BlockviError:
            pass
        except Exception as exc:        # any other exception is untyped
            untyped.append((kind, section, key, value, repr(exc)))
    assert k + 1 == 150
    assert untyped == []


def _fuzz_cases(count, seed=5):
    """``count`` seeded manifests of the generated kinds, each with a set of
    the dimension, noise and operator keys it changed: each key takes an edge
    value (a boolean either value) with probability 0.4, under the stock, a
    ``full``, a ``cyclic_partition`` or a ``mod_skip`` schedule and at most
    60 iterations."""
    rng = np.random.default_rng(seed)
    kinds = ("image_recovery", "signal_recovery", "sparse_image",
             "source_separation")
    schedules = (lambda: None, lambda: {"kind": "full"},
                 lambda: {"kind": "cyclic_partition",
                          "blocks": int(rng.integers(1, 5)),
                          "always_active": [0] if rng.random() < 0.5 else []},
                 lambda: {"kind": "mod_skip", "expensive": [0],
                          "period": int(rng.integers(1, 6))})
    for k in range(count):
        kind = kinds[k % len(kinds)]
        payload = default_manifest(kind, int(rng.integers(4)),
                                   output_dir=f"results{k}")
        changed = set()
        for section in ("dimensions", "noise", "operators"):
            for key, stock in STOCK_PARAMETERS[kind][section].items():
                if rng.random() >= 0.4:
                    continue
                values = ([True, False] if isinstance(stock, bool)
                          else _edge_values(stock))
                payload[section][key] = values[int(rng.integers(len(values)))]
                if payload[section][key] != stock:
                    changed.add(key)
        schedule = schedules[int(rng.integers(len(schedules)))]()
        if schedule is not None:
            payload["schedule"] = schedule
        payload["solver"]["max_iters"] = int(rng.integers(1, 61))
        yield payload, changed


def test_seeded_key_combinations_fail_typed_naming_a_key_or_run(tmp_path):
    # several keys of one stock manifest at a time under every schedule kind:
    # each case runs (exit 0 or 2, with a summary) or raises a BlockviError,
    # and a refusal of the kind's generator names a key the case changed;
    # a kernel size, clip_max, fd_bound, n or svd_threshold_rel that the
    # generator could not use once failed with a message that named none
    untyped, unnamed = [], []
    for k, (payload, changed) in enumerate(_fuzz_cases(600)):
        path = _write_manifest(tmp_path, payload, name=f"manifest{k}.json")
        try:
            code = run_manifest(load_manifest(path))
        except blockvi.BlockviError as exc:
            frames = {f.name for f in traceback.extract_tb(exc.__traceback__)}
            if "generate_experiment" in frames and "_merged" not in frames \
                    and not any(re.search(rf"\b{key}\b", str(exc))
                                for key in changed):
                unnamed.append((payload["kind"], sorted(changed), str(exc)))
            continue
        except Exception as exc:        # any other exception is untyped
            untyped.append((payload["kind"], sorted(changed), repr(exc)))
            continue
        assert code in (0, 2)
        assert (tmp_path / f"results{k}" / "summary.json").is_file()
    assert untyped == []
    assert unnamed == []


def test_stock_signal_sets_refuse_fewer_dictionary_rows_naming_the_arms(
        tmp_path, capsys):
    # the stock signal schedule names the 152 arms of 150 dictionary rows, and
    # with 100 rows its refusal once printed the whole 152-arm first set
    payload = _small_manifest("signal_recovery", 0)
    payload["dimensions"]["dictionary_rows"] = 100
    assert main(["run", str(_write_manifest(tmp_path, payload))]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: sets: activation set 0 of the period has arms "
        f"{list(range(102, 152))} outside 0..101"]
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("name,text", [
    ("matrix.csv", "1.0,nan\n2.0,3.0\n"),
    ("matrix.csv", "1.0,inf\n2.0,3.0\n"),
    ("matrix.csv", ""),
    ("matrix.csv", "1.0,2.0\n3.0\n"),
    ("rhs.csv", "value\n1.0\nnan\n"),
    ("rhs.csv", "value\n"),
], ids=["matrix-nan", "matrix-inf", "matrix-empty", "matrix-ragged",
        "rhs-nan", "rhs-empty"])
def test_custom_run_refuses_a_bad_csv_naming_it(tmp_path, capsys, name, text):
    # an empty matrix file warned first, and a NaN entry ended in a message
    # about the step bound
    write_matrix_csv(np.array([[1.0, 2.0], [2.0, 3.0]]), tmp_path / "matrix.csv")
    write_vector_csv(np.array([1.0, 2.0]), tmp_path / "rhs.csv")
    (tmp_path / name).write_text(text)
    payload = default_manifest("custom", 0)
    payload["operators"] = {"matrix_csv": "matrix.csv", "rhs_csv": "rhs.csv"}
    assert main(["run", str(_write_manifest(tmp_path, payload))]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert name in lines[0]
    assert not (tmp_path / "results").exists()
    with pytest.raises(FormatError, match=name):
        (read_matrix_csv if name == "matrix.csv" else read_vector_csv)(
            tmp_path / name)


@pytest.mark.parametrize("text,row", [
    ("1.0,2.0\n1e200,1.0\n2.0,3.0\n", 2),
    ("8.9e153,1.0\n8.9e153,1.0\n8.9e153,1.0\n", 2),
], ids=["row-overflows", "rows-overflow-together"])
def test_custom_run_refuses_rows_whose_gram_overflows(tmp_path, capsys, text, row):
    # such a Gram warned "overflow encountered in matmul" in a step bound, and
    # the run ended with an error naming neither the file nor the row
    (tmp_path / "matrix.csv").write_text(text)
    write_vector_csv(np.ones(3), tmp_path / "rhs.csv")
    payload = default_manifest("custom", 0)
    payload["operators"] = {"matrix_csv": "matrix.csv", "rhs_csv": "rhs.csv"}
    assert main(["run", str(_write_manifest(tmp_path, payload))]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "matrix.csv" in lines[0] and f"row {row}:" in lines[0]
    assert not (tmp_path / "results").exists()


def test_noise_hits_snr_exactly():
    from blockvi.cli.experiments import _noise_for_snr
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(200)
    w = _noise_for_snr(rng, ref, -2.3)
    snr = 20 * np.log10(np.linalg.norm(ref) / np.linalg.norm(w))
    assert snr == pytest.approx(-2.3, abs=1e-12)


def test_custom_experiment_matches_lstsq(tmp_path):
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((10, 4))
    rhs = rng.standard_normal(10)
    write_matrix_csv(matrix, tmp_path / "a.csv")
    write_vector_csv(rhs, tmp_path / "b.csv")
    payload = default_manifest("custom", 0)
    payload["operators"] = {"matrix_csv": str(tmp_path / "a.csv"),
                            "rhs_csv": str(tmp_path / "b.csv")}
    path = _write_manifest(tmp_path, payload)
    assert run_manifest(load_manifest(path)) == 0
    recovered = read_vector_csv(tmp_path / "results" / "recovered.csv")
    oracle = np.linalg.lstsq(matrix, rhs, rcond=None)[0]
    np.testing.assert_allclose(recovered, oracle, atol=1e-6)


def test_custom_run_of_a_one_column_system_converges(tmp_path):
    matrix = np.array([[1.0], [0.98], [1.02], [1.0]])
    rhs = np.array([1.0, 1.0, 1.03, 1.0])
    write_matrix_csv(matrix, tmp_path / "a.csv")
    write_vector_csv(rhs, tmp_path / "b.csv")
    payload = default_manifest("custom", 0)
    payload["operators"] = {"matrix_csv": str(tmp_path / "a.csv"),
                            "rhs_csv": str(tmp_path / "b.csv")}
    assert main(["run", str(_write_manifest(tmp_path, payload))]) == 0
    recovered = read_vector_csv(tmp_path / "results" / "recovered.csv")
    oracle = np.linalg.lstsq(matrix, rhs, rcond=None)[0]
    np.testing.assert_allclose(recovered, oracle, atol=1e-6)


def test_custom_run_with_a_zero_truth_writes_strict_json(tmp_path):
    # a zero ground truth has no relative error: the summary holds null
    # there, not the NaN that strict JSON does not have
    write_matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, -6.0]]), tmp_path / "a.csv")
    write_vector_csv(np.zeros(3), tmp_path / "b.csv")
    payload = default_manifest("custom", 0)
    payload["operators"] = {"matrix_csv": "a.csv", "rhs_csv": "b.csv"}
    assert main(["run", str(_write_manifest(tmp_path, payload))]) == 0
    summary = _strict_json(tmp_path / "results" / "summary.json")
    assert summary["metrics"] == {"recovered_rel_error": None}


def test_write_json_refuses_nan_and_writes_nothing(tmp_path):
    path = tmp_path / "summary.json"
    with pytest.raises(FormatError, match=re.escape(str(path))):
        write_json({"x": [1.0, float("nan")]}, path)
    assert not path.exists()


def test_custom_run_with_box_bounds_matches_bounded_least_squares(tmp_path):
    from scipy.optimize import lsq_linear

    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((40, 8))
    rhs = matrix @ rng.uniform(-1.5, 1.5, 8) + 0.1 * rng.standard_normal(40)
    write_matrix_csv(matrix, tmp_path / "a.csv")
    write_vector_csv(rhs, tmp_path / "b.csv")
    payload = default_manifest("custom", 0)
    payload["operators"] = {"matrix_csv": "a.csv", "rhs_csv": "b.csv",
                            "box_bounds": [-0.5, 0.5]}
    payload["solver"]["tol"] = 1e-12
    assert payload["schedule"] == {"kind": "full"}
    assert main(["run", str(_write_manifest(tmp_path, payload))]) == 0
    recovered = read_vector_csv(tmp_path / "results" / "recovered.csv")
    oracle = lsq_linear(matrix, rhs, bounds=(-0.5, 0.5), method="bvls").x
    np.testing.assert_allclose(recovered, oracle, rtol=0, atol=1e-9)
    assert recovered.min() == -0.5 and recovered.max() == 0.5


def test_relative_csv_paths_resolve_against_the_manifest(tmp_path, monkeypatch):
    # as a relative output_dir does, so a run started from another
    # directory reads the manifest's own matrix.csv and rhs.csv
    case = tmp_path / "case"
    case.mkdir()
    rng = np.random.default_rng(5)
    matrix = rng.standard_normal((12, 3))
    write_matrix_csv(matrix, case / "matrix.csv")
    write_vector_csv(rng.standard_normal(12), case / "rhs.csv")
    payload = default_manifest("custom", 0)
    payload["operators"] = {"matrix_csv": "matrix.csv", "rhs_csv": "rhs.csv"}
    path = _write_manifest(case, payload)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert main(["run", str(path)]) == 0
    summary = json.loads((case / "results" / "summary.json").read_text())
    # the manifest is echoed as written
    assert summary["manifest"]["operators"] == payload["operators"]
    assert summary["notes"] == {"rows": 12, "cols": 3}


# ---------------------------------------------------------------------------
# run pipeline
# ---------------------------------------------------------------------------

def test_run_writes_expected_artifacts(tmp_path):
    payload = _small_manifest("signal_recovery", 7)
    path = _write_manifest(tmp_path, payload)
    code = run_manifest(load_manifest(path))
    out = tmp_path / "results"
    assert code == 2  # tiny budget: stops on max_iters
    for name in ["recovered.csv", "ground_truth.csv", "observation.csv",
                 "trace.csv", "snapshots.csv", "summary.json"]:
        assert (out / name).exists(), name
    summary = _strict_json(out / "summary.json")
    assert summary["status"] == "max_iters"
    assert summary["iterations"] == 120
    assert len(summary["arm_gaps"]) == summary["manifest"]["dimensions"]["dictionary_rows"] + 2
    assert "observation_rel_error" in summary["metrics"]


def test_summary_gaps_come_from_the_solver_kernel(tmp_path, monkeypatch):
    # a run evaluates no residual after its solve: it makes the pullback
    # calls of its solve alone, and its residual is the last record's,
    # array_residual at the recovered point bit for bit; the gaps and the
    # inconsistency bound share one pass, one evaluation of each group of
    # Problem.groups
    payload = _small_manifest("signal_recovery", 7)
    calls, evaluations = [], []
    fne_residuals = blockvi.core._fne_residuals

    def counted(*args):
        calls.append(None)
        return pullback(*args)

    def evaluated(*args):
        evaluations.append(None)
        return fne_residuals(*args)

    monkeypatch.setattr("blockvi.core.pullback", counted)
    monkeypatch.setattr("blockvi.solver.pullback", counted)
    monkeypatch.setattr("blockvi.core._fne_residuals", evaluated)
    run_manifest(load_manifest(_write_manifest(tmp_path, payload)))
    run_calls, run_evaluations = len(calls), len(evaluations)
    out = tmp_path / "results"
    summary = json.loads((out / "summary.json").read_text())
    problem = generate_experiment("signal_recovery", payload["dimensions"], 7,
                                  payload["noise"], payload["operators"]).problem
    calls.clear()
    evaluations.clear()
    solve(problem, make_schedule(index_count=problem.arm_count, **payload["schedule"]),
          SolverConfig(x0=SpacePoint.zeros(problem.domain_shape), **payload["solver"]))
    assert run_calls == len(calls) > 0
    assert run_evaluations - len(evaluations) == len(problem.groups)
    recovered = read_vector_csv(out / "recovered.csv")
    assert summary["final_residual"] == array_residual(problem, recovered)
    gaps = arm_gaps(problem, recovered)
    assert summary["arm_gaps"] == gaps.tolist()
    assert summary["inconsistency_bound"] == math.sqrt(math.fsum(gaps ** 2))


def test_run_builds_the_all_arm_groups_once(tmp_path, monkeypatch):
    # the solve's bound, rows and residual, then the summary's gaps (and the
    # inconsistency bound, their norm) all read the problem's one grouping of
    # all arms; once the problem exists, the one matrix built is its fused
    # group's stacked rows
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((12, 4))
    write_matrix_csv(matrix, tmp_path / "matrix.csv")
    write_vector_csv(matrix @ rng.standard_normal(4) + rng.standard_normal(12),
                     tmp_path / "rhs.csv")
    payload = default_manifest("custom", 0)
    payload["operators"] = {"matrix_csv": str(tmp_path / "matrix.csv"),
                            "rhs_csv": str(tmp_path / "rhs.csv")}
    builds, stacks = [], []

    def counted_groups(problem, atom):
        builds.append(list(atom) == list(range(problem.arm_count)))
        return arm_groups(problem, atom)

    init = DenseMatrix.__init__

    def counted_matrix(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stacks.append(self.matrix.shape[0])

    def generated(*args):
        data = generate_experiment(*args)
        monkeypatch.setattr(DenseMatrix, "__init__", counted_matrix)
        return data

    monkeypatch.setattr("blockvi.core.arm_groups", counted_groups)
    monkeypatch.setattr("blockvi.cli.runner.generate_experiment", generated)
    assert run_manifest(load_manifest(_write_manifest(tmp_path, payload))) == 0
    assert builds == [True]
    assert stacks == [12]


def test_run_exit_codes_via_main(tmp_path, capsys):
    payload = _small_manifest("signal_recovery", 3)
    payload["solver"]["gamma"] = 2.5
    path = _write_manifest(tmp_path, payload)
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "(0, 2)" in captured.err
    assert not (tmp_path / "results").exists()      # refused before any output


def test_run_into_an_existing_file_reports_one_error_line(tmp_path, capsys):
    # the output directory cannot be made where a regular file stands: the
    # OSError ends the run with exit 1 and one error line, not a traceback
    (tmp_path / "results").write_text("not a directory\n")
    path = _write_manifest(tmp_path, _small_manifest("sparse_image", 3))
    assert main(["run", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "results" in lines[0]
    assert (tmp_path / "results").read_text() == "not a directory\n"


def test_summary_reports_acceleration_only_when_on(tmp_path):
    for kind in ("sparse_image", "image_recovery", "signal_recovery"):
        d = tmp_path / kind
        d.mkdir()
        path = _write_manifest(d, _small_manifest(kind, 2))
        run_manifest(load_manifest(path))
        summary = json.loads((d / "results" / "summary.json").read_text())
        # mod_skip and signal's period of 5, and full: each led by every arm
        acc = summary["acceleration"]
        assert acc["memory"] == blockvi.solver._Anderson.MEMORY
        assert acc["accepted"] + acc["rejected"] > 0
        assert acc["accepted"] <= acc["kept"] and acc["restarts"] >= 0


def test_summary_says_why_a_cyclic_run_is_not_accelerated(tmp_path):
    # the stock signal cells without the set of every arm in front: the run
    # is the plain run bit for bit, and summary.json says why
    payload = _cyclic_signal_manifest(2)
    run_manifest(load_manifest(_write_manifest(tmp_path, payload)))
    out = tmp_path / "results"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["acceleration"] == {
        "skipped": "the period does not start with every arm"}
    problem = generate_experiment("signal_recovery", payload["dimensions"], 2,
                                  payload["noise"], payload["operators"]).problem
    plain = solve(problem, make_schedule(index_count=problem.arm_count,
                                         **payload["schedule"]),
                  dataclasses.replace(
                      SolverConfig(x0=SpacePoint.zeros(problem.domain_shape),
                                   **payload["solver"]),
                      accelerate=False))
    assert plain.acceleration is None
    assert read_vector_csv(out / "recovered.csv").tobytes() == \
        plain.solution.data.tobytes()
    assert summary["iterations"] == plain.trace.records[-1].n + 1


def test_module_entry_point_runs_without_runpy_warning():
    # `python -m blockvi.cli.main` must not find the module already imported
    # by its package, which makes runpy warn
    src = os.path.dirname(os.path.dirname(blockvi.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "blockvi.cli.main",
         "--help"], env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr.decode()


def _run_python(code: str, cwd, *args) -> str:
    src = os.path.dirname(os.path.dirname(blockvi.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _readme_blocks(language: str) -> list:
    """The fenced ``language`` blocks of README.md, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```$", readme, re.S | re.M)


def test_readme_python_examples_run_without_warnings(tmp_path):
    blocks = _readme_blocks("python")
    assert blocks
    for code in blocks:
        _run_python("import warnings; warnings.simplefilter('error')\n" + code,
                    tmp_path)


def test_readme_manifests_load(tmp_path):
    blocks = _readme_blocks("json")
    assert blocks
    for k, text in enumerate(blocks):
        path = tmp_path / f"manifest{k}.json"
        path.write_text(text)
        load_manifest(path)


def test_runs_without_transforms_never_import_scipy(tmp_path):
    # importing scipy.fft costs more than these runs take to solve, and
    # jsonschema more than some do; the FFT and DCT operators load scipy's
    # pocketfft extension from its file instead of importing scipy
    dirs = []
    for kind, seed in [("signal_recovery", 0), ("image_recovery", 1),
                       ("sparse_image", 3), ("source_separation", 0)]:
        d = tmp_path / kind
        d.mkdir()
        _write_manifest(d, _small_manifest(kind, seed))
        dirs.append(str(d))
    custom = tmp_path / "custom"
    custom.mkdir()
    rng = np.random.default_rng(2)
    write_matrix_csv(rng.standard_normal((30, 5)), custom / "matrix.csv")
    write_vector_csv(rng.standard_normal(30), custom / "rhs.csv")
    payload = default_manifest("custom", 0)
    payload["operators"] = {"matrix_csv": "matrix.csv", "rhs_csv": "rhs.csv"}
    _write_manifest(custom, payload)
    code = (
        "import sys\n"
        "from blockvi.cli.main import main\n"
        "codes = [main(['run', d + '/manifest.json']) for d in sys.argv[1:]]\n"
        "print(codes, sorted(m for m in sys.modules\n"
        "                    if m.split('.')[0] in ('scipy', 'jsonschema')))\n")
    out = _run_python(code, tmp_path, *dirs, str(custom))
    assert out.split() == ["[2,", "2,", "2,", "2,", "0]", "[]"]


@pytest.mark.parametrize("build", [
    "linops.CircularConvolution2D(linops.make_uniform_kernel(3), 8, 8)",
    "linops.Dct2D(8, 8)",
    "fne_ops.PhasePrescription(np.zeros((8, 8)), BlockShape.image(8, 8))",
], ids=["convolution", "dct", "phase"])
def test_transform_operators_load_no_scipy_module(tmp_path, build):
    # building, copying and pickling a transform operator import no scipy
    # module; a copy, a pickle and an unpickle in a fresh process apply as the
    # original does, and scipy.fft can still be imported afterwards
    head = (
        "import copy, pickle, sys\n"
        "import numpy as np\n"
        "from blockvi import fne_ops, linops\n"
        "from blockvi.space import BlockShape, SpacePoint\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "x = SpacePoint(np.arange(64.0), BlockShape.image(8, 8))\n")
    code = head + (
        f"op = {build}\n"
        "y = op.apply(x)\n"
        "blob = pickle.dumps(op)\n"
        "for twin in (copy.deepcopy(op), pickle.loads(blob)):\n"
        "    assert twin.apply(x) == y\n"
        "assert scipy_modules() == [], scipy_modules()\n"
        "open('op.pickle', 'wb').write(blob)\n"
        "np.save('y.npy', y.data)\n"
        "import scipy.fft\n"
        "assert np.array_equal(scipy.fft.rfft2(np.eye(4)), np.fft.rfft2(np.eye(4)))\n"
        "assert op.apply(x) == y and copy.deepcopy(op).apply(x) == y\n"
        "print('ok')\n")
    assert _run_python(code, tmp_path).split() == ["ok"]
    fresh = head + (
        "op = pickle.loads(open('op.pickle', 'rb').read())\n"
        "assert np.array_equal(op.apply(x).data, np.load('y.npy'))\n"
        "assert scipy_modules() == [], scipy_modules()\n"
        "print('ok')\n")
    assert _run_python(fresh, tmp_path).split() == ["ok"]


def test_run_determinism_byte_identical(tmp_path):
    # identical manifests in separate directories: every artifact matches
    # byte for byte except the wall-clock seconds column of the trace
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        payload = _small_manifest("sparse_image", 5)
        path = _write_manifest(d, payload)
        assert run_manifest(load_manifest(path)) == 2
        outs.append(d / "results")
    for fname in ["recovered.csv", "recovered.pgm", "ground_truth.csv",
                  "observation.csv", "snapshots.csv", "summary.json"]:
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname
    t0 = (outs[0] / "trace.csv").read_text().splitlines()
    t1 = (outs[1] / "trace.csv").read_text().splitlines()
    assert len(t0) == len(t1)
    for a, b in zip(t0, t1):
        pa, pb = a.split(","), b.split(",")
        del pa[1], pb[1]          # seconds: physically non-deterministic
        assert pa == pb


def test_image_kinds_write_pgm(tmp_path):
    payload = _small_manifest("image_recovery", 3)
    path = _write_manifest(tmp_path, payload)
    run_manifest(load_manifest(path))
    out = tmp_path / "results"
    img = read_pgm(out / "recovered.pgm")
    assert img.shape == (32, 32)


def test_separation_writes_both_blocks(tmp_path):
    payload = _small_manifest("source_separation", 9)
    path = _write_manifest(tmp_path, payload)
    run_manifest(load_manifest(path))
    out = tmp_path / "results"
    assert (out / "recovered_0.pgm").exists()
    assert (out / "recovered_1.pgm").exists()


def test_output_root_env_var(tmp_path, monkeypatch):
    root = tmp_path / "root"
    monkeypatch.setenv("BLOCKVI_OUTPUT_ROOT", str(root))
    payload = _small_manifest("signal_recovery", 2)
    payload["output_dir"] = "nested/run1"
    path = _write_manifest(tmp_path, payload)
    run_manifest(load_manifest(path))
    assert (root / "nested" / "run1" / "recovered.csv").exists()


# ---------------------------------------------------------------------------
# relative-error trace and trace-plot
# ---------------------------------------------------------------------------

def test_relative_error_oracles():
    ref = SpacePoint([1.0, 1.0])
    x0 = SpacePoint([3.0, 1.0])
    halfway = SpacePoint([2.0, 1.0])
    series = relative_error_trace(
        [(0, 0.0, x0), (1, 0.5, halfway), (2, 1.0, ref)], ref)
    assert series[0] == (0.0, 0.0)
    assert series[1][1] == pytest.approx(20 * math.log10(0.5))
    assert series[1][1] == pytest.approx(-6.0205999132796235)
    assert series[2][1] == -300.0          # exact hit floors at -300 dB


def test_relative_error_requires_reference():
    with pytest.raises(MissingReference):
        relative_error_trace([(0, 0.0, SpacePoint([1.0]))], None)
    with pytest.raises(MissingReference):
        relative_error_trace([], SpacePoint([1.0]))


def test_relative_error_rejects_a_start_at_the_reference():
    # no ratio to x_0 exists; a later iterate must not read as an exact hit
    with pytest.raises(MissingReference):
        relative_error_trace([(0, 0.0, [1.0]), (1, 0.1, [3.0])], [1.0])


def test_relative_error_checks_every_iterate_against_the_reference():
    # only x_0 was checked, so a later iterate of another size ended in a raw
    # broadcast error
    with pytest.raises(MissingReference, match="does not match"):
        relative_error_trace([(0, 0.0, [3.0, 1.0]), (1, 0.5, [2.0])],
                             [1.0, 1.0])


def test_relative_error_nonpositive_on_solver_runs(tmp_path):
    payload = _small_manifest("signal_recovery", 7, max_iters=400)
    path = _write_manifest(tmp_path, payload)
    run_manifest(load_manifest(path))
    out = tmp_path / "results"
    reference = read_vector_csv(out / "recovered.csv")
    snaps = read_snapshots_csv(out / "snapshots.csv")
    iterates = [(k, float(k), v) for k, v in snaps]
    series = relative_error_trace(iterates, reference)
    dbs = [db for _, db in series]
    assert dbs[0] == 0.0
    assert max(dbs) <= 1e-9


def test_trace_plot_command(tmp_path):
    payload = _small_manifest("signal_recovery", 7, max_iters=300)
    path = _write_manifest(tmp_path, payload)
    run_manifest(load_manifest(path))
    out = tmp_path / "results"
    dest = tmp_path / "series.csv"
    code = main(["trace-plot", str(out / "trace.csv"),
                 "--ref", str(out / "recovered.csv"),
                 "--out", str(dest)])
    assert code == 0
    lines = dest.read_text().splitlines()
    assert lines[0] == "seconds,db"
    first = lines[1].split(",")
    assert float(first[1]) == 0.0


def test_trace_plot_reads_a_run_that_stops_off_the_grid(tmp_path):
    # the stock run checks its stop where the residual is predicted to meet
    # tol, so its last record falls between multiples of trace_every
    payload = default_manifest("signal_recovery", 1, output_dir="results")
    assert payload["solver"]["snapshots"]
    assert main(["run", str(_write_manifest(tmp_path, payload))]) == 0
    out = tmp_path / "results"
    ns = [int(line.split(",")[0])
          for line in (out / "trace.csv").read_text().splitlines()[1:]]
    assert ns[-1] == 253 and ns[-1] % payload["solver"]["trace_every"]
    dest = tmp_path / "series.csv"
    assert main(["trace-plot", str(out / "trace.csv"), "--ref",
                 str(out / "recovered.csv"), "--out", str(dest)]) == 0
    snapshots = read_snapshots_csv(out / "snapshots.csv")
    assert [k for k, _ in snapshots] == [0] + [n + 1 for n in ns]
    assert len(dest.read_text().splitlines()) == 1 + len(snapshots)


def test_trace_plot_missing_snapshots(tmp_path, capsys):
    payload = _small_manifest("signal_recovery", 7, snapshots=False,
                              max_iters=50)
    path = _write_manifest(tmp_path, payload)
    run_manifest(load_manifest(path))
    out = tmp_path / "results"
    code = main(["trace-plot", str(out / "trace.csv"),
                 "--ref", str(out / "recovered.csv")])
    assert code == 1
    assert "snapshots" in capsys.readouterr().err


def _edit_line(k, edit):
    """A spoiler that replaces line ``k`` of a CSV file by ``edit`` of its
    fields."""
    def spoil(path):
        lines = path.read_text().splitlines()
        lines[k] = ",".join(edit(lines[k].split(",")))
        path.write_text("\n".join(lines) + "\n")
    return spoil


def _drop_lines(*ks):
    def drop(path):
        lines = path.read_text().splitlines()
        path.write_text("".join(ln + "\n" for i, ln in enumerate(lines)
                                if i not in ks))
    return drop


def _drop_trace_column(name):
    def drop(path):
        lines = [ln.split(",") for ln in path.read_text().splitlines()]
        col = lines[0].index(name)
        path.write_text("".join(",".join(ln[:col] + ln[col + 1:]) + "\n"
                                for ln in lines))
    return drop


@pytest.mark.parametrize("name,spoil,error", [
    ("snapshots.csv", _edit_line(2, lambda f: f[:-1]), "snapshot 1 has"),
    ("snapshots.csv", _edit_line(2, lambda f: f[:-1] + ["nan"]),
     "entries must be finite"),
    ("trace.csv", _drop_trace_column("seconds"), "no 'seconds' column"),
    ("trace.csv", _drop_trace_column("n"), "no 'n' column"),
    ("trace.csv", _edit_line(1, lambda f: [f[0], "soon"] + f[2:]), "soon"),
    ("trace.csv", _drop_lines(2, 3), "no record n = 5 for snapshot 6"),
    ("trace.csv", _edit_line(2, lambda f: [f[0], "nan"] + f[2:]),
     "'seconds' values must be finite"),
    ("trace.csv", _edit_line(2, lambda f: [f[0], "1e999"] + f[2:]),
     "'seconds' values must be finite"),
], ids=["snapshot-row-short", "snapshot-nan", "trace-no-seconds", "trace-no-n",
        "trace-bad-seconds", "trace-missing-records", "trace-nan-seconds",
        "trace-inf-seconds"])
def test_trace_plot_refuses_malformed_inputs(tmp_path, capsys, name, spoil, error):
    # these ended in a raw broadcast ValueError, a nan dB row with exit 0,
    # or a raw KeyError; a missing record was timed at 0 s and a nan time
    # was plotted, both with exit 0
    payload = _small_manifest("signal_recovery", 7, max_iters=50)
    run_manifest(load_manifest(_write_manifest(tmp_path, payload)))
    out = tmp_path / "results"
    spoil(out / name)
    capsys.readouterr()
    code = main(["trace-plot", str(out / "trace.csv"),
                 "--ref", str(out / "recovered.csv"),
                 "--out", str(tmp_path / "series.csv")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert name in lines[0] and error in lines[0]
    assert not (tmp_path / "series.csv").exists()


# ---------------------------------------------------------------------------
# generate command
# ---------------------------------------------------------------------------

def test_generate_command_writes_manifest_and_data(tmp_path):
    out = tmp_path / "gen"
    code = main(["generate", "sparse_image", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    manifest = load_manifest(out / "manifest.json")
    assert manifest.kind == "sparse_image"
    assert (out / "ground_truth.pgm").exists()
    assert (out / "observation.csv").exists()


# ---------------------------------------------------------------------------
# experiment structure mirrors the published setups
# ---------------------------------------------------------------------------

def test_image_recovery_uses_equal_thirds():
    payload = default_manifest("image_recovery", 1)
    data = generate_experiment("image_recovery", payload["dimensions"], 1,
                               payload["noise"], payload["operators"])
    np.testing.assert_allclose(data.problem.arrays.weights, [1 / 3] * 3)
    kinds = [p.fne.kind for p in data.problem.prescriptions]
    assert kinds == ["box", "residual_of", "phase_prescription"]


def test_sparse_image_uses_published_radius_and_skip():
    payload = default_manifest("sparse_image", 1)
    assert payload["operators"]["sparsity_radius"] == 1.5
    assert payload["schedule"] == {"kind": "mod_skip", "expensive": [0],
                                   "period": 5}
    assert payload["solver"]["gamma"] == 1.9
    data = generate_experiment("sparse_image", payload["dimensions"], 1,
                               payload["noise"], payload["operators"])
    np.testing.assert_allclose(data.problem.arrays.weights, [0.5, 0.5])


def test_signal_recovery_arm_structure():
    payload = default_manifest("signal_recovery", 1)
    data = generate_experiment("signal_recovery", payload["dimensions"], 1,
                               payload["noise"], payload["operators"])
    prob = data.problem
    m = payload["dimensions"]["dictionary_rows"]
    assert prob.arm_count == m + 2
    np.testing.assert_allclose(prob.arrays.weights, [1.0 / (m + 2)] * (m + 2))
    assert prob.prescriptions[0].fne.kind == "blockwise_constant"
    assert prob.prescriptions[1].linop.kind == "finite_difference_1d"
    assert all(p.fne.kind == "soft_threshold"
               for p in prob.prescriptions[2:])


def test_sparse_image_log_penalty_variant():
    payload = default_manifest("sparse_image", 2)
    ops = dict(payload["operators"])
    ops["log_penalty"] = True
    data = generate_experiment("sparse_image", payload["dimensions"], 2,
                               payload["noise"], ops)
    sparsity = data.problem.prescriptions[1].fne
    assert sparsity.kind == "residual_of"
    assert sparsity.op.kind == "scaled"
    assert sparsity.op.beta == 0.95


def test_source_separation_pairs_sum_and_transform():
    payload = default_manifest("source_separation", 1)
    data = generate_experiment("source_separation", payload["dimensions"], 1,
                               payload["noise"], payload["operators"])
    prob = data.problem
    assert prob.prescriptions[0].linop.kind == "pair_sum"
    assert prob.prescriptions[1].linop.kind == "block_stack"
    assert prob.domain_shape.block_count == 2


# ---------------------------------------------------------------------------
# convergence of the stock experiments (slow: full desk-scale runs)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,seed", [("image_recovery", 3),
                                       ("signal_recovery", 7),
                                       ("sparse_image", 5),
                                       ("source_separation", 7),
                                       ("source_separation", 9)])
def test_default_manifests_converge(tmp_path, kind, seed):
    payload = default_manifest(kind, seed, output_dir="results")
    payload["solver"]["snapshots"] = False
    path = _write_manifest(tmp_path, payload)
    code = run_manifest(load_manifest(path))
    summary = json.loads((tmp_path / "results" / "summary.json").read_text())
    assert code == 0, summary["final_residual"]
    assert summary["status"] == "converged"
    assert summary["final_residual"] <= 1e-6
    assert summary["iterations"] <= payload["solver"]["max_iters"]


def _stock_image_run(tmp_path) -> dict:
    """summary.json of the stock image_recovery seed 1 run, capped at 10 000
    iterations."""
    payload = default_manifest("image_recovery", 1, output_dir="results")
    payload["solver"].update(snapshots=False, max_iters=10_000)
    code = run_manifest(load_manifest(_write_manifest(tmp_path, payload)))
    summary = json.loads((tmp_path / "results" / "summary.json").read_text())
    assert code == 0, summary["iterations"]
    return summary


@pytest.fixture(scope="module")
def stock_image_iterations(tmp_path_factory):
    return _stock_image_run(tmp_path_factory.mktemp("as_is"))["iterations"]


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-3])
def test_stock_image_recovery_converges_at_either_regulariser(
        tmp_path, monkeypatch, stock_image_iterations, scale):
    # a last-bit change of the Anderson solve must not stall the stock image
    # run: seed 1 converges within 10 000 iterations at REG and at a
    # regulariser 1e-3 larger, and within 1.25x of its count as is
    monkeypatch.setattr(blockvi.solver._Anderson, "REG",
                        blockvi.solver._Anderson.REG * scale)
    summary = _stock_image_run(tmp_path)
    assert summary["status"] == "converged"
    counts = sorted([summary["iterations"], stock_image_iterations])
    assert counts[1] <= 1.25 * counts[0], counts


def test_schedule_wall_clock_comparison_soft_report():
    """Cyclic activation vs full activation on a reduced signal analog.

    Non-gating: prints the wall-clock times at which each schedule first
    reaches -30 dB relative error toward the reference run.  The expected
    (but not asserted) outcome is that cyclic activation gets there in less
    wall-clock time.
    """
    from blockvi.cli.runner import relative_error_trace
    from blockvi.solver import SolverConfig, make_schedule, solve
    from blockvi.space import SpacePoint

    dims = {"n": 64, "dictionary_rows": 75}
    payload = default_manifest("signal_recovery", 7)
    data = generate_experiment("signal_recovery", dims, 7,
                               payload["noise"], payload["operators"])
    prob = data.problem
    m = prob.arm_count
    x0 = SpacePoint.zeros(prob.domain_shape)

    reference = solve(prob, make_schedule("full", m),
                      SolverConfig(gamma=1.9, max_iters=150000, tol=1e-9,
                                   x0=x0, trace_every=200)).solution

    def time_to_minus_30db(schedule):
        cfg = SolverConfig(gamma=1.9, max_iters=120000, tol=1e-8, x0=x0,
                           trace_every=50, snapshots=True)
        res = solve(prob, schedule, cfg)
        series = relative_error_trace(res.trace.iterates, reference)
        for seconds, db in series:
            if db <= -30.0:
                return seconds
        return float("inf")

    t_full = time_to_minus_30db(make_schedule("full", m))
    t_cyclic = time_to_minus_30db(
        make_schedule("cyclic_partition", m, blocks=4, always_active=[0, 1]))
    verdict = "cyclic faster" if t_cyclic < t_full else "full faster"
    print(f"SOFT REPORT time to -30 dB: full={t_full:.2f}s "
          f"cyclic={t_cyclic:.2f}s ({verdict})")
