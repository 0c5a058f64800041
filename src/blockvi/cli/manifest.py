"""Experiment manifests: JSON schema, loading, and stock manifests.

A manifest plus its seed fully determines one run: data generation, problem
assembly, solver configuration, activation schedule, and output locations.
Relative output directories resolve against the BLOCKVI_OUTPUT_ROOT
environment variable when set, else against the manifest's own directory.

:data:`MANIFEST_SCHEMA` is a JSON Schema, and :func:`_check` walks it
directly: it implements the keywords the schema uses (``type``, ``enum``,
``required``, ``properties``, ``additionalProperties``, ``minimum``,
``minLength``, ``items``) and no others.  Importing and running the
``jsonschema`` package cost a run about 0.1 s, more than some solves take.
Unlike JSON Schema, ``integer`` admits no float such as ``4.0``, because the
values go to code that needs an ``int``.
"""

from __future__ import annotations

import copy
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from ..errors import ManifestError
from .experiments import EXPERIMENT_KINDS, STOCK_PARAMETERS

__all__ = ["ExperimentManifest", "MANIFEST_SCHEMA", "load_manifest",
           "default_manifest", "resolve_output_dir", "OUTPUT_ROOT_ENV"]

OUTPUT_ROOT_ENV = "BLOCKVI_OUTPUT_ROOT"

# the schedule keys each schedule kind uses: ``make_schedule`` ignores the rest
_SCHEDULE_KEYS = {
    "full": (),
    "cyclic_partition": ("blocks", "always_active"),
    "mod_skip": ("period", "expensive"),
    "explicit": ("sets",),
}

MANIFEST_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["kind", "seed", "solver", "schedule", "output_dir"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": list(EXPERIMENT_KINDS)},
        "seed": {"type": "integer", "minimum": 0},
        "dimensions": {"type": "object",
                       "additionalProperties": {"type": "integer", "minimum": 1}},
        "noise": {"type": "object", "additionalProperties": {"type": "number"}},
        "operators": {"type": "object"},
        "solver": {
            "type": "object",
            "required": ["gamma", "max_iters", "tol"],
            "additionalProperties": False,
            "properties": {
                "gamma": {"type": "number"},
                "max_iters": {"type": "integer", "minimum": 1},
                "tol": {"type": "number", "minimum": 0},
                "trace_every": {"type": "integer", "minimum": 1},
                "t_init_policy": {"enum": ["copy_x0", "one_step"]},
                "snapshots": {"type": "boolean"},
            },
        },
        "schedule": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": list(_SCHEDULE_KEYS)},
                "blocks": {"type": "integer", "minimum": 1},
                "always_active": {"type": "array",
                                  "items": {"type": "integer", "minimum": 0}},
                "expensive": {"type": "array",
                              "items": {"type": "integer", "minimum": 0}},
                "period": {"type": "integer", "minimum": 1},
                "sets": {"type": "array",
                         "items": {"type": "array",
                                   "items": {"type": "integer", "minimum": 0}}},
            },
        },
        "output_dir": {"type": "string", "minLength": 1},
    },
}


@dataclass
class ExperimentManifest:
    kind: str
    seed: int
    solver: dict
    schedule: dict
    output_dir: str
    dimensions: dict = field(default_factory=dict)
    noise: dict = field(default_factory=dict)
    operators: dict = field(default_factory=dict)
    source_path: Optional[Path] = None

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "seed": self.seed, "solver": self.solver,
               "schedule": self.schedule, "output_dir": self.output_dir}
        if self.dimensions:
            out["dimensions"] = self.dimensions
        if self.noise:
            out["noise"] = self.noise
        if self.operators:
            out["operators"] = self.operators
        return out


_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}


def _has_type(value, name: str) -> bool:
    # bool is a subclass of int, but JSON's true and false are not numbers
    return isinstance(value, _TYPES[name]) and (
        name == "boolean" or not isinstance(value, bool))


def _check(value, schema: dict, path: tuple) -> Optional[tuple]:
    """The first place where ``value`` breaks ``schema``, as (path, message);
    None when it conforms."""
    if "type" in schema and not _has_type(value, schema["type"]):
        return path, f"{value!r} is not of type {schema['type']!r}"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if ("minimum" in schema and _has_type(value, "number")
            and value < schema["minimum"]):
        return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
    if ("minLength" in schema and isinstance(value, str)
            and len(value) < schema["minLength"]):
        return path, f"{value!r} is shorter than {schema['minLength']}"
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return path, f"{key!r} is a required property"
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            sub = schema.get("properties", {}).get(key, extra)
            if sub is False:
                return path, f"additional property {key!r} is not allowed"
            error = None if sub is True else _check(item, sub, path + (key,))
            if error:
                return error
    if isinstance(value, list) and "items" in schema:
        for k, item in enumerate(value):
            error = _check(item, schema["items"], path + (k,))
            if error:
                return error
    return None


def _validate(payload: dict, origin: str) -> None:
    def fail(path, message):
        where = "$" + "".join(f"[{p!r}]" for p in path)
        raise ManifestError(f"{origin}: {where}: {message}")

    error = _check(payload, MANIFEST_SCHEMA, ())
    if error:
        fail(*error)
    schedule = payload["schedule"]
    for key in schedule:
        if key != "kind" and key not in _SCHEDULE_KEYS[schedule["kind"]]:
            fail(("schedule", key),
                 f"not used by schedule kind {schedule['kind']!r}")
    # JSON's NaN and Infinity pass the schema's "number" type
    for section in ("noise", "solver"):
        for name, value in (payload.get(section) or {}).items():
            if isinstance(value, float) and not math.isfinite(value):
                fail((section, name), "must be finite")


def load_manifest(path) -> ExperimentManifest:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ManifestError(f"{path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    _validate(payload, str(path))
    return ExperimentManifest(
        kind=payload["kind"],
        seed=payload["seed"],
        solver=dict(payload["solver"]),
        schedule=dict(payload["schedule"]),
        output_dir=payload["output_dir"],
        dimensions=dict(payload.get("dimensions", {})),
        noise=dict(payload.get("noise", {})),
        operators=dict(payload.get("operators", {})),
        source_path=path,
    )


def resolve_output_dir(manifest: ExperimentManifest) -> Path:
    out = Path(manifest.output_dir)
    if out.is_absolute():
        return out
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return Path(root) / out
    base = manifest.source_path.parent if manifest.source_path else Path.cwd()
    return base / out


def default_manifest(kind: str, seed: int, output_dir: str = "results") -> dict:
    if kind not in STOCK_PARAMETERS:
        raise ManifestError(f"no defaults for experiment kind {kind!r}")
    # a deep copy: a caller may edit the payload's lists in place
    payload = {"kind": kind, "seed": int(seed),
               **copy.deepcopy(STOCK_PARAMETERS[kind]), "output_dir": output_dir}
    _validate(payload, f"<defaults:{kind}>")
    return payload
