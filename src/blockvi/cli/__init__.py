"""Manifest-driven experiment runner: data generation, file I/O, metrics."""

from .experiments import EXPERIMENT_KINDS, ExperimentData, generate_experiment
from .io import (
    read_matrix_csv,
    read_pgm,
    read_snapshots_csv,
    read_vector_csv,
    write_json,
    write_matrix_csv,
    write_pgm,
    write_snapshots_csv,
    write_vector_csv,
)
from .manifest import (
    MANIFEST_SCHEMA,
    OUTPUT_ROOT_ENV,
    ExperimentManifest,
    default_manifest,
    load_manifest,
    resolve_output_dir,
)
from .runner import relative_error_trace, run_manifest
