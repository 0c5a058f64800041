"""Command-line entry point.

    blockvi run <manifest.json>
    blockvi generate <kind> --seed S --out DIR
    blockvi trace-plot <trace.csv> --ref <recovered.csv> [--snapshots CSV] [--out CSV]

Exit codes: 0 success / converged, 1 configuration or input error,
2 solver stopped on its iteration budget.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import BlockviError
from .experiments import EXPERIMENT_KINDS, generate_experiment
from .io import read_snapshots_csv, read_vector_csv, write_json
from .manifest import default_manifest, load_manifest
from .runner import relative_error_trace, run_manifest, write_point

__all__ = ["main"]


def _cmd_run(args) -> int:
    manifest = load_manifest(args.manifest)
    return run_manifest(manifest)


def _cmd_generate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = default_manifest(args.kind, args.seed, output_dir="results")
    write_json(payload, out_dir / "manifest.json")
    data = generate_experiment(payload["kind"], payload["dimensions"],
                               payload["seed"], payload["noise"],
                               payload["operators"])
    write_point(data.ground_truth, out_dir, "ground_truth")
    if data.observation is not None:
        write_point(data.observation, out_dir, "observation")
    print(f"wrote manifest and data for {args.kind} (seed {args.seed}) "
          f"to {out_dir}")
    return 0


def _read_trace_seconds(path) -> dict:
    import csv

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {int(r["n"]): float(r["seconds"]) for r in rows}


def _cmd_trace_plot(args) -> int:
    trace_path = Path(args.trace)
    snapshots_path = Path(args.snapshots) if args.snapshots else \
        trace_path.parent / "snapshots.csv"
    if not snapshots_path.exists():
        raise BlockviError(
            f"{snapshots_path}: no iterate snapshots found; rerun the "
            "manifest with solver.snapshots enabled")
    reference = read_vector_csv(args.ref)
    seconds_by_n = _read_trace_seconds(trace_path)
    iterates = []
    for k, values in read_snapshots_csv(snapshots_path):
        seconds = 0.0 if k == 0 else seconds_by_n.get(k - 1, 0.0)
        iterates.append((k, seconds, values))
    series = relative_error_trace(iterates, reference)
    lines = ["seconds,db"] + [f"{s:.17g},{db:.17g}" for s, db in series]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockvi",
        description="Construct signals from inconsistent nonlinear "
                    "prescriptions via block-iterative fixed-point solving.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment manifest")
    p_run.add_argument("manifest", help="path to a manifest JSON file")

    p_gen = sub.add_parser("generate",
                           help="write a default manifest plus generated data")
    p_gen.add_argument("kind", choices=[k for k in EXPERIMENT_KINDS
                                        if k != "custom"])
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True, help="output directory")

    p_plot = sub.add_parser(
        "trace-plot",
        help="emit a (seconds, dB) relative-error series as CSV")
    p_plot.add_argument("trace", help="trace.csv from a run")
    p_plot.add_argument("--ref", required=True,
                        help="recovered.csv of a high-precision reference run")
    p_plot.add_argument("--snapshots", default=None,
                        help="snapshots.csv (default: next to the trace)")
    p_plot.add_argument("--out", default=None, help="write CSV here "
                        "instead of stdout")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "generate": _cmd_generate,
                "trace-plot": _cmd_trace_plot}
    try:
        return handlers[args.command](args)
    except BlockviError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
