"""One ``blockvi run`` in its own process, timed from inside.

    python3 bench_child.py MANIFEST OUT_JSON [--trace] [--setup-only]

Runs ``blockvi.cli.main.main(["run", MANIFEST])`` and writes to OUT_JSON the
monotonic clock readings at ``solve`` entry and exit, the exit code and the
peak resident memory of this process.  CLOCK_MONOTONIC is system-wide on
Linux, so the parent can subtract its own reading taken before spawning.
With ``--trace`` the per-layer spans of the run are written too (see
``bench_trace``); with ``--setup-only`` the process stops at ``solve`` entry.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class _SetupDone(Exception):
    """Raised at solve entry to end a set-up-only run."""


def main(argv) -> int:
    manifest, out_path = argv[0], argv[1]
    traced = "--trace" in argv
    setup_only = "--setup-only" in argv
    record = {}

    tracer = None
    if traced:
        from bench_trace import Tracer, span_difference
        tracer = Tracer()
        tracer.install()

    from blockvi.cli import runner
    from blockvi.cli.main import main as blockvi_main

    solve = runner.solve

    def timed_solve(*args, **kwargs):
        record["solve_entry"] = time.monotonic()
        if setup_only:
            raise _SetupDone
        before = tracer.snapshot() if tracer else None
        try:
            return solve(*args, **kwargs)
        finally:
            record["solve_exit"] = time.monotonic()
            if tracer:
                record["solve_profile"] = span_difference(tracer.snapshot(), before)

    runner.solve = timed_solve
    try:
        record["exit_code"] = blockvi_main(["run", manifest])
    except _SetupDone:
        record["exit_code"] = 0
    if tracer:
        record["run_profile"] = span_difference(
            tracer.snapshot(), {"spans": {}, "counts": {}})
        record["untraced"] = sorted(tracer.untraced)
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
