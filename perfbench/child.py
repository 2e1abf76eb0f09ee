"""One workload run in a fresh interpreter.

    python3 -m perfbench.child --workload NAME --seed N --spawned-at T
        [--trace] [--smoke]

Prints one JSON object on its last stdout line: set-up time (from the
parent's ``--spawned-at`` monotonic timestamp to the end of set-up),
simulation-phase figures, the span from spawn to the result (host times
in reference seconds, see :mod:`perfbench.speed`, and raw), peak RSS, the simulated outputs and their
checks, and this process's census (plus sweep workers').  The benchmark's
driver (``perfbench/run.py``) starts this module; it is not meant to be
run by hand except for debugging.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict

from .speed import SpeedProbe


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    probe = SpeedProbe().start()

    from repro.sweep.pool import effective_cores

    from .census import Census, layer_metrics, merge_exports
    from .sampler import Sampler
    from .workloads import run_workload

    census = Census(traced=args.trace)
    sampler = Sampler() if args.trace else None
    outcome = run_workload(args.workload, args.seed, census,
                           smoke=args.smoke, sampler=sampler)

    checks = outcome.checks
    if not args.smoke:
        from .checks import DEFAULT_SEED, pinned_checks
        if args.seed == DEFAULT_SEED:
            checks = checks + pinned_checks(args.workload, outcome.cells,
                                            outcome.facts)
    export = merge_exports([census.export(sampler)]
                           + outcome.worker_exports)
    events = sum(r[1] for r in export["runs"])
    end = time.monotonic()
    probe.stop()
    spawned, spans = args.spawned_at, outcome.sim_spans
    sim_raw = sum(b - a for a, b in spans)
    sim_here = sum(probe.reference_seconds(a, b) for a, b in spans)
    sim_ref = (sim_here if outcome.sim_ref_ratio is None
               else sim_raw * outcome.sim_ref_ratio)
    result = {
        "effective_cores": effective_cores(),
        "setup_s": probe.reference_seconds(spawned, census.setup_end),
        "setup_raw_s": census.setup_end - spawned,
        "span_s": probe.reference_seconds(spawned, end) - sim_here + sim_ref,
        "span_raw_s": end - spawned,
        "sim_s": outcome.sim_s,
        "sim_host_s": sim_ref,
        "sim_host_raw_s": sim_raw,
        "peak_rss_mb": peak_rss_mb(),
        "us_per_event": 1e6 * sum(r[2] for r in export["runs"]) / events,
        "sim": outcome.sim,
        "cells": outcome.cells,
        "checks": [asdict(c) for c in checks],
        "facts": outcome.facts,
        "census": {k: v for k, v in export.items() if k != "runs"},
        "layers": (layer_metrics(export, outcome.facts or None)
                   if args.trace else None),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
