"""The repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``BENCHMARK.json`` and ``perfbench/README.md``)
repeatedly, each time in a fresh interpreter, for about ``S`` seconds,
checks the simulated outputs, writes a run record under
``perfbench/records/`` and prints, as its last stdout line, one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (medians over the runs;
host times in reference seconds, see :mod:`perfbench.speed`);
``--trace 1`` alternates untraced and traced runs and reports the
per-layer census of the traced ones plus the tracing overhead.

Exit status is non-zero, with no result line, when the program under
test is missing or a run fails outright.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.census import LAYER_METRICS  # noqa: E402
from perfbench.record import build_record, write_record  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics and their units.
E2E_METRICS = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_rate": "sim_s/s",
    "peak_rss_mb": "MB",
    "events_per_image": "events/img",
    "sim_throughput": "img/s",
    "sim_p99_ms": "ms",
    "sim_cpu_cores": "cores",
}
#: Fewest runs of the workload per untraced benchmark run, so that every
#: median (set-up time included) has at least this many samples.
MIN_RUNS = 3
#: A single child may not take longer than this.
CHILD_TIMEOUT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, *, trace: bool = False,
          smoke: bool = False) -> tuple[dict, float]:
    """Run one child interpreter; return its result and wall seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--smoke"] * smoke
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(t0)], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload} run timed out") from None
    finally:
        # The child's own pool workers, should any outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise ChildFailed(f"{workload} run exited with {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload} run printed no result")
    return json.loads(lines[-1]), wall


def _cells_key(result: dict) -> str:
    return json.dumps(result["cells"], sort_keys=True)


def score(results: list[dict]) -> tuple[int, int, list[dict]]:
    """(attempted, failed, failing checks) over full runs.

    A run's cells are those it produced plus those its checks name (a
    pinned cell the run did not produce is checked, and fails).  A cell
    fails when any of its checks fails, or when the run's outputs differ
    from the first run's (every run uses the same seed, and the
    simulation is deterministic, traced or not).
    """
    attempted = failed = 0
    bad_checks: dict[tuple, dict] = {}
    reference = _cells_key(results[0])
    for result in results:
        cells = set(result["cells"]) | {c["cell"] for c in result["checks"]}
        attempted += len(cells)
        failing = {c["cell"] for c in result["checks"] if not c["ok"]}
        for c in result["checks"]:
            if not c["ok"]:
                bad_checks[c["cell"], c["name"]] = c
        if _cells_key(result) != reference:
            failing = cells
            bad_checks["*", "determinism"] = {
                "cell": "*", "name": "same outputs as the first run of "
                "this seed", "ok": False, "measured": "", "paper": ""}
        failed += len(failing)
    return attempted, failed, list(bad_checks.values())


def reference_wall(result: dict, wall: float) -> float:
    """A child's wall seconds in reference seconds: the child measured
    its own span (spawn to result) both ways; the rest (interpreter exit)
    is scaled alike."""
    return wall * result["span_s"] / result["span_raw_s"]


def measure_untraced(workload: str, seed: int, seconds: float,
                     smoke: bool) -> tuple[dict, list[dict], list[dict]]:
    deadline = time.monotonic() + seconds
    full, walls = [], []
    while len(full) < MIN_RUNS or time.monotonic() < deadline:
        result, wall = spawn(workload, seed, smoke=smoke)
        full.append(result)
        walls.append(wall)
    runs = [{"wall_s": reference_wall(r, w), "wall_raw_s": w,
             "setup_s": r["setup_s"], "setup_raw_s": r["setup_raw_s"],
             "sim_rate": r["sim_s"] / r["sim_host_s"],
             "sim_rate_raw": r["sim_s"] / r["sim_host_raw_s"],
             "peak_rss_mb": r["peak_rss_mb"]} for r, w in zip(full, walls)]
    metrics = {name: statistics.median(run[name] for run in runs)
               for name in ("wall_s", "setup_s", "sim_rate", "peak_rss_mb")}
    metrics.update(full[0]["sim"])
    return metrics, full, runs


def measure_traced(workload: str, seed: int, seconds: float,
                   smoke: bool) -> tuple[dict, list[dict], list[dict]]:
    deadline = time.monotonic() + seconds
    plain, traced, plain_walls, traced_walls = [], [], [], []
    while True:
        result, wall = spawn(workload, seed, smoke=smoke)
        plain.append(result)
        plain_walls.append(wall)
        result, wall = spawn(workload, seed, trace=True, smoke=smoke)
        traced.append(result)
        traced_walls.append(wall)
        if time.monotonic() >= deadline:
            break
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in LAYER_METRICS
               if name not in ("trace.overhead_pct", "sim.us_per_event")}
    metrics["sim.us_per_event"] = statistics.median(r["us_per_event"]
                                                    for r in plain)
    plain_walls = [reference_wall(r, w) for r, w in zip(plain, plain_walls)]
    traced_walls = [reference_wall(r, w)
                    for r, w in zip(traced, traced_walls)]
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_walls) / statistics.median(plain_walls)
        - 1.0)
    runs = [{"wall_s": w, "traced": False} for w in plain_walls]
    runs += [{"wall_s": w, "traced": True} for w in traced_walls]
    return metrics, plain + traced, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny simulated horizons (benchmark tests)")
    parser.add_argument("--records", type=Path,
                        default=BENCH_DIR / "records",
                        help="directory for run records")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    measure = measure_traced if args.trace else measure_untraced
    try:
        metrics, results, runs = measure(args.workload, args.seed,
                                         args.seconds, args.smoke)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, bad_checks = score(results)
    units = LAYER_METRICS if args.trace else E2E_METRICS

    facts = results[0]["facts"]
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    paper = {(c["cell"], c["name"]): c for c in results[0]["checks"]
             if c["paper"]}
    for (cell, name), check in paper.items():
        print(f"check [{'PASS' if check['ok'] else 'FAIL'}] {cell}: {name}"
              f" -- measured {check['measured']}, paper {check['paper']}")
    for check in bad_checks:
        print(f"check [FAIL] {check['cell']}: {check['name']} "
              f"{check['measured']}")
    if "workers" in facts:
        print(f"sweep workers {facts['workers']} on {facts['effective_cores']}"
              f" effective cores" + (" (1-core result: no parallelism)"
                                     if facts["one_core"] else ""))
    record = build_record(
        workload=args.workload, seed=args.seed, trace=bool(args.trace),
        seconds=args.seconds, smoke=args.smoke,
        effective_cores=results[0]["effective_cores"], metrics=metrics,
        units=units, attempted=attempted, failed=failed,
        checks=results[0]["checks"] + bad_checks, runs=runs,
        census=results[-1]["census"], facts=facts)
    print(f"record {write_record(record, args.records)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
