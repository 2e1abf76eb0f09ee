"""Per-process instrumentation installed from outside the program.

A :class:`Census` patches the public entry points of each ``repro``
package *where the caller looks them up* (a module that did
``from ..data import imagenet_like_manifest`` holds its own reference,
so that reference is the one replaced).  Two levels exist:

* **light** (always on, untraced runs too): ``Environment.run`` is
  wrapped to record, per call, the simulated seconds advanced, the
  kernel events processed and the host seconds spent, and to mark the
  end of set-up.  It costs a few microseconds per ``run`` call, and
  workloads call ``run`` a handful of times.
* **traced**: wrappers that time or count calls into every layer
  (recorder record/merge, manifest and corpus builds, rollups, KPI
  derivation, telemetry snapshots, sweep transport) plus capture of the
  FPGA decoder mirrors and fleet rollups for their counters.

Nothing here changes what the program computes: every wrapper calls
the original with the original arguments and returns its result.
"""

from __future__ import annotations

import functools
import pickle
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

from .sampler import Sampler
from .speed import SpeedProbe

__all__ = ["Census", "CensusPool", "census_task",
           "merge_exports", "layer_metrics", "SELF_LAYERS",
           "LAYER_METRICS", "STAGES"]

#: Layers whose sampled self time is reported as ``<layer>.self_s``.
SELF_LAYERS = ("sim", "sim.monitor", "fpga", "host", "memory", "net",
               "engines", "backends", "data", "storage", "jpeg", "fleet",
               "faults", "supervision", "slo", "telemetry", "sweep",
               "workflows", "experiments", "tracing")

#: FPGA decoder stages reported as ``fpga.stage_util.<stage>``.
STAGES = ("parser", "huffman", "idct", "resizer")

#: Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS: dict[str, str] = {
    "sim.events": "count",
    "sim.us_per_event": "us",
    "sim.calibration_s": "s",
    "sim.monitor.record_calls": "count",
    "sim.monitor.record_us": "us",
    "sim.monitor.merge_s": "s",
    "fpga.decoded": "count",
    **{f"fpga.stage_util.{s}": "fraction" for s in STAGES},
    "data.manifest_build_s": "s",
    "data.manifest_entries": "count",
    "jpeg.corpus_build_s": "s",
    "jpeg.cache_hit_ratio": "fraction",
    "fleet.rollup_s": "s",
    "fleet.attempt_efficiency": "fraction",
    "fleet.hedges": "count",
    "fleet.redispatches": "count",
    "faults.injected": "count",
    "supervision.shed": "count",
    "slo.kpis_s": "s",
    "telemetry.snapshot_s": "s",
    "sweep.pool_start_s": "s",
    "sweep.transport_decode_s": "s",
    "sweep.transport_bytes": "bytes",
    "sweep.rollup_s": "s",
    "sweep.worker_busy_frac": "fraction",
    **{f"{layer}.self_s": "s" for layer in SELF_LAYERS},
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


#: The census of this process; sweep workers reach it through
#: :func:`census_task` (they inherit it when the pool forks).
_ACTIVE: Optional["Census"] = None


class Census:
    """Counters for one process, plus the patches that feed them.

    Set-up ends at the first ``Environment.run`` or the first sweep task
    dispatch (see :class:`CensusPool`), whichever comes first.
    """

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.setup_end: Optional[float] = None
        self._undo: list[tuple[Any, str, Any]] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        """Zero every counter (sweep workers start each task here)."""
        #: One ``(sim_seconds, events, host_seconds)`` per run() call,
        #: and its monotonic ``(start, end)``.
        self.runs: list[tuple[float, int, float]] = []
        self.spans: list[tuple[float, float]] = []
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.mirrors: list[Any] = []
        self.rollups: list[dict] = []
        self._cache0 = _cache_counts()

    # -- set-up boundary -------------------------------------------------
    def mark_setup(self) -> None:
        if self.setup_end is None:
            self.setup_end = time.monotonic()

    # -- patching --------------------------------------------------------
    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def patch_everywhere(self, old: Any, new: Any) -> None:
        """Replace every module-level reference to ``old`` in ``repro``."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    self._patch(module, attr, new)

    def capture(self, module: Any, name: str) -> list:
        """Wrap the callable ``module.name`` so every object it returns
        is appended to the returned list (e.g. a class the module
        instantiates)."""
        made: list = []
        factory = getattr(module, name)

        def capturing(*args, **kwargs):
            obj = factory(*args, **kwargs)
            made.append(obj)
            return obj

        self._patch(module, name, capturing)
        return made

    def timed(self, key: str, fn: Callable,
              after: Optional[Callable[[Any, tuple], None]] = None
              ) -> Callable:
        """``fn`` with its inclusive host seconds added to
        ``times[key]``; nested calls under the same key count once."""
        census = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if census._depth[key]:
                return fn(*args, **kwargs)
            census._depth[key] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                census.times[key] += time.perf_counter() - t0
                census._depth[key] -= 1
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def install(self) -> None:
        """Patch the program.  Call after the workload's imports."""
        global _ACTIVE
        _ACTIVE = self
        from repro.sim.core import Environment
        census = self
        original_run = Environment.run

        def run(env, until=None):
            census.mark_setup()
            t0 = time.monotonic()
            ev0 = env.events_processed
            sim0 = env.now
            try:
                return original_run(env, until)
            finally:
                t1 = time.monotonic()
                census.runs.append((env.now - sim0,
                                    env.events_processed - ev0, t1 - t0))
                census.spans.append((t0, t1))

        self._patch(Environment, "run", run)
        if self.traced:
            self._install_traced()

    def _install_traced(self) -> None:
        import repro.data.datasets as datasets
        import repro.sim.core as core
        from repro.fleet.rollup import fleet_rollup
        from repro.fpga.decoder import ImageDecoderMirror
        from repro.sim.monitor import LatencyRecorder
        from repro.slo.kpis import compute_kpis, kpis_from_rollup
        from repro.sweep import transport
        from repro.sweep.pool import WorkerPool
        from repro.sweep.runner import SweepOutcome
        from repro.telemetry.registry import MetricsRegistry
        census = self

        original_record = LatencyRecorder.record

        def record(rec, latency, trace_id=None):
            t0 = time.perf_counter_ns()
            original_record(rec, latency, trace_id)
            counts = census.counts
            counts["record_ns"] += time.perf_counter_ns() - t0
            counts["record_calls"] += 1

        self._patch(LatencyRecorder, "record", record)
        self._patch(LatencyRecorder, "merge", self.timed(
            "sim.monitor.merge_s", LatencyRecorder.merge))

        original_init = ImageDecoderMirror.__init__

        def mirror_init(mirror, *args, **kwargs):
            original_init(mirror, *args, **kwargs)
            census.mirrors.append(mirror)

        self._patch(ImageDecoderMirror, "__init__", mirror_init)

        self.patch_everywhere(core.scheduler_calibration, self.timed(
            "sim.calibration_s", core.scheduler_calibration))

        def count_entries(manifest, _args):
            census.counts["manifest_entries"] += len(manifest)

        for build in (datasets.imagenet_like_manifest,
                      datasets.mnist_like_manifest):
            self.patch_everywhere(build, self.timed(
                "data.manifest_build_s", build, after=count_entries))
        self.patch_everywhere(datasets.default_functional_corpus,
                              self.timed("jpeg.corpus_build_s",
                                         datasets.default_functional_corpus))

        self.patch_everywhere(fleet_rollup, self.timed(
            "fleet.rollup_s", fleet_rollup,
            after=lambda payload, _args: census.rollups.append(payload)))
        for derive in (kpis_from_rollup, compute_kpis):
            self.patch_everywhere(derive, self.timed("slo.kpis_s", derive))
        for name in ("snapshot", "to_json"):
            self._patch(MetricsRegistry, name, self.timed(
                "telemetry.snapshot_s", getattr(MetricsRegistry, name)))

        def count_bytes(_decoded, args):
            census.counts["transport_bytes"] += len(pickle.dumps(
                args[0], protocol=pickle.HIGHEST_PROTOCOL))

        self.patch_everywhere(transport.decode_result, self.timed(
            "sweep.transport_decode_s", transport.decode_result,
            after=count_bytes))
        self._patch(SweepOutcome, "rollup", self.timed(
            "sweep.rollup_s", SweepOutcome.rollup))
        self._patch(WorkerPool, "__init__", self.timed(
            "sweep.pool_start_s", WorkerPool.__init__))

    def uninstall(self) -> None:
        global _ACTIVE
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)
        _ACTIVE = None

    # -- export ------------------------------------------------------------
    def export(self, sampler: Optional[Sampler] = None) -> dict:
        """Plain-data summary (picklable, JSON-able) of this process."""
        fpga = {"decoded": 0, "stage_busy": {s: 0.0 for s in STAGES},
                "mirrors": 0}
        for mirror in self.mirrors:
            fpga["decoded"] += int(mirror.decoded.total)
            fpga["mirrors"] += 1
            for stage, util in mirror.stage_utilizations().items():
                if stage in fpga["stage_busy"]:
                    fpga["stage_busy"][stage] += util
        fleet = defaultdict(float)
        for payload in self.rollups:
            flights = payload.get("flights") or {}
            lb = payload.get("lb") or {}
            fleet["served"] += (flights.get("completed", 0)
                                + flights.get("redispatched_completed", 0))
            fleet["attempts"] += flights.get("attempts", 0)
            fleet["hedges"] += lb.get("hedges", 0)
            fleet["redispatches"] += lb.get("redispatches", 0)
            fleet["injected"] += (payload.get("chaos") or {}).get(
                "injected", 0)
            fleet["shed"] += payload["fleet"].get("shed", 0)
        hits, misses = _cache_counts()
        return {
            "runs": list(self.runs),
            "times": dict(self.times),
            "counts": dict(self.counts),
            "fpga": fpga,
            "fleet": dict(fleet),
            "cache": {"hits": hits - self._cache0[0],
                      "misses": misses - self._cache0[1]},
            "self_s": dict(sampler.seconds) if sampler else {},
        }


def _cache_counts() -> tuple[int, int]:
    module = sys.modules.get("repro.jpeg.cache")
    if module is None:
        return 0, 0
    return module.decode_cache.hits, module.decode_cache.misses


def merge_exports(exports: list[dict]) -> dict:
    """Sum several :meth:`Census.export` payloads (parent + workers)."""
    out = {"runs": [], "times": defaultdict(float),
           "counts": defaultdict(float),
           "fpga": {"decoded": 0, "stage_busy": {s: 0.0 for s in STAGES},
                    "mirrors": 0},
           "fleet": defaultdict(float), "cache": {"hits": 0, "misses": 0},
           "self_s": defaultdict(float)}
    for ex in exports:
        out["runs"].extend(ex["runs"])
        for key in ("times", "counts", "fleet", "self_s"):
            for name, value in ex[key].items():
                out[key][name] += value
        out["fpga"]["decoded"] += ex["fpga"]["decoded"]
        out["fpga"]["mirrors"] += ex["fpga"]["mirrors"]
        for stage, busy in ex["fpga"]["stage_busy"].items():
            out["fpga"]["stage_busy"][stage] += busy
        for name in ("hits", "misses"):
            out["cache"][name] += ex["cache"][name]
    for key in ("times", "counts", "fleet", "self_s"):
        out[key] = dict(out[key])
    return out


def layer_metrics(ex: dict, sweep: Optional[dict] = None) -> dict:
    """Per-layer metrics from a merged census export of a traced run:
    everything in :data:`LAYER_METRICS` except ``trace.overhead_pct``
    and ``sim.us_per_event``, which the caller takes from untraced runs
    so that they do not include the tracer's own cost.

    ``sweep`` carries the sweep facts the census cannot see:
    ``phase_s`` (first dispatch to last result), ``walls`` (per-point
    seconds inside workers) and ``workers``.
    """
    times, counts = ex["times"], ex["counts"]
    events = sum(r[1] for r in ex["runs"])
    calls = counts.get("record_calls", 0)
    mirrors = ex["fpga"]["mirrors"]
    fleet = ex["fleet"]
    cache = ex["cache"]
    lookups = cache["hits"] + cache["misses"]
    sampled = sum(ex["self_s"].values())
    busy_frac = 0.0
    if sweep and sweep["phase_s"] > 0:
        busy_frac = sum(sweep["walls"]) / (sweep["phase_s"]
                                           * sweep["workers"])
    out = {
        "sim.events": events,
        "sim.calibration_s": times.get("sim.calibration_s", 0.0),
        "sim.monitor.record_calls": calls,
        "sim.monitor.record_us": (counts.get("record_ns", 0) / calls / 1e3
                                  if calls else 0.0),
        "sim.monitor.merge_s": times.get("sim.monitor.merge_s", 0.0),
        "fpga.decoded": ex["fpga"]["decoded"],
        **{f"fpga.stage_util.{s}": (ex["fpga"]["stage_busy"][s] / mirrors
                                    if mirrors else 0.0) for s in STAGES},
        "data.manifest_build_s": times.get("data.manifest_build_s", 0.0),
        "data.manifest_entries": counts.get("manifest_entries", 0),
        "jpeg.corpus_build_s": times.get("jpeg.corpus_build_s", 0.0),
        "jpeg.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "fleet.rollup_s": times.get("fleet.rollup_s", 0.0),
        "fleet.attempt_efficiency": (fleet["served"] / fleet["attempts"]
                                     if fleet.get("attempts") else 0.0),
        "fleet.hedges": fleet.get("hedges", 0),
        "fleet.redispatches": fleet.get("redispatches", 0),
        "faults.injected": fleet.get("injected", 0),
        "supervision.shed": fleet.get("shed", 0),
        "slo.kpis_s": times.get("slo.kpis_s", 0.0),
        "telemetry.snapshot_s": times.get("telemetry.snapshot_s", 0.0),
        "sweep.pool_start_s": times.get("sweep.pool_start_s", 0.0),
        "sweep.transport_decode_s": times.get("sweep.transport_decode_s",
                                              0.0),
        "sweep.transport_bytes": counts.get("transport_bytes", 0),
        "sweep.rollup_s": times.get("sweep.rollup_s", 0.0),
        "sweep.worker_busy_frac": busy_frac,
        **{f"{layer}.self_s": ex["self_s"].get(layer, 0.0)
           for layer in SELF_LAYERS},
        "trace.unattributed_pct": (100.0 * ex["self_s"].get("", 0.0)
                                   / sampled if sampled else 0.0),
    }
    return out


# -- sweep workers -------------------------------------------------------

def census_task(func: Callable, task: Any) -> tuple[Any, dict]:
    """Run one sweep task in a worker under a fresh census, a speed probe
    and, when tracing, a sampler; return the task's output and the
    census, whose ``speed`` is the task's ``(reference seconds, host
    seconds)``."""
    census = _ACTIVE
    census.reset()
    probe = SpeedProbe().start()
    sampler = Sampler().start() if census.traced else None
    t0 = time.monotonic()
    try:
        out = func(task)
    finally:
        t1 = time.monotonic()
        if sampler is not None:
            sampler.stop()
        probe.stop()
    export = census.export(sampler)
    export["speed"] = (probe.reference_seconds(t0, t1), t1 - t0)
    return out, export


class CensusPool:
    """A :class:`repro.sweep.pool.WorkerPool` front that marks the first
    task dispatch as the end of set-up, runs every task through
    :func:`census_task`, and keeps each task's worker census by point
    index (``payloads``)."""

    def __init__(self, pool: Any, census: Census):
        self.pool = pool
        self.census = census
        self.payloads: dict[int, dict] = {}

    def run(self, func: Callable, tasks: Any, chunksize=None):
        self.census.mark_setup()
        results = self.pool.run(functools.partial(census_task, func), tasks,
                                chunksize=chunksize)
        return self._collect(results)

    def _collect(self, results):
        for out, payload in results:
            self.payloads[out[0]] = payload
            yield out
