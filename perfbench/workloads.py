"""The benchmark's four workloads.

Each workload runs the program through its public API inside one
interpreter and returns a :class:`Outcome`: the simulated outputs per
cell (the unit the correctness check counts), the simulated end-to-end
figures, and the correctness checks that hold for every seed.  Host
timings are the caller's business (:mod:`perfbench.child`).

``smoke=True`` shrinks every simulated horizon (and the training
corpus) so a workload finishes in about a second; it is used by the
benchmark's own tests, never for measurements.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from .census import Census, CensusPool
from .sampler import Sampler

__all__ = ["Outcome", "Check", "WORKLOADS", "run_workload", "config_of"]


@dataclass
class Check:
    """One correctness check on one cell.  ``paper`` is the source
    paper's value (or claim) when the check reproduces one."""

    cell: str
    name: str
    ok: bool
    measured: str = ""
    paper: str = ""


@dataclass
class Outcome:
    cells: dict[str, dict]
    checks: list[Check]
    #: events_per_image, sim_throughput, sim_p99_ms, sim_cpu_cores.
    sim: dict[str, float]
    #: Simulated seconds, and the monotonic host-time intervals of this
    #: process in which they were simulated.
    sim_s: float
    sim_spans: list
    #: Reference seconds per host second over ``sim_spans`` when the
    #: simulation ran in other processes that probed their own speed
    #: (sweep workers); ``None`` when it ran in this one.
    sim_ref_ratio: Optional[float] = None
    facts: dict = field(default_factory=dict)
    #: Worker censuses (sweep only), merged into the per-layer census.
    worker_exports: list = field(default_factory=list)


def _finite_positive(cell: str, values: dict, keys) -> list[Check]:
    return [Check(cell, f"{key} is finite and positive",
                  isinstance(values[key], (int, float))
                  and math.isfinite(values[key]) and values[key] > 0,
                  repr(values[key]))
            for key in keys]


def _window(census: Census, first_run: int) -> tuple[float, int, float]:
    """The last ``Environment.run`` call since ``first_run``: the
    measurement window of a warm-up + measure workflow."""
    calls = census.runs[first_run:]
    if not calls:
        raise RuntimeError("workload never ran the simulation")
    return calls[-1]


def _sim_phase(census: Census) -> tuple[float, list]:
    return sum(r[0] for r in census.runs), list(census.spans)


# -- serve-fig7 ------------------------------------------------------------

SERVE = dict(model="googlenet", backend="dlbooster", batch_size=8,
             num_gpus=1, num_clients=5, warmup_s=0.8, measure_s=2.5)


def serve_fig7(seed: int, census: Census, smoke: bool = False) -> Outcome:
    """One Fig. 7 cell through ``run_inference``."""
    import repro.workflows.inference as inference
    from repro.workflows import InferenceConfig, run_inference
    hosts = census.capture(inference, "Host")
    cfg = dict(SERVE, seed=seed)
    if smoke:
        cfg.update(warmup_s=0.05, measure_s=0.1)
    first = len(census.runs)
    res = run_inference(InferenceConfig(**cfg))
    window_events = _window(census, first)[1]
    images = round(res.throughput * cfg["measure_s"])
    cell = {"throughput": res.throughput,
            "latency_p50_ms": res.latency_p50_ms,
            "latency_p99_ms": res.latency_p99_ms,
            "cpu_cores": res.cpu_cores,
            "window_events": window_events, "window_images": images}
    name = "googlenet/dlbooster/bs8"
    checks = _finite_positive(name, cell, cell)
    (host,) = hosts
    checks.append(Check(name, "host request + item conservation",
                        host.conservation_ok()))
    checks.append(Check(name, "hugepage pool conservation",
                        host.backend.pool.conservation_ok()))
    sim_s, spans = _sim_phase(census)
    return Outcome(
        cells={name: cell}, checks=checks,
        sim={"events_per_image": window_events / images,
             "sim_throughput": res.throughput,
             "sim_p99_ms": res.latency_p99_ms,
             "sim_cpu_cores": res.cpu_cores / cfg["num_gpus"]},
        sim_s=sim_s, sim_spans=spans)


# -- train-fig5 ------------------------------------------------------------

TRAIN = dict(model="alexnet", num_gpus=2, warmup_s=1.0, measure_s=3.0,
             backends=("lmdb", "dlbooster"))
#: S5.2 (2): LMDB loses ~30% at 2 GPUs on AlexNet; DLBooster beats it by
#: >= 20%.
LMDB_LOSS_RANGE = (0.20, 0.40)
DLB_OVER_LMDB = 1.2


def train_fig5(seed: int, census: Census, smoke: bool = False) -> Outcome:
    """The Fig. 5 AlexNet 2-GPU pair, LMDB then DLBooster, each cell
    building its own default (400k) corpus."""
    import repro.workflows.training as training
    from repro.workflows import (TrainingConfig, ideal_training_throughput,
                                 run_training)
    backends = census.capture(training, "DLBoosterBackend")
    cells, checks = {}, []
    window_events = images = 0
    results = {}
    for backend in TRAIN["backends"]:
        cfg = dict(model=TRAIN["model"], backend=backend,
                   num_gpus=TRAIN["num_gpus"], warmup_s=TRAIN["warmup_s"],
                   measure_s=TRAIN["measure_s"], seed=seed)
        if smoke:
            cfg.update(warmup_s=0.05, measure_s=0.1, dataset_size=4000)
        first = len(census.runs)
        res = run_training(TrainingConfig(**cfg))
        events = _window(census, first)[1]
        cell_images = round(res.throughput * cfg["measure_s"])
        window_events += events
        images += cell_images
        name = f"{TRAIN['model']}/{backend}/{TRAIN['num_gpus']}gpu"
        cells[name] = {"throughput": res.throughput,
                       "efficiency": res.efficiency,
                       "cpu_cores_per_gpu": res.cpu_cores_per_gpu,
                       "window_events": events,
                       "window_images": cell_images}
        checks += _finite_positive(name, cells[name], cells[name])
        if backend == "dlbooster":
            checks.append(Check(name, "hugepage pool conservation",
                                res.extras["pool_conservation"]))
            checks.append(Check(name, "item conservation",
                                res.extras["item_conservation"]))
            reader = backends[-1].reader
            cells[name]["decode_p99_ms"] = reader.decode_latency.p99() * 1e3
        results[backend] = (name, res)
    if not smoke:
        lmdb_name, lmdb = results["lmdb"]
        dlb_name, dlb = results["dlbooster"]
        bound = ideal_training_throughput(TRAIN["model"], TRAIN["num_gpus"])
        loss = 1 - lmdb.throughput / bound
        lo, hi = LMDB_LOSS_RANGE
        checks.append(Check(
            lmdb_name, "S5.2 (2): LMDB loses 20-40% against the GPU bound",
            lo <= loss <= hi, f"{loss:.1%}", "~30%"))
        ratio = dlb.throughput / lmdb.throughput
        checks.append(Check(
            dlb_name, "S5.2: DLBooster runs at >= 1.2x LMDB",
            ratio >= DLB_OVER_LMDB, f"{ratio:.2f}x", ">=1.2x"))
    sim_s, spans = _sim_phase(census)
    n = len(cells)
    dlb_cell = cells[results["dlbooster"][0]]
    return Outcome(
        cells=cells, checks=checks,
        sim={"events_per_image": window_events / images,
             "sim_throughput": sum(c["throughput"]
                                   for c in cells.values()) / n,
             "sim_p99_ms": dlb_cell["decode_p99_ms"],
             "sim_cpu_cores": sum(c["cpu_cores_per_gpu"]
                                  for c in cells.values()) / n},
        sim_s=sim_s, sim_spans=spans)


# -- fleet-chaos -----------------------------------------------------------

FLEET = dict(k=4, overload_x=2.8, sim_s=1.5, policy="least-loaded",
             crash_host="host01", crash_at=0.4, hang_host="host02",
             hang_from=0.3, hang_rate=0.8)


def fleet_chaos(seed: int, census: Census, smoke: bool = False) -> Outcome:
    """``serve_chaos``: K=4, least-loaded, open loop at 2.8x the
    single-host knee; one host crashes, another hangs (gray failure);
    recovery, ejection, metrics registry and SLO evaluator armed."""
    import repro.experiments.chaos_fleet as chaos_fleet
    from repro.faults import FaultPlan
    hosts = census.capture(chaos_fleet, "Host")
    sim_s = 0.2 if smoke else FLEET["sim_s"]
    plan = FaultPlan.of(
        FaultPlan.host_crash(FLEET["crash_at"] * sim_s, FLEET["crash_host"]),
        FaultPlan.host_hang(FLEET["hang_from"] * sim_s, sim_s,
                            FLEET["hang_host"], rate=FLEET["hang_rate"]),
        name="fleet-chaos")
    payload = chaos_fleet.serve_chaos(
        plan=plan, recovery=chaos_fleet.default_recovery(),
        outlier=chaos_fleet.default_outlier(), k=FLEET["k"],
        overload_x=FLEET["overload_x"], sim_s=sim_s, seed=seed,
        policy=FLEET["policy"], with_registry=True, slo=True)
    fleet, flights, source = (payload["fleet"], payload["flights"],
                              payload["source"])
    events = sum(r[1] for r in census.runs)
    gpus = sum(len(h.engines) for h in hosts)
    cores = sum(h.cpu.cores_used() for h in hosts)
    cell = {"offered": source["sent"], "goodput_per_s":
            payload["kpi"]["traffic"]["goodput_per_s"],
            "served_p99_ms": fleet["p99_ms"],
            "client_p99_ms": fleet["client_p99_ms"],
            "client_failures": fleet["client_failures"],
            "attempts": flights["attempts"],
            "hedges": payload["lb"]["hedges"],
            "redispatches": payload["lb"]["redispatches"],
            "injected": payload["chaos"]["injected"],
            "cpu_cores": cores, "events": events}
    name = f"k{FLEET['k']}/{FLEET['policy']}/crash+hang"
    checks = _finite_positive(name, cell, ("offered", "goodput_per_s",
                                           "served_p99_ms", "attempts",
                                           "injected", "events"))
    checks += [
        Check(name, "request ledger closes", flights["request_ledger_ok"]),
        Check(name, "attempt ledger closes", flights["attempt_ledger_ok"]),
        Check(name, "per-host request + item conservation",
              fleet["conserved"]),
        Check(name, "balancer dispatch conservation",
              payload["balancer"]["conserved"]),
        Check(name, "source conservation", source["conserved"]),
        Check(name, "hugepage pool conservation on every host",
              all(h.backend.pool.conservation_ok() for h in hosts)),
    ]
    sim_s, spans = _sim_phase(census)
    return Outcome(
        cells={name: cell}, checks=checks,
        sim={"events_per_image": events / source["sent"],
             "sim_throughput": cell["goodput_per_s"],
             "sim_p99_ms": fleet["p99_ms"],
             "sim_cpu_cores": cores / gpus},
        sim_s=sim_s, sim_spans=spans)


# -- sweep-fig7 ------------------------------------------------------------

SWEEP = dict(models=("googlenet",), backends=("cpu-online", "nvjpeg"),
             batches=(1, 8, 32), warmup_s=0.8,
             measure_s=2.5, telemetry=True, max_workers=2)


def sweep_seeds(seed: int) -> tuple[int, int]:
    """Point seeds of benchmark seed ``seed``; disjoint across seeds."""
    return (2 * seed, 2 * seed + 1)


def sweep_fig7(seed: int, census: Census, smoke: bool = False) -> Outcome:
    """A 12-point ``fig7_points`` grid through ``run_sweep`` at
    min(2, effective cores) workers, ending with the merged rollup."""
    from repro.sweep import run_sweep
    from repro.sweep.points import fig7_points
    from repro.sweep.pool import WorkerPool, effective_cores
    warmup, measure = (0.05, 0.1) if smoke else (SWEEP["warmup_s"],
                                                 SWEEP["measure_s"])
    points = fig7_points(models=SWEEP["models"], backends=SWEEP["backends"],
                         batches=SWEEP["batches"], seeds=sweep_seeds(seed),
                         warmup_s=warmup, measure_s=measure,
                         telemetry=SWEEP["telemetry"])
    cores = effective_cores()
    workers = min(SWEEP["max_workers"], cores)
    pool = CensusPool(WorkerPool(workers), census)
    try:
        outcome = run_sweep(points, parallel=workers, pool=pool)
        finished = time.monotonic()
        rollup_json = outcome.rollup_json()
    finally:
        pool.pool.close()
    rollup = json.loads(rollup_json)
    cells, checks = {}, []
    window_events = images = 0
    exports = [pool.payloads[i] for i in range(len(points))]
    for point, doc, export in zip(points, rollup["points"], exports):
        values = dict(doc["values"])
        events = export["runs"][-1][1]
        values["window_events"] = events
        values["window_images"] = round(values["throughput"] * measure)
        window_events += events
        images += values["window_images"]
        cells[point.label] = values
        checks += _finite_positive(point.label, values, values)
    for s in sweep_seeds(seed):
        for backend in SWEEP["backends"]:
            lo = cells[f"googlenet/{backend}/bs1/s{s}"]
            hi_name = f"googlenet/{backend}/bs32/s{s}"
            checks.append(Check(
                hi_name, "S5.3 (4): throughput grows with batch size",
                cells[hi_name]["throughput"] >= lo["throughput"],
                f"{cells[hi_name]['throughput'] / lo['throughput']:.2f}x",
                "grows"))
        nvj_name = f"googlenet/nvjpeg/bs32/s{s}"
        cpu = cells[f"googlenet/cpu-online/bs32/s{s}"]["throughput"]
        checks.append(Check(
            nvj_name, "S5.3 (2): nvJPEG below the CPU backend at batch 32",
            cells[nvj_name]["throughput"] <= cpu,
            f"{cells[nvj_name]['throughput'] / cpu:.2f}x", "lowest"))
    serving = rollup["merged_latency"]["serving.latency"]
    phase_s = finished - census.setup_end
    sim_s = sum(r[0] for ex in exports for r in ex["runs"])
    n = len(cells)
    return Outcome(
        cells=cells, checks=checks,
        sim={"events_per_image": window_events / images,
             "sim_throughput": sum(c["throughput"]
                                   for c in cells.values()) / n,
             "sim_p99_ms": serving["p99"] * 1e3,
             "sim_cpu_cores": sum(c["cpu_cores"] for c in cells.values()) / n},
        sim_s=sim_s, sim_spans=[(census.setup_end, finished)],
        sim_ref_ratio=(sum(ex["speed"][0] for ex in exports)
                       / sum(ex["speed"][1] for ex in exports)),
        facts={"workers": workers, "effective_cores": cores,
               "one_core": cores == 1, "phase_s": phase_s,
               "walls": list(outcome.walls),
               "rollup_sha256": hashlib.sha256(
                   rollup_json.encode()).hexdigest()},
        worker_exports=exports)


WORKLOADS: dict[str, Callable[[int, Census, bool], Outcome]] = {
    "serve-fig7": serve_fig7,
    "train-fig5": train_fig5,
    "fleet-chaos": fleet_chaos,
    "sweep-fig7": sweep_fig7,
}

#: Modules each workload imports before the census patches the program.
IMPORTS = {
    "serve-fig7": ("repro.workflows.inference",),
    "train-fig5": ("repro.workflows.training",),
    "fleet-chaos": ("repro.experiments.chaos_fleet",),
    "sweep-fig7": ("repro.sweep.runner", "repro.sweep.points",
                   "repro.sweep.pool", "repro.sweep.transport"),
}


def run_workload(name: str, seed: int, census: Census, *,
                 smoke: bool = False,
                 sampler: Optional[Sampler] = None) -> Outcome:
    """Import the workload's modules, patch the program with ``census``,
    run the workload (under ``sampler`` when given) and unpatch."""
    for module in IMPORTS[name]:
        importlib.import_module(module)
    census.install()
    if sampler is not None:
        sampler.start()
    try:
        return WORKLOADS[name](seed, census, smoke)
    finally:
        if sampler is not None:
            sampler.stop()
        census.uninstall()


def config_of(workload: str) -> dict:
    """The workload's fixed configuration (hashed into run records)."""
    return {"serve-fig7": SERVE, "train-fig5": TRAIN, "fleet-chaos": FLEET,
            "sweep-fig7": SWEEP}[workload]
