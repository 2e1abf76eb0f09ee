"""Fast tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.census import LAYER_METRICS  # noqa: E402
from perfbench.record import diff_records  # noqa: E402
from perfbench.run import E2E_METRICS, score  # noqa: E402
from perfbench.sampler import Sampler, layer_of_module  # noqa: E402
from perfbench.speed import REFERENCE_PROBE_S, SpeedProbe  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(workload: str, trace: int, tmp_path: Path,
              cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke",
         "--records", str(tmp_path)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_every_name_is_well_formed():
    sections = [[m["name"] for m in SPEC[key]]
                for key in ("workloads", "end_to_end", "per_layer")]
    for names in sections + [list(E2E_METRICS), list(LAYER_METRICS)]:
        for name in names:
            assert NAME.fullmatch(name), name
    metrics = sections[1] + sections[2]
    assert len(set(sections[0])) == len(sections[0])
    assert len(set(metrics)) == len(metrics)


def test_declared_workloads_and_metrics_match_the_code():
    declared = [w["name"] for w in SPEC["workloads"]]
    assert declared == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_exactly_the_declared_metrics(workload, trace,
                                                      tmp_path):
    proc = run_bench(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in section}
    (record,) = tmp_path.glob("*.json")
    doc = json.loads(record.read_text())
    for key in ("config_hash", "seed", "source_sha256", "python",
                "effective_cores", "census", "metrics"):
        assert key in doc
    if workload == "sweep-fig7":
        assert doc["facts"]["workers"] >= 1
        assert doc["facts"]["one_core"] == (doc["facts"]["effective_cores"]
                                            == 1)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("records", "__pycache__"))
    proc = run_bench("serve-fig7", 0, tmp_path / "out", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_layers_are_named_after_modules():
    assert layer_of_module("repro.sim.core") == "sim"
    assert layer_of_module("repro.sim.monitor") == "sim.monitor"
    assert layer_of_module("repro.fleet.balancer") == "fleet"
    assert layer_of_module("repro.fleet") == "fleet"
    assert layer_of_module("numpy.core") is None
    assert layer_of_module("perfbench.census") is None


def _module(name: str, source: str) -> types.ModuleType:
    module = types.ModuleType(name)
    exec(source, module.__dict__)
    return module


def test_sampler_attributes_a_busy_loop_to_its_package():
    busy = _module("repro.synthbusy.loop", (
        "import time\n"
        "def spin(seconds):\n"
        "    end = time.process_time() + seconds\n"
        "    n = 0\n"
        "    while time.process_time() < end:\n"
        "        n += 1\n"
        "    return n\n"))
    caller = _module("repro.synthcaller",
                     "def call(fn, seconds):\n    return fn(seconds)\n")
    with Sampler() as sampler:
        caller.call(busy.spin, 0.3)
    assert sampler.samples >= 10
    assert sampler.seconds["synthbusy"] >= 0.8 * sampler.total()
    assert sampler.seconds.get("synthcaller", 0.0) < 0.1 * sampler.total()


def test_diff_prints_per_metric_deltas():
    old = {"workload": "w", "metrics": {"wall_s": {"value": 2.0,
                                                   "unit": "s"}}}
    new = {"workload": "w", "metrics": {"wall_s": {"value": 1.5,
                                                   "unit": "s"},
                                        "setup_s": {"value": 0.5,
                                                    "unit": "s"}}}
    lines = diff_records(old, new)
    assert lines[0].split()[:4] == ["wall_s", "2", "1.5", "-0.5"]
    assert "-25.00%" in lines[0]
    assert lines[1].split()[:3] == ["setup_s", "None", "0.5"]


def _check(cell: str, ok: bool) -> dict:
    return {"cell": cell, "name": "pinned", "ok": ok, "measured": "",
            "paper": ""}


def test_a_pinned_cell_missing_from_the_output_fails_the_run():
    complete = {"cells": {"a": {}, "b": {}},
                "checks": [_check("a", True), _check("b", True)]}
    assert score([complete])[:2] == (2, 0)
    missing = {"cells": {"a": {}},
               "checks": [_check("a", True), _check("b", False)]}
    attempted, failed, bad = score([missing])
    assert (attempted, failed) == (2, 1)
    assert [c["cell"] for c in bad] == ["b"]


def test_reference_seconds_scale_host_time_by_probe_speed():
    probe = SpeedProbe()
    ref = REFERENCE_PROBE_S
    # Reference speed for the first second, half speed for the next.
    probe.probes = [(t / 10, ref) for t in range(10)]
    probe.probes += [(1 + t / 10, 2 * ref) for t in range(10)]
    # At reference speed, reference seconds are host seconds less the
    # probes' own time.
    assert probe.reference_seconds(0.0, 0.6) == pytest.approx(
        0.6 - 6 * ref, rel=1e-9)
    # Half speed: a host second is worth half a reference second (the
    # smoothing window mixes the speeds only around the switch).
    slow = probe.reference_seconds(1.3, 1.7)
    assert slow == pytest.approx(0.5 * (0.4 - 4 * 2 * ref), rel=1e-9)


def test_speed_probe_samples_while_started():
    probe = SpeedProbe().start()
    try:
        end = time.monotonic() + 0.15
        while time.monotonic() < end:
            pass
    finally:
        probe.stop()
    assert len(probe.probes) >= 4
    t0 = probe.probes[0][0]
    assert probe.reference_seconds(t0, t0 + 0.1) > 0
