"""Correctness checks that need pinned values.

The seed-independent checks (ledgers, conservation, paper shape checks)
live with each workload.  This module adds the comparison of the
default seed's simulated outputs against values pinned from a known-good
commit (``golden.json``), and :func:`pin`, which writes those values.
Identity across the runs of one seed is checked by ``run.py``.

Pinned floats compare within a relative 1e-12 (an ulp-level reordering
of a sum is not a defect); integers and the sweep rollup digest compare
exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .workloads import Check

__all__ = ["DEFAULT_SEED", "GOLDEN_PATH", "pinned_checks", "load_golden",
           "REL_TOL"]

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")
REL_TOL = 1e-12


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _same(pinned, value) -> bool:
    if isinstance(pinned, int) and isinstance(value, int):
        return pinned == value
    return math.isclose(pinned, value, rel_tol=REL_TOL, abs_tol=0.0)


def pinned_checks(workload: str, cells: dict, facts: dict) -> list[Check]:
    """One check per pinned cell (and the rollup digest, whose mismatch
    fails every cell of the sweep)."""
    golden = load_golden()[workload]
    checks = []
    for name, pinned in golden["cells"].items():
        values = cells.get(name)
        bad = (sorted(pinned) if values is None else
               [k for k, v in pinned.items()
                if k not in values or not _same(v, values[k])])
        checks.append(Check(name, f"matches pinned seed-{DEFAULT_SEED} "
                            "outputs", not bad,
                            "differs: " + ", ".join(bad) if bad else ""))
    digest = golden.get("rollup_sha256")
    if digest is not None:
        ok = facts.get("rollup_sha256") == digest
        checks += [Check(name, "merged rollup matches pinned digest", ok,
                         facts.get("rollup_sha256", "")[:12])
                   for name in cells]
    return checks


def pin(path: Path = GOLDEN_PATH) -> dict:
    """Run every workload at the default seed and write its simulated
    outputs to ``golden.json``.  Only for a commit whose outputs are
    known to be right: the pins are what later commits are held to."""
    from .census import Census
    from .workloads import WORKLOADS, run_workload
    golden = {}
    for name in WORKLOADS:
        outcome = run_workload(name, DEFAULT_SEED, Census())
        failed = [c for c in outcome.checks if not c.ok]
        if failed:
            raise SystemExit(f"{name}: refusing to pin failing outputs: "
                             f"{failed}")
        golden[name] = {"seed": DEFAULT_SEED, "cells": outcome.cells}
        if "rollup_sha256" in outcome.facts:
            golden[name]["rollup_sha256"] = outcome.facts["rollup_sha256"]
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return golden


if __name__ == "__main__":
    import sys
    if sys.argv[1:] != ["pin"]:
        raise SystemExit("usage: python3 -m perfbench.checks pin")
    pin()
