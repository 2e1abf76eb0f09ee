"""Self-describing run records, and a diff between two of them.

Every benchmark run writes one JSON record: workload, config hash,
seed, code version (git revision when the tree is a git checkout, and
always a digest of ``src/``), Python version, effective cores, every
metric with its unit, the correctness outcome and the per-layer census.

    python3 perfbench/record.py OLD.json NEW.json

prints, per metric present in either record, both values and the
change (absolute and relative).
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

__all__ = ["build_record", "write_record", "diff_records", "SCHEMA"]

SCHEMA = "perfbench-record/1"
ROOT = Path(__file__).resolve().parent.parent


def git_revision(root: Path = ROOT) -> Optional[str]:
    """HEAD of ``root`` when ``root`` itself is a git work tree."""
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root: Path = ROOT) -> str:
    """sha256 over every ``src/**/*.py`` path and its bytes."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def config_hash(workload: str, smoke: bool) -> str:
    from perfbench.workloads import config_of
    doc = {"workload": workload, "config": config_of(workload),
           "smoke": smoke}
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_record(*, workload: str, seed: int, trace: bool, seconds: float,
                 smoke: bool, effective_cores: int, metrics: dict,
                 units: dict, attempted: int,
                 failed: int, checks: list, runs: list, census: dict,
                 facts: dict) -> dict:
    from perfbench.workloads import config_of
    return {
        "schema": SCHEMA,
        "workload": workload,
        "config_hash": config_hash(workload, smoke),
        "config": json.loads(json.dumps(config_of(workload), default=repr)),
        "smoke": smoke,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "effective_cores": effective_cores,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_pct": 100.0 * failed / attempted if attempted else 0.0,
        "checks": checks,
        "runs": runs,
        "facts": {k: v for k, v in facts.items() if k != "walls"},
        "census": census,
    }


def write_record(record: dict, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    base = (f"{stamp}-{record['workload']}-s{record['seed']}"
            f"-t{int(record['trace'])}")
    path = directory / f"{base}.json"
    n = 1
    while path.exists():
        n += 1
        path = directory / f"{base}-{n}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return path


def diff_records(old: dict, new: dict) -> list[str]:
    """One line per metric: old, new, delta and relative change."""
    lines = []
    for key in ("workload", "seed", "config_hash", "source_sha256",
                "effective_cores"):
        if old.get(key) != new.get(key):
            lines.append(f"# {key}: {old.get(key)} -> {new.get(key)}")
    names = list(old["metrics"]) + [n for n in new["metrics"]
                                    if n not in old["metrics"]]
    for name in names:
        a = old["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        unit = (old["metrics"].get(name) or new["metrics"][name])["unit"]
        if a is None or b is None:
            lines.append(f"{name:32s} {a!s:>14} {b!s:>14}  ({unit})")
            continue
        rel = f"{100.0 * (b - a) / a:+8.2f}%" if a else "       n/a"
        lines.append(f"{name:32s} {a:14.6g} {b:14.6g} {b - a:+14.6g} "
                     f"{rel}  ({unit})")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 perfbench/record.py OLD.json NEW.json",
              file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    print("\n".join(diff_records(old, new)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
