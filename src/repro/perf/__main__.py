"""CLI: time the optimized decoder against its pre-pass self.

Usage:
    python -m repro.perf                  # table on stdout
    python -m repro.perf --json OUT.json  # also write repro-perf/1 JSON
    python -m repro.perf --quick          # shorter runs (CI smoke)
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .harness import bench, to_payload, write_payload
from .reference import reference_mode
from .workloads import codec_workload


def run_suite(quick: bool = False):
    """Benchmark decode in optimized and reference mode.

    Returns ``(results, derived, rows)`` — BenchResults, the speedup
    ratio for the baseline file, and printable table rows.
    """
    from ..jpeg.decoder import decode

    k = 3 if quick else 5
    min_time = 0.05 if quick else 0.2

    wl = codec_workload()
    units = {"bytes": float(wl.nbytes)}
    # Interleave the modes so slow machine drift biases neither side.
    news, olds = [], []
    for _ in range(1 if quick else 2):
        news.append(bench(lambda: decode(wl.data), name="codec.decode",
                          k=k, min_time=min_time, units=units))
        with reference_mode():
            olds.append(bench(lambda: decode(wl.data),
                              name="codec.decode_ref",
                              k=k, min_time=min_time, units=units))
    new_dec = min(news, key=lambda r: r.best_s)
    old_dec = min(olds, key=lambda r: r.best_s)
    # Bit-identical contract: same pixels either mode.
    with reference_mode():
        ref_pixels = decode(wl.data)
    if not np.array_equal(decode(wl.data), ref_pixels):
        raise AssertionError("decode output differs between modes")

    derived = {
        "codec.decode_speedup": old_dec.best_s / new_dec.best_s,
    }
    rows = [
        ("JPEG decode (240x320 q80)",
         f"{wl.nbytes / new_dec.best_s / 1e6:.1f} MB/s",
         f"{wl.nbytes / old_dec.best_s / 1e6:.1f} MB/s",
         f"{derived['codec.decode_speedup']:.2f}x"),
    ]
    return [new_dec, old_dec], derived, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf", description=__doc__)
    parser.add_argument("--json", default=None,
                        help="write repro-perf/1 JSON here")
    parser.add_argument("--quick", action="store_true",
                        help="shorter runs (CI smoke profile)")
    args = parser.parse_args(argv)

    results, derived, rows = run_suite(quick=args.quick)
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    header = ("workload", "optimized", "reference", "speedup")
    widths = [max(w, len(h)) for w, h in zip(widths, header)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    print(fmt.format(*("-" * w for w in widths)))
    for row in rows:
        print(fmt.format(*row))

    if args.json:
        write_payload(args.json, to_payload(results, derived))
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
