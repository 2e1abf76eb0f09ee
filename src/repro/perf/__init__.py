"""Microbenchmark harness and the pre-optimization reference decoder.

``repro.perf`` answers one question reproducibly: *how much faster is
the current code than the implementation it replaced, on this machine,
right now?*  Three pieces:

* :mod:`repro.perf.harness` — ``bench()``: warmup, calibrated inner
  repetitions, min-of-k timing, machine-readable results
  (``repro-perf/1`` JSON), and a tolerance-based regression checker.
* :mod:`repro.perf.reference` — verbatim pre-optimization
  implementations of the JPEG decoder's hot paths, plus
  ``reference_mode()``, a context manager that swaps them in so old and
  new can be timed back-to-back in one process.  Speedup *ratios* are
  machine-portable in a way absolute MB/s numbers are not, so the
  committed baseline (``benchmarks/perf_baseline.json``) stores ratios.
  The sim kernel has no reference copy; pinned digests in the tests
  hold its simulated outputs fixed.
* :mod:`repro.perf.workloads` — the standard decode input every
  benchmark uses (a synthetic photo JPEG).

Run ``python -m repro.perf`` for a human-readable table.
"""

from .harness import (BenchResult, bench, check_regression, load_payload,
                      merge_payloads, to_payload, write_payload)
from .reference import reference_mode

__all__ = ["BenchResult", "bench", "check_regression", "load_payload",
           "merge_payloads", "to_payload", "write_payload",
           "reference_mode"]
