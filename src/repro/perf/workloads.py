"""Standard benchmark workloads — one definition, every consumer.

Benchmarks, the CI perf-smoke job and ``python -m repro.perf`` must all
measure the same thing or their numbers cannot be compared; these
constructors are that single definition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CodecWorkload", "codec_workload"]


@dataclass(frozen=True)
class CodecWorkload:
    """A JPEG to decode plus its provenance."""

    data: bytes            # encoded JPEG stream
    height: int
    width: int
    quality: int

    @property
    def nbytes(self) -> int:
        return len(self.data)


def codec_workload(height: int = 240, width: int = 320,
                   quality: int = 80, seed: int = 7) -> CodecWorkload:
    """The decode benchmark input: a synthetic photo, 4:2:0, Annex-K
    tables (the common case the lookahead LUT cache is built for)."""
    from ..data.datasets import synthetic_photo
    from ..jpeg.encoder import encode
    img = synthetic_photo(np.random.default_rng(seed), height, width)
    return CodecWorkload(data=encode(img, quality=quality),
                         height=height, width=width, quality=quality)

