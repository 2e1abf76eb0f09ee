"""A signal-driven sampling profiler that attributes host CPU time to
``repro`` layers.

Every :data:`INTERVAL_S` of process CPU time the kernel delivers SIGPROF; the
handler walks the interrupted stack from the innermost frame outward and
charges the CPU time elapsed since the previous sample to the first frame
whose module belongs to ``repro``.  Unlike a deterministic profiler it
adds no cost to function calls, so it does not inflate call-heavy layers
(the event kernel) relative to layers that spend their time in native
code (numpy, zlib).

Layers are named after modules: ``repro.sim.monitor`` is its own layer
(``sim.monitor``); every other module maps to its top-level package
(``repro.fleet.balancer`` -> ``fleet``).  Samples with no ``repro`` frame
on the stack are charged to the empty layer ``""`` (unattributed).
"""

from __future__ import annotations

import signal
import time
from collections import defaultdict
from typing import Optional

__all__ = ["Sampler", "layer_of_module", "SPLIT_MODULES", "INTERVAL_S"]

#: CPU seconds between samples.
INTERVAL_S = 0.001

#: Modules reported as layers of their own instead of being folded into
#: their package.
SPLIT_MODULES = ("repro.sim.monitor",)

_PREFIX = "repro."


def layer_of_module(module: str) -> Optional[str]:
    """The layer a module's frames are charged to, or ``None`` when the
    module is not part of ``repro``."""
    if not module.startswith(_PREFIX):
        return None
    for split in SPLIT_MODULES:
        if module == split or module.startswith(split + "."):
            return split[len(_PREFIX):]
    return module[len(_PREFIX):].split(".", 1)[0]


class Sampler:
    """CPU-time sampler; use as a context manager or via start()/stop().

    Must be started from the main thread (signal handlers run there).
    ``seconds`` maps layer -> CPU seconds charged to it; the ``""`` key
    holds unattributed time.
    """

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.samples = 0
        self._layers: dict[str, Optional[str]] = {}
        self._last = 0.0
        self._previous = None

    def _layer(self, frame) -> str:
        layers = self._layers
        while frame is not None:
            module = frame.f_globals.get("__name__", "")
            layer = layers.get(module, False)
            if layer is False:
                layer = layers[module] = layer_of_module(module)
            if layer is not None:
                return layer
            frame = frame.f_back
        return ""

    def _on_signal(self, signum, frame) -> None:
        now = time.process_time()
        self.seconds[self._layer(frame)] += now - self._last
        self._last = now
        self.samples += 1

    def start(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def total(self) -> float:
        return sum(self.seconds.values())
