"""Host-speed normalization for timings taken on a shared machine.

On a small shared VM the speed available to one process drifts by tens of
percent over seconds to minutes, because of load from other tenants.  A
padefit change of a few percent would drown in that drift.  The benchmark
therefore times a fixed probe computation at short intervals and scales
every timing by NOMINAL_S / (mean time of the probes around it): the
result is the time the step would take on a host that runs the probe in
NOMINAL_S.

The probe is benchmark code that mixes small numpy calls with a pure
Python loop, like padefit's own work, and calls nothing in padefit, so a
change to padefit cannot move it.  Raw timings are reported beside the
scaled ones.
"""

from __future__ import annotations

import gc
import time

import numpy as np
from numpy.polynomial import polynomial as npoly

#: Probe time that defines the nominal host (about its median on a
#: 2-vCPU VM with Python 3.11 and numpy 2.4).
NOMINAL_S = 0.003

#: Probe again once this much timed work has passed since the last probe.
INTERVAL_S = 0.05

_X = np.linspace(0.0, 1.0, 201)
_C = np.array([1.0, -0.5, 0.25, 0.125, -0.0625])


def _probe_once() -> float:
    gc_was_enabled = gc.isenabled()
    gc.disable()  # garbage left by the timed work must not land in the probe
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(60):
            v = npoly.polyval(_X, _C)
            acc += float(np.dot(v, v)) + float(np.max(np.abs(v)))
            acc += float(np.outer(v[:8], v[:8])[3, 4])
        s = 0
        for i in range(20000):
            s += i % 7
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


class HostSpeed:
    """Probe record of one run.

    add() files a raw duration and probes again when one is due; after
    finish(), scaled() gives a filed duration in nominal-host seconds,
    using the mean of the probes taken just before and just after it.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._steps: list[tuple[float, int]] = []  # (raw seconds, index of probe before)
        self._since = 0.0
        _probe_once()  # warm the probe's code paths
        self._measure()

    def _measure(self) -> None:
        self.probes.append(_probe_once())
        self._since = 0.0

    def add(self, raw_s: float) -> int:
        """File a raw duration; return its index for scaled()."""
        self._steps.append((raw_s, len(self.probes) - 1))
        self._since += raw_s
        if self._since >= INTERVAL_S:
            self._measure()
        return len(self._steps) - 1

    def finish(self) -> None:
        """Probe once more so that every filed duration has a probe after it."""
        self._measure()

    def scaled(self, index: int) -> float:
        raw_s, before = self._steps[index]
        return raw_s * NOMINAL_S / (0.5 * (self.probes[before] + self.probes[before + 1]))

    def factor(self, indices) -> float:
        """Nominal-host seconds per raw second over the given filed durations."""
        raw = sum(self._steps[i][0] for i in indices)
        return sum(self.scaled(i) for i in indices) / raw
