"""Host speed probe: wall times scaled to the host's uncontended speed.

A small shared host runs the same code up to about 1.8x slower for tens of
seconds at a time, while other tenants load it; the process keeps its core
all along (its CPU time equals its wall time), so the slowdown is in every
instruction and no statistic over a run's own repeats removes a run that
falls wholly in such a spell. ``Clock`` therefore times a fixed reference
kernel, which depends on nothing in the package, between every two units of
work, and scales each unit's wall time by how much slower than
``REFERENCE_S`` the probes on either side of it ran.

The kernel mixes what the package spends its time on: small dense matrix
products (LSTM gates, convolutions as GEMMs) and pure-Python loops over
lists and dicts (encoding, labelling, autodiff bookkeeping), about half each.

    python3 perfbench/calibrate.py   # probe times: quantiles over 30 s
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# The kernel's time on an uncontended core of a 2-vCPU Intel Xeon host with
# one OpenBLAS thread (5th percentile of the probes in two 30 s runs). It
# fixes the scale of every calibrated time; any constant would give the same
# ratios between two versions of the package.
REFERENCE_S = 0.00062


class Clock:
    """Scales the wall time of a unit of work just ended; see the module text."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((16, 256))
        self._b = rng.standard_normal((256, 512))
        self._keys = [f"k{i}" for i in range(64)]
        self.probes = []
        self.units = []  # (wall, calibrated) seconds per unit of work
        self._before = self.probe()

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(3):
            self._a @ self._b
        counts = {}
        for i in range(1750):
            key = self._keys[i % 64]
            counts[key] = counts.get(key, 0) + len(key)
        return time.perf_counter() - t0

    def probe(self) -> float:
        """The faster of two kernel runs, so that one interrupt does not
        count, with the collector off, so that the package's heap does not."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            seconds = min(self._kernel(), self._kernel())
        finally:
            if collecting:
                gc.enable()
        self.probes.append(seconds)
        return seconds

    def __call__(self, wall: float, inner=()) -> float:
        """The calibrated time of a unit that took ``wall`` seconds and just
        ended; ``inner`` are probes taken during the unit, whose time is
        taken out of ``wall``."""
        after = self.probe()
        slowdown = statistics.fmean([self._before, *inner, after]) / REFERENCE_S
        self._before = after
        wall -= sum(inner)
        self.units.append((wall, wall / slowdown))
        return wall / slowdown


if __name__ == "__main__":
    clock, end = Clock(), time.perf_counter() + 30
    while time.perf_counter() < end:
        clock.probe()
    q = statistics.quantiles(clock.probes, n=20)
    print(f"{len(clock.probes)} probes: p5 {q[0]:.5f} s, median {q[9]:.5f} s, p95 {q[18]:.5f} s")
