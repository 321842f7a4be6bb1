"""Machine-speed probe, used to damp a shared machine's drift out of timings.

On the 2-CPU containers this benchmark was tuned on, the whole machine
switches, for seconds to minutes at a time, between a fast state and a slow
one, because of other tenants.  The probe is a fixed exact computation on
``fractions.Fraction`` that shares no code with nilqp, so a change to the
package cannot move it.  It runs about every half second between items.

The probe feels the slow state more than the workloads do: it takes 1.6x
longer, as does the import and catalog build of ``setup_s``, while items of
``verdicts`` take about 1.4x and items of ``betti`` about 1.15x.  Regressing
log item time on log probe time gave slopes of 0.4-0.8 across the workloads.
So ``setup_s`` is scaled by the full ratio ``NOMINAL_S / probe`` and item
latencies by its square root (``ITEM_EXPONENT``).  Over ten seeds per
workload, the square root gave quartile spreads of 0.06-0.15 where the raw
figures spread by 0.06-0.22 and the full ratio by 0.06-0.19.  Scaled times
read as seconds on a machine where the probe takes ``NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

# Probe time on an unloaded 2-CPU container (Python 3.11, fast state).
NOMINAL_S = 0.0015
ITEM_EXPONENT = 0.5
EVERY_S = 0.5  # probe after at least this much item time
# Single probes are sometimes hit by short stalls, so each item takes the
# median of the probes within this window around it.
WINDOW_S = 2.5

_HILBERT = tuple(tuple(Fraction(1, i + j + 1) for j in range(10)) for i in range(10))


def probe() -> float:
    """Seconds for the fastest of five eliminations of a fixed 10x10 Hilbert matrix."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        m = [list(row) for row in _HILBERT]
        for c in range(len(m)):
            for r in range(c + 1, len(m)):
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedTrack:
    """Probe samples over a run, and the scale factor for an item at any instant."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []
        self.probe_s = 0.0  # wall time spent in probes
        self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        value = probe()
        self.times.append(time.perf_counter())
        self.probe_s += self.times[-1] - t0
        self.values.append(value)

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """(NOMINAL_S / median probe within WINDOW_S of the interval) ** ITEM_EXPONENT."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return (NOMINAL_S / statistics.median(self.values[lo:hi] or self.values)) ** ITEM_EXPONENT
