"""Machine-speed probe, and request times scaled to a fixed probe speed.

The 2-core host the bounds were set on runs the same code up to 1.5x slower
for phases of seconds to minutes, for causes outside the guest (it records
hardly any steal time). A fixed pure-Python loop timed after every request
tracks those phases; scaling each request time by REFERENCE_S / (probe time
around it) gives its time on a machine where the probe takes REFERENCE_S. In
two sets of ten seeds this cut the run-to-run spread (IQR/median) of the
median request time from 0.10-0.34 to 0.07-0.11 (README.md). Raw times are
reported next to the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

REFERENCE_S = 2.0e-3   # nominal probe time; scaled times are "seconds at this speed"
WINDOW = 4             # probes on each side of a request that estimate its speed


def probe() -> float:
    """Seconds taken by a fixed pure-Python loop of 30 000 multiply-adds."""
    t0 = perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i
    return perf_counter() - t0


def scaled(times, probes):
    """Each time times REFERENCE_S over the median probe within WINDOW of it."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(probes[max(0, i - WINDOW): i + WINDOW + 1])
        out.append(t * REFERENCE_S / local)
    return out
