"""A fixed piece of work that times the machine, not the program.

The benchmark's host shares its cores: the same process can run at half
speed for a minute and at full speed the next.  ``probe()`` runs the same
mix of work as a trial (interpreter-bound integer mixing, small dicts and
tuples, numpy generator construction, one array shuffle) without calling
``splitgt``, so its time moves with the machine and never with the code
under test.  Timed next to each measured call, it rescales that call's
seconds to a machine on which the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# about the probe's time on an unloaded 2-vCPU Xeon host; only a scale
# factor, the same for every commit measured
REFERENCE_S = 0.008
_MASK64 = (1 << 64) - 1


def probe() -> float:
    """Seconds taken by the fixed work."""
    start = time.perf_counter()
    x = 0
    for i in range(12000):
        x = ((x ^ (x >> 29)) * 0xBF58476D1CE4E5B9 + i) & _MASK64
    table = {}
    for i in range(6000):
        table[(i & 1023, i >> 10)] = i
    for i in range(60):
        np.random.Generator(np.random.Philox(key=x + i)).random(16)
    np.random.Generator(np.random.Philox(key=x)).permutation(1 << 15)
    return time.perf_counter() - start


def sample(probes: int = 3) -> float:
    """Median of a few probes.  The median, not the fastest, because a timed
    call lives through the machine's stalls too; the median only drops the
    rare probe that one stall doubled."""
    return statistics.median(probe() for _ in range(probes))


def scale(seconds: float, probe_seconds: float) -> float:
    """``seconds`` rescaled to a machine on which the probe takes REFERENCE_S."""
    return seconds * REFERENCE_S / probe_seconds
