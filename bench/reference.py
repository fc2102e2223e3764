"""A fixed piece of reference work that measures how fast the machine is right now.

On a shared VM the speed a process gets drifts by a factor of two and more,
in stretches of seconds to minutes, for reasons outside the process.  The
benchmark times this work right before and right after every job and every
set-up, and reports times scaled to the speed at which it takes
``REFERENCE_MS``: a job that ran while the work took twice as long counts
half its wall time.  The work mixes what sgclass spends its time on (Fraction
arithmetic, integer bit sets, dicts, sorting and text) and shares no code
with it, so no change to sgclass changes it.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter_ns

import oracles

REFERENCE_MS = 2.0  # what the work takes at the reference speed


def work():
    acc = Fraction(0)
    for i in range(1, 80):
        acc += Fraction(i, i + 1) * Fraction(3, 2 * i + 1)
    bits, seen = 0, {}
    for i in range(1500):
        bits |= 1 << ((i * 37) % 211)
        seen[(bits >> (i % 50)) & 0xFFFF] = i
    rows = sorted((v, k) for k, v in seen.items())
    text = ",".join(str(v) for v, _ in rows)
    return acc, bits, len(text), oracles.kronecker(-3571, 1009)


def time_ns() -> int:
    """Wall time of the reference work twice over, in nanoseconds."""
    t = perf_counter_ns()
    work()
    work()
    return perf_counter_ns() - t


def scale(before_ns: int, after_ns: int) -> float:
    """Factor from wall time to reference time, for work between two samples."""
    return REFERENCE_MS * 1e6 / ((before_ns + after_ns) / 2)
