"""Pure arithmetic of the benchmark: percentiles, the tail rule, self time.

Kept free of ``repro`` imports so it is tested on its own.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Sequence

#: Candidate tail percentiles, lowest first.  The reported tail is the
#: highest of these that leaves at least :data:`TAIL_MIN_BEYOND` samples
#: strictly beyond it, so a tail is never read off a handful of outliers.
#: p99.9 is not a candidate: on a shared 2-core VM it measured the host's
#: millisecond stalls (whole calls slowed alike) and moved 1.9-4.7 ms
#: between serve-hit runs, too far to gate.
TAIL_PERCENTILES: tuple[float, ...] = (50.0, 90.0, 95.0, 99.0)
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond it)`` of the reportable tail.

    Picks the highest percentile in :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_MIN_BEYOND` samples strictly greater than its value; with
    too few samples for any of them, falls back to the median.
    """
    ordered = sorted(values)
    chosen = None
    for q in TAIL_PERCENTILES:
        value = percentile(ordered, q)
        beyond = len(ordered) - bisect.bisect_right(ordered, value)
        if beyond >= TAIL_MIN_BEYOND:
            chosen = (q, value, beyond)
    if chosen is None:
        value = percentile(ordered, 50.0)
        return 50.0, value, len(ordered) - bisect.bisect_right(ordered, value)
    return chosen


def covered_ns(intervals: Iterable[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``[start, end)`` intervals, clipped to [lo, hi).

    Children of one span may overlap each other (concurrent asyncio
    tasks); the union counts shared time once, so a parent's self time
    ``(hi - lo) - covered_ns(children, lo, hi)`` never goes negative.
    """
    total = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_ns(start: int, end: int, children: Iterable[tuple[int, int]]) -> int:
    """A span's exclusive time: its duration minus the union of its children."""
    return (end - start) - covered_ns(children, start, end)

