"""Sample statistics and span arithmetic for the benchmark.

Pure functions, no ``repro`` import: the orchestrator, the workers and
the tests all share them.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_CANDIDATES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def tail_percentile(count: int) -> float:
    """Highest candidate percentile with >= MIN_BEYOND samples beyond it.

    ``count`` is the number of samples the percentile is taken over.
    Raises ``ValueError`` when not even the median qualifies.
    """
    chosen = None
    for pct in TAIL_CANDIDATES:
        # Compare in integer tenths of a percent: 99.9 must not lose a
        # sample to floating-point rounding.
        beyond_tenths = count * (1000 - round(pct * 10))
        if beyond_tenths >= MIN_BEYOND * 1000:
            chosen = pct
    if chosen is None:
        raise ValueError(
            f"{count} samples leave fewer than {MIN_BEYOND} beyond the "
            f"median; no tail percentile qualifies"
        )
    return chosen


def interval_union(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def clipped_union(
    intervals: Iterable[tuple[float, float]], start: float, end: float
) -> float:
    """Length of the union of ``intervals`` inside ``[start, end]``."""
    return interval_union(
        (max(a, start), min(b, end)) for a, b in intervals
    )


def self_times(spans: Sequence[tuple]) -> list[float]:
    """Self time of each span: its duration minus its children's union.

    ``spans`` holds ``(start, end, parent_index)`` tuples, where
    ``parent_index`` points into ``spans`` (``None`` for a root).
    Children are clipped to their parent, so overlapping or overhanging
    children are never subtracted twice or beyond the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (start, end, _parent) in enumerate(spans):
        covered = clipped_union(children.get(index, ()), start, end)
        result.append(max(0.0, (end - start) - covered))
    return result
