"""Statistics used by the benchmark: percentiles, the gate, span self time.

Everything here is pure and deterministic so it can be tested without
running the simulator (see ``test_perfbench.py``).
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; otherwise the tail estimate rests on a handful of points.
MIN_TAIL_SAMPLES = 10

#: Percentiles considered for a latency report, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def median(values: Iterable[float]) -> float:
    """Median of *values*; raises ``ValueError`` when there are none."""
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def tail_count(n: int, p: float) -> int:
    """Samples strictly beyond the nearest-rank *p*-th percentile of *n*."""
    return n - nearest_rank(n, p)


def nearest_rank(n: int, p: float) -> int:
    """1-based nearest rank of the *p*-th percentile among *n* samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100]: {p}")
    return max(1, math.ceil(p / 100.0 * n))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank *p*-th percentile (a value that was actually observed)."""
    ordered = sorted(samples)
    return ordered[nearest_rank(len(ordered), p) - 1]


def reportable(n: int, p: float, min_tail: int = MIN_TAIL_SAMPLES) -> bool:
    """Whether the *p*-th percentile of *n* samples has enough tail."""
    return n >= 1 and tail_count(n, p) >= min_tail


def percentile_report(
    samples: Sequence[float],
    candidates: Sequence[float] = CANDIDATE_PERCENTILES,
    min_tail: int = MIN_TAIL_SAMPLES,
) -> dict[float, float]:
    """Every candidate percentile with at least *min_tail* samples beyond it."""
    n = len(samples)
    return {
        p: percentile(samples, p)
        for p in candidates
        if reportable(n, p, min_tail)
    }


def worse_by(base: float, new: float, better: str) -> float:
    """How much *new* is worse than *base*, as a share of *base*."""
    if base == 0:
        return 0.0 if new == base else math.inf
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def flags_regression(
    base: Sequence[float], new: Sequence[float], bound: float,
    better: str = "lower",
) -> bool:
    """True when *new*'s median is worse than *base*'s by more than *bound*."""
    return worse_by(median(base), median(new), better) > bound


# -- spans ---------------------------------------------------------------------


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[dict]) -> dict[int, float]:
    """Self time per span id: duration minus the part children cover.

    Each span is a mapping with ``id``, ``start``, ``end`` and ``parent``
    (``None`` for a root).  Children may overlap each other (concurrent
    work under one parent) and may stick out of their parent; only the
    union of their intervals clipped to the parent is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = (
            (max(s, start), min(e, end))
            for s, e in children.get(span["id"], ())
        )
        result[span["id"]] = (end - start) - covered_length(clipped)
    return result
