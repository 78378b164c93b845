"""The harness's own arithmetic: percentiles, normalization, self time.

Pure Python with no dependency on the program under test, so
``test_perfbench.py`` can check it in isolation.
"""

from __future__ import annotations

import math
import statistics

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it; below that, one outlier moves it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linearly interpolated.

    Same definition as numpy's default (``method="linear"``): rank
    ``q/100 * (n - 1)`` into the sorted sample.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def tail_reportable(values, q: float) -> bool:
    """The percentile rule: at least ``MIN_TAIL_SAMPLES`` lie beyond it."""
    return bool(values) and samples_beyond(values, q) >= MIN_TAIL_SAMPLES


def host_scale(reference_s: float, calibration_s: float) -> float:
    """Factor turning a timing into reference-host seconds.

    ``reference_s`` is the calibration kernel's median on the reference
    host and ``calibration_s`` the kernel's time right after the timed
    step: a host (or a stretch of a drifting one) that runs the kernel
    at half speed has its timings halved.
    """
    if calibration_s <= 0 or reference_s <= 0:
        raise ValueError("calibration times must be positive")
    return reference_s / calibration_s


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def covered_length(interval: tuple[float, float], children) -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children are clipped to the interval first; overlapping children
    (spans of other threads attached to the same parent) count once.
    """
    start, end = interval
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in children if e > start
        and s < end
    )
    covered = 0.0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        covered += e - max(s, cursor)
        cursor = e
    return covered


def self_times(spans) -> dict:
    """Self time of every span: its duration minus what children cover.

    Args:
        spans: Records with ``id``, ``parent``, ``start`` and ``end``.

    Returns:
        ``{span id: self seconds}``.
    """
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return {
        span.id: (span.end - span.start)
        - covered_length((span.start, span.end), children.get(span.id, ()))
        for span in spans
    }
