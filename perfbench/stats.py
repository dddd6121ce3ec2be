"""Pure summary statistics for the benchmark (no repro imports).

Timings are reported as a median plus one tail percentile.  The tail
follows the sample-count rule: report the highest percentile, up to the
wanted one, that still has at least ``beyond`` samples above it, so a
p99 is only claimed from 1000 samples or more.  With ``beyond`` or
fewer samples no percentile qualifies, and when the rule only allows a
percentile below the median (under ``2 * beyond`` samples) the tail is
the maximum instead.
"""

from __future__ import annotations

import math


def median(values) -> float:
    """The median of a non-empty sequence."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a
    ``q`` share of the samples at or below it (``0 < q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile share must lie in (0, 1], got {q}")
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return float(ordered[rank - 1])


def tail_quantile(n: int, want: float = 0.99, beyond: int = 10) -> float:
    """The percentile share the sample-count rule allows for ``n`` samples.

    The nearest-rank percentile ``q`` leaves ``n - ceil(q n)`` samples
    above it, so at least ``beyond`` remain above when
    ``q <= (n - beyond) / n``.  Returns ``want`` when that allows it,
    the largest allowed share below it otherwise, and ``1.0`` (the
    maximum) when the allowed share is below one half.
    """
    allowed = (n - beyond) / n if n else 0.0
    if allowed < 0.5:
        return 1.0
    return min(want, allowed)


def tail(values, want: float = 0.99, beyond: int = 10) -> tuple:
    """``(share, value, n)``: the rule's tail percentile of ``values``."""
    n = len(values)
    share = tail_quantile(n, want, beyond)
    return share, percentile(values, share), n


def quartile_spread(values) -> float:
    """Distance between the first and third quartile over the median,
    as :func:`statistics.quantiles` with ``n=4`` computes the quartiles."""
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
