"""Summary statistics shared by the runner and the spread check.

Every summary carries its sample count ``n``.  The tail percentile is
the highest one that still has at least ten samples beyond it, so a
reported tail is never a single outlier.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with >= 10 of ``n`` samples beyond it,
    or 0.0 when there are too few samples for any."""
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return 0.0


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and tail percentile, with the sample count."""
    xs = [float(v) for v in values]
    if not xs:
        raise ValueError("summary of no samples")
    out = {"n": len(xs), "median": statistics.median(xs)}
    if len(xs) >= 2:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        out.update(q1=q1, q3=q3)
    tail = tail_percentile(len(xs))
    if tail:
        out["tail_q"] = tail
        out["tail"] = percentile(xs, tail)
    return out


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, med, q3 = statistics.quantiles([float(v) for v in values], n=4)
    return (q3 - q1) / abs(med)
