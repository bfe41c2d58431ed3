"""Order statistics used to summarise repeated samples.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the default
"exclusive" method), the rule used to judge run-to-run spread, so printed
quartiles match ones recomputed from the stored samples.
"""

import statistics
from typing import NamedTuple


class Summary(NamedTuple):
    """Median with first and third quartile, and the mean, of ``n`` samples."""

    median: float
    q1: float
    q3: float
    n: int
    mean: float


def summarize(values) -> Summary:
    """Median, quartiles and mean of a non-empty sample; one sample is its
    own quartiles."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("need at least one sample")
    mean = statistics.fmean(vals)
    if len(vals) == 1:
        return Summary(vals[0], vals[0], vals[0], 1, mean)
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return Summary(med, q1, q3, len(vals), mean)


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    s = summarize(values)
    return (s.q3 - s.q1) / s.median
