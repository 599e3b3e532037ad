"""Order statistics, the percentile rule and operation counting.

Timings are summarized as a median with quartiles and the sample count.  A
higher percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it; with fewer, the tail is a handful of samples and says nothing
about the distribution.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    v = sorted(float(x) for x in values)
    if not v:
        raise ValueError("need at least one sample")
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else math.inf


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - math.ceil(n * p / 100.0)


def percentile(values, p: float) -> float | None:
    """Nearest-rank p-th percentile, or None when fewer than MIN_BEYOND lie beyond it."""
    v = sorted(float(x) for x in values)
    if not v or samples_beyond(len(v), p) < MIN_BEYOND:
        return None
    return v[max(1, math.ceil(len(v) * p / 100.0)) - 1]


def describe(values) -> dict:
    """Median, quartiles, count and the highest supported tail percentile."""
    q1, med, q3 = quartiles(values)
    doc = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
    for p in (99.9, 99.0, 95.0, 90.0):
        value = percentile(values, p)
        if value is not None:
            doc[f"p{p:g}"] = value
            break
    return doc


class Ledger:
    """Counts operations attempted and failed.

    An operation is one command the benchmark runs or one correctness check
    it makes; ``check`` records either and keeps a message for each failure.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
