"""The percentile and sample-count rule, in one place.

A timing is reported as its median plus the highest percentile that
still has at least :data:`MIN_BEYOND` samples beyond it, with the sample
count beside it: a p99 over 40 samples is one outlier's opinion, not a
percentile.  ``point_ms_p95`` is named in ``BENCHMARK.json``, so it is
held to the same rule by refusing to compute it below 200 samples.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10
#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9)


class TooFewSamples(ValueError):
    """A percentile was asked of a sample that cannot support it."""


def min_samples(p: float) -> int:
    """Fewest samples for which percentile ``p`` has MIN_BEYOND beyond it."""
    return int(round(MIN_BEYOND / (1.0 - p / 100.0)))


def percentile(samples: Sequence[float], p: float) -> float:
    """Percentile ``p`` (0..100) by linear interpolation between ranks."""
    if not samples:
        raise TooFewSamples("percentile of an empty sample")
    ordered = sorted(samples)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def guarded_percentile(samples: Sequence[float], p: float) -> float:
    """:func:`percentile`, refused when fewer than MIN_BEYOND samples
    would lie beyond it (p95 needs 200)."""
    need = min_samples(p)
    if len(samples) < need:
        raise TooFewSamples("p%g needs at least %d samples, got %d"
                            % (p, need, len(samples)))
    return percentile(samples, p)


def tail_percentile(n: int) -> Optional[float]:
    """The highest of TAIL_PERCENTILES that ``n`` samples support."""
    supported = [p for p in TAIL_PERCENTILES if n >= min_samples(p)]
    return supported[-1] if supported else None


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """``{"n", "p50", "tail": (p, value) | None}`` for one timing."""
    n = len(samples)
    tail: Optional[Tuple[float, float]] = None
    p = tail_percentile(n)
    if p is not None:
        tail = (p, percentile(samples, p))
    return {"n": n, "p50": statistics.median(samples) if n else None,
            "tail": tail}


def describe(name: str, unit: str, samples: Sequence[float]) -> str:
    """One printable line: median, supported tail, and n."""
    summary = summarize(samples)
    if not summary["n"]:
        return "%-14s n=0" % name
    text = "%-14s p50 %.4f %s" % (name, summary["p50"], unit)
    if summary["tail"] is not None:
        text += "  p%g %.4f %s" % (summary["tail"][0], summary["tail"][1],
                                   unit)
    return text + "  n=%d" % summary["n"]


def spread(values: Sequence[float]) -> Optional[float]:
    """Run-to-run spread: interquartile distance as a share of the
    median, quartiles as ``statistics.quantiles(values, n=4)`` gives
    them.  None when there are too few runs to have quartiles."""
    if len(values) < 4:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    if centre == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(centre)


def median_or_zero(samples: List[float]) -> float:
    return statistics.median(samples) if samples else 0.0
