"""Summary statistics and result digests shared by runs and ``compare``."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import List, Mapping, Sequence


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (``statistics.quantiles`` exclusive rule).

    The median of one value is that value; other percentiles need two.
    """
    if not values:
        raise ValueError("percentile of no values")
    if pct == 50 or len(values) == 1:
        return statistics.median(values)
    cuts = statistics.quantiles(values, n=100)
    return cuts[int(round(pct)) - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    """First quartile, median and third quartile."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else math.inf


def result_digest(result: Mapping) -> str:
    """sha256 of a ``GET /sessions/{id}/result`` payload's outcome.

    Covers the validated claim ids in validation order and the final
    weights, and nothing timed: trace records and stream updates carry
    wall-clock fields, so they are left out.
    """
    outcome = {
        "validated_claim_ids": list(result["validated_claim_ids"]),
        "weights": result["weights"],
    }
    return hashlib.sha256(
        json.dumps(outcome, sort_keys=True).encode("utf-8")
    ).hexdigest()


def digest_mismatches(
    expected: Sequence[str], observed: Sequence[str]
) -> List[int]:
    """Session indices whose digest differs from the expected one."""
    if len(expected) != len(observed):
        return list(range(max(len(expected), len(observed))))
    return [i for i, (e, o) in enumerate(zip(expected, observed)) if e != o]

