"""Seeded distribution helpers for workload generation.

Search-phrase popularity follows a heavy-tailed (Zipf-like) law; bids and
budgets are positively skewed.  Everything takes an explicit random
source so workloads are reproducible.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import List, Sequence

from repro.errors import WorkloadError

__all__ = [
    "zipf_weights",
    "zipf_search_rates",
    "lognormal_cents",
    "sample_subset",
    "cumulative_weights",
    "sample_rank",
    "exponential_interarrival",
]


def zipf_weights(n: int, exponent: float = 1.0) -> List[float]:
    """Normalized Zipf weights ``w_r ∝ 1 / r^exponent`` for ranks 1..n."""
    if n <= 0:
        raise WorkloadError(f"need a positive count, got {n}")
    if not (math.isfinite(exponent) and exponent >= 0.0):
        raise WorkloadError(
            f"Zipf exponent must be finite and >= 0, got {exponent}"
        )
    raw = [1.0 / (rank**exponent) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def zipf_search_rates(
    n: int, exponent: float = 1.0, top_rate: float = 0.9
) -> List[float]:
    """Per-phrase search rates decaying Zipf-style from ``top_rate``.

    Unlike :func:`zipf_weights` these are independent Bernoulli
    probabilities, not a distribution: the most popular phrase occurs in
    a round with probability ``top_rate`` and rank ``r`` with probability
    ``top_rate / r^exponent``.
    """
    if not 0.0 < top_rate <= 1.0:
        raise WorkloadError(f"top rate must be in (0, 1], got {top_rate}")
    weights = zipf_weights(n, exponent)
    scale = top_rate / weights[0]
    return [min(1.0, w * scale) for w in weights]


def lognormal_cents(
    rng: random.Random, median_cents: int, sigma: float = 0.6
) -> int:
    """A log-normally distributed amount of money, at least one cent."""
    if median_cents <= 0:
        raise WorkloadError(f"median must be positive, got {median_cents}")
    if sigma < 0.0:
        raise WorkloadError(f"sigma must be >= 0, got {sigma}")
    value = median_cents * math.exp(rng.gauss(0.0, sigma))
    return max(1, int(round(value)))


def sample_subset(
    rng: random.Random, items: Sequence, probability: float
) -> List:
    """Independent Bernoulli subsample of ``items``."""
    if not 0.0 <= probability <= 1.0:
        raise WorkloadError(f"probability must be in [0, 1], got {probability}")
    return [item for item in items if rng.random() < probability]


def cumulative_weights(weights: Sequence[float]) -> List[float]:
    """Running totals of non-negative ``weights`` for categorical draws.

    The returned list is strictly increasing up to the total; pair with
    :func:`sample_rank` for an O(log n) seeded categorical sample.
    """
    if not weights:
        raise WorkloadError("need at least one weight")
    total = 0.0
    cumulative: List[float] = []
    for weight in weights:
        if weight < 0.0:
            raise WorkloadError(f"weights must be >= 0, got {weight}")
        total += weight
        cumulative.append(total)
    if total <= 0.0:
        raise WorkloadError("weights must sum to a positive total")
    return cumulative


def sample_rank(rng: random.Random, cumulative: Sequence[float]) -> int:
    """One categorical draw over :func:`cumulative_weights` output.

    Returns the 0-based rank; draws are uniform in ``[0, total)`` so a
    zero-weight rank is never selected.
    """
    return min(
        bisect_right(cumulative, rng.random() * cumulative[-1]),
        len(cumulative) - 1,
    )


def exponential_interarrival(rng: random.Random, rate: float) -> float:
    """One Poisson-process inter-arrival gap (seconds) at ``rate`` per second.

    Inverse-CDF sampling (``-ln(1-u)/rate``) rather than
    ``rng.expovariate`` so the draw consumes exactly one ``random()``
    call -- keeping traffic traces draw-for-draw reproducible even if
    the stdlib's internal sampling changes across versions.
    """
    if not (math.isfinite(rate) and rate > 0.0):
        raise WorkloadError(
            f"arrival rate must be finite and positive, got {rate}"
        )
    return -math.log(1.0 - rng.random()) / rate
