"""Exact and Monte-Carlo throttled-bid computation (Section IV-A/B).

The throttled bid of advertiser ``i`` taking part in ``m_i`` auctions
this round, with remaining budget ``β_i`` and outstanding debt
``S = sum_j X_j`` (``X_j = π_j`` w.p. ``ctr_j`` else 0), is::

    b̂_i = E[ min(b_i, max(0, β_i - S) / m_i) ]
        = E[ min(m_i b_i, β_i - min(β_i, S)) ] / m_i

Exact computation goes through the distribution of ``min(β_i, S)``:

- **DP over currency units** -- convolve the ads one at a time over the
  value range ``0..β`` (everything at or above ``β`` collapses into one
  saturated bucket), ``O(l·β)`` time;
- **enumeration** -- sum over all ``2^l`` outcomes, preferable when the
  budget is large but few ads are outstanding.

:func:`exact_throttled_bid` picks whichever is cheaper, matching the
paper's ``O(min(2^l, β))`` bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import BudgetError

__all__ = [
    "ThrottleProblem",
    "exact_throttled_bid",
    "throttled_bid_via_dp",
    "throttled_bid_via_enumeration",
    "monte_carlo_throttled_bid",
    "min_beta_s_distribution",
]


@dataclass(frozen=True)
class ThrottleProblem:
    """Inputs to one throttled-bid computation.

    Attributes:
        bid_cents: The advertiser's stated per-click bid ``b_i``.
        budget_cents: Remaining budget ``β_i`` (budget minus settled
            charges; outstanding debts are *not* subtracted here -- they
            are what ``outstanding`` models).
        num_auctions: ``m_i`` -- auctions the advertiser takes part in
            this round.  Must be positive.
        outstanding: ``(π_j, ctr_j)`` pairs for the outstanding ads.
    """

    bid_cents: int
    budget_cents: int
    num_auctions: int
    outstanding: Tuple[Tuple[int, float], ...] = ()

    def __init__(
        self,
        bid_cents: int,
        budget_cents: int,
        num_auctions: int,
        outstanding: Sequence[Tuple[int, float]] = (),
    ) -> None:
        # Scalars first: a bad bid is reported before a bad pair.
        self._set(bid_cents, budget_cents, num_auctions, (), 0)
        cleaned: List[Tuple[int, float]] = []
        for price, ctr in outstanding:
            if price < 0:
                raise BudgetError(f"outstanding price must be >= 0, got {price}")
            if not 0.0 <= ctr <= 1.0:
                raise BudgetError(f"outstanding CTR must be in [0, 1], got {ctr}")
            if price > 0 and ctr > 0.0:
                cleaned.append((int(price), float(ctr)))
        object.__setattr__(self, "outstanding", tuple(cleaned))
        object.__setattr__(
            self, "_max_liability", sum(price for price, _ in cleaned)
        )

    @classmethod
    def from_cleaned(
        cls,
        bid_cents: int,
        budget_cents: int,
        num_auctions: int,
        outstanding: Tuple[Tuple[int, float], ...],
        max_liability: int,
    ) -> "ThrottleProblem":
        """Build from pairs that are already what ``__init__`` keeps.

        ``outstanding`` must be a tuple of ``(int price > 0, float ctr
        in (0, 1])`` pairs and ``max_liability`` their price total -- as
        :meth:`repro.budgets.outstanding.OutstandingBook.constant_debts`
        returns them, validated once when each ad was recorded and
        totalled as ads come and go.  The scalars are still checked.
        """
        problem = cls.__new__(cls)
        problem._set(
            bid_cents, budget_cents, num_auctions, outstanding, max_liability
        )
        return problem

    def _set(
        self,
        bid_cents: int,
        budget_cents: int,
        num_auctions: int,
        outstanding: Tuple[Tuple[int, float], ...],
        max_liability: int,
    ) -> None:
        if bid_cents < 0:
            raise BudgetError(f"bid must be non-negative, got {bid_cents}")
        if budget_cents < 0:
            raise BudgetError(f"budget must be non-negative, got {budget_cents}")
        if num_auctions <= 0:
            raise BudgetError(
                f"the advertiser must be in at least one auction, got "
                f"{num_auctions}"
            )
        object.__setattr__(self, "bid_cents", int(bid_cents))
        object.__setattr__(self, "budget_cents", int(budget_cents))
        object.__setattr__(self, "num_auctions", int(num_auctions))
        object.__setattr__(self, "outstanding", outstanding)
        object.__setattr__(self, "_max_liability", max_liability)

    @property
    def max_liability(self) -> int:
        """``ω_l`` -- sum of outstanding prices."""
        return self._max_liability

    @property
    def expected_liability(self) -> float:
        """``μ_l = E[S_l]``."""
        return sum(price * ctr for price, ctr in self.outstanding)

    def trivially_unthrottled(self) -> bool:
        """The paper's quick test: ``ω_l <= β - m·b`` implies ``b̂ = b``."""
        return (
            self.max_liability
            <= self.budget_cents - self.num_auctions * self.bid_cents
        )


def min_beta_s_distribution(problem: ThrottleProblem) -> Dict[int, float]:
    """Distribution of ``min(β, S)`` via DP over currency units.

    Returns a sparse mapping ``value -> probability``; all mass at or
    above ``β`` is collapsed into the ``β`` bucket, which is why the
    state space stays ``O(β)``.
    """
    beta = problem.budget_cents
    dist: Dict[int, float] = {0: 1.0}
    for price, ctr in problem.outstanding:
        nxt: Dict[int, float] = {}
        for value, probability in dist.items():
            hit = min(beta, value + price)
            nxt[hit] = nxt.get(hit, 0.0) + probability * ctr
            nxt[value] = nxt.get(value, 0.0) + probability * (1.0 - ctr)
        dist = nxt
    return dist


def _value_given_spent(problem: ThrottleProblem, spent: float) -> float:
    """``min(m·b, β - min(β, S)) / m`` for a realized ``S = spent``."""
    headroom = problem.budget_cents - min(problem.budget_cents, spent)
    capped = min(problem.num_auctions * problem.bid_cents, headroom)
    return capped / problem.num_auctions


def throttled_bid_via_dp(problem: ThrottleProblem) -> float:
    """Exact ``b̂`` using the currency-unit DP (``O(l·β)``)."""
    if problem.trivially_unthrottled():
        return float(problem.bid_cents)
    dist = min_beta_s_distribution(problem)
    return sum(
        probability * _value_given_spent(problem, value)
        for value, probability in dist.items()
    )


def throttled_bid_via_enumeration(problem: ThrottleProblem) -> float:
    """Exact ``b̂`` by enumerating all ``2^l`` click outcomes."""
    if problem.trivially_unthrottled():
        return float(problem.bid_cents)
    ads = problem.outstanding
    total = 0.0
    for mask in range(1 << len(ads)):
        probability = 1.0
        spent = 0
        for index, (price, ctr) in enumerate(ads):
            if mask >> index & 1:
                probability *= ctr
                spent += price
            else:
                probability *= 1.0 - ctr
        total += probability * _value_given_spent(problem, spent)
    return total


def exact_throttled_bid(problem: ThrottleProblem) -> float:
    """Exact ``b̂``, choosing the cheaper of DP and enumeration.

    The paper's ``O(min(2^l, β))``: enumeration wins for few outstanding
    ads with huge budgets; the DP wins otherwise.
    """
    ads = len(problem.outstanding)
    if ads <= 16 and (1 << ads) <= max(4, problem.budget_cents):
        return throttled_bid_via_enumeration(problem)
    return throttled_bid_via_dp(problem)


def monte_carlo_throttled_bid(
    problem: ThrottleProblem, samples: int, rng: random.Random
) -> float:
    """Monte-Carlo estimate of ``b̂`` (used by property tests as an oracle)."""
    if samples <= 0:
        raise BudgetError(f"samples must be positive, got {samples}")
    total = 0.0
    for _ in range(samples):
        spent = 0
        for price, ctr in problem.outstanding:
            if rng.random() < ctr:
                spent += price
        total += _value_given_spent(problem, spent)
    return total / samples
