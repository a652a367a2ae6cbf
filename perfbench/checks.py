"""Outcome records, invariants and the comparison with the oracle.

An operation is one batch round or one served query.  Its outcome is a
plain tuple -- allocations, prices, revenue, forgiven amount, clicks and
displays -- so two runs compare with ``==``.  An operation *fails* when
it raised, when its outcome breaks an auction invariant, or when it
differs from the oracle's outcome for the same operation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

Allocation = Tuple[Tuple[int, int, int], ...]
"""``(slot, advertiser_id, price_cents)`` triples in slot order."""

Outcome = Tuple[
    Tuple[Tuple[str, Allocation], ...],  # (phrase, allocation), sorted
    int,  # revenue_cents
    int,  # forgiven_cents
    int,  # clicks
    int,  # displays
]


def round_outcome(report) -> Outcome:
    """The outcome of a :class:`repro.engine.pipeline.RoundReport`."""
    return (
        tuple(sorted(report.allocations.items())),
        report.revenue_cents,
        report.forgiven_cents,
        report.clicks,
        report.displays,
    )


def query_outcome(report) -> Outcome:
    """The outcome of a :class:`repro.serving.QueryReport`."""
    return (
        ((report.phrase, report.allocation),),
        report.revenue_cents,
        report.forgiven_cents,
        report.clicks,
        report.displays,
    )


def invariant_violations(outcome: Outcome, market, slots: int) -> List[str]:
    """Auction invariants one operation's outcome must satisfy.

    At most ``slots`` ads per phrase on distinct slots, distinct winners
    that really bid on the phrase, and ``0 < price <= bid``.
    """
    problems: List[str] = []
    for phrase, allocation in outcome[0]:
        if len(allocation) > slots:
            problems.append(f"{phrase}: {len(allocation)} ads > {slots} slots")
        if len({slot for slot, _, _ in allocation}) != len(allocation):
            problems.append(f"{phrase}: repeated slot")
        winners = [advertiser for _, advertiser, _ in allocation]
        if len(set(winners)) != len(winners):
            problems.append(f"{phrase}: repeated winner")
        for slot, advertiser, price in allocation:
            if not 0 <= slot < slots:
                problems.append(f"{phrase}: slot {slot} out of range")
            if phrase not in market.phrases.get(advertiser, ()):
                problems.append(
                    f"{phrase}: winner {advertiser} does not bid on it"
                )
            elif not 0 < price <= market.bid_cents[advertiser]:
                problems.append(
                    f"{phrase}: price {price} outside (0, "
                    f"{market.bid_cents[advertiser]}] for {advertiser}"
                )
    return problems


def overspent(spent: Dict[int, int], market) -> List[str]:
    """Advertisers whose settled spend exceeds their daily budget.

    Spend only grows, so checking the books once at the end of a run
    proves the invariant held after every operation.
    """
    return [
        f"advertiser {advertiser} spent {amount} > budget "
        f"{market.budget_cents[advertiser]}"
        for advertiser, amount in sorted(spent.items())
        if advertiser in market.budget_cents
        and amount > market.budget_cents[advertiser]
    ]


def failed_operations(
    outcomes: Sequence[Optional[Outcome]],
    reference: Sequence[Optional[Outcome]],
    market,
    slots: int,
) -> Tuple[List[int], List[str]]:
    """Indices of failed operations and a message for each.

    ``None`` marks an operation that raised.  The reference must cover
    exactly the same operations.
    """
    if len(outcomes) != len(reference):
        raise ValueError(
            f"{len(outcomes)} outcomes against {len(reference)} references"
        )
    failed: List[int] = []
    messages: List[str] = []
    for index, (outcome, expected) in enumerate(zip(outcomes, reference)):
        if outcome is None:
            problems = ["raised"]
        else:
            problems = invariant_violations(outcome, market, slots)
            if outcome != expected:
                problems.append("differs from the oracle")
        if problems:
            failed.append(index)
            messages.append(f"operation {index}: " + "; ".join(problems))
    return failed, messages
