"""The vectorized allocation pass and the bulk display recording.

* :func:`repro.engine.allocation.gsp_allocate` against the per-slot
  loop it replaced (``tests/engine/allocation_reference.py``): prices on
  the half-cent boundary, 1-ulp score ties, non-positive scores, zero
  and subnormal CTR factors, short rankings with no runner-up and
  per-auction CTR overrides must all give the same displays, prices and
  click probabilities, bit for bit.
* A display batch is validated as a whole before anything moves: a bad
  entry anywhere leaves the book, the handle counter, the click queue,
  the random source and the change feed as they were.
* The click model draws a batch in display order, exactly the draws a
  display-at-a-time loop makes.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.budgets.outstanding import GeometricDecay, NoDecay
from repro.core.ranked import RankedTable
from repro.core.topk import TopKList
from repro.engine.allocation import gsp_allocate
from repro.engine.budget_manager import BudgetManager
from repro.engine.click_model import ClickEvent, DelayedClickModel
from repro.errors import BudgetError, InvalidAuctionError
from tests.engine.allocation_reference import reference_allocate

IDS = st.integers(1, 12)
# Scores around the interesting points: zero, negatives, and values one
# ulp apart so ties and near-ties reach the runner-up price.
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, -1.0, 0.5, 1.0, 0.1 + 0.2, 0.3]),
    st.floats(-2.0, 10.0, allow_nan=False, allow_infinity=False),
).flatmap(
    lambda score: st.sampled_from(
        [
            score,
            math.nextafter(score, math.inf),
            math.nextafter(score, -math.inf),
        ]
    )
)
CTR_FACTORS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 0.25, 0.5, 1.0, 3.0]),
    st.floats(0.0, 2.0, allow_nan=False),
)
# Half-cent effective bids put the price exactly on the rounding
# boundary whenever the bid binds.
EFFECTIVE = st.one_of(
    st.sampled_from([0.0, 0.5, 1.5, 2.5, 3.5, 10.5, 1e6 + 0.5]),
    st.floats(0.0, 1e6, allow_nan=False),
    st.integers(0, 2000).map(lambda twice: twice / 2.0),
)


@st.composite
def rounds(draw):
    slots = draw(st.integers(1, 4))
    slot_factors = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=slots,
            max_size=slots,
        )
    )
    auctions = draw(st.integers(0, 6))
    rankings = []
    for _ in range(auctions):
        ids = draw(st.lists(IDS, unique=True, max_size=slots + 1))
        rankings.append(
            TopKList(slots + 1, [(draw(SCORES), i) for i in ids])
        )
    base = {i: draw(CTR_FACTORS) for i in range(1, 13)}
    overrides = draw(
        st.dictionaries(
            st.tuples(st.integers(0, max(auctions - 1, 0)), IDS), CTR_FACTORS
        )
    )
    effective = {i: draw(EFFECTIVE) for i in range(1, 13)}
    return slot_factors, rankings, base, overrides, effective


def vectorized(slot_factors, rankings, base, overrides, effective):
    table = RankedTable.from_lists(len(slot_factors) + 1, rankings)

    def inputs(owner, ids):
        pairs = list(zip(owner.tolist(), ids.tolist()))
        return (
            np.array(
                [overrides.get(pair, base[pair[1]]) for pair in pairs],
                dtype=np.float64,
            ),
            np.array([effective[i] for _, i in pairs], dtype=np.float64),
        )

    displays = gsp_allocate(table, slot_factors, inputs)
    return list(
        zip(
            displays.owner.tolist(),
            displays.slot.tolist(),
            displays.ids.tolist(),
            displays.prices.tolist(),
            displays.ctrs.tolist(),
        )
    )


@settings(max_examples=400, deadline=None)
@given(rounds())
def test_gsp_allocate_matches_the_per_slot_loop(case):
    slot_factors, rankings, base, overrides, effective = case
    try:
        expected = reference_allocate(
            rankings,
            slot_factors,
            lambda auction, i: overrides.get((auction, i), base[i]),
            effective.__getitem__,
        )
    except OverflowError:
        # A negative runner-up score over a subnormal CTR factor prices
        # at -inf, which the loop could not round (engine scores are
        # never negative); test_minus_infinite_price_shows_no_ad pins
        # what the vectorized pass does instead.
        assume(False)
    got = vectorized(*case)
    assert got == expected
    # Equal floats could still differ in sign or type; compare exactly.
    assert [(type(p), math.copysign(1.0, c)) for *_, p, c in got] == [
        (int, math.copysign(1.0, c)) for *_, p, c in expected
    ]


def test_minus_infinite_price_shows_no_ad():
    ranking = TopKList(2, [(1.0, 1), (-1.0, 2)])
    factors, effective = {1: 5e-324, 2: 1.0}, {1: 90.0, 2: 1.0}
    assert vectorized([0.5], [ranking], factors, {}, effective) == []


def test_half_cent_prices_round_half_to_even():
    ranking = TopKList(3, [(4.0, 1), (3.0, 2)])
    cases = {0.5: 0, 1.5: 2, 2.5: 2, 3.5: 4}
    for effective, price in cases.items():
        got = vectorized(
            [0.5, 0.25], [ranking], {1: 1.0, 2: 1.0}, {},
            {1: effective, 2: effective},
        )
        assert [display[3] for display in got] == (
            [price] if price else []
        ), effective


def test_no_runner_up_prices_the_last_slot_at_zero():
    ranking = TopKList(3, [(4.0, 1)])
    assert vectorized([0.5, 0.25], [ranking], {1: 1.0}, {}, {1: 90.0}) == []


# ---------------------------------------------------------------------
# validate-then-mutate
# ---------------------------------------------------------------------
class RecordingFeed:
    active = True

    def __init__(self) -> None:
        self.events = []

    def publish(self, event) -> None:
        self.events.append(event)


def _book_state(manager):
    book = manager._book
    return (
        book._next_handle,
        {a: dict(t) for a, t in book._tables.items()},
        dict(book._shown),
        {due: list(bucket) for due, bucket in book._buckets.items()},
        sorted(book._deadlines),
        dict(book._liability),
        dict(book._inert),
    )


def _click_state(model):
    return (
        model.pending_count,
        {due: list(bucket) for due, bucket in model._due.items()},
        sorted(model._rounds),
        model._rng.getstate(),
    )


BAD_ENTRIES = [
    ("price", -1), ("price", 2.5), ("ctr", float("nan")), ("ctr", 1.5),
]


@pytest.mark.parametrize("decay", [NoDecay(), GeometricDecay(0.5, 6)])
@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("field,value", BAD_ENTRIES)
def test_bad_display_batch_leaves_no_trace(decay, position, field, value):
    feed = RecordingFeed()
    manager = BudgetManager({1: 500}, decay, changefeed=feed)
    model = DelayedClickModel(1.0, 8, random.Random(3))
    manager.record_display([1, 2], [40, 50], [0.5, 0.2], 0)
    model.record_display([1, 2], ["p", "q"], [40, 50], [0.9, 0.9], 0, [0, 1])
    ids = [1, 2, 3, 1, 2]
    prices = [30, 20, 10, 5, 1]
    ctrs = [0.3, 0.2, 0.1, 0.05, 0.01]
    if field == "price":
        prices[position] = value
    else:
        ctrs[position] = value
    book, clicks = _book_state(manager), _click_state(model)
    events = list(feed.events)
    with pytest.raises(BudgetError):
        manager.record_display(ids, prices, ctrs, 1)
    with pytest.raises(InvalidAuctionError):
        model.record_display(ids, ["p"] * 5, prices, ctrs, 1, range(2, 7))
    assert _book_state(manager) == book
    assert _click_state(model) == clicks
    assert feed.events == events
    manager.check_invariants()


def test_mismatched_batch_lengths_are_rejected():
    manager = BudgetManager({})
    with pytest.raises(BudgetError):
        manager.record_display([1, 2], [10], [0.5, 0.5], 0)
    model = DelayedClickModel(1.0, 8, random.Random(0))
    with pytest.raises(InvalidAuctionError):
        model.record_display([1, 2], ["p"], [10, 10], [0.5, 0.5], 0)
    assert manager.outstanding_counts() == {} and model.pending_count == 0


def test_batch_handles_are_contiguous_and_name_their_ads():
    manager = BudgetManager({}, NoDecay(horizon=5))
    first = manager.record_display([4, 7], [10, 20], [0.5, 0.0], 0)
    second = manager.record_display(np.array([4]), np.array([30]), np.array([0.25]), 1)
    assert first == range(0, 2) and second == range(2, 3)
    problem = manager.throttle_problem(4, 100, 1, 1)
    assert problem.outstanding == ((10, 0.5), (30, 0.25))
    assert type(problem.outstanding[1][0]) is int
    assert manager.outstanding_counts() == {4: 2, 7: 1}
    manager.check_invariants()


# ---------------------------------------------------------------------
# draw order
# ---------------------------------------------------------------------
def _one_display_at_a_time(rng, mean, horizon, displays):
    """The pre-batch draw sequence: one display, one Bernoulli draw, and
    a geometric delay draw loop for a click."""
    clicks = []
    for advertiser_id, phrase, price, ctr, shown, handle in displays:
        if rng.random() >= ctr:
            continue
        delay = 1
        if mean != 0.0:
            p = 1.0 / (1.0 + mean)
            while rng.random() > p:
                delay += 1
                if delay > horizon:
                    break
        if delay > horizon:
            continue
        clicks.append(
            ClickEvent(advertiser_id, phrase, price, shown, shown + delay, handle)
        )
    return sorted(clicks, key=lambda c: (c.arrival_round, c.advertiser_id))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mean=st.sampled_from([0.0, 0.5, 2.0, 6.0]),
    horizon=st.integers(1, 6),
    ctrs=st.lists(
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        min_size=1,
        max_size=40,
    ),
)
def test_batch_click_draws_equal_per_display_draws(seed, mean, horizon, ctrs):
    displays = [
        (i % 5, f"p{i % 3}", 10 + i, ctr, 7, 100 + i)
        for i, ctr in enumerate(ctrs)
    ]
    reference_rng = random.Random(seed)
    expected = _one_display_at_a_time(reference_rng, mean, horizon, displays)
    model = DelayedClickModel(mean, horizon, random.Random(seed))
    ids, phrases, prices, rates, _, handles = zip(*displays)
    scheduled = model.record_display(
        np.array(ids), list(phrases), np.array(prices), np.array(rates), 7, handles
    )
    assert scheduled == len(expected) == model.pending_count
    assert model._rng.getstate() == reference_rng.getstate()
    assert model.flush() == expected


def test_arrivals_are_ordered_by_round_then_advertiser_then_schedule():
    model = DelayedClickModel(0.0, 4, random.Random(0))
    model.record_display([5, 3, 5], ["a", "b", "c"], [1, 2, 3], [1.0, 1.0, 1.0], 2)
    model.record_display([4], ["d"], [4], [1.0], 0)
    # A jump past every bucket delivers all of them, in order.
    clicks = model.arrivals(10**9)
    assert [(c.arrival_round, c.advertiser_id, c.phrase) for c in clicks] == [
        (1, 4, "d"), (3, 3, "b"), (3, 5, "a"), (3, 5, "c"),
    ]
    assert model.pending_count == 0 and model.arrivals(10**9 + 1) == []


def test_price_beyond_int64_is_an_error_not_a_wrapped_integer():
    # The per-slot loop rounded to an unbounded Python int; int64 cents
    # would wrap silently.
    ranking = TopKList(3, [(4e30, 1), (3e30, 2)])
    with pytest.raises(InvalidAuctionError, match="int64"):
        vectorized([0.5, 0.25], [ranking], {1: 1.0, 2: 1.0}, {}, {1: 1e30, 2: 1e30})
