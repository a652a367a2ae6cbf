"""Property and model-based tests for the incremental throttle layer.

Two lockdowns:

- *Bound soundness at every depth*: the running intersection a
  :class:`repro.budgets.comparison.BoundedBid` maintains is monotone
  tightening by construction, and the exact ``b̂`` stays inside it at
  every refinement depth.  This is the property that makes bound-driven
  selection decisions sound: a separation observed at any depth is a
  separation of the exact values.

- *Cache coherence under arbitrary traffic*: a hypothesis state machine
  drives random display/settle/expiry/round traffic through a
  :class:`repro.engine.budget_manager.BudgetManager` publishing to the
  change feed, and after every step the cached ``b̂`` must equal a
  freshly computed one -- the same float, under a *varying* decay model
  (the hardest scoping case) and with ``verify=True`` so any undeclared
  movement raises instead of silently serving stale bids.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.budgets.comparison import BoundedBid
from repro.budgets.incremental import IncrementalThrottleCache
from repro.budgets.outstanding import GeometricDecay
from repro.budgets.throttle import ThrottleProblem, exact_throttled_bid
from repro.engine.budget_manager import BudgetManager
from repro.engine.changefeed import ChangeFeed
from tests.conftest import throttle_ads


class TestBoundedRefinementSoundness:
    @given(
        ads=throttle_ads(),
        bid=st.integers(min_value=0, max_value=150),
        budget=st.integers(min_value=0, max_value=400),
        auctions=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_intersection_tightens_and_contains_exact_at_every_depth(
        self, ads, bid, budget, auctions
    ):
        problem = ThrottleProblem(
            bid_cents=min(bid, budget),
            budget_cents=budget,
            num_auctions=auctions,
            outstanding=ads,
        )
        exact = exact_throttled_bid(problem)
        bounded = BoundedBid(0, problem)
        previous = bounded.bounds
        assert exact in previous
        while bounded.refine():
            current = bounded.bounds
            # The running intersection can only shrink -- exactly, not
            # merely up to tolerance: lo is a max, hi is a min.
            assert current.lo >= previous.lo
            assert current.hi <= previous.hi
            assert exact in current
            previous = current
        # Full expansion pins the value.
        assert bounded.exact
        assert abs(bounded.bounds.midpoint - exact) <= 1e-6

    @given(
        ads=throttle_ads(),
        bid=st.integers(min_value=1, max_value=150),
        budget=st.integers(min_value=1, max_value=400),
        auctions=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_collapse_adopts_the_exact_value(self, ads, bid, budget, auctions):
        problem = ThrottleProblem(
            bid_cents=min(bid, budget),
            budget_cents=budget,
            num_auctions=auctions,
            outstanding=ads,
        )
        exact = exact_throttled_bid(problem)
        bounded = BoundedBid(0, problem)
        bounded.collapse(exact)
        assert bounded.exact
        assert bounded.bounds.lo == exact
        assert bounded.bounds.hi == exact


class CachedThrottleMachine(RuleBasedStateMachine):
    """Random book traffic; the cached b̂ must always equal a fresh one.

    The machine runs the hardest configuration on purpose: a varying
    decay model (entries are only valid within their build round) and
    ``verify=True`` (every reuse cross-checks the rebuilt problem, so an
    event the budget manager failed to publish becomes a hard error
    rather than a silently stale bid).
    """

    ADVERTISERS = (1, 2)
    BID_CENTS = 100
    NUM_AUCTIONS = 2

    def __init__(self) -> None:
        super().__init__()
        self.feed = ChangeFeed()
        self.manager = BudgetManager(
            {1: 500, 2: 350},
            decay=GeometricDecay(ratio=0.7, horizon=8),
            changefeed=self.feed,
        )
        self.cache = IncrementalThrottleCache(self.manager, verify=True)
        self.cache.connect(self.feed)
        self.round_index = 0
        self.live_handles: list[tuple[int, int, int, int]] = []

    @rule(
        advertiser=st.sampled_from(ADVERTISERS),
        price=st.integers(min_value=1, max_value=120),
        ctr=st.floats(min_value=0.05, max_value=0.95),
    )
    def display(self, advertiser: int, price: int, ctr: float) -> None:
        (handle,) = self.manager.record_display(
            [advertiser], [price], [ctr], self.round_index
        )
        self.live_handles.append((advertiser, price, self.round_index, handle))

    @rule(data=st.data())
    def settle(self, data) -> None:
        if not self.live_handles:
            return
        index = data.draw(
            st.integers(min_value=0, max_value=len(self.live_handles) - 1)
        )
        advertiser, price, shown_round, handle = self.live_handles.pop(index)
        self.manager.settle_click(advertiser, price, shown_round, handle=handle)

    @rule()
    def advance_round(self) -> None:
        # Mirrors the engine's stage 1: expiry runs before any scoring
        # in the new round, publishing for every pruned advertiser.
        self.round_index += 1
        self.manager.expire_outstanding(self.round_index)

    @invariant()
    def cached_bid_equals_fresh_bid(self) -> None:
        for advertiser in self.ADVERTISERS:
            cached = self.cache.exact_bid(
                advertiser, self.BID_CENTS, self.NUM_AUCTIONS, self.round_index
            )
            fresh = exact_throttled_bid(
                self.manager.throttle_problem(
                    advertiser,
                    self.BID_CENTS,
                    self.NUM_AUCTIONS,
                    self.round_index,
                )
            )
            assert cached == fresh


CachedThrottleMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
TestCachedThrottleMachine = CachedThrottleMachine.TestCase
