"""The end-to-end shared winner-determination engine.

:class:`SharedAuctionEngine` is the full pipeline of the paper: phrases
are batched into rounds; per round, advertiser scores ``b̂_i * c_i`` are
formed (with Section IV throttling against outstanding ads), the
occurring phrases' top-(k+1) rankings are computed through a shared
aggregation plan built offline by the Section II heuristic (or by
independent per-phrase scans, for the unshared baseline), slots are
allocated, clicks are priced with a configurable rule, displayed ads
become outstanding debt, and simulated clicks arrive with delay and are
settled against budgets.

The engine asks the plan for *k + 1* entries so generalized second
pricing can see the runner-up score without a second pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.budgets.incremental import IncrementalThrottleCache
from repro.budgets.outstanding import ClickDecayModel, NoDecay
from repro.budgets.throttle import exact_throttled_bid
from repro.core.advertiser import Advertiser
from repro.core.columnar import (
    ArrayScoreMap,
    ColumnarStore,
    columnar_top_k,
    require_numpy,
)
from repro.core.ctr import SeparableCTRModel
from repro.core.money import dollars_to_cents
from repro.core.topk import ScoredAdvertiser, TopKList, top_k_scan
from repro.engine.autotune import CacheAutotuner
from repro.engine.budget_manager import BudgetManager
from repro.engine.changefeed import BidChanged, ChangeFeed, RoundClosed
from repro.engine.click_model import DelayedClickModel
from repro.errors import InvalidAuctionError
from repro.instrument import NULL, Collector, names as metric_names
from repro.plans.executor import CrossRoundPlanExecutor, PlanExecutor
from repro.plans.greedy_planner import greedy_shared_plan
from repro.plans.instance import AggregateQuery, SharedAggregationInstance

try:  # pragma: no cover - numpy ships with the package
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["SharedAuctionEngine", "EngineReport", "RoundReport"]


@dataclass
class RoundReport:
    """Work and money counters for one round.

    Attributes:
        round_index: The round number.
        occurring_phrases: Phrases auctioned this round.
        merges: Top-k merge operations performed (shared mode).
        scans: Advertiser entries scanned (leaf reads in shared mode;
            full per-phrase scans in unshared mode).
        revenue_cents: Click payments settled this round.
        forgiven_cents: Click value forgiven this round.
        displays: Ads displayed this round.
        clicks: Clicks that arrived this round.
        allocations: Per occurring phrase, the displayed ads as
            ``(slot, advertiser_id, price_cents)`` triples in slot
            order -- the round's full auction outcome, used by the
            differential tests to assert shared and unshared modes agree
            winner by winner.
        counters: When the engine runs with an enabled collector, the
            collector's counter increments attributable to this round
            (zero deltas omitted); ``None`` otherwise.
    """

    round_index: int
    occurring_phrases: Tuple[str, ...]
    merges: int = 0
    scans: int = 0
    revenue_cents: int = 0
    forgiven_cents: int = 0
    displays: int = 0
    clicks: int = 0
    allocations: Dict[str, Tuple[Tuple[int, int, int], ...]] = field(
        default_factory=dict
    )
    counters: Optional[Dict[str, int]] = None


@dataclass
class EngineReport:
    """Aggregate counters over a whole run.

    Attributes:
        counters: Cumulative counter increments across all absorbed
            rounds when the engine ran with an enabled collector,
            ``None`` otherwise.
    """

    rounds: int = 0
    auctions: int = 0
    merges: int = 0
    scans: int = 0
    revenue_cents: int = 0
    forgiven_cents: int = 0
    displays: int = 0
    clicks: int = 0
    history: List[RoundReport] = field(default_factory=list)
    counters: Optional[Dict[str, int]] = None

    def absorb(self, report: RoundReport) -> None:
        """Fold one round's counters into the totals."""
        self.rounds += 1
        self.auctions += len(report.occurring_phrases)
        self.merges += report.merges
        self.scans += report.scans
        self.revenue_cents += report.revenue_cents
        self.forgiven_cents += report.forgiven_cents
        self.displays += report.displays
        self.clicks += report.clicks
        if report.counters is not None:
            if self.counters is None:
                self.counters = {}
            for name, value in report.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
        self.history.append(report)


class SharedAuctionEngine:
    """Round-based sponsored-search engine with shared winner determination.

    Args:
        advertisers: The advertiser population; phrase interests and CTR
            factors are read from each advertiser.
        slot_factors: The separable slot factors ``d_j`` (non-increasing);
            their count is the number of slots ``k``.
        search_rates: ``{phrase: sr_q}`` for every phrase that can occur.
            Phrases mentioned by advertisers but absent here default to
            rate 1.0.
        mode: ``"shared"`` resolves rounds through a greedy shared
            aggregation plan (Section II; requires phrase-independent
            CTR factors); ``"shared-sort"`` runs the Section III
            pipeline -- shared on-demand merge-sort of bids plus the
            threshold algorithm per phrase -- honoring per-phrase CTR
            factors (:attr:`Advertiser.phrase_ctr_factors`);
            ``"unshared"`` scans each phrase's advertisers independently.
        layout: ``"object"`` (default) runs the per-advertiser Python
            hot paths; ``"columnar"`` transposes the population into a
            :class:`repro.core.columnar.ColumnarStore` and swaps the
            three hottest kernels for vectorized equivalents --
            effective scoring over occurring rows, per-phrase top-k via
            ``np.argpartition``
            (:func:`repro.core.columnar.columnar_top_k`), and
            shared-sort TA over presorted column indices
            (:class:`repro.sharedsort.columnar.ColumnarThresholdKernel`).
            Outcomes are byte-identical between layouts (the layout
            differential suite asserts it over 50 seeds); only the work
            counters move, exactly as between the cached and uncached
            engines.  Composes with every mode and with the cross-round
            caches, which run columnar-native: ``exec_cache`` keeps
            fragment top-k lists alive across rounds with dirty-row
            mask invalidation
            (:class:`repro.plans.columnar_exec.ColumnarFragmentExecutor`
            in cross-round mode) and ``sort_cache`` incrementally
            repairs the shared descending-bid order
            (:class:`repro.sharedsort.columnar.ColumnarSortCache`).
            ``throttle_mode="bounded"`` stays object-only -- its
            interval refinement is inherently per-advertiser.  Requires
            numpy.
        throttle: Apply Section IV bid throttling against outstanding ads.
        throttle_mode: How throttled bids reach the ranking stage.
            ``"exact"`` (default) computes every occurring advertiser's
            exact ``b̂`` up front (optionally memoized; see
            ``throttle_cache``).  ``"bounded"`` is the paper's Section
            IV-B regime: rank each phrase directly on lazily refined
            Hoeffding intervals, expanding an advertiser's largest
            outstanding ads only when two contenders are genuinely
            incomparable, and fall back to the exact DP only for the
            selected ``k + 1`` (pricing needs their precise values).
            Outcomes are bit-identical to ``"exact"``; only the work
            counters move.  Requires ``throttle=True`` and runs its own
            per-phrase selection, so it cannot combine with
            ``exec_cache`` / ``sort_cache``.
        throttle_cache: Memoize throttle problems and values across
            rounds in an
            :class:`repro.budgets.incremental.IncrementalThrottleCache`
            driven by the change feed: advertisers whose books did not
            move since they were last scored reuse their previous ``b̂``
            in O(1).  Composes with either ``throttle_mode`` and with
            the plan/sort caches.  Under ``cache_verify=True`` every
            reuse is cross-checked against a freshly built problem.
        exec_cache: Shared mode only: resolve rounds through a
            :class:`repro.plans.executor.CrossRoundPlanExecutor`, which
            keeps materialized top-k nodes alive between rounds and
            recomputes only the ancestor cone of advertisers whose
            effective score changed.  The dirty set flows over the
            engine's :class:`repro.engine.changefeed.ChangeFeed`: the
            budget manager publishes ``BudgetChanged`` as books move
            (clicks settled, ads displayed, outstanding expiries), the
            engine publishes ``BidChanged`` for auction-multiplicity
            changes and (under a decaying model) outstanding debt aging,
            and the executor drains its subscription each round.  Under
            ``cache_verify=True`` the executor still cross-checks the
            events against an exact score diff and raises on any
            undeclared change.  Outcomes are bit-identical with and
            without the cache; only the work counters move.
        exec_cache_capacity: Optional bound on resident cached nodes
            (LRU eviction); ``None`` keeps every node.
        planner: Stage-2 engine for the shared plan's greedy completion:
            ``"lazy"`` (default, CELF-style incremental rescoring) or
            ``"naive"`` (full rescan each step).  Both build identical
            plans; only planning-time work counters differ.
        sort_planner: Shared-sort mode's analogue of ``planner``: the
            engine completing the Section III merge-plan construction,
            ``"lazy"`` (default, versioned pair heap) or ``"naive"``
            (full same-size rescan each merge).  Both build
            byte-identical plans; only builder work counters differ.
        sort_cache: Shared-sort mode only: keep the round's merge-sort
            streams alive in a
            :class:`repro.sharedsort.cache.CrossRoundSortCache` and
            rebuild, next round, only the streams above advertisers
            whose effective bid actually changed.  The cache consumes
            the same change-feed events as the exec cache and refines
            them by its own value domain -- a declared advertiser counts
            as dirty only if its *bid* really moved -- with the exact
            bid diff kept as the ``cache_verify`` soundness cross-check.
            Outcomes are bit-identical with and without the cache;
            reused streams replay their output caches, so
            ``sort.operator_pulls`` / ``sort.leaf_reads`` drop while
            ``sort.streams_reused`` counts the savings.
        cache_verify: Keep the caches' exact value diff as a soundness
            cross-check on the change-feed events (the default).  An
            event-uncovered change then raises
            ``InvalidPlanError``; ``False`` trusts the feed and skips
            comparing undeclared values.
        cache_autotune: Attach a
            :class:`repro.engine.autotune.CacheAutotuner` to the active
            cross-round cache: rounds run fresh while the windowed dirty
            fraction makes caching a net loss (``cache.bypass_rounds``)
            and the exec cache's LRU bound tracks the observed working
            set (``cache.autotune_resizes``).  Requires ``exec_cache``
            or ``sort_cache``.
        decay: Click-decay model for outstanding ads.
        mean_click_delay_rounds: Mean click arrival delay.
        click_horizon_rounds: Rounds after which an unclicked ad expires.
        seed: Seed for phrase occurrence and click simulation.
        collector: Optional :class:`repro.instrument.Collector`.  When an
            enabled collector is supplied, the engine threads it through
            the plan executor / shared-sort network / threshold algorithm
            / per-phrase scans, flushes ``engine.*`` rollups, and attaches
            per-round counter deltas to :attr:`RoundReport.counters` and
            cumulative totals to :attr:`EngineReport.counters`.  ``None``
            (the default) uses the shared no-op collector; the engine
            then does no metric bookkeeping beyond the report fields.

    Determinism contract: a fixed ``(advertisers, slot_factors,
    search_rates, mode, throttle, decay, click delays, seed)`` tuple
    yields a bit-identical run -- same occurring phrases, allocations,
    prices, clicks, and work counters -- independent of process, platform,
    and ``PYTHONHASHSEED`` (all set/dict iteration feeding planning or
    sampling is explicitly sorted).  All randomness flows from the single
    ``random.Random(seed)`` shared by phrase sampling and the click
    model, so two engines in different modes stay draw-for-draw aligned
    exactly as long as their outcomes are identical -- which the
    differential tests assert they always are.
    """

    def __init__(
        self,
        advertisers: Sequence[Advertiser],
        slot_factors: Sequence[float],
        search_rates: Mapping[str, float],
        mode: str = "shared",
        layout: str = "object",
        throttle: bool = True,
        throttle_mode: str = "exact",
        throttle_cache: bool = False,
        exec_cache: bool = False,
        exec_cache_capacity: Optional[int] = None,
        cache_verify: bool = True,
        cache_autotune: bool = False,
        planner: str = "lazy",
        sort_planner: str = "lazy",
        sort_cache: bool = False,
        decay: Optional[ClickDecayModel] = None,
        mean_click_delay_rounds: float = 2.0,
        click_horizon_rounds: int = 16,
        seed: int = 0,
        collector: Optional[Collector] = None,
    ) -> None:
        if mode not in ("shared", "unshared", "shared-sort"):
            raise InvalidAuctionError(f"unknown engine mode {mode!r}")
        if layout not in ("object", "columnar"):
            raise InvalidAuctionError(f"unknown layout {layout!r}")
        if layout == "columnar":
            require_numpy()
            if throttle_mode == "bounded":
                raise InvalidAuctionError(
                    "layout='columnar' vectorizes exact scoring; the "
                    "bounded interval regime refines advertisers one at "
                    "a time and stays on layout='object'"
                )
        if throttle_mode not in ("exact", "bounded"):
            raise InvalidAuctionError(
                f"unknown throttle mode {throttle_mode!r}"
            )
        if throttle_mode == "bounded" and not throttle:
            raise InvalidAuctionError(
                "throttle_mode='bounded' ranks on throttled-bid bounds "
                "and is meaningless with throttle=False"
            )
        if throttle_mode == "bounded" and (exec_cache or sort_cache):
            raise InvalidAuctionError(
                "throttle_mode='bounded' runs its own bound-driven "
                "per-phrase selection and cannot combine with "
                "exec_cache/sort_cache"
            )
        if throttle_cache and not throttle:
            raise InvalidAuctionError(
                "throttle_cache memoizes throttle problems and requires "
                "throttle=True"
            )
        if exec_cache and mode != "shared":
            raise InvalidAuctionError(
                "exec_cache requires mode='shared' (the cross-round cache "
                "lives in the shared plan executor)"
            )
        if sort_cache and mode != "shared-sort":
            raise InvalidAuctionError(
                "sort_cache requires mode='shared-sort' (the cross-round "
                "cache holds merge-sort streams)"
            )
        if cache_autotune and not (exec_cache or sort_cache):
            raise InvalidAuctionError(
                "cache_autotune requires a cross-round cache to tune "
                "(exec_cache or sort_cache)"
            )
        self.advertisers = tuple(advertisers)
        self.mode = mode
        self.layout = layout
        self.throttle = throttle
        self.throttle_mode = throttle_mode
        self.throttle_cache = throttle_cache
        self.exec_cache = exec_cache
        self.collector: Collector = collector if collector is not None else NULL
        self._by_id = {a.advertiser_id: a for a in self.advertisers}
        if len(self._by_id) != len(self.advertisers):
            raise InvalidAuctionError("duplicate advertiser ids")
        self.ctr_model = SeparableCTRModel(
            {a.advertiser_id: a.ctr_factor for a in self.advertisers},
            slot_factors,
        )
        self.k = len(tuple(slot_factors))
        phrase_map: Dict[str, List[int]] = {}
        for advertiser in self.advertisers:
            # Iterate phrases sorted: frozenset order depends on string
            # hashing, and letting it leak into dict build order would
            # make plan tie-breaking (hence work counters) vary with
            # PYTHONHASHSEED.  Outcomes were never affected; the plan
            # *shape* was.
            for phrase in sorted(advertiser.phrases):
                phrase_map.setdefault(phrase, []).append(
                    advertiser.advertiser_id
                )
        self.phrase_advertisers: Dict[str, Tuple[int, ...]] = {
            phrase: tuple(sorted(ids))
            for phrase, ids in sorted(phrase_map.items())
        }
        self.search_rates: Dict[str, float] = {
            phrase: float(search_rates.get(phrase, 1.0))
            for phrase in self.phrase_advertisers
        }
        budgets = {
            a.advertiser_id: dollars_to_cents(a.daily_budget)
            for a in self.advertisers
            if a.daily_budget != float("inf")
        }
        # A click arriving more than click_horizon_rounds after display
        # is never scheduled (DelayedClickModel drops it), so an
        # outstanding ad older than that can never be clicked and may
        # be discarded; +1 keeps an ad alive through the last round its
        # click can still arrive.  An unbounded default ledger makes the
        # Section IV exact throttle -- O(min(2^l, l*beta)) in the
        # outstanding count l -- grow per tick, turning long serving
        # sessions quadratic.
        decay_model = (
            decay
            if decay is not None
            else NoDecay(horizon=click_horizon_rounds + 1)
        )
        # The unified invalidation bus.  Consumers (the cross-round
        # caches below; externally, plan maintenance or a serving loop)
        # subscribe to it; the budget manager and the engine publish to
        # it.  With no subscriber, `changefeed.active` is False and every
        # publish site is skipped, so uncached runs pay nothing.
        self.changefeed = ChangeFeed(self.collector)
        self.budget_manager = BudgetManager(
            budgets, decay_model, changefeed=self.changefeed
        )
        self.autotuner = (
            CacheAutotuner(collector=self.collector) if cache_autotune else None
        )
        # The incremental throttle layer.  Bounded selection always runs
        # through the cache object (it owns the bound/exact machinery and
        # the throttle.* counters); memoization across rounds is what
        # `throttle_cache` switches on, and only a memoizing cache needs
        # (or takes) a change-feed subscription.
        self._throttle_cache: Optional[IncrementalThrottleCache] = None
        if throttle and (throttle_cache or throttle_mode == "bounded"):
            self._throttle_cache = IncrementalThrottleCache(
                self.budget_manager,
                self.collector,
                verify=cache_verify,
                memoize=throttle_cache,
            )
            if throttle_cache:
                self._throttle_cache.connect(self.changefeed)
        # Publisher-side event detection the budget manager cannot see:
        # auction-multiplicity changes (m_i feeds the throttle problem)
        # and whether outstanding debt re-weighs every round.
        self._last_multiplicity: Dict[int, int] = {}
        self._decay_varies = not isinstance(decay_model, NoDecay)
        self._rng = random.Random(seed)
        self.click_model = DelayedClickModel(
            mean_click_delay_rounds, click_horizon_rounds, self._rng
        )
        self._executor: Optional[PlanExecutor] = None
        self._sort_plan = None
        self._sort_cache = None
        self._columnar_exec = None
        self._columnar_sort = None
        self._store: Optional[ColumnarStore] = None
        if layout == "columnar":
            self._store = ColumnarStore.from_advertisers(self.advertisers)
            # Full-length scratch: the scoring stage scatters the round's
            # effective bids / scores into row space so every downstream
            # kernel indexes by row with no per-id lookups.  Rows outside
            # the round's occurring set hold stale values by design --
            # kernels only ever read occurring rows.
            self._eff_by_row = np.zeros(self._store.size, dtype=np.float64)
            self._score_by_row = np.zeros(self._store.size, dtype=np.float64)
            # -1 == "never scored", matching the object path's dict-absent
            # semantics for the multiplicity change feed.
            self._last_m_row = np.full(self._store.size, -1, dtype=np.int64)
            self._occurring_rows = None
        if throttle_mode == "bounded":
            # Bound-driven selection ranks each phrase directly from the
            # throttle cache's intervals; no aggregation plan or shared
            # sort network is ever consulted, so none is built.
            pass
        elif mode == "shared":
            instance = SharedAggregationInstance(
                AggregateQuery(
                    phrase, ids, self.search_rates[phrase]
                )
                for phrase, ids in self.phrase_advertisers.items()
            )
            if layout == "columnar":
                # The greedy plan's sharing structure collapses to
                # fragment row slices in array space; the plan DAG is
                # never built.  With exec_cache the executor keeps the
                # fragment lists alive across rounds and rescans only
                # fragments touching a dirty row -- the DAG-node
                # ancestor cone becomes a row-mask lookup.
                from repro.plans.columnar_exec import ColumnarFragmentExecutor

                self._columnar_exec = ColumnarFragmentExecutor(
                    instance,
                    self._store,
                    self.k + 1,
                    self.collector,
                    cross_round=exec_cache,
                    verify=cache_verify,
                    autotuner=self.autotuner,
                )
                if exec_cache:
                    self._columnar_exec.connect(self.changefeed)
            else:
                strategy = "cover" if len(instance.variables) > 64 else "full"
                plan = greedy_shared_plan(
                    instance,
                    pair_strategy=strategy,
                    planner=planner,
                    collector=self.collector,
                )
                # k + 1 so GSP can read the runner-up score.
                if exec_cache:
                    executor = CrossRoundPlanExecutor(
                        plan,
                        self.k + 1,
                        self.collector,
                        capacity=exec_cache_capacity,
                        verify=cache_verify,
                        autotuner=self.autotuner,
                    )
                    executor.connect(self.changefeed)
                    self._executor = executor
                else:
                    self._executor = PlanExecutor(
                        plan, self.k + 1, self.collector
                    )
            # Phrases with identical advertiser sets are A-equivalent and
            # deduplicate to one plan query; map each phrase to the
            # surviving query's name.
            by_varset = {
                q.variables: q.name
                for q in instance.queries + instance.trivial_queries
            }
            self._phrase_alias: Dict[str, str] = {
                phrase: by_varset[frozenset(ids)]
                for phrase, ids in self.phrase_advertisers.items()
            }
        elif mode == "shared-sort" and layout == "columnar":
            # One shared lexsort per round replaces the merge network;
            # per-phrase CTR presorts live in the store.  With
            # sort_cache the shared order persists across rounds and
            # only dirty rows are re-ranked into it.
            from repro.sharedsort.columnar import (
                ColumnarSortCache,
                ColumnarThresholdKernel,
            )

            columnar_sort_cache = None
            if sort_cache:
                columnar_sort_cache = ColumnarSortCache(
                    self._store,
                    self.collector,
                    verify=cache_verify,
                    autotuner=self.autotuner,
                )
                columnar_sort_cache.connect(self.changefeed)
            self._columnar_sort = ColumnarThresholdKernel(
                self._store,
                self.k + 1,
                self.collector,
                cache=columnar_sort_cache,
            )
        elif mode == "shared-sort":
            from repro.sharedsort.cache import CrossRoundSortCache
            from repro.sharedsort.plan import build_shared_sort_plan

            self._sort_plan = build_shared_sort_plan(
                self.phrase_advertisers,
                self.search_rates,
                planner=sort_planner,
                collector=self.collector,
            )
            if sort_cache:
                self._sort_cache = CrossRoundSortCache(
                    self._sort_plan,
                    self.collector,
                    verify=cache_verify,
                    autotuner=self.autotuner,
                )
                self._sort_cache.connect(self.changefeed)
            # Precomputed per-phrase descending c_i^q orders (Section III
            # treats CTR factors as recalculated only occasionally).
            self._ctr_orders: Dict[str, List[int]] = {
                phrase: sorted(
                    ids,
                    key=lambda i: (
                        -self._by_id[i].ctr_factor_for(phrase),
                        i,
                    ),
                )
                for phrase, ids in self.phrase_advertisers.items()
            }
        self._round_index = 0

    # ------------------------------------------------------------------
    # round resolution
    # ------------------------------------------------------------------
    def sample_occurring_phrases(self) -> List[str]:
        """Draw this round's phrases: independent Bernoulli per phrase."""
        return [
            phrase
            for phrase in sorted(self.phrase_advertisers)
            if self._rng.random() < self.search_rates[phrase]
        ]

    def run_round(
        self, occurring: Optional[Iterable[str]] = None
    ) -> RoundReport:
        """Resolve one round end to end.

        Args:
            occurring: The phrases that occur; sampled from the search
                rates when omitted.

        Returns:
            The round's report.  With an enabled collector the report
            additionally carries the round's counter deltas in
            :attr:`RoundReport.counters`.
        """
        return self._rollup(lambda: self._resolve_round(occurring))

    def serve_query(self, phrase: str) -> RoundReport:
        """Resolve one query-at-a-time tick (the serving regime).

        Serving collapses the round to a single query: the tick delivers
        whatever clicks came due, scores only ``phrase``'s advertisers
        (auction multiplicity is always 1), ranks the one phrase through
        the configured machinery, allocates, and closes the tick on the
        change feed -- so a connected cross-round cache drains its
        subscription *per query* instead of per round.  The serving
        differential suite asserts this path is outcome-identical to
        ``run_round([phrase])``, which is what makes the query-at-a-time
        engine provably equivalent to the batch engine it grew out of.

        Args:
            phrase: The single bid phrase the query resolved to.

        Returns:
            The tick's report (``occurring_phrases`` holds one phrase).
        """
        return self._rollup(lambda: self._serve_query(phrase))

    def _rollup(self, resolve) -> RoundReport:
        """Run ``resolve`` with the engine-level counter rollup.

        Shared by the batch and serving entry points: with the null
        collector it is a single call, with an enabled collector it
        times the resolution and attaches the counter delta.
        """
        collector = self.collector
        if not collector.enabled:
            return resolve()
        snapshot = collector.snapshot()
        with collector.timer(metric_names.ENGINE_ROUND_TIMER):
            report = resolve()
        collector.incr(metric_names.ENGINE_ROUNDS)
        collector.incr(metric_names.ENGINE_PHRASES, len(report.occurring_phrases))
        collector.incr(metric_names.ENGINE_DISPLAYS, report.displays)
        collector.incr(metric_names.ENGINE_CLICKS, report.clicks)
        collector.incr(metric_names.ENGINE_REVENUE_CENTS, report.revenue_cents)
        collector.incr(metric_names.ENGINE_FORGIVEN_CENTS, report.forgiven_cents)
        report.counters = collector.delta_since(snapshot)
        collector.event(
            "engine.round",
            round_index=report.round_index,
            phrases=len(report.occurring_phrases),
            displays=report.displays,
            clicks=report.clicks,
            revenue_cents=report.revenue_cents,
        )
        return report

    def _resolve_round(
        self, occurring: Optional[Iterable[str]] = None
    ) -> RoundReport:
        """The uninstrumented round resolution (see :meth:`run_round`)."""
        phrases = (
            sorted(occurring)
            if occurring is not None
            else self.sample_occurring_phrases()
        )
        # Validate before the round clock moves: a rejected round must
        # leave no trace in expiry or click timing.
        unknown = [p for p in phrases if p not in self.phrase_advertisers]
        if unknown:
            raise InvalidAuctionError(f"no advertisers bid on {unknown!r}")
        round_index = self._round_index
        self._round_index += 1
        report = RoundReport(round_index, tuple(phrases))

        self._deliver_due_clicks(round_index, report)

        if not phrases:
            if self.changefeed.active:
                self.changefeed.publish(RoundClosed(round_index))
            return report

        if self.throttle_mode == "bounded":
            rankings, effective_bid_cents = self._bounded_rankings(
                phrases, round_index, report
            )
        else:
            scores, effective_bid_cents = self._effective_scores(
                phrases, round_index
            )
            rankings = self._rank_phrases(
                phrases, scores, effective_bid_cents, report
            )
        for phrase in phrases:
            self._allocate_phrase(
                phrase, rankings[phrase], effective_bid_cents, round_index,
                report,
            )
        if self.changefeed.active:
            self.changefeed.publish(RoundClosed(round_index))
        return report

    def _serve_query(self, phrase: str) -> RoundReport:
        """The uninstrumented single-query tick (see :meth:`serve_query`)."""
        if phrase not in self.phrase_advertisers:
            raise InvalidAuctionError(f"no advertisers bid on {[phrase]!r}")
        round_index = self._round_index
        self._round_index += 1
        report = RoundReport(round_index, (phrase,))
        self._deliver_due_clicks(round_index, report)
        if self.throttle_mode == "bounded":
            rankings, effective_bid_cents = self._bounded_rankings(
                (phrase,), round_index, report
            )
        else:
            scores, effective_bid_cents = self._effective_scores(
                (phrase,), round_index
            )
            rankings = self._rank_phrases(
                (phrase,), scores, effective_bid_cents, report
            )
        self._allocate_phrase(
            phrase, rankings[phrase], effective_bid_cents, round_index, report
        )
        if self.changefeed.active:
            self.changefeed.publish(RoundClosed(round_index))
        return report

    # ------------------------------------------------------------------
    # round stages (shared by batch rounds and query-at-a-time serving)
    # ------------------------------------------------------------------
    def _deliver_due_clicks(
        self, round_index: int, report: RoundReport
    ) -> None:
        """Stage 1: settle due clicks and expire outstanding ads.

        The budget manager publishes BudgetChanged for every
        settle/display/expiry itself; the engine only publishes what the
        books cannot see (decaying outstanding debt re-weighing).
        """
        for click in self.click_model.arrivals(round_index):
            charge = self.budget_manager.settle_click(
                click.advertiser_id,
                click.price_cents,
                click.display_round,
                handle=click.ledger_handle,
            )
            report.revenue_cents += charge.charged_cents
            report.forgiven_cents += charge.forgiven_cents
            report.clicks += 1
        self.budget_manager.expire_outstanding(round_index)
        if self.changefeed.active and self._decay_varies:
            # A decaying model re-weighs every outstanding ad each
            # round, so any advertiser carrying debt can move.
            for advertiser_id in sorted(
                self.budget_manager.outstanding_counts()
            ):
                self.changefeed.publish(BidChanged(advertiser_id))

    def _effective_scores(
        self, phrases: Sequence[str], round_index: int
    ) -> Tuple[Mapping[int, float], Mapping[int, float]]:
        """Stage 2: effective scores ``b̂_i * c_i`` for the occurring set.

        Returns:
            ``(scores, effective_bid_cents)`` over exactly the
            advertisers bidding on ``phrases`` (plain dicts under the
            object layout, :class:`repro.core.columnar.ArrayScoreMap`
            adapters under the columnar layout -- values are
            bit-identical either way).
        """
        if self._store is not None:
            return self._effective_scores_columnar(phrases, round_index)
        auctions_of: Dict[int, int] = {}
        for phrase in phrases:
            for advertiser_id in self.phrase_advertisers[phrase]:
                auctions_of[advertiser_id] = auctions_of.get(advertiser_id, 0) + 1
        scores: Dict[int, float] = {}
        effective_bid_cents: Dict[int, float] = {}
        cache = self._throttle_cache
        for advertiser_id, m in auctions_of.items():
            advertiser = self._by_id[advertiser_id]
            bid_cents = dollars_to_cents(advertiser.bid)
            if self.throttle:
                if cache is not None:
                    effective = cache.exact_bid(
                        advertiser_id, bid_cents, m, round_index
                    )
                else:
                    problem = self.budget_manager.throttle_problem(
                        advertiser_id, bid_cents, m, round_index
                    )
                    if (
                        self.collector.enabled
                        and problem.bid_cents > 0
                        and not problem.trivially_unthrottled()
                    ):
                        # Count real DP/enumeration runs here too, so
                        # the exact-recompute baseline and the throttle
                        # cache report work through one counter.
                        self.collector.incr(
                            metric_names.THROTTLE_EXACT_FALLBACKS
                        )
                    effective = exact_throttled_bid(problem)
            else:
                effective = float(
                    min(bid_cents, self.budget_manager.remaining_cents(advertiser_id))
                )
            effective_bid_cents[advertiser_id] = effective
            scores[advertiser_id] = effective / 100.0 * advertiser.ctr_factor

        if self.changefeed.active:
            # An advertiser whose auction multiplicity m_i moved since it
            # was last scored gets a BidChanged: m_i feeds the throttle
            # problem, so the effective bid (hence score) can move with
            # no budget event at all.
            for advertiser_id, m in auctions_of.items():
                if self._last_multiplicity.get(advertiser_id) != m:
                    self.changefeed.publish(BidChanged(advertiser_id))
            self._last_multiplicity.update(auctions_of)
        return scores, effective_bid_cents

    def _effective_scores_columnar(
        self, phrases: Sequence[str], round_index: int
    ) -> Tuple[ArrayScoreMap, ArrayScoreMap]:
        """Stage 2 vectorized: whole-array scoring over occurring rows.

        Bit-identical to the object stage: for an advertiser with no
        outstanding debt the Section IV exact throttle collapses to the
        closed form ``min(m * min(b, β), β) / m`` (with an empty ledger
        the DP/enumeration has a single outcome with spend 0), which is
        computed here as three int64 array ops and one true division --
        ``int64/int64`` and Python ``int/int`` both round correctly, so
        the floats agree bitwise.  Debt-carrying advertisers (a small
        minority of any round) drop to the object path's exact
        DP/enumeration per advertiser.
        """
        store = self._store
        assert store is not None
        counts = np.zeros(store.size, dtype=np.int64)
        for phrase in phrases:
            # Rows within one phrase are distinct, so fancy-index += is
            # an exact per-phrase increment.
            counts[store.phrase_rows(phrase)] += 1
        rows = np.flatnonzero(counts)
        m = counts[rows]
        ids_sub = store.ids[rows]
        spent_map = self.budget_manager.spent_snapshot()
        spent = np.zeros(store.size, dtype=np.int64)
        if spent_map:
            spent[store.rows_of(list(spent_map))] = np.fromiter(
                spent_map.values(), dtype=np.int64, count=len(spent_map)
            )
        remaining_sub = np.maximum(store.budget_cents - spent, 0)[rows]
        bid_sub = store.bid_cents[rows]
        collector = self.collector
        cache = self._throttle_cache
        if self.throttle and cache is not None:
            # Memoized exact path: the cache owns the throttle.* metric
            # bookkeeping and the change-feed-driven reuse, both keyed
            # per advertiser, so scoring stays a per-id loop here.
            effective_sub = np.empty(len(rows), dtype=np.float64)
            for position in range(len(rows)):
                effective_sub[position] = cache.exact_bid(
                    int(ids_sub[position]),
                    int(bid_sub[position]),
                    int(m[position]),
                    round_index,
                )
        elif self.throttle:
            capped = np.minimum(bid_sub, remaining_sub)
            effective_sub = np.minimum(m * capped, remaining_sub) / m
            # Debtors overwrite their closed-form value in row space.
            self._eff_by_row[rows] = effective_sub
            fallbacks = 0
            row_of = store.row_of
            for advertiser_id in sorted(self.budget_manager.outstanding_counts()):
                row = row_of(advertiser_id)
                if not counts[row]:
                    continue  # carries debt but occurs in no phrase
                problem = self.budget_manager.throttle_problem(
                    advertiser_id,
                    int(store.bid_cents[row]),
                    int(counts[row]),
                    round_index,
                )
                if (
                    collector.enabled
                    and problem.bid_cents > 0
                    and not problem.trivially_unthrottled()
                ):
                    collector.incr(metric_names.THROTTLE_EXACT_FALLBACKS)
                self._eff_by_row[row] = exact_throttled_bid(problem)
                fallbacks += 1
            if fallbacks:
                effective_sub = self._eff_by_row[rows]
                if collector.enabled:
                    collector.incr(
                        metric_names.COLUMNAR_THROTTLE_FALLBACKS, fallbacks
                    )
        else:
            effective_sub = np.minimum(bid_sub, remaining_sub).astype(
                np.float64
            )
        score_sub = effective_sub / 100.0 * store.ctr_factors[rows]
        self._eff_by_row[rows] = effective_sub
        self._score_by_row[rows] = score_sub
        self._occurring_rows = rows
        if collector.enabled:
            collector.incr(metric_names.COLUMNAR_SCORE_BATCHES)
            collector.incr(metric_names.COLUMNAR_SCORE_ROWS, int(len(rows)))
        if self.changefeed.active:
            # Same publisher contract as the object path (multiplicity
            # feeds the throttle problem); the per-round event *set* is
            # identical, published in ascending-id order.
            for row in rows[self._last_m_row[rows] != m]:
                self.changefeed.publish(BidChanged(int(store.ids[row])))
            self._last_m_row[rows] = m
        return (
            ArrayScoreMap(ids_sub, score_sub),
            ArrayScoreMap(ids_sub, effective_sub),
        )

    def _rank_phrases(
        self,
        phrases: Sequence[str],
        scores: Mapping[int, float],
        effective_bid_cents: Mapping[int, float],
        report: RoundReport,
    ) -> Dict[str, TopKList]:
        """Stage 3: rankings via shared plan, shared sort + TA, or scans."""
        rankings: Dict[str, TopKList] = {}
        if self.mode == "shared":
            canonical = sorted({self._phrase_alias[p] for p in phrases})
            if self._columnar_exec is not None:
                # In cross-round mode the executor drains its
                # change-feed subscription inside run_round, exactly
                # like the object CrossRoundPlanExecutor below.
                result = self._columnar_exec.run_round(
                    self._score_by_row, canonical,
                    rows=self._occurring_rows,
                )
            else:
                assert self._executor is not None
                # A connected CrossRoundPlanExecutor drains its
                # change-feed subscription inside run_round; the base
                # executor just runs.
                result = self._executor.run_round(scores, canonical)
            rankings = {
                phrase: result.answers[self._phrase_alias[phrase]]
                for phrase in phrases
            }
            report.merges += result.merges_performed
            report.scans += result.advertisers_scanned
        elif self.mode == "shared-sort" and self._columnar_sort is not None:
            kernel = self._columnar_sort
            # The shared presort materializes every occurring row once
            # (only the repaired rows, under the sort cache); report it
            # where the object path reports network pulls.
            report.merges += kernel.begin_round(
                self._eff_by_row, self._occurring_rows
            )
            for phrase in phrases:
                ranking, sorted_accesses = kernel.rank_phrase(phrase)
                rankings[phrase] = ranking
                report.scans += sorted_accesses
        elif self.mode == "shared-sort":
            assert self._sort_plan is not None
            from repro.sharedsort.threshold import threshold_top_k

            # Section III: bids are shared across phrases; CTR factors
            # may differ per phrase, so each phrase runs the threshold
            # algorithm over the shared descending-bid streams.
            bids = {
                advertiser_id: value / 100.0
                for advertiser_id, value in effective_bid_cents.items()
            }
            if self._sort_cache is not None:
                live = self._sort_cache.instantiate(bids, self.collector)
            else:
                live = self._sort_plan.instantiate(bids, self.collector)
            for phrase in phrases:
                ids = self.phrase_advertisers[phrase]
                factors = {
                    i: self._by_id[i].ctr_factor_for(phrase) for i in ids
                }
                ta = threshold_top_k(
                    self.k + 1,
                    live.stream_for_phrase(phrase),
                    self._ctr_orders[phrase],
                    bids,
                    factors,
                    self.collector,
                )
                rankings[phrase] = ta.ranking
                report.scans += ta.sorted_accesses
            # round_pulls == total_pulls for a fresh network; under the
            # cross-round cache it excludes pulls adopted streams
            # performed in earlier rounds.
            report.merges += live.round_pulls()
        elif self._store is not None:
            store = self._store
            for phrase in phrases:
                phrase_rows = store.phrase_rows(phrase)
                report.scans += len(phrase_rows)
                rankings[phrase] = columnar_top_k(
                    self.k + 1,
                    self._score_by_row[phrase_rows],
                    store.ids[phrase_rows],
                    self.collector,
                )
        else:
            for phrase in phrases:
                ids = self.phrase_advertisers[phrase]
                report.scans += len(ids)
                rankings[phrase] = top_k_scan(
                    self.k + 1,
                    (ScoredAdvertiser(scores[i], i) for i in ids),
                    self.collector,
                )
        return rankings

    def _bounded_rankings(
        self, phrases: Sequence[str], round_index: int, report: RoundReport
    ) -> Tuple[Dict[str, TopKList], Dict[int, float]]:
        """Stages 2+3 fused, Section IV-B style: rank on bid bounds.

        Each phrase's top-(k + 1) is selected directly from lazily
        refined throttled-bid intervals; only the selected advertisers
        are resolved exactly (GSP pricing needs their precise ``b̂``),
        so ``effective_bid_cents`` covers exactly the selected set.
        Outcome-identical to the exact path: interval decisions are only
        taken outside the bounds' floating-point noise, and anything
        closer is resolved exactly and compared with the engine's own
        score floats (ties by lower advertiser id, as everywhere).
        """
        cache = self._throttle_cache
        assert cache is not None
        auctions_of: Dict[int, int] = {}
        for phrase in phrases:
            for advertiser_id in self.phrase_advertisers[phrase]:
                auctions_of[advertiser_id] = auctions_of.get(advertiser_id, 0) + 1
        rankings: Dict[str, TopKList] = {}
        effective_bid_cents: Dict[int, float] = {}
        for phrase in phrases:
            ids = self.phrase_advertisers[phrase]
            report.scans += len(ids)
            contenders = []
            for advertiser_id in ids:
                advertiser = self._by_id[advertiser_id]
                factor = (
                    advertiser.ctr_factor_for(phrase)
                    if self.mode == "shared-sort"
                    else advertiser.ctr_factor
                )
                contenders.append(
                    (
                        advertiser_id,
                        dollars_to_cents(advertiser.bid),
                        auctions_of[advertiser_id],
                        factor,
                    )
                )
            selected = cache.select_top(contenders, self.k + 1, round_index)
            for advertiser_id, exact_cents, _score in selected:
                effective_bid_cents[advertiser_id] = exact_cents
            rankings[phrase] = TopKList(
                self.k + 1,
                [(score, advertiser_id) for advertiser_id, _, score in selected],
            )
        if self.changefeed.active:
            # Same publisher-side contract as the exact path: an
            # advertiser whose auction multiplicity moved gets a
            # BidChanged for any subscriber that keys off effective bids
            # (the throttle cache itself covers m via its cache key).
            for advertiser_id, m in sorted(auctions_of.items()):
                if self._last_multiplicity.get(advertiser_id) != m:
                    self.changefeed.publish(BidChanged(advertiser_id))
            self._last_multiplicity.update(auctions_of)
        return rankings, effective_bid_cents

    def _allocate_phrase(
        self,
        phrase: str,
        ranking: TopKList,
        effective_bid_cents: Mapping[int, float],
        round_index: int,
        report: RoundReport,
    ) -> None:
        """Stage 4: allocate slots, price clicks (GSP), record displays."""
        entries = ranking.entries
        allocated: List[Tuple[int, int, int]] = []
        # Columnar scoring left every occurring effective bid in row
        # space; reading it by row skips the map's per-id binary search.
        row_of = (
            self._store.row_of
            if isinstance(effective_bid_cents, ArrayScoreMap)
            else None
        )
        for slot in range(min(self.k, len(entries))):
            entry = entries[slot]
            advertiser = self._by_id[entry.advertiser_id]
            if entry.score <= 0.0:
                continue
            next_score = (
                entries[slot + 1].score if slot + 1 < len(entries) else 0.0
            )
            c_i = (
                advertiser.ctr_factor_for(phrase)
                if self.mode == "shared-sort"
                else advertiser.ctr_factor
            )
            if c_i <= 0.0:
                continue
            if row_of is not None:
                effective = float(self._eff_by_row[row_of(entry.advertiser_id)])
            else:
                effective = effective_bid_cents[entry.advertiser_id]
            price_cents = min(effective, next_score / c_i * 100.0)
            price = int(round(price_cents))
            if price <= 0:
                continue
            ctr = min(1.0, c_i * self.ctr_model.slot_factors[slot])
            ledger_handle = self.budget_manager.record_display(
                entry.advertiser_id, price, ctr, round_index
            )
            self.click_model.record_display(
                entry.advertiser_id, phrase, price, ctr, round_index,
                ledger_handle,
            )
            report.displays += 1
            allocated.append((slot, entry.advertiser_id, price))
        report.allocations[phrase] = tuple(allocated)

    def settle_remaining_clicks(self) -> Tuple[int, int, int]:
        """Flush the click model and settle every still-pending click.

        The flush settles outside any round; the budget manager's
        published events queue on the feed, so any later round still
        treats these advertisers as dirty.  Shared by the batch
        :meth:`run` loop and the end of a serving session.

        Returns:
            ``(revenue_cents, forgiven_cents, clicks)`` totals.
        """
        revenue = forgiven = clicks = 0
        for click in self.click_model.flush():
            charge = self.budget_manager.settle_click(
                click.advertiser_id,
                click.price_cents,
                click.display_round,
                handle=click.ledger_handle,
            )
            revenue += charge.charged_cents
            forgiven += charge.forgiven_cents
            clicks += 1
        return revenue, forgiven, clicks

    def run(self, rounds: int) -> EngineReport:
        """Run several rounds, then flush and settle remaining clicks."""
        report = EngineReport()
        for _ in range(rounds):
            report.absorb(self.run_round())
        revenue, forgiven, clicks = self.settle_remaining_clicks()
        report.revenue_cents += revenue
        report.forgiven_cents += forgiven
        report.clicks += clicks
        return report
