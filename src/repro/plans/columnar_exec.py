"""Fragment-level columnar execution of shared aggregation rounds.

The object-path :class:`repro.plans.executor.PlanExecutor` answers each
round by walking the greedy plan DAG, materializing one
:class:`~repro.core.topk.TopKList` per operator node.  With the
population in a :class:`repro.core.columnar.ColumnarStore`, the same
sharing structure collapses to one *segmented top-k* kernel
(:func:`segmented_top_k`: one ``np.lexsort`` ranking the candidates by
``(-score, id)``, then one integer sort of ``(segment, rank)`` keys that
keeps the first ``k`` of each segment) applied twice per round:

1. **Fragment stage.**  The rows of every needed *fragment* (Section
   II-D.1 equivalence class of advertisers occurring in the same
   queries) are concatenated and ranked once, segmented by fragment --
   each fragment is scanned once per round however many queries share
   it, which is the paper's sharing.
2. **Query stage.**  Each requested query gathers its fragments'
   survivors through a query -> fragment CSR index built at
   construction, and a second ranking, segmented by query, keeps its
   top ``k``.

Answers are exactly -- byte for byte -- a left fold of
:func:`repro.core.topk.top_k_merge` over per-fragment
:func:`repro.core.columnar.columnar_top_k` lists: fragments partition
each query's variable set, so no advertiser id occurs twice among a
query's candidates, and ``(-score, id)`` is a strict total order over
distinct ids.  That identity needs NaN-free scores (NaN orders
differently under ``np.lexsort`` than under the tuple compare), which
is why the advertiser and CTR-model constructors reject non-finite
bids and factors.  The greedy plan itself is never built: fragment
identification is the cheap first stage of planning.  The counters
keep the fold's cost-model meaning -- ``merges_performed`` is
``sum(|cover| - 1)`` over the requested queries and
``advertisers_scanned`` the total size of the needed fragments -- and
reach the collector in bulk, once per round.

A round's answers come back as one
:class:`repro.core.ranked.RankedTable` -- flat ``scores`` / ``ids``
arrays with a ``(start, length)`` run per requested query -- which the
engine allocates and prices from directly;
:attr:`ColumnarExecResult.answers` builds :class:`TopKList` objects
only when a caller reads it.

Cross-round caching (``exec_cache=True``) runs in the same array space
(``cross_round=True``): instead of the object executor's per-variable
score dicts and DAG-node ancestor-cone walks, the executor keeps a
full-length last-seen score column, a seen mask, per-row and
per-fragment epoch arrays, and a per-fragment dirty flag.  Draining the
:class:`repro.engine.changefeed.ChangeFeed` yields declared-dirty
advertiser ids; one vectorized compare against the snapshot refines the
declaration to the rows whose score actually moved (and, under
``verify=True``, cross-checks that no undeclared row moved -- the same
declared-vs-diffed soundness contract as
:class:`repro.plans.executor.CrossRoundPlanExecutor`).  The
"invalidation cone" of a dirty row is simply its fragment: a
row-to-fragment index map turns the dirty rows into dirty fragments in
O(|dirty|).  The fragment stage then rescans only dirty fragments into
a resident ``(fragment, k)`` top-k table, clean fragments replay their
table rows with zero scans, and a query is re-merged only when one of
its fragments was rescanned since the query was last answered (a
per-fragment rescan stamp against a per-query answer stamp); otherwise
its previous answer is served merge-free -- the columnar analogue of
the object cache's revalidation.  Answers stay resident the same way as
fragment lists, as a ``(query, k)`` table of scores and ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.columnar import ColumnarStore, require_numpy
from repro.core.ranked import RankedTable, expand_runs
from repro.core.topk import TopKList
from repro.errors import InvalidPlanError
from repro.instrument import NULL, Collector, names as metric_names
from repro.plans.fragments import identify_fragments
from repro.plans.instance import SharedAggregationInstance

try:  # pragma: no cover - numpy ships with the package
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["ColumnarExecResult", "ColumnarFragmentExecutor", "segmented_top_k"]


def segmented_top_k(
    k: int, scores, ids, segments, members
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Every segment's top ``k`` candidates, best first.

    Candidates are drawn from a *pool* of scored entries: pair ``j``
    makes pool entry ``members[j]`` a candidate of segment
    ``segments[j]``, so one entry can compete in many segments (a
    fragment's survivors in every query of its cover).  One
    ``np.lexsort`` ranks the pool by ``(-score, id)`` -- the
    :class:`~repro.core.topk.TopKList` rank order, higher score first
    and ties by lower id -- and one integer sort of ``segment * len(pool)
    + rank`` keys groups the pairs by segment in rank order, so the
    first ``k`` of each segment are its exact top-k.

    Args:
        k: Per-segment capacity (positive).
        scores: float64 pool scores (finite).
        ids: Parallel int64 advertiser ids; a segment's candidates must
            carry distinct ids.
        segments: Non-negative int64 segment label per pair.
        members: Parallel int64 pool index per pair.

    Returns:
        ``(segments, members)`` of the kept pairs, grouped by ascending
        segment and best first within each.
    """
    size = len(scores)
    if not size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    by_rank = np.lexsort((ids, -scores))
    rank = np.empty(size, dtype=np.int64)
    rank[by_rank] = np.arange(size)
    keys = segments * size
    keys += rank[members]
    keys.sort()
    labels = keys // size
    if len(keys) > k:
        # Position within the segment: index minus the segment's first
        # (segments are sorted, so each starts where the earlier end).
        counts = np.bincount(labels)
        within = np.arange(len(keys))
        within -= (np.cumsum(counts) - counts)[labels]
        keep = within < k
        keys = keys[keep]
        labels = labels[keep]
    keys -= labels * size
    return labels, by_rank[keys]


@dataclass
class ColumnarExecResult:
    """One round's answers and work, mirroring ``ExecutionResult``.

    Attributes:
        names: The distinct requested query names, in request order.
        table: The answers as one ranked table: ranking ``i`` answers
            ``names[i]``.  The engine prices and allocates straight from
            it; :attr:`answers` builds :class:`TopKList` objects only
            when read.
        merges_performed: Binary top-k merges of the fold the kernel
            replaces (one per extra fragment beyond the first in each
            requested query's cover).
        advertisers_scanned: Rows read by fragment materializations
            (each needed fragment is scanned exactly once per round --
            the sharing the paper's cost model counts).
        nodes_reused: Cross-round mode only: cached fragment /
            trivial-leaf lists served without a scan because no member
            row was dirty.
        nodes_invalidated: Cross-round mode only: resident cached
            fragments newly marked dirty by this round's dirty rows.
        nodes_revalidated: Cross-round mode only: merges skipped
            because no fragment of a query's cover was rescanned since
            the query was last answered.
        bypassed: Cross-round mode only: the autotuner judged the
            observed dirty fraction too high for caching to pay and the
            round ran fresh (scores were still absorbed, so the cached
            state stays sound for later rounds).
    """

    names: Tuple[str, ...]
    table: Optional[RankedTable] = None
    merges_performed: int = 0
    advertisers_scanned: int = 0
    nodes_reused: int = 0
    nodes_invalidated: int = 0
    nodes_revalidated: int = 0
    bypassed: bool = False

    @cached_property
    def answers(self) -> Dict[str, TopKList]:
        """``{query name: TopKList}`` for every requested query."""
        assert self.table is not None
        return dict(zip(self.names, self.table.rankings()))


class ColumnarFragmentExecutor:
    """Answers shared-aggregation rounds from fragment row slices.

    Args:
        instance: The engine's aggregation instance (defines queries,
            trivial queries, and -- via
            :func:`repro.plans.fragments.identify_fragments` -- the
            fragment partition).
        store: The columnar population; fragment member ids are
            translated to row indices once at construction.
        k: Result capacity (the engine passes ``slots + 1`` for GSP).
        collector: Counts ``plan.merges`` and ``plan.leaf_scans`` with
            the meaning documented on :class:`ColumnarExecResult`, so
            shared-mode work tables keep their meaning under the
            columnar layout.  In cross-round mode additionally
            ``plan.nodes_reused`` / ``plan.nodes_invalidated`` /
            ``plan.revalidations``.
        cross_round: Keep fragment top-k lists alive between rounds and
            rescore only fragments touching a dirty row (see the module
            docstring).  ``False`` (the default) answers each round
            from scratch.
        verify: Cross-round mode only: keep the exact score diff as a
            soundness cross-check on the declared dirty sets -- an
            undeclared score change raises ``InvalidPlanError``.
            ``False`` trusts the declaration and keeps the last-seen
            snapshot for undeclared rows, so a later covering event
            still repairs the cache.
        autotuner: Optional duck-typed
            :class:`repro.engine.autotune.CacheAutotuner` (cross-round
            mode only).  Consulted per round for the bypass decision
            and fed the observed dirty fraction.  LRU sizing does not
            apply -- the resident set is bounded by the fragment count,
            exactly like the sort cache's stream set.

    Attributes:
        rounds: Cross-round rounds absorbed.
        bypass_rounds: Rounds answered fresh on autotuner advice.
    """

    def __init__(
        self,
        instance: SharedAggregationInstance,
        store: ColumnarStore,
        k: int,
        collector: Collector = NULL,
        cross_round: bool = False,
        verify: bool = True,
        autotuner=None,
    ) -> None:
        if k <= 0:
            raise InvalidPlanError(f"k must be positive, got {k}")
        require_numpy()
        self.k = k
        self.store = store
        self.collector = collector
        self.cross_round = cross_round
        self.verify = verify
        self.autotuner = autotuner
        fragments = identify_fragments(instance)
        count = len(fragments)
        # Fragment -> member rows, as one CSR: fragment ``f`` owns
        # ``_frag_rows[_frag_start[f]:_frag_start[f] + _frag_size[f]]``.
        members = [sorted(fragment.variables) for fragment in fragments]
        self._frag_size = np.fromiter(
            map(len, members), dtype=np.int64, count=count
        )
        self._frag_start = np.cumsum(self._frag_size) - self._frag_size
        self._frag_rows = store.rows_of(list(chain.from_iterable(members)))
        # Query -> cover fragments, as a second CSR.
        self._query_index: Dict[str, int] = {
            query.name: index for index, query in enumerate(instance.queries)
        }
        covers: List[List[int]] = [[] for _ in instance.queries]
        for index, fragment in enumerate(fragments):
            for name in fragment.query_names:
                covers[self._query_index[name]].append(index)
        self._cover_len = np.fromiter(
            map(len, covers), dtype=np.int64, count=len(covers)
        )
        self._cover_start = np.cumsum(self._cover_len) - self._cover_len
        self._cover_frags = np.fromiter(
            chain.from_iterable(covers),
            dtype=np.int64,
            count=int(self._cover_len.sum()),
        )
        self._trivial: Dict[str, int] = {
            query.name: next(iter(query.variables))
            for query in instance.trivial_queries
        }
        self.rounds = 0
        self.bypass_rounds = 0
        self._subscription = None
        self._pending_dirty: Set[int] = set()
        if cross_round:
            size = store.size
            # Last absorbed score per row plus a seen mask: the array
            # analogue of the object executor's ``_last_scores`` dict
            # (absent key == never seen == always dirty).
            self._last_scores = np.zeros(size, dtype=np.float64)
            self._seen = np.zeros(size, dtype=bool)
            # Epochs bump exactly when a value actually changes -- the
            # same monotone versioning tests probe via ``leaf_epoch``.
            self._row_epoch = np.zeros(size, dtype=np.int64)
            self._frag_epoch = np.zeros(count, dtype=np.int64)
            self._frag_dirty = np.ones(count, dtype=bool)
            # The resident top-k table: fragment ``f``'s cached list is
            # ``_top_len[f]`` entries from flat position ``f * k``.
            self._top_scores = np.zeros(count * k, dtype=np.float64)
            self._top_ids = np.zeros(count * k, dtype=np.int64)
            self._top_len = np.zeros(count, dtype=np.int64)
            # Round of each fragment's last rescan and of each query's
            # last merge: a query whose answer is at least as new as
            # every fragment of its cover revalidates without merging.
            self._frag_stamp = np.zeros(count, dtype=np.int64)
            self._answer_stamp = np.full(len(covers), -1, dtype=np.int64)
            # The resident answer table, laid out like the fragment
            # table: query ``q``'s answer is ``_answer_len[q]`` entries
            # from flat position ``q * k``.
            self._answer_scores = np.zeros(len(covers) * k, dtype=np.float64)
            self._answer_ids = np.zeros(len(covers) * k, dtype=np.int64)
            self._answer_len = np.zeros(len(covers), dtype=np.int64)
            # The vectorized invalidation cone: each row belongs to at
            # most one fragment, so dirty rows map to dirty fragments
            # with one fancy-index write.
            self._fragment_of_row = np.full(size, -1, dtype=np.int64)
            self._fragment_of_row[self._frag_rows] = np.repeat(
                np.arange(count), self._frag_size
            )
            self._trivial_value: Dict[str, float] = {}
            self._trivial_epoch: Dict[str, int] = {}
            self._dirty_rows_last = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # change-feed consumption (cross-round mode)
    # ------------------------------------------------------------------
    def connect(self, feed) -> None:
        """Subscribe to a change feed; dirty sets then arrive as events.

        Same contract as
        :meth:`repro.plans.executor.CrossRoundPlanExecutor.connect`:
        :meth:`run_round` drains the subscription at the top of every
        round, unions the events' dirty advertisers into a pending set,
        and absorbs the ids the round actually scored; passing
        ``dirty=`` explicitly is then an error.
        """
        if not self.cross_round:
            raise InvalidPlanError(
                "connect requires cross_round=True (the uncached "
                "executor keeps no state to invalidate)"
            )
        if self._subscription is not None:
            raise InvalidPlanError("executor is already connected to a feed")
        self._subscription = feed.subscribe(
            name="columnar-exec-cache",
            kinds=(
                "bid_changed",
                "budget_changed",
                "advertiser_added",
                "advertiser_removed",
            ),
        )

    @property
    def pending_dirty(self) -> frozenset:
        """Advertisers declared dirty by drained events and not yet
        absorbed by a round that scored them (cross-round mode)."""
        return frozenset(self._pending_dirty)

    def fragment_epoch(self, index: int) -> int:
        """Monotone rescore count of one fragment (cross-round mode)."""
        return int(self._frag_epoch[index])

    def row_epoch(self, row: int) -> int:
        """Monotone change count of one row's absorbed score."""
        return int(self._row_epoch[row])

    def dirty_rows_last_round(self) -> "np.ndarray":
        """Row indices the last round treated as dirty (ascending).

        Exposed for the differential suites: the hypothesis property
        asserts these rows' advertiser ids equal the object executor's
        dirty cone leaves, round for round.
        """
        return self._dirty_rows_last

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------
    def run_round(
        self,
        score_by_row,
        names: Sequence[str],
        rows=None,
        dirty: Optional[Iterable[int]] = None,
    ) -> ColumnarExecResult:
        """Answer the round's requested queries.

        Args:
            score_by_row: Full-length float64 array of effective scores;
                only rows belonging to the requested queries are read
                (the engine fills exactly the occurring rows).
            names: The requested (canonical) query names; a name listed
                twice is answered (and counted) once.
            rows: The round's scored row indices (ascending) -- the
                union of the requested queries' member rows.  The
                engine passes its occurring-row array; ``None`` derives
                it from ``names`` (one-off callers and tests).
            dirty: Cross-round mode only: explicitly declared dirty
                advertiser ids.  ``None`` with no connected feed
                auto-diffs every scored row.  Mutually exclusive with a
                connected feed.

        Raises:
            InvalidPlanError: If a name matches no query of the
                instance, or (cross-round ``verify=True``) a score
                changed without being declared dirty.
        """
        if not self.cross_round:
            if dirty is not None:
                raise InvalidPlanError(
                    "dirty declarations require cross_round=True"
                )
            return self._run_fresh(score_by_row, names)
        return self._run_cross_round(score_by_row, names, rows, dirty)

    def _resolve(
        self, names: Sequence[str]
    ) -> Tuple[Tuple[str, ...], List[str], "np.ndarray", "np.ndarray"]:
        """Validate and split the requested names before any work.

        Returns:
            ``(ordered, trivial, indices, runs)``: the distinct names in
            request order, the trivial ones, the non-trivial ones' query
            indices, and per ordered name its run in the round's answer
            table -- the non-trivial answers first, in ``indices`` order,
            then the trivial ones, in ``trivial`` order.
        """
        ordered = tuple(dict.fromkeys(names))
        trivial: List[str] = []
        queries: List[str] = []
        indices: List[int] = []
        for name in ordered:
            if name in self._trivial:
                trivial.append(name)
                continue
            index = self._query_index.get(name)
            if index is None:
                raise InvalidPlanError(f"unknown query {name!r}")
            queries.append(name)
            indices.append(index)
        run_of = {name: run for run, name in enumerate(queries + trivial)}
        runs = np.fromiter(
            map(run_of.__getitem__, ordered), dtype=np.int64, count=len(ordered)
        )
        return ordered, trivial, np.array(indices, dtype=np.int64), runs

    def _trivial_rows(self, trivial: Sequence[str]) -> "np.ndarray":
        return self.store.rows_of([self._trivial[name] for name in trivial])

    def _answer_table(
        self, runs, scores, ids, lengths, trivial_scores, trivial_rows
    ) -> RankedTable:
        """The round's answer table: query answers, then trivial ones.

        Args:
            runs: Per requested name, its run (see :meth:`_resolve`).
            scores: float64 query-answer entries, grouped by query.
            ids: Parallel int64 ids.
            lengths: Per query, its answer's entry count.
            trivial_scores: float64 score per trivial answer.
            trivial_rows: Parallel row of each trivial answer's one
                advertiser.
        """
        lengths = np.concatenate(
            (lengths, np.ones(len(trivial_rows), dtype=np.int64))
        )
        return RankedTable(
            self.k,
            np.concatenate((scores, trivial_scores)),
            np.concatenate((ids, self.store.ids[trivial_rows])),
            (np.cumsum(lengths) - lengths)[runs],
            lengths[runs],
        )

    def _run_fresh(
        self, score_by_row, names: Sequence[str]
    ) -> ColumnarExecResult:
        """One round from scratch: both kernel stages over every needed
        fragment."""
        ordered, trivial, indices, runs = self._resolve(names)
        result = ColumnarExecResult(ordered)
        trivial_rows = self._trivial_rows(trivial)
        result.advertisers_scanned += len(trivial)
        scores = np.zeros(0, dtype=np.float64)
        ids = np.zeros(0, dtype=np.int64)
        lengths = np.zeros(0, dtype=np.int64)
        if len(indices):
            fragments, owner = self._covers(indices)
            needed = self._needed(fragments)
            pool_scores, pool_ids, counts = self._scan(
                score_by_row, needed, result
            )
            # Where each needed fragment's survivors sit in the pool.
            run_start = np.zeros(len(self._frag_size), dtype=np.int64)
            run_len = np.zeros(len(self._frag_size), dtype=np.int64)
            run_start[needed] = np.cumsum(counts) - counts
            run_len[needed] = counts
            scores, ids, lengths = self._merge(
                len(indices), fragments, owner, run_start, run_len,
                pool_scores, pool_ids,
            )
            result.merges_performed += len(fragments) - len(indices)
        result.table = self._answer_table(
            runs, scores, ids, lengths, score_by_row[trivial_rows],
            trivial_rows,
        )
        self._count(result)
        return result

    def _run_cross_round(
        self,
        score_by_row,
        names: Sequence[str],
        rows,
        dirty: Optional[Iterable[int]],
    ) -> ColumnarExecResult:
        self.rounds += 1
        store = self.store
        if self._subscription is not None:
            if dirty is not None:
                raise InvalidPlanError(
                    "dirty sets arrive via the change feed once connected; "
                    "do not also declare them by argument"
                )
            for event in self._subscription.drain():
                self._pending_dirty |= event.dirty_advertisers
            declared_ids: Optional[Set[int]] = set(self._pending_dirty)
        elif dirty is not None:
            declared_ids = set(dirty)
        else:
            declared_ids = None
        if rows is None:
            rows = self._rows_for(names)
        else:
            rows = np.asarray(rows, dtype=np.int64)

        changed_count, invalidated = self._absorb_scores(
            score_by_row, rows, declared_ids
        )
        autotuner = self.autotuner
        if autotuner is not None and autotuner.should_bypass():
            # Fresh, cache-free execution: the scores were still
            # absorbed above (and dirty fragments stay marked), so the
            # resident lists remain sound for whenever caching resumes.
            result = self._run_fresh(score_by_row, names)
            result.bypassed = True
            self.bypass_rounds += 1
            autotuner.record_bypass()
            working_set = result.advertisers_scanned
        else:
            result = self._run_cached(score_by_row, names)
            working_set = result.nodes_reused + result.advertisers_scanned
        result.nodes_invalidated = invalidated
        if self.collector.enabled and invalidated:
            self.collector.incr(
                metric_names.PLAN_NODES_INVALIDATED, invalidated
            )
        if declared_ids is not None and self._pending_dirty:
            # Scored advertisers are absorbed; events for everyone else
            # survive until they next occur.
            scored = np.zeros(store.size, dtype=bool)
            scored[rows] = True
            self._pending_dirty = {
                advertiser_id
                for advertiser_id in self._pending_dirty
                if advertiser_id not in store
                or not scored[store.row_of(advertiser_id)]
            }
        if autotuner is not None:
            autotuner.observe_round(changed_count, int(len(rows)), working_set)
        return result

    def _rows_for(self, names: Sequence[str]) -> "np.ndarray":
        """Scored-row union of the requested queries (sorted, unique)."""
        _, trivial, indices, _ = self._resolve(names)
        mask = np.zeros(self.store.size, dtype=bool)
        mask[self._trivial_rows(trivial)] = True
        fragments, _ = self._covers(indices)
        positions, _ = expand_runs(
            self._frag_start[fragments], self._frag_size[fragments]
        )
        mask[self._frag_rows[positions]] = True
        return np.flatnonzero(mask)

    def _absorb_scores(
        self, score_by_row, rows, declared_ids: Optional[Set[int]]
    ) -> Tuple[int, int]:
        """Diff the scored rows against the snapshot; mark dirty fragments.

        The array-space transcription of
        ``CrossRoundPlanExecutor._absorb_scores``: first-sight rows are
        always dirty; declared rows are dirty iff their score actually
        moved; an undeclared move raises under ``verify=True`` and
        keeps the stale snapshot under ``verify=False`` (so a later
        covering event still repairs the cache).

        Returns:
            ``(changed, invalidated)``: rows whose score actually
            changed, and resident cached fragments newly invalidated.
        """
        store = self.store
        sub = score_by_row[rows]
        seen = self._seen[rows]
        changed = seen & (sub != self._last_scores[rows])
        if declared_ids is None:
            dirty_sub = ~seen | changed
        else:
            declared = np.zeros(store.size, dtype=bool)
            if declared_ids:
                present = sorted(
                    advertiser_id
                    for advertiser_id in declared_ids
                    if advertiser_id in store
                )
                if present:
                    declared[store.rows_of(present)] = True
            declared_sub = declared[rows]
            if self.verify:
                bad = changed & ~declared_sub
                if bad.any():
                    row = int(rows[int(np.flatnonzero(bad)[0])])
                    raise InvalidPlanError(
                        f"unsound dirty set: score of "
                        f"{int(store.ids[row])} changed "
                        f"({float(self._last_scores[row])} -> "
                        f"{float(score_by_row[row])}) but the variable "
                        "was not declared dirty"
                    )
            dirty_sub = ~seen | (declared_sub & changed)
        dirty_rows = rows[dirty_sub]
        self._dirty_rows_last = dirty_rows
        if not len(dirty_rows):
            return 0, 0
        self._last_scores[dirty_rows] = score_by_row[dirty_rows]
        self._seen[dirty_rows] = True
        self._row_epoch[dirty_rows] += 1
        fragment_ids = self._fragment_of_row[dirty_rows]
        fragment_ids = np.unique(fragment_ids[fragment_ids >= 0])
        # Fragments start dirty, so a clean one holds a resident list.
        invalidated = int(np.count_nonzero(~self._frag_dirty[fragment_ids]))
        self._frag_dirty[fragment_ids] = True
        return int(len(dirty_rows)), invalidated

    def _run_cached(
        self, score_by_row, names: Sequence[str]
    ) -> ColumnarExecResult:
        """Serve requested queries, rescanning only dirty fragments."""
        ordered, trivial, indices, runs = self._resolve(names)
        result = ColumnarExecResult(ordered)
        trivial_rows = self._trivial_rows(trivial)
        trivial_scores = np.empty(len(trivial), dtype=np.float64)
        for position, (name, row) in enumerate(
            zip(trivial, trivial_rows.tolist())
        ):
            epoch = int(self._row_epoch[row])
            if (
                name in self._trivial_value
                and self._trivial_epoch[name] == epoch
            ):
                trivial_scores[position] = self._trivial_value[name]
                result.nodes_reused += 1
                continue
            score = float(score_by_row[row])
            self._trivial_value[name] = score
            self._trivial_epoch[name] = epoch
            trivial_scores[position] = score
            result.advertisers_scanned += 1
        lengths = np.zeros(0, dtype=np.int64)
        positions = lengths
        if len(indices):
            fragments, owner = self._covers(indices)
            needed = self._needed(fragments)
            stale = needed[self._frag_dirty[needed]]
            if len(stale):
                self._rescan(score_by_row, stale, result)
            # Every cover touch beyond a fragment's one rescan is served
            # from the table (within-round sharing included).
            result.nodes_reused += len(fragments) - len(stale)
            cover_len = self._cover_len[indices]
            newest = np.maximum.reduceat(
                self._frag_stamp[fragments], np.cumsum(cover_len) - cover_len
            )
            remerge = self._answer_stamp[indices] < newest
            result.nodes_revalidated += int(
                (cover_len[~remerge] - 1).sum()
            )
            if remerge.any():
                merged = indices[remerge]
                fragments, owner = self._covers(merged)
                scores, ids, counts = self._merge(
                    len(merged), fragments, owner,
                    np.arange(len(self._top_len)) * self.k, self._top_len,
                    self._top_scores, self._top_ids,
                )
                slots, _ = expand_runs(merged * self.k, counts)
                self._answer_scores[slots] = scores
                self._answer_ids[slots] = ids
                self._answer_len[merged] = counts
                self._answer_stamp[merged] = self.rounds
                result.merges_performed += len(fragments) - len(merged)
            lengths = self._answer_len[indices]
            positions, _ = expand_runs(indices * self.k, lengths)
        # Fancy indexing copies: the result stays valid after the
        # resident table moves on.
        result.table = self._answer_table(
            runs, self._answer_scores[positions], self._answer_ids[positions],
            lengths, trivial_scores, trivial_rows,
        )
        self._count(result)
        return result

    # ------------------------------------------------------------------
    # kernel stages
    # ------------------------------------------------------------------
    def _covers(self, indices) -> Tuple["np.ndarray", "np.ndarray"]:
        """Concatenated cover fragments of the given queries, plus each
        entry's position in ``indices``."""
        positions, owner = expand_runs(
            self._cover_start[indices], self._cover_len[indices]
        )
        return self._cover_frags[positions], owner

    def _needed(self, fragments) -> "np.ndarray":
        """The distinct fragments among ``fragments``, ascending."""
        return np.flatnonzero(
            np.bincount(fragments, minlength=len(self._frag_size))
        )

    def _scan(
        self, score_by_row, fragments, result: ColumnarExecResult
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Fragment stage: the exact top-k of each listed fragment.

        Returns:
            ``(scores, ids, counts)``: the survivors grouped by fragment
            in listed order, best first, and how many each kept.
        """
        positions, owner = expand_runs(
            self._frag_start[fragments], self._frag_size[fragments]
        )
        rows = self._frag_rows[positions]
        scores = score_by_row[rows]
        ids = self.store.ids[rows]
        labels, kept = segmented_top_k(
            self.k, scores, ids, owner, np.arange(len(rows))
        )
        result.advertisers_scanned += len(rows)
        counts = np.bincount(labels, minlength=len(fragments))
        return scores[kept], ids[kept], counts

    def _rescan(
        self, score_by_row, stale, result: ColumnarExecResult
    ) -> None:
        """Refresh the resident table rows of the stale fragments."""
        scores, ids, counts = self._scan(score_by_row, stale, result)
        slots, _ = expand_runs(stale * self.k, counts)
        self._top_scores[slots] = scores
        self._top_ids[slots] = ids
        self._top_len[stale] = counts
        self._frag_dirty[stale] = False
        self._frag_epoch[stale] += 1
        self._frag_stamp[stale] = self.rounds

    def _merge(
        self, count: int, fragments, owner, run_start, run_len, scores, ids
    ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Query stage: each query's top-k over its fragments' survivors.

        Args:
            count: Number of queries.
            fragments: The queries' concatenated cover fragments.
            owner: Per cover entry, the query (``0..count-1``) it
                belongs to.
            run_start: Per fragment, where its survivors start in
                ``scores`` / ``ids``.
            run_len: Per fragment, how many survivors it has.
            scores: float64 survivor scores.
            ids: Parallel int64 survivor ids.

        Returns:
            ``(scores, ids, counts)``: every query's answer, grouped by
            query in query order and best first, and each answer's
            entry count.
        """
        positions, entry = expand_runs(run_start[fragments], run_len[fragments])
        labels, chosen = segmented_top_k(
            self.k, scores, ids, owner[entry], positions
        )
        return scores[chosen], ids[chosen], np.bincount(labels, minlength=count)

    def _count(self, result: ColumnarExecResult) -> None:
        """Move the round's work counters to the collector in bulk."""
        collector = self.collector
        if not collector.enabled:
            return
        for name, value in (
            (metric_names.PLAN_LEAF_SCANS, result.advertisers_scanned),
            (metric_names.PLAN_MERGES, result.merges_performed),
            (metric_names.PLAN_NODES_REUSED, result.nodes_reused),
            (metric_names.PLAN_REVALIDATIONS, result.nodes_revalidated),
        ):
            if value:
                collector.incr(name, value)
