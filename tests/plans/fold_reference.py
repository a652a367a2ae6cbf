"""A reference fragment executor: per-fragment lists folded with ``⊕``.

:class:`FoldReference` is the specification that
:class:`repro.plans.columnar_exec.ColumnarFragmentExecutor`'s segmented
kernel must meet, answers *and* work counters: every needed fragment is
top-k'd once by :func:`repro.core.columnar.columnar_top_k`, and each
requested query's answer is a left fold of
:func:`repro.core.topk.top_k_merge` over its cover.  In cross-round mode
it caches fragment lists behind an auto-diffed dirty set and skips a
query's fold when every operand is the very list object the last fold
consumed -- so ``nodes_revalidated`` is counted by object identity,
a different mechanism from the kernel's rescan stamps.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.columnar import ColumnarStore, columnar_top_k
from repro.core.topk import TopKList, top_k_merge
from repro.plans.fragments import identify_fragments
from repro.plans.instance import SharedAggregationInstance


class FoldReference:
    """Answers rounds by folding per-fragment top-k lists.

    ``run_round`` returns ``(answers, counters)`` with counters keyed
    like :class:`~repro.plans.columnar_exec.ColumnarExecResult` fields.
    Cross-round mode diffs every scored row against the last round
    (the declared-dirty path is the kernel executor's own business).
    """

    def __init__(
        self,
        instance: SharedAggregationInstance,
        store: ColumnarStore,
        k: int,
        cross_round: bool = False,
    ) -> None:
        self.k = k
        self.store = store
        self.cross_round = cross_round
        fragments = identify_fragments(instance)
        self.rows = [store.rows_of(sorted(f.variables)) for f in fragments]
        self.covers = {
            query.name: [
                index
                for index, fragment in enumerate(fragments)
                if query.name in fragment.query_names
            ]
            for query in instance.queries
        }
        self.trivial = {
            query.name: next(iter(query.variables))
            for query in instance.trivial_queries
        }
        self.fragment_of_row = {
            int(row): index
            for index, rows in enumerate(self.rows)
            for row in rows
        }
        self.last: Dict[int, float] = {}
        self.epoch: Counter = Counter()
        self.values: List[Optional[TopKList]] = [None] * len(fragments)
        self.dirty = [True] * len(fragments)
        self.trivial_values: Dict[str, Tuple[int, TopKList]] = {}
        self.memo: Dict[str, Tuple[Tuple[TopKList, ...], TopKList]] = {}

    def _scan(self, index: int, score_by_row, counters: Counter) -> TopKList:
        rows = self.rows[index]
        counters["advertisers_scanned"] += len(rows)
        return columnar_top_k(
            self.k, score_by_row[rows], self.store.ids[rows]
        )

    def _fold(self, parts: List[TopKList], counters: Counter) -> TopKList:
        answer = parts[0]
        for part in parts[1:]:
            answer = top_k_merge(answer, part)
            counters["merges_performed"] += 1
        return answer

    def run_round(
        self, score_by_row, names: Sequence[str]
    ) -> Tuple[Dict[str, TopKList], Counter]:
        if self.cross_round:
            return self._run_cached(score_by_row, names)
        counters: Counter = Counter()
        answers: Dict[str, TopKList] = {}
        lists: Dict[int, TopKList] = {}
        for name in names:
            if name in self.trivial:
                answers[name] = self._trivial(name, score_by_row)
                counters["advertisers_scanned"] += 1
                continue
            parts = []
            for index in self.covers[name]:
                if index not in lists:
                    lists[index] = self._scan(index, score_by_row, counters)
                parts.append(lists[index])
            answers[name] = self._fold(parts, counters)
        return answers, counters

    def _trivial(self, name: str, score_by_row) -> TopKList:
        variable = self.trivial[name]
        return TopKList.singleton(
            self.k, float(score_by_row[self.store.row_of(variable)]), variable
        )

    def _run_cached(self, score_by_row, names):
        counters: Counter = Counter()
        scored = set()
        for name in names:
            if name in self.trivial:
                scored.add(self.store.row_of(self.trivial[name]))
            else:
                for index in self.covers[name]:
                    scored.update(int(row) for row in self.rows[index])
        for row in sorted(scored):
            score = float(score_by_row[row])
            if row in self.last and self.last[row] == score:
                continue
            self.last[row] = score
            self.epoch[row] += 1
            index = self.fragment_of_row.get(row)
            if index is None:
                continue
            if not self.dirty[index] and self.values[index] is not None:
                counters["nodes_invalidated"] += 1
            self.dirty[index] = True
        answers: Dict[str, TopKList] = {}
        for name in names:
            if name in self.trivial:
                row = self.store.row_of(self.trivial[name])
                cached = self.trivial_values.get(name)
                if cached is not None and cached[0] == self.epoch[row]:
                    answers[name] = cached[1]
                    counters["nodes_reused"] += 1
                    continue
                answer = self._trivial(name, score_by_row)
                self.trivial_values[name] = (self.epoch[row], answer)
                answers[name] = answer
                counters["advertisers_scanned"] += 1
                continue
            parts = []
            for index in self.covers[name]:
                if self.dirty[index] or self.values[index] is None:
                    self.values[index] = self._scan(
                        index, score_by_row, counters
                    )
                    self.dirty[index] = False
                else:
                    counters["nodes_reused"] += 1
                parts.append(self.values[index])
            ops = tuple(parts)
            previous = self.memo.get(name)
            if previous is not None and all(
                a is b for a, b in zip(previous[0], ops)
            ):
                answers[name] = previous[1]
                counters["nodes_revalidated"] += len(parts) - 1
                continue
            answers[name] = self._fold(parts, counters)
            self.memo[name] = (ops, answers[name])
        return answers, counters
