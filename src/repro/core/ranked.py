"""Many best-first rankings in one flat table.

A round of the engine answers up to a few hundred phrase auctions, each
with a top-``(k + 1)`` ranking.  Kept as one :class:`TopKList` object per
answer, every downstream step -- GSP pricing, allocation, display
recording -- turns into a Python loop over winners.  :class:`RankedTable`
keeps the whole round's rankings as two flat arrays (``scores``, ``ids``)
plus one ``(start, length)`` run per ranking, so those steps run as
array operations over every slot of every auction at once
(:func:`repro.engine.allocation.gsp_allocate`).  :class:`TopKList`
objects are built only for callers that want them
(:meth:`RankedTable.rankings`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import List, Sequence, Tuple

from repro.core.columnar import require_numpy
from repro.core.topk import ScoredAdvertiser, TopKList

try:  # pragma: no cover - numpy ships with the package
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["RankedTable", "expand_runs"]


def expand_runs(starts, lengths) -> Tuple["np.ndarray", "np.ndarray"]:
    """Flat positions of the runs ``[starts[i], starts[i] + lengths[i])``.

    Returns ``(positions, owner)``: the runs' positions concatenated in
    order, and for each position the index ``i`` of its run.
    """
    if len(lengths) == 1:
        # One run (a served query): skip the repeat/cumsum machinery.
        start = int(starts[0])
        size = int(lengths[0])
        return np.arange(start, start + size), np.zeros(size, dtype=np.int64)
    owner = np.repeat(np.arange(len(lengths)), lengths)
    offsets = starts - np.cumsum(lengths) + lengths
    positions = np.arange(len(owner))
    positions += offsets[owner]
    return positions, owner


@dataclass(frozen=True, eq=False)
class RankedTable:
    """Rankings stored as runs of two flat arrays.

    Ranking ``r`` is the entries ``start[r] .. start[r] + length[r] - 1``
    of ``scores`` / ``ids``, best first (higher score, ties by lower id),
    with at most ``k`` entries and no id twice -- exactly the entries of
    a :class:`TopKList` of capacity ``k``.  Runs may share entries (two
    phrases answered by one query point at one run).

    Attributes:
        k: Capacity of every ranking.
        scores: float64 entry scores.
        ids: Parallel int64 advertiser ids.
        start: int64 first flat position per ranking.
        length: int64 entry count per ranking.
    """

    k: int
    scores: "np.ndarray"
    ids: "np.ndarray"
    start: "np.ndarray"
    length: "np.ndarray"

    @classmethod
    def from_lists(cls, k: int, lists: Sequence[TopKList]) -> "RankedTable":
        """One run per list, in order."""
        require_numpy()
        entries = list(chain.from_iterable(ranking.entries for ranking in lists))
        sizes = [len(ranking.entries) for ranking in lists]
        return cls(
            k,
            np.array([entry.score for entry in entries], dtype=np.float64),
            np.array(
                [entry.advertiser_id for entry in entries], dtype=np.int64
            ),
            np.array(list(accumulate(sizes, initial=0))[:-1], dtype=np.int64),
            np.array(sizes, dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.start)

    def take(self, indices) -> "RankedTable":
        """The rankings at ``indices``, in that order (entries shared)."""
        return RankedTable(
            self.k, self.scores, self.ids, self.start[indices],
            self.length[indices],
        )

    def rankings(self) -> List[TopKList]:
        """Every ranking as a :class:`TopKList`, in order."""
        scores = self.scores.tolist()
        ids = self.ids.tolist()
        lists: List[TopKList] = []
        for begin, size in zip(self.start.tolist(), self.length.tolist()):
            end = begin + size
            lists.append(
                TopKList.from_ranked(
                    self.k,
                    tuple(map(ScoredAdvertiser, scores[begin:end], ids[begin:end])),
                )
            )
        return lists
