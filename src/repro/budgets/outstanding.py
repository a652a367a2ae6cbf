"""Outstanding ads and click-probability decay.

An *outstanding ad* has been displayed but neither clicked nor expired:
the advertiser may still owe its price ``π_j`` with probability
``ctr_j``.  The paper makes no assumption about ``ctr_j`` but notes it is
reasonable to model it as decreasing with the time since display and
reaching zero after a limit, which lets old outstanding ads be discarded.
Three decay models are provided; all satisfy that contract.

Two containers hold outstanding ads.  :class:`OutstandingLedger` is one
advertiser's ledger of validated :class:`OutstandingAd` values, re-decayed
on every prune and snapshot: the library class, and the differential
oracle for the engine's book.  :class:`OutstandingBook` holds every
advertiser's ads in one book whose per-operation cost is proportional to
what changed, not to the population:

- prices and CTRs are validated once, when the display is recorded --
  a whole round's displays at a time (:func:`checked_displays`), and a
  round's ads land in the book in one call
  (:meth:`OutstandingBook.record_batch`);
- each ad's *deadline* -- the first round at which its click probability
  is zero -- is computed once, at display, and the ad is filed in that
  round's bucket, so expiring a round pops the due buckets and touches
  only the ads that die (never the live ones, nor the rounds a clock jump
  skips);
- under :class:`NoDecay` a live ad's ``ctr_j`` is its base CTR, so the
  throttle snapshot is the stored ``(π_j, ctr_j)`` pairs, read in ledger
  order with no decay call and no re-validation.

Money is handled in integer *cents* throughout this package: the paper's
exact algorithm is ``O(min(2^l, β))`` "assuming that β is written in the
lowest denomination of currency", and integer arithmetic keeps the DP
exact.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.errors import BudgetError

try:  # pragma: no cover - numpy ships with the package
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = [
    "ClickDecayModel",
    "NoDecay",
    "GeometricDecay",
    "ExponentialDecay",
    "OutstandingAd",
    "OutstandingBook",
    "OutstandingLedger",
    "checked_cents",
    "checked_displays",
]


def checked_cents(value, what: str) -> int:
    """``value`` as an ``int`` amount of cents, or :class:`BudgetError`.

    Money enters the books at a few entry points (budgets, display
    prices, click prices); each rejects negative, non-integral and
    non-finite amounts here rather than letting a NaN or a negative
    price slip into spend or a throttle problem.
    """
    try:
        cents = int(value)
    except (TypeError, ValueError, OverflowError):
        raise BudgetError(f"{what} must be whole cents, got {value!r}") from None
    if cents != value or cents < 0:
        raise BudgetError(f"{what} must be whole non-negative cents, got {value!r}")
    return cents


def checked_displays(
    advertiser_ids: Sequence[int],
    prices_cents: Sequence[int],
    ctrs: Sequence[float],
) -> Tuple[List[int], List[int], List[float]]:
    """Validate a batch of displays; returns it as three Python lists.

    The arrays must be parallel and one-dimensional, every price whole
    non-negative cents (:func:`checked_cents`) and every CTR in ``[0,
    1]`` (NaN rejected).  Integer price arrays and float CTR arrays are
    checked with one vectorized comparison each; anything else goes
    through :func:`checked_cents` element by element.  The returned
    prices are ``int`` and the CTRs ``float``, exactly what the
    one-display path stores.

    Raises:
        BudgetError: On the first offending entry; nothing is returned.
    """
    ids = np.asarray(advertiser_ids)
    prices = np.asarray(prices_cents)
    try:
        rates = np.asarray(ctrs, dtype=np.float64)
    except (TypeError, ValueError):
        raise BudgetError(f"CTRs must be numbers, got {ctrs!r}") from None
    if not (
        ids.ndim == prices.ndim == rates.ndim == 1
        and len(ids) == len(prices) == len(rates)
    ):
        raise BudgetError(
            "a display batch is three parallel one-dimensional arrays "
            "(advertisers, prices, CTRs)"
        )
    if prices.dtype.kind in "iu" and (not len(prices) or prices.min() >= 0):
        price_list = prices.tolist()
    else:
        price_list = [checked_cents(price, "price") for price in prices.tolist()]
    rate_list = rates.tolist()
    # NaN fails both comparisons, so it never passes as in range.
    if len(rates) and not (rates.min() >= 0.0 and rates.max() <= 1.0):
        bad = next(rate for rate in rate_list if not 0.0 <= rate <= 1.0)
        raise BudgetError(f"CTR must be in [0, 1], got {bad}")
    return ids.tolist(), price_list, rate_list


class ClickDecayModel(Protocol):
    """Maps a base click probability and elapsed time to current ``ctr_j``.

    The probability must be non-increasing in the elapsed time (the
    built-in models are): :class:`OutstandingBook` files each ad under
    the first round its probability reaches zero.
    """

    def probability(self, base_ctr: float, elapsed_rounds: int) -> float:
        """Current probability the outstanding ad still gets clicked."""
        ...

    @property
    def horizon(self) -> int:
        """Rounds after which the probability is exactly zero.

        A horizon lets the ledger discard ads that have received no
        click in a long time, as the paper suggests.
        """
        ...


@dataclass(frozen=True)
class NoDecay:
    """Click probability stays at the base CTR until the horizon."""

    horizon: int = 1_000_000

    def probability(self, base_ctr: float, elapsed_rounds: int) -> float:
        if elapsed_rounds >= self.horizon:
            return 0.0
        return base_ctr


@dataclass(frozen=True)
class GeometricDecay:
    """Each elapsed round multiplies the click probability by ``ratio``."""

    ratio: float = 0.5
    horizon: int = 32

    def __post_init__(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise BudgetError(f"decay ratio must be in [0, 1], got {self.ratio}")
        if self.horizon <= 0:
            raise BudgetError("decay horizon must be positive")

    def probability(self, base_ctr: float, elapsed_rounds: int) -> float:
        if elapsed_rounds >= self.horizon:
            return 0.0
        return base_ctr * self.ratio**elapsed_rounds


@dataclass(frozen=True)
class ExponentialDecay:
    """Continuous-rate decay ``exp(-rate * elapsed)`` with a hard horizon."""

    rate: float = 0.3
    horizon: int = 32

    def __post_init__(self) -> None:
        if self.rate < 0.0:
            raise BudgetError(f"decay rate must be non-negative, got {self.rate}")
        if self.horizon <= 0:
            raise BudgetError("decay horizon must be positive")

    def probability(self, base_ctr: float, elapsed_rounds: int) -> float:
        if elapsed_rounds >= self.horizon:
            return 0.0
        return base_ctr * math.exp(-self.rate * elapsed_rounds)


@dataclass(frozen=True)
class OutstandingAd:
    """One displayed-but-unresolved ad.

    Attributes:
        price_cents: ``π_j`` -- the price (in cents) the advertiser will
            pay if the ad is clicked.
        base_ctr: Click probability at display time.
        displayed_round: Round index when the ad was shown.
        handle: Ledger-assigned identity (``compare=False``: two ads
            with the same price/CTR/round are still *equal as values*;
            the handle exists so settlement can name one of them
            unambiguously).  ``-1`` for ads constructed outside a
            ledger.
    """

    price_cents: int
    base_ctr: float
    displayed_round: int = 0
    handle: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.price_cents < 0:
            raise BudgetError(f"price must be non-negative, got {self.price_cents}")
        if not 0.0 <= self.base_ctr <= 1.0:
            raise BudgetError(f"CTR must be in [0, 1], got {self.base_ctr}")

    def current_ctr(self, decay: ClickDecayModel, current_round: int) -> float:
        """``ctr_j`` given the time elapsed since display."""
        elapsed = max(0, current_round - self.displayed_round)
        return decay.probability(self.base_ctr, elapsed)


class OutstandingLedger:
    """Per-advertiser bookkeeping of outstanding ads.

    Ads live in an insertion-ordered table keyed by a monotonically
    increasing *handle*.  :meth:`record_display` returns the ad carrying
    its handle, and :meth:`resolve_handle` removes exactly that ad in
    O(1) -- the identity settlement needs when an advertiser holds two
    value-equal ads (same price, CTR, and display round) of which only
    one was clicked.  :meth:`resolve` remains for callers holding an ad
    *value*: it prefers the carried handle and falls back to a
    first-equal scan for hand-constructed ads.

    Attributes:
        decay: The click-decay model applied to all ads in the ledger.
    """

    def __init__(self, decay: ClickDecayModel | None = None) -> None:
        self.decay: ClickDecayModel = decay if decay is not None else NoDecay()
        self._ads: "OrderedDict[int, OutstandingAd]" = OrderedDict()
        self._next_handle = 0

    @property
    def ads(self) -> List[OutstandingAd]:
        """The live outstanding ads, oldest first (a fresh list)."""
        return list(self._ads.values())

    def record_display(
        self, price_cents: int, base_ctr: float, round_index: int
    ) -> OutstandingAd:
        """Add a newly displayed ad and return it (carrying its handle)."""
        handle = self._next_handle
        self._next_handle += 1
        ad = OutstandingAd(price_cents, base_ctr, round_index, handle=handle)
        self._ads[handle] = ad
        return ad

    def has_handle(self, handle: int) -> bool:
        """Whether an ad with this identity is still outstanding."""
        return handle in self._ads

    def resolve_handle(self, handle: int) -> OutstandingAd:
        """Remove and return the ad with this identity, in O(1).

        Raises:
            BudgetError: If no outstanding ad has this handle (already
                settled, expired, or never recorded here).
        """
        ad = self._ads.pop(handle, None)
        if ad is None:
            raise BudgetError(
                f"no outstanding ad with handle {handle} in this ledger"
            )
        return ad

    def resolve(self, ad: OutstandingAd) -> None:
        """Remove an ad that was clicked (debt settled) or cancelled.

        An ad returned by :meth:`record_display` resolves by its handle;
        a hand-constructed ad (``handle == -1`` or foreign) falls back
        to removing the first value-equal entry -- ambiguous when
        duplicates exist, which is exactly why the engine threads
        handles instead.
        """
        if ad.handle in self._ads:
            del self._ads[ad.handle]
            return
        for handle, candidate in self._ads.items():
            if candidate == ad:
                del self._ads[handle]
                return
        raise BudgetError("ad is not outstanding in this ledger")

    def prune(self, current_round: int) -> int:
        """Drop ads whose click probability has decayed to zero.

        Returns the number of ads discarded.
        """
        dead = [
            handle
            for handle, ad in self._ads.items()
            if ad.current_ctr(self.decay, current_round) <= 0.0
        ]
        for handle in dead:
            del self._ads[handle]
        return len(dead)

    def snapshot(self, current_round: int) -> List[Tuple[int, float]]:
        """The ``(π_j, ctr_j)`` pairs for the throttling computation.

        Ads with zero current probability are omitted (they contribute
        nothing to ``S_l``).
        """
        out: List[Tuple[int, float]] = []
        for ad in self._ads.values():
            ctr = ad.current_ctr(self.decay, current_round)
            if ctr > 0.0:
                out.append((ad.price_cents, ctr))
        return out

    def max_liability_cents(self, current_round: int) -> int:
        """``ω_l`` -- the worst-case total still owed."""
        return sum(price for price, _ in self.snapshot(current_round))

    def expected_liability_cents(self, current_round: int) -> float:
        """``μ_l = E[S_l]`` -- the expected total still owed."""
        return sum(price * ctr for price, ctr in self.snapshot(current_round))

    def __len__(self) -> int:
        return len(self._ads)


_DUE_ON_ANY_ROUND = -math.inf
"""Deadline of an ad whose probability is zero already at display: the
ledger prunes it on any expiry round, even one before the display."""


class OutstandingBook:
    """Every advertiser's outstanding ads in one book.

    Storage is one insertion-ordered ``handle -> (price_cents,
    base_ctr)`` table per debt-carrying advertiser (an emptied table is
    dropped) and one ``handle -> displayed_round`` map; handles come
    from one counter, so they are globally unique and never reused.
    Each ad is also filed under its :meth:`deadline` in a bucket
    ``deadline -> [(advertiser, handle)]``, with the bucket deadlines on
    a min-heap.  Settling removes the ad's entries only; the bucket
    keeps a stale reference that expiry skips.

    Observably the book is one :class:`OutstandingLedger` per advertiser
    sharing ``decay``: the same live ads in the same order, the same
    expiry counts for any round sequence (the clock may jump or run
    backwards), and the same throttle snapshots.  Exactness rests on the
    decay model being non-increasing in elapsed time: an ad is then
    alive at round ``r`` exactly when ``r`` is below its deadline, which
    is what the bucket heap and the :meth:`constant_debts` shortcut test.

    Args:
        decay: The click-decay model applied to every ad.
    """

    def __init__(self, decay: ClickDecayModel | None = None) -> None:
        self.decay: ClickDecayModel = decay if decay is not None else NoDecay()
        self._constant = isinstance(self.decay, NoDecay)
        self._tables: Dict[int, Dict[int, Tuple[int, float]]] = {}
        self._shown: Dict[int, int] = {}
        # Per advertiser: the price total of the live ads with a positive
        # price and CTR (ω_l under NoDecay), and the count of the others,
        # which are outstanding but never enter a throttle problem.
        self._liability: Dict[int, int] = {}
        self._inert: Dict[int, int] = {}
        self._buckets: Dict[float, List[Tuple[int, int]]] = {}
        self._deadlines: List[float] = []
        self._next_handle = 0
        self._clock: Optional[int] = None
        self._handles_at_clock = 0

    def deadline(self, base_ctr: float, displayed_round: int) -> float:
        """The first round at which the ad's click probability is zero.

        :class:`NoDecay` answers in closed form; a decaying model is
        bisected over elapsed rounds ``[0, horizon]``, where the
        probability is zero by the model's contract.
        """
        decay = self.decay
        if self._constant:
            horizon = decay.horizon
            dead_at = horizon if base_ctr > 0.0 and horizon > 0 else 0
        elif decay.probability(base_ctr, 0) <= 0.0:
            dead_at = 0
        else:
            alive_at, dead_at = 0, decay.horizon
            while dead_at - alive_at > 1:
                middle = (alive_at + dead_at) // 2
                if decay.probability(base_ctr, middle) <= 0.0:
                    dead_at = middle
                else:
                    alive_at = middle
        return displayed_round + dead_at if dead_at > 0 else _DUE_ON_ANY_ROUND

    def record(
        self,
        advertiser_id: int,
        price_cents: int,
        base_ctr: float,
        round_index: int,
    ) -> int:
        """Validate and add one displayed ad; returns its handle.

        Raises:
            BudgetError: If the price is not whole non-negative cents or
                the CTR is outside ``[0, 1]`` (NaN included).
        """
        price = checked_cents(price_cents, "price")
        if not 0.0 <= base_ctr <= 1.0:
            raise BudgetError(f"CTR must be in [0, 1], got {base_ctr}")
        return self.record_batch(
            [advertiser_id], [price], [float(base_ctr)], round_index
        )[0]

    def record_batch(
        self,
        advertiser_ids: Sequence[int],
        prices_cents: Sequence[int],
        base_ctrs: Sequence[float],
        round_index: int,
    ) -> range:
        """Add a round's displayed ads, already validated; their handles.

        The inputs are what :func:`checked_displays` returns: ``int``
        prices, ``float`` CTRs in ``[0, 1]``.  Ads are added in order
        and take consecutive handles.  Under :class:`NoDecay` every ad
        with a positive CTR shares one deadline, so the batch is filed
        in one bucket with one extend.
        """
        first = self._next_handle
        handles = range(first, first + len(advertiser_ids))
        if not handles:
            return handles
        self._next_handle = handles.stop
        tables = self._tables
        liability = self._liability
        inert = self._inert
        for advertiser_id, handle, price, ctr in zip(
            advertiser_ids, handles, prices_cents, base_ctrs
        ):
            table = tables.get(advertiser_id)
            if table is None:
                table = tables[advertiser_id] = {}
            table[handle] = (price, ctr)
            if price and ctr:
                liability[advertiser_id] = liability.get(advertiser_id, 0) + price
            else:
                inert[advertiser_id] = inert.get(advertiser_id, 0) + 1
        self._shown.update(dict.fromkeys(handles, round_index))
        if self._constant and all(base_ctrs):
            self._file(
                self.deadline(1.0, round_index), zip(advertiser_ids, handles)
            )
        else:
            for advertiser_id, handle, ctr in zip(
                advertiser_ids, handles, base_ctrs
            ):
                self._file(
                    self.deadline(ctr, round_index), ((advertiser_id, handle),)
                )
        return handles

    def _file(self, due: float, entries) -> None:
        """File ``(advertiser, handle)`` entries under deadline ``due``."""
        bucket = self._buckets.get(due)
        if bucket is None:
            bucket = self._buckets[due] = []
            heapq.heappush(self._deadlines, due)
        bucket.extend(entries)

    def _remove(self, advertiser_id: int, table: dict, handle: int) -> None:
        price, ctr = table.pop(handle)
        del self._shown[handle]
        if not table:
            del self._tables[advertiser_id]
        totals, amount = (
            (self._liability, price) if price and ctr else (self._inert, 1)
        )
        left = totals.pop(advertiser_id) - amount
        if left:
            totals[advertiser_id] = left

    def resolve(self, advertiser_id: int, handle: int) -> bool:
        """Remove the advertiser's ad with this handle, if still live."""
        table = self._tables.get(advertiser_id)
        if table is None or handle not in table:
            return False
        self._remove(advertiser_id, table, handle)
        return True

    def resolve_first(
        self, advertiser_id: int, price_cents: int, displayed_round: int
    ) -> bool:
        """Remove the advertiser's oldest ad with this price and round."""
        table = self._tables.get(advertiser_id)
        if table is None:
            return False
        for handle, (price, _) in table.items():
            if price == price_cents and self._shown[handle] == displayed_round:
                self._remove(advertiser_id, table, handle)
                return True
        return False

    def expire(self, round_index: int) -> Dict[int, int]:
        """Drop every ad due at ``round_index``; per-advertiser counts.

        Pops the buckets whose deadline is at or before the round, so
        the cost is the number of ads filed there -- live or already
        settled -- however far the clock moved.
        """
        self._clock = round_index
        self._handles_at_clock = self._next_handle
        deadlines = self._deadlines
        tables = self._tables
        expired: Dict[int, int] = {}
        while deadlines and deadlines[0] <= round_index:
            for advertiser_id, handle in self._buckets.pop(
                heapq.heappop(deadlines)
            ):
                table = tables.get(advertiser_id)
                if table is not None and handle in table:
                    self._remove(advertiser_id, table, handle)
                    expired[advertiser_id] = expired.get(advertiser_id, 0) + 1
        return expired

    def constant_debts(
        self, advertiser_id: int, round_index: int
    ) -> Optional[Tuple[Tuple[Tuple[int, float], ...], int]]:
        """The throttle snapshot and ``ω_l`` without decay calls.

        Under :class:`NoDecay`, before the earliest filed deadline,
        every live ad's ``ctr_j`` is its base CTR: the snapshot is the
        stored pairs with a positive price and CTR, in ledger order --
        already the cleaned ``outstanding`` of a
        :class:`repro.budgets.throttle.ThrottleProblem`, and usually the
        table's values verbatim -- and ``ω_l`` is their price total,
        kept as ads come and go.  ``None`` when the shortcut does not
        apply (a decaying model, or a round at or past some deadline
        that has not been expired).
        """
        if not self._constant or (
            self._deadlines and self._deadlines[0] <= round_index
        ):
            return None
        table = self._tables.get(advertiser_id)
        if table is None:
            return (), 0
        if advertiser_id in self._inert:
            pairs = tuple([pair for pair in table.values() if pair[0] and pair[1]])
        else:
            pairs = tuple(table.values())
        return pairs, self._liability.get(advertiser_id, 0)

    def snapshot(
        self, advertiser_id: int, round_index: int
    ) -> List[Tuple[int, float]]:
        """``(π_j, ctr_j)`` at ``round_index`` for ads with ``ctr_j > 0``.

        The decay model is evaluated per live ad, exactly as
        :meth:`OutstandingLedger.snapshot` does.
        """
        table = self._tables.get(advertiser_id)
        if table is None:
            return []
        probability = self.decay.probability
        shown = self._shown
        out: List[Tuple[int, float]] = []
        for handle, (price, base_ctr) in table.items():
            ctr = probability(base_ctr, max(0, round_index - shown[handle]))
            if ctr > 0.0:
                out.append((price, ctr))
        return out

    def counts(self) -> Dict[int, int]:
        """Live ads per debt-carrying advertiser."""
        return {
            advertiser_id: len(table)
            for advertiser_id, table in self._tables.items()
        }

    def check_invariants(self) -> None:
        """Raise :class:`BudgetError` if the book's structure is broken.

        Every live ad is filed exactly once, under its own deadline, in
        a bucket whose deadline is on the heap; the round map and the
        per-advertiser totals match the tables, and no emptied table lingers; no
        ad live at the last expiry is at or past its deadline on that
        clock (ads recorded since then may be: they are due at the next
        expiry).
        """
        problems: List[str] = []
        if sorted(self._deadlines) != sorted(self._buckets):
            problems.append("bucket deadlines and heap disagree")
        filed: Counter = Counter()
        for due, bucket in self._buckets.items():
            for advertiser_id, handle in bucket:
                pair = self._tables.get(advertiser_id, {}).get(handle)
                if pair is None:
                    continue
                filed[advertiser_id, handle] += 1
                if self.deadline(pair[1], self._shown[handle]) != due:
                    problems.append(f"ad {handle} filed under the wrong deadline")
                if (
                    self._clock is not None
                    and handle < self._handles_at_clock
                    and due <= self._clock
                ):
                    problems.append(
                        f"ad {handle} is live past its deadline {due} "
                        f"on expiry clock {self._clock}"
                    )
        liability: Counter = Counter()
        inert: Counter = Counter()
        for advertiser_id, table in self._tables.items():
            if not table:
                problems.append(f"advertiser {advertiser_id} keeps an empty table")
            for handle, (price, ctr) in table.items():
                if price and ctr:
                    liability[advertiser_id] += price
                else:
                    inert[advertiser_id] += 1
                if filed[advertiser_id, handle] != 1:
                    problems.append(
                        f"ad {handle} of advertiser {advertiser_id} is filed "
                        f"{filed[advertiser_id, handle]} times"
                    )
        if liability != Counter(self._liability) or inert != Counter(self._inert):
            problems.append("liability or inert totals disagree with the tables")
        if len(self._shown) != sum(map(len, self._tables.values())):
            problems.append("display rounds disagree with the tables")
        if problems:
            raise BudgetError("outstanding book broken: " + "; ".join(problems))
