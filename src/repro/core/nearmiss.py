"""Near-miss tracking.

The near-miss heuristic (paper sections 2 and 3.1) is the sole
candidate-*generation* mechanism of the whole tool family: two
operations form a candidate iff they touch the same object from
different threads within a physical-time window delta.

Patterns:

* MemOrder mode -- ``(INIT at tau1, USE at tau2)`` with
  ``0 <= tau2 - tau1 <= delta`` yields a use-before-initialization
  candidate delaying the INIT; ``(USE at tau1, DISPOSE at tau2)`` yields
  a use-after-free candidate delaying the USE.
* TSV mode (Tsvd baseline) -- two ``UNSAFE_CALL`` operations within
  delta of each other; both call sites become delay locations.

The tracker is incremental so the same code serves the offline trace
analysis (Waffle's preparation phase) and the online identification of
WaffleBasic/Tsvd (fed from ``after_access``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from .. import obs
from ..sim.instrument import AccessEvent, AccessType
from .candidates import CandidateKind, CandidatePair, CandidateSet, GapObservation

#: Optional filter deciding whether a would-be pair is already ordered
#: (and must be pruned). Receives (earlier_event, later_event); returns
#: True to prune. Waffle plugs its vector-clock comparison in here.
OrderFilter = Callable[[AccessEvent, AccessEvent], bool]

#: Callback fired when a pair is added; receives (pair, is_new).
PairSink = Callable[[CandidatePair, bool], None]

# Dense access-type codes for the batched sweeps: classifying an
# (earlier, later) pair becomes one table lookup instead of an enum
# method call. The table must agree with CandidateKind.from_access_pair.
_CODE_INIT = 0
_CODE_USE = 1
_CODE_DISPOSE = 2
_CODE_UNSAFE = 3
_ACCESS_CODE = {
    AccessType.INIT: _CODE_INIT,
    AccessType.USE: _CODE_USE,
    AccessType.DISPOSE: _CODE_DISPOSE,
    AccessType.UNSAFE_CALL: _CODE_UNSAFE,
}
_KIND_TABLE: List[Optional[CandidateKind]] = [None] * 16
_KIND_TABLE[_CODE_INIT * 4 + _CODE_USE] = CandidateKind.USE_BEFORE_INIT
_KIND_TABLE[_CODE_USE * 4 + _CODE_DISPOSE] = CandidateKind.USE_AFTER_FREE


class NearMissTracker:
    """Incremental MemOrder near-miss matching over an event stream."""

    def __init__(
        self,
        window_ms: float,
        candidates: Optional[CandidateSet] = None,
        order_filter: Optional[OrderFilter] = None,
        on_pair: Optional[PairSink] = None,
    ):
        if window_ms <= 0:
            raise ValueError("near-miss window must be positive")
        self.window_ms = window_ms
        self.candidates = candidates if candidates is not None else CandidateSet()
        self.order_filter = order_filter
        self.on_pair = on_pair
        #: Per-object recent-event windows (object id -> deque).
        self._recent: Dict[int, Deque[AccessEvent]] = {}
        #: Near-miss matches emitted over the tracker's lifetime (every
        #: (re)added pair vs. first-time-seen pairs only).
        self.pairs_observed: int = 0
        self.pairs_new: int = 0
        self._obs = obs.session()
        self._fr = obs.flightrec.recorder()

    #: Shared empty result so delay-free streams allocate nothing.
    _NO_PAIRS: List[CandidatePair] = []

    def observe(self, event: AccessEvent) -> List[CandidatePair]:
        """Feed one event (in timestamp order); returns pairs (re)added."""
        if event.access_type is AccessType.UNSAFE_CALL:
            return self._NO_PAIRS
        object_id = event.object_id
        if object_id < 0:
            # A faulting access through a null reference carries no
            # object identity; it cannot participate in near-miss
            # matching (the bug already manifested anyway).
            return self._NO_PAIRS
        recent = self._recent
        window = recent.get(object_id)
        if window is None:
            window = recent[object_id] = deque()
        timestamp = event.timestamp
        horizon = timestamp - self.window_ms
        while window and window[0].timestamp < horizon:
            window.popleft()

        access_type = event.access_type
        if not window or access_type is AccessType.INIT:
            # No near-miss pattern ends in an INIT.
            window.append(event)
            return self._NO_PAIRS

        # A USE closes only INIT -> USE, a DISPOSE only USE -> DISPOSE
        # (CandidateKind.from_access_pair).
        if access_type is AccessType.USE:
            opener, kind = AccessType.INIT, CandidateKind.USE_BEFORE_INIT
        else:
            opener, kind = AccessType.USE, CandidateKind.USE_AFTER_FREE
        thread_id = event.thread_id
        order_filter = self.order_filter
        candidates = self.candidates
        on_pair = self.on_pair
        added: List[CandidatePair] = []
        for earlier in window:
            if earlier.access_type is not opener or earlier.thread_id == thread_id:
                continue
            if order_filter is not None and order_filter(earlier, event):
                candidates.pruned_parent_child += 1
                if self._obs is not None:
                    self._obs.c_pruned_parent_child.inc()
                if self._fr is not None:
                    # The verdict plus the vector clocks that justify it
                    # (fork-ordered: vc(earlier) <= vc(later)).
                    self._fr.record(
                        "prune_parent_child", timestamp,
                        delay_site=earlier.location.site,
                        other_site=event.location.site,
                        vc_earlier={str(k): v for k, v in (earlier.vc_snapshot or {}).items()},
                        vc_later={str(k): v for k, v in (event.vc_snapshot or {}).items()},
                    )
                continue
            pair = CandidatePair(
                kind=kind,
                delay_location=earlier.location,
                other_location=event.location,
            )
            observation = GapObservation(
                gap_ms=timestamp - earlier.timestamp,
                timestamp_first=earlier.timestamp,
                timestamp_second=timestamp,
                object_id=object_id,
                thread_first=earlier.thread_id,
                thread_second=thread_id,
            )
            is_new = candidates.add(pair, observation)
            self.pairs_observed += 1
            if is_new:
                self.pairs_new += 1
            if self._obs is not None:
                self._obs.c_pairs_observed.inc()
                self._obs.h_gap_ms.observe(observation.gap_ms)
                if is_new:
                    self._obs.c_pairs_new.inc()
            if self._fr is not None:
                self._fr.record(
                    "near_miss", timestamp,
                    kind=kind.value,
                    delay_site=pair.delay_location.site,
                    other_site=pair.other_location.site,
                    gap_ms=round(observation.gap_ms, 4),
                    object_id=object_id,
                    new=is_new,
                )
            if on_pair is not None:
                on_pair(pair, is_new)
            added.append(pair)

        window.append(event)
        return added

    def observe_all(self, events) -> CandidateSet:
        """Feed a whole (sorted) event sequence; returns the candidate set."""
        observe = self.observe
        for event in events:
            observe(event)
        return self.candidates

    def observe_batch(self, events) -> CandidateSet:
        """Columnar sweep over a whole sorted event sequence.

        Bit-identical to feeding every event through :meth:`observe`:
        same candidate-set insertion order (events are swept in global
        time order, not object by object), same prune/pair counters,
        same flight-recorder records and callback sequence. The wins
        over the per-event path: timestamps/threads/access codes are
        extracted into parallel arrays once, per-object windows are
        (index-list, lo-pointer) pairs instead of deques, and objects
        that can never produce a candidate -- fewer than two events, a
        single thread, or no INIT-before-USE / USE-before-DISPOSE
        access combination -- are skipped without touching their events
        (skipping is observation-free: such events never fire a filter,
        counter or callback on the per-event path either).
        """
        ts: List[float] = []
        tids: List[int] = []
        codes: List[int] = []
        evs: List[AccessEvent] = []
        #: object id -> [event indices, cursor, window-lo] (cursor and
        #: lo index into the object's own index list).
        groups: Dict[int, List] = {}
        #: object id -> [first tid or -1 for many, seen-code bitmask].
        census: Dict[int, List[int]] = {}

        unsafe = AccessType.UNSAFE_CALL
        code_of = _ACCESS_CODE
        index = 0
        for event in events:
            access_type = event.access_type
            if access_type is unsafe:
                continue
            object_id = event.object_id
            if object_id < 0:
                continue
            code = code_of[access_type]
            ts.append(event.timestamp)
            tids.append(event.thread_id)
            codes.append(code)
            evs.append(event)
            group = groups.get(object_id)
            if group is None:
                groups[object_id] = [[index], 0, 0]
                census[object_id] = [event.thread_id, 1 << code]
            else:
                group[0].append(index)
                entry = census[object_id]
                if entry[0] != event.thread_id:
                    entry[0] = -1
                entry[1] |= 1 << code
            index += 1

        init_use = (1 << _CODE_INIT) | (1 << _CODE_USE)
        use_dispose = (1 << _CODE_USE) | (1 << _CODE_DISPOSE)
        active: Dict[int, List] = {}
        for object_id, (first_tid, mask) in census.items():
            group = groups[object_id]
            if len(group[0]) < 2 or first_tid != -1:
                continue
            if (mask & init_use) != init_use and (mask & use_dispose) != use_dispose:
                continue
            active[object_id] = group

        if not active:
            return self.candidates

        window_ms = self.window_ms
        kind_table = _KIND_TABLE
        order_filter = self.order_filter
        candidates = self.candidates
        cand_add = candidates.add
        on_pair = self.on_pair
        ses = self._obs
        fr = self._fr

        for j in range(index):
            event = evs[j]
            group = active.get(event.object_id)
            if group is None:
                continue
            idxs, pos, lo = group[0], group[1], group[2]
            tsj = ts[j]
            horizon = tsj - window_ms
            while lo < pos and ts[idxs[lo]] < horizon:
                lo += 1
            group[1] = pos + 1
            group[2] = lo
            if lo == pos:
                continue
            tidj = tids[j]
            codej = codes[j]
            for k in range(lo, pos):
                i = idxs[k]
                if tids[i] == tidj:
                    continue
                kind = kind_table[codes[i] * 4 + codej]
                if kind is None:
                    continue
                earlier = evs[i]
                if order_filter is not None and order_filter(earlier, event):
                    candidates.pruned_parent_child += 1
                    if ses is not None:
                        ses.c_pruned_parent_child.inc()
                    if fr is not None:
                        fr.record(
                            "prune_parent_child", tsj,
                            delay_site=earlier.location.site,
                            other_site=event.location.site,
                            vc_earlier={str(k2): v for k2, v in (earlier.vc_snapshot or {}).items()},
                            vc_later={str(k2): v for k2, v in (event.vc_snapshot or {}).items()},
                        )
                    continue
                pair = CandidatePair(
                    kind=kind,
                    delay_location=earlier.location,
                    other_location=event.location,
                )
                observation = GapObservation(
                    gap_ms=tsj - ts[i],
                    timestamp_first=ts[i],
                    timestamp_second=tsj,
                    object_id=event.object_id,
                    thread_first=tids[i],
                    thread_second=tidj,
                )
                is_new = cand_add(pair, observation)
                self.pairs_observed += 1
                if is_new:
                    self.pairs_new += 1
                if ses is not None:
                    ses.c_pairs_observed.inc()
                    ses.h_gap_ms.observe(observation.gap_ms)
                    if is_new:
                        ses.c_pairs_new.inc()
                if fr is not None:
                    fr.record(
                        "near_miss", tsj,
                        kind=kind.value,
                        delay_site=pair.delay_location.site,
                        other_site=pair.other_location.site,
                        gap_ms=round(observation.gap_ms, 4),
                        object_id=event.object_id,
                        new=is_new,
                    )
                if on_pair is not None:
                    on_pair(pair, is_new)
        return self.candidates


class TsvNearMissTracker:
    """Near-miss matching for thread-safety violations (Tsvd, section 2).

    Both locations of a TSV pair become delay locations: reversing
    either side can make the two call windows overlap.
    """

    def __init__(
        self,
        window_ms: float,
        candidates: Optional[CandidateSet] = None,
        on_pair: Optional[PairSink] = None,
    ):
        if window_ms <= 0:
            raise ValueError("near-miss window must be positive")
        self.window_ms = window_ms
        self.candidates = candidates if candidates is not None else CandidateSet()
        self.on_pair = on_pair
        self._recent: Dict[int, Deque[AccessEvent]] = {}
        self.pairs_observed: int = 0
        self.pairs_new: int = 0
        self._obs = obs.session()
        self._fr = obs.flightrec.recorder()

    def observe(self, event: AccessEvent) -> List[CandidatePair]:
        if event.access_type is not AccessType.UNSAFE_CALL:
            return NearMissTracker._NO_PAIRS
        recent = self._recent
        window = recent.get(event.object_id)
        if window is None:
            window = recent[event.object_id] = deque()
        horizon = event.timestamp - self.window_ms
        while window and window[0].timestamp < horizon:
            window.popleft()

        added: List[CandidatePair] = []
        for earlier in window:
            if earlier.thread_id == event.thread_id:
                continue
            observation = GapObservation(
                gap_ms=event.timestamp - earlier.timestamp,
                timestamp_first=earlier.timestamp,
                timestamp_second=event.timestamp,
                object_id=event.object_id,
                thread_first=earlier.thread_id,
                thread_second=event.thread_id,
            )
            for delay_loc, other_loc in (
                (earlier.location, event.location),
                (event.location, earlier.location),
            ):
                pair = CandidatePair(
                    kind=CandidateKind.THREAD_SAFETY,
                    delay_location=delay_loc,
                    other_location=other_loc,
                )
                is_new = self.candidates.add(pair, observation)
                self.pairs_observed += 1
                if is_new:
                    self.pairs_new += 1
                if self._obs is not None:
                    self._obs.c_pairs_observed.inc()
                    self._obs.h_gap_ms.observe(observation.gap_ms)
                    if is_new:
                        self._obs.c_pairs_new.inc()
                if self._fr is not None:
                    self._fr.record(
                        "near_miss", event.timestamp,
                        kind=pair.kind.value,
                        delay_site=delay_loc.site,
                        other_site=other_loc.site,
                        gap_ms=round(observation.gap_ms, 4),
                        object_id=event.object_id,
                        new=is_new,
                    )
                if self.on_pair is not None:
                    self.on_pair(pair, is_new)
                added.append(pair)

        window.append(event)
        return added

    def observe_all(self, events) -> CandidateSet:
        observe = self.observe
        for event in events:
            observe(event)
        return self.candidates

    def observe_batch(self, events) -> CandidateSet:
        """Columnar TSV sweep, bit-identical to per-event observe().

        Mirrors :meth:`NearMissTracker.observe_batch`; the activity
        prefilter here is simpler (two UNSAFE_CALL events from two
        threads on the same object).
        """
        ts: List[float] = []
        tids: List[int] = []
        evs: List[AccessEvent] = []
        groups: Dict[int, List] = {}
        census: Dict[int, int] = {}

        unsafe = AccessType.UNSAFE_CALL
        index = 0
        for event in events:
            if event.access_type is not unsafe:
                continue
            object_id = event.object_id
            ts.append(event.timestamp)
            tids.append(event.thread_id)
            evs.append(event)
            group = groups.get(object_id)
            if group is None:
                groups[object_id] = [[index], 0, 0]
                census[object_id] = event.thread_id
            else:
                group[0].append(index)
                if census[object_id] != event.thread_id:
                    census[object_id] = -1
            index += 1

        active: Dict[int, List] = {
            object_id: groups[object_id]
            for object_id, first_tid in census.items()
            if first_tid == -1
        }
        if not active:
            return self.candidates

        window_ms = self.window_ms
        candidates = self.candidates
        cand_add = candidates.add
        on_pair = self.on_pair
        ses = self._obs
        fr = self._fr

        for j in range(index):
            event = evs[j]
            group = active.get(event.object_id)
            if group is None:
                continue
            idxs, pos, lo = group[0], group[1], group[2]
            tsj = ts[j]
            horizon = tsj - window_ms
            while lo < pos and ts[idxs[lo]] < horizon:
                lo += 1
            group[1] = pos + 1
            group[2] = lo
            if lo == pos:
                continue
            tidj = tids[j]
            for k in range(lo, pos):
                i = idxs[k]
                if tids[i] == tidj:
                    continue
                earlier = evs[i]
                observation = GapObservation(
                    gap_ms=tsj - ts[i],
                    timestamp_first=ts[i],
                    timestamp_second=tsj,
                    object_id=event.object_id,
                    thread_first=tids[i],
                    thread_second=tidj,
                )
                for delay_loc, other_loc in (
                    (earlier.location, event.location),
                    (event.location, earlier.location),
                ):
                    pair = CandidatePair(
                        kind=CandidateKind.THREAD_SAFETY,
                        delay_location=delay_loc,
                        other_location=other_loc,
                    )
                    is_new = cand_add(pair, observation)
                    self.pairs_observed += 1
                    if is_new:
                        self.pairs_new += 1
                    if ses is not None:
                        ses.c_pairs_observed.inc()
                        ses.h_gap_ms.observe(observation.gap_ms)
                        if is_new:
                            ses.c_pairs_new.inc()
                    if fr is not None:
                        fr.record(
                            "near_miss", tsj,
                            kind=pair.kind.value,
                            delay_site=delay_loc.site,
                            other_site=other_loc.site,
                            gap_ms=round(observation.gap_ms, 4),
                            object_id=event.object_id,
                            new=is_new,
                        )
                    if on_pair is not None:
                        on_pair(pair, is_new)
        return self.candidates
