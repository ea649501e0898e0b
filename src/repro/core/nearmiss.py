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


def _drop_stale(window: List[AccessEvent], horizon: float) -> None:
    """Drop the leading events of a window whose first one is older
    than ``horizon`` (windows are timestamp-ordered)."""
    stale = 1
    while stale < len(window) and window[stale].timestamp < horizon:
        stale += 1
    del window[:stale]


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
        #: Per-object windows of the only openers (object id -> list):
        #: INITs, which a USE closes, and USEs, which a DISPOSE closes.
        #: Each is a timestamp-ordered subsequence of the object's
        #: recent events, pruned on every append; DISPOSEs open no
        #: pattern and are never stored. Lists, not deques: most hold
        #: one or two events, and a deque allocates a 64-slot block.
        self._inits: Dict[int, List[AccessEvent]] = {}
        self._uses: Dict[int, List[AccessEvent]] = {}
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
        access_type = event.access_type
        object_id = event.object_id
        if access_type is AccessType.UNSAFE_CALL or object_id < 0:
            # UNSAFE_CALLs are TsvNearMissTracker's. A faulting access
            # through a null reference carries no object identity; it
            # cannot participate in near-miss matching (the bug already
            # manifested anyway).
            return self._NO_PAIRS
        timestamp = event.timestamp
        horizon = timestamp - self.window_ms
        if access_type is AccessType.DISPOSE:
            # A DISPOSE closes only USE -> DISPOSE and opens nothing.
            window = self._uses.get(object_id)
            kind = CandidateKind.USE_AFTER_FREE
        else:
            table = self._inits if access_type is AccessType.INIT else self._uses
            own = table.get(object_id)
            if own is None:
                table[object_id] = [event]
            else:
                if own and own[0].timestamp < horizon:
                    _drop_stale(own, horizon)
                own.append(event)
            if access_type is AccessType.INIT:
                # No near-miss pattern ends in an INIT.
                return self._NO_PAIRS
            # A USE closes only INIT -> USE (CandidateKind.from_access_pair).
            window = self._inits.get(object_id)
            kind = CandidateKind.USE_BEFORE_INIT
        if window and window[0].timestamp < horizon:
            _drop_stale(window, horizon)
        if not window:
            return self._NO_PAIRS

        thread_id = event.thread_id
        order_filter = self.order_filter
        candidates = self.candidates
        on_pair = self.on_pair
        added: List[CandidatePair] = []
        for earlier in window:
            if earlier.thread_id == thread_id:
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
        return added

    def observe_all(self, events) -> CandidateSet:
        """Feed a whole (sorted) event sequence; returns the candidate set."""
        observe = self.observe
        for event in events:
            observe(event)
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
