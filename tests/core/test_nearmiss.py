"""Near-miss tracking: the candidate-generation heuristic."""

from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.candidates import CandidateKind, CandidatePair, GapObservation
from repro.core.nearmiss import NearMissTracker, TsvNearMissTracker
from repro.sim.instrument import AccessEvent, AccessType, Location


def ev(site, access, oid=1, tid=1, ts=0.0):
    return AccessEvent(
        location=Location(site),
        access_type=access,
        object_id=oid,
        thread_id=tid,
        timestamp=ts,
    )


class TestMemOrderNearMiss:
    def test_init_use_within_window_makes_ubi_pair(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        added = tracker.observe(ev("use", AccessType.USE, tid=2, ts=50.0))
        assert len(added) == 1
        pair = added[0]
        assert pair.kind is CandidateKind.USE_BEFORE_INIT
        assert pair.delay_location.site == "init"
        assert pair.other_location.site == "use"

    def test_use_dispose_within_window_makes_uaf_pair(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("use", AccessType.USE, tid=1, ts=0.0))
        added = tracker.observe(ev("dispose", AccessType.DISPOSE, tid=2, ts=20.0))
        assert added[0].kind is CandidateKind.USE_AFTER_FREE
        assert added[0].delay_location.site == "use"

    def test_same_thread_never_pairs(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        assert tracker.observe(ev("use", AccessType.USE, tid=1, ts=10.0)) == []

    def test_different_objects_never_pair(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, oid=1, tid=1, ts=0.0))
        assert tracker.observe(ev("use", AccessType.USE, oid=2, tid=2, ts=10.0)) == []

    def test_outside_window_never_pairs(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        assert tracker.observe(ev("use", AccessType.USE, tid=2, ts=150.0)) == []

    def test_boundary_inclusive(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        assert len(tracker.observe(ev("use", AccessType.USE, tid=2, ts=100.0))) == 1

    def test_faulting_event_skipped(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        assert tracker.observe(ev("use", AccessType.USE, oid=-1, tid=2, ts=10.0)) == []

    def test_unsafe_calls_ignored(self):
        tracker = NearMissTracker(window_ms=100.0)
        assert tracker.observe(ev("c", AccessType.UNSAFE_CALL, tid=1, ts=0.0)) == []

    def test_gap_observation_recorded(self):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=10.0))
        (pair,) = tracker.observe(ev("use", AccessType.USE, tid=2, ts=35.0))
        assert tracker.candidates.max_gap(pair) == pytest.approx(25.0)

    def test_order_filter_prunes_and_counts(self):
        tracker = NearMissTracker(window_ms=100.0, order_filter=lambda a, b: True)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        assert tracker.observe(ev("use", AccessType.USE, tid=2, ts=10.0)) == []
        assert tracker.candidates.pruned_parent_child == 1

    def test_on_pair_callback_new_flag(self):
        calls = []
        tracker = NearMissTracker(window_ms=100.0, on_pair=lambda p, new: calls.append(new))
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        tracker.observe(ev("use", AccessType.USE, tid=2, ts=10.0))
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=20.0))
        tracker.observe(ev("use", AccessType.USE, tid=2, ts=30.0))
        # The final use pairs with BOTH init instances still inside the
        # window (same static pair, so is_new only the first time).
        assert calls == [True, False, False]

    def test_observe_all_sorted_stream(self):
        events = [
            ev("init", AccessType.INIT, tid=1, ts=0.0),
            ev("use", AccessType.USE, tid=2, ts=5.0),
            ev("dispose", AccessType.DISPOSE, tid=1, ts=9.0),
        ]
        candidates = NearMissTracker(window_ms=100.0).observe_all(events)
        kinds = {p.kind for p in candidates}
        assert kinds == {CandidateKind.USE_BEFORE_INIT, CandidateKind.USE_AFTER_FREE}

    def test_window_eviction(self):
        tracker = NearMissTracker(window_ms=10.0)
        for i in range(100):
            tracker.observe(ev("use%d" % i, AccessType.USE, tid=1, ts=float(i)))
        assert len(tracker._uses[1]) <= 12

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            NearMissTracker(window_ms=0.0)

    @given(gap=st.floats(min_value=0.0, max_value=99.9))
    def test_any_in_window_gap_pairs(self, gap):
        tracker = NearMissTracker(window_ms=100.0)
        tracker.observe(ev("init", AccessType.INIT, tid=1, ts=0.0))
        added = tracker.observe(ev("use", AccessType.USE, tid=2, ts=gap))
        assert len(added) == 1
        assert tracker.candidates.max_gap(added[0]) == pytest.approx(gap)


class TestTsvNearMiss:
    def test_pair_added_in_both_directions(self):
        tracker = TsvNearMissTracker(window_ms=100.0)
        tracker.observe(ev("a", AccessType.UNSAFE_CALL, tid=1, ts=0.0))
        added = tracker.observe(ev("b", AccessType.UNSAFE_CALL, tid=2, ts=10.0))
        delay_sites = {p.delay_location.site for p in added}
        assert delay_sites == {"a", "b"}
        assert all(p.kind is CandidateKind.THREAD_SAFETY for p in added)

    def test_memorder_events_ignored(self):
        tracker = TsvNearMissTracker(window_ms=100.0)
        assert tracker.observe(ev("a", AccessType.USE, tid=1, ts=0.0)) == []

    def test_same_thread_ignored(self):
        tracker = TsvNearMissTracker(window_ms=100.0)
        tracker.observe(ev("a", AccessType.UNSAFE_CALL, tid=1, ts=0.0))
        assert tracker.observe(ev("b", AccessType.UNSAFE_CALL, tid=1, ts=1.0)) == []

    def test_window_respected(self):
        tracker = TsvNearMissTracker(window_ms=10.0)
        tracker.observe(ev("a", AccessType.UNSAFE_CALL, tid=1, ts=0.0))
        assert tracker.observe(ev("b", AccessType.UNSAFE_CALL, tid=2, ts=50.0)) == []

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            TsvNearMissTracker(window_ms=-5.0)


class SingleWindowTracker(NearMissTracker):
    """The tracker before its windows were split by access type
    (test-only reference): one window per object holding every INIT,
    USE and DISPOSE, each closer scanning all of it for its opener."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._recent = {}

    def observe(self, event):
        if event.access_type is AccessType.UNSAFE_CALL:
            return self._NO_PAIRS
        object_id = event.object_id
        if object_id < 0:
            return self._NO_PAIRS
        window = self._recent.get(object_id)
        if window is None:
            window = self._recent[object_id] = deque()
        timestamp = event.timestamp
        horizon = timestamp - self.window_ms
        while window and window[0].timestamp < horizon:
            window.popleft()
        access_type = event.access_type
        if not window or access_type is AccessType.INIT:
            window.append(event)
            return self._NO_PAIRS
        if access_type is AccessType.USE:
            opener, kind = AccessType.INIT, CandidateKind.USE_BEFORE_INIT
        else:
            opener, kind = AccessType.USE, CandidateKind.USE_AFTER_FREE
        added = []
        for earlier in window:
            if earlier.access_type is not opener or earlier.thread_id == event.thread_id:
                continue
            if self.order_filter is not None and self.order_filter(earlier, event):
                self.candidates.pruned_parent_child += 1
                continue
            pair = CandidatePair(
                kind=kind, delay_location=earlier.location, other_location=event.location
            )
            observation = GapObservation(
                gap_ms=timestamp - earlier.timestamp,
                timestamp_first=earlier.timestamp,
                timestamp_second=timestamp,
                object_id=object_id,
                thread_first=earlier.thread_id,
                thread_second=event.thread_id,
            )
            is_new = self.candidates.add(pair, observation)
            self.pairs_observed += 1
            if is_new:
                self.pairs_new += 1
            if self.on_pair is not None:
                self.on_pair(pair, is_new)
            added.append(pair)
        window.append(event)
        return added


_ACCESS = st.sampled_from(
    [AccessType.INIT, AccessType.USE, AccessType.DISPOSE, AccessType.UNSAFE_CALL]
)


@st.composite
def event_streams(draw):
    """Timestamp-ordered events on a few objects (ties included)."""
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0, 7.5, 12.0]),
                _ACCESS,
                st.integers(-1, 2),
                st.integers(1, 3),
                st.integers(0, 3),
            ),
            max_size=60,
        )
    )
    events, ts = [], 0.0
    for index, (gap, access, oid, tid, site) in enumerate(steps):
        ts += gap
        events.append(
            AccessEvent(
                location=Location("%s%d" % (access.value, site)),
                access_type=access,
                object_id=oid,
                thread_id=tid,
                timestamp=ts,
                event_id=index,
            )
        )
    return events


def _keys(pairs):
    return [(p.kind, p.delay_location.site, p.other_location.site) for p in pairs]


class TestOpenerWindows:
    """The per-type opener windows against the single-window reference."""

    @pytest.mark.parametrize("filtered", [False, True])
    @given(events=event_streams())
    def test_same_pairs_in_same_order(self, filtered, events):
        order_filter = (lambda a, b: (a.event_id + b.thread_id) % 3 == 0) if filtered else None
        sunk = ([], [])
        trackers = [
            cls(window_ms=10.0, order_filter=order_filter,
                on_pair=lambda pair, new, log=log: log.append((pair, new)))
            for cls, log in zip((NearMissTracker, SingleWindowTracker), sunk)
        ]
        for event in events:
            fast, reference = (_keys(t.observe(event)) for t in trackers)
            assert fast == reference
        fast, reference = trackers
        assert sunk[0] == sunk[1]
        assert fast.candidates.pruned_parent_child == reference.candidates.pruned_parent_child
        assert fast.pairs_observed == reference.pairs_observed
        assert fast.pairs_new == reference.pairs_new
        assert list(fast.candidates.iter_gap_items()) == list(reference.candidates.iter_gap_items())

    def test_use_window_stays_bounded_without_disposals(self):
        tracker = NearMissTracker(window_ms=10.0)
        for i in range(10_000):
            tracker.observe(ev("use", AccessType.USE, tid=1 + i % 2, ts=i * 0.25))
        uses = tracker._uses[1]
        assert len(uses) <= 10.0 / 0.25 + 1
        assert uses[-1].timestamp - uses[0].timestamp <= 10.0
        assert 1 not in tracker._inits
