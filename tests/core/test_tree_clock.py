"""Differential tests: tree clocks must be observationally equal to
vector clocks on every ordering query.

The tree-clock engine (:mod:`repro.core.tree_clock`) re-represents the
section 4.1 fork clocks as structurally shared ancestor chains. These
tests drive both representations through identical seeded fork/capture
histories and assert equal verdicts on *every* capture pair (stamp vs
stamp against dict vs dict), equal snapshot dicts in equal key order,
plus the structural invariants the O(log) jump-pointer walk depends
on.
"""

from __future__ import annotations

import random

import pytest

from repro.core.tree_clock import ThreadTreeClock, TreeClockStamp
from repro.core.vector_clock import TLS_KEY, ThreadVectorClock, concurrent, leq, ordered


class _T:
    __slots__ = ("tid",)

    def __init__(self, tid):
        self.tid = tid


def grow_pair(seed, n_threads, fork_bias=0.6, captures_per_thread=2):
    """Grow one random fork tree under both representations at once.

    Returns (captures, clock maps): ``captures`` is a list of
    ``(tid, stamp, dict)`` triples taken at interleaved points -- each
    tree-clock stamp paired with the vector-clock dict captured at the
    same instant of the same history.
    """
    rng = random.Random(seed)
    tree = {1: ThreadTreeClock(1)}
    vec = {1: ThreadVectorClock(1)}
    tids = [1]
    captures = []
    newest = 1
    next_tid = 2
    while len(tids) < n_threads:
        parent = newest if rng.random() < fork_bias else rng.choice(tids)
        # Interleave captures with forks so stamps at different
        # own-counter values of the same thread appear.
        for tid in rng.sample(tids, min(len(tids), captures_per_thread)):
            captures.append((tid, tree[tid].stamp(), vec[tid].capture()))
        child = next_tid
        next_tid += 1
        tree[child] = tree[parent].inherit_to(None, _T(child))
        vec[child] = vec[parent].inherit_to(None, _T(child))
        newest = child
        tids.append(child)
    for tid in tids:
        captures.append((tid, tree[tid].stamp(), vec[tid].capture()))
    return captures, tree, vec


class TestDifferentialOrdering:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_pair_agrees_across_engines_and_representations(self, seed):
        captures, _, _ = grow_pair(seed, n_threads=24)
        for i, (_, stamp_a, dict_a) in enumerate(captures):
            for _, stamp_b, dict_b in captures[i:]:
                expect = leq(dict_a, dict_b)
                assert stamp_a.leq(stamp_b) == expect
                assert leq(stamp_a, stamp_b) == expect
                assert ordered(stamp_a, stamp_b) == ordered(dict_a, dict_b)
                assert concurrent(stamp_a, stamp_b) == concurrent(dict_a, dict_b)

    def test_deep_spine_agrees(self):
        # A pure spine maximizes chain depth: every walk exercises the
        # jump pointers across large depth differences.
        captures, _, _ = grow_pair(11, n_threads=120, fork_bias=1.0)
        for i, (_, stamp_a, dict_a) in enumerate(captures):
            for _, stamp_b, dict_b in captures[i:]:
                assert stamp_a.leq(stamp_b) == leq(dict_a, dict_b)
                assert stamp_b.leq(stamp_a) == leq(dict_b, dict_a)

    @pytest.mark.parametrize("seed", range(4))
    def test_snapshot_dicts_identical(self, seed):
        _, tree, vec = grow_pair(seed, n_threads=40)
        for tid, clock in tree.items():
            # Equal in key order too: serialized clocks are byte-identical.
            assert list(clock.snapshot().items()) == list(vec[tid].snapshot().items())
            assert list(clock.stamp().items()) == list(vec[tid].capture().items())


class TestStampStructure:
    def test_stamp_is_frozen_across_later_forks(self):
        root = ThreadTreeClock(1)
        before = root.stamp()
        child = root.inherit_to(None, _T(2))
        after = root.stamp()
        # The pre-fork stamp precedes the child; the post-fork one is
        # concurrent with it (standard fork rule).
        assert before.leq(child.stamp())
        assert not after.leq(child.stamp())
        assert before.mapping() == {1: 1}
        assert after.mapping() == {1: 2}

    def test_jump_pointers_cover_spine(self):
        clock = ThreadTreeClock(1)
        for tid in range(2, 260):
            clock = clock.inherit_to(None, _T(tid))
        # Invariants: jumps never overshoot the parent chain's order,
        # always land on the same chain, and the walk from any depth to
        # any shallower depth terminates at the exact node.
        node = clock.chain
        while node is not None:
            if node.jump is not None:
                assert node.jump.depth < node.depth
            node = node.parent
        deep = clock.stamp()
        for target in (0, 1, 7, 63, 128, 200, deep.depth - 1):
            walk = deep.chain
            hops = 0
            while walk is not None and walk.depth > target:
                jump = walk.jump
                walk = jump if jump is not None and jump.depth >= target else walk.parent
                hops += 1
            assert walk is not None and walk.depth == target
            # O(log) bound: a 260-deep spine must never need a linear walk.
            assert hops <= 2 * deep.depth.bit_length()

    def test_same_thread_program_order(self):
        clock = ThreadTreeClock(5)
        a = clock.stamp()
        clock.inherit_to(None, _T(6))
        b = clock.stamp()
        assert a.leq(b) and not b.leq(a)
        assert a.ordered_with(b)

    @pytest.mark.parametrize("depth", [1, 2, 7, 40])
    def test_mapping_lists_root_first_own_last(self, depth):
        # Descending tids, so root-first order differs from sorted order
        # and from the own-entry-first order.
        root_tid = 100
        clock = ThreadTreeClock(root_tid)
        clock.inherit_to(None, _T(500))  # bump the root's counter once
        for tid in range(root_tid - 1, root_tid - 1 - depth, -1):
            clock = clock.inherit_to(None, _T(tid))
        keys = list(clock.stamp().mapping())
        assert keys == list(range(root_tid, root_tid - 1 - depth, -1))
        assert list(clock.stamp().items())[0] == (root_tid, 2)
        assert list(clock.stamp().items())[-1] == (root_tid - depth, 1)


class TestCaptureTypes:
    def test_capture_types(self):
        assert isinstance(ThreadTreeClock(1).capture(), TreeClockStamp)
        assert isinstance(ThreadVectorClock(1).capture(), dict)


class TestRuntimeClocks:
    """Every runtime that keeps fork clocks installs tree clocks."""

    @staticmethod
    def _fork_program(sim):
        ref = sim.ref("r")

        def child(sim):
            yield from sim.use(ref, member="M", loc="rc.use:1")

        def main(sim):
            yield from sim.assign(ref, sim.new("T"), loc="rc.init:1")
            yield from sim.join(sim.fork(child(sim), name="child"))

        return main(sim)

    def test_recording_hook_captures_tree_stamps(self):
        from repro.core.trace import RecordingHook
        from repro.sim.api import Simulation

        hook = RecordingHook()
        sim = Simulation(seed=0, hook=hook)
        sim.run(self._fork_program(sim))
        stamps = [event.vc_snapshot for event in hook.trace.sorted_events()]
        assert len(stamps) == 2
        assert all(isinstance(stamp, TreeClockStamp) for stamp in stamps)
        assert [stamp.tid for stamp in stamps] == [1, 2]

    def test_online_hook_captures_tree_stamps(self):
        from repro.core.config import WaffleConfig
        from repro.core.delay_policy import DecayState
        from repro.core.runtime import OnlineInjectionHook
        from repro.sim.api import Simulation

        config = WaffleConfig()
        hook = OnlineInjectionHook(
            config, DecayState(config.decay_lambda), seed=1,
            parent_child=True, hb_inference=False,
        )
        sim = Simulation(seed=1, hook=hook)
        sim.run(self._fork_program(sim))
        clocks = [thread.itls.get(TLS_KEY) for thread in hook._threads.values()]
        assert len(clocks) == 2
        assert all(isinstance(clock, ThreadTreeClock) for clock in clocks)

    def test_real_threads_runtime_captures_tree_stamps(self):
        from repro.pythreads import RealThreadsRuntime
        from repro.sim.instrument import InstrumentationHook

        stamps = []

        class Recorder(InstrumentationHook):
            def after_access(self, event):
                stamps.append(event.vc_snapshot)

        rt = RealThreadsRuntime(hook=Recorder())
        ref = rt.ref("r")
        ref.assign(rt.new("T"), loc="rc.init:1")
        rt.spawn(lambda: ref.use(member="M", loc="rc.use:1"), name="child")
        rt.join_all()
        assert len(stamps) == 2
        assert all(isinstance(stamp, TreeClockStamp) for stamp in stamps)
        assert stamps[0].leq(stamps[1])
