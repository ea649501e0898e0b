"""Differential tests: tree clocks against the vector-clock reference.

The preparation run captures a tree-clock stamp per event
(:mod:`repro.core.tree_clock`); traces loaded from JSONL carry
``{tid: counter}`` dicts instead; section 4.1's
:class:`~repro.core.vector_clock.ThreadVectorClock` is the reference
both must agree with. These tests pin that the injection plan does not
depend on the clock representation, on

* seeded synthetic traces (:mod:`repro.core.synthtrace`), where both
  clock classes annotate one shared event list; and
* every bundled application plus a band of procedurally generated
  workloads, recorded once with a ``ThreadVectorClock`` carried through
  the same forks in its own inheritable-TLS slot. The plan from the
  live stamps must equal the plan from the replayed vector snapshots,
  and after ``dump`` -> ``Trace.load`` the dict clocks must plan like
  the live stamps on the loaded events, and serialize exactly -- key
  order included -- as the replayed vector snapshots. (``dump`` rounds
  timestamps, so a loaded trace is compared with itself, not with the
  live one.) A loaded trace dumps to the same bytes again, so dict
  clocks keep the stamps' key order. The serialized plan includes the
  full stats census, so table-facing numbers are pinned too.

A Hypothesis property widens the vector-replay check from the fixed
generated seeds to a sampled band of generator seeds.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import all_apps, get_app
from repro.core.analyzer import InjectionPlan, analyze_trace
from repro.core.config import DEFAULT_CONFIG
from repro.core.synthtrace import attach_clocks, generate_trace
from repro.core.trace import RecordingHook, Trace
from repro.core.tree_clock import ThreadTreeClock
from repro.core.vector_clock import ThreadVectorClock
from repro.sim.api import Simulation

#: Inheritable-TLS slot of the reference clock, beside the tree clock.
REFERENCE_KEY = "test.reference_vector_clock"


def plan_bits(trace) -> str:
    return json.dumps(analyze_trace(trace, DEFAULT_CONFIG).to_dict(), sort_keys=True)


def assert_same_plan(got: str, expected: str) -> None:
    """Bit-identity with a short report (pytest's own diff of two long
    JSON strings takes minutes)."""
    if got != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
            min(len(got), len(expected)),
        )
        pytest.fail(
            "plans differ at offset %d: ...%s... vs ...%s..."
            % (at, got[max(0, at - 80):at + 80], expected[max(0, at - 80):at + 80])
        )


class VectorReplayHook(RecordingHook):
    """The preparation-run hook, plus a ``ThreadVectorClock`` forked in
    lockstep with each thread's tree clock; its snapshot at every event
    is kept by event id."""

    def __init__(self):
        super().__init__(record_overhead_ms=DEFAULT_CONFIG.record_overhead_ms)
        self.reference = {}

    def on_thread_start(self, thread) -> None:
        super().on_thread_start(thread)
        if REFERENCE_KEY not in thread.itls:
            thread.itls.set(REFERENCE_KEY, ThreadVectorClock(thread.tid))

    def after_access(self, event) -> None:
        super().after_access(event)
        if event.vc_snapshot is not None:
            clock = self._threads[event.thread_id].itls.get(REFERENCE_KEY)
            self.reference[event.event_id] = clock.snapshot()


def record(build, seed=0):
    """Record like ``runner.run_recording``; returns the hook."""
    hook = VectorReplayHook()
    sim = Simulation(seed=seed, hook=hook, time_limit_ms=600_000.0)
    sim.run(build(sim))
    return hook


def round_trip(trace) -> Trace:
    buffer = io.StringIO()
    trace.dump(buffer)
    buffer.seek(0)
    return Trace.load(buffer)


def dumped_clocks(trace):
    """The ``vc`` objects of the trace's JSONL dump, key order kept."""
    buffer = io.StringIO()
    trace.dump(buffer)
    return [json.loads(line).get("vc") for line in buffer.getvalue().splitlines()]


def reference_clocks(hook):
    """The replayed vector snapshots, in dump order and dump format."""
    return [
        {str(tid): value for tid, value in hook.reference[event.event_id].items()}
        if event.event_id in hook.reference else None
        for event in hook.trace.sorted_events()
    ]


class TestSyntheticTraces:
    @pytest.mark.parametrize("seed", range(3))
    def test_tree_and_vector_plans_bit_identical(self, seed):
        synth = generate_trace(
            seed=seed, n_threads=48, n_objects=220, fork_bias=0.85, related_fraction=0.7
        )
        attach_clocks(synth, ThreadVectorClock)
        reference = plan_bits(synth.trace)
        attach_clocks(synth, ThreadTreeClock)
        assert_same_plan(plan_bits(synth.trace), reference)

    def test_plan_survives_round_trip_with_stats(self):
        synth = generate_trace(seed=5, n_threads=32, n_objects=120)
        attach_clocks(synth, ThreadTreeClock)
        plan = analyze_trace(synth.trace, DEFAULT_CONFIG)
        restored = InjectionPlan.from_dict(plan.to_dict())
        assert restored.delay_lengths == plan.delay_lengths
        assert restored.stats.candidate_pairs == plan.stats.candidate_pairs
        assert restored.stats.pruned_parent_child == plan.stats.pruned_parent_child
        assert restored.stats.memorder_sites == plan.stats.memorder_sites
        assert restored.stats.init_instance_counts == plan.stats.init_instance_counts

    def test_generator_is_deterministic(self):
        a = generate_trace(seed=9, n_threads=24, n_objects=60)
        b = generate_trace(seed=9, n_threads=24, n_objects=60)
        assert a.schedule == b.schedule
        assert [e.location.site for e in a.trace.events] == [
            e.location.site for e in b.trace.events
        ]
        attach_clocks(a, ThreadVectorClock)
        attach_clocks(b, ThreadVectorClock)
        assert [e.vc_snapshot for e in a.trace.events] == [
            e.vc_snapshot for e in b.trace.events
        ]


def fork_spine(depth: int):
    """A program forking a ``depth``-deep spine, each level also forking
    a leaf first, every thread touching one shared object."""

    def build(sim):
        ref = sim.ref("shared")

        def leaf(sim, level):
            yield from sim.use(ref, member="M", loc="spine.leaf:%d" % level)

        def node(sim, level):
            yield from sim.use(ref, member="M", loc="spine.pre:%d" % level)
            children = [sim.fork(leaf(sim, level), name="leaf-%d" % level)]
            if level < depth:
                children.append(sim.fork(node(sim, level + 1), name="spine-%d" % (level + 1)))
            yield from sim.use(ref, member="M", loc="spine.post:%d" % level)
            for child in children:
                yield from sim.join(child)

        def main(sim):
            yield from sim.assign(ref, sim.new("T"), loc="spine.init:0")
            yield from node(sim, 1)
            yield from sim.dispose(ref, loc="spine.dispose:0")

        return main(sim)

    return build


class TestSerializedClockOrder:
    def test_dumped_clocks_match_vector_snapshots_in_key_order(self):
        hook = record(fork_spine(depth=8))
        clocks = dumped_clocks(hook.trace)
        assert max(len(vc) for vc in clocks) == 9  # the spine is 8 forks deep
        for dumped, expected in zip(clocks, reference_clocks(hook)):
            assert list(dumped.items()) == list(expected.items())


#: Generated-workload seeds joining the matrix (one per topology).
GENERATED_SEEDS = (0, 1, 2, 3)

#: Matrix rows: every bundled application plus the generated band.
WORKLOADS = tuple("app:%s" % name for name in sorted(all_apps())) + tuple(
    "gen:%d" % seed for seed in GENERATED_SEEDS
)


def _matrix_test(workload: str):
    kind, _, name = workload.partition(":")
    if kind == "gen":
        from repro.gen.builder import build_workload
        from repro.gen.spec import generate_spec

        return build_workload(generate_spec(int(name)))
    app = get_app(name)
    tests = app.multithreaded_tests or app.tests
    return tests[0]


#: workload -> its recording hook (trace plus replayed vector clocks).
_RECORDINGS = {}


def _recording(workload: str) -> VectorReplayHook:
    if workload not in _RECORDINGS:
        _RECORDINGS[workload] = record(_matrix_test(workload).build)
    return _RECORDINGS[workload]


def _with_clocks(trace, clocks):
    """Plan bits of ``trace`` with its events' clocks swapped for ``clocks``."""
    events = trace.sorted_events()
    saved = [event.vc_snapshot for event in events]
    for event, clock in zip(events, clocks):
        event.vc_snapshot = clock
    try:
        return plan_bits(trace)
    finally:
        for event, clock in zip(events, saved):
            event.vc_snapshot = clock


class TestDifferentialMatrix:
    """Every workload's plan under stamps, dicts and the vector replay."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_vector_replay_plans_like_live_stamps(self, workload):
        hook = _recording(workload)
        trace = hook.trace
        assert any(event.vc_snapshot is not None for event in trace.events)
        replayed = [hook.reference.get(event.event_id) for event in trace.sorted_events()]
        assert_same_plan(_with_clocks(trace, replayed), plan_bits(trace))

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_loaded_dict_clocks_plan_like_stamps(self, workload):
        trace = _recording(workload).trace
        loaded = round_trip(trace)
        assert all(type(e.vc_snapshot) is dict for e in loaded.events)
        stamps = [event.vc_snapshot for event in trace.sorted_events()]
        assert_same_plan(_with_clocks(loaded, stamps), plan_bits(loaded))

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_dumped_clocks_equal_vector_replay(self, workload):
        hook = _recording(workload)
        for dumped, expected in zip(dumped_clocks(hook.trace), reference_clocks(hook)):
            assert (None if dumped is None else list(dumped.items())) == (
                None if expected is None else list(expected.items())
            )

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_loaded_trace_dumps_byte_identically(self, workload):
        trace = _recording(workload).trace
        first = io.StringIO()
        trace.dump(first)
        again = io.StringIO()
        round_trip(trace).dump(again)
        assert again.getvalue() == first.getvalue()

    def test_matrix_covers_all_bundled_apps(self):
        assert sum(1 for w in WORKLOADS if w.startswith("app:")) == len(all_apps())

    def test_generated_rows_cover_every_topology(self):
        from repro.gen.spec import TOPOLOGIES, generate_spec

        seen = {generate_spec(seed).topology for seed in GENERATED_SEEDS}
        assert seen == set(TOPOLOGIES)


@given(seed=st.integers(min_value=0, max_value=2_000))
@settings(
    max_examples=12,
    deadline=None,
    derandomize=True,  # CI must not explore a different corpus per run
    suppress_health_check=[HealthCheck.too_slow],
)
def test_generated_workloads_plan_like_vector_replay(seed):
    from repro.gen.builder import build_workload
    from repro.gen.spec import generate_spec

    hook = record(build_workload(generate_spec(seed)).build, seed=seed)
    trace = hook.trace
    replayed = [hook.reference.get(event.event_id) for event in trace.sorted_events()]
    assert_same_plan(_with_clocks(trace, replayed), plan_bits(trace))
