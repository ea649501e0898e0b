"""Differential test of the scheduler's run-ahead against a heap-only loop.

:class:`ReferenceScheduler` is the scheduler loop without run-ahead:
its ``sleep_until`` queues every sleep, so each step is exactly one
push, one pop and one generator resume. Run-ahead must be invisible:
the same event streams (site, type, object, thread, timestamp, injected
delay, event-id order), the same flight-recorder records and the same
run results, down to the step count, on random programs, on the
planted Table 4 bugs under Waffle and WaffleBasic, and on generated
workloads. Only the number of heap pushes may drop.
"""

from __future__ import annotations

import contextlib
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import all_bugs, bug_workload
from repro.baselines import WaffleBasic
from repro.core.config import DEFAULT_CONFIG
from repro.core.detector import Waffle
from repro.gen.oracle import evaluate_spec
from repro.gen.spec import generate_spec
from repro.obs import flightrec
from repro.sim import api
from repro.sim.api import Simulation
from repro.sim.errors import SimulationTimeout
from repro.sim.instrument import InstrumentationHook
from repro.sim.scheduler import Scheduler
from repro.sim.thread import ThreadState
from tests.sim.test_scheduler_properties import programs


class ReferenceScheduler(Scheduler):
    """The scheduler loop without run-ahead (test-only)."""

    def sleep_until(self, wake):
        # Every sleep goes through the heap: one push and one pop per step.
        thread = self.current
        thread.state = ThreadState.SLEEPING
        self._push(thread, wake)
        return False

    def run(self):
        self.hook.on_run_start(self)
        steps = 0
        result = self.result
        try:
            while self._queue and not self._stopping:
                steps += 1
                if steps > self.max_steps:
                    raise SimulationTimeout(
                        "exceeded %d scheduler steps" % self.max_steps, self.clock.now
                    )
                wake_time, _, thread = heapq.heappop(self._queue)
                if thread.state.is_terminal:
                    continue
                self.clock.advance_to(wake_time)
                if self.clock.now > self.time_limit_ms:
                    result.timed_out = True
                    break
                if thread is not self._last_run:
                    result.context_switches += 1
                    self._last_run = thread
                    if self._fr is not None:
                        self._fr.record("switch", self.clock.now, tid=thread.tid)
                self._step(thread)
            if not self._stopping and not result.timed_out:
                self._check_deadlock()
        except SimulationTimeout:
            result.timed_out = True
        finally:
            result.steps = steps
            result.heap_pushes = self._pushes
            result.virtual_time = self.clock.now
            self.hook.on_run_end(self)
            if self._obs is not None:
                self._obs.c_sched_runs.inc()
                self._obs.c_context_switches.inc(result.context_switches)
                self._obs.g_virtual_ms.set(result.virtual_time)
                self._obs.g_virtual_ms_total.add(result.virtual_time)
            self._close_threads()
        return result


def _normalized(events):
    """Event tuples with run-relative object and event ids: both are
    process-global counters, so two runs differ in their offsets only."""
    oids = {-1: -1}
    base = events[0][6] if events else 0
    return [
        (site, kind, oids.setdefault(oid, len(oids) - 1), tid, ts, delay, eid - base)
        for site, kind, oid, tid, ts, delay, eid in events
    ]


def _summary(result, events):
    failures = [
        (thread.tid, type(error).__name__, getattr(getattr(error, "location", None), "site", None))
        for thread, error in result.failures
    ]
    return {
        "events": _normalized(events),
        "virtual_time": result.virtual_time,
        "op_count": result.op_count,
        "context_switches": result.context_switches,
        "failures": failures,
        "timed_out": result.timed_out,
        "steps": result.steps,
    }


def _capturing(base, runs):
    """A ``base`` subclass that logs every run's events and result."""

    class Capturing(base):
        def run(self):
            events = []
            hook = self.hook
            inner = hook.after_access

            def after_access(event):
                inner(event)
                events.append(
                    (
                        event.location.site, event.access_type.value, event.object_id,
                        event.thread_id, event.timestamp, event.injected_delay,
                        event.event_id,
                    )
                )

            hook.after_access = after_access
            try:
                result = base.run(self)
            finally:
                del hook.after_access
            runs.append((_summary(result, events), result.heap_pushes))
            return result

    return Capturing


@contextlib.contextmanager
def capture(base):
    """Route every Simulation through ``base``; yields the run log."""
    runs = []
    original = api.Scheduler
    api.Scheduler = _capturing(base, runs)
    try:
        yield runs
    finally:
        api.Scheduler = original


def _flight_stream(recorder):
    """The recorder's events with ``seq`` rebased to each run's start
    and object ids made run-relative (both are process-global)."""
    stream, base, oids = [], 0, {}
    for event in recorder.snapshot():
        event = dict(event)
        if event["k"] == "run_start":
            base, oids = event["seq"], {}
        event["seq"] -= base
        if "object_id" in event:
            event["object_id"] = oids.setdefault(event["object_id"], len(oids))
        stream.append(event)
    return stream


def _differential(drive, flight=False):
    """Run ``drive()`` under both loops; returns (fast, reference) logs.

    With ``flight``, each loop runs under its own flight recorder and
    the two recorded event streams must be identical too.
    """
    logs, streams = [], []
    for base in (Scheduler, ReferenceScheduler):
        recorder = flightrec.install(capacity=1_000_000) if flight else None
        try:
            with capture(base) as runs:
                drive()
        finally:
            flightrec.uninstall()
        logs.append(runs)
        if recorder is not None:
            assert recorder.dropped == 0
            streams.append(_flight_stream(recorder))
    fast, reference = logs
    assert fast, "the workload ran no simulation"
    assert [summary for summary, _ in fast] == [summary for summary, _ in reference]
    if flight:
        assert streams[0], "the flight recorder saw nothing"
        assert streams[0] == streams[1]
    return fast, reference


def _program_run(program, seed, max_steps=None, time_limit_ms=600_000.0):
    def drive():
        sim = Simulation(seed=seed, hook=InstrumentationHook(), time_limit_ms=time_limit_ms)
        if max_steps is not None:
            sim.scheduler.max_steps = max_steps
        shared = sim.ref("shared")

        def worker(steps, index):
            for sleep_ms, ops in steps:
                yield from sim.sleep(sleep_ms)
                for op in range(ops):
                    yield from sim.use(shared, member="M", loc="prop.use:%d:%d" % (index, op))

        def main(sim):
            yield from sim.assign(shared, sim.new("T"), loc="prop.init")
            threads = [
                sim.fork(worker(steps, i), name="w%d" % i) for i, steps in enumerate(program)
            ]
            yield from sim.join_all(threads)

        sim.run(main(sim))

    return drive


class TestRandomPrograms:
    @given(program=programs(), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_identical_to_reference(self, program, seed):
        _differential(_program_run(program, seed))

    @given(
        program=programs(),
        seed=st.integers(0, 1000),
        max_steps=st.integers(1, 60),
    )
    @settings(max_examples=40, deadline=None)
    def test_max_steps_cut_identical(self, program, seed, max_steps):
        _differential(_program_run(program, seed, max_steps=max_steps))

    @given(
        program=programs(),
        seed=st.integers(0, 1000),
        limit=st.floats(min_value=0.0, max_value=20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_time_limit_cut_identical(self, program, seed, limit):
        _differential(_program_run(program, seed, time_limit_ms=limit))

    @given(program=programs(), seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_flight_recorder_stream_identical(self, program, seed):
        _differential(_program_run(program, seed), flight=True)


class TestCutsInsideRunAhead:
    """A lone thread runs ahead for its whole life; cut it partway."""

    LONE = [[(0.5, 3)] * 8]

    def test_max_steps_cut(self):
        fast, reference = _differential(_program_run(self.LONE, 3, max_steps=23))
        summary, pushes = fast[0]
        assert summary["timed_out"]
        assert summary["steps"] == 24
        assert pushes < reference[0][1]

    def test_time_limit_cut(self):
        fast, reference = _differential(_program_run(self.LONE, 3, time_limit_ms=3.0))
        summary, pushes = fast[0]
        assert summary["timed_out"]
        assert 0 < summary["op_count"] < 1 + 3 * 8
        assert pushes < reference[0][1]

    def test_equal_wake_times_go_through_the_heap(self):
        # Both workers sleep to the same instants: every tie must go
        # to the older heap entry, as without run-ahead.
        _differential(_program_run([[(1.0, 0)] * 5, [(1.0, 0)] * 5], 0))


class _DelayEveryThirdOp(InstrumentationHook):
    """Injects a delay before every third operation, in call order."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def before_access(self, event):
        self.calls += 1
        return 0.7 if self.calls % 3 == 0 else 0.0


def _every_site_run(seed, max_steps=None):
    """Threads that sleep through every site: injected delays and op
    costs, ``sleep`` (zero and negative too), ``compute``, ``pause``,
    and the durations of ``call`` and ``unsafe_call``."""

    def drive():
        sim = Simulation(seed=seed, hook=_DelayEveryThirdOp())
        if max_steps is not None:
            sim.scheduler.max_steps = max_steps
        shared = sim.ref("shared")
        table = sim.unsafe_dict()

        def worker(index):
            for step in range(4):
                yield from sim.compute(0.4 + 0.1 * index)
                yield from sim.pause()
                yield from sim.call(shared, "Run", loc="site.call:%d" % index, duration=0.3)
                yield from sim.sleep(0.0 if step % 2 else -1.0)
                yield from sim.unsafe_call(
                    table, "add", (index, step), step, loc="site.add:%d" % index, duration=0.2
                )
                yield from sim.sleep(0.5 * index)

        def main(sim):
            yield from sim.assign(shared, sim.new("T"), loc="site.init")
            threads = [sim.fork(worker(i), name="w%d" % i) for i in range(3)]
            yield from sim.join_all(threads)

        sim.run(main(sim))

    return drive


class TestEverySleepingSite:
    @pytest.mark.parametrize("seed", range(6))
    def test_identical_to_reference(self, seed):
        _differential(_every_site_run(seed), flight=True)

    @pytest.mark.parametrize("max_steps", [5, 17, 40, 90])
    def test_max_steps_cut_identical(self, max_steps):
        fast, _ = _differential(_every_site_run(1, max_steps=max_steps), flight=True)
        assert fast[0][0]["timed_out"]


def _sessions(bugs, attempt_seed, budget):
    def drive():
        config = DEFAULT_CONFIG.with_seed(attempt_seed)
        for bug in bugs:
            test = bug_workload(bug.bug_id)
            for tool in (Waffle, WaffleBasic):
                tool(config).detect(test, max_detection_runs=budget)

    return drive


@pytest.fixture(scope="module")
def table4_runs():
    """Every run of one Waffle and one WaffleBasic session per Table 4
    bug, under both loops (asserted identical)."""
    return _differential(_sessions(all_bugs(), attempt_seed=1, budget=20))


class TestPlantedBugs:
    def test_all_eighteen_bugs_ran(self, table4_runs):
        assert len(all_bugs()) == 18
        fast, _ = table4_runs
        assert len(fast) >= 2 * 18

    def test_steps_equal_reference(self, table4_runs):
        fast, reference = table4_runs
        assert [s["steps"] for s, _ in fast] == [s["steps"] for s, _ in reference]
        assert sum(s["steps"] for s, _ in fast) > 0

    def test_heap_pushes_at_least_halved(self, table4_runs):
        fast, reference = table4_runs
        fast_pushes = sum(pushes for _, pushes in fast)
        reference_pushes = sum(pushes for _, pushes in reference)
        assert reference_pushes > 0
        assert fast_pushes * 2 <= reference_pushes


class TestFlightRecorded:
    """Per-step records (context switches, thread starts and ends,
    near misses, injected delays) under run-ahead match the heap-only
    loop's record for record."""

    def test_planted_bugs(self):
        _differential(_sessions(all_bugs(), attempt_seed=1, budget=20), flight=True)

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_workloads(self, seed):
        spec = generate_spec(seed)
        _differential(
            lambda: evaluate_spec(spec, DEFAULT_CONFIG, budget=8, check_replay=True),
            flight=True,
        )


class TestGeneratedWorkloads:
    @pytest.mark.parametrize("seed", range(20))
    def test_identical_to_reference(self, seed):
        spec = generate_spec(seed)
        _differential(lambda: evaluate_spec(spec, DEFAULT_CONFIG, budget=8, check_replay=True))
