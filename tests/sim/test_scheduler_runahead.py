"""Differential test of the scheduler's run-ahead against a heap-only loop.

:class:`ReferenceScheduler` is the scheduler loop without run-ahead:
every sleep and yield goes through the heap, exactly one push and one
pop per step. Run-ahead must be invisible: the same event streams
(site, type, object, thread, timestamp, injected delay, event-id order)
and the same run results, down to the step count, on random programs,
on the planted Table 4 bugs under Waffle and WaffleBasic, and on
generated workloads. Only the number of heap pushes may drop.
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
from repro.sim import api
from repro.sim.api import Simulation
from repro.sim.errors import SimulationTimeout
from repro.sim.instrument import InstrumentationHook
from repro.sim.scheduler import Scheduler
from tests.sim.test_scheduler_properties import programs


class ReferenceScheduler(Scheduler):
    """The scheduler loop without run-ahead (test-only)."""

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
                wake_time = self._step(thread)
                if wake_time is not None:
                    self._push(thread, wake_time)
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


def _differential(drive):
    """Run ``drive()`` under both loops; returns (fast, reference) logs."""
    with capture(Scheduler) as fast:
        drive()
    with capture(ReferenceScheduler) as reference:
        drive()
    assert fast, "the workload ran no simulation"
    assert [summary for summary, _ in fast] == [summary for summary, _ in reference]
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


class TestGeneratedWorkloads:
    @pytest.mark.parametrize("seed", range(20))
    def test_identical_to_reference(self, seed):
        spec = generate_spec(seed)
        _differential(lambda: evaluate_spec(spec, DEFAULT_CONFIG, budget=8, check_replay=True))
