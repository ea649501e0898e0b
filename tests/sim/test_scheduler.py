"""Scheduler semantics: ordering, determinism, failures, deadlock."""

import gc
import sys

import pytest

from repro.apps import patterns
from repro.sim.api import Simulation
from repro.sim.errors import DeadlockError
from repro.sim.instrument import CostModel
from repro.sim.scheduler import Sleep


class TestBasicExecution:
    def test_single_thread_runs_to_completion(self, sim):
        log = []

        def main(sim):
            log.append("start")
            yield from sim.sleep(1.0)
            log.append("end")

        result = sim.run(main(sim))
        assert log == ["start", "end"]
        assert not result.crashed
        assert result.virtual_time >= 1.0

    def test_sleep_advances_virtual_time(self, sim):
        def main(sim):
            yield from sim.sleep(25.0)

        result = sim.run(main(sim))
        assert result.virtual_time == pytest.approx(25.0)

    def test_sleeps_are_cheap_regardless_of_duration(self, sim):
        def main(sim):
            yield from sim.sleep(1_000_000.0)

        # Would hang if virtual sleep consumed wall time; huge value is
        # fine because only the clock advances.
        sim.scheduler.time_limit_ms = 10_000_000.0
        result = sim.run(main(sim))
        assert result.virtual_time == pytest.approx(1_000_000.0)

    def test_thread_return_value_via_join(self, sim):
        def child(sim):
            yield from sim.sleep(1)
            return 99

        def main(sim):
            t = sim.fork(child(sim), name="child")
            value = yield from sim.join(t)
            return value

        sim.run(main(sim))
        main_thread = sim.scheduler.threads[1]
        assert main_thread.result == 99

    def test_interleaving_respects_wake_times(self, sim):
        order = []

        def ticker(sim, name, period, count):
            for i in range(count):
                yield from sim.sleep(period)
                order.append((name, sim.now))

        def main(sim):
            a = sim.fork(ticker(sim, "fast", 1.0, 3), name="fast")
            b = sim.fork(ticker(sim, "slow", 2.5, 2), name="slow")
            yield from sim.join(a)
            yield from sim.join(b)

        sim.run(main(sim))
        names = [n for n, _ in order]
        assert names == ["fast", "fast", "slow", "fast", "slow"]


class TestDeterminism:
    @staticmethod
    def _trace(seed):
        sim = Simulation(seed=seed)
        order = []

        def worker(sim, name):
            for _ in range(4):
                yield from sim.compute(1.0)
                order.append((name, round(sim.now, 6)))

        def main(sim):
            threads = [sim.fork(worker(sim, "w%d" % i), name="w%d" % i) for i in range(3)]
            yield from sim.join_all(threads)

        sim.run(main(sim))
        return order

    def test_same_seed_same_interleaving(self):
        assert self._trace(7) == self._trace(7)

    def test_different_seed_different_timing(self):
        # Jittered compute costs differ between seeds.
        assert self._trace(7) != self._trace(8)


class TestFailures:
    def test_exception_captured_and_stops_run(self, sim):
        def boom(sim):
            yield from sim.sleep(1)
            raise RuntimeError("kaboom")

        def main(sim):
            sim.fork(boom(sim), name="boom")
            yield from sim.sleep(100)

        result = sim.run(main(sim))
        assert result.crashed
        assert isinstance(result.first_failure(), RuntimeError)
        # stop_on_failure halts the run well before main's sleep ends.
        assert result.virtual_time < 100

    def test_stop_on_failure_false_continues(self):
        sim = Simulation(seed=1, stop_on_failure=False)

        def boom(sim):
            yield from sim.sleep(1)
            raise RuntimeError("kaboom")

        def main(sim):
            sim.fork(boom(sim), name="boom")
            yield from sim.sleep(50)

        result = sim.run(main(sim))
        assert result.crashed
        assert result.virtual_time >= 50

    def test_join_on_failed_thread_returns(self, sim):
        sim.scheduler.stop_on_failure = False

        def boom(sim):
            yield from sim.sleep(1)
            raise ValueError("x")

        def main(sim):
            t = sim.fork(boom(sim), name="boom")
            yield from sim.join(t)
            return "joined"

        sim.run(main(sim))
        assert sim.scheduler.threads[1].result == "joined"

    def test_non_command_yield_fails_thread(self, sim):
        def bad(sim):
            yield "not-a-command"

        result = sim.run(bad(sim))
        assert result.crashed
        assert isinstance(result.first_failure(), TypeError)


class TestStoppedRunCleanup:
    def test_abandoned_threads_raise_nothing_when_collected(self, monkeypatch):
        # A crash stops the run while counter workers sit suspended in
        # try/finally blocks that release a lock. Closing them later,
        # outside the run, must not raise into sys.unraisablehook.
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        sim = Simulation(seed=0)

        def crasher(sim):
            yield from sim.sleep(1.0)
            raise RuntimeError("crash")

        def main(sim):
            sim.fork(crasher(sim), name="crasher")
            yield from patterns.locked_counter_workers(sim, "t", workers=3, increments=5)

        result = sim.run(main(sim))
        assert isinstance(result.first_failure(), RuntimeError)
        assert any(thread.is_alive for thread in sim.scheduler.threads.values())
        del sim, result
        gc.collect()
        assert unraisable == []


class TestDeadlockAndLimits:
    def test_deadlock_detected(self, sim):
        lock = sim.lock("l")

        def main(sim):
            yield from lock.acquire()
            # Re-acquiring a non-reentrant lock from a child that the
            # parent joins is a classic deadlock.
            child = sim.fork(grab(sim), name="grabber")
            yield from sim.join(child)

        def grab(sim):
            yield from lock.acquire()

        result = sim.run(main(sim))
        assert result.crashed
        assert isinstance(result.first_failure(), DeadlockError)

    def test_time_limit_marks_timeout(self):
        sim = Simulation(seed=0, time_limit_ms=10.0)

        def main(sim):
            for _ in range(100):
                yield from sim.sleep(1.0)

        result = sim.run(main(sim))
        assert result.timed_out

    def test_max_steps_guard(self):
        sim = Simulation(seed=0)
        sim.scheduler.max_steps = 50

        def spinner(sim):
            while True:
                yield from sim.pause()

        result = sim.run(spinner(sim))
        assert result.timed_out


class TestCostModel:
    def test_invalid_cost_model_rejected(self):
        with pytest.raises(ValueError):
            CostModel(op_cost_ms=0)
        with pytest.raises(ValueError):
            CostModel(jitter_frac=1.0)
        with pytest.raises(ValueError):
            CostModel(jitter_frac=-0.1)

    def test_zero_jitter_is_exact(self):
        import random

        model = CostModel(op_cost_ms=0.5, jitter_frac=0.0)
        assert model.sample_op_cost(random.Random(0)) == 0.5

    def test_jitter_within_bounds(self):
        import random

        model = CostModel(op_cost_ms=1.0, jitter_frac=0.2)
        rng = random.Random(0)
        for _ in range(200):
            cost = model.sample_op_cost(rng)
            assert 0.8 <= cost <= 1.2
