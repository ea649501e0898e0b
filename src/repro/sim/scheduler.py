"""Discrete-event cooperative scheduler.

The scheduler drives :class:`~repro.sim.thread.SimThread` generators.
Every time-consuming action in the simulated program -- computing,
sleeping, the execution cost of an instrumented operation, and the
delays injected by the tools under test -- goes through
:meth:`Scheduler.sleep_until`, so the simulation reduces to a priority
queue ordered by virtual wake time. A sleep that would wake before
every other queued thread runs ahead in place: the clock moves and the
thread keeps running without yielding. Any other sleep queues the
thread itself, which then yields ``QUEUED`` to hand control back.
Threads blocked on synchronization primitives yield ``BLOCK``, leave
the queue entirely and are re-inserted by :meth:`Scheduler.wake`.

Determinism: the queue breaks ties by insertion sequence (FIFO), and all
randomness (operation-cost jitter) flows from a single seeded RNG, so a
given (program, seed) pair always produces the same interleaving --
while different seeds, or injected delays, produce different ones. This
mirrors the probabilistic manifestation of MemOrder bugs that the paper
exploits.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Any, Dict, Generator, List, Optional, Tuple

from .. import obs
from .clock import VirtualClock
from .errors import DeadlockError, SimulationTimeout
from .instrument import CostModel, InstrumentationHook, NoopHook
from .thread import SimThread, ThreadState


class Command:
    """Base class for values yielded by simulated thread generators."""

    __slots__ = ()


class Block(Command):
    """Remove the current thread from the run queue until woken."""

    __slots__ = ()


class Queued(Command):
    """Hand control back after :meth:`Scheduler.sleep_until` declined to
    run ahead: the thread is already queued, or the run was cut."""

    __slots__ = ()


BLOCK = Block()
QUEUED = Queued()


class RunResult:
    """Outcome of one simulated run.

    ``failures`` holds ``(thread, exception)`` pairs for every exception
    that escaped a thread -- in particular the ``NullReferenceError``
    that signals a manifested MemOrder bug. ``virtual_time`` is the
    end-to-end execution time in virtual milliseconds, the quantity from
    which all of the paper's overhead/slowdown numbers are computed.
    """

    def __init__(self) -> None:
        self.virtual_time: float = 0.0
        self.failures: List[Tuple[SimThread, BaseException]] = []
        self.timed_out: bool = False
        self.op_count: int = 0
        self.thread_count: int = 0
        #: Times the scheduler resumed a different thread than the one
        #: it last ran -- the virtual-time analogue of a context switch.
        self.context_switches: int = 0
        #: Deterministic work counters: scheduler steps, and pushes onto
        #: the run queue's heap (spawns, wakes and queued sleeps).
        self.steps: int = 0
        self.heap_pushes: int = 0
        self.tsv_occurrences: List[Any] = []

    @property
    def crashed(self) -> bool:
        return bool(self.failures)

    def first_failure(self) -> Optional[BaseException]:
        return self.failures[0][1] if self.failures else None

    def __repr__(self) -> str:
        return "RunResult(t=%.2fms, failures=%d, ops=%d%s)" % (
            self.virtual_time,
            len(self.failures),
            self.op_count,
            ", TIMEOUT" if self.timed_out else "",
        )


class Scheduler:
    """Runs a tree of simulated threads to completion.

    Parameters
    ----------
    seed:
        Seeds the RNG used for operation-cost jitter; fully determines
        the run together with the program and hook behavior.
    hook:
        The attached :class:`InstrumentationHook` (a delay-injection
        tool, a trace recorder, or :class:`NoopHook` for baseline runs).
    cost_model:
        Virtual-time cost of simulated operations.
    time_limit_ms:
        Abort the run (marking it timed out) once the virtual clock
        passes this limit; models the test-case timeouts that
        WaffleBasic triggers on MQTT.Net in Table 5.
    stop_on_failure:
        When true (the default), the first exception escaping any thread
        stops the whole run -- matching the paper's setting where a
        NULL-reference exception crashes the test process and "halts the
        detection run prematurely" (section 6.3).
    """

    def __init__(
        self,
        seed: int = 0,
        hook: Optional[InstrumentationHook] = None,
        cost_model: Optional[CostModel] = None,
        time_limit_ms: float = 600_000.0,
        stop_on_failure: bool = True,
        max_steps: int = 5_000_000,
    ):
        self.clock = VirtualClock()
        self.rng = random.Random(seed)
        self.hook = hook if hook is not None else NoopHook()
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.time_limit_ms = time_limit_ms
        self.stop_on_failure = stop_on_failure
        self.max_steps = max_steps

        self._queue: List[Tuple[float, int, SimThread]] = []
        self._seq = itertools.count()
        self._pushes = 0
        self._steps = 0
        self._tid_counter = itertools.count(1)
        self.threads: Dict[int, SimThread] = {}
        self.current: Optional[SimThread] = None
        self.result = RunResult()
        self._stopping = False
        self._last_run: Optional[SimThread] = None
        self._obs = obs.session()
        self._fr = obs.flightrec.recorder()

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------

    def spawn(
        self,
        gen: Generator[Any, Any, Any],
        name: str = "",
        parent: Optional[SimThread] = None,
    ) -> SimThread:
        """Create a thread around ``gen`` and make it runnable now."""
        tid = next(self._tid_counter)
        thread = SimThread(tid, name or ("thread-%d" % tid), gen, parent=parent)
        now = thread.spawn_time = self.clock._now
        thread.state = ThreadState.RUNNABLE
        self.threads[tid] = thread
        self.result.thread_count += 1
        self._push(thread, now)
        if self._fr is not None:
            self._fr.record(
                "thread_start", now, tid=tid, name=thread.name,
                parent=parent.tid if parent is not None else None,
            )
        self.hook.on_thread_start(thread)
        return thread

    def wake(self, thread: SimThread, at: Optional[float] = None) -> None:
        """Make a blocked thread runnable at time ``at`` (default: now).

        Only threads in the BLOCKED state are woken: waking a thread
        that is already queued (RUNNABLE/SLEEPING) would enqueue it
        twice and let it run "in two places at once".
        """
        if thread.state is not ThreadState.BLOCKED:
            return
        thread.state = ThreadState.RUNNABLE
        self._push(thread, self.clock.now if at is None else at)

    def _push(self, thread: SimThread, wake_time: float) -> None:
        self._pushes += 1
        heapq.heappush(self._queue, (wake_time, next(self._seq), thread))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> RunResult:
        """Drive all threads until completion, deadlock, crash or timeout.

        Each step pops the queue head and resumes that thread until it
        yields ``BLOCK`` or ``QUEUED``, or ends. A sleep that runs ahead
        (:meth:`sleep_until`) is a step of its own taken inside the
        thread, counted toward ``max_steps`` and passing the same
        time-limit and stop checks, at the same step and virtual time,
        as a popped one.
        """
        self.hook.on_run_start(self)
        queue = self._queue
        clock = self.clock
        result = self.result
        time_limit_ms = self.time_limit_ms
        max_steps = self.max_steps
        step = self._step
        done = ThreadState.DONE
        failed = ThreadState.FAILED
        try:
            while queue and not self._stopping:
                self._steps += 1
                if self._steps > max_steps:
                    raise SimulationTimeout(
                        "exceeded %d scheduler steps" % max_steps, clock._now
                    )
                wake_time, _, thread = heapq.heappop(queue)
                state = thread.state
                if state is done or state is failed:
                    continue
                now = clock._now
                if wake_time > now:
                    now = clock._now = wake_time
                if now > time_limit_ms:
                    result.timed_out = True
                    break
                if thread is not self._last_run:
                    result.context_switches += 1
                    self._last_run = thread
                    if self._fr is not None:
                        self._fr.record("switch", now, tid=thread.tid)
                step(thread)
                if result.timed_out:
                    break
            if not self._stopping and not result.timed_out:
                self._check_deadlock()
        except SimulationTimeout:
            result.timed_out = True
        finally:
            result.steps = self._steps
            result.heap_pushes = self._pushes
            result.virtual_time = clock._now
            self.hook.on_run_end(self)
            if self._obs is not None:
                self._obs.c_sched_runs.inc()
                self._obs.c_context_switches.inc(result.context_switches)
                self._obs.g_virtual_ms.set(result.virtual_time)
                self._obs.g_virtual_ms_total.add(result.virtual_time)
            self._close_threads()
        return result

    def sleep_until(self, wake: float) -> bool:
        """Sleep the current thread until virtual time ``wake``.

        Returns True when the thread may run ahead: ``wake`` is strictly
        before the queue head (or the queue is empty), so the next pop
        would hand this same thread straight back. The step is counted
        and the clock moved to ``wake`` in place, with no push, pop or
        generator resume. A tie with the head goes through the heap,
        where the older entry wins on ``seq``.

        Otherwise returns False, and the caller must ``yield QUEUED``:
        the thread has been queued to wake at ``wake``, or the run was
        cut here by ``max_steps`` or the time limit.
        """
        queue = self._queue
        if self._stopping or (queue and queue[0][0] <= wake):
            thread = self.current
            thread.state = ThreadState.SLEEPING
            self._push(thread, wake)
            return False
        self._steps += 1
        if self._steps > self.max_steps:
            thread = self.current
            thread.state = ThreadState.SLEEPING
            self._push(thread, wake)
            self.result.timed_out = True
            return False
        self.clock._now = wake
        if wake > self.time_limit_ms:
            self.result.timed_out = True
            return False
        return True

    def _step(self, thread: SimThread) -> None:
        """Resume ``thread`` until its next yield and act on the command."""
        self.current = thread
        try:
            command = thread.gen.send(None)
        except StopIteration as stop:
            self._finish(thread, result=getattr(stop, "value", None))
            return
        except BaseException as exc:  # noqa: BLE001 - faithful crash capture
            self._fail(thread, exc)
            return
        finally:
            self.current = None

        if command is QUEUED:
            return
        if isinstance(command, Block):
            thread.state = ThreadState.BLOCKED
            return
        self._fail(
            thread,
            TypeError("thread %r yielded a non-command value: %r" % (thread.name, command)),
        )

    def _close_threads(self) -> None:
        """Close the generators of threads a stopped run left suspended.

        Left to the garbage collector, their ``finally`` blocks would run
        with no current thread, and a primitive released there raises
        into ``sys.unraisablehook``. The run's result is final by now,
        so whatever ``close()`` raises is discarded.
        """
        for thread in self.threads.values():  # spawn order, i.e. tid order
            if not thread.is_alive:
                continue
            self.current = thread
            try:
                thread.gen.close()
            except Exception:  # noqa: BLE001 - the run is already over
                pass
            finally:
                self.current = None

    def _finish(self, thread: SimThread, result: Any) -> None:
        thread.state = ThreadState.DONE
        thread.result = result
        thread.end_time = self.clock.now
        if self._fr is not None:
            self._fr.record("thread_end", self.clock.now, tid=thread.tid, failed=False)
        self._wake_joiners(thread)
        self.hook.on_thread_end(thread)

    def _fail(self, thread: SimThread, exc: BaseException) -> None:
        thread.state = ThreadState.FAILED
        thread.exception = exc
        thread.end_time = self.clock.now
        self.result.failures.append((thread, exc))
        if self._fr is not None:
            location = getattr(exc, "location", None)
            self._fr.record(
                "fault", self.clock.now, tid=thread.tid, thread=thread.name,
                error=type(exc).__name__,
                site=location.site if location is not None else None,
            )
            self._fr.record("thread_end", self.clock.now, tid=thread.tid, failed=True)
        self._wake_joiners(thread)
        self.hook.on_failure(thread, exc)
        self.hook.on_thread_end(thread)
        if self.stop_on_failure:
            self._stopping = True

    def _wake_joiners(self, thread: SimThread) -> None:
        for joiner in thread.joiners:
            self.wake(joiner)
        thread.joiners.clear()

    def _check_deadlock(self) -> None:
        blocked = [t for t in self.threads.values() if t.state is ThreadState.BLOCKED]
        if blocked:
            error = DeadlockError(
                "deadlock: %d thread(s) blocked with empty run queue: %s"
                % (len(blocked), ", ".join(t.name for t in blocked)),
                blocked_threads=blocked,
            )
            # A deadlock is a run failure attributed to the first blocked
            # thread; the harness surfaces it like any other crash.
            self.result.failures.append((blocked[0], error))
