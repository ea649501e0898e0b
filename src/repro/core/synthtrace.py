"""Seeded synthetic preparation-run traces for analyzer benchmarking.

The real benchmark applications produce traces of a few thousand events
-- useful for correctness, useless for measuring how the analyzer scales.
This module procedurally generates trace shapes with the same
statistical structure the analyzer cares about (fork trees, shared
objects touched by several threads inside the near-miss window,
parent-child ordered accesses that exercise the section 4.1 pruning
path) at 100-1000x those event counts, from a single seed.

Two-phase design, which is what makes clock comparisons fair:

1. :func:`generate_trace` builds the event list and the *fork schedule*
   (a replay script interleaving thread forks with events in global
   time order) **without** any clock captures.  Object ids, event ids,
   timestamps and thread ids are fixed here, once.
2. :func:`attach_clocks` replays the schedule with a chosen clock class
   (:class:`~repro.core.tree_clock.ThreadTreeClock` or the
   :class:`~repro.core.vector_clock.ThreadVectorClock` reference) and
   stamps ``vc_snapshot`` onto the *same* event objects.

Because both clock classes annotate one shared event list, their
injection plans can be compared bit-for-bit without the process-global
object-id counter confound that back-to-back simulation runs suffer
from.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple, Type

from ..sim.instrument import AccessEvent, AccessType, Location
from .trace import Trace

#: Fork-schedule opcodes: ``("fork", parent_tid, child_tid)`` or
#: ``("event", index_into_trace_events)``.
ScheduleOp = Tuple


@dataclass
class SyntheticTrace:
    """A generated trace plus the replay schedule that clocks need."""

    trace: Trace
    schedule: List[ScheduleOp] = field(default_factory=list)
    #: Generation parameters, echoed for benchmark records.
    params: dict = field(default_factory=dict)

    @property
    def event_count(self) -> int:
        return len(self.trace.events)

    @property
    def thread_count(self) -> int:
        return len(self.trace.thread_names)


class _SynthThread:
    """The minimal thread shape ``inherit_to`` needs (a tid)."""

    __slots__ = ("tid",)

    def __init__(self, tid: int):
        self.tid = tid


def generate_trace(
    seed: int = 0,
    n_threads: int = 256,
    n_objects: int = 4_000,
    n_classes: int = 40,
    window_ms: float = 5.0,
    fork_bias: float = 0.6,
    uses_per_object: int = 4,
    related_fraction: float = 0.5,
) -> SyntheticTrace:
    """Build a clock-less synthetic preparation trace.

    Each object gets a lifecycle in one burst of virtual time: INIT by a
    creator thread, a handful of USEs by other threads inside the
    near-miss window (candidate material), sometimes a fork of a fresh
    child right after INIT whose USE is parent-child ordered (pruning
    material), and usually a DISPOSE closing the lifecycle (use-after-
    free material).  Bursts are spaced further apart than ``window_ms``
    so candidate structure stays local to a burst.

    ``fork_bias`` is the probability a new thread forks off the *most
    recently created* thread rather than a uniformly random live one;
    higher values grow deeper fork chains, which is exactly what
    separates O(depth) vector-clock dict captures from O(1) tree-clock
    stamps.  ``related_fraction`` is the probability a follow-up USE
    comes from a fork-chain ancestor of the creator instead of a random
    live thread: ancestor accesses are happens-before ordered, so they
    drive the section 4.1 pruning comparisons where the engines differ
    most (a full O(depth) dict scan versus an O(|depth difference|)
    chain walk).
    """
    rng = random.Random(seed)
    trace = Trace()
    schedule: List[ScheduleOp] = []
    events = trace.events

    root_tid = 1
    trace.thread_names[root_tid] = "synth-root"
    trace.parents[root_tid] = None
    alive: List[int] = [root_tid]
    next_tid = 2

    # Pre-build static site labels: objects of one class share sites, so
    # sites accumulate many dynamic instances like real traces do.
    init_sites = [Location("synth.C%d.__init__:%d" % (c, 10 + c)) for c in range(n_classes)]
    use_sites = [
        [Location("synth.C%d.use%d:%d" % (c, u, 30 + 3 * u)) for u in range(3)]
        for c in range(n_classes)
    ]
    dispose_sites = [Location("synth.C%d.dispose:%d" % (c, 90 + c)) for c in range(n_classes)]

    def emit(location, access_type, oid, tid, ts, duration=0.0) -> None:
        schedule.append(("event", len(events)))
        events.append(
            AccessEvent(
                location=location,
                access_type=access_type,
                object_id=oid,
                thread_id=tid,
                timestamp=ts,
                duration=duration,
            )
        )

    def fork(parent_tid: int) -> int:
        nonlocal next_tid
        child = next_tid
        next_tid += 1
        schedule.append(("fork", parent_tid, child))
        trace.thread_names[child] = "synth-%d" % child
        trace.parents[child] = parent_tid
        alive.append(child)
        return child

    # Pre-fork most of the thread budget into a spine-biased tree: each
    # new thread extends the *previous* one with probability
    # ``fork_bias`` (growing one long chain -- the shape that separates
    # O(depth) dict captures from O(1) stamps) and branches off a
    # random earlier thread otherwise. The remaining quarter of the
    # budget is spent on in-burst forks below, which create the
    # fork-ordered accesses the pruning path needs.
    prefork = max(1, (3 * n_threads) // 4)
    depths = {root_tid: 0}
    deepest = root_tid
    while len(alive) < prefork:
        parent = deepest if rng.random() < fork_bias else rng.choice(alive)
        child = fork(parent)
        depths[child] = depths[parent] + 1
        if depths[child] > depths[deepest]:
            deepest = child

    now = 0.0
    for oid in range(1, n_objects + 1):
        cls = rng.randrange(n_classes)
        # Creators come from the most recently forked (deepest) threads:
        # deep clocks are where the engines' costs diverge.
        creator = alive[rng.randrange(max(0, len(alive) - 64), len(alive))]

        emit(init_sites[cls], AccessType.INIT, oid, creator, now)

        # Fork-ordered follow-ups: each child's USE happens-after the
        # INIT through the fork, so the analyzer must prune it (section
        # 4.1); USEs of two sibling children are concurrent candidates.
        if len(alive) < n_threads and rng.random() < 0.5:
            for _ in range(rng.randrange(1, 3)):
                if len(alive) >= n_threads:
                    break
                child = fork(creator)
                now += rng.uniform(0.05, 0.4)
                emit(use_sites[cls][0], AccessType.USE, oid, child, now)

        # Concurrent USEs from already-live threads within the window:
        # genuine near-miss candidates. A ``related_fraction`` of them
        # come from a nearby fork-chain ancestor of the creator -- their
        # clock captures share a long common prefix with the creator's,
        # the worst case for dict comparison and the best for a chain
        # walk.
        for _ in range(rng.randrange(1, uses_per_object + 1)):
            other = None
            if rng.random() < related_fraction:
                node = creator
                for _ in range(rng.randrange(1, 11)):
                    parent = trace.parents.get(node)
                    if parent is None:
                        break
                    node = parent
                if node != creator:
                    other = node
            if other is None:
                other = rng.choice(alive)
            now += rng.uniform(0.05, window_ms / 3.0)
            emit(use_sites[cls][rng.randrange(3)], AccessType.USE, oid, other, now)

        # Close most lifecycles; a DISPOSE shortly after a USE by another
        # thread is the use-after-free near miss.
        if rng.random() < 0.8:
            now += rng.uniform(0.05, window_ms / 3.0)
            emit(dispose_sites[cls], AccessType.DISPOSE, oid, rng.choice(alive), now)

        # Space bursts beyond the window so objects stay independent.
        now += window_ms * rng.uniform(1.1, 2.0)

    trace.duration_ms = now
    return SyntheticTrace(
        trace=trace,
        schedule=schedule,
        params={
            "seed": seed,
            "n_threads": n_threads,
            "n_objects": n_objects,
            "n_classes": n_classes,
            "window_ms": window_ms,
            "fork_bias": fork_bias,
            "uses_per_object": uses_per_object,
            "related_fraction": related_fraction,
        },
    )


def attach_clocks(synth: SyntheticTrace, clock_class: Type) -> None:
    """Replay the fork schedule with ``clock_class`` and stamp every event.

    Mutates ``vc_snapshot`` in place on the shared event list; calling
    again with the other clock class swaps every capture while object
    ids, event ids and timestamps stay untouched -- the equal-footing
    setup for bit-identical plan comparisons.

    This is also the benchmark's proxy for the recording hook's clock
    work: one ``inherit_to`` per fork, one ``capture()`` per event,
    exactly what :class:`~repro.core.trace.RecordingHook` performs
    during a real preparation run.
    """
    events = synth.trace.events
    clocks = {1: clock_class(1)}
    for op in synth.schedule:
        if op[0] == "event":
            event = events[op[1]]
            event.vc_snapshot = clocks[event.thread_id].capture()
        else:
            _, parent_tid, child_tid = op
            child = _SynthThread(child_tid)
            clocks[child_tid] = clocks[parent_tid].inherit_to(None, child)
