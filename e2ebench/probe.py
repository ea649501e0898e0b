"""Host-speed probe for untraced passes.

Other tenants of a shared host slow this process down in phases that
last from a fraction of a second to tens of seconds. Every unit of an
untraced pass is preceded by a probe: a fixed piece of Python work with
the simulator's mix (a small generator-driven event loop over a heap,
dict updates, a walk over several MB of small objects). The probe never
calls the program, so a change to the program cannot move it. A pass's
host speed is the reference host's probe time over the mean probe time
measured during the pass; unit times multiplied by it are times at the
reference host's speed.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List

_now = time.perf_counter

#: Mean time of one probe repetition, measured between units on the
#: reference host (a 2-CPU VM, Python 3.11.7).
REFERENCE_S = 0.0012

_POOL_SIZE = 20_000
_POOL_STRIDE = 13


class _Event:
    __slots__ = ("t", "tid", "site", "kind")

    def __init__(self, t: float, tid: int, site: str, kind: int):
        self.t = t
        self.tid = tid
        self.site = site
        self.kind = kind


def _event_loop(threads: int = 6, steps: int = 40) -> int:
    """Generator threads scheduled on a heap, one event object per step."""

    def body(tid: int):
        state = {"n": 0}
        for i in range(steps):
            state["n"] += i
            yield (i * 7 + tid) % 5 + 0.5

    queue = [(0.0, tid, body(tid)) for tid in range(threads)]
    heapq.heapify(queue)
    log: List[_Event] = []
    sites: Dict[str, int] = {}
    while queue:
        now, tid, gen = heapq.heappop(queue)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        event = _Event(now, tid, "s%d" % (tid % 3), tid & 1)
        log.append(event)
        sites[event.site] = sites.get(event.site, 0) + 1
        heapq.heappush(queue, (now + delay, tid, gen))
    return len(log)


def _heap_mix(n: int = 700) -> int:
    heap: List[tuple] = []
    table: Dict[int, int] = {}
    for i in range(n):
        heapq.heappush(heap, (i * 7919 % 1013, i))
        table[i & 255] = table.get(i & 255, 0) + i
        if len(heap) > 64:
            heapq.heappop(heap)
    return len(table)


class HostProbe:
    """Callable probe; ``reps`` repetitions per call, timed in total."""

    def __init__(self, reps: int = 1) -> None:
        self.reps = reps
        self.pool = [{"k": i, "v": [i, i + 1], "s": str(i)} for i in range(_POOL_SIZE)]
        self.order = list(range(0, _POOL_SIZE, _POOL_STRIDE))
        self.reset()

    def reset(self) -> None:
        self.seconds = 0.0
        self.count = 0

    def _walk(self) -> None:
        pool = self.pool
        for index in self.order:
            pool[index]["k"] += 1

    def __call__(self) -> float:
        """Probe once; returns the host speed this probe measured."""
        started = _now()
        for _ in range(self.reps):
            _heap_mix()
            self._walk()
            _event_loop()
        elapsed = _now() - started
        self.seconds += elapsed
        self.count += self.reps
        return REFERENCE_S * self.reps / elapsed

    def speed(self) -> float:
        """Reference probe time over the mean probe time since reset."""
        return REFERENCE_S * self.count / self.seconds if self.count else 1.0
