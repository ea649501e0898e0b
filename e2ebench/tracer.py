"""In-memory span tracer for the traced benchmark pass.

The tracer wraps the entry points of each ``repro`` layer (see
:func:`install`) in spans for the duration of one pass and restores the
originals afterwards, so untraced passes run the unmodified program.
Every span adds its duration to its parent's child time, which gives
each span name an exact *self* time; the self times of all spans plus
the benchmark's own pass and unit spans (the unattributed remainder)
add up to the pass's wall time by construction.

Per-op spans (hook callbacks, flight-recorder events) are aggregated
only. Spans at unit granularity and above are also kept as records
(id, parent, name, start, end) for the span dump written at exit.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter

#: Span names kept as individual records (everything else is only
#: aggregated, because per-op spans would number in the millions).
KEPT_SPANS = frozenset(
    {
        "bench.pass",
        "bench.unit",
        "core.detect",
        "baselines.detect",
        "gen.oracle",
        "harness.driver",
        "harness.map_units",
        "harness.cell",
        "core.analyze",
    }
)


class Tracer:
    """Span stack plus per-name self time, inclusive time and counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(int)
        self.records: List[tuple] = []
        # Each frame: [child_seconds, span_id, parent_id, start].
        self._stack: List[list] = []
        self._next_id = 0
        self._patches: List[tuple] = []

    # -- Spans -------------------------------------------------------------

    def begin(self) -> list:
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        frame = [0.0, self._next_id, parent, _now()]
        self._stack.append(frame)
        return frame

    def end(self, name: str, frame: list) -> float:
        end = _now()
        duration = end - frame[3]
        self._stack.pop()
        self.self_s[name] += duration - frame[0]
        self.incl_s[name] += duration
        if self._stack:
            self._stack[-1][0] += duration
        if name in KEPT_SPANS:
            self.records.append((frame[1], frame[2], name, frame[3], end))
        return duration

    def wrap(
        self,
        fn: Callable,
        name: Any,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``fn`` inside a span. ``name`` is a string, or a callable of
        the call's arguments returning one. ``after(result, *args)``
        updates counters once the span has closed."""
        tracer = self
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(name if fixed else name(*args), frame)
            if after is not None:
                after(result, *args)
            return result

        return traced

    # -- Patching ------------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: Any, after=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else None
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, after))
        self._patches.append((owner, attr, own, original))

    def restore(self) -> None:
        for owner, attr, own, original in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- Results -------------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        """Self time summed per layer (the span-name prefix)."""
        layers: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.split(".", 1)[0]] += seconds
        return dict(layers)


def _hook_methods(cls) -> List[str]:
    names = (
        "on_run_start",
        "on_thread_start",
        "on_thread_end",
        "before_access",
        "after_access",
        "on_failure",
        "on_run_end",
    )
    return [name for name in names if hasattr(cls, name)]


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of every in-scope ``repro`` package.

    Names bound by ``from x import y`` are patched at every binding the
    benchmark's call paths go through.
    """
    from repro import obs
    from repro.apps.base import AppTestCase
    from repro.baselines.wafflebasic import WaffleBasic
    from repro.core import analyzer, detector
    from repro.core.runtime import OnlineInjectionHook, PlannedInjectionHook
    from repro.core.trace import RecordingHook
    from repro.gen import builder, oracle, spec
    from repro.harness import cache, experiments, fuzz, parallel, runner
    from repro.obs import coverage, dossier, eventbus, flightrec, telemetry
    from repro.sim.api import Simulation
    from repro.sim.errors import NullReferenceError

    counts = tracer.counts

    # sim ------------------------------------------------------------------
    def after_run(result, sim, *_):
        counts["sim.runs"] += 1
        counts["sim.ops"] += result.op_count
        counts["sim.context_switches"] += result.context_switches
        hook = sim.scheduler.hook
        if not isinstance(hook, (PlannedInjectionHook, OnlineInjectionHook)):
            return
        counts["core.detection_runs"] += 1
        counts["core.delays_injected"] += hook.delays_injected
        if hook.engine is not None:
            counts["core.delay_skips.decay"] += hook.engine.skipped_decay
            counts["core.delay_skips.interference"] += hook.engine.skipped_interference
            counts["core.delay_skips.budget"] += hook.engine.skipped_budget
        if hook.delays_injected and any(
            isinstance(error, NullReferenceError) for _, error in result.failures
        ):
            counts["core.exposing_runs"] += 1

    tracer.patch(Simulation, "__init__", "sim.construct")
    tracer.patch(Simulation, "run", "sim.run", after_run)

    # apps / gen: a generated test carries its spec.
    def build_name(test, *_):
        return "gen.build" if getattr(test, "spec", None) is not None else "apps.build"

    tracer.patch(AppTestCase, "build", build_name)

    # core -----------------------------------------------------------------
    def after_record(_result, *_):
        counts["core.trace_events"] += 1

    for method in _hook_methods(RecordingHook):
        tracer.patch(
            RecordingHook, method, "core.record",
            after_record if method == "after_access" else None,
        )
    for method in _hook_methods(PlannedInjectionHook):
        tracer.patch(PlannedInjectionHook, method, "core.hook")
    for method in _hook_methods(OnlineInjectionHook):
        tracer.patch(OnlineInjectionHook, method, "core.online_hook")

    def after_analyze(plan, *_):
        counts["core.analyses"] += 1
        counts["core.candidate_pairs"] += plan.stats.candidate_pairs
        counts["core.injection_sites"] += plan.stats.injection_sites
        counts["core.pruned_parent_child"] += plan.stats.pruned_parent_child

    for module in (analyzer, detector, runner):
        tracer.patch(module, "analyze_trace", "core.analyze", after_analyze)
    tracer.patch(detector.Waffle, "detect", "core.detect")

    # baselines ------------------------------------------------------------
    tracer.patch(WaffleBasic, "detect", "baselines.detect")

    # gen ------------------------------------------------------------------
    def after_oracle(result, *_):
        counts["gen.sessions"] += result.sessions

    for module in (spec, fuzz):
        tracer.patch(module, "generate_spec", "gen.spec")
    for module in (builder, oracle):
        tracer.patch(module, "build_workload", "gen.build")
    for module in (oracle, fuzz):
        tracer.patch(module, "evaluate_spec", "gen.oracle", after_oracle)

    # obs ------------------------------------------------------------------
    def after_emit(*_):
        counts["obs.events"] += 1

    tracer.patch(telemetry.TelemetrySession, "flush", "obs.flush")
    tracer.patch(eventbus.EventBus, "flush", "obs.flush")
    tracer.patch(eventbus.EventBus, "emit", "obs.emit", after_emit)
    tracer.patch(flightrec.FlightRecorder, "record", "obs.flightrec")
    for fn in ("assemble_dossier", "replay_dossier", "write_dossier"):
        tracer.patch(dossier, fn, "obs.dossier")
    tracer.patch(coverage, "build_coverage", "obs.coverage")
    tracer.patch(obs, "collect_run_telemetry", "obs.telemetry")

    # harness --------------------------------------------------------------
    def after_get(record, *_):
        if record is None:
            counts["harness.cache_misses"] += 1
            return
        counts["harness.cache_hits"] += 1
        counts["harness.cached_ops"] += _op_count(record)

    def after_put(*_):
        counts["harness.cache_writes"] += 1

    tracer.patch(cache.PlanCache, "get", "harness.cache_get", after_get)
    tracer.patch(cache.PlanCache, "put", "harness.cache_put", after_put)
    for module in (parallel, experiments, fuzz):
        tracer.patch(module, "map_units", "harness.map_units")
    tracer.patch(parallel, "_call_unit", "harness.cell")
    for fn in ("table2_sites", "table5_overhead", "table6_delays"):
        tracer.patch(experiments, fn, "harness.driver")
    tracer.patch(fuzz, "fuzz_range", "harness.driver")


def _op_count(record: Any) -> int:
    """Instrumented ops of every run a cache record stands for."""
    if isinstance(record, dict):
        own = record.get("op_count", 0)
        return (own if isinstance(own, int) else 0) + sum(
            _op_count(value) for key, value in record.items() if key != "op_count"
        )
    if isinstance(record, list):
        return sum(_op_count(value) for value in record)
    return 0
