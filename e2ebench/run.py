"""End-to-end benchmark of the Waffle reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload detect-known --seed 0 --seconds 15 --trace 0
    python3 e2ebench/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics with the program
unmodified; ``--trace 1`` alternates untraced passes with traced ones
and reports the per-layer metrics. See README.md beside this file for
the workloads, the metric -> layer -> workload table and the scope.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Everything before it
is the human-readable report. A full result (host fingerprint, per-pass
values, quartiles, counter block, row digests) and the span dump of the
traced passes are written under ``.e2ebench_out/`` in the repository.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from probe import HostProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench_out"

#: Seed the acceptance figures are stated for.
DEFAULT_SEED = 0
#: Held back while the benchmark and the program are tuned: confirm a
#: claimed change on this seed as well, never only on seeds it was
#: developed against.
HELD_OUT_SEED = 7919

#: Probes either side of a unit whose median host speed scales it.
PROBE_WINDOW = 3
#: Set-up repetitions before and after the measured passes; ``setup_s``
#: is the median of all of them. Those after sample another phase of a
#: shared host than the ones before.
SETUP_REPEATS = 3
SETUP_REPEATS_AFTER = 2
#: Passes measured at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: What ``setup_s`` imports: every package the workloads drive.
IMPORT_STATEMENT = (
    "import repro.harness.experiments, repro.harness.fuzz, repro.baselines, repro.obs"
)
LAYERS = ("sim", "core", "baselines", "apps", "gen", "obs", "harness")

_now = time.perf_counter


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def spread(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (as ``statistics.quantiles(n=4)`` gives them)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the program's sources: identifies a checkout that is
    not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(seed: int, passes: int) -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "passes": passes,
    }


# ----------------------------------------------------------------------
# Set-up and passes
# ----------------------------------------------------------------------


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the program."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("WAFFLE_")}
    env["PYTHONPATH"] = str(SRC)
    started = _now()
    subprocess.run(
        [sys.executable, "-c", IMPORT_STATEMENT], cwd=str(ROOT), env=env,
        check=True, timeout=120,
    )
    return _now() - started


def scaled_unit_ms(result) -> List[float]:
    """A pass's unit times at the reference host's speed.

    Each unit is scaled by the median host speed the probes measured
    around it (PROBE_WINDOW units either side): the slow phases of a
    shared host last longer than that window, one probe's own noise
    does not.
    """
    speeds = result.unit_speed
    scaled = []
    for index, ms in enumerate(result.unit_ms):
        window = speeds[max(0, index - PROBE_WINDOW):index + PROBE_WINDOW + 1]
        scaled.append(ms * statistics.median(window))
    return scaled


def tail(unit_ms: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with ten
    samples beyond it. A pass has a fixed number of units, so the
    percentile is fixed per workload and does not move with speed."""
    ordered = sorted(unit_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def timed_setup(workload, seed: int, work: Path):
    """One set-up: a fresh interpreter's import plus input generation."""
    imported = import_seconds()
    started = _now()
    inputs = workload.setup(seed, work)
    return imported + _now() - started, inputs


def plain_pass(workload, inputs, work: Path, probe):
    """An untraced pass: (result, wall seconds less probe time, speed)."""
    probe.reset()
    started = _now()
    result = workload.run_pass(inputs, work, probe)
    return result, _now() - started - probe.seconds, probe.speed()


def traced_pass(workload, inputs, work: Path):
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer()
    try:
        tracer.patch(workloads.PassResult, "time_unit", "bench.unit")
        tracing.install(tracer)
        frame = tracer.begin()
        try:
            result = workload.run_pass(inputs, work)
        finally:
            wall = tracer.end("bench.pass", frame)
    finally:
        tracer.restore()
    return result, wall, tracer


def output_block(result) -> Dict[str, object]:
    """The counts any pass's outputs give: units, row digest and the
    figures read off the rows (bytes written vary with timestamps)."""
    block: Dict[str, object] = {
        "figures." + k: v for k, v in sorted(result.figures.items()) if k != "obs_bytes"
    }
    block["units"] = result.units
    block["rows_sha256"] = result.digest()
    return block


def counter_block(result, tracer) -> Dict[str, object]:
    """Every count of a traced pass that must repeat exactly for a
    fixed seed; a change made only for speed leaves all of it alone."""
    block: Dict[str, object] = {key: tracer.counts[key] for key in sorted(tracer.counts)}
    block.update(output_block(result))
    return block


def differing(block: Dict[str, object], reference: Dict[str, object]) -> List[str]:
    return sorted(k for k in set(block) | set(reference) if block.get(k) != reference.get(k))


def layer_metrics(result, wall: float, tracer) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    s, incl, c = tracer.self_s, tracer.incl_s, tracer.counts
    ops = c["sim.ops"]
    lookups = c["harness.cache_hits"] + c["harness.cache_misses"]
    out = {
        "sim.run_s": s["sim.run"],
        "sim.host_us_per_op": s["sim.run"] / ops * 1e6 if ops else 0.0,
        "sim.ops": ops,
        "sim.runs": c["sim.runs"],
        "sim.context_switches": c["sim.context_switches"],
        "sim.construct_s": s["sim.construct"],
        "core.record_s": s["core.record"],
        "core.trace_events": c["core.trace_events"],
        "core.analyze_s": s["core.analyze"],
        "core.candidate_pairs": c["core.candidate_pairs"],
        "core.injection_sites": c["core.injection_sites"],
        "core.pruned_parent_child": c["core.pruned_parent_child"],
        "core.hook_s": s["core.hook"],
        "core.online_hook_s": s["core.online_hook"],
        "core.delays_injected": c["core.delays_injected"],
        "core.delay_skips.decay": c["core.delay_skips.decay"],
        "core.delay_skips.interference": c["core.delay_skips.interference"],
        "core.delay_skips.budget": c["core.delay_skips.budget"],
        "core.exposing_run_ratio": (
            c["core.exposing_runs"] / c["core.detection_runs"] if c["core.detection_runs"] else 0.0
        ),
        "baselines.detect_s": incl["baselines.detect"],
        "apps.build_s": s["apps.build"],
        "gen.spec_s": s["gen.spec"],
        "gen.build_s": s["gen.build"],
        "gen.oracle_s": s["gen.oracle"],
        "gen.sessions": c["gen.sessions"],
        "obs.flush_s": s["obs.flush"],
        "obs.flightrec_s": s["obs.flightrec"],
        "obs.dossier_s": s["obs.dossier"],
        "obs.events": c["obs.events"],
        "obs.bytes_written": result.figures.get("obs_bytes", 0),
        "harness.cache_get_s": s["harness.cache_get"],
        "harness.cache_put_s": s["harness.cache_put"],
        "harness.cache_hits": c["harness.cache_hits"],
        "harness.cache_misses": c["harness.cache_misses"],
        "harness.cache_writes": c["harness.cache_writes"],
        "harness.cache_hit_ratio": c["harness.cache_hits"] / lookups if lookups else 0.0,
        "harness.map_units_s": s["harness.map_units"],
    }
    layers = tracer.layer_self_s()
    for layer in LAYERS:
        out[layer + ".self_s"] = layers.get(layer, 0.0)
    out["trace.unattributed_s"] = layers.get("bench", 0.0)
    out["trace.wall_s"] = wall
    for key in ("bugs_found", "runs_to_expose", "virtual_slowdown_p50"):
        out["quality." + key] = result.figures.get(key, 0)
    return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_op"):
        return "us/op"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_written"):
        return "bytes"
    if name.endswith("slowdown_p50"):
        return "x"
    return "count"


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, warm up, then measure passes for ``seconds``."""
    import workloads

    work.mkdir(parents=True, exist_ok=True)
    setup_samples = []
    for _ in range(SETUP_REPEATS):
        elapsed, inputs = timed_setup(workload, seed, work)
        setup_samples.append(elapsed)
    probe = HostProbe(workload.probe_reps)

    # The warm-up pass is traced: it finishes lazy set-up, and its
    # outputs and counters are the reference every later pass must repeat.
    reference, _, ref_tracer = traced_pass(workload, inputs, work)
    ref_counters = counter_block(reference, ref_tracer)
    ops_per_pass = ref_tracer.counts["sim.ops"] + ref_tracer.counts["harness.cached_ops"]
    failures = list(reference.failures)
    attempted = reference.units
    plain: List[tuple] = []
    traced: List[tuple] = []
    spans = []
    counter_mismatch = []

    started = _now()
    while (
        _now() - started < seconds
        or len(plain) < MIN_PASSES
        or (trace and len(traced) < MIN_PASSES)
    ):
        if trace and len(traced) < len(plain):
            result, wall, tracer = traced_pass(workload, inputs, work)
            traced.append((result, wall, tracer))
            spans.append(tracer.records)
            mismatch = differing(counter_block(result, tracer), ref_counters)
        else:
            result, wall, speed = plain_pass(workload, inputs, work, probe)
            plain.append((result, wall, speed))
            mismatch = differing(output_block(result), output_block(reference))
        if mismatch:
            counter_mismatch.append(mismatch)
        attempted += result.units
        failures.extend(result.failures)
        failures.extend(workloads.row_mismatches(result.rows, reference.rows, "first pass"))

    for _ in range(SETUP_REPEATS_AFTER):
        setup_samples.append(timed_setup(workload, seed, work)[0])

    # Per pass: unit times and the time outside units, at reference speed.
    scaled = [
        (scaled_unit_ms(r), (wall * 1000.0 - sum(r.unit_ms)) * speed) for r, wall, speed in plain
    ]
    # Every pass runs the same units on the same inputs, so a unit's
    # spread across passes is host noise; its median over the passes
    # drops the bursts the probes missed.
    unit_ms = [statistics.median(times) for times in zip(*(ms for ms, _ in scaled))]
    pass_s = (sum(unit_ms) + statistics.median(out for _, out in scaled)) / 1000.0
    tail_ms, tail_pct, tail_samples = tail(unit_ms)
    pass_seconds = [(sum(ms) + out) / 1000.0 for ms, out in scaled]
    per_pass = {
        "setup_s": setup_samples,
        "units_per_s": [reference.units / seconds for seconds in pass_seconds],
        "unit_ms_p50": [statistics.median(ms) for ms, _ in scaled],
        "unit_ms_tail": [tail(ms)[0] for ms, _ in scaled],
        "sim_ops_per_s": [ops_per_pass / seconds for seconds in pass_seconds],
        "pass_s": pass_seconds,
        "raw_pass_s": [wall for _, wall, _ in plain],
        "host_speed": [speed for _, _, speed in plain],
    }
    end_to_end = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "units_per_s": (reference.units / pass_s, "1/s"),
        "unit_ms_p50": (statistics.median(unit_ms), "ms"),
        "unit_ms_tail": (tail_ms, "ms"),
        "sim_ops_per_s": (ops_per_pass / pass_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    figures = reference.figures
    layer: Dict[str, float] = {}
    layer_spread: Dict[str, dict] = {}
    attribution_error = 0.0
    if traced:
        samples = [layer_metrics(r, wall, t) for r, wall, t in traced]
        for key in samples[0]:
            values = [sample[key] for sample in samples]
            layer[key] = statistics.median(values)
            layer_spread[key] = spread(values)
        plain_s = statistics.median(per_pass["raw_pass_s"])
        layer["trace.overhead_pct"] = (layer["trace.wall_s"] / plain_s - 1.0) * 100.0
        # Every span belongs to a layer or to the pass itself, so the
        # layers' self times plus the remainder close on the wall time.
        attribution_error = max(
            abs(sum(sample[name + ".self_s"] for name in LAYERS)
                + sample["trace.unattributed_s"] - sample["trace.wall_s"])
            for sample in samples
        )
    layer["fail_ratio"] = len(failures) / attempted
    correct = not failures and not counter_mismatch and attribution_error < 1e-6
    return {
        "workload": workload.name,
        "fingerprint": fingerprint(seed, len(plain) + len(traced)),
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "counter_mismatch": counter_mismatch,
        "attribution_error_s": attribution_error,
        "end_to_end": end_to_end,
        "tail": {"percentile": tail_pct, "samples": tail_samples},
        "per_pass": {k: spread(v) for k, v in per_pass.items()},
        "per_pass_values": per_pass,
        "layer": layer,
        "layer_spread": layer_spread,
        "figures": figures,
        "counters": ref_counters,
        "counters_sha256": hashlib.sha256(
            json.dumps(ref_counters, sort_keys=True).encode()
        ).hexdigest(),
        "rows_sha256": reference.digest(),
        "spans": spans,
    }


def report(result: dict, trace: bool) -> List[str]:
    """The human-readable report of one workload."""
    fp = result["fingerprint"]
    lines = [
        "== %s  seed %d  passes %d  (%s CPUs, Python %s, commit %s)"
        % (result["workload"], fp["seed"], fp["passes"], fp["cpus"], fp["python"],
           (fp["commit"] or "n/a")[:12]),
        "   source sha256 %s" % fp["source_sha256"][:16],
        "   rows sha256   %s" % result["rows_sha256"],
        "   counters sha256 %s" % result["counters_sha256"],
    ]
    lines.append("   %-22s %14s %-5s  %s" % ("metric", "value", "unit", "per-pass quartiles"))
    for name, (value, unit_name) in result["end_to_end"].items():
        extra = ""
        if name in result["per_pass"]:
            q = result["per_pass"][name]
            extra = "[%.4g, %.4g] of %d" % (q["q1"], q["q3"], q["n"])
        if name == "unit_ms_tail":
            t = result["tail"]
            extra += "  (p%.1f of %d units, 10 beyond)" % (t["percentile"], t["samples"])
        lines.append("   %-22s %14.4f %-5s  %s" % (name, value, unit_name, extra))
    for name, value in sorted(result["figures"].items()):
        lines.append("   %-22s %14.4f" % ("figures." + name, value))
    lines.append("   %-22s %14.4f" % ("fail_ratio", result["layer"]["fail_ratio"]))
    if trace:
        lines.append("   per-layer (median of traced passes):")
        for name, value in result["layer"].items():
            lines.append("     %-32s %16.6f %s" % (name, value, unit(name)))
        lines.append("   attribution error %.3g s" % result["attribution_error_s"])
    for problem in result["failures"][:10]:
        lines.append("   FAILED: %s" % problem)
    for keys in result["counter_mismatch"][:3]:
        lines.append("   COUNTERS DIFFER: %s" % ", ".join(keys[:8]))
    return lines


def run(names: List[str], seed: int, seconds: float, trace: bool, sizes=None) -> List[dict]:
    """Measure each named workload in turn; ``sizes`` maps a workload
    name to the constructed workload (the self-test's tiny sizes)."""
    import workloads

    work_root = OUT / ("work-%d" % os.getpid())
    results = []
    try:
        for name in names:
            workload = (sizes or {}).get(name) or workloads.WORKLOADS[name]()
            results.append(measure(workload, seed, seconds, trace, work_root / name))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    return results


def summary(results: List[dict], trace: bool) -> dict:
    """The last-line JSON object (metric names prefixed when several
    workloads ran)."""
    metrics: Dict[str, dict] = {}
    prefix = len(results) > 1
    for result in results:
        chosen = (
            {k: (v, unit(k)) for k, v in result["layer"].items()}
            if trace
            else result["end_to_end"]
        )
        for name, (value, unit_name) in chosen.items():
            key = "%s.%s" % (result["workload"], name) if prefix else name
            metrics[key] = {"value": value, "unit": unit_name}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="detect-known, fuzz-generated, tables-cold, tables-warm or all")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help="input seed (default %d; held-out seed %d)" % (DEFAULT_SEED, HELD_OUT_SEED),
    )
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced passes and report per-layer metrics")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print("e2ebench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    # The program reads WAFFLE_* at import (obs dirs, chaos, supervisor):
    # the benchmark measures it with none of them set.
    for key in [k for k in os.environ if k.startswith("WAFFLE_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print("e2ebench: unknown workload %s" % ", ".join(unknown), file=sys.stderr)
        return 2

    results = run(names, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    for result in results:
        stem = "%s-seed%d-trace%d" % (result["workload"], args.seed, args.trace)
        spans = result.pop("spans")
        (OUT / ("result-%s.json" % stem)).write_text(json.dumps(result, indent=1, sort_keys=True))
        if args.trace:
            (OUT / ("spans-%s.json" % stem)).write_text(json.dumps(
                {"fields": ["id", "parent", "name", "start_s", "end_s"], "passes": spans}
            ))
        print("\n".join(report(result, bool(args.trace))))
    print(json.dumps(summary(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
