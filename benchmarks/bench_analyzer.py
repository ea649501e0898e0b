"""Analyzer scale benchmark: tree clocks vs the vector-clock reference.

Real preparation-run traces top out near a thousand events (median 20,
mean 60, max 960 across the 146 bundled app tests), far too small to
measure how ``analyze_trace`` scales. This benchmark generates seeded
synthetic traces (:mod:`repro.core.synthtrace`) with the same structure
the analyzer cares about -- deep fork trees, hundreds of threads,
near-miss windows dense with fork-related accesses -- at 10x and 100x
the largest real trace, and times the analysis under two clock classes:

* ``tree`` -- :class:`~repro.core.tree_clock.ThreadTreeClock`, the
  engine every preparation run uses; and
* ``vector`` -- :class:`~repro.core.vector_clock.ThreadVectorClock`,
  section 4.1's representation, as the reference.

The timed region per clock class is clock attachment (the recording
hook's per-fork ``inherit_to`` + per-event ``capture()`` work, replayed
offline on the shared event list) plus ``analyze_trace``. Repetitions
alternate the two classes so host drift lands on both. Because both
annotate the *same* event objects, object ids and timestamps are
identical by construction and the two injection plans can be -- and
are -- compared bit-for-bit.

Gates (exit 2 on violation):

* both plans serialize identically at every scale;
* the tree engine is at least ``MIN_SPEEDUP_X`` faster than the vector
  reference at the largest scale (a same-process ratio, so the gate
  travels to any CI runner).

Writes ``BENCH_analyzer.json`` at the repo root, with the host
fingerprint and every repetition's time.

Usage::

    PYTHONPATH=src python benchmarks/bench_analyzer.py
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

from repro.core.analyzer import analyze_trace
from repro.core.config import DEFAULT_CONFIG
from repro.core.synthtrace import attach_clocks, generate_trace
from repro.core.tree_clock import ThreadTreeClock
from repro.core.vector_clock import ThreadVectorClock

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Events in the largest real preparation trace (netmq, seed 3); scale
#: labels below are multiples of it.
BASE_EVENTS = 960

MIN_SPEEDUP_X = 5.0

#: Generation parameters per scale cell. fork_bias grows one long spine
#: (deep clocks); related_fraction routes near-miss USEs through fork
#: chains, where the two representations' ordering-query costs diverge
#: most.
SCALES = [
    {
        "label": "10x",
        "seed": 7,
        "n_threads": 192,
        "n_objects": 1_200,
        "fork_bias": 0.95,
        "uses_per_object": 12,
        "related_fraction": 0.9,
        "reps": 3,
    },
    {
        "label": "100x",
        "seed": 7,
        "n_threads": 640,
        "n_objects": 12_000,
        "fork_bias": 0.97,
        "uses_per_object": 12,
        "related_fraction": 0.9,
        "reps": 2,
    },
]

CLOCKS = {"vector": ThreadVectorClock, "tree": ThreadTreeClock}


def host_fingerprint() -> dict:
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=REPO_ROOT, capture_output=True, text=True,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def run_cell(spec: dict) -> dict:
    params = {k: v for k, v in spec.items() if k not in ("label", "reps")}
    synth = generate_trace(**params)

    # Warm both classes once: first-touch allocation and GC growth
    # otherwise land on whichever runs first.
    for clock_class in CLOCKS.values():
        attach_clocks(synth, clock_class)

    runs = {name: [] for name in CLOCKS}
    plans = {}
    for _ in range(spec["reps"]):
        for name, clock_class in CLOCKS.items():
            # Free the previous captures untimed: dropping 100k dicts
            # would otherwise land on the next class's attach time.
            for event in synth.trace.events:
                event.vc_snapshot = None
            gc.collect()
            t0 = time.perf_counter()
            attach_clocks(synth, clock_class)
            t1 = time.perf_counter()
            plan = analyze_trace(synth.trace, DEFAULT_CONFIG)
            t2 = time.perf_counter()
            runs[name].append((t1 - t0, t2 - t1))
            plans[name] = json.dumps(plan.to_dict(), sort_keys=True)

    results = {}
    for name, times in runs.items():
        attach, analyze = min(times, key=sum)
        results[name] = {
            "attach_s": round(attach, 4),
            "analyze_s": round(analyze, 4),
            "total_s": round(attach + analyze, 4),
            "total_s_reps": [round(sum(t), 4) for t in times],
        }

    stats = json.loads(plans["tree"])["stats"]
    return {
        "label": spec["label"],
        "events": synth.event_count,
        "threads": synth.thread_count,
        "scale_x": round(synth.event_count / BASE_EVENTS, 1),
        "params": synth.params,
        "reps": spec["reps"],
        "clocks": results,
        "plans_bit_identical": plans["tree"] == plans["vector"],
        "candidate_pairs": stats["candidate_pairs"],
        "pruned_parent_child": stats["pruned_parent_child"],
        "speedup_x": round(results["vector"]["total_s"] / results["tree"]["total_s"], 2),
    }


def main() -> int:
    cells = [run_cell(spec) for spec in SCALES]
    top = cells[-1]
    headline = top["speedup_x"]

    failures = [
        "%s: injection plans differ between tree and vector clocks" % cell["label"]
        for cell in cells
        if not cell["plans_bit_identical"]
    ]
    if headline < MIN_SPEEDUP_X:
        failures.append(
            "tree-over-vector speedup %.2fx at %s scale is below the %.1fx floor"
            % (headline, top["label"], MIN_SPEEDUP_X)
        )

    payload = {
        "benchmark": "analyzer scale (tree clocks vs the vector-clock reference)",
        "host": host_fingerprint(),
        "base_events": BASE_EVENTS,
        "cells": cells,
        "headline_speedup_x": headline,
        "min_speedup_x": MIN_SPEEDUP_X,
        "ok": not failures,
    }
    out = REPO_ROOT / "BENCH_analyzer.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print("wrote %s" % out)
    for failure in failures:
        print("FAIL: %s" % failure, file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
