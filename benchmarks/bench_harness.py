"""Measure the harness speedup from --jobs + the run cache, and gate
that Tables 2, 5 and 6 share each test's runs through the cache.

Runs a fixed Table 4 subset three ways and writes ``BENCH_harness.json``
at the repo root:

* ``serial_cold_s``  -- the seed sequential path (no cache, no pool);
* ``warm_cache_s``   -- same cells with ``jobs=4`` and a warm cache
  (every unit memoized, so this is the steady-state cost of
  regenerating a table after any unrelated change);
* ``cold_cache_s``   -- the one-time cost of populating the cache.

All three produce bit-identical rows (asserted here and in
``tests/harness/test_parallel.py``). The acceptance bar is
``serial_cold_s / warm_cache_s >= 2``.

The ``cache_sharing`` block is a deterministic counter gate: cold
Tables 2, 5 and 6 on ``SHARE_APPS`` through one fresh cache must leave
exactly one ``prep``, ``planned``, ``baseline`` and ``online_pair``
record per test, record one preparation trace per test, and produce
the rows of an uncached run. Exit 0 iff both gates pass.

Usage::

    PYTHONPATH=src python benchmarks/bench_harness.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import time

from bench_analyzer import host_fingerprint
from repro.apps import get_app
from repro.harness import experiments, runner

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: A fixed, representative Table 4 subset: a sparse app bug (Bug-1), a
#: dense-app bug (Bug-10) and a Figure 4b bug (Bug-11).
BUGS = ["Bug-1", "Bug-10", "Bug-11"]
ATTEMPTS = 3
BUDGET = 20
JOBS = 4

#: The cache-sharing gate: its apps, the tables it runs in order, and
#: the record kinds that must be written once per test.
SHARE_APPS = ["netmq", "nsubstitute"]
SHARE_TABLES = ("table2_sites", "table5_overhead", "table6_delays")
SHARE_KINDS = ("prep", "planned", "baseline", "online_pair")


def _run(jobs: int, cache_dir):
    start = time.perf_counter()
    rows = experiments.table4_detection(
        attempts=ATTEMPTS,
        budget=BUDGET,
        bugs=BUGS,
        base_seed=0,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    return time.perf_counter() - start, rows


def _share_tables(cache_dir):
    return [
        getattr(experiments, table)(apps=SHARE_APPS, jobs=1, cache_dir=cache_dir)
        for table in SHARE_TABLES
    ]


def cache_sharing_gate() -> dict:
    """Cold Tables 2/5/6 through one fresh cache, counted in-process."""
    tests = sum(len(get_app(app).multithreaded_tests) for app in SHARE_APPS)
    plain_rows = _share_tables(None)
    with tempfile.TemporaryDirectory(prefix="waffle-bench-share-") as cache_dir:
        recordings = runner.RECORDING_RUNS
        cached_rows = _share_tables(cache_dir)
        recorded = runner.RECORDING_RUNS - recordings
        records = {
            kind: len(list(pathlib.Path(cache_dir).glob(kind + "-*.json")))
            for kind in SHARE_KINDS
        }
    rows_identical = repr(plain_rows) == repr(cached_rows)
    return {
        "apps": SHARE_APPS,
        "tests": tests,
        "records": records,
        "prep_recordings": recorded,
        "rows_identical": rows_identical,
        "ok": rows_identical
        and recorded == tests
        and all(count == tests for count in records.values()),
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="waffle-bench-cache-") as cache_dir:
        serial_cold_s, serial_rows = _run(jobs=1, cache_dir=None)
        cold_cache_s, cold_rows = _run(jobs=JOBS, cache_dir=cache_dir)
        warm_cache_s, warm_rows = _run(jobs=JOBS, cache_dir=cache_dir)

    if not (repr(serial_rows) == repr(cold_rows) == repr(warm_rows)):
        print("FATAL: serial/parallel/cached rows differ", file=sys.stderr)
        return 1

    speedup = serial_cold_s / warm_cache_s if warm_cache_s > 0 else float("inf")
    sharing = cache_sharing_gate()
    payload = {
        "benchmark": "table4_detection subset",
        "bugs": BUGS,
        "attempts": ATTEMPTS,
        "budget": BUDGET,
        "jobs": JOBS,
        "serial_cold_s": round(serial_cold_s, 4),
        "cold_cache_s": round(cold_cache_s, 4),
        "warm_cache_s": round(warm_cache_s, 4),
        "speedup_warm_vs_serial": round(speedup, 2),
        "rows_identical": True,
        "cache_sharing": sharing,
        "host": host_fingerprint(),
    }
    out = REPO_ROOT / "BENCH_harness.json"
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    print("wrote %s" % out)
    if not sharing["ok"]:
        print("FATAL: Tables 2/5/6 did not share one run per test", file=sys.stderr)
        return 3
    return 0 if speedup >= 2.0 else 2


if __name__ == "__main__":
    sys.exit(main())
