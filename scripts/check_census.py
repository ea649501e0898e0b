"""Diff e2ebench's deterministic counter block against the checked-in census.

For each workload, runs one traced e2ebench pass set
(``e2ebench/run.py --trace 1 --seconds 0``), reads the ``counters``
block of ``.e2ebench_out/result-<workload>-seed<n>-trace1.json`` and
compares it, key by key, with ``benchmarks/census/seed<n>.json``. The
block holds only work counts (simulated ops and runs, context switches,
analyses, delays, cache lookups, detection figures, row digest), so
any difference is a change in the work the program does, never noise.
A change that alters work on purpose regenerates the census with
``--write`` and says why.

Usage::

    python scripts/check_census.py --seed 0            # exit 1 on a diff
    python scripts/check_census.py --seed 7919 --write
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CENSUS_DIR = ROOT / "benchmarks" / "census"
OUT = ROOT / ".e2ebench_out"
WORKLOADS = ("detect-known", "fuzz-generated", "tables-cold", "tables-warm")


def measure(workload: str, seed: int) -> dict:
    """One traced e2ebench run of ``workload``; its counter block."""
    subprocess.run(
        [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "1"],
        check=True, stdout=subprocess.DEVNULL, cwd=ROOT,
    )
    result = json.loads((OUT / ("result-%s-seed%d-trace1.json" % (workload, seed))).read_text())
    if not result["correct"]:
        raise SystemExit("check_census: e2ebench reported %s incorrect" % workload)
    return result["counters"]


def diff(expected: dict, actual: dict) -> list:
    """``key: expected -> actual`` lines for every key that differs."""
    return [
        "%s: %r -> %r" % (key, expected.get(key), actual.get(key))
        for key in sorted(set(expected) | set(actual))
        if expected.get(key) != actual.get(key)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--write", action="store_true",
                        help="record the measured blocks as the census instead of diffing")
    args = parser.parse_args(argv)

    path = CENSUS_DIR / ("seed%d.json" % args.seed)
    census = json.loads(path.read_text()) if path.is_file() else {}
    failed = False
    for name in WORKLOADS:
        actual = measure(name, args.seed)
        if args.write:
            census[name] = actual
            print("%s: recorded %d counters" % (name, len(actual)))
            continue
        if name not in census:
            print("%s: no census at %s" % (name, path))
            failed = True
            continue
        lines = diff(census[name], actual)
        print("%s: %s" % (name, "identical" if not lines else "DIFFERS"))
        for line in lines:
            print("  " + line)
        failed = failed or bool(lines)
    if args.write:
        CENSUS_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(census, indent=1, sort_keys=True) + "\n")
        print("wrote %s" % path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
