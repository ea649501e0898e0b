"""The scheduler's work census against a checked-in oracle.

For one Waffle and one WaffleBasic session per planted Table 4 bug
(attempt seed 1, budget 20), every simulated run's deterministic work
counters -- scheduler steps, heap pushes, context switches, operations
and final virtual time -- must equal ``data/work_census.json`` exactly.
The oracle is a recording of an earlier scheduler, so it holds the
current one to the same work independently of any reference loop
written against today's classes. A change that alters work on purpose
regenerates the file and says why::

    PYTHONPATH=src python -m tests.sim.test_work_census
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.apps import all_bugs, bug_workload
from repro.baselines import WaffleBasic
from repro.core.config import DEFAULT_CONFIG
from repro.core.detector import Waffle
from repro.sim import api

CENSUS = Path(__file__).resolve().parent / "data" / "work_census.json"

FIELDS = ("steps", "heap_pushes", "context_switches", "op_count", "virtual_time")


def census():
    """Per-bug, per-tool lists of per-run work counters."""
    rows = []
    original = api.Scheduler

    class Counting(original):
        def run(self):
            result = original.run(self)
            rows[-1]["runs"].append([getattr(result, field) for field in FIELDS])
            return result

    config = DEFAULT_CONFIG.with_seed(1)
    api.Scheduler = Counting
    try:
        for bug in all_bugs():
            test = bug_workload(bug.bug_id)
            for tool in (Waffle, WaffleBasic):
                rows.append({"bug": bug.bug_id, "tool": tool.name, "runs": []})
                tool(config).detect(test, max_detection_runs=20)
    finally:
        api.Scheduler = original
    return {"fields": list(FIELDS), "sessions": rows}


def test_work_census_matches_oracle():
    expected = json.loads(CENSUS.read_text())
    actual = census()
    assert actual["fields"] == expected["fields"]
    assert [(s["bug"], s["tool"]) for s in actual["sessions"]] == [
        (s["bug"], s["tool"]) for s in expected["sessions"]
    ]
    for got, want in zip(actual["sessions"], expected["sessions"]):
        assert got["runs"] == want["runs"], (got["bug"], got["tool"])
    assert sum(len(s["runs"]) for s in actual["sessions"]) >= 2 * 18


if __name__ == "__main__":
    data = census()
    CENSUS.parent.mkdir(exist_ok=True)
    CENSUS.write_text(
        '{"fields": %s,\n "sessions": [\n  %s\n]}\n'
        % (json.dumps(data["fields"]), ",\n  ".join(json.dumps(s) for s in data["sessions"]))
    )
    print("wrote %s" % CENSUS)
