"""The four benchmark workloads.

Each workload has a ``setup(seed, work)`` that builds its inputs from
the seed alone (this is what ``setup_s`` times) and a
``run_pass(inputs, work, probe)`` that drives the program's public APIs over
every input once, timing each unit and checking its output. A pass is
deterministic: for a fixed seed it yields the same rows, the same check
results and the same layer counters every time it runs.

A *unit* is what ``units_per_s`` counts: one detection session
(``detect-known``), one generated workload's oracle verdict
(``fuzz-generated``) or one table row (``tables-*``).
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps import all_apps, all_bugs, bug_workload
from repro.baselines import WaffleBasic
from repro.core.config import DEFAULT_CONFIG
from repro.core.detector import Waffle
from repro.gen.spec import BUG_KINDS, TOPOLOGIES, generate_spec
from repro.harness import experiments, fuzz, metrics, runner
from repro import obs

_now = time.perf_counter


@dataclass
class PassResult:
    """Outputs of one pass over a workload's inputs."""

    rows: List[dict] = field(default_factory=list)
    unit_ms: List[float] = field(default_factory=list)
    #: One message per unit whose output check failed.
    failures: List[str] = field(default_factory=list)
    #: Figures read off the pass's outputs: detection quality (bugs
    #: found, runs to expose, slowdown) and bytes the obs layer wrote.
    figures: Dict[str, float] = field(default_factory=dict)
    #: Called before each unit, outside the unit's time: the runner's
    #: host-speed probe, returning the speed it measured.
    probe: Optional[Callable[[], float]] = None
    #: The probed host speed before each unit (when probing).
    unit_speed: List[float] = field(default_factory=list)

    def time_unit(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` as one unit and record its wall time."""
        if self.probe is not None:
            self.unit_speed.append(self.probe())
        started = _now()
        result = fn(*args, **kwargs)
        self.unit_ms.append((_now() - started) * 1000.0)
        return result

    @property
    def units(self) -> int:
        return len(self.unit_ms)

    def digest(self) -> str:
        return rows_digest(self.rows)


def rows_digest(rows: List[dict]) -> str:
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def row_mismatches(rows: List[dict], expected: List[dict], source: str) -> List[str]:
    """One message per row that is not byte-identical to its expected row."""
    problems = [
        "row %d differs from the %s" % (index, source)
        for index, (row, want) in enumerate(zip(rows, expected))
        if json.dumps(row, sort_keys=True) != json.dumps(want, sort_keys=True)
    ]
    if len(rows) != len(expected):
        problems.append("%d rows, the %s has %d" % (len(rows), source, len(expected)))
    return problems


# ======================================================================
# detect-known: the Table 4 campaign
# ======================================================================


@dataclass
class DetectSizes:
    attempts: int = 3
    budget: int = 20
    bugs: Optional[Tuple[str, ...]] = None  # None: all 18


@dataclass
class DetectInputs:
    base_seed: int
    attempts: int
    budget: int
    #: (bug, test, expected bug, baseline virtual ms) per planted bug.
    #: The expectation is what every report of a session on that test
    #: must match; the uninstrumented baseline is what Waffle's
    #: virtual-time slowdown is measured against.
    cases: List[tuple]


class DetectKnown:
    """The planted Table 4 bugs x {Waffle, WaffleBasic} x attempts."""

    name = "detect-known"
    #: Host-probe repetitions before each unit (about 5% of a pass).
    probe_reps = 1

    def __init__(self, sizes: DetectSizes = DetectSizes(), expect: Optional[Dict[str, str]] = None):
        self.sizes = sizes
        #: bug id -> the bug id its reports must match (identity unless
        #: a test deliberately plants a wrong expectation).
        self.expect = expect or {}

    def setup(self, seed: int, work: Path) -> DetectInputs:
        bugs = {bug.bug_id: bug for bug in all_bugs()}
        selected = [
            bug for bug in bugs.values() if self.sizes.bugs is None or bug.bug_id in self.sizes.bugs
        ]
        base_seed = seed * 1000
        cases = []
        for bug in selected:
            test = bug_workload(bug.bug_id)
            expected = bugs[self.expect.get(bug.bug_id, bug.bug_id)]
            base_ms = runner.run_baseline(test, seed=base_seed).virtual_time_ms
            cases.append((bug, test, expected, base_ms))
        return DetectInputs(base_seed, self.sizes.attempts, self.sizes.budget, cases)

    def run_pass(self, inputs: DetectInputs, work: Path, probe=None) -> PassResult:
        out = PassResult(probe=probe)
        found = {"waffle": 0, "wafflebasic": 0}
        runs_to_expose = 0
        slowdowns: List[float] = []
        for bug, test, expected, base_ms in inputs.cases:
            for tool in (Waffle, WaffleBasic):
                attempt_runs: List[Optional[int]] = []
                for attempt in range(1, inputs.attempts + 1):
                    config = DEFAULT_CONFIG.with_seed(inputs.base_seed + attempt)
                    outcome = out.time_unit(
                        tool(config).detect, test, max_detection_runs=inputs.budget
                    )
                    matched = outcome.bug_found and all(
                        expected.matches(report) for report in outcome.reports
                    )
                    out.failures.extend(self._check(bug, tool.name, attempt, outcome, expected))
                    attempt_runs.append(outcome.runs_to_expose if matched else None)
                    if matched and tool is Waffle:
                        slowdowns.append(outcome.total_time_ms / base_ms)
                    out.rows.append(
                        {
                            "bug": bug.bug_id,
                            "tool": tool.name,
                            "attempt": attempt,
                            "matched": matched,
                            "runs_to_expose": outcome.runs_to_expose,
                            "runs": len(outcome.runs),
                            "virtual_ms": round(outcome.total_time_ms, 6),
                            "delays": outcome.total_delays,
                            "ops": sum(record.op_count for record in outcome.runs),
                        }
                    )
                majority = metrics.majority_runs_to_expose(attempt_runs)
                if majority is not None:
                    found[tool.name] += 1
                    if tool is Waffle:
                        runs_to_expose += majority
        out.figures = {
            "bugs_found": found["waffle"],
            "basic_bugs_found": found["wafflebasic"],
            "runs_to_expose": runs_to_expose,
            "virtual_slowdown_p50": statistics.median(slowdowns) if slowdowns else 0.0,
        }
        return out

    @staticmethod
    def _check(bug, tool: str, attempt: int, outcome, expected) -> List[str]:
        where = "%s/%s/attempt %d" % (bug.bug_id, tool, attempt)
        problems = []
        for report in outcome.reports:
            if not expected.matches(report):
                problems.append(
                    "%s: report at %s does not match %s"
                    % (where, report.fault_site, expected.bug_id)
                )
            run = outcome.runs[report.run_index - 1]
            if run.delays_injected == 0:
                problems.append(
                    "%s: report from run %d, which injected nothing" % (where, run.index)
                )
        return problems


# ======================================================================
# fuzz-generated: oracle-checked generated workloads
# ======================================================================


_UBI, _UAD, _RP = BUG_KINDS


def benign_work(spec) -> float:
    """How much benign traffic a generated workload carries: the product
    of each benign component's size parameters (workers x increments,
    pipeline items, ...), summed."""
    return sum(math.prod(value for _, value in c.params) for c in spec.components if c.params)


@dataclass
class FuzzSizes:
    #: Workloads per topology for each multiset of detectable planted-bug
    #: kinds, in proportion to the generator's own frequencies. Each
    #: stratum takes one workload from the middle of each of that many
    #: equal quantile bins of benign work. Topology, bug kinds and benign work are what a
    #: generated workload's cost depends on most, so every seed draws
    #: different workloads with the same composition.
    quotas: Tuple[Tuple[Tuple[str, ...], int], ...] = (
        ((), 4),
        ((_UBI,), 5), ((_UAD,), 5), ((_RP,), 5),
        ((_UAD, _UBI), 2), ((_RP, _UBI), 2), ((_RP, _UAD), 2),
        ((_UBI, _UBI), 1), ((_UAD, _UAD), 1), ((_RP, _RP), 1),
    )
    budget: int = fuzz.DEFAULT_BUDGET


class FuzzGenerated:
    """``fuzz_range`` over stratified generator seeds, obs on."""

    name = "fuzz-generated"
    probe_reps = 1

    #: Generator seeds of one --seed value start at seed * stride, so
    #: different benchmark seeds draw disjoint workloads.
    stride = 1_000_003

    def __init__(self, sizes: FuzzSizes = FuzzSizes()):
        self.sizes = sizes

    #: Generator seeds scanned first per benchmark seed; the quantiles of
    #: benign work are taken over them, per topology. A scan that leaves a
    #: stratum empty is doubled, up to ``max_scan``, and selection starts
    #: over on the longer scan.
    scan = 2000
    max_scan = 64000

    def setup(self, seed: int, work: Path) -> List[int]:
        first = seed * self.stride
        specs = []
        scan = self.scan
        while True:
            specs.extend(generate_spec(c) for c in range(first + len(specs), first + scan))
            chosen = self._select(specs)
            if chosen is not None:
                return chosen
            if scan >= self.max_scan:
                raise RuntimeError("generator strata not filled by seed %d" % seed)
            scan *= 2

    def _select(self, specs) -> Optional[List[int]]:
        """One workload per open bin, or None if some bin stays empty."""
        ranked: Dict[str, List[float]] = {}
        for spec in specs:
            ranked.setdefault(spec.topology, []).append(benign_work(spec))
        for values in ranked.values():
            values.sort()
        bins = dict(self.sizes.quotas)
        open_bins = {
            (topology, kinds): set(range(count))
            for topology in TOPOLOGIES
            for kinds, count in self.sizes.quotas
        }
        chosen: List[int] = []
        for spec in specs:
            kinds = tuple(sorted(bug.kind for bug in spec.detectable_bugs))
            slots = open_bins.get((spec.topology, kinds))
            if not slots:
                continue
            values = ranked[spec.topology]
            quantile = bisect.bisect_left(values, benign_work(spec)) / len(values)
            count = bins[kinds]
            index = int(quantile * count)
            # The middle half of each bin: a stratum with one slot takes a
            # workload of typical, not extreme, size.
            if index in slots and abs(quantile * count - index - 0.5) <= 0.25:
                slots.remove(index)
                chosen.append(spec.seed)
        return None if any(open_bins.values()) else chosen

    def run_pass(self, seeds: List[int], work: Path, probe=None) -> PassResult:
        out = PassResult(probe=probe)
        budget = self.sizes.budget
        obs_dir = work / "obs"
        shutil.rmtree(obs_dir, ignore_errors=True)
        obs.configure(obs_dir)
        try:
            for seed in seeds:
                rows = out.time_unit(
                    fuzz.fuzz_range, seed, seed + 1,
                    budget=budget, jobs=1, check_replay=True,
                )
                row = rows[0]
                out.rows.append(row)
                if not row["ok"]:
                    out.failures.append("seed %d: %s" % (seed, "; ".join(row["violations"])))
        finally:
            obs.disable()
        ok_rows = [row for row in out.rows if row["ok"]]
        out.figures = {
            "bugs_found": sum(len(row["found"]) for row in out.rows),
            "detectable": sum(row["detectable"] for row in out.rows),
            # An ok row ran one session per found bug, each ending at its
            # exposing run, plus one empty confirming session of
            # 1 preparation + `budget` detection runs.
            "runs_to_expose": sum(row["runs"] - (1 + budget) for row in ok_rows),
        }
        out.figures["obs_bytes"] = sum(
            path.stat().st_size for path in obs_dir.rglob("*") if path.is_file()
        )
        return out


# ======================================================================
# tables-cold / tables-warm: Tables 2, 5 and 6 through the plan cache
# ======================================================================

#: (row label, driver name); drivers are looked up on the module at call
#: time so a traced pass sees its wrappers.
TABLES = (
    ("table2", "table2_sites"),
    ("table5", "table5_overhead"),
    ("table6", "table6_delays"),
)


@dataclass
class TablesSizes:
    apps: Optional[Tuple[str, ...]] = None  # None: all 11


@dataclass
class TablesInputs:
    seed: int
    apps: List[str]
    #: Expected rows (tables-warm: the cold rows recorded at set-up).
    expected: Optional[List[dict]] = None
    cache_dir: Optional[Path] = None


def tables_pass(inputs: TablesInputs, cache_dir: Path, probe=None) -> PassResult:
    """One row per (table, app), each through its public table driver."""
    out = PassResult(probe=probe)
    for table, driver in TABLES:
        for app in inputs.apps:
            rows = out.time_unit(
                getattr(experiments, driver),
                DEFAULT_CONFIG, apps=[app], seed=inputs.seed, jobs=1, cache_dir=str(cache_dir),
            )
            out.rows.append({"table": table, **dataclasses.asdict(rows[0])})
    if inputs.expected is not None:
        out.failures.extend(row_mismatches(out.rows, inputs.expected, "cold pass"))
    return out


class TablesCold:
    """Every pass starts from an empty plan cache."""

    name = "tables-cold"
    probe_reps = 3

    def __init__(self, sizes: TablesSizes = TablesSizes()):
        self.sizes = sizes

    def setup(self, seed: int, work: Path) -> TablesInputs:
        apps = list(self.sizes.apps) if self.sizes.apps is not None else list(all_apps())
        return TablesInputs(seed=seed, apps=apps)

    def run_pass(self, inputs: TablesInputs, work: Path, probe=None) -> PassResult:
        cache_dir = work / "cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        return tables_pass(inputs, cache_dir, probe)


class TablesWarm(TablesCold):
    """Every pass reads a cache that set-up populated; nothing simulates."""

    name = "tables-warm"
    probe_reps = 1

    def setup(self, seed: int, work: Path) -> TablesInputs:
        inputs = super().setup(seed, work)
        cache_dir = work / "cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        inputs.expected = tables_pass(inputs, cache_dir).rows
        inputs.cache_dir = cache_dir
        return inputs

    def run_pass(self, inputs: TablesInputs, work: Path, probe=None) -> PassResult:
        return tables_pass(inputs, inputs.cache_dir, probe)


WORKLOADS = {w.name: w for w in (DetectKnown, FuzzGenerated, TablesCold, TablesWarm)}
