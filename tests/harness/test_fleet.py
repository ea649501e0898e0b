"""Fleet campaigns: leases, work stealing, and the serial/fleet/chaos
byte-identity matrix."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.harness import faults, fleet, parallel
from repro.harness.cache import CACHE_DIR_ENV, CACHE_SHARED_ENV
from repro.harness.fleet import FleetDrained, FleetWorker
from repro.harness.supervisor import RetryPolicy, cell_key
from repro.obs import eventbus


@pytest.fixture(autouse=True)
def clean_slate():
    faults.disable()
    fleet.deactivate()
    yield
    faults.disable()
    fleet.deactivate()
    eventbus.disable()


def fast_policy(max_attempts: int = 3) -> RetryPolicy:
    return RetryPolicy(max_attempts=max_attempts, backoff_base_s=0.0, jitter=0.0)


def make_worker(tmp_path, worker_id="w-test", role="worker", **kwargs):
    kwargs.setdefault("policy", fast_policy())
    kwargs.setdefault("poll_s", 0.02)
    return FleetWorker(tmp_path / "fleet", worker_id=worker_id, role=role, **kwargs)


def square(x):
    return x * x


_FLAKY_CALLS = {"n": 0}


def flaky_square(x):
    _FLAKY_CALLS["n"] += 1
    if _FLAKY_CALLS["n"] == 1:
        raise OSError("transient wobble")
    return x * x


def always_deterministic_failure(x):
    raise ValueError("same inputs, same crash")


def always_transient_failure(x):
    raise OSError("the disk is never there")


KEY = "f" * 32


class TestLeaseProtocol:
    def test_acquire_is_exclusive(self, tmp_path):
        a = make_worker(tmp_path, "a")
        b = make_worker(tmp_path, "b")
        assert a._try_acquire(KEY, attempt=1)
        assert not b._try_acquire(KEY, attempt=1)
        lease = b._read_lease(KEY)
        assert lease["worker"] == "a"
        assert lease["attempt"] == 1

    def test_release_requires_ownership(self, tmp_path):
        a = make_worker(tmp_path, "a")
        b = make_worker(tmp_path, "b")
        a._try_acquire(KEY, attempt=1)
        assert not b._release_lease(KEY)
        assert a._read_lease(KEY) is not None
        assert a._release_lease(KEY)
        assert a._read_lease(KEY) is None
        # Double release is a no-op, not a second ledger event.
        assert not a._release_lease(KEY)

    def test_steal_requires_expiry_and_has_one_winner(self, tmp_path):
        victim = make_worker(tmp_path, "victim", lease_ttl_s=0.15)
        thief = make_worker(tmp_path, "thief", lease_ttl_s=0.15)
        victim._try_acquire(KEY, attempt=1)
        fresh = thief._read_lease(KEY)
        assert fresh["deadline_unix"] > time.time()  # not stealable yet
        time.sleep(0.25)
        stale = thief._read_lease(KEY)
        assert stale["deadline_unix"] < time.time()
        assert thief._try_steal(KEY, stale) == 2  # victim attempt + 1
        # The rename-to-tombstone is the mutex: the second steal loses.
        assert thief._try_steal(KEY, stale) is None
        tombstones = list((tmp_path / "fleet" / "expired").iterdir())
        assert len(tombstones) == 1
        assert thief._read_lease(KEY)["worker"] == "thief"

    def test_zombie_owner_cannot_resurrect_a_stolen_lease(self, tmp_path):
        victim = make_worker(tmp_path, "victim", lease_ttl_s=0.1)
        thief = make_worker(tmp_path, "thief", lease_ttl_s=0.1)
        victim._try_acquire(KEY, attempt=1)
        time.sleep(0.2)
        assert thief._try_steal(KEY, thief._read_lease(KEY)) == 2
        # The presumed-dead owner wakes up: renewal and release both
        # refuse (the steal's termination already balanced its lease).
        assert not victim._renew_lease(KEY)
        assert not victim._release_lease(KEY)
        assert thief._read_lease(KEY)["worker"] == "thief"

    def test_heartbeat_rearms_the_deadline(self, tmp_path):
        worker = make_worker(tmp_path, "hb", lease_ttl_s=0.3)
        worker._try_acquire(KEY, attempt=1)
        first = worker._read_lease(KEY)["deadline_unix"]
        beat = fleet._Heartbeat(worker, KEY)
        beat.start()
        time.sleep(0.45)  # several beat intervals (ttl/3) past the ttl
        beat.stop()
        beat.join(timeout=2.0)
        lease = worker._read_lease(KEY)
        assert lease["deadline_unix"] > first
        assert lease["deadline_unix"] > time.time() - 0.1
        assert beat.beats >= 1


class TestMapCells:
    def test_results_in_submission_order(self, tmp_path):
        worker = make_worker(tmp_path, "solo")
        units = [(x,) for x in range(7)]
        assert worker.map_cells(square, units) == [x * x for x in range(7)]
        assert worker.stats.executed == 7
        assert worker.stats.fetched == 0
        # Leases all released, results all published.
        assert not list((tmp_path / "fleet" / "leases").iterdir())
        assert len(list(worker.store.keys())) == 7

    def test_second_worker_fetches_instead_of_re_executing(self, tmp_path):
        units = [(x,) for x in range(5)]
        make_worker(tmp_path, "first").map_cells(square, units)
        second = make_worker(tmp_path, "second")
        assert second.map_cells(square, units) == [x * x for x in range(5)]
        assert second.stats.executed == 0
        assert second.stats.fetched == 5

    def test_journal_records_every_execution_once(self, tmp_path):
        worker = make_worker(tmp_path, "journaled")
        worker.map_cells(square, [(x,) for x in range(4)])
        lines = [json.loads(l) for l in worker.journal_path.read_text().splitlines()]
        assert len(lines) == 4
        assert {l["key"] for l in lines} == {
            cell_key(square, (x,)) for x in range(4)
        }
        assert all(l["status"] == "ok" and l["worker"] == "journaled" for l in lines)

    def test_transient_failure_retries_to_success(self, tmp_path):
        _FLAKY_CALLS["n"] = 0
        worker = make_worker(tmp_path, "retrier")
        assert worker.map_cells(flaky_square, [(6,)]) == [36]
        assert worker.supervisor.stats.retried == 1
        record = worker.store.fetch(cell_key(flaky_square, (6,)))
        assert record.ok and record.attempts == 2

    def test_deterministic_failure_quarantines_with_tombstone(self, tmp_path):
        worker = make_worker(tmp_path, "quarantiner")
        assert worker.map_cells(always_deterministic_failure, [(1,)]) == [None]
        assert worker.supervisor.stats.quarantined == 1
        record = worker.store.fetch(cell_key(always_deterministic_failure, (1,)))
        assert record.status == "quarantined"
        assert record.result is None

    def test_attempt_budget_exhaustion_fails_the_cell(self, tmp_path):
        worker = make_worker(tmp_path, "exhausted", policy=fast_policy(max_attempts=2))
        assert worker.map_cells(always_transient_failure, [(1,)]) == [None]
        assert worker.supervisor.stats.failed == 1
        record = worker.store.fetch(cell_key(always_transient_failure, (1,)))
        assert record.status == "failed"
        assert record.attempts == 2

    def test_waiter_sees_anothers_tombstone_instead_of_spinning(self, tmp_path):
        make_worker(tmp_path, "first").map_cells(always_deterministic_failure, [(1,)])
        second = make_worker(tmp_path, "second")
        assert second.map_cells(always_deterministic_failure, [(1,)]) == [None]
        assert second.stats.executed == 0

    def test_drain_request_raises_and_releases(self, tmp_path):
        worker = make_worker(tmp_path, "drainer")
        worker.supervisor.request_shutdown()
        with pytest.raises(FleetDrained):
            worker.map_cells(square, [(x,) for x in range(3)])
        assert not list((tmp_path / "fleet" / "leases").iterdir())

    def test_chaos_crash_in_coordinator_is_retried_in_process(self, tmp_path):
        faults.configure("seed=1,worker_crash=1.0,attempts=1")
        worker = make_worker(tmp_path, "coord", role="coordinator")
        assert worker.map_cells(square, [(x,) for x in range(3)]) == [0, 1, 4]
        assert worker.supervisor.stats.retried == 3  # every cell crashed once, then ran clean
        assert worker.supervisor.stats.fault_counts.get("worker_crash") == 3

    def test_map_units_routes_through_an_active_fleet(self, tmp_path):
        worker = make_worker(tmp_path, "routed")
        fleet.activate(worker)
        try:
            assert parallel.map_units(square, [(3,)], jobs=4) == [9]
        finally:
            fleet.deactivate()
        assert worker.stats.executed == 1

    def test_steal_resumes_a_dead_workers_cell(self, tmp_path):
        dead = make_worker(tmp_path, "dead", lease_ttl_s=0.15)
        key = cell_key(square, (5,))
        dead._try_acquire(key, attempt=1)  # ... and then the host dies
        live = make_worker(tmp_path, "live", lease_ttl_s=0.15,
                           drain_timeout_s=10.0)
        assert live.map_cells(square, [(5,)]) == [25]
        assert live.stats.stolen == 1
        assert live.store.fetch(key).attempts == 2


@pytest.mark.tier2
class TestFleetWatchdog:
    """A fleet cell runs inside the supervisor's fault boundary, so a
    hang is killed at the cell deadline instead of holding the executor
    (and, through its heartbeat, the lease) for as long as it lasts."""

    def test_hung_coordinator_cell_is_killed_and_retried(self, tmp_path):
        faults.configure("seed=0,hang=1.0,hang_s=30")
        worker = make_worker(tmp_path, "coord", role="coordinator")
        worker.supervisor.cell_timeout_s = 0.5
        started = time.monotonic()
        assert worker.map_cells(square, [(4,)]) == [16]
        assert time.monotonic() - started < 10.0
        assert worker.supervisor.stats.fault_counts == {"hang": 1}
        assert worker.supervisor.stats.retried == 1
        assert list((tmp_path / "fleet").glob("crash-*.json"))
        assert worker.store.fetch(cell_key(square, (4,))).attempts == 2

    def test_inner_cell_timeout_reaches_the_fleet_boundary(self, tmp_path, monkeypatch):
        # _dispatch_inner exports the shared-cache variables; restore them.
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.delenv(CACHE_SHARED_ENV, raising=False)
        faults.configure("seed=0,hang=1.0,hang_s=30")
        worker = make_worker(tmp_path, "coord", role="coordinator")
        fleet.activate(worker)
        started = time.monotonic()
        try:
            rc = fleet._dispatch_inner(
                ["fuzz", "--seed-range", "0:1", "--budget", "2", "--no-replay",
                 "--cell-timeout", "0.5", "--out", str(tmp_path / "out.txt")],
                tmp_path / "cache",
            )
        finally:
            fleet.deactivate()
        assert rc == 0
        assert time.monotonic() - started < 10.0
        assert worker.supervisor.watchdog_s() == 0.5
        assert worker.supervisor.stats.fault_counts == {"hang": 1}
        assert worker.supervisor.stats.ok == 1


class TestLeaseLedger:
    def _ledger(self, directory):
        view_events = []
        for stream in eventbus.load_streams(directory):
            view_events.extend(stream.events)
        counts = {}
        for event in view_events:
            counts[event["type"]] = counts.get(event["type"], 0) + 1
        return counts

    def test_clean_run_balances(self, tmp_path):
        eventbus.configure(tmp_path / "fleet")
        worker = make_worker(tmp_path, "ledgered")
        worker.map_cells(square, [(x,) for x in range(4)])
        eventbus.flush()
        counts = self._ledger(tmp_path / "fleet")
        assert counts.get("lease_acquire", 0) == 4
        assert counts.get("lease_release", 0) == 4
        assert "lease_expire" not in counts
        assert "lease_steal" not in counts

    def test_steal_emits_expire_and_steal_exactly_once(self, tmp_path):
        eventbus.configure(tmp_path / "fleet")
        dead = make_worker(tmp_path, "dead", lease_ttl_s=0.15)
        dead._try_acquire(cell_key(square, (9,)), attempt=1)
        live = make_worker(tmp_path, "live", lease_ttl_s=0.15)
        live.map_cells(square, [(9,)])
        eventbus.flush()
        counts = self._ledger(tmp_path / "fleet")
        # Conservation: acquire + steal == release + expire.
        assert counts["lease_acquire"] == 1  # the dead worker's claim
        assert counts["lease_steal"] == 1
        assert counts["lease_expire"] == 1
        assert counts["lease_release"] == 1  # the thief's finalize

    def test_sweep_reclaims_publish_then_die_leases(self, tmp_path):
        eventbus.configure(tmp_path / "fleet")
        worker = make_worker(tmp_path, "died-after-publish", role="coordinator")
        key = cell_key(square, (2,))
        worker._try_acquire(key, attempt=1)
        worker.store.publish(key, "ok", 4)
        worker._held.clear()  # simulate the owner dying before release
        assert worker.sweep_stale_leases() == 1
        eventbus.flush()
        counts = self._ledger(tmp_path / "fleet")
        assert counts["lease_acquire"] == 1
        assert counts["lease_release"] == 1
        # An unfinished cell's lease (no published record) is never swept.
        worker._try_acquire("9" * 32, attempt=1)
        worker._held.clear()
        assert worker.sweep_stale_leases() == 0


class TestCampaignManifest:
    def test_mixed_campaigns_are_refused(self, tmp_path):
        target = tmp_path / "campaign.json"
        fleet._write_manifest(target, ["fuzz", "--seed-range", "0:4"], 1.0, 0.1, 3, 60.0)
        reloaded = fleet._write_manifest(
            target, ["fuzz", "--seed-range", "0:4"], 9.0, 0.9, 5, 90.0
        )
        assert reloaded["lease_ttl_s"] == 1.0  # the original manifest stands
        with pytest.raises(SystemExit):
            fleet._write_manifest(target, ["fuzz", "--seed-range", "0:8"], 1.0, 0.1, 3, 60.0)

    def test_nested_fleet_commands_are_refused(self, tmp_path):
        with pytest.raises(SystemExit):
            fleet._dispatch_inner(
                ["campaign", "status", "somewhere"], tmp_path / "cache"
            )


def _run(argv, cwd, env_extra=None, check=True, timeout=240):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[2] / "src"),
                    env.get("PYTHONPATH", "")) if p
    )
    env.pop("WAFFLE_CHAOS", None)
    env.pop("WAFFLE_CACHE_SHARED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "repro"] + argv,
        cwd=str(cwd), env=env, capture_output=True, text=True, timeout=timeout,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            "command %r failed rc=%d\nstdout:\n%s\nstderr:\n%s"
            % (argv, proc.returncode, proc.stdout, proc.stderr)
        )
    return proc


INNER = ["fuzz", "--seed-range", "0:6", "--budget", "4", "--no-replay",
         "--out", "out.txt", "--cache-dir", "cache"]


@pytest.mark.tier2
class TestFleetMatrix:
    """The acceptance anchor: the same campaign serial, 2-worker, and
    chaos-killed-mid-lease produces byte-identical artifacts.

    Every run uses its own working directory with identical *relative*
    paths, so content-addressed cell keys (which hash the argument
    strings) agree across runs.
    """

    def test_serial_fleet_and_chaos_runs_are_byte_identical(self, tmp_path):
        # 1. Serial: the coordinator is the only executor.
        serial = tmp_path / "serial"
        serial.mkdir()
        _run(["campaign", "run", "--fleet-dir", "fleet", "--workers", "0",
              "--"] + INNER, cwd=serial)

        # 2. Two spawned workers plus the coordinator.
        two = tmp_path / "two"
        two.mkdir()
        _run(["campaign", "run", "--fleet-dir", "fleet", "--workers", "2",
              "--min-workers", "2", "--"] + INNER, cwd=two)

        # 3. Chaos: a doomed worker claims a lease and is killed by
        # chaos mid-cell (os._exit, the real thing); the coordinator
        # must steal the expired lease and finish.
        chaos = tmp_path / "chaos"
        chaos.mkdir()
        fleet_dir = chaos / "fleet"
        paths = fleet._fleet_paths(fleet_dir)
        paths["root"].mkdir(parents=True)
        fleet._write_manifest(paths["manifest"], INNER, 1.0, 0.1, 3, 120.0)
        doomed = _run(
            ["campaign", "worker", "--fleet-dir", "fleet", "--wait", "10",
             "--worker-id", "doomed"],
            cwd=chaos,
            env_extra={"WAFFLE_CHAOS": "seed=1,worker_crash=1.0"},
            check=False,
        )
        assert doomed.returncode == faults.CHAOS_CRASH_EXIT
        stale = list(paths["leases"].glob("lease-*.json"))
        assert len(stale) == 1, "the doomed worker should die holding its lease"
        _run(["campaign", "run", "--fleet-dir", "fleet", "--workers", "0",
              "--"] + INNER, cwd=chaos)

        # -- Byte identity: user tables and the canonical merged journal.
        outs = [(d / "out.txt").read_bytes() for d in (serial, two, chaos)]
        assert outs[0] == outs[1] == outs[2]
        journals = [
            (d / "fleet" / fleet.MERGED_JOURNAL_NAME).read_bytes()
            for d in (serial, two, chaos)
        ]
        assert journals[0] == journals[1] == journals[2]
        assert len(journals[0].splitlines()) == 6

        # -- Byte identity: merged event *analytics* (the deterministic
        # work-product plane; raw timelines legitimately differ).
        from repro.obs import campaign as campaign_mod

        texts = []
        for d in (serial, two, chaos):
            view, _ = campaign_mod.load_view(d / "fleet")
            assert not view.warnings, view.warnings
            texts.append(campaign_mod.render_analytics(view, source="matrix"))
        assert texts[0] == texts[1] == texts[2]

        # -- The chaos run really exercised reclamation.
        chaos_view, _ = campaign_mod.load_view(chaos / "fleet")
        assert chaos_view.lease_stolen == 1
        assert chaos_view.lease_expired == 1
        assert (
            chaos_view.lease_acquired + chaos_view.lease_stolen
            == chaos_view.lease_released + chaos_view.lease_expired
        )
        assert not list((chaos / "fleet" / "leases").iterdir())
        assert len(list((chaos / "fleet" / "expired").iterdir())) == 1

        # -- No cell executed twice: the per-worker journals are the
        # execution ledger, and each key appears exactly once across
        # the whole fleet (the chaos kill happened *before* the doomed
        # worker journaled anything).
        for d in (serial, two, chaos):
            executed = []
            for journal in (d / "fleet").glob("journal-*.jsonl"):
                if journal.name == fleet.MERGED_JOURNAL_NAME:
                    continue
                executed.extend(
                    json.loads(line)["key"]
                    for line in journal.read_text().splitlines()
                )
            assert len(executed) == len(set(executed)) == 6, d

        # -- The ledger reconciliation gate passes on every run.
        script = Path(__file__).resolve().parents[2] / "scripts" / "check_obs.py"
        for d in (serial, two, chaos):
            proc = subprocess.run(
                [sys.executable, str(script), "--events-only", str(d / "fleet")],
                capture_output=True, text=True,
                env={**os.environ,
                     "PYTHONPATH": str(Path(__file__).resolve().parents[2] / "src")},
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_sigterm_drains_a_worker(self, tmp_path):
        """A worker told to stop releases its leases and exits with the
        drain code instead of finishing the campaign."""
        fleet_dir = tmp_path / "fleet"
        paths = fleet._fleet_paths(fleet_dir)
        paths["root"].mkdir(parents=True)
        # Plenty of cells so the worker is still busy when signalled.
        inner = ["fuzz", "--seed-range", "0:40", "--budget", "6",
                 "--no-replay", "--out", "out.txt", "--cache-dir", "cache"]
        fleet._write_manifest(paths["manifest"], inner, 30.0, 0.1, 3, 120.0)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).resolve().parents[2] / "src"),
                        env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "worker",
             "--fleet-dir", "fleet", "--wait", "10", "--worker-id", "drainee"],
            cwd=str(tmp_path), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        # Wait for real progress (first published cell), then SIGTERM.
        store_dir = paths["store"]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if store_dir.exists() and any(store_dir.glob("cell-*.res")):
                break
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == fleet.DRAIN_EXIT, out.decode()
        assert not list(paths["leases"].glob("lease-*.json"))
        published = len(list(store_dir.glob("cell-*.res")))
        assert 0 < published < 40, "drained mid-campaign, not at either edge"
