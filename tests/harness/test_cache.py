"""The content-addressed run cache: hits skip simulation, keys invalidate.

The determinism of the virtual-time simulator makes memoization sound;
these tests pin the contract: a warm hit returns *equal* results without
re-running anything (asserted via the runner's process-local run
counters), any config change flips the key, a run that finished within
a time limit is shared by every limit it finished within, and a record
is read only if its bytes are exactly what the writer wrote.
"""

import hashlib
import json
import re

import pytest

from repro.core.config import DEFAULT_CONFIG
from repro.core import persistence
from repro.harness import experiments, faults, runner
from repro.harness.cache import PlanCache, config_hash, open_cache
from repro.harness.runner import baseline_run, online_pair, prepare_test
from repro.apps import get_app
from repro.sim.api import Simulation


@pytest.fixture(autouse=True)
def chaos_off():
    faults.disable()
    yield
    faults.disable()


@pytest.fixture
def test_case():
    return get_app("nsubstitute").multithreaded_tests[0]


@pytest.fixture
def cache(tmp_path):
    return PlanCache(tmp_path / "cache")


class TestConfigHash:
    def test_stable(self):
        assert config_hash(DEFAULT_CONFIG) == config_hash(DEFAULT_CONFIG)

    def test_seed_excluded_by_default(self):
        assert config_hash(DEFAULT_CONFIG.with_seed(1)) == config_hash(
            DEFAULT_CONFIG.with_seed(2)
        )

    def test_seed_included_on_request(self):
        assert config_hash(
            DEFAULT_CONFIG.with_seed(1), include_seed=True
        ) != config_hash(DEFAULT_CONFIG.with_seed(2), include_seed=True)

    def test_any_field_changes_hash(self):
        import dataclasses

        changed = dataclasses.replace(
            DEFAULT_CONFIG, near_miss_window_ms=DEFAULT_CONFIG.near_miss_window_ms + 1.0
        )
        assert config_hash(changed) != config_hash(DEFAULT_CONFIG)


class TestSharedMode:
    def test_shared_put_roundtrips_identically(self, tmp_path):
        # Shared (fsync-before-rename) mode changes durability, not
        # content: the record bytes and the read path are the same.
        plain = PlanCache(tmp_path / "plain")
        shared = PlanCache(tmp_path / "shared", shared=True)
        payload = {"rows": [1, 2, 3], "nested": {"x": 0.5}}
        plain.put("prep", {"k": 1}, payload)
        shared.put("prep", {"k": 1}, payload)
        assert shared.get("prep", {"k": 1}) == payload
        name = plain._path("prep", plain._digest("prep", {"k": 1})).name
        assert (tmp_path / "plain" / name).read_bytes() == (
            tmp_path / "shared" / name
        ).read_bytes()

    def test_open_cache_shared_defaults_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WAFFLE_CACHE_SHARED", "1")
        assert open_cache(tmp_path).shared
        monkeypatch.delenv("WAFFLE_CACHE_SHARED")
        assert not open_cache(tmp_path).shared
        # Explicit argument wins over the environment.
        monkeypatch.setenv("WAFFLE_CACHE_SHARED", "1")
        assert not open_cache(tmp_path, shared=False).shared

    def test_unreadable_record_is_a_quarantined_miss(self, cache):
        # An OSError on read (here: the record path is a directory, as a
        # stand-in for shared-filesystem permission/stat hiccups) must
        # degrade to a miss, never crash the campaign.
        key = {"k": 1}
        cache.put("prep", key, {"v": 1})
        path = cache._path("prep", cache._digest("prep", key))
        path.unlink()
        path.mkdir()
        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", key) is None
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1


class TestPlanCache:
    def test_miss_then_hit(self, cache):
        key = {"test": "a:b", "seed": 0}
        assert cache.get("baseline", key) is None
        cache.put("baseline", key, {"x": 1})
        assert cache.get("baseline", key) == {"x": 1}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.writes == 1

    def test_survives_reopen(self, tmp_path):
        a = PlanCache(tmp_path)
        a.put("prep", {"k": 1}, {"v": [1, 2, 3]})
        b = PlanCache(tmp_path)
        assert b.get("prep", {"k": 1}) == {"v": [1, 2, 3]}

    def test_kind_partitions_keyspace(self, cache):
        cache.put("baseline", {"k": 1}, {"v": "base"})
        assert cache.get("prep", {"k": 1}) is None

    def test_torn_file_is_a_miss(self, cache):
        key = {"k": 1}
        cache.put("prep", key, {"v": 1})
        path = cache._path("prep", cache._digest("prep", key))
        path.write_text("{not json")
        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", key) is None

    def test_format_version_bump_invalidates(self, cache, monkeypatch, tmp_path):
        key = {"k": 1}
        cache.put("prep", key, {"v": 1})
        path = cache._path("prep", cache._digest("prep", key))
        payload = json.loads(path.read_text())
        payload["version"] = persistence.FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", key) is None

    def test_corrupted_record_is_quarantined(self, cache):
        key = {"k": 1}
        cache.put("prep", key, {"v": 1})
        path = cache._path("prep", cache._digest("prep", key))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # single flipped bit-rot byte
        path.write_bytes(bytes(blob))

        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", key) is None  # a miss, never a crash
        assert fresh.stats.corrupt == 1
        assert fresh.stats.misses == 1
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        # Quarantined entries are never re-read: the recomputed record
        # replaces them cleanly.
        fresh.put("prep", key, {"v": 1})
        assert PlanCache(cache.directory).get("prep", key) == {"v": 1}

    def test_truncated_record_is_quarantined(self, cache):
        key = {"k": 2}
        cache.put("prep", key, {"v": [1, 2, 3]})
        path = cache._path("prep", cache._digest("prep", key))
        path.write_bytes(path.read_bytes()[:-16])  # torn write
        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", key) is None
        assert fresh.stats.corrupt == 1
        assert path.with_name(path.name + ".corrupt").exists()

    def test_checksum_mismatch_on_valid_json_is_quarantined(self, cache):
        # The payload parses fine but was silently altered: only the
        # checksum catches this class.
        key = {"k": 3}
        cache.put("prep", key, {"v": 1})
        path = cache._path("prep", cache._digest("prep", key))
        record = json.loads(path.read_text())
        record["record"]["payload"]["v"] = 2
        path.write_text(json.dumps(record))
        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", key) is None
        assert fresh.stats.corrupt == 1

    def test_chaos_cache_corrupt_site(self, cache):
        key = {"k": 4}
        cache.put("prep", key, {"v": "payload"})
        faults.configure("seed=9,cache_corrupt=1.0")
        fresh = PlanCache(cache.directory)  # cold: forces the file read
        assert fresh.get("prep", key) is None  # chaos corrupted the read
        assert fresh.stats.corrupt == 1
        # Chaos fires once per file; the recomputed record then sticks.
        fresh.put("prep", key, {"v": "payload"})
        assert fresh.get("prep", key) == {"v": "payload"}

    def test_memo_hits_skip_integrity_io(self, cache):
        # In-process memo hits never touch the file, so post-put
        # corruption is invisible until a fresh process reads the disk.
        key = {"k": 5}
        cache.put("prep", key, {"v": 1})
        path = cache._path("prep", cache._digest("prep", key))
        path.write_bytes(b"garbage")
        assert cache.get("prep", key) == {"v": 1}
        assert cache.stats.corrupt == 0

    def test_open_cache_none_and_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("WAFFLE_CACHE_DIR", raising=False)
        assert open_cache(None) is None
        monkeypatch.setenv("WAFFLE_CACHE_DIR", str(tmp_path / "envcache"))
        via_env = open_cache(None)
        assert via_env is not None
        assert via_env.directory == tmp_path / "envcache"


class TestPrepareTestCaching:
    def test_hit_returns_equal_plan_without_rerunning(self, test_case, cache):
        cold = prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=cache, test_id="n:t")
        recordings = runner.RECORDING_RUNS
        warm = prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=cache, test_id="n:t")
        assert runner.RECORDING_RUNS == recordings  # no new simulation
        assert warm.plan.to_dict() == cold.plan.to_dict()
        assert warm.run == cold.run
        assert warm.mo_sites == cold.mo_sites
        assert warm.tsv_sites == cold.tsv_sites
        assert warm.tsv_injection_sites == cold.tsv_injection_sites
        assert warm.init_instance_counts == cold.init_instance_counts
        assert warm.event_count == cold.event_count

    def test_disk_roundtrip_is_exact(self, test_case, tmp_path):
        first = PlanCache(tmp_path)
        cold = prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=first, test_id="n:t")
        reopened = PlanCache(tmp_path)  # no in-memory memo: forces file read
        warm = prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=reopened, test_id="n:t")
        assert warm.plan.to_dict() == cold.plan.to_dict()
        assert reopened.stats.hits == 1

    def test_config_change_invalidates(self, test_case, cache):
        import dataclasses

        prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=cache, test_id="n:t")
        recordings = runner.RECORDING_RUNS
        changed = dataclasses.replace(
            DEFAULT_CONFIG, near_miss_window_ms=DEFAULT_CONFIG.near_miss_window_ms * 2
        )
        prepare_test(test_case, changed, seed=3, cache=cache, test_id="n:t")
        assert runner.RECORDING_RUNS == recordings + 1  # re-simulated

    def test_seed_change_invalidates(self, test_case, cache):
        prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=cache, test_id="n:t")
        recordings = runner.RECORDING_RUNS
        prepare_test(test_case, DEFAULT_CONFIG, seed=4, cache=cache, test_id="n:t")
        assert runner.RECORDING_RUNS == recordings + 1

    def test_matches_uncached_result(self, test_case, cache):
        # Object ids come from a process-lifetime counter, so two fresh
        # runs differ in that provenance field (it is never consumed by
        # injection decisions); compare the plans modulo object_id.
        def norm(value):
            if isinstance(value, dict):
                return {
                    k: norm(v) for k, v in value.items() if k != "object_id"
                }
            if isinstance(value, list):
                return [norm(v) for v in value]
            return value

        cached = prepare_test(test_case, DEFAULT_CONFIG, seed=3, cache=cache, test_id="n:t")
        plain = prepare_test(test_case, DEFAULT_CONFIG, seed=3)
        assert norm(cached.plan.to_dict()) == norm(plain.plan.to_dict())
        assert cached.run == plain.run


class TestBaselineAndOnlinePairCaching:
    def test_baseline_hit_skips_run(self, test_case, cache):
        cold = baseline_run(test_case, seed=5, cache=cache, test_id="n:t")
        count = runner.BASELINE_RUNS
        warm = baseline_run(test_case, seed=5, cache=cache, test_id="n:t")
        assert runner.BASELINE_RUNS == count
        assert warm == cold

    def test_online_pair_hit_is_equal(self, test_case, cache):
        cold = online_pair(test_case, DEFAULT_CONFIG, seed=5, cache=cache, test_id="n:t")
        warm = online_pair(test_case, DEFAULT_CONFIG, seed=5, cache=cache, test_id="n:t")
        assert warm == cold
        plain = online_pair(test_case, DEFAULT_CONFIG, seed=5)
        assert warm == plain

    def test_tsv_mode_partitions_key(self, test_case, cache):
        basic = online_pair(test_case, DEFAULT_CONFIG, seed=5, cache=cache, test_id="n:t")
        tsv = online_pair(
            test_case, DEFAULT_CONFIG, seed=5, tsv_mode=True, cache=cache, test_id="n:t"
        )
        # Both cached under distinct keys; re-reads return the right one.
        assert online_pair(
            test_case, DEFAULT_CONFIG, seed=5, cache=cache, test_id="n:t"
        ) == basic
        assert online_pair(
            test_case, DEFAULT_CONFIG, seed=5, tsv_mode=True, cache=cache, test_id="n:t"
        ) == tsv


def _norm(value):
    """Drop ``object_id`` provenance (a process-lifetime counter)."""
    if isinstance(value, dict):
        return {k: _norm(v) for k, v in value.items() if k != "object_id"}
    if isinstance(value, list):
        return [_norm(v) for v in value]
    return value


@pytest.fixture
def sim_runs(monkeypatch):
    """A one-element list counting every simulation run from here on."""
    count = [0]
    original = Simulation.run

    def counting(self, *args, **kwargs):
        count[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Simulation, "run", counting)
    return count


@pytest.fixture(params=["prep", "online_pair", "planned"])
def unit(request, test_case):
    """One time-limited cached primitive as ``call(limit, cache)``,
    returning (runs, everything else it returns, made comparable)."""
    plan = prepare_test(test_case, DEFAULT_CONFIG, seed=3).plan

    def call(limit=None, cache=None):
        if request.param == "prep":
            prep = prepare_test(
                test_case, DEFAULT_CONFIG, seed=3, time_limit_ms=limit, cache=cache,
                test_id="n:t",
            )
            return [prep.run], (
                _norm(prep.plan.to_dict()), prep.mo_sites, prep.tsv_sites,
                prep.tsv_injection_sites, prep.init_instance_counts, prep.event_count,
            )
        if request.param == "online_pair":
            return online_pair(
                test_case, DEFAULT_CONFIG, seed=3, time_limit_ms=limit, cache=cache,
                test_id="n:t",
            ), None
        return [
            experiments._planned_run_cached(
                test_case, plan, DEFAULT_CONFIG, seed=4, hook_seed=3 * 7919 + 1,
                time_limit_ms=limit, cache=cache, test_id="n:t",
            )
        ], None

    return call


def _end(result):
    return max(run.virtual_time_ms for run in result[0])


def _timed_out(result):
    return any(run.timed_out for run in result[0])


class TestTimeLimitRule:
    def test_limit_at_or_above_end_reuses_the_limit_free_record(self, unit, cache, sim_runs):
        free = unit(None, cache)
        end = _end(free)
        recordings, sims = runner.RECORDING_RUNS, sim_runs[0]
        at_end = unit(end, cache)
        above = unit(end * 2, cache)
        assert (runner.RECORDING_RUNS, sim_runs[0]) == (recordings, sims)
        assert at_end == above == free
        assert at_end == unit(end)  # an uncached limited call
        assert (cache.stats.hits, cache.stats.misses, cache.stats.writes) == (2, 1, 1)

    def test_limit_below_end_simulates_again_and_times_out(self, unit, cache, sim_runs):
        free = unit(None, cache)
        end = _end(free)
        sims = sim_runs[0]
        cut = unit(end / 2, cache)
        assert sim_runs[0] > sims
        assert _timed_out(cut)
        assert cut == unit(end / 2)
        # The same limit is served the timed-out record ...
        sims = sim_runs[0]
        assert unit(end / 2, cache) == cut
        assert sim_runs[0] == sims
        # ... another limit below the end is not ...
        other = unit(end / 4, cache)
        assert sim_runs[0] > sims
        assert _timed_out(other)
        assert other == unit(end / 4)
        # ... and the limit-free record still serves an unlimited call.
        sims = sim_runs[0]
        assert unit(None, cache) == free
        assert sim_runs[0] == sims
        # One hit or one miss per call, however many keys it consults.
        assert (cache.stats.hits, cache.stats.misses, cache.stats.writes) == (2, 3, 3)

    def test_timed_out_record_is_shared_through_the_files(self, unit, tmp_path, sim_runs):
        limit = _end(unit(None, PlanCache(tmp_path))) / 2
        cut = unit(limit, PlanCache(tmp_path))
        sims = sim_runs[0]
        reopened = PlanCache(tmp_path)  # no memo: reads both files
        assert unit(limit, reopened) == cut
        assert sim_runs[0] == sims
        assert (reopened.stats.hits, reopened.stats.misses) == (1, 0)


class TestSharingAcrossTables:
    def test_tables_2_5_6_record_each_run_once(self, tmp_path):
        cache_dir = tmp_path / "cache"
        drivers = (
            experiments.table2_sites,
            experiments.table5_overhead,
            experiments.table6_delays,
        )
        recordings = runner.RECORDING_RUNS
        cached = [
            driver(DEFAULT_CONFIG, apps=["nsubstitute"], cache_dir=str(cache_dir))
            for driver in drivers
        ]
        tests = len(get_app("nsubstitute").multithreaded_tests)
        assert runner.RECORDING_RUNS == recordings + tests
        for kind in ("prep", "planned", "baseline", "online_pair"):
            assert len(list(cache_dir.glob(kind + "-*.json"))) == tests, kind
        plain = [driver(DEFAULT_CONFIG, apps=["nsubstitute"]) for driver in drivers]
        assert cached == plain


class TestRecordBytes:
    PAYLOAD = {"b": [1, 2.5, None, "\u00e9"], "a": {"y": "z", "x": True}}

    @staticmethod
    def _checksum(payload):
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:32]

    def _record_path(self, cache, key):
        return cache._path("prep", cache._digest("prep", key))

    def test_put_writes_what_save_record_writes(self, cache, tmp_path):
        cache.put("prep", {"k": 1}, self.PAYLOAD)
        reference = tmp_path / "reference.json"
        persistence.save_record(
            {"payload": self.PAYLOAD, "sha256": self._checksum(self.PAYLOAD)}, reference
        )
        assert self._record_path(cache, {"k": 1}).read_bytes() == reference.read_bytes()

    def test_record_written_by_save_record_hits(self, cache):
        path = self._record_path(cache, {"k": 1})
        persistence.save_record(
            {"payload": self.PAYLOAD, "sha256": self._checksum(self.PAYLOAD)}, path
        )
        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", {"k": 1}) == self.PAYLOAD
        assert (fresh.stats.hits, fresh.stats.corrupt) == (1, 0)

    @pytest.mark.parametrize(
        "edit",
        [
            # A well-formed checksum of something else.
            lambda body: re.sub(rb'"sha256": "[0-9a-f]{32}"', b'"sha256": "%s"' % (b"0" * 32), body),
            # Whitespace inside the payload: same JSON value, other bytes.
            lambda body: body.replace(b'"payload": {', b'"payload": { ', 1),
            # Re-serialized with other whitespace: same JSON document.
            lambda body: json.dumps(json.loads(body), sort_keys=True, indent=1).encode(),
            # Trailing newline.
            lambda body: body + b"\n",
        ],
        ids=["sha256-text", "payload-whitespace", "reserialized", "trailing-newline"],
    )
    def test_edited_record_is_quarantined(self, cache, edit):
        cache.put("prep", {"k": 1}, self.PAYLOAD)
        path = self._record_path(cache, {"k": 1})
        body = path.read_bytes()
        edited = edit(body)
        assert edited != body
        path.write_bytes(edited)
        fresh = PlanCache(cache.directory)
        assert fresh.get("prep", {"k": 1}) is None
        assert (fresh.stats.corrupt, fresh.stats.misses) == (1, 1)
        assert path.with_name(path.name + ".corrupt").exists()
