"""Content-addressed trace/plan cache for the experiment harness.

Every run primitive in this reproduction is a deterministic function of
its inputs: the simulator is virtual-time with seeded RNGs, so a
preparation run, a baseline run or a whole detection session is fully
determined by (workload identity, configuration, seed). That makes
memoization sound: a cache hit returns results bit-identical to
re-execution, except for ``object_id`` provenance in a cached plan
(object ids come from a process-lifetime counter and are never consumed
by injection decisions), which is the correctness anchor the
equivalence tests guard.

Entries are keyed by a SHA-256 digest over a canonical JSON encoding of
(kind, test id, config hash, seed, extras) and stored as one JSON file
per entry, in the layout :func:`repro.core.persistence.save_record`
writes. Any change to a config field -- delay lengths, windows,
design-point flags -- changes the config hash and therefore invalidates
the entry; bumping ``persistence.FORMAT_VERSION`` invalidates
everything. Records carry a SHA-256 checksum of the payload's encoded
bytes, written at ``put`` time and checked against the bytes in the
file on every file read, before the payload is decoded: a corrupt,
truncated or rewritten entry (torn write, bit rot, chaos injection, a
file not in the writer's exact layout) is quarantined (``*.corrupt``
rename) and treated as a miss, never a crash -- every cached unit is
deterministic, so recomputation is always sound.

Time limits. A run's time limit is read in exactly one place, the
scheduler's ``now > time_limit_ms`` check, so a run that ended at
virtual time ``v`` without timing out is the same run under every limit
``L >= v``. Runs that take a limit (``prep``, ``online_pair``,
``planned``) are therefore stored once under a key *without* the limit
when they did not time out, and that record serves any lookup whose
limit is at least its end time (``None`` meaning the simulator's
600 000 ms default). A run that timed out is stored under its key plus
the limit (:func:`limit_key`) and serves only that same limit. So a
preparation trace is recorded once and its plan reused across tables,
whatever per-test limit each table asks under.

Cached kinds:

* ``baseline``  -- one uninstrumented run (:class:`SingleRun` fields);
* ``prep``      -- a preparation run: run stats, the analyzed
  :class:`~repro.core.analyzer.InjectionPlan`, and the trace censuses
  Table 2 / section 3.3 need (site counts, init-instance counts);
* ``online_pair`` -- the two-run WaffleBasic/Tsvd unit shared by
  Tables 5/6 and the overlap census;
* ``planned``   -- one planned Waffle detection run (Tables 5/6);
* ``detect``    -- one full detection attempt of one tool on one
  workload (matched? runs-to-expose, total time);
* ``perf``      -- one single-detection-run probe (Table 7's ablation
  slowdowns).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .. import obs
from ..obs import eventbus
from ..core.analyzer import InjectionPlan
from ..core.config import WaffleConfig
from ..core.persistence import FORMAT_VERSION, quarantine, write_atomic
from . import faults

#: Environment variable consulted for a default cache directory.
CACHE_DIR_ENV = "WAFFLE_CACHE_DIR"

#: When "1", caches open in *shared* mode: puts fsync before their
#: atomic rename so a record named in the directory is durably whole
#: even across host crashes -- the contract fleet workers on a shared
#: filesystem rely on. The fleet coordinator exports this to workers.
CACHE_SHARED_ENV = "WAFFLE_CACHE_SHARED"


#: The simulator's default time limit: what a ``None`` limit means.
DEFAULT_TIME_LIMIT_MS = 600_000.0

#: A record file, byte for byte as ``persistence.save_record`` writes
#: ``{"payload": P, "sha256": H}`` (sorted keys, default separators):
#: ``_HEAD + P + _MID + H + _TAIL``, with H the first 32 hex digits of
#: the SHA-256 of P's bytes.
_HEAD = b'{"record": {"payload": '
_MID = b', "sha256": "'
_TAIL = b'"}, "version": %d}' % FORMAT_VERSION
_CHECKSUM_LEN = 32


def run_limit(time_limit_ms: Optional[float]) -> float:
    """The limit a run is simulated under (``None``: the default)."""
    return DEFAULT_TIME_LIMIT_MS if time_limit_ms is None else float(time_limit_ms)


def limit_key(key: Dict[str, Any], time_limit_ms: Optional[float]) -> Dict[str, Any]:
    """The key a run that timed out under ``time_limit_ms`` is stored at."""
    return dict(key, limit=run_limit(time_limit_ms))


def _checksum(text: bytes) -> bytes:
    return hashlib.sha256(text).hexdigest()[:_CHECKSUM_LEN].encode("ascii")


def _decode(body: bytes) -> dict:
    """The payload of a record file, after checking its layout and the
    checksum of the payload bytes as they sit in the file."""
    end = len(body) - len(_TAIL) - _CHECKSUM_LEN - len(_MID)
    if (
        end < len(_HEAD)
        or not body.startswith(_HEAD)
        or not body.endswith(_TAIL)
        or body[end:end + len(_MID)] != _MID
    ):
        raise ValueError("cache record is not in the writer's layout")
    text = body[len(_HEAD):end]
    if body[end + len(_MID):len(body) - len(_TAIL)] != _checksum(text):
        raise ValueError("cache record failed checksum")
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("cache record payload is not an object")
    return payload


def config_hash(config: WaffleConfig, include_seed: bool = False) -> str:
    """Stable digest of every config field (optionally minus the seed).

    The seed is usually part of the cache key explicitly (run seeds are
    varied independently of the config), so by default it is excluded
    here; pass ``include_seed=True`` when the config's own seed drives
    the computation (whole detection sessions).
    """
    payload = dataclasses.asdict(config)
    if not include_seed:
        payload.pop("seed", None)
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters, exposed for tests and the CLI."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    #: Entries that failed integrity validation and were quarantined
    #: (renamed to ``*.corrupt``); each also counts as a miss.
    corrupt: int = 0

    def absorb(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.writes += other.writes
        self.corrupt += other.corrupt


#: Process-wide totals across every cache instance, so the CLI can print
#: one end-of-run summary line without threading cache objects through
#: each experiment. (Pool workers accumulate their own copy; their
#: numbers surface through the obs telemetry files instead.)
GLOBAL_STATS = CacheStats()


class PlanCache:
    """File-backed memo table for deterministic harness work units.

    A small in-process dict fronts the files so repeated lookups within
    one experiment (e.g. the same preparation trace consulted by
    Table 2 and Table 6) do not re-read or re-parse JSON.
    """

    def __init__(self, directory: os.PathLike, shared: bool = False) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Shared-store mode: puts fsync before publication (crash-safe
        #: on a shared filesystem) at ~0.5ms/record; reads are the same
        #: either way -- the checksum already guards torn content.
        self.shared = shared
        self.stats = CacheStats()
        self._memo: Dict[str, Any] = {}
        self._obs = obs.session()
        self._bus = eventbus.bus()

    # -- Generic machinery ------------------------------------------------

    def _digest(self, kind: str, key: Dict[str, Any]) -> str:
        blob = json.dumps({"kind": kind, **key}, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]

    def _path(self, kind: str, digest: str) -> Path:
        return self.directory / ("%s-%s.json" % (kind, digest))

    def _hit(self) -> None:
        self.stats.hits += 1
        GLOBAL_STATS.hits += 1
        if self._obs is not None:
            self._obs.c_cache_hits.inc()
        if self._bus is not None:
            self._bus.emit("cache", action="hit")
            self._bus.maybe_flush()

    def _miss(self) -> None:
        self.stats.misses += 1
        GLOBAL_STATS.misses += 1
        if self._obs is not None:
            self._obs.c_cache_misses.inc()
        if self._bus is not None:
            self._bus.emit("cache", action="miss")
            self._bus.maybe_flush()

    def _quarantine(self, path: Path) -> None:
        """Quarantine a record that failed integrity validation and
        count it. A corrupt entry is a miss, never a crash: the work
        unit is deterministic, so recomputing it is always sound."""
        self.stats.corrupt += 1
        GLOBAL_STATS.corrupt += 1
        if self._obs is not None:
            self._obs.c_cache_corrupt.inc()
        quarantine(path)

    def _lookup(self, kind: str, key: Dict[str, Any]) -> Optional[dict]:
        """The payload stored at ``key``, or None. Quarantines a bad
        file; counts no hit or miss (:meth:`get` does)."""
        digest = self._digest(kind, key)
        if digest in self._memo:
            return self._memo[digest]
        path = self._path(kind, digest)
        if not path.exists():
            return None
        # Chaos site: deterministically corrupt the record before it is
        # read, exercising the quarantine path below.
        faults.maybe_corrupt_record(path)
        try:
            payload = _decode(path.read_bytes())
        except (ValueError, OSError):
            # Torn write, another format or version, corrupted bytes, or
            # an unreadable file (shared-filesystem hiccup, permissions):
            # quarantine and recompute -- a fetch failure is a miss,
            # never a crash.
            self._quarantine(path)
            return None
        self._memo[digest] = payload
        return payload

    def get(
        self,
        kind: str,
        key: Dict[str, Any],
        time_limit_ms: Optional[float] = None,
        end_ms: Optional[Callable[[dict], float]] = None,
    ) -> Optional[dict]:
        """The payload stored for ``key``, or None; counts one hit or
        one miss.

        With ``end_ms`` (a payload's virtual end time), the lookup is
        for a run under ``time_limit_ms`` and follows the time-limit
        rule in the module docstring: the limit-free record serves it
        when the run ended within the limit, else the record stored at
        :func:`limit_key` does.
        """
        payload = self._lookup(kind, key)
        if end_ms is not None:
            limit = run_limit(time_limit_ms)
            if payload is None or end_ms(payload) > limit:
                payload = self._lookup(kind, limit_key(key, limit))
        if payload is None:
            self._miss()
        else:
            self._hit()
        return payload

    def put(self, kind: str, key: Dict[str, Any], payload: dict) -> None:
        digest = self._digest(kind, key)
        self._memo[digest] = payload
        text = json.dumps(payload, sort_keys=True).encode("utf-8")
        write_atomic(
            b"".join((_HEAD, text, _MID, _checksum(text), _TAIL)),
            self._path(kind, digest),
            fsync=self.shared,
        )
        self.stats.writes += 1
        GLOBAL_STATS.writes += 1
        if self._obs is not None:
            self._obs.c_cache_writes.inc()


def open_cache(
    cache_dir: Optional[os.PathLike], shared: Optional[bool] = None
) -> Optional[PlanCache]:
    """A :class:`PlanCache` for ``cache_dir``, the ``WAFFLE_CACHE_DIR``
    environment default, or None when caching is disabled. ``shared``
    defaults from ``WAFFLE_CACHE_SHARED`` (fleet campaigns set it)."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    if cache_dir is None:
        return None
    if shared is None:
        shared = os.environ.get(CACHE_SHARED_ENV) == "1"
    return PlanCache(cache_dir, shared=shared)


# ----------------------------------------------------------------------
# Typed views over the generic records
# ----------------------------------------------------------------------


@dataclasses.dataclass
class PrepResult:
    """Everything a preparation run yields, across all consuming tables.

    ``run`` carries the prep run's measurements (Table 5's R#1 column),
    ``plan`` the analyzed injection plan, and the remaining fields the
    trace censuses: unique static sites per instrumentation class and
    the TSV injection-site count (Table 2), plus init-site dynamic
    instance counts (section 3.3).
    """

    run: "SingleRunLike"
    plan: InjectionPlan
    mo_sites: int
    tsv_sites: int
    tsv_injection_sites: int
    init_instance_counts: List[int]
    event_count: int


# The harness's SingleRun is a plain dataclass of primitives; importing
# it here would be circular (runner imports this module), so the cache
# ships dicts and lets the runner reconstruct.
SingleRunLike = Any


def run_to_dict(run: Any) -> dict:
    return dataclasses.asdict(run)


def prep_to_record(prep: PrepResult) -> dict:
    return {
        "run": run_to_dict(prep.run),
        "plan": prep.plan.to_dict(),
        "mo_sites": prep.mo_sites,
        "tsv_sites": prep.tsv_sites,
        "tsv_injection_sites": prep.tsv_injection_sites,
        "init_instance_counts": list(prep.init_instance_counts),
        "event_count": prep.event_count,
    }


def prep_from_record(record: dict, run_factory) -> PrepResult:
    return PrepResult(
        run=run_factory(**record["run"]),
        plan=InjectionPlan.from_dict(record["plan"]),
        mo_sites=record["mo_sites"],
        tsv_sites=record["tsv_sites"],
        tsv_injection_sites=record["tsv_injection_sites"],
        init_instance_counts=list(record["init_instance_counts"]),
        event_count=record["event_count"],
    )
