"""Artifact store: checksummed publication of finalized cells.

The fleet (:mod:`repro.harness.fleet`) runs one campaign across N
independent processes -- possibly on different hosts -- coordinated
only through a shared directory. The store is the half of that
coordination that carries *results*: once any worker finalizes a cell,
it publishes the outcome here and every other worker (and the
coordinator's merge) reads it back instead of re-executing. The
supervisor's checkpoint-resume journal keeps its ``ok`` results in a
store too, so ``--resume`` is a verified fetch. Because
every cell is a deterministic function of its content-addressed key
(see :func:`repro.harness.supervisor.cell_key`), a fetched result is
bit-identical to local re-execution -- the same soundness argument the
run cache makes, extended across processes.

Record format -- one ``cell-<key>.res`` file per finalized cell:

* line 1: a JSON header ``{"v", "key", "status", "attempts", "worker",
  "sha256"}`` where ``sha256`` digests the body;
* the rest: a pickle of the cell's result (empty for degraded cells).

Durability and integrity discipline:

* **atomic, same-directory publication** --
  :func:`repro.core.persistence.write_atomic` (temp file +
  ``os.replace`` in the store directory itself, with an fsync before
  the rename unless ``fsync=False``): a record that *exists* is whole,
  even across a host crash on a network filesystem;
* **first writer wins** -- publication is idempotent; a second worker
  racing to publish the same key (both executed it before either saw
  the other's lease) keeps the existing record, which is byte-identical
  anyway by determinism;
* **checksum-verified fetch** -- a record that fails its digest, fails
  to parse, or names the wrong key is quarantined (``*.corrupt``
  rename, the cache's convention) and reported as a miss, never an
  exception: the fetching worker simply executes the cell itself
  (:func:`repro.core.persistence.quarantine`, shared with the run
  cache).

Degraded cells (``quarantined`` / ``failed``) publish *tombstones* --
status-only records with a None result -- so workers waiting on a cell
another worker gave up on see the verdict instead of spinning forever.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import Any, Iterator, Optional

from ..core.persistence import quarantine, write_atomic
from ..obs import eventbus
from . import faults

#: Store record naming convention (one file per finalized cell).
RESULT_PREFIX = "cell-"
RESULT_SUFFIX = ".res"

#: Store record format version (the header's ``v`` field).
STORE_FORMAT_VERSION = 1


@dataclasses.dataclass
class CellRecord:
    """One fetched store record."""

    key: str
    status: str  # ok | quarantined | failed
    result: Any
    attempts: int = 1
    worker: str = "?"
    sha256: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclasses.dataclass
class StoreStats:
    """Traffic counters for one store handle (tests and the bench)."""

    publishes: int = 0
    races: int = 0  # publish found the record already present
    hits: int = 0
    misses: int = 0
    corrupt: int = 0


class ArtifactStore:
    """File-backed result exchange over a shared directory."""

    def __init__(self, directory: os.PathLike, fsync: bool = True):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.stats = StoreStats()

    def path(self, key: str) -> Path:
        return self.directory / ("%s%s%s" % (RESULT_PREFIX, key, RESULT_SUFFIX))

    # -- Publication ---------------------------------------------------

    def publish(self, key: str, status: str, result: Any,
                attempts: int = 1, worker: str = "?") -> CellRecord:
        """Make a finalized cell visible to the whole fleet, atomically.

        Idempotent: when the record already exists (another worker won
        the race), the existing bytes stand -- by determinism they
        describe the same result. Returns the record as published (or
        as already present).
        """
        target = self.path(key)
        if target.exists():
            self.stats.races += 1
            existing = self.fetch(key, count_stats=False)
            if existing is not None:
                return existing
            # The existing record was corrupt (and is now quarantined):
            # fall through and publish the good copy.
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        header = {
            "v": STORE_FORMAT_VERSION,
            "key": key,
            "status": status,
            "attempts": attempts,
            "worker": worker,
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
        body = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
        write_atomic(body, target, fsync=self.fsync)
        self.stats.publishes += 1
        eventbus.emit("store", action="publish", cell=key[:16], status=status)
        return CellRecord(
            key=key, status=status, result=result, attempts=attempts,
            worker=worker, sha256=header["sha256"],
        )

    # -- Fetch ---------------------------------------------------------

    def fetch(self, key: str, count_stats: bool = True) -> Optional[CellRecord]:
        """Read a published record back, checksum-verified.

        Any integrity failure -- unreadable file, torn header, checksum
        or key mismatch, unpicklable body -- quarantines the record
        (``*.corrupt``) and returns None: a corrupt remote record is a
        miss the fetching worker repairs by executing the cell itself.

        ``count_stats=False`` suppresses the hit/miss accounting for
        internal probes (publish-race reads, waiters polling).
        """
        target = self.path(key)
        if not target.exists():
            if count_stats:
                self.stats.misses += 1
            return None
        # Chaos site: deterministically corrupt the record before the
        # read, exercising the quarantine path (same site the run cache
        # uses, keyed by file name).
        faults.maybe_corrupt_record(target)
        try:
            blob = target.read_bytes()
            head, _, payload = blob.partition(b"\n")
            header = json.loads(head.decode("utf-8"))
            if header.get("v") != STORE_FORMAT_VERSION:
                raise ValueError("store record version %r" % header.get("v"))
            if header.get("key") != key:
                raise ValueError("store record names key %r" % header.get("key"))
            if hashlib.sha256(payload).hexdigest() != header.get("sha256"):
                raise ValueError("store record failed checksum")
            result = pickle.loads(payload)
        except (OSError, ValueError, KeyError, EOFError, pickle.PickleError,
                UnicodeDecodeError):
            self._quarantine(target)
            if count_stats:
                self.stats.misses += 1
            return None
        if count_stats:
            self.stats.hits += 1
            eventbus.emit("store", action="hit", cell=key[:16],
                          status=header.get("status", "?"))
        return CellRecord(
            key=key,
            status=str(header.get("status", "ok")),
            result=result,
            attempts=int(header.get("attempts", 1)),
            worker=str(header.get("worker", "?")),
            sha256=str(header.get("sha256", "")),
        )

    def _quarantine(self, target: Path) -> None:
        self.stats.corrupt += 1
        eventbus.emit("store", action="corrupt", cell=target.name[:32])
        quarantine(target)

    # -- Enumeration (the coordinator's merge walks the store) ---------

    def keys(self) -> Iterator[str]:
        """Every published cell key, sorted (deterministic merge order)."""
        for path in sorted(self.directory.glob(RESULT_PREFIX + "*" + RESULT_SUFFIX)):
            yield path.name[len(RESULT_PREFIX):-len(RESULT_SUFFIX)]
