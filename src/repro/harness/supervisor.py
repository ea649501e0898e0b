"""Fault-tolerant campaign supervisor: watchdogs, retries, resume.

Waffle's evaluation is a long campaign, and delay injection
deliberately drives target programs into crashes, deadlocks and
timeouts. The harness fans cells out across processes
(:mod:`repro.harness.parallel`), so a single hung detection run,
OOM-killed pool worker or torn cache record must degrade one cell --
not take down or silently poison the whole ``--jobs`` campaign. The
supervisor wraps every cell execution in a fault boundary:

* **Watchdog** -- each cell gets a wall-clock deadline derived from the
  same ``TIMEOUT_FACTOR`` logic :mod:`repro.harness.runner` applies to
  individual simulated tests (factor x the median observed cell time,
  floored), so a wedged worker is killed rather than waited on forever.
  Serially the watchdog is a SIGALRM timer; under ``--jobs`` each cell
  runs in its own forked process that can be terminated individually
  (a pool executor cannot kill one hung member).
* **Retry with backoff** -- faults are classified by
  :func:`repro.harness.faults.classify`: *retryable* ones (worker
  crash, hang, transient I/O, corrupt record) are re-attempted under an
  exponential-backoff schedule with seeded, deterministic jitter, up to
  a per-cell attempt budget; *deterministic* ones (assertion failures,
  schema errors) are quarantined immediately -- the same inputs would
  fail identically, so retrying burns budget without information.
* **Checkpoint-resume** -- an optional :class:`CampaignJournal` records
  every finalized cell (keyed by the same content-addressed digests the
  run cache uses) and publishes each ``ok`` result to an
  :class:`~repro.harness.store.ArtifactStore`, so ``--resume`` skips
  finished work and re-attempts only the failure tail. Because every
  cell is a deterministic function of its arguments, a resumed campaign
  is bit-identical to an uninterrupted one -- the property the resume
  tests guard.
* **Crash dossiers** -- every fault is captured as a JSON dossier
  (fault taxonomy record plus a flight-recorder snapshot when one is
  installed) before the worker is torn down.

:meth:`Supervisor.run_cell` is the one attempt loop: the serial path
runs every cell through it, and a fleet executor
(:mod:`repro.harness.fleet`) runs each leased cell through it too. The
process-per-cell ``--jobs`` path shares its post-fault decision.

The supervisor is **opt-in**: :func:`repro.harness.parallel.map_units`
consults :func:`current` and takes its historical path when no
supervisor is active, so the unsupervised hot path pays one function
call per *experiment* (not per cell). ``benchmarks/bench_resilience.py``
guards that budget.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..obs import eventbus
from ..core.persistence import save_record
from . import faults
from .runner import TIMEOUT_FACTOR, TIMEOUT_FLOOR_MS
from .store import ArtifactStore, CellRecord

#: Watchdog floor, inherited from the per-test timeout convention.
WATCHDOG_FLOOR_S = TIMEOUT_FLOOR_MS / 1000.0

#: Deadline applied before enough cells have completed to estimate one
#: (deliberately generous: a false kill costs a retry, a false wait
#: costs the whole campaign).
WATCHDOG_WARMUP_S = 600.0

#: Completed-cell sample size needed before the adaptive deadline
#: replaces the warm-up deadline.
WATCHDOG_MIN_SAMPLES = 3

JOURNAL_NAME = "journal.jsonl"


def _jsonable(value: Any) -> Any:
    """Canonical JSON projection of a cell argument (for cell keys)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {"__dc__": type(value).__name__, **_jsonable(dataclasses.asdict(value))}
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def cell_key(fn: Callable[..., Any], args: Tuple) -> str:
    """Content-addressed identity of one cell: function + arguments.

    The same digest discipline as the run cache: SHA-256 over a
    canonical JSON encoding, so the key is stable across processes and
    campaign restarts -- the anchor checkpoint-resume hangs off.
    """
    blob = json.dumps(
        {"fn": "%s.%s" % (fn.__module__, fn.__qualname__), "args": _jsonable(list(args))},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:32]


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------


@dataclasses.dataclass
class RetryPolicy:
    """Exponential backoff with seeded, deterministic jitter.

    The jitter draw is a pure function of ``(seed, cell key, attempt)``
    -- same SHA-256 discipline as the chaos harness -- so a retry
    schedule is exactly reproducible, which the backoff-determinism
    test relies on.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0
    #: Cap on the *sum* of a cell's backoff delays, not just each delay.
    #: A generous --retries with an unlucky jitter draw must not turn
    #: one flaky cell into minutes of accumulated sleeping (a draining
    #: fleet worker would sit on its lease the whole time). None
    #: disables the cap.
    backoff_total_max_s: Optional[float] = 20.0
    jitter: float = 0.25
    seed: int = 0

    def _raw_backoff_s(self, key: str, attempt: int) -> float:
        """The per-attempt schedule before the cumulative cap."""
        base = min(
            self.backoff_max_s,
            self.backoff_base_s * (self.backoff_factor ** max(0, attempt - 1)),
        )
        if self.jitter <= 0.0:
            return base
        blob = "%d|backoff|%s|%d" % (self.seed, key, attempt)
        digest = hashlib.sha256(blob.encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
        # Spread over [base*(1-jitter), base*(1+jitter)].
        return base * (1.0 - self.jitter + 2.0 * self.jitter * draw)

    def backoff_s(self, key: str, attempt: int) -> float:
        """Delay before retrying ``key`` after failed attempt ``attempt``.

        Deterministic like the raw schedule (a pure function of the
        policy fields, key and attempt), but clamped so the cumulative
        delay across a cell's whole retry tail never exceeds
        :attr:`backoff_total_max_s`: each attempt draws from whatever
        budget the earlier attempts left.
        """
        if self.backoff_total_max_s is None:
            return self._raw_backoff_s(key, attempt)
        budget = self.backoff_total_max_s
        draw = 0.0
        for index in range(1, attempt + 1):
            draw = min(self._raw_backoff_s(key, index), max(0.0, budget))
            budget -= draw
        return draw

    def backoff_schedule(self, key: str) -> List[float]:
        """The full retry schedule for ``key`` (one entry per retry)."""
        return [self.backoff_s(key, attempt) for attempt in range(1, self.max_attempts)]


# ----------------------------------------------------------------------
# Campaign journal (checkpoint-resume)
# ----------------------------------------------------------------------


class CampaignJournal:
    """Checkpoint-resume state: a ledger plus a result store.

    ``journal.jsonl`` gets one append-only line per finalized cell
    (``ok`` | ``quarantined`` | ``failed``), like a fleet worker's
    ``journal-<worker>.jsonl``. Each ``ok`` result is published to an
    :class:`~repro.harness.store.ArtifactStore` in the same directory,
    and resume is a checksum-verified fetch from that store, so the
    ledger is never read back: a torn ledger line cannot block a
    resume, and a corrupt record is quarantined as a miss and the cell
    reruns. Degraded cells publish nothing, so the failure tail is
    always re-attempted.
    """

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        self.store = ArtifactStore(self.directory, fsync=False)
        self.path = self.directory / JOURNAL_NAME

    def record(self, key: str, status: str, attempts: int, fault_list: List[dict],
               result: Any = None) -> None:
        entry: Dict[str, Any] = {"key": key, "status": status, "attempts": attempts}
        if fault_list:
            entry["faults"] = fault_list
        if status == "ok":
            entry["sha256"] = self.store.publish(key, status, result, attempts=attempts).sha256
        with open(self.path, "a") as fp:
            fp.write(json.dumps(entry, sort_keys=True) + "\n")
            fp.flush()
        eventbus.emit("checkpoint", cell=key[:16], status=status, attempts=attempts)


# ----------------------------------------------------------------------
# Campaign statistics (the degradation summary)
# ----------------------------------------------------------------------


@dataclasses.dataclass
class CampaignStats:
    ok: int = 0
    retried: int = 0  # cells that needed >1 attempt but finished ok
    quarantined: int = 0  # deterministic fault: never retried
    failed: int = 0  # retryable fault that exhausted the attempt budget
    resumed: int = 0  # cells satisfied from the journal without running
    fault_counts: Dict[str, int] = dataclasses.field(default_factory=dict)

    @property
    def cells(self) -> int:
        return self.ok + self.quarantined + self.failed + self.resumed

    def summary_line(self) -> str:
        """The end-of-run degradation summary the CLI prints."""
        parts = [
            "%d cells ok" % (self.ok + self.resumed),
            "%d retried" % self.retried,
            "%d quarantined" % self.quarantined,
        ]
        if self.failed:
            parts.append("%d failed" % self.failed)
        if self.resumed:
            parts.append("%d resumed from journal" % self.resumed)
        line = "supervisor: " + ", ".join(parts)
        if self.fault_counts:
            line += " (faults: %s)" % ", ".join(
                "%s=%d" % (kind, count) for kind, count in sorted(self.fault_counts.items())
            )
        return line


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------


class _RemoteFault(faults.HarnessFault):
    """A fault that occurred in a worker process, rehydrated from its
    JSON description (arbitrary exceptions do not pickle reliably)."""

    def __init__(self, record: Dict[str, Any]):
        super().__init__("%s: %s" % (record.get("error", "?"), record.get("detail", "")))
        self.kind = record.get("kind", faults.DETERMINISTIC)
        self.retryable = bool(record.get("retryable", False))


def _child_entry(conn, fn, args, key: str, attempt: int) -> None:
    """Worker body for one supervised parallel cell.

    Runs the chaos prelude (an injected crash here is a real
    ``os._exit`` with no result, exactly like an OOM-killed worker),
    executes the cell through the same ``_call_unit`` wrapper the pool
    path uses (per-cell telemetry + flush), and ships back either the
    result or a JSON-safe fault description.
    """
    try:
        faults.cell_prelude(key, attempt, in_child=True)
        from .parallel import _call_unit

        result = _call_unit(fn, args)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - the boundary's job
        try:
            conn.send(("err", faults.describe(exc)))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


def _kill(proc) -> None:
    """Terminate a cell's worker process, escalating to SIGKILL."""
    proc.terminate()
    proc.join(timeout=2.0)
    if proc.is_alive():
        proc.kill()


class CellDrained(Exception):
    """A shutdown request arrived during a cell's retry backoff; the
    cell was left unfinalized after ``attempt`` attempts."""

    def __init__(self, attempt: int, fault_list: List[dict]):
        super().__init__("drained after attempt %d" % attempt)
        self.attempt = attempt
        self.fault_list = fault_list


class Supervisor:
    """Fault boundary around a campaign's cell executions.

    Activate with :func:`activate` (or the :func:`supervised` context
    manager); :func:`repro.harness.parallel.map_units` routes through
    :meth:`map` while one is active.
    """

    def __init__(
        self,
        policy: Optional[RetryPolicy] = None,
        journal: Optional[CampaignJournal] = None,
        cell_timeout_s: Optional[float] = None,
        dossier_dir: Optional[os.PathLike] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        self.policy = policy or RetryPolicy()
        self.journal = journal
        self.cell_timeout_s = cell_timeout_s
        self.stats = CampaignStats()
        #: Set (from a signal handler or another thread) to drain: the
        #: interruptible backoff sleep returns immediately, the current
        #: retry tail is finalized as failed, and no new cell starts --
        #: so a fleet worker can release its lease promptly instead of
        #: sleeping through a backoff with the lease held.
        self.shutdown = threading.Event()
        self.sleep = sleep if sleep is not None else self._interruptible_sleep
        self._dossier_dir = Path(dossier_dir) if dossier_dir is not None else None
        self._wall_times: List[float] = []

    def request_shutdown(self) -> None:
        """Ask the supervisor to drain at the next fault boundary."""
        self.shutdown.set()

    def _interruptible_sleep(self, seconds: float) -> None:
        """The default backoff sleep: wakes early on :attr:`shutdown`."""
        if seconds > 0.0:
            self.shutdown.wait(seconds)

    # -- Watchdog ------------------------------------------------------

    def watchdog_s(self) -> float:
        """Per-cell wall-clock deadline.

        An explicit ``--cell-timeout`` wins; otherwise the deadline
        adapts to the campaign: ``TIMEOUT_FACTOR`` x the median
        completed-cell wall time (floored), the same convention
        :func:`repro.harness.runner.test_time_limit` applies to
        individual simulated tests. Until enough cells have completed
        to estimate, a generous warm-up deadline applies.
        """
        if self.cell_timeout_s is not None:
            return self.cell_timeout_s
        if len(self._wall_times) < WATCHDOG_MIN_SAMPLES:
            return WATCHDOG_WARMUP_S
        ordered = sorted(self._wall_times)
        median = ordered[len(ordered) // 2]
        return max(WATCHDOG_FLOOR_S, TIMEOUT_FACTOR * median)

    @contextmanager
    def _serial_watchdog(self, deadline_s: float, key: str):
        """SIGALRM-based deadline for the serial path (main thread only;
        elsewhere the cell runs unguarded rather than unsupervised)."""
        usable = (
            hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()
        )
        if not usable:
            yield
            return

        def _on_alarm(signum, frame):
            raise faults.CellHangFault(
                "cell %s exceeded its %.1fs watchdog" % (key[:12], deadline_s)
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    # -- Dossiers and accounting ---------------------------------------

    def _dossier_target(self) -> Optional[Path]:
        if self._dossier_dir is not None:
            return self._dossier_dir
        if self.journal is not None:
            return self.journal.directory
        session = obs.session()
        if session is not None:
            return session.directory
        return None

    def _write_dossier(self, key: str, attempt: int, fault_record: dict) -> None:
        """Capture fault context (including flight-recorder state) as a
        crash dossier before the cell is finalized or retried."""
        target = self._dossier_target()
        if target is None:
            return
        flight = obs.flightrec.recorder()
        payload = {
            "cell": key,
            "attempt": attempt,
            "fault": fault_record,
            "unix_time": round(time.time(), 3),
            "flightrec": flight.snapshot()[-256:] if flight is not None else None,
        }
        try:
            save_record(payload, Path(target) / ("crash-%s-a%d.json" % (key[:16], attempt)))
        except OSError:
            pass  # a dossier must never take down the campaign

    def _account_fault(self, exc: BaseException, key: str, attempt: int) -> dict:
        record = faults.describe(exc)
        counts = self.stats.fault_counts
        counts[record["kind"]] = counts.get(record["kind"], 0) + 1
        session = obs.session()
        if session is not None:
            counter = session.c_faults.get(record["kind"])
            if counter is not None:
                counter.inc()
        flight = obs.flightrec.recorder()
        if flight is not None:
            flight.record("cell_fault", cell=key[:16], attempt=attempt, kind=record["kind"])
        eventbus.emit(
            "fault",
            cell=key[:16],
            attempt=attempt,
            kind=record["kind"],
            error=record.get("error", "?"),
        )
        self._write_dossier(key, attempt, record)
        return record

    def finalize(self, key: str, status: str, attempt: int, fault_list: List[dict],
                  result: Any = None, wall_s: float = 0.0) -> Any:
        """Count a cell's verdict (ok | quarantined | failed), journal it
        and emit its ``cell_end``; returns the result (None unless ok)."""
        session = obs.session()
        if status == "ok":
            self.stats.ok += 1
            self._wall_times.append(wall_s)
            if attempt > 1:
                self.stats.retried += 1
                if session is not None:
                    session.c_cells_retried.inc()
        elif status == "quarantined":
            self.stats.quarantined += 1
            if session is not None:
                session.c_cells_quarantined.inc()
        else:
            self.stats.failed += 1
        if self.journal is not None:
            self.journal.record(key, status, attempt, fault_list, result=result)
        bus = eventbus.bus()
        if bus is not None and status == "ok":
            bus.emit("cell_end", cell=key[:16], status=status, attempt=attempt,
                     wall_s=round(wall_s, 4))
            bus.maybe_flush()
        elif bus is not None:
            bus.emit("cell_end", cell=key[:16], status=status, attempt=attempt)
            bus.flush()  # degraded cells are rare and worth immediate durability
        return result

    # -- Resume --------------------------------------------------------

    def _try_resume(self, key: str) -> Optional[CellRecord]:
        """The journal's verified ``ok`` record for a cell, if any."""
        record = self.journal.store.fetch(key) if self.journal is not None else None
        if record is None or not record.ok:
            return None
        self.stats.resumed += 1
        session = obs.session()
        if session is not None:
            session.c_cells_resumed.inc()
        eventbus.emit("cell_resumed", cell=key[:16])
        return record

    # -- The attempt loop ----------------------------------------------

    def _after_fault(self, exc: BaseException, key: str, attempt: int,
                     fault_list: List[dict]) -> Optional[float]:
        """The post-fault decision every execution path shares.

        Accounts the fault, then either finalizes the cell --
        quarantined for a deterministic fault, failed once the attempt
        budget is spent -- and returns None, or announces the retry and
        returns its backoff in seconds.
        """
        fault_list.append(self._account_fault(exc, key, attempt))
        kind, retryable = faults.classify(exc)
        if not retryable or attempt >= self.policy.max_attempts:
            status = "failed" if retryable else "quarantined"
            self.finalize(key, status, attempt, fault_list)
            return None
        backoff = self.policy.backoff_s(key, attempt)
        eventbus.emit("cell_retry", cell=key[:16], attempt=attempt + 1,
                      backoff_s=round(backoff, 4), kind=kind)
        return backoff

    def run_cell(self, fn: Callable[..., Any], args: Tuple, key: str, attempt: int = 1,
                 in_child: bool = False,
                 on_retry: Optional[Callable[[int], Any]] = None) -> Tuple[str, int, Any]:
        """Run one cell in this process until it has a verdict.

        Each attempt runs under the watchdog and the chaos prelude
        (``in_child``: an injected crash is a real ``os._exit``, as in
        a fleet worker process). After a retryable fault the loop
        sleeps the policy's backoff and calls ``on_retry(next
        attempt)`` before trying again. Returns ``(status, attempt,
        result)`` with the cell finalized; raises :class:`CellDrained`,
        with the cell not finalized, when a shutdown request arrives
        during a backoff.
        """
        from .parallel import _call_unit

        fault_list: List[dict] = []
        while True:
            eventbus.emit("cell_begin", cell=key[:16], unit=fn.__name__, attempt=attempt)
            # Visible at once to live `campaign status`, and kept in the
            # stream of an executor that dies inside the cell.
            eventbus.flush()
            deadline_s = self.watchdog_s()
            started = time.perf_counter()
            try:
                with self._serial_watchdog(deadline_s, key):
                    faults.cell_prelude(key, attempt, in_child=in_child)
                    result = _call_unit(fn, args)
            except (KeyboardInterrupt, SystemExit):
                raise
            except BaseException as exc:  # noqa: BLE001 - the boundary's job
                if isinstance(exc, faults.CellHangFault):
                    eventbus.emit("watchdog", cell=key[:16], deadline_s=round(deadline_s, 3))
                backoff = self._after_fault(exc, key, attempt, fault_list)
                if backoff is None:
                    status = "failed" if fault_list[-1]["retryable"] else "quarantined"
                    return status, attempt, None
                self.sleep(backoff)
                if self.shutdown.is_set():
                    raise CellDrained(attempt, fault_list)
                attempt += 1
                if on_retry is not None:
                    on_retry(attempt)
            else:
                return "ok", attempt, self.finalize(
                    key, "ok", attempt, fault_list, result, time.perf_counter() - started)

    # -- Parallel execution --------------------------------------------

    def _run_parallel(
        self,
        fn: Callable[..., Any],
        units: List[Tuple],
        keys: List[str],
        pending: List[int],
        results: List[Any],
        workers: int,
    ) -> None:
        """Own process-per-cell fan-out (bounded by ``workers``).

        A ``ProcessPoolExecutor`` cannot kill one wedged member, so the
        supervised path runs each cell in its own forked process with a
        pipe back; a cell past its deadline is terminated individually
        and the rest of the campaign proceeds.
        """
        import multiprocessing
        from multiprocessing.connection import wait as conn_wait

        ctx = multiprocessing.get_context("fork")
        # (index, attempt, ready_at_monotonic, accumulated fault records)
        queue: List[Tuple[int, int, float, List[dict]]] = [
            (index, 1, 0.0, []) for index in pending
        ]
        inflight: Dict[Any, dict] = {}  # parent conn -> cell state

        def launch(index: int, attempt: int, fault_list: List[dict]) -> None:
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_child_entry,
                args=(child_conn, fn, units[index], keys[index], attempt),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            eventbus.emit("cell_begin", cell=keys[index][:16], unit=fn.__name__,
                          attempt=attempt)
            eventbus.flush()  # visible to live `campaign status` immediately
            inflight[parent_conn] = {
                "index": index,
                "attempt": attempt,
                "proc": proc,
                "faults": fault_list,
                "started": time.monotonic(),
                "deadline": time.monotonic() + self.watchdog_s(),
            }

        def settle(conn, cell: dict, exc: Optional[BaseException], result: Any) -> None:
            index, attempt = cell["index"], cell["attempt"]
            key = keys[index]
            cell["proc"].join(timeout=5.0)
            conn.close()
            if exc is None:
                results[index] = self.finalize(key, "ok", attempt, cell["faults"], result,
                                               time.monotonic() - cell["started"])
                return
            backoff = self._after_fault(exc, key, attempt, cell["faults"])
            if backoff is not None:
                queue.append((index, attempt + 1, time.monotonic() + backoff, cell["faults"]))

        while queue or inflight:
            if self.shutdown.is_set():
                # Draining: kill in-flight workers and finalize every
                # cell still owed a result as failed, promptly.
                for conn, cell in inflight.items():
                    _kill(cell["proc"])
                    conn.close()
                    queue.append((cell["index"], cell["attempt"], 0.0, cell["faults"]))
                for index, attempt, _, fault_list in queue:
                    self.finalize(keys[index], "failed", attempt, fault_list)
                break
            now = time.monotonic()
            # Launch every ready cell a worker slot exists for.
            queue.sort(key=lambda item: item[2])
            while queue and len(inflight) < workers and queue[0][2] <= now:
                index, attempt, _, fault_list = queue.pop(0)
                launch(index, attempt, fault_list)
            if not inflight:
                if queue:  # everything is backing off: sleep to the nearest retry
                    self.sleep(max(0.0, queue[0][2] - time.monotonic()))
                continue
            # Wait for messages, worker deaths, or the nearest deadline.
            next_deadline = min(cell["deadline"] for cell in inflight.values())
            timeout = max(0.0, min(0.25, next_deadline - time.monotonic()))
            ready = conn_wait(list(inflight.keys()), timeout=timeout)
            for conn in ready:
                cell = inflight.pop(conn)
                try:
                    status, payload = conn.recv()
                except (EOFError, OSError):
                    # The pipe died with no message: the worker crashed
                    # (chaos os._exit, OOM kill, segfault).
                    cell["proc"].join(timeout=5.0)
                    settle(
                        conn,
                        cell,
                        faults.WorkerCrashFault(
                            "worker for cell %s died without a result (exit %s)"
                            % (keys[cell["index"]][:12], cell["proc"].exitcode),
                            exitcode=cell["proc"].exitcode,
                        ),
                        None,
                    )
                    continue
                if status == "ok":
                    settle(conn, cell, None, payload)
                else:
                    settle(conn, cell, _RemoteFault(payload), None)
            # Enforce deadlines on whatever is still in flight.
            now = time.monotonic()
            for conn in [c for c, cell in inflight.items() if cell["deadline"] <= now]:
                cell = inflight.pop(conn)
                proc = cell["proc"]
                hang = faults.CellHangFault(
                    "cell %s exceeded its %.1fs watchdog; worker pid %s killed"
                    % (keys[cell["index"]][:12], cell["deadline"] - cell["started"], proc.pid)
                )
                eventbus.emit(
                    "watchdog",
                    cell=keys[cell["index"]][:16],
                    deadline_s=round(cell["deadline"] - cell["started"], 3),
                )
                _kill(proc)
                settle(conn, cell, hang, None)

    # -- Entry point ---------------------------------------------------

    def map(self, fn: Callable[..., Any], arg_tuples: Sequence[Tuple],
            jobs: Optional[int] = 1) -> List[Any]:
        """Supervised equivalent of :func:`repro.harness.parallel.map_units`.

        Results come back in submission order; a quarantined or
        retry-exhausted cell yields ``None`` at its position (graceful
        degradation) and is counted in :attr:`stats`.
        """
        from .parallel import resolve_jobs

        units = [tuple(args) for args in arg_tuples]
        keys = [cell_key(fn, args) for args in units]
        eventbus.emit("fanout", unit=fn.__name__, cells=len(units),
                      jobs=resolve_jobs(jobs))
        results: List[Any] = [None] * len(units)
        pending: List[int] = []
        for index, key in enumerate(keys):
            record = self._try_resume(key)
            if record is None:
                pending.append(index)
            else:
                results[index] = record.result
        if not pending:
            return results
        jobs = resolve_jobs(jobs)
        if jobs <= 1 or len(pending) <= 1:
            for index in pending:
                if self.shutdown.is_set():
                    # Draining: no new cell starts; each one still owed
                    # a result is finalized failed, as in _run_parallel.
                    self.finalize(keys[index], "failed", 1, [])
                    continue
                try:
                    results[index] = self.run_cell(fn, units[index], keys[index])[2]
                except CellDrained as drained:
                    # Draining: finalize the tail as failed rather than
                    # holding resources through the remaining attempts.
                    self.finalize(keys[index], "failed", drained.attempt,
                                  drained.fault_list)
        else:
            self._run_parallel(fn, units, keys, pending, results, min(jobs, len(pending)))
        return results


# ----------------------------------------------------------------------
# Process-global activation (consulted by parallel.map_units)
# ----------------------------------------------------------------------

_active: Optional[Supervisor] = None


def current() -> Optional[Supervisor]:
    """The active supervisor, or None (the unsupervised fast path)."""
    return _active


def activate(supervisor: Supervisor) -> Supervisor:
    global _active
    _active = supervisor
    # The event bus may have been configured before the harness (and its
    # fault taxonomy) finished importing; re-wire the chaos observer now
    # that both sides exist.
    eventbus._wire_chaos()
    return _active


def deactivate() -> None:
    global _active
    _active = None


@contextmanager
def supervised(
    policy: Optional[RetryPolicy] = None,
    journal: Optional[CampaignJournal] = None,
    cell_timeout_s: Optional[float] = None,
    **kwargs: Any,
):
    """Scoped activation: every ``map_units`` call inside the block runs
    under this supervisor."""
    supervisor = Supervisor(
        policy=policy, journal=journal, cell_timeout_s=cell_timeout_s, **kwargs
    )
    activate(supervisor)
    try:
        yield supervisor
    finally:
        deactivate()


if hasattr(os, "register_at_fork"):
    # A supervised cell's worker must run its cell directly, not
    # re-enter the supervisor it inherited over fork.
    os.register_at_fork(after_in_child=deactivate)
