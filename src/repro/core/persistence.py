"""On-disk persistence of analysis results and decay state.

Section 5: the candidate set S, the interference set I and the
per-location delay lengths "are saved after analyzing the execution
traces recorded during the preparation run and used to bootstrap future
detection runs"; likewise "after each detection run, the new delay
probabilities are saved on disk and used to bootstrap the next
detection run." The in-process drivers thread these objects through
runs directly; this module provides the equivalent file round-trip for
CLI workflows and for tests that assert the bootstrap is lossless.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Tuple, Union

from .analyzer import InjectionPlan
from .delay_policy import DecayState
from .reports import BugReport

PathLike = Union[str, Path]

FORMAT_VERSION = 1


def save_plan(plan: InjectionPlan, path: PathLike) -> None:
    payload = {"version": FORMAT_VERSION, "plan": plan.to_dict()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_plan(path: PathLike) -> InjectionPlan:
    payload = json.loads(Path(path).read_text())
    _check_version(payload)
    return InjectionPlan.from_dict(payload["plan"])


def save_decay(decay: DecayState, path: PathLike) -> None:
    payload = {"version": FORMAT_VERSION, "decay": decay.to_dict()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_decay(path: PathLike) -> DecayState:
    payload = json.loads(Path(path).read_text())
    _check_version(payload)
    return DecayState.from_dict(payload["decay"])


def save_session(plan: InjectionPlan, decay: DecayState, path: PathLike) -> None:
    """Persist a full detection session bootstrap in one file."""
    payload = {
        "version": FORMAT_VERSION,
        "plan": plan.to_dict(),
        "decay": decay.to_dict(),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_session(path: PathLike) -> Tuple[InjectionPlan, DecayState]:
    payload = json.loads(Path(path).read_text())
    _check_version(payload)
    return (
        InjectionPlan.from_dict(payload["plan"]),
        DecayState.from_dict(payload["decay"]),
    )


def save_report(report: BugReport, path: PathLike) -> None:
    """Persist a bug report (the dossier/detect-record shared schema)."""
    save_record({"report": report.to_dict()}, path)


def load_report(path: PathLike) -> BugReport:
    return BugReport.from_dict(load_record(path)["report"])


def save_record(payload: dict, path: PathLike, fsync: bool = False) -> None:
    """Persist an arbitrary JSON-safe record with the format version.

    Backs the harness trace/plan cache: entries are written atomically
    via a temp file in the *same directory* as the target (so the
    ``os.replace`` is a same-filesystem rename -- a cross-device rename
    would raise EXDEV and, on network filesystems, forfeit atomicity)
    followed by a rename, so concurrent workers racing on the same
    cache key never observe a torn file.

    ``fsync=True`` additionally flushes the file contents (and, best
    effort, the directory entry) to stable storage before the rename is
    allowed to make the record visible -- the durability a *shared*
    store needs so a reader on another host never sees a named-but-
    empty record after a crash. It costs ~0.5ms per record, so the
    single-host cache leaves it off.
    """
    body = json.dumps({"version": FORMAT_VERSION, "record": payload}, sort_keys=True)
    write_atomic(body.encode("utf-8"), path, fsync=fsync)


def write_atomic(body: bytes, path: PathLike, fsync: bool = False) -> None:
    """Publish ``body`` at ``path`` atomically (see :func:`save_record`).

    The one temp-file-and-rename in the program: the write half of
    :func:`save_record`, for callers that encode the record bytes
    themselves (run cache, artifact store, fleet files, merged streams).
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp.%d" % os.getpid())
    with open(tmp, "wb") as fp:
        fp.write(body)
        if fsync:
            fp.flush()
            os.fsync(fp.fileno())
    os.replace(tmp, target)
    if fsync:
        fsync_dir(target.parent)


def quarantine(path: PathLike) -> None:
    """Move a record that failed verification out of its store's
    namespace (``*.corrupt``), keeping the bytes for inspection. Best
    effort: the reader treats the record as a miss either way."""
    target = Path(path)
    try:
        os.replace(target, target.with_name(target.name + ".corrupt"))
    except OSError:
        pass


def fsync_dir(directory: PathLike) -> None:
    """Flush a directory entry to stable storage, best effort.

    Needed after an ``os.replace`` that must be durable: the rename
    itself lives in the directory inode. Platforms that cannot open a
    directory for fsync (e.g. Windows) are silently tolerated -- the
    data fsync already happened and this is the weaker half.
    """
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def load_record(path: PathLike) -> dict:
    payload = json.loads(Path(path).read_text())
    _check_version(payload)
    return payload["record"]


def _check_version(payload: dict) -> None:
    version = payload.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            "unsupported persistence format version %r (expected %d)"
            % (version, FORMAT_VERSION)
        )
