"""Structured campaign failures: remote tracebacks and the quarantine store.

A campaign worker dies three ways — it raises, it crashes (segfault /
OOM-kill / chaos ``SIGKILL``), or it hangs past the task timeout — and
every one of them used to be fatal to the whole sweep.  This module is
the vocabulary the supervisor uses to make them survivable:

* :class:`RemoteTaskError` — the abort-mode error.  It carries the
  *formatted* worker traceback as text: a traceback object cannot cross
  a process boundary, so the worker formats it where the exception was
  caught and the parent raises this error with it, keeping abort-mode
  failures debuggable.
* :class:`TaskFailure` — the terminal record of one scenario that could
  not be completed: what failed, how (``raise``/``crash``/``hang``),
  after how many attempts, on which backends, with the full remote
  traceback when one exists.
* :class:`QuarantineStore` — the ``repro-campaign-quarantine`` JSONL
  sidecar next to the result store (``sweep.jsonl`` →
  ``sweep.quarantine.jsonl``).  Quarantined scenarios are skipped on
  ``--resume`` and listed / inspected / requeued by
  ``python -m repro campaign quarantine``.

The sidecar is diagnostic state, not result state: it never feeds
aggregation, and removing records from it (requeue) simply makes the
next ``--resume`` run those scenarios again.
"""

from __future__ import annotations

import json
import traceback as tb_module
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.core.errors import ReproError

__all__ = [
    "QUARANTINE_FORMAT",
    "QUARANTINE_VERSION",
    "QuarantineStore",
    "RemoteTaskError",
    "TaskFailure",
    "format_remote_traceback",
    "quarantine_path",
]

QUARANTINE_FORMAT = "repro-campaign-quarantine"
QUARANTINE_VERSION = 1

#: Failure kinds a task can die of.
FAILURE_KINDS = ("raise", "crash", "hang")


def format_remote_traceback(exc: BaseException) -> str:
    """The full formatted traceback of an exception, as one string."""
    return "".join(
        tb_module.format_exception(type(exc), exc, exc.__traceback__)
    )


class RemoteTaskError(ReproError):
    """A campaign task failed in a worker process.

    Carries the child's formatted traceback as
    :attr:`remote_traceback` — text, which survives pickling where an
    exception's own ``__traceback__`` does not.  ``str()`` includes it,
    so an abort-mode campaign failure prints the real failing frame,
    not the parent's re-raise site.
    """

    def __init__(self, message: str, remote_traceback: str = "") -> None:
        self.remote_traceback = remote_traceback
        super().__init__(message)

    def __str__(self) -> str:
        message = self.args[0] if self.args else ""
        if not self.remote_traceback:
            return message
        return (
            f"{message}\n"
            "---- remote traceback (worker process) ----\n"
            f"{self.remote_traceback.rstrip()}"
        )

    def __reduce__(self):
        # Explicit two-arg reconstruction: the default reduce would
        # replay only ``args`` and drop the traceback attribute.
        message = self.args[0] if self.args else ""
        return (type(self), (message, self.remote_traceback))

    @classmethod
    def from_exception(
        cls, exc: BaseException, context: str = "campaign task failed"
    ) -> "RemoteTaskError":
        """Wrap a live exception, capturing its formatted traceback."""
        return cls(
            f"{context}: {type(exc).__name__}: {exc}",
            format_remote_traceback(exc),
        )


@dataclass(frozen=True)
class TaskFailure:
    """The terminal failure record of one quarantined scenario.

    Parameters mirror the quarantine sidecar's wire form: the scenario
    identity (``hash`` + wire ``scenario`` dict) plus the error evidence
    (kind, exception type/message, remote traceback, attempt count, the
    backends tried and the last worker pid seen holding the task).
    """

    hash: str
    scenario: Mapping
    kind: str  # "raise" | "crash" | "hang"
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    backends: tuple = ()
    worker_pid: int | None = None
    ts: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ReproError(
                f"failure kind must be one of {FAILURE_KINDS}, "
                f"got {self.kind!r}"
            )

    def to_dict(self) -> dict:
        return {
            "hash": self.hash,
            "scenario": dict(self.scenario),
            "error": {
                "kind": self.kind,
                "type": self.error_type,
                "message": self.message,
                "traceback": self.traceback,
                "attempts": self.attempts,
                "backends": list(self.backends),
                "worker_pid": self.worker_pid,
                "ts": self.ts,
            },
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "TaskFailure":
        err = doc["error"]
        return cls(
            hash=doc["hash"],
            scenario=dict(doc["scenario"]),
            kind=err["kind"],
            error_type=err["type"],
            message=err["message"],
            traceback=err.get("traceback", ""),
            attempts=err.get("attempts", 1),
            backends=tuple(err.get("backends", ())),
            worker_pid=err.get("worker_pid"),
            ts=err.get("ts"),
        )

    def summary(self) -> str:
        """One list line: hash, label, kind and the first message line."""
        label = "?"
        topo = self.scenario.get("topology")
        if isinstance(topo, Mapping):
            label = topo.get("label", "?")
        first = self.message.splitlines()[0] if self.message else ""
        return (
            f"{self.hash}  {label}  kind={self.kind}  "
            f"{self.error_type}: {first}  (attempts={self.attempts})"
        )


def quarantine_path(store_path: str | Path) -> Path:
    """The quarantine sidecar paired with a store."""
    store = Path(store_path)
    return store.with_name(store.stem + ".quarantine.jsonl")


class QuarantineStore:
    """The append-only JSONL sidecar of quarantined scenarios.

    Same shape discipline as the result store — a format header line
    followed by one JSON record per failure, flushed per append, torn
    final line tolerated — so a supervisor killed mid-quarantine loses
    at most the record being written.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def exists(self) -> bool:
        return self.path.exists()

    def _ensure_header(self) -> None:
        if self.path.exists() and self.path.stat().st_size > 0:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "format": QUARANTINE_FORMAT, "version": QUARANTINE_VERSION,
        }
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")

    def append(self, failure: TaskFailure) -> None:
        """Append one terminal failure and flush it to disk."""
        self._ensure_header()
        line = json.dumps(failure.to_dict(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()

    def records(self) -> Iterator[TaskFailure]:
        """Yield the quarantined failures, tolerating a torn tail line."""
        if not self.path.exists():
            return
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            return
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as err:
            raise ReproError(
                f"{self.path}: quarantine header is not valid JSON: {err}"
            ) from err
        if (
            not isinstance(header, dict)
            or header.get("format") != QUARANTINE_FORMAT
        ):
            raise ReproError(
                f"{self.path}: not a {QUARANTINE_FORMAT} document"
            )
        if header.get("version") != QUARANTINE_VERSION:
            raise ReproError(
                f"{self.path}: unsupported quarantine version "
                f"{header.get('version')!r}"
            )
        for i, line in enumerate(lines[1:], start=2):
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines):  # torn tail
                    return
                raise ReproError(
                    f"{self.path}: corrupt quarantine record on line {i}"
                ) from None
            yield TaskFailure.from_dict(doc)

    def verify(self) -> dict:
        """Schema-check every failure line, returning a corruption report.

        The quarantine half of ``campaign store verify --sidecars``:
        same report shape as
        :meth:`repro.campaign.store.ResultStore.verify` —
        ``{"path", "records", "bad": [{"line", "reason"}, …], "ok"}``
        plus ``"exists"`` and ``"torn_tail"``.  Unlike :meth:`records`
        this never raises on record-level corruption (only on a broken
        header).  A torn final line is *tolerated* — reported via
        ``torn_tail`` but not counted bad — matching the read-path
        semantics of :meth:`records` and the trace reader: a supervisor
        killed mid-append is expected wear, not corruption.
        """
        report = {
            "path": str(self.path),
            "exists": self.path.exists(),
            "records": 0,
            "bad": [],
            "torn_tail": False,
            "ok": True,
        }
        if not report["exists"]:
            return report
        with open(self.path, "r", encoding="utf-8") as fh:
            text = fh.read()
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            return report
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as err:
            raise ReproError(
                f"{self.path}: quarantine header is not valid JSON: {err}"
            ) from err
        if (
            not isinstance(header, dict)
            or header.get("format") != QUARANTINE_FORMAT
        ):
            raise ReproError(
                f"{self.path}: not a {QUARANTINE_FORMAT} document"
            )
        if header.get("version") != QUARANTINE_VERSION:
            raise ReproError(
                f"{self.path}: unsupported quarantine version "
                f"{header.get('version')!r}"
            )
        for i, line in enumerate(lines[1:], start=2):
            reason = None
            doc = None
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                if i == len(lines):  # torn tail: records() skips it too
                    report["torn_tail"] = True
                    break
                reason = "invalid JSON"
            if reason is None and (
                not isinstance(doc, dict)
                or any(k not in doc for k in ("hash", "scenario", "error"))
            ):
                reason = "missing record keys"
            if reason is None and (
                not isinstance(doc["error"], dict)
                or any(
                    k not in doc["error"] for k in ("kind", "type", "message")
                )
            ):
                reason = "missing error keys"
            if reason is None and doc["error"]["kind"] not in FAILURE_KINDS:
                reason = (
                    f"unknown failure kind {doc['error']['kind']!r}"
                )
            if reason is None:
                report["records"] += 1
            else:
                report["bad"].append({"line": i, "reason": reason})
        report["ok"] = not report["bad"]
        return report

    def hashes(self) -> set[str]:
        """Scenario hashes currently quarantined (the resume skip-set)."""
        return {failure.hash for failure in self.records()}

    def get(self, digest: str) -> TaskFailure | None:
        """The failure record of one hash (prefix match), or ``None``."""
        for failure in self.records():
            if failure.hash.startswith(digest):
                return failure
        return None

    def requeue(self, hashes: Iterable[str] | None = None) -> int:
        """Drop failures from the sidecar so ``--resume`` re-runs them.

        ``hashes`` limits the requeue to those scenarios (prefix match);
        ``None`` requeues everything.  Returns the number of records
        removed.  The rewrite is atomic (temp file + ``os.replace``).
        """
        import os

        if not self.path.exists():
            return 0
        prefixes = None if hashes is None else tuple(hashes)

        def _drop(failure: TaskFailure) -> bool:
            if prefixes is None:
                return True
            return any(failure.hash.startswith(p) for p in prefixes)

        kept = [f for f in self.records() if not _drop(f)]
        dropped = len(list(self.records())) - len(kept)
        if dropped == 0:
            return 0
        tmp = self.path.with_name(f".{self.path.name}.tmp")
        header = {
            "format": QUARANTINE_FORMAT, "version": QUARANTINE_VERSION,
        }
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for failure in kept:
                fh.write(json.dumps(failure.to_dict(), sort_keys=True) + "\n")
        os.replace(tmp, self.path)
        return dropped

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def __repr__(self) -> str:
        return f"QuarantineStore({str(self.path)!r})"
