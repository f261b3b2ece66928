"""The append-only JSONL result store behind campaign runs.

One file per campaign: a ``repro-campaign-store`` header line followed by
one JSON record per completed scenario —

::

    {"format": "repro-campaign-store", "version": 1}
    {"hash": "6fa1…", "scenario": {…}, "report": {…}}
    {"hash": "93c0…", "scenario": {…}, "report": {…}}

Records are appended and flushed as workers finish, so a killed run loses
at most the line being written.  :meth:`ResultStore.records` tolerates a
truncated final line for exactly that reason — crash-safe ``--resume``
reads the surviving records, skips their scenarios and re-runs the rest.

The store is keyed by the scenario digest
(:attr:`repro.spec.scenario.ScenarioSpec.digest`): append order is
completion order and therefore *not* deterministic under a worker pool,
but every consumer (resume, aggregation) sorts by hash, so campaign
outputs are order-independent.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Iterator, Mapping

from repro.core.errors import ReproError
from repro.sim.metrics import SimReport
from repro.spec.scenario import canonical_json

__all__ = ["ResultStore", "record_crc"]

_FORMAT = "repro-campaign-store"
_VERSION = 1

#: Record keys covered by the per-record CRC (everything but the CRC).
_CRC_KEYS = ("hash", "scenario", "report")


def record_crc(record: Mapping) -> str:
    """CRC32 of a record's canonical JSON, as 8 hex digits.

    Computed over the ``hash``/``scenario``/``report`` triple in
    canonical form (sorted keys, no whitespace), so the checksum is
    independent of the on-disk spelling and of the ``crc`` field
    itself.  Guards against *torn or bit-rotted mid-file records*: the
    append path already makes torn tails recoverable, but a corruption
    anywhere else was previously only detectable, never attributable
    or repairable.
    """
    doc = {k: record[k] for k in _CRC_KEYS}
    return format(zlib.crc32(canonical_json(doc).encode("utf-8")), "08x")


class ResultStore:
    """An append-only scenario → report store on one JSONL file.

    Parameters
    ----------
    path:
        The store file; created (with its header line) on first append.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._tail_checked = False

    def exists(self) -> bool:
        """True when the store file is present on disk."""
        return self.path.exists()

    # -- writing -----------------------------------------------------------

    def _ensure_header(self) -> None:
        if self.path.exists() and self.path.stat().st_size > 0:
            self._repair_tail()
            if self.path.stat().st_size > 0:
                return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {"format": _FORMAT, "version": _VERSION}
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")

    def _repair_tail(self) -> None:
        """Truncate a torn final line so appends start on a line boundary.

        A run killed mid-write leaves a partial record without its
        newline; appending straight after it would corrupt the file, so
        the torn bytes (which :meth:`records` already ignores) are cut.
        Torn tails can only predate this process's appends (every append
        flushes a complete line), so the check runs once per store
        instance and probes just the final byte unless repair is needed.
        """
        if self._tail_checked:
            return
        self._tail_checked = True
        with open(self.path, "r+b") as fh:
            fh.seek(-1, 2)
            if fh.read(1) == b"\n":
                return
            fh.seek(0)
            data = fh.read()
            keep = data.rfind(b"\n") + 1  # 0 when no newline survived
            fh.truncate(keep)

    def append(
        self, digest: str, scenario: Mapping, report: Mapping
    ) -> None:
        """Append one completed scenario record and flush it to disk.

        ``report`` is the :meth:`~repro.sim.metrics.SimReport.to_dict`
        form — the store holds JSON, not objects.  Each record carries
        a ``crc`` field (:func:`record_crc`) so ``campaign store
        verify``/``repair`` can detect corrupt mid-file records; stores
        written before the field existed verify fine (their records
        simply have no checksum to check).
        """
        self._ensure_header()
        record = {
            "hash": digest,
            "scenario": dict(scenario),
            "report": dict(report),
        }
        record["crc"] = record_crc(record)
        line = json.dumps(record, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()

    # -- reading -----------------------------------------------------------

    def records(self) -> Iterator[dict]:
        """Yield the stored records, skipping a torn (truncated) tail line.

        Raises :class:`ReproError` when the file exists but is not a
        ``repro-campaign-store`` document, or when corruption appears
        anywhere other than the final line.
        """
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
                f"{self.path}: store header is not valid JSON: {err}"
            ) from err
        if not isinstance(header, dict) or header.get("format") != _FORMAT:
            raise ReproError(
                f"{self.path}: not a {_FORMAT} document "
                f"(format={header.get('format')!r})"
                if isinstance(header, dict)
                else f"{self.path}: store header must be a JSON object"
            )
        if header.get("version") != _VERSION:
            raise ReproError(
                f"{self.path}: unsupported store version "
                f"{header.get('version')!r}; expected {_VERSION}"
            )
        for i, line in enumerate(lines[1:], start=2):
            torn = False
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record, torn = None, True
            if not torn:
                torn = (
                    not isinstance(record, dict)
                    or "hash" not in record
                    or "scenario" not in record
                    or "report" not in record
                )
            if torn:
                if i == len(lines):  # torn tail: the crash-interrupted write
                    return
                raise ReproError(
                    f"{self.path}: corrupt record on line {i} "
                    "(not the final line — refusing to guess)"
                ) from None
            yield record

    # -- integrity ---------------------------------------------------------

    def _classify_lines(self) -> tuple[list[str], list[tuple[int, str, str]]]:
        """Split the store body into good lines and bad ``(lineno, line,
        reason)`` triples.

        Reads raw lines (unlike :meth:`records`, which refuses mid-file
        corruption outright) so every record can be judged
        independently: invalid JSON, a non-object, missing keys, or a
        ``crc`` mismatch all mark a line bad.  Records without a ``crc``
        field (written before the field existed) are judged on shape
        alone.  The header is validated the same way :meth:`records`
        validates it — a wrong header means the file is not a store, and
        that is an error, not a repair.
        """
        with open(self.path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        # Reuse records()'s header validation by parsing just line 1.
        try:
            header = json.loads(lines[0]) if lines else None
        except json.JSONDecodeError as err:
            raise ReproError(
                f"{self.path}: store header is not valid JSON: {err}"
            ) from err
        if not isinstance(header, dict) or header.get("format") != _FORMAT:
            raise ReproError(f"{self.path}: not a {_FORMAT} document")
        if header.get("version") != _VERSION:
            raise ReproError(
                f"{self.path}: unsupported store version "
                f"{header.get('version')!r}; expected {_VERSION}"
            )
        good: list[str] = []
        bad: list[tuple[int, str, str]] = []
        for i, line in enumerate(lines[1:], start=2):
            reason = None
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record, reason = None, "invalid JSON"
            if reason is None and (
                not isinstance(record, dict)
                or any(k not in record for k in _CRC_KEYS)
            ):
                reason = "missing record keys"
            if (
                reason is None
                and "crc" in record
                and record["crc"] != record_crc(record)
            ):
                reason = (
                    f"crc mismatch (stored {record['crc']}, "
                    f"computed {record_crc(record)})"
                )
            if reason is None:
                good.append(line)
            else:
                bad.append((i, line, reason))
        return good, bad

    def verify(self) -> dict:
        """Check every record line, returning a corruption report.

        Returns ``{"records": n_good, "bad": [{"line": i, "reason":
        …}, …], "ok": bool}``.  Unlike :meth:`records` this never raises
        on record-level corruption (only on a broken header) — it exists
        to *diagnose* stores that ``records()`` refuses to read, e.g.
        after a disk error or a torn concurrent write.  A torn tail
        shows up here as one bad final line; :meth:`repair` turns that
        back into a store ``--resume`` accepts.
        """
        good, bad = self._classify_lines()
        return {
            "path": str(self.path),
            "records": len(good),
            "bad": [
                {"line": lineno, "reason": reason}
                for lineno, _line, reason in bad
            ],
            "ok": not bad,
        }

    def repair(self) -> dict:
        """Drop corrupt record lines, preserving them in a ``.bad`` sidecar.

        Atomically rewrites the store (header + good lines) via a temp
        file and :func:`os.replace`; the dropped raw lines are appended
        to ``<path>.bad`` so nothing is destroyed — a partially
        recoverable record can still be salvaged by hand.  Returns the
        :meth:`verify`-style report plus ``"dropped"`` and
        ``"bad_file"`` keys.  A clean store is left untouched.
        """
        good, bad = self._classify_lines()
        report = {
            "path": str(self.path),
            "records": len(good),
            "bad": [
                {"line": lineno, "reason": reason}
                for lineno, _line, reason in bad
            ],
            "ok": True,
            "dropped": len(bad),
            "bad_file": None,
        }
        if not bad:
            return report
        bad_path = self.path.with_name(self.path.name + ".bad")
        with open(bad_path, "a", encoding="utf-8") as fh:
            for lineno, line, reason in bad:
                fh.write(line + "\n")
        header = json.dumps({"format": _FORMAT, "version": _VERSION})
        tmp = self.path.with_name(f".{self.path.name}.{os.getpid()}.tmp")
        tmp.write_text(
            "\n".join([header, *good]) + "\n", encoding="utf-8"
        )
        os.replace(tmp, self.path)
        report["bad_file"] = str(bad_path)
        return report

    def count_records(self) -> int:
        """A cheap record count: complete lines minus the header.

        Counts newline-terminated lines without parsing any JSON — the
        poll a live ``campaign watch`` issues every tick against a store
        another process is appending to.  A torn tail line (no newline
        yet) is naturally excluded, matching what :meth:`records`
        yields; the count trusts the header without validating it, so
        a non-store file reports its line count, not an error.
        """
        if not self.path.exists():
            return 0
        with open(self.path, "rb") as fh:
            data = fh.read()
        return max(0, data.count(b"\n") - 1)

    def hashes(self) -> set[str]:
        """The scenario hashes already stored (the resume skip-set)."""
        return {record["hash"] for record in self.records()}

    def reports(self) -> dict[str, SimReport]:
        """hash → :class:`SimReport` for every stored record."""
        return {
            record["hash"]: SimReport.from_dict(record["report"])
            for record in self.records()
        }

    def scenario_specs(self) -> dict[str, "ScenarioSpec"]:
        """hash → :class:`~repro.spec.scenario.ScenarioSpec` per record.

        Parses each stored scenario wire dict back into its typed spec —
        the inspection path for tooling that wants to re-resolve or
        re-run stored scenarios.
        """
        from repro.spec.scenario import ScenarioSpec

        return {
            record["hash"]: ScenarioSpec.from_spec(record["scenario"])
            for record in self.records()
        }

    def __len__(self) -> int:
        return sum(1 for _ in self.records())

    def __contains__(self, digest: str) -> bool:
        return digest in self.hashes()

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r})"
