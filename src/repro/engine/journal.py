"""Crash-safe campaign journal: append-only, fsync'd, resumable.

A :class:`CampaignJournal` makes a long campaign survivable: every
completed ``(arm, case)`` result is appended to ``campaign.journal`` as
one JSON line — written with a single ``write`` and ``fsync``'d before
the campaign moves on — so a SIGKILL at any instant loses at most the
case that was mid-flight.  ``repro campaign --resume <dir>`` replays the
journal and re-executes only the missing cases; because every case is a
pure function of ``(spec, model, seed, index)``, the resumed
``campaign.json`` is byte-identical to an uninterrupted run's (provided
both run without a result cache, whose hit/miss telemetry counts
necessarily differ once a partial run has warmed it).

File format (schema ``repro.journal/1``) — JSON Lines:

* line 1, the header::

    {"schema": "repro.journal/1", "fingerprint": "<sha256>"}

  The fingerprint digests everything that determines case outcomes —
  engine specs, model, seed, temperature, isolation, the cache epoch,
  and the dataset fingerprint — but *not* worker count, shard size, or
  ``executor``: a campaign may legitimately resume at a different
  parallelism.  A mismatch refuses to resume rather than silently
  replaying results from a different experiment.

* every further line, one completed result::

    {"kind": "case" | "arm", "key": "<cache key>", "arm": "<label>",
     "index": <int>, "reports": [<RepairReport.to_dict()>, ...]}

  ``key`` is the existing :func:`~repro.engine.cache.case_key` /
  :func:`~repro.engine.cache.arm_key` digest, so journal identity and
  cache identity can never drift apart.

Durability over the crash window is handled on load: a process killed
mid-append leaves a torn final line, which is tolerated (that case simply
re-executes); torn or corrupt lines anywhere *else* mean the file was
damaged by something other than a crash-in-append and raise
:class:`JournalError`.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading

from .types import RepairReport

JOURNAL_SCHEMA = "repro.journal/1"

JOURNAL_FILENAME = "campaign.journal"


class JournalError(ValueError):
    """The journal file is unusable: wrong schema, wrong fingerprint, or
    corruption that cannot be explained by a crash mid-append."""


class CampaignJournal:
    """Append-only store of completed campaign results, keyed by cache keys.

    Thread-safe for appends (observers may append concurrently, and
    retry events arrive on whichever thread retried); loading happens
    once, in :meth:`open`, before any worker starts.
    """

    def __init__(self, root: str | os.PathLike,
                 filename: str = JOURNAL_FILENAME):
        self.root = pathlib.Path(root)
        self.path = self.root / filename
        self._entries: dict[str, list[RepairReport]] = {}
        self._fd: int | None = None
        self._lock = threading.Lock()
        #: Entries served to a run from a pre-existing journal.
        self.replayed = 0
        #: Entries written by the current run.
        self.appended = 0
        #: Torn trailing lines discarded on load (0 or 1).
        self.skipped_torn = 0

    # -- lifecycle ---------------------------------------------------------

    def open(self, fingerprint: str) -> int:
        """Load (or create) the journal for a campaign with ``fingerprint``.

        Returns the number of entries loaded.  Idempotent: a second call
        on an already-open journal revalidates the fingerprint only.
        """
        if self._fd is not None:
            if fingerprint != self._fingerprint:
                raise JournalError(
                    f"journal {self.path} belongs to a different campaign "
                    f"configuration (fingerprint mismatch)")
            return len(self._entries)
        self.root.mkdir(parents=True, exist_ok=True)
        created = not self.path.exists()
        if not created:
            self._load(fingerprint)
        self._fd = os.open(self.path,
                           os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        self._fingerprint = fingerprint
        if created:
            header = json.dumps({"schema": JOURNAL_SCHEMA,
                                 "fingerprint": fingerprint},
                                sort_keys=True)
            self._write_line(header)
            self._fsync_dir()
        return len(self._entries)

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def _load(self, fingerprint: str) -> None:
        raw = self.path.read_bytes()
        lines = raw.decode("utf-8", errors="replace").split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if not lines:
            raise JournalError(f"journal {self.path} is empty")
        try:
            header = json.loads(lines[0])
        except ValueError as err:
            raise JournalError(
                f"journal {self.path} has an unreadable header") from err
        if not isinstance(header, dict) \
                or header.get("schema") != JOURNAL_SCHEMA:
            raise JournalError(
                f"journal {self.path} is not a {JOURNAL_SCHEMA} file")
        if header.get("fingerprint") != fingerprint:
            raise JournalError(
                f"journal {self.path} belongs to a different campaign "
                f"configuration (fingerprint mismatch)")
        for position, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
                key = record["key"]
                reports = [RepairReport.from_dict(entry)
                           for entry in record["reports"]]
            except (ValueError, KeyError, TypeError) as err:
                if position == len(lines):
                    # A crash between write and fsync can tear the final
                    # line; that case simply re-executes.
                    self.skipped_torn += 1
                    break
                raise JournalError(
                    f"journal {self.path} line {position} is corrupt "
                    f"(not a torn tail — refusing to resume)") from err
            self._entries[key] = reports

    # -- access ------------------------------------------------------------

    def get(self, key: str) -> list[RepairReport] | None:
        """The journaled reports for ``key``, or ``None``.  Counts a
        replay on hit (appends by the current run do not re-count)."""
        reports = self._entries.get(key)
        if reports is None:
            return None
        self.replayed += 1
        return list(reports)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def append(self, key: str, reports: list[RepairReport], *,
               kind: str = "case", arm: str = "",
               index: int | None = None) -> None:
        """Durably record one completed result.

        The record is serialized to one line, written with a single
        ``os.write``, and ``fsync``'d before returning — after this call
        a SIGKILL cannot lose the entry.  Duplicate keys are ignored, so
        replays never double-write.
        """
        if self._fd is None:
            raise JournalError("journal is not open")
        line = json.dumps(
            {"kind": kind, "key": key, "arm": arm, "index": index,
             "reports": [report.to_dict() for report in reports]},
            sort_keys=True)
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = list(reports)
            self.appended += 1
        self._write_line(line)

    # -- plumbing ----------------------------------------------------------

    def _write_line(self, line: str) -> None:
        data = (line + "\n").encode("utf-8")
        with self._lock:
            if self._fd is None:
                raise JournalError("journal is not open")
            os.write(self._fd, data)
            os.fsync(self._fd)

    def _fsync_dir(self) -> None:
        # Make the journal's *creation* durable too, not just its bytes.
        try:
            dir_fd = os.open(self.root, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)
