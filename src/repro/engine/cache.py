"""Content-addressed on-disk result cache for campaign runs.

Every case a campaign executes is a pure function of its inputs: the engine
spec, the model, the case itself, the derived seed, and the sampling
temperature fully determine the :class:`~repro.engine.types.RepairReport`
(that invariant is what makes worker-count-invariant campaigns possible in
the first place).  The cache exploits it: a key is the SHA-256 digest of
exactly those inputs (plus the :data:`CACHE_EPOCH` engine-behaviour
version), the value is the serialized report(s), and a warm re-run of an
identical campaign performs zero engine case executions.

Two key granularities cover the two isolation modes:

* :func:`case_key` — one per-case entry for ``isolation="per_case"``, keyed
  on the *derived* per-case seed so hits survive re-sharding and different
  worker counts.
* :func:`arm_key` — one whole-arm entry for ``isolation="shared"``, where a
  case's outcome depends on the stateful engine's history and is only
  reproducible as part of the full dataset sweep (same spec, base seed, and
  dataset fingerprint).

Entries are JSON files under ``root/<key[:2]>/<key>.json``, written
atomically (temp file + ``os.replace``) so concurrent thread- or
process-pool workers can race on the same key without torn reads; both
racers write identical bytes.  A small in-memory layer makes repeated hits
within one process free.  Corrupt or schema-mismatched entries read as
misses and are recomputed, never trusted.

The disk layer is strictly best-effort: read errors (real or injected via
the ``cache:io`` fault site, :mod:`repro.engine.faults`) degrade to a
miss, write errors skip the disk copy but keep the in-memory one, and
both are counted in ``io_errors`` — a cache failure can slow a campaign
down, never crash it or change its results.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import tempfile
import threading

from .faults import maybe_inject
from .types import RepairReport

#: Bump when the key material or entry layout changes; old entries then
#: read as misses instead of being misinterpreted.
CACHE_SCHEMA = "repro.result-cache/1"

#: Engine-behaviour epoch, mixed into every cache key.  A cached report is
#: only valid while the code that produced it behaves identically, and a
#: spec string cannot see code changes — so any PR that changes what an
#: engine *does* (repair logic, oracle sampling, seed derivation, report
#: contents) must bump this number.  Old entries then read as misses and
#: are recomputed instead of silently replaying stale behaviour.  The
#: convention (see DESIGN.md "Cache hygiene") is one bump per
#: behaviour-changing PR; bumping too often only costs a cold run.
#: Epoch 4: concurrent ensemble members (member_workers= waves charge
#: max(member seconds) instead of the sum) and per-member wave summaries.
#: Epoch 5: shared ExecutorService + fingerprint-deduplicated
#: verification (detect_case memo, normalized-AST verifier dedup, new
#: fingerprint= engine flags) — outcomes are gated byte-identical, but
#: the execution profile behind every cached report changed.  Removing
#: the dedup layer and its flags later changed no report, so the epoch
#: stayed.
#: Epoch 6: an unterminated block comment is a lex error, so engines see
#: such an input as not compiling instead of dropping the comment's tail.
#: Epoch 7: the detector's COMPILE error for a lex error carries the lex
#: error's span, so its rendered report (which engines put into prompts)
#: gains a location line; and ``parent_map`` gives the values of struct
#: literal fields their literal as parent, which can change where
#: ``call_with_actual_signature`` finds the enclosing ``let``.
CACHE_EPOCH = 7

_SEP = "\x1f"  # unit separator: cannot appear in specs, names, or numbers

#: Construction-time tmp sweep spares files younger than this — an atomic
#: write completes in milliseconds, so an hour-old ``*.tmp`` is a dead
#: worker's orphan, never a live writer.  ``clear()`` sweeps regardless of
#: age (an explicit wipe of the root).
_TMP_ORPHAN_AGE_SECONDS = 3600.0


def _digest(*parts: str) -> str:
    return hashlib.sha256(_SEP.join(parts).encode("utf-8")).hexdigest()


def fingerprint_case(name: str, source: str, reference_source: str | None,
                     difficulty: int, category) -> str:
    """Digest of everything about a case that can influence its report."""
    return _digest(
        "case", name, source, reference_source or "",
        str(difficulty), category.value if category is not None else "")


def fingerprint_dataset(cases) -> str:
    """Order-sensitive digest of a whole dataset (shared-isolation sweeps
    are stateful, so case order is part of the arm's identity)."""
    return _digest("dataset", *(fingerprint_case(
        case.name, case.source, case.fixed_source, case.difficulty,
        case.category) for case in cases))


def case_key(spec: str, model: str, temperature: float, derived_seed: int,
             case_fingerprint: str) -> str:
    """Cache key for one per-case-isolation execution."""
    return _digest(CACHE_SCHEMA, str(CACHE_EPOCH), "case", spec, model,
                   f"{temperature:.6g}", str(derived_seed), case_fingerprint)


def arm_key(spec: str, model: str, temperature: float, base_seed: int,
            dataset_fingerprint: str) -> str:
    """Cache key for one shared-isolation (stateful) arm sweep."""
    return _digest(CACHE_SCHEMA, str(CACHE_EPOCH), "arm", spec, model,
                   f"{temperature:.6g}", str(base_seed), dataset_fingerprint)


class ResultCache:
    """Keyed store of repair reports with hit/miss accounting.

    Values are *lists* of reports: length one for per-case entries, the
    full dataset-ordered sweep for arm entries.

    Safe for concurrent use from multiple threads: the in-memory layer and
    the hit/miss counters are lock-guarded (the disk layer was always safe
    — atomic writes plus identical-bytes racers), and :meth:`counts` gives
    an internally consistent view for telemetry endpoints.  Disk I/O
    happens outside the lock, so a slow read never serializes other keys.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Disk I/O failures absorbed (reads degraded to misses, writes
        #: kept memory-only) — real or injected via the ``cache:io`` site.
        self.io_errors = 0
        self._lock = threading.Lock()
        #: Per-process read-through layer; disk stays the source of truth.
        self._memory: dict[str, list[RepairReport]] = {}
        # A worker killed between mkstemp and os.replace leaves a ``*.tmp``
        # orphan that nothing would ever reclaim; sweep on construction (and
        # in clear()) so they cannot accumulate across runs.  The
        # construction sweep is age-gated: a tmp file younger than the
        # threshold may be a concurrent writer mid-put, not an orphan.
        self._sweep_tmp(max_age_seconds=_TMP_ORPHAN_AGE_SECONDS)

    # -- paths -------------------------------------------------------------

    def _path(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    # -- lookup ------------------------------------------------------------

    def get(self, key: str) -> list[RepairReport] | None:
        """The cached reports for ``key``, or ``None`` on a miss."""
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self.hits += 1
                return list(cached)
        try:
            maybe_inject("cache", key=f"get|{key}")
            payload = json.loads(self._path(key).read_text(encoding="utf-8"))
            if payload.get("schema") != CACHE_SCHEMA:
                raise ValueError("cache schema mismatch")
            reports = [RepairReport.from_dict(entry)
                       for entry in payload["reports"]]
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Corrupt, incompatible schema, or a disk read error (real or
            # injected): degrade to a miss and recompute — never crash.
            with self._lock:
                self.misses += 1
                if isinstance(exc, OSError):
                    self.io_errors += 1
            return None
        with self._lock:
            self._memory[key] = list(reports)
            self.hits += 1
        return reports

    def put(self, key: str, reports: list[RepairReport]) -> None:
        """Store ``reports`` under ``key`` atomically.

        A disk write failure (real or injected) is absorbed: the entry
        stays in the in-memory layer for this process, ``io_errors`` is
        bumped, and the next cold run simply recomputes — the cache is an
        accelerator, so losing a write must never fail the work that
        produced the result.
        """
        payload = json.dumps(
            {"schema": CACHE_SCHEMA,
             "reports": [report.to_dict() for report in reports]},
            sort_keys=True)
        try:
            maybe_inject("cache", key=f"put|{key}")
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._write_atomic(path, payload)
        except OSError:
            with self._lock:
                self.io_errors += 1
        with self._lock:
            self._memory[key] = list(reports)

    def counts(self) -> dict:
        """Internally consistent ``{hits, misses, memory_entries,
        io_errors}`` view — what the service's ``/stats`` endpoint
        publishes."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "memory_entries": len(self._memory),
                    "io_errors": self.io_errors}

    def _write_atomic(self, path: pathlib.Path, payload: str) -> None:
        last_error: OSError | None = None
        for _attempt in range(2):
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
                return
            except FileNotFoundError as err:
                # A concurrent sweep (another process constructing or
                # clearing this root) unlinked our tmp between write and
                # replace; one rewrite wins either way.
                last_error = err
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        raise last_error

    # -- maintenance -------------------------------------------------------

    def _sweep_tmp(self, max_age_seconds: float = 0.0) -> None:
        """Reclaim orphaned atomic-write temp files (dead workers).

        ``max_age_seconds > 0`` spares files younger than the threshold —
        they may belong to a concurrent writer still between mkstemp and
        replace (a genuine orphan is reclaimed by any later sweep).
        """
        import time
        cutoff = time.time() - max_age_seconds
        for entry in self.root.glob("*/*.tmp"):
            with contextlib.suppress(OSError):
                if not max_age_seconds or entry.stat().st_mtime <= cutoff:
                    entry.unlink()

    def __len__(self) -> int:
        # Orphaned ``*.tmp`` files are never entries; only committed
        # ``<key>.json`` files count.
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> None:
        for entry in self.root.glob("*/*.json"):
            with contextlib.suppress(OSError):
                entry.unlink()
        self._sweep_tmp()
        with self._lock:
            self._memory.clear()
            self.hits = 0
            self.misses = 0
            self.io_errors = 0
