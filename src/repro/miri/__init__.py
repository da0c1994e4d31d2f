"""Miri-equivalent UB detector for the mini-Rust subset.

The public entry point is :func:`detect_ub`:

>>> from repro.miri import detect_ub
>>> report = detect_ub('''
... fn main() {
...     let b = Box::new(7);
...     let p = Box::into_raw(b);
...     unsafe { drop(Box::from_raw(p)); }
...     let v = unsafe { *p };
... }
... ''')
>>> report.passed
False
>>> report.errors[0].kind.value
'dangling_pointer'

:func:`detect_ub_batch` verifies many candidate sources in one call:
parsing rides the :func:`~repro.lang.parser.parse_program` memo,
textually identical sources are interpreted **once**, and (with
``fingerprint=True``, the default) so are sources that normalize to the
same :func:`~repro.miri.fingerprint.source_fingerprint` — formatting- or
identifier-divergent spellings of one program.  Candidate repair
solutions converge on identical programs constantly (shared leading
rules, rollback revisits, members proposing the same fix), so batching
the verification step cuts real interpreter executions without changing
a single verdict.  :class:`BatchVerifier` extends that dedup across
successive calls within one repair, which is how RustBrain's S2 stage
and the exec-metric scorer amortize their detector runs, and
:func:`detect_case` shares *case-level* detection (F1, ensemble routing)
process-wide, so N ensemble members consulting the same case source pay
for one interpretation between them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..lang import ast_nodes as ast
from ..lang.parser import ParseError, _parse_program_cached
from .errors import MiriError, MiriReport, UbKind, PAPER_CATEGORIES
from .fingerprint import FINGERPRINT_VERSION, source_fingerprint
from .interp import DEFAULT_FUEL, Interpreter, run_program


@dataclass
class DetectorStats:
    """Process-wide detector accounting (see :data:`DETECTOR_STATS`).

    ``requests`` counts verification *questions* (one per source handed to
    :func:`detect_ub`, :func:`detect_ub_batch`, or :func:`detect_case`);
    ``runs`` counts actual interpreter executions.  Batching makes
    ``runs < requests``; the gap is the amortization
    ``BENCH_ensemble.json`` gates on.  ``fingerprint_hits`` counts the
    requests answered through normalized-fingerprint dedup specifically
    (a strict subset of the gap — exact-text dedup and the memos account
    for the rest), and ``case_memo_hits`` the requests answered by the
    process-wide :data:`CASE_MEMO`.

    Counters are lock-guarded: every bump goes through :meth:`record`, so
    concurrent detector calls (ensemble member waves, the repair
    service's worker threads) never lose increments, and
    :meth:`snapshot` returns an internally consistent view — the
    service's ``/stats`` endpoint and the benchmark harnesses read
    through it instead of racing the raw attributes.
    """

    requests: int = 0
    runs: int = 0
    fingerprint_hits: int = 0
    case_memo_hits: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, *, requests: int = 0, runs: int = 0,
               fingerprint_hits: int = 0, case_memo_hits: int = 0) -> None:
        """Atomically add to any subset of the counters."""
        with self._lock:
            self.requests += requests
            self.runs += runs
            self.fingerprint_hits += fingerprint_hits
            self.case_memo_hits += case_memo_hits

    def snapshot(self) -> dict:
        """An internally consistent copy of every counter."""
        with self._lock:
            return {
                "requests": self.requests,
                "runs": self.runs,
                "fingerprint_hits": self.fingerprint_hits,
                "case_memo_hits": self.case_memo_hits,
            }

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.runs = 0
            self.fingerprint_hits = 0
            self.case_memo_hits = 0


#: The process-wide counter instance every detector call updates.
DETECTOR_STATS = DetectorStats()


def _detect(source: str | ast.Program, collect: bool, max_errors: int,
            fuel: int, debug: bool = False) -> MiriReport:
    """One detector execution (parse if needed, then interpret).

    String sources run on the parse memo's own tree, uncloned: the
    interpreter never writes to the AST, so every detector call (and
    every service worker thread) can share one tree per distinct source,
    and a memo hit costs neither a parse nor a clone.
    """
    if isinstance(source, str):
        try:
            program = _parse_program_cached(source)
        except ParseError as err:
            report = MiriReport()
            report.errors.append(MiriError(
                UbKind.COMPILE, f"parse error: {err}", err.span))
            return report
        except Exception as err:  # lexer errors and friends
            report = MiriReport()
            report.errors.append(MiriError(
                UbKind.COMPILE, f"lex error: {err}"))
            return report
    else:
        program = source
    DETECTOR_STATS.record(runs=1)
    return run_program(program, collect=collect, max_errors=max_errors,
                       fuel=fuel, debug=debug)


def detect_ub(source: str | ast.Program, *, collect: bool = False,
              max_errors: int = 8, fuel: int = DEFAULT_FUEL,
              debug: bool = False) -> MiriReport:
    """Run the detector over ``source`` (text or already-parsed program).

    ``collect=True`` enables error-collection mode: instead of stopping at the
    first UB (Miri's behaviour, and the default), the interpreter records the
    error, skips the offending statement, and keeps going — this is what gives
    RustBrain's rollback mechanism a meaningful per-iteration error *count*
    (the ``n_i`` sequences of §III-B2).
    """
    DETECTOR_STATS.record(requests=1)
    return _detect(source, collect, max_errors, fuel, debug)


def detect_ub_batch(sources, *, collect: bool = False, max_errors: int = 8,
                    fuel: int = DEFAULT_FUEL, debug: bool = False,
                    fingerprint: bool = True) -> list[MiriReport]:
    """Run the detector over many candidate sources in one call.

    Returns one :class:`~repro.miri.errors.MiriReport` per source, in
    input order.  String sources deduplicate at two levels: textually
    identical inputs always share one interpretation, and with
    ``fingerprint=True`` (the default) so do inputs whose
    :func:`~repro.miri.fingerprint.source_fingerprint` matches —
    formatting- or identifier-divergent spellings of one program
    (``DETECTOR_STATS.fingerprint_hits`` counts those specifically).

    **Aliasing:** each *duplicate* position receives a defensive
    :meth:`~repro.miri.errors.MiriReport.copy` of the first occurrence's
    report, so mutating one returned report never corrupts another —
    only the frozen error entries are shared.  Verdicts, error counts,
    and stdout of a fingerprint-deduplicated report are byte-identical
    to a fresh run; its error *messages* and spans may spell the first
    variant's identifiers and positions (the normalization erases
    exactly that).  Parsed ``ast.Program`` inputs are never
    deduplicated (node identity is part of their meaning).
    """
    memo: dict[str, MiriReport] = {}
    fp_memo: dict[str, MiriReport] = {}
    reports: list[MiriReport] = []
    for source in sources:
        DETECTOR_STATS.record(requests=1)
        if not isinstance(source, str):
            reports.append(_detect(source, collect, max_errors, fuel, debug))
            continue
        report = memo.get(source)
        if report is not None:
            reports.append(report.copy())
            continue
        fp = source_fingerprint(source) if fingerprint else None
        if fp is not None and fp in fp_memo:
            DETECTOR_STATS.record(fingerprint_hits=1)
            report = fp_memo[fp]
            memo[source] = report
            reports.append(report.copy())
            continue
        report = _detect(source, collect, max_errors, fuel, debug)
        memo[source] = report
        if fp is not None:
            fp_memo[fp] = report
        reports.append(report)
    return reports


class CaseMemo:
    """Process-wide memo for *case-level* detection (see :func:`detect_case`).

    Keys are the exact source text plus the detector options, so a hit
    replays a report whose spans and messages match the caller's source
    byte for byte — safe even for consumers (AST pruning, feature
    extraction) that anchor on error locations.  Bounded, thread-safe,
    and cleared wholesale by benchmarks that publish run counts.
    """

    def __init__(self, limit: int = 2048):
        self.limit = limit
        #: Master switch — benchmarks flip it off to reproduce the
        #: memo-free (PR-4) execution profile for A/B run counts.
        self.enabled = True
        self._entries: dict[tuple, MiriReport] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """Lock-guarded view of the memo's state (the ``/stats`` payload):
        current entry count, capacity, and the master switch."""
        with self._lock:
            return {"entries": len(self._entries), "limit": self.limit,
                    "enabled": self.enabled}

    def lookup(self, key: tuple) -> MiriReport | None:
        with self._lock:
            return self._entries.get(key)

    def store(self, key: tuple, report: MiriReport) -> None:
        with self._lock:
            if len(self._entries) < self.limit:
                self._entries[key] = report

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: The process-wide case-detection memo :func:`detect_case` consults.
CASE_MEMO = CaseMemo()


def detect_case(source: str, *, collect: bool = False, max_errors: int = 8,
                fuel: int = DEFAULT_FUEL) -> MiriReport:
    """Detection for *case-level* queries, memoized process-wide.

    Engines run F1 detection — and ``switch`` ensembles their routing
    probe — on the raw case source; under an ensemble, N members ask the
    identical question about the identical text, and campaigns repeat it
    per (arm, seed).  This entry point answers repeats from
    :data:`CASE_MEMO` (exact-text keys, so spans and messages always
    match the caller's source) and returns a defensive copy, so every
    caller owns its report.  Byte-identical to :func:`detect_ub` by
    construction; only wall-clock interpreter runs drop
    (``DETECTOR_STATS.case_memo_hits`` counts the savings).
    """
    DETECTOR_STATS.record(requests=1)
    if not CASE_MEMO.enabled:
        return _detect(source, collect, max_errors, fuel)
    key = (source, collect, max_errors, fuel)
    report = CASE_MEMO.lookup(key)
    if report is None:
        report = _detect(source, collect, max_errors, fuel)
        CASE_MEMO.store(key, report.copy())
        return report
    DETECTOR_STATS.record(case_memo_hits=1)
    return report.copy()


class BatchVerifier:
    """Read-through verification memo over :func:`detect_ub_batch`.

    One verifier spans one repair: S2 re-verifies a candidate program after
    every executed step, and candidates frequently coincide across the
    repair's solutions and rounds (solutions sharing leading rules produce
    identical intermediate programs; later rounds revisit earlier rewrites).
    The memo answers repeats without re-interpreting — verdicts stay
    byte-identical (reports are never mutated downstream) and the virtual
    clock still charges every verification (it models a sequential real
    run), so only wall-clock work drops.  With ``fingerprint=True`` (the
    default) the memo additionally matches *normalized* duplicates via
    :func:`~repro.miri.fingerprint.source_fingerprint` — e.g. a rewrite
    chain that arrives back at the original program re-verifies for free
    even though the canonical print spells it differently than the raw
    input.  ``requests``/``runs`` mirror :class:`DetectorStats` at
    per-repair scope; ``fingerprint_hits`` counts the normalized matches.
    """

    def __init__(self, *, collect: bool = True, max_errors: int = 8,
                 fuel: int = DEFAULT_FUEL, fingerprint: bool = True):
        self.collect = collect
        self.max_errors = max_errors
        self.fuel = fuel
        self.fingerprint = fingerprint
        self.requests = 0
        self.runs = 0
        self.fingerprint_hits = 0
        self._memo: dict[str, MiriReport] = {}
        self._fp_memo: dict[str, MiriReport] = {}

    def _lookup(self, source: str) -> MiriReport | None:
        report = self._memo.get(source)
        if report is not None:
            return report
        if self.fingerprint:
            report = self._fp_memo.get(source_fingerprint(source))
            if report is not None:
                DETECTOR_STATS.record(fingerprint_hits=1)
                self.fingerprint_hits += 1
                self._memo[source] = report
                return report
        return None

    def _store(self, source: str, report: MiriReport) -> None:
        self._memo[source] = report
        if self.fingerprint:
            self._fp_memo.setdefault(source_fingerprint(source), report)

    def seed(self, source: str, report: MiriReport) -> None:
        """Pre-load a report obtained elsewhere (e.g. the F1 detection
        answered by :func:`detect_case`), so later verifications of the
        same program — under any spelling, when fingerprinting — replay
        it without another interpreter run."""
        self._store(source, report)

    def _batch_size(self, sources: list[str]) -> int:
        """How many of ``sources`` one batch actually executes: the
        fingerprint-distinct count when fingerprinting, else all of
        them.  Computed locally — a global-counter delta would absorb
        runs from concurrently-consulting ensemble members."""
        if not self.fingerprint:
            return len(sources)
        return len({source_fingerprint(source) for source in sources})

    def verify(self, source: str) -> MiriReport:
        """The (possibly memoized) detector report for one candidate."""
        self.requests += 1
        report = self._lookup(source)
        if report is None:
            report = detect_ub_batch([source], collect=self.collect,
                                     max_errors=self.max_errors,
                                     fuel=self.fuel, fingerprint=False)[0]
            self._store(source, report)
            self.runs += 1
        else:
            # Memo answers are still verification requests; only ``runs``
            # shrinks under batching.
            DETECTOR_STATS.record(requests=1)
        return report

    def verify_batch(self, sources: list[str]) -> list[MiriReport]:
        """Reports for many candidates; unseen distinct sources run in one
        :func:`detect_ub_batch` call."""
        self.requests += len(sources)
        missing = [source for source in dict.fromkeys(sources)
                   if self._lookup(source) is None]
        if missing:
            for source, report in zip(
                    missing,
                    detect_ub_batch(missing, collect=self.collect,
                                    max_errors=self.max_errors,
                                    fuel=self.fuel,
                                    fingerprint=self.fingerprint)):
                self._store(source, report)
            self.runs += self._batch_size(missing)
        DETECTOR_STATS.record(requests=len(sources) - len(missing))
        return [self._memo[source] for source in sources]


def error_count(source: str | ast.Program, **kwargs) -> int:
    """Number of distinct errors in collection mode (RustBrain's ``n_i``)."""
    kwargs.setdefault("collect", True)
    return detect_ub(source, **kwargs).error_count


__all__ = [
    "BatchVerifier",
    "CASE_MEMO",
    "CaseMemo",
    "DEFAULT_FUEL",
    "DETECTOR_STATS",
    "DetectorStats",
    "FINGERPRINT_VERSION",
    "Interpreter",
    "MiriError",
    "MiriReport",
    "PAPER_CATEGORIES",
    "UbKind",
    "detect_case",
    "detect_ub",
    "detect_ub_batch",
    "error_count",
    "run_program",
    "source_fingerprint",
]
