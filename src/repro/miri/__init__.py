"""Miri-equivalent UB detector for the mini-Rust subset.

The reference entry point is :func:`detect_ub`, which interprets on every
call:

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

:func:`detect_case` is the memoized entry point every engine-side
question goes through — F1 detection, ``switch`` routing, per-step S2
verification, candidate checks and exec-metric scoring.  It answers a
repeat of the same text and options from the process-wide
:data:`CASE_MEMO`, so ensemble members, rollback revisits and campaign
arms asking the same question share one interpretation, with the same
report :func:`detect_ub` would give.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from ..lang import ast_nodes as ast
from ..lang.lexer import LexError
from ..lang.parser import ParseError, _parse_program_cached
from ..lang.span import DUMMY_SPAN
from .errors import MiriError, MiriReport, UbKind, PAPER_CATEGORIES
from .fingerprint import FINGERPRINT_VERSION, source_fingerprint
from .interp import DEFAULT_FUEL, Interpreter, run_program


@dataclass
class DetectorStats:
    """Process-wide detector accounting (see :data:`DETECTOR_STATS`).

    ``requests`` counts verification *questions* (one per source handed to
    :func:`detect_ub` or :func:`detect_case`); ``runs`` counts actual
    interpreter executions; ``case_memo_hits`` counts the requests
    :data:`CASE_MEMO` answered.  Memo hits make ``runs < requests``; the
    gap is the amortization ``BENCH_ensemble.json`` gates on.

    Counters are lock-guarded: every bump goes through :meth:`record`, so
    concurrent detector calls (ensemble member waves, the repair
    service's worker threads) never lose increments, and
    :meth:`snapshot` returns an internally consistent view — the
    service's ``/stats`` endpoint and the benchmark harnesses read
    through it instead of racing the raw attributes.
    """

    requests: int = 0
    runs: int = 0
    case_memo_hits: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def record(self, *, requests: int = 0, runs: int = 0,
               case_memo_hits: int = 0) -> None:
        """Atomically add to any subset of the counters."""
        with self._lock:
            self.requests += requests
            self.runs += runs
            self.case_memo_hits += case_memo_hits

    def snapshot(self) -> dict:
        """An internally consistent copy of every counter."""
        with self._lock:
            return {
                "requests": self.requests,
                "runs": self.runs,
                "case_memo_hits": self.case_memo_hits,
            }

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.runs = 0
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
            span = err.span if isinstance(err, LexError) else DUMMY_SPAN
            report = MiriReport()
            report.errors.append(MiriError(
                UbKind.COMPILE, f"lex error: {err}", span))
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


class CaseMemo:
    """Process-wide report memo behind :func:`detect_case`.

    Keys are the exact source text plus the detector options, so a hit
    replays a report whose spans and messages match the caller's source
    byte for byte — safe even for consumers (AST pruning, feature
    extraction, prompt rendering) that anchor on error locations.
    Thread-safe, and bounded: past ``limit`` entries the least recently
    used one is evicted.  Benchmarks that publish run counts clear it
    wholesale.
    """

    def __init__(self, limit: int = 2048):
        self.limit = limit
        self._entries: OrderedDict[tuple, MiriReport] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """Lock-guarded view of the memo's state (the ``/stats`` payload):
        current entry count and capacity."""
        with self._lock:
            return {"entries": len(self._entries), "limit": self.limit}

    def lookup(self, key: tuple) -> MiriReport | None:
        with self._lock:
            report = self._entries.get(key)
            if report is not None:
                self._entries.move_to_end(key)
            return report

    def store(self, key: tuple, report: MiriReport) -> None:
        with self._lock:
            self._entries[key] = report
            self._entries.move_to_end(key)
            while len(self._entries) > self.limit:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: The process-wide report memo :func:`detect_case` consults.
CASE_MEMO = CaseMemo()


def detect_case(source: str, *, collect: bool = False, max_errors: int = 8,
                fuel: int = DEFAULT_FUEL) -> MiriReport:
    """:func:`detect_ub` for engine-side questions, memoized process-wide.

    Engines ask the same question about the same text constantly: N
    ensemble members run F1 on one case source, ``switch`` probes it
    again to route, S2 re-verifies candidates that converge on one
    program, and campaigns repeat all of it per (arm, seed).  Repeats
    are answered from :data:`CASE_MEMO` (exact-text keys, so spans and
    messages always match the caller's source), and every caller gets a
    defensive copy it owns.  Equal to :func:`detect_ub` by construction;
    only interpreter runs drop (``DETECTOR_STATS.case_memo_hits`` counts
    the savings).
    """
    DETECTOR_STATS.record(requests=1)
    key = (source, collect, max_errors, fuel)
    report = CASE_MEMO.lookup(key)
    if report is None:
        report = _detect(source, collect, max_errors, fuel)
        CASE_MEMO.store(key, report.copy())
        return report
    DETECTOR_STATS.record(case_memo_hits=1)
    return report.copy()


def error_count(source: str | ast.Program, **kwargs) -> int:
    """Number of distinct errors in collection mode (RustBrain's ``n_i``)."""
    kwargs.setdefault("collect", True)
    return detect_ub(source, **kwargs).error_count


__all__ = [
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
    "error_count",
    "run_program",
    "source_fingerprint",
]
