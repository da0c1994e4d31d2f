"""Measurement helpers: percentiles, peak memory, and cold starts."""

from __future__ import annotations

import math
import resource
import sys

#: Memos that belong to set-up: the corpus loaders and the knowledge-base
#: build that ``Campaign()`` construction pays for.  Timed runs keep them.
SETUP_MEMOS = frozenset({
    "repro.corpus.dataset.load_dataset",
    "repro.corpus.dataset.load_compile_dataset",
    "repro.core.knowledge._default_entries",
})


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``.

    The result is always one of the samples; with ``n`` samples exactly
    ``n - ceil(q * n / 100)`` samples lie beyond it.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = math.ceil(q * len(ordered) / 100)
    return ordered[max(rank, 1) - 1]


def share(part: float, whole: float) -> float:
    """``part / whole``, or 0 when there is no ``whole``."""
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _lru_memos():
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                seen[id(value)] = value
    return seen.values()


def reset_memos(*, setup: bool = False) -> None:
    """Empty the program's process-wide memos and detector counters.

    Every ``lru_cache`` in a ``repro`` module is cleared, so a memo a
    later version adds cannot warm a timed run unnoticed; the set-up
    memos are cleared only when ``setup`` is true.  The non-lru memos are
    cleared by name when this version of the program has them.
    """
    for memo in _lru_memos():
        qualified = f"{memo.__module__}.{memo.__qualname__}"
        if setup or qualified not in SETUP_MEMOS:
            memo.cache_clear()
    miri = sys.modules.get("repro.miri")
    case_memo = getattr(miri, "CASE_MEMO", None)
    if case_memo is not None:
        case_memo.clear()
    clear_trace_memo = getattr(sys.modules.get("repro.core.evaluate"),
                               "clear_trace_memo", None)
    if clear_trace_memo is not None:
        clear_trace_memo()
    stats = getattr(miri, "DETECTOR_STATS", None)
    if stats is not None:
        stats.reset()
