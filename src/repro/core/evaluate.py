"""The (accuracy, acceptability, overhead) evaluation triplet (§III-C).

*Accuracy* — the repaired program passes the detector.
*Acceptability* — observable behaviour matches the developer-repaired
reference (the paper validates semantics against test benchmarks composed of
developer-repaired code; we compare the full observable trace: stdout).
*Overhead* — virtual seconds and tokens consumed producing the repair.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..miri import detect_case


@dataclass(frozen=True)
class Triplet:
    accuracy: bool
    acceptability: bool | None   # None when accuracy is False
    seconds: float
    tokens: int

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "acceptability": self.acceptability,
            "seconds": round(self.seconds, 2),
            "tokens": self.tokens,
        }


def observable_trace(source: str) -> tuple[bool, list[str]]:
    """(passed, stdout) of a program under the detector.

    Asked through :func:`~repro.miri.detect_case`, so a reference already
    scored for another arm or seed is not re-interpreted.
    """
    report = detect_case(source)
    return report.passed, report.stdout


def semantically_acceptable(repaired_source: str,
                            reference_source: str) -> bool:
    """Exec-metric check: repaired output must match the developer fix."""
    repaired_passed, repaired_stdout = observable_trace(repaired_source)
    reference_passed, reference_stdout = observable_trace(reference_source)
    if not (repaired_passed and reference_passed):
        return False
    return repaired_stdout == reference_stdout


def evaluate_repair(repaired_source: str | None, reference_source: str,
                    seconds: float, tokens: int) -> Triplet:
    """Assemble the full triplet for a finished repair attempt."""
    if repaired_source is None:
        return Triplet(False, None, seconds, tokens)
    if not observable_trace(repaired_source)[0]:
        return Triplet(False, None, seconds, tokens)
    # The repaired trace above is a memo hit here — one interpretation.
    acceptable = semantically_acceptable(repaired_source, reference_source)
    return Triplet(True, acceptable, seconds, tokens)
