"""Detector accounting: run_program parity, stats, exec-metric scoring."""

import pytest

from repro.miri import DETECTOR_STATS, DetectorStats, detect_ub, run_program
from repro.lang.parser import parse_program

BUGGY = """
fn main() {
    let b = Box::new(7);
    let p = Box::into_raw(b);
    unsafe { drop(Box::from_raw(p)); }
    let v = unsafe { *p };
}
"""

CLEAN = """
fn main() {
    let x = 41;
    println!("{}", x + 1);
}
"""

PANICKY = """
fn main() {
    let v: Vec<i64> = Vec::new();
    let x = v[3];
}
"""


def _verdict(report):
    return (report.passed, [(e.kind, e.message) for e in report.errors],
            list(report.stdout))


class TestRunProgram:
    def test_matches_detect_ub(self):
        program = parse_program(PANICKY)
        assert _verdict(run_program(program)) == _verdict(detect_ub(PANICKY))


class TestDetectorStats:
    def test_record_snapshot_reset(self):
        stats = DetectorStats()
        stats.record(requests=3, runs=2)
        stats.record(case_memo_hits=1)
        assert stats.snapshot() == {"requests": 3, "runs": 2,
                                    "case_memo_hits": 1}
        stats.reset()
        assert set(stats.snapshot().values()) == {0}

    def test_shared_tree_still_counts_every_run(self):
        # A parse-memo hit saves the parse, never the interpretation.
        source = 'fn main() { let probe = 515151i64; println!("{}", probe); }'
        before = DETECTOR_STATS.snapshot()
        detect_ub(source)
        detect_ub(source)
        after = DETECTOR_STATS.snapshot()
        assert after["requests"] - before["requests"] == 2
        assert after["runs"] - before["runs"] == 2

    def test_parse_failure_is_a_request_not_a_run(self):
        before = DETECTOR_STATS.snapshot()
        report = detect_ub("fn main( {")
        after = DETECTOR_STATS.snapshot()
        assert report.errors[0].kind.value == "compile"
        assert after["requests"] - before["requests"] == 1
        assert after["runs"] == before["runs"]


class TestSemanticScoringMemo:
    def test_repeated_reference_interprets_once(self):
        from repro.core.evaluate import semantically_acceptable
        # Warm the process-wide memo first so the counting below is exact
        # regardless of what earlier tests scored.
        semantically_acceptable(CLEAN, CLEAN)
        DETECTOR_STATS.reset()
        assert semantically_acceptable(CLEAN, CLEAN)
        assert DETECTOR_STATS.requests == 2
        assert DETECTOR_STATS.runs == 0

    def test_acceptability_unchanged(self):
        from repro.core.evaluate import semantically_acceptable
        assert semantically_acceptable(CLEAN, CLEAN)
        assert not semantically_acceptable(BUGGY, CLEAN)
        assert not semantically_acceptable(PANICKY, CLEAN)
