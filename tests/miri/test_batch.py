"""Batched detector entry point: dedup, alignment, stats, verifier memo."""

import pytest

from repro.miri import (BatchVerifier, DETECTOR_STATS, DetectorStats,
                        detect_ub, detect_ub_batch, run_program)
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


class TestDetectUbBatch:
    def test_positional_alignment_matches_detect_ub(self):
        sources = [BUGGY, CLEAN, PANICKY]
        batch = detect_ub_batch(sources)
        singles = [detect_ub(source) for source in sources]
        assert [_verdict(r) for r in batch] == \
            [_verdict(r) for r in singles]

    def test_duplicates_get_defensive_copies(self):
        # Duplicates are interpreted once but each position owns its
        # report: mutating one must never corrupt another (the aliasing
        # the PR-4 implementation documented away is gone).
        batch = detect_ub_batch([CLEAN, BUGGY, CLEAN, CLEAN])
        assert batch[0] is not batch[2] and batch[2] is not batch[3]
        assert _verdict(batch[0]) == _verdict(batch[2]) == _verdict(batch[3])
        assert batch[0].passed and not batch[1].passed
        batch[2].stdout.append("corrupted")
        batch[2].errors.append(batch[1].errors[0])
        assert "corrupted" not in batch[0].stdout
        assert batch[0].passed and batch[3].passed and not batch[3].errors

    def test_duplicates_interpret_once(self):
        DETECTOR_STATS.reset()
        detect_ub_batch([CLEAN, CLEAN, BUGGY, CLEAN])
        assert DETECTOR_STATS.requests == 4
        assert DETECTOR_STATS.runs == 2

    def test_collect_mode_respected(self):
        report = detect_ub_batch([BUGGY], collect=True)[0]
        assert report.error_count == detect_ub(BUGGY,
                                               collect=True).error_count

    def test_parse_errors_surface_per_source(self):
        batch = detect_ub_batch(["fn main( {", CLEAN])
        assert not batch[0].passed
        assert batch[1].passed

    def test_program_inputs_are_not_deduplicated(self):
        program = parse_program(CLEAN)
        batch = detect_ub_batch([program, program])
        assert batch[0] is not batch[1]
        assert batch[0].passed and batch[1].passed

    def test_empty_batch(self):
        assert detect_ub_batch([]) == []


class TestRunProgram:
    def test_matches_detect_ub(self):
        program = parse_program(PANICKY)
        assert _verdict(run_program(program)) == _verdict(detect_ub(PANICKY))


class TestBatchVerifier:
    def test_memo_answers_repeats_without_running(self):
        verifier = BatchVerifier()
        first = verifier.verify(CLEAN)
        again = verifier.verify(CLEAN)
        assert again is first
        assert verifier.requests == 2
        assert verifier.runs == 1

    def test_verdicts_match_detect_ub(self):
        verifier = BatchVerifier(collect=True)
        assert _verdict(verifier.verify(BUGGY)) == \
            _verdict(detect_ub(BUGGY, collect=True))

    def test_verify_batch_runs_distinct_sources_once(self):
        verifier = BatchVerifier()
        reports = verifier.verify_batch([CLEAN, BUGGY, CLEAN])
        assert reports[0] is reports[2]
        assert verifier.requests == 3
        assert verifier.runs == 2
        verifier.verify_batch([BUGGY, PANICKY])
        assert verifier.runs == 3

    def test_global_stats_count_memo_hits_as_requests(self):
        verifier = BatchVerifier()
        DETECTOR_STATS.reset()
        verifier.verify(CLEAN)
        verifier.verify(CLEAN)
        assert DETECTOR_STATS.requests == 2
        assert DETECTOR_STATS.runs == 1


class TestDetectorStats:
    def test_record_snapshot_reset(self):
        stats = DetectorStats()
        stats.record(requests=3, runs=2)
        stats.record(fingerprint_hits=1, case_memo_hits=1)
        assert stats.snapshot() == {"requests": 3, "runs": 2,
                                    "fingerprint_hits": 1,
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
