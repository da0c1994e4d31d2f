"""Golden and zero-false-positive tests for the static checker."""

import pytest

from repro.check import apply_suggestion, check_source
from repro.corpus import generate_sources, load_compile_dataset, load_dataset

#: Codes whose first suggestion, applied repeatedly, must converge to a
#: checks-clean program (the ``compile_fix`` engine relies on this).
SUGGESTION_REPAIRABLE = ("E0061", "E0308", "E0382", "E0384", "E0425",
                        "E0512", "E0594")

COMPILE_CASES = {case.name: case for case in load_compile_dataset()}


class TestGoldenDiagnostics:
    """Every hand-written compile case trips exactly its labelled code."""

    @pytest.mark.parametrize("name", sorted(COMPILE_CASES))
    def test_buggy_source_trips_labelled_code(self, name):
        case = COMPILE_CASES[name]
        report = check_source(case.source)
        assert not report.ok
        assert case.expected_code in report.codes()

    @pytest.mark.parametrize("name", sorted(COMPILE_CASES))
    def test_fixed_source_checks_clean(self, name):
        case = COMPILE_CASES[name]
        report = check_source(case.fixed_source)
        assert report.ok, report.render()

    def test_every_error_code_family_covered(self):
        covered = {case.expected_code for case in COMPILE_CASES.values()}
        from repro.check import ERROR_CODES
        assert covered == set(ERROR_CODES)


class TestSpans:
    def test_unknown_value_span_points_at_the_typo(self):
        case = COMPILE_CASES["compile_unknown_value"]
        diag = check_source(case.source).diagnostics[0]
        assert diag.code == "E0425"
        start, end = diag.span.start, diag.span.end
        assert case.source[start:end] == "cuont"
        assert (diag.span.line, diag.span.col) == (3, 17)

    def test_immutable_reassign_span_covers_the_assignment_target(self):
        case = COMPILE_CASES["compile_immutable_reassign"]
        diag = check_source(case.source).diagnostics[0]
        assert diag.code == "E0384"
        assert case.source[diag.span.start:diag.span.end] == "x"
        assert diag.span.line == 3

    def test_syntax_error_span_lands_on_line_one(self):
        case = COMPILE_CASES["compile_syntax_unclosed"]
        diag = check_source(case.source).diagnostics[0]
        assert diag.code == "E0001"
        assert diag.span.line == 1

    def test_unterminated_block_comment_is_a_syntax_error(self):
        report = check_source("fn main() { let x = 1; } /* never closed")
        [diag] = report.diagnostics
        assert diag.code == "E0001"
        assert "unterminated block comment" in diag.message
        assert (diag.span.line, diag.span.col) == (1, 26)


class TestSuggestionConvergence:
    @pytest.mark.parametrize("code", SUGGESTION_REPAIRABLE)
    def test_first_suggestion_loop_reaches_clean(self, code):
        case = next(c for c in COMPILE_CASES.values()
                    if c.expected_code == code)
        current = case.source
        for _round in range(5):
            report = check_source(current)
            if report.ok:
                break
            suggestions = [s for diag in report.diagnostics
                           for s in diag.suggestions]
            assert suggestions, report.render()
            current = apply_suggestion(current, suggestions[0])
        assert check_source(current).ok

    def test_diagnose_only_codes_offer_no_suggestion(self):
        case = COMPILE_CASES["compile_bool_plus_int"]
        report = check_source(case.source)
        assert all(not diag.suggestions for diag in report.diagnostics)


class TestZeroFalsePositives:
    """The checker doubles as a standing corpus oracle: every dynamic-UB
    corpus source — buggy AND fixed — must check clean.  The corpus'
    defects are runtime UB; a diagnostic here is a checker bug."""

    @pytest.mark.parametrize("side", ["source", "fixed_source"])
    def test_corpus_sources_check_clean(self, side):
        noisy = [case.name for case in load_dataset()
                 if not check_source(getattr(case, side)).ok]
        assert noisy == []

    @pytest.mark.parametrize("seed", [11, 77])
    def test_generated_sources_parse_and_check_clean(self, seed):
        for index, source in enumerate(generate_sources(30, seed)):
            report = check_source(source)
            assert report.ok, (seed, index, report.render())
            assert not any(d.code == "E0001" for d in report.diagnostics)
