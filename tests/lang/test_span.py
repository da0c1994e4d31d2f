"""Tests for the span line/column helpers shared by parser errors and
checker diagnostics."""

import pytest

from repro.lang.span import (DUMMY_SPAN, Span, line_col, render_snippet,
                             source_line, span_at)

SOURCE = "fn main() {\n    let total = count + 1;\n}\n"


class TestLineCol:
    def test_start_of_file(self):
        assert line_col(SOURCE, 0) == (1, 1)

    def test_second_line(self):
        offset = SOURCE.index("total")
        assert line_col(SOURCE, offset) == (2, 9)

    def test_offset_clamped(self):
        assert line_col(SOURCE, -5) == (1, 1)
        line, col = line_col(SOURCE, 10_000)
        assert line == SOURCE.count("\n") + 1

    def test_agrees_with_lexer_convention(self):
        # col counts from 1 at the character after the last newline
        offset = SOURCE.index("\n") + 1
        assert line_col(SOURCE, offset) == (2, 1)


class TestSpanAt:
    def test_builds_full_span(self):
        offset = SOURCE.index("count")
        span = span_at(SOURCE, offset, offset + 5)
        assert span == Span(offset, offset + 5, 2, 17)

    def test_end_defaults_to_start(self):
        span = span_at(SOURCE, 3)
        assert span.start == span.end == 3


class TestSourceLine:
    def test_returns_requested_line(self):
        assert source_line(SOURCE, 1) == "fn main() {"
        assert source_line(SOURCE, 2) == "    let total = count + 1;"

    def test_out_of_range_is_empty(self):
        assert source_line(SOURCE, 0) == ""
        assert source_line(SOURCE, 99) == ""


class TestRenderSnippet:
    def test_caret_under_span(self):
        offset = SOURCE.index("count")
        snippet = render_snippet(SOURCE, span_at(SOURCE, offset, offset + 5),
                                 "not found")
        lines = snippet.splitlines()
        assert lines[0] == "  --> 2:17"
        assert lines[2] == "2 |     let total = count + 1;"
        assert lines[3] == "  |                 ^^^^^ not found"

    def test_width_clipped_to_line_end(self):
        offset = SOURCE.index("count")
        snippet = render_snippet(SOURCE, span_at(SOURCE, offset, offset + 99))
        caret_line = snippet.splitlines()[3]
        assert caret_line.count("^") == len("count + 1;")

    def test_zero_width_span_still_carets(self):
        snippet = render_snippet(SOURCE, span_at(SOURCE, 0, 0))
        assert "^" in snippet

    def test_dummy_span_renders_location_only(self):
        assert render_snippet(SOURCE, DUMMY_SPAN) == "  --> 0:0"


class TestSpanValue:
    """A span is an immutable value: equality, hash and repr are those of
    the frozen dataclass it replaced, so sets and dicts keyed by spans keep
    their order."""

    def test_equality_is_by_fields(self):
        assert Span(3, 8, 1, 4) == Span(3, 8, 1, 4)
        assert Span(3, 8, 1, 4) != Span(3, 9, 1, 4)

    def test_hash_is_the_hash_of_the_field_tuple(self):
        assert hash(Span(3, 8, 1, 4)) == hash((3, 8, 1, 4))

    def test_repr_names_every_field(self):
        assert repr(Span(3, 8, 1, 4)) == "Span(start=3, end=8, line=1, col=4)"

    def test_str_is_line_and_column(self):
        assert str(Span(3, 8, 2, 4)) == "2:4"

    def test_fields_cannot_be_assigned(self):
        span = Span(3, 8, 1, 4)
        with pytest.raises(AttributeError):
            span.start = 0
        with pytest.raises(AttributeError):
            span.label = "x"

    def test_merge_covers_both_in_either_order(self):
        first, second = Span(3, 8, 1, 4), Span(10, 20, 2, 1)
        assert first.merge(second) == Span(3, 20, 1, 4)
        assert second.merge(first) == Span(3, 20, 1, 4)
        assert Span(3, 30, 1, 4).merge(second) == Span(3, 30, 1, 4)
