"""Source spans for diagnostics.

Every token and AST node carries a :class:`Span` so that detector errors and
agent rewrites can point back at concrete source locations, mirroring the way
Miri diagnostics reference ``file.rs:line:col``.
"""

from __future__ import annotations

from typing import NamedTuple


class Span(NamedTuple):
    """Half-open byte range ``[start, end)`` in the original source text.

    An immutable NamedTuple: assigning a field raises ``AttributeError``.
    Spans with equal fields are equal, and ``hash(span) == hash((start,
    end, line, col))``, as for the frozen dataclass a span used to be, so
    no set or dict keyed by spans changes order.
    """

    start: int
    end: int
    line: int
    col: int

    def merge(self, other: "Span") -> "Span":
        """Return the smallest span covering both ``self`` and ``other``."""
        if other.start < self.start:
            first, last = other, self
        else:
            first, last = self, other
        return Span(first.start, max(self.end, other.end), first.line, first.col)

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


DUMMY_SPAN = Span(0, 0, 0, 0)


def line_col(source: str, offset: int) -> tuple[int, int]:
    """1-based ``(line, col)`` of a character offset, lexer convention."""
    offset = max(0, min(offset, len(source)))
    line = source.count("\n", 0, offset) + 1
    last_newline = source.rfind("\n", 0, offset)
    return line, offset - last_newline


def span_at(source: str, start: int, end: int | None = None) -> Span:
    """Build a :class:`Span` for ``[start, end)`` computing line/col from
    the text (for callers that only track offsets, e.g. textual splices)."""
    line, col = line_col(source, start)
    return Span(start, start if end is None else end, line, col)


def source_line(source: str, line: int) -> str:
    """The 1-based ``line``-th line of ``source`` (no trailing newline)."""
    lines = source.splitlines()
    if 1 <= line <= len(lines):
        return lines[line - 1]
    return ""


def render_snippet(source: str, span: Span, label: str = "") -> str:
    """A rustc-style caret snippet pointing at ``span``::

          --> 3:9
           |
         3 |     let total = count + 1;
           |                 ^^^^^ label

    Spans with no real location (``DUMMY_SPAN``) render as the location
    line alone so callers never special-case them.
    """
    header = f"  --> {span}"
    if span.line < 1:
        return header
    text = source_line(source, span.line)
    gutter = f"{span.line} "
    pad = " " * len(gutter)
    remaining = len(text) - (span.col - 1)
    width = max(1, min(span.end - span.start, remaining))
    underline = " " * (span.col - 1) + "^" * width
    if label:
        underline += f" {label}"
    return "\n".join([header,
                      f"{pad}|",
                      f"{gutter}| {text}",
                      f"{pad}| {underline}"])
