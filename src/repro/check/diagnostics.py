"""Structured diagnostics (``repro.diagnostics/1``).

Rust compiler errors are structured data — a stable code, a primary span,
labeled secondary spans, notes, and machine-applicable suggestions — and
the whole compile-repair literature leans on exactly that structure.  The
checker's passes emit :class:`Diagnostic` records in the same shape:

* ``code`` is a stable ``E0xxx`` identifier (rustc's numbering where the
  mini-Rust subset overlaps it), safe to assert in tests and to key
  repair strategies on;
* ``span`` points at the offending source range via
  :class:`~repro.lang.span.Span`;
* ``labels`` attach messages to secondary spans (the first borrow, the
  move site, the declared type);
* ``suggestions`` are concrete textual splices — ``replace [start, end)
  with this string`` — that a repair engine can apply without a model in
  the loop.

Serialization (:meth:`CheckReport.to_dict`) is versioned under
``repro.diagnostics/1`` and byte-deterministic (no timestamps, sorted
keys at the json layer), so diagnostics can be cached, diffed, and
shipped over the service boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang.span import Span, render_snippet

#: Bump when the serialized diagnostic layout changes incompatibly.
DIAGNOSTICS_SCHEMA = "repro.diagnostics/1"

#: The stable error-code catalogue.  Codes reuse rustc's numbering where
#: the subset overlaps it; the title is the generic phrasing shown when a
#: diagnostic has no more specific message.
ERROR_CODES: dict[str, str] = {
    "E0001": "syntax error",
    "E0061": "wrong number of arguments",
    "E0063": "missing field in struct literal",
    "E0277": "layout cannot be computed",
    "E0308": "mismatched types",
    "E0369": "binary operation cannot be applied to operand type",
    "E0382": "use of moved value",
    "E0384": "cannot assign twice to immutable variable",
    "E0412": "cannot find type in this scope",
    "E0422": "cannot find struct or union in this scope",
    "E0425": "cannot find value in this scope",
    "E0428": "a definition with this name already exists",
    "E0499": "cannot borrow as mutable more than once at a time",
    "E0502": "cannot borrow as mutable because it is also borrowed as shared",
    "E0512": "cannot transmute between types of different sizes",
    "E0560": "struct literal has no field with this name",
    "E0594": "cannot assign to this expression",
    "E0605": "non-primitive or invalid cast",
    "E0608": "cannot index into this type",
    "E0609": "no field with this name",
    "E0614": "type cannot be dereferenced",
}


def _span_dict(span: Span) -> dict:
    return {"start": span.start, "end": span.end,
            "line": span.line, "col": span.col}


def _span_from_dict(entry: dict) -> Span:
    return Span(entry["start"], entry["end"], entry["line"], entry["col"])


@dataclass(frozen=True)
class Suggestion:
    """A machine-applicable fix: replace ``span`` with ``replacement``."""

    message: str
    span: Span
    replacement: str

    def to_dict(self) -> dict:
        return {"message": self.message, "span": _span_dict(self.span),
                "replacement": self.replacement}

    @classmethod
    def from_dict(cls, entry: dict) -> "Suggestion":
        return cls(message=entry["message"],
                   span=_span_from_dict(entry["span"]),
                   replacement=entry["replacement"])


@dataclass(frozen=True)
class Label:
    """A secondary span with its own message (the first borrow, the
    declared type, the move site)."""

    span: Span
    message: str

    def to_dict(self) -> dict:
        return {"span": _span_dict(self.span), "message": self.message}

    @classmethod
    def from_dict(cls, entry: dict) -> "Label":
        return cls(span=_span_from_dict(entry["span"]),
                   message=entry["message"])


@dataclass(frozen=True)
class Diagnostic:
    """One checker finding with a stable code and a primary span."""

    code: str
    message: str
    span: Span
    labels: tuple[Label, ...] = ()
    notes: tuple[str, ...] = ()
    suggestions: tuple[Suggestion, ...] = ()

    def render(self, source: str) -> str:
        lines = [f"error[{self.code}]: {self.message}",
                 render_snippet(source, self.span)]
        for label in self.labels:
            lines.append(render_snippet(source, label.span, label.message))
        for note in self.notes:
            lines.append(f"  = note: {note}")
        for suggestion in self.suggestions:
            lines.append(f"  = help: {suggestion.message}: "
                         f"`{suggestion.replacement}`")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "message": self.message,
            "span": _span_dict(self.span),
            "labels": [label.to_dict() for label in self.labels],
            "notes": list(self.notes),
            "suggestions": [s.to_dict() for s in self.suggestions],
        }

    @classmethod
    def from_dict(cls, entry: dict) -> "Diagnostic":
        return cls(
            code=entry["code"],
            message=entry["message"],
            span=_span_from_dict(entry["span"]),
            labels=tuple(Label.from_dict(l) for l in entry["labels"]),
            notes=tuple(entry["notes"]),
            suggestions=tuple(Suggestion.from_dict(s)
                              for s in entry["suggestions"]),
        )


@dataclass(frozen=True)
class CheckReport:
    """Everything one :func:`~repro.check.checker.check_source` run found.

    ``diagnostics`` are ordered by primary span offset (ties broken by
    code), so rendering and serialization are deterministic for a given
    source text.
    """

    source: str
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def codes(self) -> list[str]:
        return [diagnostic.code for diagnostic in self.diagnostics]

    def render(self) -> str:
        if self.ok:
            return "check passed: no diagnostics"
        blocks = [diagnostic.render(self.source)
                  for diagnostic in self.diagnostics]
        count = len(self.diagnostics)
        blocks.append(f"check failed: {count} "
                      f"diagnostic{'s' if count != 1 else ''}")
        return "\n\n".join(blocks)

    def to_dict(self) -> dict:
        return {
            "schema": DIAGNOSTICS_SCHEMA,
            "ok": self.ok,
            "count": len(self.diagnostics),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def sort_diagnostics(diagnostics: list[Diagnostic]) -> tuple[Diagnostic, ...]:
    """Deterministic report order: by primary offset, then code, then
    message (two passes may flag the same span)."""
    return tuple(sorted(diagnostics,
                        key=lambda d: (d.span.start, d.code, d.message)))


def apply_suggestion(source: str, suggestion: Suggestion) -> str:
    """Splice one suggestion into the source text."""
    span = suggestion.span
    return source[:span.start] + suggestion.replacement + source[span.end:]
