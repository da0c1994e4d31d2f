"""The checker front door: parse + all passes → a :class:`CheckReport`.

Pass order mirrors rustc's phases: parse (``E0001`` on lex/parse
failure), item collection and name resolution, struct/union layout
validation (``E0277`` via the shared :class:`~repro.lang.types`
machinery), type checking, then the conservative borrow/move pass.
Later passes run even when earlier ones found problems — they are
engineered to stay silent on shapes they cannot prove, so a single run
reports everything it can see, sorted by source position.
"""

from __future__ import annotations

from ..lang import LexError, ParseError
from ..lang import ast_nodes as ast
from ..lang.parser import _parse_program_cached
from ..lang.span import Span
from ..lang.types import LayoutError, StructLayout
from .borrowck import Borrowck
from .diagnostics import CheckReport, Diagnostic, sort_diagnostics
from .names import resolve_names
from .typeck import Typeck


def _syntax_diagnostic(source: str, error: ParseError | LexError) -> \
        Diagnostic:
    if isinstance(error, ParseError):
        span = error.span
    else:
        span = Span(0, 0, error.line, error.col)
    return Diagnostic(code="E0001",
                      message=f"syntax error: {error.message}",
                      span=span)


def compute_layouts(program: ast.Program) -> tuple[
        dict[str, StructLayout], list[Diagnostic]]:
    """Layout every struct/union in declaration order.

    Types that fail (unknown field type, recursive definition, unsized
    field) produce ``E0277`` and are left out of the table, so later
    passes simply treat them as unknown.
    """
    layouts: dict[str, StructLayout] = {}
    diagnostics: list[Diagnostic] = []
    for item in program.items:
        if isinstance(item, ast.StructItem):
            builder = StructLayout.for_struct
        elif isinstance(item, ast.UnionItem):
            builder = StructLayout.for_union
        else:
            continue
        try:
            layouts[item.name] = builder(item.name, item.fields, layouts)
        except LayoutError as exc:
            diagnostics.append(Diagnostic(
                code="E0277",
                message=f"the layout of `{item.name}` cannot be "
                        f"computed: {exc}",
                span=item.span))
    return layouts, diagnostics


def check_program(program: ast.Program, source: str) -> CheckReport:
    """Run every post-parse pass over an already-parsed program."""
    tables, diagnostics = resolve_names(program)
    layouts, layout_diags = compute_layouts(program)
    diagnostics.extend(layout_diags)
    diagnostics.extend(Typeck(program, source, tables, layouts).run())
    diagnostics.extend(Borrowck(program, source, tables, layouts).run())
    return CheckReport(source=source,
                       diagnostics=sort_diagnostics(diagnostics))


def check_source(source: str) -> CheckReport:
    """Check a source text end to end; never raises on bad input.

    The passes only read the tree, so they run on the parse memo's shared
    tree, uncloned, as the detector does."""
    try:
        program = _parse_program_cached(source)
    except (ParseError, LexError) as error:
        return CheckReport(
            source=source,
            diagnostics=(_syntax_diagnostic(source, error),))
    return check_program(program, source)
