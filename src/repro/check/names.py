"""Name resolution: scopes, duplicate definitions, unresolved identifiers.

The first checker pass.  It builds the program's item tables (value
namespace: functions/statics/consts; type namespace: structs/unions),
flags duplicate definitions (``E0428``), then walks every expression
with a lexical scope stack to flag unresolved value names (``E0425``,
with a close-match suggestion when one exists) and unknown type names in
annotations (``E0412``).

The pass is deliberately conservative about what counts as "unresolved":
only *single-segment* paths are candidate locals — qualified paths
(``std::mem::transmute``, ``i32::MAX``, ``Ordering::SeqCst``) name std
machinery the interpreter provides and are never flagged.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

from ..lang import ast_nodes as ast
from ..lang.span import Span
from ..lang.types import (BUILTIN_GENERICS, BUILTIN_NAMED, Ty, TyArray,
                          TyFn, TyPath, TyRawPtr, TyRef, TySlice, TyTuple)
from .diagnostics import Diagnostic, Label, Suggestion

#: Single-segment value names the runtime provides without declaration.
BUILTIN_VALUES = frozenset({"drop", "None", "Some"})

#: Type names the subset knows without a user declaration (primitives
#: never reach here: the parser resolves them to concrete ``Ty``s).
KNOWN_TYPE_NAMES = frozenset(BUILTIN_GENERICS) | frozenset(BUILTIN_NAMED) \
    | frozenset({"MutexGuard", "Ordering", "Result", "Range"})


@dataclass
class ItemTables:
    """The program's top-level declarations, split by namespace."""

    functions: dict[str, ast.FnItem] = field(default_factory=dict)
    statics: dict[str, ast.StaticItem] = field(default_factory=dict)
    consts: dict[str, ast.ConstItem] = field(default_factory=dict)
    types: dict[str, ast.StructItem | ast.UnionItem] = field(
        default_factory=dict)

    def value_names(self) -> set[str]:
        return set(self.functions) | set(self.statics) | set(self.consts)


def collect_items(program: ast.Program) -> tuple[ItemTables,
                                                 list[Diagnostic]]:
    """Item tables plus ``E0428`` diagnostics for duplicate definitions."""
    tables = ItemTables()
    diagnostics: list[Diagnostic] = []

    def claim(table: dict, name: str, item: ast.Item, what: str) -> None:
        if name in table:
            first = table[name]
            diagnostics.append(Diagnostic(
                code="E0428",
                message=f"the {what} `{name}` is defined multiple times",
                span=item.span,
                labels=(Label(first.span,
                              f"`{name}` first defined here"),),
                notes=(f"`{name}` must be defined only once in this "
                       f"namespace",),
            ))
            return
        table[name] = item

    for item in program.items:
        if isinstance(item, ast.FnItem):
            claim(tables.functions, item.name, item, "function")
            if item.name in tables.statics or item.name in tables.consts:
                pass  # already reported via the shared namespace below
        elif isinstance(item, ast.StaticItem):
            claim(tables.statics, item.name, item, "static")
        elif isinstance(item, ast.ConstItem):
            claim(tables.consts, item.name, item, "const")
        elif isinstance(item, (ast.StructItem, ast.UnionItem)):
            kind = "union" if isinstance(item, ast.UnionItem) else "struct"
            claim(tables.types, item.name, item, kind)
    return tables, diagnostics


def type_path_names(ty: Ty):
    """Yield every named (``TyPath``) component inside ``ty``."""
    if isinstance(ty, TyPath):
        yield ty.name
        for arg in ty.args:
            yield from type_path_names(arg)
    elif isinstance(ty, (TyArray, TySlice)):
        yield from type_path_names(ty.elem)
    elif isinstance(ty, (TyRef, TyRawPtr)):
        yield from type_path_names(ty.target)
    elif isinstance(ty, TyTuple):
        for elem in ty.elems:
            yield from type_path_names(elem)
    elif isinstance(ty, TyFn):
        for param in ty.params:
            yield from type_path_names(param)
        yield from type_path_names(ty.ret)


class NameResolver:
    """One scoped walk over the program; collects diagnostics."""

    def __init__(self, program: ast.Program, tables: ItemTables):
        self.program = program
        self.tables = tables
        self.diagnostics: list[Diagnostic] = []
        self._scopes: list[set[str]] = []

    # -- scope helpers -----------------------------------------------------

    def _in_scope(self, name: str) -> bool:
        return any(name in frame for frame in self._scopes)

    def _visible_names(self) -> list[str]:
        names: set[str] = set(BUILTIN_VALUES)
        names.update(self.tables.value_names())
        for frame in self._scopes:
            names.update(frame)
        return sorted(names)

    # -- diagnostics -------------------------------------------------------

    def _unresolved(self, node: ast.PathExpr) -> None:
        name = node.segments[0]
        suggestions: tuple[Suggestion, ...] = ()
        close = difflib.get_close_matches(name, self._visible_names(),
                                          n=1, cutoff=0.6)
        notes: tuple[str, ...] = ()
        if close:
            suggestions = (Suggestion(
                message=f"a value with a similar name exists: `{close[0]}`",
                span=node.span,
                replacement=close[0]),)
        else:
            notes = ("not found in this scope or the item tables",)
        self.diagnostics.append(Diagnostic(
            code="E0425",
            message=f"cannot find value `{name}` in this scope",
            span=node.span,
            notes=notes,
            suggestions=suggestions,
        ))

    def check_type(self, ty: Ty | None, span: Span) -> None:
        if ty is None:
            return
        for name in type_path_names(ty):
            if name in KNOWN_TYPE_NAMES or name in self.tables.types:
                continue
            self.diagnostics.append(Diagnostic(
                code="E0412",
                message=f"cannot find type `{name}` in this scope",
                span=span,
                notes=("the subset knows the std wrappers "
                       "(Vec, Box, MaybeUninit, Mutex, ...) and every "
                       "struct or union declared in this program",),
            ))

    # -- traversal ---------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        for item in self.program.items:
            if isinstance(item, ast.FnItem):
                self._visit_fn(item)
            elif isinstance(item, (ast.StaticItem, ast.ConstItem)):
                self.check_type(item.ty, item.span)
                self._scopes.append(set())
                self.visit(item.init)
                self._scopes.pop()
            elif isinstance(item, (ast.StructItem, ast.UnionItem)):
                for _name, field_ty in item.fields:
                    self.check_type(field_ty, item.span)
        return self.diagnostics

    def _visit_fn(self, item: ast.FnItem) -> None:
        frame: set[str] = set()
        for param in item.params:
            self.check_type(param.ty, param.span)
            if param.name in frame:
                self.diagnostics.append(Diagnostic(
                    code="E0428",
                    message=f"identifier `{param.name}` is bound more than "
                            f"once in this parameter list",
                    span=param.span,
                ))
            frame.add(param.name)
        self.check_type(item.ret, item.span)
        self._scopes.append(frame)
        self._visit_block(item.body, fresh_frame=False)
        self._scopes.pop()

    def _visit_block(self, block: ast.Block, fresh_frame: bool = True) -> None:
        if fresh_frame:
            self._scopes.append(set())
        for stmt in block.stmts:
            if isinstance(stmt, ast.LetStmt):
                self.check_type(stmt.ty, stmt.span)
                if stmt.init is not None:
                    self.visit(stmt.init)
                self._scopes[-1].add(stmt.name)
            elif isinstance(stmt, ast.ExprStmt):
                self.visit(stmt.expr)
        if block.tail is not None:
            self.visit(block.tail)
        if fresh_frame:
            self._scopes.pop()

    def visit(self, node: ast.Expr) -> None:
        if isinstance(node, ast.PathExpr):
            for ty in node.generic_args:
                self.check_type(ty, node.span)
            if len(node.segments) == 1:
                name = node.segments[0]
                if not (self._in_scope(name)
                        or name in self.tables.value_names()
                        or name in BUILTIN_VALUES):
                    self._unresolved(node)
            return
        if isinstance(node, ast.Block):
            self._visit_block(node)
            return
        if isinstance(node, ast.ForExpr):
            self.visit(node.iterable)
            self._scopes.append({node.var})
            self._visit_block(node.body, fresh_frame=False)
            self._scopes.pop()
            return
        if isinstance(node, ast.Closure):
            self._scopes.append(set(node.params))
            self.visit(node.body)
            self._scopes.pop()
            return
        if isinstance(node, ast.StructLit):
            if node.name not in self.tables.types:
                self.diagnostics.append(Diagnostic(
                    code="E0422",
                    message=f"cannot find struct or union `{node.name}` "
                            f"in this scope",
                    span=node.span,
                ))
            for _name, value in node.fields:
                self.visit(value)
            return
        if isinstance(node, ast.Cast):
            self.visit(node.expr)
            self.check_type(node.ty, node.span)
            return
        if isinstance(node, ast.MethodCall):
            for ty in node.generic_args:
                self.check_type(ty, node.span)
            self.visit(node.receiver)
            for arg in node.args:
                self.visit(arg)
            return
        # Generic recursion for every other expression shape.
        for child in ast.children(node):
            self.visit(child)


def resolve_names(program: ast.Program) -> tuple[ItemTables,
                                                 list[Diagnostic]]:
    """Run the full pass: item tables + every name diagnostic."""
    tables, diagnostics = collect_items(program)
    resolver = NameResolver(program, tables)
    diagnostics.extend(resolver.run())
    return tables, diagnostics
