"""Conservative move and borrow analysis.

A deliberately narrow subset of rustc's borrow checker, tuned for zero
false positives over the UB corpus (whose *buggy* sources must also
check clean — their defects are dynamic UB, not compile errors):

* **Moves** (``E0382``) are tracked only for ``let y = x;`` where ``x``
  is a local whose type is clearly non-Copy (an owning container
  annotation, or a ``vec!``/``Box::new``/``String`` initializer).
  Function-call arguments are *not* moves: the corpus leans on
  ``drop(v); v[1]`` as a dynamic use-after-free idiom, which rustc
  rejects but our dynamic detector owns.
* **Borrows** (``E0499``/``E0502``) are tracked only for bare
  ``let r = &mut x;`` / ``let r = &x;`` bindings; a second borrow
  conflicts only if the first borrower is still used afterwards
  (non-lexical-lifetimes style).  A ``&mut`` immediately under a cast
  (``&mut x as *mut T``) creates no tracked borrow.
* **Immutability** (``E0384``/``E0594``): assignment to an initialised
  non-``mut`` ``let``, assignment to a non-``mut`` static, and
  assignment through a shared reference — each with a mechanical fix
  suggestion (``let`` → ``let mut``, ``&x`` → ``&mut x``).

Each nested block is analysed with fresh move/borrow state; scope
tracking for assignment targets crosses blocks.  Unknown shapes are
ignored entirely — every rule here errs silent.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang import ast_nodes as ast
from ..lang.span import Span
from ..lang.types import StructLayout, is_copy
from .diagnostics import Diagnostic, Label, Suggestion
from .names import ItemTables

#: Initializer call paths that always build a non-Copy owner.
_OWNER_CALLS = frozenset({
    "Vec::new", "Vec::with_capacity", "Box::new", "String::new",
    "String::from", "Mutex::new",
})
_OWNER_MACROS = frozenset({"vec", "vec_repeat"})


@dataclass
class _Borrow:
    index: int
    borrower: str
    target: str
    mutable: bool
    span: Span
    init_span: Span  # the full `&x` / `&mut x` initializer text


def _bare_name(expr: ast.Expr) -> str | None:
    if isinstance(expr, ast.PathExpr) and expr.is_local:
        return expr.segments[0]
    return None


def _names_used(node: ast.Node) -> set[str]:
    names: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.PathExpr) and child.is_local:
            names.add(child.segments[0])
    return names


def _first_use(node: ast.Node, name: str) -> ast.PathExpr | None:
    for child in ast.walk(node):
        if isinstance(child, ast.PathExpr) and child.is_local \
                and child.segments[0] == name:
            return child
    return None


def _assign_targets(node: ast.Node) -> set[str]:
    targets: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, (ast.Assign, ast.CompoundAssign)):
            name = _bare_name(child.target)
            if name is not None:
                targets.add(name)
    return targets


class Borrowck:
    """Move/borrow pass over every function in a program."""

    def __init__(self, program: ast.Program, source: str,
                 tables: ItemTables,
                 layouts: dict[str, StructLayout]):
        self.program = program
        self.source = source
        self.tables = tables
        self.layouts = layouts
        self.diagnostics: list[Diagnostic] = []
        #: Scope stack: name -> LetStmt (for mutability and suggestions).
        self._lets: list[dict[str, ast.LetStmt]] = []
        #: Scope stack: name -> shared-borrow info for `let r = &x;`.
        self._shared_refs: list[dict[str, tuple[Span, str]]] = []
        #: Non-Copy locals in scope (candidates for move tracking).
        self._owners: list[set[str]] = []

    def run(self) -> list[Diagnostic]:
        for item in self.program.items:
            if isinstance(item, ast.FnItem):
                self._check_fn(item)
        return self.diagnostics

    # ------------------------------------------------------------------

    def _check_fn(self, item: ast.FnItem) -> None:
        self._lets = [{}]
        self._shared_refs = [{}]
        owners: set[str] = set()
        for param in item.params:
            if param.ty is not None and not is_copy(param.ty, self.layouts):
                owners.add(param.name)
        self._owners = [owners]
        self._block(item.body, fresh_scopes=False)
        self._lets = []
        self._shared_refs = []
        self._owners = []

    def _push(self) -> None:
        self._lets.append({})
        self._shared_refs.append({})
        self._owners.append(set())

    def _pop(self) -> None:
        self._lets.pop()
        self._shared_refs.pop()
        self._owners.pop()

    def _lookup_let(self, name: str) -> ast.LetStmt | None:
        for frame in reversed(self._lets):
            if name in frame:
                return frame[name]
        return None

    def _lookup_shared_ref(self, name: str) -> tuple[Span, str] | None:
        for frame in reversed(self._shared_refs):
            if name in frame:
                return frame[name]
        return None

    def _is_owner(self, name: str) -> bool:
        return any(name in frame for frame in self._owners)

    # ------------------------------------------------------------------
    # Block analysis

    def _block(self, block: ast.Block, fresh_scopes: bool = True) -> None:
        if fresh_scopes:
            self._push()
        moves: list[tuple[int, str, str, Span]] = []  # idx, src, dest, span
        borrows: list[_Borrow] = []
        nodes: list[ast.Node] = list(block.stmts)
        if block.tail is not None:
            nodes.append(block.tail)
        for index, node in enumerate(nodes):
            if isinstance(node, ast.LetStmt):
                self._let_stmt(node, index, moves, borrows)
            elif isinstance(node, ast.ExprStmt):
                self._visit_expr(node.expr)
            else:  # the tail expression
                self._visit_expr(node)
        self._report_moves(moves, nodes)
        self._report_borrows(borrows, nodes)
        if fresh_scopes:
            self._pop()

    def _let_stmt(self, stmt: ast.LetStmt, index: int,
                  moves: list[tuple[int, str, str, Span]],
                  borrows: list[_Borrow]) -> None:
        init = stmt.init
        # (Re)binding a name ends any tracking of the previous binding.
        self._shared_refs[-1].pop(stmt.name, None)
        if init is None:
            self._lets[-1][stmt.name] = stmt
            return
        # Bare move: `let y = x;` of a known owner.
        src = _bare_name(init)
        if src is not None and self._is_owner(src):
            moves.append((index, src, stmt.name, init.span))
            self._owners[-1].add(stmt.name)
        elif self._is_non_copy_init(stmt):
            self._owners[-1].add(stmt.name)
        # Bare borrow: `let r = &x;` / `let r = &mut x;`.
        if isinstance(init, ast.Unary) and init.op in ("&", "&mut"):
            target = _bare_name(init.operand)
            if target is not None:
                init_span = Span(init.span.start, init.operand.span.end,
                                 init.span.line, init.span.col)
                borrows.append(_Borrow(index, stmt.name, target,
                                       init.op == "&mut", stmt.span,
                                       init_span))
                if init.op == "&":
                    self._shared_refs[-1][stmt.name] = (init_span, target)
        else:
            self._visit_expr(init)
        self._lets[-1][stmt.name] = stmt

    def _is_non_copy_init(self, stmt: ast.LetStmt) -> bool:
        if stmt.ty is not None:
            return not is_copy(stmt.ty, self.layouts)
        init = stmt.init
        if isinstance(init, ast.MacroCall) and init.name in _OWNER_MACROS:
            return True
        if isinstance(init, ast.Call) and isinstance(init.func,
                                                     ast.PathExpr):
            return init.func.full in _OWNER_CALLS
        return False

    # ------------------------------------------------------------------
    # Deferred reports (need the whole statement list for liveness)

    def _report_moves(self, moves: list[tuple[int, str, str, Span]],
                      nodes: list[ast.Node]) -> None:
        for index, src, dest, move_span in moves:
            for later in nodes[index + 1:]:
                if src in _assign_targets(later):
                    break  # reassigned: the binding is live again
                if isinstance(later, ast.LetStmt) and later.name == src:
                    break  # shadowed by a fresh binding
                use = _first_use(later, src)
                if use is not None:
                    self.diagnostics.append(Diagnostic(
                        code="E0382",
                        message=f"use of moved value `{src}`",
                        span=use.span,
                        labels=(Label(move_span,
                                      f"value moved to `{dest}` here"),),
                        notes=(f"`{src}` has a non-Copy type; the move "
                               f"invalidates the original binding",),
                        suggestions=(Suggestion(
                            message=f"use the moved-to binding `{dest}` "
                                    f"instead",
                            span=use.span,
                            replacement=dest),),
                    ))
                    break

    def _report_borrows(self, borrows: list[_Borrow],
                        nodes: list[ast.Node]) -> None:
        for i, first in enumerate(borrows):
            for second in borrows[i + 1:]:
                if first.target != second.target:
                    continue
                if not second.mutable:
                    continue  # only a new `&mut` can conflict
                if not self._used_at_or_after(first.borrower, second.index,
                                              nodes):
                    continue  # first borrow already dead (NLL)
                if first.mutable:
                    code = "E0499"
                    message = (f"cannot borrow `{first.target}` as "
                               f"mutable more than once at a time")
                else:
                    code = "E0502"
                    message = (f"cannot borrow `{first.target}` as "
                               f"mutable because it is also borrowed "
                               f"as shared")
                self.diagnostics.append(Diagnostic(
                    code=code,
                    message=message,
                    span=second.init_span,
                    labels=(Label(first.init_span,
                                  f"first borrow by `{first.borrower}` "
                                  f"occurs here"),),
                    notes=(f"`{first.borrower}` is still used after the "
                           f"second borrow",),
                ))
                break

    def _used_at_or_after(self, name: str, index: int,
                          nodes: list[ast.Node]) -> bool:
        for later in nodes[index:]:
            if isinstance(later, ast.LetStmt) and later.init is not None \
                    and _bare_name(later.init) is None:
                if name in _names_used(later.init):
                    return True
            elif name in _names_used(later):
                return True
            if isinstance(later, ast.LetStmt) and later.name == name:
                return False  # shadowed
        return False

    # ------------------------------------------------------------------
    # Expression traversal: assignment checks + nested blocks

    def _visit_expr(self, node: ast.Expr) -> None:
        if isinstance(node, (ast.Assign, ast.CompoundAssign)):
            self._check_assign_target(node)
            self._visit_expr(node.value)
            # Still walk non-name targets (`v[i] = ..` uses `i`).
            if _bare_name(node.target) is None:
                self._visit_expr(node.target)
            return
        if isinstance(node, ast.Block):
            self._block(node)
            return
        if isinstance(node, ast.IfExpr):
            self._visit_expr(node.cond)
            self._block(node.then_block)
            if node.else_block is not None:
                self._visit_expr(node.else_block)
            return
        if isinstance(node, ast.WhileExpr):
            self._visit_expr(node.cond)
            self._block(node.body)
            return
        if isinstance(node, ast.LoopExpr):
            self._block(node.body)
            return
        if isinstance(node, ast.ForExpr):
            self._visit_expr(node.iterable)
            self._block(node.body)
            return
        if isinstance(node, ast.Closure):
            self._visit_expr(node.body)
            return
        for child in ast.children(node):
            self._visit_expr(child)

    def _check_assign_target(self,
                             node: ast.Assign | ast.CompoundAssign) -> None:
        name = _bare_name(node.target)
        if name is not None:
            let = self._lookup_let(name)
            if let is not None:
                if not let.mutable and let.init is not None:
                    self.diagnostics.append(Diagnostic(
                        code="E0384",
                        message=f"cannot assign twice to immutable "
                                f"variable `{name}`",
                        span=node.target.span,
                        labels=(Label(let.span,
                                      f"`{name}` declared immutable "
                                      f"here"),),
                        suggestions=(Suggestion(
                            message="make the binding mutable",
                            span=let.span,
                            replacement="let mut"),),
                    ))
                return
            static = self.tables.statics.get(name)
            if static is not None and not static.mutable:
                self.diagnostics.append(Diagnostic(
                    code="E0594",
                    message=f"cannot assign to immutable static `{name}`",
                    span=node.target.span,
                    labels=(Label(static.span,
                                  f"`{name}` declared here"),),
                    notes=("consider declaring the static as "
                           "`static mut` (and auditing every access)",),
                ))
            return
        # `*r = ..` through a tracked shared reference.
        target = node.target
        if isinstance(target, ast.Unary) and target.op == "*":
            ref_name = _bare_name(target.operand)
            if ref_name is not None:
                info = self._lookup_shared_ref(ref_name)
                if info is not None:
                    init_span, borrowed = info
                    self.diagnostics.append(Diagnostic(
                        code="E0594",
                        message=f"cannot assign to `*{ref_name}`, which "
                                f"is behind a `&` reference",
                        span=target.span,
                        labels=(Label(init_span,
                                      f"`{ref_name}` borrows `{borrowed}` "
                                      f"as shared here"),),
                        suggestions=(Suggestion(
                            message="borrow mutably instead",
                            span=init_span,
                            replacement=f"&mut {borrowed}"),),
                    ))
