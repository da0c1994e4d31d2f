"""AST rewrite rules — the repair transformations agents can execute.

Rules fall into the paper's three fix classes (Principle 2):

* ``REPLACE`` — substitute an unsafe operation with a safe API of equivalent
  functionality (safe-replacement agent);
* ``ASSERT``  — insert a precondition guard so the unsafe operation is only
  reached when it is defined (assertion agent);
* ``MODIFY``  — change erroneous semantics while preserving intent
  (code-modification agent);

plus ``HALLUCINATION`` rules: plausible-looking but wrong edits the simulated
LLM applies when it errs — these exist so the adaptive-rollback machinery has
genuine error-count growth to react to (§III-B2).

Every rule takes a :class:`~repro.lang.ast_nodes.Program` and returns a
*transformed clone* or ``None`` when its pattern does not occur. Rules build
replacement code by printing sub-expressions into source templates and
re-parsing — robust and easy to audit.

Triggers: ``@rewrite(..., needs=(...))`` lists kind-tagged tokens of which
at least one must occur in a program for the rule to apply —
``method:<name>``, ``path:<segment>``, ``unary:<op>``, ``binary:<op>``,
``node:<class>`` or ``static mut``, as :func:`trigger_tokens` collects
them.  :meth:`RewriteRule.apply` given a program's token set returns
``None`` before cloning when none is present.  A rule without ``needs``
always runs; sloppy variants inherit their base's.  Triggers must be
necessary conditions, never heuristics: ``tests/core/test_triggers.py``
checks each against every corpus program and one level of rewrites.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

from ..lang import ast_nodes as ast
from ..lang import types as ty
from ..lang.ast_nodes import clone, replace_node, walk
from ..lang.parser import parse_expr, parse_program
from ..lang.printer import print_expr
from ..lang.visitor import containing_block, insert_before, remove_stmt


class FixKind(enum.Enum):
    REPLACE = "safe replacement"
    ASSERT = "assertion guard"
    MODIFY = "semantic modification"
    HALLUCINATION = "hallucination"


@dataclass(frozen=True)
class RewriteRule:
    name: str
    kind: FixKind
    description: str
    fn: Callable[[ast.Program], ast.Program | None]
    #: Trigger tokens, any one of which the input must hold; None: always.
    needs: tuple[str, ...] | None = None

    def apply(self, program: ast.Program,
              tokens: frozenset[str] | None = None) -> ast.Program | None:
        """Apply to a clone; never mutates the input program.

        ``tokens`` is ``program``'s :func:`trigger_tokens` set, passed
        only by callers that already hold it: with none of ``needs`` among
        them the rule cannot match, so it returns None without cloning.
        """
        if tokens is not None and self.needs is not None \
                and tokens.isdisjoint(self.needs):
            return None
        duplicate = clone(program)
        try:
            return self.fn(duplicate)
        except Exception:
            # A rewrite that blows up on foreign code is simply inapplicable.
            return None


REGISTRY: dict[str, RewriteRule] = {}


def rewrite(name: str, kind: FixKind, description: str,
            needs: tuple[str, ...] | None = None):
    def decorate(fn):
        REGISTRY[name] = RewriteRule(name, kind, description, fn, needs)
        return fn
    return decorate


def trigger_tokens(program: ast.Program) -> frozenset[str]:
    """The kind-tagged tokens rule ``needs`` are matched against: every
    method name, path segment, unary and binary operator and node class
    of ``program``, plus ``static mut`` when it declares one.  The kind
    tag keeps a deref (``unary:*``) apart from a product (``binary:*``)."""
    tokens: set[str] = set()
    classes: set[type] = set()
    for node in walk(program):
        cls = type(node)
        classes.add(cls)
        if cls is ast.MethodCall:
            tokens.add("method:" + node.method)
        elif cls is ast.PathExpr:
            tokens.update("path:" + segment for segment in node.segments)
        elif cls is ast.Unary:
            tokens.add("unary:" + node.op)
        elif cls is ast.Binary:
            tokens.add("binary:" + node.op)
        elif cls is ast.StaticItem and node.mutable:
            tokens.add("static mut")
    tokens.update("node:" + cls.__name__ for cls in classes)
    return frozenset(tokens)


def rules_of_kind(kind: FixKind) -> list[RewriteRule]:
    return [rule for rule in REGISTRY.values() if rule.kind is kind]


# ---------------------------------------------------------------------------
# Pattern helpers


def _is_path_call(node: ast.Node, *suffixes: str) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.PathExpr)
            and node.func.segments[-1] in suffixes)


def _transmute_calls(program: ast.Program) -> list[ast.Call]:
    return [n for n in walk(program) if _is_path_call(n, "transmute")]


def _let_defining(program: ast.Program, name: str) -> ast.LetStmt | None:
    for node in walk(program):
        if isinstance(node, ast.LetStmt) and node.name == name:
            return node
    return None


def _reparse(expr_src: str) -> ast.Expr:
    return parse_expr(expr_src)


def _parse_stmt(stmt_src: str) -> ast.Stmt:
    """Parse a single statement robustly (a sentinel keeps block-like
    statements from being swallowed as the function's tail expression)."""
    program = parse_program(f"fn __t() {{ {stmt_src} let __sentinel = 0; }}")
    return program.fn("__t").body.stmts[0]


def _unwrap_unsafe(expr: ast.Expr) -> ast.Expr:
    """Peel `unsafe { e }` down to `e` when the block is a pure wrapper."""
    if isinstance(expr, ast.Block) and expr.is_unsafe and not expr.stmts \
            and expr.tail is not None:
        return expr.tail
    return expr


def _stmt_uses_name(stmt: ast.Stmt, name: str) -> bool:
    return any(
        isinstance(node, ast.PathExpr) and node.is_local and node.name == name
        for node in walk(stmt)
    )


# ===========================================================================
# REPLACE rules (safe-replacement agent)


@rewrite("replace_transmute_ref_with_cast", FixKind.REPLACE,
         "mem::transmute::<&T, usize>(p) → p as *const T as usize",
         needs=("path:transmute",))
def replace_transmute_ref_with_cast(program):
    for call in _transmute_calls(program):
        generics = call.func.generic_args
        if len(generics) != 2 or not call.args:
            continue
        src_ty, dst_ty = generics
        if isinstance(src_ty, ty.TyRef) and isinstance(dst_ty, ty.TyInt):
            arg_src = print_expr(call.args[0])
            new = _reparse(f"{arg_src} as *const {src_ty.target} as {dst_ty}")
            replace_node(program, call, new)
            return program
    return None


@rewrite("replace_transmute_bytes_with_from_le", FixKind.REPLACE,
         "mem::transmute::<[u8; N], uN>(x) → uN::from_le_bytes(x)",
         needs=("path:transmute",))
def replace_transmute_bytes_with_from_le(program):
    for call in _transmute_calls(program):
        generics = call.func.generic_args
        if len(generics) != 2 or not call.args:
            continue
        src_ty, dst_ty = generics
        if (isinstance(src_ty, ty.TyArray) and src_ty.elem == ty.U8
                and isinstance(dst_ty, ty.TyInt)):
            arg_src = print_expr(call.args[0])
            new = _reparse(f"{dst_ty}::from_le_bytes({arg_src})")
            replace_node(program, call, new)
            return program
    return None


@rewrite("replace_transmute_int_with_comparison", FixKind.REPLACE,
         "mem::transmute::<u8, bool>(n) → n != 0",
         needs=("path:transmute",))
def replace_transmute_int_with_comparison(program):
    for call in _transmute_calls(program):
        generics = call.func.generic_args
        if len(generics) != 2 or not call.args:
            continue
        src_ty, dst_ty = generics
        if isinstance(src_ty, ty.TyInt) and isinstance(dst_ty, ty.TyBool):
            arg_src = print_expr(call.args[0])
            new = _reparse(f"{arg_src} != 0")
            replace_node(program, call, new)
            return program
    return None


@rewrite("replace_transmute_char_with_from_u32", FixKind.REPLACE,
         "mem::transmute::<u32, char>(n) → char::from_u32(n).unwrap_or(...)",
         needs=("path:transmute",))
def replace_transmute_char_with_from_u32(program):
    for call in _transmute_calls(program):
        generics = call.func.generic_args
        if len(generics) != 2 or not call.args:
            continue
        src_ty, dst_ty = generics
        if isinstance(src_ty, ty.TyInt) and isinstance(dst_ty, ty.TyChar):
            arg_src = print_expr(call.args[0])
            new = _reparse(f"char::from_u32({arg_src}).unwrap_or('?')")
            replace_node(program, call, new)
            return program
    return None


@rewrite("replace_transmute_fn_with_direct", FixKind.REPLACE,
         "mem::transmute between fn-pointer types → the function itself",
         needs=("path:transmute",))
def replace_transmute_fn_with_direct(program):
    for call in _transmute_calls(program):
        generics = call.func.generic_args
        if len(generics) != 2 or not call.args:
            continue
        src_ty, dst_ty = generics
        if isinstance(src_ty, ty.TyFn) and isinstance(dst_ty, ty.TyFn):
            replace_node(program, call, clone(call.args[0]))
            return program
    return None


@rewrite("replace_set_len_with_resize", FixKind.REPLACE,
         "v.set_len(n) → v.resize(n, 0)",
         needs=("method:set_len",))
def replace_set_len_with_resize(program):
    for node in walk(program):
        if isinstance(node, ast.MethodCall) and node.method == "set_len" \
                and node.args:
            recv = print_expr(node.receiver)
            count = print_expr(node.args[0])
            new = _reparse(f"{recv}.resize({count}, 0)")
            replace_node(program, node, new)
            _strip_redundant_unsafe(program, new)
            return program
    return None


@rewrite("replace_get_unchecked_with_index", FixKind.REPLACE,
         "v.get_unchecked(i) → v[i] (bounds-checked)",
         needs=("method:get_unchecked", "method:get_unchecked_mut"))
def replace_get_unchecked_with_index(program):
    for node in walk(program):
        if isinstance(node, ast.MethodCall) and \
                node.method in ("get_unchecked", "get_unchecked_mut") and node.args:
            recv = print_expr(node.receiver)
            index = print_expr(node.args[0])
            new = _reparse(f"{recv}[{index}]")
            replace_node(program, node, new)
            return program
    return None


@rewrite("replace_uninit_with_zero_init", FixKind.REPLACE,
         "MaybeUninit::uninit() → MaybeUninit::new(0)",
         needs=("path:uninit",))
def replace_uninit_with_zero_init(program):
    for node in walk(program):
        if _is_path_call(node, "uninit") and \
                node.func.segments[0] == "MaybeUninit":
            new = _reparse("MaybeUninit::new(0)")
            replace_node(program, node, new)
            return program
    return None


@rewrite("replace_static_mut_with_atomic", FixKind.REPLACE,
         "static mut counter → AtomicUsize with fetch_add/load",
         needs=("static mut",))
def replace_static_mut_with_atomic(program):
    target = None
    for item in program.items:
        if isinstance(item, ast.StaticItem) and item.mutable \
                and isinstance(item.ty, ty.TyInt):
            target = item
            break
    if target is None:
        return None
    init_src = print_expr(target.init)
    target.mutable = False
    target.ty = ty.TyPath("AtomicUsize", ())
    target.init = _reparse(f"AtomicUsize::new({init_src})")
    name = target.name
    # Rewrite `NAME += k` / `NAME -= k` / reads of NAME.
    changed = True
    while changed:
        changed = False
        for node in walk(program):
            if isinstance(node, ast.CompoundAssign) and \
                    isinstance(node.target, ast.PathExpr) and \
                    node.target.is_local and node.target.name == name:
                op = "fetch_add" if node.op == "+" else "fetch_sub"
                value_src = print_expr(node.value)
                new = _reparse(f"{name}.{op}({value_src}, Ordering::SeqCst)")
                replace_node(program, node, new)
                changed = True
                break
            if isinstance(node, ast.Assign) and \
                    isinstance(node.target, ast.PathExpr) and \
                    node.target.is_local and node.target.name == name:
                value_src = print_expr(node.value)
                new = _reparse(f"{name}.store({value_src}, Ordering::SeqCst)")
                replace_node(program, node, new)
                changed = True
                break
    # Bare reads of the static become .load(...) — find paths not already
    # receivers of an atomic method call.
    parents = ast.parent_map(program)
    for node in list(walk(program)):
        if isinstance(node, ast.PathExpr) and node.is_local \
                and node.name == name:
            parent = parents.get(node)
            if isinstance(parent, ast.MethodCall) and parent.receiver is node:
                continue
            if isinstance(parent, ast.StaticItem):
                continue
            new = _reparse(f"{name}.load(Ordering::SeqCst)")
            replace_node(program, node, new)
            parents = ast.parent_map(program)
    return program


@rewrite("replace_zeroed_ref_with_local", FixKind.REPLACE,
         "mem::zeroed::<&T>() → reference to a fresh zero local",
         needs=("path:zeroed",))
def replace_zeroed_ref_with_local(program):
    for node in walk(program):
        if _is_path_call(node, "zeroed") and node.func.generic_args:
            target = node.func.generic_args[0]
            if isinstance(target, ty.TyRef):
                location = containing_block(program, node)
                if location is None:
                    continue
                block, index = location
                zero_let = parse_program(
                    f"fn __t() {{ let __zeroed_default: {target.target} = 0; }}"
                ).fn("__t").body.stmts[0]
                block.stmts.insert(index, zero_let)
                replace_node(program, node, _reparse("&__zeroed_default"))
                return program
    return None


@rewrite("replace_deref_with_original_value", FixKind.REPLACE,
         "deref of int-forged pointer → the original variable",
         needs=("unary:&", "unary:&mut", "path:transmute"))
def replace_deref_with_original_value(program):
    """For `let addr = &x ... as usize; ... *(addr as *const T)` chains,
    use `x` directly instead of laundering the pointer through an integer."""
    for node in walk(program):
        if not (isinstance(node, ast.Unary) and node.op == "*"):
            continue
        operand = node.operand
        # *q where q: let q = addr as *const T
        chain_var = None
        if isinstance(operand, ast.PathExpr) and operand.is_local:
            let = _let_defining(program, operand.name)
            if let is not None and isinstance(let.init, ast.Cast):
                chain_var = let.init.expr
        elif isinstance(operand, ast.Cast):
            chain_var = operand.expr
        if chain_var is None or not isinstance(chain_var, ast.PathExpr):
            continue
        addr_let = _let_defining(program, chain_var.name)
        if addr_let is None or addr_let.init is None:
            continue
        origin = _original_place_of_addr(program, addr_let.init)
        if origin is None:
            continue
        replace_node(program, node, _reparse(origin))
        return program
    return None


def _original_place_of_addr(program, init: ast.Expr) -> str | None:
    """Trace `&x as *const T as usize` / transmute(&x) back to `x`."""
    init = _unwrap_unsafe(init)
    node = init
    while isinstance(node, ast.Cast):
        node = node.expr
    if isinstance(node, ast.Unary) and node.op in ("&", "&mut"):
        return print_expr(node.operand)
    if _is_path_call(node, "transmute") and node.args:
        inner = node.args[0]
        if isinstance(inner, ast.PathExpr) and inner.is_local:
            ref_let = _let_defining(program, inner.name)
            if ref_let is not None and isinstance(ref_let.init, ast.Unary) \
                    and ref_let.init.op in ("&", "&mut"):
                return print_expr(ref_let.init.operand)
        if isinstance(inner, ast.Unary) and inner.op in ("&", "&mut"):
            return print_expr(inner.operand)
    return None


# ===========================================================================
# ASSERT rules (assertion agent): guard the unsafe op with its precondition


@rewrite("guard_ptr_add_with_len_check", FixKind.ASSERT,
         "unsafe { *p.add(i) } → bounds-guarded access with safe fallback",
         needs=("method:add", "method:offset"))
def guard_ptr_add_with_len_check(program):
    for node in walk(program):
        if not (isinstance(node, ast.Block) and node.is_unsafe
                and node.tail is not None):
            continue
        tail = node.tail
        if not (isinstance(tail, ast.Unary) and tail.op == "*"):
            continue
        inner = tail.operand
        if not (isinstance(inner, ast.MethodCall)
                and inner.method in ("add", "offset") and inner.args):
            continue
        recv = inner.receiver
        if not (isinstance(recv, ast.PathExpr) and recv.is_local):
            continue
        ptr_let = _let_defining(program, recv.name)
        if ptr_let is None or ptr_let.init is None:
            continue
        source = _unwrap_unsafe(ptr_let.init)
        if not (isinstance(source, ast.MethodCall)
                and source.method in ("as_ptr", "as_mut_ptr")):
            continue
        container = print_expr(source.receiver)
        index = print_expr(inner.args[0])
        ptr = print_expr(recv)
        guarded = _reparse(
            f"if {index} < {container}.len() "
            f"{{ unsafe {{ *{ptr}.add({index}) }} }} else {{ 0 }}"
        )
        replace_node(program, node, guarded)
        return program
    return None


@rewrite("guard_index_with_len_check", FixKind.ASSERT,
         "v[i] with possibly-bad i → guarded access with safe fallback",
         needs=("node:Index",))
def guard_index_with_len_check(program):
    for node in walk(program):
        if not isinstance(node, ast.Index):
            continue
        if not (isinstance(node.obj, ast.PathExpr) and node.obj.is_local):
            continue
        if isinstance(node.index, ast.IntLit):
            continue  # constant in-range indexing is not the bug pattern
        container = print_expr(node.obj)
        index = print_expr(node.index)
        guarded = _reparse(
            f"if {index} < {container}.len() {{ {container}[{index}] }} "
            f"else {{ 0 }}"
        )
        replace_node(program, node, guarded)
        return program
    return None


@rewrite("guard_nonnull_before_deref", FixKind.ASSERT,
         "unsafe { *p } → null-guarded access with safe fallback",
         needs=("unary:*",))
def guard_nonnull_before_deref(program):
    for node in walk(program):
        if not (isinstance(node, ast.Block) and node.is_unsafe
                and node.tail is not None and not node.stmts):
            continue
        tail = node.tail
        if not (isinstance(tail, ast.Unary) and tail.op == "*"
                and isinstance(tail.operand, ast.PathExpr)):
            continue
        ptr = print_expr(tail.operand)
        guarded = _reparse(
            f"if !{ptr}.is_null() {{ unsafe {{ *{ptr} }} }} else {{ 0 }}")
        replace_node(program, node, guarded)
        return program
    return None


@rewrite("guard_alignment_before_cast_read", FixKind.ASSERT,
         "misaligned typed read → alignment-guarded with safe fallback",
         needs=("node:Cast",))
def guard_alignment_before_cast_read(program):
    for node in walk(program):
        if not (isinstance(node, ast.Block) and node.is_unsafe
                and node.tail is not None and not node.stmts):
            continue
        tail = node.tail
        if not (isinstance(tail, ast.Unary) and tail.op == "*"
                and isinstance(tail.operand, ast.PathExpr)):
            continue
        name = tail.operand.name
        let = _let_defining(program, name)
        if let is None:
            continue
        init = _unwrap_unsafe(let.init) if let.init else None
        if not (isinstance(init, ast.Cast)
                and isinstance(init.ty, ty.TyRawPtr)
                and isinstance(init.ty.target, ty.TyInt)):
            continue
        align = init.ty.target.bits // 8
        ptr = print_expr(tail.operand)
        guarded = _reparse(
            f"if {ptr} as usize % {align} == 0 "
            f"{{ unsafe {{ *{ptr} }} }} else {{ 0 }}"
        )
        replace_node(program, node, guarded)
        return program
    return None


@rewrite("guard_layout_nonzero", FixKind.ASSERT,
         "alloc with possibly-zero layout → size max(1) guard",
         needs=("path:from_size_align",))
def guard_layout_nonzero(program):
    for node in walk(program):
        if _is_path_call(node, "from_size_align") and node.args:
            size_arg = node.args[0]
            if isinstance(size_arg, ast.IntLit) and size_arg.value == 0:
                replace_node(program, size_arg, _reparse("1"))
                return program
            if not isinstance(size_arg, ast.IntLit):
                src = print_expr(size_arg)
                replace_node(program, size_arg, _reparse(f"{src}.max(1)"))
                return program
    return None


# ===========================================================================
# MODIFY rules (code-modification agent)


@rewrite("move_drop_after_last_use", FixKind.MODIFY,
         "move the drop/free so it happens after the last use",
         needs=("path:drop",))
def move_drop_after_last_use(program):
    main = program.fn("main")
    if main is None:
        return None
    block = main.body
    drop_index = None
    freed_name = None
    for index, stmt in enumerate(block.stmts):
        expr = stmt.expr if isinstance(stmt, ast.ExprStmt) else None
        expr = _unwrap_unsafe(expr) if expr is not None else None
        if isinstance(expr, ast.Block) and len(expr.stmts) == 1:
            inner = expr.stmts[0]
            expr = inner.expr if isinstance(inner, ast.ExprStmt) else expr
        if expr is not None and _is_path_call(expr, "drop"):
            drop_index = index
            freed = expr.args[0] if expr.args else None
            freed = _unwrap_unsafe(freed) if freed is not None else None
            if _is_path_call(freed, "from_raw") and freed.args:
                freed = freed.args[0]
            if isinstance(freed, ast.PathExpr):
                freed_name = freed.name
            break
    if drop_index is None:
        return None
    # Find the last statement that uses either the freed variable or any
    # pointer derived from it.
    derived = {freed_name} if freed_name else set()
    for stmt in block.stmts:
        if isinstance(stmt, ast.LetStmt) and stmt.init is not None:
            if any(isinstance(n, ast.PathExpr) and n.is_local
                   and n.name in derived for n in walk(stmt.init)):
                derived.add(stmt.name)
    last_use = drop_index
    for index in range(drop_index + 1, len(block.stmts)):
        if any(_stmt_uses_name(block.stmts[index], name) for name in derived):
            last_use = index
    if last_use == drop_index:
        return None
    stmt = block.stmts.pop(drop_index)
    block.stmts.insert(last_use, stmt)
    return program


@rewrite("remove_second_free", FixKind.MODIFY,
         "delete the duplicated drop/dealloc statement",
         needs=("path:drop", "path:dealloc"))
def remove_second_free(program):
    frees: list[ast.Stmt] = []
    for node in walk(program):
        if isinstance(node, ast.Block):
            for stmt in node.stmts:
                expr = stmt.expr if isinstance(stmt, ast.ExprStmt) else None
                if expr is None:
                    continue
                expr = _unwrap_unsafe(expr)
                if isinstance(expr, ast.Block) and len(expr.stmts) == 1 and \
                        isinstance(expr.stmts[0], ast.ExprStmt):
                    expr = expr.stmts[0].expr
                if _is_path_call(expr, "drop", "dealloc"):
                    frees.append(stmt)
    if len(frees) < 2:
        return None
    remove_stmt(program, frees[-1])
    return program


@rewrite("take_pointer_after_mutation", FixKind.MODIFY,
         "move as_ptr/as_mut_ptr below the last container mutation",
         needs=("method:push", "method:resize", "method:insert",
                "method:reserve", "method:extend", "method:remove"))
def take_pointer_after_mutation(program):
    main = program.fn("main")
    if main is None:
        return None
    block = main.body
    ptr_index = None
    container = None
    for index, stmt in enumerate(block.stmts):
        if isinstance(stmt, ast.LetStmt) and stmt.init is not None:
            init = _unwrap_unsafe(stmt.init)
            if isinstance(init, ast.MethodCall) and \
                    init.method in ("as_ptr", "as_mut_ptr") and \
                    isinstance(init.receiver, ast.PathExpr):
                ptr_index = index
                container = init.receiver.name
                break
    if ptr_index is None or container is None:
        return None
    mutators = ("push", "resize", "insert", "reserve", "extend", "remove")
    last_mutation = ptr_index
    for index in range(ptr_index + 1, len(block.stmts)):
        stmt = block.stmts[index]
        for node in walk(stmt):
            if isinstance(node, ast.MethodCall) and node.method in mutators \
                    and isinstance(node.receiver, ast.PathExpr) \
                    and node.receiver.name == container:
                last_mutation = index
    if last_mutation == ptr_index:
        return None
    stmt = block.stmts.pop(ptr_index)
    block.stmts.insert(last_mutation, stmt)
    return program


@rewrite("join_thread_before_access", FixKind.MODIFY,
         "move the join() so the parent's access is ordered after the child",
         needs=("method:join",))
def join_thread_before_access(program):
    main = program.fn("main")
    if main is None:
        return None
    block = main.body
    spawn_index = None
    join_index = None
    for index, stmt in enumerate(block.stmts):
        for node in walk(stmt):
            if _is_path_call(node, "spawn") and spawn_index is None:
                spawn_index = index
            if isinstance(node, ast.MethodCall) and node.method == "join":
                join_index = index
    if spawn_index is None or join_index is None:
        return None
    if join_index <= spawn_index + 1:
        return None
    stmt = block.stmts.pop(join_index)
    block.stmts.insert(spawn_index + 1, stmt)
    return program


@rewrite("add_missing_join", FixKind.MODIFY,
         "bind the spawn result and join it before main exits",
         needs=("path:spawn",))
def add_missing_join(program):
    main = program.fn("main")
    if main is None:
        return None
    block = main.body
    for index, stmt in enumerate(block.stmts):
        if not isinstance(stmt, ast.ExprStmt):
            continue
        expr = stmt.expr
        if _is_path_call(expr, "spawn"):
            spawn_src = print_expr(expr)
            replacement = parse_program(
                f"fn __t() {{ let __handle = {spawn_src}; }}"
            ).fn("__t").body.stmts[0]
            block.stmts[index] = replacement
            join_stmt = parse_program(
                "fn __t() { __handle.join(); }"
            ).fn("__t").body.stmts[0]
            block.stmts.append(join_stmt)
            return program
    return None


@rewrite("protect_with_mutex", FixKind.MODIFY,
         "static mut shared state → Mutex-protected static",
         needs=("static mut",))
def protect_with_mutex(program):
    target = None
    for item in program.items:
        if isinstance(item, ast.StaticItem) and item.mutable \
                and isinstance(item.ty, ty.TyInt):
            target = item
            break
    if target is None:
        return None
    inner_ty = target.ty
    init_src = print_expr(target.init)
    target.mutable = False
    target.ty = ty.TyPath("Mutex", (inner_ty,))
    target.init = _reparse(f"Mutex::new({init_src})")
    name = target.name
    changed = True
    while changed:
        changed = False
        for node in walk(program):
            if isinstance(node, ast.CompoundAssign) and \
                    isinstance(node.target, ast.PathExpr) and \
                    node.target.is_local and node.target.name == name:
                value_src = print_expr(node.value)
                new = _reparse(
                    f"{{ let mut __g = {name}.lock(); "
                    f"*__g {node.op}= {value_src}; drop(__g); }}"
                )
                replace_node(program, node, new)
                changed = True
                break
    parents = ast.parent_map(program)
    for node in list(walk(program)):
        if isinstance(node, ast.PathExpr) and node.is_local and node.name == name:
            parent = parents.get(node)
            if isinstance(parent, ast.MethodCall) and parent.receiver is node:
                continue
            if isinstance(parent, ast.StaticItem):
                continue
            new = _reparse(
                f"{{ let __g = {name}.lock(); let __v = *__g; "
                f"drop(__g); __v }}"
            )
            replace_node(program, node, new)
            parents = ast.parent_map(program)
    return program


@rewrite("write_before_assume_init", FixKind.MODIFY,
         "insert mu.write(0) before assume_init",
         needs=("method:assume_init",))
def write_before_assume_init(program):
    for node in walk(program):
        if isinstance(node, ast.MethodCall) and node.method == "assume_init":
            if not isinstance(node.receiver, ast.PathExpr):
                continue
            name = node.receiver.name
            let = _let_defining(program, name)
            if let is None:
                return None
            let.mutable = True
            write_stmt = parse_program(
                f"fn __t() {{ {name}.write(0); }}"
            ).fn("__t").body.stmts[0]
            if insert_before(program, node, write_stmt):
                return program
    return None


@rewrite("fix_dealloc_layout", FixKind.MODIFY,
         "dealloc with the same layout the allocation used",
         needs=("path:dealloc",))
def fix_dealloc_layout(program):
    alloc_layout_var = None
    for node in walk(program):
        if _is_path_call(node, "alloc", "alloc_zeroed") and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.PathExpr) and arg.is_local:
                alloc_layout_var = arg.name
    if alloc_layout_var is None:
        return None
    for node in walk(program):
        if _is_path_call(node, "dealloc") and len(node.args) == 2:
            layout_arg = node.args[1]
            if isinstance(layout_arg, ast.PathExpr) and \
                    layout_arg.name == alloc_layout_var:
                continue
            replace_node(program, layout_arg, _reparse(alloc_layout_var))
            return program
    return None


@rewrite("call_with_actual_signature", FixKind.MODIFY,
         "call the target function with its true argument list",
         needs=("path:transmute",))
def call_with_actual_signature(program):
    """For fn-pointer misuse: drop the transmute and pad/trim call args to
    the callee's real signature (extra args filled with 0)."""
    target_fn = None
    binding = None
    for call in _transmute_calls(program):
        generics = call.func.generic_args
        if len(generics) == 2 and isinstance(generics[0], ty.TyFn) and call.args:
            inner = call.args[0]
            if isinstance(inner, ast.PathExpr):
                target_fn = program.fn(inner.name)
                binding = call
                break
        if len(generics) == 2 and isinstance(generics[1], ty.TyFn) \
                and isinstance(generics[0], ty.TyInt):
            return None  # int→fn transmute has no recoverable target
    if target_fn is None or binding is None:
        return None
    # Locate the enclosing let BEFORE detaching the transmute call.
    parents = ast.parent_map(program)
    binding_let = None
    node = binding
    while node is not None:
        node = parents.get(node)
        if isinstance(node, ast.LetStmt):
            binding_let = node
            break
    replace_node(program, binding, _reparse(target_fn.name))
    if binding_let is None:
        return program
    binding_let.ty = None  # let inference pick up the real fn type
    fn_var = binding_let.name
    want = len(target_fn.params)
    for node in walk(program):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.PathExpr) \
                and node.func.is_local and node.func.name == fn_var:
            while len(node.args) > want:
                node.args.pop()
            while len(node.args) < want:
                node.args.append(ast.IntLit(0))
    return program


@rewrite("read_unaligned_instead", FixKind.MODIFY,
         "misaligned *p → p.read_unaligned()",
         needs=("node:Cast",))
def read_unaligned_instead(program):
    for node in walk(program):
        if not (isinstance(node, ast.Unary) and node.op == "*"):
            continue
        operand = node.operand
        if not (isinstance(operand, ast.PathExpr) and operand.is_local):
            continue
        let = _let_defining(program, operand.name)
        if let is None or let.init is None:
            continue
        init = _unwrap_unsafe(let.init)
        if not (isinstance(init, ast.Cast) and isinstance(init.ty, ty.TyRawPtr)):
            continue
        ptr = print_expr(operand)
        replace_node(program, node, _reparse(f"{ptr}.read_unaligned()"))
        return program
    return None


@rewrite("correct_tail_dispatch", FixKind.MODIFY,
         "dispatch the tail call through the correctly-typed function",
         needs=("path:transmute",))
def correct_tail_dispatch(program):
    """Tail-call misuse: a dispatcher returns `f(args)` through a transmuted
    pointer. Replace the laundered pointer with the real function."""
    for call in _transmute_calls(program):
        generics = call.func.generic_args
        if len(generics) == 2 and call.args and \
                isinstance(call.args[0], ast.PathExpr):
            inner = call.args[0]
            if program.fn(inner.name) is not None:
                replace_node(program, call, _reparse(inner.name))
                return program
    return None


@rewrite("saturating_arith_on_extreme", FixKind.REPLACE,
         "overflowing +/-/* near MAX/MIN → saturating_*",
         needs=("path:MAX", "path:MIN"))
def saturating_arith_on_extreme(program):
    extreme_vars = set()
    for node in walk(program):
        if isinstance(node, ast.LetStmt) and node.init is not None:
            init = node.init
            if isinstance(init, ast.PathExpr) and len(init.segments) == 2 \
                    and init.segments[1] in ("MAX", "MIN"):
                extreme_vars.add(node.name)
    for node in walk(program):
        if isinstance(node, ast.Binary) and node.op in ("+", "-", "*"):
            involves_extreme = any(
                (isinstance(side, ast.PathExpr) and side.is_local
                 and side.name in extreme_vars)
                or (isinstance(side, ast.PathExpr) and len(side.segments) == 2
                    and side.segments[1] in ("MAX", "MIN"))
                for side in (node.left, node.right)
            )
            if not involves_extreme:
                continue
            method = {"+": "saturating_add", "-": "saturating_sub",
                      "*": "saturating_mul"}[node.op]
            left = print_expr(node.left)
            right = print_expr(node.right)
            replace_node(program, node, _reparse(f"{left}.{method}({right})"))
            return program
    return None


@rewrite("guard_division_nonzero", FixKind.ASSERT,
         "a / b → zero-guarded division with safe fallback",
         needs=("binary:/", "binary:%"))
def guard_division_nonzero(program):
    for node in walk(program):
        if isinstance(node, ast.Binary) and node.op in ("/", "%"):
            if isinstance(node.right, ast.IntLit):
                continue  # literal divisors are either fine or intent
            left = print_expr(node.left)
            right = print_expr(node.right)
            op = node.op
            guarded = _reparse(
                f"if {right} != 0 {{ {left} {op} {right} }} else {{ 0 }}")
            replace_node(program, node, guarded)
            return program
    return None


@rewrite("replace_unwrap_with_unwrap_or", FixKind.REPLACE,
         "opt.unwrap() → opt.unwrap_or(0)",
         needs=("method:unwrap",))
def replace_unwrap_with_unwrap_or(program):
    for node in walk(program):
        if isinstance(node, ast.MethodCall) and node.method == "unwrap" \
                and not node.args:
            recv = node.receiver
            # Leave Layout::...unwrap() alone: that's a setup idiom, not UB.
            if isinstance(recv, ast.Call) and isinstance(recv.func, ast.PathExpr) \
                    and recv.func.segments[0] == "Layout":
                continue
            node.method = "unwrap_or"
            node.args.append(ast.IntLit(0))
            return program
    return None


@rewrite("mask_shift_amount", FixKind.MODIFY,
         "a << b → a << (b % BITS)",
         needs=("binary:<<", "binary:>>"))
def mask_shift_amount(program):
    for node in walk(program):
        if isinstance(node, ast.Binary) and node.op in ("<<", ">>"):
            if isinstance(node.right, ast.IntLit) and node.right.value < 32:
                continue
            left = print_expr(node.left)
            right = print_expr(node.right)
            masked = _reparse(f"{left} {node.op} ({right} % 32)")
            replace_node(program, node, masked)
            return program
    return None


@rewrite("read_owner_instead_of_raw", FixKind.MODIFY,
         "unsafe { *p } where p = &x as *T → read x directly",
         needs=("unary:&", "unary:&mut", "path:transmute"))
def read_owner_instead_of_raw(program):
    for node in walk(program):
        if not (isinstance(node, ast.Unary) and node.op == "*"):
            continue
        operand = node.operand
        if not (isinstance(operand, ast.PathExpr) and operand.is_local):
            continue
        let = _let_defining(program, operand.name)
        if let is None or let.init is None:
            continue
        origin = _original_place_of_addr(program, let.init)
        if origin is None:
            continue
        replace_node(program, node, _reparse(origin))
        return program
    return None


@rewrite("read_written_union_field", FixKind.MODIFY,
         "read the union field that was actually written",
         needs=("node:UnionItem",))
def read_written_union_field(program):
    writes: dict[str, str] = {}
    for node in walk(program):
        if isinstance(node, ast.LetStmt) and isinstance(node.init, ast.StructLit):
            lit = node.init
            if len(lit.fields) == 1:
                writes[node.name] = lit.fields[0][0]
    union_names = {
        item.name for item in program.items if isinstance(item, ast.UnionItem)
    }
    for node in walk(program):
        if isinstance(node, ast.FieldAccess) and \
                isinstance(node.obj, ast.PathExpr) and \
                node.obj.name in writes:
            let = _let_defining(program, node.obj.name)
            if let is None or not isinstance(let.init, ast.StructLit) \
                    or let.init.name not in union_names:
                continue
            written = writes[node.obj.name]
            if node.field != written:
                replace_node(
                    program, node,
                    _reparse(f"{node.obj.name}.{written}"))
                return program
    return None


@rewrite("write_zero_after_alloc", FixKind.MODIFY,
         "initialise freshly allocated heap memory before reading it",
         needs=("path:alloc", "path:alloc_zeroed"))
def write_zero_after_alloc(program):
    for node in walk(program):
        if not (isinstance(node, ast.LetStmt) and node.init is not None):
            continue
        init = node.init
        if isinstance(init, ast.Cast):
            inner = _unwrap_unsafe(init.expr)
        else:
            inner = _unwrap_unsafe(init)
        if not _is_path_call(inner, "alloc", "alloc_zeroed"):
            continue
        name = node.name
        location = containing_block(program, node)
        if location is None:
            continue
        block, index = location
        init_stmt = _parse_stmt(f"unsafe {{ *{name} = 0; }}")
        block.stmts.insert(index + 1, init_stmt)
        return program
    return None


@rewrite("shorten_shared_borrow", FixKind.MODIFY,
         "create the shared borrow only after the mutable write",
         needs=("unary:&",))
def shorten_shared_borrow(program):
    main = program.fn("main")
    if main is None:
        return None
    block = main.body
    shared_index, shared_var = None, None
    for index, stmt in enumerate(block.stmts):
        if isinstance(stmt, ast.LetStmt) and isinstance(stmt.init, ast.Unary) \
                and stmt.init.op == "&":
            shared_index, shared_var = index, stmt.name
    if shared_index is None:
        return None
    write_index = None
    for index in range(shared_index + 1, len(block.stmts)):
        stmt = block.stmts[index]
        if isinstance(stmt, ast.ExprStmt) and isinstance(
                stmt.expr, (ast.Assign, ast.CompoundAssign)):
            target = stmt.expr.target
            if isinstance(target, ast.Unary) and target.op == "*":
                write_index = index
    if write_index is None:
        return None
    stmt = block.stmts.pop(shared_index)
    block.stmts.insert(write_index, stmt)  # lands right after the write
    return program


@rewrite("hoist_write_before_shared", FixKind.MODIFY,
         "perform the mutable write before the shared borrow is created",
         needs=("unary:&",))
def hoist_write_before_shared(program):
    main = program.fn("main")
    if main is None:
        return None
    block = main.body
    shared_index = None
    for index, stmt in enumerate(block.stmts):
        if isinstance(stmt, ast.LetStmt) and isinstance(stmt.init, ast.Unary) \
                and stmt.init.op == "&":
            shared_index = index
            break
    if shared_index is None:
        return None
    write_index = None
    for index in range(shared_index + 1, len(block.stmts)):
        stmt = block.stmts[index]
        if isinstance(stmt, ast.ExprStmt) and isinstance(
                stmt.expr, (ast.Assign, ast.CompoundAssign)):
            target = stmt.expr.target
            if isinstance(target, ast.Unary) and target.op == "*":
                write_index = index
                break
    if write_index is None:
        return None
    stmt = block.stmts.pop(write_index)
    block.stmts.insert(shared_index, stmt)
    return program


@rewrite("hoist_raw_use_before_reborrow", FixKind.MODIFY,
         "use the raw pointer before the new borrow invalidates it",
         needs=("node:Cast", "method:as_ptr", "method:as_mut_ptr"))
def hoist_raw_use_before_reborrow(program):
    main = program.fn("main")
    if main is None:
        return None
    block = main.body
    raw_var = None
    raw_index = None
    for index, stmt in enumerate(block.stmts):
        if isinstance(stmt, ast.LetStmt) and stmt.init is not None:
            init = stmt.init
            if isinstance(init, ast.Cast) and isinstance(init.ty, ty.TyRawPtr):
                raw_var, raw_index = stmt.name, index
                break
            init = _unwrap_unsafe(init)
            if isinstance(init, ast.MethodCall) and \
                    init.method in ("as_ptr", "as_mut_ptr"):
                raw_var, raw_index = stmt.name, index
                break
    if raw_var is None:
        return None
    invalidate_index = None
    for index in range(raw_index + 1, len(block.stmts)):
        stmt = block.stmts[index]
        if isinstance(stmt, ast.LetStmt) and isinstance(stmt.init, ast.Unary) \
                and stmt.init.op in ("&mut", "&"):
            invalidate_index = index
            break
        if isinstance(stmt, ast.ExprStmt) and isinstance(
                stmt.expr, (ast.Assign, ast.CompoundAssign)):
            target = stmt.expr.target
            if isinstance(target, ast.PathExpr) or isinstance(target, ast.Index):
                invalidate_index = index
                break
    if invalidate_index is None:
        return None
    use_index = None
    for index in range(invalidate_index + 1, len(block.stmts)):
        if _stmt_uses_name(block.stmts[index], raw_var):
            use_index = index
            break
    if use_index is None:
        return None
    stmt = block.stmts.pop(use_index)
    block.stmts.insert(invalidate_index, stmt)
    return program


@rewrite("release_lock_before_relock", FixKind.MODIFY,
         "drop the first guard before taking the lock again",
         needs=("method:lock",))
def release_lock_before_relock(program):
    main = program.fn("main")
    if main is None:
        return None
    block = main.body
    first_guard = None
    for index, stmt in enumerate(block.stmts):
        if isinstance(stmt, ast.LetStmt) and stmt.init is not None:
            init = stmt.init
            if isinstance(init, ast.MethodCall) and init.method == "lock":
                if first_guard is None:
                    first_guard = (index, stmt.name)
                    continue
                drop_stmt = parse_program(
                    f"fn __t() {{ drop({first_guard[1]}); }}"
                ).fn("__t").body.stmts[0]
                block.stmts.insert(index, drop_stmt)
                return program
    return None


@rewrite("fix_call_arity", FixKind.MODIFY,
         "pad/trim a fn-pointer call to the target's real arity")
def fix_call_arity(program):
    for node in walk(program):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.PathExpr)
                and node.func.is_local):
            continue
        let = _let_defining(program, node.func.name)
        if let is None or not isinstance(let.init, ast.PathExpr):
            continue
        target = program.fn(let.init.name)
        if target is None:
            continue
        want = len(target.params)
        if len(node.args) == want:
            continue
        while len(node.args) > want:
            node.args.pop()
        while len(node.args) < want:
            node.args.append(ast.IntLit(1))
        let.ty = None
        return program
    return None


@rewrite("replace_int_fn_transmute_with_fn", FixKind.MODIFY,
         "int→fn transmute → a real function with the declared signature",
         needs=("path:transmute",))
def replace_int_fn_transmute_with_fn(program):
    for call in _transmute_calls(program):
        generics = call.func.generic_args
        if len(generics) != 2:
            continue
        src_ty, dst_ty = generics
        if not (isinstance(src_ty, ty.TyInt) and isinstance(dst_ty, ty.TyFn)):
            continue
        for item in program.functions():
            if item.name == "main":
                continue
            sig = ty.TyFn(tuple(p.ty for p in item.params),
                          item.ret or ty.UNIT, item.is_unsafe)
            if str(sig) == str(dst_ty):
                replace_node(program, call, _reparse(item.name))
                return program
    return None


@rewrite("store_valid_bool", FixKind.MODIFY,
         "writes of out-of-range byte into a bool location → write 1",
         needs=("node:Assign",))
def store_valid_bool(program):
    bool_raws = set()
    for node in walk(program):
        if isinstance(node, ast.LetStmt) and node.init is not None:
            init = node.init
            chain = init
            saw_bool_ptr = False
            while isinstance(chain, ast.Cast):
                if isinstance(chain.ty, ty.TyRawPtr) and \
                        isinstance(chain.ty.target, ty.TyBool):
                    saw_bool_ptr = True
                chain = chain.expr
            if saw_bool_ptr and isinstance(chain, ast.Unary):
                bool_raws.add(node.name)
    for node in walk(program):
        if isinstance(node, ast.Assign):
            target = node.target
            if isinstance(target, ast.Unary) and target.op == "*" and \
                    isinstance(target.operand, ast.PathExpr) and \
                    target.operand.name in bool_raws and \
                    isinstance(node.value, ast.IntLit) and \
                    node.value.value not in (0, 1):
                node.value.value = 1
                return program
    return None


# ===========================================================================
# HALLUCINATION rules — deliberately wrong edits


@rewrite("hallu_remove_unsafe_block", FixKind.HALLUCINATION,
         "delete an unsafe marker (breaks E0133)")
def hallu_remove_unsafe_block(program):
    for node in walk(program):
        if isinstance(node, ast.Block) and node.is_unsafe:
            node.is_unsafe = False
            return program
    return None


@rewrite("hallu_perturb_constant", FixKind.HALLUCINATION,
         "change an integer literal (silently breaks semantics)",
         needs=("node:IntLit",))
def hallu_perturb_constant(program):
    literals = [n for n in walk(program)
                if isinstance(n, ast.IntLit) and n.value not in (0, 1)]
    if not literals:
        literals = [n for n in walk(program) if isinstance(n, ast.IntLit)]
    if not literals:
        return None
    victim = literals[len(literals) // 2]
    victim.value = victim.value + 1
    return program


@rewrite("retouch_output_constant", FixKind.HALLUCINATION,
         "needless rewrite of a load-bearing constant near the fix",
         needs=("node:IntLit",))
def retouch_output_constant(program):
    """Perturb a literal that actually flows into observable behaviour
    (skips incidental helper statements): models regenerating a whole
    function routinely change such constants."""
    candidates: list[ast.IntLit] = []
    for node in walk(program):
        if not isinstance(node, ast.LetStmt) or node.init is None:
            continue
        if node.name.startswith(("aux_", "__")):
            continue
        for sub in walk(node.init):
            if isinstance(sub, ast.IntLit) and sub.value not in (0, 1):
                candidates.append(sub)
    if not candidates:
        return None
    victim = candidates[0]
    victim.value = victim.value + 1
    return program


@rewrite("hallu_delete_statement", FixKind.HALLUCINATION,
         "drop a statement (often removes a needed binding)")
def hallu_delete_statement(program):
    main = program.fn("main")
    if main is None or not main.body.stmts:
        return None
    index = len(main.body.stmts) // 2
    del main.body.stmts[index]
    return program


@rewrite("hallu_duplicate_statement", FixKind.HALLUCINATION,
         "duplicate a statement (double-frees, double-pushes, ...)")
def hallu_duplicate_statement(program):
    main = program.fn("main")
    if main is None or not main.body.stmts:
        return None
    index = len(main.body.stmts) - 1
    stmt = main.body.stmts[index]
    main.body.stmts.insert(index, clone(stmt))
    return program


HALLUCINATION_RULES = [r.name for r in rules_of_kind(FixKind.HALLUCINATION)]


# ===========================================================================
# Sloppy variants — the same repair idea executed with carelessly-chosen
# constants (wrong fallback value, wrong fill). They pass Miri but change
# observable behaviour: this is how low-semantic-fidelity models produce
# repairs that count for the *pass* metric but not the *exec* metric.


def _patch_int_literal(predicate):
    """Build a patch that flips the first matching IntLit after the base
    rule ran (e.g. a guard's `else { 0 }` fallback becomes `else { 1 }`).
    The parent map is built once, at the first literal: nothing writes to
    the tree before the patch returns."""
    def patch(program):
        parents = None
        for node in walk(program):
            if isinstance(node, ast.IntLit):
                if parents is None:
                    parents = ast.parent_map(program)
                if predicate(node, parents.get(node)):
                    node.value = 1 if node.value == 0 else node.value - 1
                    return program
        return program
    return patch


def _is_guard_fallback(lit: ast.IntLit, parent) -> bool:
    return (isinstance(parent, ast.Block) and parent.tail is lit
            and lit.value == 0)


def _is_zero_fill_arg(lit: ast.IntLit, parent) -> bool:
    if isinstance(parent, ast.MethodCall) and parent.method in (
            "resize", "unwrap_or") and lit.value == 0:
        return True
    if isinstance(parent, ast.Call) and isinstance(parent.func, ast.PathExpr) \
            and parent.func.segments[-1] == "new" and lit.value == 0:
        return True
    if isinstance(parent, ast.Assign) and parent.value is lit \
            and lit.value == 0:
        return True
    return False


def _patch_saturating_to_wrapping(program):
    for node in walk(program):
        if isinstance(node, ast.MethodCall) and \
                node.method.startswith("saturating_"):
            node.method = node.method.replace("saturating_", "wrapping_")
            return program
    return program


def _patch_shift_mask(program):
    parents = None
    for node in walk(program):
        if isinstance(node, ast.IntLit) and node.value == 32:
            if parents is None:
                parents = ast.parent_map(program)
            parent = parents.get(node)
            if isinstance(parent, ast.Binary) and parent.op == "%":
                node.value = 31
                return program
    return program


def _patch_bool_store(program):
    for node in walk(program):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.IntLit) \
                and node.value.value == 1:
            target = node.target
            if isinstance(target, ast.Unary) and target.op == "*":
                node.value.value = 0
                return program
    return program


_SLOPPY_PATCHES = {
    "guard_index_with_len_check": _patch_int_literal(_is_guard_fallback),
    "guard_division_nonzero": _patch_int_literal(_is_guard_fallback),
    "guard_nonnull_before_deref": _patch_int_literal(_is_guard_fallback),
    "guard_ptr_add_with_len_check": _patch_int_literal(_is_guard_fallback),
    "guard_alignment_before_cast_read": _patch_int_literal(_is_guard_fallback),
    "replace_uninit_with_zero_init": _patch_int_literal(_is_zero_fill_arg),
    "replace_set_len_with_resize": _patch_int_literal(_is_zero_fill_arg),
    "replace_unwrap_with_unwrap_or": _patch_int_literal(_is_zero_fill_arg),
    "write_before_assume_init": _patch_int_literal(_is_zero_fill_arg),
    "write_zero_after_alloc": _patch_int_literal(_is_zero_fill_arg),
    "saturating_arith_on_extreme": _patch_saturating_to_wrapping,
    "mask_shift_amount": _patch_shift_mask,
    "store_valid_bool": _patch_bool_store,
}


def _register_sloppy_variants() -> None:
    for base_name, patch in _SLOPPY_PATCHES.items():
        base = REGISTRY[base_name]

        def fn(program, _base=base, _patch=patch):
            transformed = _base.fn(program)
            if transformed is None:
                return None
            return _patch(transformed)

        name = f"sloppy_{base_name}"
        REGISTRY[name] = RewriteRule(
            name, base.kind,
            f"{base.description} — careless constants (semantics drift)",
            fn, base.needs,
        )


_register_sloppy_variants()

#: base rule name → sloppy variant name (used by the oracle's fidelity model).
SLOPPY_VARIANTS = {base: f"sloppy_{base}" for base in _SLOPPY_PATCHES}


# ---------------------------------------------------------------------------
# Utilities used by rules


def _strip_redundant_unsafe(program: ast.Program, inner: ast.Expr) -> None:
    """After replacing an unsafe op with a safe call, drop a now-pure
    `unsafe { ... }` wrapper if the replacement is its only content."""
    for node in walk(program):
        if isinstance(node, ast.Block) and node.is_unsafe \
                and not node.stmts and node.tail is inner:
            node.is_unsafe = False


def apply_rule(program: ast.Program, rule_name: str,
               tokens: frozenset[str] | None = None) -> ast.Program | None:
    """Apply a registry rule by name; returns the transformed clone or None.
    ``tokens``, when given, must be ``program``'s :func:`trigger_tokens`."""
    rule = REGISTRY.get(rule_name)
    if rule is None:
        return None
    return rule.apply(program, tokens)


def applicable_rules(program: ast.Program,
                     kinds: tuple[FixKind, ...] = (FixKind.REPLACE,
                                                   FixKind.ASSERT,
                                                   FixKind.MODIFY),
                     ) -> list[str]:
    """Names of all rules whose pattern occurs in ``program``."""
    names = []
    for rule in REGISTRY.values():
        if rule.kind not in kinds:
            continue
        if rule.apply(program) is not None:
            names.append(rule.name)
    return names
