"""AST node definitions for the mini-Rust subset.

Nodes are plain mutable dataclasses (agents rewrite trees in place or via
:func:`clone`). Every node carries a :class:`~repro.lang.span.Span` pointing
at the original source so diagnostics and knowledge-base entries can reference
locations, and a ``node_id`` that is unique within a parse, which the AST
pruning algorithm and the rewrite engine use to address nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .span import DUMMY_SPAN, Span
from .types import Ty

_NODE_COUNTER = itertools.count(1)


def _next_id() -> int:
    return next(_NODE_COUNTER)


@dataclass
class Node:
    span: Span = dc_field(default=DUMMY_SPAN, kw_only=True)
    node_id: int = dc_field(default_factory=_next_id, kw_only=True)


def clone(node):
    """Deep-copy an AST (or list of ASTs), assigning fresh node ids.

    Hand-rolled rather than :func:`copy.deepcopy`: ASTs are trees of
    dataclasses whose non-node fields (spans, types, literals) are frozen
    or scalar, so they are shared instead of copied — the rewrite engine
    clones on every candidate patch and deepcopy's memo machinery was the
    single hottest call in a cold campaign.
    """
    if isinstance(node, Node):
        return _clone_node(node)
    return [_clone_node(item) for item in node]


def _clone_node(node):
    new = object.__new__(type(node))
    fields = new.__dict__
    for key, value in node.__dict__.items():
        if isinstance(value, Node):
            fields[key] = _clone_node(value)
        elif type(value) is list:
            fields[key] = [_clone_child(item) for item in value]
        elif type(value) is tuple:
            fields[key] = tuple(_clone_child(item) for item in value)
        else:
            fields[key] = value
    fields["node_id"] = _next_id()
    return new


def _clone_child(item):
    if isinstance(item, Node):
        return _clone_node(item)
    if type(item) is tuple:
        return tuple(_clone_child(sub) for sub in item)
    if type(item) is list:
        return [_clone_child(sub) for sub in item]
    return item


def walk(node: "Node"):
    """Yield ``node`` and every AST descendant, pre-order.

    Handles plain child nodes, lists of nodes, and lists of tuples that
    contain nodes (e.g. ``StructLit.fields`` is ``list[tuple[str, Expr]]``).
    Iterative with an explicit stack: every rewrite probe, pruning pass,
    and fingerprint traverses with this, and nested ``yield from`` frames
    dominated it.
    """
    stack = [node]
    pop = stack.pop
    while stack:
        current = pop()
        yield current
        children = []
        append = children.append
        for value in vars(current).values():
            if isinstance(value, Node):
                append(value)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Node):
                        append(item)
                    elif isinstance(item, tuple):
                        for sub in item:
                            if isinstance(sub, Node):
                                append(sub)
        if children:
            children.reverse()
            stack.extend(children)


# ---------------------------------------------------------------------------
# Expressions


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int = 0
    suffix: str | None = None  # "i32", "usize", ... when written explicitly


@dataclass
class BoolLit(Expr):
    value: bool = False


@dataclass
class CharLit(Expr):
    value: str = "\0"


@dataclass
class StrLit(Expr):
    value: str = ""


@dataclass
class PathExpr(Expr):
    """A (possibly qualified) path: ``x``, ``std::mem::transmute``,
    ``u32::from_le_bytes``; turbofish generic args are kept on the path."""

    segments: list[str] = dc_field(default_factory=list)
    generic_args: list[Ty] = dc_field(default_factory=list)

    @property
    def is_local(self) -> bool:
        return len(self.segments) == 1 and not self.generic_args

    @property
    def name(self) -> str:
        return self.segments[-1]

    @property
    def full(self) -> str:
        return "::".join(self.segments)


@dataclass
class Unary(Expr):
    op: str = "-"  # '-', '!', '*' (deref), '&', '&mut'
    operand: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass
class Binary(Expr):
    op: str = "+"
    left: Expr = dc_field(default_factory=lambda: IntLit(0))
    right: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass
class Assign(Expr):
    target: Expr = dc_field(default_factory=lambda: PathExpr(["_"]))
    value: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass
class CompoundAssign(Expr):
    op: str = "+"
    target: Expr = dc_field(default_factory=lambda: PathExpr(["_"]))
    value: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass
class Call(Expr):
    func: Expr = dc_field(default_factory=lambda: PathExpr(["_"]))
    args: list[Expr] = dc_field(default_factory=list)


@dataclass
class MethodCall(Expr):
    receiver: Expr = dc_field(default_factory=lambda: PathExpr(["_"]))
    method: str = ""
    generic_args: list[Ty] = dc_field(default_factory=list)
    args: list[Expr] = dc_field(default_factory=list)


@dataclass
class FieldAccess(Expr):
    obj: Expr = dc_field(default_factory=lambda: PathExpr(["_"]))
    field: str = ""  # also tuple indices: "0", "1", ...


@dataclass
class Index(Expr):
    obj: Expr = dc_field(default_factory=lambda: PathExpr(["_"]))
    index: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass
class Cast(Expr):
    expr: Expr = dc_field(default_factory=lambda: IntLit(0))
    ty: Ty | None = None


@dataclass
class Block(Expr):
    stmts: list["Stmt"] = dc_field(default_factory=list)
    tail: Expr | None = None  # trailing expression without semicolon
    is_unsafe: bool = False


@dataclass
class IfExpr(Expr):
    cond: Expr = dc_field(default_factory=lambda: BoolLit(True))
    then_block: Block = dc_field(default_factory=Block)
    else_block: Expr | None = None  # Block or nested IfExpr


@dataclass
class WhileExpr(Expr):
    cond: Expr = dc_field(default_factory=lambda: BoolLit(False))
    body: Block = dc_field(default_factory=Block)


@dataclass
class LoopExpr(Expr):
    body: Block = dc_field(default_factory=Block)


@dataclass
class ForExpr(Expr):
    var: str = "_"
    iterable: Expr = dc_field(default_factory=lambda: IntLit(0))
    body: Block = dc_field(default_factory=Block)


@dataclass
class RangeExpr(Expr):
    lo: Expr | None = None
    hi: Expr | None = None
    inclusive: bool = False


@dataclass
class TupleLit(Expr):
    elems: list[Expr] = dc_field(default_factory=list)


@dataclass
class ArrayLit(Expr):
    elems: list[Expr] = dc_field(default_factory=list)


@dataclass
class ArrayRepeat(Expr):
    elem: Expr = dc_field(default_factory=lambda: IntLit(0))
    count: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass
class StructLit(Expr):
    name: str = ""
    fields: list[tuple[str, Expr]] = dc_field(default_factory=list)


@dataclass
class MacroCall(Expr):
    """``assert!``, ``assert_eq!``, ``println!``, ``vec!``, ``panic!`` ..."""

    name: str = ""
    args: list[Expr] = dc_field(default_factory=list)


@dataclass
class Closure(Expr):
    params: list[str] = dc_field(default_factory=list)
    body: Expr = dc_field(default_factory=Block)
    is_move: bool = False


@dataclass
class ReturnExpr(Expr):
    value: Expr | None = None


@dataclass
class BreakExpr(Expr):
    value: Expr | None = None


@dataclass
class ContinueExpr(Expr):
    pass


# ---------------------------------------------------------------------------
# Statements


@dataclass
class Stmt(Node):
    pass


@dataclass
class LetStmt(Stmt):
    name: str = "_"
    mutable: bool = False
    ty: Ty | None = None
    init: Expr | None = None


@dataclass
class ExprStmt(Stmt):
    expr: Expr = dc_field(default_factory=lambda: IntLit(0))
    has_semi: bool = True


# ---------------------------------------------------------------------------
# Items


@dataclass
class Item(Node):
    pass


@dataclass
class Param(Node):
    name: str = "_"
    ty: Ty | None = None
    mutable: bool = False


@dataclass
class FnItem(Item):
    name: str = ""
    params: list[Param] = dc_field(default_factory=list)
    ret: Ty | None = None  # None means unit
    body: Block = dc_field(default_factory=Block)
    is_unsafe: bool = False


@dataclass
class StaticItem(Item):
    name: str = ""
    ty: Ty | None = None
    init: Expr = dc_field(default_factory=lambda: IntLit(0))
    mutable: bool = False


@dataclass
class ConstItem(Item):
    name: str = ""
    ty: Ty | None = None
    init: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass
class StructItem(Item):
    name: str = ""
    fields: list[tuple[str, Ty]] = dc_field(default_factory=list)


@dataclass
class UnionItem(Item):
    name: str = ""
    fields: list[tuple[str, Ty]] = dc_field(default_factory=list)


@dataclass
class UseItem(Item):
    path: str = ""


@dataclass
class Program(Node):
    items: list[Item] = dc_field(default_factory=list)

    def fn(self, name: str) -> FnItem | None:
        """Look up a function item by name."""
        for item in self.items:
            if isinstance(item, FnItem) and item.name == name:
                return item
        return None

    def functions(self) -> list[FnItem]:
        return [i for i in self.items if isinstance(i, FnItem)]

    def find(self, node_id: int) -> Node | None:
        """Locate a node by id anywhere in the program."""
        for node in walk(self):
            if node.node_id == node_id:
                return node
        return None


def parent_map(root: Node) -> dict[int, Node]:
    """Map each node's ``node_id`` to its parent node."""
    parents: dict[int, Node] = {}
    for node in walk(root):
        for value in vars(node).values():
            children = []
            if isinstance(value, Node):
                children = [value]
            elif isinstance(value, (list, tuple)):
                children = [v for v in value if isinstance(v, Node)]
            for child in children:
                parents[child.node_id] = node
    return parents
