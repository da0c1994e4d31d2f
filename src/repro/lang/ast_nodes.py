"""AST node definitions for the mini-Rust subset.

Nodes are plain mutable dataclasses (agents rewrite trees in place or via
:func:`clone`). Every node carries a :class:`~repro.lang.span.Span` pointing
at the original source so diagnostics and knowledge-base entries can reference
locations.

Where a node keeps its children is decided here and nowhere else.  Each
node class has one table of the fields that can hold child nodes, derived
from its field annotations when this module loads: a field holds children
when its declared type names a node class, as in ``Expr``, ``Expr | None``,
``list[Stmt]`` or ``list[tuple[str, Expr]]``.  :func:`children`,
:func:`walk`, :func:`parent_map`, :func:`clone` and :func:`replace_node`
read that table; no other module scans a node's fields.

Nodes are addressed by identity: every class is declared with
``eq=False``, so ``==`` between nodes means ``is`` and a node hashes by
identity.  Rewrite rules name the node they act on by the object itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field, fields as dc_fields

from .span import DUMMY_SPAN, Span
from .types import Ty


@dataclass(eq=False)
class Node:
    span: Span = dc_field(default=DUMMY_SPAN, kw_only=True)

    #: ``(name, shape)`` of each child field in declaration order, and the
    #: names of the other list fields; set per class by _derive_tables().
    _child_fields = ()
    _list_fields = ()


# ---------------------------------------------------------------------------
# Expressions


@dataclass(eq=False)
class Expr(Node):
    pass


@dataclass(eq=False)
class IntLit(Expr):
    value: int = 0
    suffix: str | None = None  # "i32", "usize", ... when written explicitly


@dataclass(eq=False)
class BoolLit(Expr):
    value: bool = False


@dataclass(eq=False)
class CharLit(Expr):
    value: str = "\0"


@dataclass(eq=False)
class StrLit(Expr):
    value: str = ""


@dataclass(eq=False)
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


@dataclass(eq=False)
class Unary(Expr):
    op: str = "-"  # '-', '!', '*' (deref), '&', '&mut'
    operand: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass(eq=False)
class Binary(Expr):
    op: str = "+"
    left: Expr = dc_field(default_factory=lambda: IntLit(0))
    right: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass(eq=False)
class Assign(Expr):
    target: Expr = dc_field(default_factory=lambda: PathExpr(["_"]))
    value: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass(eq=False)
class CompoundAssign(Expr):
    op: str = "+"
    target: Expr = dc_field(default_factory=lambda: PathExpr(["_"]))
    value: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass(eq=False)
class Call(Expr):
    func: Expr = dc_field(default_factory=lambda: PathExpr(["_"]))
    args: list[Expr] = dc_field(default_factory=list)


@dataclass(eq=False)
class MethodCall(Expr):
    receiver: Expr = dc_field(default_factory=lambda: PathExpr(["_"]))
    method: str = ""
    generic_args: list[Ty] = dc_field(default_factory=list)
    args: list[Expr] = dc_field(default_factory=list)


@dataclass(eq=False)
class FieldAccess(Expr):
    obj: Expr = dc_field(default_factory=lambda: PathExpr(["_"]))
    field: str = ""  # also tuple indices: "0", "1", ...


@dataclass(eq=False)
class Index(Expr):
    obj: Expr = dc_field(default_factory=lambda: PathExpr(["_"]))
    index: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass(eq=False)
class Cast(Expr):
    expr: Expr = dc_field(default_factory=lambda: IntLit(0))
    ty: Ty | None = None


@dataclass(eq=False)
class Block(Expr):
    stmts: list["Stmt"] = dc_field(default_factory=list)
    tail: Expr | None = None  # trailing expression without semicolon
    is_unsafe: bool = False


@dataclass(eq=False)
class IfExpr(Expr):
    cond: Expr = dc_field(default_factory=lambda: BoolLit(True))
    then_block: Block = dc_field(default_factory=Block)
    else_block: Expr | None = None  # Block or nested IfExpr


@dataclass(eq=False)
class WhileExpr(Expr):
    cond: Expr = dc_field(default_factory=lambda: BoolLit(False))
    body: Block = dc_field(default_factory=Block)


@dataclass(eq=False)
class LoopExpr(Expr):
    body: Block = dc_field(default_factory=Block)


@dataclass(eq=False)
class ForExpr(Expr):
    var: str = "_"
    iterable: Expr = dc_field(default_factory=lambda: IntLit(0))
    body: Block = dc_field(default_factory=Block)


@dataclass(eq=False)
class RangeExpr(Expr):
    lo: Expr | None = None
    hi: Expr | None = None
    inclusive: bool = False


@dataclass(eq=False)
class TupleLit(Expr):
    elems: list[Expr] = dc_field(default_factory=list)


@dataclass(eq=False)
class ArrayLit(Expr):
    elems: list[Expr] = dc_field(default_factory=list)


@dataclass(eq=False)
class ArrayRepeat(Expr):
    elem: Expr = dc_field(default_factory=lambda: IntLit(0))
    count: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass(eq=False)
class StructLit(Expr):
    name: str = ""
    fields: list[tuple[str, Expr]] = dc_field(default_factory=list)


@dataclass(eq=False)
class MacroCall(Expr):
    """``assert!``, ``assert_eq!``, ``println!``, ``vec!``, ``panic!`` ..."""

    name: str = ""
    args: list[Expr] = dc_field(default_factory=list)


@dataclass(eq=False)
class Closure(Expr):
    params: list[str] = dc_field(default_factory=list)
    body: Expr = dc_field(default_factory=Block)
    is_move: bool = False


@dataclass(eq=False)
class ReturnExpr(Expr):
    value: Expr | None = None


@dataclass(eq=False)
class BreakExpr(Expr):
    value: Expr | None = None


@dataclass(eq=False)
class ContinueExpr(Expr):
    pass


# ---------------------------------------------------------------------------
# Statements


@dataclass(eq=False)
class Stmt(Node):
    pass


@dataclass(eq=False)
class LetStmt(Stmt):
    name: str = "_"
    mutable: bool = False
    ty: Ty | None = None
    init: Expr | None = None


@dataclass(eq=False)
class ExprStmt(Stmt):
    expr: Expr = dc_field(default_factory=lambda: IntLit(0))
    has_semi: bool = True


# ---------------------------------------------------------------------------
# Items


@dataclass(eq=False)
class Item(Node):
    pass


@dataclass(eq=False)
class Param(Node):
    name: str = "_"
    ty: Ty | None = None
    mutable: bool = False


@dataclass(eq=False)
class FnItem(Item):
    name: str = ""
    params: list[Param] = dc_field(default_factory=list)
    ret: Ty | None = None  # None means unit
    body: Block = dc_field(default_factory=Block)
    is_unsafe: bool = False


@dataclass(eq=False)
class StaticItem(Item):
    name: str = ""
    ty: Ty | None = None
    init: Expr = dc_field(default_factory=lambda: IntLit(0))
    mutable: bool = False


@dataclass(eq=False)
class ConstItem(Item):
    name: str = ""
    ty: Ty | None = None
    init: Expr = dc_field(default_factory=lambda: IntLit(0))


@dataclass(eq=False)
class StructItem(Item):
    name: str = ""
    fields: list[tuple[str, Ty]] = dc_field(default_factory=list)


@dataclass(eq=False)
class UnionItem(Item):
    name: str = ""
    fields: list[tuple[str, Ty]] = dc_field(default_factory=list)


@dataclass(eq=False)
class UseItem(Item):
    path: str = ""


@dataclass(eq=False)
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


# ---------------------------------------------------------------------------
# The child table, and every traversal that reads it

#: Shapes of a child field: one node (or None), a list of nodes, or a list
#: of ``(name, node)`` pairs.
_ONE, _LIST, _PAIRS = "one", "list", "pairs"


def _derive_tables() -> None:
    """Give every node class its child table, read from the annotation
    strings.  Declared types, not field values, decide: a span is a
    NamedTuple, which a scan of values would have to tell apart from a
    container by exact type so as not to iterate it as four ints."""
    classes = [value for value in globals().values()
               if isinstance(value, type) and issubclass(value, Node)]
    node_names = {cls.__name__ for cls in classes}
    for cls in classes:
        child_fields, list_fields = [], []
        for field in dc_fields(cls):
            annotation = field.type
            if not node_names.intersection(re.findall(r"\w+", annotation)):
                if annotation.startswith("list["):
                    list_fields.append(field.name)
            elif annotation.startswith("list[tuple["):
                child_fields.append((field.name, _PAIRS))
            elif annotation.startswith("list["):
                child_fields.append((field.name, _LIST))
            else:
                child_fields.append((field.name, _ONE))
        cls._child_fields = tuple(child_fields)
        cls._list_fields = tuple(list_fields)


_derive_tables()


def children(node: Node) -> list[Node]:
    """The child nodes of ``node`` in field order: direct children, list
    items, and the node half of ``(name, node)`` pairs."""
    found: list[Node] = []
    fields = node.__dict__
    for name, shape in node._child_fields:
        value = fields[name]
        if shape is _ONE:
            if value is not None:
                found.append(value)
        elif shape is _LIST:
            found.extend(value)
        else:
            found.extend([child for _name, child in value])
    return found


def walk(node: Node):
    """Yield ``node`` and every AST descendant, pre-order.

    Children come in :func:`children` order; rules act on the first match
    they meet, so that order is part of every rewrite's meaning.
    Iterative with an explicit stack: every rewrite probe, pruning pass
    and fingerprint traverses with this, and nested ``yield from`` frames
    dominated it.
    """
    stack = [node]
    pop = stack.pop
    extend = stack.extend
    while stack:
        current = pop()
        yield current
        below = children(current)
        if below:
            below.reverse()
            extend(below)


def parent_map(root: Node) -> dict[Node, Node]:
    """Map each node under ``root`` to its parent node."""
    parents: dict[Node, Node] = {}
    for node in walk(root):
        for child in children(node):
            parents[child] = node
    return parents


def clone(node):
    """Deep-copy an AST (or list of ASTs).

    Every field is copied: child fields are cloned node by node, and every
    other list field is copied, so edits to a clone's lists (rules append
    to ``args`` and insert into ``stmts``) never reach its source.  Spans,
    types and literals are immutable and shared.  Hand-rolled rather than
    :func:`copy.deepcopy`: the rewrite engine clones on every candidate
    patch and deepcopy's memo machinery was the single hottest call in a
    cold campaign.
    """
    if isinstance(node, Node):
        return _clone_node(node)
    return [_clone_node(item) for item in node]


def _clone_node(node):
    new = object.__new__(type(node))
    fields = new.__dict__
    fields.update(node.__dict__)
    for name, shape in node._child_fields:
        value = fields[name]
        if shape is _ONE:
            if value is not None:
                fields[name] = _clone_node(value)
        elif shape is _LIST:
            fields[name] = [_clone_node(item) for item in value]
        else:
            fields[name] = [(key, _clone_node(item)) for key, item in value]
    for name in node._list_fields:
        fields[name] = fields[name][:]
    return new


def replace_node(root: Node, target: Node, replacement: Node) -> bool:
    """Put ``replacement`` in the first slot under ``root``, in
    :func:`walk` order, that holds ``target`` itself: a field, a list
    item, or the node half of a ``(name, node)`` pair.

    Returns True when a replacement happened.
    """
    for node in walk(root):
        fields = node.__dict__
        for name, shape in node._child_fields:
            value = fields[name]
            if shape is _ONE:
                if value is target:
                    fields[name] = replacement
                    return True
            elif shape is _LIST:
                for index, item in enumerate(value):
                    if item is target:
                        value[index] = replacement
                        return True
            else:
                for index, (key, item) in enumerate(value):
                    if item is target:
                        value[index] = (key, replacement)
                        return True
    return False
