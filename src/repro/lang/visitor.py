"""Visitor and transformer infrastructure over the mini-Rust AST.

Rewrite rules need to (a) find nodes matching a predicate and (b) replace a
node wherever it sits in its parent (attribute, list element, or tuple
element). :func:`replace_node` performs the surgical replacement; the pruning
algorithm and feature extraction use :func:`collect`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from . import ast_nodes as ast


def collect(root: ast.Node, predicate: Callable[[ast.Node], bool]) -> list[ast.Node]:
    """All descendants (including ``root``) for which ``predicate`` holds."""
    return [node for node in ast.walk(root) if predicate(node)]


def find_first(root: ast.Node, predicate: Callable[[ast.Node], bool]) -> ast.Node | None:
    for node in ast.walk(root):
        if predicate(node):
            return node
    return None


def iter_with_parents(
    root: ast.Node, parent: ast.Node | None = None
) -> Iterator[tuple[ast.Node, ast.Node | None]]:
    """Yield ``(node, parent)`` pairs in pre-order."""
    yield root, parent
    for value in vars(root).values():
        if isinstance(value, ast.Node):
            yield from iter_with_parents(value, root)
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, ast.Node):
                    yield from iter_with_parents(item, root)
                elif isinstance(item, tuple):
                    for sub in item:
                        if isinstance(sub, ast.Node):
                            yield from iter_with_parents(sub, root)


def replace_node(root: ast.Node, target_id: int, replacement: ast.Node) -> bool:
    """Replace the node with ``node_id == target_id`` inside ``root``.

    Returns True when a replacement happened. Handles nodes stored directly in
    attributes, in lists, and in ``(name, node)`` tuples inside lists.
    """
    for node in ast.walk(root):
        for attr, value in vars(node).items():
            if isinstance(value, ast.Node) and value.node_id == target_id:
                setattr(node, attr, replacement)
                return True
            if isinstance(value, list):
                for index, item in enumerate(value):
                    if isinstance(item, ast.Node) and item.node_id == target_id:
                        value[index] = replacement
                        return True
                    if isinstance(item, tuple):
                        for tup_idx, sub in enumerate(item):
                            if isinstance(sub, ast.Node) and sub.node_id == target_id:
                                new_tuple = list(item)
                                new_tuple[tup_idx] = replacement
                                value[index] = tuple(new_tuple)
                                return True
    return False


def remove_stmt(root: ast.Node, target_id: int) -> bool:
    """Remove a statement by node id from whichever block holds it."""
    for node in ast.walk(root):
        if isinstance(node, ast.Block):
            for index, stmt in enumerate(node.stmts):
                if stmt.node_id == target_id:
                    del node.stmts[index]
                    return True
    return False


def containing_block(root: ast.Node, target_id: int) -> tuple[ast.Block, int] | None:
    """Find the block and statement index whose subtree contains ``target_id``.

    Returns the *innermost* such block, so an inserted assertion lands right
    next to the offending statement.
    """
    best: tuple[ast.Block, int] | None = None
    for node in ast.walk(root):
        if not isinstance(node, ast.Block):
            continue
        for index, stmt in enumerate(node.stmts):
            if any(n.node_id == target_id for n in ast.walk(stmt)):
                best = (node, index)
        if node.tail is not None and any(
            n.node_id == target_id for n in ast.walk(node.tail)
        ):
            best = (node, len(node.stmts))
    return best


def insert_before(root: ast.Node, target_id: int, new_stmt: ast.Stmt) -> bool:
    """Insert ``new_stmt`` immediately before the statement containing the node."""
    location = containing_block(root, target_id)
    if location is None:
        return False
    block, index = location
    block.stmts.insert(index, new_stmt)
    return True
