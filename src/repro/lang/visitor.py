"""Statement-level edits over the mini-Rust AST.

Rewrite rules address a node by the object itself.  Replacing a node in
whatever slot holds it is :func:`~repro.lang.ast_nodes.replace_node`, next
to the child table it reads; the helpers here move whole statements:
remove one, or insert a new one before the statement that contains a node.
"""

from __future__ import annotations

from . import ast_nodes as ast


def remove_stmt(root: ast.Node, target: ast.Stmt) -> bool:
    """Remove the statement ``target`` from whichever block holds it."""
    for node in ast.walk(root):
        if isinstance(node, ast.Block):
            for index, stmt in enumerate(node.stmts):
                if stmt is target:
                    del node.stmts[index]
                    return True
    return False


def containing_block(root: ast.Node,
                     target: ast.Node) -> tuple[ast.Block, int] | None:
    """Find the block and statement index whose subtree contains ``target``.

    Returns the *innermost* such block, so an inserted assertion lands right
    next to the offending statement.
    """
    best: tuple[ast.Block, int] | None = None
    for node in ast.walk(root):
        if not isinstance(node, ast.Block):
            continue
        for index, stmt in enumerate(node.stmts):
            if any(n is target for n in ast.walk(stmt)):
                best = (node, index)
        if node.tail is not None and any(
            n is target for n in ast.walk(node.tail)
        ):
            best = (node, len(node.stmts))
    return best


def insert_before(root: ast.Node, target: ast.Node,
                  new_stmt: ast.Stmt) -> bool:
    """Insert ``new_stmt`` immediately before the statement containing
    ``target``."""
    location = containing_block(root, target)
    if location is None:
        return False
    block, index = location
    block.stmts.insert(index, new_stmt)
    return True
