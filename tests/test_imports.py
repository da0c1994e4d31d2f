"""No module under ``src/repro`` imports a name it never uses.

A name counts as used when it appears as a name node anywhere in the
module (attribute bases and annotations included) or is listed in
``__all__``.  Package ``__init__`` modules are skipped: they import names
in order to re-export them.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _exported(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(elt.value for elt in getattr(node.value, "elts", ())
                         if isinstance(elt, ast.Constant))
    return names


def unused_imports(path: pathlib.Path) -> list[tuple[int, str]]:
    """``(line, name)`` of each name ``path`` imports and never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from __future__ import annotations\n"
                      "import os, sys as system\n"
                      "from json import dumps, loads\n"
                      "__all__ = ['loads']\n"
                      "def f(x: os.PathLike):\n"
                      "    return system.argv\n")
    assert unused_imports(module) == [(3, "dumps")]


def test_no_unused_imports_under_src():
    found = [f"{path.relative_to(SRC.parent)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path)]
    assert not found, "unused imports:\n" + "\n".join(found)
