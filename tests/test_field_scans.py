"""Only ``lang/ast_nodes.py`` knows where a node keeps its children.

Every traversal reads the child table in :mod:`repro.lang.ast_nodes`
(``children``, ``walk``, ``parent_map``, ``clone``, ``replace_node``).  A
module of the language, checker, repair, detector, corpus or baseline
layers that calls ``vars()`` or reads ``__dict__`` is hand-coding that
knowledge again, so the scan below names each such call.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
LAYERS = ("lang", "check", "core", "miri", "corpus", "baselines")
TABLE_MODULE = SRC / "lang" / "ast_nodes.py"


def field_scans(path: pathlib.Path) -> list[int]:
    """Lines of ``path`` that call ``vars()`` or read ``__dict__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "vars":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__":
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_flags_vars_and_dict_reads(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def f(node):\n"
                      "    fields = node.__dict__\n"
                      "    return [v for v in vars(node).values()]\n"
                      "def g(node):\n"
                      "    return node.vars, node.dict\n")
    assert field_scans(module) == [2, 3]


def test_only_the_table_module_scans_node_fields():
    found = [f"{path.relative_to(SRC)}:{line}"
             for layer in LAYERS
             for path in sorted((SRC / layer).rglob("*.py"))
             if path != TABLE_MODULE
             for line in field_scans(path)]
    assert not found, "field scans outside lang/ast_nodes.py:\n" + \
        "\n".join(found)
