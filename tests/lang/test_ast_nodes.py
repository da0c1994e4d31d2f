"""The child table and node identity in :mod:`repro.lang.ast_nodes`.

Every traversal (``children``, ``walk``, ``parent_map``, ``clone``,
``replace_node`` and the checker's generic fallbacks) reads one table per
node class, derived from the field annotations.  The sweep checks that
table against a reference scan of each node's field *values*, kept here,
over every node of both corpora (buggy and fixed sources), 500 seeded
generator mutants, and one level of REPLACE/ASSERT/MODIFY rewrites of all
of those: an annotation that misdescribes its field, or a value that does
not fit its declared shape, fails it.

Nodes are addressed by identity: a clone shares no node and no list with
its source, nodes compare and hash by identity, and repeated parses share
no node.
"""

import pytest

from repro.core.rewrites import REGISTRY, FixKind, trigger_tokens
from repro.corpus.dataset import load_compile_dataset, load_dataset
from repro.corpus.generator import generate_sources
from repro.lang import ast_nodes as ast
from repro.lang.lexer import LexError
from repro.lang.parser import (ParseError, _parse_program_cached, parse_expr,
                               parse_program)
from repro.lang.printer import print_program

GENERATED_COUNT = 500
GENERATED_SEED = 12345
REPAIR_KINDS = (FixKind.REPLACE, FixKind.ASSERT, FixKind.MODIFY)

#: One node of every class, so the sweep exercises every table.
EVERY_CLASS = """
use std::mem;
const LIMIT: usize = 3;
static mut COUNT: u32 = 0;
struct Pair { a: i32, b: i32 }
union Bits { i: u32, f: f32 }
unsafe fn bump(p: *mut i32, by: i32) -> i32 { *p += by; return *p; }
fn main() {
    let t = (1, 2u8, 'c', "s", true);
    let a = [0i32; 4];
    let v = [t.0, a[1]];
    let p = Pair { a: t.0, b: v.len() as i32 };
    let f = move |x| x + p.a;
    let mut n = 0;
    while n < LIMIT { n += 1; if n == 2 { continue; } }
    let m = loop { break n * 2; };
    for i in 0..=m { n = i; }
    let r = if n > 1 { -n } else if n == 0 { 0 } else { !n };
    let q = &mut n as *mut i32;
    let w = unsafe { bump(q, f(r) as i32) };
    assert_eq!(w, w);
}
"""

STRUCT_LITERAL = """
struct Pair { a: i32, b: i32 }
fn main() {
    let p = Pair { a: 1 + 2, b: f(3) };
}
"""


def reference_children(node):
    """The child nodes of ``node`` found by scanning its field values, in
    field order: direct children, list items, and the nodes inside tuple
    items.  Containers are tested by exact type, so a span (a NamedTuple)
    is not iterated."""
    found = []
    for value in vars(node).values():
        if isinstance(value, ast.Node):
            found.append(value)
        elif type(value) is list or type(value) is tuple:
            for item in value:
                if isinstance(item, ast.Node):
                    found.append(item)
                elif type(item) is tuple:
                    found.extend(sub for sub in item
                                 if isinstance(sub, ast.Node))
    return found


@pytest.fixture(scope="module")
def base_programs():
    """Private trees of every parseable corpus and generated source."""
    sources = []
    for dataset in (load_dataset(), load_compile_dataset()):
        for case in dataset.cases:
            sources += [case.source, case.fixed_source]
    sources += generate_sources(GENERATED_COUNT, GENERATED_SEED)
    sources.append(EVERY_CLASS)
    programs = []
    for source in sources:
        try:
            programs.append(parse_program(source))
        except (LexError, ParseError):
            continue
    return programs


@pytest.fixture(scope="module")
def rewritten_programs(base_programs):
    """One level of repair rewrites: every REPLACE/ASSERT/MODIFY rule's
    output on every base program."""
    rewritten = []
    for program in base_programs:
        tokens = trigger_tokens(program)
        for rule in REGISTRY.values():
            if rule.kind in REPAIR_KINDS:
                result = rule.apply(program, tokens)
                if result is not None:
                    rewritten.append(result)
    return rewritten


class TestChildTable:
    @pytest.mark.parametrize("level", ["base", "rewritten"])
    def test_children_equal_a_scan_of_the_fields(self, base_programs,
                                                 rewritten_programs, level):
        programs = base_programs if level == "base" else rewritten_programs
        nodes = mismatched = 0
        seen = set()
        for program in programs:
            for node in ast.walk(program):
                nodes += 1
                seen.add(type(node))
                if ast.children(node) != reference_children(node):
                    mismatched += 1
        assert nodes > 10_000
        assert mismatched == 0, f"{mismatched} of {nodes} nodes"
        if level == "base":
            # The sweep holds a node of every class that is ever built.
            classes = {value for value in vars(ast).values()
                       if isinstance(value, type)
                       and issubclass(value, ast.Node)}
            abstract = {ast.Node, ast.Expr, ast.Stmt, ast.Item}
            assert classes - abstract <= seen

    def test_children_order_follows_the_fields(self):
        program = parse_program(STRUCT_LITERAL)
        let = program.fn("main").body.stmts[0]
        literal = let.init
        assert ast.children(let) == [literal]
        assert ast.children(literal) == [value for _name, value
                                         in literal.fields]
        call = parse_expr("v.get::<u8>(i, j)")
        assert ast.children(call) == [call.receiver, *call.args]
        assert ast.children(parse_expr("std::mem::zeroed::<u8>")) == []

    def test_walk_is_pre_order_in_child_order(self):
        program = parse_program(STRUCT_LITERAL)
        order = []

        def visit(node):
            order.append(node)
            for child in reference_children(node):
                visit(child)

        visit(program)
        assert list(ast.walk(program)) == order


class TestParentMap:
    def test_every_walked_node_but_the_root_has_a_parent(self,
                                                         base_programs):
        for program in base_programs:
            parents = ast.parent_map(program)
            walked = list(ast.walk(program))
            assert program not in parents
            assert set(parents) == set(walked[1:])
            assert all(node in ast.children(parents[node])
                       for node in walked[1:])

    def test_struct_literal_field_values_have_a_parent(self):
        program = parse_program(STRUCT_LITERAL)
        literal = program.fn("main").body.stmts[0].init
        parents = ast.parent_map(program)
        for _name, value in literal.fields:
            assert parents[value] is literal
        assert parents[literal.fields[1][1].args[0]] is literal.fields[1][1]


class TestIdentity:
    def test_clone_shares_no_node_and_no_list(self, base_programs):
        for program in base_programs[::7]:
            copy = ast.clone(program)
            assert print_program(copy) == print_program(program)
            originals, copies = list(ast.walk(program)), list(ast.walk(copy))
            assert len(originals) == len(copies)
            assert set(originals).isdisjoint(copies)
            lists = {id(value) for node in originals
                     for value in vars(node).values() if type(value) is list}
            assert not any(id(value) in lists for node in copies
                           for value in vars(node).values()
                           if type(value) is list)
            for before, after in zip(originals, copies):
                assert type(before) is type(after)
                assert list(vars(before)) == list(vars(after))

    def test_nodes_compare_and_hash_by_identity(self):
        first, second = parse_expr("1 + 2"), parse_expr("1 + 2")
        assert first == first and first != second
        assert first != ast.clone(first)
        assert hash(first) == object.__hash__(first)
        assert len({first, second, first}) == 2
        assert [second, first].index(first) == 1

    def test_repeated_parses_share_no_node(self):
        source = "fn main() { let x = 1; let y = x + 2; }"
        first, second = parse_program(source), parse_program(source)
        memo = _parse_program_cached(source)
        assert set(ast.walk(first)).isdisjoint(ast.walk(second))
        assert set(ast.walk(memo)).isdisjoint(ast.walk(first))
        assert set(ast.walk(memo)).isdisjoint(ast.walk(second))


class TestReplaceNode:
    def test_replaces_a_field_a_list_item_and_a_pair(self):
        program = parse_program(STRUCT_LITERAL)
        let = program.fn("main").body.stmts[0]
        literal = let.init
        call = literal.fields[1][1]
        for target in (call.args[0], literal.fields[0][1], call):
            replacement = parse_expr("7")
            assert ast.replace_node(program, target, replacement)
            assert target not in ast.walk(program)
            assert replacement in ast.walk(program)
        assert print_program(program).count("7") == 2
        assert [name for name, _value in literal.fields] == ["a", "b"]
        assert ast.replace_node(program, literal, parse_expr("0"))
        assert let.init is not literal

    def test_absent_target_changes_nothing(self):
        program = parse_program(STRUCT_LITERAL)
        before = print_program(program)
        stranger = parse_expr("1 + 2")
        assert not ast.replace_node(program, stranger, parse_expr("0"))
        assert print_program(program) == before
