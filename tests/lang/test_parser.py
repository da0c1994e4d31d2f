"""Unit tests for the mini-Rust parser."""

import pytest

from repro.corpus import load_dataset
from repro.lang import ast_nodes as ast
from repro.lang.lexer import LexError, tokenize
from repro.lang.parser import ParseError, Parser, parse_expr, parse_program
from repro.lang import types as ty
from repro.lang.tokens import TokenKind as T


class TestItems:
    def test_empty_main(self):
        prog = parse_program("fn main() {}")
        assert len(prog.items) == 1
        main = prog.fn("main")
        assert main is not None
        assert not main.is_unsafe
        assert main.params == []
        assert main.ret is None

    def test_unsafe_fn(self):
        prog = parse_program("unsafe fn danger(p: *const i32) -> i32 { *p }")
        func = prog.fn("danger")
        assert func.is_unsafe
        assert isinstance(func.params[0].ty, ty.TyRawPtr)
        assert func.ret == ty.I32
        assert isinstance(func.body.tail, ast.Unary)

    def test_static_mut(self):
        prog = parse_program("static mut G: usize = 0;")
        item = prog.items[0]
        assert isinstance(item, ast.StaticItem)
        assert item.mutable
        assert item.ty == ty.USIZE

    def test_const_item(self):
        prog = parse_program("const N: usize = 16;")
        item = prog.items[0]
        assert isinstance(item, ast.ConstItem)
        assert item.name == "N"

    def test_struct_item(self):
        prog = parse_program("struct Point { x: i32, y: i32 }")
        item = prog.items[0]
        assert isinstance(item, ast.StructItem)
        assert item.fields == [("x", ty.I32), ("y", ty.I32)]

    def test_union_item(self):
        prog = parse_program("union Bits { i: i32, u: u32 }")
        item = prog.items[0]
        assert isinstance(item, ast.UnionItem)
        assert len(item.fields) == 2

    def test_use_item_ignored_semantically(self):
        prog = parse_program("use std::mem;\nfn main() {}")
        assert isinstance(prog.items[0], ast.UseItem)
        assert prog.items[0].path == "std::mem"

    def test_attribute_skipped(self):
        prog = parse_program("#[allow(dead_code)]\nfn main() {}")
        assert prog.fn("main") is not None

    def test_nested_fn_rejected(self):
        with pytest.raises(ParseError):
            parse_program("fn main() { fn inner() {} }")


class TestTypes:
    def parse_let_type(self, type_text):
        prog = parse_program(f"fn main() {{ let x: {type_text}; }}")
        stmt = prog.fn("main").body.stmts[0]
        return stmt.ty

    def test_primitives(self):
        assert self.parse_let_type("i32") == ty.I32
        assert self.parse_let_type("u8") == ty.U8
        assert self.parse_let_type("usize") == ty.USIZE
        assert self.parse_let_type("bool") == ty.BOOL

    def test_reference_types(self):
        assert self.parse_let_type("&i32") == ty.TyRef(ty.I32, False)
        assert self.parse_let_type("&mut i32") == ty.TyRef(ty.I32, True)

    def test_raw_pointer_types(self):
        assert self.parse_let_type("*const i32") == ty.TyRawPtr(ty.I32, False)
        assert self.parse_let_type("*mut u8") == ty.TyRawPtr(ty.U8, True)

    def test_array_type(self):
        assert self.parse_let_type("[u8; 4]") == ty.TyArray(ty.U8, 4)

    def test_slice_ref(self):
        assert self.parse_let_type("&[u8]") == ty.TyRef(ty.TySlice(ty.U8), False)

    def test_tuple_type(self):
        assert self.parse_let_type("(i32, bool)") == ty.TyTuple((ty.I32, ty.BOOL))

    def test_unit_type(self):
        assert self.parse_let_type("()") == ty.UNIT

    def test_generic_path(self):
        assert self.parse_let_type("Vec<i32>") == ty.TyPath("Vec", (ty.I32,))

    def test_nested_generics_shr_split(self):
        parsed = self.parse_let_type("Vec<Vec<i32>>")
        assert parsed == ty.TyPath("Vec", (ty.TyPath("Vec", (ty.I32,)),))

    def test_fn_pointer_type(self):
        parsed = self.parse_let_type("fn(i32) -> i32")
        assert parsed == ty.TyFn((ty.I32,), ty.I32)

    def test_unsafe_fn_pointer_type(self):
        parsed = self.parse_let_type("unsafe fn()")
        assert parsed == ty.TyFn((), ty.UNIT, is_unsafe=True)


class TestExpressions:
    def test_precedence_mul_over_add(self):
        expr = parse_expr("1 + 2 * 3")
        assert isinstance(expr, ast.Binary)
        assert expr.op == "+"
        assert isinstance(expr.right, ast.Binary)
        assert expr.right.op == "*"

    def test_parens_override(self):
        expr = parse_expr("(1 + 2) * 3")
        assert expr.op == "*"
        assert isinstance(expr.left, ast.Binary)

    def test_comparison_chain(self):
        expr = parse_expr("a < b && c >= d")
        assert expr.op == "&&"

    def test_cast_binds_tighter_than_add(self):
        expr = parse_expr("x as usize + 1")
        assert isinstance(expr, ast.Binary)
        assert isinstance(expr.left, ast.Cast)

    def test_chained_casts(self):
        expr = parse_expr("p as *const i32 as usize")
        assert isinstance(expr, ast.Cast)
        assert isinstance(expr.expr, ast.Cast)

    def test_unary_deref(self):
        expr = parse_expr("*p + 1")
        assert isinstance(expr.left, ast.Unary)
        assert expr.left.op == "*"

    def test_double_reference(self):
        expr = parse_expr("&&x")
        assert isinstance(expr, ast.Unary)
        assert isinstance(expr.operand, ast.Unary)

    def test_mut_borrow(self):
        expr = parse_expr("&mut x")
        assert expr.op == "&mut"

    def test_assignment_right_associative(self):
        expr = parse_expr("a = b = c")
        assert isinstance(expr, ast.Assign)
        assert isinstance(expr.value, ast.Assign)

    def test_compound_assign(self):
        expr = parse_expr("x += 1")
        assert isinstance(expr, ast.CompoundAssign)
        assert expr.op == "+"

    def test_turbofish_path(self):
        expr = parse_expr("mem::transmute::<&i32, usize>(p)")
        assert isinstance(expr, ast.Call)
        func = expr.func
        assert isinstance(func, ast.PathExpr)
        assert func.segments == ["mem", "transmute"]
        assert len(func.generic_args) == 2

    def test_associated_fn_path(self):
        expr = parse_expr("u32::from_le_bytes(n1)")
        assert isinstance(expr, ast.Call)
        assert expr.func.segments == ["u32", "from_le_bytes"]

    def test_method_call(self):
        expr = parse_expr("v.push(1)")
        assert isinstance(expr, ast.MethodCall)
        assert expr.method == "push"

    def test_method_chain(self):
        expr = parse_expr("v.as_ptr().offset(1)")
        assert isinstance(expr, ast.MethodCall)
        assert expr.method == "offset"
        assert isinstance(expr.receiver, ast.MethodCall)

    def test_method_turbofish(self):
        expr = parse_expr("p.cast::<u8>()")
        assert isinstance(expr, ast.MethodCall)
        assert expr.generic_args == [ty.U8]

    def test_field_access_and_tuple_index(self):
        expr = parse_expr("pt.x")
        assert isinstance(expr, ast.FieldAccess)
        expr2 = parse_expr("t.0")
        assert expr2.field == "0"

    def test_index(self):
        expr = parse_expr("arr[i + 1]")
        assert isinstance(expr, ast.Index)

    def test_range(self):
        expr = parse_expr("0..10")
        assert isinstance(expr, ast.RangeExpr)
        assert not expr.inclusive
        expr2 = parse_expr("0..=10")
        assert expr2.inclusive

    def test_array_literal_and_repeat(self):
        lit = parse_expr("[1, 2, 3]")
        assert isinstance(lit, ast.ArrayLit)
        rep = parse_expr("[0u8; 16]")
        assert isinstance(rep, ast.ArrayRepeat)

    def test_tuple_literal(self):
        t = parse_expr("(1, 2)")
        assert isinstance(t, ast.TupleLit)
        unit = parse_expr("()")
        assert isinstance(unit, ast.TupleLit)
        assert unit.elems == []

    def test_single_paren_not_tuple(self):
        e = parse_expr("(1)")
        assert isinstance(e, ast.IntLit)

    def test_macro_assert(self):
        m = parse_expr('assert!(x > 0, "msg")')
        assert isinstance(m, ast.MacroCall)
        assert m.name == "assert"
        assert len(m.args) == 2

    def test_macro_vec(self):
        m = parse_expr("vec![1, 2, 3]")
        assert m.name == "vec"
        assert len(m.args) == 3

    def test_closure_zero_params(self):
        c = parse_expr("|| 42")
        assert isinstance(c, ast.Closure)
        assert c.params == []
        assert not c.is_move

    def test_move_closure(self):
        c = parse_expr("move || { x + 1 }")
        assert c.is_move
        assert isinstance(c.body, ast.Block)

    def test_closure_with_params(self):
        c = parse_expr("|a, b| a + b")
        assert c.params == ["a", "b"]


class TestControlFlow:
    def test_if_else_chain(self):
        # A trailing block-like expression becomes the block tail (as in Rust).
        prog = parse_program(
            "fn main() { if a { } else if b { } else { } }"
        )
        if_expr = prog.fn("main").body.tail
        assert isinstance(if_expr, ast.IfExpr)
        assert isinstance(if_expr.else_block, ast.IfExpr)
        assert isinstance(if_expr.else_block.else_block, ast.Block)

    def test_if_as_tail_expression(self):
        prog = parse_program("fn f() -> i32 { if a { 1 } else { 2 } }")
        assert isinstance(prog.fn("f").body.tail, ast.IfExpr)

    def test_while_loop(self):
        prog = parse_program("fn main() { while x < 10 { x += 1; } }")
        assert isinstance(prog.fn("main").body.tail, ast.WhileExpr)

    def test_while_followed_by_stmt_is_statement(self):
        prog = parse_program("fn main() { while x { } let y = 1; }")
        stmt = prog.fn("main").body.stmts[0]
        assert isinstance(stmt, ast.ExprStmt)
        assert isinstance(stmt.expr, ast.WhileExpr)
        assert not stmt.has_semi

    def test_for_over_range(self):
        prog = parse_program("fn main() { for i in 0..n { } }")
        for_expr = prog.fn("main").body.tail
        assert isinstance(for_expr, ast.ForExpr)
        assert isinstance(for_expr.iterable, ast.RangeExpr)

    def test_no_struct_literal_in_condition(self):
        # `if x { }` where x could begin a struct literal must parse as path.
        prog = parse_program("fn main() { if Foo { } }")
        cond = prog.fn("main").body.tail.cond
        assert isinstance(cond, ast.PathExpr)

    def test_struct_literal_in_let(self):
        prog = parse_program("fn main() { let p = Point { x: 1, y: 2 }; }")
        init = prog.fn("main").body.stmts[0].init
        assert isinstance(init, ast.StructLit)

    def test_unsafe_block(self):
        prog = parse_program("fn main() { unsafe { *p; } }")
        block = prog.fn("main").body.tail
        assert isinstance(block, ast.Block)
        assert block.is_unsafe

    def test_loop_with_break(self):
        prog = parse_program("fn main() { loop { break; } }")
        assert isinstance(prog.fn("main").body.tail, ast.LoopExpr)

    def test_tail_expression(self):
        prog = parse_program("fn f() -> i32 { let x = 1; x + 1 }")
        body = prog.fn("f").body
        assert len(body.stmts) == 1
        assert isinstance(body.tail, ast.Binary)

    def test_return_with_value(self):
        prog = parse_program("fn f() -> i32 { return 3; }")
        ret = prog.fn("f").body.stmts[0].expr
        assert isinstance(ret, ast.ReturnExpr)
        assert ret.value.value == 3


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse_program("fn main() { let x = 1 let y = 2; }")

    def test_unclosed_brace(self):
        with pytest.raises(ParseError):
            parse_program("fn main() {")

    def test_bad_raw_pointer(self):
        with pytest.raises(ParseError):
            parse_program("fn main() { let p: *i32; }")

    def test_error_carries_span(self):
        with pytest.raises(ParseError) as err:
            parse_program("fn main() { let = 3; }")
        assert err.value.span.line == 1


class TestNodeInfrastructure:
    def test_parent_map(self):
        prog = parse_program("fn main() { let x = 1 + 2; }")
        parents = ast.parent_map(prog)
        binary = prog.fn("main").body.stmts[0].init
        assert parents[binary.left] is binary


class TestParseMemoization:
    """parse_program is memoized on source; callers stay fully isolated."""

    def test_repeat_parse_equal_structure(self):
        from repro.lang.printer import print_program
        src = "fn main() { let x = 1 + 2; let y = x; }"
        first = parse_program(src)
        second = parse_program(src)
        assert first is not second
        assert print_program(first) == print_program(second)

    def test_mutation_never_leaks_between_parses(self):
        from repro.lang.printer import print_program
        src = "fn main() { let x = 1; let y = 2; }"
        reference = print_program(parse_program(src))
        mutated = parse_program(src)
        mutated.fn("main").body.stmts.pop()  # engines rewrite in place
        assert print_program(parse_program(src)) == reference

    def test_cache_actually_hits(self):
        from repro.lang.parser import _parse_program_cached
        src = "fn main() { let memo_probe = 9; }"
        before = _parse_program_cached.cache_info().hits
        parse_program(src)
        parse_program(src)
        assert _parse_program_cached.cache_info().hits > before

    def test_parse_errors_not_cached_as_results(self):
        for _ in range(2):
            with pytest.raises(ParseError):
                parse_program("fn main() { let = 3; }")


#: Every third token boundary of each case, starting at a different one
#: per case: about 3,300 of the 9,988 prefixes, to keep tier-1 fast.
PREFIX_STRIDE = 3


class TestPaddedCursor:
    """The parser peeks up to two tokens past its cursor without clamping:
    a truncated program must end in a syntax error, never an IndexError."""

    @pytest.mark.parametrize("index, case", [
        pytest.param(index, case, id=case.name)
        for index, case in enumerate(load_dataset())])
    def test_prefix_parses_or_raises_a_syntax_error(self, index, case):
        source = case.source
        ends = [token.span.end for token in tokenize(source)]
        for end in ends[index % PREFIX_STRIDE::PREFIX_STRIDE]:
            try:
                Parser(source[:end]).parse_program()
            except (ParseError, LexError):
                pass

    def test_peeks_past_the_end_read_eof(self):
        parser = Parser("fn main() {}")
        parser.parse_program()
        assert [parser._peek(offset).kind for offset in range(3)] == \
            [T.EOF] * 3

    def test_lookahead_at_the_end_of_input(self):
        for prefix in ("fn main() { S", "fn main() { S {", "fn main() { S { x",
                       "fn main() { a::", "unsafe", "const", "fn f(x: Vec<"):
            with pytest.raises(ParseError):
                Parser(prefix).parse_program()
