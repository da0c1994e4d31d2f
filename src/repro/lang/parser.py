"""Recursive-descent parser for the mini-Rust subset.

Expressions use Pratt-style precedence climbing. The grammar intentionally
covers the constructs that unsafe-Rust UB corpora exercise: unsafe blocks and
functions, raw pointers, references, casts, turbofish paths
(``mem::transmute::<&i32, usize>``), struct/union items and literals, statics
(including ``static mut``), closures (for ``thread::spawn(move || ...)``),
macros (``assert!``, ``println!``, ``vec!``), and the usual control flow.
"""

from __future__ import annotations

from functools import lru_cache

from . import ast_nodes as ast
from .lexer import tokenize
from .span import Span
from .tokens import Token, TokenKind as T
from .types import (
    BOOL,
    CHAR,
    INFER,
    PRIMITIVES,
    Ty,
    TyArray,
    TyFn,
    TyPath,
    TyRawPtr,
    TyRef,
    TySlice,
    TyTuple,
    TyStr,
    UNIT,
)


class ParseError(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(f"{message} at {span}")
        self.message = message
        self.span = span

    def render(self, source: str) -> str:
        """Caret snippet pointing at the offending token."""
        from .span import render_snippet
        return f"error: {self.message}\n" + render_snippet(source, self.span)


# Binary operator precedence; higher binds tighter.
_BINOP_PREC = {
    "||": 1,
    "&&": 2,
    "==": 3, "!=": 3, "<": 3, ">": 3, "<=": 3, ">=": 3,
    "|": 4,
    "^": 5,
    "&": 6,
    "<<": 7, ">>": 7,
    "+": 8, "-": 8,
    "*": 9, "/": 9, "%": 9,
}
_CAST_PREC = 10

_COMPOUND_OPS = {
    T.PLUSEQ: "+", T.MINUSEQ: "-", T.STAREQ: "*", T.SLASHEQ: "/",
    T.PERCENTEQ: "%", T.CARETEQ: "^", T.AMPEQ: "&", T.PIPEEQ: "|",
    T.SHLEQ: "<<", T.SHREQ: ">>",
}

_BINOP_TOKENS = {
    T.PIPEPIPE: "||", T.AMPAMP: "&&",
    T.EQEQ: "==", T.NE: "!=", T.LT: "<", T.GT: ">", T.LE: "<=", T.GE: ">=",
    T.PIPE: "|", T.CARET: "^", T.AMP: "&",
    T.SHL: "<<", T.SHR: ">>",
    T.PLUS: "+", T.MINUS: "-",
    T.STAR: "*", T.SLASH: "/", T.PERCENT: "%",
}

_MACRO_NAMES = {
    "assert", "assert_eq", "assert_ne", "println", "print", "panic", "vec",
    "format", "write", "unreachable", "dbg",
}


class Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        # When > 0, struct literals are not allowed (if/while/for headers).
        self._no_struct_lit = 0

    # ------------------------------------------------------------------
    # Token helpers

    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _at(self, *kinds: T) -> bool:
        return self._peek().kind in kinds

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not T.EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: T, what: str | None = None) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            expected = what or kind.value
            raise ParseError(f"expected {expected!r}, found {tok.text!r}", tok.span)
        return self._advance()

    def _eat(self, kind: T) -> Token | None:
        if self._at(kind):
            return self._advance()
        return None

    def _expect_gt(self) -> None:
        """Consume a ``>``; splits ``>>`` / ``>=`` so nested generics parse."""
        tok = self._peek()
        if tok.kind is T.GT:
            self._advance()
            return
        if tok.kind is T.SHR:
            half = Span(tok.span.start + 1, tok.span.end, tok.span.line, tok.span.col + 1)
            self.tokens[self.pos] = Token(T.GT, ">", half)
            return
        if tok.kind is T.GE:
            half = Span(tok.span.start + 1, tok.span.end, tok.span.line, tok.span.col + 1)
            self.tokens[self.pos] = Token(T.EQ, "=", half)
            return
        raise ParseError(f"expected '>', found {tok.text!r}", tok.span)

    # ------------------------------------------------------------------
    # Program / items

    def parse_program(self) -> ast.Program:
        items: list[ast.Item] = []
        start = self._peek().span
        while not self._at(T.EOF):
            items.append(self.parse_item())
        return ast.Program(items, span=start)

    def parse_item(self) -> ast.Item:
        # Skip attributes like #[derive(...)] / #![allow(...)].
        while self._at(T.HASH):
            self._advance()
            self._eat(T.BANG)
            self._expect(T.LBRACKET)
            depth = 1
            while depth:
                tok = self._advance()
                if tok.kind is T.LBRACKET:
                    depth += 1
                elif tok.kind is T.RBRACKET:
                    depth -= 1
                elif tok.kind is T.EOF:
                    raise ParseError("unterminated attribute", tok.span)
        self._eat(T.KW_PUB)
        tok = self._peek()
        if tok.kind is T.KW_USE:
            return self._parse_use()
        if tok.kind is T.KW_STATIC:
            return self._parse_static()
        if tok.kind is T.KW_CONST and self._peek(1).kind is T.IDENT:
            return self._parse_const()
        if tok.kind is T.KW_STRUCT:
            return self._parse_struct()
        if tok.kind is T.KW_UNION or (tok.kind is T.IDENT and tok.text == "union"):
            return self._parse_union()
        if tok.kind is T.KW_FN or (tok.kind is T.KW_UNSAFE and self._peek(1).kind is T.KW_FN):
            return self._parse_fn()
        raise ParseError(f"expected item, found {tok.text!r}", tok.span)

    def _parse_use(self) -> ast.UseItem:
        start = self._expect(T.KW_USE).span
        parts: list[str] = []
        while not self._at(T.SEMI, T.EOF):
            parts.append(self._advance().text)
        self._expect(T.SEMI)
        return ast.UseItem("".join(parts), span=start)

    def _parse_static(self) -> ast.StaticItem:
        start = self._expect(T.KW_STATIC).span
        mutable = self._eat(T.KW_MUT) is not None
        name = self._expect(T.IDENT).text
        self._expect(T.COLON)
        ty = self.parse_type()
        self._expect(T.EQ)
        init = self.parse_expr()
        self._expect(T.SEMI)
        return ast.StaticItem(name, ty, init, mutable, span=start)

    def _parse_const(self) -> ast.ConstItem:
        start = self._expect(T.KW_CONST).span
        name = self._expect(T.IDENT).text
        self._expect(T.COLON)
        ty = self.parse_type()
        self._expect(T.EQ)
        init = self.parse_expr()
        self._expect(T.SEMI)
        return ast.ConstItem(name, ty, init, span=start)

    def _parse_struct(self) -> ast.StructItem:
        start = self._expect(T.KW_STRUCT).span
        name = self._expect(T.IDENT).text
        fields = self._parse_field_list()
        return ast.StructItem(name, fields, span=start)

    def _parse_union(self) -> ast.UnionItem:
        start = self._advance().span  # 'union' keyword or ident
        name = self._expect(T.IDENT).text
        fields = self._parse_field_list()
        return ast.UnionItem(name, fields, span=start)

    def _parse_field_list(self) -> list[tuple[str, Ty]]:
        self._expect(T.LBRACE)
        fields: list[tuple[str, Ty]] = []
        while not self._at(T.RBRACE):
            self._eat(T.KW_PUB)
            fname = self._expect(T.IDENT).text
            self._expect(T.COLON)
            fty = self.parse_type()
            fields.append((fname, fty))
            if not self._eat(T.COMMA):
                break
        self._expect(T.RBRACE)
        return fields

    def _parse_fn(self) -> ast.FnItem:
        is_unsafe = self._eat(T.KW_UNSAFE) is not None
        start = self._expect(T.KW_FN).span
        name = self._expect(T.IDENT).text
        self._expect(T.LPAREN)
        params: list[ast.Param] = []
        while not self._at(T.RPAREN):
            mutable = self._eat(T.KW_MUT) is not None
            pname = self._expect(T.IDENT).text
            self._expect(T.COLON)
            pty = self.parse_type()
            params.append(ast.Param(pname, pty, mutable))
            if not self._eat(T.COMMA):
                break
        self._expect(T.RPAREN)
        ret: Ty | None = None
        if self._eat(T.ARROW):
            ret = self.parse_type()
        body = self.parse_block()
        return ast.FnItem(name, params, ret, body, is_unsafe, span=start)

    # ------------------------------------------------------------------
    # Types

    def parse_type(self) -> Ty:
        tok = self._peek()
        if tok.kind is T.AMP:
            self._advance()
            if self._at(T.LIFETIME):
                self._advance()
            mutable = self._eat(T.KW_MUT) is not None
            return TyRef(self.parse_type(), mutable)
        if tok.kind is T.AMPAMP:  # && in type position: double reference
            self._advance()
            mutable = self._eat(T.KW_MUT) is not None
            return TyRef(TyRef(self.parse_type(), mutable), False)
        if tok.kind is T.STAR:
            self._advance()
            if self._eat(T.KW_CONST):
                return TyRawPtr(self.parse_type(), False)
            self._expect(T.KW_MUT, "const or mut after '*'")
            return TyRawPtr(self.parse_type(), True)
        if tok.kind is T.LPAREN:
            self._advance()
            if self._eat(T.RPAREN):
                return UNIT
            elems = [self.parse_type()]
            trailing_comma = False
            while self._eat(T.COMMA):
                trailing_comma = True
                if self._at(T.RPAREN):
                    break
                elems.append(self.parse_type())
            self._expect(T.RPAREN)
            if len(elems) == 1 and not trailing_comma:
                return elems[0]
            return TyTuple(tuple(elems))
        if tok.kind is T.LBRACKET:
            self._advance()
            elem = self.parse_type()
            if self._eat(T.SEMI):
                length_tok = self._expect(T.INT)
                length = _parse_int_text(length_tok.text)[0]
                self._expect(T.RBRACKET)
                return TyArray(elem, length)
            self._expect(T.RBRACKET)
            return TySlice(elem)
        if tok.kind in (T.KW_FN, T.KW_UNSAFE):
            is_unsafe = self._eat(T.KW_UNSAFE) is not None
            self._expect(T.KW_FN)
            self._expect(T.LPAREN)
            params: list[Ty] = []
            while not self._at(T.RPAREN):
                params.append(self.parse_type())
                if not self._eat(T.COMMA):
                    break
            self._expect(T.RPAREN)
            ret: Ty = UNIT
            if self._eat(T.ARROW):
                ret = self.parse_type()
            return TyFn(tuple(params), ret, is_unsafe)
        if tok.kind is T.IDENT:
            if tok.text == "_":
                self._advance()
                return INFER
            return self._parse_path_type()
        if tok.kind is T.BANG:
            self._advance()
            from .types import NEVER
            return NEVER
        raise ParseError(f"expected type, found {tok.text!r}", tok.span)

    def _parse_path_type(self) -> Ty:
        segments = [self._expect(T.IDENT).text]
        while self._at(T.COLONCOLON) and self._peek(1).kind is T.IDENT:
            self._advance()
            segments.append(self._expect(T.IDENT).text)
        name = segments[-1]
        if name in PRIMITIVES and not self._at(T.LT):
            prim = PRIMITIVES[name]
            return prim
        args: tuple[Ty, ...] = ()
        if self._eat(T.LT):
            arg_list = [self.parse_type()]
            while self._eat(T.COMMA):
                if self._at(T.GT, T.SHR, T.GE):
                    break
                arg_list.append(self.parse_type())
            self._expect_gt()
            args = tuple(arg_list)
        if name == "str":
            return TyStr()
        return TyPath(name, args)

    # ------------------------------------------------------------------
    # Blocks and statements

    def parse_block(self) -> ast.Block:
        start = self._expect(T.LBRACE).span
        stmts: list[ast.Stmt] = []
        tail: ast.Expr | None = None
        while not self._at(T.RBRACE):
            if self._eat(T.SEMI):
                continue
            if self._at(T.KW_LET):
                stmts.append(self._parse_let())
                continue
            if self._at(T.KW_FN) or (
                self._at(T.KW_UNSAFE) and self._peek(1).kind is T.KW_FN
            ):
                # Nested function items are rare; hoist them as statements is
                # not supported — corpus keeps functions at top level.
                raise ParseError("nested fn items are not supported", self._peek().span)
            expr = self.parse_expr()
            if self._eat(T.SEMI):
                stmts.append(ast.ExprStmt(expr, has_semi=True, span=expr.span))
            elif self._at(T.RBRACE):
                tail = expr
            elif _is_block_like(expr):
                stmts.append(ast.ExprStmt(expr, has_semi=False, span=expr.span))
            else:
                raise ParseError("expected ';' after expression", self._peek().span)
        self._expect(T.RBRACE)
        return ast.Block(stmts, tail, is_unsafe=False, span=start)

    def _parse_let(self) -> ast.LetStmt:
        start = self._expect(T.KW_LET).span
        mutable = self._eat(T.KW_MUT) is not None
        name = self._expect(T.IDENT).text
        ty: Ty | None = None
        if self._eat(T.COLON):
            ty = self.parse_type()
        init: ast.Expr | None = None
        if self._eat(T.EQ):
            init = self.parse_expr()
        self._expect(T.SEMI)
        return ast.LetStmt(name, mutable, ty, init, span=start)

    # ------------------------------------------------------------------
    # Expressions

    def parse_expr(self) -> ast.Expr:
        return self._parse_assign()

    def _parse_assign(self) -> ast.Expr:
        lhs = self._parse_range()
        tok = self._peek()
        if tok.kind is T.EQ:
            self._advance()
            value = self._parse_assign()
            return ast.Assign(lhs, value, span=lhs.span)
        if tok.kind in _COMPOUND_OPS:
            op = _COMPOUND_OPS[tok.kind]
            self._advance()
            value = self._parse_assign()
            return ast.CompoundAssign(op, lhs, value, span=lhs.span)
        return lhs

    def _parse_range(self) -> ast.Expr:
        if self._at(T.DOTDOT, T.DOTDOTEQ):
            inclusive = self._advance().kind is T.DOTDOTEQ
            hi = None if self._at_range_end() else self._parse_binary(1)
            return ast.RangeExpr(None, hi, inclusive)
        lo = self._parse_binary(1)
        if self._at(T.DOTDOT, T.DOTDOTEQ):
            inclusive = self._advance().kind is T.DOTDOTEQ
            hi = None if self._at_range_end() else self._parse_binary(1)
            return ast.RangeExpr(lo, hi, inclusive, span=lo.span)
        return lo

    def _at_range_end(self) -> bool:
        return self._at(T.RBRACE, T.RPAREN, T.RBRACKET, T.SEMI, T.COMMA, T.LBRACE, T.EOF)

    def _parse_binary(self, min_prec: int) -> ast.Expr:
        lhs = self._parse_cast()
        while True:
            tok = self._peek()
            op = _BINOP_TOKENS.get(tok.kind)
            if op is None or _BINOP_PREC[op] < min_prec:
                return lhs
            # `<` can begin a generic-arg list only in paths, which are handled
            # during primary parsing, so here it is always comparison.
            self._advance()
            rhs = self._parse_binary(_BINOP_PREC[op] + 1)
            lhs = ast.Binary(op, lhs, rhs, span=lhs.span)

    def _parse_cast(self) -> ast.Expr:
        expr = self._parse_unary()
        while self._at(T.KW_AS):
            self._advance()
            ty = self.parse_type()
            expr = ast.Cast(expr, ty, span=expr.span)
        return expr

    def _parse_unary(self) -> ast.Expr:
        tok = self._peek()
        if tok.kind is T.MINUS:
            self._advance()
            return ast.Unary("-", self._parse_unary(), span=tok.span)
        if tok.kind is T.BANG:
            self._advance()
            return ast.Unary("!", self._parse_unary(), span=tok.span)
        if tok.kind is T.STAR:
            self._advance()
            return ast.Unary("*", self._parse_unary(), span=tok.span)
        if tok.kind is T.AMP:
            self._advance()
            op = "&mut" if self._eat(T.KW_MUT) else "&"
            return ast.Unary(op, self._parse_unary(), span=tok.span)
        if tok.kind is T.AMPAMP:
            # && in expression prefix position: double reference.
            self._advance()
            op = "&mut" if self._eat(T.KW_MUT) else "&"
            inner = ast.Unary(op, self._parse_unary(), span=tok.span)
            return ast.Unary("&", inner, span=tok.span)
        return self._parse_postfix()

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            tok = self._peek()
            if tok.kind is T.LPAREN:
                self._advance()
                args = self._parse_expr_list(T.RPAREN)
                self._expect(T.RPAREN)
                expr = ast.Call(expr, args, span=expr.span)
            elif tok.kind is T.LBRACKET:
                self._advance()
                index = self.parse_expr()
                self._expect(T.RBRACKET)
                expr = ast.Index(expr, index, span=expr.span)
            elif tok.kind is T.DOT:
                self._advance()
                member = self._advance()
                if member.kind is T.INT:
                    expr = ast.FieldAccess(expr, member.text, span=expr.span)
                    continue
                if member.kind is not T.IDENT:
                    raise ParseError("expected field or method name", member.span)
                generic_args: list[Ty] = []
                if self._at(T.COLONCOLON) and self._peek(1).kind is T.LT:
                    self._advance()
                    self._advance()
                    generic_args.append(self.parse_type())
                    while self._eat(T.COMMA):
                        generic_args.append(self.parse_type())
                    self._expect_gt()
                if self._at(T.LPAREN):
                    self._advance()
                    args = self._parse_expr_list(T.RPAREN)
                    self._expect(T.RPAREN)
                    expr = ast.MethodCall(expr, member.text, generic_args, args,
                                          span=expr.span)
                else:
                    expr = ast.FieldAccess(expr, member.text, span=expr.span)
            else:
                return expr

    def _parse_expr_list(self, terminator: T) -> list[ast.Expr]:
        args: list[ast.Expr] = []
        guard = self._no_struct_lit
        self._no_struct_lit = 0  # parenthesised contexts allow struct literals
        try:
            while not self._at(terminator):
                args.append(self.parse_expr())
                if not self._eat(T.COMMA):
                    break
        finally:
            self._no_struct_lit = guard
        return args

    # ------------------------------------------------------------------
    # Primary expressions

    def _parse_primary(self) -> ast.Expr:
        tok = self._peek()
        kind = tok.kind

        if kind is T.INT:
            self._advance()
            value, suffix = _parse_int_text(tok.text)
            return ast.IntLit(value, suffix, span=tok.span)
        if kind is T.KW_TRUE:
            self._advance()
            return ast.BoolLit(True, span=tok.span)
        if kind is T.KW_FALSE:
            self._advance()
            return ast.BoolLit(False, span=tok.span)
        if kind is T.STRING:
            self._advance()
            return ast.StrLit(_unescape(tok.text[1:-1]), span=tok.span)
        if kind is T.CHAR:
            self._advance()
            return ast.CharLit(_unescape(tok.text[1:-1]), span=tok.span)
        if kind is T.LPAREN:
            return self._parse_paren()
        if kind is T.LBRACKET:
            return self._parse_array()
        if kind is T.LBRACE:
            return self.parse_block()
        if kind is T.KW_UNSAFE:
            self._advance()
            block = self.parse_block()
            block.is_unsafe = True
            block.span = tok.span
            return block
        if kind is T.KW_IF:
            return self._parse_if()
        if kind is T.KW_WHILE:
            self._advance()
            cond = self._parse_no_struct(self.parse_expr)
            body = self.parse_block()
            return ast.WhileExpr(cond, body, span=tok.span)
        if kind is T.KW_LOOP:
            self._advance()
            return ast.LoopExpr(self.parse_block(), span=tok.span)
        if kind is T.KW_FOR:
            self._advance()
            var = self._expect(T.IDENT).text
            self._expect(T.KW_IN)
            iterable = self._parse_no_struct(self.parse_expr)
            body = self.parse_block()
            return ast.ForExpr(var, iterable, body, span=tok.span)
        if kind is T.KW_RETURN:
            self._advance()
            value = None
            if not self._at(T.SEMI, T.RBRACE, T.RPAREN, T.COMMA, T.EOF):
                value = self.parse_expr()
            return ast.ReturnExpr(value, span=tok.span)
        if kind is T.KW_BREAK:
            self._advance()
            value = None
            if not self._at(T.SEMI, T.RBRACE, T.EOF):
                value = self.parse_expr()
            return ast.BreakExpr(value, span=tok.span)
        if kind is T.KW_CONTINUE:
            self._advance()
            return ast.ContinueExpr(span=tok.span)
        if kind is T.KW_MOVE:
            self._advance()
            return self._parse_closure(is_move=True, span=tok.span)
        if kind in (T.PIPE, T.PIPEPIPE):
            return self._parse_closure(is_move=False, span=tok.span)
        if kind is T.IDENT:
            return self._parse_path_or_macro()
        raise ParseError(f"expected expression, found {tok.text!r}", tok.span)

    def _parse_no_struct(self, parse):
        self._no_struct_lit += 1
        try:
            return parse()
        finally:
            self._no_struct_lit -= 1

    def _parse_paren(self) -> ast.Expr:
        start = self._expect(T.LPAREN).span
        if self._eat(T.RPAREN):
            return ast.TupleLit([], span=start)
        guard = self._no_struct_lit
        self._no_struct_lit = 0
        try:
            first = self.parse_expr()
            if self._eat(T.COMMA):
                elems = [first]
                while not self._at(T.RPAREN):
                    elems.append(self.parse_expr())
                    if not self._eat(T.COMMA):
                        break
                self._expect(T.RPAREN)
                return ast.TupleLit(elems, span=start)
            self._expect(T.RPAREN)
            return first
        finally:
            self._no_struct_lit = guard

    def _parse_array(self) -> ast.Expr:
        start = self._expect(T.LBRACKET).span
        if self._eat(T.RBRACKET):
            return ast.ArrayLit([], span=start)
        guard = self._no_struct_lit
        self._no_struct_lit = 0
        try:
            first = self.parse_expr()
            if self._eat(T.SEMI):
                count = self.parse_expr()
                self._expect(T.RBRACKET)
                return ast.ArrayRepeat(first, count, span=start)
            elems = [first]
            while self._eat(T.COMMA):
                if self._at(T.RBRACKET):
                    break
                elems.append(self.parse_expr())
            self._expect(T.RBRACKET)
            return ast.ArrayLit(elems, span=start)
        finally:
            self._no_struct_lit = guard

    def _parse_if(self) -> ast.IfExpr:
        start = self._expect(T.KW_IF).span
        cond = self._parse_no_struct(self.parse_expr)
        then_block = self.parse_block()
        else_block: ast.Expr | None = None
        if self._eat(T.KW_ELSE):
            if self._at(T.KW_IF):
                else_block = self._parse_if()
            else:
                else_block = self.parse_block()
        return ast.IfExpr(cond, then_block, else_block, span=start)

    def _parse_closure(self, is_move: bool, span: Span) -> ast.Closure:
        params: list[str] = []
        if self._eat(T.PIPEPIPE):
            pass  # `||` : zero parameters
        else:
            self._expect(T.PIPE)
            while not self._at(T.PIPE):
                self._eat(T.KW_MUT)
                params.append(self._expect(T.IDENT).text)
                if self._eat(T.COLON):
                    self.parse_type()  # parameter type annotations are dropped
                if not self._eat(T.COMMA):
                    break
            self._expect(T.PIPE)
        body: ast.Expr
        if self._at(T.LBRACE):
            body = self.parse_block()
        else:
            body = self.parse_expr()
        return ast.Closure(params, body, is_move, span=span)

    def _parse_path_or_macro(self) -> ast.Expr:
        start = self._peek().span
        segments = [self._expect(T.IDENT).text]
        generic_args: list[Ty] = []
        while self._at(T.COLONCOLON):
            nxt = self._peek(1)
            if nxt.kind is T.IDENT:
                self._advance()
                segments.append(self._expect(T.IDENT).text)
            elif nxt.kind is T.LT:
                # Turbofish; may appear mid-path (`Vec::<i32>::new`).
                self._advance()
                self._advance()
                generic_args.append(self.parse_type())
                while self._eat(T.COMMA):
                    generic_args.append(self.parse_type())
                self._expect_gt()
            else:
                break

        # Macro invocation: `name!(...)` or `vec![...]`.
        if self._at(T.BANG) and len(segments) == 1 and segments[0] in _MACRO_NAMES:
            self._advance()
            if self._eat(T.LBRACKET):
                # Support the `vec![elem; count]` repeat form.
                if segments[0] == "vec" and not self._at(T.RBRACKET):
                    first = self.parse_expr()
                    if self._eat(T.SEMI):
                        count = self.parse_expr()
                        self._expect(T.RBRACKET)
                        return ast.MacroCall("vec_repeat", [first, count],
                                             span=start)
                    args = [first]
                    while self._eat(T.COMMA):
                        if self._at(T.RBRACKET):
                            break
                        args.append(self.parse_expr())
                    self._expect(T.RBRACKET)
                    return ast.MacroCall("vec", args, span=start)
                args = self._parse_expr_list(T.RBRACKET)
                self._expect(T.RBRACKET)
            elif self._eat(T.LBRACE):
                args = self._parse_expr_list(T.RBRACE)
                self._expect(T.RBRACE)
            else:
                self._expect(T.LPAREN)
                args = self._parse_expr_list(T.RPAREN)
                self._expect(T.RPAREN)
            return ast.MacroCall(segments[0], args, span=start)

        # Struct literal: `Name { field: expr, .. }` when allowed.
        if (
            self._at(T.LBRACE)
            and not self._no_struct_lit
            and len(segments) == 1
            and segments[0][0:1].isupper()
            and self._looks_like_struct_lit()
        ):
            self._advance()
            fields: list[tuple[str, ast.Expr]] = []
            while not self._at(T.RBRACE):
                fname = self._expect(T.IDENT).text
                self._expect(T.COLON)
                fields.append((fname, self.parse_expr()))
                if not self._eat(T.COMMA):
                    break
            self._expect(T.RBRACE)
            return ast.StructLit(segments[0], fields, span=start)

        return ast.PathExpr(segments, generic_args, span=start)

    def _looks_like_struct_lit(self) -> bool:
        """Disambiguate ``Name { field: ... }`` from a path followed by a block."""
        return (
            self._peek(1).kind is T.IDENT and self._peek(2).kind is T.COLON
        ) or self._peek(1).kind is T.RBRACE


def _is_block_like(expr: ast.Expr) -> bool:
    return isinstance(
        expr, (ast.Block, ast.IfExpr, ast.WhileExpr, ast.LoopExpr, ast.ForExpr)
    )


def _parse_int_text(text: str) -> tuple[int, str | None]:
    """Split an integer literal into (value, suffix)."""
    suffix = None
    body = text
    for candidate in ("i128", "u128", "isize", "usize", "i16", "u16", "i32",
                      "u32", "i64", "u64", "i8", "u8"):
        if body.endswith(candidate):
            head = body[: -len(candidate)]
            # Guard against hex digits being eaten (e.g. 0xbeef ends with 'ef'?
            # 'ef' is not a suffix, but 0x1u8: head='0x1').
            if head and (head[-1].isdigit() or head[-1] == "_" or
                         (head.startswith(("0x", "0X")) and len(head) > 2)):
                suffix = candidate
                body = head
                break
    body = body.replace("_", "")
    if body.startswith(("0x", "0X")):
        return int(body, 16), suffix
    if body.startswith(("0b", "0B")):
        return int(body, 2), suffix
    return int(body, 10), suffix


def _unescape(text: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            mapping = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
                       "\\": "\\", "'": "'", '"': '"'}
            out.append(mapping.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


@lru_cache(maxsize=512)
def _parse_program_cached(source: str) -> ast.Program:
    """The memo's own tree, shared by every caller: the detector
    interprets it uncloned, so nothing may write to it."""
    return Parser(source).parse_program()


def parse_program(source: str) -> ast.Program:
    """Parse a full mini-Rust source file into a :class:`Program`.

    Memoized on the source text: a repair round re-parses the same unchanged
    input many times (every engine instance, every campaign repeat), so the
    lex+parse runs once per distinct source and subsequent calls return a
    fresh :func:`~repro.lang.ast_nodes.clone` of the cached tree.  Cloning
    keeps callers isolated — agents rewrite ASTs in place, and a mutation
    must never leak into later parses — and reassigns node ids, which are
    only ever used as within-tree identities, never compared across parses
    or ordered.  Unparseable sources are not cached (``lru_cache`` does not
    memoize raised exceptions); they stay rare and cheap to re-reject.
    """
    return ast.clone(_parse_program_cached(source))


def parse_expr(source: str) -> ast.Expr:
    """Parse a single expression (used by tests and rewrite templates)."""
    parser = Parser(source)
    expr = parser.parse_expr()
    parser._expect(T.EOF)
    return expr
