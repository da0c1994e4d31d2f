"""Token definitions for the mini-Rust lexer."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .span import Span


class TokenKind(enum.Enum):
    IDENT = "ident"
    INT = "int"
    STRING = "string"
    CHAR = "char"
    LIFETIME = "lifetime"

    # Keywords.
    KW_AS = "as"
    KW_BREAK = "break"
    KW_CONST = "const"
    KW_CONTINUE = "continue"
    KW_ELSE = "else"
    KW_ENUM = "enum"
    KW_FALSE = "false"
    KW_FN = "fn"
    KW_FOR = "for"
    KW_IF = "if"
    KW_IMPL = "impl"
    KW_IN = "in"
    KW_LET = "let"
    KW_LOOP = "loop"
    KW_MATCH = "match"
    KW_MOVE = "move"
    KW_MUT = "mut"
    KW_PUB = "pub"
    KW_RETURN = "return"
    KW_STATIC = "static"
    KW_STRUCT = "struct"
    KW_TRUE = "true"
    KW_UNION = "union"
    KW_UNSAFE = "unsafe"
    KW_USE = "use"
    KW_WHILE = "while"

    # Punctuation.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    COLONCOLON = "::"
    ARROW = "->"
    FATARROW = "=>"
    DOT = "."
    DOTDOT = ".."
    DOTDOTEQ = "..="
    HASH = "#"
    BANG = "!"
    QUESTION = "?"
    AT = "@"

    # Operators.
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    CARET = "^"
    AMP = "&"
    AMPAMP = "&&"
    PIPE = "|"
    PIPEPIPE = "||"
    SHL = "<<"
    SHR = ">>"
    EQ = "="
    EQEQ = "=="
    NE = "!="
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    PLUSEQ = "+="
    MINUSEQ = "-="
    STAREQ = "*="
    SLASHEQ = "/="
    PERCENTEQ = "%="
    CARETEQ = "^="
    AMPEQ = "&="
    PIPEEQ = "|="
    SHLEQ = "<<="
    SHREQ = ">>="

    EOF = "eof"


KEYWORDS = {
    "as": TokenKind.KW_AS,
    "break": TokenKind.KW_BREAK,
    "const": TokenKind.KW_CONST,
    "continue": TokenKind.KW_CONTINUE,
    "else": TokenKind.KW_ELSE,
    "enum": TokenKind.KW_ENUM,
    "false": TokenKind.KW_FALSE,
    "fn": TokenKind.KW_FN,
    "for": TokenKind.KW_FOR,
    "if": TokenKind.KW_IF,
    "impl": TokenKind.KW_IMPL,
    "in": TokenKind.KW_IN,
    "let": TokenKind.KW_LET,
    "loop": TokenKind.KW_LOOP,
    "match": TokenKind.KW_MATCH,
    "move": TokenKind.KW_MOVE,
    "mut": TokenKind.KW_MUT,
    "pub": TokenKind.KW_PUB,
    "return": TokenKind.KW_RETURN,
    "static": TokenKind.KW_STATIC,
    "struct": TokenKind.KW_STRUCT,
    "true": TokenKind.KW_TRUE,
    "union": TokenKind.KW_UNION,
    "unsafe": TokenKind.KW_UNSAFE,
    "use": TokenKind.KW_USE,
    "while": TokenKind.KW_WHILE,
}

#: Integer literal suffixes the lexer recognises and keeps attached.
INT_SUFFIXES = (
    "i8", "i16", "i32", "i64", "i128", "isize",
    "u8", "u16", "u32", "u64", "u128", "usize",
)


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    span: Span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}@{self.span})"
