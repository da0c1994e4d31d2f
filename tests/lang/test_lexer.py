"""Unit tests for the mini-Rust lexer."""

import pytest

from repro.corpus import generate_sources, load_compile_dataset, load_dataset
from repro.lang.lexer import LexError, tokenize
from repro.lang.span import Span, line_col
from repro.lang.tokens import Token, TokenKind as T


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def texts(source):
    return [t.text for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind is T.EOF

    def test_identifiers_and_keywords(self):
        assert kinds("let x fn unsafe") == [T.KW_LET, T.IDENT, T.KW_FN, T.KW_UNSAFE]

    def test_underscore_identifier(self):
        assert kinds("_foo _") == [T.IDENT, T.IDENT]

    def test_keyword_prefix_is_identifier(self):
        # `letter` must not lex as `let` + `ter`.
        assert texts("letter") == ["letter"]
        assert kinds("letter") == [T.IDENT]

    def test_punctuation_maximal_munch(self):
        assert kinds("::") == [T.COLONCOLON]
        assert kinds(":") == [T.COLON]
        assert kinds("->") == [T.ARROW]
        assert kinds("=>") == [T.FATARROW]
        assert kinds("..=") == [T.DOTDOTEQ]
        assert kinds("..") == [T.DOTDOT]
        assert kinds("<<=") == [T.SHLEQ]
        assert kinds("<<") == [T.SHL]
        assert kinds("&&") == [T.AMPAMP]
        assert kinds("& &") == [T.AMP, T.AMP]

    def test_compound_assignment_operators(self):
        assert kinds("+= -= *= /= %= ^= &= |=") == [
            T.PLUSEQ, T.MINUSEQ, T.STAREQ, T.SLASHEQ,
            T.PERCENTEQ, T.CARETEQ, T.AMPEQ, T.PIPEEQ,
        ]

    def test_comparison_operators(self):
        assert kinds("== != <= >= < >") == [T.EQEQ, T.NE, T.LE, T.GE, T.LT, T.GT]


class TestNumbers:
    def test_decimal(self):
        assert texts("42") == ["42"]
        assert kinds("42") == [T.INT]

    def test_decimal_with_underscores(self):
        assert texts("1_000_000") == ["1_000_000"]

    def test_hex(self):
        assert texts("0xff 0x17") == ["0xff", "0x17"]

    def test_binary(self):
        assert texts("0b1010") == ["0b1010"]

    def test_suffixed(self):
        assert texts("42usize 0xffu8 1i64 7u32") == ["42usize", "0xffu8", "1i64", "7u32"]

    def test_suffix_not_grabbed_from_identifier(self):
        # `42us` — `us` is not a valid suffix; lexer must split.
        toks = texts("42us")
        assert toks == ["42", "us"]


class TestStringsAndChars:
    def test_simple_string(self):
        assert texts('"hello"') == ['"hello"']
        assert kinds('"hello"') == [T.STRING]

    def test_string_with_escapes(self):
        assert texts(r'"a\"b\n"') == [r'"a\"b\n"']

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_char_literal(self):
        assert kinds("'a'") == [T.CHAR]

    def test_char_escape(self):
        assert kinds(r"'\n'") == [T.CHAR]

    def test_lifetime(self):
        assert kinds("'static") == [T.LIFETIME]
        assert texts("'static") == ["'static"]


class TestComments:
    def test_line_comment_skipped(self):
        assert kinds("1 // comment\n2") == [T.INT, T.INT]

    def test_block_comment_skipped(self):
        assert kinds("1 /* mid */ 2") == [T.INT, T.INT]

    def test_nested_block_comment(self):
        assert kinds("1 /* a /* b */ c */ 2") == [T.INT, T.INT]

    def test_unterminated_block_comment_raises_at_opener(self):
        with pytest.raises(LexError) as err:
            tokenize("fn main() { let x = 1; } /* never closed")
        assert err.value.message == "unterminated block comment"
        assert (err.value.line, err.value.col) == (1, 26)

    def test_unclosed_nested_opener_raises_at_outermost_opener(self):
        with pytest.raises(LexError) as err:
            tokenize("let a;\n  /* outer /* inner */ still open\n")
        assert err.value.message == "unterminated block comment"
        assert (err.value.line, err.value.col) == (2, 3)


class TestSpans:
    def test_line_and_column_tracking(self):
        toks = tokenize("let x\nlet y")
        assert toks[0].span.line == 1
        assert toks[2].span.line == 2
        assert toks[3].span.col == 5

    def test_unknown_character_raises_with_location(self):
        with pytest.raises(LexError) as err:
            tokenize("let $")
        assert err.value.line == 1


class TestRealisticSnippets:
    def test_transmute_turbofish(self):
        toks = kinds("mem::transmute::<&i32, usize>(p)")
        assert T.COLONCOLON in toks
        assert toks.count(T.COLONCOLON) == 2

    def test_unsafe_block(self):
        assert kinds("unsafe { *p }") == [
            T.KW_UNSAFE, T.LBRACE, T.STAR, T.IDENT, T.RBRACE,
        ]

    def test_attribute_tokens(self):
        assert kinds("#[derive(Debug)]")[0] is T.HASH


class TestTokenValue:
    def test_equality_and_hash_are_by_fields(self):
        span = Span(0, 3, 1, 1)
        assert Token(T.KW_LET, "let", span) == Token(T.KW_LET, "let", span)
        assert Token(T.KW_LET, "let", span) != Token(T.IDENT, "let", span)
        assert hash(Token(T.KW_LET, "let", span)) == \
            hash((T.KW_LET, "let", span))

    def test_lexed_tokens_equal_constructed_ones(self):
        assert tokenize("x")[0] == Token(T.IDENT, "x", Span(0, 1, 1, 1))

    def test_repr_shows_kind_text_and_position(self):
        assert repr(tokenize("\n  x")[0]) == "Token(IDENT, 'x'@2:3)"

    def test_fields_cannot_be_assigned(self):
        token = tokenize("x")[0]
        with pytest.raises(AttributeError):
            token.text = "y"


@pytest.fixture(scope="module")
def corpus_sources():
    """Both corpora (buggy and fixed sides) and 500 generated mutants."""
    sources = [text for dataset in (load_dataset(), load_compile_dataset())
               for case in dataset
               for text in (case.source, case.fixed_source)]
    return sources + generate_sources(500, 12345)


class TestTokenPositions:
    def test_every_token_spells_its_text_at_its_position(self, corpus_sources):
        """Each span slices its token's text out of the source, and its
        line and column agree with :func:`line_col`, which recomputes them
        from the offset independently of the scanner."""
        checked = 0
        for source in corpus_sources:
            for token in tokenize(source):
                span = token.span
                assert source[span.start:span.end] == token.text, token
                assert (span.line, span.col) == \
                    line_col(source, span.start), token
                checked += 1
        assert checked > 60_000
