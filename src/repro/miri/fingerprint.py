"""Normalized-AST source fingerprints.

The detector is a pure function of the *program*, not of the bytes that
spell it: whitespace, comments, redundant formatting, and a consistent
renaming of user-chosen identifiers all leave every verdict, error count,
and observable output unchanged.  :func:`source_fingerprint` computes a
stable hash of that equivalence class.  Corpus manifests store it as an
integrity check, and the corpus generator classifies its mutation
operators by it: the rename operator draws on :func:`renameable_names`,
so its mutants collide with their parent.  Detector answers are *not*
shared by fingerprint — :func:`~repro.miri.detect_case` keys on exact
text.

Normalization pipeline (``FINGERPRINT_VERSION`` tags the rules):

1. **Parse** the source (reading the parse memo's shared tree,
   :func:`~repro.lang.parser._parse_program_cached`, which is never
   written) and pretty-print it back — this alone erases comments,
   whitespace, and redundant formatting, and drops every span.
2. **Re-lex** the canonical text and alpha-rename user identifiers by
   order of first appearance (``§0``, ``§1``, …).
3. **Hash** the resulting ``kind:text`` token stream with SHA-256.

Renaming is deliberately conservative — it is a *bijection* over the
renamed names (two distinct names never merge), and a name is only
renamed when the interpreter provably attaches no meaning to it:

* only names **declared** in the program itself (bindings, parameters,
  statics/consts, structs and their fields) are candidates — never
  ``std``/shim path material, and never names observable in stdout:
  *function* names print as ``<fn name>`` when a function is used as a
  value, and *union* names/fields print as ``Name { field: value }``;
* names that appear adjacent to ``::`` anywhere (path segments such as
  ``mem::transmute`` or ``Box::new``) are excluded wholesale;
* names that appear after a ``.`` anywhere (method/field positions,
  where built-in method shims like ``.len()`` resolve by name) are
  excluded wholesale;
* names the interpreter special-cases before user items (``main``,
  ``drop``, ``Some``/``None``/``Ok``/``Err``), macro names, and
  primitive type names are never renamed.

Two sources with equal fingerprints therefore differ at most by
formatting plus a behaviour-preserving renaming; their verdicts, error
*counts*, and stdout coincide exactly (error *messages* and spans may
still spell each variant's own names and positions, which is why no
report is shared across fingerprints).  Unparseable sources fall back
to a raw-text hash, so they only ever collide with byte-identical
inputs.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from ..lang import ast_nodes as ast
from ..lang.lexer import tokenize
from ..lang.parser import _MACRO_NAMES, _parse_program_cached
from ..lang.printer import print_program
from ..lang.tokens import TokenKind as T
from ..lang.types import PRIMITIVES

#: Bump when the normalization rules change, so fingerprints from two code
#: versions can never be confused for one another.
FINGERPRINT_VERSION = "repro.ast-fingerprint/1"

#: Names that carry meaning to the interpreter even when the program also
#: declares them: the entry point, call-resolution special cases that win
#: over user items, macro names, and primitive type names.
_PROTECTED = (frozenset({"main", "drop", "Some", "None", "Ok", "Err"})
              | frozenset(_MACRO_NAMES) | frozenset(PRIMITIVES))

_SEP = "\x1f"


def _declared_names(program: ast.Program) -> set[str]:
    """Renameable identifiers: names the program binds or defines.

    Two declaration kinds are deliberately *absent*, because their names
    are observable in stdout and renaming them would let two programs
    with different observable output share a fingerprint:

    * function item names — a function used as a value prints as
      ``<fn name>`` (``VFnPtr.__str__``);
    * union names and union field names — a union literal prints as
      ``Name { field: value }`` (``VUnionInit.__str__``).

    Struct names and struct fields stay renameable: struct values print
    as bare element tuples (``VAggregate``), never by name.
    """
    names: set[str] = set()
    observable: set[str] = set()
    for node in ast.walk(program):
        if isinstance(node, ast.LetStmt):
            names.add(node.name)
        elif isinstance(node, ast.Param):
            names.add(node.name)
        elif isinstance(node, ast.ForExpr):
            names.add(node.var)
        elif isinstance(node, ast.Closure):
            names.update(node.params)
        elif isinstance(node, (ast.StaticItem, ast.ConstItem)):
            names.add(node.name)
        elif isinstance(node, ast.StructItem):
            names.add(node.name)
            names.update(field_name for field_name, _ty in node.fields)
        elif isinstance(node, ast.UnionItem):
            # Renaming is name-level, so a binding or struct field that
            # happens to share a union's (printable) name must stay
            # verbatim too.
            observable.add(node.name)
            observable.update(field_name for field_name, _ty in node.fields)
        elif isinstance(node, ast.FnItem):
            observable.add(node.name)
    return names - observable


def _excluded_names(tokens) -> set[str]:
    """Identifiers whose *position* ties them to built-in resolution:
    path segments (adjacent to ``::``) and method/field accesses
    (following ``.``)."""
    excluded: set[str] = set()
    previous = None
    for index, token in enumerate(tokens):
        if token.kind is T.IDENT:
            following = tokens[index + 1] if index + 1 < len(tokens) else None
            if (previous is not None and previous.kind in (T.COLONCOLON,
                                                           T.DOT)) \
                    or (following is not None
                        and following.kind is T.COLONCOLON):
                excluded.add(token.text)
        previous = token
    return excluded


def _raw_fingerprint(source: str) -> str:
    digest = hashlib.sha256()
    digest.update(f"{FINGERPRINT_VERSION}{_SEP}raw{_SEP}".encode("utf-8"))
    digest.update(source.encode("utf-8"))
    return digest.hexdigest()


def renameable_names(source: str) -> set[str]:
    """Identifiers of ``source`` that a behaviour-preserving renaming may
    touch — exactly the set the fingerprint normalizer alpha-renames.

    This is the other consumer of the conservative rename analysis: the
    corpus *generator* renames these names to fresh spellings to mint
    mutant cases, and the fingerprint renames them to ``§N`` to erase the
    choice again — which is why rename mutants collide with their parent
    under :func:`source_fingerprint`.  Raises on unparseable input.
    """
    program = _parse_program_cached(source)
    tokens = tokenize(print_program(program))
    return _declared_names(program) - _PROTECTED - _excluded_names(tokens)


def normalized_tokens(source: str) -> list[str]:
    """The canonical ``kind:text`` token stream :func:`source_fingerprint`
    hashes, with user identifiers alpha-renamed.  Raises on unparseable
    input (callers wanting the fallback use :func:`source_fingerprint`)."""
    program = _parse_program_cached(source)
    canonical = print_program(program)
    tokens = tokenize(canonical)
    renameable = _declared_names(program) - _PROTECTED \
        - _excluded_names(tokens)
    rename: dict[str, str] = {}
    stream: list[str] = []
    for token in tokens:
        if token.kind is T.EOF:
            break
        text = token.text
        if token.kind is T.IDENT and text in renameable:
            mapped = rename.get(text)
            if mapped is None:
                mapped = rename.setdefault(text, f"§{len(rename)}")
            text = mapped
        stream.append(f"{token.kind.name}:{text}")
    return stream


@lru_cache(maxsize=8192)
def source_fingerprint(source: str) -> str:
    """Stable normalization hash of one source text (see module docs).

    Memoized on the text — manifests and the generator re-fingerprint
    the same sources, and the parse behind a fingerprint must stay
    amortized.
    """
    try:
        stream = normalized_tokens(source)
    except Exception:
        # Unparseable (or unlexable-after-print, which should not happen):
        # fall back to the raw text, so dedup degrades to byte identity.
        return _raw_fingerprint(source)
    digest = hashlib.sha256()
    digest.update(f"{FINGERPRINT_VERSION}{_SEP}ast{_SEP}".encode("utf-8"))
    digest.update(_SEP.join(stream).encode("utf-8"))
    return digest.hexdigest()
