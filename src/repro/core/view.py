"""One memoized, read-only view per input program text.

An engine asks the same read-only questions about its input every round:
the printed code every prompt embeds (F2 feature extraction, solution
generation, the reasoning agent's AST-extraction prompt), the unsafe
counts feature extraction reports, the rule-trigger tokens
(:func:`~repro.core.rewrites.trigger_tokens`), and the knowledge-base
embedding of the tree, unpruned or pruned by Algorithm 1.
:func:`program_view` answers them once per source text, from the parse
memo's shared tree.

Each facet is computed on first use, so an engine that never prunes
pays for no prune.  Service worker threads share views, so facets are
computed under the view's lock; embeddings are returned read-only.
Nothing here writes to the tree: printing, counting and vectorizing
only read it, and :func:`~repro.core.pruning.prune_program` clones
before it prunes.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from ..lang import ast_nodes as ast
from ..lang.parser import _parse_program_cached
from ..lang.printer import print_program
from ..miri.errors import MiriError
from .knowledge import vectorize
from .pruning import prune_program
from .rewrites import trigger_tokens

#: Method calls feature extraction counts as unsafe operations.
_UNSAFE_CALL_METHODS = frozenset({
    "read", "write", "add", "offset", "set_len", "assume_init",
    "get_unchecked",
})


class ProgramView:
    """Lazily computed facets of one source's shared, never-written tree."""

    def __init__(self, source: str):
        self.source = source
        self._lock = threading.Lock()
        self._facets: dict = {}

    @property
    def tree(self) -> ast.Program:
        """The parse memo's tree.  Looked up on every access rather than
        held, so each repair keeps the source's memo entry fresh for the
        detector and the checker, and an evicted tree is not kept alive."""
        return _parse_program_cached(self.source)

    def _facet(self, key, compute):
        with self._lock:
            if key not in self._facets:
                self._facets[key] = compute()
            return self._facets[key]

    @property
    def code(self) -> str:
        """The printed program, as every prompt embeds it."""
        return self._facet("code", lambda: print_program(self.tree))

    @property
    def unsafe_counts(self) -> tuple[int, int]:
        """(unsafe blocks, unsafe-operation method calls)."""
        return self._facet("unsafe_counts", self._count_unsafe)

    @property
    def tokens(self) -> frozenset[str]:
        """The tree's rule-trigger tokens."""
        return self._facet("tokens", lambda: trigger_tokens(self.tree))

    @property
    def vector(self) -> np.ndarray:
        """Knowledge-base embedding of the whole tree."""
        return self._facet("vector",
                           lambda: _read_only(vectorize(self.tree)))

    def pruned_vector(self, errors: list[MiriError]) -> np.ndarray:
        """Embedding of the tree pruned against ``errors``, keyed by the
        error lines, which are all that pruning reads from them."""
        lines = frozenset(error.span.line for error in errors
                          if error.span.line)
        return self._facet(
            ("pruned", lines),
            lambda: _read_only(vectorize(prune_program(self.tree, errors))))

    def _count_unsafe(self) -> tuple[int, int]:
        blocks = calls = 0
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Block):
                blocks += node.is_unsafe
            elif isinstance(node, ast.MethodCall):
                calls += node.method in _UNSAFE_CALL_METHODS
        return blocks, calls


def _read_only(vector: np.ndarray) -> np.ndarray:
    vector.flags.writeable = False
    return vector


@lru_cache(maxsize=512)
def program_view(source: str) -> ProgramView:
    """The view of ``source``; raises what parsing raises (and, like the
    parse memo, caches no failure)."""
    _parse_program_cached(source)
    return ProgramView(source)
