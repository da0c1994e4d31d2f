"""The program view: one memoized, read-only set of facts per source.

:func:`~repro.core.view.program_view` replaces what every engine round
used to recompute from a private clone of its input.  For every source of
both corpora (buggy and fixed) the view's facets must equal that
computation, its embeddings must refuse writes, and the benchmark's
``reset_memos`` must empty it like every other program memo.
"""

import sys
import threading

import numpy as np
import pytest

from perfbench.measure import reset_memos
from repro.core import view as view_module
from repro.core.knowledge import vectorize
from repro.core.pruning import prune_program
from repro.core.rewrites import trigger_tokens
from repro.core.view import ProgramView, program_view
from repro.corpus.dataset import load_compile_dataset, load_dataset
from repro.engine import create_engine
from repro.lang import ast_nodes as ast
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError, _parse_program_cached, parse_program
from repro.lang.printer import print_program
from repro.miri import detect_ub
from repro.miri.errors import MiriError, UbKind

THREADS = 4
#: Short enough that threads trade places mid-facet.
SWITCH_INTERVAL = 1e-5


def _old_unsafe_counts(program):
    """The walks extract_features made before the view counted for it."""
    blocks = sum(1 for node in ast.walk(program)
                 if isinstance(node, ast.Block) and node.is_unsafe)
    calls = sum(1 for node in ast.walk(program)
                if isinstance(node, ast.MethodCall)
                and node.method in ("read", "write", "add", "offset",
                                    "set_len", "assume_init",
                                    "get_unchecked"))
    return blocks, calls


@pytest.fixture(scope="module")
def corpus():
    """(source, collect-mode errors) for every parseable corpus source."""
    rows = []
    for dataset in (load_dataset(), load_compile_dataset()):
        for case in dataset.cases:
            for source in (case.source, case.fixed_source):
                try:
                    _parse_program_cached(source)
                except (LexError, ParseError):
                    continue
                rows.append((source,
                             detect_ub(source, collect=True).errors))
    return rows


class TestFacetsEqualDirectComputation:
    def test_corpus_is_covered(self, corpus):
        assert len(corpus) > 250

    def test_code(self, corpus):
        for source, _errors in corpus:
            assert program_view(source).code == \
                print_program(parse_program(source))

    def test_vectors(self, corpus):
        for source, errors in corpus:
            view = program_view(source)
            private = parse_program(source)
            assert np.array_equal(view.vector, vectorize(private))
            assert np.array_equal(view.pruned_vector(errors),
                                  vectorize(prune_program(private, errors)))
            assert np.array_equal(view.pruned_vector([]),
                                  vectorize(prune_program(private, [])))

    def test_unsafe_counts_and_tokens(self, corpus):
        for source, _errors in corpus:
            view = program_view(source)
            private = parse_program(source)
            assert view.unsafe_counts == _old_unsafe_counts(private)
            assert view.tokens == trigger_tokens(private)

    def test_vectors_refuse_writes(self, corpus):
        for source, errors in corpus:
            view = program_view(source)
            for vector in (view.vector, view.pruned_vector(errors)):
                with pytest.raises(ValueError):
                    vector[0] = 1.0
                with pytest.raises(ValueError):
                    vector *= 2


class TestMemo:
    SOURCE = "fn main() { let x = 1; let p = &x; println!(\"{}\", *p); }"

    def test_one_view_per_source(self):
        assert program_view(self.SOURCE) is program_view(self.SOURCE)

    def test_tree_is_the_parse_memo_tree(self):
        assert program_view(self.SOURCE).tree is \
            _parse_program_cached(self.SOURCE)

    def test_facets_are_computed_once(self, monkeypatch):
        prints = []
        monkeypatch.setattr(view_module, "print_program",
                            lambda tree: prints.append(tree) or "code")
        view = ProgramView(self.SOURCE)
        assert view.code == view.code == "code"
        assert len(prints) == 1

    def test_pruned_vector_is_keyed_by_error_lines(self):
        view = ProgramView(self.SOURCE)
        span = _parse_program_cached(self.SOURCE).items[0].span
        first = [MiriError(UbKind.PANIC, "one", span)]
        second = [MiriError(UbKind.ALLOC, "another", span)]
        assert view.pruned_vector(first) is view.pruned_vector(second)

    def test_unparseable_source_raises_and_is_not_cached(self):
        before = program_view.cache_info().currsize
        with pytest.raises((LexError, ParseError)):
            program_view("fn main( {")
        assert program_view.cache_info().currsize == before

    def test_reset_memos_empties_the_view_memo(self):
        program_view(self.SOURCE)
        assert program_view.cache_info().currsize > 0
        reset_memos()
        assert program_view.cache_info().currsize == 0

    def test_concurrent_first_use_computes_each_facet_once(self, corpus,
                                                           monkeypatch):
        source, errors = corpus[0]
        prunes = []
        real_prune = view_module.prune_program
        monkeypatch.setattr(
            view_module, "prune_program",
            lambda tree, errs: prunes.append(tree) or real_prune(tree, errs))
        view = ProgramView(source)
        start = threading.Barrier(THREADS)
        results = [None] * THREADS

        def ask(index):
            start.wait(timeout=60)
            results[index] = (view.code, view.pruned_vector(errors),
                              view.tokens)

        threads = [threading.Thread(target=ask, args=(index,))
                   for index in range(THREADS)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(prunes) == 1
        for facets in results[1:]:
            assert all(ours is theirs
                       for ours, theirs in zip(facets, results[0]))


class TestLazyFacets:
    def test_llm_only_pays_for_no_prune_or_vectorize(self, monkeypatch):
        calls = []
        monkeypatch.setattr(view_module, "prune_program",
                            lambda *args: calls.append("prune"))
        monkeypatch.setattr(view_module, "vectorize",
                            lambda *args: calls.append("vectorize"))
        program_view.cache_clear()
        engine = create_engine("llm_only?batched=on", seed=3)
        for case in load_dataset().cases[:20]:
            engine.repair(case.source)
        program_view.cache_clear()
        assert calls == []
