"""Shared-tree gate: the detector may interpret the parse memo's own tree.

``repro.miri`` runs every string source on the tree
:func:`~repro.lang.parser._parse_program_cached` holds, with no clone, so
one tree serves every detector call — and every service worker thread —
for as long as it stays in the memo.  That is only sound while the
interpreter never writes to the AST.  Every source the project can
produce (the hand-written UB corpus, the compile-error corpus, and 500
seeded generator mutants) runs in both collect modes, and:

* each memo tree hashes the same, over every node's fields including
  spans and ``node_id``, before and after :func:`run_program`;
* ``detect_ub(text)`` on the shared tree equals a run on a private
  :func:`~repro.lang.ast_nodes.clone`, equals itself back to back, and
  equals the :func:`~repro.miri.detect_ub_batch` answer;
* :func:`~repro.lang.parser.parse_program` still hands its callers
  private clones, so their rewrites never reach the shared tree;
* every node span and every report span lies inside its source;
* four threads detecting the same sources at once reproduce the serial
  reports;
* borrow-tag numbering restarts per run on one shared tree.

Any failure here means the detector must go back to cloning.
"""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.miri as miri
import repro.miri.borrows as borrows
from repro.corpus.dataset import load_compile_dataset, load_dataset
from repro.corpus.generator import generate_sources
from repro.lang import ast_nodes as ast
from repro.lang.lexer import LexError
from repro.lang.parser import (ParseError, _parse_program_cached,
                               parse_program)
from repro.lang.span import DUMMY_SPAN
from repro.miri import detect_ub, detect_ub_batch
from repro.miri.interp import run_program

GENERATED_COUNT = 500
GENERATED_SEED = 12345
THREADS = 4
THREADED_SOURCES = 40
#: Thread switch interval for the concurrent test: short enough that
#: threads trade places mid-run on the same tree.
SWITCH_INTERVAL = 1e-5

MEMORY_HEAVY = """
fn main() {
    let mut values = [0i64; 4];
    let first = &mut values[0];
    *first = 10;
    let b = Box::new(77i64);
    let p = &*b;
    let x = *p + values[0];
    let second = &values[1];
    let y = *second + x;
    println!("{}", y);
}
"""

COLLECT_MODES = pytest.mark.parametrize("collect", [False, True],
                                        ids=["first-ub", "collect"])


def _shape(value, pending: list):
    """A hashable picture of one field; child nodes stand in by id and are
    queued so each node's own fields are hashed exactly once."""
    if isinstance(value, ast.Node):
        pending.append(value)
        return ("node", value.node_id)
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,
                tuple(_shape(item, pending) for item in value))
    return repr(value)


def tree_digest(program: ast.Program) -> str:
    """sha256 over every node's attributes, spans and ``node_id``
    included — an attribute added, dropped, or rebound anywhere in the
    tree changes it."""
    digest = hashlib.sha256()
    pending = [program]
    while pending:
        node = pending.pop()
        fields = tuple((key, _shape(value, pending))
                       for key, value in vars(node).items())
        digest.update(repr((type(node).__name__, fields)).encode())
    return digest.hexdigest()


def _memo_tree(source: str):
    """The parse memo's tree for ``source``, or None when it does not
    parse (the detector answers those before interpreting)."""
    try:
        return _parse_program_cached(source)
    except (LexError, ParseError):
        return None


@pytest.fixture(scope="module")
def corpus_sources():
    sources = []
    for case in load_dataset().cases:
        sources.append(case.source)
        sources.append(case.fixed_source)
    for case in load_compile_dataset().cases:
        sources.append(case.source)
        sources.append(case.fixed_source)
    sources.extend(generate_sources(GENERATED_COUNT, GENERATED_SEED))
    return sources


class TestInterpreterIsReadOnly:
    @COLLECT_MODES
    def test_memo_trees_unchanged_by_runs(self, corpus_sources, collect):
        parsed = changed = 0
        for source in corpus_sources:
            tree = _memo_tree(source)
            if tree is None:
                continue
            parsed += 1
            before = tree_digest(tree)
            run_program(tree, collect=collect)
            if tree_digest(tree) != before:
                changed += 1
        assert parsed > 700
        assert changed == 0, f"{changed} of {parsed} trees changed"

    def test_digest_sees_a_write(self):
        tree = ast.clone(_parse_program_cached(MEMORY_HEAVY))
        before = tree_digest(tree)
        tree.items[0].body.stmts[0].span = DUMMY_SPAN
        assert tree_digest(tree) != before
        tree = ast.clone(_parse_program_cached(MEMORY_HEAVY))
        before = tree_digest(tree)
        tree.items[0].scratch = 1
        assert tree_digest(tree) != before


class TestSharedTreeReports:
    def test_detector_runs_the_memo_tree(self, monkeypatch):
        seen = []

        def recording_run_program(program, **kwargs):
            seen.append(program)
            return run_program(program, **kwargs)

        monkeypatch.setattr(miri, "run_program", recording_run_program)
        detect_ub(MEMORY_HEAVY)
        detect_ub(MEMORY_HEAVY)
        memo = _parse_program_cached(MEMORY_HEAVY)
        assert len(seen) == 2
        assert seen[0] is memo and seen[1] is memo

    @COLLECT_MODES
    def test_shared_equals_private_clone(self, corpus_sources, collect):
        mismatches = []
        for index, source in enumerate(corpus_sources):
            shared = detect_ub(source, collect=collect)
            again = detect_ub(source, collect=collect)
            tree = _memo_tree(source)
            private = (run_program(ast.clone(tree), collect=collect)
                       if tree is not None else shared)
            if not shared == again == private:
                mismatches.append(index)
        assert not mismatches, f"sources {mismatches[:10]} diverged"

    @COLLECT_MODES
    def test_batch_equals_back_to_back(self, corpus_sources, collect):
        # The batch path interprets the same memo trees; exact-text
        # duplicates (the corpora repeat some fixed sources) get copies.
        batch = detect_ub_batch(corpus_sources, collect=collect,
                                fingerprint=False)
        single = [detect_ub(source, collect=collect)
                  for source in corpus_sources]
        assert len(batch) == len(single)
        mismatches = [index for index, (ours, theirs)
                      in enumerate(zip(batch, single)) if ours != theirs]
        assert not mismatches, f"sources {mismatches[:10]} diverged"


class TestParseMemo:
    def test_one_tree_per_source(self):
        assert _parse_program_cached(MEMORY_HEAVY) is \
            _parse_program_cached(MEMORY_HEAVY)

    def test_parse_program_hands_out_private_clones(self):
        memo = _parse_program_cached(MEMORY_HEAVY)
        before = tree_digest(memo)
        report = detect_ub(MEMORY_HEAVY)
        first = parse_program(MEMORY_HEAVY)
        second = parse_program(MEMORY_HEAVY)
        assert first is not memo and second is not memo
        assert first is not second
        # Rewrites mutate the tree they are given; none of it may reach
        # the tree the detector shares.
        second.items[0].body.stmts[0].span = DUMMY_SPAN
        second.items[0].body.stmts.pop()
        first.items.clear()
        assert tree_digest(memo) == before
        assert detect_ub(MEMORY_HEAVY) == report


class TestSpansMapIntoSource:
    def test_every_node_span_within_source(self, corpus_sources):
        outside = []
        for index, source in enumerate(corpus_sources):
            tree = _memo_tree(source)
            if tree is None:
                continue
            for node in ast.walk(tree):
                span = node.span
                if not 0 <= span.start <= span.end <= len(source):
                    outside.append((index, type(node).__name__, span))
        assert not outside, f"spans outside their source: {outside[:5]}"

    @COLLECT_MODES
    def test_report_spans_within_source(self, corpus_sources, collect):
        outside = []
        for index, source in enumerate(corpus_sources):
            for error in detect_ub(source, collect=collect).errors:
                span = error.span
                if not 0 <= span.start <= span.end <= len(source):
                    outside.append((index, error.message, span))
        assert not outside, f"error spans outside their source: {outside[:5]}"


class TestConcurrentSharing:
    @COLLECT_MODES
    def test_threads_reproduce_serial_reports(self, corpus_sources,
                                              collect):
        sample = corpus_sources[:THREADED_SOURCES]
        serial = [detect_ub(source, collect=collect) for source in sample]
        digests = [tree_digest(_parse_program_cached(source))
                   for source in sample]
        start = threading.Barrier(THREADS)

        def sweep(offset: int):
            # Rotated orders put different threads on the same tree at
            # the same time.
            start.wait(timeout=60)
            order = [(offset * 7 + i) % len(sample)
                     for i in range(len(sample))]
            reports = [None] * len(sample)
            for i in order:
                reports[i] = detect_ub(sample[i], collect=collect)
            return reports

        previous = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL)
        try:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                futures = [pool.submit(sweep, offset)
                           for offset in range(THREADS)]
                results = [future.result(timeout=300) for future in futures]
        finally:
            sys.setswitchinterval(previous)
        for reports in results:
            assert reports == serial
        assert [tree_digest(_parse_program_cached(source))
                for source in sample] == digests


class TestBorrowTagDeterminism:
    def test_back_to_back_runs_share_tag_sequences(self, monkeypatch):
        tree = _parse_program_cached(MEMORY_HEAVY)
        real_fresh_tag = borrows.fresh_tag
        sequences = []

        def recording_fresh_tag():
            tag = real_fresh_tag()
            sequences[-1].append(tag)
            return tag

        monkeypatch.setattr(borrows, "fresh_tag", recording_fresh_tag)
        reports = []
        for _ in range(3):
            sequences.append([])
            reports.append(detect_ub(MEMORY_HEAVY))
        sequences.append([])
        reports.append(run_program(tree))

        assert sequences[0], "case must exercise borrow tags"
        assert all(sequence == sequences[0] for sequence in sequences[1:])
        assert all(report == reports[0] for report in reports[1:])
