"""Shared-tree gate: the detector, the checker and the repair engines may
read the parse memo's own tree.

``repro.miri`` runs every string source on the tree
:func:`~repro.lang.parser._parse_program_cached` holds, with no clone, so
one tree serves every detector call — and every service worker thread —
for as long as it stays in the memo.  ``check_source`` reads the same
tree, and so do the engines, through
:func:`~repro.core.view.program_view`: ``rustbrain``, ``llm_only``,
``rustassistant`` and the cascade rewrite clones of it, never the tree
itself.  That is only sound while none of them writes to the AST.  Every
source the project can produce (the hand-written UB corpus, the
compile-error corpus, and 500 seeded generator mutants) runs in both
collect modes, and:

* each memo tree hashes the same, over every node's fields including
  spans and which node object each child slot holds, before and after
  :func:`run_program`,
  :func:`~repro.miri.source_fingerprint` and
  :func:`~repro.miri.fingerprint.renameable_names`;
* ``detect_ub(text)`` on the shared tree equals a run on a private
  :func:`~repro.lang.ast_nodes.clone` and equals itself back to back;
* the :func:`~repro.miri.detect_case` memo is transparent: its answers
  equal back-to-back ``detect_ub`` on a cold memo, a warm one, one that
  evicts, and under four threads;
* :func:`~repro.lang.parser.parse_program` still hands its callers
  private clones, so their rewrites never reach the shared tree;
* every node span and every report span lies inside its source;
* four threads detecting the same sources at once reproduce the serial
  reports;
* borrow-tag numbering restarts per run on one shared tree;
* the memo trees of every case source hash the same before and after
  ``rustbrain``, ``rustbrain?kb=off``, ``llm_only?batched=on``,
  ``rustassistant`` and the cascade repair it, and every memo tree of
  the gate corpus hashes the same after ``check_source``.

Any failure in the tree checks means the detector, the checker or the
engines must go back to cloning; any failure in the memo checks means
the memo changed an answer.
"""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.miri as miri
import repro.miri.borrows as borrows
from repro.check import check_source
from repro.core.view import program_view
from repro.corpus.dataset import load_compile_dataset, load_dataset
from repro.corpus.generator import generate_sources
from repro.engine import create_engine
from repro.lang import ast_nodes as ast
from repro.lang.lexer import LexError
from repro.lang.parser import (ParseError, _parse_program_cached,
                               parse_program)
from repro.lang.span import DUMMY_SPAN
from repro.miri import CASE_MEMO, detect_case, detect_ub
from repro.miri.fingerprint import renameable_names, source_fingerprint
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

#: The engines the repair-side check runs over every case source.
REPAIR_ARMS = ("rustbrain", "rustbrain?kb=off", "llm_only?batched=on",
               "rustassistant",
               "cascade?members=compile_fix:gpt-4+rustbrain:gpt-4")
REPAIR_SEED = 300


def _shape(value, pending: list):
    """A hashable picture of one field; child nodes stand in by ``id()``
    and are queued so each node's own fields are hashed exactly once.
    Nodes are addressed by identity, so a child rebound to an equal copy
    changes the picture."""
    if isinstance(value, ast.Node):
        pending.append(value)
        return ("node", id(value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__,
                tuple(_shape(item, pending) for item in value))
    return repr(value)


def tree_digest(program: ast.Program) -> str:
    """sha256 over every node's attributes, spans and child identities
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
        # The fingerprint and the rename analysis read the same shared
        # trees, so they are held to the same read-only bar.
        source_fingerprint.cache_clear()
        parsed = changed = 0
        for source in corpus_sources:
            tree = _memo_tree(source)
            if tree is None:
                continue
            parsed += 1
            before = tree_digest(tree)
            run_program(tree, collect=collect)
            source_fingerprint(source)
            renameable_names(source)
            assert _parse_program_cached(source) is tree
            if tree_digest(tree) != before:
                changed += 1
        assert parsed > 700
        assert changed == 0, f"{changed} of {parsed} trees changed"

    def test_digest_sees_a_write(self):
        tree = ast.clone(_parse_program_cached(MEMORY_HEAVY))
        before = tree_digest(tree)
        tree.items[0].body.stmts[0].span = DUMMY_SPAN
        assert tree_digest(tree) != before

    def test_digest_sees_a_child_rebound_to_an_equal_copy(self):
        tree = ast.clone(_parse_program_cached(MEMORY_HEAVY))
        before = tree_digest(tree)
        body = tree.items[0].body
        body.stmts[0] = ast.clone(body.stmts[0])
        assert tree_digest(tree) != before
        tree = ast.clone(_parse_program_cached(MEMORY_HEAVY))
        before = tree_digest(tree)
        tree.items[0].scratch = 1
        assert tree_digest(tree) != before


class TestRepairSideIsReadOnly:
    def test_engines_leave_memo_trees_unchanged(self):
        # A source's memo entry stays put across its own arms: every
        # repair looks its tree up through the view, which refreshes it.
        engines = [create_engine(spec, seed=REPAIR_SEED)
                   for spec in REPAIR_ARMS]
        sources = dict.fromkeys(
            case.source for dataset in (load_dataset(),
                                        load_compile_dataset())
            for case in dataset.cases)
        repaired = changed = 0
        for source in sources:
            tree = _memo_tree(source)
            if tree is None:
                continue
            before = tree_digest(tree)
            for engine in engines:
                engine.repair(source)
            assert program_view(source).tree is tree
            assert _parse_program_cached(source) is tree
            repaired += 1
            if tree_digest(tree) != before:
                changed += 1
        assert repaired > 130
        assert changed == 0, f"{changed} of {repaired} trees changed"

    def test_checker_leaves_memo_trees_unchanged(self, corpus_sources):
        checked = changed = 0
        for source in corpus_sources:
            tree = _memo_tree(source)
            if tree is None:
                continue
            before = tree_digest(tree)
            check_source(source)
            assert _parse_program_cached(source) is tree
            checked += 1
            if tree_digest(tree) != before:
                changed += 1
        assert checked > 700
        assert changed == 0, f"{changed} of {checked} trees changed"


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
    def test_case_memo_equals_back_to_back(self, corpus_sources, collect):
        # Cold, then warm: the corpora repeat some fixed sources, so the
        # cold sweep already mixes runs and hits.
        CASE_MEMO.clear()
        single = [detect_ub(source, collect=collect)
                  for source in corpus_sources]
        for sweep in ("cold", "warm"):
            memo = [detect_case(source, collect=collect)
                    for source in corpus_sources]
            mismatches = [index for index, (ours, theirs)
                          in enumerate(zip(memo, single)) if ours != theirs]
            assert not mismatches, \
                f"{sweep}: sources {mismatches[:10]} diverged"

    @COLLECT_MODES
    def test_evicting_memo_equals_back_to_back(self, corpus_sources,
                                               collect, monkeypatch):
        monkeypatch.setattr(CASE_MEMO, "limit", 8)
        CASE_MEMO.clear()
        mismatches = []
        for index, source in enumerate(corpus_sources):
            # Ask twice: the second answer is a hit, which eviction of
            # the other entries must not disturb.
            first = detect_case(source, collect=collect)
            again = detect_case(source, collect=collect)
            if not first == again == detect_ub(source, collect=collect):
                mismatches.append(index)
            assert len(CASE_MEMO) <= 8
        CASE_MEMO.clear()
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


def _sweep_in_threads(sample: list[str], ask) -> list[list]:
    """Reports from ``THREADS`` threads each asking ``ask`` about every
    source; rotated orders put different threads on the same source at
    the same time."""
    start = threading.Barrier(THREADS)

    def sweep(offset: int):
        start.wait(timeout=60)
        order = [(offset * 7 + i) % len(sample) for i in range(len(sample))]
        reports = [None] * len(sample)
        for i in order:
            reports[i] = ask(sample[i])
        return reports

    previous = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL)
    try:
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(sweep, offset)
                       for offset in range(THREADS)]
            return [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(previous)


class TestConcurrentSharing:
    @COLLECT_MODES
    def test_threads_reproduce_serial_reports(self, corpus_sources,
                                              collect):
        sample = corpus_sources[:THREADED_SOURCES]
        serial = [detect_ub(source, collect=collect) for source in sample]
        digests = [tree_digest(_parse_program_cached(source))
                   for source in sample]
        results = _sweep_in_threads(
            sample, lambda source: detect_ub(source, collect=collect))
        for reports in results:
            assert reports == serial
        assert [tree_digest(_parse_program_cached(source))
                for source in sample] == digests

    @COLLECT_MODES
    def test_threads_through_the_case_memo(self, corpus_sources, collect):
        sample = corpus_sources[:THREADED_SOURCES]
        serial = [detect_ub(source, collect=collect) for source in sample]
        CASE_MEMO.clear()
        results = _sweep_in_threads(
            sample, lambda source: detect_case(source, collect=collect))
        for reports in results:
            assert reports == serial
        # Every thread owns its reports: no two share a container.
        assert len({id(reports[0].errors) for reports in results}) == THREADS


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
