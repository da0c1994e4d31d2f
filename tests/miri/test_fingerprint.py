"""Normalized-AST fingerprints (equivalences, non-collisions) and the
exact-text detector memo."""

import pytest

from repro.miri import (CASE_MEMO, DETECTOR_STATS, CaseMemo, detect_case,
                        detect_ub, source_fingerprint)
from repro.miri.fingerprint import normalized_tokens

BASE = """
fn main() {
    let total = 3;
    let step = 2;
    println!("{}", total + step);
}
"""

#: Same program, hostile formatting plus comments.
REFORMATTED = """
// leading comment
fn main() {
        let total=3;   let step =2;
    /* block
       comment */
    println!("{}", total
        + step);
}
"""

#: Same program under a consistent renaming of the locals.
RENAMED = """
fn main() {
    let a = 3;
    let b = 2;
    println!("{}", a + b);
}
"""

BUGGY = """
fn main() {
    let b = Box::new(7);
    let p = Box::into_raw(b);
    unsafe { drop(Box::from_raw(p)); }
    let v = unsafe { *p };
}
"""

BUGGY_RENAMED = """
fn main() {
    let boxed = Box::new(7);
    let raw = Box::into_raw(boxed);
    unsafe { drop(Box::from_raw(raw)); }
    let value = unsafe { *raw };
}
"""


class TestNormalization:
    def test_formatting_and_comments_collapse(self):
        assert source_fingerprint(BASE) == source_fingerprint(REFORMATTED)

    def test_consistent_renaming_collapses(self):
        assert source_fingerprint(BASE) == source_fingerprint(RENAMED)
        assert source_fingerprint(BUGGY) == source_fingerprint(BUGGY_RENAMED)

    def test_literals_distinguish(self):
        other = BASE.replace("let total = 3;", "let total = 4;")
        assert source_fingerprint(BASE) != source_fingerprint(other)

    def test_swapped_operands_distinguish(self):
        other = BASE.replace("total + step", "step + total")
        assert source_fingerprint(BASE) != source_fingerprint(other)

    def test_renaming_is_a_bijection(self):
        # Two distinct names never merge: x/y collapsing into one name is
        # a different program and must not share a fingerprint.
        two = "fn main() { let x = 1; let y = x; println!(\"{}\", y); }"
        one = "fn main() { let x = 1; let x = x; println!(\"{}\", x); }"
        assert source_fingerprint(two) != source_fingerprint(one)

    def test_shadowing_stays_name_level(self):
        # Name-level renaming is deliberately conservative about scopes:
        # alpha-equivalent shadowing variants may differ (never collide
        # wrongly), and identical shadowing patterns still match.
        shadow = "fn main() { let x = 1; let x = x + 1; }"
        renamed = "fn main() { let v = 1; let v = v + 1; }"
        assert source_fingerprint(shadow) == source_fingerprint(renamed)

    def test_path_segments_are_never_renamed(self):
        # `mem` / `transmute` ride `::` paths; a declared name that also
        # appears in path position is excluded wholesale, so a user
        # `transmute` binding cannot collide with a std path.
        tokens = normalized_tokens("""
        fn main() {
            let x: usize = unsafe { std::mem::transmute(&3i64) };
            println!("{}", x);
        }
        """)
        assert any(":transmute" in token for token in tokens)
        assert any(":std" in token for token in tokens)

    def test_function_names_are_never_renamed(self):
        # A function used as a value prints as `<fn name>` — fn names
        # are observable in stdout, so renaming them would let programs
        # with different output share a fingerprint (and corrupt the
        # fingerprint-keyed trace memo behind the exec metric).
        a = """
        fn helper() -> i64 { 1 }
        fn main() { let f = helper; println!("{}", f); }
        """
        b = """
        fn other() -> i64 { 1 }
        fn main() { let f = other; println!("{}", f); }
        """
        assert source_fingerprint(a) != source_fingerprint(b)
        assert detect_ub(a).stdout != detect_ub(b).stdout

    def test_union_names_and_fields_are_never_renamed(self):
        # Union literals print as `Name { field: value }` — observable
        # in stdout like fn names, unlike structs (bare element tuples).
        a = 'union U { f: i64 }\nfn main() { println!("{}", U { f: 1 }); }'
        b = 'union W { g: i64 }\nfn main() { println!("{}", W { g: 1 }); }'
        assert source_fingerprint(a) != source_fingerprint(b)
        assert detect_ub(a).stdout != detect_ub(b).stdout
        # A struct field sharing a union's printable field name must stay
        # verbatim too (renaming is name-level, not position-level).
        c = ("union U { f: i64 }\nstruct S { f: i64 }\n"
             'fn main() { println!("{}", U { f: 1 }); }')
        d = ("union U { f: i64 }\nstruct S { h: i64 }\n"
             'fn main() { println!("{}", U { f: 1 }); }')
        assert source_fingerprint(c) != source_fingerprint(d)

    def test_struct_names_still_collapse(self):
        # Struct values print as element tuples, never by name, so a
        # consistent struct renaming is safely deduplicated.  (Accessed
        # field names sit after a `.` and are excluded independently.)
        a = ("struct P { x: i64, y: i64 }\n"
             "fn main() { let p = P { x: 1, y: 2 };"
             ' println!("{}", p.x + p.y); }')
        b = ("struct Q { x: i64, y: i64 }\n"
             "fn main() { let q = Q { x: 1, y: 2 };"
             ' println!("{}", q.x + q.y); }')
        assert source_fingerprint(a) == source_fingerprint(b)
        assert detect_ub(a).stdout == detect_ub(b).stdout

    def test_special_call_names_are_protected(self):
        # `drop` resolves to the built-in shim before user items; a user
        # fn named drop must not normalize like an ordinary fn name.
        special = """
        fn drop(x: i64) -> i64 { x }
        fn main() { let b = Box::new(1); drop(b); }
        """
        ordinary = """
        fn helper(x: i64) -> i64 { x }
        fn main() { let b = Box::new(1); helper(b); }
        """
        assert source_fingerprint(special) != source_fingerprint(ordinary)

    def test_method_positions_are_protected(self):
        # `.len()` dispatches on the method *name*; a declared field/fn
        # sharing it is excluded rather than renamed.
        a = """
        fn len(v: i64) -> i64 { v }
        fn main() { let v = vec![1, 2]; println!("{}", v.len()); }
        """
        b = """
        fn size(v: i64) -> i64 { v }
        fn main() { let v = vec![1, 2]; println!("{}", v.size()); }
        """
        assert source_fingerprint(a) != source_fingerprint(b)

    def test_unparseable_sources_hash_raw(self):
        assert source_fingerprint("fn main( {") != \
            source_fingerprint("fn main(  {")
        assert source_fingerprint("fn main( {") == \
            source_fingerprint("fn main( {")

    def test_fingerprint_is_stable(self):
        assert source_fingerprint(BASE) == source_fingerprint(BASE)

    def test_nested_blocks_normalize(self):
        flat = "fn main() { let x = 1; { let y = x; println!(\"{}\", y); } }"
        spread = """
        fn main() {
            let a = 1;
            {
                let b = a;
                println!("{}", b);
            }
        }
        """
        assert source_fingerprint(flat) == source_fingerprint(spread)


class TestCaseMemo:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        CASE_MEMO.clear()
        yield
        CASE_MEMO.clear()

    def test_repeats_interpret_once_with_isolated_copies(self):
        DETECTOR_STATS.reset()
        first = detect_case(BUGGY, collect=True)
        second = detect_case(BUGGY, collect=True)
        assert DETECTOR_STATS.requests == 2
        assert DETECTOR_STATS.runs == 1
        assert DETECTOR_STATS.case_memo_hits == 1
        assert first is not second
        first.errors.clear()
        assert second.errors  # a caller's mutation stays its own

    def test_options_are_part_of_the_key(self):
        DETECTOR_STATS.reset()
        detect_case(BUGGY, collect=True)
        detect_case(BUGGY, collect=False)
        assert DETECTOR_STATS.runs == 2

    def test_matches_detect_ub(self):
        memoized = detect_case(BUGGY, collect=True)
        direct = detect_ub(BUGGY, collect=True)
        assert memoized.passed == direct.passed
        assert [e.kind for e in memoized.errors] == \
            [e.kind for e in direct.errors]
        assert memoized.stdout == direct.stdout

    def test_fingerprint_equal_spellings_do_not_share(self):
        # Only exact text is shared: a renamed spelling reports its own
        # names and spans, so it is a second question and a second run.
        assert source_fingerprint(BUGGY) == source_fingerprint(BUGGY_RENAMED)
        DETECTOR_STATS.reset()
        first = detect_case(BUGGY, collect=True)
        second = detect_case(BUGGY_RENAMED, collect=True)
        assert DETECTOR_STATS.runs == 2
        assert DETECTOR_STATS.case_memo_hits == 0
        assert second == detect_ub(BUGGY_RENAMED, collect=True)
        assert [e.kind for e in first.errors] == \
            [e.kind for e in second.errors]

    def test_bounded(self):
        small = CaseMemo(limit=1)
        small.store(("a",), detect_ub(BASE))
        small.store(("b",), detect_ub(BASE))
        assert len(small) == 1
        assert small.snapshot() == {"entries": 1, "limit": 1}

    def test_least_recently_used_entry_is_evicted(self):
        small = CaseMemo(limit=2)
        report = detect_ub(BASE)
        for key in ("a", "b", "c"):
            small.store((key,), report)
        assert len(small) == 2
        assert small.lookup(("a",)) is None
        assert small.lookup(("b",)) is report
        assert small.lookup(("c",)) is report

    def test_lookup_refreshes_recency(self):
        small = CaseMemo(limit=2)
        report = detect_ub(BASE)
        small.store(("a",), report)
        small.store(("b",), report)
        assert small.lookup(("a",)) is report  # "b" is now the oldest
        small.store(("c",), report)
        assert small.lookup(("b",)) is None
        assert small.lookup(("a",)) is report
        assert small.lookup(("c",)) is report

    def test_full_memo_keeps_memoizing(self, monkeypatch):
        # Past the cap new questions still get stored (evicting old ones)
        # rather than running on every repeat.
        monkeypatch.setattr(CASE_MEMO, "limit", 1)
        detect_case(BASE)
        DETECTOR_STATS.reset()
        detect_case(BUGGY)
        detect_case(BUGGY)
        assert DETECTOR_STATS.runs == 1
        assert DETECTOR_STATS.case_memo_hits == 1


class TestGeneratedMutantDifferential:
    """The generator's mutation operators, checked differentially: the
    fingerprint-preserving operators (rename, format, distractor
    respelling) must collide with their parent, while behaviour-changing
    shape mutations (statement reordering, injected statements, literal
    perturbation) must not."""

    def _mutants(self, operator_name, count=12):
        import random

        from repro.corpus import load_dataset
        from repro.corpus.generator import MUTATION_OPERATORS, MutationSkip

        operator, preserving = MUTATION_OPERATORS[operator_name]
        rng = random.Random(99)
        pairs = []
        for case in list(load_dataset())[:count]:
            try:
                source, _fixed = operator(case, rng)
            except MutationSkip:
                continue
            pairs.append((case.source, source))
        assert pairs, f"operator {operator_name} never applied"
        return pairs, preserving

    @pytest.mark.parametrize("operator_name",
                             ["rename", "format", "distract"])
    def test_equivalence_mutants_collide(self, operator_name):
        pairs, preserving = self._mutants(operator_name)
        assert preserving
        for parent, mutant in pairs:
            assert mutant != parent
            assert source_fingerprint(mutant) == source_fingerprint(parent)

    @pytest.mark.parametrize("operator_name",
                             ["reorder", "inject", "perturb"])
    def test_shape_mutants_do_not_collide(self, operator_name):
        pairs, preserving = self._mutants(operator_name)
        assert not preserving
        for parent, mutant in pairs:
            assert source_fingerprint(mutant) != source_fingerprint(parent)

    def test_behaviour_changing_edit_never_collides(self):
        # Beyond the built-in operators: flipping an observable literal
        # is the smallest behaviour change there is.
        changed = BASE.replace("let total = 3;", "let total = 4;")
        assert source_fingerprint(changed) != source_fingerprint(BASE)

    def test_generated_cases_keep_distinct_fingerprints_per_behaviour(self):
        # A generated corpus may contain rename/format mutants (same
        # fingerprint as their parent) but a case's buggy and fixed
        # sides must never collide with each other.
        from repro.corpus import generate_corpus

        cases, _report = generate_corpus(15, seed=31)
        for case in cases:
            assert source_fingerprint(case.source) != \
                source_fingerprint(case.fixed_source)
