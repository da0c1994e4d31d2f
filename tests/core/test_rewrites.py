"""Unit tests for the rewrite-rule library."""

import pytest

from repro.core import rewrites
from repro.core.rewrites import FixKind, REGISTRY, apply_rule, applicable_rules
from repro.lang import parse_program, print_program
from repro.miri import detect_ub


def apply_named(source, rule):
    return apply_rule(parse_program(source), rule)


class TestRegistry:
    def test_registry_has_all_kinds(self):
        kinds = {rule.kind for rule in REGISTRY.values()}
        assert kinds == set(FixKind)

    def test_rule_names_match_keys(self):
        for name, rule in REGISTRY.items():
            assert rule.name == name

    def test_hallucination_rules_listed(self):
        assert len(rewrites.HALLUCINATION_RULES) >= 4
        for name in rewrites.HALLUCINATION_RULES:
            assert REGISTRY[name].kind is FixKind.HALLUCINATION

    def test_apply_never_mutates_input(self):
        source = "fn main() { let x = i32::MAX; let y = x + 1; }"
        program = parse_program(source)
        before = print_program(program)
        apply_rule(program, "saturating_arith_on_extreme")
        assert print_program(program) == before

    def test_unknown_rule_returns_none(self):
        assert apply_named("fn main() { }", "no_such_rule") is None

    def test_inapplicable_rule_returns_none(self):
        assert apply_named("fn main() { let a = 1; }",
                           "replace_set_len_with_resize") is None


class TestReplaceRules:
    def test_transmute_ref_to_cast(self):
        out = apply_named('''
use std::mem;
fn main() {
    let p = &0;
    let v = unsafe { mem::transmute::<&i32, usize>(p) };
    println!("{}", v > 0);
}''', "replace_transmute_ref_with_cast")
        text = print_program(out)
        assert "p as *const i32 as usize" in text
        assert "transmute" not in text

    def test_transmute_bytes_to_from_le(self):
        out = apply_named('''
use std::mem;
fn main() {
    let n1 = [0x17u8, 0x07, 0, 0];
    let n2 = unsafe { mem::transmute::<[u8; 4], u32>(n1) };
    println!("{}", n2);
}''', "replace_transmute_bytes_with_from_le")
        text = print_program(out)
        assert "u32::from_le_bytes(n1)" in text
        # The rewritten program behaves identically (it was already defined).
        assert detect_ub(text).stdout == [str(0x0717)]

    def test_bool_transmute_to_comparison(self):
        out = apply_named('''
use std::mem;
fn main() {
    let raw: u8 = 2;
    let b = unsafe { mem::transmute::<u8, bool>(raw) };
    println!("{}", b);
}''', "replace_transmute_int_with_comparison")
        report = detect_ub(print_program(out))
        assert report.passed
        assert report.stdout == ["true"]

    def test_set_len_to_resize(self):
        out = apply_named('''
fn main() {
    let mut v: Vec<i32> = Vec::with_capacity(4);
    unsafe { v.set_len(3); }
    println!("{}", v[2]);
}''', "replace_set_len_with_resize")
        report = detect_ub(print_program(out))
        assert report.passed
        assert report.stdout == ["0"]

    def test_static_mut_to_atomic(self):
        out = apply_named('''
static mut COUNTER: usize = 0;
fn main() {
    let h = std::thread::spawn(move || {
        unsafe { COUNTER += 2; }
    });
    unsafe { COUNTER += 3; }
    h.join();
    println!("{}", unsafe { COUNTER });
}''', "replace_static_mut_with_atomic")
        text = print_program(out)
        assert "AtomicUsize" in text
        assert "fetch_add" in text
        report = detect_ub(text)
        assert report.passed, report.render()
        assert report.stdout == ["5"]

    def test_get_unchecked_to_index(self):
        out = apply_named('''
fn main() {
    let v = vec![1, 2, 3];
    let x = unsafe { v.get_unchecked(1) };
    println!("{}", x);
}''', "replace_get_unchecked_with_index")
        report = detect_ub(print_program(out))
        assert report.passed
        assert report.stdout == ["2"]


class TestAssertRules:
    def test_guard_index(self):
        out = apply_named('''
fn main() {
    let v = vec![1, 2, 3];
    let idx = 9;
    let x = v[idx];
    println!("{}", x);
}''', "guard_index_with_len_check")
        report = detect_ub(print_program(out))
        assert report.passed
        assert report.stdout == ["0"]

    def test_guard_division(self):
        out = apply_named('''
fn main() {
    let a = 10;
    let b = 0;
    let c = a / b;
    println!("{}", c);
}''', "guard_division_nonzero")
        report = detect_ub(print_program(out))
        assert report.passed
        assert report.stdout == ["0"]

    def test_guard_nonnull(self):
        out = apply_named('''
use std::ptr;
fn main() {
    let p: *const i32 = ptr::null();
    let v = unsafe { *p };
    println!("{}", v);
}''', "guard_nonnull_before_deref")
        report = detect_ub(print_program(out))
        assert report.passed
        assert report.stdout == ["0"]

    def test_guard_constant_index_not_touched(self):
        # In-range constant indexing is not the bug pattern this rule targets.
        assert apply_named('''
fn main() {
    let v = vec![1];
    let x = v[0];
    println!("{}", x);
}''', "guard_index_with_len_check") is None


class TestModifyRules:
    def test_move_drop_after_last_use(self):
        out = apply_named('''
fn main() {
    let b = Box::new(9);
    let p = Box::into_raw(b);
    unsafe { drop(Box::from_raw(p)); }
    let v = unsafe { *p };
    println!("{}", v);
}''', "move_drop_after_last_use")
        report = detect_ub(print_program(out))
        assert report.passed
        assert report.stdout == ["9"]

    def test_remove_second_free(self):
        out = apply_named('''
fn main() {
    let v = vec![1, 2];
    drop(v);
    drop(v);
    println!("ok");
}''', "remove_second_free")
        report = detect_ub(print_program(out))
        assert report.passed

    def test_join_before_access(self):
        out = apply_named('''
static mut G: usize = 0;
fn main() {
    let h = std::thread::spawn(move || {
        unsafe { G += 1; }
    });
    unsafe { G += 1; }
    h.join();
    println!("{}", unsafe { G });
}''', "join_thread_before_access")
        report = detect_ub(print_program(out))
        assert report.passed
        assert report.stdout == ["2"]

    def test_add_missing_join(self):
        out = apply_named('''
fn main() {
    std::thread::spawn(move || {
        let x = 1;
    });
    println!("done");
}''', "add_missing_join")
        report = detect_ub(print_program(out))
        assert report.passed
        assert report.stdout == ["done"]

    def test_protect_with_mutex(self):
        out = apply_named('''
static mut TOTAL: usize = 0;
fn main() {
    let h = std::thread::spawn(move || {
        unsafe { TOTAL += 4; }
    });
    unsafe { TOTAL += 6; }
    h.join();
    println!("{}", unsafe { TOTAL });
}''', "protect_with_mutex")
        text = print_program(out)
        assert "Mutex" in text
        report = detect_ub(text)
        assert report.passed, report.render()
        assert report.stdout == ["10"]

    def test_fix_call_arity(self):
        out = apply_named('''
fn mul(a: i32, b: i32) -> i32 { a * b }
fn main() {
    let f = mul;
    let v = f(6);
    println!("{}", v);
}''', "fix_call_arity")
        report = detect_ub(print_program(out))
        assert report.passed
        assert report.stdout == ["6"]

    def test_read_unaligned(self):
        out = apply_named('''
fn main() {
    let words = [0x0102030405060708u64, 0];
    let bytes = words.as_ptr() as *const u8;
    let p = unsafe { bytes.add(1) } as *const u32;
    let v = unsafe { *p };
    println!("{}", v);
}''', "read_unaligned_instead")
        report = detect_ub(print_program(out))
        assert report.passed, report.render()


class TestHallucinationRules:
    def test_remove_unsafe_breaks_program(self):
        out = apply_named('''
fn main() {
    let x = 1;
    let p = &x as *const i32;
    let v = unsafe { *p };
    println!("{}", v);
}''', "hallu_remove_unsafe_block")
        report = detect_ub(print_program(out))
        assert not report.passed  # E0133

    def test_perturb_constant_changes_output(self):
        source = 'fn main() { println!("{}", 40 + 2); }'
        out = apply_named(source, "hallu_perturb_constant")
        before = detect_ub(source).stdout
        after = detect_ub(print_program(out)).stdout
        assert before != after

    def test_duplicate_statement(self):
        out = apply_named('''
fn main() {
    let v = vec![1];
    drop(v);
}''', "hallu_duplicate_statement")
        report = detect_ub(print_program(out))
        assert not report.passed  # double free

    def test_delete_statement_often_breaks(self):
        out = apply_named('''
fn main() {
    let a = 1;
    let b = a + 1;
    println!("{}", b);
}''', "hallu_delete_statement")
        report = detect_ub(print_program(out))
        assert not report.passed  # `b` lost its definition


class TestApplicability:
    def test_applicable_rules_on_transmute_program(self):
        program = parse_program('''
use std::mem;
fn main() {
    let raw: u8 = 2;
    let b = unsafe { mem::transmute::<u8, bool>(raw) };
    println!("{}", b);
}''')
        names = applicable_rules(program)
        assert "replace_transmute_int_with_comparison" in names
        assert "replace_set_len_with_resize" not in names

    def test_applicable_excludes_hallucinations_by_default(self):
        program = parse_program("fn main() { let x = 5; }")
        names = applicable_rules(program)
        for name in names:
            assert REGISTRY[name].kind is not FixKind.HALLUCINATION


class TestSloppyPatches:
    LITERALS = '''
fn main() {
    let v = vec![5, 6, 7, 8];
    let i = 32;
    let j = 32;
    let x = if i < v.len() { v[i] } else { 0 };
    let y = 3 << (j % 32);
    println!("{} {}", x, y);
}'''

    @pytest.mark.parametrize("base", sorted(rewrites._SLOPPY_PATCHES))
    def test_patch_builds_at_most_one_parent_map(self, monkeypatch, base):
        maps = []
        real_parent_map = rewrites.ast.parent_map
        monkeypatch.setattr(
            rewrites.ast, "parent_map",
            lambda root: maps.append(root) or real_parent_map(root))
        rewrites._SLOPPY_PATCHES[base](parse_program(self.LITERALS))
        assert len(maps) <= 1

    def test_patches_edit_the_first_match(self):
        patches = rewrites._SLOPPY_PATCHES
        guarded = print_program(patches["guard_index_with_len_check"](
            parse_program(self.LITERALS)))
        assert "else { 1 }" in guarded and "let i = 32;" in guarded
        masked = print_program(patches["mask_shift_amount"](
            parse_program(self.LITERALS)))
        assert "j % 31" in masked and "let j = 32;" in masked
