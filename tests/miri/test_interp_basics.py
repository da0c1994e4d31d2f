"""Interpreter tests: language semantics on UB-free programs."""

import sys

import pytest

from repro.miri import detect_ub
from repro.miri.interp import MAX_CALL_DEPTH


def run(source):
    report = detect_ub(source, debug=True)
    assert report.passed, f"unexpected errors: {report.render()}"
    return report


def run_expect_error(source, kind_value):
    report = detect_ub(source, debug=True)
    assert not report.passed, "expected an error"
    assert report.errors[0].kind.value == kind_value, report.render()
    return report


class TestArithmetic:
    def test_basic_math(self):
        report = run('fn main() { println!("{}", 2 + 3 * 4 - 1); }')
        assert report.stdout == ["13"]

    def test_division_truncates_toward_zero(self):
        report = run('fn main() { println!("{} {}", 7 / 2, -7 / 2); }')
        assert report.stdout == ["3 -3"]

    def test_remainder(self):
        report = run('fn main() { println!("{}", 10 % 3); }')
        assert report.stdout == ["1"]

    def test_bitwise_ops(self):
        report = run('fn main() { println!("{} {} {}", 6 & 3, 6 | 3, 6 ^ 3); }')
        assert report.stdout == ["2 7 5"]

    def test_shifts(self):
        report = run('fn main() { println!("{} {}", 1 << 4, 32 >> 2); }')
        assert report.stdout == ["16 8"]

    def test_unsigned_types(self):
        report = run('fn main() { let x: u8 = 200; println!("{}", x / 3); }')
        assert report.stdout == ["66"]

    def test_comparison_chain(self):
        report = run(
            'fn main() { println!("{}", 1 < 2 && 3 >= 3 || false); }')
        assert report.stdout == ["true"]

    def test_overflow_panics(self):
        run_expect_error(
            "fn main() { let x = i32::MAX; let y = x + 1; }", "panic")

    def test_division_by_zero_panics(self):
        run_expect_error(
            "fn main() { let a = 1; let b = 0; let c = a / b; }", "panic")

    def test_shift_overflow_panics(self):
        run_expect_error(
            "fn main() { let a = 1i32; let b = a << 32; }", "panic")

    def test_negate_min_panics(self):
        run_expect_error(
            "fn main() { let x = i32::MIN; let y = -x; }", "panic")

    def test_wrapping_methods_do_not_panic(self):
        report = run(
            'fn main() { let x = i32::MAX; println!("{}", x.wrapping_add(1)); }')
        assert report.stdout == [str(-(2**31))]


class TestControlFlow:
    def test_if_else(self):
        report = run('''
fn main() {
    let x = 5;
    if x > 3 { println!("big"); } else { println!("small"); }
}''')
        assert report.stdout == ["big"]

    def test_if_as_value(self):
        report = run(
            'fn main() { let v = if true { 1 } else { 2 }; println!("{}", v); }')
        assert report.stdout == ["1"]

    def test_while_loop(self):
        report = run('''
fn main() {
    let mut total = 0;
    let mut i = 0;
    while i < 5 { total += i; i += 1; }
    println!("{}", total);
}''')
        assert report.stdout == ["10"]

    def test_for_loop(self):
        report = run('''
fn main() {
    let mut total = 0;
    for i in 0..5 { total += i; }
    println!("{}", total);
}''')
        assert report.stdout == ["10"]

    def test_inclusive_range(self):
        report = run('''
fn main() {
    let mut total = 0;
    for i in 1..=3 { total += i; }
    println!("{}", total);
}''')
        assert report.stdout == ["6"]

    def test_loop_break_value(self):
        report = run('''
fn main() {
    let mut i = 0;
    let v = loop {
        i += 1;
        if i == 4 { break i * 10; }
    };
    println!("{}", v);
}''')
        assert report.stdout == ["40"]

    def test_continue(self):
        report = run('''
fn main() {
    let mut total = 0;
    for i in 0..6 {
        if i % 2 == 0 { continue; }
        total += i;
    }
    println!("{}", total);
}''')
        assert report.stdout == ["9"]

    def test_infinite_loop_hits_fuel(self):
        report = detect_ub("fn main() { loop { } }", fuel=10_000)
        assert report.errors[0].kind.value == "resource"


class TestFunctions:
    def test_call_and_return(self):
        report = run('''
fn add(a: i32, b: i32) -> i32 { a + b }
fn main() { println!("{}", add(2, 3)); }''')
        assert report.stdout == ["5"]

    def test_early_return(self):
        report = run('''
fn classify(x: i32) -> i32 {
    if x < 0 { return -1; }
    if x == 0 { return 0; }
    1
}
fn main() { println!("{} {} {}", classify(-5), classify(0), classify(9)); }''')
        assert report.stdout == ["-1 0 1"]

    def test_recursion(self):
        report = run('''
fn fib(n: i32) -> i32 {
    if n < 2 { return n; }
    fib(n - 1) + fib(n - 2)
}
fn main() { println!("{}", fib(10)); }''')
        assert report.stdout == ["55"]

    def test_fn_pointer(self):
        report = run('''
fn double(x: i32) -> i32 { x * 2 }
fn main() {
    let f = double;
    println!("{}", f(21));
}''')
        assert report.stdout == ["42"]

    def test_closure_call(self):
        report = run('''
fn main() {
    let add_one = |x| x + 1;
    println!("{}", add_one(41));
}''')
        assert report.stdout == ["42"]

    def test_closure_captures_environment(self):
        report = run('''
fn main() {
    let base = 100;
    let add_base = |x| x + base;
    println!("{}", add_base(1));
}''')
        assert report.stdout == ["101"]

    def test_missing_main_is_compile_error(self):
        report = detect_ub("fn helper() { }")
        assert report.errors[0].kind.value == "compile"


#: ``main`` plus ``depth(n)`` down to ``depth(0)``: ``n + 2`` calls deep.
DEEP_RECURSION = """
fn depth(n: i64) -> i64 {
    if n == 0 { 0 } else { 1 + depth(n - 1) }
}
fn main() {
    let d = depth(%d);
    println!("{}", d);
}
"""


class TestCallDepthCeiling:
    def test_recursion_up_to_the_ceiling_runs(self):
        report = run(DEEP_RECURSION % (MAX_CALL_DEPTH - 2))
        assert report.stdout == [str(MAX_CALL_DEPTH - 2)]

    def test_one_call_past_the_ceiling_overflows(self):
        report = run_expect_error(DEEP_RECURSION % (MAX_CALL_DEPTH - 1),
                                  "resource")
        assert report.errors[0].message == "stack overflow"
        assert report.stdout == []

    def test_overflow_independent_of_recursion_limit(self):
        source = DEEP_RECURSION % 500
        baseline = detect_ub(source)
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(previous * 4)
        try:
            raised = detect_ub(source)
        finally:
            sys.setrecursionlimit(previous)
        assert baseline.errors[0].message == "stack overflow"
        assert raised == baseline
        assert raised.steps == baseline.steps > 0

    def test_closure_calls_count_toward_the_ceiling(self):
        # ``main`` -> closure -> depth(n): one frame more than a direct
        # call, so the deepest direct call that fits overflows here.
        template = DEEP_RECURSION.replace(
            "let d = depth(%d);", "let f = |n: i64| depth(n); let d = f(%d);")
        report = run(template % (MAX_CALL_DEPTH - 3))
        assert report.stdout == [str(MAX_CALL_DEPTH - 3)]
        report = run_expect_error(template % (MAX_CALL_DEPTH - 2),
                                  "resource")
        assert report.errors[0].message == "stack overflow"


class TestDataStructures:
    def test_tuple_access(self):
        report = run(
            'fn main() { let t = (1, 2u8, true); println!("{} {} {}", t.0, t.1, t.2); }')
        assert report.stdout == ["1 2 true"]

    def test_array_index(self):
        report = run('''
fn main() {
    let arr = [10, 20, 30];
    println!("{}", arr[1]);
}''')
        assert report.stdout == ["20"]

    def test_array_oob_panics(self):
        run_expect_error('''
fn main() {
    let arr = [1, 2, 3];
    let i = 5;
    let v = arr[i];
}''', "panic")

    def test_array_repeat(self):
        report = run('''
fn main() {
    let arr = [7u8; 4];
    println!("{}", arr[3]);
}''')
        assert report.stdout == ["7"]

    def test_mutate_array_element(self):
        report = run('''
fn main() {
    let mut arr = [0; 3];
    arr[1] = 9;
    println!("{}", arr[1]);
}''')
        assert report.stdout == ["9"]

    def test_struct_field_mutation(self):
        report = run('''
struct Point { x: i32, y: i32 }
fn main() {
    let mut p = Point { x: 1, y: 2 };
    p.y = p.x + 10;
    println!("{}", p.y);
}''')
        assert report.stdout == ["11"]

    def test_nested_struct(self):
        report = run('''
struct Inner { v: i64 }
struct Outer { tag: u8, inner: Inner }
fn main() {
    let o = Outer { tag: 1, inner: Inner { v: 99 } };
    println!("{}", o.inner.v);
}''')
        assert report.stdout == ["99"]

    def test_vec_push_index(self):
        report = run('''
fn main() {
    let mut v: Vec<i32> = Vec::new();
    v.push(1);
    v.push(2);
    v.push(3);
    println!("{} {}", v.len(), v[2]);
}''')
        assert report.stdout == ["3 3"]

    def test_vec_macro(self):
        report = run('fn main() { let v = vec![5, 6, 7]; println!("{}", v[1]); }')
        assert report.stdout == ["6"]

    def test_vec_repeat_macro(self):
        report = run('fn main() { let v = vec![9; 4]; println!("{}", v.len()); }')
        assert report.stdout == ["4"]

    def test_vec_pop(self):
        report = run('''
fn main() {
    let mut v = vec![1, 2];
    let last = v.pop().unwrap();
    println!("{} {}", last, v.len());
}''')
        assert report.stdout == ["2 1"]

    def test_vec_oob_panics(self):
        run_expect_error('''
fn main() {
    let v = vec![1];
    let x = v[3];
}''', "panic")

    def test_vec_growth_preserves_elements(self):
        report = run('''
fn main() {
    let mut v: Vec<i32> = Vec::new();
    for i in 0..20 {
        v.push(i as i32);
    }
    let mut total = 0;
    for i in 0..v.len() {
        total += v[i];
    }
    println!("{}", total);
}''')
        assert report.stdout == ["190"]


class TestReferences:
    def test_shared_ref_read(self):
        report = run('''
fn main() {
    let x = 42;
    let r = &x;
    println!("{}", *r);
}''')
        assert report.stdout == ["42"]

    def test_mut_ref_write(self):
        report = run('''
fn main() {
    let mut x = 1;
    let r = &mut x;
    *r = 99;
    println!("{}", x);
}''')
        assert report.stdout == ["99"]

    def test_ref_through_function(self):
        report = run('''
fn bump(r: &mut i32) { *r += 1; }
fn main() {
    let mut x = 10;
    bump(&mut x);
    println!("{}", x);
}''')
        assert report.stdout == ["11"]

    def test_box_deref(self):
        report = run('''
fn main() {
    let b = Box::new(7);
    println!("{}", *b);
}''')
        assert report.stdout == ["7"]

    def test_raw_pointer_roundtrip(self):
        report = run('''
fn main() {
    let mut x = 3;
    let p = &mut x as *mut i32;
    unsafe { *p = 8; }
    println!("{}", x);
}''')
        assert report.stdout == ["8"]

    def test_option_unwrap_some(self):
        report = run('fn main() { let v = Some(3).unwrap(); println!("{}", v); }')
        assert report.stdout == ["3"]

    def test_option_unwrap_none_panics(self):
        run_expect_error('''
fn main() {
    let v: Vec<i32> = Vec::new();
    let mut v = v;
    let x = v.pop().unwrap();
}''', "panic")


class TestMacrosAndStrings:
    def test_println_multiple_args(self):
        report = run('fn main() { println!("{} and {}", 1, 2); }')
        assert report.stdout == ["1 and 2"]

    def test_println_escaped_braces(self):
        report = run('fn main() { println!("{{literal}} {}", 5); }')
        assert report.stdout == ["{literal} 5"]

    def test_string_literal_display(self):
        report = run('fn main() { let s = "hello"; println!("{}", s); }')
        assert report.stdout == ["hello"]

    def test_assert_passes(self):
        run('fn main() { assert!(1 + 1 == 2); }')

    def test_assert_eq_passes(self):
        run('fn main() { assert_eq!(2 + 2, 4); }')

    def test_assert_eq_fails(self):
        run_expect_error("fn main() { assert_eq!(1, 2); }", "panic")

    def test_panic_macro(self):
        run_expect_error('fn main() { panic!("boom"); }', "panic")

    def test_statics_and_consts(self):
        report = run('''
const LIMIT: i32 = 10;
static BASE: i32 = 100;
fn main() { println!("{}", LIMIT + BASE); }''')
        assert report.stdout == ["110"]

    def test_transmute_roundtrip_bytes(self):
        report = run('''
use std::mem;
fn main() {
    let n: u32 = 0x01020304;
    let bytes = unsafe { mem::transmute::<u32, [u8; 4]>(n) };
    println!("{} {}", bytes[0], bytes[3]);
}''')
        assert report.stdout == ["4 1"]

    def test_from_le_bytes(self):
        report = run('''
fn main() {
    let n = u32::from_le_bytes([0x17, 0x07, 0, 0]);
    println!("{}", n);
}''')
        assert report.stdout == [str(0x0717)]

    def test_size_of(self):
        report = run('''
use std::mem;
fn main() { println!("{}", mem::size_of::<u64>()); }''')
        assert report.stdout == ["8"]
