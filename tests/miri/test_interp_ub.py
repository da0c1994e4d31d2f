"""Detection tests: one class per UB category of the paper's dataset."""

import pytest

from repro.lang.span import line_col
from repro.miri import detect_ub
from repro.miri.errors import UbKind


def expect(source, kind: UbKind):
    report = detect_ub(source, debug=True)
    assert not report.passed, "expected UB, program passed"
    assert report.errors[0].kind is kind, report.render()
    return report


def expect_pass(source):
    report = detect_ub(source, debug=True)
    assert report.passed, report.render()
    return report


class TestDanglingPointer:
    def test_use_after_free_box(self):
        expect('''
fn main() {
    let b = Box::new(7);
    let p = Box::into_raw(b);
    unsafe { drop(Box::from_raw(p)); }
    let v = unsafe { *p };
}''', UbKind.DANGLING_POINTER)

    def test_null_deref(self):
        expect('''
use std::ptr;
fn main() {
    let p: *const i32 = ptr::null();
    let v = unsafe { *p };
}''', UbKind.DANGLING_POINTER)

    def test_vec_realloc_invalidates_ptr(self):
        expect('''
fn main() {
    let mut v: Vec<i32> = Vec::with_capacity(1);
    v.push(1);
    let p = v.as_ptr();
    v.push(2);
    let x = unsafe { *p };
}''', UbKind.DANGLING_POINTER)

    def test_ptr_arithmetic_out_of_bounds(self):
        expect('''
fn main() {
    let arr = [1, 2, 3];
    let p = arr.as_ptr();
    let q = unsafe { p.add(10) };
}''', UbKind.DANGLING_POINTER)

    def test_wrapping_add_defers_check_to_deref(self):
        # wrapping_add may go OOB; only the dereference is UB.
        expect('''
fn main() {
    let arr = [1, 2, 3];
    let p = arr.as_ptr();
    let q = p.wrapping_add(10);
    let v = unsafe { *q };
}''', UbKind.DANGLING_POINTER)

    def test_drop_then_index_vec(self):
        expect('''
fn main() {
    let mut v = vec![1, 2, 3];
    drop(v);
    let x = v[0];
}''', UbKind.DANGLING_POINTER)


class TestStackBorrow:
    def test_raw_invalidated_by_new_mut_borrow(self):
        expect('''
fn main() {
    let mut x = 5;
    let p = &mut x as *mut i32;
    let r = &mut x;
    *r += 1;
    let v = unsafe { *p };
}''', UbKind.STACK_BORROW)

    def test_raw_invalidated_by_direct_write(self):
        expect('''
fn main() {
    let mut x = 5;
    let p = &mut x as *mut i32;
    x = 6;
    let v = unsafe { *p };
}''', UbKind.STACK_BORROW)

    def test_raw_still_valid_without_invalidation(self):
        expect_pass('''
fn main() {
    let mut x = 5;
    let p = &mut x as *mut i32;
    unsafe { *p += 1; }
    println!("{}", x);
}''')


class TestBothBorrow:
    def test_shared_invalidated_by_mut_write(self):
        expect('''
fn main() {
    let mut x = 5;
    let r = &mut x;
    let s = &x;
    *r += 1;
    let v = *s;
}''', UbKind.BOTH_BORROW)

    def test_write_through_shared_ref(self):
        # `*s = 1` through &i32: our detector reports it as a borrow error
        # at the write (rustc would reject statically).
        report = detect_ub('''
fn main() {
    let mut x = 5;
    let s = &x;
    *s = 9;
}''', debug=True)
        assert not report.passed


class TestProvenance:
    def test_int_to_ptr_deref(self):
        expect('''
fn main() {
    let addr: usize = 0x1000;
    let p = addr as *const i32;
    let v = unsafe { *p };
}''', UbKind.PROVENANCE)

    def test_transmute_ref_to_usize_then_back(self):
        expect('''
use std::mem;
fn main() {
    let x = 5;
    let p = &x;
    let addr = unsafe { mem::transmute::<&i32, usize>(p) };
    let q = addr as *const i32;
    let v = unsafe { *q };
}''', UbKind.PROVENANCE)

    def test_ptr_as_usize_without_deref_is_fine(self):
        expect_pass('''
fn main() {
    let x = 5;
    let p = &x as *const i32 as usize;
    println!("{}", p > 0);
}''')


class TestUninit:
    def test_assume_init_uninit(self):
        expect('''
fn main() {
    let mu: MaybeUninit<i32> = MaybeUninit::uninit();
    let v = unsafe { mu.assume_init() };
}''', UbKind.UNINIT)

    def test_assume_init_after_write_is_fine(self):
        expect_pass('''
fn main() {
    let mut mu: MaybeUninit<i32> = MaybeUninit::uninit();
    mu.write(5);
    let v = unsafe { mu.assume_init() };
    println!("{}", v);
}''')

    def test_set_len_exposes_uninit(self):
        expect('''
fn main() {
    let mut v: Vec<i32> = Vec::with_capacity(4);
    unsafe { v.set_len(3); }
    let x = v[2];
}''', UbKind.UNINIT)

    def test_union_padding_uninit(self):
        expect('''
union Bits { small: u8, big: u32 }
fn main() {
    let b = Bits { small: 1 };
    let v = unsafe { b.big };
}''', UbKind.UNINIT)

    def test_read_uninit_heap(self):
        expect('''
use std::alloc;
fn main() {
    let layout = Layout::from_size_align(4, 4).unwrap();
    let p = unsafe { alloc::alloc(layout) } as *mut i32;
    let v = unsafe { *p };
}''', UbKind.UNINIT)


class TestValidity:
    def test_bool_from_2(self):
        expect('''
use std::mem;
fn main() {
    let n: u8 = 2;
    let b = unsafe { mem::transmute::<u8, bool>(n) };
}''', UbKind.VALIDITY)

    def test_null_ref_from_zeroed(self):
        expect('''
use std::mem;
fn main() {
    let r = unsafe { mem::zeroed::<&i32>() };
}''', UbKind.VALIDITY)

    def test_invalid_char(self):
        expect('''
use std::mem;
fn main() {
    let n: u32 = 0xD800;
    let c = unsafe { mem::transmute::<u32, char>(n) };
}''', UbKind.VALIDITY)

    def test_transmute_size_mismatch_is_compile_error(self):
        report = detect_ub('''
use std::mem;
fn main() {
    let n1 = [0x17u8, 0x07];
    let n2 = unsafe { mem::transmute::<[u8; 2], u32>(n1) };
}''', debug=True)
        assert report.errors[0].kind is UbKind.COMPILE


class TestUnaligned:
    def test_misaligned_u32_read(self):
        expect('''
fn main() {
    let arr = [0u8, 1, 2, 3, 4, 5, 6, 7];
    let p = arr.as_ptr();
    let q = unsafe { p.add(1) } as *const u32;
    let v = unsafe { *q };
}''', UbKind.UNALIGNED)

    def test_aligned_access_is_fine(self):
        expect_pass('''
fn main() {
    let arr = [0u8, 1, 2, 3, 4, 5, 6, 7];
    let p = arr.as_ptr() as *const u32;
    let v = unsafe { *p };
    println!("{}", v);
}''')


class TestAlloc:
    def test_double_free(self):
        expect('''
fn main() {
    let b = Box::new(1);
    let p = Box::into_raw(b);
    unsafe { drop(Box::from_raw(p)); }
    unsafe { drop(Box::from_raw(p)); }
}''', UbKind.ALLOC)

    def test_dealloc_with_wrong_layout(self):
        expect('''
use std::alloc;
fn main() {
    let layout = Layout::from_size_align(8, 8).unwrap();
    let p = unsafe { alloc::alloc(layout) };
    let wrong = Layout::from_size_align(16, 8).unwrap();
    unsafe { alloc::dealloc(p, wrong); }
}''', UbKind.ALLOC)

    def test_zero_size_alloc(self):
        expect('''
use std::alloc;
fn main() {
    let layout = Layout::from_size_align(0, 1).unwrap();
    let p = unsafe { alloc::alloc(layout) };
}''', UbKind.ALLOC)

    def test_proper_alloc_dealloc_passes(self):
        expect_pass('''
use std::alloc;
fn main() {
    let layout = Layout::from_size_align(8, 8).unwrap();
    let p = unsafe { alloc::alloc(layout) } as *mut u64;
    unsafe { *p = 42; }
    let v = unsafe { *p };
    let layout2 = Layout::from_size_align(8, 8).unwrap();
    unsafe { alloc::dealloc(p as *mut u8, layout2); }
    println!("{}", v);
}''')


class TestDataRace:
    def test_static_mut_race(self):
        expect('''
static mut COUNTER: usize = 0;
fn main() {
    let h = std::thread::spawn(move || {
        unsafe { COUNTER += 1; }
    });
    unsafe { COUNTER += 1; }
    h.join();
}''', UbKind.DATA_RACE)

    def test_join_before_access_is_ordered(self):
        expect_pass('''
static mut COUNTER: usize = 0;
fn main() {
    let h = std::thread::spawn(move || {
        unsafe { COUNTER += 1; }
    });
    h.join();
    unsafe { COUNTER += 1; }
    println!("{}", unsafe { COUNTER });
}''')

    def test_atomic_avoids_race(self):
        expect_pass('''
static COUNTER: AtomicUsize = AtomicUsize::new(0);
fn main() {
    let h = std::thread::spawn(move || {
        COUNTER.fetch_add(1, Ordering::SeqCst);
    });
    COUNTER.fetch_add(1, Ordering::SeqCst);
    h.join();
    println!("{}", COUNTER.load(Ordering::SeqCst));
}''')

    def test_mutex_avoids_race(self):
        expect_pass('''
static M: Mutex<i32> = Mutex::new(0);
fn main() {
    let h = std::thread::spawn(move || {
        let mut g = M.lock();
        *g += 1;
        drop(g);
    });
    h.join();
    let g = M.lock();
    println!("{}", *g);
    drop(g);
}''')

    def test_race_through_raw_pointer(self):
        # The move closure captures the raw pointer (provenance intact);
        # the child's write races with the parent's unsynchronized write.
        expect('''
fn main() {
    let mut data = 0i64;
    let p = &mut data as *mut i64;
    let h = std::thread::spawn(move || {
        unsafe { *p = 1; }
    });
    data = 2;
    h.join();
}''', UbKind.DATA_RACE)


class TestConcurrency:
    def test_unjoined_thread(self):
        expect('''
fn main() {
    std::thread::spawn(move || {
        let x = 1;
    });
}''', UbKind.CONCURRENCY)

    def test_double_lock_deadlock(self):
        expect('''
static M: Mutex<i32> = Mutex::new(0);
fn main() {
    let g1 = M.lock();
    let g2 = M.lock();
}''', UbKind.CONCURRENCY)


class TestFunctionPointers:
    def test_transmuted_wrong_arity(self):
        expect('''
use std::mem;
fn add(a: i32, b: i32) -> i32 { a + b }
fn main() {
    let f = unsafe { mem::transmute::<fn(i32, i32) -> i32, fn(i32) -> i32>(add) };
    let v = f(1);
}''', UbKind.FUNC_POINTER)

    def test_fn_ptr_from_int(self):
        expect('''
use std::mem;
fn main() {
    let f = unsafe { mem::transmute::<usize, fn() -> i32>(42) };
    let v = f();
}''', UbKind.FUNC_POINTER)

    def test_wrong_return_type(self):
        expect('''
use std::mem;
fn get() -> i32 { 1 }
fn main() {
    let f = unsafe { mem::transmute::<fn() -> i32, fn() -> u64>(get) };
    let v = f();
}''', UbKind.FUNC_POINTER)

    def test_correct_fn_ptr_passes(self):
        expect_pass('''
fn get() -> i32 { 7 }
fn main() {
    let f: fn() -> i32 = get;
    println!("{}", f());
}''')


class TestPanicCategory:
    def test_explicit_panic(self):
        expect('fn main() { panic!("nope"); }', UbKind.PANIC)

    def test_assert_failure(self):
        expect('fn main() { assert!(false, "bad"); }', UbKind.PANIC)

    def test_index_oob(self):
        expect('''
fn main() {
    let a = [1, 2];
    let i = 2;
    let v = a[i];
}''', UbKind.PANIC)

    def test_unwrap_none(self):
        expect('''
fn main() {
    let mut v: Vec<i32> = Vec::new();
    let x = v.pop().unwrap();
}''', UbKind.PANIC)


class TestUnsafeEnforcement:
    def test_raw_deref_needs_unsafe(self):
        report = detect_ub('''
fn main() {
    let x = 1;
    let p = &x as *const i32;
    let v = *p;
}''', debug=True)
        assert report.errors[0].kind is UbKind.COMPILE
        assert "E0133" in report.errors[0].message

    def test_unsafe_fn_call_needs_unsafe(self):
        report = detect_ub('''
unsafe fn danger() -> i32 { 1 }
fn main() {
    let v = danger();
}''', debug=True)
        assert report.errors[0].kind is UbKind.COMPILE

    def test_unsafe_fn_body_is_unsafe_context(self):
        expect_pass('''
unsafe fn read_it(p: *const i32) -> i32 { *p }
fn main() {
    let x = 9;
    let v = unsafe { read_it(&x as *const i32) };
    println!("{}", v);
}''')

    def test_static_mut_needs_unsafe(self):
        report = detect_ub('''
static mut G: i32 = 0;
fn main() { G = 5; }''', debug=True)
        assert report.errors[0].kind is UbKind.COMPILE

    def test_union_field_needs_unsafe(self):
        report = detect_ub('''
union B { a: u8, b: u8 }
fn main() {
    let u = B { a: 1 };
    let v = u.a;
}''', debug=True)
        assert report.errors[0].kind is UbKind.COMPILE

    def test_transmute_needs_unsafe(self):
        report = detect_ub('''
use std::mem;
fn main() {
    let v = mem::transmute::<u32, i32>(1u32);
}''', debug=True)
        assert report.errors[0].kind is UbKind.COMPILE


class TestLexErrors:
    def test_unterminated_block_comment_is_compile_error(self):
        report = detect_ub("fn main() { let x = 1; } /* never closed",
                           debug=True)
        assert not report.passed
        assert report.errors[0].kind is UbKind.COMPILE
        assert "unterminated block comment" in report.errors[0].message

    @pytest.mark.parametrize("source, char, message", [
        ("fn main() {\n    let x = 1 $ 2;\n}\n", "$",
         "unexpected character"),
        ('fn main() {\n    let s = "never closed;\n}\n', '"',
         "unterminated string literal"),
        ("fn main() {\n    let c = '\\x;\n}\n", "'",
         "unterminated char literal"),
        ("fn main() { let x = 1; }\n/* never closed", "/",
         "unterminated block comment"),
        ("fn main() {}\n  /* outer /* inner */ still open\n", "/",
         "unterminated block comment"),
    ], ids=["character", "string", "char", "comment", "nested-comment"])
    def test_lex_error_span_covers_the_offending_character(self, source,
                                                            char, message):
        # The lex error's own span: the unexpected character, or the
        # opener of what never closes, as the checker's E0001 reports it.
        [error] = detect_ub(source).errors
        assert error.kind is UbKind.COMPILE and message in error.message
        assert source[error.span.start:error.span.end] == char
        assert line_col(source, error.span.start) == \
            (error.span.line, error.span.col)


class TestCollectMode:
    def test_collects_multiple_errors(self):
        report = detect_ub('''
fn main() {
    let a = unsafe { *(0x100 as *const i32) };
    let b = unsafe { *(0x200 as *const i32) };
    println!("done");
}''', collect=True)
        assert report.error_count == 2
        assert report.stdout == ["done"]

    def test_stop_at_first_by_default(self):
        report = detect_ub('''
fn main() {
    let a = unsafe { *(0x100 as *const i32) };
    let b = unsafe { *(0x200 as *const i32) };
}''')
        assert report.error_count == 1

    def test_collect_respects_max_errors(self):
        source = "fn main() {\n" + "\n".join(
            f"    let x{i} = unsafe {{ *({i + 1} as *const u8) }};"
            for i in range(10)
        ) + "\n}"
        report = detect_ub(source, collect=True, max_errors=3)
        assert report.error_count == 3

    def test_panic_stops_collection(self):
        report = detect_ub('''
fn main() {
    let a = unsafe { *(0x100 as *const i32) };
    panic!("stop");
    let b = unsafe { *(0x200 as *const i32) };
}''', collect=True)
        kinds = [e.kind for e in report.errors]
        assert UbKind.PANIC in kinds
        assert len(kinds) == 2  # provenance + panic; nothing after the panic

    def test_parse_error_reported_as_compile(self):
        report = detect_ub("fn main() { let = ; }")
        assert report.errors[0].kind is UbKind.COMPILE
