"""Dataset cases: alloc, dangling_pointer, uninit."""

from ..miri.errors import UbKind
from .case import Strategy, make_cases

# ---------------------------------------------------------------------------
# alloc — allocator misuse: double free, layout mismatch, zero-size alloc

ALLOC_CASES = (
    make_cases(
        "alloc_double_free_box", UbKind.ALLOC,
        "Box freed twice through Box::from_raw",
        template='''\
fn main() {{
    let b = Box::new({val});
    let p = Box::into_raw(b);
    let first = unsafe {{ *p }};
    unsafe {{ drop(Box::from_raw(p)); }}
    unsafe {{ drop(Box::from_raw(p)); }}
    println!("{{}}", first);
}}
''',
        fixed_template='''\
fn main() {{
    let b = Box::new({val});
    let p = Box::into_raw(b);
    let first = unsafe {{ *p }};
    unsafe {{ drop(Box::from_raw(p)); }}
    println!("{{}}", first);
}}
''',
        strategies=(Strategy("remove_second_free"),),
        variants=[{"val": 7}, {"val": 1234}, {"val": -8}],
        difficulty=1,
    )
    + make_cases(
        "alloc_wrong_layout", UbKind.ALLOC,
        "dealloc with a layout different from the allocation's",
        template='''\
use std::alloc;
fn main() {{
    let layout = Layout::from_size_align({size}, 8).unwrap();
    let p = unsafe {{ alloc::alloc(layout) }} as *mut u64;
    unsafe {{ *p = {val}; }}
    let v = unsafe {{ *p }};
    let wrong = Layout::from_size_align({wrong_size}, 8).unwrap();
    unsafe {{ alloc::dealloc(p as *mut u8, wrong); }}
    println!("{{}}", v);
}}
''',
        fixed_template='''\
use std::alloc;
fn main() {{
    let layout = Layout::from_size_align({size}, 8).unwrap();
    let p = unsafe {{ alloc::alloc(layout) }} as *mut u64;
    unsafe {{ *p = {val}; }}
    let v = unsafe {{ *p }};
    unsafe {{ alloc::dealloc(p as *mut u8, layout); }}
    println!("{{}}", v);
}}
''',
        strategies=(Strategy("fix_dealloc_layout"),),
        variants=[{"size": 8, "wrong_size": 16, "val": 42},
                  {"size": 8, "wrong_size": 4, "val": 99},
                  {"size": 16, "wrong_size": 8, "val": 7}],
        difficulty=2,
    )
    + make_cases(
        "alloc_zero_size", UbKind.ALLOC,
        "calling the global allocator with a zero-size layout",
        template='''\
use std::alloc;
fn main() {{
    let size = {size};
    let layout = Layout::from_size_align(size, 1).unwrap();
    let p = unsafe {{ alloc::alloc(layout) }};
    unsafe {{ alloc::dealloc(p, layout); }}
    println!("requested {{}} bytes", size);
}}
''',
        fixed_template='''\
use std::alloc;
fn main() {{
    let size = {size};
    let layout = Layout::from_size_align(size.max(1), 1).unwrap();
    let p = unsafe {{ alloc::alloc(layout) }};
    unsafe {{ alloc::dealloc(p, layout); }}
    println!("requested {{}} bytes", size);
}}
''',
        strategies=(Strategy("guard_layout_nonzero"),),
        variants=[{"size": 0}],
        difficulty=2,
    )
    + make_cases(
        "alloc_double_free_vec", UbKind.ALLOC,
        "Vec buffer freed twice via duplicate drop",
        template='''\
fn main() {{
    let v = vec![{a}, {b}];
    let total = v[0] + v[1];
    drop(v);
    drop(v);
    println!("{{}}", total);
}}
''',
        fixed_template='''\
fn main() {{
    let v = vec![{a}, {b}];
    let total = v[0] + v[1];
    drop(v);
    println!("{{}}", total);
}}
''',
        strategies=(Strategy("remove_second_free"),),
        variants=[{"a": 3, "b": 4}, {"a": 10, "b": 20}],
        difficulty=1,
    )
)

# ---------------------------------------------------------------------------
# dangling_pointer — use-after-free, OOB pointers, null derefs

DANGLING_CASES = (
    make_cases(
        "dangling_use_after_free", UbKind.DANGLING_POINTER,
        "raw pointer dereferenced after the Box was dropped",
        template='''\
fn main() {{
    let b = Box::new({val});
    let p = Box::into_raw(b);
    unsafe {{ drop(Box::from_raw(p)); }}
    let v = unsafe {{ *p }};
    println!("{{}}", v);
}}
''',
        fixed_template='''\
fn main() {{
    let b = Box::new({val});
    let p = Box::into_raw(b);
    let v = unsafe {{ *p }};
    unsafe {{ drop(Box::from_raw(p)); }}
    println!("{{}}", v);
}}
''',
        strategies=(Strategy("move_drop_after_last_use"),),
        variants=[{"val": 7}, {"val": -31}, {"val": 123}],
        difficulty=2,
    )
    + make_cases(
        "dangling_vec_realloc", UbKind.DANGLING_POINTER,
        "as_ptr pointer invalidated by a reallocating push",
        template='''\
fn main() {{
    let mut v: Vec<i32> = Vec::with_capacity(1);
    v.push({a});
    let p = v.as_ptr();
    v.push({b});
    let first = unsafe {{ *p }};
    println!("{{}}", first);
}}
''',
        fixed_template='''\
fn main() {{
    let mut v: Vec<i32> = Vec::with_capacity(1);
    v.push({a});
    v.push({b});
    let p = v.as_ptr();
    let first = unsafe {{ *p }};
    println!("{{}}", first);
}}
''',
        strategies=(Strategy("take_pointer_after_mutation"),),
        variants=[{"a": 10, "b": 20}, {"a": 5, "b": 6}],
        difficulty=3,
    )
    + make_cases(
        "dangling_null_deref", UbKind.DANGLING_POINTER,
        "dereferencing a pointer that may be null",
        template='''\
use std::ptr;
fn lookup(found: bool) -> *const i32 {{
    if found {{ &{val} as *const i32 }} else {{ ptr::null() }}
}}
fn main() {{
    let p = lookup(false);
    let v = unsafe {{ *p }};
    println!("{{}}", v);
}}
''',
        fixed_template='''\
use std::ptr;
fn lookup(found: bool) -> *const i32 {{
    if found {{ &{val} as *const i32 }} else {{ ptr::null() }}
}}
fn main() {{
    let p = lookup(false);
    let v = if !p.is_null() {{ unsafe {{ *p }} }} else {{ 0 }};
    println!("{{}}", v);
}}
''',
        strategies=(Strategy("guard_nonnull_before_deref"),),
        variants=[{"val": 5}, {"val": 42}],
        difficulty=2,
    )
    + make_cases(
        "dangling_ptr_add_oob", UbKind.DANGLING_POINTER,
        "pointer arithmetic walks past the end of the buffer",
        template='''\
fn main() {{
    let v = vec![{a}, {b}, {c}];
    let idx = {idx};
    let p = v.as_ptr();
    let val = unsafe {{ *p.add(idx) }};
    println!("{{}}", val);
}}
''',
        fixed_template='''\
fn main() {{
    let v = vec![{a}, {b}, {c}];
    let idx = {idx};
    let p = v.as_ptr();
    let val = if idx < v.len() {{ unsafe {{ *p.add(idx) }} }} else {{ 0 }};
    println!("{{}}", val);
}}
''',
        strategies=(Strategy("guard_ptr_add_with_len_check"),),
        variants=[{"a": 1, "b": 2, "c": 3, "idx": 7},
                  {"a": 4, "b": 5, "c": 6, "idx": 8}],
        difficulty=2,
    )
    + make_cases(
        "dangling_drop_then_index", UbKind.DANGLING_POINTER,
        "Vec indexed after being dropped",
        template='''\
fn main() {{
    let v = vec![{a}, {b}, {c}];
    let total = v[0] + v[2];
    drop(v);
    let again = v[1];
    println!("{{}} {{}}", total, again);
}}
''',
        fixed_template='''\
fn main() {{
    let v = vec![{a}, {b}, {c}];
    let total = v[0] + v[2];
    let again = v[1];
    drop(v);
    println!("{{}} {{}}", total, again);
}}
''',
        strategies=(Strategy("move_drop_after_last_use"),),
        variants=[{"a": 1, "b": 5, "c": 9}, {"a": 2, "b": 4, "c": 6}],
        difficulty=2,
    )
)

# ---------------------------------------------------------------------------
# uninit — reads of uninitialised memory

UNINIT_CASES = (
    make_cases(
        "uninit_assume_init", UbKind.UNINIT,
        "assume_init on never-written MaybeUninit",
        template='''\
fn main() {{
    let mu: MaybeUninit<{ity}> = MaybeUninit::uninit();
    let v = unsafe {{ mu.assume_init() }};
    println!("{{}}", v);
}}
''',
        fixed_template='''\
fn main() {{
    let mu: MaybeUninit<{ity}> = MaybeUninit::new(0);
    let v = unsafe {{ mu.assume_init() }};
    println!("{{}}", v);
}}
''',
        strategies=(Strategy("replace_uninit_with_zero_init"),
                    Strategy("write_before_assume_init")),
        variants=[{"ity": "i32"}, {"ity": "u64"}, {"ity": "u32"}],
        difficulty=1,
    )
    + make_cases(
        "uninit_set_len", UbKind.UNINIT,
        "set_len exposes uninitialised Vec elements",
        template='''\
fn main() {{
    let mut v: Vec<{ity}> = Vec::with_capacity({cap});
    unsafe {{ v.set_len({n}); }}
    let x = v[{i}];
    println!("{{}}", x);
}}
''',
        fixed_template='''\
fn main() {{
    let mut v: Vec<{ity}> = Vec::with_capacity({cap});
    v.resize({n}, 0);
    let x = v[{i}];
    println!("{{}}", x);
}}
''',
        strategies=(Strategy("replace_set_len_with_resize"),),
        variants=[{"ity": "i32", "cap": 4, "n": 3, "i": 2},
                  {"ity": "u8", "cap": 8, "n": 5, "i": 4},
                  {"ity": "u64", "cap": 4, "n": 2, "i": 1}],
        difficulty=2,
    )
    + make_cases(
        "uninit_union_field", UbKind.UNINIT,
        "reading a wider union field than was written",
        template='''\
union {U} {{
    small: u8,
    big: u32,
}}
fn main() {{
    let bits = {U} {{ small: {val} }};
    let v = unsafe {{ bits.big }};
    println!("{{}}", v);
}}
''',
        fixed_template='''\
union {U} {{
    small: u8,
    big: u32,
}}
fn main() {{
    let bits = {U} {{ small: {val} }};
    let v = unsafe {{ bits.small }};
    println!("{{}}", v);
}}
''',
        strategies=(Strategy("read_written_union_field"),),
        variants=[{"U": "Packet", "val": 17}, {"U": "Frame", "val": 200}],
        difficulty=3,
    )
    + make_cases(
        "uninit_fresh_heap", UbKind.UNINIT,
        "reading freshly allocated heap memory before initialising it",
        template='''\
use std::alloc;
fn main() {{
    let layout = Layout::from_size_align(4, 4).unwrap();
    let p = unsafe {{ alloc::alloc(layout) }} as *mut i32;
    let v = unsafe {{ *p }};
    println!("{{}}", v);
    unsafe {{ alloc::dealloc(p as *mut u8, layout); }}
}}
''',
        fixed_template='''\
use std::alloc;
fn main() {{
    let layout = Layout::from_size_align(4, 4).unwrap();
    let p = unsafe {{ alloc::alloc(layout) }} as *mut i32;
    unsafe {{ *p = 0; }}
    let v = unsafe {{ *p }};
    println!("{{}}", v);
    unsafe {{ alloc::dealloc(p as *mut u8, layout); }}
}}
''',
        strategies=(Strategy("write_zero_after_alloc"),),
        variants=[{}],
        difficulty=2,
    )
)

CASES = ALLOC_CASES + DANGLING_CASES + UNINIT_CASES
