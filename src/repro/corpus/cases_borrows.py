"""Dataset cases: stack_borrow, both_borrow, provenance."""

from ..miri.errors import UbKind
from .case import Strategy, make_cases

# ---------------------------------------------------------------------------
# stack_borrow — raw pointers invalidated per stacked borrows

STACK_BORROW_CASES = (
    make_cases(
        "stackborrow_reborrow", UbKind.STACK_BORROW,
        "raw pointer invalidated by a fresh &mut reborrow",
        template='''\
fn main() {{
    let mut x = {val}{ity};
    let p = &mut x as *mut {ity};
    let r = &mut x;
    *r += {inc};
    let observed = unsafe {{ *p }};
    println!("{{}}", observed);
}}
''',
        fixed_template='''\
fn main() {{
    let mut x = {val}{ity};
    let p = &mut x as *mut {ity};
    let observed = unsafe {{ *p }};
    let r = &mut x;
    *r += {inc};
    println!("{{}}", observed);
}}
''',
        strategies=(Strategy("hoist_raw_use_before_reborrow"),),
        variants=[{"val": 5, "ity": "i32", "inc": 1},
                  {"val": 400, "ity": "i64", "inc": 7},
                  {"val": 7, "ity": "i32", "inc": 3}],
        difficulty=3,
    )
    + make_cases(
        "stackborrow_direct_write", UbKind.STACK_BORROW,
        "raw pointer invalidated by a direct write to the owner",
        template='''\
fn main() {{
    let mut count = {val};
    let p = &mut count as *mut {ity};
    count = {newval};
    let snapshot = unsafe {{ *p }};
    println!("{{}} {{}}", snapshot, count);
}}
''',
        fixed_template='''\
fn main() {{
    let mut count = {val};
    let p = &mut count as *mut {ity};
    count = {newval};
    let snapshot = count;
    println!("{{}} {{}}", snapshot, count);
}}
''',
        strategies=(Strategy("read_owner_instead_of_raw"),
                    Strategy("hoist_raw_use_before_reborrow", exact=False)),
        variants=[{"val": 3, "ity": "i32", "newval": 9},
                  {"val": 100, "ity": "u32", "newval": 250},
                  {"val": 12, "ity": "i32", "newval": 99}],
        difficulty=3,
    )
    + make_cases(
        "stackborrow_vec_push", UbKind.STACK_BORROW,
        "as_mut_ptr pointer invalidated by a non-reallocating push",
        template='''\
fn main() {{
    let mut v: Vec<i32> = Vec::with_capacity(4);
    v.push({a});
    let p = v.as_mut_ptr();
    v.push({b});
    let first = unsafe {{ *p }};
    println!("{{}}", first);
}}
''',
        fixed_template='''\
fn main() {{
    let mut v: Vec<i32> = Vec::with_capacity(4);
    v.push({a});
    v.push({b});
    let p = v.as_mut_ptr();
    let first = unsafe {{ *p }};
    println!("{{}}", first);
}}
''',
        strategies=(Strategy("take_pointer_after_mutation"),),
        variants=[{"a": 8, "b": 16}, {"a": 1, "b": 2}],
        difficulty=3,
    )
)

# ---------------------------------------------------------------------------
# both_borrow — &mut / & aliasing misuse

BOTH_BORROW_CASES = (
    make_cases(
        "bothborrow_alias_write", UbKind.BOTH_BORROW,
        "shared borrow taken while a mutable borrow is still in use",
        template='''\
fn main() {{
    let mut total = {val};
    let r = &mut total;
    let s = &total;
    *r += {inc};
    let snapshot = *s;
    println!("{{}}", snapshot);
}}
''',
        fixed_template='''\
fn main() {{
    let mut total = {val};
    let r = &mut total;
    *r += {inc};
    let s = &total;
    let snapshot = *s;
    println!("{{}}", snapshot);
}}
''',
        strategies=(Strategy("shorten_shared_borrow"),
                    Strategy("hoist_write_before_shared")),
        variants=[{"val": 10, "inc": 5}, {"val": -3, "inc": 4},
                  {"val": 1000, "inc": 1}, {"val": 0, "inc": 9}],
        difficulty=2,
    )
    + make_cases(
        "bothborrow_read_then_write", UbKind.BOTH_BORROW,
        "mutable write after the shared alias already read",
        template='''\
fn main() {{
    let mut score = {val};
    let r = &mut score;
    let s = &score;
    let before = *s;
    *r += {inc};
    println!("{{}} {{}}", before, score);
}}
''',
        fixed_template='''\
fn main() {{
    let mut score = {val};
    let r = &mut score;
    *r += {inc};
    let s = &score;
    let before = *s;
    println!("{{}} {{}}", before, score);
}}
''',
        strategies=(Strategy("hoist_write_before_shared"),),
        variants=[{"val": 50, "inc": 50}, {"val": 7, "inc": 2},
                  {"val": 33, "inc": 11}],
        difficulty=3,
    )
)

# ---------------------------------------------------------------------------
# provenance — integer-laundered pointers

PROVENANCE_CASES = (
    make_cases(
        "provenance_transmute_ref", UbKind.PROVENANCE,
        "reference transmuted to usize, cast back, dereferenced",
        template='''\
use std::mem;
fn main() {{
    let secret = {val};
    let r = &secret;
    let addr = unsafe {{ mem::transmute::<&{ity}, usize>(r) }};
    let q = addr as *const {ity};
    let leaked = unsafe {{ *q }};
    println!("{{}}", leaked);
}}
''',
        fixed_template='''\
use std::mem;
fn main() {{
    let secret = {val};
    let r = &secret;
    let addr = unsafe {{ mem::transmute::<&{ity}, usize>(r) }};
    let q = addr as *const {ity};
    let leaked = secret;
    println!("{{}}", leaked);
}}
''',
        strategies=(Strategy("replace_deref_with_original_value"),),
        variants=[{"val": 5, "ity": "i32"}, {"val": 77, "ity": "u64"},
                  {"val": 9, "ity": "i64"}],
        difficulty=3,
    )
    + make_cases(
        "provenance_cast_chain", UbKind.PROVENANCE,
        "pointer round-tripped through usize loses provenance",
        template='''\
fn main() {{
    let data = {val};
    let addr = &data as *const {ity} as usize;
    let p = addr as *const {ity};
    let v = unsafe {{ *p }};
    println!("{{}}", v);
}}
''',
        fixed_template='''\
fn main() {{
    let data = {val};
    let addr = &data as *const {ity} as usize;
    let p = addr as *const {ity};
    let v = data;
    println!("{{}}", v);
}}
''',
        strategies=(Strategy("replace_deref_with_original_value"),),
        variants=[{"val": 11, "ity": "i32"}, {"val": 31000, "ity": "i64"},
                  {"val": 255, "ity": "u8"}],
        difficulty=3,
    )
)

CASES = STACK_BORROW_CASES + BOTH_BORROW_CASES + PROVENANCE_CASES
