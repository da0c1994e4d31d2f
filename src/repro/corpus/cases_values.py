"""Dataset cases: validity, unaligned, panic."""

from ..miri.errors import UbKind
from .case import Strategy, make_cases

# ---------------------------------------------------------------------------
# validity — constructing invalid values

VALIDITY_CASES = (
    make_cases(
        "validity_bool_transmute", UbKind.VALIDITY,
        "transmuting an out-of-range byte into bool",
        template='''\
use std::mem;
fn main() {{
    let raw: u8 = {val};
    let flag = unsafe {{ mem::transmute::<u8, bool>(raw) }};
    println!("{{}}", flag);
}}
''',
        fixed_template='''\
use std::mem;
fn main() {{
    let raw: u8 = {val};
    let flag = raw != 0;
    println!("{{}}", flag);
}}
''',
        strategies=(Strategy("replace_transmute_int_with_comparison"),),
        variants=[{"val": 2}, {"val": 255}, {"val": 7}],
        difficulty=2,
    )
    + make_cases(
        "validity_zeroed_ref", UbKind.VALIDITY,
        "mem::zeroed conjures a null reference",
        template='''\
use std::mem;
fn main() {{
    let r = unsafe {{ mem::zeroed::<&{ity}>() }};
    println!("{{}}", *r);
}}
''',
        fixed_template='''\
use std::mem;
fn main() {{
    let __zeroed_default: {ity} = 0;
    let r = unsafe {{ &__zeroed_default }};
    println!("{{}}", *r);
}}
''',
        strategies=(Strategy("replace_zeroed_ref_with_local"),),
        variants=[{"ity": "i32"}, {"ity": "u64"}, {"ity": "i64"}],
        difficulty=3,
    )
    + make_cases(
        "validity_char_transmute", UbKind.VALIDITY,
        "transmuting a surrogate code point into char",
        template='''\
use std::mem;
fn main() {{
    let code: u32 = {val};
    let symbol = unsafe {{ mem::transmute::<u32, char>(code) }};
    println!("{{}}", symbol);
}}
''',
        fixed_template='''\
use std::mem;
fn main() {{
    let code: u32 = {val};
    let symbol = char::from_u32(code).unwrap_or('?');
    println!("{{}}", symbol);
}}
''',
        strategies=(Strategy("replace_transmute_char_with_from_u32"),),
        variants=[{"val": 0xD800}, {"val": 0x110000}, {"val": 0xDFFF}],
        difficulty=2,
    )
    + make_cases(
        "validity_bool_raw_write", UbKind.VALIDITY,
        "writing an out-of-range byte into a bool through a raw pointer",
        template='''\
fn main() {{
    let mut flag = false;
    let p = &mut flag as *mut bool as *mut u8;
    unsafe {{ *p = {val}; }}
    println!("{{}}", flag);
}}
''',
        fixed_template='''\
fn main() {{
    let mut flag = false;
    let p = &mut flag as *mut bool as *mut u8;
    unsafe {{ *p = 1; }}
    println!("{{}}", flag);
}}
''',
        strategies=(Strategy("store_valid_bool"),),
        variants=[{"val": 3}, {"val": 9}],
        difficulty=3,
    )
)

# ---------------------------------------------------------------------------
# unaligned — misaligned typed accesses

UNALIGNED_CASES = (
    make_cases(
        "unaligned_read_u32", UbKind.UNALIGNED,
        "reading a u32 at an odd byte offset",
        template='''\
fn main() {{
    let words = [{a}u64, {b}];
    let bytes = words.as_ptr() as *const u8;
    let shifted = unsafe {{ bytes.add({off}) }} as *const u32;
    let value = unsafe {{ *shifted }};
    println!("{{}}", value);
}}
''',
        fixed_template='''\
fn main() {{
    let words = [{a}u64, {b}];
    let bytes = words.as_ptr() as *const u8;
    let shifted = unsafe {{ bytes.add({off}) }} as *const u32;
    let value = unsafe {{ shifted.read_unaligned() }};
    println!("{{}}", value);
}}
''',
        strategies=(Strategy("read_unaligned_instead"),
                    Strategy("guard_alignment_before_cast_read", exact=False)),
        variants=[{"a": 0x0102030405060708, "b": 0x1112131415161718, "off": 1},
                  {"a": 0xAABBCCDDEEFF0011, "b": 0x2233445566778899, "off": 3},
                  {"a": 0x0011223344556677, "b": 0x8899AABBCCDDEEFF, "off": 5}],
        difficulty=2,
    )
    + make_cases(
        "unaligned_read_u16_guarded", UbKind.UNALIGNED,
        "reading a u16 at an odd offset; reference fix guards the access",
        template='''\
fn main() {{
    let words = [{a}u64; 2];
    let bytes = words.as_ptr() as *const u8;
    let shifted = unsafe {{ bytes.add({off}) }} as *const u16;
    let value = unsafe {{ *shifted }};
    println!("{{}}", value);
}}
''',
        fixed_template='''\
fn main() {{
    let words = [{a}u64; 2];
    let bytes = words.as_ptr() as *const u8;
    let shifted = unsafe {{ bytes.add({off}) }} as *const u16;
    let value = if shifted as usize % 2 == 0 {{ unsafe {{ *shifted }} }} else {{ 0 }};
    println!("{{}}", value);
}}
''',
        strategies=(Strategy("guard_alignment_before_cast_read"),
                    Strategy("read_unaligned_instead", exact=False)),
        variants=[{"a": 0x0102030405060708, "off": 1},
                  {"a": 0x1213141516171819, "off": 3}],
        difficulty=2,
    )
    + make_cases(
        "unaligned_read_u64", UbKind.UNALIGNED,
        "reading a u64 off the 8-byte grid",
        template='''\
fn main() {{
    let words = [{a}u64, {b}, {c}];
    let bytes = words.as_ptr() as *const u8;
    let shifted = unsafe {{ bytes.add({off}) }} as *const u64;
    let value = unsafe {{ *shifted }};
    println!("{{}}", value);
}}
''',
        fixed_template='''\
fn main() {{
    let words = [{a}u64, {b}, {c}];
    let bytes = words.as_ptr() as *const u8;
    let shifted = unsafe {{ bytes.add({off}) }} as *const u64;
    let value = unsafe {{ shifted.read_unaligned() }};
    println!("{{}}", value);
}}
''',
        strategies=(Strategy("read_unaligned_instead"),
                    Strategy("guard_alignment_before_cast_read", exact=False)),
        variants=[{"a": 0x1111111111111111, "b": 0x2222222222222222,
                   "c": 0x3333333333333333, "off": 4},
                  {"a": 0x0102030405060708, "b": 0x0909090909090909,
                   "c": 0x4444444444444444, "off": 2}],
        difficulty=2,
    )
)

# ---------------------------------------------------------------------------
# panic — runtime panics to eliminate

PANIC_CASES = (
    make_cases(
        "panic_overflow", UbKind.PANIC,
        "integer overflow panic near the type maximum",
        template='''\
fn main() {{
    let cap = {ity}::MAX;
    let request = cap + {inc};
    println!("{{}}", request);
}}
''',
        fixed_template='''\
fn main() {{
    let cap = {ity}::MAX;
    let request = cap.saturating_add({inc});
    println!("{{}}", request);
}}
''',
        strategies=(Strategy("saturating_arith_on_extreme"),),
        variants=[{"ity": "i32", "inc": 1}, {"ity": "u8", "inc": 5},
                  {"ity": "i16", "inc": 3}],
        difficulty=1,
    )
    + make_cases(
        "panic_index_oob", UbKind.PANIC,
        "index out of bounds panic on a Vec",
        template='''\
fn main() {{
    let readings = vec![{a}, {b}, {c}];
    let idx = {idx};
    let value = readings[idx];
    println!("{{}}", value);
}}
''',
        fixed_template='''\
fn main() {{
    let readings = vec![{a}, {b}, {c}];
    let idx = {idx};
    let value = if idx < readings.len() {{ readings[idx] }} else {{ 0 }};
    println!("{{}}", value);
}}
''',
        strategies=(Strategy("guard_index_with_len_check"),),
        variants=[{"a": 4, "b": 5, "c": 6, "idx": 5},
                  {"a": 1, "b": 2, "c": 3, "idx": 10},
                  {"a": 9, "b": 8, "c": 7, "idx": 99}],
        difficulty=1,
    )
    + make_cases(
        "panic_div_zero", UbKind.PANIC,
        "division by a zero denominator",
        template='''\
fn main() {{
    let total = {a};
    let count = {b};
    let avg = total / count;
    println!("{{}}", avg);
}}
''',
        fixed_template='''\
fn main() {{
    let total = {a};
    let count = {b};
    let avg = if count != 0 {{ total / count }} else {{ 0 }};
    println!("{{}}", avg);
}}
''',
        strategies=(Strategy("guard_division_nonzero"),),
        variants=[{"a": 100, "b": 0}, {"a": 55, "b": 0}],
        difficulty=1,
    )
    + make_cases(
        "panic_unwrap_none", UbKind.PANIC,
        "unwrap on an empty Vec's pop",
        template='''\
fn main() {{
    let mut queue: Vec<i32> = Vec::new();
    let next = queue.pop().unwrap();
    println!("{{}}", next);
}}
''',
        fixed_template='''\
fn main() {{
    let mut queue: Vec<i32> = Vec::new();
    let next = queue.pop().unwrap_or(0);
    println!("{{}}", next);
}}
''',
        strategies=(Strategy("replace_unwrap_with_unwrap_or"),),
        variants=[{}],
        difficulty=1,
    )
    + make_cases(
        "panic_shift_overflow", UbKind.PANIC,
        "shift amount equal to the type width",
        template='''\
fn main() {{
    let base = {base}i32;
    let amount = {amount};
    let shifted = base << amount;
    println!("{{}}", shifted);
}}
''',
        fixed_template='''\
fn main() {{
    let base = {base}i32;
    let amount = {amount};
    let shifted = base << (amount % 32);
    println!("{{}}", shifted);
}}
''',
        strategies=(Strategy("mask_shift_amount"),),
        variants=[{"base": 3, "amount": 32}, {"base": 2, "amount": 35}],
        difficulty=1,
    )
)

CASES = VALIDITY_CASES + UNALIGNED_CASES + PANIC_CASES
