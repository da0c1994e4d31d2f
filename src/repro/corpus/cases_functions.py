"""Dataset cases: func_call, func_pointer, tailcall."""

from ..miri.errors import UbKind
from .case import Strategy, make_cases

# ---------------------------------------------------------------------------
# func_call — calling with the wrong argument list

FUNC_CALL_CASES = (
    make_cases(
        "funccall_too_few_args", UbKind.FUNC_CALL,
        "function pointer called with fewer arguments than the target takes",
        template='''\
fn {fname}(x: i32, scale: i32) -> i32 {{ x * scale }}
fn main() {{
    let f = {fname};
    let v = f({arg});
    println!("{{}}", v);
}}
''',
        fixed_template='''\
fn {fname}(x: i32, scale: i32) -> i32 {{ x * scale }}
fn main() {{
    let f = {fname};
    let v = f({arg}, 1);
    println!("{{}}", v);
}}
''',
        strategies=(Strategy("fix_call_arity"),),
        variants=[{"fname": "scale_by", "arg": 10},
                  {"fname": "apply_factor", "arg": -4},
                  {"fname": "scale_reading", "arg": 7}],
        difficulty=2,
    )
    + make_cases(
        "funccall_too_many_args", UbKind.FUNC_CALL,
        "function pointer called with extra arguments",
        template='''\
fn {fname}(a: i32, b: i32) -> i32 {{ a + b }}
fn main() {{
    let f = {fname};
    let v = f({a}, {b}, {c});
    println!("{{}}", v);
}}
''',
        fixed_template='''\
fn {fname}(a: i32, b: i32) -> i32 {{ a + b }}
fn main() {{
    let f = {fname};
    let v = f({a}, {b});
    println!("{{}}", v);
}}
''',
        strategies=(Strategy("fix_call_arity"),),
        variants=[{"fname": "combine", "a": 1, "b": 2, "c": 3},
                  {"fname": "merge_pair", "a": 40, "b": 2, "c": 99},
                  {"fname": "join_totals", "a": 6, "b": 7, "c": 8}],
        difficulty=2,
    )
    + make_cases(
        "funccall_zero_args", UbKind.FUNC_CALL,
        "nullary call through a pointer to a unary function",
        template='''\
fn {fname}(seed: i32) -> i32 {{ seed * seed }}
fn main() {{
    let f = {fname};
    let v = f();
    println!("{{}}", v);
}}
''',
        fixed_template='''\
fn {fname}(seed: i32) -> i32 {{ seed * seed }}
fn main() {{
    let f = {fname};
    let v = f(1);
    println!("{{}}", v);
}}
''',
        strategies=(Strategy("fix_call_arity"),),
        variants=[{"fname": "square"}, {"fname": "amplify"}],
        difficulty=2,
    )
)

# ---------------------------------------------------------------------------
# func_pointer — invalid or wrongly-typed function pointers

FUNC_POINTER_CASES = (
    make_cases(
        "funcptr_transmute_arity", UbKind.FUNC_POINTER,
        "fn pointer transmuted to a different arity and called",
        template='''\
use std::mem;
fn {fname}(a: i32, b: i32) -> i32 {{ a + b }}
fn main() {{
    let f = unsafe {{ mem::transmute::<fn(i32, i32) -> i32, fn(i32) -> i32>({fname}) }};
    let v = f({arg});
    println!("{{}}", v);
}}
''',
        fixed_template='''\
use std::mem;
fn {fname}(a: i32, b: i32) -> i32 {{ a + b }}
fn main() {{
    let f = {fname};
    let v = f({arg}, 0);
    println!("{{}}", v);
}}
''',
        strategies=(Strategy("call_with_actual_signature"),),
        variants=[{"fname": "add_pair", "arg": 5},
                  {"fname": "sum_two", "arg": 123},
                  {"fname": "plus_pair", "arg": 9}],
        difficulty=4,
    )
    + make_cases(
        "funcptr_from_int", UbKind.FUNC_POINTER,
        "integer transmuted into a function pointer",
        template='''\
use std::mem;
fn {fname}() -> i32 {{ {ret} }}
fn main() {{
    let f = unsafe {{ mem::transmute::<usize, fn() -> i32>({addr}) }};
    let v = f();
    println!("{{}}", v);
}}
''',
        fixed_template='''\
use std::mem;
fn {fname}() -> i32 {{ {ret} }}
fn main() {{
    let f = unsafe {{ {fname} }};
    let v = f();
    println!("{{}}", v);
}}
''',
        strategies=(Strategy("replace_int_fn_transmute_with_fn"),),
        variants=[{"fname": "default_answer", "ret": 42, "addr": 64},
                  {"fname": "fallback_code", "ret": -1, "addr": 4096},
                  {"fname": "unit_code", "ret": 7, "addr": 256}],
        difficulty=4,
    )
    + make_cases(
        "funcptr_wrong_ret", UbKind.FUNC_POINTER,
        "fn pointer transmuted to a different return type",
        template='''\
use std::mem;
fn {fname}() -> i32 {{ {ret} }}
fn main() {{
    let f = unsafe {{ mem::transmute::<fn() -> i32, fn() -> u64>({fname}) }};
    let v = f();
    println!("{{}}", v);
}}
''',
        fixed_template='''\
use std::mem;
fn {fname}() -> i32 {{ {ret} }}
fn main() {{
    let f = {fname};
    let v = f();
    println!("{{}}", v);
}}
''',
        strategies=(Strategy("call_with_actual_signature"),),
        variants=[{"fname": "read_level", "ret": 3}, {"fname": "read_mode", "ret": 5}],
        difficulty=3,
    )
)

# ---------------------------------------------------------------------------
# tailcall — dispatchers that tail-call through a laundered pointer

TAIL_CALL_CASES = (
    make_cases(
        "tailcall_wrong_sig", UbKind.TAIL_CALL,
        "tail dispatch through a pointer with the wrong parameter width",
        template='''\
use std::mem;
fn {fname}(n: i32) -> i32 {{ n {op} {k} }}
fn dispatch(n: i32) -> i32 {{
    let target = unsafe {{ mem::transmute::<fn(i32) -> i32, fn(i64) -> i64>({fname}) }};
    target(n as i64) as i32
}}
fn main() {{
    println!("{{}}", dispatch({arg}));
}}
''',
        fixed_template='''\
use std::mem;
fn {fname}(n: i32) -> i32 {{ n {op} {k} }}
fn dispatch(n: i32) -> i32 {{
    let target = unsafe {{ {fname} }};
    target(n as i64) as i32
}}
fn main() {{
    println!("{{}}", dispatch({arg}));
}}
''',
        strategies=(Strategy("correct_tail_dispatch"),
                    Strategy("call_with_actual_signature")),
        variants=[{"fname": "halve", "op": "/", "k": 2, "arg": 10},
                  {"fname": "advance", "op": "+", "k": 3, "arg": 4},
                  {"fname": "scale", "op": "*", "k": 5, "arg": 6}],
        difficulty=4,
    )
    + make_cases(
        "tailcall_wrong_ret_chain", UbKind.TAIL_CALL,
        "chained tail dispatch with a laundered return type",
        template='''\
use std::mem;
fn {fname}(n: i32) -> i32 {{ n - {k} }}
fn relay(n: i32) -> i32 {{
    let hop = unsafe {{ mem::transmute::<fn(i32) -> i32, fn(i32) -> u32>({fname}) }};
    hop(n) as i32
}}
fn main() {{
    println!("{{}}", relay({arg}));
}}
''',
        fixed_template='''\
use std::mem;
fn {fname}(n: i32) -> i32 {{ n - {k} }}
fn relay(n: i32) -> i32 {{
    let hop = unsafe {{ {fname} }};
    hop(n) as i32
}}
fn main() {{
    println!("{{}}", relay({arg}));
}}
''',
        strategies=(Strategy("correct_tail_dispatch"),
                    Strategy("call_with_actual_signature")),
        variants=[{"fname": "decrement_by", "k": 2, "arg": 12},
                  {"fname": "reduce", "k": 7, "arg": 100},
                  {"fname": "shrink", "k": 4, "arg": 44}],
        difficulty=4,
    )
)

CASES = FUNC_CALL_CASES + FUNC_POINTER_CASES + TAIL_CALL_CASES
