"""Dataset cases: datarace, concurrency."""

from ..miri.errors import UbKind
from .case import Strategy, make_cases

# ---------------------------------------------------------------------------
# datarace — unsynchronized cross-thread accesses

DATARACE_CASES = (
    make_cases(
        "datarace_static_counter", UbKind.DATA_RACE,
        "two threads increment a static mut without synchronisation",
        template='''\
static mut {NAME}: usize = 0;
fn main() {{
    let worker = std::thread::spawn(move || {{
        unsafe {{ {NAME} += {inc}; }}
    }});
    unsafe {{ {NAME} += {inc2}; }}
    worker.join();
    println!("{{}}", unsafe {{ {NAME} }});
}}
''',
        fixed_template='''\
static {NAME}: AtomicUsize = AtomicUsize::new(0);
fn main() {{
    let worker = std::thread::spawn(move || {{
        {NAME}.fetch_add({inc}, Ordering::SeqCst);
    }});
    {NAME}.fetch_add({inc2}, Ordering::SeqCst);
    worker.join();
    println!("{{}}", {NAME}.load(Ordering::SeqCst));
}}
''',
        strategies=(Strategy("replace_static_mut_with_atomic"),
                    Strategy("protect_with_mutex"),
                    Strategy("join_thread_before_access")),
        variants=[{"NAME": "COUNTER", "inc": 1, "inc2": 1},
                  {"NAME": "TICKS", "inc": 5, "inc2": 3},
                  {"NAME": "HITS", "inc": 2, "inc2": 7}],
        difficulty=3,
    )
    + make_cases(
        "datarace_raw_pointer", UbKind.DATA_RACE,
        "child writes through a captured raw pointer while parent writes too",
        template='''\
fn main() {{
    let mut buffer = {val}i64;
    let p = &mut buffer as *mut i64;
    let h = std::thread::spawn(move || {{
        unsafe {{ *p = {tval}; }}
    }});
    buffer = {mval};
    h.join();
    println!("{{}}", buffer);
}}
''',
        fixed_template='''\
fn main() {{
    let mut buffer = {val}i64;
    let p = &mut buffer as *mut i64;
    let h = std::thread::spawn(move || {{
        unsafe {{ *p = {tval}; }}
    }});
    h.join();
    buffer = {mval};
    println!("{{}}", buffer);
}}
''',
        strategies=(Strategy("join_thread_before_access"),),
        variants=[{"val": 0, "tval": 1, "mval": 2},
                  {"val": 10, "tval": 20, "mval": 30},
                  {"val": 5, "tval": 6, "mval": 7}],
        difficulty=4,
    )
    + make_cases(
        "datarace_reader", UbKind.DATA_RACE,
        "parent reads a static mut the child is writing",
        template='''\
static mut {NAME}: usize = {init};
fn main() {{
    let writer = std::thread::spawn(move || {{
        unsafe {{ {NAME} += {inc}; }}
    }});
    let snapshot = unsafe {{ {NAME} }};
    writer.join();
    println!("{{}}", snapshot);
}}
''',
        fixed_template='''\
static mut {NAME}: usize = {init};
fn main() {{
    let writer = std::thread::spawn(move || {{
        unsafe {{ {NAME} += {inc}; }}
    }});
    writer.join();
    let snapshot = unsafe {{ {NAME} }};
    println!("{{}}", snapshot);
}}
''',
        strategies=(Strategy("join_thread_before_access"),),
        variants=[{"NAME": "TOTAL", "init": 100, "inc": 11},
                  {"NAME": "GAUGE", "init": 50, "inc": 3}],
        difficulty=3,
    )
)

# ---------------------------------------------------------------------------
# concurrency — thread lifecycle and lock misuse (non-race)

CONCURRENCY_CASES = (
    make_cases(
        "concurrency_unjoined_thread", UbKind.CONCURRENCY,
        "main exits without joining a spawned thread",
        template='''\
static {FLAG}: AtomicUsize = AtomicUsize::new(0);
fn main() {{
    std::thread::spawn(move || {{
        {FLAG}.store({val}, Ordering::SeqCst);
    }});
    println!("spawned");
}}
''',
        fixed_template='''\
static {FLAG}: AtomicUsize = AtomicUsize::new(0);
fn main() {{
    let __handle = std::thread::spawn(move || {{
        {FLAG}.store({val}, Ordering::SeqCst);
    }});
    __handle.join();
    println!("spawned");
}}
''',
        strategies=(Strategy("add_missing_join"),),
        variants=[{"FLAG": "READY", "val": 1},
                  {"FLAG": "STATE", "val": 7},
                  {"FLAG": "DONE", "val": 3}],
        difficulty=1,
    )
    + make_cases(
        "concurrency_double_lock", UbKind.CONCURRENCY,
        "locking a mutex twice on the same thread (deadlock)",
        template='''\
static {M}: Mutex<i32> = Mutex::new({init});
fn main() {{
    let first = {M}.lock();
    let total = *first + {inc};
    let second = {M}.lock();
    println!("{{}} {{}}", total, *second);
}}
''',
        fixed_template='''\
static {M}: Mutex<i32> = Mutex::new({init});
fn main() {{
    let first = {M}.lock();
    let total = *first + {inc};
    drop(first);
    let second = {M}.lock();
    println!("{{}} {{}}", total, *second);
}}
''',
        strategies=(Strategy("release_lock_before_relock"),),
        variants=[{"M": "STATE", "init": 4, "inc": 6},
                  {"M": "BUDGET", "init": 100, "inc": -10},
                  {"M": "CACHE", "init": 9, "inc": 1}],
        difficulty=3,
    )
    + make_cases(
        "concurrency_two_workers_unjoined", UbKind.CONCURRENCY,
        "one of two workers is never joined",
        template='''\
static {C}: AtomicUsize = AtomicUsize::new(0);
fn main() {{
    let first = std::thread::spawn(move || {{
        {C}.fetch_add(1, Ordering::SeqCst);
    }});
    std::thread::spawn(move || {{
        {C}.fetch_add(1, Ordering::SeqCst);
    }});
    first.join();
    println!("done");
}}
''',
        fixed_template='''\
static {C}: AtomicUsize = AtomicUsize::new(0);
fn main() {{
    let first = std::thread::spawn(move || {{
        {C}.fetch_add(1, Ordering::SeqCst);
    }});
    let __handle = std::thread::spawn(move || {{
        {C}.fetch_add(1, Ordering::SeqCst);
    }});
    first.join();
    __handle.join();
    println!("done");
}}
''',
        strategies=(Strategy("add_missing_join"),),
        variants=[{"C": "JOBS"}, {"C": "TICKETS"}],
        difficulty=2,
    )
)

CASES = DATARACE_CASES + CONCURRENCY_CASES
