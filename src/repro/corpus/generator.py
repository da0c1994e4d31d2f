"""Seeded synthetic UB corpus generator.

The hand-written corpus is ~117 cases across 14 categories — enough to
anchor the paper's figures, far too small to exercise the execution layer
(scheduler, cache, service) at scale or to represent every ``UbKind``
well.  This module grows it deterministically: given ``(n, seed)`` it
emits ``n`` fresh :class:`~repro.corpus.case.UbCase` instances that are
**guaranteed valid** by construction, via two complementary sources:

* **Mutation** of existing cases through the AST.  Operators reuse the
  canonical printer and the conservative rename analysis from
  :mod:`repro.miri.fingerprint`:

  ========== ===================== ==========================================
  operator   fingerprint           effect
  ========== ===================== ==========================================
  rename     preserved             alpha-rename every renameable identifier
                                   to a fresh realistic spelling
  format     preserved             comments, blank lines, indentation noise
  distract   preserved             re-spell the benign ``aux_*`` distractor
                                   names (the noise block's identity)
  reorder    changed               permute provably-inert adjacent ``let``
                                   statements (literal-only initializer,
                                   name referenced nowhere) — the UB site
                                   and all observable behaviour survive
  inject     changed               add fresh benign distractor statements
                                   to both the buggy and fixed program
  perturb    changed               nudge integer literals inside provably-
                                   inert statements
  ========== ===================== ==========================================

* **Recombination** via parametric templates per :class:`UbKind`,
  weighted toward the under-represented kinds (UNALIGNED, UNINIT unions,
  DATA_RACE, drop-order ALLOC/DANGLING bugs), optionally spliced with
  UB-free context *preludes* borrowed from other categories' repaired
  patterns — cross-category recombination that never disturbs the
  labelled UB site.

Every candidate passes :func:`validate_case` before it is emitted: the
detector must report the labelled ``UbKind`` on ``source``, the
``fixed_source`` must run UB-free, and at least one listed
:class:`~repro.corpus.case.Strategy` must genuinely repair the program
(strategy exactness is *recomputed* against the fixed source's stdout).
Candidates that fail are rejected with a structured reason and the
generator resamples; the :class:`GenerationReport` counts both sides per
category.

Determinism contract: one ``random.Random(seed)`` stream drives every
choice, rejected candidates consume the stream exactly once each, names
are assigned per-category counters on acceptance — so the same
``(n, seed, categories)`` always yields the same cases in the same
order, and the serialized manifest (:mod:`repro.corpus.manifest`) is
byte-identical across runs, machines, and worker counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..check import apply_suggestion, check_source
from ..core.rewrites import REGISTRY, apply_rule
from ..lang import ast_nodes as ast
from ..lang.lexer import tokenize
from ..lang.parser import parse_program
from ..lang.printer import print_program
from ..lang.tokens import TokenKind as T
from ..miri import detect_ub
from ..miri.errors import UbKind
from ..miri.fingerprint import renameable_names
from .case import Strategy, UbCase, distractor_block, inject_preamble
from .dataset import load_compile_dataset, load_dataset

#: Bump when generation rules change enough that the same seed produces a
#: different corpus; serialized into every manifest.
GENERATOR_VERSION = 1


# ---------------------------------------------------------------------------
# Validation


class CaseInvalid(Exception):
    """A candidate case failed self-validation.

    ``reason`` is one of the stable machine-readable codes below (the
    generation report buckets rejections by it); ``detail`` is the
    human-facing diagnosis.

    * ``source_passes``        — the buggy source runs UB-free
    * ``wrong_kind``           — first detected error is not the label
    * ``fixed_source_ub``      — the repaired reference still fails
    * ``unknown_rule``         — a strategy names an unregistered rule
    * ``no_repairing_strategy``— no listed strategy actually repairs
    * ``duplicate_source``     — byte-identical to an already-known case

    Compile cases (``UbKind.COMPILE``) validate against the static
    checker instead of the detector and add their own reasons:

    * ``checks_clean``             — the buggy source produces no
      diagnostics
    * ``wrong_code``               — the labelled ``expected_code`` is
      missing from the checker's report
    * ``fixed_source_diagnostics`` — the repaired reference does not
      check clean
    * ``suggestions_dont_repair``  — iteratively applying the first
      machine-applicable suggestion never reaches a checks-clean,
      UB-free program
    """

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason
        self.detail = detail


#: Tail-call misuse legitimately surfaces as a function-pointer/call error
#: (the corpus ground-truth tests use the same relaxation).
_KIND_ALIASES = {
    UbKind.TAIL_CALL: (UbKind.TAIL_CALL, UbKind.FUNC_POINTER,
                       UbKind.FUNC_CALL),
}


def _validate_compile_case(case: UbCase) -> tuple[Strategy, ...]:
    """The compile-corpus contract: the buggy source must trip the static
    checker on the labelled code, the fix must check clean *and* run
    UB-free, and — when the checker offers machine-applicable
    suggestions — splicing the first suggestion repeatedly must converge
    to a checks-clean, UB-free program (the ``compile_fix`` engine
    leans on exactly that convergence)."""
    report = check_source(case.source)
    if report.ok:
        raise CaseInvalid(
            "checks_clean",
            f"{case.name}: buggy source produces no diagnostics")
    if case.expected_code is None or case.expected_code not in report.codes():
        raise CaseInvalid(
            "wrong_code",
            f"{case.name}: labelled {case.expected_code!r}, checker "
            f"reports {sorted(set(report.codes()))}")
    fixed_report = check_source(case.fixed_source)
    if not fixed_report.ok:
        raise CaseInvalid(
            "fixed_source_diagnostics",
            f"{case.name}: fixed source reports "
            f"{sorted(set(fixed_report.codes()))}")
    reference = detect_ub(case.fixed_source)
    if not reference.passed:
        raise CaseInvalid(
            "fixed_source_ub",
            f"{case.name}: fixed source still fails: "
            f"{reference.errors[0].message}")
    if any(diag.suggestions for diag in report.diagnostics):
        current = case.source
        for _round in range(5):
            round_report = check_source(current)
            if round_report.ok:
                break
            suggestions = [s for diag in round_report.diagnostics
                           for s in diag.suggestions]
            if not suggestions:
                raise CaseInvalid(
                    "suggestions_dont_repair",
                    f"{case.name}: suggestions ran dry before checking "
                    f"clean")
            current = apply_suggestion(current, suggestions[0])
        if not check_source(current).ok:
            raise CaseInvalid(
                "suggestions_dont_repair",
                f"{case.name}: still failing after 5 suggestion rounds")
        if not detect_ub(current).passed:
            raise CaseInvalid(
                "suggestions_dont_repair",
                f"{case.name}: suggestion-repaired program checks clean "
                f"but fails the detector")
    return case.strategies


def validate_case(case: UbCase) -> tuple[Strategy, ...]:
    """Check the full corpus contract for one case.

    Returns the *validated* strategies — the subset that genuinely
    repairs, with ``exact`` recomputed against the fixed source's stdout
    — or raises :class:`CaseInvalid` with a structured reason.  Compile
    cases validate against the static checker (see
    :func:`_validate_compile_case`); their strategies pass through
    unvetted (usually empty — the repair signal lives in the checker's
    suggestions, not the rewrite registry).
    """
    if case.category is UbKind.COMPILE:
        return _validate_compile_case(case)
    report = detect_ub(case.source)
    if report.passed:
        raise CaseInvalid("source_passes",
                          f"{case.name}: buggy source detects no UB")
    got = report.errors[0].kind
    allowed = _KIND_ALIASES.get(case.category, (case.category,))
    if got not in allowed:
        raise CaseInvalid(
            "wrong_kind",
            f"{case.name}: labelled {case.category.value}, detector "
            f"reports {got.value}")
    reference = detect_ub(case.fixed_source)
    if not reference.passed:
        raise CaseInvalid(
            "fixed_source_ub",
            f"{case.name}: fixed source still fails: "
            f"{reference.errors[0].message}")
    validated: list[Strategy] = []
    for strategy in case.strategies:
        if strategy.rule not in REGISTRY:
            raise CaseInvalid(
                "unknown_rule",
                f"{case.name}: strategy rule {strategy.rule!r} is not "
                f"registered")
        program = parse_program(case.source)
        repaired = apply_rule(program, strategy.rule)
        if repaired is None:
            continue
        outcome = detect_ub(print_program(repaired))
        if not outcome.passed:
            continue
        validated.append(Strategy(strategy.rule,
                                  exact=outcome.stdout == reference.stdout))
    if not validated:
        raise CaseInvalid(
            "no_repairing_strategy",
            f"{case.name}: none of "
            f"{[s.rule for s in case.strategies]} repairs the program")
    return tuple(validated)


# ---------------------------------------------------------------------------
# Mutation operators


class MutationSkip(Exception):
    """The operator does not apply to this case (not an error)."""


_LOWER_STEMS = ("val", "ptr", "buf", "cnt", "tmp", "raw", "data", "item",
                "slot", "mark", "reg", "acc", "probe", "cell", "word",
                "entry", "gauge", "level", "batch", "chunk")
_UPPER_STEMS = ("TOTAL", "COUNT", "STATE", "LIMIT", "QUOTA", "EPOCH",
                "PHASE", "TALLY", "DEPTH", "SCORE")
_SUFFIXES = ("", "_a", "_b", "_x", "_y", "_z", "_0", "_1", "_2", "_io",
             "_hi", "_lo")


def _ident_texts(source: str) -> set[str]:
    """Every identifier token spelled anywhere in ``source``."""
    return {token.text for token in tokenize(source)
            if token.kind is T.IDENT}


def _fresh_name(rng: random.Random, like: str, taken: set[str]) -> str:
    """A new identifier in the style of ``like`` that collides with
    nothing in ``taken``; deterministic in the rng stream."""
    stems = _UPPER_STEMS if like.isupper() else _LOWER_STEMS
    while True:
        name = rng.choice(stems) + rng.choice(_SUFFIXES)
        if like.isupper():
            name = name.upper()
        if name not in taken and name != like:
            taken.add(name)
            return name


def _splice_rename(source: str, mapping: dict[str, str]) -> str:
    """Apply an identifier mapping textually, splicing at token spans."""
    pieces: list[str] = []
    cursor = 0
    for token in tokenize(source):
        if token.kind is T.IDENT and token.text in mapping:
            pieces.append(source[cursor:token.span.start])
            pieces.append(mapping[token.text])
            cursor = token.span.end
    pieces.append(source[cursor:])
    return "".join(pieces)


def _canonical_pair(case: UbCase) -> tuple[str, str]:
    """Both sources in canonical (parse → print) form.

    Mutants are emitted in canonical style so one round of
    parse → print is a fixed point on everything the generator writes.
    """
    return (print_program(parse_program(case.source)),
            print_program(parse_program(case.fixed_source)))


def _rename_mapping(rng: random.Random, source: str, fixed: str,
                    only_prefix: str | None = None) -> dict[str, str]:
    """A shared, collision-free rename for both program texts.

    A name is renamed only when *every* text that spells it allows the
    rename (otherwise the buggy and fixed programs would drift apart in
    ways the fingerprint analysis never vetted for that text).
    """
    renameable = renameable_names(source)
    fixed_renameable = renameable_names(fixed)
    fixed_idents = _ident_texts(fixed)
    candidates = [name for name in renameable
                  if name not in fixed_idents or name in fixed_renameable]
    if only_prefix is not None:
        candidates = [name for name in candidates
                      if name.startswith(only_prefix)]
    if not candidates:
        raise MutationSkip("no renameable identifiers")
    taken = _ident_texts(source) | fixed_idents
    return {name: _fresh_name(rng, name, taken)
            for name in sorted(candidates)}


def mutate_rename(case: UbCase, rng: random.Random) -> tuple[str, str]:
    """Alpha-rename every renameable identifier (fingerprint-preserving)."""
    source, fixed = _canonical_pair(case)
    mapping = _rename_mapping(rng, source, fixed)
    return _splice_rename(source, mapping), _splice_rename(fixed, mapping)


def mutate_distract(case: UbCase, rng: random.Random) -> tuple[str, str]:
    """Re-spell only the benign ``aux_*`` distractor identifiers
    (fingerprint-preserving: the noise block changes identity, nothing
    else moves)."""
    source, fixed = _canonical_pair(case)
    mapping = _rename_mapping(rng, source, fixed, only_prefix="aux")
    return _splice_rename(source, mapping), _splice_rename(fixed, mapping)


_COMMENTS = (
    "// reviewed: matches the upstream driver",
    "// TODO(perf): hoist out of the hot loop",
    "// invariant checked by the caller",
    "// see the allocator notes in the module docs",
    "// keep in sync with the serializer",
    "/* carried over from the C prototype */",
)


def _mutate_format_text(text: str, rng: random.Random) -> str:
    """Comment/whitespace noise on one program text."""
    lines = text.splitlines()
    count = rng.randint(1, 3)
    for _ in range(count):
        at = rng.randrange(len(lines) + 1)
        indent = ""
        if at < len(lines):
            stripped = lines[at].lstrip()
            indent = lines[at][:len(lines[at]) - len(stripped)]
        lines.insert(at, indent + rng.choice(_COMMENTS))
    if rng.random() < 0.5:
        at = rng.randrange(len(lines))
        if lines[at].rstrip().endswith(";"):
            lines[at] = lines[at] + "  // noqa"
    if rng.random() < 0.5:
        lines.insert(rng.randrange(len(lines) + 1), "")
    return "\n".join(lines) + "\n"


def mutate_format(case: UbCase, rng: random.Random) -> tuple[str, str]:
    """Insert comments and blank lines (fingerprint-preserving)."""
    source, fixed = _canonical_pair(case)
    return (_mutate_format_text(source, rng),
            _mutate_format_text(fixed, rng))


def _is_inert_let(stmt: ast.Stmt, program: ast.Program) -> bool:
    """Provably-inert binding: a non-mut ``let`` whose initializer is
    built from literals alone (no paths, calls, or references — hence no
    reads, writes, allocation, or panics beyond const arithmetic) and
    whose name no expression in the program ever mentions.  Reordering or
    deleting such a statement cannot move the UB site."""
    if not isinstance(stmt, ast.LetStmt) or stmt.init is None or stmt.mutable:
        return False
    for node in ast.walk(stmt.init):
        if not isinstance(node, (ast.IntLit, ast.BoolLit, ast.StrLit,
                                 ast.CharLit, ast.Binary, ast.Unary)):
            return False
        if isinstance(node, ast.Unary) and node.op in ("&", "&mut", "*"):
            return False
        if isinstance(node, ast.Binary) and node.op in ("/", "%"):
            # Constant division can still panic on a zero denominator.
            if not (isinstance(node.right, ast.IntLit)
                    and node.right.value != 0):
                return False
    for node in ast.walk(program):
        if isinstance(node, ast.PathExpr) and node.is_local \
                and node.name == stmt.name and node is not stmt.init:
            return False
    return True


def _inert_runs(body: ast.Block, program: ast.Program) -> list[list[int]]:
    """Indices of maximal runs (length ≥ 2) of adjacent inert lets."""
    runs: list[list[int]] = []
    current: list[int] = []
    for index, stmt in enumerate(body.stmts):
        if _is_inert_let(stmt, program):
            current.append(index)
        else:
            if len(current) >= 2:
                runs.append(current)
            current = []
    if len(current) >= 2:
        runs.append(current)
    return runs


def mutate_reorder(case: UbCase, rng: random.Random) -> tuple[str, str]:
    """Permute a run of provably-inert statements in ``main`` — the UB
    site provably survives, the fingerprint does not."""
    program = parse_program(case.source)
    main = program.fn("main")
    if main is None:
        raise MutationSkip("no main function")
    runs = _inert_runs(main.body, program)
    if not runs:
        raise MutationSkip("no inert statement run to permute")
    run = runs[rng.randrange(len(runs))]
    order = list(run)
    rng.shuffle(order)
    if order == list(run):
        order = list(reversed(run))
    stmts = main.body.stmts
    originals = [stmts[index] for index in run]
    for slot, src_index in zip(run, order):
        stmts[slot] = originals[run.index(src_index)]
    source = print_program(program)
    _, fixed = _canonical_pair(case)
    if source == print_program(parse_program(case.source)):
        raise MutationSkip("permutation is the identity")
    return source, fixed


def mutate_inject(case: UbCase, rng: random.Random) -> tuple[str, str]:
    """Add a fresh benign distractor block to both programs."""
    source, fixed = _canonical_pair(case)
    if "fn main() {" not in source or "fn main() {" not in fixed:
        raise MutationSkip("no main block to inject into")
    prefix = f"aux{rng.randrange(2, 10)}"
    if f"{prefix}_" in source:
        raise MutationSkip("distractor prefix already taken")
    block = distractor_block(rng, prefix=prefix)
    return inject_preamble(source, block), inject_preamble(fixed, block)


def mutate_perturb(case: UbCase, rng: random.Random) -> tuple[str, str]:
    """Nudge integer literals inside provably-inert statements of the
    buggy program — behaviour-preserving, fingerprint-changing."""
    program = parse_program(case.source)
    main = program.fn("main")
    if main is None:
        raise MutationSkip("no main function")
    literals = [node
                for stmt in main.body.stmts
                if _is_inert_let(stmt, program)
                for node in ast.walk(stmt.init)
                if isinstance(node, ast.IntLit) and node.value > 0]
    if not literals:
        raise MutationSkip("no inert literal to perturb")
    for literal in literals:
        if rng.random() < 0.6:
            literal.value = literal.value + rng.randint(1, 40)
    _, fixed = _canonical_pair(case)
    source = print_program(program)
    if source == print_program(parse_program(case.source)):
        raise MutationSkip("no literal actually changed")
    return source, fixed


#: name → (operator, preserves_fingerprint).  Order matters: the rng
#: samples by index, so reordering this table changes every seed's output.
MUTATION_OPERATORS: dict[str, tuple[Callable, bool]] = {
    "rename": (mutate_rename, True),
    "format": (mutate_format, True),
    "distract": (mutate_distract, True),
    "reorder": (mutate_reorder, False),
    "inject": (mutate_inject, False),
    "perturb": (mutate_perturb, False),
}


def mutate_case(case: UbCase, rng: random.Random,
                operators: list[str] | None = None,
                name: str | None = None) -> UbCase:
    """Apply a chain of mutation operators to one case (unvalidated).

    ``operators`` defaults to a random 1–3 operator chain.  Raises
    :class:`MutationSkip` when no operator in the chain applied.
    """
    if operators is None:
        count = rng.randint(1, 3)
        pool = list(MUTATION_OPERATORS)
        operators = [pool[rng.randrange(len(pool))] for _ in range(count)]
    source, fixed = case.source, case.fixed_source
    applied: list[str] = []
    for op_name in operators:
        operator, _preserving = MUTATION_OPERATORS[op_name]
        stage = UbCase(name=case.name, category=case.category,
                       description=case.description, source=source,
                       fixed_source=fixed, strategies=case.strategies,
                       difficulty=case.difficulty)
        try:
            source, fixed = operator(stage, rng)
        except MutationSkip:
            continue
        applied.append(op_name)
    if not applied:
        raise MutationSkip("no operator in the chain applied")
    return UbCase(
        name=name or f"{case.name}__{'_'.join(applied)}",
        category=case.category,
        description=f"{case.description} [mutated: {'+'.join(applied)}]",
        source=source,
        fixed_source=fixed,
        strategies=case.strategies,
        difficulty=case.difficulty,
    )


# ---------------------------------------------------------------------------
# Parametric templates (recombination)


@dataclass(frozen=True)
class CaseTemplate:
    """One parametric UB pattern: a buggy/fixed source pair with holes,
    a sampler that fills them from the rng, and the candidate repair
    rules the validator will vet."""

    key: str
    category: UbKind
    description: str
    source: str
    fixed: str
    rules: tuple[str, ...]
    sampler: Callable[[random.Random], dict]
    difficulty: int = 2


def _pick(rng: random.Random, *options):
    return options[rng.randrange(len(options))]


def _tpl_unaligned(rng: random.Random) -> dict:
    width, align = _pick(rng, ("u16", 2), ("u32", 4), ("u64", 8))
    offset = rng.randrange(1, align) if align > 1 else 1
    return {
        "wty": width,
        "off": offset + align * rng.randrange(0, 2),
        "a": rng.randrange(1, 2 ** 31),
        "b": rng.randrange(1, 2 ** 31),
    }


def _tpl_union(rng: random.Random) -> dict:
    narrow, wide = _pick(rng, ("u8", "u32"), ("u8", "u64"), ("u16", "u64"),
                         ("u16", "u32"), ("u32", "u64"))
    return {
        "U": _pick(rng, "Header", "Lane", "Word", "Payload", "Packet",
                   "Record", "Fragment"),
        "narrow": narrow,
        "wide": wide,
        "val": rng.randrange(1, 200),
    }


def _tpl_race(rng: random.Random) -> dict:
    return {
        "NAME": _pick(rng, "SHARED", "TICKS", "EVENTS", "BYTES", "ROUNDS",
                      "PENDING"),
        "init": rng.randrange(0, 50),
        "inc": rng.randrange(1, 9),
        "inc2": rng.randrange(1, 9),
    }


def _tpl_drop(rng: random.Random) -> dict:
    return {
        "val": rng.randrange(1, 9999),
        "a": rng.randrange(1, 99),
        "b": rng.randrange(1, 99),
    }


def _tpl_ints(rng: random.Random) -> dict:
    return {
        "a": rng.randrange(1, 99),
        "b": rng.randrange(1, 99),
        "c": rng.randrange(1, 99),
        "idx": rng.randrange(4, 30),
    }


TEMPLATES: tuple[CaseTemplate, ...] = (
    # -- unaligned: new structural shapes around misaligned typed reads
    CaseTemplate(
        key="unaligned_cursor_read",
        category=UbKind.UNALIGNED,
        description="typed read through a byte cursor off the "
                    "alignment grid",
        source='''\
fn main() {{
    let words = [{a}u64, {b}];
    let base = words.as_ptr() as *const u8;
    let cursor = unsafe {{ base.add({off}) }};
    let typed = cursor as *const {wty};
    let value = unsafe {{ *typed }};
    println!("{{}}", value);
}}
''',
        fixed='''\
fn main() {{
    let words = [{a}u64, {b}];
    let base = words.as_ptr() as *const u8;
    let cursor = unsafe {{ base.add({off}) }};
    let typed = cursor as *const {wty};
    let value = unsafe {{ typed.read_unaligned() }};
    println!("{{}}", value);
}}
''',
        rules=("read_unaligned_instead", "guard_alignment_before_cast_read"),
        sampler=_tpl_unaligned,
        difficulty=2,
    ),
    # -- uninit unions: wider-than-written reads in fresh shapes
    CaseTemplate(
        key="uninit_union_wide_read",
        category=UbKind.UNINIT,
        description="union read through a wider field than was written",
        source='''\
union {U} {{
    small: {narrow},
    big: {wide},
}}
fn main() {{
    let packet = {U} {{ small: {val} }};
    let decoded = unsafe {{ packet.big }};
    println!("{{}}", decoded);
}}
''',
        fixed='''\
union {U} {{
    small: {narrow},
    big: {wide},
}}
fn main() {{
    let packet = {U} {{ small: {val} }};
    let decoded = unsafe {{ packet.small }};
    println!("{{}}", decoded);
}}
''',
        rules=("read_written_union_field",),
        sampler=_tpl_union,
        difficulty=3,
    ),
    CaseTemplate(
        key="uninit_assume_init_fresh",
        category=UbKind.UNINIT,
        description="assume_init on a MaybeUninit that was never written",
        source='''\
fn main() {{
    let staged: MaybeUninit<{wide}> = MaybeUninit::uninit();
    let level = unsafe {{ staged.assume_init() }};
    println!("{{}} {{}}", level, {val});
}}
''',
        fixed='''\
fn main() {{
    let staged: MaybeUninit<{wide}> = MaybeUninit::new(0);
    let level = unsafe {{ staged.assume_init() }};
    println!("{{}} {{}}", level, {val});
}}
''',
        rules=("replace_uninit_with_zero_init", "write_before_assume_init"),
        sampler=_tpl_union,
        difficulty=1,
    ),
    # -- data races: unsynchronized static mut traffic in fresh shapes
    CaseTemplate(
        key="datarace_accumulate",
        category=UbKind.DATA_RACE,
        description="parent and child both accumulate into a static mut",
        source='''\
static mut {NAME}: usize = {init};
fn main() {{
    let child = std::thread::spawn(move || {{
        unsafe {{ {NAME} += {inc}; }}
    }});
    unsafe {{ {NAME} += {inc2}; }}
    child.join();
    println!("{{}}", unsafe {{ {NAME} }});
}}
''',
        fixed='''\
static mut {NAME}: usize = {init};
fn main() {{
    let child = std::thread::spawn(move || {{
        unsafe {{ {NAME} += {inc}; }}
    }});
    child.join();
    unsafe {{ {NAME} += {inc2}; }}
    println!("{{}}", unsafe {{ {NAME} }});
}}
''',
        rules=("join_thread_before_access",
               "replace_static_mut_with_atomic", "protect_with_mutex"),
        sampler=_tpl_race,
        difficulty=3,
    ),
    CaseTemplate(
        key="datarace_snapshot",
        category=UbKind.DATA_RACE,
        description="unsynchronized snapshot read racing a writer thread",
        source='''\
static mut {NAME}: usize = {init};
fn main() {{
    let writer = std::thread::spawn(move || {{
        unsafe {{ {NAME} += {inc}; }}
    }});
    let seen = unsafe {{ {NAME} }};
    writer.join();
    println!("{{}}", seen + {inc2});
}}
''',
        fixed='''\
static mut {NAME}: usize = {init};
fn main() {{
    let writer = std::thread::spawn(move || {{
        unsafe {{ {NAME} += {inc}; }}
    }});
    writer.join();
    let seen = unsafe {{ {NAME} }};
    println!("{{}}", seen + {inc2});
}}
''',
        rules=("join_thread_before_access",),
        sampler=_tpl_race,
        difficulty=3,
    ),
    # -- drop-order bugs: frees and uses ordered wrongly
    CaseTemplate(
        key="alloc_drop_order_double_free",
        category=UbKind.ALLOC,
        description="drop-order bug: raw Box handle freed on both exits",
        source='''\
fn main() {{
    let owned = Box::new({val});
    let handle = Box::into_raw(owned);
    let copy = unsafe {{ *handle }};
    unsafe {{ drop(Box::from_raw(handle)); }}
    unsafe {{ drop(Box::from_raw(handle)); }}
    println!("{{}} {{}}", copy, {a});
}}
''',
        fixed='''\
fn main() {{
    let owned = Box::new({val});
    let handle = Box::into_raw(owned);
    let copy = unsafe {{ *handle }};
    unsafe {{ drop(Box::from_raw(handle)); }}
    println!("{{}} {{}}", copy, {a});
}}
''',
        rules=("remove_second_free",),
        sampler=_tpl_drop,
        difficulty=1,
    ),
    CaseTemplate(
        key="dangling_drop_order_use",
        category=UbKind.DANGLING_POINTER,
        description="drop-order bug: buffer dropped before its last use",
        source='''\
fn main() {{
    let staging = vec![{a}, {b}, {val}];
    let head = staging[0];
    drop(staging);
    let tail = staging[2];
    println!("{{}} {{}}", head, tail);
}}
''',
        fixed='''\
fn main() {{
    let staging = vec![{a}, {b}, {val}];
    let head = staging[0];
    let tail = staging[2];
    drop(staging);
    println!("{{}} {{}}", head, tail);
}}
''',
        rules=("move_drop_after_last_use",),
        sampler=_tpl_drop,
        difficulty=2,
    ),
    # -- a broader tail so every generatable category has a template
    CaseTemplate(
        key="panic_index_sweep",
        category=UbKind.PANIC,
        description="index out of bounds on a short buffer",
        source='''\
fn main() {{
    let samples = vec![{a}, {b}, {c}];
    let want = {idx};
    let sample = samples[want];
    println!("{{}}", sample);
}}
''',
        fixed='''\
fn main() {{
    let samples = vec![{a}, {b}, {c}];
    let want = {idx};
    let sample = if want < samples.len() {{ samples[want] }} else {{ 0 }};
    println!("{{}}", sample);
}}
''',
        rules=("guard_index_with_len_check",),
        sampler=_tpl_ints,
        difficulty=1,
    ),
    CaseTemplate(
        key="dangling_ptr_walk",
        category=UbKind.DANGLING_POINTER,
        description="pointer arithmetic walks past the buffer end",
        source='''\
fn main() {{
    let lane = vec![{a}, {b}, {c}];
    let step = {idx};
    let base = lane.as_ptr();
    let out = unsafe {{ *base.add(step) }};
    println!("{{}}", out);
}}
''',
        fixed='''\
fn main() {{
    let lane = vec![{a}, {b}, {c}];
    let step = {idx};
    let base = lane.as_ptr();
    let out = if step < lane.len() {{ unsafe {{ *base.add(step) }} }} else {{ 0 }};
    println!("{{}}", out);
}}
''',
        rules=("guard_ptr_add_with_len_check",),
        sampler=_tpl_ints,
        difficulty=2,
    ),
    CaseTemplate(
        key="uninit_set_len_window",
        category=UbKind.UNINIT,
        description="set_len publishes an uninitialised window",
        source='''\
fn main() {{
    let mut window: Vec<{narrow}> = Vec::with_capacity(8);
    unsafe {{ window.set_len(4); }}
    let probe = window[2];
    println!("{{}} {{}}", probe, {val});
}}
''',
        fixed='''\
fn main() {{
    let mut window: Vec<{narrow}> = Vec::with_capacity(8);
    window.resize(4, 0);
    let probe = window[2];
    println!("{{}} {{}}", probe, {val});
}}
''',
        rules=("replace_set_len_with_resize",),
        sampler=_tpl_union,
        difficulty=2,
    ),
)

#: Benign, UB-free context snippets harvested from *other* categories'
#: repaired patterns; splicing one into a template instantiation is the
#: cross-category recombination step.  Each entry is (origin category,
#: items prelude, main-body statements) — all pure context, provably
#: outside the labelled UB site.
CONTEXT_PRELUDES: tuple[tuple[UbKind, str, str], ...] = (
    (UbKind.FUNC_CALL,
     "fn ctx_scale(x: i32, k: i32) -> i32 { x * k }\n",
     "    let ctx_scaled = ctx_scale(3, 4);\n"
     "    let ctx_shift = ctx_scaled + 1;\n"),
    (UbKind.UNALIGNED,
     "",
     "    let ctx_words = [7u64, 9];\n"
     "    let ctx_bytes = ctx_words.as_ptr() as *const u8;\n"
     "    let ctx_head = unsafe { *ctx_bytes };\n"),
    (UbKind.PANIC,
     "",
     "    let ctx_pool = vec![5, 6, 7];\n"
     "    let ctx_pick = if 1 < ctx_pool.len() { ctx_pool[1] } else { 0 };\n"),
    (UbKind.VALIDITY,
     "",
     "    let ctx_raw: u8 = 1;\n"
     "    let ctx_flag = ctx_raw != 0;\n"),
)


def instantiate_template(template: CaseTemplate, rng: random.Random,
                         name: str) -> UbCase:
    """One concrete case from a template: sample parameters, optionally
    recombine with a cross-category context prelude, add distractors."""
    params = template.sampler(rng)
    source = template.source.format(**params)
    fixed = template.fixed.format(**params)
    if rng.random() < 0.5:
        origin, items, stmts = CONTEXT_PRELUDES[
            rng.randrange(len(CONTEXT_PRELUDES))]
        if origin is not template.category:
            source = items + source
            fixed = items + fixed
            source = inject_preamble(source, stmts.rstrip("\n"))
            fixed = inject_preamble(fixed, stmts.rstrip("\n"))
    block = distractor_block(rng)
    source = inject_preamble(source, block)
    fixed = inject_preamble(fixed, block)
    return UbCase(
        name=name,
        category=template.category,
        description=template.description,
        source=source,
        fixed_source=fixed,
        strategies=tuple(Strategy(rule) for rule in template.rules),
        difficulty=template.difficulty,
    )


# ---------------------------------------------------------------------------
# Compile-error templates (the non-compiling corpus)


@dataclass(frozen=True)
class CompileTemplate:
    """One parametric compile-error pattern: a buggy/fixed pair with
    holes, the stable checker code the buggy side must trip, and a
    sampler filling the holes from the rng.  Kept in a separate table
    from :data:`TEMPLATES` so the UB generator's rng stream — and hence
    every existing ``(n, seed)`` corpus — is untouched."""

    key: str
    expected_code: str
    description: str
    source: str
    fixed: str
    sampler: Callable[[random.Random], dict]
    difficulty: int = 1


_TYPO_NAMES = ("count", "total", "width", "level", "budget", "offset",
               "cursor", "window")
_FN_NAMES = ("combine", "scale_by", "merge", "accumulate", "blend")


def _swap_typo(name: str, rng: random.Random) -> str:
    """Transpose two adjacent characters — close enough that the
    checker's difflib suggestion recovers the original spelling."""
    at = rng.randrange(len(name) - 1)
    chars = list(name)
    chars[at], chars[at + 1] = chars[at + 1], chars[at]
    return "".join(chars)


def _tpl_typo(rng: random.Random) -> dict:
    name = _pick(rng, *_TYPO_NAMES)
    typo = _swap_typo(name, rng)
    while typo == name:
        typo = _swap_typo(name, rng)
    return {"name": name, "typo": typo,
            "a": rng.randrange(1, 99), "b": rng.randrange(1, 99)}


def _tpl_name_ints(rng: random.Random) -> dict:
    return {"name": _pick(rng, *_TYPO_NAMES),
            "a": rng.randrange(1, 99), "b": rng.randrange(1, 99)}


def _tpl_fn_call(rng: random.Random) -> dict:
    return {"fn": _pick(rng, *_FN_NAMES),
            "a": rng.randrange(1, 99), "b": rng.randrange(1, 99)}


def _tpl_transmute(rng: random.Random) -> dict:
    src, dst = _pick(rng, ("u32", "u64"), ("u16", "u64"), ("u16", "u32"),
                     ("u8", "u32"), ("u8", "u64"))
    return {"src": src, "dst": dst, "a": rng.randrange(1, 200)}


COMPILE_TEMPLATES: tuple[CompileTemplate, ...] = (
    CompileTemplate(
        key="compile_typo_use",
        expected_code="E0425",
        description="misspelled local in an initializer",
        source='''\
fn main() {{
    let {name} = {a};
    let report = {typo} + {b};
    println!("{{}}", report);
}}
''',
        fixed='''\
fn main() {{
    let {name} = {a};
    let report = {name} + {b};
    println!("{{}}", report);
}}
''',
        sampler=_tpl_typo,
    ),
    CompileTemplate(
        key="compile_immutable_reassign",
        expected_code="E0384",
        description="reassignment of an immutable binding",
        source='''\
fn main() {{
    let {name} = {a};
    {name} = {name} + {b};
    println!("{{}}", {name});
}}
''',
        fixed='''\
fn main() {{
    let mut {name} = {a};
    {name} = {name} + {b};
    println!("{{}}", {name});
}}
''',
        sampler=_tpl_name_ints,
    ),
    CompileTemplate(
        key="compile_assign_through_shared",
        expected_code="E0594",
        description="assignment through a shared reference",
        source='''\
fn main() {{
    let mut {name} = {a};
    let slot = &{name};
    *slot = {b};
    println!("{{}}", {name});
}}
''',
        fixed='''\
fn main() {{
    let mut {name} = {a};
    let slot = &mut {name};
    *slot = {b};
    println!("{{}}", {name});
}}
''',
        sampler=_tpl_name_ints,
        difficulty=2,
    ),
    CompileTemplate(
        key="compile_bool_from_int",
        expected_code="E0308",
        description="bool annotation on an integer initializer",
        source='''\
fn main() {{
    let {name} = {a};
    let ready: bool = {name};
    if ready {{
        println!("{{}}", {b});
    }}
}}
''',
        fixed='''\
fn main() {{
    let {name} = {a};
    let ready: bool = {name} != 0;
    if ready {{
        println!("{{}}", {b});
    }}
}}
''',
        sampler=_tpl_name_ints,
    ),
    CompileTemplate(
        key="compile_missing_arg",
        expected_code="E0061",
        description="call with one argument short of the signature",
        source='''\
fn {fn}(base: i32, extra: i32) -> i32 {{ base + extra }}
fn main() {{
    let summed = {fn}({a});
    println!("{{}}", summed);
}}
''',
        fixed='''\
fn {fn}(base: i32, extra: i32) -> i32 {{ base + extra }}
fn main() {{
    let summed = {fn}({a}, {b});
    println!("{{}}", summed);
}}
''',
        sampler=_tpl_fn_call,
    ),
    CompileTemplate(
        key="compile_transmute_widen",
        expected_code="E0512",
        description="transmute between differently sized integers",
        source='''\
fn main() {{
    let raw: {src} = {a};
    let wide: {dst} = unsafe {{ std::mem::transmute::<{src}, {dst}>(raw) }};
    println!("{{}}", wide);
}}
''',
        fixed='''\
fn main() {{
    let raw: {src} = {a};
    let wide: {dst} = raw as {dst};
    println!("{{}}", wide);
}}
''',
        sampler=_tpl_transmute,
        difficulty=2,
    ),
)


def instantiate_compile_template(template: CompileTemplate,
                                 rng: random.Random, name: str) -> UbCase:
    """One concrete compile case: sample parameters, add distractors to
    both sides (the filler checks clean, so the labelled code stays the
    only diagnostic family present)."""
    params = template.sampler(rng)
    source = template.source.format(**params)
    fixed = template.fixed.format(**params)
    block = distractor_block(rng)
    source = inject_preamble(source, block)
    fixed = inject_preamble(fixed, block)
    return UbCase(
        name=name,
        category=UbKind.COMPILE,
        description=template.description,
        source=source,
        fixed_source=fixed,
        strategies=(),
        difficulty=template.difficulty,
        expected_code=template.expected_code,
    )


def generate_compile_corpus(n: int, seed: int,
                            ) -> tuple[list[UbCase], GenerationReport]:
    """Generate ``n`` validated compile-error cases, deterministic in
    ``seed``.  Templates round-robin so every error shape is
    represented; every emitted case has passed the compile branch of
    :func:`validate_case`."""
    if n < 0:
        raise GenerationError(f"n must be non-negative, got {n}")
    rng = random.Random(seed)
    report = GenerationReport(seed=seed, requested=n)
    stats = report.stats(UbKind.COMPILE)
    known_sources = {case.source for case in load_compile_dataset()}
    emitted: list[UbCase] = []
    counter = 0
    while len(emitted) < n:
        template = COMPILE_TEMPLATES[len(emitted) % len(COMPILE_TEMPLATES)]
        case = None
        for _attempt in range(_MAX_ATTEMPTS_PER_CASE):
            stats.attempts += 1
            report.attempts += 1
            name = f"gen_compile_{counter:04d}"
            candidate = instantiate_compile_template(template, rng, name)
            try:
                if candidate.source in known_sources:
                    raise CaseInvalid(
                        "duplicate_source",
                        f"{name}: byte-identical to a known case")
                validate_case(candidate)
            except CaseInvalid as invalid:
                stats.reject(invalid.reason)
                continue
            case = candidate
            break
        if case is None:
            raise GenerationError(
                f"compile template {template.key}: "
                f"{_MAX_ATTEMPTS_PER_CASE} consecutive candidates rejected "
                f"({dict(sorted(stats.rejected.items()))})")
        emitted.append(case)
        known_sources.add(case.source)
        counter += 1
        stats.emitted += 1
        report.emitted += 1
    return emitted, report


# ---------------------------------------------------------------------------
# The generator


class GenerationError(Exception):
    """Generation cannot make progress (bad category, budget exhausted)."""


@dataclass
class CategoryStats:
    emitted: int = 0
    attempts: int = 0
    rejected: dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def to_dict(self) -> dict:
        total_rejected = sum(self.rejected.values())
        return {
            "emitted": self.emitted,
            "attempts": self.attempts,
            "rejected": dict(sorted(self.rejected.items())),
            "validation_rate": round(self.emitted / self.attempts, 4)
            if self.attempts else None,
            "total_rejected": total_rejected,
        }


@dataclass
class GenerationReport:
    """What one :func:`generate_corpus` run did, per category."""

    seed: int
    requested: int
    emitted: int = 0
    attempts: int = 0
    categories: dict[str, CategoryStats] = field(default_factory=dict)

    def stats(self, category: UbKind) -> CategoryStats:
        return self.categories.setdefault(category.value, CategoryStats())

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "requested": self.requested,
            "emitted": self.emitted,
            "attempts": self.attempts,
            "categories": {name: stats.to_dict()
                           for name, stats in sorted(self.categories.items())},
        }


#: Categories the generator can mint cases for: every category with at
#: least one template or at least one mutable parent in the base corpus.
def generatable_categories() -> list[UbKind]:
    kinds = {template.category for template in TEMPLATES}
    kinds.update(case.category for case in load_dataset())
    order = {kind: index for index, kind in enumerate(UbKind)}
    return sorted(kinds, key=lambda kind: order[kind])


#: Attempt budget per emitted case before generation aborts; generous —
#: observed rejection rates are a few percent.
_MAX_ATTEMPTS_PER_CASE = 25


def generate_corpus(n: int, seed: int,
                    categories: list[UbKind] | None = None,
                    ) -> tuple[list[UbCase], GenerationReport]:
    """Generate ``n`` validated cases, deterministically in ``seed``.

    Categories round-robin so every requested kind is represented
    (under-represented kinds get exactly the same share as the rest of
    the requested list).  Every emitted case has passed
    :func:`validate_case`; rejects are counted in the report.
    """
    if n < 0:
        raise GenerationError(f"n must be non-negative, got {n}")
    available = generatable_categories()
    if categories is None:
        categories = available
    else:
        unsupported = [cat for cat in categories if cat not in available]
        if unsupported:
            raise GenerationError(
                "no templates or mutable parents for: "
                + ", ".join(cat.value for cat in unsupported))
        categories = list(categories)
    rng = random.Random(seed)
    base = load_dataset()
    parents: dict[UbKind, list[UbCase]] = {
        category: base.by_category(category) for category in categories}
    templates: dict[UbKind, list[CaseTemplate]] = {}
    for template in TEMPLATES:
        templates.setdefault(template.category, []).append(template)
    known_sources = {case.source for case in base}
    report = GenerationReport(seed=seed, requested=n)
    emitted: list[UbCase] = []
    counters: dict[UbKind, int] = {category: 0 for category in categories}

    slot = 0
    while len(emitted) < n:
        category = categories[slot % len(categories)]
        stats = report.stats(category)
        case = None
        for _attempt in range(_MAX_ATTEMPTS_PER_CASE):
            stats.attempts += 1
            report.attempts += 1
            name = f"gen_{category.value}_{counters[category]:04d}"
            cat_templates = templates.get(category, [])
            cat_parents = parents.get(category, [])
            use_template = bool(cat_templates) and (
                not cat_parents or rng.random() < 0.5)
            try:
                if use_template:
                    template = cat_templates[rng.randrange(len(cat_templates))]
                    candidate = instantiate_template(template, rng, name)
                else:
                    parent = cat_parents[rng.randrange(len(cat_parents))]
                    candidate = mutate_case(parent, rng, name=name)
                if candidate.source in known_sources:
                    raise CaseInvalid(
                        "duplicate_source",
                        f"{name}: byte-identical to a known case")
                validated = validate_case(candidate)
            except MutationSkip:
                stats.reject("no_mutation_applied")
                continue
            except CaseInvalid as invalid:
                stats.reject(invalid.reason)
                continue
            case = UbCase(
                name=candidate.name, category=candidate.category,
                description=candidate.description, source=candidate.source,
                fixed_source=candidate.fixed_source, strategies=validated,
                difficulty=candidate.difficulty)
            break
        if case is None:
            raise GenerationError(
                f"category {category.value}: {_MAX_ATTEMPTS_PER_CASE} "
                f"consecutive candidates rejected "
                f"({dict(sorted(stats.rejected.items()))})")
        emitted.append(case)
        known_sources.add(case.source)
        # Accepted mutants join the parent pool, so later cases can
        # compound mutations (lineage chains).
        parents.setdefault(category, []).append(case)
        counters[category] += 1
        stats.emitted += 1
        report.emitted += 1
        slot += 1
    return emitted, report


def generate_sources(count: int, seed: int) -> list[str]:
    """``count`` parseable mutated source texts, *without* validation.

    The cheap feed for the lang-layer property tests: every text comes
    from a mutation chain over a real corpus case (buggy or fixed side),
    so the round-trip suite sees generator-shaped programs without
    paying for detector runs.
    """
    rng = random.Random(seed)
    base = list(load_dataset())
    sources: list[str] = []
    while len(sources) < count:
        parent = base[rng.randrange(len(base))]
        try:
            mutant = mutate_case(parent, rng)
        except MutationSkip:
            continue
        sources.append(mutant.source)
        if len(sources) < count:
            sources.append(mutant.fixed_source)
    return sources[:count]
