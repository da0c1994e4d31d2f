"""Rule triggers: ``needs`` are necessary conditions, so skipping is exact.

``RewriteRule.apply(program, tokens)`` returns None before cloning when
none of the rule's ``needs`` is among ``program``'s
:func:`~repro.core.rewrites.trigger_tokens`.  That is only sound while no
rule ever applies without one of its triggers present.  The sweep runs
every registered rule, sloppy variants included, over both corpora
(buggy and fixed sources), 500 seeded generator mutants, and one level of
repair rewrites of all of those, and checks:

* **soundness** — whenever a rule with ``needs`` returns a program, its
  input held one of them;
* **equivalence** — ``apply(p, tokens)`` prints the same as
  ``apply(p)``.  Where the trigger does not skip, both calls run the same
  clone-and-rewrite, so on the rewritten level only the skipped pairs are
  compared, which is the soundness check again.

The rewritten level takes the REPLACE/ASSERT/MODIFY rules' outputs, the
trees the fix agents chain their next steps on.  Hallucination edits only
perturb a literal, drop or duplicate a statement, or unmark an unsafe
block of a program already in the sweep; they would add ~3,000
near-copies and double the sweep's time (~60 s against ~30 s).
"""

import pytest

from repro.core import rewrites
from repro.core.rewrites import (FixKind, REGISTRY, RewriteRule,
                                 apply_rule, trigger_tokens)
from repro.corpus.dataset import load_compile_dataset, load_dataset
from repro.corpus.generator import generate_sources
from repro.lang import ast_nodes as ast
from repro.lang.lexer import LexError
from repro.lang.parser import ParseError, parse_program
from repro.lang.printer import print_program

GENERATED_COUNT = 500
GENERATED_SEED = 12345
RULES = list(REGISTRY.values())
REPAIR_KINDS = (FixKind.REPLACE, FixKind.ASSERT, FixKind.MODIFY)


def _printed(program):
    return None if program is None else print_program(program)


def _skips(rule, tokens) -> bool:
    return rule.needs is not None and tokens.isdisjoint(rule.needs)


@pytest.fixture(scope="module")
def sweep():
    """Soundness violations and equivalence mismatches over the sweep,
    as ``(rule, printed input)`` pairs, plus the program counts."""
    sources = []
    for dataset in (load_dataset(), load_compile_dataset()):
        for case in dataset.cases:
            sources += [case.source, case.fixed_source]
    sources += generate_sources(GENERATED_COUNT, GENERATED_SEED)
    base: dict[str, ast.Program] = {}
    for source in sources:
        try:
            program = parse_program(source)
        except (LexError, ParseError):
            continue
        base.setdefault(print_program(program), program)

    unsound, unequal = [], []
    rewritten: dict[str, ast.Program] = {}
    for text, program in base.items():
        tokens = trigger_tokens(program)
        for rule in RULES:
            plain = rule.apply(program)
            printed = _printed(plain)
            if plain is not None and _skips(rule, tokens):
                unsound.append((rule.name, text))
            if printed != _printed(rule.apply(program, tokens)):
                unequal.append((rule.name, text))
            if printed is not None and rule.kind in REPAIR_KINDS \
                    and printed not in base:
                rewritten.setdefault(printed, plain)

    for text, program in rewritten.items():
        tokens = trigger_tokens(program)
        for rule in RULES:
            if not _skips(rule, tokens):
                continue
            assert rule.apply(program, tokens) is None
            if rule.apply(program) is not None:
                unsound.append((rule.name, text))
                unequal.append((rule.name, text))
    return {"unsound": unsound, "unequal": unequal,
            "base": len(base), "rewritten": len(rewritten)}


class TestTriggerSweep:
    def test_sweep_covers_both_levels(self, sweep):
        assert sweep["base"] > 700
        assert sweep["rewritten"] > 1000

    def test_rules_never_apply_without_a_trigger(self, sweep):
        unsound = sweep["unsound"]
        assert not unsound, \
            f"{len(unsound)} applications without a trigger: " \
            f"{sorted({rule for rule, _ in unsound})}"

    def test_gated_apply_equals_plain_apply(self, sweep):
        unequal = sweep["unequal"]
        assert not unequal, \
            f"{len(unequal)} gated results differ: " \
            f"{sorted({rule for rule, _ in unequal})}"


class TestTriggerTokens:
    def test_kinds_keep_deref_apart_from_multiplication(self):
        product = trigger_tokens(parse_program(
            "fn main() { let a = 2; let b = a * 3; }"))
        deref = trigger_tokens(parse_program(
            "fn main() { let a = 2; let p = &a; let b = *p; }"))
        assert "binary:*" in product and "unary:*" not in product
        assert "unary:*" in deref and "binary:*" not in deref

    def test_token_kinds(self):
        tokens = trigger_tokens(parse_program("""
use std::mem;
static mut COUNTER: i32 = 0;
fn main() {
    let mut v = vec![1, 2];
    v.push(3);
    let n = unsafe { mem::transmute::<u8, bool>(1u8) };
    let shifted = 1 << 3;
    let x = 5 as u8;
}"""))
        for token in ("method:push", "path:mem", "path:transmute",
                      "binary:<<", "node:Cast", "node:MacroCall",
                      "static mut"):
            assert token in tokens, token

    def test_immutable_static_is_not_static_mut(self):
        tokens = trigger_tokens(parse_program(
            "static LIMIT: i32 = 3; fn main() { let x = LIMIT; }"))
        assert "static mut" not in tokens
        assert "node:StaticItem" in tokens

    def test_transmute_rules_share_one_trigger(self):
        transmute_rules = [rule.name for rule in RULES
                           if rule.needs == ("path:transmute",)
                           and not rule.name.startswith("sloppy_")]
        assert len(transmute_rules) == 8

    def test_sloppy_variants_inherit_needs(self):
        for base_name, sloppy_name in rewrites.SLOPPY_VARIANTS.items():
            assert REGISTRY[sloppy_name].needs == REGISTRY[base_name].needs


class TestGatedApply:
    SHIFT = "fn main() { let s = 40; let x = 1 << s; }"

    def test_skip_happens_before_cloning(self, monkeypatch):
        program = parse_program("fn main() { let a = 1; }")
        tokens = trigger_tokens(program)
        clones = []
        real_clone = rewrites.clone
        monkeypatch.setattr(rewrites, "clone",
                            lambda node: clones.append(node) or
                            real_clone(node))
        assert apply_rule(program, "replace_set_len_with_resize",
                          tokens) is None
        assert clones == []
        assert apply_rule(program, "replace_set_len_with_resize") is None
        assert len(clones) == 1

    def test_present_trigger_runs_the_rule(self):
        program = parse_program(self.SHIFT)
        tokens = trigger_tokens(program)
        gated = apply_rule(program, "mask_shift_amount", tokens)
        assert gated is not None
        assert print_program(gated) == \
            print_program(apply_rule(program, "mask_shift_amount"))

    def test_rule_without_needs_always_runs(self):
        rule = REGISTRY["hallu_delete_statement"]
        assert rule.needs is None
        program = parse_program(self.SHIFT)
        assert rule.apply(program, frozenset()) is not None

    def test_empty_needs_never_run_on_tokens(self):
        rule = REGISTRY["mask_shift_amount"]
        declared_empty = RewriteRule(rule.name, rule.kind, rule.description,
                                     rule.fn, needs=())
        program = parse_program(self.SHIFT)
        assert declared_empty.apply(program, trigger_tokens(program)) is None
        assert declared_empty.apply(program) is not None
