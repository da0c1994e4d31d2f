"""The stochastic repair oracle: what the simulated LLM "knows".

Three task engines back the framework's LLM calls:

* :func:`extract_features` — classify the failure and the fix class from the
  code + detector report (fast thinking F2). Noise: confusable categories
  are swapped with probability ``1 - feature_accuracy``.
* :func:`rank_candidate_rules` — order candidate repair rules for a
  (predicted) category. Skill decides whether the model's *prior* ordering
  (domain knowledge of how each UB class is fixed in Rust) survives, or the
  ranking degenerates into weighted noise. KB hints and feedback plans boost
  specific rules, exactly where §III-B3/§III-C hook in.
* :func:`corrupt_step` — when slow thinking executes a step, decide whether
  the model's edit is faithful, a wrong-but-plausible substitution, or a
  corrupting hallucination (the error-growth driver behind §III-B2).

The oracle never sees a case's ground-truth strategy list; repairs succeed
or fail because the chosen rewrite genuinely does (or does not) fix the
program under the detector.

Entry points take the program as the printed code a prompt embeds (plus,
for :func:`extract_features`, its unsafe counts), never as a tree: callers
read both from :func:`~repro.core.view.program_view`, which computes them
once per source.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..miri.errors import MiriReport, UbKind
from .client import LLMClient
from .sampling import (
    diversity_count,
    exploration_factor,
    fidelity_factor,
    hallucination_factor,
)

# ---------------------------------------------------------------------------
# Domain priors: how an LLM "knows" each UB class is usually repaired.
# Ordered roughly semantics-preserving-first; this is public Rust knowledge
# (mirrors §III-A's classification), not per-case ground truth.

CATEGORY_RULE_PRIORS: dict[UbKind, list[str]] = {
    UbKind.ALLOC: [
        "remove_second_free", "fix_dealloc_layout", "guard_layout_nonzero",
    ],
    UbKind.DANGLING_POINTER: [
        "move_drop_after_last_use", "take_pointer_after_mutation",
        "guard_nonnull_before_deref", "guard_ptr_add_with_len_check",
    ],
    UbKind.PANIC: [
        "saturating_arith_on_extreme", "guard_index_with_len_check",
        "guard_division_nonzero", "replace_unwrap_with_unwrap_or",
        "mask_shift_amount",
    ],
    UbKind.PROVENANCE: [
        "replace_deref_with_original_value", "read_owner_instead_of_raw",
        "replace_transmute_ref_with_cast",
    ],
    UbKind.UNINIT: [
        "replace_uninit_with_zero_init", "write_before_assume_init",
        "replace_set_len_with_resize", "read_written_union_field",
        "write_zero_after_alloc",
    ],
    UbKind.BOTH_BORROW: [
        "shorten_shared_borrow", "hoist_write_before_shared",
    ],
    UbKind.DATA_RACE: [
        "replace_static_mut_with_atomic", "join_thread_before_access",
        "protect_with_mutex",
    ],
    UbKind.FUNC_CALL: [
        "fix_call_arity", "call_with_actual_signature",
    ],
    UbKind.FUNC_POINTER: [
        "call_with_actual_signature", "replace_int_fn_transmute_with_fn",
        "replace_transmute_fn_with_direct",
    ],
    UbKind.STACK_BORROW: [
        "read_owner_instead_of_raw", "hoist_raw_use_before_reborrow",
        "take_pointer_after_mutation",
    ],
    UbKind.VALIDITY: [
        "replace_transmute_int_with_comparison", "replace_zeroed_ref_with_local",
        "replace_transmute_char_with_from_u32", "store_valid_bool",
    ],
    UbKind.UNALIGNED: [
        "read_unaligned_instead", "guard_alignment_before_cast_read",
    ],
    UbKind.CONCURRENCY: [
        "add_missing_join", "release_lock_before_relock",
    ],
    UbKind.TAIL_CALL: [
        "correct_tail_dispatch", "call_with_actual_signature",
    ],
}

#: Categories an imperfect classifier plausibly confuses.
CONFUSABLE: dict[UbKind, list[UbKind]] = {
    UbKind.ALLOC: [UbKind.DANGLING_POINTER],
    UbKind.DANGLING_POINTER: [UbKind.STACK_BORROW, UbKind.PROVENANCE],
    UbKind.STACK_BORROW: [UbKind.BOTH_BORROW, UbKind.DANGLING_POINTER],
    UbKind.BOTH_BORROW: [UbKind.STACK_BORROW],
    UbKind.PROVENANCE: [UbKind.DANGLING_POINTER],
    UbKind.UNINIT: [UbKind.VALIDITY],
    UbKind.VALIDITY: [UbKind.UNINIT],
    UbKind.UNALIGNED: [UbKind.VALIDITY],
    UbKind.DATA_RACE: [UbKind.CONCURRENCY],
    UbKind.CONCURRENCY: [UbKind.DATA_RACE],
    UbKind.FUNC_CALL: [UbKind.FUNC_POINTER],
    UbKind.FUNC_POINTER: [UbKind.FUNC_CALL, UbKind.TAIL_CALL],
    UbKind.TAIL_CALL: [UbKind.FUNC_POINTER],
    UbKind.PANIC: [UbKind.VALIDITY],
}

_FIX_KIND_BY_CATEGORY: dict[UbKind, str] = {
    UbKind.ALLOC: "modify",
    UbKind.DANGLING_POINTER: "modify",
    UbKind.PANIC: "assert",
    UbKind.PROVENANCE: "replace",
    UbKind.UNINIT: "replace",
    UbKind.BOTH_BORROW: "modify",
    UbKind.DATA_RACE: "replace",
    UbKind.FUNC_CALL: "modify",
    UbKind.FUNC_POINTER: "modify",
    UbKind.STACK_BORROW: "modify",
    UbKind.VALIDITY: "replace",
    UbKind.UNALIGNED: "modify",
    UbKind.CONCURRENCY: "modify",
    UbKind.TAIL_CALL: "modify",
}


@dataclass(frozen=True)
class ExtractedFeatures:
    """Fast-thinking feature extraction output (possibly mis-classified)."""

    predicted_category: UbKind
    true_category: UbKind
    fix_kind: str                      # "replace" | "assert" | "modify"
    unsafe_block_count: int
    unsafe_call_count: int
    error_message: str

    @property
    def correct(self) -> bool:
        return self.predicted_category is self.true_category


# ---------------------------------------------------------------------------
# Prompts (kept textual so token accounting measures something real)

FEATURE_PROMPT = """You are a Rust safety expert. Analyse this program and \
the Miri diagnostic. Identify: 1. A brief summary of the Miri error. \
2. The root cause of the UB, referencing specific lines in the code. \
Classify the unsafe operation into one of: dereference raw pointer, call \
unsafe function, access mutable static, access union field, unsafe trait.

### Code
{code}

### Miri diagnostic
{error}
"""

SOLUTION_PROMPT = """Based on the extracted features, propose {n} distinct \
repair solutions. For each, state which strategy it uses:
[Prompt1] Find a safe API with the same functionality for replacement.
[Prompt2] Pre-assertion added before UB is possible, to prevent it.
[Prompt3] If adding assertions and replacement cannot resolve logic issues, \
keep functionality and semantics while avoiding UB through modification.

### Error category
{category}

### Code
{code}
{hints}
"""


def extract_features(client: LLMClient, code: str,
                     unsafe_counts: tuple[int, int],
                     report: MiriReport) -> ExtractedFeatures:
    """Fast-thinking F2: classify the error + code features, with noise.

    ``unsafe_counts`` is the program's (unsafe blocks, unsafe-operation
    method calls), as :attr:`~repro.core.view.ProgramView.unsafe_counts`
    counts them."""
    error_text = report.render()
    rng = client.charge("feature_extraction",
                        FEATURE_PROMPT.format(code=code, error=error_text),
                        completion_tokens=200)
    true_category = _true_category(report)
    accuracy = min(0.98, client.profile.feature_accuracy
                   * (0.92 + 0.16 * exploration_factor(client.temperature)))
    predicted = true_category
    if rng.random() > accuracy:
        choices = CONFUSABLE.get(true_category, [])
        if choices:
            predicted = rng.choice(choices)
    unsafe_blocks, unsafe_calls = unsafe_counts
    return ExtractedFeatures(
        predicted_category=predicted,
        true_category=true_category,
        fix_kind=_FIX_KIND_BY_CATEGORY.get(predicted, "modify"),
        unsafe_block_count=unsafe_blocks,
        unsafe_call_count=unsafe_calls,
        error_message=report.errors[0].message if report.errors else "",
    )


def _true_category(report: MiriReport) -> UbKind:
    if not report.errors:
        return UbKind.PANIC
    kind = report.errors[0].kind
    if kind in CATEGORY_RULE_PRIORS:
        return kind
    return UbKind.VALIDITY


def rank_candidate_rules(client: LLMClient, features: ExtractedFeatures,
                         code: str, n_solutions: int,
                         kb_hint: list[str] | None = None,
                         feedback_rules: list[str] | None = None,
                         difficulty: int = 2, round_index: int = 0,
                         orchestrated: bool = False,
                         rng: random.Random | None = None) -> list[list[str]]:
    """Fast-thinking solution generation: ``n`` ranked repair plans.

    Returns a list of plans; each plan is an ordered list of rule names
    (primary fix first, fallbacks after). The caller (slow thinking)
    decomposes, executes and verifies them.

    The ``n`` candidates are sampled through
    :meth:`~repro.llm.client.LLMClient.generate_batch` — one batched
    invocation that ingests the prompt once — and the plan-builder consumes
    completion stream 0, which is identical to the stream a plain
    ``charge`` would have produced, so the batching is invisible to every
    seeded experiment.  Callers that already paid for a batch (see
    :func:`generate_plan_batch`) pass the per-sample ``rng`` explicitly and
    no new invocation is accounted.
    """
    if n_solutions < 1:
        # A zero-candidate round consults nobody and proposes nothing.
        return []
    if rng is None:
        hints = ""
        if kb_hint:
            hints += "\n### Knowledge-base exemplars suggest\n" + \
                ", ".join(kb_hint)
        if feedback_rules:
            hints += "\n### Previously successful for similar errors\n" + \
                ", ".join(feedback_rules)
        rng = client.generate_batch(
            "solution_generation",
            SOLUTION_PROMPT.format(n=n_solutions, code=code,
                                   category=features.predicted_category.value,
                                   hints=hints),
            n_solutions,
            completion_tokens=120,
        )[0]
    profile = client.profile
    temperature = client.temperature

    # Adapting a retrieved exemplar to the local code is itself a skill:
    # orchestration-poor models fail to integrate the hint at all — and a
    # model that cannot integrate this exemplar will not succeed on retry,
    # so the trait is fixed per repair conversation.
    if kb_hint and orchestrated and not _adapts_exemplars(client):
        kb_hint = None

    prior = list(CATEGORY_RULE_PRIORS.get(features.predicted_category, []))

    # One *understanding* roll per generation round: a model that has
    # misread the problem stays misread across its own samples
    # (self-consistency); temperature lets individual samples defect.
    category_mult = profile.category_skill.get(features.true_category, 1.0)
    skill = profile.skill_for(features.true_category, difficulty) \
        * exploration_factor(temperature)
    if orchestrated:
        skill *= profile.orchestration
    if round_index > 0:
        # A model that failed a full round tends to repeat its mistake;
        # only *new information* (a KB exemplar, a recalled plan) breaks
        # the rut — exactly the paper's case for the reasoning agent.
        skill *= 0.45
    if kb_hint and category_mult < 1.0:
        # Tailoring a retrieved exemplar to an error shape the model does
        # not understand fails with the same category weakness (Fig. 10:
        # O1 "fails to provide suitable solutions based on code features"
        # for uncommon errors even with support).
        if rng.random() > category_mult:
            kb_hint = None
    if kb_hint and orchestrated:
        # The KB is reached through LLM-extracted ASTs (§III-B3): the
        # extraction is most reliable at moderate temperatures, so hint
        # availability follows the same inverted-U as everything else.
        if rng.random() > 0.99 * exploration_factor(temperature) ** 1.5:
            kb_hint = None
    if kb_hint:
        skill = min(0.97, skill + 0.25 * category_mult)
    if feedback_rules:
        skill = min(0.97, skill + 0.35 * category_mult)
    understands = rng.random() < skill
    # Sampling diversity lets individual solutions defect from the round's
    # base understanding. Defecting *toward* the correct repair is itself
    # skill-dependent; defecting away is pure sampling noise.
    flip_rate = 0.06 + 0.10 * temperature
    flip_to_correct = flip_rate * min(1.0, skill / 0.55) \
        * exploration_factor(temperature)

    # Fidelity: an unfaithful model favours blunt guards over the
    # semantics-preserving fix (passes Miri, may change behaviour).
    faithful = rng.random() < (profile.semantic_fidelity
                               * fidelity_factor(temperature))
    ordered_prior = list(prior)
    if not faithful and len(ordered_prior) > 1:
        from ..core.rewrites import FixKind, REGISTRY
        ordered_prior.sort(key=lambda name: (
            0 if (REGISTRY.get(name) is not None
                  and REGISTRY[name].kind is FixKind.ASSERT) else 1))

    other_rules = [
        rule
        for category, rules in sorted(CATEGORY_RULE_PRIORS.items(),
                                      key=lambda kv: kv[0].value)
        for rule in rules
        if category is not features.predicted_category
    ]

    plans: list[list[str]] = []
    distinct = diversity_count(temperature, n_solutions)
    for index in range(n_solutions):
        defect_rate = flip_rate if understands else flip_to_correct
        defects = rng.random() < defect_rate and index < distinct
        on_target = understands != defects
        if on_target and category_mult < 1.0 and \
                rng.random() > category_mult:
            # Even an on-target round produces unsuitable plans for error
            # shapes outside the model's competence.
            on_target = False
        pool: list[str]
        cap = 3
        if feedback_rules and index == 0:
            pool = list(feedback_rules) + ordered_prior[:1]
        elif on_target:
            # KB exemplars and the model's own prior reinforce each other:
            # rules both suggest lead the plan; the model's own prior keeps
            # precedence over *disagreeing* exemplars (they only append one
            # extra candidate, rescuing misclassified rounds).
            hint = list(kb_hint or [])
            agreement = [rule for rule in hint if rule in ordered_prior]
            disagreement = [rule for rule in hint if rule not in ordered_prior]
            pool = agreement + ordered_prior + disagreement[:1]
            cap = 4 if hint else 3
        else:
            # Off-target: free association over the wrong toolboxes, with a
            # small chance one prior rule sneaks in. Retrieval is mechanical,
            # so KB exemplars still reach a model that has misread the code —
            # this is precisely where the knowledge base earns its keep.
            pool = rng.sample(other_rules, k=min(3, len(other_rules)))
            if kb_hint:
                pool = list(kb_hint[:2]) + pool
                cap = 4
            if prior and rng.random() < 0.08:
                pool.insert(rng.randrange(len(pool) + 1), rng.choice(prior))
        seen: list[str] = []
        for rule in pool:
            if rule not in seen:
                seen.append(rule)
        plans.append(seen[:cap])
    return plans


def generate_plan_batch(client: LLMClient, features: ExtractedFeatures,
                        code: str, n: int,
                        difficulty: int = 2) -> list[list[str]]:
    """Sample ``n`` *independent* single-plan candidates in one batch.

    This is the standalone-LLM candidate fan-out (ask once, take ``n``
    samples) amortized through
    :meth:`~repro.llm.client.LLMClient.generate_batch`: each sample gets
    its own completion stream and rolls its own understanding/fidelity —
    statistically the same as ``n`` separate ``n_solutions=1`` generation
    rounds, but the prompt is ingested once and the fixed per-request
    latency is paid once.
    """
    if n < 1:
        return []
    prompt = SOLUTION_PROMPT.format(
        n=1, code=code, category=features.predicted_category.value, hints="")
    rngs = client.generate_batch("solution_generation", prompt, n,
                                 completion_tokens=120)
    return [rank_candidate_rules(client, features, code, 1,
                                 difficulty=difficulty, rng=sample_rng)[0]
            for sample_rng in rngs]


@dataclass(frozen=True)
class StepExecution:
    """How the model actually executed a planned repair step."""

    rule: str
    hallucinated: bool
    #: The model rewrote surrounding code too, perturbing an unrelated
    #: constant (applies after the planned rule).
    retouched: bool = False


def _adapts_exemplars(client: LLMClient) -> bool:
    """Per-repair trait: can this model instance integrate a retrieved
    exemplar into its working patch? Probability rises with orchestration
    quality; the roll is conversation-stable."""
    cached = getattr(client, "_adapts_trait", None)
    if cached is not None:
        return cached
    import hashlib as _hashlib
    key = f"adapt|{client.seed}|{client.profile.name}|{client.temperature:.3f}"
    digest = _hashlib.sha256(key.encode()).digest()
    roll = int.from_bytes(digest[:8], "big") / 2 ** 64
    trait = roll < (0.20 + 0.80 * client.profile.orchestration)
    client._adapts_trait = trait
    return trait


def _is_careless(client: LLMClient) -> bool:
    """Per-repair carelessness trait: a model instance that paraphrases
    constants does so *throughout the conversation*, not per call — so the
    retry loop cannot launder drift away by re-rolling."""
    cached = getattr(client, "_careless_trait", None)
    if cached is not None:
        return cached
    import hashlib as _hashlib
    key = (f"careless|{client.seed}|{client.profile.name}"
           f"|{client.temperature:.3f}")
    digest = _hashlib.sha256(key.encode()).digest()
    roll = int.from_bytes(digest[:8], "big") / 2 ** 64
    fidelity = min(1.0, client.profile.semantic_fidelity
                   * fidelity_factor(client.temperature))
    trait = roll < (1.0 - fidelity)
    client._careless_trait = trait
    return trait


def corrupt_step(client: LLMClient, rule: str, rng: random.Random | None = None,
                 guided: bool = False, orchestrated: bool = False,
                 ) -> StepExecution:
    """Decide how faithfully the model executes one repair step.

    Four outcomes:

    * hallucination (probability ``hallucination_rate × factor(T)``) — a
      corrupting edit that typically *grows* the error count (§III-B2);
    * sloppy execution — the right repair idea with carelessly-chosen
      constants: passes Miri, drifts semantics (drives pass-vs-exec gaps);
    * retouching — the planned fix plus an unnecessary rewrite of nearby
      code (LLMs regenerate whole functions), perturbing a constant;
    * faithful execution of the planned rule.

    ``guided=True`` marks steps backed by a knowledge-base exemplar or a
    recalled feedback plan: copying a concrete exemplar strongly suppresses
    careless constant drift (the KB's exec-rate advantage in Fig. 9).
    """
    from ..core.rewrites import HALLUCINATION_RULES, SLOPPY_VARIANTS
    if rng is None:
        rng = client.charge("apply_fix", f"Apply repair step: {rule}",
                            completion_tokens=180)
    if orchestrated:
        # Agent frameworks demand strict patch formats; models with weak
        # instruction-following emit unusable responses (no-op steps).
        noop_rate = (1.0 - client.profile.orchestration) * 0.55
        if rng.random() < noop_rate:
            return StepExecution("__unusable_patch__", False)
    rate = client.profile.hallucination_rate \
        * hallucination_factor(client.temperature)
    if rng.random() < rate:
        return StepExecution(rng.choice(HALLUCINATION_RULES), True)
    if _is_careless(client):
        if guided:
            # Copying an exemplar suppresses drift — but hot sampling
            # paraphrases even copied constants (the Fig. 11 high-T
            # semantic-integrity loss).
            drift_probability = 0.25 * hallucination_factor(
                client.temperature) / hallucination_factor(0.5)
        else:
            drift_probability = 0.85
        if rng.random() < drift_probability:
            sloppy = SLOPPY_VARIANTS.get(rule)
            if sloppy is not None:
                return StepExecution(sloppy, False)
            return StepExecution(rule, False, retouched=True)
    return StepExecution(rule, False)


def judge_semantics(client: LLMClient, original: str, repaired: str,
                    actually_equivalent: bool) -> bool:
    """Internal semantic-acceptability judgement (the triplet's second axis).

    A real system asks the model whether the repair preserves intent; our
    oracle answers correctly with probability ``semantic_fidelity`` (scaled
    by temperature) and errs otherwise.
    """
    rng = client.charge(
        "semantic_judgement",
        f"Do these two programs preserve semantics?\n{original}\n---\n{repaired}",
        completion_tokens=16,
    )
    accuracy = min(0.97, client.profile.semantic_fidelity
                   * fidelity_factor(client.temperature) + 0.15)
    if rng.random() < accuracy:
        return actually_equivalent
    return not actually_equivalent
