"""RustBrain: the full fast/slow-thinking repair pipeline.

Stage map (Fig. 2):

* **F1** — run the detector ("Miri"); pass-through if no UB.
* **F2** — feature extraction + multi-solution generation (fast thinking),
  boosted by the feedback memory's recalled plans (§III-C).
* **S1** — decompose each solution into agent-tagged steps.
* **S2** — execute with the three fix agents, verify per step, adaptive
  rollback; if everything stalls, the abstract reasoning agent consults the
  knowledge base and a refinement round runs with the retrieved hints.
* **S3** — verified plans are generalised into the feedback memory.

Every detector question — F1 and each S2 verification — goes through
:func:`repro.miri.detect_case`, whose process-wide memo answers repeats
of the exact text: rewrite chains that return to an earlier program,
solutions sharing leading rules, and other arms or ensemble members
asking about the same case.  The virtual clock still charges every
verification in full.

The input is never cloned: every round reads the parse memo's shared tree
through :func:`~repro.core.view.program_view`, whose facets (printed
code, unsafe counts, trigger tokens, embeddings) are computed once per
source.  Rewrites clone before they write, and a step on the input tree
passes the view's trigger tokens, so a rule whose pattern is absent
returns before cloning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..engine.registry import apply_config_overrides, register_engine
from ..llm.client import ContextOverflow, LLMClient, VirtualClock
from ..llm.oracle import rank_candidate_rules
from ..miri import detect_case
from .agents.reasoning import AbstractReasoningAgent
from .agents.rollback import RollbackPolicy
from .features import analyse
from .feedback import FeedbackMemory
from .knowledge import KnowledgeBase
from .slow import SlowThinking
from .solution import decompose
from .view import program_view


@dataclass
class RustBrainConfig:
    model: str = "gpt-4"
    temperature: float = 0.5
    seed: int = 0
    #: fast-thinking candidate solutions per round (RQ1 uses 10).
    n_solutions: int = 6
    #: fast→slow→feedback rounds before giving up.
    max_rounds: int = 2
    use_knowledge_base: bool = True
    kb_coverage: float = 1.0
    use_feedback: bool = True
    use_pruning: bool = True
    rollback: RollbackPolicy = RollbackPolicy.ADAPTIVE
    #: virtual seconds per detector invocation (a real `cargo miri` run).
    detector_seconds: float = 0.8
    max_steps_per_solution: int = 4


@dataclass
class RepairOutcome:
    passed: bool
    repaired_source: str | None
    seconds: float
    tokens: int
    llm_calls: int
    solutions_tried: int
    steps_executed: int
    hallucinations: int
    rollbacks: int
    used_knowledge_base: bool
    used_feedback: bool
    error_sequences: list[list[int]] = field(default_factory=list)
    applied_rules: list[str] = field(default_factory=list)
    failure_reason: str | None = None
    #: Per-member summaries when the outcome came from an ensemble engine
    #: (see :mod:`repro.engine.ensemble`); empty for ordinary arms.  Plain
    #: dicts so outcomes stay picklable and JSON-serializable.
    members: list[dict] = field(default_factory=list)


class RustBrain:
    """The paper's framework. One instance accumulates feedback across
    repairs (the self-learning loop); construct fresh instances for
    independent experimental arms."""

    def __init__(self, config: RustBrainConfig | None = None,
                 kb: KnowledgeBase | None = None,
                 feedback: FeedbackMemory | None = None):
        self.config = config or RustBrainConfig()
        self.kb = kb if kb is not None else (
            KnowledgeBase.default(self.config.kb_coverage,
                                  use_pruning=self.config.use_pruning)
            if self.config.use_knowledge_base else None)
        self.feedback = feedback if feedback is not None else FeedbackMemory()
        self._repair_index = 0

    # ------------------------------------------------------------------

    def repair(self, source: str, difficulty: int = 2) -> RepairOutcome:
        """Repair one program; returns the outcome with full accounting."""
        config = self.config
        clock = VirtualClock()
        client = LLMClient(config.model, config.temperature,
                           seed=config.seed * 7919 + self._repair_index,
                           clock=clock)
        self._repair_index += 1

        # F1: detection.
        clock.advance(config.detector_seconds)
        report = detect_case(source, collect=True)
        if report.passed:
            return self._outcome(client, True, source, 0, 0, 0, 0, [], [],
                                 used_kb=False, used_feedback=False)
        try:
            view = program_view(source)
        except Exception:
            return self._outcome(client, False, None, 0, 0, 0, 0, [], [],
                                 used_kb=False, used_feedback=False,
                                 failure_reason="unparseable input")
        program = view.tree

        slow = SlowThinking(client, config.rollback,
                            config.detector_seconds,
                            config.max_steps_per_solution)
        reasoning = (AbstractReasoningAgent(client, self.kb,
                                            config.use_pruning)
                     if self.kb is not None else None)

        solutions_tried = 0
        steps_executed = 0
        hallucinations = 0
        rollbacks = 0
        error_sequences: list[list[int]] = []
        used_kb = False
        used_feedback = False

        for round_index in range(config.max_rounds):
            # F2: features + solution generation.
            try:
                features = analyse(client, view, report,
                                   config.use_pruning)
            except ContextOverflow:
                return self._outcome(
                    client, False, None, solutions_tried, steps_executed,
                    hallucinations, rollbacks, error_sequences, [],
                    used_kb=used_kb, used_feedback=used_feedback,
                    failure_reason="exceeds model context limit")

            feedback_rules = None
            if config.use_feedback:
                feedback_rules = self.feedback.recall(
                    features.vector, features.extracted.predicted_category)
                used_feedback = used_feedback or feedback_rules is not None

            kb_hint = None
            if reasoning is not None:
                # Abstract reasoning: LLM AST extraction → Algorithm 1 →
                # vector search. Consulted every round when the KB is on —
                # this is the 2x-4x overhead Fig. 7 attributes to it.
                hint = reasoning.consult(view, report.errors)
                kb_hint = hint.rules or None
                used_kb = used_kb or bool(kb_hint)

            plans = rank_candidate_rules(
                client, features.extracted, view.code, config.n_solutions,
                kb_hint=kb_hint, feedback_rules=feedback_rules,
                difficulty=difficulty, round_index=round_index,
                orchestrated=True)
            # Identical samples are one solution, not several: duplicated
            # plans are collapsed, first occurrence winning (low temperatures
            # genuinely yield fewer distinct options — the Fig. 11
            # under-exploration effect).
            seen_plans: set[tuple[str, ...]] = set()
            unique_plans: list[list[str]] = []
            for plan in plans:
                key = tuple(plan)
                if key not in seen_plans:
                    seen_plans.add(key)
                    unique_plans.append(plan)
            guided_rules = set(kb_hint or []) | set(feedback_rules or [])
            solutions = decompose(unique_plans, guided_rules=guided_rules)

            # S1+S2: execute and verify each solution.
            for solution in solutions:
                outcome = slow.execute(solution, program,
                                       report.error_count, view.tokens)
                solutions_tried += 1
                steps_executed += outcome.steps_executed
                hallucinations += outcome.hallucinations
                rollbacks += outcome.rollbacks
                error_sequences.append(outcome.error_sequence)
                if outcome.solved:
                    repaired = outcome.final_source
                    # S3: generalise the verified plan.
                    if config.use_feedback:
                        self.feedback.learn(
                            features.vector,
                            features.extracted.predicted_category,
                            outcome.applied_rules)
                    return self._outcome(
                        client, True, repaired, solutions_tried,
                        steps_executed, hallucinations, rollbacks,
                        error_sequences, outcome.applied_rules,
                        used_kb=used_kb, used_feedback=used_feedback)

        return self._outcome(
            client, False, None, solutions_tried, steps_executed,
            hallucinations, rollbacks, error_sequences, [],
            used_kb=used_kb, used_feedback=used_feedback,
            failure_reason="all solutions exhausted")

    # ------------------------------------------------------------------

    def _outcome(self, client: LLMClient, passed: bool,
                 repaired: str | None, solutions: int, steps: int,
                 hallucinations: int, rollbacks: int,
                 sequences: list[list[int]], applied: list[str], *,
                 used_kb: bool, used_feedback: bool,
                 failure_reason: str | None = None) -> RepairOutcome:
        return RepairOutcome(
            passed=passed,
            repaired_source=repaired,
            seconds=client.clock.elapsed,
            tokens=client.stats.total_tokens,
            llm_calls=client.stats.call_count,
            solutions_tried=solutions,
            steps_executed=steps,
            hallucinations=hallucinations,
            rollbacks=rollbacks,
            used_knowledge_base=used_kb,
            used_feedback=used_feedback,
            error_sequences=sequences,
            applied_rules=applied,
            failure_reason=failure_reason,
        )


# ---------------------------------------------------------------------------
# Engine registrations — RustBrain and every ablation variant the paper's
# evaluation arms use are declared here, next to the implementation, instead
# of in a central factory if-chain.


def _rustbrain_factory(**variant_defaults):
    def build(*, model: str = "gpt-4", seed: int = 0,
              temperature: float = 0.5, **overrides) -> RustBrain:
        config = RustBrainConfig(model=model, seed=seed,
                                 temperature=temperature)
        apply_config_overrides(config, {**variant_defaults, **overrides})
        return RustBrain(config)
    return build


register_engine(
    "rustbrain",
    summary="full fast/slow-thinking pipeline: KB, feedback, adaptive "
            "rollback (the paper's framework)",
    tags=("rustbrain",),
)(_rustbrain_factory())

register_engine(
    "rustbrain_nokb",
    summary="RustBrain without the pruned-AST knowledge base "
            "(Fig. 8/9 'non knowledge' arm)",
    tags=("rustbrain", "ablation"),
)(_rustbrain_factory(use_knowledge_base=False))

register_engine(
    "rustbrain_nofeedback",
    summary="RustBrain without the self-learning feedback memory",
    tags=("rustbrain", "ablation"),
)(_rustbrain_factory(use_feedback=False))

register_engine(
    "rustbrain_norollback",
    summary="RustBrain with rollback disabled "
            "(hallucination-propagation ablation)",
    tags=("rustbrain", "ablation"),
)(_rustbrain_factory(rollback=RollbackPolicy.NONE))

register_engine(
    "rustbrain_initial_rollback",
    summary="RustBrain with rollback-to-initial instead of adaptive "
            "(prior-framework policy)",
    tags=("rustbrain", "ablation"),
)(_rustbrain_factory(rollback=RollbackPolicy.INITIAL))

register_engine(
    "rustbrain_nopruning",
    summary="RustBrain with the unpruned knowledge base",
    tags=("rustbrain", "ablation"),
)(_rustbrain_factory(use_pruning=False))
