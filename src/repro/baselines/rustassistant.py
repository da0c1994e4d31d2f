"""RustAssistant-style fixed-pipeline baseline (Deligiannis et al.).

The published loop shape: feed the compiler/Miri error to the model, apply
the suggested patch, re-check, iterate — with a *fixed* strategy order
(always try safe-replacement first, then assertions, then modification,
regardless of code features), a pattern-matching lookup instead of a learned
knowledge base, rollback-to-initial on error growth, and no feedback. This
isolates exactly the flexibility mechanisms the paper credits RustBrain
with: under the same oracle and detector, only the orchestration differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.agents.rollback import RollbackAgent, RollbackPolicy
from ..core.pipeline import RepairOutcome
from ..core.rewrites import FixKind, REGISTRY, apply_rule
from ..core.view import program_view
from ..engine.registry import apply_config_overrides, register_engine
from ..lang.printer import print_program
from ..llm.client import ContextOverflow, LLMClient, VirtualClock
from ..llm.oracle import CATEGORY_RULE_PRIORS, corrupt_step, extract_features
from ..miri import detect_case

#: The fixed strategy order: replacement → assertion → modification.
_FIXED_KIND_ORDER = (FixKind.REPLACE, FixKind.ASSERT, FixKind.MODIFY)


@dataclass
class RustAssistantConfig:
    model: str = "gpt-4"
    temperature: float = 0.5
    seed: int = 0
    max_iterations: int = 6
    detector_seconds: float = 0.8


class RustAssistant:
    def __init__(self, config: RustAssistantConfig | None = None):
        self.config = config or RustAssistantConfig()
        self._repair_index = 0

    # ------------------------------------------------------------------

    def _fixed_plan(self, predicted_category) -> list[str]:
        """The rigid step list the fixed pipeline always walks.

        One representative rule per fix class, in the fixed order
        replacement → assertion → modification (the lookup takes the *first*
        pattern of each class for the matched error type and never adapts to
        the code's specific characteristics — the paper's central criticism
        of fixed frameworks), padded with one generic fallback per class.
        """
        prior = CATEGORY_RULE_PRIORS.get(predicted_category, [])
        plan: list[str] = []
        for kind in _FIXED_KIND_ORDER:
            for rule_name in prior:
                rule = REGISTRY.get(rule_name)
                if rule is not None and rule.kind is kind:
                    plan.append(rule_name)
                    break  # only the first pattern of each class
        # Generic fallbacks: the same three rules regardless of error type.
        for generic in ("replace_uninit_with_zero_init",
                        "guard_index_with_len_check",
                        "move_drop_after_last_use"):
            if generic not in plan:
                plan.append(generic)
        return plan

    def repair(self, source: str, difficulty: int = 2) -> RepairOutcome:
        config = self.config
        clock = VirtualClock()
        client = LLMClient(config.model, config.temperature,
                           seed=config.seed * 4241 + self._repair_index,
                           clock=clock)
        self._repair_index += 1
        # RustAssistant's prompts carry only the raw diagnostic (no feature
        # extraction context), which yields noticeably lower patch fidelity.
        client._careless_trait = (config.seed * 2654435761
                                  + self._repair_index * 40503) % 100 < 55

        clock.advance(config.detector_seconds)
        report = detect_case(source, collect=True)
        if report.passed:
            return self._outcome(client, True, source, 0, 0, 0, [])
        try:
            view = program_view(source)
        except Exception:
            return self._outcome(client, False, None, 0, 0, 0, [],
                                 reason="unparseable input")
        program = view.tree

        try:
            features = extract_features(client, view.code,
                                        view.unsafe_counts, report)
        except ContextOverflow:
            return self._outcome(client, False, None, 0, 0, 0, [],
                                 reason="exceeds context limit")
        plan = self._fixed_plan(features.predicted_category)

        rollback = RollbackAgent(RollbackPolicy.INITIAL, program,
                                 report.error_count)
        current = program
        current_errors = report.error_count
        steps = 0
        hallucinations = 0
        sequences = [report.error_count]

        for rule_name in plan[: config.max_iterations]:
            execution = corrupt_step(client, rule_name)
            steps += 1
            if execution.hallucinated:
                hallucinations += 1
            candidate = apply_rule(
                current, execution.rule,
                view.tokens if current is program else None)
            if candidate is None:
                continue
            if execution.retouched:
                retouched = apply_rule(candidate, "retouch_output_constant")
                if retouched is not None:
                    candidate = retouched
            clock.advance(config.detector_seconds)
            candidate_source = print_program(candidate)
            verdict = detect_case(candidate_source, collect=True)
            sequences.append(verdict.error_count)
            rollback.observe(candidate, verdict.error_count)
            if verdict.passed:
                return self._outcome(client, True, candidate_source,
                                     steps, hallucinations,
                                     rollback.rollbacks, sequences)
            current, current_errors = rollback.next_base(
                candidate, verdict.error_count)

        return self._outcome(client, False, None, steps, hallucinations,
                             rollback.rollbacks, sequences,
                             reason="iterations exhausted")

    def _outcome(self, client, passed, repaired, steps, hallucinations,
                 rollbacks, sequence, reason=None) -> RepairOutcome:
        return RepairOutcome(
            passed=passed, repaired_source=repaired,
            seconds=client.clock.elapsed,
            tokens=client.stats.total_tokens,
            llm_calls=client.stats.call_count,
            solutions_tried=1, steps_executed=steps,
            hallucinations=hallucinations, rollbacks=rollbacks,
            used_knowledge_base=True, used_feedback=False,
            error_sequences=[sequence] if sequence else [],
            failure_reason=reason,
        )


@register_engine("rustassistant",
                 summary="fixed-pipeline baseline (Deligiannis et al.): "
                         "rigid strategy order, rollback-to-initial, "
                         "no feedback",
                 tags=("baseline",))
def _build_rustassistant(*, model: str = "gpt-4", seed: int = 0,
                         temperature: float = 0.5,
                         **overrides) -> RustAssistant:
    config = RustAssistantConfig(model=model, seed=seed,
                                 temperature=temperature)
    apply_config_overrides(config, overrides)
    return RustAssistant(config)
