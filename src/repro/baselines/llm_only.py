"""Standalone-LLM repair baseline ("GPT-4 alone" in Fig. 8/9).

A single prompt with the code and the Miri error; the model proposes one
fix, which is applied and checked once (plus one retry — the typical
ask-the-chatbot workflow). No decomposition, no rollback, no knowledge base,
no feedback: whatever the model's first instincts produce is the answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.rewrites import apply_rule
from ..core.pipeline import RepairOutcome
from ..core.view import program_view
from ..engine.registry import apply_config_overrides, register_engine
from ..lang.printer import print_program
from ..llm.client import ContextOverflow, LLMClient, VirtualClock
from ..llm.oracle import (corrupt_step, extract_features,
                          generate_plan_batch, rank_candidate_rules)
from ..miri import detect_case


@dataclass
class LLMOnlyConfig:
    model: str = "gpt-4"
    temperature: float = 0.5
    seed: int = 0
    attempts: int = 3
    detector_seconds: float = 0.8
    #: Sample every attempt's candidate plan in ONE batched oracle call
    #: (features extracted once, prompt ingested once) instead of a full
    #: extract+generate round-trip per attempt.  Off by default so the
    #: seeded Fig. 8/9 baseline numbers stay bit-identical; campaigns opt
    #: in with ``llm_only?batched=on``.
    batched: bool = False


class LLMOnlyRepair:
    def __init__(self, config: LLMOnlyConfig | None = None):
        self.config = config or LLMOnlyConfig()
        self._repair_index = 0

    def repair(self, source: str, difficulty: int = 2) -> RepairOutcome:
        config = self.config
        clock = VirtualClock()
        client = LLMClient(config.model, config.temperature,
                           seed=config.seed * 6037 + self._repair_index,
                           clock=clock)
        self._repair_index += 1

        clock.advance(config.detector_seconds)
        report = detect_case(source, collect=True)
        if report.passed:
            return self._outcome(client, True, source, 0, 0)
        try:
            view = program_view(source)
        except Exception:
            return self._outcome(client, False, None, 0, 0,
                                 reason="unparseable input")

        steps = 0
        hallucinations = 0
        plan_batch: list[list[str]] | None = None
        if config.batched:
            # Batched fan-out: one feature extraction, then every attempt's
            # candidate sampled from a single generate_batch invocation.
            try:
                features = extract_features(client, view.code,
                                            view.unsafe_counts, report)
                plan_batch = generate_plan_batch(client, features, view.code,
                                                 config.attempts, difficulty)
            except ContextOverflow:
                return self._outcome(client, False, None, steps,
                                     hallucinations,
                                     reason="exceeds context limit")
        for attempt in range(config.attempts):
            if plan_batch is not None:
                plans = [plan_batch[attempt]]
            else:
                try:
                    features = extract_features(client, view.code,
                                                view.unsafe_counts, report)
                except ContextOverflow:
                    return self._outcome(client, False, None, steps,
                                         hallucinations,
                                         reason="exceeds context limit")
                plans = rank_candidate_rules(client, features, view.code, 1,
                                             difficulty=difficulty)
            if not plans or not plans[0]:
                continue
            execution = corrupt_step(client, plans[0][0])
            steps += 1
            if execution.hallucinated:
                hallucinations += 1
            # Every candidate rewrites the input itself: the view's
            # tokens let an absent pattern skip the clone.
            candidate = apply_rule(view.tree, execution.rule, view.tokens)
            if candidate is None:
                continue
            if execution.retouched:
                retouched = apply_rule(candidate, "retouch_output_constant")
                if retouched is not None:
                    candidate = retouched
            clock.advance(config.detector_seconds)
            repaired_source = print_program(candidate)
            verdict = detect_case(repaired_source)
            if verdict.passed:
                return self._outcome(client, True, repaired_source, steps,
                                     hallucinations)
        return self._outcome(client, False, None, steps, hallucinations,
                             reason="attempts exhausted")

    def _outcome(self, client, passed, repaired, steps, hallucinations,
                 reason=None) -> RepairOutcome:
        return RepairOutcome(
            passed=passed, repaired_source=repaired,
            seconds=client.clock.elapsed,
            tokens=client.stats.total_tokens,
            llm_calls=client.stats.call_count,
            solutions_tried=steps, steps_executed=steps,
            hallucinations=hallucinations, rollbacks=0,
            used_knowledge_base=False, used_feedback=False,
            failure_reason=reason,
        )


@register_engine("llm_only",
                 summary="single-prompt ask-the-chatbot baseline "
                         "('GPT-4 alone' in Fig. 8/9)",
                 tags=("baseline",))
def _build_llm_only(*, model: str = "gpt-4", seed: int = 0,
                    temperature: float = 0.5, **overrides) -> LLMOnlyRepair:
    config = LLMOnlyConfig(model=model, seed=seed, temperature=temperature)
    apply_config_overrides(config, overrides)
    return LLMOnlyRepair(config)
