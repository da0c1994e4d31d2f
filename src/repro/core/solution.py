"""Solutions and their decomposition into agent-executable steps (stage S1).

Fast thinking emits *plans* (ordered rule-name lists); stage S1 decomposes
each plan into :class:`Step` objects tagged with the agent class that will
execute them (safe-replacement / assertion / modification), which is how the
paper distributes steps across its three error-fixing agents.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rewrites import FixKind, REGISTRY

_AGENT_BY_KIND = {
    FixKind.REPLACE: "safe_replacement",
    FixKind.ASSERT: "assertion",
    FixKind.MODIFY: "modification",
    FixKind.HALLUCINATION: "modification",  # hallucinations masquerade
}


@dataclass(frozen=True)
class Step:
    rule: str
    agent: str
    #: True when the step is backed by a KB exemplar or a recalled feedback
    #: plan — guided steps copy concrete constants, suppressing drift.
    guided: bool = False

    @classmethod
    def for_rule(cls, rule_name: str, guided: bool = False) -> "Step":
        rule = REGISTRY.get(rule_name)
        agent = _AGENT_BY_KIND[rule.kind] if rule is not None else "modification"
        return cls(rule_name, agent, guided)


@dataclass
class Solution:
    index: int
    steps: list[Step]
    origin: str = "fast_thinking"   # fast_thinking | feedback | knowledge_base

    def rules(self) -> list[str]:
        return [step.rule for step in self.steps]


def decompose(plans: list[list[str]], origin: str = "fast_thinking",
              guided_rules: set[str] | None = None) -> list[Solution]:
    """S1: turn ranked rule-name plans into agent-tagged solutions."""
    guided_rules = guided_rules or set()
    solutions = []
    for index, plan in enumerate(plans):
        steps = [Step.for_rule(rule, guided=rule in guided_rules)
                 for rule in plan]
        solutions.append(Solution(index, steps, origin))
    return solutions
