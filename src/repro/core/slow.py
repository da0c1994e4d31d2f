"""Slow thinking (stages S1–S2): decompose, execute, verify, roll back.

For each candidate solution, the steps are dispatched to the matching fix
agent, the detector re-verifies after every step, and the adaptive rollback
agent decides what state the next step builds on. When every fast-thinking
solution stalls, the abstract reasoning agent consults the knowledge base
and one refinement round is attempted with the retrieved hints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import ast_nodes as ast
from ..llm.client import LLMClient
from .agents.base import FixAgent
from .agents.rollback import RollbackAgent, RollbackPolicy
from .solution import Solution


@dataclass
class SolutionOutcome:
    solution: Solution
    solved: bool
    final_program: ast.Program | None
    #: The printed ``final_program`` when solved (what was verified).
    final_source: str | None
    steps_executed: int
    hallucinations: int
    rollbacks: int
    error_sequence: list[int]
    applied_rules: list[str] = field(default_factory=list)


class SlowThinking:
    def __init__(self, client: LLMClient,
                 rollback_policy: RollbackPolicy = RollbackPolicy.ADAPTIVE,
                 detector_seconds: float = 0.8,
                 max_steps_per_solution: int = 4):
        self.client = client
        self.rollback_policy = rollback_policy
        self.max_steps = max_steps_per_solution
        self.agents = {
            name: FixAgent(name, client, detector_seconds)
            for name in ("safe_replacement", "assertion", "modification")
        }

    # ------------------------------------------------------------------

    def execute(self, solution: Solution, program: ast.Program,
                initial_errors: int,
                tokens: frozenset[str] | None = None) -> SolutionOutcome:
        """Run one solution's steps to completion or exhaustion.

        ``tokens`` is ``program``'s trigger-token set, if the caller holds
        it; it goes with every step taken on ``program`` itself (the first
        step, and any after a rollback to it), never with a rewrite."""
        rollback = RollbackAgent(self.rollback_policy, program, initial_errors)
        current = program
        current_errors = initial_errors
        executed = 0
        hallucinations = 0
        applied: list[str] = []

        for step in solution.steps[: self.max_steps]:
            agent = self.agents.get(step.agent, self.agents["modification"])
            result = agent.execute(step, current, current_errors,
                                   tokens if current is program else None)
            executed += 1
            if result.hallucinated:
                hallucinations += 1
            if result.program is None:
                # No-op edit; the trajectory records an unchanged count.
                rollback.observe(current, current_errors)
                continue
            applied.append(result.applied_rule)
            rollback.observe(result.program, result.error_count)
            if result.solved:
                return SolutionOutcome(
                    solution, True, result.program, result.source, executed,
                    hallucinations, rollback.rollbacks,
                    rollback.error_sequence, applied)
            current, current_errors = rollback.next_base(
                result.program, result.error_count)

        return SolutionOutcome(
            solution, False, rollback.best.program, None, executed,
            hallucinations, rollback.rollbacks, rollback.error_sequence,
            applied)
