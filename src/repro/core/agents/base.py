"""Error-fixing agents: execute one repair step and verify with the detector.

A :class:`FixAgent` wraps one of the paper's three repair classes. Executing
a step is a genuine transaction: ask the oracle how faithfully the model
applies the planned rewrite (possibly substituting a hallucination), apply
the rewrite to the AST, re-run the detector in collect mode, and report the
resulting program + error count. Nothing here consults ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...lang import ast_nodes as ast
from ...lang.printer import print_program
from ...llm.client import LLMClient
from ...llm.oracle import corrupt_step
from ...miri import detect_case
from ...miri.errors import MiriReport
from ..rewrites import apply_rule
from ..solution import Step


@dataclass
class AgentResult:
    step: Step
    applied_rule: str | None      # None when the pattern wasn't present
    hallucinated: bool
    program: ast.Program | None   # transformed program, or None if no-op
    report: MiriReport | None     # detector verdict on the transformed program
    error_count: int
    source: str | None = None     # the printed program the detector checked

    @property
    def solved(self) -> bool:
        return self.report is not None and self.report.passed


class FixAgent:
    """One of: safe_replacement / assertion / modification."""

    def __init__(self, name: str, client: LLMClient,
                 detector_seconds: float = 0.8):
        self.name = name
        self.client = client
        self.detector_seconds = detector_seconds
        self.steps_executed = 0
        self.hallucinations = 0

    def execute(self, step: Step, program: ast.Program,
                baseline_errors: int,
                tokens: frozenset[str] | None = None) -> AgentResult:
        """Apply one step and verify. The LLM call is charged here.
        ``tokens`` is ``program``'s trigger-token set, when known."""
        execution = corrupt_step(self.client, step.rule, guided=step.guided,
                                 orchestrated=True)
        self.steps_executed += 1
        if execution.hallucinated:
            self.hallucinations += 1
        transformed = apply_rule(program, execution.rule, tokens)
        if transformed is None:
            # Pattern absent: the model produced a no-op edit.
            return AgentResult(step, None, execution.hallucinated, None, None,
                               baseline_errors)
        if execution.retouched:
            retouched = apply_rule(transformed, "retouch_output_constant")
            if retouched is not None:
                transformed = retouched
        # The clock charges every verification in full (a real sequential
        # run would pay it); the detector memo only saves wall-clock work
        # when candidates coincide.
        self.client.clock.advance(self.detector_seconds)
        source = print_program(transformed)
        report = detect_case(source, collect=True)
        return AgentResult(step, execution.rule, execution.hallucinated,
                           transformed, report, report.error_count, source)
