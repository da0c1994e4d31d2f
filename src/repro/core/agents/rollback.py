"""Adaptive rollback and optimal-code-selection agent (§III-B2).

Tracks the (program, error-count) trajectory T = {T0, T1, ...} with the
detector's per-iteration error counts N = {n0, n1, ...}. Three policies:

* ``ADAPTIVE`` (RustBrain): before the next step, roll back to the best
  intermediate state seen so far (fewest errors) — keeping partial progress
  while stopping hallucination-driven error growth.
* ``INITIAL`` (prior debugging frameworks): on error growth, discard all
  progress and return to T0.
* ``NONE``: never roll back — the hallucination-propagation baseline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ...lang import ast_nodes as ast


class RollbackPolicy(enum.Enum):
    ADAPTIVE = "adaptive"
    INITIAL = "initial"
    NONE = "none"


@dataclass
class _State:
    program: ast.Program
    error_count: int


class RollbackAgent:
    def __init__(self, policy: RollbackPolicy, initial_program: ast.Program,
                 initial_errors: int):
        self.policy = policy
        self.initial = _State(initial_program, initial_errors)
        self.best = _State(initial_program, initial_errors)
        self.trajectory: list[int] = [initial_errors]
        self.rollbacks = 0

    def observe(self, program: ast.Program, error_count: int) -> None:
        """Record a new thought Ti with its detected error count ni."""
        self.trajectory.append(error_count)
        if error_count < self.best.error_count:
            self.best = _State(program, error_count)

    def next_base(self, current: ast.Program,
                  current_errors: int) -> tuple[ast.Program, int]:
        """The state the next step should build on, per the policy."""
        if self.policy is RollbackPolicy.NONE:
            return current, current_errors
        if self.policy is RollbackPolicy.INITIAL:
            if current_errors > self.initial.error_count:
                self.rollbacks += 1
                return self.initial.program, self.initial.error_count
            return current, current_errors
        # ADAPTIVE: continue from the optimal state seen so far.
        if current_errors > self.best.error_count:
            self.rollbacks += 1
            return self.best.program, self.best.error_count
        return current, current_errors

    @property
    def error_sequence(self) -> list[int]:
        return list(self.trajectory)
