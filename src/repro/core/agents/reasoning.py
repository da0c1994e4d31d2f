"""Abstract reasoning agent (§III-B3).

When the fix agents stall, this agent performs the paper's pipeline:
LLM-extracts the AST (charged as a model call — the paper deliberately uses
the LLM instead of ``syn``), prunes it with Algorithm 1, vectorizes it, and
queries the knowledge base for repair exemplars of similar error-prone AST
structures. The matching rules are handed back as prompt hints.  The printed
code and the embedding come from the input's
:class:`~repro.core.view.ProgramView`, so each is computed once per source.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...llm.client import LLMClient
from ...miri.errors import MiriError
from ..knowledge import KnowledgeBase
from ..view import ProgramView

_AST_PROMPT = """Extract the abstract syntax tree of this Rust code, \
preserving semantic context. Locate the unsafe regions and the error cause.

### Code
{code}

### Errors
{errors}
"""


@dataclass
class ReasoningHint:
    rules: list[str]
    similarity: float


class AbstractReasoningAgent:
    def __init__(self, client: LLMClient, kb: KnowledgeBase,
                 use_pruning: bool = True):
        self.client = client
        self.kb = kb
        self.use_pruning = use_pruning
        self.invocations = 0

    def consult(self, view: ProgramView,
                errors: list[MiriError]) -> ReasoningHint:
        self.invocations += 1
        error_text = "\n".join(e.message for e in errors) or "(none)"
        # The AST-extraction model call: this is where the KB's 2x-4x
        # overhead (Fig. 7) comes from.
        self.client.charge("ast_extraction",
                           _AST_PROMPT.format(code=view.code,
                                              errors=error_text),
                           completion_tokens=1400)
        vector = view.pruned_vector(errors) if self.use_pruning \
            else view.vector
        matches = self.kb.query(vector, k=3)
        if matches:
            # Integrating retrieved exemplars into the working prompt is a
            # second model call — the rest of the KB's 2x-4x overhead.
            snippets = "\n".join(entry.snippet for entry, _ in matches[:2])
            self.client.charge("exemplar_integration", snippets,
                               completion_tokens=1100)
        rules = []
        for entry, _score in matches:
            if entry.rule not in rules:
                rules.append(entry.rule)
        top = matches[0][1] if matches else 0.0
        return ReasoningHint(rules=rules, similarity=top)
