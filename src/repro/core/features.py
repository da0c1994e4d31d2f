"""Fast-thinking feature extraction (stage F2).

Combines the simulated LLM's (noisy) classification with the deterministic
AST embedding used by the knowledge base and the feedback memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..llm.client import LLMClient
from ..llm.oracle import ExtractedFeatures, extract_features
from ..miri.errors import MiriReport
from .view import ProgramView


@dataclass(frozen=True)
class CaseFeatures:
    """Everything fast thinking knows about the failing program."""

    extracted: ExtractedFeatures
    vector: np.ndarray          # embedding of the (pruned) AST, read-only


def analyse(client: LLMClient, view: ProgramView,
            report: MiriReport, use_pruning: bool = True) -> CaseFeatures:
    """Run feature extraction: one LLM call plus the view's embedding."""
    extracted = extract_features(client, view.code, view.unsafe_counts,
                                 report)
    vector = view.pruned_vector(report.errors) if use_pruning \
        else view.vector
    return CaseFeatures(extracted=extracted, vector=vector)
