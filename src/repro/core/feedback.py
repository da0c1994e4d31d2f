"""Feedback mechanism between slow and fast thinking (§III-C).

After slow thinking verifies a repair, the (error-feature-vector → plan)
pair is stored. When fast thinking later meets a similar error (cosine
similarity of pruned-AST embeddings above threshold, same predicted
category), the remembered plan is replayed first — which is the paper's
self-learning loop: precise solutions for similar errors with *reduced
dependency on the knowledge base* (the red cells of Table I).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..miri.errors import UbKind
from .knowledge import cosine

SIMILARITY_THRESHOLD = 0.88


@dataclass
class FeedbackEntry:
    vector: np.ndarray
    category: UbKind
    rules: list[str]
    wins: int = 1


@dataclass
class FeedbackStats:
    lookups: int = 0
    hits: int = 0
    learned: int = 0


class FeedbackMemory:
    """Cross-repair memory shared by one RustBrain instance."""

    def __init__(self, threshold: float = SIMILARITY_THRESHOLD):
        self.threshold = threshold
        self.entries: list[FeedbackEntry] = []
        self.stats = FeedbackStats()

    def __len__(self) -> int:
        return len(self.entries)

    def recall(self, vector: np.ndarray,
               category: UbKind) -> list[str] | None:
        """Rules that previously repaired a similar error, or None."""
        self.stats.lookups += 1
        best: FeedbackEntry | None = None
        best_score = self.threshold
        for entry in self.entries:
            if entry.category is not category:
                continue
            score = cosine(vector, entry.vector)
            if score >= best_score:
                best = entry
                best_score = score
        if best is None:
            return None
        self.stats.hits += 1
        return list(best.rules)

    def learn(self, vector: np.ndarray, category: UbKind,
              rules: list[str]) -> None:
        """Store (or reinforce) a verified repair plan."""
        for entry in self.entries:
            if entry.category is category and entry.rules == rules \
                    and cosine(vector, entry.vector) >= self.threshold:
                entry.wins += 1
                return
        self.entries.append(FeedbackEntry(vector, category, list(rules)))
        self.stats.learned += 1
