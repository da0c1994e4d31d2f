"""Dataset case model.

A :class:`UbCase` mirrors one entry of the Miri-test-suite dataset the paper
evaluates on: a buggy program that triggers a specific UB category, the
developer-repaired reference (which defines "acceptable semantics" for the
*exec* metric, exactly as §II-A describes), and the repair strategies that
genuinely fix it — used by the corpus self-tests and as the ground truth the
simulated LLM oracle is *scored against* (never handed directly).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from ..miri.errors import UbKind


@dataclass(frozen=True)
class Strategy:
    """One genuinely-viable repair for a case.

    ``exact`` marks strategies whose repaired program is observably
    equivalent to the developer reference (→ counts for the *exec* rate);
    non-exact strategies pass Miri but change observable behaviour
    (→ counts only for the *pass* rate).
    """

    rule: str
    exact: bool = True


@dataclass(frozen=True)
class UbCase:
    name: str
    category: UbKind
    description: str
    source: str
    fixed_source: str
    strategies: tuple[Strategy, ...]
    #: 1 (mechanical) .. 5 (requires deep semantic understanding). Drives the
    #: simulated-LLM difficulty model and the human-expert timing model.
    difficulty: int = 2
    #: For ``UbKind.COMPILE`` cases only: the stable checker code
    #: (``"E0xxx"``) the buggy source is labelled with.  ``None`` for the
    #: dynamic-UB corpus, whose sources all check clean.
    expected_code: str | None = None

    def strategy_rules(self) -> list[str]:
        return [s.rule for s in self.strategies]


#: Benign filler statements (no unsafe ops, literal-only arithmetic, no IO)
#: mixed into every case. Real-world functions carry plenty of logic that is
#: irrelevant to the UB — this is precisely the noise Algorithm 1 prunes.
_DISTRACTOR_POOL = [
    "let aux_rate = {a} * 3 + 1;",
    "let aux_span = {a} + {b};",
    "let mut aux_total = 0;\n"
    "    for aux_i in 0..{b} {{\n"
    "        aux_total += aux_i * 2;\n"
    "    }}",
    "let aux_half = {a} / 2;",
    "let aux_flag = {a} > {b};",
    "let aux_mask = ({a} << 2) | 1;",
    "let aux_label = \"phase-{b}\";",
    "let aux_delta = {a} - {b} + 4;",
]


def distractor_block(rng: random.Random, prefix: str = "aux") -> str:
    """Benign filler statements drawn from ``rng``.

    ``prefix`` replaces the pool's ``aux`` stem, so callers (the corpus
    generator) can inject several independent blocks into one program
    without name collisions.
    """
    count = rng.randint(2, 4)
    picks = rng.sample(range(len(_DISTRACTOR_POOL)), count)
    lines = []
    for pick in sorted(picks):
        a, b = rng.randint(2, 9), rng.randint(2, 9)
        text = _DISTRACTOR_POOL[pick].format(a=a, b=b)
        if prefix != "aux":
            text = text.replace("aux_", f"{prefix}_")
        lines.append("    " + text)
    return "\n".join(lines)


def _distractors(case_name: str) -> str:
    """Deterministic filler block derived from the case name."""
    digest = hashlib.blake2b(case_name.encode(), digest_size=8).digest()
    return distractor_block(random.Random(int.from_bytes(digest, "big")))


def inject_preamble(source: str, preamble: str) -> str:
    """Insert the filler right after ``fn main() {``."""
    marker = "fn main() {"
    index = source.find(marker)
    if index == -1:
        return source
    insert_at = index + len(marker)
    newline = source.find("\n", insert_at)
    if newline == -1:
        return source
    return source[: newline + 1] + preamble + "\n" + source[newline + 1 :]


def make_cases(prefix: str, category: UbKind, description: str,
               template: str, fixed_template: str,
               strategies: tuple[Strategy, ...],
               variants: list[dict], difficulty: int = 2,
               distractors: bool = True) -> list[UbCase]:
    """Instantiate several concrete cases from one buggy/fixed template pair.

    Mirrors how the Miri test suite contains many small variations of each
    failure pattern; distinct names/constants give each case a distinct AST
    (exercising the knowledge base's similarity search, not string equality).
    Each case also receives deterministic benign filler statements so that
    programs contain UB-irrelevant context, as real code does.
    """
    cases = []
    for index, subs in enumerate(variants):
        name = f"{prefix}_{index + 1}"
        source = template.format(**subs)
        fixed = fixed_template.format(**subs)
        if distractors:
            preamble = _distractors(name)
            source = inject_preamble(source, preamble)
            fixed = inject_preamble(fixed, preamble)
        cases.append(UbCase(
            name=name,
            category=category,
            description=description,
            source=source,
            fixed_source=fixed,
            strategies=strategies,
            difficulty=difficulty,
        ))
    return cases
