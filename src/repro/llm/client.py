"""Chat-style client for the simulated models, with cost/latency accounting.

The client is the single funnel through which every "LLM call" in the system
flows: it renders the prompt, counts tokens, advances a *virtual clock* by
the profile's latency model, and hands a per-call seeded RNG to the oracle.
Determinism: the RNG for call *i* is seeded from (global seed, model name,
temperature, i), so an experiment is exactly reproducible.

Being the single funnel also makes this the natural choke point for
transient-failure handling: when a fault plan is active (see
:mod:`repro.engine.faults`), every call may raise an injected
``TransientLLMError``/``TransientLLMTimeout`` *before any accounting* —
no clock advance, no stats entry, no call-index bump — and is retried
with deterministic backoff.  Because the call index only moves on
success, a retried call replays the exact RNG stream the fault-free run
would have used, so recovered outcomes stay byte-identical.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from .profiles import ModelProfile, get_profile
from .tokenizer import DEFAULT_CONTEXT_LIMIT, count_tokens

_resilience_modules = None


def _resilience():
    """Lazily import the fault/retry plane.

    ``repro.engine`` transitively imports ``repro.llm`` (the ensemble
    pulls in model profiles), so a top-level import here would complete
    the cycle back onto a partially-initialized module.  Importing on
    first call breaks it, and caches the modules so the steady-state cost
    is one global read per LLM call.
    """
    global _resilience_modules
    if _resilience_modules is None:
        from ..engine import faults, retry
        _resilience_modules = (faults, retry)
    return _resilience_modules


class ContextOverflow(Exception):
    """Prompt exceeds the model's context limit (§II-A scope rule)."""


class VirtualClock:
    """Accumulates simulated wall-clock seconds (LLM latency, tool runs)."""

    def __init__(self):
        self.elapsed = 0.0

    def advance(self, seconds: float) -> None:
        self.elapsed += max(0.0, seconds)


@dataclass
class LLMCall:
    task: str
    prompt_tokens: int
    completion_tokens: int
    latency: float


@dataclass
class LLMStats:
    calls: list[LLMCall] = field(default_factory=list)

    @property
    def call_count(self) -> int:
        return len(self.calls)

    @property
    def total_tokens(self) -> int:
        return sum(c.prompt_tokens + c.completion_tokens for c in self.calls)

    @property
    def total_latency(self) -> float:
        return sum(c.latency for c in self.calls)


class LLMClient:
    """One conversation endpoint bound to a model profile and temperature."""

    def __init__(self, model: str | ModelProfile = "gpt-4",
                 temperature: float = 0.5, seed: int = 0,
                 clock: VirtualClock | None = None,
                 context_limit: int = DEFAULT_CONTEXT_LIMIT,
                 retry=None):
        self.profile = model if isinstance(model, ModelProfile) \
            else get_profile(model)
        self.temperature = temperature
        self.seed = seed
        self.clock = clock if clock is not None else VirtualClock()
        self.context_limit = context_limit
        #: Policy for injected transient failures; ``None`` means the
        #: stock :data:`repro.engine.retry.LLM_RETRY`.
        self.retry = retry
        self.stats = LLMStats()
        self._call_index = 0

    # ------------------------------------------------------------------

    def rng_for_call(self, task: str, sample: int = 0) -> random.Random:
        """Deterministic per-call RNG: (seed, model, temperature, index).

        ``sample`` distinguishes the completions of one *batched* call;
        sample 0 deliberately shares the key of a plain :meth:`charge` so
        routing an existing single-stream caller through
        :meth:`generate_batch` leaves its outcomes bit-identical.
        """
        suffix = f"#b{sample}" if sample else ""
        key = (f"{self.seed}|{self.profile.name}|{self.temperature:.3f}"
               f"|{self._call_index}|{task}{suffix}")
        digest = hashlib.sha256(key.encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def _check_context(self, prompt: str) -> int:
        """The prompt's token count, counted once; raises
        :class:`ContextOverflow` past the context limit."""
        tokens = count_tokens(prompt)
        if tokens > self.context_limit:
            raise ContextOverflow(
                f"prompt of {tokens} tokens exceeds the "
                f"{self.context_limit}-token context limit")
        return tokens

    def _fault_key(self, task: str) -> str:
        """Injection identity of the *next* call: stable across retries
        (the index only advances on success), unique across calls."""
        return (f"{self.profile.name}|{self.seed}|{self.temperature:.3f}"
                f"|{self._call_index}|{task}")

    def _resilient(self, task: str, operation):
        """Run one accounting operation under the active fault plan.

        Fault-free fast path: no plan active means a single direct call —
        zero retry machinery on the hot path.  With a plan, the injection
        probe fires *before* ``operation`` touches any state, so a failed
        attempt leaves the client untouched and the retry replays the
        identical RNG/clock/stats transition the fault-free run performs.
        """
        faults, retry = _resilience()
        plan = faults.active_plan()
        if not plan.enabled:
            return operation()
        key = self._fault_key(task)

        def attempt_once(attempt: int):
            faults.maybe_inject("llm", key=key, attempt=attempt, plan=plan)
            return operation()

        policy = self.retry if self.retry is not None else retry.LLM_RETRY
        return policy.run(attempt_once, site="llm", key=key,
                          retryable=faults.TransientLLMError)

    def charge(self, task: str, prompt: str,
               completion_tokens: int = 256) -> random.Random:
        """Account for one model invocation and return its RNG.

        Raises :class:`ContextOverflow` for prompts beyond the context limit
        — callers treat the affected program as out of scope, exactly as the
        paper's scope section prescribes.  Injected transient failures (an
        active fault plan's ``llm`` site) are retried with deterministic
        backoff and never perturb the returned RNG stream.
        """
        return self._resilient(
            task, lambda: self._charge_once(task, prompt, completion_tokens))

    def _charge_once(self, task: str, prompt: str,
                     completion_tokens: int) -> random.Random:
        prompt_tokens = self._check_context(prompt)
        latency = (self.profile.latency_base
                   + self.profile.latency_per_ktoken
                   * (prompt_tokens + completion_tokens) / 1000.0)
        self.clock.advance(latency)
        rng = self.rng_for_call(task)
        self.stats.calls.append(LLMCall(task, prompt_tokens,
                                        completion_tokens, latency))
        self._call_index += 1
        return rng

    def generate_batch(self, task: str, prompt: str, n: int,
                       completion_tokens: int = 256) -> list[random.Random]:
        """Sample ``n`` completions of one prompt in a single invocation.

        This is the batched-oracle path (RustAssistant-style candidate
        fan-out): the prompt is ingested **once** and the fixed per-request
        latency is paid **once**, so a batch of ``n`` costs
        ``base + per_ktoken * (prompt + n * completion)`` virtual seconds
        instead of ``n`` full round-trips.  Accounting records one
        :class:`LLMCall` whose completion size is the whole batch.

        Returns one independent deterministic RNG per sample.  Stream 0 is
        identical to what a plain :meth:`charge` at this call index would
        return, which is what lets the repair loop's existing candidate
        generation route through here without perturbing any experiment.
        """
        if n < 1:
            raise ValueError("batch size must be >= 1")
        return self._resilient(
            task,
            lambda: self._generate_batch_once(task, prompt, n,
                                              completion_tokens))

    def _generate_batch_once(self, task: str, prompt: str, n: int,
                             completion_tokens: int) -> list[random.Random]:
        prompt_tokens = self._check_context(prompt)
        latency = (self.profile.latency_base
                   + self.profile.latency_per_ktoken
                   * (prompt_tokens + n * completion_tokens) / 1000.0)
        self.clock.advance(latency)
        rngs = [self.rng_for_call(task, sample) for sample in range(n)]
        self.stats.calls.append(LLMCall(task, prompt_tokens,
                                        n * completion_tokens, latency))
        self._call_index += 1
        return rngs

    def fork(self, seed_offset: int = 1) -> "LLMClient":
        """A client with the same profile/clock but an independent RNG stream."""
        return LLMClient(self.profile, self.temperature,
                         self.seed + seed_offset, self.clock,
                         self.context_limit, retry=self.retry)
