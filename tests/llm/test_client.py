"""Tests for the simulated-LLM client, profiles, sampling and tokenizer."""

import pytest

from repro.llm import client as client_module, tokenizer
from repro.llm.client import ContextOverflow, LLMClient, VirtualClock
from repro.llm.profiles import PROFILES, get_profile
from repro.llm.sampling import (
    diversity_count,
    exploration_factor,
    fidelity_factor,
    hallucination_factor,
)
from repro.llm.tokenizer import count_tokens, exceeds_context


class TestProfiles:
    def test_all_four_models_present(self):
        assert set(PROFILES) == {"gpt-3.5", "gpt-4", "claude-3.5", "gpt-o1"}

    def test_get_profile_unknown_raises(self):
        with pytest.raises(KeyError):
            get_profile("gpt-9")

    def test_gpt4_stronger_than_gpt35(self):
        weak, strong = get_profile("gpt-3.5"), get_profile("gpt-4")
        assert strong.repair_skill > weak.repair_skill
        assert strong.feature_accuracy > weak.feature_accuracy
        assert strong.hallucination_rate < weak.hallucination_rate

    def test_o1_has_panic_weakness(self):
        from repro.miri.errors import UbKind
        o1 = get_profile("gpt-o1")
        assert o1.category_skill.get(UbKind.PANIC, 1.0) < 0.7

    def test_skill_for_applies_difficulty_penalty(self):
        from repro.miri.errors import UbKind
        profile = get_profile("gpt-4")
        easy = profile.skill_for(UbKind.ALLOC, 1)
        hard = profile.skill_for(UbKind.ALLOC, 5)
        assert hard < easy


class TestSampling:
    def test_exploration_peaks_at_half(self):
        assert exploration_factor(0.5) > exploration_factor(0.1)
        assert exploration_factor(0.5) > exploration_factor(0.9)

    def test_exploration_symmetric(self):
        assert exploration_factor(0.2) == pytest.approx(exploration_factor(0.8))

    def test_fidelity_decreases_with_temperature(self):
        assert fidelity_factor(0.1) > fidelity_factor(0.9)

    def test_hallucination_increases_with_temperature(self):
        assert hallucination_factor(0.9) > hallucination_factor(0.1)

    def test_diversity_scales_with_temperature(self):
        assert diversity_count(0.9, 10) >= diversity_count(0.1, 10)
        assert diversity_count(0.1, 10) >= 1

    def test_clamping(self):
        assert exploration_factor(-1) == exploration_factor(0)
        assert exploration_factor(2) == exploration_factor(1)


class TestTokenizer:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_monotone_in_length(self):
        assert count_tokens("a" * 400) > count_tokens("a" * 40)

    def test_context_limit(self):
        assert not exceeds_context("short prompt")
        assert exceeds_context("word " * 100_000)


class TestClient:
    def test_charge_advances_clock(self):
        client = LLMClient("gpt-4", seed=1)
        client.charge("task", "prompt text")
        assert client.clock.elapsed > 0
        assert client.stats.call_count == 1

    def test_latency_scales_with_tokens(self):
        fast = LLMClient("gpt-4", seed=1)
        slow = LLMClient("gpt-4", seed=1)
        fast.charge("t", "short")
        slow.charge("t", "long " * 2000)
        assert slow.clock.elapsed > fast.clock.elapsed

    def test_context_overflow_raises(self):
        client = LLMClient("gpt-4", seed=1, context_limit=100)
        with pytest.raises(ContextOverflow):
            client.charge("t", "word " * 1000)

    @pytest.mark.parametrize("limit", [16_384, 100],
                             ids=["fits", "overflows"])
    def test_charge_counts_its_prompt_once(self, monkeypatch, limit):
        counted = []

        def counting(text):
            counted.append(text)
            return count_tokens(text)

        # Both bindings: exceeds_context counts through the tokenizer's.
        monkeypatch.setattr(tokenizer, "count_tokens", counting)
        monkeypatch.setattr(client_module, "count_tokens", counting)
        client = LLMClient("gpt-4", seed=1, context_limit=limit)
        prompt = "word " * 1000
        try:
            client.charge("t", prompt)
        except ContextOverflow as overflow:
            assert str(count_tokens(prompt)) in str(overflow)
        assert counted == [prompt]

    def test_rng_deterministic_per_call_index(self):
        a = LLMClient("gpt-4", seed=7)
        b = LLMClient("gpt-4", seed=7)
        ra = a.charge("t", "x").random()
        rb = b.charge("t", "x").random()
        assert ra == rb

    def test_rng_differs_across_calls(self):
        client = LLMClient("gpt-4", seed=7)
        first = client.charge("t", "x").random()
        second = client.charge("t", "x").random()
        assert first != second

    def test_rng_differs_across_seeds(self):
        a = LLMClient("gpt-4", seed=1).charge("t", "x").random()
        b = LLMClient("gpt-4", seed=2).charge("t", "x").random()
        assert a != b

    def test_shared_clock(self):
        clock = VirtualClock()
        a = LLMClient("gpt-4", seed=1, clock=clock)
        b = LLMClient("gpt-4", seed=2, clock=clock)
        a.charge("t", "x")
        b.charge("t", "x")
        assert clock.elapsed == pytest.approx(
            a.stats.total_latency + b.stats.total_latency)

    def test_fork_independent_stream(self):
        client = LLMClient("gpt-4", seed=1)
        fork = client.fork()
        assert fork.seed != client.seed
        assert fork.clock is client.clock


class TestGenerateBatch:
    """Batched sampling: one invocation, n independent streams."""

    def test_stream_zero_matches_plain_charge(self):
        # Routing a single-stream caller through generate_batch must be
        # invisible: sample 0 is the exact RNG charge() would have handed
        # out at the same call index.
        a = LLMClient("gpt-4", seed=7)
        b = LLMClient("gpt-4", seed=7)
        plain = a.charge("solution_generation", "prompt", 120)
        batch = b.generate_batch("solution_generation", "prompt", 5, 120)
        assert plain.random() == batch[0].random()

    def test_streams_are_distinct_and_deterministic(self):
        a = LLMClient("gpt-4", seed=7)
        b = LLMClient("gpt-4", seed=7)
        first = [rng.random() for rng in a.generate_batch("t", "x", 4)]
        second = [rng.random() for rng in b.generate_batch("t", "x", 4)]
        assert first == second
        assert len(set(first)) == 4

    def test_single_llm_call_accounted(self):
        client = LLMClient("gpt-4", seed=1)
        client.generate_batch("t", "x", 6, completion_tokens=100)
        assert client.stats.call_count == 1
        assert client.stats.calls[0].completion_tokens == 600

    def test_latency_amortized_vs_sequential(self):
        batched = LLMClient("gpt-4", seed=1)
        sequential = LLMClient("gpt-4", seed=1)
        batched.generate_batch("t", "prompt words here", 6, 100)
        for _ in range(6):
            sequential.charge("t", "prompt words here", 100)
        assert batched.clock.elapsed < sequential.clock.elapsed

    def test_matches_charge_accounting_for_equivalent_tokens(self):
        # A batch of n samples costs exactly what one charge with
        # n * completion_tokens costs — the identity that keeps seeded
        # experiments bit-identical when routed through the batch path.
        batched = LLMClient("gpt-4", seed=1)
        merged = LLMClient("gpt-4", seed=1)
        batched.generate_batch("t", "same prompt", 4, 120)
        merged.charge("t", "same prompt", 480)
        assert batched.clock.elapsed == pytest.approx(merged.clock.elapsed)
        assert batched.stats.total_tokens == merged.stats.total_tokens

    def test_advances_call_index_once(self):
        client = LLMClient("gpt-4", seed=7)
        client.generate_batch("t", "x", 3)
        other = LLMClient("gpt-4", seed=7)
        other.charge("t", "x")
        assert client.charge("t", "y").random() == \
            other.charge("t", "y").random()

    def test_context_overflow_raises(self):
        client = LLMClient("gpt-4", seed=1, context_limit=100)
        with pytest.raises(ContextOverflow):
            client.generate_batch("t", "word " * 1000, 3)

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            LLMClient("gpt-4", seed=1).generate_batch("t", "x", 0)
