"""Tests for the stochastic repair oracle."""

from collections import Counter

import pytest

from repro.core.rewrites import FixKind, REGISTRY
from repro.core.view import program_view
from repro.corpus.dataset import load_dataset
from repro.llm.client import LLMClient
from repro.llm.oracle import (
    CATEGORY_RULE_PRIORS,
    CONFUSABLE,
    corrupt_step,
    extract_features,
    rank_candidate_rules,
)
from repro.miri import detect_ub
from repro.miri.errors import UbKind


def sample_case():
    return load_dataset().get("uninit_assume_init_1")


class TestPriors:
    def test_every_paper_category_has_priors(self):
        from repro.miri.errors import PAPER_CATEGORIES
        for category in PAPER_CATEGORIES:
            assert CATEGORY_RULE_PRIORS.get(category), category

    def test_priors_reference_registered_rules(self):
        for rules in CATEGORY_RULE_PRIORS.values():
            for rule in rules:
                assert rule in REGISTRY

    def test_priors_contain_no_hallucinations(self):
        for rules in CATEGORY_RULE_PRIORS.values():
            for rule in rules:
                assert REGISTRY[rule].kind is not FixKind.HALLUCINATION

    def test_confusable_symmetric_enough(self):
        # Every confusable target is itself a real category with priors.
        for sources in CONFUSABLE.values():
            for category in sources:
                assert category in CATEGORY_RULE_PRIORS


class TestFeatureExtraction:
    def test_true_category_always_recorded(self):
        case = sample_case()
        view = program_view(case.source)
        report = detect_ub(case.source, collect=True)
        client = LLMClient("gpt-4", seed=1)
        features = extract_features(client, view.code, view.unsafe_counts,
                                    report)
        assert features.true_category is UbKind.UNINIT

    def test_prediction_mostly_correct_for_strong_model(self):
        case = sample_case()
        view = program_view(case.source)
        report = detect_ub(case.source, collect=True)
        correct = 0
        for seed in range(40):
            client = LLMClient("gpt-4", seed=seed)
            features = extract_features(client, view.code,
                                        view.unsafe_counts, report)
            correct += features.correct
        assert correct >= 28  # ≈ feature_accuracy

    def test_weak_model_misclassifies_more(self):
        case = sample_case()
        view = program_view(case.source)
        report = detect_ub(case.source, collect=True)
        wrong35 = wrong4 = 0
        for seed in range(60):
            f35 = extract_features(LLMClient("gpt-3.5", seed=seed),
                                   view.code, view.unsafe_counts, report)
            f4 = extract_features(LLMClient("gpt-4", seed=seed),
                                  view.code, view.unsafe_counts, report)
            wrong35 += not f35.correct
            wrong4 += not f4.correct
        assert wrong35 > wrong4

    def test_misprediction_lands_on_confusable(self):
        case = sample_case()
        view = program_view(case.source)
        report = detect_ub(case.source, collect=True)
        for seed in range(60):
            features = extract_features(LLMClient("gpt-3.5", seed=seed),
                                        view.code, view.unsafe_counts,
                                        report)
            if not features.correct:
                assert features.predicted_category in \
                    CONFUSABLE[features.true_category]

    def test_extraction_charges_a_call(self):
        case = sample_case()
        view = program_view(case.source)
        report = detect_ub(case.source, collect=True)
        client = LLMClient("gpt-4", seed=1)
        extract_features(client, view.code, view.unsafe_counts, report)
        assert client.stats.call_count == 1
        assert client.clock.elapsed > 0


class TestSolutionRanking:
    def _features(self, client):
        case = sample_case()
        view = program_view(case.source)
        report = detect_ub(case.source, collect=True)
        return (extract_features(client, view.code, view.unsafe_counts,
                                 report), view.code)

    def test_returns_requested_number_of_plans(self):
        client = LLMClient("gpt-4", seed=1)
        features, code = self._features(client)
        plans = rank_candidate_rules(client, features, code, 6)
        assert len(plans) == 6
        assert all(plans)

    def test_plans_are_rule_names(self):
        client = LLMClient("gpt-4", seed=1)
        features, code = self._features(client)
        for plan in rank_candidate_rules(client, features, code, 4):
            for rule in plan:
                assert rule in REGISTRY

    def test_strong_model_leads_with_prior(self):
        hits = 0
        for seed in range(30):
            client = LLMClient("gpt-4", seed=seed)
            features, code = self._features(client)
            plans = rank_candidate_rules(client, features, code, 1)
            prior = CATEGORY_RULE_PRIORS[features.predicted_category]
            hits += plans[0][0] in prior
        assert hits >= 15

    def test_feedback_rules_lead_first_plan(self):
        client = LLMClient("gpt-4", seed=1)
        features, code = self._features(client)
        plans = rank_candidate_rules(
            client, features, code, 3,
            feedback_rules=["write_before_assume_init"])
        assert plans[0][0] == "write_before_assume_init"

    def test_deterministic_given_seed(self):
        def run(seed):
            client = LLMClient("gpt-4", seed=seed)
            features, code = self._features(client)
            return rank_candidate_rules(client, features, code, 5)
        assert run(9) == run(9)
        assert run(9) != run(10) or run(9) != run(11)


class TestCorruptStep:
    def test_hallucination_rate_scales_with_model(self):
        counts = {}
        for model in ("gpt-3.5", "gpt-4"):
            hallucinated = 0
            for seed in range(120):
                client = LLMClient(model, seed=seed)
                execution = corrupt_step(client, "move_drop_after_last_use")
                hallucinated += execution.hallucinated
            counts[model] = hallucinated
        assert counts["gpt-3.5"] > counts["gpt-4"]

    def test_hallucinated_rule_is_a_hallucination_rule(self):
        from repro.core.rewrites import HALLUCINATION_RULES
        for seed in range(120):
            client = LLMClient("gpt-3.5", seed=seed)
            execution = corrupt_step(client, "move_drop_after_last_use")
            if execution.hallucinated:
                assert execution.rule in HALLUCINATION_RULES

    def test_guided_steps_drift_less(self):
        drift_guided = drift_unguided = 0
        for seed in range(200):
            client_a = LLMClient("gpt-3.5", seed=seed)
            client_b = LLMClient("gpt-3.5", seed=seed)
            a = corrupt_step(client_a, "guard_index_with_len_check",
                             guided=True)
            b = corrupt_step(client_b, "guard_index_with_len_check",
                             guided=False)
            drift_guided += a.rule.startswith("sloppy_") or a.retouched
            drift_unguided += b.rule.startswith("sloppy_") or b.retouched
        assert drift_guided < drift_unguided

    def test_carelessness_is_sticky_per_client(self):
        client = LLMClient("gpt-3.5", seed=5)
        from repro.llm.oracle import _is_careless
        first = _is_careless(client)
        assert all(_is_careless(client) == first for _ in range(10))


class TestGeneratePlanBatch:
    def _features(self, client):
        from repro.miri import detect_ub
        case = load_dataset().get("uninit_assume_init_1")
        view = program_view(case.source)
        report = detect_ub(case.source, collect=True)
        return view.code, extract_features(client, view.code,
                                           view.unsafe_counts, report)

    def test_batch_returns_n_plans(self):
        from repro.llm.oracle import generate_plan_batch
        client = LLMClient("gpt-4", seed=3)
        code, features = self._features(client)
        plans = generate_plan_batch(client, features, code, 5)
        assert len(plans) == 5
        assert all(isinstance(plan, list) for plan in plans)

    def test_batch_is_deterministic(self):
        from repro.llm.oracle import generate_plan_batch
        first = LLMClient("gpt-4", seed=3)
        code, features = self._features(first)
        second = LLMClient("gpt-4", seed=3)
        _, features2 = self._features(second)
        assert generate_plan_batch(first, features, code, 4) == \
            generate_plan_batch(second, features2, code, 4)

    def test_batch_accounts_single_generation_call(self):
        from repro.llm.oracle import generate_plan_batch
        client = LLMClient("gpt-4", seed=3)
        code, features = self._features(client)
        before = client.stats.call_count
        generate_plan_batch(client, features, code, 6)
        assert client.stats.call_count == before + 1

    def test_samples_can_disagree(self):
        # Independent streams: across seeds, a batch is not n copies of
        # one plan (the Fig. 11 exploration effect needs diversity).
        from repro.llm.oracle import generate_plan_batch
        diverse = False
        for seed in range(8):
            client = LLMClient("gpt-4", seed=seed, temperature=0.9)
            code, features = self._features(client)
            plans = generate_plan_batch(client, features, code, 6)
            if len({tuple(plan) for plan in plans}) > 1:
                diverse = True
                break
        assert diverse

    def test_explicit_rng_skips_charging(self):
        import random
        client = LLMClient("gpt-4", seed=3)
        code, features = self._features(client)
        before = client.stats.call_count
        plans = rank_candidate_rules(client, features, code, 1,
                                     rng=random.Random(7))
        assert client.stats.call_count == before
        assert len(plans) == 1

    def test_zero_solutions_yields_empty_plan_list(self):
        # n_solutions=0 is a valid (if degenerate) config; it must not
        # reach the batch layer's n >= 1 guard mid-campaign.
        from repro.llm.oracle import generate_plan_batch
        client = LLMClient("gpt-4", seed=3)
        code, features = self._features(client)
        assert rank_candidate_rules(client, features, code, 0) == []
        assert generate_plan_batch(client, features, code, 0) == []
