"""Ensemble engines: member grammar, strategies, determinism, caching."""

import json

import pytest

from repro.corpus.dataset import Dataset, load_dataset
from repro.engine import (Campaign, CampaignObserver, EngineConfigError,
                          MemberFinished, ResultCache, SpecError,
                          create_engine, member_seed, parse_member,
                          parse_members, parse_routes, parse_weights)
from repro.engine.ensemble import (DEFAULT_MEMBERS, ENSEMBLE_KINDS,
                                   EnsembleEngine)
from repro.llm.profiles import PROFILES
from repro.miri.errors import UbKind

SEED = 3
ENSEMBLES = ["portfolio", "cascade", "switch"]


@pytest.fixture(scope="module")
def dataset():
    return load_dataset().subset([UbKind.UNINIT, UbKind.PANIC,
                                  UbKind.STACK_BORROW])


@pytest.fixture(scope="module")
def small(dataset):
    return Dataset(tuple(list(dataset)[:6]))


# ---------------------------------------------------------------------------
# Member grammar


class TestMemberGrammar:
    def test_plain_member(self):
        member = parse_member("rustbrain")
        assert member.spec.name == "rustbrain"
        assert member.model is None

    def test_model_suffix(self):
        member = parse_member("llm_only:claude-3.5")
        assert member.spec.name == "llm_only"
        assert member.model == "claude-3.5"

    def test_params_with_semicolons(self):
        member = parse_member("rustbrain;kb=off;temperature=0.2:gpt-4")
        assert member.spec.to_string() == \
            "rustbrain?kb=off&temperature=0.2"
        assert member.model == "gpt-4"

    def test_nested_member_list_with_tilde(self):
        member = parse_member("cascade;members=gpt-3.5~rustbrain")
        assert member.spec.to_string() == "cascade?members=gpt-3.5+rustbrain"

    def test_round_trip(self):
        for text in ("rustbrain", "llm_only:gpt-4",
                     "rustbrain;kb=off:claude-3.5",
                     "cascade;members=gpt-3.5~rustbrain"):
            member = parse_member(text)
            assert parse_member(member.to_string()) == member

    def test_unknown_model_tail_is_not_a_model(self):
        # A ':tail' that names no profile belongs to the spec text and
        # should surface as a spec error, not run with a bogus model.
        with pytest.raises(SpecError):
            parse_member("llm_only:gpt4-typo")

    def test_full_member_list(self):
        members = parse_members("rustbrain:gpt-4+llm_only:claude-3.5")
        assert [(m.spec.name, m.model) for m in members] == \
            [("rustbrain", "gpt-4"), ("llm_only", "claude-3.5")]

    def test_empty_member_rejected(self):
        with pytest.raises(SpecError):
            parse_members("rustbrain++llm_only")

    def test_empty_member_list_rejected(self):
        # "".split("+") yields [""], so the no-members case needs its own
        # guard — and its own message, not a confusing per-member error.
        for text in ("", "   "):
            with pytest.raises(SpecError, match="no ensemble members"):
                parse_members(text)

    def test_routes_parse_and_validate(self):
        routes = parse_routes("stack_borrow:1,datarace:0", 2)
        assert routes == {UbKind.STACK_BORROW: 1, UbKind.DATA_RACE: 0}
        with pytest.raises(EngineConfigError, match="unknown UB category"):
            parse_routes("quantum:0", 2)
        with pytest.raises(EngineConfigError, match="past the member list"):
            parse_routes("alloc:7", 2)
        with pytest.raises(EngineConfigError, match="malformed route"):
            parse_routes("alloc", 2)

    def test_duplicate_route_rejected(self):
        # A later duplicate silently overwriting an earlier entry would run
        # a different routing table than the arm label claims.
        with pytest.raises(EngineConfigError, match="duplicate route"):
            parse_routes("alloc:0,datarace:1,alloc:1", 2)
        with pytest.raises(EngineConfigError, match="duplicate route"):
            create_engine("switch?routes=alloc:0,alloc:1")

    def test_weights_parse_and_validate(self):
        assert parse_weights("1,2.5,0.5", 3) == (1.0, 2.5, 0.5)
        assert parse_weights("", 3) is None
        assert parse_weights(None, 3) is None
        # Spec coercion types a bare number before the config sees it.
        assert parse_weights(2, 1) == (2.0,)
        assert parse_weights(0.5, 1) == (0.5,)
        with pytest.raises(EngineConfigError, match="malformed weights"):
            parse_weights("1,heavy", 2)
        with pytest.raises(EngineConfigError, match="does not match"):
            parse_weights("1,2", 3)
        with pytest.raises(EngineConfigError, match="must be positive"):
            parse_weights("1,-2", 2)
        with pytest.raises(EngineConfigError, match="must be positive"):
            parse_weights("0,1", 2)


# ---------------------------------------------------------------------------
# Construction and validation


class TestConstruction:
    def test_every_kind_builds_with_defaults(self):
        for kind in ENSEMBLE_KINDS:
            engine = create_engine(kind)
            assert isinstance(engine, EnsembleEngine)
            assert len(engine.members) >= 2

    def test_profile_arms_registered(self):
        for name in PROFILES:
            engine = create_engine(name, seed=1)
            assert engine.config.model == name

    def test_unknown_member_fails_fast(self):
        from repro.engine import UnknownEngineError
        with pytest.raises(UnknownEngineError):
            create_engine("portfolio?members=quantum_typo+rustbrain")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(EngineConfigError, match="strategy"):
            create_engine("portfolio?strategy=quantum")

    def test_strategy_rejected_for_non_portfolio_kinds(self):
        # cascade/switch are first-pass by construction; silently ignoring
        # strategy= would run different semantics than the label claims.
        for spec in ("cascade?strategy=vote", "switch?strategy=best_score"):
            with pytest.raises(EngineConfigError, match="only applies"):
                create_engine(spec)
        assert create_engine("cascade?strategy=first_pass") is not None

    def test_duplicate_arm_labels_rejected(self, small):
        # llm_only under model X and the X profile arm are the same engine
        # with the same label; keying arms by label would merge them.
        with pytest.raises(ValueError, match="duplicate arm label"):
            Campaign(["llm_only", "gpt-4"], small, model="gpt-4")
        with pytest.raises(ValueError, match="duplicate arm label"):
            Campaign(["cascade", "cascade"], small)

    def test_fallback_out_of_range_rejected(self):
        with pytest.raises(EngineConfigError, match="fallback"):
            create_engine("switch?fallback=9")

    def test_unknown_option_rejected(self):
        with pytest.raises(EngineConfigError):
            create_engine("portfolio?quantum=3")

    def test_member_workers_validated(self):
        with pytest.raises(EngineConfigError, match="member_workers"):
            create_engine("portfolio?member_workers=0")
        with pytest.raises(EngineConfigError, match="member_executor"):
            create_engine("portfolio?member_workers=2&member_executor=gpu")
        assert create_engine("portfolio?member_workers=4") is not None

    def test_weights_only_for_vote_portfolios(self):
        for spec in ("portfolio?strategy=best_score&weights=1,1,1",
                     "portfolio?weights=1,1,1"):  # default first_pass
            with pytest.raises(EngineConfigError, match="weights"):
                create_engine(spec)
        assert create_engine("portfolio?strategy=vote&weights=1,2,3") \
            is not None
        # A one-member portfolio's weights value is a bare number.
        assert create_engine("portfolio?members=gpt-4&strategy=vote"
                             "&weights=2") is not None

    def test_budgets_only_for_portfolios(self):
        for spec in ("cascade?budget_tokens=100",
                     "switch?budget_seconds=10"):
            with pytest.raises(EngineConfigError, match="only apply"):
                create_engine(spec)
        with pytest.raises(EngineConfigError, match=">= 0"):
            create_engine("portfolio?budget_tokens=-1")
        assert create_engine("portfolio?budget_tokens=100"
                             "&budget_seconds=30") is not None

    def test_campaign_fails_fast_on_bad_member(self, small):
        from repro.engine import UnknownEngineError
        with pytest.raises(UnknownEngineError):
            Campaign(["portfolio?members=quantum_typo"], small)


# ---------------------------------------------------------------------------
# Semantics


class TestSemantics:
    def test_first_pass_stops_at_winner(self, dataset):
        case = next(c for c in dataset if c.category is UbKind.UNINIT)
        outcome = create_engine("cascade", seed=SEED).repair(
            case.source, case.difficulty)
        if outcome.members[0]["passed"]:
            assert len(outcome.members) == 1
        assert outcome.passed == any(m["passed"] for m in outcome.members)

    def test_best_score_and_vote_consult_everyone(self, dataset):
        case = list(dataset)[0]
        for strategy in ("best_score", "vote"):
            outcome = create_engine(f"portfolio?strategy={strategy}",
                                    seed=SEED).repair(case.source,
                                                      case.difficulty)
            assert len(outcome.members) == 3  # default member list

    def test_member_accounting_sums(self, dataset):
        case = list(dataset)[0]
        outcome = create_engine("portfolio?strategy=best_score",
                                seed=SEED).repair(case.source,
                                                  case.difficulty)
        assert outcome.tokens == sum(m["tokens"] for m in outcome.members)
        assert outcome.llm_calls == sum(m["llm_calls"]
                                        for m in outcome.members)
        assert outcome.seconds == pytest.approx(
            sum(m["seconds"] for m in outcome.members))

    def test_switch_routes_on_category(self, dataset):
        # Default routes send stack_borrow straight to the slow member.
        case = next(c for c in dataset
                    if c.category is UbKind.STACK_BORROW)
        outcome = create_engine("switch", seed=SEED).repair(
            case.source, case.difficulty)
        assert outcome.members[0]["index"] == 1
        # ... and the routing detector run is charged to the clock.
        assert outcome.seconds == pytest.approx(
            0.8 + sum(m["seconds"] for m in outcome.members))

    def test_switch_no_escalate_consults_one_member(self, dataset):
        case = list(dataset)[0]
        outcome = create_engine("switch?escalate=off", seed=SEED).repair(
            case.source, case.difficulty)
        assert len(outcome.members) == 1

    def test_member_seed_scheme_is_stable(self):
        # The published derivation: changing any input changes the seed.
        base = member_seed(3, 0, 0)
        assert member_seed(3, 0, 1) != base
        assert member_seed(3, 1, 0) != base
        assert member_seed(4, 0, 0) != base
        assert member_seed(3, 0, 0) == base

    def test_members_inherit_ensemble_model(self, dataset):
        case = list(dataset)[0]
        outcome = create_engine("portfolio?members=llm_only+llm_only",
                                model="claude-3.5", seed=SEED).repair(
                                    case.source, case.difficulty)
        assert {m["model"] for m in outcome.members} == {"claude-3.5"}


# ---------------------------------------------------------------------------
# Concurrent consultation (member_workers), weights, budgets


VOTE_MW = "portfolio?strategy=vote&member_workers=3"


class TestConcurrentMembers:
    def test_member_executors_byte_identical(self, dataset):
        # The pool backend is pure wall-clock: serial, thread, and process
        # consultation of the same waves returns identical outcomes.
        for case in list(dataset)[:3]:
            outcomes = [
                create_engine(f"{VOTE_MW}&member_executor={backend}",
                              seed=SEED).repair(case.source, case.difficulty)
                for backend in ("serial", "thread", "process")
            ]
            assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_wave_charges_max_not_sum(self, dataset):
        case = list(dataset)[0]
        sequential = create_engine("portfolio?strategy=best_score",
                                   seed=SEED).repair(case.source,
                                                     case.difficulty)
        wide = create_engine("portfolio?strategy=best_score"
                             "&member_workers=3",
                             seed=SEED).repair(case.source, case.difficulty)
        member_seconds = [m["seconds"] for m in sequential.members]
        assert sequential.seconds == pytest.approx(sum(member_seconds))
        assert wide.seconds == pytest.approx(max(member_seconds))
        # Everything but the clock is untouched by the wave width.
        assert [m["passed"] for m in wide.members] == \
            [m["passed"] for m in sequential.members]
        assert wide.tokens == sequential.tokens
        assert wide.repaired_source == sequential.repaired_source

    def test_waves_chunk_by_member_workers(self, dataset):
        case = list(dataset)[0]
        narrow = create_engine("portfolio?strategy=vote&member_workers=2",
                               seed=SEED).repair(case.source,
                                                 case.difficulty)
        assert [m["wave"] for m in narrow.members] == [0, 0, 1]
        sequential = create_engine("portfolio?strategy=vote",
                                   seed=SEED).repair(case.source,
                                                     case.difficulty)
        assert [m["wave"] for m in sequential.members] == [0, 1, 2]

    def test_vote_winner_member_workers_invariant(self, dataset):
        # The semantics change is confined to the clock: winners and
        # member verdicts match sequential consultation at any width.
        for case in list(dataset)[:4]:
            sequential = create_engine("portfolio?strategy=vote",
                                       seed=SEED).repair(case.source,
                                                         case.difficulty)
            wide = create_engine(VOTE_MW, seed=SEED).repair(case.source,
                                                            case.difficulty)
            assert wide.passed == sequential.passed
            assert wide.repaired_source == sequential.repaired_source

    def test_first_pass_chains_stay_sequential(self, dataset):
        # cascade (and first_pass) consultations are order-dependent;
        # member_workers must not change their bytes at all.
        case = list(dataset)[0]
        plain = create_engine("cascade", seed=SEED).repair(case.source,
                                                           case.difficulty)
        wide = create_engine("cascade?member_workers=4", seed=SEED).repair(
            case.source, case.difficulty)
        assert wide == plain

    def test_switch_escalation_waves(self, dataset):
        # Routed member always consults alone (its verdict gates
        # escalation); the rest chunk into concurrent waves.
        case = next(c for c in dataset if c.category is UbKind.STACK_BORROW)
        spec = ("switch?members=gpt-3.5+gpt-3.5+claude-3.5+gpt-4"
                "&routes=stack_borrow:0&member_workers=4")
        outcome = create_engine(spec, seed=SEED).repair(case.source,
                                                        case.difficulty)
        waves = [m["wave"] for m in outcome.members]
        if len(outcome.members) > 1:
            assert waves[0] == 0
            assert set(waves[1:]) == {1}
        expected = 0.8 + outcome.members[0]["seconds"] + (
            max(m["seconds"] for m in outcome.members[1:])
            if len(outcome.members) > 1 else 0.0)
        assert outcome.seconds == pytest.approx(expected)

    def test_weighted_vote_is_deterministic_and_heeds_weights(self, dataset):
        unit = "portfolio?strategy=vote&weights=1,1,1"
        for case in list(dataset)[:4]:
            plain = create_engine("portfolio?strategy=vote",
                                  seed=SEED).repair(case.source,
                                                    case.difficulty)
            weighted = create_engine(unit, seed=SEED).repair(
                case.source, case.difficulty)
            assert weighted == plain  # unit weights == no weights
            skew = create_engine("portfolio?strategy=vote&weights=1,1,100",
                                 seed=SEED).repair(case.source,
                                                   case.difficulty)
            if skew.members[2]["passed"]:
                # An overwhelming weight elects member 2's repair.
                third = create_engine("gpt-4", seed=member_seed(SEED, 0, 2))
                assert skew.repaired_source == \
                    third.repair(case.source, case.difficulty).repaired_source

    def test_budget_tokens_stops_consultation(self, dataset):
        case = list(dataset)[0]
        tiny = create_engine("portfolio?strategy=best_score&budget_tokens=1",
                             seed=SEED).repair(case.source, case.difficulty)
        assert len(tiny.members) == 1
        runs = [create_engine("portfolio?strategy=best_score"
                              "&budget_tokens=1", seed=SEED).repair(
                                  case.source, case.difficulty)
                for _ in range(2)]
        assert runs[0] == runs[1]  # deterministic truncation
        roomy = create_engine("portfolio?strategy=best_score"
                              "&budget_tokens=10000000",
                              seed=SEED).repair(case.source, case.difficulty)
        assert len(roomy.members) == 3

    def test_budget_seconds_stops_consultation(self, dataset):
        case = list(dataset)[0]
        tiny = create_engine("portfolio?strategy=best_score"
                             "&budget_seconds=0.1",
                             seed=SEED).repair(case.source, case.difficulty)
        assert len(tiny.members) == 1
        if not tiny.passed:
            assert "budget exhausted" in tiny.failure_reason

    def test_budget_counts_the_crossing_member(self, dataset):
        # The consultation that crosses the budget still counts: its
        # tokens/seconds and verdict stay in the outcome.
        case = list(dataset)[0]
        outcome = create_engine("portfolio?strategy=best_score"
                                "&budget_tokens=1",
                                seed=SEED).repair(case.source,
                                                  case.difficulty)
        assert outcome.tokens == outcome.members[0]["tokens"]
        assert outcome.tokens >= 1


# ---------------------------------------------------------------------------
# Campaign determinism


class TestCampaignDeterminism:
    @pytest.fixture(scope="class")
    def serial_run(self, dataset):
        return Campaign(ENSEMBLES, dataset, seed=SEED, workers=1,
                        shard_size=4, executor="serial").run()

    def test_process_pool_byte_identical(self, dataset, serial_run):
        for workers in (2, 4):
            pooled = Campaign(ENSEMBLES, dataset, seed=SEED,
                              workers=workers, shard_size=4,
                              executor="process").run()
            assert json.dumps([arm.to_dict() for arm in pooled.arms],
                              sort_keys=True) == \
                json.dumps([arm.to_dict() for arm in serial_run.arms],
                           sort_keys=True)
            assert pooled.telemetry.to_dict() == \
                serial_run.telemetry.to_dict()

    def test_thread_pool_matches(self, dataset, serial_run):
        threaded = Campaign(ENSEMBLES, dataset, seed=SEED, workers=4,
                            shard_size=4, executor="thread").run()
        assert threaded.by_label() == serial_run.by_label()

    def test_nested_ensemble_is_deterministic(self, small):
        spec = "portfolio?members=cascade+gpt-4&strategy=first_pass"
        serial = Campaign([spec], small, seed=SEED,
                          executor="serial").run()
        pooled = Campaign([spec], small, seed=SEED, workers=3,
                          shard_size=2, executor="process").run()
        assert json.dumps([arm.to_dict() for arm in serial.arms],
                          sort_keys=True) == \
            json.dumps([arm.to_dict() for arm in pooled.arms],
                       sort_keys=True)

    def test_member_workers_arm_executor_invariant(self, small):
        # Concurrent consultation inside every campaign backend, nested
        # ensembles included: serial == thread == process, byte for byte.
        specs = [VOTE_MW,
                 "portfolio?members=portfolio;strategy=vote;"
                 "member_workers=2+gpt-4&strategy=vote&member_workers=2"]
        serial = Campaign(specs, small, seed=SEED, shard_size=2,
                          executor="serial").run()
        threaded = Campaign(specs, small, seed=SEED, workers=3,
                            shard_size=2, executor="thread").run()
        pooled = Campaign(specs, small, seed=SEED, workers=3,
                          shard_size=2, executor="process").run()
        reference = json.dumps([arm.to_dict() for arm in serial.arms],
                               sort_keys=True)
        for result in (threaded, pooled):
            assert json.dumps([arm.to_dict() for arm in result.arms],
                              sort_keys=True) == reference
        assert threaded.telemetry.to_dict() == serial.telemetry.to_dict()
        assert pooled.telemetry.to_dict() == serial.telemetry.to_dict()

    def test_member_wave_rides_telemetry(self, small):
        result = Campaign([VOTE_MW], Dataset(tuple(list(small)[:2])),
                          seed=SEED, executor="serial").run()
        events = [event for event in result.telemetry.events
                  if isinstance(event, MemberFinished)]
        assert events and all(event.wave == 0 for event in events)

    def test_member_telemetry_emitted(self, serial_run):
        events = [event for event in serial_run.telemetry.events
                  if isinstance(event, MemberFinished)]
        assert events
        reported = sum(len(report.members) for arm in serial_run.arms
                       for report in arm.reports)
        assert len(events) == reported
        assert serial_run.telemetry.to_dict()["members_finished"] == reported

    def test_ensemble_labels_omit_campaign_model(self, serial_run):
        # Ensembles pin their members' models, so the campaign-level model
        # must not name the arm.
        assert [arm.label for arm in serial_run.arms] == ENSEMBLES


# ---------------------------------------------------------------------------
# Caching


class TestCaching:
    def test_warm_replay_executes_no_members(self, tmp_path, small,
                                             monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        spec = "portfolio?members=cascade+gpt-4"  # nested ensemble
        kwargs = dict(seed=SEED, shard_size=2, cache=cache)
        cold = Campaign([spec], small, **kwargs).run()
        assert cold.telemetry.cache_counts() == (0, len(small))

        def boom(*args, **kwargs):
            raise AssertionError("a member executed during a warm replay")

        monkeypatch.setattr(EnsembleEngine, "_run_member", boom)
        warm = Campaign([spec], small, **kwargs).run()
        assert warm.telemetry.cache_counts() == (len(small), 0)
        assert [arm.reports for arm in warm.arms] == \
            [arm.reports for arm in cold.arms]
        assert warm.telemetry.to_dict()["members_finished"] == \
            cold.telemetry.to_dict()["members_finished"]

    def test_member_cache_shares_work_and_bytes(self, tmp_path, small):
        # Two different ensembles sharing a member cache: the overlapping
        # members hit, and results are identical to uncached runs.
        member_dir = tmp_path / "members"
        specs = [f"cascade?member_cache_dir={member_dir}",
                 f"switch?member_cache_dir={member_dir}"]
        cached = Campaign(specs, small, seed=SEED).run()
        plain = Campaign(["cascade", "switch"], small, seed=SEED).run()
        for cached_arm, plain_arm in zip(cached.arms, plain.arms):
            assert [r.members for r in cached_arm.reports] == \
                [r.members for r in plain_arm.reports]
            assert [r.passed for r in cached_arm.reports] == \
                [r.passed for r in plain_arm.reports]

    def test_member_cache_shared_across_instances(self, tmp_path):
        # Per-case isolation builds one engine per case; the in-memory
        # read-through layer must survive across them, not start cold.
        from repro.engine.ensemble import _member_cache
        root = tmp_path / "members"
        assert _member_cache(root) is _member_cache(str(root))

    def test_member_cache_warm_run_is_identical(self, tmp_path, small):
        member_dir = tmp_path / "members"
        spec = f"cascade?member_cache_dir={member_dir}"
        first = Campaign([spec], small, seed=SEED).run()
        second = Campaign([spec], small, seed=SEED).run()
        assert [arm.reports for arm in first.arms] == \
            [arm.reports for arm in second.arms]

    def test_warm_member_cache_parallel_consultation_executes_nothing(
            self, tmp_path, small, monkeypatch):
        # Concurrent waves replay warm members parent-side: no task ever
        # reaches the pool (inline and pooled paths share one execution
        # function, so patching it proves both idle).
        from repro.engine import ensemble as ensemble_module
        member_dir = tmp_path / "members"
        spec = f"{VOTE_MW}&member_cache_dir={member_dir}"
        cold = Campaign([spec], small, seed=SEED).run()

        def boom(*_args, **_kwargs):
            raise AssertionError("a member executed during a warm replay")

        monkeypatch.setattr(ensemble_module, "_execute_member_task", boom)
        warm = Campaign([spec], small, seed=SEED).run()
        assert [arm.reports for arm in warm.arms] == \
            [arm.reports for arm in cold.arms]

    def test_cache_epoch_invalidates_keys(self, monkeypatch):
        from repro.engine import cache as cache_module
        before = cache_module.case_key("llm_only", "gpt-4", 0.5, 7, "fp")
        before_arm = cache_module.arm_key("llm_only", "gpt-4", 0.5, 7, "fp")
        monkeypatch.setattr(cache_module, "CACHE_EPOCH",
                            cache_module.CACHE_EPOCH + 1)
        assert cache_module.case_key("llm_only", "gpt-4", 0.5, 7,
                                     "fp") != before
        assert cache_module.arm_key("llm_only", "gpt-4", 0.5, 7,
                                    "fp") != before_arm


# ---------------------------------------------------------------------------
# Cross-member detection memo (exact-text detect_case)


class TestCrossMemberMemo:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        from repro.miri import CASE_MEMO
        CASE_MEMO.clear()
        yield
        CASE_MEMO.clear()

    def test_members_share_one_case_detection(self, small):
        # N members all run F1 on the identical case source; the memo
        # answers every repeat after the first without an interpreter run.
        from repro.miri import CASE_MEMO, DETECTOR_STATS
        case = list(small)[0]
        DETECTOR_STATS.reset()
        create_engine("portfolio?strategy=best_score", seed=SEED).repair(
            case.source, case.difficulty)
        assert DETECTOR_STATS.case_memo_hits >= 2  # members 2 and 3 hit
        assert len(CASE_MEMO) >= 1

    @pytest.mark.parametrize("spec", ["rustbrain", "llm_only?batched=on",
                                      "rustassistant", "cascade", "switch"])
    def test_outcomes_identical_to_memo_free_run(self, small, spec,
                                                 monkeypatch):
        # A memo that never answers is the memo-free profile: every
        # question runs the interpreter.  Outcomes must not move.
        from repro.miri import CASE_MEMO
        cases = list(small)[:4]

        def outcomes():
            engine = create_engine(spec, seed=SEED)
            return [vars(engine.repair(case.source, case.difficulty))
                    for case in cases]

        memoized = outcomes()
        monkeypatch.setattr(CASE_MEMO, "lookup", lambda key: None)
        assert outcomes() == memoized

    @pytest.mark.parametrize("spec", ["rustbrain", "llm_only",
                                      "rustassistant", "compile_fix"])
    def test_repeat_repair_runs_no_interpreter(self, small, spec):
        # F1, every per-step verification and every candidate check go
        # through the memo, so a fresh engine repeating a repair at the
        # same seed asks only questions the memo has answered.
        from repro.miri import DETECTOR_STATS
        case = list(small)[0]
        first = create_engine(spec, seed=SEED).repair(case.source,
                                                      case.difficulty)
        before = DETECTOR_STATS.snapshot()
        again = create_engine(spec, seed=SEED).repair(case.source,
                                                      case.difficulty)
        after = DETECTOR_STATS.snapshot()
        assert vars(again) == vars(first)
        assert after["requests"] > before["requests"]
        assert after["runs"] == before["runs"]

    def test_switch_routing_rides_the_memo(self, small):
        from repro.miri import DETECTOR_STATS
        case = list(small)[0]
        create_engine("switch", seed=SEED).repair(case.source,
                                                  case.difficulty)
        DETECTOR_STATS.reset()
        create_engine("switch", seed=SEED + 1).repair(case.source,
                                                      case.difficulty)
        # The second arm's routing probe is a memo hit, not a run.
        assert DETECTOR_STATS.case_memo_hits >= 1


# ---------------------------------------------------------------------------
# Observer integration


class TestObserver:
    def test_on_member_done_hook(self, small):
        seen = []

        class Recorder(CampaignObserver):
            def on_member_done(self, event):
                assert isinstance(event, MemberFinished)
                seen.append((event.case, event.member_index, event.passed))

        Campaign(["cascade"], Dataset(tuple(list(small)[:2])), seed=SEED,
                 observers=[Recorder()]).run()
        assert seen
        assert all(isinstance(index, int) for _case, index, _p in seen)


def test_default_members_use_three_profiles():
    # The acceptance bar: ensembles composed from >= 3 model profiles.
    models = set()
    for kind in ENSEMBLE_KINDS:
        for member in parse_members(DEFAULT_MEMBERS[kind]):
            if member.model:
                models.add(member.model)
    assert len(models) >= 3
