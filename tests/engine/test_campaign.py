"""Campaign runner: determinism across worker counts, telemetry, JSON."""

import dataclasses
import json
import shutil

import pytest

from repro.corpus.dataset import Dataset, load_dataset
from repro.engine import (Campaign, CampaignObserver, CaseFinished,
                          CaseStarted, EngineFinished, EngineStarted,
                          RoundFinished, SystemResults)
from repro.miri.errors import UbKind

ENGINES = ["llm_only", "rustbrain?kb=off"]
SEED = 3


@pytest.fixture(scope="module")
def dataset():
    # STACK_BORROW included deliberately: its diagnostics embed borrow-tag
    # numbers, the state that once leaked across cases (see miri.borrows).
    return load_dataset().subset([UbKind.UNINIT, UbKind.PANIC,
                                  UbKind.STACK_BORROW])


@pytest.fixture(scope="module")
def serial_run(dataset):
    return Campaign(ENGINES, dataset, seed=SEED, workers=1,
                    shard_size=4, executor="serial").run()


@pytest.fixture(scope="module")
def parallel_run(dataset):
    return Campaign(ENGINES, dataset, seed=SEED, workers=4,
                    shard_size=4).run()


class TestDeterminism:
    def test_parallel_equals_serial_system_results(self, serial_run,
                                                   parallel_run):
        assert serial_run.by_label() == parallel_run.by_label()

    def test_parallel_equals_serial_json(self, serial_run, parallel_run):
        serial = serial_run.to_dict()
        parallel = parallel_run.to_dict()
        # Everything but the workers knob itself is identical.
        assert serial["arms"] == parallel["arms"]
        assert serial["telemetry"] == parallel["telemetry"]
        assert json.dumps(serial["arms"], sort_keys=True) == \
            json.dumps(parallel["arms"], sort_keys=True)

    def test_rerun_is_stable(self, dataset, parallel_run):
        again = Campaign(ENGINES, dataset, seed=SEED, workers=2,
                         shard_size=4).run()
        assert again.by_label() == parallel_run.by_label()

    def test_process_pool_equals_serial_json(self, serial_run, parallel_run):
        # The acceptance bar for the process backend: a 4-worker process
        # pool is byte-identical to a serial run, arms and telemetry both.
        serial = serial_run.to_dict()
        pooled = parallel_run.to_dict()
        assert json.dumps(serial["arms"], sort_keys=True) == \
            json.dumps(pooled["arms"], sort_keys=True)
        assert serial["telemetry"] == pooled["telemetry"]

    def test_process_reports_stay_in_dataset_order(self, dataset,
                                                   parallel_run):
        names = [case.name for case in dataset]
        for arm in parallel_run.arms:
            assert [report.case for report in arm.reports] == names

    def test_serial_executor_matches_default(self, dataset, serial_run,
                                             monkeypatch):
        # The default executor at one worker leases no pool: the run stays
        # in-process and equals the explicit serial one.
        from repro.engine import EXECUTOR_SERVICE

        def boom_lease(*_args, **_kwargs):
            raise AssertionError("a one-worker campaign leased a pool")

        monkeypatch.setattr(EXECUTOR_SERVICE, "lease", boom_lease)
        default = Campaign(ENGINES, dataset, seed=SEED, workers=1,
                           shard_size=4).run()
        assert default.by_label() == serial_run.by_label()

    def test_shared_pooled_arms_equal_serial_arms(self, dataset):
        # Arm-level process pooling: each arm keeps its exact stateful
        # semantics, so the pooled sweep reproduces the serial one.
        small = Dataset(tuple(list(dataset)[:6]))
        arms = ["rustbrain?seed=3", "rustbrain?seed=11", "rustbrain?seed=23"]
        serial = Campaign(arms, small, isolation="shared", workers=1).run()
        pooled = Campaign(arms, small, isolation="shared", workers=3,
                          executor="process").run()
        assert json.dumps([arm.to_dict() for arm in serial.arms],
                          sort_keys=True) == \
            json.dumps([arm.to_dict() for arm in pooled.arms],
                       sort_keys=True)
        assert serial.telemetry.to_dict() == pooled.telemetry.to_dict()

    @pytest.mark.parametrize("isolation", ["per_case", "shared"])
    def test_warm_shared_pooled_campaign_spawns_no_pool(self, dataset,
                                                        tmp_path,
                                                        monkeypatch,
                                                        isolation):
        # A fully cache-warm pooled campaign replays every case from disk;
        # leasing a worker pool (or submitting empty tasks) is a bug.
        from repro.engine import EXECUTOR_SERVICE, ResultCache
        small = Dataset(tuple(list(dataset)[:4]))
        arms = ["rustbrain?seed=3", "rustbrain?seed=11"]
        cache = ResultCache(tmp_path / "cache")
        cold = Campaign(arms, small, isolation=isolation, workers=2,
                        shard_size=2, executor="process", cache=cache).run()

        def boom_lease(*_args, **_kwargs):
            raise AssertionError("a pool was leased for a warm campaign")

        monkeypatch.setattr(EXECUTOR_SERVICE, "lease", boom_lease)
        warm = Campaign(arms, small, isolation=isolation, workers=2,
                        shard_size=2, executor="process", cache=cache).run()
        assert json.dumps([arm.to_dict() for arm in warm.arms],
                          sort_keys=True) == \
            json.dumps([arm.to_dict() for arm in cold.arms],
                       sort_keys=True)
        hits, misses = warm.telemetry.cache_counts()
        assert hits == len(small) * len(arms) and misses == 0

    def test_different_seed_differs(self, dataset, serial_run):
        other = Campaign(ENGINES, dataset, seed=SEED + 1, workers=1,
                         shard_size=4).run()
        assert other.by_label() != serial_run.by_label()

    def test_reports_stay_in_dataset_order(self, dataset, parallel_run):
        names = [case.name for case in dataset]
        for arm in parallel_run.arms:
            assert [report.case for report in arm.reports] == names


class TestTelemetry:
    def test_event_counts(self, dataset, serial_run):
        counts = serial_run.telemetry.to_dict()
        cases = len(dataset)
        arms = len(ENGINES)
        assert counts["engines"] == arms
        assert counts["cases_started"] == arms * cases
        assert counts["cases_finished"] == arms * cases
        rounds_per_arm = -(-cases // 4)  # ceil for shard_size=4
        assert counts["rounds"] == arms * rounds_per_arm

    def test_observer_hooks_fire_in_order(self, dataset):
        seen = []

        class Recorder(CampaignObserver):
            def on_engine_start(self, event):
                assert isinstance(event, EngineStarted)
                seen.append(("engine_start", event.engine))

            def on_engine_done(self, event):
                assert isinstance(event, EngineFinished)
                seen.append(("engine_done", event.engine))

            def on_case_start(self, event):
                assert isinstance(event, CaseStarted)
                seen.append(("case_start", event.case))

            def on_case_done(self, event):
                assert isinstance(event, CaseFinished)
                seen.append(("case_done", event.case))

            def on_round(self, event):
                assert isinstance(event, RoundFinished)
                seen.append(("round", event.round_index))

        small = Dataset(tuple(list(dataset)[:3]))
        Campaign(["llm_only"], small, seed=1, shard_size=2,
                 observers=[Recorder()]).run()
        # The paper's label convention: the plain llm_only arm is just the
        # model name (shared with bench via engine.spec.arm_label).
        assert seen[0] == ("engine_start", "gpt-4")
        assert seen[-1] == ("engine_done", "gpt-4")
        assert seen.count(("round", 0)) == 1 and ("round", 1) in seen
        assert sum(1 for kind, _ in seen if kind == "case_done") == 3

    def test_round_progress_monotonic(self, serial_run):
        for arm in serial_run.arms:
            rounds = [event for event in serial_run.telemetry.events
                      if isinstance(event, RoundFinished)
                      and event.engine == arm.label]
            completed = [event.completed for event in rounds]
            assert completed == sorted(completed)
            assert completed[-1] == len(arm.reports)


class TestEventSequence:
    """The completion loop emits one event sequence, whatever runs the
    cases: in-process or the pool, live or from the cache."""

    @staticmethod
    def _events(run) -> list:
        from repro.engine import RetryAttempted
        return [(type(event).__name__, dataclasses.asdict(event))
                for event in run.telemetry.events
                if not isinstance(event, RetryAttempted)]

    @pytest.mark.parametrize("state", ["cold", "partial", "warm"])
    @pytest.mark.parametrize("isolation", ["per_case", "shared"])
    def test_same_events_at_any_worker_count(self, dataset, tmp_path,
                                             isolation, state):
        from repro.engine import CacheQueried, ResultCache
        twelve = Dataset(tuple(list(dataset)[:12]))
        arms = ["llm_only", "rustbrain?kb=off"]
        params = dict(seed=SEED, shard_size=4, isolation=isolation)
        seeded = tmp_path / "seeded"
        if state != "cold":
            warmup = Campaign(arms, twelve, cache=ResultCache(seeded),
                              **params).run()
            if state == "partial":
                # Keep 5 of the 12 per-case entries of each arm; a shared
                # campaign keeps its first arm's whole-arm entry only.
                first = warmup.arms[0].label
                kept = {event.key for event in warmup.telemetry.events
                        if isinstance(event, CacheQueried)
                        and (event.index in (0, 2, 5, 6, 9)
                             if isolation == "per_case"
                             else event.engine == first)}
                for entry in seeded.rglob("*.json"):
                    if entry.stem not in kept:
                        entry.unlink()
        runs = {}
        for workers in (1, 3):
            directory = tmp_path / f"w{workers}"
            if seeded.exists():
                shutil.copytree(seeded, directory)
            runs[workers] = Campaign(arms, twelve, workers=workers,
                                     cache=ResultCache(directory),
                                     **params).run()
        hits, _misses = runs[1].telemetry.cache_counts()
        expected = {"cold": 0, "warm": 24,
                    "partial": 10 if isolation == "per_case" else 12}
        assert hits == expected[state]
        assert self._events(runs[1]) == self._events(runs[3])

    @pytest.mark.parametrize("isolation", ["per_case", "shared"])
    def test_in_process_repair_runs_between_its_case_events(
            self, dataset, monkeypatch, isolation):
        # perfbench times each case between on_case_start and
        # on_case_done, so a one-worker campaign must run the repair there.
        from repro.engine import campaign as campaign_module
        seen = []
        real_run_request = campaign_module.run_request

        def recording_run_request(engine, request, **kwargs):
            seen.append(("repair", request.index))
            return real_run_request(engine, request, **kwargs)

        class Recorder(CampaignObserver):
            def on_case_start(self, event):
                seen.append(("start", event.index))

            def on_case_done(self, event):
                seen.append(("done", event.index))

        monkeypatch.setattr(campaign_module, "run_request",
                            recording_run_request)
        small = Dataset(tuple(list(dataset)[:5]))
        Campaign(["llm_only"], small, seed=SEED, shard_size=2,
                 isolation=isolation, observers=[Recorder()]).run()
        assert seen == [(kind, index) for index in range(len(small))
                        for kind in ("start", "repair", "done")]


class TestSerialization:
    def test_save_and_reload(self, tmp_path, serial_run):
        path = tmp_path / "campaign.json"
        serial_run.save(path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro.campaign/4"
        assert payload["config"]["engines"] == ENGINES
        assert len(payload["arms"]) == len(ENGINES)
        for arm, spec in zip(payload["arms"], ENGINES):
            assert arm["spec"] == spec
            assert len(arm["cases"]) == payload["config"]["cases"]
            assert 0.0 <= arm["summary"]["pass_rate"] <= 1.0

    def test_system_results_round_trip(self, serial_run):
        for arm in serial_run.arms:
            reloaded = SystemResults.from_dict(arm.results.to_dict())
            assert reloaded == arm.results

    def test_adhoc_request_without_category_serializes(self):
        from repro.engine import CaseResult, create_engine
        from repro.engine.types import RepairRequest, run_request
        request = RepairRequest(name="adhoc",
                                source="fn main() { let x = 1; }")
        report = run_request(create_engine("llm_only"), request)
        payload = report.to_case_result().to_dict()
        assert payload["category"] is None
        assert CaseResult.from_dict(payload).category is None


class TestValidation:
    def test_no_engines_rejected(self, dataset):
        with pytest.raises(ValueError, match="at least one"):
            Campaign([], dataset)

    def test_bare_spec_string_is_one_arm(self, dataset):
        campaign = Campaign("llm_only", dataset)
        assert [spec.name for spec in campaign.specs] == ["llm_only"]

    def test_spec_pinned_seed_keeps_per_case_derivation(self, dataset):
        # "llm_only?seed=7" sets the arm's BASE seed; cases must still get
        # independently derived seeds (and stay worker-invariant).
        small = Dataset(tuple(list(dataset)[:6]))
        pinned = Campaign(["llm_only?seed=7"], small).run()
        parallel = Campaign(["llm_only?seed=7"], small, workers=3,
                            shard_size=2).run()
        base = Campaign(["llm_only"], small, seed=7).run()
        assert pinned.arms[0].reports == parallel.arms[0].reports
        # Same base seed by either route => identical per-case outcomes.
        assert [r.to_dict() for r in pinned.arms[0].reports] == \
            [r.to_dict() | {"engine": pinned.arms[0].label}
             for r in base.arms[0].reports]

    def test_rerun_gets_fresh_telemetry(self, dataset):
        small = Dataset(tuple(list(dataset)[:2]))
        campaign = Campaign(["llm_only"], small, seed=1)
        first = campaign.run()
        second = campaign.run()
        assert first.telemetry is not second.telemetry
        assert first.telemetry.to_dict() == second.telemetry.to_dict()
        assert second.telemetry.to_dict()["cases_finished"] == 2

    def test_bad_workers_rejected(self, dataset):
        with pytest.raises(ValueError, match="workers"):
            Campaign(ENGINES, dataset, workers=0)

    def test_bad_spec_rejected(self, dataset):
        from repro.engine import SpecError
        with pytest.raises(SpecError):
            Campaign(["rustbrain?kb"], dataset)

    def test_unknown_engine_fails_fast(self, dataset):
        # Construction must reject arm 2, not burn arm 1's sweep first.
        from repro.engine import UnknownEngineError
        with pytest.raises(UnknownEngineError):
            Campaign(["llm_only", "quantum_typo"], dataset)

    def test_unknown_config_key_fails_fast(self, dataset):
        from repro.engine import EngineConfigError
        with pytest.raises(EngineConfigError):
            Campaign(["llm_only?n_solutions=3"], dataset)

    def test_bad_isolation_rejected(self, dataset):
        with pytest.raises(ValueError, match="isolation"):
            Campaign(ENGINES, dataset, isolation="quantum")

    def test_shared_isolation_forces_serial_with_warning(self, dataset):
        # A stateful sweep cannot split within an arm: rather than silently
        # degrading to per-case engines, a one-arm campaign warns and runs
        # serial (several arms would pool whole arms instead).
        with pytest.warns(RuntimeWarning, match="forcing"):
            campaign = Campaign(ENGINES[:1], dataset, isolation="shared",
                                workers=4)
        assert campaign.workers == 1

    def test_shared_process_multi_arm_keeps_workers(self, dataset):
        # Arm-level process pooling preserves shared semantics, so several
        # arms may keep workers > 1 without a warning.
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            campaign = Campaign(ENGINES, dataset, isolation="shared",
                                workers=2, executor="process")
        assert campaign.workers == 2

    def test_serial_executor_rejects_workers(self, dataset):
        with pytest.raises(ValueError, match="serial"):
            Campaign(ENGINES, dataset, executor="serial", workers=2)

    def test_bad_executor_rejected(self, dataset):
        for executor in ("quantum", "thread"):
            with pytest.raises(ValueError,
                               match="executor.*'serial', 'process'"):
                Campaign(ENGINES, dataset, executor=executor)


class TestSharedIsolation:
    def test_matches_legacy_stateful_sweep(self, dataset):
        from repro.bench.experiments import evaluate_spec
        shared = Campaign(["rustbrain"], dataset, seed=SEED,
                          isolation="shared").run()
        legacy = evaluate_spec("rustbrain", seed=SEED, dataset=dataset)
        assert shared.arms[0].results == legacy

    def test_feedback_accumulates_across_cases(self):
        # The RQ2 self-learning effect needs cross-case state: at least one
        # later case must be repaired via recalled feedback.
        subset = load_dataset().subset([UbKind.UNINIT,
                                        UbKind.DANGLING_POINTER])
        run = Campaign(["rustbrain"], subset, seed=13,
                       isolation="shared").run()
        assert any(report.used_feedback for report in run.arms[0].reports)


class TestFaultedCampaigns:
    """Chaos determinism: campaigns under injected faults stay
    byte-identical to the fault-free run."""

    def test_llm_faults_leave_outcomes_byte_identical(self, dataset,
                                                      serial_run):
        import json
        faulted = Campaign(ENGINES, dataset, seed=SEED, workers=1,
                           shard_size=4,
                           faults="llm:rate=0.3,seed=7").run()
        clean = serial_run.to_dict()
        chaos = faulted.to_dict()
        assert json.dumps(chaos["arms"], sort_keys=True) == \
            json.dumps(clean["arms"], sort_keys=True)
        # Retries happened but never entered the serialized telemetry.
        assert chaos["telemetry"] == clean["telemetry"]
        assert faulted.telemetry.to_dict() == serial_run.telemetry.to_dict()

    @pytest.mark.parametrize("isolation", ["per_case", "shared"])
    def test_worker_crashes_redispatch_byte_identically(self, dataset,
                                                        serial_run,
                                                        isolation):
        import json
        from repro.engine import EXECUTOR_SERVICE, RetryAttempted
        if isolation == "per_case":
            arms, data, seed, clean = ENGINES, dataset, SEED, serial_run
        else:
            arms = ["rustbrain?seed=3", "rustbrain?seed=11"]
            data, seed = Dataset(tuple(list(dataset)[:6])), 7
            clean = Campaign(arms, data, seed=seed, isolation=isolation,
                             shard_size=4).run()
        faulted = Campaign(arms, data, seed=seed, workers=2, shard_size=4,
                           executor="process", isolation=isolation,
                           faults="worker:crash=0.4,seed=2").run()
        assert json.dumps(faulted.to_dict()["arms"], sort_keys=True) == \
            json.dumps(clean.to_dict()["arms"], sort_keys=True)
        assert faulted.telemetry.to_dict() == clean.telemetry.to_dict()
        events = faulted.telemetry.events
        assert any(isinstance(event, RetryAttempted)
                   and event.site == "worker" for event in events)
        # A re-dispatch re-runs tasks, never an arm's start or finish.
        for arm in faulted.arms:
            for kind in (EngineStarted, EngineFinished):
                assert sum(isinstance(event, kind)
                           and event.engine == arm.label
                           for event in events) == 1
        assert EXECUTOR_SERVICE.budget.in_use == 0

    def test_on_retry_telemetry_is_observable(self, dataset):
        from repro.engine import CampaignObserver

        class Collector(CampaignObserver):
            def __init__(self):
                self.retries = []

            def on_retry(self, event):
                self.retries.append(event)

        collector = Collector()
        Campaign(ENGINES, dataset, seed=SEED, workers=1,
                 faults="llm:rate=0.5,seed=1",
                 observers=[collector]).run()
        assert collector.retries
        assert all(event.site == "llm" for event in collector.retries)


class TestLegacyShims:
    def test_evaluate_system_matches_run_cases(self, dataset):
        from repro.bench.experiments import evaluate_system, make_system
        from repro.engine import run_cases
        legacy = evaluate_system(make_system("llm_only", seed=2), dataset,
                                 label="arm")
        modern = run_cases(make_system("llm_only", seed=2), dataset, "arm")
        assert legacy == modern
        assert legacy.system == "arm"
        assert len(legacy.results) == len(dataset)
