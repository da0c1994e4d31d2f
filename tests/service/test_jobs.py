"""Job layer: payload validation, coalescing identity, campaign parity."""

import asyncio
import dataclasses
import json

import pytest

from repro.corpus.dataset import Dataset, load_dataset
from repro.engine import Campaign, ResultCache
from repro.engine.telemetry import TelemetryLog
from repro.service.jobs import (EventLog, JobConfig, RequestError,
                                cache_key_for, coalesce_key, execute_repair,
                                validate_timeout_seconds)

SEED = 5


@pytest.fixture(scope="module")
def case():
    return list(load_dataset())[0]


def payload_for(case, **extra) -> dict:
    payload = {"source": case.source, "engine": "rustbrain?kb=off",
               "seed": SEED, "name": case.name,
               "difficulty": case.difficulty,
               "category": case.category.value,
               "reference_source": case.fixed_source}
    payload.update(extra)
    return payload


class TestTimeoutValidation:
    @pytest.mark.parametrize("value,expected", [
        (None, None), (5, 5.0), (0.25, 0.25), ("2.5", 2.5), ("10", 10.0),
    ])
    def test_valid_values(self, value, expected):
        assert validate_timeout_seconds(value) == expected

    @pytest.mark.parametrize("value", [
        "abc", "", 0, -1, "-3", float("nan"), float("inf"), "inf", True,
        [5],
    ])
    def test_malformed_values_rejected(self, value):
        with pytest.raises(RequestError, match="timeout_seconds"):
            validate_timeout_seconds(value)


class TestFromPayload:
    def test_minimal_payload(self):
        config = JobConfig.from_payload({"source": "fn main() {}"})
        assert config.spec.name == "rustbrain"
        assert config.model == "gpt-4"
        assert config.seed == 0
        assert config.request.index == 0
        assert config.wait is True

    def test_full_payload_round_trips(self, case):
        config = JobConfig.from_payload(payload_for(
            case, index=3, timeout_seconds=2.5, wait=False))
        assert config.request.name == case.name
        assert config.request.index == 3
        assert config.request.category == case.category
        assert config.timeout_seconds == 2.5
        assert config.wait is False

    @pytest.mark.parametrize("broken,match", [
        ("not a dict", "JSON object"),
        ({}, "source"),
        ({"source": ""}, "source"),
        ({"source": 42}, "source"),
        ({"source": "fn main() {}", "engine": "no_such_engine"},
         "no_such_engine"),
        ({"source": "fn main() {}", "engine": "rustbrain?bogus=1"}, "bogus"),
        ({"source": "fn main() {}", "engine": "???"}, "invalid engine name"),
        ({"source": "fn main() {}", "seed": "seven"}, "seed"),
        ({"source": "fn main() {}", "seed": True}, "seed"),
        ({"source": "fn main() {}", "temperature": "hot"}, "temperature"),
        ({"source": "fn main() {}", "difficulty": 1.5}, "difficulty"),
        ({"source": "fn main() {}", "index": -1}, "index"),
        ({"source": "fn main() {}", "category": "bogus"}, "category"),
        ({"source": "fn main() {}", "reference_source": 7},
         "reference_source"),
        ({"source": "fn main() {}", "wait": "yes"}, "wait"),
        ({"source": "fn main() {}", "timeout_seconds": "soon"},
         "timeout_seconds"),
        ({"source": "fn main() {}", "sorce": "typo"}, "unknown field"),
    ])
    def test_malformed_payloads_rejected(self, broken, match):
        with pytest.raises(RequestError, match=match):
            JobConfig.from_payload(broken)

    def test_spec_pinned_seed_hoists_like_campaign(self):
        pinned = JobConfig.from_payload(
            {"source": "fn main() {}", "engine": "rustbrain?seed=7",
             "seed": 99, "index": 2})
        plain = JobConfig.from_payload(
            {"source": "fn main() {}", "engine": "rustbrain", "seed": 7,
             "index": 2})
        assert pinned.derived_seed() == plain.derived_seed()


class TestCoalesceKey:
    def test_identical_requests_share_a_key(self, case):
        first = JobConfig.from_payload(payload_for(case))
        second = JobConfig.from_payload(payload_for(case))
        assert coalesce_key(first) == coalesce_key(second)

    def test_formatting_divergent_sources_split_the_key(self, case):
        plain = JobConfig.from_payload(payload_for(case))
        commented = JobConfig.from_payload(payload_for(case))
        commented = dataclasses.replace(
            commented, request=dataclasses.replace(
                commented.request,
                source=case.source + "\n// trailing comment\n"))
        assert coalesce_key(plain) != coalesce_key(commented)
        # Coalescing and the cache address requests by one key.
        assert coalesce_key(plain) == cache_key_for(plain)
        assert coalesce_key(commented) == cache_key_for(commented)

    def test_leading_comment_changes_the_report(self):
        # Why a fingerprint cannot be the key: a leading comment keeps
        # the program but shifts every span, the rendered report in the
        # LLM prompt grows, and the repair costs different tokens.
        case = list(load_dataset())[14]
        reports = []
        for source in (case.source, "// leading comment\n" + case.source):
            config = JobConfig.from_payload(payload_for(
                case, source=source, engine="rustbrain", seed=7, index=14))
            reports.append(execute_repair(config).to_dict())
        plain, commented = reports
        assert plain["passed"] and commented["passed"]
        assert plain["tokens"] != commented["tokens"]
        assert plain["seconds"] != commented["seconds"]

    @pytest.mark.parametrize("change", [
        {"engine": "rustbrain"}, {"model": "gpt-3.5"}, {"seed": SEED + 1},
        {"temperature": 0.2}, {"index": 1}, {"name": "other"},
        {"difficulty": 3}, {"reference_source": None},
    ])
    def test_any_other_input_change_splits_the_key(self, case, change):
        base = JobConfig.from_payload(payload_for(case))
        varied = JobConfig.from_payload(payload_for(case, **change))
        assert coalesce_key(base) != coalesce_key(varied)

    def test_timeout_and_wait_do_not_split_the_key(self, case):
        base = JobConfig.from_payload(payload_for(case))
        varied = JobConfig.from_payload(payload_for(
            case, timeout_seconds=9, wait=False))
        assert coalesce_key(base) == coalesce_key(varied)


class TestExecuteRepairParity:
    """The service execution path must be indistinguishable from a
    one-case batch campaign: same report bytes, same event stream."""

    def _campaign(self, case, cache=None):
        return Campaign(["rustbrain?kb=off"], Dataset((case,)), seed=SEED,
                        executor="serial", cache=cache)

    def test_report_is_byte_identical_to_campaign(self, case):
        campaign = self._campaign(case).run()
        batch = campaign.arms[0].reports[0].to_dict()
        config = JobConfig.from_payload(payload_for(case))
        service = execute_repair(config).to_dict()
        assert json.dumps(service, sort_keys=True) == \
            json.dumps(batch, sort_keys=True)

    def test_event_stream_matches_campaign(self, case, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        log = TelemetryLog()
        campaign = self._campaign(case, cache=cache)
        campaign.run()
        batch_events = list(campaign.telemetry.events)
        cache.clear()
        config = JobConfig.from_payload(payload_for(case))
        execute_repair(config, cache=cache, observer=log)
        assert log.events == batch_events

    def test_cache_hit_replays_identically(self, case, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = JobConfig.from_payload(payload_for(case))
        cold = execute_repair(config, cache=cache)
        warm_log = TelemetryLog()
        warm = execute_repair(config, cache=cache, observer=warm_log)
        assert warm == cold
        hits, misses = warm_log.cache_counts()
        assert (hits, misses) == (1, 0)

    def test_cache_key_matches_campaign_entry(self, case, tmp_path):
        # The service must hit entries a batch campaign wrote, and vice
        # versa — one shared read-through tier, not two namespaces.
        cache = ResultCache(tmp_path / "cache")
        self._campaign(case, cache=cache).run()
        config = JobConfig.from_payload(payload_for(case))
        assert cache.get(cache_key_for(config)) is not None

    def test_ensemble_arm_emits_member_events(self, case):
        log = TelemetryLog()
        config = JobConfig.from_payload(payload_for(case, engine="cascade"))
        report = execute_repair(config, observer=log)
        from repro.engine.telemetry import MemberFinished
        assert log.count(MemberFinished) == len(report.members) > 0


class TestEventLog:
    def test_frames_record_every_hook(self, case):
        log = EventLog()
        config = JobConfig.from_payload(payload_for(case))
        execute_repair(config, observer=log)
        names = [name for name, _payload in log.frames()]
        assert names[0] == "engine_started"
        assert names[-1] == "engine_finished"
        assert "case_started" in names and "case_finished" in names

    def test_stream_replays_and_terminates(self, case):
        async def scenario():
            log = EventLog(asyncio.get_running_loop())
            config = JobConfig.from_payload(payload_for(case))
            execute_repair(config, observer=log)
            log.mark_done("job_finished", {"id": "j1", "status": "done"})
            return [frame async for frame in log.stream()]

        frames = asyncio.run(scenario())
        assert frames[-1][0] == "job_finished"
        assert frames[-1][1]["status"] == "done"

    def test_stream_wakes_on_late_frames(self, case):
        async def scenario():
            loop = asyncio.get_running_loop()
            log = EventLog(loop)
            collected = []

            async def consume():
                async for frame in log.stream():
                    collected.append(frame)

            task = asyncio.create_task(consume())
            await asyncio.sleep(0)  # parked on the wakeup event
            config = JobConfig.from_payload(payload_for(case))
            await asyncio.to_thread(execute_repair, config, observer=log)
            log.mark_done("job_finished", {"id": "j1", "status": "done"})
            await asyncio.wait_for(task, timeout=5)
            return collected

        frames = asyncio.run(scenario())
        assert [name for name, _payload in frames][-1] == "job_finished"
        assert len(frames) > 1

    def test_frames_after_done_are_dropped(self):
        log = EventLog()
        log.mark_done("job_finished", {"status": "cancelled"})
        from repro.engine.telemetry import EngineStarted
        log.on_engine_start(EngineStarted(engine="x", cases=1))
        assert [name for name, _payload in log.frames()] == ["job_finished"]

    def test_bounded_with_truncation_marker_and_terminal_frame(self):
        from repro.engine.telemetry import EngineStarted
        log = EventLog(max_frames=4)
        for index in range(10):
            log.on_engine_start(EngineStarted(engine=f"e{index}", cases=1))
        log.mark_done("job_finished", {"status": "done"})
        names = [name for name, _payload in log.frames()]
        # 3 ordinary slots, then the marker, then the terminal frame.
        assert names == ["engine_started", "engine_started",
                         "engine_started", "events_truncated",
                         "job_finished"]
        assert log.dropped == 7
        marker = dict(log.frames())["events_truncated"]
        assert marker == {"max_frames": 4}

    def test_max_frames_validation(self):
        with pytest.raises(ValueError):
            EventLog(max_frames=1)


class TestServiceFaults:
    """The service job runner retries injected ``service:fail`` faults
    and surfaces each retry as an EventLog frame."""

    def _run_faulted(self, case, plan):
        from repro.engine.faults import install
        from repro.engine.retry import RetryPolicy
        log = EventLog()
        config = JobConfig.from_payload(payload_for(case))
        previous = install(plan)
        try:
            fast = RetryPolicy(attempts=4, base_delay=0, jitter=0,
                               sleep=lambda _s: None)
            report = execute_repair(config, observer=log, retry=fast)
        finally:
            install(previous)
        return report, log

    def test_faulted_job_retries_and_matches_fault_free(self, case):
        config = JobConfig.from_payload(payload_for(case))
        clean = execute_repair(config)
        report, log = self._run_faulted(case, "service:fail=1")
        assert report == clean
        names = [name for name, _payload in log.frames()]
        # Default depth 2: exactly two failed attempts, then success.
        assert names[:2] == ["retry_attempted", "retry_attempted"]
        retries = [payload for name, payload in log.frames()
                   if name == "retry_attempted"]
        assert all(payload["site"] == "service" for payload in retries)
        assert [payload["attempt"] for payload in retries] == [1, 2]

    def test_exhaustion_surfaces_the_transient_error(self, case):
        from repro.engine.faults import TransientServiceError
        with pytest.raises(TransientServiceError):
            self._run_faulted(case, "service:fail=1,depth=99")
