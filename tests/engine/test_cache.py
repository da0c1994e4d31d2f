"""Result cache: keying, round-trips, invalidation, campaign integration."""

import json
import threading

import pytest

from repro.corpus.dataset import Dataset, load_dataset
from repro.engine import (Campaign, ResultCache, arm_key, case_key,
                          fingerprint_case, fingerprint_dataset)
from repro.engine.types import RepairReport
from repro.miri.errors import UbKind

SEED = 3
ENGINES = ["llm_only", "rustbrain?kb=off"]


@pytest.fixture(scope="module")
def dataset():
    return load_dataset().subset([UbKind.UNINIT, UbKind.PANIC])


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


def _report(case="c", passed=True) -> RepairReport:
    return RepairReport(
        case=case, engine="gpt-4", category=UbKind.UNINIT, passed=passed,
        acceptable=passed, repaired_source="fn main() {}", seconds=1.5,
        tokens=123, llm_calls=4, solutions_tried=2, steps_executed=3,
        hallucinations=0, rollbacks=1, used_knowledge_base=True,
        used_feedback=False, applied_rules=["replace_uninit_with_zero_init"],
        failure_reason=None)


class TestReportRoundTrip:
    def test_to_from_dict_is_exact(self):
        report = _report()
        assert RepairReport.from_dict(report.to_dict()) == report

    def test_json_round_trip_is_exact(self):
        report = _report()
        payload = json.loads(json.dumps(report.to_dict()))
        assert RepairReport.from_dict(payload) == report

    def test_none_category_round_trips(self):
        report = _report()
        report.category = None
        assert RepairReport.from_dict(report.to_dict()) == report


class TestResultCache:
    def test_miss_then_hit(self, cache):
        key = case_key("llm_only", "gpt-4", 0.5, 7, "fp")
        assert cache.get(key) is None
        cache.put(key, [_report()])
        assert cache.get(key) == [_report()]
        assert cache.hits == 1 and cache.misses == 1

    def test_hit_survives_new_instance(self, cache):
        # The disk layer, not the in-memory memo, is the source of truth.
        key = case_key("llm_only", "gpt-4", 0.5, 7, "fp")
        cache.put(key, [_report()])
        reopened = ResultCache(cache.root)
        assert reopened.get(key) == [_report()]

    def test_corrupt_entry_reads_as_miss(self, cache):
        key = case_key("llm_only", "gpt-4", 0.5, 7, "fp")
        cache.put(key, [_report()])
        cache._memory.clear()
        cache._path(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_schema_mismatch_reads_as_miss(self, cache):
        key = case_key("llm_only", "gpt-4", 0.5, 7, "fp")
        cache.put(key, [_report()])
        cache._memory.clear()
        entry = json.loads(cache._path(key).read_text())
        entry["schema"] = "repro.result-cache/0"
        cache._path(key).write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(key) is None

    def test_len_and_clear(self, cache):
        for seed in range(3):
            cache.put(case_key("llm_only", "gpt-4", 0.5, seed, "fp"),
                      [_report()])
        assert len(cache) == 3
        cache.clear()
        assert len(cache) == 0
        assert cache.get(case_key("llm_only", "gpt-4", 0.5, 0, "fp")) is None

    @staticmethod
    def _orphan(cache, name="tmpdead.tmp"):
        """Plant a leftover atomic-write temp file (a worker that died
        between mkstemp and os.replace)."""
        shard = cache.root / "ab"
        shard.mkdir(exist_ok=True)
        orphan = shard / name
        orphan.write_text("{torn", encoding="utf-8")
        return orphan

    def test_len_ignores_orphaned_tmp_files(self, cache):
        cache.put(case_key("llm_only", "gpt-4", 0.5, 7, "fp"), [_report()])
        self._orphan(cache)
        assert len(cache) == 1

    def test_clear_sweeps_orphaned_tmp_files(self, cache):
        key = case_key("llm_only", "gpt-4", 0.5, 7, "fp")
        cache.put(key, [_report()])
        orphan = self._orphan(cache)
        cache.clear()
        assert not orphan.exists()
        assert len(cache) == 0

    def test_construction_sweeps_orphaned_tmp_files(self, cache):
        import os
        key = case_key("llm_only", "gpt-4", 0.5, 7, "fp")
        cache.put(key, [_report()])
        orphans = [self._orphan(cache, f"tmp{i}.tmp") for i in range(3)]
        stale = 3600 * 24
        for orphan in orphans:
            os.utime(orphan, (orphan.stat().st_mtime - stale,) * 2)
        fresh = self._orphan(cache, "tmplive.tmp")
        reopened = ResultCache(cache.root)
        assert not any(orphan.exists() for orphan in orphans)
        # A young tmp may be a concurrent writer mid-put: spared.
        assert fresh.exists()
        # Committed entries survive the sweep untouched.
        assert reopened.get(key) == [_report()]


class TestConcurrentAccess:
    """The lock-guarded in-memory layer and the atomic disk writes must
    survive threads racing the same key (the service's coalescing tier
    leans on exactly this)."""

    KEY = case_key("llm_only", "gpt-4", 0.5, 7, "fp")

    def test_racing_read_through_same_key(self, cache):
        # Two threads read-through the same cold key: every answer is the
        # full entry, and the counters account for every single lookup.
        expected = [_report()]
        barrier = threading.Barrier(2)
        rounds = 50
        results: list = []

        def read_through():
            barrier.wait()
            for _ in range(rounds):
                reports = cache.get(self.KEY)
                if reports is None:
                    cache.put(self.KEY, expected)
                    reports = cache.get(self.KEY)
                results.append(reports)

        threads = [threading.Thread(target=read_through) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 2 * rounds
        assert all(reports == expected for reports in results)
        counts = cache.counts()
        assert counts["hits"] + counts["misses"] == \
            cache.hits + cache.misses
        assert counts["hits"] >= 2 * rounds - 2  # at most one cold miss each
        assert counts["memory_entries"] == 1

    def test_put_race_never_serves_torn_entry(self, cache):
        # A writer re-puts the entry (identical bytes, as racing campaign
        # workers do) while a reader keeps forcing the disk path; no read
        # may ever observe a partial or corrupt file.
        expected = [_report()]
        cache.put(self.KEY, expected)
        stop = threading.Event()
        torn: list = []

        def writer():
            while not stop.is_set():
                cache.put(self.KEY, expected)

        def reader():
            try:
                for _ in range(200):
                    with cache._lock:
                        cache._memory.pop(self.KEY, None)
                    if cache.get(self.KEY) != expected:
                        torn.append("torn or missing entry")
            finally:
                stop.set()

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert torn == []

    def test_counts_is_a_consistent_snapshot(self, cache):
        cache.put(self.KEY, [_report()])
        cache.get(self.KEY)
        cache.get(case_key("llm_only", "gpt-4", 0.5, 8, "other"))
        assert cache.counts() == {"hits": 1, "misses": 1,
                                  "memory_entries": 1, "io_errors": 0}
        cache.clear()
        assert cache.counts() == {"hits": 0, "misses": 0,
                                  "memory_entries": 0, "io_errors": 0}


class TestKeying:
    """Every component of the key must invalidate independently."""

    BASE = dict(spec="rustbrain?kb=off", model="gpt-4", temperature=0.5,
                seed=7, fp="fingerprint")

    def _key(self, **changes):
        params = {**self.BASE, **changes}
        return case_key(params["spec"], params["model"],
                        params["temperature"], params["seed"], params["fp"])

    def test_identical_inputs_identical_key(self):
        assert self._key() == self._key()

    @pytest.mark.parametrize("field,value", [
        ("spec", "rustbrain"),
        ("model", "gpt-3.5"),
        ("temperature", 0.2),
        ("seed", 8),
        ("fp", "other"),
    ])
    def test_each_component_changes_key(self, field, value):
        assert self._key(**{field: value}) != self._key()

    def test_case_fingerprint_tracks_source(self):
        base = fingerprint_case("case", "fn main() {}", "fn main() {}", 2,
                                UbKind.UNINIT)
        assert fingerprint_case("case", "fn main() { let x = 1; }",
                                "fn main() {}", 2, UbKind.UNINIT) != base
        assert fingerprint_case("case", "fn main() {}", None, 2,
                                UbKind.UNINIT) != base
        assert fingerprint_case("case", "fn main() {}", "fn main() {}", 3,
                                UbKind.UNINIT) != base

    def test_arm_and_case_keys_never_collide(self):
        assert arm_key("llm_only", "gpt-4", 0.5, 7, "fp") != \
            case_key("llm_only", "gpt-4", 0.5, 7, "fp")

    def test_dataset_fingerprint_is_order_sensitive(self, dataset):
        cases = list(dataset)[:4]
        assert fingerprint_dataset(cases) != \
            fingerprint_dataset(list(reversed(cases)))


class TestCampaignIntegration:
    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1), ("process", 4),
    ])
    def test_warm_rerun_is_pure_replay(self, tmp_path, dataset, executor,
                                       workers):
        cache = ResultCache(tmp_path / "cache")
        small = Dataset(tuple(list(dataset)[:6]))
        kwargs = dict(seed=SEED, shard_size=2, executor=executor,
                      workers=workers, cache=cache)
        cold = Campaign(ENGINES, small, **kwargs).run()
        cases = len(small) * len(ENGINES)
        assert cold.telemetry.cache_counts() == (0, cases)
        warm = Campaign(ENGINES, small, **kwargs).run()
        # Zero engine case executions: every case answered by the cache.
        assert warm.telemetry.cache_counts() == (cases, 0)
        assert json.dumps([arm.to_dict() for arm in warm.arms],
                          sort_keys=True) == \
            json.dumps([arm.to_dict() for arm in cold.arms], sort_keys=True)

    def test_hit_is_identical_report_object_content(self, tmp_path, dataset):
        cache = ResultCache(tmp_path / "cache")
        small = Dataset(tuple(list(dataset)[:3]))
        cold = Campaign(["llm_only"], small, seed=SEED, cache=cache).run()
        warm = Campaign(["llm_only"], small, seed=SEED, cache=cache).run()
        assert warm.arms[0].reports == cold.arms[0].reports

    def test_cache_shared_across_worker_counts(self, tmp_path, dataset):
        # Per-case keys use the derived seed, so hits survive re-sharding.
        cache = ResultCache(tmp_path / "cache")
        small = Dataset(tuple(list(dataset)[:6]))
        Campaign(["llm_only"], small, seed=SEED, shard_size=2,
                 cache=cache).run()
        warm = Campaign(["llm_only"], small, seed=SEED, shard_size=3,
                        workers=2, executor="process", cache=cache).run()
        assert warm.telemetry.cache_counts() == (len(small), 0)

    @pytest.mark.parametrize("change", [
        dict(seed=SEED + 1),
        dict(model="gpt-3.5"),
        dict(temperature=0.3),
    ])
    def test_campaign_parameter_changes_invalidate(self, tmp_path, dataset,
                                                   change):
        cache = ResultCache(tmp_path / "cache")
        small = Dataset(tuple(list(dataset)[:3]))
        base = dict(seed=SEED, model="gpt-4", temperature=0.5)
        Campaign(["llm_only"], small, cache=cache, **base).run()
        rerun = Campaign(["llm_only"], small, cache=cache,
                         **{**base, **change}).run()
        assert rerun.telemetry.cache_counts() == (0, len(small))

    def test_spec_change_invalidates(self, tmp_path, dataset):
        cache = ResultCache(tmp_path / "cache")
        small = Dataset(tuple(list(dataset)[:3]))
        Campaign(["rustbrain"], small, seed=SEED, cache=cache).run()
        rerun = Campaign(["rustbrain?kb=off"], small, seed=SEED,
                         cache=cache).run()
        assert rerun.telemetry.cache_counts() == (0, len(small))

    def test_case_source_change_invalidates(self, tmp_path, dataset):
        import dataclasses
        cache = ResultCache(tmp_path / "cache")
        case = list(dataset)[0]
        Campaign(["llm_only"], Dataset((case,)), seed=SEED,
                 cache=cache).run()
        edited = dataclasses.replace(
            case, source=case.source.replace("fn main() {",
                                             "fn main() {\n    let _pr2 = 1;"))
        rerun = Campaign(["llm_only"], Dataset((edited,)), seed=SEED,
                         cache=cache).run()
        assert rerun.telemetry.cache_counts() == (0, 1)

    def test_shared_isolation_uses_arm_entries(self, tmp_path, dataset):
        cache = ResultCache(tmp_path / "cache")
        small = Dataset(tuple(list(dataset)[:4]))
        cold = Campaign(["rustbrain"], small, seed=SEED, isolation="shared",
                        cache=cache).run()
        assert len(cache) == 1  # one arm entry, not one per case
        warm = Campaign(["rustbrain"], small, seed=SEED, isolation="shared",
                        cache=cache).run()
        assert warm.telemetry.cache_counts() == (len(small), 0)
        assert warm.arms[0].reports == cold.arms[0].reports

    def test_shared_pooled_arms_hit_cache(self, tmp_path, dataset):
        cache = ResultCache(tmp_path / "cache")
        small = Dataset(tuple(list(dataset)[:4]))
        arms = ["rustbrain?seed=3", "rustbrain?seed=11"]
        kwargs = dict(isolation="shared", workers=2, executor="process",
                      cache=cache)
        cold = Campaign(arms, small, **kwargs).run()
        warm = Campaign(arms, small, **kwargs).run()
        assert warm.telemetry.cache_counts() == (len(small) * len(arms), 0)
        assert [arm.reports for arm in warm.arms] == \
            [arm.reports for arm in cold.arms]

    def test_cache_dir_and_cache_are_exclusive(self, tmp_path, dataset):
        with pytest.raises(ValueError, match="not both"):
            Campaign(["llm_only"], dataset,
                     cache=ResultCache(tmp_path / "a"),
                     cache_dir=tmp_path / "b")


class TestInjectedIOFaults:
    """The cache's failure contract: injected I/O errors degrade to
    misses (counted in ``io_errors``) and never escape to the caller."""

    def test_get_with_injected_fault_is_a_miss(self, cache):
        from repro.engine.faults import install
        cache.put("key", [_report()])
        # A fresh instance over the same directory: the memory layer is
        # empty, so the read really goes to (faulted) disk.
        reader = ResultCache(cache.root)
        previous = install("cache:io=1")
        try:
            assert reader.get("key") is None
        finally:
            install(previous)
        counts = reader.counts()
        assert counts["io_errors"] >= 1
        assert counts["misses"] == 1
        # Fault plan gone: the entry was never damaged, only masked.
        assert reader.get("key") is not None

    def test_put_with_injected_fault_keeps_the_memory_layer(self, cache,
                                                            tmp_path):
        from repro.engine.faults import install
        previous = install("cache:io=1")
        try:
            cache.put("key", [_report()])
            # Disk write was swallowed; in-process readers still hit.
            assert cache.get("key") is not None
        finally:
            install(previous)
        assert cache.counts()["io_errors"] >= 1
        # A fresh instance over the same directory sees no entry.
        assert ResultCache(cache.root).get("key") is None

    def test_concurrent_chaos_never_raises(self, cache):
        # Threads hammer put/get under a 50% injected I/O failure rate;
        # the invariant is simply "no exception ever escapes the cache".
        from repro.engine.faults import install
        errors = []
        previous = install("cache:io=0.5,seed=3")
        try:
            def hammer(worker):
                try:
                    for i in range(50):
                        key = f"w{worker}-{i % 7}"
                        cache.put(key, [_report(case=key)])
                        found = cache.get(key)
                        # The memory layer always has what we just put.
                        assert found is not None
                        cache.get(f"w{(worker + 1) % 8}-{i % 7}")
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=hammer, args=(n,))
                       for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            install(previous)
        assert errors == []
        assert cache.counts()["io_errors"] > 0
