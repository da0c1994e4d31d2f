"""The benchmark's three workloads.

Each workload runs inside the benchmark's own process: no process pools,
no subprocesses, no ``repro serve`` child.  A workload object has

* ``setup()``     builds the inputs from the seed (timed as ``setup_s``);
                  every timed pass then starts from empty program memos
                  unless ``cold_passes`` is false;
* ``release()``   undoes ``setup()`` so it can be timed again;
* ``iterate()``   one timed pass (a campaign, a sweep, a load window),
                  returning how many operations it completed; a run
                  makes at least one pass per entry of ``pass_keys``, in
                  turn, and hands each pass its key;
* ``check()``     output checks, run outside the timed region;
* ``quality()``   the ``pass_rate`` and ``exec_rate`` of what it produced;
* ``close()``     stops everything it started.

``attempted`` and ``failed`` count operations: a case-arm repair, a
source, or a request.  An operation fails when it raised, got a non-2xx
answer, or failed an output check.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import shutil
import tempfile
import time

from perfbench.measure import share
from repro.check import checker
from repro.corpus.dataset import load_compile_dataset, load_dataset
from repro.corpus.generator import generate_sources
from repro.engine import (EXECUTOR_SERVICE, Campaign, CampaignObserver,
                          ResultCache)
from repro.engine.spec import arm_label
from repro.miri import detect_ub
from repro.miri.errors import UbKind
from repro.service import client
from repro.service.server import RepairServer

MODEL = "gpt-4"

#: The four standard arms of the ROADMAP north star, by short name.
ARMS = {
    "llm_only": "llm_only?batched=on",
    "rustbrain_nokb": "rustbrain?kb=off",
    "rustbrain": "rustbrain",
    "cascade": "cascade?members=compile_fix:gpt-4+rustbrain:gpt-4",
}

#: Campaign seeds in one campaign_cold run, ``seed + SEED_STRIDE * i``.
#: The seed sets the simulated LLM's draws and so which repairs take
#: long: one seed's p99 case-arm latency ranged from 17 to 36 ms across
#: sixteen seeds on a 2-vCPU machine, so a run pools the campaigns of
#: several.
SEEDS_PER_RUN = 6
SEED_STRIDE = 1_000

#: Generated mutants in the verdict sweep: with both corpora this makes
#: about 1,240 distinct texts, more than the 512-entry parse memo holds.
MUTANTS = 1000

CLIENTS = 2
WORKERS = 2
#: One service request in MISS_EVERY carries a fresh seed and executes;
#: the rest repeat a warm (case, arm).  A fixed stride rather than a coin
#: flip keeps the executed work the same from seed to seed.
MISS_EVERY = 10
HOST = "127.0.0.1"
#: Admission limits far above the offered load, so the rate limiter and
#: the queue bound stay in the path without refusing anything.
ADMISSION_RATE = 1_000_000.0
MAX_QUEUE = 64

#: Tail-call misuse legitimately surfaces as a function-pointer or call
#: error; the corpus validation contract applies the same relaxation.
_KIND_ALIASES = {UbKind.TAIL_CALL: {UbKind.TAIL_CALL, UbKind.FUNC_POINTER,
                                    UbKind.FUNC_CALL}}


def arm_labels() -> dict[str, str]:
    """Campaign arm label -> short arm name."""
    return {arm_label(spec, MODEL): short for short, spec in ARMS.items()}


class Workload:
    name = ""
    why = ""
    #: Whether every timed pass starts from empty program memos.
    cold_passes = True

    def __init__(self, seed: int, run_dir):
        self.seed = seed
        self.run_dir = run_dir
        #: What the timed passes run, one key per pass in turn.
        self.pass_keys: list = [None]
        self.attempted = 0
        self.failed = 0
        #: Operation -> its wall times in seconds, one per timed pass.
        self.latencies: dict[object, list[float]] = {}
        #: First few failure descriptions, for stderr.
        self.errors: list[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(reason)

    def release(self) -> None:
        pass

    def close(self) -> None:
        try:
            self.release()
        finally:
            EXECUTOR_SERVICE.shutdown()


class _CaseTimer(CampaignObserver):
    """Times each case-arm repair of one seed's serial campaign between
    its start and finish events, and names the tracer's operation."""

    def __init__(self, latencies: dict, seed: int):
        self.latencies = latencies
        self.seed = seed
        self.tracer = None
        self._start = 0.0

    def on_case_start(self, event) -> None:
        if self.tracer is not None:
            self.tracer.set_operation(
                f"{self.seed}:{event.engine}#{event.index}")
        self._start = time.perf_counter()

    def on_case_done(self, event) -> None:
        self.latencies.setdefault(
            (self.seed, event.engine, event.index), []).append(
                time.perf_counter() - self._start)


def _arms_digest(result) -> str:
    arms = [arm.to_dict() for arm in result.arms]
    return hashlib.sha256(
        json.dumps(arms, sort_keys=True).encode("utf-8")).hexdigest()


class CampaignCold(Workload):
    name = "campaign_cold"
    why = ("ROADMAP north star: cold serial campaigns of the 4 standard "
           "arms over all 117 cases, at 6 seeds derived from the seed; "
           "the repair-side AST pipeline dominates, inputs share heavily")

    def __init__(self, seed: int, run_dir):
        super().__init__(seed, run_dir)
        self.pass_keys = [seed + SEED_STRIDE * i
                          for i in range(SEEDS_PER_RUN)]

    def setup(self) -> None:
        self.dataset = load_dataset()
        self._timers = {seed: _CaseTimer(self.latencies, seed)
                        for seed in self.pass_keys}
        self.campaigns = {
            seed: Campaign(list(ARMS.values()), self.dataset, model=MODEL,
                           seed=seed, executor="serial", observers=[timer])
            for seed, timer in self._timers.items()}
        #: Seed -> the reports of its first pass.
        self.reports: dict[int, list] = {}
        #: Seed -> the arms digest of each of its passes.
        self.digests: dict[int, list[str]] = {}

    @property
    def operations(self) -> int:
        return len(ARMS) * len(self.dataset)

    def iterate(self, seconds: float, key: int, tracer=None) -> int:
        self._timers[key].tracer = tracer
        self.attempted += self.operations
        try:
            result = self.campaigns[key].run()
        except Exception as exc:  # every repair of the pass is lost
            self.fail(self.operations, f"campaign raised {exc!r}")
            return 0
        self.digests.setdefault(key, []).append(_arms_digest(result))
        self.reports.setdefault(key, [report for arm in result.arms
                                      for report in arm.reports])
        return self.operations

    def check(self) -> None:
        first = self.pass_keys[0]
        if len(self.digests.get(first, ())) == 1:
            # Every seed ran once: run the first again, untimed and with
            # the memos the timed passes left warm, for a digest to agree.
            try:
                again = Campaign(list(ARMS.values()), self.dataset,
                                 model=MODEL, seed=first,
                                 executor="serial").run()
                self.digests[first].append(_arms_digest(again))
            except Exception as exc:  # the repeat cannot vouch for it
                self.fail(self.operations, f"repeat campaign raised {exc!r}")
        for seed, digests in self.digests.items():
            if any(digest != digests[0] for digest in digests[1:]):
                self.fail(self.operations, "arms digest differs between "
                          f"passes at seed {seed}")
        passed = {report.repaired_source: report
                  for reports in self.reports.values()
                  for report in reports if report.passed}
        for source, report in passed.items():
            if not detect_ub(source).passed:
                self.fail(1, f"{report.engine}/{report.case}: passed "
                          "repair does not re-detect clean")

    def quality(self) -> tuple[float, float]:
        reports = [report for reports in self.reports.values()
                   for report in reports]
        return (share(sum(r.passed for r in reports), len(reports)),
                share(sum(r.acceptable for r in reports), len(reports)))

    def config(self) -> dict:
        return {"arms": list(ARMS.values()), "model": MODEL,
                "seed": self.seed, "campaign_seeds": self.pass_keys,
                "executor": "serial", "cache": None,
                "cases": len(self.dataset),
                "repairs_per_pass": self.operations,
                "arms_digests": {seed: digests[0] for seed, digests
                                 in self.digests.items()}}


class VerdictSweep(Workload):
    name = "verdict_sweep"
    why = ("check_source then detect_ub(collect=True) over both corpora "
           "plus 1000 seeded mutants (~1,240 texts, past the 512-entry "
           "parse memo); no repair, LLM or fingerprint work")

    def setup(self) -> None:
        # (source, kind, label): kind is what the source must verify as.
        items = []
        for case in load_dataset():
            items.append((case.source, "buggy", case.category))
            items.append((case.fixed_source, "fixed", None))
        for case in load_compile_dataset():
            items.append((case.source, "compile", case.expected_code))
            items.append((case.fixed_source, "fixed", None))
        for source in generate_sources(MUTANTS, self.seed):
            items.append((source, "mutant", None))
        self.items = items
        self.verdicts = None

    def iterate(self, seconds: float, key=None, tracer=None) -> int:
        verdicts = []
        for index, (source, _kind, _label) in enumerate(self.items):
            if tracer is not None:
                tracer.set_operation(index)
            start = time.perf_counter()
            try:
                # Through the module, so a traced run sees the call.
                codes = tuple(checker.check_source(source).codes())
                report = detect_ub(source, collect=True)
                verdict = (codes, report.passed,
                           report.errors[0].kind if report.errors else None)
            except Exception as exc:  # counted against this source
                verdict = ("raised", repr(exc))
            self.latencies.setdefault(index, []).append(
                time.perf_counter() - start)
            verdicts.append(verdict)
        self.attempted += len(self.items)
        if self.verdicts is None:
            self.verdicts = verdicts
        else:
            for index, (first, again) in enumerate(zip(self.verdicts,
                                                       verdicts)):
                if first != again:
                    self.fail(1, f"source {index}: verdict differs "
                              "between passes")
        return len(self.items)

    def _expected(self, kind, label, verdict) -> tuple[bool | None, bool]:
        """(detector verdict as labelled or None when unlabelled, checker
        verdict as labelled)."""
        if verdict[0] == "raised":
            return False, False
        codes, passed, first_kind = verdict
        if kind == "compile":
            return None, label in codes
        if kind == "mutant":
            return None, not codes
        if kind == "fixed":
            return passed, not codes
        allowed = _KIND_ALIASES.get(label, {label})
        return (not passed and first_kind in allowed), not codes

    def _agreement(self):
        for (_source, kind, label), verdict in zip(self.items,
                                                   self.verdicts or ()):
            yield self._expected(kind, label, verdict)

    def check(self) -> None:
        for index, (detector, checked) in enumerate(self._agreement()):
            if detector is False or not checked:
                _source, kind, label = self.items[index]
                self.fail(1, f"source {index} ({kind} {label}): verdict "
                          f"{self.verdicts[index]!r}")

    def quality(self) -> tuple[float, float]:
        """Share of labelled sources whose detector verdict agrees with
        the label, and of all sources whose checker verdict does."""
        agreement = list(self._agreement())
        labelled = [detector for detector, _ in agreement
                    if detector is not None]
        return (share(sum(labelled), len(labelled)),
                share(sum(checked for _, checked in agreement),
                      len(agreement)))

    def config(self) -> dict:
        kinds: dict[str, int] = {}
        for _source, kind, _label in self.items:
            kinds[kind] = kinds.get(kind, 0) + 1
        return {"seed": self.seed, "sources": len(self.items),
                "distinct_sources": len({s for s, _, _ in self.items}),
                "mutants": MUTANTS, "by_kind": kinds,
                "per_source": ["check_source", "detect_ub(collect=True)"]}


class _ClientStream:
    """One closed-loop client's seeded request sequence.

    Warm and fresh requests each walk their own seeded permutation of all
    (case, arm) pairs, so a run samples the pairs evenly, not by chance.
    """

    def __init__(self, seed: int, number: int, cases: int):
        self.number = number
        self.base_seed = seed
        rng = random.Random(seed * 1_000 + number)
        pairs = [(case, arm) for case in range(cases)
                 for arm in range(len(ARMS))]
        self.warm = rng.sample(pairs, len(pairs))
        self.cold = rng.sample(pairs, len(pairs))
        self.offset = rng.randrange(MISS_EVERY)
        self.sent = 0
        self.fresh = 0

    def next(self) -> tuple[int, int, bool, int]:
        """(case index, arm index, warm hit?, campaign seed)."""
        self.sent += 1
        if (self.sent + self.offset) % MISS_EVERY:
            case, arm = self.warm[(self.sent - self.fresh) % len(self.warm)]
            return case, arm, True, self.base_seed
        self.fresh += 1
        case, arm = self.cold[self.fresh % len(self.cold)]
        # Distinct from the warm seed and from every other client's.
        return (case, arm, False,
                self.base_seed + self.number + CLIENTS * self.fresh)


class ServiceMixed(Workload):
    name = "service_mixed"
    why = ("in-process RepairServer, 2 workers, 2 closed-loop clients; 9 "
           "in 10 requests repeat a warm (case, arm), 1 in 10 runs a fresh "
           "seed; the only HTTP, admission and cache path")
    #: A server is measured in steady state: the memos its set-up batch
    #: campaign warmed stay warm, and engine work runs only on misses.
    cold_passes = False

    def __init__(self, seed: int, run_dir):
        super().__init__(seed, run_dir)
        self._runner = asyncio.Runner()
        self.server = None
        self.cache_dir = None
        self.completed = 0
        self.answered = 0
        self.passed = 0
        self.acceptable = 0
        self.hits = 0

    def setup(self) -> None:
        self.dataset = load_dataset()
        self.cases = list(self.dataset)
        self.streams = [_ClientStream(self.seed, number, len(self.cases))
                        for number in range(CLIENTS)]
        self.cache_dir = tempfile.mkdtemp(prefix="service-cache-",
                                          dir=self.run_dir)
        cache = ResultCache(self.cache_dir)
        # The batch and service paths share one cache namespace by design.
        batch = Campaign(list(ARMS.values()), self.dataset, model=MODEL,
                         seed=self.seed, executor="serial",
                         cache=cache).run()
        # Through JSON, so equal dicts mean byte-identical reports.
        self.expected = {
            (arm_index, case_index): json.loads(json.dumps(report.to_dict()))
            for arm_index, arm in enumerate(batch.arms)
            for case_index, report in enumerate(arm.reports)}
        self.server = RepairServer(host=HOST, port=0, workers=WORKERS,
                                   max_queue=MAX_QUEUE, rate=ADMISSION_RATE,
                                   burst=ADMISSION_RATE, cache=cache)
        self._runner.run(self.server.start())

    def release(self) -> None:
        try:
            if self.server is not None:
                self._runner.run(self.server.stop())
                self.server = None
        finally:
            if self.cache_dir is not None:
                shutil.rmtree(self.cache_dir, ignore_errors=True)
                self.cache_dir = None

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._runner.close()

    def iterate(self, seconds: float, key=None, tracer=None) -> int:
        before = self.completed
        deadline = time.perf_counter() + seconds
        self._runner.run(self._load(deadline))
        return self.completed - before

    async def _load(self, deadline: float) -> None:
        await asyncio.gather(*(self._client(stream, deadline)
                               for stream in self.streams))

    async def _client(self, stream: _ClientStream, deadline: float) -> None:
        specs = list(ARMS.values())
        while time.perf_counter() < deadline:
            case_index, arm_index, hit, seed = stream.next()
            case = self.cases[case_index]
            payload = {"source": case.source, "engine": specs[arm_index],
                       "seed": seed, "index": case_index, "name": case.name,
                       "difficulty": case.difficulty,
                       "category": case.category.value,
                       "reference_source": case.fixed_source}
            self.attempted += 1
            request_number = self.attempted
            start = time.perf_counter()
            try:
                response = await client.post_repair(
                    HOST, self.server.port, payload,
                    client_id=f"client-{stream.number}")
                body = response.json()
            except Exception as exc:  # counted; the loop keeps going
                self.fail(1, f"request raised {exc!r}")
                continue
            self.latencies[request_number] = [time.perf_counter() - start]
            self.completed += 1
            if response.status != 200:
                self.fail(1, f"HTTP {response.status}: {body!r}")
                continue
            report = body["report"]
            self.answered += 1
            self.passed += report["passed"]
            self.acceptable += report["acceptable"]
            if hit:
                self.hits += 1
                if report != self.expected[(arm_index, case_index)]:
                    self.fail(1, f"warm hit {specs[arm_index]}#"
                              f"{case_index} differs from the batch report")

    def check(self) -> None:
        pass  # every answer is checked as it arrives, after its timing

    def quality(self) -> tuple[float, float]:
        return (share(self.passed, self.answered),
                share(self.acceptable, self.answered))

    def config(self) -> dict:
        return {"arms": list(ARMS.values()), "model": MODEL,
                "seed": self.seed, "clients": CLIENTS, "loop": "closed",
                "workers": WORKERS, "hit_share": 1 - 1 / MISS_EVERY,
                "measured_hit_share": round(share(self.hits,
                                                  self.completed), 4),
                "cases": len(self.cases), "warm_reports": len(self.expected),
                "admission_rate": ADMISSION_RATE, "max_queue": MAX_QUEUE}


WORKLOADS = {workload.name: workload
             for workload in (CampaignCold, VerdictSweep, ServiceMixed)}
