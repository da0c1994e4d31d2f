"""Campaign runner: shard a dataset across workers, one arm at a time.

A :class:`Campaign` evaluates one or more engine specs over a
:class:`~repro.corpus.dataset.Dataset`.  The dataset is split into
contiguous shards which a ``concurrent.futures`` pool drains; every case
gets a **fresh engine instance with a per-case derived seed**, so the
outcome of a case depends only on ``(spec, model, campaign seed, case
index)`` — never on scheduling — and a pooled run is byte-identical to a
serial one at any worker count.

``workers`` alone picks the path.  One worker runs in-process: the
reference semantics.  More workers drain the shards through a process
pool over picklable shard tasks: real multi-core parallelism for the
parse → interpret → repair pipeline.  Workers return plain
:class:`~repro.engine.types.RepairReport` lists; all telemetry is emitted
in the parent in deterministic (submission) order.  ``executor=`` picks
no path: it is validated (``"serial"`` or the default ``"process"``;
``"serial"`` insists on one worker) and recorded as ``config.executor``.

Process pools are *leased* from the shared
:data:`~repro.engine.pool.EXECUTOR_SERVICE` (see DESIGN.md, "Execution
resources"): repeated campaigns reuse one long-lived pool per width,
clamped to the service's core budget — wall-clock only, never bytes.

A :class:`~repro.engine.cache.ResultCache` (``cache=``/``cache_dir=``) is
consulted in the parent before any case is dispatched: hits are replayed
from disk (with ``on_cache`` telemetry), only misses reach the pool, and
fresh reports are written back — so a warm re-run of an identical campaign
performs zero engine case executions.

Progress surfaces through the structured observer events in
:mod:`repro.engine.telemetry`, and a finished run serializes to JSON
(``campaign.json``) for the ``BENCH_*`` trajectory.

The legacy stateful path — one shared engine walked serially over the
dataset, accumulating feedback memory across cases — lives on as
:func:`run_cases` and as ``isolation="shared"``.  A shared sweep is
order-dependent by design, so within an arm it always runs serially
(a one-arm campaign with ``workers > 1`` falls back with a warning); with
several arms and ``workers > 1``, whole arms run in parallel instead —
each arm keeps its exact stateful semantics while the pool stays
saturated, which is how the benchmark figures fan their per-seed repeat
samples out.

Campaigns are resilient (see DESIGN.md, "Failure model & recovery"):

* A fault plan (``faults=`` or ``REPRO_FAULTS``,
  :mod:`repro.engine.faults`) is installed for the duration of ``run()``
  and travels to process workers as a spec string in the task arguments.
  A worker killed mid-shard breaks the pool; the campaign re-leases a
  replacement from the :data:`~repro.engine.pool.EXECUTOR_SERVICE` and
  re-dispatches the uncollected shards with deterministic backoff
  (``on_retry`` telemetry) — results stay byte-identical because every
  case derives its seed from ``(campaign seed, index)``, not from which
  worker ran it.
* A :class:`~repro.engine.journal.CampaignJournal` (``journal=``)
  durably appends every completed result, keyed by the existing cache
  keys; a killed campaign resumed with the same journal replays the
  journaled cases and re-executes only what is missing.
"""

from __future__ import annotations

import json
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..corpus.dataset import Dataset, load_dataset
from . import faults as faults_mod
from .cache import (CACHE_EPOCH, ResultCache, _digest, arm_key, case_key,
                    fingerprint_case, fingerprint_dataset)
from .journal import CampaignJournal
from .pool import EXECUTOR_SERVICE, cancel_and_wait
from .registry import create_engine
from .results import SystemResults
from .retry import CAMPAIGN_RETRY, RETRY_EVENTS, RetryPolicy
from .spec import EngineSpec, arm_label
from .telemetry import (CacheQueried, CampaignObserver, CaseFinished,
                        CaseStarted, EngineFinished, EngineStarted,
                        MemberFinished, RetryAttempted, RoundFinished,
                        TelemetryLog)
from .types import RepairReport, RepairRequest, run_request

#: Multiplier decorrelating per-case seeds from neighbouring campaign seeds.
_CASE_SEED_STRIDE = 100_003

EXECUTORS = ("serial", "process")


def case_seed(campaign_seed: int, index: int) -> int:
    """The derived seed for case ``index`` — order- and worker-independent."""
    return campaign_seed * _CASE_SEED_STRIDE + index


def hoist_pinned_seed(spec: EngineSpec,
                      campaign_seed: int) -> tuple[int, EngineSpec]:
    """Hoist a spec-pinned ``seed`` into the arm's base seed.

    Per-case derivation must stay in effect — otherwise
    ``rustbrain?seed=7`` would run every case with literally seed 7,
    fully correlating the samples.  The pinned value replaces the
    campaign seed as the derivation base, and the param is stripped
    from the spec used to build engines (the original spec, label
    included, is what gets reported and what keys the cache).

    Shared by :class:`Campaign` and the repair service so the same
    ``(spec, seed, case index)`` always resolves to the same engine
    seeding regardless of which front door ran it.
    """
    kwargs = spec.factory_kwargs()
    if "seed" not in kwargs:
        return campaign_seed, spec
    stripped = EngineSpec(spec.name,
                          tuple((key, value) for key, value in spec.params
                                if key != "seed"))
    return kwargs["seed"], stripped


def run_cases(engine, dataset: Dataset, label: str) -> SystemResults:
    """Serial sweep of one *shared* engine instance over a dataset.

    This is the stateful legacy semantics (feedback memory and repair
    indices accumulate across cases) used by ``evaluate_system`` and the
    benchmark figures.  Campaigns use per-case instances instead.
    """
    results = SystemResults(label)
    for case in dataset:
        report = run_request(engine, RepairRequest.from_case(case),
                             engine_label=label)
        results.results.append(report.to_case_result())
    return results


# ---------------------------------------------------------------------------
# Picklable process-pool tasks.  Workers rebuild engines from spec strings
# (the registry re-imports lazily in spawned children) and return plain
# report lists; no locks, observers, or caches ever cross the boundary.


def _worker_faults(faults: str, key: str, attempt: int):
    """Install the task's fault plan in this worker and roll its fate.

    The plan arrives as a spec string *in the task arguments* (never via
    parent globals — workers are long-lived and fork-once), is installed
    for the duration of the task so LLM/cache hooks inside the worker see
    it, and decides up front whether this worker crashes or hangs.
    ``attempt`` is the parent's re-dispatch count: a shard that crashed
    the pool must not crash its replacement forever.

    Returns the previous override, for the caller's ``finally`` restore.
    """
    plan = faults_mod.FaultPlan.parse(faults)
    previous = faults_mod.install(plan)
    if plan.enabled:
        plan.crash(key, attempt)
        plan.hang(key, attempt)
    return previous


def _execute_case_batch(spec: str, label: str, model: str, temperature: float,
                        base_seed: int, items: list, faults: str = "",
                        attempt: int = 0) -> list[RepairReport]:
    """Run a shard of ``(index, case)`` pairs with per-case engines."""
    first = items[0][0] if items else 0
    previous = _worker_faults(faults, f"{label}|shard{first}", attempt)
    try:
        reports = []
        for index, case in items:
            engine = create_engine(spec, model=model,
                                   seed=case_seed(base_seed, index),
                                   temperature=temperature)
            reports.append(run_request(engine,
                                       RepairRequest.from_case(case, index),
                                       engine_label=label))
        return reports
    finally:
        faults_mod.install(previous)


def _execute_shared_arm(spec: str, label: str, model: str, temperature: float,
                        base_seed: int, cases: list, faults: str = "",
                        attempt: int = 0) -> list[RepairReport]:
    """Run one whole stateful arm serially (shared-isolation semantics)."""
    previous = _worker_faults(faults, f"{label}|arm", attempt)
    try:
        engine = create_engine(spec, model=model, seed=base_seed,
                               temperature=temperature)
        return [run_request(engine, RepairRequest.from_case(case, index),
                            engine_label=label)
                for index, case in enumerate(cases)]
    finally:
        faults_mod.install(previous)


@dataclass
class ArmRun:
    """One engine spec's sweep within a campaign."""

    spec: EngineSpec
    label: str
    reports: list[RepairReport] = field(default_factory=list)

    @property
    def results(self) -> SystemResults:
        """Aggregate view over ``reports`` (the single source of truth)."""
        aggregated = SystemResults(self.label)
        aggregated.results.extend(report.to_case_result()
                                  for report in self.reports)
        return aggregated

    def to_dict(self) -> dict:
        results = self.results
        return {
            "spec": self.spec.to_string(),
            "label": self.label,
            "summary": {
                "cases": len(results.results),
                "pass_rate": results.pass_rate(),
                "exec_rate": results.exec_rate(),
                "mean_seconds": results.mean_seconds(),
            },
            "cases": [report.to_dict() for report in self.reports],
        }


@dataclass
class CampaignResult:
    config: dict
    arms: list[ArmRun]
    telemetry: TelemetryLog

    def by_label(self) -> dict[str, SystemResults]:
        return {arm.label: arm.results for arm in self.arms}

    def to_dict(self) -> dict:
        return {
            "schema": "repro.campaign/4",
            "config": dict(self.config),
            "arms": [arm.to_dict() for arm in self.arms],
            "telemetry": self.telemetry.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path) -> None:
        import pathlib
        pathlib.Path(path).write_text(self.to_json() + "\n",
                                      encoding="utf-8")


@dataclass
class _ShardPlan:
    """One shard after the parent-side cache pass: what is already known
    (``hits``) and what still needs an engine (``misses``)."""

    shard: list                      # [(index, case), ...] in dataset order
    hits: dict                       # index -> cached RepairReport
    misses: list                     # [(index, case), ...] needing execution
    keys: dict                       # index -> cache key (when caching)


class Campaign:
    """Sweep engine arms over a dataset with a sharded worker pool.

    ``isolation`` picks the execution semantics per arm:

    * ``"per_case"`` (default) — a fresh engine per case with a derived
      seed; order- and worker-count-invariant, parallelises freely.
    * ``"shared"`` — one engine instance walks the dataset serially, so
      cross-case state (RustBrain's self-learning feedback memory)
      accumulates exactly as in the paper's experiments.  A stateful sweep
      is order-dependent by design: within an arm it always runs serially.
      With ``workers > 1`` and more than one arm, whole arms are
      dispatched to the process pool instead; a one-arm campaign falls
      back to serial with a :class:`RuntimeWarning` rather than silently
      changing semantics.
    """

    def __init__(self, engines, dataset: Dataset | None = None, *,
                 model: str = "gpt-4", seed: int = 0,
                 temperature: float = 0.5, workers: int = 1,
                 shard_size: int = 8, isolation: str = "per_case",
                 executor: str = "process",
                 cache: ResultCache | None = None,
                 cache_dir=None, observers=(),
                 faults=None, retry: RetryPolicy | None = None,
                 journal: CampaignJournal | str | None = None):
        # A lone spec (string or EngineSpec) is a one-arm campaign, not an
        # iterable of one-character engine names.
        if isinstance(engines, (str, EngineSpec)):
            engines = [engines]
        self.specs = [EngineSpec.coerce(spec) for spec in engines]
        if not self.specs:
            raise ValueError("a campaign needs at least one engine spec")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if isolation not in ("per_case", "shared"):
            raise ValueError(
                f"isolation must be 'per_case' or 'shared', got {isolation!r}")
        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, "
                             f"got {executor!r}")
        if executor == "serial" and workers > 1:
            raise ValueError("the serial executor runs in-process; "
                             "use executor='process' with workers > 1")
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache= or cache_dir=, not both")
        if isolation == "shared" and workers > 1 and len(self.specs) == 1:
            warnings.warn(
                "shared isolation is a stateful serial sweep; forcing "
                "workers=1 (several arms parallelise across arms instead)",
                RuntimeWarning, stacklevel=2)
            workers = 1
        # Fail fast: resolve every arm now (unknown engines, bad config
        # keys) instead of after earlier arms have burned minutes of work.
        for spec in self.specs:
            create_engine(spec, model=model, seed=seed,
                          temperature=temperature)
        self.dataset = dataset if dataset is not None else load_dataset()
        self.model = model
        # Arms are keyed by label everywhere downstream (by_label(), the
        # bench aggregations): two arms sharing one would silently merge
        # or drop results, so reject the collision up front.  (The plain
        # llm_only arm and a profile arm of the campaign model collide by
        # the paper's labelling convention — they are the same engine.)
        labels = [arm_label(spec, model) for spec in self.specs]
        duplicates = sorted({label for label in labels
                             if labels.count(label) > 1})
        if duplicates:
            raise ValueError(
                f"duplicate arm label(s) {', '.join(duplicates)}: every "
                f"arm in a campaign needs a distinct (spec, model) identity")
        self.seed = seed
        self.temperature = temperature
        self.workers = workers
        self.shard_size = shard_size
        self.isolation = isolation
        self.executor = executor
        self.cache = ResultCache(cache_dir) if cache_dir is not None else cache
        #: The resolved fault plan (``faults=`` wins; ``None`` captures the
        #: ambient plan — an installed override or ``REPRO_FAULTS``; ``""``
        #: explicitly disables injection regardless of the environment).
        self.fault_plan = faults_mod.FaultPlan.coerce(faults)
        self.retry = retry if retry is not None else CAMPAIGN_RETRY
        self.journal = CampaignJournal(journal) \
            if isinstance(journal, (str, bytes)) or hasattr(journal, "__fspath__") \
            else journal
        self._user_observers: list[CampaignObserver] = list(observers)
        #: The latest run's event log; replaced at each ``run()`` so repeated
        #: runs don't accumulate each other's events.
        self.telemetry = TelemetryLog()
        self.observers: list[CampaignObserver] = [self.telemetry,
                                                  *self._user_observers]
        self._lock = threading.Lock()

    # -- observer fan-out --------------------------------------------------

    def _emit(self, hook: str, event) -> None:
        with self._lock:
            for observer in self.observers:
                getattr(observer, hook)(event)

    # -- execution ---------------------------------------------------------

    def label_for(self, spec: EngineSpec) -> str:
        return arm_label(spec, self.model)

    def _arm_seeding(self, spec: EngineSpec) -> tuple[int, EngineSpec]:
        """See :func:`hoist_pinned_seed` (the arm base is the campaign
        seed unless the spec pins its own)."""
        return hoist_pinned_seed(spec, self.seed)

    def _run_case(self, spec: EngineSpec, label: str, base_seed: int,
                  index: int, case, total: int, engine=None) -> RepairReport:
        self._emit("on_case_start",
                   CaseStarted(engine=label, case=case.name, index=index,
                               total=total))
        # In-process executions honour the plan's hang site only: a crash
        # here would take down the campaign itself, not a worker.
        if self.fault_plan.enabled:
            self.fault_plan.hang(f"{label}|case{index}")
        if engine is None:
            engine = create_engine(spec, model=self.model,
                                   seed=case_seed(base_seed, index),
                                   temperature=self.temperature)
        report = run_request(engine, RepairRequest.from_case(case, index),
                             engine_label=label)
        self._emit_case_done(label, case.name, index, total, report)
        return report

    def _emit_case_done(self, label: str, case_name: str, index: int,
                        total: int, report: RepairReport) -> None:
        # Ensemble arms: one event per consulted member, in consultation
        # order.  The summaries ride inside the report, so live, pooled,
        # and cache-replayed cases all emit the identical stream.
        for member in report.members:
            self._emit("on_member_done", MemberFinished(
                engine=label, case=case_name, index=index,
                member=member["member"], model=member["model"],
                member_index=member["index"], passed=member["passed"],
                seconds=member["seconds"],
                wave=member.get("wave", 0)))
        self._emit("on_case_done",
                   CaseFinished(engine=label, case=case_name, index=index,
                                total=total, passed=report.passed,
                                acceptable=report.acceptable,
                                seconds=report.seconds))

    def _replay_case(self, label: str, case, index: int, total: int,
                     report: RepairReport) -> None:
        """Emit start/done events for a case served from cache or a pool."""
        self._emit("on_case_start",
                   CaseStarted(engine=label, case=case.name, index=index,
                               total=total))
        self._emit_case_done(label, case.name, index, total, report)

    # -- cache pass --------------------------------------------------------

    def _plan_shards(self, spec: EngineSpec, label: str,
                     base_seed: int, shards) -> list[_ShardPlan]:
        """Parent-side cache/journal consult: split shards into hits/misses.

        ``on_cache`` telemetry fires here, in dataset order, identically
        at any worker count.  The journal is consulted *behind*
        the cache and emits no telemetry of its own: a journal replay
        must leave the event stream exactly as the original (cacheless)
        run produced it, or a resumed ``campaign.json`` would differ.
        """
        spec_str = spec.to_string()
        plans = []
        for shard in shards:
            hits: dict = {}
            misses: list = []
            keys: dict = {}
            for index, case in shard:
                if self.cache is None and self.journal is None:
                    misses.append((index, case))
                    continue
                key = case_key(spec_str, self.model, self.temperature,
                               case_seed(base_seed, index),
                               fingerprint_case(case.name, case.source,
                                                case.fixed_source,
                                                case.difficulty,
                                                case.category))
                keys[index] = key
                cached = None
                if self.cache is not None:
                    cached = self.cache.get(key)
                    self._emit("on_cache",
                               CacheQueried(engine=label, case=case.name,
                                            index=index,
                                            hit=cached is not None, key=key))
                if cached is not None:
                    hits[index] = cached[0]
                    self._journal_record(key, [cached[0]], kind="case",
                                         arm=label, index=index)
                    continue
                journaled = self.journal.get(key) \
                    if self.journal is not None else None
                if journaled is not None:
                    hits[index] = journaled[0]
                else:
                    misses.append((index, case))
            plans.append(_ShardPlan(shard=list(shard), hits=hits,
                                    misses=misses, keys=keys))
        return plans

    def _journal_record(self, key: str | None, reports, *, kind: str,
                        arm: str, index: int | None = None) -> None:
        """Durably journal one completed result (no-op without a journal;
        duplicate keys — replays, cache hits already journaled by the
        interrupted run — are ignored by the journal itself)."""
        if self.journal is not None and key is not None:
            self.journal.append(key, reports, kind=kind, arm=arm,
                                index=index)

    def _merge_shard(self, label: str, total: int, plan: _ShardPlan,
                     miss_reports: list[RepairReport],
                     replay_misses: bool) -> list[RepairReport]:
        """Stitch cached hits and fresh reports back into dataset order,
        emitting events for anything that did not run through
        :meth:`_run_case` and writing misses back to the cache."""
        fresh = {index: report
                 for (index, _case), report in zip(plan.misses, miss_reports)}
        merged = []
        for index, case in plan.shard:
            if index in plan.hits:
                report = plan.hits[index]
                self._replay_case(label, case, index, total, report)
            else:
                report = fresh[index]
                if replay_misses:
                    self._replay_case(label, case, index, total, report)
                if self.cache is not None:
                    self.cache.put(plan.keys[index], [report])
                self._journal_record(plan.keys.get(index), [report],
                                     kind="case", arm=label, index=index)
            merged.append(report)
        return merged

    # -- per-arm execution -------------------------------------------------

    def _run_arm(self, spec: EngineSpec) -> ArmRun:
        label = self.label_for(spec)
        base_seed, run_spec = self._arm_seeding(spec)
        cases = list(self.dataset)
        total = len(cases)
        self._emit("on_engine_start",
                   EngineStarted(engine=label, cases=total))
        if self.isolation == "shared":
            reports = self._run_shared_arm(spec, run_spec, label, base_seed,
                                           cases)
        else:
            reports = self._run_per_case_arm(spec, run_spec, label, base_seed,
                                             cases)
        self._emit_engine_done(label, reports)
        return ArmRun(spec=spec, label=label, reports=reports)

    def _emit_engine_done(self, label: str,
                          reports: list[RepairReport]) -> None:
        self._emit("on_engine_done", EngineFinished(
            engine=label, cases=len(reports),
            passed=sum(r.passed for r in reports),
            acceptable=sum(r.acceptable for r in reports),
            virtual_seconds=sum(r.seconds for r in reports)))

    def _shards(self, cases) -> list[list]:
        indexed = list(enumerate(cases))
        return [indexed[start:start + self.shard_size]
                for start in range(0, len(cases), self.shard_size)]

    def _run_per_case_arm(self, spec: EngineSpec, run_spec: EngineSpec,
                          label: str, base_seed: int,
                          cases: list) -> list[RepairReport]:
        total = len(cases)
        shards = self._shards(cases)
        plans = self._plan_shards(spec, label, base_seed, shards)
        rounds = len(plans)

        reports: list[RepairReport] = []
        completed = passed = 0

        def collect(round_index: int, plan: _ShardPlan,
                    miss_reports: list[RepairReport],
                    replay_misses: bool) -> None:
            nonlocal completed, passed
            merged = self._merge_shard(label, total, plan, miss_reports,
                                       replay_misses)
            reports.extend(merged)
            completed += len(merged)
            passed += sum(r.passed for r in merged)
            self._emit_round(label, round_index, rounds, completed, total,
                            passed)

        if self.workers == 1:
            for round_index, plan in enumerate(plans):
                miss_reports = [self._run_case(run_spec, label, base_seed,
                                               index, case, total)
                                for index, case in plan.misses]
                collect(round_index, plan, miss_reports, replay_misses=False)
        else:
            spec_str = run_spec.to_string()
            faults_str = self.fault_plan.to_string()
            # A worker crash breaks the whole pool; the service hands out
            # a replacement on the next lease, and only the *uncollected*
            # shards are re-dispatched (collection is in submission order,
            # so the collected prefix is exactly what is already merged).
            # Re-execution is safe: shards are pure functions of their
            # arguments, so a shard that completed but was never collected
            # recomputes byte-identically.
            position = 0
            attempt = 0
            while position < rounds:
                remaining = plans[position:]
                try:
                    with EXECUTOR_SERVICE.lease("process",
                                                self.workers) as pool:
                        futures = [pool.submit(
                            _execute_case_batch, spec_str, label,
                            self.model, self.temperature, base_seed,
                            plan.misses, faults_str, attempt)
                            for plan in remaining]
                        try:
                            for future, plan in zip(futures, remaining):
                                collect(position, plan, future.result(),
                                        replay_misses=True)
                                position += 1
                        except BaseException:
                            cancel_and_wait(futures)
                            raise
                except BrokenProcessPool as exc:
                    attempt += 1
                    self._redispatch_backoff(label, position, attempt, exc)
        return reports

    def _redispatch_backoff(self, label: str, position: int, attempt: int,
                            exc: BaseException) -> None:
        """Between shard re-dispatches: exhaust the budget or back off.

        Emits the ``on_retry`` event through the process-wide notifier —
        :meth:`run` keeps a subscription open, so the event lands in this
        campaign's telemetry alongside LLM-level retries.
        """
        if attempt >= self.retry.attempts:
            raise exc
        delay = self.retry.delay_for(attempt - 1, key=label)
        RETRY_EVENTS.emit(RetryAttempted(
            site="worker", key=f"{label}|round{position}", attempt=attempt,
            max_attempts=self.retry.attempts, delay_seconds=delay,
            error=f"{type(exc).__name__}: {exc}"))
        self.retry.sleep(delay)

    def _run_shared_arm(self, spec: EngineSpec, run_spec: EngineSpec,
                        label: str, base_seed: int,
                        cases: list) -> list[RepairReport]:
        total = len(cases)
        key = None
        if self.cache is not None or self.journal is not None:
            key = arm_key(spec.to_string(), self.model, self.temperature,
                          base_seed, fingerprint_dataset(cases))
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None and len(cached) == total:
                self._journal_record(key, cached, kind="arm", arm=label)
                return self._replay_shared_arm(label, cases, cached, key,
                                               hit=True)
        if self.journal is not None:
            journaled = self.journal.get(key)
            if journaled is not None and len(journaled) == total:
                return self._replay_shared_arm(label, cases, journaled, key,
                                               hit=False)
        shared_engine = create_engine(run_spec, model=self.model,
                                      seed=base_seed,
                                      temperature=self.temperature)
        reports: list[RepairReport] = []
        completed = passed = 0
        shards = self._shards(cases)
        for round_index, shard in enumerate(shards):
            shard_reports = []
            for index, case in shard:
                if self.cache is not None:
                    self._emit("on_cache",
                               CacheQueried(engine=label, case=case.name,
                                            index=index, hit=False, key=key))
                shard_reports.append(self._run_case(
                    run_spec, label, base_seed, index, case, total,
                    shared_engine))
            reports.extend(shard_reports)
            completed += len(shard_reports)
            passed += sum(r.passed for r in shard_reports)
            self._emit_round(label, round_index, len(shards), completed,
                            total, passed)
        if self.cache is not None:
            self.cache.put(key, reports)
        self._journal_record(key, reports, kind="arm", arm=label)
        return reports

    def _replay_shared_arm(self, label: str, cases: list,
                           reports: list[RepairReport], key: str | None,
                           hit: bool) -> list[RepairReport]:
        """Emit the full event stream for an arm whose reports came from
        the cache or a pooled worker — identical counts to a live run."""
        total = len(cases)
        shards = self._shards(cases)
        completed = passed = 0
        position = 0
        for round_index, shard in enumerate(shards):
            for index, case in shard:
                # A journal replay passes a key but runs cacheless: no
                # on_cache events, exactly like the original live run.
                if key is not None and self.cache is not None:
                    self._emit("on_cache",
                               CacheQueried(engine=label, case=case.name,
                                            index=index, hit=hit, key=key))
                report = reports[position]
                self._replay_case(label, case, index, total, report)
                position += 1
                completed += 1
                passed += report.passed
            self._emit_round(label, round_index, len(shards), completed,
                            total, passed)
        return reports

    # -- arm-level pooling (shared isolation, several arms) ----------------

    def _run_arms_pooled(self) -> list[ArmRun]:
        """Dispatch whole stateful arms to a process pool.

        Each arm keeps exact shared-isolation semantics (one engine, serial
        over the dataset); the pool parallelises *across* arms, which is
        what lets per-seed repeat sampling saturate every core.  Events are
        emitted arm-by-arm in spec order as results are collected.
        """
        cases = list(self.dataset)
        dataset_fp = fingerprint_dataset(cases) \
            if self.cache is not None or self.journal is not None else None
        # (spec, run_spec, label, base_seed, key, ready reports, source)
        # where source is "cache", "journal", or None (needs execution).
        plans = []
        for spec in self.specs:
            label = self.label_for(spec)
            base_seed, run_spec = self._arm_seeding(spec)
            key = ready = source = None
            if dataset_fp is not None:
                key = arm_key(spec.to_string(), self.model, self.temperature,
                              base_seed, dataset_fp)
            if self.cache is not None:
                ready = self.cache.get(key)
                if ready is not None and len(ready) == len(cases):
                    source = "cache"
                else:
                    ready = None
            if ready is None and self.journal is not None:
                ready = self.journal.get(key)
                if ready is not None and len(ready) == len(cases):
                    source = "journal"
                else:
                    ready = None
            plans.append((spec, run_spec, label, base_seed, key, ready,
                          source))

        arms: list[ArmRun] = []

        def collect(plan, futures) -> None:
            spec, _run_spec, label, _base_seed, key, ready, source = plan
            self._emit("on_engine_start",
                       EngineStarted(engine=label, cases=len(cases)))
            if source == "cache":
                self._journal_record(key, ready, kind="arm", arm=label)
                reports = self._replay_shared_arm(label, cases, ready,
                                                  key, hit=True)
            elif source == "journal":
                reports = self._replay_shared_arm(label, cases, ready,
                                                  key, hit=False)
            else:
                reports = futures[id(plan)].result()
                self._replay_shared_arm(label, cases, reports, key,
                                        hit=False)
                if self.cache is not None:
                    self.cache.put(key, reports)
                self._journal_record(key, reports, kind="arm", arm=label)
            self._emit_engine_done(label, reports)
            arms.append(ArmRun(spec=spec, label=label, reports=reports))

        faults_str = self.fault_plan.to_string()
        position = 0
        attempt = 0
        while position < len(plans):
            pending_live = [plan for plan in plans[position:]
                            if plan[6] is None]
            if not pending_live:
                # Fully warm tail (cache or journal): every remaining arm
                # replays from disk, so leasing a pool would do nothing.
                for plan in plans[position:]:
                    collect(plan, {})
                    position += 1
                break
            # Keyed by the campaign's worker count, NOT min(workers, live):
            # a live-count-dependent key would accumulate one long-lived
            # pool per distinct cache-miss count across repeated sweeps.
            # Excess workers simply idle for this run.  A BrokenProcessPool
            # (worker crash) re-leases and re-dispatches the uncollected
            # live arms, exactly like the per-case shard path.
            try:
                with EXECUTOR_SERVICE.lease("process", self.workers) as pool:
                    futures = {id(plan): pool.submit(
                        _execute_shared_arm, plan[1].to_string(), plan[2],
                        self.model, self.temperature, plan[3], cases,
                        faults_str, attempt)
                        for plan in pending_live}
                    try:
                        while position < len(plans):
                            collect(plans[position], futures)
                            position += 1
                    except BaseException:
                        cancel_and_wait(futures.values())
                        raise
            except BrokenProcessPool as exc:
                attempt += 1
                self._redispatch_backoff("arms", position, attempt, exc)
        return arms

    def _emit_round(self, label: str, round_index: int, rounds: int,
                    completed: int, total: int, passed: int) -> None:
        # Running counters from the caller — no O(rounds * cases) rescans.
        self._emit("on_round", RoundFinished(
            engine=label, round_index=round_index, rounds=rounds,
            completed=completed, total=total, passed_so_far=passed))

    def _journal_fingerprint(self) -> str:
        """Digest of everything that determines case outcomes — so a
        journal can refuse to resume a *different* experiment — while
        leaving parallelism (workers, shard size, executor) free to
        change between the interrupted run and the resume."""
        return _digest(
            "journal", str(CACHE_EPOCH), self.model, str(self.seed),
            f"{self.temperature:.6g}", self.isolation,
            fingerprint_dataset(list(self.dataset)),
            *sorted(spec.to_string() for spec in self.specs))

    def run(self) -> CampaignResult:
        self.telemetry = TelemetryLog()
        self.observers = [self.telemetry, *self._user_observers]
        if self.journal is not None:
            self.journal.open(self._journal_fingerprint())
        # Scope the campaign's fault plan process-wide so in-process
        # hooks (LLM client, cache) see it, and bridge every retry —
        # LLM-level, shard re-dispatch, wherever — into this run's
        # telemetry as on_retry events.
        previous_plan = faults_mod.install(self.fault_plan)
        try:
            with RETRY_EVENTS.subscribed(
                    lambda event: self._emit("on_retry", event)):
                if self.isolation == "shared" and self.workers > 1:
                    arms = self._run_arms_pooled()
                else:
                    arms = [self._run_arm(spec) for spec in self.specs]
        finally:
            faults_mod.install(previous_plan)
        config = {
            "engines": [spec.to_string() for spec in self.specs],
            "model": self.model,
            "seed": self.seed,
            "temperature": self.temperature,
            "workers": self.workers,
            "shard_size": self.shard_size,
            "isolation": self.isolation,
            "executor": self.executor,
            "cache": self.cache is not None,
            "cases": len(self.dataset),
        }
        return CampaignResult(config=config, arms=arms,
                              telemetry=self.telemetry)
