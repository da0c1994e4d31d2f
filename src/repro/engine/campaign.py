"""Campaign runner: plan every arm into tasks, then run and replay them.

A :class:`Campaign` evaluates one or more engine specs over a
:class:`~repro.corpus.dataset.Dataset`.  Every arm is first planned into
*tasks*, one loop runs them, and one completion routine reports them:

* **Plan.**  ``isolation="per_case"`` (the default) cuts the dataset
  into contiguous shards of ``shard_size`` cases, and every case gets a
  **fresh engine with a per-case derived seed**, so its outcome depends
  only on ``(spec, model, campaign seed, case index)`` — never on
  scheduling.  ``isolation="shared"`` makes the whole arm one task: one
  engine walks the dataset serially, so cross-case state (RustBrain's
  self-learning feedback memory) accumulates exactly as in the paper's
  experiments.  Every arm is planned before any case runs, and each
  task's entries — one per case, or one per shared arm — are looked up
  once: in the :class:`~repro.engine.cache.ResultCache`
  (``cache=``/``cache_dir=``) first, then in the
  :class:`~repro.engine.journal.CampaignJournal` (``journal=``).
* **Run.**  What neither answers runs in-process at ``workers == 1`` (the
  reference semantics; each case's repair runs between its
  ``on_case_start`` and ``on_case_done``), or above that as picklable
  tasks on one process pool leased for the tasks of every arm.  Workers
  return plain :class:`~repro.engine.types.RepairReport` lists, collected
  in submission order.  A task with nothing to run is never submitted,
  so a fully warm campaign leases no pool.
* **Complete.**  Each case's events are emitted in dataset order, so the
  event sequence (apart from ``on_retry``) is the same at any worker
  count.  Results are then written back: the cache stores what ran, the
  journal appends what ran and what the cache answered.

``workers`` alone picks where tasks run.  ``executor=`` picks nothing: it
is validated (``"serial"`` or the default ``"process"``; ``"serial"``
insists on one worker) and recorded as ``config.executor``.  Process
pools are *leased* from the shared
:data:`~repro.engine.pool.EXECUTOR_SERVICE` (see DESIGN.md, "Execution
resources"): repeated campaigns reuse one long-lived pool per width,
clamped to the service's core budget — wall-clock only, never bytes.  A
shared sweep is order-dependent by design, so a one-arm shared campaign
with ``workers > 1`` falls back to one worker with a warning; with
several arms, whole arms run in parallel, which is how the benchmark
figures fan their per-seed repeat samples out.

Campaigns are resilient (see DESIGN.md, "Failure model & recovery"):

* A fault plan (``faults=`` or ``REPRO_FAULTS``,
  :mod:`repro.engine.faults`) is installed for the duration of ``run()``
  and travels to process workers as a spec string in the task arguments.
  A worker killed mid-task breaks the pool; the campaign re-leases a
  replacement and re-dispatches the uncollected tasks with deterministic
  backoff (``on_retry`` telemetry).  Results stay byte-identical because
  a task is a pure function of its arguments, not of which worker ran it.
* The journal durably appends every completed result, keyed by the cache
  keys; a killed campaign resumed with the same journal replays the
  journaled results and re-executes only what is missing.

Progress surfaces through the structured observer events in
:mod:`repro.engine.telemetry`, and a finished run serializes to JSON
(``campaign.json``) for the ``BENCH_*`` trajectory.  :func:`run_cases`
keeps the legacy stateful sweep of one engine instance.
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
from .telemetry import (CacheQueried, CampaignObserver, CaseStarted,
                        EngineFinished, EngineStarted, RetryAttempted,
                        RoundFinished, TelemetryLog, case_finished_events)
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
# Running a task's misses.  The same generator serves the in-process path
# and the process-pool workers, which rebuild engines from spec strings
# and return plain report lists: no lock, observer or cache ever crosses
# the process boundary.


def _repairs(spec, label: str, model: str, temperature: float,
             base_seed: int, items, shared: bool, hang=None):
    """Repair ``(index, case)`` pairs lazily, yielding one report each.

    A shared task walks one engine, seeded with ``base_seed``, over every
    item; otherwise each case gets a fresh engine on its derived seed.
    ``hang``, given only in-process, rolls each case's hang fault site
    just before its repair.
    """
    engine = None
    for index, case in items:
        if hang is not None:
            hang(f"{label}|case{index}")
        if engine is None or not shared:
            engine = create_engine(
                spec, model=model, temperature=temperature,
                seed=base_seed if shared else case_seed(base_seed, index))
        yield run_request(engine, RepairRequest.from_case(case, index),
                          engine_label=label)


def _execute_task(spec: str, label: str, model: str, temperature: float,
                  base_seed: int, items: list, shared: bool, faults: str,
                  fault_key: str, attempt: int) -> list[RepairReport]:
    """Process-pool entry point: run one task's misses.

    The fault plan arrives as a spec string *in the task arguments*
    (never via parent globals — workers are long-lived and fork-once) and
    is installed for the task so LLM/cache hooks inside the worker see
    it.  It decides up front whether this worker crashes or hangs;
    ``attempt`` is the parent's re-dispatch count, so a task that crashed
    the pool does not crash its replacement forever.
    """
    plan = faults_mod.FaultPlan.parse(faults)
    previous = faults_mod.install(plan)
    try:
        if plan.enabled:
            plan.crash(fault_key, attempt)
            plan.hang(fault_key, attempt)
        return list(_repairs(spec, label, model, temperature, base_seed,
                             items, shared))
    finally:
        faults_mod.install(previous)


@dataclass
class _Entry:
    """One cache/journal entry of a task: a case, or a whole shared arm."""

    key: str | None                  # None without a cache and a journal
    items: list                      # [(index, case), ...] in dataset order
    reports: list | None             # answered by the cache or journal
    cached: bool                     # the cache answered


@dataclass
class _Arm:
    """One spec's plan: its seeding and its tasks (lists of entries)."""

    spec: EngineSpec
    run_spec: EngineSpec             # the spec with a pinned seed hoisted
    label: str
    base_seed: int
    tasks: list


def _misses(task: list[_Entry]) -> list:
    return [item for entry in task if entry.reports is None
            for item in entry.items]


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


class Campaign:
    """Sweep engine arms over a dataset: plan tasks, run them, replay them.

    ``isolation`` picks the execution semantics per arm:

    * ``"per_case"`` (default) — a fresh engine per case with a derived
      seed; the arm's tasks are shards of ``shard_size`` cases, order- and
      worker-count-invariant, and parallelise freely.
    * ``"shared"`` — the whole arm is one task: one engine instance walks
      the dataset serially, so cross-case state (RustBrain's self-learning
      feedback memory) accumulates exactly as in the paper's experiments.
      With ``workers > 1`` and more than one arm, whole arms run on the
      process pool in parallel; a one-arm campaign falls back to one
      worker with a :class:`RuntimeWarning` rather than silently changing
      semantics.

    Either way, ``run()`` looks every task up in the cache and journal
    before any case runs, runs the misses (in-process at one worker, on
    one leased process pool above), and emits each case's events in
    dataset order; ``on_round`` fires at every ``shard_size`` boundary of
    an arm.
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

    def label_for(self, spec: EngineSpec) -> str:
        return arm_label(spec, self.model)

    # -- planning ----------------------------------------------------------

    def _plan(self, spec: EngineSpec) -> _Arm:
        """Split one arm into tasks and look up every entry once."""
        base_seed, run_spec = hoist_pinned_seed(spec, self.seed)
        items = list(enumerate(self.dataset))
        spec_str = spec.to_string()
        keyed = self.cache is not None or self.journal is not None
        if self.isolation == "shared":
            key = None
            if keyed:
                key = arm_key(spec_str, self.model, self.temperature,
                              base_seed,
                              fingerprint_dataset(list(self.dataset)))
            tasks = [[self._lookup(key, items)]]
        else:
            entries = []
            for index, case in items:
                key = None
                if keyed:
                    key = case_key(spec_str, self.model, self.temperature,
                                   case_seed(base_seed, index),
                                   fingerprint_case(case.name, case.source,
                                                    case.fixed_source,
                                                    case.difficulty,
                                                    case.category))
                entries.append(self._lookup(key, [(index, case)]))
            tasks = [entries[start:start + self.shard_size]
                     for start in range(0, len(entries), self.shard_size)]
        return _Arm(spec, run_spec, self.label_for(spec), base_seed, tasks)

    def _lookup(self, key: str | None, items: list) -> _Entry:
        """The cache first, the journal behind it; a hit counts only when
        it holds one report per item.  The journal emits no telemetry of
        its own: a journal replay must leave the event stream exactly as
        the original (cacheless) run produced it, or a resumed
        ``campaign.json`` would differ."""
        if self.cache is not None:
            reports = self.cache.get(key)
            if reports is not None and len(reports) == len(items):
                return _Entry(key, items, reports, cached=True)
        if self.journal is not None:
            reports = self.journal.get(key)
            if reports is not None and len(reports) == len(items):
                return _Entry(key, items, reports, cached=False)
        return _Entry(key, items, None, cached=False)

    # -- running -----------------------------------------------------------

    def _run_in_process(self, arm: _Arm, task: list[_Entry]):
        """A task's misses as a lazy report iterator, so each repair runs
        between its case's start and finish events.  In-process runs roll
        the plan's hang site only: a crash here would take down the
        campaign itself, not a worker."""
        hang = self.fault_plan.hang if self.fault_plan.enabled else None
        return _repairs(arm.run_spec, arm.label, self.model,
                        self.temperature, arm.base_seed, _misses(task),
                        self.isolation == "shared", hang)

    def _run_pooled(self, tasks: list[tuple[_Arm, list[_Entry]]]):
        """Yield each task's miss reports, in order, from one leased pool.

        Every task with misses is submitted under one lease; collection is
        in submission order.  A worker crash breaks the whole pool: the
        results of tasks that finished before it broke are kept, the next
        lease gets a replacement, and only the tasks without a result are
        re-dispatched, under the campaign's retry budget.  Re-execution is
        safe because a task is a pure function of its arguments.
        """
        faults = self.fault_plan.to_string()
        shared = self.isolation == "shared"

        def fault_key(arm: _Arm, misses: list) -> str:
            return f"{arm.label}|arm" if shared \
                else f"{arm.label}|shard{misses[0][0]}"

        #: Task number -> reports of a task that finished on a pool that
        #: broke before they were collected.
        finished: dict[int, list] = {}
        position = attempt = 0
        while position < len(tasks):
            pending = {number: (arm, misses) for number, (arm, task)
                       in enumerate(tasks[position:], position)
                       if number not in finished
                       and (misses := _misses(task))}
            if not pending:
                # Nothing left to run: the tail replays without a pool.
                for number in range(position, len(tasks)):
                    yield iter(finished.pop(number, ()))
                return
            futures = {}
            try:
                # Keyed by the campaign's worker count, not by how many
                # tasks are pending, so repeated sweeps share one pool.
                with EXECUTOR_SERVICE.lease("process", self.workers) as pool:
                    for number, (arm, misses) in pending.items():
                        futures[number] = pool.submit(
                            _execute_task, arm.run_spec.to_string(),
                            arm.label, self.model, self.temperature,
                            arm.base_seed, misses, shared, faults,
                            fault_key(arm, misses), attempt)
                    try:
                        while position < len(tasks):
                            future = futures.get(position)
                            reports = finished.pop(position, []) \
                                if future is None else future.result()
                            position += 1
                            yield iter(reports)
                    except BaseException:
                        cancel_and_wait(futures.values())
                        raise
            except BrokenProcessPool as exc:
                attempt += 1
                if attempt >= self.retry.attempts:
                    raise
                # Keep what finished before the pool broke.
                for number, future in futures.items():
                    if number >= position and future.done() \
                            and not future.cancelled() \
                            and future.exception() is None:
                        finished[number] = future.result()
                # Named after the first task to re-dispatch (the pool may
                # also break while tasks are still being submitted).
                key = fault_key(*pending[min(
                    number for number in pending
                    if number >= position and number not in finished)])
                delay = self.retry.delay_for(attempt - 1, key=key)
                # run() subscribes to RETRY_EVENTS, so this lands in the
                # campaign's telemetry alongside LLM-level retries.
                RETRY_EVENTS.emit(RetryAttempted(
                    site="worker", key=key, attempt=attempt,
                    max_attempts=self.retry.attempts, delay_seconds=delay,
                    error=f"{type(exc).__name__}: {exc}"))
                self.retry.sleep(delay)

    # -- completion --------------------------------------------------------

    def _complete(self, arm: _Arm, live) -> ArmRun:
        """Emit one arm's events in dataset order and write results back.

        ``live`` yields, per task, an iterator over the reports of that
        task's misses.
        """
        label = arm.label
        total = len(self.dataset)
        rounds = -(-total // self.shard_size)
        self._emit("on_engine_start", EngineStarted(engine=label,
                                                    cases=total))
        reports: list[RepairReport] = []
        passed = 0
        for task in arm.tasks:
            ran = next(live)
            for entry in task:
                source = ran if entry.reports is None else iter(entry.reports)
                done = []
                for index, case in entry.items:
                    if self.cache is not None:
                        self._emit("on_cache", CacheQueried(
                            engine=label, case=case.name, index=index,
                            hit=entry.cached, key=entry.key))
                    self._emit("on_case_start", CaseStarted(
                        engine=label, case=case.name, index=index,
                        total=total))
                    report = next(source)
                    for hook, event in case_finished_events(
                            label, case.name, index, total, report):
                        self._emit(hook, event)
                    done.append(report)
                    reports.append(report)
                    passed += report.passed
                    if len(reports) % self.shard_size == 0 \
                            or len(reports) == total:
                        self._emit("on_round", RoundFinished(
                            engine=label,
                            round_index=(len(reports) - 1) // self.shard_size,
                            rounds=rounds, completed=len(reports),
                            total=total, passed_so_far=passed))
                self._write_back(label, entry, done)
        self._emit("on_engine_done", EngineFinished(
            engine=label, cases=len(reports), passed=passed,
            acceptable=sum(r.acceptable for r in reports),
            virtual_seconds=sum(r.seconds for r in reports)))
        return ArmRun(spec=arm.spec, label=label, reports=reports)

    def _write_back(self, label: str, entry: _Entry,
                    reports: list[RepairReport]) -> None:
        """The cache stores what ran; the journal appends what ran and
        what the cache answered (it ignores keys it already holds)."""
        if entry.reports is None and self.cache is not None:
            self.cache.put(entry.key, reports)
        if self.journal is not None \
                and (entry.reports is None or entry.cached):
            shared = self.isolation == "shared"
            self.journal.append(
                entry.key, reports, kind="arm" if shared else "case",
                arm=label, index=None if shared else entry.items[0][0])

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
        # LLM-level, task re-dispatch, wherever — into this run's
        # telemetry as on_retry events.
        previous_plan = faults_mod.install(self.fault_plan)
        try:
            with RETRY_EVENTS.subscribed(
                    lambda event: self._emit("on_retry", event)):
                plans = [self._plan(spec) for spec in self.specs]
                tasks = [(arm, task) for arm in plans for task in arm.tasks]
                live = self._run_pooled(tasks) if self.workers > 1 else \
                    (self._run_in_process(arm, task) for arm, task in tasks)
                try:
                    arms = [self._complete(arm, live) for arm in plans]
                finally:
                    # Closing the pooled generator ends its lease, after
                    # the last task or on an error.
                    live.close()
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
