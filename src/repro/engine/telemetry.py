"""Structured campaign telemetry: typed events, observers, collectors.

The :class:`~repro.engine.campaign.Campaign` runner emits one event object
per lifecycle edge — arm start/finish, case start/finish, shard-round
finish — to every attached :class:`CampaignObserver`.  Observers are called
under the campaign's lock (retries may surface on other threads), so
simple observers need no synchronisation of their own.  Cases are
reported in dataset order whatever the worker count, because pooled
results are collected in submission order; :class:`TelemetryLog` still
aggregates only order-insensitive counts into its JSON summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO


# ---------------------------------------------------------------------------
# Events


@dataclass(frozen=True)
class EngineStarted:
    engine: str
    cases: int


@dataclass(frozen=True)
class EngineFinished:
    engine: str
    cases: int
    passed: int
    acceptable: int
    virtual_seconds: float


@dataclass(frozen=True)
class CaseStarted:
    engine: str
    case: str
    index: int
    total: int


@dataclass(frozen=True)
class CaseFinished:
    engine: str
    case: str
    index: int
    total: int
    passed: bool
    acceptable: bool
    seconds: float


@dataclass(frozen=True)
class RoundFinished:
    """One shard of the dataset finished for one arm (progress heartbeat)."""

    engine: str
    round_index: int
    rounds: int
    completed: int
    total: int
    passed_so_far: int


@dataclass(frozen=True)
class MemberFinished:
    """One ensemble member finished (or was skipped) within one case.

    Emitted once per entry in a report's ``members`` list (the members the
    ensemble actually consulted, in consultation order), immediately before
    that case's :class:`CaseFinished` — for live runs, cache replays, and
    pooled workers alike, since the summaries travel inside the
    :class:`~repro.engine.types.RepairReport` itself.
    """

    engine: str
    case: str
    index: int
    member: str
    model: str
    member_index: int
    passed: bool
    seconds: float
    #: Consultation wave: members sharing a wave number ran concurrently
    #: (``member_workers > 1``); sequential consultation numbers waves
    #: 0, 1, 2, … one member each.
    wave: int = 0


@dataclass(frozen=True)
class CacheQueried:
    """The result cache was consulted for one case (hit or miss).

    Only emitted when the campaign runs with a cache attached; a warm
    re-run of an identical campaign shows ``cases`` hits and zero misses —
    the telemetry-level proof that no engine executed.
    """

    engine: str
    case: str
    index: int
    hit: bool
    key: str


@dataclass(frozen=True)
class RetryAttempted:
    """A transient failure was retried (LLM call, worker task
    re-dispatch, service job, or HTTP client reconnect).

    Emitted *before* the backoff sleep for retry number ``attempt`` (one-
    based; ``max_attempts`` is the policy's total-try budget).  Retry
    events are wall-clock diagnostics: :class:`TelemetryLog` records them
    but deliberately keeps them out of :meth:`TelemetryLog.to_dict`, so a
    faulted-but-recovered campaign still serializes byte-identical to a
    fault-free one.
    """

    site: str
    key: str
    attempt: int
    max_attempts: int
    delay_seconds: float
    error: str


CampaignEvent = (EngineStarted | EngineFinished | CaseStarted
                 | CaseFinished | RoundFinished | MemberFinished
                 | CacheQueried | RetryAttempted)


def case_finished_events(engine: str, case: str, index: int, total: int,
                         report) -> list[tuple[str, CampaignEvent]]:
    """The ``(hook, event)`` pairs that close one case: one
    :class:`MemberFinished` per consulted ensemble member, in consultation
    order, then :class:`CaseFinished`.

    Built from the :class:`~repro.engine.types.RepairReport` alone, so a
    live, pooled, cache-replayed or service-run case emits the identical
    stream; the campaign and the repair service both call this.
    """
    events: list[tuple[str, CampaignEvent]] = [
        ("on_member_done", MemberFinished(
            engine=engine, case=case, index=index, member=member["member"],
            model=member["model"], member_index=member["index"],
            passed=member["passed"], seconds=member["seconds"],
            wave=member.get("wave", 0)))
        for member in report.members]
    events.append(("on_case_done", CaseFinished(
        engine=engine, case=case, index=index, total=total,
        passed=report.passed, acceptable=report.acceptable,
        seconds=report.seconds)))
    return events


# ---------------------------------------------------------------------------
# Observers


class CampaignObserver:
    """No-op base; override the hooks you care about."""

    def on_engine_start(self, event: EngineStarted) -> None:
        pass

    def on_engine_done(self, event: EngineFinished) -> None:
        pass

    def on_case_start(self, event: CaseStarted) -> None:
        pass

    def on_case_done(self, event: CaseFinished) -> None:
        pass

    def on_round(self, event: RoundFinished) -> None:
        pass

    def on_member_done(self, event: MemberFinished) -> None:
        pass

    def on_cache(self, event: CacheQueried) -> None:
        pass

    def on_retry(self, event: RetryAttempted) -> None:
        pass


@dataclass
class TelemetryLog(CampaignObserver):
    """Records every event and aggregates order-insensitive counters."""

    events: list = field(default_factory=list)

    def on_engine_start(self, event: EngineStarted) -> None:
        self.events.append(event)

    def on_engine_done(self, event: EngineFinished) -> None:
        self.events.append(event)

    def on_case_start(self, event: CaseStarted) -> None:
        self.events.append(event)

    def on_case_done(self, event: CaseFinished) -> None:
        self.events.append(event)

    def on_round(self, event: RoundFinished) -> None:
        self.events.append(event)

    def on_member_done(self, event: MemberFinished) -> None:
        self.events.append(event)

    def on_cache(self, event: CacheQueried) -> None:
        self.events.append(event)

    def on_retry(self, event: RetryAttempted) -> None:
        self.events.append(event)

    # -- summaries ---------------------------------------------------------

    def count(self, event_type: type) -> int:
        return sum(isinstance(event, event_type) for event in self.events)

    def cache_counts(self) -> tuple[int, int]:
        """``(hits, misses)`` across every arm of the run."""
        hits = sum(1 for event in self.events
                   if isinstance(event, CacheQueried) and event.hit)
        misses = self.count(CacheQueried) - hits
        return hits, misses

    def to_dict(self) -> dict:
        """Deterministic summary: counts only, never arrival order.

        :class:`RetryAttempted` events are deliberately absent — retry
        counts depend on the active fault plan and on pool scheduling,
        and this summary is embedded in ``campaign.json``, which must
        stay byte-identical between faulted and fault-free runs.
        """
        hits, misses = self.cache_counts()
        return {
            "engines": self.count(EngineFinished),
            "cases_started": self.count(CaseStarted),
            "cases_finished": self.count(CaseFinished),
            "rounds": self.count(RoundFinished),
            "members_finished": self.count(MemberFinished),
            "cache_hits": hits,
            "cache_misses": misses,
        }


class ProgressPrinter(CampaignObserver):
    """Human-oriented progress lines for long campaign runs."""

    def __init__(self, stream: TextIO | None = None, per_case: bool = False):
        import sys
        self.stream = stream if stream is not None else sys.stderr
        self.per_case = per_case
        self._cache_hits = 0
        self._cache_misses = 0

    def _emit(self, line: str) -> None:
        print(line, file=self.stream, flush=True)

    def on_engine_start(self, event: EngineStarted) -> None:
        self._cache_hits = 0
        self._cache_misses = 0
        self._emit(f"[{event.engine}] starting: {event.cases} cases")

    def on_cache(self, event: CacheQueried) -> None:
        if event.hit:
            self._cache_hits += 1
        else:
            self._cache_misses += 1

    def on_round(self, event: RoundFinished) -> None:
        self._emit(f"[{event.engine}] round {event.round_index + 1}"
                   f"/{event.rounds}: {event.completed}/{event.total} cases,"
                   f" {event.passed_so_far} passed")

    def on_retry(self, event: RetryAttempted) -> None:
        self._emit(f"[{event.site}] transient failure, retry "
                   f"{event.attempt}/{event.max_attempts - 1} in "
                   f"{event.delay_seconds:.2f}s: {event.error}")

    def on_case_done(self, event: CaseFinished) -> None:
        if self.per_case:
            verdict = "pass" if event.passed else "FAIL"
            self._emit(f"[{event.engine}]   {event.case}: {verdict} "
                       f"({event.seconds:.1f}s virtual)")

    def on_engine_done(self, event: EngineFinished) -> None:
        cache = ""
        if self._cache_hits or self._cache_misses:
            cache = (f", cache {self._cache_hits} hit"
                     f"/{self._cache_misses} miss")
        self._emit(f"[{event.engine}] done: {event.passed}/{event.cases} "
                   f"passed, {event.acceptable}/{event.cases} acceptable"
                   f"{cache}")
