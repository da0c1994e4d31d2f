"""Repair jobs: payload validation, coalescing keys, and execution.

One service request is one *job*: a validated :class:`JobConfig` built
from the client's JSON payload, executed by :func:`execute_repair` on a
worker thread leased from the shared executor service.  Execution mirrors
a one-case per-case :class:`~repro.engine.campaign.Campaign` arm exactly —
same spec-pinned-seed hoisting, same per-case seed derivation, same cache
keys, same telemetry event stream — so a service response is byte-identical
to what a batch campaign would report for the same ``(spec, seed, source)``
(``benchmarks/service_smoke.py`` gates exactly that).

The :class:`EventLog` is the thread→asyncio bridge: engine threads append
telemetry frames under a plain lock and poke the server's event loop via
``call_soon_threadsafe``; SSE readers iterate the frame list with a cursor
and park on an :class:`asyncio.Event` between bursts, so a slow client
never blocks the worker.
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import threading

from ..engine.cache import ResultCache, case_key, fingerprint_case
from ..engine.campaign import case_seed, hoist_pinned_seed
from ..engine.faults import TransientServiceError, maybe_inject
from ..engine.registry import create_engine
from ..engine.retry import SERVICE_RETRY, RetryPolicy
from ..engine.spec import EngineSpec, SpecError, arm_label
from ..engine.telemetry import (CacheQueried, CampaignObserver, CaseFinished,
                                CaseStarted, EngineFinished, EngineStarted,
                                MemberFinished, RetryAttempted, RoundFinished,
                                case_finished_events)
from ..engine.types import RepairRequest, run_request
from ..miri.errors import UbKind


class RequestError(ValueError):
    """Invalid request payload; the message is the client-facing detail
    (mapped to HTTP 400 by the server, exit 2 by the CLI)."""


def validate_timeout_seconds(value) -> float | None:
    """Coerce a deadline from CLI/JSON input; ``None`` passes through.

    Shared by ``repro repair --timeout-seconds`` and the server's
    per-request ``timeout_seconds`` field so both fronts reject the same
    malformed values the same way.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise RequestError("timeout_seconds must be a number, "
                           f"got {value!r}")
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        raise RequestError("timeout_seconds must be a number, "
                           f"got {value!r}") from None
    if not math.isfinite(seconds) or not seconds > 0:
        raise RequestError("timeout_seconds must be a positive finite "
                           f"number, got {value!r}")
    return seconds


_PAYLOAD_DEFAULTS = {"engine": "rustbrain", "model": "gpt-4", "seed": 0,
                     "temperature": 0.5, "name": "request", "difficulty": 2,
                     "index": 0}

#: Every key a request payload may carry; anything else is a typo the
#: client should hear about rather than have silently ignored.
_KNOWN_KEYS = frozenset(_PAYLOAD_DEFAULTS) | frozenset(
    {"source", "category", "reference_source", "timeout_seconds", "wait"})


def _require(payload: dict, key: str, kind, label: str):
    value = payload.get(key, _PAYLOAD_DEFAULTS.get(key))
    # bool is an int subclass; no field validated here accepts one.
    if isinstance(value, bool) or not isinstance(value, kind):
        raise RequestError(f"{key} must be {label}, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class JobConfig:
    """One validated repair request, campaign-equivalent.

    ``spec`` is the *original* parsed spec (label and cache identity);
    ``seed`` is the campaign-level base seed before pinned-seed hoisting
    and per-case derivation — exactly the values a batch
    :class:`~repro.engine.campaign.Campaign` would have been handed.
    """

    spec: EngineSpec
    model: str
    seed: int
    temperature: float
    request: RepairRequest
    timeout_seconds: float | None = None
    wait: bool = True

    @classmethod
    def from_payload(cls, payload) -> "JobConfig":
        """Validate a decoded JSON body; :class:`RequestError` on anything
        malformed, including the spec resolving to no registered engine."""
        if not isinstance(payload, dict):
            raise RequestError("request body must be a JSON object")
        unknown = sorted(set(payload) - _KNOWN_KEYS)
        if unknown:
            raise RequestError(f"unknown field(s): {', '.join(unknown)}")
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise RequestError("source must be a non-empty string")
        engine = _require(payload, "engine", str, "an engine spec string")
        model = _require(payload, "model", str, "a string")
        seed = _require(payload, "seed", int, "an integer")
        temperature = _require(payload, "temperature", (int, float),
                               "a number")
        name = _require(payload, "name", str, "a string")
        difficulty = _require(payload, "difficulty", int, "an integer")
        index = _require(payload, "index", int, "an integer")
        if index < 0:
            raise RequestError(f"index must be >= 0, got {index}")
        reference = payload.get("reference_source")
        if reference is not None and not isinstance(reference, str):
            raise RequestError("reference_source must be a string or null")
        category = payload.get("category")
        if category is not None:
            try:
                category = UbKind(category)
            except ValueError:
                choices = ", ".join(kind.value for kind in UbKind)
                raise RequestError(f"unknown category {category!r}; choose "
                                   f"from {choices}") from None
        wait = payload.get("wait", True)
        if not isinstance(wait, bool):
            raise RequestError(f"wait must be a boolean, got {wait!r}")
        try:
            spec = EngineSpec.parse(engine)
            # Fail fast, as Campaign's constructor does: an unknown engine
            # or a bad config key is the client's error, not a worker crash.
            create_engine(spec, model=model, seed=seed,
                          temperature=float(temperature))
        except (SpecError, ValueError) as exc:
            raise RequestError(str(exc)) from None
        request = RepairRequest(name=name, source=source,
                                difficulty=difficulty, category=category,
                                reference_source=reference, index=index)
        return cls(spec=spec, model=model, seed=seed,
                   temperature=float(temperature), request=request,
                   timeout_seconds=validate_timeout_seconds(
                       payload.get("timeout_seconds")),
                   wait=wait)

    @property
    def label(self) -> str:
        return arm_label(self.spec, self.model)

    def derived_seed(self) -> int:
        """The per-case engine seed a campaign would derive for this
        request's index (spec-pinned seeds hoist first)."""
        base_seed, _run_spec = hoist_pinned_seed(self.spec, self.seed)
        return case_seed(base_seed, self.request.index)


def coalesce_key(config: JobConfig) -> str:
    """Identity of an execution two in-flight requests may share.

    The request's :func:`cache_key_for` key: it covers every input that
    can influence the report — spec, model, temperature, derived seed,
    case metadata, and the exact source and reference texts — so two
    requests coalesce exactly when a campaign would answer them from one
    cache entry.  A reformatted source gets its own execution: moving
    spans changes the rendered report in the LLM prompt, and with it
    tokens and virtual seconds.
    """
    return cache_key_for(config)


def cache_key_for(config: JobConfig) -> str:
    """The exact :func:`~repro.engine.cache.case_key` a campaign would
    consult for this request — raw source, original spec string."""
    request = config.request
    return case_key(config.spec.to_string(), config.model,
                    config.temperature, config.derived_seed(),
                    fingerprint_case(request.name, request.source,
                                     request.reference_source,
                                     request.difficulty, request.category))


#: Default per-job telemetry frame cap.  A single-case job emits a dozen
#: frames; hundreds means a runaway producer, and an unbounded buffer is
#: a memory leak the moment jobs fail in a flood.
EVENT_LOG_MAX_FRAMES = 512


class EventLog(CampaignObserver):
    """Thread-safe telemetry frame buffer with asyncio wake-ups.

    Engine threads append ``(event_name, payload)`` frames through the
    observer hooks; async consumers iterate :meth:`stream`.  Frames are
    never dropped below the ``max_frames`` bound — a reader attaching
    after completion still replays the full stream.  At the bound, one
    ``events_truncated`` marker is appended and further non-terminal
    frames are counted but discarded (the terminal frame always lands,
    so streams still finish).
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None,
                 max_frames: int = EVENT_LOG_MAX_FRAMES):
        if max_frames < 2:
            raise ValueError(f"max_frames must be >= 2, got {max_frames}")
        self._loop = loop
        self._max_frames = max_frames
        self._lock = threading.Lock()
        self._frames: list[tuple[str, dict]] = []
        self._done = False
        self._dropped = 0
        self._wakeup = asyncio.Event()

    # -- producer side (any thread) ----------------------------------------

    def _append(self, name: str, event) -> None:
        frame = (name, dataclasses.asdict(event))
        with self._lock:
            if self._done:
                return
            if len(self._frames) >= self._max_frames - 1:
                if self._dropped == 0:
                    self._frames.append(
                        ("events_truncated",
                         {"max_frames": self._max_frames}))
                self._dropped += 1
                return
            self._frames.append(frame)
        self._poke()

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def _poke(self) -> None:
        if self._loop is None:
            self._wakeup.set()
            return
        try:
            self._loop.call_soon_threadsafe(self._wakeup.set)
        except RuntimeError:
            pass  # loop already closed; nobody is listening

    def on_engine_start(self, event: EngineStarted) -> None:
        self._append("engine_started", event)

    def on_cache(self, event: CacheQueried) -> None:
        self._append("cache_queried", event)

    def on_case_start(self, event: CaseStarted) -> None:
        self._append("case_started", event)

    def on_member_done(self, event: MemberFinished) -> None:
        self._append("member_finished", event)

    def on_case_done(self, event: CaseFinished) -> None:
        self._append("case_finished", event)

    def on_round(self, event: RoundFinished) -> None:
        self._append("round_finished", event)

    def on_engine_done(self, event: EngineFinished) -> None:
        self._append("engine_finished", event)

    def on_retry(self, event: RetryAttempted) -> None:
        self._append("retry_attempted", event)

    def mark_done(self, name: str, payload: dict) -> None:
        """Append the terminal frame and end every stream."""
        with self._lock:
            if self._done:
                return
            self._frames.append((name, dict(payload)))
            self._done = True
        self._poke()

    # -- consumer side -----------------------------------------------------

    def frames(self) -> list[tuple[str, dict]]:
        with self._lock:
            return list(self._frames)

    def cache_hit(self) -> bool:
        with self._lock:
            return any(name == "cache_queried" and payload.get("hit")
                       for name, payload in self._frames)

    async def stream(self):
        """Yield every frame in order, waiting for more until the
        terminal frame arrives (clear-then-recheck, so a frame appended
        between the snapshot and the wait is never missed)."""
        cursor = 0
        while True:
            self._wakeup.clear()
            with self._lock:
                fresh = self._frames[cursor:]
                done = self._done
            cursor += len(fresh)
            for frame in fresh:
                yield frame
            if done:
                return
            await self._wakeup.wait()


def execute_repair(config: JobConfig, *, cache: ResultCache | None = None,
                   observer: CampaignObserver | None = None,
                   retry: RetryPolicy | None = None):
    """Run one request exactly as a one-case campaign arm would.

    Event order per the campaign contract: ``engine_started`` →
    ``cache_queried`` (when a cache is attached) → ``case_started`` →
    ``member_finished``* → ``case_finished`` → ``round_finished`` →
    ``engine_finished``.  Cache hits replay the stored report with the
    identical stream; misses run a fresh per-case engine and write back.
    Returns the :class:`~repro.engine.types.RepairReport`.

    When a fault plan enables the ``service`` site, an injected transient
    failure may fire *before* any telemetry is emitted; it is retried
    with deterministic backoff (``retry_attempted`` frames precede
    ``engine_started`` in that case), so the recovered event stream and
    report are byte-identical to a fault-free execution.
    """
    emit = observer if observer is not None else CampaignObserver()
    policy = retry if retry is not None else SERVICE_RETRY
    fault_key = (f"{config.label}|{config.request.name}"
                 f"|{config.seed}|{config.request.index}")

    def attempt_once(attempt: int):
        maybe_inject("service", key=fault_key, attempt=attempt)
        return _execute_repair_inner(config, cache=cache, emit=emit)

    return policy.run(attempt_once, site="service", key=fault_key,
                      retryable=TransientServiceError,
                      on_retry=emit.on_retry)


def _execute_repair_inner(config: JobConfig, *,
                          cache: ResultCache | None,
                          emit: CampaignObserver):
    request = config.request
    label = config.label
    base_seed, run_spec = hoist_pinned_seed(config.spec, config.seed)
    emit.on_engine_start(EngineStarted(engine=label, cases=1))
    key = None
    report = None
    if cache is not None:
        key = cache_key_for(config)
        cached = cache.get(key)
        if cached is not None:
            report = cached[0]
        emit.on_cache(CacheQueried(engine=label, case=request.name,
                                   index=request.index,
                                   hit=report is not None, key=key))
    emit.on_case_start(CaseStarted(engine=label, case=request.name,
                                   index=request.index, total=1))
    if report is None:
        engine = create_engine(run_spec, model=config.model,
                               seed=case_seed(base_seed, request.index),
                               temperature=config.temperature)
        report = run_request(engine, request, engine_label=label)
        if key is not None:
            cache.put(key, [report])
    for hook, event in case_finished_events(label, request.name,
                                            request.index, 1, report):
        getattr(emit, hook)(event)
    emit.on_round(RoundFinished(engine=label, round_index=0, rounds=1,
                                completed=1, total=1,
                                passed_so_far=int(report.passed)))
    emit.on_engine_done(EngineFinished(engine=label, cases=1,
                                       passed=int(report.passed),
                                       acceptable=int(report.acceptable),
                                       virtual_seconds=report.seconds))
    return report
