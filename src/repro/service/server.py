"""The asyncio repair server: admission, coalescing, streaming telemetry.

``repro serve`` binds a stdlib-only HTTP/1.1 front door over
:func:`asyncio.start_server` (one short-lived connection per request,
``Connection: close``).  Routes::

    POST /repair              submit one repair request (JSON body)
    GET  /repair/{id}         poll a job's status / final report
    GET  /repair/{id}/events  server-sent-event stream of its telemetry
    GET  /healthz             liveness probe
    GET  /stats               queue, coalescing, cache, and detector stats

Three layers between the socket and the engine:

* **Admission** — a per-client token bucket answers bursts with 429 +
  ``Retry-After``; a bounded job queue answers saturation with 503 +
  ``Retry-After``; a per-server circuit breaker answers consecutive
  engine failures with 503 + ``Retry-After`` until a half-open probe
  succeeds.  The server holds one long-lived
  :meth:`~repro.engine.pool.ExecutorService.lease` for its worker pool,
  so its concurrency is charged against the same
  :class:`~repro.engine.pool.CoreBudget` that clamps nested engine
  parallelism — one machine-wide admission token, exactly as campaigns
  share it.
* **Coalescing** — requests whose :func:`~repro.service.jobs.coalesce_key`
  matches an in-flight job attach to it and share its report instead of
  re-executing; the :class:`~repro.engine.cache.ResultCache` sits in
  front of execution as the cross-request read-through tier.
* **Execution** — jobs run :func:`repro.service.jobs.execute_repair` on
  leased worker threads (the event loop never blocks on the interpreter)
  and are byte-identical to a batch campaign for the same
  ``(spec, seed, source)``.

All mutable server state (queue, in-flight map, counters, buckets) is
loop-confined: worker threads only touch their job's
:class:`~repro.service.jobs.EventLog` and marshal completion back with
``call_soon_threadsafe``, so the server needs no locks of its own.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import OrderedDict, deque
from dataclasses import dataclass

from ..engine.cache import ResultCache
from ..engine.faults import FAULT_STATS
from ..engine.pool import EXECUTOR_SERVICE, ExecutorService
from ..miri import CASE_MEMO, DETECTOR_STATS
from . import jobs
from .admission import (CircuitBreaker, DrainEstimator, RateLimiter,
                        retry_after_header)
from .jobs import EventLog, JobConfig, RequestError, coalesce_key

#: Request framing limits; past either the request is rejected, not read.
MAX_HEADER_BYTES = 32_768
MAX_BODY_BYTES = 1_048_576

#: Finished jobs kept around for GET /repair/{id} after completion.
FINISHED_JOBS_KEPT = 256

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable", 504: "Gateway Timeout"}


class _HttpError(Exception):
    """Maps straight to an error response; never leaves the handler."""

    def __init__(self, status: int, detail: str, headers: tuple = ()):
        super().__init__(detail)
        self.status = status
        self.detail = detail
        self.headers = headers


@dataclass(eq=False)  # identity semantics: jobs live in sets, keyed maps
class Job:
    """One admitted execution; coalesced requests all point at it."""

    id: str
    config: JobConfig
    key: str
    events: EventLog
    done: asyncio.Event
    status: str = "queued"  # queued | running | done | failed | cancelled
    report: object | None = None
    error: str | None = None
    waiters: int = 0        # coalesced requests sharing this execution
    created: float = 0.0
    finished: float = 0.0

    def public_state(self) -> dict:
        payload = {"id": self.id, "status": self.status,
                   "label": self.config.label,
                   "coalesced_waiters": self.waiters,
                   "error": self.error,
                   "report": self.report.to_dict()
                   if self.report is not None else None}
        return payload


@dataclass
class Counters:
    """Lifetime admission/outcome counters (the ``/stats`` ledger)."""

    received: int = 0
    admitted: int = 0
    coalesced: int = 0
    rejected_rate: int = 0
    rejected_queue: int = 0
    rejected_breaker: int = 0
    rejected_invalid: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    deadline_expired: int = 0

    def to_dict(self) -> dict:
        return dict(vars(self))


class RepairServer:
    """See the module docstring.  Construct, then ``await start()`` (or
    use :meth:`run_forever` / the ``repro serve`` CLI)."""

    def __init__(self, *, host: str = "127.0.0.1", port: int = 8357,
                 workers: int | None = None, max_queue: int = 32,
                 rate: float = 10.0, burst: float = 20.0,
                 cache: ResultCache | None = None,
                 executor_service: ExecutorService | None = None,
                 default_timeout_seconds: float | None = None,
                 breaker_threshold: int = 8,
                 breaker_reset_seconds: float = 30.0,
                 finished_jobs_kept: int = FINISHED_JOBS_KEPT,
                 clock=time.monotonic):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if finished_jobs_kept < 1:
            raise ValueError("finished_jobs_kept must be >= 1, "
                             f"got {finished_jobs_kept}")
        self.host = host
        self.port = port
        self._service = (executor_service if executor_service is not None
                         else EXECUTOR_SERVICE)
        if workers is None:
            workers = max(1, min(4, self._service.budget.total))
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        # The lease will clamp the pool to the budget's total anyway;
        # mirroring the clamp here keeps the dispatch bound honest.
        self.workers = min(workers, self._service.budget.total)
        self.max_queue = max_queue
        self.cache = cache
        self.default_timeout_seconds = default_timeout_seconds
        self.finished_jobs_kept = finished_jobs_kept
        self._clock = clock
        self.limiter = (RateLimiter(rate, burst, clock=clock)
                        if rate > 0 else None)
        self.breaker = CircuitBreaker(breaker_threshold,
                                      breaker_reset_seconds, clock=clock)
        self.estimator = DrainEstimator()
        self.counters = Counters()
        self._queue: deque[Job] = deque()
        self._running: set[Job] = set()
        self._inflight: dict[str, Job] = {}
        self._jobs: OrderedDict[str, Job] = OrderedDict()
        self._finished_order: deque[str] = deque()
        self._next_id = 0
        self._draining = False
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.Server | None = None
        self._lease = None
        self._pool = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and take the lifetime worker-pool lease."""
        self._loop = asyncio.get_running_loop()
        self._lease = self._service.lease("thread", self.workers)
        self._pool = self._lease.__enter__()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, 503 the queue, drain
        running jobs, release the executor lease."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        while self._queue:
            self._conclude(self._queue.popleft(), status="cancelled",
                           error="server shutting down")
        if self._running:
            await asyncio.gather(
                *(job.done.wait() for job in list(self._running)))
        if self._lease is not None:
            self._lease.__exit__(None, None, None)
            self._lease = None
            self._pool = None

    async def serve(self) -> None:
        """Serve on the already-:meth:`start`-ed socket until cancelled."""
        await self._server.serve_forever()

    async def run_forever(self) -> None:
        """start(), serve until cancelled/interrupted, then stop()."""
        await self.start()
        try:
            await self.serve()
        except asyncio.CancelledError:
            pass
        finally:
            await self.stop()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            try:
                parsed = await self._read_request(reader)
                if parsed is None:
                    return
                method, path, headers, body = parsed
                await self._route(writer, method, path, headers, body)
            except _HttpError as exc:
                await self._respond(writer, exc.status,
                                    {"error": exc.detail},
                                    headers=exc.headers)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HttpError(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            header_bytes += len(raw)
            if header_bytes > MAX_HEADER_BYTES:
                raise _HttpError(400, "headers too large")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _HttpError(400, f"malformed header {raw!r}")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if headers.get("content-length"):
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise _HttpError(400, "malformed Content-Length") from None
            if length < 0:
                raise _HttpError(400, "malformed Content-Length")
            if length > MAX_BODY_BYTES:
                raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            body = await reader.readexactly(length)
        path = target.split("?", 1)[0]
        return method, path, headers, body

    async def _route(self, writer, method: str, path: str,
                     headers: dict, body: bytes) -> None:
        if path == "/healthz":
            if method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            await self._respond(writer, 200, {
                "status": "draining" if self._draining else "ok"})
            return
        if path == "/stats":
            if method != "GET":
                raise _HttpError(405, "stats is GET-only")
            await self._respond(writer, 200, self.stats())
            return
        if path == "/repair":
            if method != "POST":
                raise _HttpError(405, "submit repairs with POST /repair")
            await self._handle_repair(writer, headers, body)
            return
        if path.startswith("/repair/"):
            if method != "GET":
                raise _HttpError(405, "job endpoints are GET-only")
            tail = path[len("/repair/"):]
            job_id, _, rest = tail.partition("/")
            job = self._jobs.get(job_id)
            if job is None or rest not in ("", "events"):
                raise _HttpError(404, f"unknown job {tail!r}")
            if rest == "events":
                await self._handle_events(writer, job)
            else:
                await self._respond(writer, 200, job.public_state())
            return
        raise _HttpError(404, f"no route for {path!r}")

    # -- the POST /repair pipeline -----------------------------------------

    def _client_id(self, writer, headers: dict) -> str:
        explicit = headers.get("x-client-id")
        if explicit:
            return explicit
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if peer else "unknown"

    async def _handle_repair(self, writer, headers: dict,
                             body: bytes) -> None:
        self.counters.received += 1
        if self._draining:
            raise _HttpError(503, "server shutting down",
                             headers=(("Retry-After", "1"),))
        if self.limiter is not None:
            wait = self.limiter.admit(self._client_id(writer, headers))
            if wait > 0:
                self.counters.rejected_rate += 1
                raise _HttpError(
                    429, f"rate limit exceeded; retry in {wait:.3f}s",
                    headers=(("Retry-After", retry_after_header(wait)),))
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
            config = JobConfig.from_payload(payload)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            self.counters.rejected_invalid += 1
            raise _HttpError(400, f"body is not valid JSON: {exc}") from None
        except RequestError as exc:
            self.counters.rejected_invalid += 1
            raise _HttpError(400, str(exc)) from None

        key = coalesce_key(config)
        job = self._inflight.get(key)
        coalesced = job is not None
        if coalesced:
            self.counters.coalesced += 1
            job.waiters += 1
        else:
            job = self._admit(config, key)
        await self._reply_for(writer, job, config, coalesced)

    def _admit(self, config: JobConfig, key: str) -> Job:
        admitted, wait = self.breaker.allow()
        if not admitted:
            self.counters.rejected_breaker += 1
            raise _HttpError(
                503, f"circuit open ({self.breaker.state}); "
                     f"retry in ~{wait:.1f}s",
                headers=(("Retry-After", retry_after_header(wait)),))
        if len(self._queue) >= self.max_queue:
            # A half-open probe admission must not be stranded by a full
            # queue — free the slot for the next prober.
            self.breaker.abort_probe()
            self.counters.rejected_queue += 1
            wait = self._drain_estimate()
            raise _HttpError(
                503, f"queue full ({self.max_queue} deep); "
                     f"retry in ~{wait:.1f}s",
                headers=(("Retry-After", retry_after_header(wait)),))
        self.counters.admitted += 1
        self._next_id += 1
        job = Job(id=f"j{self._next_id:06d}", config=config, key=key,
                  events=EventLog(self._loop), done=asyncio.Event(),
                  created=self._clock())
        self._jobs[job.id] = job
        self._inflight[key] = job
        self._queue.append(job)
        self._pump()
        return job

    def _drain_estimate(self) -> float:
        pending = len(self._queue) + len(self._running)
        return self.estimator.estimate(pending, self.workers)

    async def _reply_for(self, writer, job: Job, config: JobConfig,
                         coalesced: bool) -> None:
        if not config.wait:
            await self._respond(writer, 202, {
                "id": job.id, "status": job.status,
                "label": job.config.label, "coalesced": coalesced})
            return
        timeout = (config.timeout_seconds
                   if config.timeout_seconds is not None
                   else self.default_timeout_seconds)
        if timeout is None:
            await job.done.wait()
        else:
            try:
                await asyncio.wait_for(job.done.wait(), timeout)
            except TimeoutError:
                self.counters.deadline_expired += 1
                raise _HttpError(
                    504, f"deadline of {timeout:g}s exceeded; the job "
                         f"continues — poll GET /repair/{job.id}") from None
        status = {"done": 200, "failed": 500, "cancelled": 503}[job.status]
        payload = {"id": job.id, "status": job.status,
                   "label": job.config.label, "coalesced": coalesced,
                   "error": job.error}
        if job.status == "done":
            payload["cache_hit"] = job.events.cache_hit()
            payload["report"] = job.report.to_dict()
        extra = (("Retry-After", "1"),) if status == 503 else ()
        await self._respond(writer, status, payload, headers=extra)

    # -- dispatch (loop-confined) ------------------------------------------

    def _pump(self) -> None:
        while (self._queue and len(self._running) < self.workers
               and not self._draining):
            job = self._queue.popleft()
            self._start_job(job)

    def _start_job(self, job: Job) -> None:
        job.status = "running"
        self._running.add(job)
        # Resolved through the module so tests can monkeypatch execution.
        future = self._pool.submit(jobs.execute_repair, job.config,
                                   cache=self.cache, observer=job.events)
        future.add_done_callback(
            lambda fut: self._threadsafe(self._finish_job, job, fut))

    def _threadsafe(self, fn, *args) -> None:
        try:
            self._loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:
            pass  # loop already closed (process teardown)

    def _finish_job(self, job: Job, future) -> None:
        self._running.discard(job)
        try:
            job.report = future.result()
        except BaseException as exc:  # surface, never crash the loop
            self._conclude(job, status="failed",
                           error=f"{type(exc).__name__}: {exc}")
        else:
            self._conclude(job, status="done")
        self._pump()

    def _conclude(self, job: Job, *, status: str,
                  error: str | None = None) -> None:
        job.status = status
        job.error = error
        job.finished = self._clock()
        if status == "done":
            self.counters.completed += 1
            self.breaker.record_success()
            self.estimator.observe(max(0.0, job.finished - job.created))
        elif status == "failed":
            self.counters.failed += 1
            self.breaker.record_failure()
        else:
            self.counters.cancelled += 1
        if self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        job.events.mark_done("job_finished", {
            "id": job.id, "status": status, "error": error})
        job.done.set()
        self._finished_order.append(job.id)
        while len(self._finished_order) > self.finished_jobs_kept:
            stale = self._finished_order.popleft()
            self._jobs.pop(stale, None)

    # -- responses ---------------------------------------------------------

    async def _respond(self, writer, status: int, payload: dict,
                       headers: tuple = ()) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}",
                 "Connection: close"]
        lines.extend(f"{name}: {value}" for name, value in headers)
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()

    async def _handle_events(self, writer, job: Job) -> None:
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: text/event-stream\r\n"
                "Cache-Control: no-cache\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("latin-1"))
        await writer.drain()
        async for name, payload in job.events.stream():
            frame = (f"event: {name}\n"
                     f"data: {json.dumps(payload, sort_keys=True)}\n\n")
            writer.write(frame.encode("utf-8"))
            await writer.drain()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        counters = self.counters
        shareable = counters.coalesced + counters.admitted
        budget = self._service.budget
        return {
            "server": {"host": self.host, "port": self.port,
                       "workers": self.workers,
                       "max_queue": self.max_queue,
                       "draining": self._draining},
            "queue": {"depth": len(self._queue),
                      "running": len(self._running),
                      "jobs_tracked": len(self._jobs)},
            "counters": counters.to_dict(),
            "coalescing": {
                "attached": counters.coalesced,
                "executions": counters.admitted,
                "hit_rate": (counters.coalesced / shareable
                             if shareable else 0.0)},
            "cache": self.cache.counts() if self.cache is not None else None,
            "breaker": self.breaker.to_dict(),
            "drain": self.estimator.to_dict(),
            "faults": FAULT_STATS.snapshot(),
            "detector": DETECTOR_STATS.snapshot(),
            "case_memo": CASE_MEMO.snapshot(),
            "budget": {"total": budget.total, "in_use": budget.in_use,
                       "available": budget.available},
            "rate_limiter": ({"clients": self.limiter.clients(),
                              "rate": self.limiter.rate,
                              "burst": self.limiter.burst}
                             if self.limiter is not None else None),
        }
