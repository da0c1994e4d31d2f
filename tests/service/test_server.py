"""End-to-end server tests: one in-process asyncio server per scenario.

No pytest-asyncio in the toolchain: every test is a sync function running
its scenario under ``asyncio.run``.  Controllable executions come from
monkeypatching ``repro.service.jobs.execute_repair`` (the server resolves
it through the module at submit time).
"""

import asyncio
import contextlib
import json
import threading

import pytest

from repro.corpus.dataset import Dataset, load_dataset
from repro.engine import Campaign, ResultCache
from repro.engine.pool import CoreBudget, ExecutorService
from repro.service import client, jobs
from repro.service.server import RepairServer

SEED = 5
HOST = "127.0.0.1"


@pytest.fixture(scope="module")
def cases():
    return list(load_dataset())[:3]


def payload_for(case, **extra) -> dict:
    payload = {"source": case.source, "engine": "rustbrain?kb=off",
               "seed": SEED, "name": case.name,
               "difficulty": case.difficulty,
               "category": case.category.value,
               "reference_source": case.fixed_source}
    payload.update(extra)
    return payload


@contextlib.asynccontextmanager
async def running_server(**kwargs):
    server = RepairServer(host=HOST, port=0, **kwargs)
    await server.start()
    try:
        yield server
    finally:
        await server.stop()


def run(coroutine, timeout=60):
    async def bounded():
        return await asyncio.wait_for(coroutine, timeout)
    return asyncio.run(bounded())


class _Gate:
    """Monkeypatch target: holds executions until released."""

    def __init__(self):
        self.release = threading.Event()
        self.started = []
        self._real = jobs.execute_repair

    def __call__(self, config, *, cache=None, observer=None):
        self.started.append(config.request.name)
        assert self.release.wait(timeout=30), "gate never released"
        return self._real(config, cache=cache, observer=observer)


class TestRoundTrip:
    def test_reports_byte_identical_to_batch_campaign(self, cases):
        campaign = Campaign(["rustbrain?kb=off"], Dataset(tuple(cases)),
                            seed=SEED, executor="serial").run()
        batch = [report.to_dict() for report in campaign.arms[0].reports]

        async def scenario():
            served = []
            async with running_server() as server:
                for index, case in enumerate(cases):
                    response = await client.post_repair(
                        HOST, server.port, payload_for(case, index=index))
                    assert response.status == 200, response.json()
                    body = response.json()
                    assert body["status"] == "done"
                    served.append(body["report"])
            return served

        served = run(scenario())
        assert json.dumps(served, sort_keys=True) == \
            json.dumps(batch, sort_keys=True)

    def test_health_and_stats(self, cases):
        async def scenario():
            async with running_server() as server:
                health = await client.get_json(HOST, server.port, "/healthz")
                assert health.json() == {"status": "ok"}
                await client.post_repair(HOST, server.port,
                                         payload_for(cases[0]))
                stats = (await client.get_json(HOST, server.port,
                                               "/stats")).json()
            return stats

        stats = run(scenario())
        assert stats["counters"]["received"] == 1
        assert stats["counters"]["completed"] == 1
        assert stats["queue"] == {"depth": 0, "running": 0,
                                  "jobs_tracked": 1}
        assert stats["coalescing"]["hit_rate"] == 0.0
        assert set(stats["detector"]) == {"requests", "runs",
                                          "fingerprint_hits",
                                          "case_memo_hits"}
        assert set(stats["case_memo"]) == {"entries", "limit", "enabled"}
        assert stats["budget"]["in_use"] >= 1  # the server's own lease

    def test_cache_tier_shared_with_batch_path(self, cases, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        case = cases[0]
        Campaign(["rustbrain?kb=off"], Dataset((case,)), seed=SEED,
                 executor="serial", cache=cache).run()

        async def scenario():
            async with running_server(cache=cache) as server:
                response = await client.post_repair(HOST, server.port,
                                                    payload_for(case))
                stats = (await client.get_json(HOST, server.port,
                                               "/stats")).json()
            return response.json(), stats

        body, stats = run(scenario())
        assert body["cache_hit"] is True
        assert stats["cache"]["hits"] >= 1

    def test_poll_mode_and_job_endpoint(self, cases):
        async def scenario():
            async with running_server() as server:
                accepted = await client.post_repair(
                    HOST, server.port, payload_for(cases[0], wait=False))
                assert accepted.status == 202
                job_id = accepted.json()["id"]
                for _ in range(200):
                    state = (await client.get_json(
                        HOST, server.port, f"/repair/{job_id}")).json()
                    if state["status"] == "done":
                        return state
                    await asyncio.sleep(0.02)
                raise AssertionError("job never finished")

        state = run(scenario())
        assert state["report"]["case"] == cases[0].name
        assert state["error"] is None


class TestCoalescing:
    def test_duplicate_inflight_requests_share_one_execution(
            self, cases, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(jobs, "execute_repair", gate)
        payload = payload_for(cases[0])

        async def scenario():
            async with running_server() as server:
                leader = asyncio.create_task(
                    client.post_repair(HOST, server.port, payload))
                while not gate.started:  # leader admitted and running
                    await asyncio.sleep(0.01)
                follower = asyncio.create_task(
                    client.post_repair(HOST, server.port, payload))
                while server.counters.coalesced < 1:
                    await asyncio.sleep(0.01)
                gate.release.set()
                first = (await leader).json()
                second = (await follower).json()
                stats = (await client.get_json(HOST, server.port,
                                               "/stats")).json()
            return first, second, stats

        first, second, stats = run(scenario())
        assert len(gate.started) == 1  # one execution for two requests
        assert first["id"] == second["id"]
        assert first["coalesced"] is False and second["coalesced"] is True
        assert first["report"] == second["report"]
        assert stats["coalescing"] == {"attached": 1, "executions": 1,
                                       "hit_rate": 0.5}

    def test_different_requests_do_not_coalesce(self, cases, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(jobs, "execute_repair", gate)

        async def scenario():
            async with running_server() as server:
                first = await client.post_repair(
                    HOST, server.port, payload_for(cases[0], wait=False))
                second = await client.post_repair(
                    HOST, server.port,
                    payload_for(cases[0], seed=SEED + 1, wait=False))
                gate.release.set()
                return first.json(), second.json(), server

        first, second, _server = run(scenario())
        assert first["id"] != second["id"]

    def test_events_stream_live_and_terminate(self, cases, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(jobs, "execute_repair", gate)

        async def scenario():
            async with running_server() as server:
                accepted = await client.post_repair(
                    HOST, server.port, payload_for(cases[0], wait=False))
                job_id = accepted.json()["id"]
                # Attach the SSE reader while the job is still gated.
                stream = asyncio.create_task(client.read_sse(
                    HOST, server.port, f"/repair/{job_id}/events"))
                await asyncio.sleep(0.05)
                assert not stream.done()
                gate.release.set()
                return await stream

        frames = run(scenario())
        names = [name for name, _data in frames]
        assert names[0] == "engine_started"
        assert "case_finished" in names
        assert names[-1] == "job_finished"
        assert frames[-1][1]["status"] == "done"


class TestAdmission:
    def test_rate_limit_answers_429_with_retry_after(self, cases):
        async def scenario():
            async with running_server(rate=0.001, burst=1) as server:
                first = await client.post_repair(
                    HOST, server.port, payload_for(cases[0]),
                    client_id="impatient")
                second = await client.post_repair(
                    HOST, server.port, payload_for(cases[0]),
                    client_id="impatient")
                third = await client.post_repair(
                    HOST, server.port, payload_for(cases[0]),
                    client_id="someone-else")
            return first, second, third

        first, second, third = run(scenario())
        assert first.status == 200
        assert second.status == 429
        assert int(second.retry_after) >= 1
        assert "rate limit" in second.json()["error"]
        assert third.status == 200  # distinct client, own bucket

    def test_queue_overflow_answers_503_with_retry_after(
            self, cases, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(jobs, "execute_repair", gate)
        service = ExecutorService(budget=CoreBudget(4))

        async def scenario():
            try:
                async with running_server(workers=1, max_queue=1,
                                          executor_service=service) as server:
                    running = await client.post_repair(
                        HOST, server.port,
                        payload_for(cases[0], wait=False))
                    queued = await client.post_repair(
                        HOST, server.port,
                        payload_for(cases[1], wait=False))
                    rejected = await client.post_repair(
                        HOST, server.port,
                        payload_for(cases[2], wait=False))
                    gate.release.set()
                    return running, queued, rejected
            finally:
                service.shutdown()

        running, queued, rejected = run(scenario())
        assert running.status == 202 and queued.status == 202
        assert rejected.status == 503
        assert int(rejected.retry_after) >= 1
        assert "queue full" in rejected.json()["error"]

    def test_request_deadline_answers_504_and_job_continues(
            self, cases, monkeypatch):
        gate = _Gate()
        monkeypatch.setattr(jobs, "execute_repair", gate)

        async def scenario():
            async with running_server() as server:
                response = await client.post_repair(
                    HOST, server.port,
                    payload_for(cases[0], timeout_seconds=0.05))
                assert response.status == 504
                job_id = response.json()["error"].rsplit("/", 1)[-1]
                gate.release.set()
                for _ in range(200):
                    state = (await client.get_json(
                        HOST, server.port, f"/repair/{job_id}")).json()
                    if state["status"] == "done":
                        return response, state
                    await asyncio.sleep(0.02)
                raise AssertionError("job never finished after deadline")

        response, state = run(scenario())
        assert "deadline" in response.json()["error"]
        assert state["report"] is not None


class TestProtocolErrors:
    def test_http_error_surface(self, cases):
        async def scenario():
            async with running_server() as server:
                port = server.port
                results = {}
                results["bad_json"] = await client.request(
                    HOST, port, "POST", "/repair", payload="not json")
                results["bad_payload"] = await client.post_repair(
                    HOST, port, {"source": "fn main() {}",
                                 "engine": "no_such_engine"})
                results["unknown_job"] = await client.get_json(
                    HOST, port, "/repair/j999999")
                results["unknown_route"] = await client.get_json(
                    HOST, port, "/nope")
                results["wrong_method"] = await client.request(
                    HOST, port, "GET", "/repair")
                results["failed_job"] = None
            return results

        results = run(scenario())
        assert results["bad_json"].status == 400
        assert results["bad_payload"].status == 400
        assert "no_such_engine" in results["bad_payload"].json()["error"]
        assert results["unknown_job"].status == 404
        assert results["unknown_route"].status == 404
        assert results["wrong_method"].status == 405

    def test_worker_exception_surfaces_as_500(self, cases, monkeypatch):
        def explode(config, *, cache=None, observer=None):
            raise RuntimeError("engine fell over")

        monkeypatch.setattr(jobs, "execute_repair", explode)

        async def scenario():
            async with running_server() as server:
                return await client.post_repair(HOST, server.port,
                                                payload_for(cases[0]))

        response = run(scenario())
        assert response.status == 500
        body = response.json()
        assert body["status"] == "failed"
        assert "engine fell over" in body["error"]


class TestCircuitBreaker:
    def test_breaker_trips_probes_and_recovers(self, cases, monkeypatch):
        # Deterministic transcript: N failures trip the breaker (503 +
        # Retry-After), the reset window elapses, a failing probe
        # re-opens, a succeeding probe closes it again.
        class FakeClock:
            def __init__(self):
                self.now = 0.0

            def __call__(self):
                return self.now

        clock = FakeClock()
        healthy = threading.Event()
        real = jobs.execute_repair

        def flaky(config, *, cache=None, observer=None):
            if not healthy.is_set():
                raise RuntimeError("engine down")
            return real(config, cache=cache, observer=observer)

        monkeypatch.setattr(jobs, "execute_repair", flaky)

        async def scenario():
            transcript = []
            async with running_server(breaker_threshold=2,
                                      breaker_reset_seconds=5.0,
                                      rate=0, clock=clock) as server:
                async def post(index):
                    response = await client.post_repair(
                        HOST, server.port, payload_for(cases[0], index=index))
                    transcript.append(response.status)
                    return response

                await post(0)            # failure 1 of 2
                await post(1)            # failure 2 -> breaker opens
                rejected = await post(2)
                assert rejected.retry_after is not None
                clock.now = 5.0          # window elapses -> half-open
                await post(3)            # failing probe -> re-opens
                await post(4)            # still open
                clock.now = 10.0
                healthy.set()
                await post(5)            # succeeding probe -> closed
                await post(6)            # flows normally again
                stats = (await client.get_json(HOST, server.port,
                                               "/stats")).json()
            return transcript, stats

        transcript, stats = run(scenario())
        assert transcript == [500, 500, 503, 500, 503, 200, 200]
        assert stats["breaker"]["state"] == "closed"
        assert stats["counters"]["rejected_breaker"] == 2
        assert stats["counters"]["failed"] == 3
        assert stats["drain"]["observed_jobs"] == 2
