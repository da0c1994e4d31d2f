"""ExecutorService: leasing, the core budget, broken pools, fork reset."""

import os

import pytest

from repro.engine.pool import (CoreBudget, EXECUTOR_SERVICE, ExecutorService,
                               POOL_KINDS, cancel_and_wait)


@pytest.fixture
def service():
    service = ExecutorService(budget=CoreBudget(total=4))
    yield service
    service.shutdown()


def _square(value):
    return value * value


def _die():
    # Simulates a hard worker crash (the worker:crash fault site does
    # exactly this); must be top-level to pickle across the fork.
    os._exit(3)


class TestCoreBudget:
    def test_release_never_goes_negative(self):
        budget = CoreBudget(total=2)
        budget.release(5)
        assert budget.available == 2

    def test_total_has_a_floor_of_one(self):
        assert CoreBudget(total=0).total == 1

    def test_charge_records_past_the_total(self):
        # Charges are unclamped: the budget reports the workers that
        # exist, even when they overshoot its total.
        budget = CoreBudget(total=2)
        assert budget.charge(3) == 3
        assert budget.in_use == 3
        assert budget.available == 0
        budget.release(3)
        assert budget.available == 2

    def test_invalid_charge_rejected(self):
        budget = CoreBudget(total=2)
        with pytest.raises(ValueError):
            budget.charge(0)
        assert budget.in_use == 0

    def test_total_comes_from_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CORE_BUDGET", "3")
        assert CoreBudget().total == 3

    @pytest.mark.parametrize("raw", ["0", "many", " "])
    def test_unusable_environment_total_falls_back_to_the_cpu_count(
            self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CORE_BUDGET", raw)
        assert CoreBudget().total == (os.cpu_count() or 1)


class TestLeasing:
    def test_lease_runs_work_and_reuses_the_pool(self, service):
        with service.lease("thread", 2) as pool:
            assert pool.submit(_square, 7).result() == 49
            first = pool
        with service.lease("thread", 2) as pool:
            assert pool is first  # same executor, no respawn

    def test_bad_kind_rejected(self, service):
        with pytest.raises(ValueError, match="kind"):
            with service.lease("gpu", 2):
                pass
        assert "gpu" not in POOL_KINDS

    def test_bad_width_rejected(self, service):
        with pytest.raises(ValueError, match="workers"):
            with service.lease("thread", 0):
                pass
        assert service.active_pools() == []
        assert service.budget.in_use == 0

    def test_constructor_failure_charges_nothing(self, service,
                                                 monkeypatch):
        def boom(*_args, **_kwargs):
            raise OSError("cannot spawn")

        monkeypatch.setattr(service, "_make", boom)
        with pytest.raises(OSError):
            with service.lease("thread", 2):
                pass
        assert service.budget.in_use == 0
        assert service.active_pools() == []
        monkeypatch.undo()
        with service.lease("thread", 2) as pool:
            assert pool.submit(_square, 5).result() == 25

    def test_error_inside_a_lease_refunds_and_keeps_the_pool(self, service):
        with pytest.raises(KeyError):
            with service.lease("thread", 2) as pool:
                first = pool
                raise KeyError("the caller failed")
        assert service.budget.in_use == 0
        with service.lease("thread", 2) as pool:
            assert pool is first

    def test_lease_counts_against_the_budget(self, service):
        with service.lease("thread", 3):
            assert service.budget.in_use == 3
        assert service.budget.in_use == 0

    def test_concurrent_leases_of_one_pool_charge_once(self, service):
        # N leases of the same shared pool share its workers, so they
        # must share one budget charge — charging per lease would report
        # cores in use that nobody is actually using.
        with service.lease("thread", 2):
            with service.lease("thread", 2):
                assert service.budget.in_use == 2
            assert service.budget.in_use == 2
        assert service.budget.in_use == 0

    def test_distinct_pools_charge_their_true_width(self, service):
        # Two concurrent pools really do hold width-A + width-B workers;
        # the budget must record that honestly, even past its total.
        with service.lease("thread", 3):
            with service.lease("thread", 2):
                assert service.budget.in_use == 5  # > total(4), truthful
                assert service.budget.available == 0
        assert service.budget.in_use == 0

    def test_width_clamps_to_the_budget_total(self, service):
        with service.lease("thread", 99) as pool:
            assert pool._max_workers == 4  # budget total, not 99
        assert service.active_pools() == [("thread", 4)]

    def test_distinct_widths_get_distinct_pools(self, service):
        with service.lease("thread", 1) as narrow:
            with service.lease("thread", 2) as wide:
                assert narrow is not wide
        assert sorted(service.active_pools()) == [("thread", 1),
                                                  ("thread", 2)]


class TestBrokenPools:
    def test_broken_pool_with_live_lease_is_detached_not_shutdown(
            self, service):
        # Another thread's lease must never have its executor shut down
        # underneath it; the broken pool is detached from the table and
        # torn down by its last lessee on release.
        class BrokenStub:
            _broken = "worker died"
            shutdowns = 0

            def shutdown(self, wait=True):
                BrokenStub.shutdowns += 1

        with service.lease("thread", 2) as original:
            entry = service._pools[("thread", 2)]
            real = entry.executor
            entry.executor = BrokenStub()
            # A new lease sees the broken pool, replaces it for itself...
            with service.lease("thread", 2) as replacement:
                assert replacement is not original
                assert BrokenStub.shutdowns == 0  # ...without killing it
            # Only when the original lease releases does it tear down.
            assert BrokenStub.shutdowns == 0
        assert BrokenStub.shutdowns == 1
        real.shutdown(wait=True)
        assert service.budget.in_use == 0

    def test_broken_process_pool_is_replaced(self, service):
        class Broken:
            _broken = "worker died"

            def shutdown(self, wait=True):
                pass

        with service.lease("thread", 2):
            pass
        entry = service._pools[("thread", 2)]
        entry.executor.shutdown(wait=True)
        entry.executor = Broken()
        with service.lease("thread", 2) as pool:
            assert not getattr(pool, "_broken", False)
            assert pool.submit(_square, 5).result() == 25

    def test_genuinely_killed_worker_breaks_then_recovers(self, service):
        # Not a stub: a real process pool whose worker os._exit()s, the
        # way an injected worker:crash fault dies.  The lease surfaces
        # BrokenProcessPool, releases its budget charge, and the *next*
        # lease transparently hands out a fresh working pool.
        from concurrent.futures.process import BrokenProcessPool

        with service.lease("process", 2) as pool:
            with pytest.raises(BrokenProcessPool):
                pool.submit(_die).result()
        assert service.budget.in_use == 0
        with service.lease("process", 2) as pool:
            assert pool.submit(_square, 6).result() == 36
        assert service.budget.in_use == 0


class TestCancelAndWait:
    def test_no_task_outlives_the_error_path(self, service):
        import threading
        started = threading.Event()
        release = threading.Event()

        def slow():
            started.set()
            release.wait(timeout=10)
            return "done"

        with service.lease("thread", 1) as pool:
            blocker = pool.submit(slow)  # occupies the single worker
            assert started.wait(timeout=10)
            queued = [pool.submit(slow) for _ in range(3)]
            # Queued tasks cancel outright — they never execute.
            cancel_and_wait(queued)
            assert all(future.cancelled() for future in queued)
            # A running task cannot cancel; the call joins it instead,
            # so nothing keeps executing behind a propagating error.
            release.set()
            cancel_and_wait([blocker])
            assert blocker.done() and not blocker.cancelled()
            assert blocker.result() == "done"


class TestLifecycle:
    def test_shutdown_clears_everything(self, service):
        with service.lease("thread", 1):
            pass
        service.shutdown()
        assert service.active_pools() == []

    def test_released_pools_live_until_shutdown(self, service):
        # Nothing reaps an idle pool: once released it stays in the table
        # and keeps serving until shutdown() tears it down.
        with service.lease("thread", 2) as pool:
            kept = pool
        assert service.active_pools() == [("thread", 2)]
        assert kept.submit(_square, 8).result() == 64
        service.shutdown()
        with pytest.raises(RuntimeError):
            kept.submit(_square, 8)

    def test_fork_reset_starts_empty(self, service):
        with service.lease("thread", 1) as pool:
            inherited = pool
        service.budget.charge(1)
        service._reset_after_fork()
        assert service.active_pools() == []
        assert service.budget.in_use == 0
        # And the reset service still works, on a pool of its own.
        with service.lease("thread", 1) as pool:
            assert pool is not inherited
            assert pool.submit(_square, 6).result() == 36
        inherited.shutdown(wait=True)

    def test_global_service_exists_and_serves(self):
        with EXECUTOR_SERVICE.lease("thread", 1) as pool:
            assert pool.submit(_square, 2).result() == 4
