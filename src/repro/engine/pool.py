"""Shared execution resources: one service owns every worker pool.

Campaigns shard cases (or whole stateful arms) across a process pool and
the repair service runs its jobs on a thread pool.  :class:`ExecutorService`
is the single owner of those ``concurrent.futures`` executors:

* **Shared keyed pools** (:meth:`ExecutorService.lease`): one executor
  per ``(kind, workers)``, created on first lease and *reused* across
  campaigns — a repeated process campaign no longer pays a
  fork-and-import storm per run.  Pools live until
  :meth:`~ExecutorService.shutdown` (called at exit).
* **A core-budget accountant** (:class:`CoreBudget`): a pool's width is
  clamped to the budget's total (``$REPRO_CORE_BUDGET``, default the CPU
  count), and a leased pool charges that width while it is leased —
  concurrent leases of one pool share the charge, since they share the
  workers.  Worker counts are pure wall-clock everywhere in this
  codebase — clamping a pool never changes a byte of any result.
* **Broken-pool replacement**: a process pool whose worker died is
  replaced on the next lease instead of failing every later submit.
* **Fork safety**: a forked child (e.g. a campaign process-pool worker)
  inherits the pool table but not the executors' manager threads —
  submitting to an inherited pool would hang forever, and an inherited
  lock could be held by a thread that does not exist in the child.  An
  ``os.register_at_fork`` hook resets the child's service to empty with
  fresh locks and a fresh budget.

The process-wide instance is :data:`EXECUTOR_SERVICE`; tests build their
own service with a small budget.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import (ProcessPoolExecutor, ThreadPoolExecutor,
                                wait)
from contextlib import contextmanager
from dataclasses import dataclass

#: Pool backends the service manages.
POOL_KINDS = ("thread", "process")


def _env_positive(name: str, default, convert):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = convert(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def cancel_and_wait(futures) -> None:
    """Abandon outstanding futures on an error path.

    A shared leased pool is NOT shut down when a lease exits, so a
    caller whose collection loop raises must cancel what has not started
    and wait out what has — otherwise its tasks would keep executing
    after the exception propagates, mutating process-wide state
    (detector stats, memos) under whatever runs next.  Owned ``with
    Executor()`` blocks used to provide this via ``__exit__``'s join;
    every lease-based submit/collect loop calls this instead.
    """
    for future in futures:
        future.cancel()
    wait(list(futures))


class CoreBudget:
    """Process-wide worker-slot accountant: ``total`` slots, of which the
    currently leased pools hold ``in_use``."""

    def __init__(self, total: int | None = None):
        if total is None:
            total = _env_positive("REPRO_CORE_BUDGET",
                                  os.cpu_count() or 1, int)
        self.total = max(1, int(total))
        self._used = 0
        self._lock = threading.Lock()

    @property
    def available(self) -> int:
        with self._lock:
            return max(0, self.total - self._used)

    @property
    def in_use(self) -> int:
        with self._lock:
            return self._used

    def charge(self, workers: int) -> int:
        """Record ``workers`` slots unconditionally (no clamp): the
        accounting must reflect the workers that actually exist, even
        when concurrent pools together overshoot the total."""
        if workers < 1:
            raise ValueError("charged workers must be >= 1")
        with self._lock:
            self._used += workers
            return workers

    def release(self, workers: int) -> None:
        with self._lock:
            self._used = max(0, self._used - workers)


@dataclass
class _PoolEntry:
    executor: object
    kind: str
    workers: int
    #: Open leases.  While there is at least one, the pool's ``workers``
    #: are charged to the budget once — concurrent leases share them.
    leases: int = 0
    #: Removed from the table (broken pool replaced) while leases were
    #: still open: the last lease to release tears it down.
    detached: bool = False


class ExecutorService:
    """Owner of every shared worker pool (see the module docstring)."""

    def __init__(self, *, budget: CoreBudget | None = None):
        self.budget = budget if budget is not None else CoreBudget()
        self._pools: dict[tuple[str, int], _PoolEntry] = {}
        self._lock = threading.Lock()

    # -- pool construction -------------------------------------------------

    def _make(self, kind: str, workers: int):
        if kind == "thread":
            return ThreadPoolExecutor(max_workers=workers)
        return ProcessPoolExecutor(max_workers=workers)

    @staticmethod
    def _usable(entry: _PoolEntry) -> bool:
        # A process pool whose worker died is broken forever; replace it
        # on the next lease instead of failing every future submit.
        return not getattr(entry.executor, "_broken", False)

    # -- leasing -----------------------------------------------------------

    @contextmanager
    def lease(self, kind: str, workers: int):
        """Borrow the shared ``(kind, clamped-workers)`` pool.

        The yielded executor is shared — callers submit and collect their
        own futures but must not shut it down.  The pool outlives the
        lease and is reused by the next one.
        """
        if kind not in POOL_KINDS:
            raise ValueError(f"kind must be one of {POOL_KINDS}, "
                             f"got {kind!r}")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # Static clamp to the budget's total so the pool key (and width)
        # never depends on what happens to be leased right now.
        width = min(workers, self.budget.total)
        key = (kind, width)
        reap: list[_PoolEntry] = []
        entry: _PoolEntry | None = None
        try:
            with self._lock:
                entry = self._pools.get(key)
                if entry is not None and not self._usable(entry):
                    # Replace the broken pool for new lessees.  Shutting
                    # it down while another thread still holds a lease
                    # would turn that lessee's BrokenProcessPoolError
                    # into 'cannot schedule new futures' mid-flight, so
                    # a still-leased pool is only *detached* — its last
                    # lease tears it down on release.
                    self._pools.pop(key)
                    if entry.leases == 0:
                        reap.append(entry)
                    else:
                        entry.detached = True
                    entry = None
                if entry is None:
                    entry = _PoolEntry(self._make(kind, width), kind, width)
                    self._pools[key] = entry
                if entry.leases == 0:
                    # Concurrent leases of one pool share its workers, so
                    # they share one budget charge: the first lease pays,
                    # the last release refunds.  The charge is the pool's
                    # full width, unclamped — these workers exist whether
                    # or not the budget had room.
                    self.budget.charge(width)
                entry.leases += 1
            self._shutdown_entries(reap)
            reap = []
            yield entry.executor
        finally:
            if entry is not None:
                with self._lock:
                    entry.leases -= 1
                    if entry.leases == 0:
                        self.budget.release(entry.workers)
                        if entry.detached:
                            reap.append(entry)
            self._shutdown_entries(reap)

    def _shutdown_entries(self, entries: list[_PoolEntry]) -> None:
        for entry in entries:
            # A replaced broken pool has no leases left, so the join can
            # happen in the executor's own management thread — blocking
            # the leasing hot path on its teardown would serve nobody.
            entry.executor.shutdown(wait=False)

    # -- introspection and lifecycle ---------------------------------------

    def active_pools(self) -> list[tuple[str, int]]:
        """Keys of the pools currently alive (leased or not)."""
        with self._lock:
            return sorted(self._pools)

    def shutdown(self) -> None:
        """Tear down every pool (end of process, or test isolation)."""
        with self._lock:
            entries = list(self._pools.values())
            self._pools.clear()
        for entry in entries:
            entry.executor.shutdown(wait=True)

    def _reset_after_fork(self) -> None:
        # Inherited executors have no manager threads in the child and the
        # inherited locks may be held by threads that no longer exist:
        # start empty with fresh locks; pools rebuild on first use.
        self._lock = threading.Lock()
        self._pools = {}
        self.budget = CoreBudget(self.budget.total)


#: The process-wide service every campaign and the repair server lease from.
EXECUTOR_SERVICE = ExecutorService()

if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=EXECUTOR_SERVICE._reset_after_fork)

atexit.register(EXECUTOR_SERVICE.shutdown)
