"""Repair-as-a-service: the asyncio HTTP front door over the engines.

The batch path sweeps a fixed dataset through a
:class:`~repro.engine.campaign.Campaign`; this package serves the same
engines one request at a time — ``repro serve`` — with admission control
(token buckets + a bounded queue, both budget-aware through the shared
:data:`~repro.engine.pool.EXECUTOR_SERVICE`), request coalescing on the
exact cache key, a read-through :class:`~repro.engine.cache.ResultCache`
tier, and per-request telemetry streamed as server-sent events.  Responses are byte-identical to the
batch path for the same ``(spec, seed, source)``; see DESIGN.md
("Serving") and docs/reference.md for the wire contract.
"""

from .admission import RateLimiter, TokenBucket, retry_after_header
from .jobs import (EventLog, JobConfig, RequestError, cache_key_for,
                   coalesce_key, execute_repair, validate_timeout_seconds)
from .server import RepairServer

__all__ = [
    "EventLog", "JobConfig", "RateLimiter", "RepairServer", "RequestError",
    "TokenBucket", "cache_key_for", "coalesce_key", "execute_repair",
    "retry_after_header", "validate_timeout_seconds",
]
