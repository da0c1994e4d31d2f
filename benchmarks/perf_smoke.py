#!/usr/bin/env python3
"""Campaign perf smoke: serial vs process pool, cold vs warm cache.

Times a fixed two-arm campaign under three configurations and writes the
trajectory to ``BENCH_campaign.json`` in a stable schema
(``repro.bench_campaign/3``) so successive PRs can track execution-layer
speedups and regressions per commit:

* ``serial_cold``  — executor="serial", no cache (the reference run);
* ``process_cold`` — executor="process", cold content-addressed cache;
* ``process_warm`` — same campaign again on the now-warm cache (must
  perform zero engine case executions).

Wall-clock numbers are environment-dependent and NOT asserted; the
``checks`` are hard correctness gates (byte-identical arms across
backends, pure replay on a warm cache) and the script exits non-zero if
any fails.

Run:  PYTHONPATH=src python benchmarks/perf_smoke.py [OUTPUT.json]
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile
import time

from repro.corpus.dataset import load_dataset
from repro.engine import Campaign, ResultCache
from repro.miri.errors import UbKind

#: Fixed workload: two arms over three categories, enough cases to load a
#: small pool but quick enough for a per-PR CI step.
ENGINES = ["llm_only?batched=on", "rustbrain?kb=off"]
CATEGORIES = [UbKind.UNINIT, UbKind.PANIC, UbKind.DANGLING_POINTER]
SEED = 3
WORKERS = 4
SHARD_SIZE = 4

SCHEMA = "repro.bench_campaign/3"
DEFAULT_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_campaign.json"


def _timed_run(dataset, *, executor: str, workers: int,
               cache: ResultCache | None):
    campaign = Campaign(ENGINES, dataset, seed=SEED, workers=workers,
                        shard_size=SHARD_SIZE, executor=executor,
                        cache=cache)
    start = time.perf_counter()
    result = campaign.run()
    elapsed = time.perf_counter() - start
    return result, elapsed


def _arm_payload(result) -> str:
    return json.dumps([arm.to_dict() for arm in result.arms],
                      sort_keys=True)


def _run_entry(name: str, executor: str, workers: int, cached: bool,
               result, elapsed: float) -> dict:
    hits, misses = result.telemetry.cache_counts()
    return {
        "name": name,
        "executor": executor,
        "workers": workers,
        "cache": cached,
        "wall_seconds": round(elapsed, 4),
        "cache_hits": hits,
        "cache_misses": misses,
        "cases": sum(len(arm.reports) for arm in result.arms),
        "passed": sum(report.passed for arm in result.arms
                      for report in arm.reports),
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_path = pathlib.Path(argv[0]) if argv else DEFAULT_OUT
    dataset = load_dataset().subset(CATEGORIES)

    serial, serial_secs = _timed_run(dataset, executor="serial", workers=1,
                                     cache=None)
    with tempfile.TemporaryDirectory(prefix="repro-perf-smoke-") as tmp:
        cache = ResultCache(tmp)
        cold, cold_secs = _timed_run(dataset, executor="process",
                                     workers=WORKERS, cache=cache)
        warm, warm_secs = _timed_run(dataset, executor="process",
                                     workers=WORKERS, cache=cache)

    total = sum(len(arm.reports) for arm in serial.arms)
    checks = {
        "process_matches_serial": _arm_payload(cold) == _arm_payload(serial),
        "warm_zero_executions":
            warm.telemetry.cache_counts() == (total, 0)
            and _arm_payload(warm) == _arm_payload(cold),
    }
    payload = {
        "schema": SCHEMA,
        "config": {
            "engines": ENGINES,
            "categories": sorted(cat.value for cat in CATEGORIES),
            "cases": len(dataset),
            "seed": SEED,
            "workers": WORKERS,
            "shard_size": SHARD_SIZE,
        },
        "runs": [
            _run_entry("serial_cold", "serial", 1, False, serial,
                       serial_secs),
            _run_entry("process_cold", "process", WORKERS, True, cold,
                       cold_secs),
            _run_entry("process_warm", "process", WORKERS, True, warm,
                       warm_secs),
        ],
        "speedups": {
            "process_vs_serial": round(serial_secs / cold_secs, 3)
            if cold_secs > 0 else None,
            "warm_vs_cold": round(cold_secs / warm_secs, 3)
            if warm_secs > 0 else None,
        },
        "checks": checks,
    }

    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {out_path}")
    for run in payload["runs"]:
        print(f"  {run['name']:13s} {run['wall_seconds']:8.3f}s  "
              f"cache {run['cache_hits']}h/{run['cache_misses']}m")
    print(f"  speedups: {payload['speedups']}  checks: {checks}")
    if not all(checks.values()):
        print("perf smoke FAILED correctness checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
