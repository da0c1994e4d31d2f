#!/usr/bin/env python3
"""Model-portfolio smoke: ensembles vs standalone profiles, with hard gates.

Stages, one artifact (``BENCH_ensemble.json``, schema
``repro.bench_ensemble/5`` — see docs/reference.md for the changelog):

1. **Execution-layer checks** on a three-category subset: the composite
   arms run byte-identically under ``executor="serial"`` and
   ``executor="process"`` (the pool leased from the shared
   ExecutorService), and a warm re-run on the result cache replays every
   case — zero engine (and therefore zero ensemble-member) executions —
   with identical bytes and identical ``on_member_done`` telemetry
   counts.  With ``--member-workers N > 1`` the composite arms carry
   ``member_workers=N``, and a further gate proves that concurrent voting
   elects the same winners as sequential voting.
2. **Memoized verification**: from a cold detector memo, a scored
   campaign answers strictly more verification requests than it runs
   interpreters — the detector-invocations-per-repaired-case
   amortization.  That the memo never changes an answer is gated by the
   tests (``tests/miri/test_differential.py`` and
   ``tests/engine/test_ensemble.py::TestCrossMemberMemo``).
3. **The headline claim** (sequential mode only) on the full corpus,
   repeat-sampled across seeds: the cascade arm (cheap GPT-3.5 pass
   first, full GPT-4 RustBrain only on failure) beats **every**
   standalone-model arm on pass rate at a lower mean virtual-clock
   latency than the best single model.

Wall-clock numbers are environment-dependent and NOT asserted; the
``checks`` block is a set of hard gates and the script exits non-zero if
any fails.

Run:  PYTHONPATH=src python benchmarks/ensemble_smoke.py \
          [--member-workers N] [OUTPUT.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time

from repro.bench.figures import (DEFAULT_SEEDS, ENSEMBLE_COMPOSITE_ARMS,
                                 ENSEMBLE_STANDALONE_ARMS,
                                 ensemble_best_standalone, ensemble_campaign,
                                 ensemble_data)
from repro.corpus.dataset import load_dataset
from repro.engine import ResultCache
from repro.miri import CASE_MEMO, DETECTOR_STATS
from repro.miri.errors import UbKind

SCHEMA = "repro.bench_ensemble/5"
DEFAULT_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_ensemble.json"

#: Identity-check subset: small enough for a serial reference run, wide
#: enough to exercise fast members, slow escalation, and switch routing.
CHECK_CATEGORIES = [UbKind.UNINIT, UbKind.PANIC, UbKind.STACK_BORROW]
#: Memoized-verification subset.
VERIFY_CATEGORIES = [UbKind.UNINIT, UbKind.PANIC]
CHECK_SEED = 3


def _arm_payload(result) -> str:
    return json.dumps([arm.to_dict() for arm in result.arms],
                      sort_keys=True)


def _composite_arms(member_workers: int) -> tuple[str, ...]:
    if member_workers == 1:
        return ENSEMBLE_COMPOSITE_ARMS
    return (f"portfolio?strategy=best_score&member_workers={member_workers}",
            f"portfolio?strategy=vote&member_workers={member_workers}",
            f"switch?member_workers={member_workers}")


def _winners(result, label: str) -> list:
    arm = next(arm for arm in result.arms if arm.label == label)
    return [(report.case, report.passed, report.repaired_source)
            for report in arm.reports]


def _identity_checks(member_workers: int) -> tuple[dict, dict]:
    dataset = load_dataset().subset(CHECK_CATEGORIES)
    arms = _composite_arms(member_workers)
    serial = ensemble_campaign(dataset, seed=CHECK_SEED, executor="serial",
                               arms=arms).run()
    with tempfile.TemporaryDirectory(prefix="repro-ensemble-smoke-") as tmp:
        cache = ResultCache(tmp)
        cold = ensemble_campaign(dataset, seed=CHECK_SEED,
                                 executor="process", workers=4,
                                 cache=cache, arms=arms).run()
        warm = ensemble_campaign(dataset, seed=CHECK_SEED,
                                 executor="process", workers=4,
                                 cache=cache, arms=arms).run()
    cases = len(dataset) * len(arms)
    # Cache hit/miss counts legitimately differ cold vs warm; the replayed
    # event stream (cases, rounds, per-member telemetry) must not.
    cold_events = {k: v for k, v in cold.telemetry.to_dict().items()
                   if not k.startswith("cache_")}
    warm_events = {k: v for k, v in warm.telemetry.to_dict().items()
                   if not k.startswith("cache_")}
    checks = {
        # serial == process through the shared ExecutorService.
        "process_matches_serial": _arm_payload(cold) == _arm_payload(serial),
        "warm_zero_member_executions":
            warm.telemetry.cache_counts() == (cases, 0)
            and _arm_payload(warm) == _arm_payload(cold)
            and warm_events == cold_events,
    }
    summary = {
        "categories": sorted(cat.value for cat in CHECK_CATEGORIES),
        "cases": len(dataset),
        "arms": list(arms),
        "members_finished": warm.telemetry.to_dict()["members_finished"],
        "warm_cache_hits": warm.telemetry.cache_counts()[0],
    }
    if member_workers > 1:
        vote_arm = arms[1]
        sequential = ensemble_campaign(
            dataset, seed=CHECK_SEED, executor="serial",
            arms=("portfolio?strategy=vote",)).run()
        checks["vote_winners_match_sequential"] = \
            _winners(serial, vote_arm) == \
            _winners(sequential, "portfolio?strategy=vote")
    return checks, summary


def _verification_checks() -> tuple[dict, dict]:
    """Memoized verification: fewer detector runs than requests."""
    # Published run counts must not inherit warmth from the identity stage
    # (same cases, same seed, same process).
    CASE_MEMO.clear()
    dataset = load_dataset().subset(VERIFY_CATEGORIES)
    DETECTOR_STATS.reset()
    campaign = ensemble_campaign(dataset, seed=CHECK_SEED,
                                 executor="serial",
                                 arms=("gpt-4", "cascade")).run()
    counters = DETECTOR_STATS.snapshot()
    requests, executed = counters["requests"], counters["runs"]
    scored = sum(len(arm.reports) for arm in campaign.arms)
    checks = {
        "batched_verification_reduces_detector_runs": executed < requests,
    }
    summary = {
        "categories": sorted(cat.value for cat in VERIFY_CATEGORIES),
        "cases": len(dataset),
        "campaign_cases": scored,
        "campaign_verification_requests": requests,
        "campaign_detector_runs": executed,
        "campaign_case_memo_hits": counters["case_memo_hits"],
        "requests_per_case": round(requests / scored, 3),
        "runs_per_case": round(executed / scored, 3),
    }
    return checks, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", type=pathlib.Path, default=None)
    parser.add_argument("--member-workers", type=int, default=1,
                        help="consult ensemble members in concurrent waves "
                             "of this width (identity gates only; skips "
                             "the full-corpus headline stage)")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    member_workers = args.member_workers
    out_path = args.output
    if out_path is None:
        out_path = DEFAULT_OUT if member_workers == 1 else \
            DEFAULT_OUT.with_name(f"BENCH_ensemble_mw{member_workers}.json")

    start = time.perf_counter()
    identity_checks, identity_summary = _identity_checks(member_workers)
    identity_secs = time.perf_counter() - start

    start = time.perf_counter()
    verify_checks, verify_summary = _verification_checks()
    verify_secs = time.perf_counter() - start

    checks = {**identity_checks, **verify_checks}
    wall_seconds = {
        "identity": round(identity_secs, 4),
        "verification": round(verify_secs, 4),
    }
    payload = {
        "schema": SCHEMA,
        "config": {
            "member_workers": member_workers,
            "standalone_arms": list(ENSEMBLE_STANDALONE_ARMS),
            "composite_arms": list(_composite_arms(member_workers)),
            "cases": len(load_dataset()),
        },
        "identity": identity_summary,
        "verification": verify_summary,
    }

    data = None
    if member_workers == 1:
        # The repeat-sampled headline sweep only gates the sequential
        # artifact; the member-workers variant is an execution-layer run.
        start = time.perf_counter()
        data = ensemble_data()
        wall_seconds["headline"] = round(time.perf_counter() - start, 4)

        best = ensemble_best_standalone(data)
        cascade = data["cascade"]
        standalone = {arm: data[arm] for arm in ENSEMBLE_STANDALONE_ARMS}
        checks.update({
            "cascade_beats_every_standalone_pass_rate": all(
                cascade.pass_rate > summary.pass_rate
                for summary in standalone.values()),
            "cascade_cheaper_than_best_single_model":
                cascade.mean_seconds < best.mean_seconds,
        })
        payload["config"]["seeds"] = list(DEFAULT_SEEDS)
        payload["arms"] = {
            label: {
                "pass_rate": round(summary.pass_rate, 4),
                "exec_rate": round(summary.exec_rate, 4),
                "mean_virtual_seconds": round(summary.mean_seconds, 2),
            }
            for label, summary in sorted(data.items())
        }
        payload["best_single_model"] = best.label

    payload["wall_seconds"] = wall_seconds
    payload["checks"] = checks

    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {out_path}")
    if data is not None:
        for label, summary in sorted(data.items()):
            print(f"  {label:12s} pass={100 * summary.pass_rate:5.1f}%  "
                  f"exec={100 * summary.exec_rate:5.1f}%  "
                  f"mean={summary.mean_seconds:7.1f}s virtual")
        print(f"  best single model: {payload['best_single_model']}")
    print(f"  verification: {verify_summary['runs_per_case']} detector "
          f"runs/case for {verify_summary['requests_per_case']} "
          f"requests/case")
    print(f"  checks: {checks}")
    if not all(checks.values()):
        print("ensemble smoke FAILED gates", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
