#!/usr/bin/env python3
"""Compile-repair smoke: checker-guided repair rates, per model profile.

Exercises the static-checker front door end to end and writes
``BENCH_compile.json`` in a stable schema (``repro.bench_compile/1``) so
successive PRs can track how well the ``compile_fix`` engine family
converts non-compiling sources into checks-clean, UB-free programs:

* **per-model lift** — every model profile sweeps the compile corpus
  twice, as ``compile_fix?attempts=1`` (the paper-style "first attempt"
  condition) and ``compile_fix?attempts=3`` (correction rounds enabled);
  the corrected check-pass rate must be a strict improvement for every
  profile, or the suggestion loop has stopped doing its job;
* **determinism** — the same ``(seed, executor)`` swept twice must
  produce byte-identical arm payloads, and a process-pool sweep must be
  byte-identical to the serial reference;
* **corpus health** — the compile generator is byte-deterministic and
  the hand-written per-code corpus re-validates 100%;
* **cache-epoch discipline** — ``CACHE_EPOCH`` must be {epoch}, the
  epoch of the last change to engine behaviour (a lex error's COMPILE
  report gained its span, and struct literal field values gained a
  parent); a change that moves engine behaviour bumps the epoch and this
  pin together, and a change that does not leaves both alone (a needless
  bump invalidates every cached campaign).

Two tiers share the checks: ``--quick`` (CI per-PR: {quick_n} generated
cases on top of the hand-written set) and the default full tier
(benchmark job: {full_n} generated cases).  Wall-clock numbers are
recorded, never asserted.

Run:  PYTHONPATH=src python benchmarks/compile_smoke.py [--quick] [OUT.json]
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro.corpus import (generate_compile_corpus, load_compile_dataset,
                          validate_case)
from repro.corpus.dataset import Dataset
from repro.corpus.manifest import manifest_bytes
from repro.engine import Campaign
from repro.engine.cache import CACHE_EPOCH

SEED = 13
QUICK_N = 12
FULL_N = 48
EXPECTED_EPOCH = 7
__doc__ = __doc__.format(quick_n=QUICK_N, full_n=FULL_N,
                         epoch=EXPECTED_EPOCH)

MODELS = ["gpt-3.5", "gpt-4", "claude-3.5", "gpt-o1"]
FIRST_ATTEMPT = "compile_fix?attempts=1"
CORRECTED = "compile_fix?attempts=3"
WORKERS = 4
SHARD_SIZE = 8

SCHEMA = "repro.bench_compile/1"
DEFAULT_OUT = pathlib.Path(__file__).parent / "out" / "BENCH_compile.json"


def _arm_bytes(result) -> bytes:
    """The arms alone, canonically serialized — the campaign config
    block records worker counts and executor names, which byte-identity
    across backends must ignore."""
    return json.dumps([arm.to_dict() for arm in result.arms],
                      indent=2, sort_keys=True).encode("utf-8")


def _rates(result) -> dict[str, float]:
    rates = {}
    for arm in result.arms:
        passed = sum(report.passed for report in arm.reports)
        rates[arm.spec.to_string()] = round(passed / len(arm.reports), 4)
    return rates


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    quick = "--quick" in argv
    argv = [arg for arg in argv if arg != "--quick"]
    out_path = pathlib.Path(argv[0]) if argv else DEFAULT_OUT
    n = QUICK_N if quick else FULL_N

    hand = list(load_compile_dataset())
    revalidated = 0
    for case in hand:
        try:
            validate_case(case)
            revalidated += 1
        except Exception as exc:  # any failure is a hard gate below
            print(f"re-validation FAILED for {case.name}: {exc}",
                  file=sys.stderr)

    start = time.perf_counter()
    generated, gen_report = generate_compile_corpus(n, SEED)
    generate_secs = time.perf_counter() - start
    again, again_report = generate_compile_corpus(n, SEED)
    generator_deterministic = (
        manifest_bytes(again, again_report)
        == manifest_bytes(generated, gen_report))

    dataset = Dataset(tuple(hand + generated))

    models = {}
    sweep_start = time.perf_counter()
    for model in MODELS:
        campaign = Campaign([FIRST_ATTEMPT, CORRECTED], dataset,
                            model=model, seed=SEED, workers=1,
                            executor="serial")
        rates = _rates(campaign.run())
        models[model] = {
            "first_attempt": rates[FIRST_ATTEMPT],
            "after_correction": rates[CORRECTED],
            "lift": round(rates[CORRECTED] - rates[FIRST_ATTEMPT], 4),
        }
    sweep_secs = time.perf_counter() - sweep_start

    # Determinism gates on one reference model: serial twice, then the
    # process pool against the serial reference.
    serial = Campaign([FIRST_ATTEMPT, CORRECTED], dataset, model="gpt-4",
                      seed=SEED, workers=1, executor="serial").run()
    serial_again = Campaign([FIRST_ATTEMPT, CORRECTED], dataset,
                            model="gpt-4", seed=SEED, workers=1,
                            executor="serial").run()
    pooled = Campaign([FIRST_ATTEMPT, CORRECTED], dataset, model="gpt-4",
                      seed=SEED, workers=WORKERS, shard_size=SHARD_SIZE,
                      executor="process").run()
    serial_bytes = _arm_bytes(serial)
    deterministic = _arm_bytes(serial_again) == serial_bytes
    pool_matches_serial = _arm_bytes(pooled) == serial_bytes

    checks = {
        "hand_corpus_revalidates": revalidated == len(hand),
        "generator_deterministic": generator_deterministic,
        "all_requested_generated": gen_report.emitted == n,
        "every_model_lifts": all(
            stats["after_correction"] > stats["first_attempt"]
            for stats in models.values()),
        "deterministic_sweep": deterministic,
        "process_matches_serial": pool_matches_serial,
        "cache_epoch_untouched": CACHE_EPOCH == EXPECTED_EPOCH,
    }
    payload = {
        "schema": SCHEMA,
        "tier": "quick" if quick else "full",
        "config": {
            "seed": SEED,
            "models": MODELS,
            "arms": [FIRST_ATTEMPT, CORRECTED],
            "hand_cases": len(hand),
            "generated_cases": n,
            "workers": WORKERS,
            "shard_size": SHARD_SIZE,
            "expected_cache_epoch": EXPECTED_EPOCH,
        },
        "generation": {
            "emitted": gen_report.emitted,
            "attempts": gen_report.attempts,
            "wall_seconds": round(generate_secs, 4),
        },
        "models": models,
        "sweep_wall_seconds": round(sweep_secs, 4),
        "checks": checks,
    }

    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {out_path} (tier: {payload['tier']})")
    for model, stats in models.items():
        print(f"  {model:12s} first={stats['first_attempt']:.4f} "
              f"corrected={stats['after_correction']:.4f} "
              f"lift={stats['lift']:+.4f}")
    print(f"  checks: {checks}")
    if not all(checks.values()):
        print("compile smoke FAILED correctness checks", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
