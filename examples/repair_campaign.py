#!/usr/bin/env python3
"""Repair campaign: sweep engine arms over a slice of the Miri-style corpus.

Reproduces, in miniature, the paper's RQ2 experiment through the engine
API, then shows the execution layer's two scaling tools:

1. **Shared isolation** — two arms declared as spec strings (with /
   without the knowledge base), each a stateful engine walking the cases
   in order so the self-learning feedback memory visibly kicks in on the
   later, similar cases (the ``feedback`` marks in the assist column).
   ``workers=2`` runs the two whole arms in parallel processes without
   touching their serial in-arm semantics.
2. **Per-case isolation + result cache** — a process-pool sweep with a
   content-addressed cache: the first run executes every case, the rerun
   is answered entirely from disk (watch the hit/miss line), and both
   produce byte-identical reports.

The finished run serializes to ``campaign.json``, the same artifact
``repro campaign --json`` writes.

Run:  python examples/repair_campaign.py
"""

import tempfile

from repro.bench.reporting import render_table
from repro.corpus.dataset import load_dataset
from repro.engine import Campaign, ProgressPrinter, ResultCache
from repro.miri.errors import UbKind

CATEGORIES = [UbKind.UNINIT, UbKind.DANGLING_POINTER]
ENGINES = ["rustbrain?kb=off", "rustbrain"]


def main() -> None:
    dataset = load_dataset().subset(CATEGORIES)
    # Stateful arms; the process pool parallelises ACROSS the two arms.
    campaign = Campaign(ENGINES, dataset, seed=13, isolation="shared",
                        workers=2, observers=[ProgressPrinter()])
    result = campaign.run()

    for arm in result.arms:
        rows = [[
            report.case,
            report.category.value,
            "pass" if report.passed else "FAIL",
            "exec" if report.acceptable else "-",
            f"{report.seconds:.0f}s",
            "feedback" if report.used_feedback else
            ("kb" if report.used_knowledge_base else "-"),
        ] for report in arm.reports]
        print(render_table(
            ["case", "category", "miri", "semantics", "time", "assist"],
            rows, title=f"Repair campaign ({arm.label})"))
        passed = sum(r.passed for r in arm.reports)
        execs = sum(r.acceptable for r in arm.reports)
        print(f"=> pass {passed}/{len(rows)}, exec {execs}/{len(rows)}\n")

    result.save("campaign.json")
    print("full trajectory written to campaign.json")

    # Per-case isolation parallelises freely and caches per case: the
    # rerun below performs zero engine executions.
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        for attempt in ("cold", "warm"):
            run = Campaign(ENGINES, dataset, seed=13, workers=4,
                           cache=cache).run()
            hits, misses = run.telemetry.cache_counts()
            print(f"{attempt} per-case sweep: {hits} cache hits, "
                  f"{misses} misses")


if __name__ == "__main__":
    main()
