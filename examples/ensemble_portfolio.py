#!/usr/bin/env python3
"""Model-portfolio ensembles: the Fig. 8/9 comparison as one campaign.

Runs every capability profile as a standalone arm next to the three
composite engines over a slice of the corpus:

* ``portfolio`` — three ``llm_only`` profiles race per case, first Miri
  pass wins;
* ``cascade`` — GPT-3.5 answers first, the full GPT-4 RustBrain pipeline
  is only consulted on failure (the paper's fast→slow escalation at the
  model level);
* ``switch`` — the detector's UB category routes each case to a fast or
  slow member (AkiraRust-style feedback-guided switching).

Watch the ``on_member_done`` telemetry: the cascade's second member only
appears on the cases the cheap model failed, which is exactly why its
mean virtual-clock latency lands far below the best single model's while
its pass rate lands far above.

Run:  python examples/ensemble_portfolio.py
"""

from repro.bench.reporting import render_table
from repro.corpus.dataset import load_dataset
from repro.engine import Campaign, CampaignObserver
from repro.miri.errors import UbKind

CATEGORIES = [UbKind.UNINIT, UbKind.STACK_BORROW, UbKind.DANGLING_POINTER]
STANDALONE = ["gpt-3.5", "claude-3.5", "gpt-4"]
ENSEMBLES = ["portfolio", "cascade", "switch"]


class MemberTrace(CampaignObserver):
    """Print one line per consulted ensemble member."""

    def on_member_done(self, event):
        verdict = "pass" if event.passed else "FAIL"
        print(f"    [{event.engine}] {event.case}: member "
              f"#{event.member_index} {event.member} -> {verdict} "
              f"({event.seconds:.0f}s virtual)")


def main() -> None:
    dataset = load_dataset().subset(CATEGORIES)
    campaign = Campaign(STANDALONE + ENSEMBLES, dataset, seed=3,
                        workers=4, observers=[MemberTrace()])
    result = campaign.run()

    rows = []
    for arm in result.arms:
        results = arm.results
        rows.append([arm.label,
                     f"{100 * results.pass_rate():.1f}",
                     f"{100 * results.exec_rate():.1f}",
                     f"{results.mean_seconds():.0f}"])
    print(render_table(["arm", "pass %", "exec %", "mean s"], rows,
                       title="Standalone profiles vs ensembles"))

    members = result.telemetry.to_dict()["members_finished"]
    print(f"{members} member executions across "
          f"{len(ENSEMBLES)} ensemble arms — full trajectory in "
          "ensemble_campaign.json")
    result.save("ensemble_campaign.json")


if __name__ == "__main__":
    main()
