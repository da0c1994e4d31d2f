"""Data generators for every table and figure in the paper's evaluation.

Each ``figN_*`` function regenerates the corresponding artifact's rows/series
(the benchmark files under ``benchmarks/`` wrap these with pytest-benchmark
and assert the paper-shape claims; ``EXPERIMENTS.md`` records the outputs).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

from ..baselines.human import HUMAN_TIMES, HumanExpert
from ..corpus.dataset import Dataset, load_dataset
from ..core.pipeline import RustBrain, RustBrainConfig
from ..core.evaluate import semantically_acceptable
from ..core.solution import decompose
from ..engine.cache import ResultCache
from ..engine.campaign import Campaign
from ..engine.spec import EngineSpec
from ..miri.errors import PAPER_CATEGORIES, UbKind
from .experiments import SystemResults, arm_label
from .stats import RateCI, mean, wilson_interval

#: Seeds averaged in the headline numbers (repeat-sampling per §IV RQ3).
DEFAULT_SEEDS = (3, 11, 23)

#: Fig. 10's cost-reduced error-type subset.
FIG10_CATEGORIES = [
    UbKind.ALLOC, UbKind.TAIL_CALL, UbKind.DANGLING_POINTER,
    UbKind.FUNC_POINTER, UbKind.PANIC, UbKind.UNALIGNED, UbKind.FUNC_CALL,
]


@dataclass
class ArmSummary:
    label: str
    pass_rate: float
    exec_rate: float
    mean_seconds: float
    pass_by_category: dict[UbKind, float]
    exec_by_category: dict[UbKind, float]
    seconds_by_category: dict[UbKind, float]
    results: list[SystemResults] = field(default_factory=list)


def _summarize(label: str, runs: list[SystemResults]) -> ArmSummary:
    pass_by: dict[UbKind, list[float]] = {}
    exec_by: dict[UbKind, list[float]] = {}
    secs_by: dict[UbKind, list[float]] = {}
    for run in runs:
        for cat, rate in run.category_pass_rates().items():
            pass_by.setdefault(cat, []).append(rate)
        for cat, rate in run.category_exec_rates().items():
            exec_by.setdefault(cat, []).append(rate)
        for cat, secs in run.category_mean_seconds().items():
            secs_by.setdefault(cat, []).append(secs)
    return ArmSummary(
        label=label,
        pass_rate=mean([run.pass_rate() for run in runs]),
        exec_rate=mean([run.exec_rate() for run in runs]),
        mean_seconds=mean([run.mean_seconds() for run in runs]),
        pass_by_category={c: mean(v) for c, v in pass_by.items()},
        exec_by_category={c: mean(v) for c, v in exec_by.items()},
        seconds_by_category={c: mean(v) for c, v in secs_by.items()},
        results=runs,
    )


#: In-process memo: the same (spec, model, seeds, temperature, dataset) arm
#: is referenced by several figures (fig8, fig12, Table I, the ablations) —
#: each used to recompute the full repeat-sampled sweep from scratch.
_ARM_MEMO: dict = {}


@lru_cache(maxsize=1)
def _figures_cache() -> ResultCache | None:
    """Optional on-disk result cache for figure regeneration.

    Opt-in via ``REPRO_CACHE_DIR`` — arm-level entries make re-generating
    every figure a pure replay.  Off by default: cached reports are only
    valid while engine behaviour is unchanged, so a persistent cache is a
    tool for sweeping parameters, not for CI.
    """
    root = os.environ.get("REPRO_CACHE_DIR")
    return ResultCache(root) if root else None


def _seed_campaign(arm_specs, dataset: Dataset, model: str,
                   temperature: float) -> Campaign:
    """A shared-isolation campaign fanning one stateful arm per seed.

    Stateful sweeps cannot split within an arm, but several arms run in
    parallel on the process pool, one whole arm per worker.
    """
    return Campaign(arm_specs, dataset, model=model, temperature=temperature,
                    isolation="shared",
                    workers=min(len(arm_specs), os.cpu_count() or 1),
                    cache=_figures_cache())


def run_arm(kind: str, model: str, seeds=DEFAULT_SEEDS,
            dataset: Dataset | None = None, temperature: float = 0.5,
            **overrides) -> ArmSummary:
    """Repeat-sample one arm across seeds, one Campaign arm per seed.

    Each arm keeps the paper's stateful shared-isolation semantics (the
    numbers are bit-identical to the old serial ``evaluate_spec`` loop);
    the per-seed sweeps run in parallel on the process pool, repeated
    references to the same arm are served from the in-process memo, and an
    optional ``REPRO_CACHE_DIR`` result cache survives across processes.
    """
    spec = EngineSpec.coerce(kind)
    if "seed" in spec.factory_kwargs():
        raise ValueError(
            f"spec {spec} pins its own seed; run_arm derives one arm per "
            f"seed in {seeds}")
    dataset = dataset if dataset is not None else load_dataset()
    label = arm_label(spec, model)
    memo_key = (spec.to_string(), tuple(sorted(overrides.items())), model,
                tuple(seeds), temperature, dataset)
    cached = _ARM_MEMO.get(memo_key)
    if cached is not None:
        return cached
    # Overrides become spec params *before* the original params so an
    # explicitly-parameterised spec keeps precedence, matching the old
    # create_engine(spec, **overrides) merge order.
    extra = EngineSpec.make(spec.name, **overrides).params
    arm_specs = [EngineSpec(spec.name,
                            extra + spec.params + (("seed", str(seed)),))
                 for seed in seeds]
    result = _seed_campaign(arm_specs, dataset, model, temperature).run()
    runs = []
    for arm in result.arms:
        results = arm.results
        results.system = label  # per-seed arms all report as the base arm
        runs.append(results)
    summary = _summarize(label, runs)
    _ARM_MEMO[memo_key] = summary
    return summary


# ---------------------------------------------------------------------------
# Model-portfolio experiment — ensembles vs standalone profiles
#
# The Fig. 8/9 model-comparison story, run as one campaign axis: every
# capability profile as a standalone arm next to the three composite
# engines (portfolio/cascade/switch).  The headline shape this asserts
# (see benchmarks/ensemble_smoke.py, which writes BENCH_ensemble.json):
# the cascade beats every standalone model on pass rate while staying
# cheaper on the virtual clock than the best single model.

#: Standalone arms: one auto-registered profile arm per model.
ENSEMBLE_STANDALONE_ARMS = ("gpt-3.5", "claude-3.5", "gpt-4", "gpt-o1")

#: The composite arms, with their default member lists (three profiles).
ENSEMBLE_COMPOSITE_ARMS = ("portfolio", "cascade", "switch")


def ensemble_campaign(dataset: Dataset | None = None, *, seed: int = 3,
                      executor: str = "process", workers: int | None = None,
                      cache: ResultCache | None = None,
                      arms=ENSEMBLE_STANDALONE_ARMS
                      + ENSEMBLE_COMPOSITE_ARMS) -> Campaign:
    """The model-portfolio campaign: per-case isolation (ensembles derive
    member seeds themselves), sharded across the process pool."""
    if workers is None:
        workers = (os.cpu_count() or 1) if executor != "serial" else 1
    dataset = dataset if dataset is not None else load_dataset()
    return Campaign(list(arms), dataset, seed=seed, executor=executor,
                    workers=workers, cache=cache)


@lru_cache(maxsize=1)
def ensemble_data(seeds=DEFAULT_SEEDS) -> dict[str, ArmSummary]:
    """Repeat-sampled summary per arm, standalone and composite alike."""
    per_arm: dict[str, list[SystemResults]] = {}
    for seed in seeds:
        result = ensemble_campaign(seed=seed, cache=_figures_cache()).run()
        for arm in result.arms:
            per_arm.setdefault(arm.label, []).append(arm.results)
    return {label: _summarize(label, runs)
            for label, runs in per_arm.items()}


def ensemble_best_standalone(data: dict[str, ArmSummary]) -> ArmSummary:
    """The best single model: highest repeat-sampled pass rate among the
    standalone profile arms (exec rate breaks ties)."""
    return max((data[arm] for arm in ENSEMBLE_STANDALONE_ARMS),
               key=lambda summary: (summary.pass_rate, summary.exec_rate))


# ---------------------------------------------------------------------------
# Fig. 7 — RQ1 flexibility: ten fast-thinking solutions for one case


@dataclass
class Fig7Group:
    group: int
    agents: list[str]
    rules: list[str]
    passed: bool
    acceptable: bool
    seconds: float
    used_knowledge_base: bool


def fig7_flexibility(seed: int = 3, case_name: str = "stackborrow_reborrow_1",
                     n_solutions: int = 10) -> list[Fig7Group]:
    """Generate 10 solutions for one semantic-modification UB and execute
    each independently, reporting agent order / verdicts / overhead."""
    from ..lang.parser import parse_program
    from ..llm.client import LLMClient, VirtualClock
    from ..llm.oracle import rank_candidate_rules
    from ..core.features import analyse
    from ..core.slow import SlowThinking
    from ..core.knowledge import KnowledgeBase
    from ..core.agents.reasoning import AbstractReasoningAgent
    from ..core.view import program_view
    from ..miri import detect_ub

    case = load_dataset().get(case_name)
    program = parse_program(case.source)
    view = program_view(case.source)
    report = detect_ub(case.source, collect=True)
    groups: list[Fig7Group] = []
    kb = KnowledgeBase.default()

    for index in range(n_solutions):
        clock = VirtualClock()
        client = LLMClient("gpt-4", 0.5, seed=seed * 1009 + index, clock=clock)
        features = analyse(client, view, report)
        use_kb = index % 2 == 1  # alternate KB usage across groups
        kb_hint = None
        if use_kb:
            reasoning = AbstractReasoningAgent(client, kb)
            kb_hint = reasoning.consult(view, report.errors).rules or None
        plans = rank_candidate_rules(client, features.extracted, view.code, 1,
                                     kb_hint=kb_hint,
                                     difficulty=case.difficulty,
                                     orchestrated=True)
        solutions = decompose(plans, guided_rules=set(kb_hint or []))
        slow = SlowThinking(client)
        outcome = slow.execute(solutions[0], program, report.error_count)
        acceptable = False
        if outcome.solved:
            acceptable = semantically_acceptable(
                outcome.final_source, case.fixed_source)
        groups.append(Fig7Group(
            group=index + 1,
            agents=[step.agent for step in solutions[0].steps],
            rules=solutions[0].rules(),
            passed=outcome.solved,
            acceptable=acceptable,
            seconds=clock.elapsed,
            used_knowledge_base=use_kb,
        ))
    return groups


# ---------------------------------------------------------------------------
# Fig. 8 / Fig. 9 — RQ2: pass and exec rates per category, seven arms

FIG8_ARMS = [
    ("gpt-3.5", "llm_only"),
    ("claude-3.5", "llm_only"),
    ("gpt-4", "llm_only"),
    ("gpt-3.5", "rustbrain"),
    ("claude-3.5", "rustbrain"),
    ("gpt-4", "rustbrain_nokb"),
    ("gpt-4", "rustbrain"),
]


@lru_cache(maxsize=1)
def fig8_fig9_data(seeds=DEFAULT_SEEDS) -> dict[str, ArmSummary]:
    return {
        (f"{model}+RustBrain(non knowledge)" if kind == "rustbrain_nokb"
         else f"{model}+RustBrain" if kind == "rustbrain" else model):
        run_arm(kind, model, seeds)
        for model, kind in FIG8_ARMS
    }


# ---------------------------------------------------------------------------
# Fig. 10 — RQ2: GPT-O1 comparison on the reduced category subset


@lru_cache(maxsize=1)
def fig10_data(seeds=DEFAULT_SEEDS) -> dict[str, ArmSummary]:
    subset = load_dataset().subset(FIG10_CATEGORIES)
    return {
        "GPT-4+RustBrain": run_arm("rustbrain", "gpt-4", seeds, subset),
        "GPT-O1+RustBrain": run_arm("rustbrain", "gpt-o1", seeds, subset),
    }


# ---------------------------------------------------------------------------
# Fig. 11 — RQ3: temperature sweep with confidence intervals

FIG11_TEMPERATURES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass
class TemperaturePoint:
    temperature: float
    pass_ci: RateCI
    exec_ci: RateCI


@lru_cache(maxsize=1)
def fig11_data(seeds=(3, 11, 23, 31)) -> list[TemperaturePoint]:
    # One campaign, one stateful arm per (temperature, seed) pair — the
    # whole 9x4 sweep fans out across the process pool at once instead of
    # grinding through 36 serial dataset sweeps.
    dataset = load_dataset()
    arm_specs = [EngineSpec.make("rustbrain", seed=seed,
                                 temperature=temperature)
                 for temperature in FIG11_TEMPERATURES for seed in seeds]
    result = _seed_campaign(arm_specs, dataset, model="gpt-4",
                            temperature=0.5).run()
    arms = iter(result.arms)  # completed in spec order
    points = []
    for temperature in FIG11_TEMPERATURES:
        passes = execs = total = 0
        for _seed in seeds:
            arm = next(arms)
            passes += sum(r.passed for r in arm.reports)
            execs += sum(r.acceptable for r in arm.reports)
            total += len(arm.reports)
        points.append(TemperaturePoint(
            temperature,
            wilson_interval(passes, total),
            wilson_interval(execs, total),
        ))
    return points


# ---------------------------------------------------------------------------
# Fig. 12 — RQ4: RustBrain vs RustAssistant per category


@lru_cache(maxsize=1)
def fig12_data(seeds=DEFAULT_SEEDS) -> dict[str, ArmSummary]:
    return {
        "GPT-4+RustBrain": run_arm("rustbrain", "gpt-4", seeds),
        "GPT-4+RustBrain(non knowledge)": run_arm("rustbrain_nokb", "gpt-4",
                                                  seeds),
        "Rustassistant": run_arm("rustassistant", "gpt-4", seeds),
    }


# ---------------------------------------------------------------------------
# Table I — RQ4: execution time vs human experts


@dataclass
class Table1Row:
    category: UbKind
    no_knowledge_seconds: float
    knowledge_seconds: float
    human_seconds: float

    @property
    def speedup(self) -> float:
        if self.no_knowledge_seconds <= 0:
            return 0.0
        return self.human_seconds / self.no_knowledge_seconds


@lru_cache(maxsize=1)
def table1_data(seeds=DEFAULT_SEEDS) -> list[Table1Row]:
    no_kb = run_arm("rustbrain_nokb", "gpt-4", seeds)
    with_kb = run_arm("rustbrain", "gpt-4", seeds)
    human = HumanExpert(seed=1)
    dataset = load_dataset()
    rows = []
    for category in PAPER_CATEGORIES:
        cases = dataset.by_category(category)
        human_secs = mean([
            human.repair(case.name, category, case.difficulty).seconds
            for case in cases
        ])
        rows.append(Table1Row(
            category=category,
            no_knowledge_seconds=no_kb.seconds_by_category.get(category, 0.0),
            knowledge_seconds=with_kb.seconds_by_category.get(category, 0.0),
            human_seconds=human_secs,
        ))
    return rows


def table1_average(rows: list[Table1Row]) -> Table1Row:
    return Table1Row(
        category=UbKind.ALLOC,  # placeholder; label "Average" when rendering
        no_knowledge_seconds=mean([r.no_knowledge_seconds for r in rows]),
        knowledge_seconds=mean([r.knowledge_seconds for r in rows]),
        human_seconds=mean([r.human_seconds for r in rows]),
    )


# ---------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md)


@lru_cache(maxsize=1)
def ablation_rollback(seeds=DEFAULT_SEEDS) -> dict[str, ArmSummary]:
    return {
        "adaptive": run_arm("rustbrain", "gpt-4", seeds),
        "rollback_to_initial": run_arm("rustbrain_initial_rollback", "gpt-4",
                                       seeds),
        "no_rollback": run_arm("rustbrain_norollback", "gpt-4", seeds),
    }


@lru_cache(maxsize=1)
def ablation_pruning(seeds=DEFAULT_SEEDS) -> dict[str, ArmSummary]:
    return {
        "pruned_kb": run_arm("rustbrain", "gpt-4", seeds),
        "unpruned_kb": run_arm("rustbrain_nopruning", "gpt-4", seeds),
    }


@lru_cache(maxsize=1)
def ablation_feedback(seeds=DEFAULT_SEEDS) -> dict[str, ArmSummary]:
    return {
        "with_feedback": run_arm("rustbrain", "gpt-4", seeds),
        "no_feedback": run_arm("rustbrain_nofeedback", "gpt-4", seeds),
    }


@lru_cache(maxsize=1)
def ablation_solutions(seeds=DEFAULT_SEEDS) -> dict[str, ArmSummary]:
    return {
        "n=1": run_arm("rustbrain", "gpt-4", seeds, n_solutions=1),
        "n=3": run_arm("rustbrain", "gpt-4", seeds, n_solutions=3),
        "n=6": run_arm("rustbrain", "gpt-4", seeds, n_solutions=6),
        "n=10": run_arm("rustbrain", "gpt-4", seeds, n_solutions=10),
    }
