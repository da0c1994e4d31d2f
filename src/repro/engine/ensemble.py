"""Composite repair engines: model portfolios, cascades, and routers.

The paper's headline claim is that *orchestration* — not any single model —
conquers UBs, and Fig. 8/9 compare four model profiles precisely because no
standalone arm wins everywhere.  This module makes that comparison a
first-class workload: three composite :class:`~repro.engine.registry.
RepairEngine` families that combine ordinary registered engines ("members")
into one arm, each registered through the same
:class:`~repro.engine.registry.EngineRegistry` as every other engine, so
campaigns, the cache, the process pool, and the CLI all run them unchanged.

* ``portfolio`` — run member arms per case and pick a winner by
  ``strategy``: ``first_pass`` (members in declared order, stop at the
  first Miri pass), ``best_score`` (run everyone, keep the best passing
  report), or ``vote`` (run everyone, majority over identical repaired
  sources).
* ``cascade`` — the paper's fast→slow escalation lifted to the *model*
  level: a cheap profile answers first and the expensive profile is only
  consulted on failure, buying near-best pass rates at a fraction of the
  latency (the RustAssistant-style single-model loop is the natural first
  stage).
* ``switch`` — AkiraRust-style feedback-guided routing: the detector runs
  once, the primary :class:`~repro.miri.errors.UbKind` picks a member via
  the ``routes`` table, and (by default) failures escalate through the
  remaining members in order.

Member grammar (documented in full in ``docs/quickstart.md``)::

    portfolio?members=rustbrain:gpt-4+llm_only:claude-3.5&strategy=first_pass
    cascade?members=gpt-3.5+rustbrain:gpt-4
    switch?routes=stack_borrow:1,datarace:1&fallback=0

``members`` is a ``+``-separated list; each member is an ordinary
:class:`~repro.engine.spec.EngineSpec` with an optional ``:model`` suffix
binding a :mod:`~repro.llm.profiles` profile (members without one inherit
the ensemble's model).  Inside a member, ``;`` stands for the spec's
``?``/``&`` and ``~`` stands for a nested ``+`` — one level of inline
nesting (``portfolio?members=cascade;members=gpt-3.5~rustbrain+gpt-4``);
deeper trees should register a named engine or build specs in code.

Every :class:`~repro.llm.profiles.ModelProfile` also auto-registers a
standalone arm under its own name (``gpt-3.5``, ``claude-3.5``, …): the
``llm_only`` baseline pinned to that profile, which is what makes member
lists like ``gpt-3.5+gpt-4`` read the way Fig. 8/9 do.

Determinism: member ``i`` of a repair with ensemble seed ``s`` runs with
the derived seed ``s * 104_729 + repair_index * 977 + i`` — a pure function
of the ensemble's own (campaign-derived) seed, so ensemble arms shard
byte-identically across ``serial|process`` executors and nest without
correlating their members.  Virtual-clock seconds, tokens, and
calls accumulate across every consulted member, and the per-member
summaries travel inside the :class:`~repro.engine.types.RepairReport` to
surface as ``on_member_done`` telemetry.

Concurrent consultation (``member_workers=``): members whose consultations
are independent — the run-everyone portfolio strategies (``best_score``,
``vote``) and ``switch``'s escalation chain — are planned in *waves* of up
to ``member_workers`` members.  Waves model concurrency on the virtual
clock: a wave charges ``max(member seconds)`` instead of the sequential
sum (see DESIGN.md, "Concurrent members"), while its members run
in-process, in declaration order.  ``member_workers`` is therefore
*semantic* — part of the arm's identity, which is why introducing it
rode a :data:`~repro.engine.cache.CACHE_EPOCH` bump.  First-pass chains
(plain ``first_pass``, ``cascade``, the routed ``switch`` member whose
verdict gates escalation) are order-dependent by definition and always
consult one member per wave.

Portfolios additionally support ``weights=`` (per-member vote weights for
``strategy=vote``) and ``budget_tokens=`` / ``budget_seconds=``: after
every consulted wave the accumulated token / virtual-second spend is
checked against the budget, and remaining members are skipped once it is
exhausted (the consultation that crosses the line still counts).

Members can be cached individually (``member_cache_dir=``): each consulted
member stores its report through :class:`~repro.engine.cache.ResultCache`
under an ordinary per-case key, so overlapping ensembles share work and a
warm member cache replays without executing any member engine.  The cached
bytes are identical to a live run's, so caching never changes results.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..llm.profiles import PROFILES
from ..miri.errors import UbKind
from .cache import ResultCache, case_key, fingerprint_case
from .registry import (EngineConfigError, REGISTRY, apply_config_overrides,
                       create_engine, register_engine)
from .spec import EngineSpec, SpecError, arm_label
from .types import RepairRequest, run_request

#: The composite engine names this module registers (also consulted by
#: :func:`~repro.engine.spec.arm_label` — ensembles pin their members'
#: models, so the campaign-level model does not name the arm).
ENSEMBLE_KINDS = ("portfolio", "cascade", "switch")

#: Portfolio winner-selection strategies.
STRATEGIES = ("first_pass", "best_score", "vote")

#: Member-seed derivation constants (see the module docstring).  The
#: stride decorrelates neighbouring ensemble seeds; the repair stride
#: separates successive repairs of one shared-isolation instance.
_MEMBER_SEED_STRIDE = 104_729
_REPAIR_STRIDE = 977


def member_seed(base_seed: int, repair_index: int, member_index: int) -> int:
    """The derived seed for one member execution — a pure function of the
    ensemble's own seed, so ensembles stay worker-count-invariant."""
    return (base_seed * _MEMBER_SEED_STRIDE + repair_index * _REPAIR_STRIDE
            + member_index)


@dataclass(frozen=True)
class Member:
    """One parsed ``members`` entry: a spec plus its bound model."""

    spec: EngineSpec
    #: ``None`` inherits the ensemble's model at execution time.
    model: str | None = None

    def to_string(self) -> str:
        text = self.spec.to_string().replace("+", "~")
        if "?" in text:
            text = text.replace("?", ";").replace("&", ";")
        return text if self.model is None else f"{text}:{self.model}"


def parse_member(text: str) -> Member:
    """Parse one member entry (``spec[:model]`` with ``;``/``~`` escapes)."""
    text = text.strip()
    if not text:
        raise SpecError("empty ensemble member")
    spec_text, sep, model = text.rpartition(":")
    if not sep or model not in PROFILES:
        # No model suffix (or the tail is route-table material, not a
        # known profile): the whole entry is the spec.
        spec_text, model = text, None
    spec_text = spec_text.replace("~", "+")
    if "?" not in spec_text:
        name, _, tail = spec_text.partition(";")
        spec_text = name + (f"?{tail.replace(';', '&')}" if tail else "")
    else:
        spec_text = spec_text.replace(";", "&")
    return Member(spec=EngineSpec.parse(spec_text), model=model)


def parse_members(text: str) -> tuple[Member, ...]:
    """Parse a full ``members`` value (``+``-separated member entries)."""
    # ``"".split("+")`` yields ``[""]``, so an empty value must be caught
    # here — inside the loop it would surface as a per-member error.
    if not text.strip():
        raise SpecError("no ensemble members given (members= is empty)")
    return tuple(parse_member(chunk) for chunk in text.split("+"))


def parse_routes(text: str, member_count: int) -> dict[UbKind, int]:
    """Parse a ``switch`` route table: ``category:index`` pairs, ``,``-sep."""
    routes: dict[UbKind, int] = {}
    if not text:
        return routes
    for chunk in text.split(","):
        category_text, sep, index_text = chunk.partition(":")
        try:
            category = UbKind(category_text.strip())
        except ValueError:
            known = ", ".join(kind.value for kind in UbKind)
            raise EngineConfigError(
                f"unknown UB category {category_text!r} in routes; "
                f"choose from {known}") from None
        if not sep or not index_text.strip().isdigit():
            raise EngineConfigError(
                f"malformed route {chunk!r} (expected category:member_index)")
        if category in routes:
            # A silent overwrite would run a different routing table than
            # the arm label claims — two entries for one category is a
            # config mistake, never an intent.
            raise EngineConfigError(
                f"duplicate route for category {category.value!r} "
                f"(route {chunk!r} would overwrite member "
                f"{routes[category]})")
        index = int(index_text)
        if index >= member_count:
            raise EngineConfigError(
                f"route {chunk!r} points past the member list "
                f"({member_count} members)")
        routes[category] = index
    return routes


def parse_weights(text, member_count: int) -> tuple[float, ...] | None:
    """Parse a ``weights`` value: ``,``-separated positive numbers, one per
    member, aligned with the ``members`` declaration order.  Accepts the
    already-coerced spec value, so a bare number (single member) works."""
    if text is None or not str(text).strip():
        return None
    chunks = [chunk.strip() for chunk in str(text).split(",")]
    try:
        weights = tuple(float(chunk) for chunk in chunks)
    except ValueError:
        raise EngineConfigError(
            f"malformed weights {text!r} "
            "(expected comma-separated numbers)") from None
    if len(weights) != member_count:
        raise EngineConfigError(
            f"weights count {len(weights)} does not match the member "
            f"count ({member_count})")
    if any(weight <= 0 for weight in weights):
        raise EngineConfigError(f"weights must be positive, got {text!r}")
    return weights


# ---------------------------------------------------------------------------
# Configuration


#: Default member lists per ensemble kind.  The cascade defaults encode the
#: fast→slow story: GPT-3.5 answers the easy majority in a couple of cheap
#: calls, and the full GPT-4 RustBrain pipeline only pays its 2x-4x
#: overhead on the cases that actually need slow thinking.
DEFAULT_MEMBERS = {
    "portfolio": "llm_only:gpt-3.5+llm_only:claude-3.5+llm_only:gpt-4",
    "cascade": "llm_only:gpt-3.5+rustbrain:gpt-4",
    "switch": "llm_only:claude-3.5+rustbrain:gpt-4",
}

#: Default ``switch`` routing: deep-dependency and concurrency categories go
#: straight to the slow-thinking member; everything else tries the fast
#: member first (escalation still catches its failures).
DEFAULT_ROUTES = ("stack_borrow:1,both_borrow:1,provenance:1,datarace:1,"
                  "concurrency:1,tailcall:1")


#: One ResultCache per resolved root, shared by every ensemble instance in
#: the process.  Per-case campaign isolation constructs a fresh engine per
#: case; without sharing, each one's in-memory read-through layer would
#: start cold and every member hit would re-read and re-parse from disk.
_MEMBER_CACHES: dict[str, ResultCache] = {}


def _member_cache(root: str) -> ResultCache:
    import pathlib
    key = str(pathlib.Path(root).resolve())
    cache = _MEMBER_CACHES.get(key)
    if cache is None:
        cache = _MEMBER_CACHES.setdefault(key, ResultCache(root))
    return cache


@dataclass
class EnsembleConfig:
    model: str = "gpt-4"
    temperature: float = 0.5
    seed: int = 0
    #: ``+``-separated member specs; empty selects the kind's default.
    members: str = ""
    #: Portfolio winner selection: first_pass | best_score | vote.
    strategy: str = "first_pass"
    #: Switch routing table (``category:index,...``); empty selects the
    #: default table when the default members are in play, else no routes.
    routes: str = ""
    #: Switch: member index when no route matches the detected category.
    fallback: int = 0
    #: Switch: consult the remaining members in order when the routed
    #: member fails (AkiraRust's feedback-guided escalation).
    escalate: bool = True
    #: Virtual seconds for the routing detector run (switch only).
    detector_seconds: float = 0.8
    #: Optional per-member ResultCache root shared across ensembles.
    member_cache_dir: str = ""
    #: Concurrent-consultation width: independent consultations (run-
    #: everyone portfolio strategies, switch escalation) are planned in
    #: waves of up to this many members, each wave charging max(member
    #: seconds) to the virtual clock instead of the sum.  A *semantic*
    #: parameter — part of the arm's identity.
    member_workers: int = 1
    #: Portfolio ``strategy=vote`` only: per-member vote weights
    #: (``,``-separated positive numbers in member declaration order).
    #: ``None`` default (not ``""``) so a single-member ``weights=2``,
    #: which spec coercion types as a number, passes the override type
    #: check and reaches :func:`parse_weights`.
    weights: str | int | float | None = None
    #: Portfolio only: stop consulting members once the accumulated token
    #: spend reaches this budget (0 = unlimited).
    budget_tokens: int = 0
    #: Portfolio only: stop consulting members once the accumulated
    #: virtual-clock seconds reach this budget (0 = unlimited).
    budget_seconds: float = 0.0


class EnsembleEngine:
    """A composite engine running member arms per the kind's strategy.

    Instances follow the same contract as every other arm: fresh instances
    for per-case campaign isolation, one shared instance for stateful
    sweeps (``_repair_index`` keeps successive repairs decorrelated).
    """

    def __init__(self, kind: str, config: EnsembleConfig | None = None):
        if kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {kind!r}")
        self.kind = kind
        self.config = config or EnsembleConfig()
        if self.config.strategy not in STRATEGIES:
            raise EngineConfigError(
                f"unknown strategy {self.config.strategy!r}; choose from "
                f"{', '.join(STRATEGIES)}")
        if kind != "portfolio" and self.config.strategy != "first_pass":
            # cascade/switch are first-pass by construction; accepting the
            # param would run different semantics than the arm label claims.
            raise EngineConfigError(
                f"strategy= only applies to portfolio, not {kind}")
        members_text = self.config.members or DEFAULT_MEMBERS[kind]
        self.members = parse_members(members_text)
        for member in self.members:
            REGISTRY.get(member.spec.name)  # fail fast on unknown members
        routes_text = self.config.routes
        if kind == "switch" and not routes_text and not self.config.members:
            routes_text = DEFAULT_ROUTES
        self.routes = parse_routes(routes_text, len(self.members))
        if not 0 <= self.config.fallback < len(self.members):
            raise EngineConfigError(
                f"fallback index {self.config.fallback} out of range for "
                f"{len(self.members)} members")
        if self.config.member_workers < 1:
            raise EngineConfigError(
                f"member_workers must be >= 1, got "
                f"{self.config.member_workers}")
        self.weights = parse_weights(self.config.weights, len(self.members))
        if self.weights is not None and (
                kind != "portfolio" or self.config.strategy != "vote"):
            raise EngineConfigError(
                "weights= only applies to portfolio?strategy=vote")
        if self.config.budget_tokens < 0 or self.config.budget_seconds < 0:
            raise EngineConfigError("budgets must be >= 0 (0 = unlimited)")
        if (self.config.budget_tokens or self.config.budget_seconds) \
                and kind != "portfolio":
            # cascade/switch stop on their own pass/escalation logic;
            # accepting a budget would silently truncate that chain.
            raise EngineConfigError(
                f"budget_tokens=/budget_seconds= only apply to portfolio, "
                f"not {kind}")
        self._cache = (_member_cache(self.config.member_cache_dir)
                       if self.config.member_cache_dir else None)
        self._repair_index = 0

    # -- member execution --------------------------------------------------

    def _member_model(self, member: Member) -> str:
        return member.model or self.config.model

    def _run_member(self, index: int, source: str, difficulty: int,
                    repair_index: int):
        """Run (or replay from the member cache) one member's repair,
        returning its RepairReport."""
        member = self.members[index]
        spec = member.spec.to_string()
        model = self._member_model(member)
        seed = member_seed(self.config.seed, repair_index, index)
        key = None
        if self._cache is not None:
            key = case_key(spec, model, self.config.temperature, seed,
                           fingerprint_case("member", source, None,
                                            difficulty, None))
            cached = self._cache.get(key)
            if cached is not None:
                return cached[0]
        engine = create_engine(spec, model=model, seed=seed,
                               temperature=self.config.temperature)
        report = run_request(
            engine, RepairRequest(name="member", source=source,
                                  difficulty=difficulty),
            engine_label=arm_label(member.spec, model))
        if key is not None:
            self._cache.put(key, [report])
        return report

    def _plan_waves(self, order: list[int],
                    run_all: bool) -> list[list[int]]:
        """Partition the consultation order into waves, each charged to
        the virtual clock as if its members ran concurrently.

        Only independent consultations widen: run-everyone portfolio
        strategies chunk the whole order; switch escalation chunks the
        members behind the routed one (whose verdict gates escalation, so
        it always runs alone first).  First-pass chains and cascades are
        order-dependent by definition and stay sequential at any
        ``member_workers``.
        """
        width = self.config.member_workers
        if width > 1 and run_all:
            return [order[start:start + width]
                    for start in range(0, len(order), width)]
        if width > 1 and self.kind == "switch" and self.config.escalate \
                and len(order) > 1:
            rest = order[1:]
            return [order[:1]] + [rest[start:start + width]
                                  for start in range(0, len(rest), width)]
        return [[index] for index in order]

    def _budget_exhausted(self, seconds: float, reports: list) -> bool:
        config = self.config
        if config.budget_tokens and \
                sum(r.tokens for r in reports) >= config.budget_tokens:
            return True
        return bool(config.budget_seconds
                    and seconds >= config.budget_seconds)

    # -- winner selection --------------------------------------------------

    def _member_order(self, source: str) -> tuple[list[int], float]:
        """The member consultation order and any routing overhead."""
        if self.kind != "switch":
            return list(range(len(self.members))), 0.0
        # Feedback-guided routing: one detector question picks the entry
        # point.  Routed through the process-wide case memo under the
        # same (source, collect=True) key the members' F1 detections
        # use — collection mode records the identical first error, and
        # only ``errors[0].kind`` matters here — so the interpreter
        # typically runs once per distinct case source per process.
        from ..miri import detect_case
        report = detect_case(source, collect=True)
        category = report.errors[0].kind if report.errors else None
        start = self.routes.get(category, self.config.fallback) \
            if category is not None else self.config.fallback
        order = [start]
        if self.config.escalate:
            order += [i for i in range(len(self.members)) if i != start]
        return order, self.config.detector_seconds

    def _select(self, reports: list, consulted: list[int]) -> int | None:
        """Index (into ``reports``) of the winning member, or ``None``."""
        passing = [i for i, report in enumerate(reports) if report.passed]
        if not passing:
            return None
        if self.config.strategy == "best_score" and self.kind == "portfolio":
            # Cleanest passing repair: fewest hallucinations, then fastest,
            # then declaration order — all deterministic.
            return min(passing, key=lambda i: (reports[i].hallucinations,
                                               reports[i].seconds, i))
        if self.config.strategy == "vote" and self.kind == "portfolio":
            votes: dict[str, list[int]] = {}
            for i in passing:
                votes.setdefault(reports[i].repaired_source, []).append(i)

            def tally(positions: list[int]) -> tuple[float, int]:
                # Unweighted votes count 1.0 each, so weights=1,1,... is
                # byte-identical to no weights at all.
                weight = sum(self.weights[consulted[pos]]
                             for pos in positions) \
                    if self.weights is not None else float(len(positions))
                return (weight, -positions[0])

            return max(votes.values(), key=tally)[0]
        return passing[0]  # first_pass (and every cascade/switch)

    # -- the engine protocol -----------------------------------------------

    def repair(self, source: str, difficulty: int = 2):
        from ..core.pipeline import RepairOutcome

        repair_index = self._repair_index
        self._repair_index += 1
        order, overhead_seconds = self._member_order(source)
        run_all = self.kind == "portfolio" \
            and self.config.strategy in ("best_score", "vote")
        waves = self._plan_waves(order, run_all)

        reports = []
        consulted: list[int] = []
        wave_of: list[int] = []
        seconds = overhead_seconds
        budget_hit = False
        for wave_number, wave in enumerate(waves):
            wave_reports = [self._run_member(index, source, difficulty,
                                             repair_index)
                            for index in wave]
            # A wave models concurrent members, so it charges its slowest —
            # singleton waves (member_workers=1) degrade to the plain sum.
            seconds += max(r.seconds for r in wave_reports)
            for member_index, report in zip(wave, wave_reports):
                reports.append(report)
                consulted.append(member_index)
                wave_of.append(wave_number)
            if not run_all and any(r.passed for r in wave_reports):
                break
            if wave_number + 1 < len(waves) \
                    and self._budget_exhausted(seconds, reports):
                budget_hit = True
                break

        winner = self._select(reports, consulted)
        summaries = []
        for position, (member_index, report) in enumerate(zip(consulted,
                                                              reports)):
            member = self.members[member_index]
            summaries.append({
                "member": member.to_string(),
                "model": self._member_model(member),
                "index": member_index,
                "wave": wave_of[position],
                "passed": report.passed,
                "seconds": report.seconds,
                "tokens": report.tokens,
                "llm_calls": report.llm_calls,
            })

        best = reports[winner] if winner is not None else None
        failure = None
        if best is None:
            detail = "; budget exhausted" if budget_hit else ""
            failure = (f"no member passed "
                       f"({len(reports)}/{len(self.members)} consulted"
                       f"{detail})")
        return RepairOutcome(
            passed=best is not None,
            repaired_source=best.repaired_source if best else None,
            seconds=seconds,
            tokens=sum(r.tokens for r in reports),
            llm_calls=sum(r.llm_calls for r in reports),
            solutions_tried=sum(r.solutions_tried for r in reports),
            steps_executed=sum(r.steps_executed for r in reports),
            hallucinations=sum(r.hallucinations for r in reports),
            rollbacks=sum(r.rollbacks for r in reports),
            used_knowledge_base=any(r.used_knowledge_base for r in reports),
            used_feedback=any(r.used_feedback for r in reports),
            applied_rules=list(best.applied_rules) if best else [],
            failure_reason=failure,
            members=summaries,
        )


# ---------------------------------------------------------------------------
# Registration


def _ensemble_factory(kind: str):
    def build(*, model: str = "gpt-4", seed: int = 0,
              temperature: float = 0.5, **overrides) -> EnsembleEngine:
        config = EnsembleConfig(model=model, seed=seed,
                                temperature=temperature)
        apply_config_overrides(config, overrides)
        return EnsembleEngine(kind, config)
    return build


register_engine(
    "portfolio",
    summary="run member arms per case and keep a winner "
            "(strategy=first_pass|best_score|vote)",
    tags=("ensemble",),
)(_ensemble_factory("portfolio"))

register_engine(
    "cascade",
    summary="cheap model first, escalate to the expensive profile on "
            "failure (fast/slow thinking at the model level)",
    tags=("ensemble",),
)(_ensemble_factory("cascade"))

register_engine(
    "switch",
    summary="route each case to a member by detected UB category "
            "(AkiraRust-style feedback-guided switching)",
    tags=("ensemble",),
)(_ensemble_factory("switch"))


def _profile_arm_factory(profile_name: str):
    def build(*, model: str = "gpt-4", seed: int = 0,
              temperature: float = 0.5, **overrides):
        # Lazy: baselines import the registry at module load.
        from ..baselines.llm_only import LLMOnlyConfig, LLMOnlyRepair
        config = LLMOnlyConfig(model=profile_name, seed=seed,
                               temperature=temperature)
        apply_config_overrides(config, overrides)
        return LLMOnlyRepair(config)
    return build


# Every capability profile is a standalone arm under its own name, so
# member lists (and `repro campaign --engine gpt-4 --engine cascade`)
# compare models the way Fig. 8/9 label them.
for _name in sorted(PROFILES):
    register_engine(
        _name,
        summary=f"standalone {_name} arm (llm_only pinned to the "
                f"{_name} capability profile)",
        tags=("baseline", "model"),
    )(_profile_arm_factory(_name))
