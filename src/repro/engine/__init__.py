"""The public repair-engine API.

One import surface for everything above the individual arms::

    from repro.engine import create_engine, Campaign, EngineSpec

    engine = create_engine("rustbrain?kb=off&temperature=0.2", seed=7)
    outcome = engine.repair(buggy_source)

    campaign = Campaign(["rustbrain", "llm_only"], workers=4, seed=3)
    result = campaign.run()
    result.save("campaign.json")

A campaign with ``workers > 1`` shards its cases across the process pool
it leases from :data:`EXECUTOR_SERVICE`; results are byte-identical to a
serial run.  Call ``EXECUTOR_SERVICE.shutdown()`` to release the pools
before exit (an atexit hook does it otherwise).

Arms register themselves where they are implemented
(:mod:`repro.core.pipeline`, :mod:`repro.baselines.llm_only`,
:mod:`repro.baselines.rustassistant`) via :func:`register_engine`; the
registry imports those modules lazily on first lookup.
"""

from .cache import (CACHE_EPOCH, CACHE_SCHEMA, ResultCache, arm_key,
                    case_key, fingerprint_case, fingerprint_dataset)
from .campaign import (EXECUTORS, ArmRun, Campaign, CampaignResult,
                       case_seed, hoist_pinned_seed, run_cases)
from .faults import (FAULT_STATS, CacheIOFault, FaultPlan, FaultSpecError,
                     InjectedFault, TransientLLMError, TransientLLMTimeout,
                     TransientServiceError, active_plan, install,
                     maybe_inject)
from .journal import (JOURNAL_SCHEMA, CampaignJournal, JournalError)
from .pool import (EXECUTOR_SERVICE, POOL_KINDS, CoreBudget,
                   ExecutorService)
from .retry import (CAMPAIGN_RETRY, LLM_RETRY, RETRY_EVENTS, SERVICE_RETRY,
                    RetryNotifier, RetryPolicy)
from .ensemble import (DEFAULT_MEMBERS, ENSEMBLE_KINDS, STRATEGIES,
                       EnsembleConfig, EnsembleEngine, Member, member_seed,
                       parse_member, parse_members, parse_routes,
                       parse_weights)
from .registry import (REGISTRY, EngineConfigError, EngineInfo,
                       EngineRegistry, RepairEngine, UnknownEngineError,
                       apply_config_overrides, available_engines,
                       create_engine, register_engine)
from .results import CaseResult, SystemResults
from .spec import EngineSpec, SpecError
from .telemetry import (CacheQueried, CampaignObserver, CaseFinished,
                        CaseStarted, EngineFinished, EngineStarted,
                        MemberFinished, ProgressPrinter, RetryAttempted,
                        RoundFinished, TelemetryLog)
from .types import RepairReport, RepairRequest, run_request

__all__ = [
    "ArmRun",
    "CACHE_SCHEMA",
    "CAMPAIGN_RETRY",
    "CacheIOFault",
    "CacheQueried",
    "Campaign",
    "CampaignJournal",
    "CampaignObserver",
    "CampaignResult",
    "CaseFinished",
    "CaseResult",
    "CaseStarted",
    "CoreBudget",
    "EXECUTORS",
    "EXECUTOR_SERVICE",
    "EngineConfigError",
    "EngineFinished",
    "EngineInfo",
    "EngineRegistry",
    "EngineSpec",
    "EngineStarted",
    "ExecutorService",
    "FAULT_STATS",
    "FaultPlan",
    "FaultSpecError",
    "InjectedFault",
    "JOURNAL_SCHEMA",
    "JournalError",
    "LLM_RETRY",
    "POOL_KINDS",
    "ProgressPrinter",
    "REGISTRY",
    "RETRY_EVENTS",
    "RepairEngine",
    "RepairReport",
    "RepairRequest",
    "ResultCache",
    "RetryAttempted",
    "RetryNotifier",
    "RetryPolicy",
    "RoundFinished",
    "SERVICE_RETRY",
    "SpecError",
    "SystemResults",
    "TelemetryLog",
    "TransientLLMError",
    "TransientLLMTimeout",
    "TransientServiceError",
    "UnknownEngineError",
    "active_plan",
    "apply_config_overrides",
    "arm_key",
    "available_engines",
    "case_key",
    "case_seed",
    "create_engine",
    "fingerprint_case",
    "fingerprint_dataset",
    "install",
    "maybe_inject",
    "register_engine",
    "run_cases",
    "run_request",
]
