"""Which ``repro`` entry points the traced run wraps, and the per-layer
metrics derived from their spans.

Layers are named after ``src/repro`` packages.  Each metric below is
expected to move a named end-to-end metric on a named workload; the map
is ``LAYER_MAP`` and is printed with every traced run.
"""

from __future__ import annotations

import sys

from perfbench.measure import share
from perfbench.tracer import original


def _not_none(result) -> bool:
    return result is not None


def _config(config, *args, **kwargs):
    """Operation id of a service request: its ``JobConfig`` object, which
    both the front door (coalesce key) and the worker (execution) see."""
    return config


def _engine_label(engine, request, engine_label="", **kwargs):
    return engine_label


#: (span name, module, attribute, wrapper options).  Targets and counters
#: missing from a version of the program are skipped; their metrics read 0.
TARGETS = [
    ("lang.lex", "repro.lang.lexer", "tokenize", {}),
    # compile_source reads the parser memo directly, so the parse itself
    # is traced on the Parser rather than on parse_program.
    ("lang.parse", "repro.lang.parser", "Parser.parse_program", {}),
    ("lang.clone", "repro.lang.ast_nodes", "clone", {}),
    ("lang.print", "repro.lang.printer", "print_program", {}),
    ("miri.compile", "repro.miri.bytecode", "compile_program", {}),
    ("miri.interp", "repro.miri.interp", "run_program", {}),
    ("miri.detect_case", "repro.miri", "detect_case", {}),
    ("miri.fingerprint", "repro.miri.fingerprint", "source_fingerprint", {}),
    ("check", "repro.check.checker", "check_source", {}),
    ("core.rewrite", "repro.core.rewrites", "RewriteRule.apply",
     {"ok": _not_none}),
    ("core.prune", "repro.core.pruning", "prune_program", {}),
    ("core.features", "repro.core.features", "analyse", {}),
    ("core.kb", "repro.core.knowledge", "KnowledgeBase.query", {}),
    ("core.score", "repro.core.evaluate", "semantically_acceptable", {}),
    ("llm", "repro.llm.client", "LLMClient.charge", {}),
    ("llm", "repro.llm.client", "LLMClient.generate_batch", {}),
    ("llm", "repro.llm.oracle", "extract_features", {}),
    ("llm", "repro.llm.oracle", "rank_candidate_rules", {}),
    ("llm", "repro.llm.oracle", "generate_plan_batch", {}),
    ("llm", "repro.llm.oracle", "corrupt_step", {}),
    ("llm", "repro.llm.oracle", "judge_semantics", {}),
    ("engine.create", "repro.engine.registry", "create_engine", {}),
    ("engine.request", "repro.engine.types", "run_request",
     {"tag": _engine_label}),
    ("engine.cache.get", "repro.engine.cache", "ResultCache.get",
     {"ok": _not_none}),
    ("engine.cache.put", "repro.engine.cache", "ResultCache.put", {}),
    ("service.admit", "repro.service.jobs", "coalesce_key", {"op": _config}),
    ("service.exec", "repro.service.jobs", "execute_repair", {"op": _config}),
]

#: Per-layer metric -> (unit, better, the end-to-end metric it should
#: move on which workload, and where it should not move).
LAYER_MAP = {
    "lang.lex.calls": ("count", "lower",
        "ops_per_s on campaign_cold and verdict_sweep; not "
        "service_mixed hits"),
    "lang.lex.self_s": ("s", "lower",
        "ops_per_s on campaign_cold (~16% self) and verdict_sweep"),
    "lang.parse.calls": ("count", "lower",
        "ops_per_s on campaign_cold and verdict_sweep"),
    "lang.parse.self_s": ("s", "lower",
        "ops_per_s on campaign_cold (~6% self) and verdict_sweep"),
    "lang.parse.memo_hit_ratio": ("ratio", "higher",
        "ops_per_s on campaign_cold, where inputs share; near 0 on "
        "verdict_sweep"),
    "lang.clone.calls": ("count", "lower",
        "ops_per_s on campaign_cold; not service_mixed hits"),
    "lang.clone.self_s": ("s", "lower",
        "ops_per_s on campaign_cold (~10% self)"),
    "lang.print.calls": ("count", "lower",
        "ops_per_s on campaign_cold; not service_mixed hits"),
    "lang.print.self_s": ("s", "lower",
        "ops_per_s on campaign_cold (~7% self)"),
    "miri.compile.self_s": ("s", "lower",
        "ops_per_s on verdict_sweep and campaign_cold (bytecode "
        "lowering)"),
    "miri.interp.runs": ("count", "lower",
        "ops_per_s on verdict_sweep and campaign_cold"),
    "miri.interp.self_s": ("s", "lower",
        "ops_per_s on verdict_sweep (~27%) and campaign_cold "
        "(~15%); latency_p99_ms on service_mixed misses"),
    "miri.detect.requests": ("count", "lower",
        "ops_per_s on campaign_cold and verdict_sweep"),
    "miri.detect.runs_per_request": ("ratio", "lower",
        "ops_per_s on campaign_cold, where repeats share runs"),
    "miri.case_memo.hit_ratio": ("ratio", "higher",
        "ops_per_s on campaign_cold"),
    "miri.fingerprint.calls": ("count", "lower",
        "ops_per_s on campaign_cold; latency_p50_ms on "
        "service_mixed (one coalesce key per request); zero on "
        "verdict_sweep"),
    "miri.fingerprint.self_s": ("s", "lower",
        "ops_per_s on campaign_cold (~26% inclusive); "
        "latency_p50_ms on service_mixed"),
    "miri.fingerprint.memo_hit_ratio": ("ratio", "higher",
        "latency_p50_ms on service_mixed; ops_per_s on "
        "campaign_cold"),
    "check.calls": ("count", "lower",
        "ops_per_s on verdict_sweep; not campaign_cold (~0.7%)"),
    "check.self_s": ("s", "lower",
        "ops_per_s on verdict_sweep (~13%)"),
    "core.rewrite.attempts": ("count", "lower",
        "ops_per_s on campaign_cold; zero on verdict_sweep"),
    "core.rewrite.applied_ratio": ("ratio", "higher",
        "ops_per_s on campaign_cold: every attempt clones the whole "
        "program"),
    "core.rewrite.self_s": ("s", "lower",
        "ops_per_s on campaign_cold; not verdict_sweep"),
    "core.prune.self_s": ("s", "lower",
        "ops_per_s on campaign_cold; not verdict_sweep"),
    "core.features.self_s": ("s", "lower",
        "ops_per_s on campaign_cold; not verdict_sweep"),
    "core.kb.calls": ("count", "lower",
        "ops_per_s on campaign_cold; not verdict_sweep"),
    "core.kb.self_s": ("s", "lower",
        "ops_per_s on campaign_cold; not verdict_sweep"),
    "core.score.self_s": ("s", "lower",
        "ops_per_s on campaign_cold; not verdict_sweep"),
    "llm.calls": ("count", "lower",
        "ops_per_s on campaign_cold; zero on verdict_sweep"),
    "llm.self_s": ("s", "lower",
        "ops_per_s on campaign_cold; not verdict_sweep"),
    "engine.create.calls": ("count", "lower",
        "ops_per_s on campaign_cold; zero on verdict_sweep"),
    "engine.create.self_s": ("s", "lower",
        "ops_per_s on campaign_cold and service_mixed (each request "
        "builds its engine once to validate the spec)"),
    "engine.request.self_s": ("s", "lower",
        "ops_per_s on campaign_cold"),
    "engine.cache.gets": ("count", "higher",
        "ops_per_s on service_mixed, one per request; zero on "
        "campaign_cold and verdict_sweep"),
    "engine.cache.puts": ("count", "higher",
        "service_mixed misses; zero elsewhere"),
    "engine.cache.hit_ratio": ("ratio", "higher",
        "latency_p50_ms and ops_per_s on service_mixed; not "
        "campaign_cold or verdict_sweep"),
    "engine.cache.self_s": ("s", "lower",
        "latency_p50_ms and ops_per_s on service_mixed; not "
        "campaign_cold or verdict_sweep"),
    "engine.arm.llm_only.s": ("s", "lower",
        "ops_per_s on campaign_cold"),
    "engine.arm.rustbrain_nokb.s": ("s", "lower",
        "ops_per_s on campaign_cold"),
    "engine.arm.rustbrain.s": ("s", "lower",
        "ops_per_s on campaign_cold"),
    "engine.arm.cascade.s": ("s", "lower",
        "ops_per_s on campaign_cold"),
    "service.exec.calls": ("count", "higher",
        "ops_per_s on service_mixed; zero elsewhere"),
    "service.exec.s": ("s", "lower",
        "latency_p50_ms, latency_p99_ms and ops_per_s on "
        "service_mixed; zero elsewhere"),
    "service.wait_ms": ("ms", "lower",
        "latency_p50_ms and latency_p99_ms on service_mixed; zero "
        "elsewhere"),
    "trace.overhead_ratio": ("ratio", "lower",
        "nothing: traced over untraced time per operation of the "
        "same work"),
}


def counters() -> dict:
    """Counters the program keeps itself, read from the original objects:
    a tracer wrapper hides an ``lru_cache``'s ``cache_info``."""
    out = {}
    parser = sys.modules.get("repro.lang.parser")
    parse_memo = original(getattr(parser, "_parse_program_cached", None))
    if hasattr(parse_memo, "cache_info"):
        info = parse_memo.cache_info()
        out["parse_hits"], out["parse_misses"] = info.hits, info.misses
    fingerprint = sys.modules.get("repro.miri.fingerprint")
    fingerprint_memo = original(getattr(fingerprint, "source_fingerprint",
                                        None))
    if hasattr(fingerprint_memo, "cache_info"):
        info = fingerprint_memo.cache_info()
        out["fp_hits"], out["fp_misses"] = info.hits, info.misses
    stats = getattr(sys.modules.get("repro.miri"), "DETECTOR_STATS", None)
    if stats is not None:
        snapshot = stats.snapshot()
        out["requests"] = snapshot.get("requests", 0)
        out["runs"] = snapshot.get("runs", 0)
        out["case_memo_hits"] = snapshot.get("case_memo_hits", 0)
    return out


def metrics(tracer, before: dict, after: dict, arm_labels: dict,
            overhead_ratio: float) -> dict[str, float]:
    """Every ``LAYER_MAP`` metric from one traced run.

    ``before``/``after`` are :func:`counters` around the traced region;
    ``arm_labels`` maps each campaign arm label to its short name.
    """
    summary = tracer.summary()
    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def self_s(*names):
        return sum(summary.get(name, {}).get("self_s", 0.0)
                   for name in names)

    def ok(name):
        return summary.get(name, {}).get("ok", 0)

    arm_seconds = {short: 0.0 for short in arm_labels.values()}
    for label, seconds in tracer.by_tag("engine.request").items():
        if label in arm_labels:
            arm_seconds[arm_labels[label]] += seconds

    admitted = {id(span.op): span.end for span in tracer.spans
                if span.name == "service.admit"}
    waits = [span.start - admitted[id(span.op)] for span in tracer.spans
             if span.name == "service.exec" and id(span.op) in admitted]

    return {
        "lang.lex.calls": calls("lang.lex"),
        "lang.lex.self_s": self_s("lang.lex"),
        "lang.parse.calls": calls("lang.parse"),
        "lang.parse.self_s": self_s("lang.parse"),
        "lang.parse.memo_hit_ratio": share(
            delta.get("parse_hits", 0),
            delta.get("parse_hits", 0) + delta.get("parse_misses", 0)),
        "lang.clone.calls": calls("lang.clone"),
        "lang.clone.self_s": self_s("lang.clone"),
        "lang.print.calls": calls("lang.print"),
        "lang.print.self_s": self_s("lang.print"),
        "miri.compile.self_s": self_s("miri.compile"),
        "miri.interp.runs": calls("miri.interp"),
        "miri.interp.self_s": self_s("miri.interp"),
        "miri.detect.requests": delta.get("requests", 0),
        "miri.detect.runs_per_request": share(delta.get("runs", 0),
                                               delta.get("requests", 0)),
        "miri.case_memo.hit_ratio": share(delta.get("case_memo_hits", 0),
                                           calls("miri.detect_case")),
        "miri.fingerprint.calls": calls("miri.fingerprint"),
        "miri.fingerprint.self_s": self_s("miri.fingerprint"),
        "miri.fingerprint.memo_hit_ratio": share(
            delta.get("fp_hits", 0),
            delta.get("fp_hits", 0) + delta.get("fp_misses", 0)),
        "check.calls": calls("check"),
        "check.self_s": self_s("check"),
        "core.rewrite.attempts": calls("core.rewrite"),
        "core.rewrite.applied_ratio": share(ok("core.rewrite"),
                                             calls("core.rewrite")),
        "core.rewrite.self_s": self_s("core.rewrite"),
        "core.prune.self_s": self_s("core.prune"),
        "core.features.self_s": self_s("core.features"),
        "core.kb.calls": calls("core.kb"),
        "core.kb.self_s": self_s("core.kb"),
        "core.score.self_s": self_s("core.score"),
        "llm.calls": calls("llm"),
        "llm.self_s": self_s("llm"),
        "engine.create.calls": calls("engine.create"),
        "engine.create.self_s": self_s("engine.create"),
        "engine.request.self_s": self_s("engine.request"),
        "engine.cache.gets": calls("engine.cache.get"),
        "engine.cache.puts": calls("engine.cache.put"),
        "engine.cache.hit_ratio": share(ok("engine.cache.get"),
                                         calls("engine.cache.get")),
        "engine.cache.self_s": self_s("engine.cache.get", "engine.cache.put"),
        **{f"engine.arm.{short}.s": seconds
           for short, seconds in arm_seconds.items()},
        "service.exec.calls": calls("service.exec"),
        "service.exec.s": summary.get("service.exec", {}).get("s", 0.0),
        "service.wait_ms": 1000 * share(sum(waits), len(waits)),
        "trace.overhead_ratio": overhead_ratio,
    }
