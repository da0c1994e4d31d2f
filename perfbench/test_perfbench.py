"""Tests of the benchmark's own machinery: percentiles and the tracer.

Run: ``PYTHONPATH=src python -m pytest -q perfbench``
"""

from __future__ import annotations

import json
import sys
import threading
import time
import types

import pytest

from perfbench import layers, measure, run
from perfbench import workloads  # imports every traced module first
from perfbench.tracer import Span, Tracer, is_wrapper, repro_modules
from repro.check import checker
from repro.corpus.dataset import load_dataset
from repro.lang import parser
from repro.miri import detect_ub, fingerprint


def _wrappers_left() -> list[str]:
    left = [f"{module.__name__}.{key}" for module in repro_modules()
            for key, value in vars(module).items() if is_wrapper(value)]
    for _name, module, attribute, _options in layers.TARGETS:
        owner_name, _, method = attribute.rpartition(".")
        owner = getattr(sys.modules.get(module), owner_name, None)
        if isinstance(owner, type) and is_wrapper(owner.__dict__.get(method)):
            left.append(f"{module}.{attribute}")
    return left


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {entry["name"]: entry["why"] for entry in spec["workloads"]} \
        == {name: workload.why
            for name, workload in workloads.WORKLOADS.items()}
    assert {entry["name"]: entry["unit"] for entry in spec["end_to_end"]} \
        == run.END_TO_END
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in spec["per_layer"]] \
        == [(name, unit, better)
            for name, (unit, better, _moves) in layers.LAYER_MAP.items()]


# -- percentile ---------------------------------------------------------------


def test_percentile_edge_cases():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    for bad in (0, -1, 100.5):
        with pytest.raises(ValueError):
            measure.percentile([1.0], bad)
    assert measure.percentile([7.0], 1) == 7.0
    assert measure.percentile([7.0], 100) == 7.0
    assert measure.percentile([4, 1, 3, 2], 50) == 2
    assert measure.percentile([4, 1, 3, 2], 100) == 4
    assert measure.percentile([4, 1, 3, 2], 25) == 1


def test_p99_leaves_ten_samples_beyond_it_at_a_thousand():
    values = list(range(1000))
    p99 = measure.percentile(values, 99)
    assert sum(value > p99 for value in values) == 10


# -- timed passes -------------------------------------------------------------


class _CountingWorkload:
    """Passes of a millisecond; records which key each pass ran."""

    cold_passes = False

    def __init__(self):
        self.pass_keys = ["a", "b", "c"]
        self.ran: list[str] = []
        self.latencies = {"op": [0.002, 0.001, 0.003]}

    def iterate(self, seconds, key, tracer=None):
        self.ran.append(key)
        time.sleep(0.001)
        return 10

    def quality(self):
        return 1.0, 1.0


def test_every_pass_key_runs_once_even_when_the_seconds_are_used():
    workload = _CountingWorkload()
    metrics = run._untraced(workload, 0.0, setup_s=1.0)
    assert workload.ran == ["a", "b", "c"]
    assert 0 < metrics["ops_per_s"] <= 10 / 0.001
    assert metrics["latency_p50_ms"] == pytest.approx(2.0)


# -- tracer -------------------------------------------------------------------


def test_self_time_subtracts_children():
    tracer = Tracer()
    outer = Span("a", None, None, None)
    outer.start, outer.end = 0.0, 10.0
    first = Span("b", outer, None, None)
    first.start, first.end = 1.0, 4.0
    nested = Span("b", first, None, None)
    nested.start, nested.end = 2.0, 3.0
    second = Span("c", outer, None, None)
    second.start, second.end = 5.0, 6.0
    tracer.spans.extend([nested, first, second, outer])
    summary = tracer.summary()
    assert summary["a"]["self_s"] == pytest.approx(6.0)
    assert summary["b"]["self_s"] == pytest.approx(3.0)
    # A re-entrant call is one entry into the layer.
    assert summary["b"]["calls"] == 1
    assert summary["b"]["s"] == pytest.approx(3.0)


def test_traced_sweep_self_times_fit_in_wall_time_and_unpatch_cleanly():
    # A unique comment makes every text new to the program's memos.
    sources = [f"{case.source}\n// probe {time.time_ns()}"
               for case in list(load_dataset())[:6]]
    tracer = Tracer()
    with tracer.patched(layers.TARGETS):
        assert is_wrapper(fingerprint.print_program)
        assert is_wrapper(parser.Parser.parse_program)
        start = time.perf_counter()
        for source in sources:
            checker.check_source(source)
            detect_ub(source, collect=True)
        wall = time.perf_counter() - start
    summary = tracer.summary()
    assert summary["check"]["calls"] == len(sources)
    assert summary["lang.lex"]["calls"] > 0
    assert sum(entry["self_s"] for entry in summary.values()) <= wall
    assert all(entry["self_s"] >= -1e-9 for entry in summary.values())
    assert _wrappers_left() == []


def test_unpatch_restores_a_binding_made_while_patched():
    tracer = Tracer()
    probe = types.ModuleType("repro._perfbench_probe")
    sys.modules[probe.__name__] = probe
    try:
        with tracer.patched(layers.TARGETS):
            # A module imported mid-run binds the wrapper, not the original.
            probe.print_program = fingerprint.print_program
            assert is_wrapper(probe.print_program)
        assert not is_wrapper(probe.print_program)
        assert _wrappers_left() == []
    finally:
        del sys.modules[probe.__name__]


def test_unpatch_runs_when_the_traced_block_raises():
    with pytest.raises(RuntimeError):
        with Tracer().patched(layers.TARGETS):
            raise RuntimeError("boom")
    assert _wrappers_left() == []


def test_counters_read_the_original_memos_while_patched():
    tracer = Tracer()
    with tracer.patched(layers.TARGETS):
        assert not hasattr(fingerprint.source_fingerprint, "cache_info")
        counters = layers.counters()
    assert {"parse_hits", "fp_hits", "requests"} <= set(counters)


def test_spans_of_other_threads_do_not_nest_under_this_one():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    tracer.wrap("outer", outer)()
    spans = {span.name: span for span in tracer.spans}
    assert spans["inner"].parent is None
    assert spans["outer"].parent is None


def test_leftovers_names_a_thread_still_alive():
    release = threading.Event()
    worker = threading.Thread(target=release.wait, name="perfbench-probe")
    worker.start()
    try:
        assert "thread perfbench-probe" in run._leftovers()
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert "thread perfbench-probe" not in run._leftovers()
