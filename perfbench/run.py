#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign_cold --seed 0 \\
        --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, and the process keeps to one CPU.  Workloads:
``campaign_cold``, ``verdict_sweep``, ``service_mixed`` (see
``workloads.py``; ``BENCHMARK.json`` at the repository root lists them
with the metrics and their bounds).

``--trace 0`` measures the end-to-end metrics: set-up is timed
``SETUP_REPEATS`` times from empty memos and reported as the import time
plus the median; then timed passes repeat until ``--seconds`` are used
and each of the workload's pass keys has had one (campaign_cold runs a
campaign per derived seed; the service's one pass is a load window that
long).  ``--trace 1`` sets up once, runs a warm-up pass, then times one
untraced and one traced pass, all at the first key (a third of the
seconds each for the service), reports the
per-layer metrics of ``layers.LAYER_MAP`` and writes the spans to
``.perfbench_run/``.

Output: ``#``-prefixed lines with the workload's configuration and a
metric table, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 0 when every
output check passed and nothing the run started is still alive, 1 when
not, 2 when the program cannot be imported (no result is printed).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

#: End-to-end metric -> unit.  ``ops_per_s`` counts case-arm repairs,
#: sources (check + detect) or completed requests, per workload, over
#: one pass per pass key.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "pass_rate": "ratio",
    "exec_rate": "ratio",
    "success_rate": "ratio",
    "peak_rss_mb": "MB",
}

#: The workload-specific name of ``ops_per_s``, for the metric table.
OPS_NAME = {"campaign_cold": "repairs_per_s",
            "verdict_sweep": "verdicts_per_s",
            "service_mixed": "service_rps"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(OPS_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_to_one_cpu() -> int | None:
    """Keep the benchmark, and every thread it starts, on one CPU.

    The program computes under the interpreter lock, so it uses one CPU
    at a time anyway; unpinned, the hand-offs between the service's event
    loop and its worker threads crossed CPUs and made its throughput
    swing by 40% between runs of one seed on a two-CPU machine.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _import_program() -> str | None:
    """Import the program from this checkout's ``src/`` only; the reason
    when that is impossible."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        return f"cannot import repro from {ROOT / 'src'}: {exc}"
    location = pathlib.Path(repro.__file__).resolve()
    if not location.is_relative_to(ROOT / "src"):
        return f"repro imported from {location}, not from {ROOT / 'src'}"
    return None


def _untraced(workload, seconds: float, setup_s: float) -> dict:
    from perfbench import measure
    keys = workload.pass_keys
    # Pass key -> (operations in one pass, wall time of each pass).
    passes: dict = {}
    started = time.perf_counter()
    for count in itertools.count(1):
        key = keys[(count - 1) % len(keys)]
        if workload.cold_passes:
            measure.reset_memos()
        remaining = max(seconds - (time.perf_counter() - started), 0.0)
        start = time.perf_counter()
        done = workload.iterate(remaining, key)
        elapsed = time.perf_counter() - start
        if done:
            passes.setdefault(key, (done, []))[1].append(elapsed)
        if time.perf_counter() - started >= seconds and count >= len(keys):
            break
    # One pass per key, each at its median time, so a key that happened
    # to run twice does not outweigh the others.
    busy = sum(statistics.median(times) for _done, times in passes.values())
    pass_rate, exec_rate = workload.quality()
    # An operation repeated across passes counts once, at its median, so
    # a collector pause in one pass does not make the tail.
    latencies = [statistics.median(times)
                 for times in workload.latencies.values()]
    return {
        "setup_s": setup_s,
        "ops_per_s": sum(done for done, _times in passes.values()) / busy
        if busy else 0.0,
        "latency_p50_ms": 1000 * measure.percentile(latencies, 50)
        if latencies else 0.0,
        "latency_p99_ms": 1000 * measure.percentile(latencies, 99)
        if latencies else 0.0,
        "pass_rate": pass_rate,
        "exec_rate": exec_rate,
        # success_rate is filled in after the output checks.
        "peak_rss_mb": measure.peak_rss_mb(),
    }


def _traced(workload, seconds: float, tracer) -> dict:
    """One warm-up pass, one untraced and one traced pass (the service
    splits ``seconds`` between them); the per-layer metrics come from the
    traced pass, and the untraced one is its overhead reference."""
    from perfbench import layers, measure, workloads
    window = seconds / 3
    per_op = []
    for traced in (None, False, True):
        if workload.cold_passes:
            measure.reset_memos()
        before = layers.counters()
        with tracer.patched(layers.TARGETS if traced else ()):
            start = time.perf_counter()
            done = workload.iterate(window, workload.pass_keys[0],
                                    tracer if traced else None)
            per_op.append((time.perf_counter() - start) / max(done, 1))
        after = layers.counters()
    return layers.metrics(tracer, before, after, workloads.arm_labels(),
                          overhead_ratio=per_op[2] / per_op[1])


def _leftovers() -> list[str]:
    """Child processes and non-main threads still alive."""
    import multiprocessing
    import threading
    alive = [f"process {child.pid}"
             for child in multiprocessing.active_children()]
    alive += [f"thread {thread.name}" for thread in threading.enumerate()
              if thread is not threading.main_thread() and thread.is_alive()]
    return alive


def main(argv=None) -> int:
    args = _parse_args(argv)
    cpu = _pin_to_one_cpu()
    started = time.perf_counter()
    problem = _import_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    from perfbench import layers, measure, workloads
    from perfbench.tracer import Tracer
    import_s = time.perf_counter() - started

    run_dir = ROOT / ".perfbench_run"
    run_dir.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, run_dir)
    try:
        setup_times = []
        for repeat in range(1 if args.trace else SETUP_REPEATS):
            if repeat:
                workload.release()
            measure.reset_memos(setup=True)
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)
        if args.trace:
            tracer = Tracer()
            metrics = _traced(workload, args.seconds, tracer)
            tracer.write(run_dir / f"trace-{args.workload}-seed{args.seed}"
                                   ".jsonl")
            units = {name: unit for name, (unit, _better, _moves)
                     in layers.LAYER_MAP.items()}
        else:
            metrics = _untraced(workload, args.seconds, setup_s)
            units = END_TO_END
        workload.check()
        config = workload.config()
    finally:
        workload.close()

    alive = _leftovers()
    error_rate = workload.failed / max(workload.attempted, 1)
    if not args.trace:
        metrics["success_rate"] = 1.0 - error_rate
    correct = workload.failed == 0 and not alive and workload.attempted > 0
    for reason in workload.errors + [f"still alive at exit: {name}"
                                     for name in alive]:
        print(f"perfbench: {reason}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {workload.why}")
    print(f"# config {json.dumps(config, sort_keys=True)} cpu={cpu}")
    print(f"# setup_s repeats {[round(t, 4) for t in setup_times]} "
          f"+ import {import_s:.4f}")
    if not args.trace:
        print(f"# latency operations {len(workload.latencies)}; ops_per_s is "
              f"{OPS_NAME[args.workload]} here")
        print(f"# {'error_rate':<34} {error_rate:>14.6g} share")
    else:
        for name, (_unit, _better, moves) in layers.LAYER_MAP.items():
            print(f"# map {name}: {moves}")
    for name, unit in units.items():
        print(f"# {name:<34} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
