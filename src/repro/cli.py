"""Command-line interface.

Subcommands::

    repro detect   FILE.rs               # run the UB detector (Miri analogue)
    repro check    FILE.rs [--json]      # static type/borrow checker
    repro check    --sweep [...]         # zero-diagnostic corpus oracle
    repro repair   FILE.rs [--engine S]  # repair with any registered engine
    repro dataset  [--category C]        # list the corpus
    repro engines                        # list registered repair engines
    repro campaign --engine SPEC ...     # sweep engine arms over the corpus
    repro bench    NAME                  # regenerate one paper artifact
    repro serve    [--host H --port P]   # repair-as-a-service HTTP front door
    repro corpus generate --n N --seed S # mint a validated synthetic corpus
    repro corpus validate MANIFEST       # re-run self-validation on a manifest

Engine specs are ``name?key=value&...`` strings, e.g.
``rustbrain?kb=off&rollback=none&temperature=0.2`` — see
:mod:`repro.engine.spec`.
"""

from __future__ import annotations

import argparse
import pathlib
import sys


class _SourceReadError(Exception):
    """A source file could not be read; message is user-facing."""


def _read_source(file_arg: str) -> str:
    """Read a program from a path or stdin (``-``); clean error on failure."""
    if file_arg == "-":
        return sys.stdin.read()
    path = pathlib.Path(file_arg)
    try:
        with path.open("r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        detail = getattr(exc, "strerror", None) or str(exc)
        raise _SourceReadError(
            f"repro: cannot read {file_arg!r}: {detail}") from exc


def _cmd_detect(args: argparse.Namespace) -> int:
    from .miri import detect_ub
    try:
        source = _read_source(args.file)
    except _SourceReadError as exc:
        print(exc, file=sys.stderr)
        return 2
    report = detect_ub(source, collect=args.collect)
    print(report.render())
    if report.stdout:
        print("\n--- program stdout ---")
        for line in report.stdout:
            print(line)
    return 0 if report.passed else 1


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import check_source
    if args.sweep:
        return _check_sweep(args)
    if args.file is None:
        print("repro: check needs a FILE (or --sweep)", file=sys.stderr)
        return 2
    try:
        source = _read_source(args.file)
    except _SourceReadError as exc:
        print(exc, file=sys.stderr)
        return 2
    report = check_source(source)
    if args.json:
        import json
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _check_sweep(args: argparse.Namespace) -> int:
    """Run the checker as a corpus oracle: every corpus source (buggy AND
    fixed) plus ``--generated N`` unvalidated mutants must produce zero
    diagnostics — the corpus' defects are dynamic UB, not compile errors."""
    from .check import check_source
    from .corpus.manifest import ManifestError
    try:
        dataset = _load_corpus(args.corpus)
    except ManifestError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    sources: list[tuple[str, str]] = []
    for case in dataset:
        sources.append((f"{case.name}/buggy", case.source))
        sources.append((f"{case.name}/fixed", case.fixed_source))
    if args.generated:
        from .corpus.generator import generate_sources
        for idx, text in enumerate(generate_sources(args.generated,
                                                    seed=args.seed)):
            sources.append((f"generated/{idx}", text))
    failures = 0
    for name, text in sources:
        report = check_source(text)
        if not report.ok:
            failures += 1
            codes = ",".join(report.codes())
            print(f"DIAGNOSTICS {name}: {codes}")
    print(f"{len(sources) - failures}/{len(sources)} sources check clean")
    return 1 if failures else 0


#: Defaults for the flags an engine spec's reserved params take precedence
#: over — the single source for both argparse and the override warnings.
_ARG_DEFAULTS = {"model": "gpt-4", "seed": 0, "temperature": 0.5}


def _warn_spec_overrides(spec_text: str, args: argparse.Namespace,
                         no_kb: bool = False) -> None:
    """Warn when an explicit CLI flag is silently pinned by the spec."""
    from .engine.spec import EngineSpec, SpecError
    try:
        spec = EngineSpec.parse(spec_text)
        pinned = spec.factory_kwargs()  # typed, so 2e-1 == 0.2
    except SpecError:
        return  # the caller reports the parse error itself
    for key, default in _ARG_DEFAULTS.items():
        value = getattr(args, key, default)
        if key in pinned and value != default and value != pinned[key]:
            print(f"repro: warning: --{key} {value} is overridden by the "
                  f"engine spec ({key}={pinned[key]})", file=sys.stderr)
    raw_keys = {key for key, _value in spec.params}
    if no_kb and ("kb" in raw_keys or "use_knowledge_base" in raw_keys):
        print("repro: warning: --no-kb is overridden by the engine spec's "
              "kb setting", file=sys.stderr)


def _run_with_deadline(engine, source: str, timeout_seconds: float | None):
    """Run ``engine.repair`` bounded by a wall-clock deadline.

    The repair call is synchronous, so the deadline runs it on a daemon
    thread and abandons it on expiry (returning ``None``) — the same
    bounded-client-wait semantics as the server's per-request deadline,
    and no join with the shared executor service at exit.
    """
    if timeout_seconds is None:
        return engine.repair(source)
    import threading
    box: dict = {}

    def work() -> None:
        try:
            box["outcome"] = engine.repair(source)
        except BaseException as exc:  # re-raised on the main thread
            box["error"] = exc

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    thread.join(timeout_seconds)
    if thread.is_alive():
        return None
    if "error" in box:
        raise box["error"]
    return box["outcome"]


def _cmd_repair(args: argparse.Namespace) -> int:
    from .engine import UnknownEngineError, create_engine
    from .engine.spec import SpecError
    from .service.jobs import RequestError, validate_timeout_seconds
    try:
        timeout_seconds = validate_timeout_seconds(args.timeout_seconds)
    except RequestError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    try:
        source = _read_source(args.file)
    except _SourceReadError as exc:
        print(exc, file=sys.stderr)
        return 2
    _warn_spec_overrides(args.engine, args, no_kb=args.no_kb)
    try:
        overrides = {}
        if args.no_kb:
            from .engine import REGISTRY
            from .engine.spec import EngineSpec
            info = REGISTRY.get(EngineSpec.parse(args.engine).name)
            if "rustbrain" not in info.tags:
                print(f"repro: --no-kb only applies to rustbrain engines, "
                      f"not {info.name!r}", file=sys.stderr)
                return 2
            overrides["use_knowledge_base"] = False
        engine = create_engine(args.engine, model=args.model,
                               temperature=args.temperature, seed=args.seed,
                               **overrides)
    except (SpecError, UnknownEngineError, ValueError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    outcome = _run_with_deadline(engine, source, timeout_seconds)
    if outcome is None:
        print(f"== repair FAILED: timed out after {timeout_seconds:g}s ==")
        return 1
    if outcome.passed and outcome.repaired_source:
        print("== repair PASSED Miri ==")
        print(f"-- {outcome.solutions_tried} solutions, "
              f"{outcome.steps_executed} steps, "
              f"{outcome.seconds:.1f}s simulated, "
              f"{outcome.llm_calls} model calls --")
        print(outcome.repaired_source)
        return 0
    print(f"== repair FAILED: {outcome.failure_reason} ==")
    return 1


def _load_corpus(corpus_arg: str | None):
    """The base corpus, or a generated one when ``--corpus`` names a
    manifest.  Raises :class:`~repro.corpus.ManifestError` on bad files."""
    if corpus_arg is None:
        from .corpus.dataset import load_dataset
        return load_dataset()
    from .corpus.manifest import load_manifest
    return load_manifest(corpus_arg)


def _cmd_dataset(args: argparse.Namespace) -> int:
    from .corpus.manifest import ManifestError
    from .miri.errors import UbKind
    try:
        dataset = _load_corpus(args.corpus)
    except ManifestError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if args.category:
        dataset = dataset.subset([UbKind(args.category)])
    for case in dataset:
        print(f"{case.name:36s} {case.category.value:18s} "
              f"difficulty={case.difficulty}  {case.description}")
    print(f"\n{len(dataset)} cases, {len(dataset.categories())} categories")
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    from .engine import available_engines
    infos = available_engines()
    width = max(len(info.name) for info in infos)
    for info in infos:
        tags = f"  [{', '.join(info.tags)}]" if info.tags else ""
        print(f"{info.name:{width}s}  {info.summary}{tags}")
    print(f"\n{len(infos)} engines registered")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .bench.reporting import render_table
    from .engine import (Campaign, CampaignJournal, JournalError,
                         ProgressPrinter, SpecError, UnknownEngineError)
    from .engine.journal import JOURNAL_FILENAME
    from .corpus.manifest import ManifestError
    from .miri.errors import UbKind

    try:
        dataset = _load_corpus(args.corpus)
    except ManifestError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if args.category:
        try:
            dataset = dataset.subset([UbKind(cat) for cat in args.category])
        except ValueError as exc:
            print(f"repro: {exc}", file=sys.stderr)
            return 2
        if not len(dataset):
            print("repro: no cases match the requested categories",
                  file=sys.stderr)
            return 2

    if args.json:
        # Probe writability now — discovering a bad path only after the
        # sweep would throw away the whole run ("a" mode: no truncation;
        # a file the probe itself created is removed again).
        json_path = pathlib.Path(args.json)
        existed = json_path.exists()
        try:
            with json_path.open("a", encoding="utf-8"):
                pass
        except OSError as exc:
            detail = exc.strerror or str(exc)
            print(f"repro: cannot write {args.json!r}: {detail}",
                  file=sys.stderr)
            return 2
        if not existed:
            json_path.unlink(missing_ok=True)

    for spec in args.engine:
        _warn_spec_overrides(spec, args)
    observers = [] if args.quiet else [ProgressPrinter()]
    # --cache-dir (or the REPRO_CACHE_DIR environment default) enables the
    # content-addressed result cache; --no-cache beats both.
    import os
    cache_dir = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")

    # --resume is --journal plus the requirement that a journal already
    # exists: resuming nothing is a usage error, not an empty no-op.
    journal_dir = args.resume or args.journal
    if args.resume:
        journal_path = pathlib.Path(args.resume) / JOURNAL_FILENAME
        if not journal_path.is_file():
            print(f"repro: nothing to resume: {journal_path} does not exist",
                  file=sys.stderr)
            return 2
    journal = CampaignJournal(journal_dir) if journal_dir else None

    try:
        # Construction fails fast on unknown engines / bad spec options;
        # run() errors past this point are genuine bugs, not usage errors.
        campaign = Campaign(args.engine, dataset, model=args.model,
                            seed=args.seed, temperature=args.temperature,
                            workers=args.workers,
                            shard_size=args.shard_size,
                            isolation=args.isolation,
                            executor=args.executor,
                            cache_dir=cache_dir, observers=observers,
                            journal=journal)
    except (SpecError, UnknownEngineError, ValueError, OSError) as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    try:
        result = _run_interruptible(campaign)
    except JournalError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return _campaign_interrupted(campaign, journal_dir)
    finally:
        if journal is not None:
            journal.close()

    rows = []
    for arm in result.arms:
        results = arm.results  # derived property; aggregate once per arm
        rows.append([arm.label,
                     f"{100 * results.pass_rate():.1f}",
                     f"{100 * results.exec_rate():.1f}",
                     f"{results.mean_seconds():.0f}",
                     f"{len(results.results)}"])
    print(render_table(["arm", "pass %", "exec %", "mean s", "cases"],
                       rows, title="Campaign"))
    if cache_dir is not None:
        hits, misses = result.telemetry.cache_counts()
        print(f"cache: {hits} hits, {misses} misses ({cache_dir})")
    if journal is not None:
        print(f"journal: {journal.replayed} replayed, "
              f"{journal.appended} appended ({journal_dir})")
    if args.json:
        try:
            result.save(args.json)
        except OSError as exc:
            detail = exc.strerror or str(exc)
            print(f"repro: cannot write {args.json!r}: {detail}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.json}")
    return 0


def _run_interruptible(campaign):
    """``campaign.run()`` with SIGTERM folded into KeyboardInterrupt.

    A supervisor's polite kill and the operator's Ctrl-C should take the
    same path: flush-and-summarize in :func:`_campaign_interrupted`, exit
    130.  The previous handler is restored afterwards — library code must
    not leave process-wide signal state behind.
    """
    import signal

    def _terminate(signum, frame):
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # not the main thread (embedding, tests)
        previous = None
    try:
        return campaign.run()
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def _campaign_interrupted(campaign, journal_dir) -> int:
    """Interrupt epilogue: durable state is already safe (the journal
    fsyncs per case), so flush what is diagnostic — partial telemetry —
    release the worker pools, and exit with the conventional 130."""
    import json

    from .engine import EXECUTOR_SERVICE

    journal = campaign.journal
    if journal is not None:
        journal.close()
    lines = ["repro: campaign interrupted"]
    if journal is not None:
        lines.append(f"repro: journal holds {len(journal)} completed "
                     f"results ({journal.appended} from this run); resume "
                     f"with: repro campaign --resume {journal_dir} ...")
        partial = pathlib.Path(journal_dir) / "telemetry.partial.json"
        try:
            partial.write_text(
                json.dumps(campaign.telemetry.to_dict(), indent=2,
                           sort_keys=True) + "\n", encoding="utf-8")
            lines.append(f"repro: partial telemetry written to {partial}")
        except OSError as exc:
            detail = exc.strerror or str(exc)
            lines.append(f"repro: could not write {partial}: {detail}")
    for line in lines:
        print(line, file=sys.stderr, flush=True)
    EXECUTOR_SERVICE.shutdown()
    return 130


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from .engine import ResultCache
    from .service.jobs import RequestError, validate_timeout_seconds
    from .service.server import RepairServer
    try:
        timeout_seconds = validate_timeout_seconds(args.timeout_seconds)
    except RequestError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")
        if cache_dir:
            try:
                cache = ResultCache(cache_dir)
            except OSError as exc:
                detail = exc.strerror or str(exc)
                print(f"repro: cannot use cache dir {cache_dir!r}: {detail}",
                      file=sys.stderr)
                return 2
    try:
        server = RepairServer(host=args.host, port=args.port,
                              workers=args.workers,
                              max_queue=args.max_queue,
                              rate=args.rate_limit, burst=args.burst,
                              cache=cache,
                              default_timeout_seconds=timeout_seconds)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2

    async def main() -> None:
        await server.start()
        print(f"repro serve: listening on http://{server.host}:{server.port}"
              f" ({server.workers} workers, queue {server.max_queue})",
              file=sys.stderr, flush=True)
        try:
            await server.serve()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("repro serve: shut down", file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import figures
    from .bench.reporting import category_label, render_table
    name = args.name
    if name == "table1":
        rows = figures.table1_data()
        avg = figures.table1_average(rows)
        rendered = [[category_label(r.category),
                     f"{r.no_knowledge_seconds:.0f}",
                     f"{r.knowledge_seconds:.0f}",
                     f"{r.human_seconds:.0f}", f"{r.speedup:.1f}x"]
                    for r in rows]
        rendered.append(["Average", f"{avg.no_knowledge_seconds:.1f}",
                         f"{avg.knowledge_seconds:.1f}",
                         f"{avg.human_seconds:.0f}", f"{avg.speedup:.1f}x"])
        print(render_table(["type", "no-KB s", "KB s", "human s", "speedup"],
                           rendered, title="Table I"))
        return 0
    if name in ("fig8", "fig9"):
        data = figures.fig8_fig9_data()
        metric = "pass" if name == "fig8" else "exec"
        headers = ["arm", f"{metric} %"]
        rows = [[label,
                 f"{100 * (arm.pass_rate if name == 'fig8' else arm.exec_rate):.1f}"]
                for label, arm in data.items()]
        print(render_table(headers, rows, title=f"Fig. {name[-1]} averages"))
        return 0
    if name == "fig11":
        for point in figures.fig11_data():
            print(f"T={point.temperature:.1f}  pass={point.pass_ci}  "
                  f"exec={point.exec_ci}")
        return 0
    if name == "ensemble":
        data = figures.ensemble_data()
        best = figures.ensemble_best_standalone(data)
        rows = [[label, f"{100 * summary.pass_rate:.1f}",
                 f"{100 * summary.exec_rate:.1f}",
                 f"{summary.mean_seconds:.0f}"]
                for label, summary in sorted(data.items())]
        print(render_table(["arm", "pass %", "exec %", "mean s"], rows,
                           title="Model portfolio"))
        print(f"best single model: {best.label} "
              f"({100 * best.pass_rate:.1f}% pass, "
              f"{best.mean_seconds:.0f}s mean)")
        return 0
    print(f"unknown bench {name!r}; try: table1 fig8 fig9 fig11 ensemble",
          file=sys.stderr)
    return 2


def _parse_categories(names: list[str] | None):
    """``--categories`` values → ``UbKind`` list (None passes through)."""
    from .miri.errors import UbKind
    if not names:
        return None
    return [UbKind(name) for name in names]


def _cmd_corpus_generate(args: argparse.Namespace) -> int:
    from .corpus import (GenerationError, generate_compile_corpus,
                         generate_corpus, save_manifest)
    try:
        categories = _parse_categories(args.categories)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if args.compile and categories is not None:
        print("repro: --compile and --categories are mutually exclusive",
              file=sys.stderr)
        return 2
    try:
        if args.compile:
            cases, report = generate_compile_corpus(args.n, args.seed)
        else:
            cases, report = generate_corpus(args.n, args.seed,
                                            categories=categories)
    except GenerationError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    out_dir = pathlib.Path(args.out)
    try:
        path = save_manifest(cases, out_dir / "corpus.json", report)
    except OSError as exc:
        detail = exc.strerror or str(exc)
        print(f"repro: cannot write {out_dir / 'corpus.json'}: {detail}",
              file=sys.stderr)
        return 2
    summary = report.to_dict()
    for name, stats in summary["categories"].items():
        rate = stats["validation_rate"]
        print(f"{name:18s} emitted={stats['emitted']:4d} "
              f"attempts={stats['attempts']:4d} "
              f"rate={rate if rate is not None else '-'}")
    print(f"\n{report.emitted} cases from {report.attempts} attempts "
          f"(seed {report.seed})")
    print(f"wrote {path}")
    return 0


def _cmd_corpus_validate(args: argparse.Namespace) -> int:
    from .corpus import CaseInvalid, ManifestError, load_manifest, \
        validate_case
    try:
        dataset = load_manifest(args.manifest)
    except ManifestError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    failures = 0
    for case in dataset:
        try:
            validate_case(case)
        except CaseInvalid as invalid:
            failures += 1
            print(f"INVALID {case.name}: [{invalid.reason}] {invalid.detail}")
    print(f"{len(dataset) - failures}/{len(dataset)} cases valid")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RustBrain reproduction: UB detection and LLM repair")
    sub = parser.add_subparsers(dest="command", required=True)

    p_detect = sub.add_parser("detect", help="run the UB detector")
    p_detect.add_argument("file")
    p_detect.add_argument("--collect", action="store_true",
                          help="keep going after the first UB")
    p_detect.set_defaults(fn=_cmd_detect)

    p_check = sub.add_parser(
        "check", help="run the static type/borrow checker")
    p_check.add_argument("file", nargs="?", default=None)
    p_check.add_argument("--json", action="store_true",
                         help="emit the repro.diagnostics/1 report")
    p_check.add_argument("--sweep", action="store_true",
                         help="check every corpus source (buggy and fixed) "
                              "instead of one file; exit 1 on any "
                              "diagnostic")
    p_check.add_argument("--corpus", default=None, metavar="MANIFEST",
                         help="sweep a generated repro.corpus/1 manifest "
                              "instead of the built-in corpus")
    p_check.add_argument("--generated", type=int, default=0, metavar="N",
                         help="also sweep N generator mutants")
    p_check.add_argument("--seed", type=int, default=0,
                         help="seed for --generated mutants")
    p_check.set_defaults(fn=_cmd_check)

    p_repair = sub.add_parser("repair",
                              help="repair UBs with a registered engine")
    p_repair.add_argument("file")
    p_repair.add_argument("--engine", default="rustbrain",
                          help="engine spec, e.g. rustbrain?kb=off "
                               "(default: rustbrain)")
    p_repair.add_argument("--model", default=_ARG_DEFAULTS["model"])
    p_repair.add_argument("--temperature", type=float,
                          default=_ARG_DEFAULTS["temperature"])
    p_repair.add_argument("--seed", type=int, default=_ARG_DEFAULTS["seed"])
    p_repair.add_argument("--no-kb", action="store_true",
                          help="shorthand for kb=off")
    p_repair.add_argument("--timeout-seconds", default=None, metavar="S",
                          help="abandon the repair after S wall-clock "
                               "seconds (exit 1); shares the server's "
                               "per-request deadline validation")
    p_repair.set_defaults(fn=_cmd_repair)

    p_dataset = sub.add_parser("dataset", help="list the UB corpus")
    p_dataset.add_argument("--category", default=None)
    p_dataset.add_argument("--corpus", default=None, metavar="MANIFEST",
                           help="list a generated repro.corpus/1 manifest "
                                "instead of the built-in corpus")
    p_dataset.set_defaults(fn=_cmd_dataset)

    p_engines = sub.add_parser("engines",
                               help="list registered repair engines")
    p_engines.set_defaults(fn=_cmd_engines)

    p_campaign = sub.add_parser(
        "campaign", help="sweep engine arms over the corpus in parallel")
    p_campaign.add_argument("--engine", action="append", required=True,
                            help="engine spec (repeatable)")
    p_campaign.add_argument("--model", default=_ARG_DEFAULTS["model"])
    p_campaign.add_argument("--seed", type=int,
                            default=_ARG_DEFAULTS["seed"])
    p_campaign.add_argument("--temperature", type=float,
                            default=_ARG_DEFAULTS["temperature"])
    p_campaign.add_argument("--workers", type=int, default=1)
    p_campaign.add_argument("--shard-size", type=int, default=8)
    p_campaign.add_argument("--isolation", default="per_case",
                            choices=("per_case", "shared"),
                            help="per_case: fresh engine + derived seed per "
                                 "case (parallel-safe); shared: one stateful "
                                 "engine per arm, serial within the arm")
    p_campaign.add_argument("--executor", default="thread",
                            choices=("serial", "thread", "process"),
                            help="worker pool backend; 'process' gives real "
                                 "multi-core parallelism for the CPU-bound "
                                 "repair pipeline (results are byte-"
                                 "identical across backends)")
    p_campaign.add_argument("--cache-dir", default=None, metavar="DIR",
                            help="consult/populate a content-addressed "
                                 "result cache (default: $REPRO_CACHE_DIR "
                                 "when set)")
    p_campaign.add_argument("--no-cache", action="store_true",
                            help="disable the result cache even when "
                                 "REPRO_CACHE_DIR is set")
    p_campaign.add_argument("--category", action="append",
                            help="restrict to a UB category (repeatable)")
    p_campaign.add_argument("--corpus", default=None, metavar="MANIFEST",
                            help="sweep a generated repro.corpus/1 manifest "
                                 "instead of the built-in corpus")
    p_campaign.add_argument("--json", default=None, metavar="PATH",
                            help="write the full campaign.json trajectory")
    p_campaign.add_argument("--journal", default=None, metavar="DIR",
                            help="append every completed result to "
                                 "DIR/campaign.journal (fsync'd), making "
                                 "the campaign crash-resumable")
    p_campaign.add_argument("--resume", default=None, metavar="DIR",
                            help="resume from DIR/campaign.journal: replay "
                                 "journaled results, execute only what is "
                                 "missing (implies --journal DIR)")
    p_campaign.add_argument("--quiet", action="store_true",
                            help="suppress progress lines")
    p_campaign.set_defaults(fn=_cmd_campaign)

    p_bench = sub.add_parser("bench", help="regenerate a paper artifact")
    p_bench.add_argument("name")
    p_bench.set_defaults(fn=_cmd_bench)

    p_serve = sub.add_parser(
        "serve", help="serve single-case repairs over HTTP/JSON")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8357,
                         help="0 picks an ephemeral port")
    p_serve.add_argument("--workers", type=int, default=None,
                         help="concurrent repairs (default: min(4, core "
                              "budget); clamped to the budget either way)")
    p_serve.add_argument("--max-queue", type=int, default=32,
                         help="bounded admission queue depth (503 past it)")
    p_serve.add_argument("--rate-limit", type=float, default=10.0,
                         metavar="RPS",
                         help="per-client token-bucket refill rate "
                              "(requests/second; 0 disables)")
    p_serve.add_argument("--burst", type=float, default=20.0,
                         help="per-client token-bucket capacity")
    p_serve.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="read-through result cache (default: "
                              "$REPRO_CACHE_DIR when set)")
    p_serve.add_argument("--no-cache", action="store_true",
                         help="disable the result cache even when "
                              "REPRO_CACHE_DIR is set")
    p_serve.add_argument("--timeout-seconds", default=None, metavar="S",
                         help="default per-request deadline (clients may "
                              "override per request)")
    p_serve.set_defaults(fn=_cmd_serve)

    p_corpus = sub.add_parser(
        "corpus", help="generate and validate synthetic corpora")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)

    p_generate = corpus_sub.add_parser(
        "generate", help="mint a seeded, self-validated synthetic corpus")
    p_generate.add_argument("--n", type=int, required=True,
                            help="number of cases to generate")
    p_generate.add_argument("--seed", type=int, required=True,
                            help="generation seed (same seed → byte-"
                                 "identical manifest)")
    p_generate.add_argument("--categories", nargs="+", default=None,
                            metavar="KIND",
                            help="restrict to these UB categories "
                                 "(default: every generatable kind)")
    p_generate.add_argument("--out", default="corpus.out", metavar="DIR",
                            help="output directory; the manifest lands at "
                                 "DIR/corpus.json (default: corpus.out)")
    p_generate.add_argument("--compile", action="store_true",
                            help="mint compile-error cases (static-checker "
                                 "labels) instead of dynamic-UB cases")
    p_generate.set_defaults(fn=_cmd_corpus_generate)

    p_validate = corpus_sub.add_parser(
        "validate", help="re-run self-validation over a saved manifest")
    p_validate.add_argument("manifest",
                            help="path to a repro.corpus/1 manifest")
    p_validate.set_defaults(fn=_cmd_corpus_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
