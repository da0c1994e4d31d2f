#!/usr/bin/env python3
"""Docs checker: keep README/DESIGN/docs code blocks and links from rotting.

Five mechanical checks over every tracked markdown file:

1. **Python blocks compile.**  Every ```` ```python ```` fence must be
   valid syntax (doctest-style blocks are converted via
   :func:`doctest.script_from_examples` first).  Nothing is executed —
   snippets may reference placeholder variables — but typos, stale
   f-string syntax, and half-renamed imports fail here.
2. **CLI flags exist.**  Every ``--flag`` on a ``repro.cli <subcommand>``
   line inside a ```` ```bash ```` fence must be an option argparse
   actually registers for that subcommand (continuation lines are
   joined first).  This is the drift the engines/campaign examples
   accumulated between PRs: documented flags are now validated against
   ``build_parser()`` itself, the single source of truth.
3. **Relative links resolve.**  Every ``[text](path)`` markdown link that
   is not an URL or pure anchor must point at an existing file.
4. **The schema/telemetry reference matches the code.**  The field
   tables in ``docs/reference.md`` are compared against the live
   dataclasses (`engine/telemetry.py` events, `engine/types.py`'s
   ``RepairReport``, `engine/results.py`'s ``CaseResult``): a field the
   doc lists but the class lacks — or the reverse — is an error.  With
   ``--strict``, the reference must also be *complete*: every telemetry
   event class and both result dataclasses need a documented table, and
   every versioned schema id the artifacts use must appear.
5. **Schema ids are current.**  A ``repro.<name>/<N>`` id whose
   ``<name>`` the code writes under a different version is stale (a
   README still citing ``/1`` after a bump).  Changelog tables use bare
   version numbers, so history stays expressible.

Run:  python tools/check_docs.py            # checks the default doc set
      python tools/check_docs.py FILE...    # checks specific files
      python tools/check_docs.py --strict … # + reference completeness
"""

from __future__ import annotations

import dataclasses
import doctest
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: The documentation set checked by default (plus everything in docs/).
DEFAULT_DOCS = ("README.md", "DESIGN.md", "ROADMAP.md", "PAPER.md")

_FENCE_RE = re.compile(r"^```(\w*)\s*$")
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
_SCHEMA_ID_RE = re.compile(r"\brepro\.([a-z][\w-]*)/(\d+)")


def iter_code_blocks(text: str):
    """Yield ``(language, content, first_line_number)`` per fenced block."""
    language = None
    content: list[str] = []
    start = 0
    for number, line in enumerate(text.splitlines(), start=1):
        match = _FENCE_RE.match(line.strip())
        if match and language is None:
            language = match.group(1) or "text"
            content = []
            start = number + 1
        elif line.strip() == "```" and language is not None:
            yield language, "\n".join(content), start
            language = None
        elif language is not None:
            content.append(line)


def check_python_block(content: str) -> str | None:
    """Syntax-check one python block; returns an error message or None."""
    if ">>>" in content:
        try:
            content = doctest.script_from_examples(content)
        except ValueError as exc:
            return f"malformed doctest: {exc}"
    try:
        compile(content, "<doc snippet>", "exec")
    except SyntaxError as exc:
        return f"does not compile: {exc.msg} (snippet line {exc.lineno})"
    return None


def _subparsers_action(parser):
    import argparse
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action
    return None


def _cli_options() -> dict[str, set[str]]:
    """Subcommand name -> the option strings argparse registers for it.

    Command groups with nested subparsers (``repro corpus generate``)
    contribute space-joined keys, so documented flags validate against
    the leaf parser that actually defines them.
    """
    from repro.cli import build_parser

    options: dict[str, set[str]] = {}

    def collect(prefix: str, parser) -> None:
        options[prefix] = {option for action in parser._actions
                           for option in action.option_strings}
        nested = _subparsers_action(parser)
        if nested is not None:
            for name, sub in nested.choices.items():
                collect(f"{prefix} {name}", sub)

    top = _subparsers_action(build_parser())
    for name, sub in top.choices.items():
        collect(name, sub)
    return options


def _joined_commands(content: str):
    """Bash lines with backslash continuations merged."""
    pending = ""
    for line in content.splitlines():
        line = line.strip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        yield pending + line
        pending = ""
    if pending:
        yield pending


def check_bash_block(content: str, cli_options: dict[str, set[str]]):
    """Validate every documented repro.cli flag against argparse."""
    errors = []
    for command in _joined_commands(content):
        if "repro.cli" not in command:
            continue
        tail = command.split("repro.cli", 1)[1].split()
        if not tail:
            continue
        # Longest-prefix match so command groups resolve to their leaf
        # parser ("corpus generate" beats "corpus").
        subcommand = tail[0]
        consumed = 1
        if len(tail) > 1 and f"{tail[0]} {tail[1]}" in cli_options:
            subcommand = f"{tail[0]} {tail[1]}"
            consumed = 2
        valid = cli_options.get(subcommand)
        if valid is None:
            errors.append(f"unknown repro.cli subcommand {subcommand!r}")
            continue
        for flag in _FLAG_RE.findall(" ".join(tail[consumed:])):
            if flag not in valid:
                errors.append(
                    f"flag {flag} is not an option of "
                    f"'repro.cli {subcommand}'")
    return errors


_REFERENCE_DOC = "reference.md"

#: Markdown heading announcing a validated field table: any ``###``
#: heading whose *last* backticked word names one of the classes below.
_SECTION_RE = re.compile(r"^###\s.*`(\w+)`\s*$")
_TABLE_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def _documented_dataclasses() -> dict[str, type]:
    """Class name -> dataclass for every type the reference documents."""
    from repro.check import Diagnostic
    from repro.engine import results, telemetry, types

    classes = {cls.__name__: cls for cls in (
        telemetry.EngineStarted, telemetry.EngineFinished,
        telemetry.CaseStarted, telemetry.CaseFinished,
        telemetry.RoundFinished, telemetry.MemberFinished,
        telemetry.CacheQueried, telemetry.RetryAttempted)}
    classes["RepairReport"] = types.RepairReport
    classes["CaseResult"] = results.CaseResult
    classes["Diagnostic"] = Diagnostic
    return classes


def _current_schema_ids() -> list[str]:
    from repro.check import DIAGNOSTICS_SCHEMA
    from repro.corpus.manifest import MANIFEST_SCHEMA
    from repro.engine.cache import CACHE_SCHEMA
    from repro.miri import FINGERPRINT_VERSION

    ids = [CACHE_SCHEMA, DIAGNOSTICS_SCHEMA, FINGERPRINT_VERSION,
           MANIFEST_SCHEMA]
    # The campaign schema lives in campaign.py's to_dict; the bench
    # schemas in the benchmark scripts.  Read them from the source so the
    # checker cannot drift from a rename.
    campaign = (ROOT / "src/repro/engine/campaign.py").read_text(
        encoding="utf-8")
    ids += re.findall(r'"(repro\.campaign/\d+)"', campaign)
    journal = (ROOT / "src/repro/engine/journal.py").read_text(
        encoding="utf-8")
    ids += re.findall(r'"(repro\.journal/\d+)"', journal)
    for script in ("benchmarks/perf_smoke.py", "benchmarks/ensemble_smoke.py",
                   "benchmarks/service_smoke.py",
                   "benchmarks/chaos_smoke.py",
                   "benchmarks/corpus_smoke.py",
                   "benchmarks/compile_smoke.py"):
        text = (ROOT / script).read_text(encoding="utf-8")
        ids += re.findall(r'"(repro\.bench_\w+/\d+)"', text)
    return sorted(set(ids))


def check_schema_ids(text: str) -> list[str]:
    """Every ``repro.<name>/<N>`` whose ``<name>`` has a current id must
    cite that id; names the code does not version are left alone."""
    versions: dict[str, set[str]] = {}
    for schema_id in _current_schema_ids():
        name, version = schema_id.split("/")
        versions.setdefault(name, set()).add(version)
    errors = []
    for match in _SCHEMA_ID_RE.finditer(text):
        known = versions.get(f"repro.{match.group(1)}")
        if known and match.group(2) not in known:
            errors.append(f"stale schema id {match.group(0)!r} (current: "
                          f"{', '.join(sorted(f'/{v}' for v in known))})")
    return errors


def _reference_sections(text: str) -> dict[str, list[str]]:
    """Documented class name -> field names from its markdown table."""
    known = _documented_dataclasses()
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            match = _SECTION_RE.match(stripped)
            name = match.group(1) if match else None
            current = name if name in known else None
            continue
        if current is None:
            continue
        row = _TABLE_ROW_RE.match(stripped)
        if row and row.group(1) != "field":
            sections.setdefault(current, []).append(row.group(1))
    return sections


def check_reference(text: str, strict: bool = False) -> list[str]:
    """Validate the schema/telemetry reference against the live classes."""
    classes = _documented_dataclasses()
    sections = _reference_sections(text)
    errors: list[str] = []
    for name, documented in sections.items():
        actual = [f.name for f in dataclasses.fields(classes[name])]
        missing = sorted(set(actual) - set(documented))
        stale = sorted(set(documented) - set(actual))
        if missing:
            errors.append(f"{name}: undocumented field(s) "
                          f"{', '.join(missing)}")
        if stale:
            errors.append(f"{name}: documents nonexistent field(s) "
                          f"{', '.join(stale)}")
        duplicates = sorted({f for f in documented
                             if documented.count(f) > 1})
        if duplicates:
            errors.append(f"{name}: field(s) listed twice: "
                          f"{', '.join(duplicates)}")
    if strict:
        for name in sorted(set(classes) - set(sections)):
            errors.append(f"{name}: no documented field table")
        for schema_id in _current_schema_ids():
            if schema_id not in text:
                errors.append(f"schema id {schema_id!r} is not documented")
    return errors


def check_links(path: pathlib.Path, text: str):
    """Every relative markdown link must resolve from the file's parent."""
    errors = []
    for target in _LINK_RE.findall(text):
        if "://" in target or target.startswith(("#", "mailto:")):
            continue
        resolved = (path.parent / target.split("#", 1)[0]).resolve()
        if not resolved.exists():
            errors.append(f"broken link: {target}")
    return errors


def check_file(path: pathlib.Path,
               cli_options: dict[str, set[str]] | None = None,
               strict: bool = False) -> list[str]:
    """All errors for one markdown file, each prefixed with its location."""
    cli_options = cli_options if cli_options is not None else _cli_options()
    text = path.read_text(encoding="utf-8")
    errors = [f"{path}: {error}" for error in check_links(path, text)]
    errors.extend(f"{path}: {error}" for error in check_schema_ids(text))
    for language, content, line in iter_code_blocks(text):
        if language == "python":
            error = check_python_block(content)
            if error:
                errors.append(f"{path}:{line}: {error}")
        elif language in ("bash", "sh", "shell", "console"):
            errors.extend(f"{path}:{line}: {error}"
                          for error in check_bash_block(content, cli_options))
    if path.name == _REFERENCE_DOC:
        errors.extend(f"{path}: {error}"
                      for error in check_reference(text, strict=strict))
    return errors


def default_doc_paths() -> list[pathlib.Path]:
    paths = [ROOT / name for name in DEFAULT_DOCS if (ROOT / name).exists()]
    paths.extend(sorted((ROOT / "docs").glob("**/*.md")))
    return paths


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    strict = "--strict" in argv
    argv = [arg for arg in argv if arg != "--strict"]
    paths = ([pathlib.Path(arg) for arg in argv] if argv
             else default_doc_paths())
    if strict and not any(path.name == _REFERENCE_DOC for path in paths):
        print(f"--strict requires {_REFERENCE_DOC} in the checked set",
              file=sys.stderr)
        return 1
    cli_options = _cli_options()
    errors = []
    for path in paths:
        errors.extend(check_file(path, cli_options, strict=strict))
    for error in errors:
        print(error, file=sys.stderr)
    print(f"checked {len(paths)} docs"
          f"{' (strict)' if strict else ''}: "
          f"{'OK' if not errors else f'{len(errors)} problem(s)'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
