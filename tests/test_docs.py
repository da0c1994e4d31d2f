"""The docs can't rot: snippets compile, CLI flags exist, links resolve.

Runs the ``tools/check_docs.py`` checker inside tier-1 so a PR that
renames a flag or breaks a documented example fails before CI's separate
docs step does.
"""

import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import check_docs  # noqa: E402


@pytest.fixture(scope="module")
def cli_options():
    return check_docs._cli_options()


def _doc_paths():
    return check_docs.default_doc_paths()


def test_doc_set_is_nonempty():
    paths = {path.name for path in _doc_paths()}
    assert {"README.md", "DESIGN.md", "quickstart.md",
            "reference.md"} <= paths


@pytest.mark.parametrize("path", _doc_paths(), ids=lambda p: p.name)
def test_doc_file_is_clean(path, cli_options):
    assert check_docs.check_file(path, cli_options) == []


def test_reference_is_strict_clean():
    # Tier-1 runs the same completeness bar CI's docs step enforces:
    # every event/result dataclass documented, every schema id present.
    path = ROOT / "docs" / "reference.md"
    assert check_docs.check_reference(path.read_text(encoding="utf-8"),
                                      strict=True) == []


class TestReferenceCheckerCatchesDrift:
    """The reference validator must fail on the drift it exists to catch."""

    @pytest.fixture(scope="class")
    def reference_text(self):
        return (ROOT / "docs" / "reference.md").read_text(encoding="utf-8")

    def test_renamed_field_is_stale_and_missing(self, reference_text):
        broken = reference_text.replace("| `wave` | int |",
                                        "| `tide` | int |")
        errors = check_docs.check_reference(broken)
        assert any("nonexistent" in error for error in errors)
        assert any("undocumented" in error for error in errors)

    def test_strict_requires_every_section(self, reference_text):
        broken = reference_text.replace("`CaseResult`", "`CaseThing`")
        assert check_docs.check_reference(broken) == []
        errors = check_docs.check_reference(broken, strict=True)
        assert any("CaseResult: no documented" in error for error in errors)

    def test_strict_requires_every_schema_id(self, reference_text):
        current = next(schema_id
                       for schema_id in check_docs._current_schema_ids()
                       if schema_id.startswith("repro.bench_ensemble/"))
        broken = reference_text.replace(current, "repro.bench_ensemble/9")
        errors = check_docs.check_reference(broken, strict=True)
        assert any(current in error for error in errors)

    def test_main_strict_needs_the_reference(self, capsys):
        assert check_docs.main(["--strict", str(ROOT / "README.md")]) == 1


class TestCheckerCatchesRot:
    """The checker itself must fail on the drift it exists to catch."""

    def test_bad_python_block(self):
        assert check_docs.check_python_block("def broken(:\n    pass")

    def test_doctest_block(self):
        assert check_docs.check_python_block(">>> 1 + 1\n2") is None

    def test_unknown_flag(self, cli_options):
        errors = check_docs.check_bash_block(
            "python -m repro.cli campaign --engine x --quantum", cli_options)
        assert errors and "--quantum" in errors[0]

    def test_continuation_lines_joined(self, cli_options):
        block = ("python -m repro.cli campaign \\\n"
                 "    --engine rustbrain --workers 4")
        assert check_docs.check_bash_block(block, cli_options) == []

    def test_unknown_subcommand(self, cli_options):
        errors = check_docs.check_bash_block(
            "python -m repro.cli quantum --engine x", cli_options)
        assert errors

    def test_broken_link(self, tmp_path):
        doc = tmp_path / "doc.md"
        doc.write_text("see [missing](nope/gone.md)", encoding="utf-8")
        assert check_docs.check_links(doc, doc.read_text())

    def test_stale_schema_id(self):
        current = check_docs._current_schema_ids()
        campaign = next(schema_id for schema_id in current
                        if schema_id.startswith("repro.bench_campaign/"))
        version = int(campaign.split("/")[1])
        stale = f"repro.bench_campaign/{version - 1}"
        errors = check_docs.check_schema_ids(f"writes `{stale}` today")
        assert errors and stale in errors[0]
        assert check_docs.check_schema_ids(f"writes `{campaign}`") == []
        # Unversioned names and bare changelog numbers are not ids.
        assert check_docs.check_schema_ids(
            "repro.quantum/7 | 2 | PR 10 |") == []

    def test_stale_schema_id_reported_per_file(self, tmp_path, cli_options):
        doc = tmp_path / "doc.md"
        doc.write_text("writes `repro.bench_campaign/1` today\n",
                       encoding="utf-8")
        errors = check_docs.check_file(doc, cli_options)
        assert len(errors) == 1
        assert errors[0].startswith(f"{doc}: stale schema id")

    def test_unknown_engine_option_in_inline_code(self):
        errors = check_docs.check_engine_specs(
            "restore the old profile with `rustbrain?dedup=off`.")
        assert len(errors) == 1
        assert "'rustbrain?dedup=off' does not build" in errors[0]
        assert check_docs.check_engine_specs(
            "`rustbrain?kb=off` and `llm_only?batched=on` build.") == []

    def test_unknown_environment_variable(self, tmp_path, cli_options):
        doc = tmp_path / "doc.md"
        doc.write_text("Set `$REPRO_NO_SUCH_KNOB=1`; `$REPRO_CACHE_DIR` "
                       "and REPRO_FAULTS are read by the code.\n",
                       encoding="utf-8")
        errors = check_docs.check_file(doc, cli_options)
        assert len(errors) == 1
        assert "REPRO_NO_SUCH_KNOB" in errors[0]
        assert check_docs.check_env_vars("`$REPRO_CORE_BUDGET`") == []

    def test_engine_flag_values_in_shell_fences(self, tmp_path, cli_options):
        doc = tmp_path / "doc.md"
        doc.write_text(
            "```bash\n"
            "python -m repro.cli campaign --engine rustbrain \\\n"
            "    --engine \"llm_only?quantum=on\"\n"
            "```\n"
            "Unregistered names and prose are not specs: `nosuch?x=1`, "
            "`a?b`, rustbrain?dedup=off.\n", encoding="utf-8")
        errors = check_docs.check_file(doc, cli_options)
        assert len(errors) == 1
        assert "'llm_only?quantum=on' does not build" in errors[0]
