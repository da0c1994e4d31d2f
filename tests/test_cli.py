"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "buggy.rs"
    path.write_text('''
fn main() {
    let mu: MaybeUninit<i32> = MaybeUninit::uninit();
    let v = unsafe { mu.assume_init() };
    println!("{}", v);
}
''')
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.rs"
    path.write_text('fn main() { println!("ok"); }\n')
    return str(path)


class TestDetect:
    def test_clean_program_exit_zero(self, clean_file, capsys):
        assert main(["detect", clean_file]) == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_buggy_program_exit_one(self, buggy_file, capsys):
        assert main(["detect", buggy_file]) == 1
        out = capsys.readouterr().out
        assert "Undefined Behavior" in out

    def test_collect_flag(self, buggy_file):
        assert main(["detect", buggy_file, "--collect"]) == 1


class TestRepair:
    def test_repairs_buggy_file(self, buggy_file, capsys):
        code = main(["repair", buggy_file, "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASSED" in out

    def test_clean_file_passes_through(self, clean_file):
        assert main(["repair", clean_file]) == 0

    def test_no_kb_flag(self, buggy_file):
        assert main(["repair", buggy_file, "--no-kb", "--seed", "3"]) in (0, 1)

    def test_repeat_runs_print_identical_output(self, buggy_file, capsys):
        # The second run reuses the parse memo's trees the first one
        # left behind; the detector must answer exactly as before.
        assert main(["repair", buggy_file, "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["repair", buggy_file, "--seed", "3"]) == 0
        assert capsys.readouterr().out == first


class TestDataset:
    def test_lists_cases(self, capsys):
        assert main(["dataset"]) == 0
        out = capsys.readouterr().out
        assert "117 cases" in out

    def test_category_filter(self, capsys):
        assert main(["dataset", "--category", "panic"]) == 0
        out = capsys.readouterr().out
        assert "panic" in out
        assert "datarace" not in out


class TestMissingFile:
    """A missing path exits 2 with a clean message, not a traceback."""

    def test_detect_missing_file(self, capsys):
        assert main(["detect", "/no/such/file.rs"]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err
        assert "/no/such/file.rs" in err

    def test_repair_missing_file(self, capsys):
        assert main(["repair", "/no/such/file.rs"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_directory_is_clean_error(self, tmp_path, capsys):
        assert main(["detect", str(tmp_path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_file_is_clean_error(self, tmp_path, capsys):
        path = tmp_path / "binary.rs"
        path.write_bytes(b"\xff\xfe\x00garbage")
        assert main(["detect", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestEngines:
    def test_lists_registered_engines(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ("rustbrain", "llm_only", "rustassistant",
                     "rustbrain_nokb"):
            assert name in out
        assert "engines registered" in out


class TestEngineFlag:
    def test_repair_with_engine_spec(self, buggy_file):
        assert main(["repair", buggy_file, "--engine", "rustbrain?kb=off",
                     "--seed", "3"]) in (0, 1)

    def test_repair_with_baseline_engine(self, buggy_file):
        assert main(["repair", buggy_file, "--engine", "llm_only",
                     "--seed", "3"]) in (0, 1)

    def test_unknown_engine_exit_2(self, buggy_file, capsys):
        assert main(["repair", buggy_file, "--engine", "quantum"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_malformed_spec_exit_2(self, buggy_file, capsys):
        assert main(["repair", buggy_file, "--engine", "rustbrain?kb"]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_spec_overriding_flag_warns(self, buggy_file, capsys):
        main(["repair", buggy_file, "--engine", "rustbrain?seed=3",
              "--seed", "7"])
        err = capsys.readouterr().err
        assert "warning" in err and "--seed 7" in err

    def test_spec_overriding_no_kb_warns(self, buggy_file, capsys):
        main(["repair", buggy_file, "--engine", "rustbrain?kb=on",
              "--no-kb", "--seed", "3"])
        assert "--no-kb is overridden" in capsys.readouterr().err

    def test_equal_values_do_not_warn(self, buggy_file, capsys):
        # 2e-1 and 0.2 are the same temperature; no spurious warning.
        main(["repair", buggy_file, "--engine", "rustbrain?temperature=2e-1",
              "--temperature", "0.2", "--seed", "3"])
        assert "warning" not in capsys.readouterr().err

    def test_no_kb_rejected_for_non_rustbrain(self, buggy_file, capsys):
        assert main(["repair", buggy_file, "--engine", "llm_only",
                     "--no-kb"]) == 2
        assert "--no-kb only applies" in capsys.readouterr().err


class TestCampaign:
    def test_campaign_runs_and_writes_json(self, tmp_path, capsys):
        out_json = tmp_path / "campaign.json"
        code = main(["campaign", "--engine", "llm_only",
                     "--engine", "rustbrain?kb=off",
                     "--category", "uninit", "--workers", "2",
                     "--quiet", "--json", str(out_json)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Campaign" in out
        assert out_json.exists()
        import json
        payload = json.loads(out_json.read_text())
        assert payload["config"]["workers"] == 2
        assert len(payload["arms"]) == 2

    def test_unknown_engine_exit_2(self, capsys):
        assert main(["campaign", "--engine", "quantum", "--quiet"]) == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_unknown_category_exit_2(self, capsys):
        assert main(["campaign", "--engine", "llm_only",
                     "--category", "warp", "--quiet"]) == 2

    def test_unwritable_json_exit_2(self, capsys):
        assert main(["campaign", "--engine", "llm_only",
                     "--category", "uninit", "--quiet",
                     "--json", "/no/such/dir/out.json"]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_journal_flag_writes_and_reports(self, tmp_path, capsys):
        jdir = tmp_path / "j"
        assert main(["campaign", "--engine", "llm_only",
                     "--category", "uninit", "--quiet",
                     "--journal", str(jdir)]) == 0
        out = capsys.readouterr().out
        assert (jdir / "campaign.journal").exists()
        assert "journal: 0 replayed," in out

    def test_resume_replays_and_is_byte_identical(self, tmp_path, capsys):
        import json
        base = ["campaign", "--engine", "llm_only", "--category", "uninit",
                "--quiet"]
        first_json = tmp_path / "first.json"
        assert main(base + ["--json", str(first_json)]) == 0
        jdir = tmp_path / "j"
        assert main(base + ["--journal", str(jdir)]) == 0
        capsys.readouterr()
        resumed_json = tmp_path / "resumed.json"
        assert main(base + ["--resume", str(jdir),
                            "--json", str(resumed_json)]) == 0
        out = capsys.readouterr().out
        cases = len(json.loads(first_json.read_text())["arms"][0]["cases"])
        assert f"journal: {cases} replayed, 0 appended" in out
        assert resumed_json.read_bytes() == first_json.read_bytes()

    def test_resume_without_journal_exit_2(self, tmp_path, capsys):
        assert main(["campaign", "--engine", "llm_only", "--quiet",
                     "--resume", str(tmp_path / "nothing")]) == 2
        assert "nothing to resume" in capsys.readouterr().err


class TestCampaignSignals:
    def test_sigterm_flushes_journal_and_exits_130(self, tmp_path):
        # A real subprocess and a real signal: the interrupted campaign
        # must exit 130 with a loadable journal and partial telemetry.
        import json
        import os
        import signal
        import subprocess
        import sys
        import time

        jdir = tmp_path / "j"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(pathlib_src()), env.get("PYTHONPATH", "")]))
        # Hang every worker decision point so the run is slow enough to
        # catch mid-flight, deterministically.
        env["REPRO_FAULTS"] = "worker:hang=1,hang_seconds=0.3"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "campaign",
             "--engine", "llm_only", "--engine", "rustbrain?kb=off",
             "--quiet", "--journal", str(jdir)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        journal_path = jdir / "campaign.journal"
        deadline = time.monotonic() + 60
        # Wait until at least two results are durably journaled.
        while time.monotonic() < deadline:
            if journal_path.exists() and \
                    len(journal_path.read_text().splitlines()) >= 3:
                break
            if process.poll() is not None:
                break
            time.sleep(0.05)
        assert process.poll() is None, \
            (process.stdout.read(), process.stderr.read())
        process.send_signal(signal.SIGTERM)
        _out, err = process.communicate(timeout=60)
        assert process.returncode == 130, err
        assert "campaign interrupted" in err
        assert "resume with" in err
        # The journal survived intact and the partial telemetry flushed.
        lines = journal_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["schema"] == "repro.journal/1"
        assert len(lines) >= 3
        partial = json.loads((jdir / "telemetry.partial.json").read_text())
        assert partial["cases_finished"] >= 0


def pathlib_src():
    import pathlib
    return pathlib.Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_bench_name(self, capsys):
        assert main(["bench", "fig99"]) == 2


class TestCorpusCommands:
    def _generate(self, tmp_path, n=8, seed=5):
        out = tmp_path / "gen"
        code = main(["corpus", "generate", "--n", str(n), "--seed",
                     str(seed), "--out", str(out)])
        assert code == 0
        return out / "corpus.json"

    def test_generate_writes_manifest(self, tmp_path, capsys):
        manifest = self._generate(tmp_path)
        out = capsys.readouterr().out
        assert manifest.is_file()
        assert "8 cases" in out and str(manifest) in out

    def test_generate_is_deterministic(self, tmp_path):
        first = self._generate(tmp_path / "a").read_bytes()
        second = self._generate(tmp_path / "b").read_bytes()
        assert first == second

    def test_generate_rejects_unknown_category(self, tmp_path, capsys):
        code = main(["corpus", "generate", "--n", "2", "--seed", "1",
                     "--categories", "not_a_kind",
                     "--out", str(tmp_path / "gen")])
        assert code == 2
        assert "repro:" in capsys.readouterr().err

    def test_generate_category_filter(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main(["corpus", "generate", "--n", "4", "--seed", "2",
                     "--categories", "panic", "--out", str(out)])
        assert code == 0
        from repro.corpus import load_manifest
        from repro.miri.errors import UbKind
        dataset = load_manifest(out / "corpus.json")
        assert all(case.category is UbKind.PANIC for case in dataset)

    def test_validate_accepts_generated_manifest(self, tmp_path, capsys):
        manifest = self._generate(tmp_path)
        capsys.readouterr()
        assert main(["corpus", "validate", str(manifest)]) == 0
        assert "8/8 cases valid" in capsys.readouterr().out

    def test_generate_compile_corpus(self, tmp_path, capsys):
        out = tmp_path / "gen"
        code = main(["corpus", "generate", "--n", "4", "--seed", "2",
                     "--compile", "--out", str(out)])
        assert code == 0
        from repro.corpus import load_manifest
        from repro.miri.errors import UbKind
        dataset = load_manifest(out / "corpus.json")
        assert all(case.category is UbKind.COMPILE for case in dataset)
        assert all(case.expected_code for case in dataset)
        capsys.readouterr()
        assert main(["corpus", "validate", str(out / "corpus.json")]) == 0

    def test_compile_excludes_categories(self, tmp_path, capsys):
        code = main(["corpus", "generate", "--n", "2", "--seed", "1",
                     "--compile", "--categories", "panic",
                     "--out", str(tmp_path / "gen")])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_validate_flags_tampered_label(self, tmp_path, capsys):
        import json
        manifest = self._generate(tmp_path)
        document = json.loads(manifest.read_text(encoding="utf-8"))
        # Mislabel one case but keep its fingerprint honest, so the
        # failure comes from self-validation, not the integrity check.
        entry = next(e for e in document["cases"]
                     if e["category"] == "panic")
        entry["category"] = "datarace"
        manifest.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["corpus", "validate", str(manifest)]) == 1
        out = capsys.readouterr().out
        assert "[wrong_kind]" in out

    def test_validate_rejects_bad_manifest(self, tmp_path, capsys):
        bad = tmp_path / "nope.json"
        assert main(["corpus", "validate", str(bad)]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_dataset_lists_generated_corpus(self, tmp_path, capsys):
        manifest = self._generate(tmp_path)
        capsys.readouterr()
        assert main(["dataset", "--corpus", str(manifest)]) == 0
        assert "8 cases" in capsys.readouterr().out

    def test_campaign_sweeps_generated_corpus(self, tmp_path, capsys):
        manifest = self._generate(tmp_path)
        capsys.readouterr()
        code = main(["campaign", "--engine", "llm_only",
                     "--corpus", str(manifest), "--quiet"])
        assert code == 0
        assert "Campaign" in capsys.readouterr().out

    def test_campaign_rejects_bad_corpus_path(self, tmp_path, capsys):
        code = main(["campaign", "--engine", "llm_only",
                     "--corpus", str(tmp_path / "missing.json")])
        assert code == 2
        assert "repro:" in capsys.readouterr().err


class TestCheck:
    @pytest.fixture
    def typo_file(self, tmp_path):
        path = tmp_path / "typo.rs"
        path.write_text('fn main() {\n    let count = 4;\n'
                        '    let total = cuont + 1;\n'
                        '    println!("{}", total);\n}\n')
        return str(path)

    def test_clean_file_exit_zero(self, clean_file, capsys):
        assert main(["check", clean_file]) == 0
        assert "check passed" in capsys.readouterr().out

    def test_failing_file_exit_one_with_snippet(self, typo_file, capsys):
        assert main(["check", typo_file]) == 1
        out = capsys.readouterr().out
        assert "error[E0425]" in out
        assert "^" in out

    def test_json_emits_diagnostics_schema(self, typo_file, capsys):
        import json
        assert main(["check", typo_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.diagnostics/1"
        assert payload["diagnostics"][0]["code"] == "E0425"

    def test_missing_file_exit_two(self, capsys):
        assert main(["check", "/no/such/file.rs"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_no_file_without_sweep_is_usage_error(self, capsys):
        assert main(["check"]) == 2
        assert "repro:" in capsys.readouterr().err

    def test_sweep_reports_all_clean(self, capsys):
        assert main(["check", "--sweep", "--generated", "4",
                     "--seed", "11"]) == 0
        assert "sources check clean" in capsys.readouterr().out
