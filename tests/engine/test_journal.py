"""Crash-safe journal: durability, torn tails, and byte-identical resume."""

import json

import pytest

from repro.corpus.dataset import load_dataset
from repro.engine import Campaign, CampaignJournal, JournalError
from repro.engine.journal import JOURNAL_SCHEMA
from repro.engine.types import RepairReport
from repro.miri.errors import UbKind

ENGINES = ["llm_only", "rustbrain?kb=off"]
SEED = 3


def _report(name="case", passed=True):
    return RepairReport(case=name, engine="llm_only",
                        category=UbKind.UNINIT, passed=passed,
                        acceptable=passed, repaired_source="fn main() {}",
                        seconds=1.0, tokens=10, llm_calls=3,
                        solutions_tried=1, steps_executed=2,
                        hallucinations=0, rollbacks=0,
                        used_knowledge_base=True, used_feedback=True)


@pytest.fixture()
def dataset():
    return load_dataset().subset([UbKind.UNINIT, UbKind.PANIC])


class TestJournalFile:
    def test_create_append_reload(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        assert journal.open("fp") == 0
        journal.append("k1", [_report("a")], kind="case", arm="llm_only",
                       index=0)
        journal.append("k2", [_report("b")], kind="case", arm="llm_only",
                       index=1)
        journal.close()

        fresh = CampaignJournal(tmp_path)
        assert fresh.open("fp") == 2
        assert "k1" in fresh and "k2" in fresh and len(fresh) == 2
        (replayed,) = fresh.get("k1")
        assert replayed.case == "a"
        assert fresh.replayed == 1
        assert fresh.get("missing") is None

    def test_duplicate_appends_are_ignored(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.open("fp")
        journal.append("k", [_report("a")])
        journal.append("k", [_report("DIFFERENT")])
        journal.close()
        fresh = CampaignJournal(tmp_path)
        fresh.open("fp")
        assert len(fresh) == 1
        assert fresh.get("k")[0].case == "a"
        assert journal.appended == 1

    def test_torn_tail_is_tolerated(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.open("fp")
        journal.append("k1", [_report("a")])
        journal.append("k2", [_report("b")])
        journal.close()
        # Simulate a SIGKILL mid-append: the last line is half-written.
        raw = journal.path.read_bytes()
        journal.path.write_bytes(raw + b'{"kind": "case", "key": "k3"')
        fresh = CampaignJournal(tmp_path)
        assert fresh.open("fp") == 2
        assert fresh.skipped_torn == 1
        assert "k3" not in fresh

    def test_midfile_corruption_refuses_to_resume(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.open("fp")
        journal.append("k1", [_report("a")])
        journal.append("k2", [_report("b")])
        journal.close()
        lines = journal.path.read_text().splitlines()
        lines[1] = lines[1][:10]  # corrupt a NON-final record
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt"):
            CampaignJournal(tmp_path).open("fp")

    def test_fingerprint_mismatch_refuses_to_resume(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.open("fp-one")
        journal.close()
        with pytest.raises(JournalError, match="fingerprint"):
            CampaignJournal(tmp_path).open("fp-two")

    def test_wrong_schema_refuses(self, tmp_path):
        path = tmp_path / "campaign.journal"
        path.write_text('{"schema": "something/else", "fingerprint": "fp"}\n')
        with pytest.raises(JournalError, match="not a"):
            CampaignJournal(tmp_path).open("fp")

    def test_header_is_the_documented_schema(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.open("fp")
        journal.close()
        header = json.loads(journal.path.read_text().splitlines()[0])
        assert header == {"schema": JOURNAL_SCHEMA, "fingerprint": "fp"}

    def test_append_requires_open(self, tmp_path):
        with pytest.raises(JournalError, match="not open"):
            CampaignJournal(tmp_path).append("k", [_report()])

    def test_open_is_idempotent(self, tmp_path):
        journal = CampaignJournal(tmp_path)
        journal.open("fp")
        journal.append("k", [_report()])
        assert journal.open("fp") == 1
        with pytest.raises(JournalError, match="fingerprint"):
            journal.open("other")


class TestCampaignResume:
    """The tentpole gate: interrupted + resumed == uninterrupted, byte for
    byte, with zero journaled cases re-executed."""

    def _campaign(self, dataset, journal=None, **kwargs):
        params = dict(seed=SEED, workers=2, shard_size=4)
        params.update(kwargs)
        return Campaign(ENGINES, dataset, journal=journal, **params)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_is_byte_identical(self, dataset, tmp_path, workers):
        baseline = self._campaign(dataset, workers=workers).run().to_dict()

        # First run journals everything...
        first_dir = tmp_path / "j"
        first = self._campaign(dataset, journal=str(first_dir),
                               workers=workers)
        first.run()
        assert first.journal.appended == len(dataset) * len(ENGINES)
        first.journal.close()

        # ...the "resumed" run replays it all and executes nothing new.
        resumed = self._campaign(dataset, journal=str(first_dir),
                                 workers=workers)
        result = resumed.run()
        assert resumed.journal.appended == 0
        assert resumed.journal.replayed > 0
        resumed.journal.close()

        assert json.dumps(result.to_dict(), sort_keys=True) == \
            json.dumps(baseline, sort_keys=True)

    def test_partial_journal_resumes_only_the_missing(self, dataset,
                                                      tmp_path):
        full_dir, cut_dir = tmp_path / "full", tmp_path / "cut"
        full = self._campaign(dataset, journal=str(full_dir))
        baseline = full.run().to_dict()
        total = full.journal.appended
        full.journal.close()

        # Forge an "interrupted" journal: the full journal minus its
        # last few records (as if SIGKILL landed mid-campaign).
        cut_dir.mkdir()
        lines = (full_dir / "campaign.journal").read_text().splitlines()
        kept = lines[:1 + max(1, (total - 3))]
        (cut_dir / "campaign.journal").write_text("\n".join(kept) + "\n")

        resumed = self._campaign(dataset, journal=str(cut_dir))
        result = resumed.run()
        assert resumed.journal.replayed == len(kept) - 1
        assert resumed.journal.appended == total - (len(kept) - 1)
        resumed.journal.close()
        assert json.dumps(result.to_dict(), sort_keys=True) == \
            json.dumps(baseline, sort_keys=True)

    def test_resume_at_different_parallelism(self, dataset, tmp_path):
        baseline = self._campaign(dataset).run().to_dict()
        jdir = tmp_path / "j"
        first = self._campaign(dataset, journal=str(jdir))
        first.run()
        first.journal.close()
        # Same experiment, different workers/shards/executor: the
        # fingerprint deliberately permits this.
        resumed = self._campaign(dataset, journal=str(jdir), workers=1,
                                 shard_size=2, executor="serial")
        result = resumed.run()
        assert resumed.journal.appended == 0
        resumed.journal.close()
        # The parallelism knobs land in the config dict (and the round
        # count), but every *outcome* is byte-identical.
        assert json.dumps(result.to_dict()["arms"], sort_keys=True) == \
            json.dumps(baseline["arms"], sort_keys=True)

    def test_different_seed_refuses_the_journal(self, dataset, tmp_path):
        jdir = tmp_path / "j"
        first = self._campaign(dataset, journal=str(jdir))
        first.run()
        first.journal.close()
        other = self._campaign(dataset, journal=str(jdir), seed=SEED + 1)
        with pytest.raises(JournalError, match="fingerprint"):
            other.run()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_isolation_journals_whole_arms(self, dataset, tmp_path,
                                                  workers):
        jdir = tmp_path / "j"
        first = Campaign(ENGINES, dataset, seed=SEED, isolation="shared",
                         workers=workers, journal=str(jdir))
        baseline = first.run().to_dict()
        assert first.journal.appended == len(ENGINES)
        first.journal.close()
        resumed = Campaign(ENGINES, dataset, seed=SEED, isolation="shared",
                           workers=workers, journal=str(jdir))
        result = resumed.run()
        assert resumed.journal.appended == 0
        assert resumed.journal.replayed == len(ENGINES)
        resumed.journal.close()
        assert json.dumps(result.to_dict(), sort_keys=True) == \
            json.dumps(baseline, sort_keys=True)
