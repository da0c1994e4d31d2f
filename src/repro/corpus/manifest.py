"""Versioned on-disk manifests for generated corpora (``repro.corpus/1``).

A manifest is one JSON document holding everything a later process needs
to reload a generated corpus as a :class:`~repro.corpus.dataset.Dataset`
— plus the generation report, so validation rates travel with the cases
they describe.  Two invariants make manifests safe to diff, cache, and
regenerate:

* **Byte-determinism.**  Serialization is ``json.dumps(..., indent=2,
  sort_keys=True)`` over data that contains no timestamps, hostnames, or
  float jitter; the same ``(n, seed, categories)`` therefore produces a
  byte-identical file on every run and machine.  The corpus smoke
  benchmark gates on exactly this.
* **Fingerprint keying.**  Every entry carries
  :func:`~repro.miri.fingerprint.source_fingerprint` of its buggy
  source.  Result-cache keys and journal fingerprints are derived from
  case *sources*, so loaded cases flow through ``CACHE_EPOCH``/cache and
  journal machinery unchanged — the stored fingerprint is a load-time
  integrity check (the source on disk still means what the generator
  validated), not a parallel identity scheme.

Loading re-checks the schema id, the fingerprints, and (via the
:class:`Dataset` constructor) name uniqueness; it deliberately does
*not* re-run detector validation — that is the generator's job, and the
smoke benchmark's to audit.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..miri.errors import UbKind
from ..miri.fingerprint import source_fingerprint
from .case import Strategy, UbCase
from .dataset import Dataset
from .generator import GENERATOR_VERSION, GenerationReport

#: Bump when the manifest layout changes incompatibly.
MANIFEST_SCHEMA = "repro.corpus/1"


class ManifestError(ValueError):
    """The manifest file is malformed, mislabelled, or corrupt."""


def case_to_dict(case: UbCase) -> dict:
    entry = {
        "name": case.name,
        "category": case.category.value,
        "description": case.description,
        "difficulty": case.difficulty,
        "fingerprint": source_fingerprint(case.source),
        "source": case.source,
        "fixed_source": case.fixed_source,
        "strategies": [{"rule": strategy.rule, "exact": strategy.exact}
                       for strategy in case.strategies],
    }
    # Emitted only when set, so pre-existing UB-corpus manifests stay
    # byte-identical (the corpus smoke benchmark gates on exactly that).
    if case.expected_code is not None:
        entry["expected_code"] = case.expected_code
    return entry


def case_from_dict(entry: dict) -> UbCase:
    try:
        case = UbCase(
            name=entry["name"],
            category=UbKind(entry["category"]),
            description=entry["description"],
            source=entry["source"],
            fixed_source=entry["fixed_source"],
            strategies=tuple(Strategy(s["rule"], exact=s["exact"])
                             for s in entry["strategies"]),
            difficulty=entry["difficulty"],
            expected_code=entry.get("expected_code"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"malformed case entry: {exc}") from exc
    recorded = entry.get("fingerprint")
    actual = source_fingerprint(case.source)
    if recorded != actual:
        raise ManifestError(
            f"case {case.name!r}: stored fingerprint {recorded!r} does not "
            f"match its source ({actual!r}) — manifest edited or corrupt")
    return case


def manifest_bytes(cases: list[UbCase],
                   report: GenerationReport | None = None) -> bytes:
    """The canonical serialized form (what :func:`save_manifest` writes)."""
    document = {
        "schema": MANIFEST_SCHEMA,
        "generator_version": GENERATOR_VERSION,
        "count": len(cases),
        "cases": [case_to_dict(case) for case in cases],
        "report": report.to_dict() if report is not None else None,
    }
    text = json.dumps(document, indent=2, sort_keys=True,
                      ensure_ascii=False) + "\n"
    return text.encode("utf-8")


def save_manifest(cases: list[UbCase], path: str | Path,
                  report: GenerationReport | None = None) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(manifest_bytes(cases, report))
    return path


def load_manifest(path: str | Path) -> Dataset:
    """Load a manifest back as a :class:`Dataset` (schema, fingerprint,
    and duplicate-name checked)."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(document, dict) \
            or document.get("schema") != MANIFEST_SCHEMA:
        raise ManifestError(
            f"{path}: expected schema {MANIFEST_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
            if isinstance(document, dict)
            else f"{path}: manifest must be a JSON object")
    entries = document.get("cases")
    if not isinstance(entries, list):
        raise ManifestError(f"{path}: 'cases' must be a list")
    if document.get("count") != len(entries):
        raise ManifestError(
            f"{path}: count field says {document.get('count')}, "
            f"file holds {len(entries)} cases")
    return Dataset(tuple(case_from_dict(entry) for entry in entries))
