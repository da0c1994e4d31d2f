"""Dataset loader: the full UB corpus, indexed by name and category.

>>> from repro.corpus.dataset import load_dataset
>>> ds = load_dataset()
>>> len(ds.categories()) >= 14
True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..miri.errors import UbKind
from .case import UbCase
from . import cases_borrows, cases_compile, cases_concurrency, \
    cases_functions, cases_memory, cases_values


class DuplicateCaseError(ValueError):
    """Two cases in one dataset share a name.

    Raised at *load* time — generated corpora make name collisions a real
    possibility (a manifest edited by hand, two manifests concatenated),
    and a duplicate that only surfaced on :meth:`Dataset.get` would
    silently shadow one case everywhere else (campaign telemetry, journal
    replay, and cache keys all address cases by name).
    """


@dataclass(frozen=True)
class Dataset:
    cases: tuple[UbCase, ...]
    #: Name index built at construction — :meth:`get` is O(1), and building
    #: the index is where duplicate names are rejected.  Excluded from
    #: eq/repr so two datasets still compare by their cases alone.
    _by_name: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[str, UbCase] = {}
        for case in self.cases:
            if case.name in index:
                raise DuplicateCaseError(
                    f"duplicate case name {case.name!r}")
            index[case.name] = case
        object.__setattr__(self, "_by_name", index)

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self):
        return iter(self.cases)

    def get(self, name: str) -> UbCase:
        return self._by_name[name]

    def by_category(self, category: UbKind) -> list[UbCase]:
        return [case for case in self.cases if case.category is category]

    def categories(self) -> list[UbKind]:
        seen: list[UbKind] = []
        for case in self.cases:
            if case.category not in seen:
                seen.append(case.category)
        return seen

    def subset(self, categories: list[UbKind]) -> "Dataset":
        return Dataset(tuple(
            case for case in self.cases if case.category in categories))


@lru_cache(maxsize=1)
def load_dataset() -> Dataset:
    """The full corpus (the paper's 'Miri dataset' analogue)."""
    cases: list[UbCase] = []
    for module in (cases_memory, cases_borrows, cases_concurrency,
                   cases_functions, cases_values):
        cases.extend(module.CASES)
    return Dataset(tuple(cases))


@lru_cache(maxsize=1)
def load_compile_dataset() -> Dataset:
    """The compile-error corpus: non-running sources labelled with the
    stable checker code they trip.  Kept out of :func:`load_dataset` so
    every consumer of the dynamic corpus (campaigns, the UB generator's
    rng stream, manifests) sees exactly the cases it always did."""
    return Dataset(tuple(cases_compile.CASES))
