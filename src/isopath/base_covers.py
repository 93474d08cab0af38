"""Built-in base covers backing the cover constructors.

Covers live in the ``fixtures`` directory beside this module, one file
per key named ``<family>_<sizes>.cover`` (multipartite keys sorted
non-increasing, Hamming keys non-decreasing).  Multipartite entries were
produced by the exact solver and frozen; Hamming entries are hand-entered
tables in the labeled coordinate format.  Every entry is re-verified against its graph
at load time: it must be a valid cover of exactly the closed-form size.
Fixtures are never regenerated at runtime (see tools/make_fixtures.py).
"""

import os

from .cover import PROVENANCE_TABLE, Cover, parse_cover, parse_cover_labeled, verify_cover
from .errors import ConstructionError, UnknownCoverKeyError
from .formulas import ip_hamming2, ip_hamming3, ip_multipartite
from .graph import HammingSpec, PartiteSpec, make_complete_multipartite, make_hamming

FAMILY_MULTIPARTITE = "multipartite"
FAMILY_HAMMING2 = "hamming2"
FAMILY_HAMMING3 = "hamming3"

_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

_TABLE = None


def canonical_key(family: str, key) -> tuple:
    sizes = tuple(int(s) for s in key)
    if family == FAMILY_MULTIPARTITE:
        return tuple(sorted(sizes, reverse=True))
    if family in (FAMILY_HAMMING2, FAMILY_HAMMING3):
        return tuple(sorted(sizes))
    raise UnknownCoverKeyError(family)


def _verify_entry(family, key, cover):
    if family == FAMILY_MULTIPARTITE:
        graph = make_complete_multipartite(PartiteSpec(key))
        expected = ip_multipartite(PartiteSpec(key)).value
    elif family == FAMILY_HAMMING2:
        graph = make_hamming(HammingSpec(key))
        expected = ip_hamming2(*key).value
    else:
        graph = make_hamming(HammingSpec(key))
        expected = ip_hamming3(*key).value
    report = verify_cover(graph, cover)
    if not report.valid:
        raise ConstructionError(
            f"base cover {family} {key} failed verification "
            f"(uncovered={report.uncovered})"
        )
    if len(cover.paths) != expected:
        raise ConstructionError(
            f"base cover {family} {key} has {len(cover.paths)} paths, expected {expected}"
        )


def _load_table():
    table = {}
    names = sorted(name for name in os.listdir(_FIXTURES) if name.endswith(".cover"))
    if not names:
        raise ConstructionError("no base cover fixtures found")
    for name in names:
        stem = name[: -len(".cover")]
        family, _, size_part = stem.partition("_")
        key = tuple(int(tok) for tok in size_part.split("-"))
        with open(os.path.join(_FIXTURES, name), encoding="ascii") as handle:
            text = handle.read()
        if family == FAMILY_MULTIPARTITE:
            cover = parse_cover(text, provenance=PROVENANCE_TABLE)
        elif family in (FAMILY_HAMMING2, FAMILY_HAMMING3):
            cover = parse_cover_labeled(text, HammingSpec(key), provenance=PROVENANCE_TABLE)
        else:
            raise ConstructionError(f"unknown fixture family in {name!r}")
        if key != canonical_key(family, key):
            raise ConstructionError(f"fixture {name!r} key is not canonical")
        _verify_entry(family, key, cover)
        table[(family, key)] = cover
    return table


def base_cover_table() -> dict:
    """The verified table, loaded once per process."""
    global _TABLE
    if _TABLE is None:
        _TABLE = _load_table()
    return _TABLE


def base_cover_lookup(family: str, key) -> Cover:
    """Stored base cover for the canonicalized key.

    Covers are immutable value objects; a fresh wrapper is returned so
    callers can treat the result as their own copy.
    """
    table = base_cover_table()
    entry = table.get((family, canonical_key(family, key)))
    if entry is None:
        raise UnknownCoverKeyError(f"{family} {tuple(key)}")
    return Cover(entry.paths, provenance=entry.provenance, note=entry.note)
