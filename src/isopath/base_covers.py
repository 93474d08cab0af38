"""Built-in base covers backing the Hamming cover constructors.

Covers live in the ``fixtures`` directory beside this module, one file
per key named ``<family>_<sizes>.cover`` (``hamming2`` or ``hamming3``,
factors non-decreasing), in the plain cover text format.  They are
hand-entered coordinate tables kept in tools/make_fixtures.py, written out
as vertex indices.  Every entry is re-verified against its graph at load
time: it must be a valid cover of exactly the closed-form size.  Fixtures
are never regenerated at runtime.
"""

import os

from .cover import Cover, parse_cover, verify_cover
from .errors import ConstructionError, UnknownCoverKeyError
from .formulas import ip_hamming2, ip_hamming3
from .graph import HammingSpec, make_hamming

FAMILY_HAMMING2 = "hamming2"
FAMILY_HAMMING3 = "hamming3"

_FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

_TABLE = None


def canonical_key(family: str, key) -> tuple:
    if family not in (FAMILY_HAMMING2, FAMILY_HAMMING3):
        raise UnknownCoverKeyError(family)
    return tuple(sorted(int(s) for s in key))


def _verify_entry(family, key, cover):
    expected = (ip_hamming2 if family == FAMILY_HAMMING2 else ip_hamming3)(*key).value
    report = verify_cover(make_hamming(HammingSpec(key)), cover)
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
        if family not in (FAMILY_HAMMING2, FAMILY_HAMMING3):
            raise ConstructionError(f"unknown fixture family in {name!r}")
        key = tuple(int(tok) for tok in size_part.split("-"))
        with open(os.path.join(_FIXTURES, name), encoding="ascii") as handle:
            cover = parse_cover(handle.read())
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
    """Stored base cover for the canonicalized key; covers are immutable,
    so the table's own entry is returned."""
    table = base_cover_table()
    entry = table.get((family, canonical_key(family, key)))
    if entry is None:
        raise UnknownCoverKeyError(f"{family} {tuple(key)}")
    return entry
