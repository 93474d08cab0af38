"""Built-in base covers backing the Hamming cover constructors.

``_COORDINATES`` holds the hand-entered base covers of the products of 2
or 3 complete graphs, one entry per key (factors non-decreasing): one path
per line, one vertex per word, written as one digit per coordinate (every
factor of a key is at most 6, so one digit is enough).  The table is read once per process into
index covers stored under ``("hamming<r>", key)`` for a key of r factors,
and every entry is re-verified against its graph: it must be a valid cover
of exactly the counting bound ceil(n/(r+1)), so each is optimal by counting
alone.
"""

from .cover import Cover, verify_cover
from .errors import ConstructionError, UnknownCoverKeyError
from .formulas import ip_lower_bound_hamming
from .graph import HammingSpec, _integers, encode_coordinates, make_hamming

_COORDINATES = {
    (2, 2): """00 01
               10 11""",
    (2, 3): """00 01 11
               02 12 10""",
    (2, 4): """00 01 11
               02 12 10
               03 13""",
    (3, 3): """00 20 22
               01 02 12
               10 11 21""",
    (2, 2, 2): """000 001 011 111
                  101 100 110 010""",
    (2, 3, 3): """011 010 000 100
                  022 020 120 110
                  021 121 111
                  002 012 112
                  001 101 102 122""",
    (2, 3, 4): """011 010 000 100
                  021 020 120 110
                  023 022 122 112
                  013 012 002 102
                  001 101 111 113
                  121 123 103 003""",
    # 2x3x3 with its two 3-vertex paths extended into layers 3 and 4, plus 3 paths on layers 3-4
    (2, 3, 5): """011 010 000 100
                  022 020 120 110
                  001 101 102 122
                  021 121 111 113
                  002 012 112 114
                  014 013 023 123
                  003 004 024 124
                  103 104""",
    # 2x3x3 with its two 3-vertex paths extended into layers 3 and 4, plus 4 paths on layers 3-5
    (2, 3, 6): """011 010 000 100
                  022 020 120 110
                  001 101 102 122
                  021 121 111 113
                  002 012 112 114
                  004 003 103 123
                  013 014 024 124
                  023 025 125 115
                  015 005 105 104""",
    # 2x3x5 without its 2-vertex path 103 104, plus 6 paths covering rows 3-4
    (2, 5, 5): """011 010 000 100
                  022 020 120 110
                  001 101 102 122
                  021 121 111 113
                  002 012 112 114
                  014 013 023 123
                  003 004 024 124
                  041 040 030 130
                  140 141 131 031
                  043 042 032 132
                  142 143 133 033
                  103 104 144
                  044 034 134""",
    (3, 3, 3): """000 020 120 121
                  110 210 220 221
                  021 011 111 112
                  101 201 211 212
                  010 012 022 122
                  001 002 202 222
                  102 100 200""",
    (3, 3, 4): """000 020 120 121
                  110 210 220 221
                  021 011 111 112
                  101 201 211 212
                  010 012 022 122
                  002 202 222 223
                  013 113 103 102
                  100 200 203 213
                  001 003 023 123""",
    # 2x3x5 without its 2-vertex path 103 104, plus 12 paths covering layer 2 and rows 3-4
    (3, 5, 5): """011 010 000 100
                  022 020 120 110
                  001 101 102 122
                  021 121 111 113
                  002 012 112 114
                  014 013 023 123
                  003 004 024 124
                  040 240 200 201
                  030 230 210 211
                  041 031 131 130
                  140 141 241 221
                  103 203 223 220
                  104 204 234 231
                  032 232 212 213
                  044 042 242 202
                  043 143 133 132
                  033 233 243 244
                  034 134 144 142
                  222 224 214""",
}


_TABLE = None


def _family(key):
    """The table's family name for a key of r factors, for any r."""
    return f"hamming{len(key)}"


def _verify_entry(family, spec, cover):
    key = spec.factors
    expected = ip_lower_bound_hamming(spec)
    report = verify_cover(make_hamming(spec), cover)
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
    for key, text in _COORDINATES.items():
        family = _family(key)
        spec = HammingSpec(key)
        cover = Cover(
            [encode_coordinates(spec, map(int, word)) for word in line.split()]
            for line in text.splitlines()
        )
        _verify_entry(family, spec, cover)
        table[(family, key)] = cover
    return table


def base_cover_table() -> dict:
    """The verified table, loaded once per process."""
    global _TABLE
    if _TABLE is None:
        _TABLE = _load_table()
    return _TABLE


def base_cover_lookup(family: str, key) -> Cover:
    """Stored base cover for ``key`` in any factor order; covers are
    immutable, so the table's own entry is returned."""
    canonical = tuple(sorted(_integers(key, UnknownCoverKeyError, f"{family} key factors")))
    entry = base_cover_table().get((family, canonical))
    if entry is None:
        raise UnknownCoverKeyError(f"{family} {tuple(key)}")
    return entry
