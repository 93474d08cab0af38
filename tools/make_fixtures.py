#!/usr/bin/env python3
"""Regenerate the Hamming base-cover fixture files under src/isopath/fixtures/.

Each entry is a hand-entered coordinate table, kept here as the
human-readable source (the starred 2x3x3 variant and the larger composites
are expanded here before writing); it is written as vertex indices in the
plain cover text format.  Every file is verified (validity plus
closed-form size) before it is written; a failing entry aborts the run so
a bad table can never be frozen.  No search is run: multipartite covers
need no fixture, since the constructor's peel rule builds them whole.

Run from the repository root after an editable install, or with the
source tree on the path:

    python tools/make_fixtures.py
    PYTHONPATH=src python tools/make_fixtures.py
"""

import sys
from pathlib import Path as FsPath

from isopath.cover import Cover, format_cover, verify_cover
from isopath.formulas import ip_hamming2, ip_hamming3
from isopath.graph import HammingSpec, encode_coordinates, make_hamming

FIXTURE_DIR = FsPath(__file__).resolve().parent.parent / "src" / "isopath" / "fixtures"

# --- Hamming base tables (coordinate form) ---------------------------------

H2_TABLES = {
    (2, 2): [
        [(0, 0), (0, 1)],
        [(1, 0), (1, 1)],
    ],
    (2, 3): [
        [(0, 0), (0, 1), (1, 1)],
        [(0, 2), (1, 2), (1, 0)],
    ],
    (2, 4): [
        [(0, 0), (0, 1), (1, 1)],
        [(0, 2), (1, 2), (1, 0)],
        [(0, 3), (1, 3)],
    ],
    (3, 3): [
        [(0, 0), (2, 0), (2, 2)],
        [(0, 1), (0, 2), (1, 2)],
        [(1, 0), (1, 1), (2, 1)],
    ],
}

C222 = [
    [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)],
    [(1, 0, 1), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
]

C233 = [
    [(0, 1, 1), (0, 1, 0), (0, 0, 0), (1, 0, 0)],
    [(0, 2, 2), (0, 2, 0), (1, 2, 0), (1, 1, 0)],
    [(0, 2, 1), (1, 2, 1), (1, 1, 1)],
    [(0, 0, 2), (0, 1, 2), (1, 1, 2)],
    [(0, 0, 1), (1, 0, 1), (1, 0, 2), (1, 2, 2)],
]


def c233_star():
    """2x3x3 table with its two 3-vertex paths extended into layers 3 and 4;
    only meaningful inside a host with third factor >= 5."""
    drop = [
        [(0, 2, 1), (1, 2, 1), (1, 1, 1)],
        [(0, 0, 2), (0, 1, 2), (1, 1, 2)],
    ]
    add = [
        [(0, 2, 1), (1, 2, 1), (1, 1, 1), (1, 1, 3)],
        [(0, 0, 2), (0, 1, 2), (1, 1, 2), (1, 1, 4)],
    ]
    return [p for p in C233 if p not in drop] + add


C234 = [
    [(0, 1, 1), (0, 1, 0), (0, 0, 0), (1, 0, 0)],
    [(0, 2, 1), (0, 2, 0), (1, 2, 0), (1, 1, 0)],
    [(0, 2, 3), (0, 2, 2), (1, 2, 2), (1, 1, 2)],
    [(0, 1, 3), (0, 1, 2), (0, 0, 2), (1, 0, 2)],
    [(0, 0, 1), (1, 0, 1), (1, 1, 1), (1, 1, 3)],
    [(1, 2, 1), (1, 2, 3), (1, 0, 3), (0, 0, 3)],
]


def c235():
    return c233_star() + [
        [(0, 1, 4), (0, 1, 3), (0, 2, 3), (1, 2, 3)],
        [(0, 0, 3), (0, 0, 4), (0, 2, 4), (1, 2, 4)],
        [(1, 0, 3), (1, 0, 4)],
    ]


C333 = [
    [(0, 0, 0), (0, 2, 0), (1, 2, 0), (1, 2, 1)],
    [(1, 1, 0), (2, 1, 0), (2, 2, 0), (2, 2, 1)],
    [(0, 2, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2)],
    [(1, 0, 1), (2, 0, 1), (2, 1, 1), (2, 1, 2)],
    [(0, 1, 0), (0, 1, 2), (0, 2, 2), (1, 2, 2)],
    [(0, 0, 1), (0, 0, 2), (2, 0, 2), (2, 2, 2)],
    [(1, 0, 2), (1, 0, 0), (2, 0, 0)],
]

C334 = [
    [(0, 0, 0), (0, 2, 0), (1, 2, 0), (1, 2, 1)],
    [(1, 1, 0), (2, 1, 0), (2, 2, 0), (2, 2, 1)],
    [(0, 2, 1), (0, 1, 1), (1, 1, 1), (1, 1, 2)],
    [(1, 0, 1), (2, 0, 1), (2, 1, 1), (2, 1, 2)],
    [(0, 1, 0), (0, 1, 2), (0, 2, 2), (1, 2, 2)],
    [(0, 0, 2), (2, 0, 2), (2, 2, 2), (2, 2, 3)],
    [(0, 1, 3), (1, 1, 3), (1, 0, 3), (1, 0, 2)],
    [(1, 0, 0), (2, 0, 0), (2, 0, 3), (2, 1, 3)],
    [(0, 0, 1), (0, 0, 3), (0, 2, 3), (1, 2, 3)],
]


def c236():
    return c233_star() + [
        [(0, 0, 4), (0, 0, 3), (1, 0, 3), (1, 2, 3)],
        [(0, 1, 3), (0, 1, 4), (0, 2, 4), (1, 2, 4)],
        [(0, 2, 3), (0, 2, 5), (1, 2, 5), (1, 1, 5)],
        [(0, 1, 5), (0, 0, 5), (1, 0, 5), (1, 0, 4)],
    ]


def c255():
    base = [p for p in c235() if p != [(1, 0, 3), (1, 0, 4)]]
    return base + [
        [(0, 4, 1), (0, 4, 0), (0, 3, 0), (1, 3, 0)],
        [(1, 4, 0), (1, 4, 1), (1, 3, 1), (0, 3, 1)],
        [(0, 4, 3), (0, 4, 2), (0, 3, 2), (1, 3, 2)],
        [(1, 4, 2), (1, 4, 3), (1, 3, 3), (0, 3, 3)],
        [(1, 0, 3), (1, 0, 4), (1, 4, 4)],
        [(0, 4, 4), (0, 3, 4), (1, 3, 4)],
    ]


def c355():
    base = [p for p in c235() if p != [(1, 0, 3), (1, 0, 4)]]
    return base + [
        [(0, 4, 0), (2, 4, 0), (2, 0, 0), (2, 0, 1)],
        [(0, 3, 0), (2, 3, 0), (2, 1, 0), (2, 1, 1)],
        [(0, 4, 1), (0, 3, 1), (1, 3, 1), (1, 3, 0)],
        [(1, 4, 0), (1, 4, 1), (2, 4, 1), (2, 2, 1)],
        [(1, 0, 3), (2, 0, 3), (2, 2, 3), (2, 2, 0)],
        [(1, 0, 4), (2, 0, 4), (2, 3, 4), (2, 3, 1)],
        [(0, 3, 2), (2, 3, 2), (2, 1, 2), (2, 1, 3)],
        [(0, 4, 4), (0, 4, 2), (2, 4, 2), (2, 0, 2)],
        [(0, 4, 3), (1, 4, 3), (1, 3, 3), (1, 3, 2)],
        [(0, 3, 3), (2, 3, 3), (2, 4, 3), (2, 4, 4)],
        [(0, 3, 4), (1, 3, 4), (1, 4, 4), (1, 4, 2)],
        [(2, 2, 2), (2, 2, 4), (2, 1, 4)],
    ]


STAR_NOTE = "derived: 2x3x3 entry with its two 3-vertex paths extended into layers 3 and 4"
H3_TABLES = {
    (2, 2, 2): (C222, []),
    (2, 3, 3): (C233, []),
    (2, 3, 4): (C234, []),
    (2, 3, 5): (c235(), [STAR_NOTE + ", plus 3 paths on layers 3-4"]),
    (3, 3, 3): (C333, []),
    (3, 3, 4): (C334, []),
    (2, 3, 6): (c236(), [STAR_NOTE + ", plus 4 paths on layers 3-5"]),
    (2, 5, 5): (
        c255(),
        [
            "derived: 2x3x5 entry minus the 2-vertex path (1,0,3)(1,0,4),",
            "plus 6 paths covering rows 3-4; axis k of the 2x3x5 box maps to axis k here",
        ],
    ),
    (3, 5, 5): (
        c355(),
        [
            "derived: 2x3x5 entry minus the 2-vertex path (1,0,3)(1,0,4),",
            "plus 12 paths covering layer 2 and rows 3-4;",
            "axis k of the 2x3x5 box maps to axis k here",
        ],
    ),
}

def write_hamming_fixtures():
    tables = [(key, table, []) for key, table in H2_TABLES.items()]
    tables += [(key, table, extra) for key, (table, extra) in H3_TABLES.items()]
    for key, table, extra in tables:
        family = f"hamming{len(key)}"
        closed_form = ip_hamming2 if len(key) == 2 else ip_hamming3
        spec = HammingSpec(key)
        cover = Cover([encode_coordinates(spec, v) for v in p] for p in table)
        report = verify_cover(make_hamming(spec), cover)
        if not report.valid:
            raise SystemExit(f"{family} {key}: cover failed verification: {report}")
        expected = closed_form(*key).value
        if len(cover.paths) != expected:
            raise SystemExit(f"{family} {key}: {len(cover.paths)} paths, expected {expected}")
        name = f"{family}_" + "-".join(str(s) for s in key) + ".cover"
        comments = [
            f"family: {family}",
            f"key: {','.join(str(s) for s in key)}",
            f"paths: {len(cover.paths)}",
            "source: built-in base table, entered by hand",
        ] + extra
        text = format_cover(cover, comments=comments)
        (FIXTURE_DIR / name).write_text(text, encoding="ascii")
        print(f"wrote {name} ({len(cover.paths)} paths)")


def main():
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    write_hamming_fixtures()
    print(f"fixtures in {FIXTURE_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
