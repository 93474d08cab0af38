"""Cover constructors and the base-cover table."""

import builtins
import hashlib
import os
import random
from collections import Counter
from itertools import combinations_with_replacement, permutations, product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from isopath import (
    ConstructionError,
    HammingSpec,
    InvalidSpecError,
    PartiteSpec,
    UnknownCoverKeyError,
    base_cover_lookup,
    cover_hamming,
    cover_hamming2,
    cover_hamming3,
    cover_multipartite,
    format_cover,
    ip_hamming,
    ip_hamming2,
    ip_hamming3,
    ip_multipartite,
    make_complete_multipartite,
    make_hamming,
    verify_cover,
)
from isopath import base_covers, construct, formulas
from isopath.base_covers import base_cover_table

from conftest import sorted_partitions


# SHA-256 of the loaded base-cover table below; any change to a stored
# key, path, path order or note changes it.
BASE_TABLE_SHA256 = (
    "7a39d0b0b98f76dd7053882a4d4b2eda2ddcb15271de3d6d27f9fb3bec1606d1"
)
# The digest over every key and its paths, without the notes.
BASE_PATHS_SHA256 = (
    "9d3bd7af7e1ab592889b24dec7efe53160d3fd19d5bf8d178c9b7b52ec4d3c24"
)


def _table_digest(entries, notes=True):
    """Every (family, key) in order, its paths' vertex tuples in order,
    then, if ``notes``, its note."""
    digest = hashlib.sha256()
    for (family, key), cover in sorted(entries):
        digest.update(f"{family} {','.join(map(str, key))}\n".encode("ascii"))
        for p in cover.paths:
            digest.update((" ".join(map(str, p)) + "\n").encode("ascii"))
        if notes:
            digest.update(f"# {cover.note}\n".encode("ascii"))
    return digest.hexdigest()


class TestBaseCoverTable:
    def test_lookup_counts(self):
        assert len(base_cover_lookup("hamming3", (2, 3, 3)).paths) == 5
        assert len(base_cover_lookup("hamming2", (2, 3)).paths) == 2

    def test_keys_are_canonicalized(self):
        a = base_cover_lookup("hamming3", (3, 2, 3))
        b = base_cover_lookup("hamming3", (2, 3, 3))
        assert a.paths == b.paths

    def test_unknown_key(self):
        with pytest.raises(UnknownCoverKeyError):
            base_cover_lookup("hamming3", (9, 9, 9))
        with pytest.raises(UnknownCoverKeyError):
            base_cover_lookup("nonsense", (2, 2))
        # int would truncate 2.5 to the (2, 3) key, and raise a bare
        # ValueError on "x"
        with pytest.raises(UnknownCoverKeyError):
            base_cover_lookup("hamming2", (2.5, 3))
        with pytest.raises(UnknownCoverKeyError):
            base_cover_lookup("hamming2", ("x", 3))

    def test_every_entry_is_valid_and_formula_sized(self):
        for (family, key), cover in sorted(base_cover_table().items()):
            assert key == tuple(sorted(key)), (family, key)
            spec = HammingSpec(key)
            expected = ip_hamming(spec).value
            report = verify_cover(make_hamming(spec), cover)
            assert report.valid, (family, key)
            assert len(cover.paths) == expected, (family, key)

    def test_table_is_byte_stable(self):
        assert _table_digest(base_cover_table().items()) == BASE_TABLE_SHA256

    def test_paths_are_byte_stable(self):
        assert _table_digest(base_cover_table().items(), notes=False) == BASE_PATHS_SHA256

    def test_lookup_returns_the_stored_cover(self):
        # covers are immutable, so the table's entry is handed out as it is
        a = base_cover_lookup("hamming3", (3, 2, 3))
        assert a is base_cover_lookup("hamming3", (2, 3, 3))
        assert a is base_cover_table()[("hamming3", (2, 3, 3))]

    def test_a_lost_key_raises_instead_of_looping(self, monkeypatch):
        # no split rule turns a lost base key into itself or into smaller
        # boxes without end; the constructor raises at once or builds a
        # cover its count check rejects
        full = base_cover_table()
        for family, key in sorted(full):
            table = dict(full)
            del table[(family, key)]
            monkeypatch.setattr(base_covers, "_TABLE", table)
            with pytest.raises((UnknownCoverKeyError, ConstructionError)):
                cover_hamming(HammingSpec(key))

    @pytest.mark.parametrize(
        "text,message",
        [
            ("00 01", "base cover hamming2 (2, 2) failed verification (uncovered=(2, 3))"),
            ("00 01\n10 11\n00 10", "base cover hamming2 (2, 2) has 3 paths, expected 2"),
            (
                "000 001 011 111",
                "base cover hamming3 (2, 2, 2) failed verification (uncovered=(2, 4, 5, 6))",
            ),
            (
                "000 001 011 111\n101 100 110 010\n000 001",
                "base cover hamming3 (2, 2, 2) has 3 paths, expected 2",
            ),
        ],
        ids=["invalid", "size", "invalid-r3", "size-r3"],
    )
    def test_a_damaged_coordinate_table_fails_to_load(self, monkeypatch, text, message):
        key = (2,) * len(text.split()[0])
        monkeypatch.setattr(base_covers, "_COORDINATES", {key: text})
        with pytest.raises(ConstructionError) as info:
            base_covers._load_table()
        assert str(info.value) == message

    def test_the_table_loads_without_a_file(self, monkeypatch):
        # the covers live in the module itself, so an install ships no data
        def refuse(*args, **kwargs):
            raise OSError("no file may be read")

        full = base_cover_table()
        monkeypatch.setattr(base_covers, "_TABLE", None)
        monkeypatch.setattr(builtins, "open", refuse)
        monkeypatch.setattr(os, "listdir", refuse)
        table = base_cover_table()
        monkeypatch.undo()
        assert table.keys() == full.keys()
        assert all(table[entry].paths == full[entry].paths for entry in full)


def _random_partitions(seed, count, lo, hi):
    """``count`` seeded part-size vectors of ``lo``..``hi`` vertices, in turn
    near-balanced, with a dominant part (more than 2n/3), with many odd parts
    (mostly of sizes 1 and 3) and with uniform random parts."""
    rng = random.Random(seed)

    def composition(n, parts):
        cuts = [0, *sorted(rng.sample(range(1, n), parts - 1)), n]
        return [b - a for a, b in zip(cuts, cuts[1:])]

    out = []
    for k in range(count):
        n = rng.randint(lo, hi)
        shape = k % 4
        if shape == 0:
            parts = rng.randint(2, n // 3)
            sizes = [n // parts + (i < n % parts) for i in range(parts)]
            for i in range(parts - 1):  # move up to a quarter to the next part
                shift = rng.randint(0, sizes[i] // 4)
                sizes[i] -= shift
                sizes[i + 1] += shift
        elif shape == 1:
            big = rng.randint(2 * n // 3 + 1, n - 1)
            sizes = [big, *composition(n - big, rng.randint(1, n - big))]
        elif shape == 2:
            sizes = []
            while sum(sizes) < n:
                sizes.append(min(rng.choice((1, 1, 3, 3, 5, 2)), n - sum(sizes)))
        else:
            sizes = composition(n, rng.randint(2, n))
        out.append(tuple(sorted(sizes, reverse=True)))
    return out


class TestCoverMultipartite:
    def test_dominant_hub_shape(self):
        cover = cover_multipartite(PartiteSpec((5, 1)))
        assert len(cover.paths) == 3
        # hub vertex 5 carries two 3-paths and the leftover 2-path
        assert list(cover.paths) == [
            (0, 5, 1),
            (2, 5, 3),
            (4, 5),
        ]

    def test_single_edge(self):
        cover = cover_multipartite(PartiteSpec((1, 1)))
        assert cover.paths == ((0, 1),)

    def test_2_2_1(self):
        spec = PartiteSpec((2, 2, 1))
        cover = cover_multipartite(spec)
        assert len(cover.paths) == 2
        g = make_complete_multipartite(spec)
        assert verify_cover(g, cover).valid

    def test_3_3_2_covers_everything(self):
        spec = PartiteSpec((3, 3, 2))
        cover = cover_multipartite(spec)
        assert len(cover.paths) == 3
        assert {v for p in cover.paths for v in p} == set(range(8))

    def test_rejects_single_part(self):
        with pytest.raises(InvalidSpecError):
            cover_multipartite(PartiteSpec((3,)))

    # every spec with n <= 20, then seeded draws of 21..600 vertices
    @pytest.mark.parametrize(
        "sizes", sorted_partitions(20) + _random_partitions(20, 300, 21, 600)
    )
    def test_valid_formula_sized_normal_form(self, sizes):
        spec = PartiteSpec(sizes)
        g = make_complete_multipartite(spec)
        cover = cover_multipartite(spec)
        report = verify_cover(g, cover, strict_normal_form=True)
        assert report.valid, sizes
        assert report.normal_form, sizes
        assert len(cover.paths) == ip_multipartite(spec).value

    def test_deterministic_serialization(self):
        spec = PartiteSpec((4, 3, 2, 1))
        assert format_cover(cover_multipartite(spec)) == format_cover(
            cover_multipartite(spec)
        )


class TestCoverHamming2:
    def test_3_3_is_the_stored_table(self):
        cover = cover_hamming2(3, 3)
        table = base_cover_lookup("hamming2", (3, 3))
        assert cover.paths == table.paths

    def test_2_4_size(self):
        assert len(cover_hamming2(2, 4).paths) == 3

    def test_5_4_composition(self):
        cover = cover_hamming2(5, 4)
        assert len(cover.paths) == 7
        g = make_hamming(HammingSpec((5, 4)))
        assert verify_cover(g, cover).valid

    def test_factor_order_is_respected(self):
        g = make_hamming(HammingSpec((4, 7)))
        assert verify_cover(g, cover_hamming2(4, 7)).valid

    @pytest.mark.parametrize("a", range(2, 9))
    def test_small_range(self, a):
        for b in range(2, 9):
            g = make_hamming(HammingSpec((a, b)))
            cover = cover_hamming2(a, b)
            assert verify_cover(g, cover).valid
            assert len(cover.paths) == ip_hamming2(a, b).value

    def test_rejects_small_factor(self):
        with pytest.raises(InvalidSpecError):
            cover_hamming2(1, 4)


class TestCoverHamming3:
    def test_2_2_2_is_the_stored_table(self):
        cover = cover_hamming3(2, 2, 2)
        table = base_cover_lookup("hamming3", (2, 2, 2))
        assert cover.paths == table.paths

    def test_exceptional_2_2_5(self):
        cover = cover_hamming3(2, 2, 5)
        assert len(cover.paths) == 6
        g = make_hamming(HammingSpec((2, 2, 5)))
        report = verify_cover(g, cover)
        assert report.valid
        assert report.overlap == 4  # the doubled layer

    def test_3_3_4_size(self):
        assert len(cover_hamming3(3, 3, 4).paths) == 9

    def test_2_5_7_recursion(self):
        cover = cover_hamming3(2, 5, 7)
        assert len(cover.paths) == 18
        g = make_hamming(HammingSpec((2, 5, 7)))
        assert verify_cover(g, cover).valid

    def test_each_base_key_is_looked_up_once(self, monkeypatch):
        # K5 x K7 x K9 places (2, 3, 4) under 4 box frames, (2, 2, 2) and
        # (3, 3, 4) under 2 each and (3, 5, 5) under 1; each key is still
        # looked up once
        calls = Counter()
        lookup = construct.base_cover_lookup

        def counted(family, key):
            calls[family, key] += 1
            return lookup(family, key)

        monkeypatch.setattr(construct, "base_cover_lookup", counted)
        assert len(cover_hamming3(5, 7, 9).paths) == ip_hamming3(5, 7, 9).value
        assert calls == {
            ("hamming3", key): 1
            for key in ((2, 2, 2), (2, 3, 4), (3, 3, 4), (3, 5, 5))
        }

    def test_size_is_permutation_invariant(self):
        for triple in ((2, 3, 5), (2, 2, 7), (4, 6, 8), (3, 5, 5)):
            sizes = {len(cover_hamming3(*p).paths) for p in permutations(triple)}
            assert len(sizes) == 1

    def test_each_permutation_is_valid_on_its_own_host(self):
        for factors in permutations((2, 3, 4)):
            g = make_hamming(HammingSpec(factors))
            assert verify_cover(g, cover_hamming3(*factors)).valid

    def test_deterministic_serialization(self):
        assert format_cover(cover_hamming3(3, 4, 5)) == format_cover(
            cover_hamming3(3, 4, 5)
        )

    def test_rejects_small_factor(self):
        with pytest.raises(InvalidSpecError):
            cover_hamming3(2, 2, 1)


class TestCoverHamming:
    def test_one_factor_is_rejected(self):
        # HammingSpec admits one factor, but no closed form or tiling does
        spec = HammingSpec((5,))
        with pytest.raises(InvalidSpecError):
            ip_hamming(spec)
        with pytest.raises(InvalidSpecError):
            cover_hamming(spec)

    def test_builds_no_spec_of_its_own(self, monkeypatch):
        # the spec is validated once, by its caller; ip_hamming builds none
        # either
        spec = HammingSpec((20, 21))
        want = cover_hamming2(20, 21)

        def no_spec(factors):
            raise AssertionError(f"HammingSpec({factors!r}) built")

        monkeypatch.setattr(construct, "HammingSpec", no_spec)
        monkeypatch.setattr(formulas, "HammingSpec", no_spec)
        assert cover_hamming(spec) == want

    def test_a_slab_chain_is_one_frame(self, monkeypatch):
        # K2 x K100 is 32 slabs of 2 x 3 cut off one axis, then the base key
        # (2, 4): one frame for the chain, one for the slabs and one for the
        # base key, where a frame per rest took 34; the cuts stay 32
        frames = []
        splits = []
        frame, split = construct._frame, construct._split

        def counted_frame(*args):
            *_, sizes, steps = args
            frames.append(sizes)
            return frame(*args)

        def counted_split(key):
            splits.append(key)
            return split(key)

        monkeypatch.setattr(construct, "_frame", counted_frame)
        monkeypatch.setattr(construct, "_split", counted_split)
        assert len(cover_hamming(HammingSpec((2, 100))).paths) == 67
        assert frames == [(2, 100), (2, 3), (2, 4)]
        assert splits == [(2, c) for c in range(100, 6, -3)]

    @pytest.mark.parametrize(
        "factors, cuts", [((14, 15), 14), ((16, 18), 18), ((20, 21), 22)]
    )
    def test_each_rest_is_cut_once(self, monkeypatch, factors, cuts):
        # the slabs (3, 17), (3, 15), (3, 14), ... of 20 x 21 are rests of
        # the chains of its first two slabs, under the same steps, and take
        # their cuts; cutting every rest again took 23, 34 and 47
        splits = []
        split = construct._split

        def counted_split(key):
            splits.append(key)
            return split(key)

        monkeypatch.setattr(construct, "_split", counted_split)
        spec = HammingSpec(factors)
        assert len(cover_hamming(spec).paths) == ip_hamming(spec).value
        assert len(splits) == cuts

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.integers(2, 40), st.integers(2, 40)),
            st.tuples(st.integers(2, 12), st.integers(2, 12), st.integers(2, 12)),
        )
    )
    def test_the_tiling_matches_a_fresh_cut_of_every_box(self, factors):
        spec = HammingSpec(factors)
        assert cover_hamming(spec).paths == _reference_tile(spec)


def _reference_tile(spec):
    """The paths of ``cover_hamming(spec)`` with every box cut afresh, by
    recursion and with no frame or chain reuse: a box is its sides in its
    parent's sorted frame, the index stride of each and its corner's
    index; sorted stably, it is a base key, placed from the base cover's
    coordinates, or cut by ``_split``, its sub-boxes placed in order."""
    table = base_cover_table()
    family = f"hamming{spec.r}"
    paths = []

    def place(sizes, steps, start):
        order = sorted(range(len(sizes)), key=sizes.__getitem__)
        key = tuple(sizes[i] for i in order)
        steps = tuple(steps[i] for i in order)
        if (family, key) in table:
            coordinates = list(product(*map(range, key)))
            for path in table[family, key].paths:
                paths.append(tuple(
                    start + sum(x * s for x, s in zip(coordinates[v], steps)) for v in path
                ))
            return
        subs = construct._split(key)
        assert subs, key
        for sub, corner in subs:
            place(sub, steps, start + sum(x * s for x, s in zip(corner, steps)))

    place(spec.factors, spec.strides, 0)
    return tuple(paths)


def _cells_held(key, subs):
    """How many sub-boxes hold each cell of the box cut at every face of a
    sub-box, and how many such cells the box has."""
    cuts = []
    for axis, side in enumerate(key):
        faces = {0, side}
        for sizes, corner in subs:
            faces.update((corner[axis], corner[axis] + sizes[axis]))
        cuts.append(sorted(faces))
    held = Counter()
    for sizes, corner in subs:
        held.update(product(*(
            range(cut.index(o), cut.index(o + s)) for cut, o, s in zip(cuts, corner, sizes)
        )))
    return held, prod(len(cut) - 1 for cut in cuts)


def _generic_cut(key):
    """The slab rule without its exceptions: r + 1 layers off the largest
    factor c when c >= r + 3, else 2, then the rest."""
    r, c = len(key), key[-1]
    k = r + 1 if c >= r + 3 else 2
    head, corner = key[:-1], (0,) * (r - 1)
    return [(head + (k,), corner + (0,)), (head + (c - k,), corner + (k,))]


def _paper_exception(key):
    """K2 x K2 x K_odd, the one family whose ip is above the counting bound."""
    return len(key) == 3 and sorted(key)[:2] == [2, 2] and max(key) % 2 == 1


def _cut_exception(key):
    """The boxes ``_split`` cuts its own way: 2 x 2 x odd, all-even with
    largest side above 2, and (2, 5, 6)."""
    all_even = all(n % 2 == 0 for n in key) and max(key) > 2
    return len(key) == 3 and (_paper_exception(key) or all_even or key == (2, 5, 6))


def _ip(key):
    return ip_hamming(HammingSpec(key)).value


@pytest.mark.parametrize("r", [2, 3])
def test_every_split_shrinks_and_tiles_its_box(r):
    """Every sorted key of r factors with sides up to 24 that is not a base
    key splits into smaller boxes inside it.  Except for 2 x 2 x odd, whose
    last two blocks share one 2 x 2 layer, the sub-boxes tile the box.  Only
    the cut exceptions depart from the generic cut, so a slab cut off a
    largest factor c >= r + 3 has r + 1 layers, and a new exception fails
    here until the proof in ``_split``'s docstring covers it."""
    table = base_cover_table()
    for key in combinations_with_replacement(range(2, 25), r):
        if (f"hamming{r}", key) in table:
            continue
        subs = construct._split(key)
        assert subs, key
        # the grid of (2, 2, 4) is its 2-layer cut
        departs = _cut_exception(key) and key != (2, 2, 4)
        assert (subs != _generic_cut(key)) == departs, key
        n = prod(key)
        for sizes, corner in subs:
            assert len(sizes) == len(corner) == r, key
            assert all(0 <= o and o + s <= side for s, o, side in zip(sizes, corner, key)), key
            assert prod(sizes) < n, key
        total = sum(prod(sizes) for sizes, _ in subs)
        if key[:2] == (2, 2) and r == 3 and key[2] % 2:
            assert total == n + 4, key
            continue
        held, cells = _cells_held(key, subs)
        assert set(held.values()) == {1} and len(held) == cells, key
        assert total == n, key


@pytest.mark.parametrize("r", [2, 3])
def test_every_cut_starts_at_its_box_corner(r):
    """``_frame`` re-bases a reused chain suffix by its first shift, which
    is the cut box's own start only if the first sub-box of every cut sits
    at the box's corner."""
    table = base_cover_table()
    for key in combinations_with_replacement(range(2, 25), r):
        if (f"hamming{r}", key) not in table:
            assert construct._split(key)[0][1] == (0,) * r, key


# The keys the proof in ``_split``'s docstring checks one by one: every
# non-base key cut into 2 layers, which needs a largest side c <= r + 2.
TWO_LAYER_KEYS = [
    (3, 4), (4, 4),
    (2, 4, 5), (3, 3, 5), (3, 4, 4), (3, 4, 5), (4, 4, 5), (4, 5, 5), (5, 5, 5),
]


def test_the_proofs_finite_part():
    """The 2-layer cuts and the fixed cut of (2, 5, 6) add ip exactly, and
    a slab cut could yield a 2 x 2 x odd child only from a (2, b, 6) with b
    odd, which the table or the fixed cut takes instead."""
    table = base_cover_table()
    small = [
        key
        for r in (2, 3)
        for key in combinations_with_replacement(range(2, r + 3), r)
        if (f"hamming{r}", key) not in table and not _cut_exception(key)
    ]
    assert small == TWO_LAYER_KEYS
    for key in [*small, (2, 5, 6)]:
        subs = construct._split(key)
        assert sum(_ip(tuple(sorted(sizes))) for sizes, _ in subs) == _ip(key), key
    slab_to_exception = {
        key
        for key in combinations_with_replacement(range(2, 25), 3)
        if key[-1] >= 6 and not _paper_exception(key)
        and any(_paper_exception(sizes) for sizes, _ in _generic_cut(key))
    }
    assert slab_to_exception == {(2, 3, 6), (2, 5, 6)}
    assert ("hamming3", (2, 3, 6)) in table


def test_the_tiling_counts_ip():
    """A count-only tiling, bottom up over sorted keys in order of vertex
    count: a base key counts its table entry's paths, any other key the
    counts of its sub-boxes.  It must give ip on every 2-factor key with
    sides up to 100 and every 3-factor key with sides up to 30."""
    table = base_cover_table()
    keys = [
        key
        for r, top in ((2, 100), (3, 30))
        for key in combinations_with_replacement(range(2, top + 1), r)
    ]
    count = {}
    for key in sorted(keys, key=prod):
        entry = table.get((f"hamming{len(key)}", key))
        if entry is not None:
            count[key] = len(entry.paths)
        else:
            count[key] = sum(count[tuple(sorted(s))] for s, _ in construct._split(key))
    assert len(keys) == 9445
    assert [key for key in keys if count[key] != _ip(key)] == []


def _differing(x, y):
    return sum(a != b for a, b in zip(x, y))


@pytest.mark.parametrize("factors", [(2, 3100), (2, 3, 4100), (3, 3, 2100)])
def test_covers_past_the_recursion_limit(factors):
    """More than 1,000 slabs each.  Checked from coordinates, without a
    graph: in a Hamming graph two vertices are adjacent iff they differ in
    one coordinate, and their distance is the number of coordinates in
    which they differ, so a walk is isometric iff its ends differ in as
    many coordinates as it has edges."""
    spec = HammingSpec(factors)
    cover = cover_hamming(spec)
    assert len(cover.paths) == ip_hamming(spec).value
    assert {v for p in cover.paths for v in p} == set(range(spec.n))
    # the coordinates of each vertex, in index order
    table = list(product(*map(range, factors)))
    for p in cover.paths:
        coords = [table[v] for v in p]
        assert all(_differing(x, y) == 1 for x, y in zip(coords, coords[1:]))
        assert _differing(coords[0], coords[-1]) == len(coords) - 1


# SHA-256 of the Hamming sweep below; any change to a constructed cover, its
# path order or its note changes it.
HAMMING_SWEEP_SHA256 = (
    "5effcab1170f277b6aa1d8c5efdaf0bb5aa63bc6aa45b460176a4543580074c9"
)


def _hamming_digest(specs):
    """SHA-256 over ``specs`` in order: the spec line, then the cover text
    with its note as a comment, or the exception type for a spec that
    raises."""
    digest = hashlib.sha256()
    for factors in specs:
        digest.update((",".join(map(str, factors)) + "\n").encode("ascii"))
        try:
            cover = cover_hamming(HammingSpec(factors))
        except Exception as exc:
            digest.update(f"raises {type(exc).__name__}\n".encode("ascii"))
            continue
        digest.update(f"# {cover.note}\n{format_cover(cover)}".encode("ascii"))
    return digest.hexdigest()


def _hamming_sweep_specs():
    """Every 2-factor spec with sides 2..40, then every 3-factor spec with
    sides 2..12."""
    specs = [(a, b) for a, b in product(range(2, 41), repeat=2)]
    specs += [(a, b, c) for a, b, c in product(range(2, 13), repeat=3)]
    return specs


def _sorted_three_factor_specs_past_the_sweep():
    """Every a <= b <= c with 2 <= a and 13 <= c <= 20: 1,044 specs."""
    return [
        (a, b, c)
        for c in range(13, 21)
        for a in range(2, c + 1)
        for b in range(a, c + 1)
    ]


def test_hamming_sweep_is_byte_stable():
    """Every 2-factor spec with sides 2..40 and every 3-factor spec with
    sides 2..12."""
    assert _hamming_digest(_hamming_sweep_specs()) == HAMMING_SWEEP_SHA256


# SHA-256 of the Hamming specs below, past the sweep's sides, up to the
# largest specs the benchmark's construct mix builds; same format as the
# sweep digest.
HAMMING_LARGE_SHA256 = (
    "4a1dc22facd58d87bc914a16c058fce345c65da8bca785bdfd9e9c497a3f83a2"
)


def test_hamming_covers_past_the_sweep_are_byte_stable():
    """2 x b for b in 41..100, 2 x 2 x c for odd c in 13..61, 3 x 3 x c
    for c in 13..42, 14 x 15, 20 x 21 and 12 x 12 x 12."""
    specs = [(2, b) for b in range(41, 101)]
    specs += [(2, 2, c) for c in range(13, 62, 2)]
    specs += [(3, 3, c) for c in range(13, 43)]
    specs += [(14, 15), (20, 21), (12, 12, 12)]
    assert _hamming_digest(specs) == HAMMING_LARGE_SHA256


# SHA-256 of every sorted 3-factor spec whose largest side is 13..20; same
# format as the sweep digest.  It pins the sub-boxes that only bigger boxes
# reach: composites such as (2, 5, 10) or (5, 5, 9), 2 x 2 x 2 grids inside
# odd boxes and long slab chains.
HAMMING3_BEYOND_SWEEP_SHA256 = (
    "cfd76c62a34c40c345e34579be4e0feb00da4d324adc08ff3b21900ce3eda65b"
)


def test_sorted_three_factor_covers_past_the_sweep_are_byte_stable():
    specs = _sorted_three_factor_specs_past_the_sweep()
    assert len(specs) == 1044
    assert _hamming_digest(specs) == HAMMING3_BEYOND_SWEEP_SHA256


# SHA-256 of the specs of HAMMING_SWEEP_SHA256 and
# HAMMING3_BEYOND_SWEEP_SHA256, except the 3-factor specs whose factors
# are all 1 mod 4 and at least 5: cutting slabs of 4 layers
# keeps each factor's residue mod 4, so these are the only boxes whose
# tiling reaches a (5, 5, 5) box.  Same format as the sweep digest.
HAMMING_OFF_5_5_5_SHA256 = (
    "b19fc759a1ab7aa54c78a22a4a0d1ea7b3b34e0775c3c730caaa99a07de2f7ba"
)


def test_hamming_covers_that_never_reach_5_5_5_are_byte_stable():
    """The sweep and the sorted 3-factor specs past it, without the 8 + 16
    specs whose tiling passes through (5, 5, 5)."""
    specs = _hamming_sweep_specs() + _sorted_three_factor_specs_past_the_sweep()
    kept = [f for f in specs if not (len(f) == 3 and all(n >= 5 and n % 4 == 1 for n in f))]
    assert len(specs) - len(kept) == 8 + 16
    assert _hamming_digest(kept) == HAMMING_OFF_5_5_5_SHA256


# SHA-256 of the multipartite sweep below; any change to a constructed cover,
# its path order or its note changes it.
MULTIPARTITE_SWEEP_SHA256 = (
    "85cf279c5f06cd13f9458d9a56e4a4ba61b0fef1e1d6cc2b955262e34961de1b"
)


def test_multipartite_sweep_is_byte_stable():
    """Every part-size vector with n <= 16: the spec line, then the cover
    text with its note as a comment, or the exception type for a spec that
    raises."""
    digest = hashlib.sha256()
    for sizes in sorted_partitions(16):
        digest.update((",".join(map(str, sizes)) + "\n").encode("ascii"))
        try:
            cover = cover_multipartite(PartiteSpec(sizes))
        except Exception as exc:
            digest.update(f"raises {type(exc).__name__}\n".encode("ascii"))
            continue
        digest.update(f"# {cover.note}\n{format_cover(cover)}".encode("ascii"))
    assert digest.hexdigest() == MULTIPARTITE_SWEEP_SHA256


# SHA-256 of the multipartite specs below, past the sweep's n <= 16: the
# largest spec of the benchmark's construct mix, two with many parts and
# seeded draws; same format as the sweep digest.
MULTIPARTITE_LARGE_SHA256 = (
    "3b41c2629f45e995bb4dcf04026834dec54b2a01a0da3836b5dfbb72c8d7fb8e"
)


def test_multipartite_covers_past_the_sweep_are_byte_stable():
    """K_{300,200,100}, parts 1..83, 61 parts of 7, and 90 seeded draws of
    21..220 vertices of each shape."""
    specs = [(300, 200, 100), tuple(range(83, 0, -1)), (7,) * 61]
    specs += _random_partitions(27, 360, 21, 220)
    digest = hashlib.sha256()
    for sizes in specs:
        digest.update((",".join(map(str, sizes)) + "\n").encode("ascii"))
        cover = cover_multipartite(PartiteSpec(sizes))
        digest.update(f"# {cover.note}\n{format_cover(cover)}".encode("ascii"))
    assert digest.hexdigest() == MULTIPARTITE_LARGE_SHA256
