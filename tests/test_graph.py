"""Graph generators, distances, coordinate codecs, and the text format."""

import hashlib
import tracemalloc
from itertools import combinations_with_replacement, product
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from isopath import (
    FormatError,
    Graph,
    HammingSpec,
    InvalidPairingError,
    InvalidSpecError,
    OutOfRangeError,
    PartiteSpec,
    all_pairs_distances,
    encode_coordinates,
    format_graph,
    make_augmented_multipartite,
    make_complete_multipartite,
    make_hamming,
    parse_graph,
)
from isopath import graph as graph_module
from isopath.cli import _vertex_labels
from isopath.graph import MAX_EDGES, sorted_partitions

from conftest import spec_pairings


# Hamming specs with 1 to 3 factors of sides 2..6, then every multipartite
# spec with 2 <= n <= 8 and at least two parts.
FAMILY_SWEEP = [
    HammingSpec(factors) for r in (1, 2, 3) for factors in product(range(2, 7), repeat=r)
] + [PartiteSpec(sizes) for sizes in sorted_partitions(8)]


# SHA-256 of the sweep's ``format_graph`` text and the CLI's DOT labels; any
# change to an edge, its order or a label changes it.  The specs' reprs are
# not hashed: they are the test's own input, not the program's output.
FAMILY_SWEEP_SHA256 = (
    "8f007fc79ece5f7e4e9bd2026f8c198e2fb93ad37106563ac5e62073d80ee73d"
)


# Each malformed graph file and the message of its FormatError.  The last
# holds an edge out of range in the first block of lines and a bad line in
# the second: the bad line is reported.
EARLY_RANGE_ERROR_LATE_BAD_LINE = "p 100 5000\ne 0 100\n" + "e 1 2\n" * 4998 + "e 1 x\n"
MALFORMED_GRAPHS = {
    "e 0 1\n": "line 1: edge before problem line",
    "p 2\n": "line 1: expected 'p <n> <m>'",
    "p 2 1\ne 0 5\n": "edge (0,5) out of range for n=2",
    "p 2 2\ne 0 1\n": "problem line declares 2 edges, file has 1",
    "p 2 1\nx 0 1\n": "line 2: unknown record 'x'",
    "p 2 1\ne 0 one\n": "line 2: bad edge line",
    "p 3 2\ne 0 1\ne 1 0\n": "problem line declares 2 edges, file has 1 distinct",
    EARLY_RANGE_ERROR_LATE_BAD_LINE: "line 5001: bad edge line",
    "p x 1\n": "line 1: bad problem line",
    "p -1 0\n": "vertex count must be nonnegative",
    # before the range error of edge (0,1)
    "p -1 1\ne 0 1\n": "vertex count must be nonnegative",
}


def spec_id(spec):
    if isinstance(spec, HammingSpec):
        return "hamming-" + ",".join(map(str, spec.factors))
    return "multipartite-" + ",".join(map(str, spec.sizes))


def family_graph(spec):
    if isinstance(spec, HammingSpec):
        return make_hamming(spec)
    return make_complete_multipartite(spec)


def cross_part_pairs(sizes):
    # independent count of inter-part pairs, straight from the definition
    total = 0
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            total += sizes[i] * sizes[j]
    return total


class TestPartiteSpec:
    def test_sorts_sizes_non_increasing(self):
        spec = PartiteSpec((2, 3, 3))
        assert spec.sizes == (3, 3, 2)
        # one graph, one spec, whatever order the sizes came in
        assert spec == PartiteSpec((3, 2, 3))

    def test_derived_quantities(self):
        spec = PartiteSpec((3, 3, 2))
        assert (spec.n, spec.r, spec.alpha) == (8, 3, 2)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(InvalidSpecError):
            PartiteSpec(())
        with pytest.raises(InvalidSpecError):
            PartiteSpec((3, 0))


class TestSortedPartitions:
    def test_small_listing(self):
        assert sorted_partitions(4) == [
            (1, 1), (2, 1), (1, 1, 1), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)
        ]

    def test_matches_brute_force(self):
        max_n = 12
        got = sorted_partitions(max_n)
        want = {
            tuple(sorted(parts, reverse=True))
            for r in range(2, max_n + 1)
            for parts in combinations_with_replacement(range(1, max_n), r)
            if sum(parts) <= max_n
        }
        assert set(got) == want
        assert len(got) == len(want)
        assert got == sorted(got, key=lambda sizes: (sum(sizes), [-s for s in sizes]))


class TestHammingSpec:
    def test_rejects_unit_factor(self):
        with pytest.raises(InvalidSpecError):
            HammingSpec((1, 3))

    def test_rejects_too_many_factors(self):
        with pytest.raises(InvalidSpecError):
            HammingSpec((2, 2, 2, 2))

    def test_derived_quantities(self):
        spec = HammingSpec((2, 3, 5))
        assert (spec.n, spec.r) == (30, 3)


class TestCompleteMultipartite:
    def test_two_singletons_is_an_edge(self):
        g = make_complete_multipartite(PartiteSpec((1, 1)))
        assert (g.n, g.m) == (2, 1)

    def test_2_2_is_the_4_cycle(self):
        g = make_complete_multipartite(PartiteSpec((2, 2)))
        assert (g.n, g.m) == (4, 4)
        assert all(len(g.neighbors(v)) == 2 for v in range(4))

    def test_3_3_2_edge_count(self):
        g = make_complete_multipartite(PartiteSpec((3, 3, 2)))
        assert g.n == 8
        assert g.m == cross_part_pairs((3, 3, 2)) == 21

    def test_part_blocks_and_labels(self):
        spec = PartiteSpec((2, 3))
        g = make_complete_multipartite(spec)
        assert _vertex_labels(spec) == ["0:0", "0:1", "0:2", "1:0", "1:1"]
        assert not g.has_edge(0, 1)
        assert g.has_edge(0, 3)

    def test_single_part_rejected(self):
        with pytest.raises(InvalidSpecError):
            make_complete_multipartite(PartiteSpec((4,)))


class TestAugmentedMultipartite:
    def test_size2_parts_add_nothing(self):
        plain = make_complete_multipartite(PartiteSpec((2, 2)))
        augmented = make_augmented_multipartite(
            PartiteSpec((2, 2)), [[(0, 1)], [(0, 1)]]
        )
        assert list(plain.edges()) == list(augmented.edges())

    def test_4_2_gains_the_non_matching_edges(self):
        g = make_augmented_multipartite(PartiteSpec((4, 2)), [[(0, 1), (2, 3)], [(0, 1)]])
        assert g.m == 12
        for extra in ((0, 2), (0, 3), (1, 2), (1, 3)):
            assert g.has_edge(*extra)
        assert not g.has_edge(0, 1)
        assert not g.has_edge(2, 3)

    def test_3_2_gains_two_edges(self):
        g = make_augmented_multipartite(PartiteSpec((3, 2)), [[(0, 1)], [(0, 1)]])
        assert g.m == 6 + 2
        assert g.has_edge(0, 2) and g.has_edge(1, 2)
        assert not g.has_edge(0, 1)

    def test_designated_pairs_at_distance_2_rest_at_1(self):
        for sizes in ((4, 2), (5, 3), (3, 3, 2)):
            for pairings in spec_pairings(sizes, 3):
                spec = PartiteSpec(sizes)
                g = make_augmented_multipartite(spec, pairings)
                d = all_pairs_distances(g)
                offsets = spec.part_offsets()
                designated = {
                    (offsets[i] + a, offsets[i] + b)
                    for i, pairs in enumerate(pairings)
                    for a, b in pairs
                }
                for u in range(g.n):
                    for v in range(u + 1, g.n):
                        want = 2 if (u, v) in designated else 1
                        assert d[u][v] == want

    def test_one_part_is_a_clique_minus_a_matching(self):
        g = make_augmented_multipartite(PartiteSpec((4,)), [[(0, 1), (2, 3)]])
        assert list(g.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]
        g = make_augmented_multipartite(PartiteSpec((3,)), [[(0, 2)]])
        assert list(g.edges()) == [(0, 1), (1, 2)]

    def test_one_part_of_two_is_edgeless(self):
        with pytest.raises(InvalidSpecError, match="disconnected"):
            make_augmented_multipartite(PartiteSpec((2,)), [[(0, 1)]])

    def test_pairing_validation(self):
        spec = PartiteSpec((4, 2))
        with pytest.raises(InvalidPairingError):
            make_augmented_multipartite(spec, [[(0, 1)], [(0, 1)]])
        with pytest.raises(InvalidPairingError):
            make_augmented_multipartite(spec, [[(0, 1), (1, 2)], [(0, 1)]])
        with pytest.raises(InvalidPairingError):
            make_augmented_multipartite(spec, [[(0, 1), (2, 4)], [(0, 1)]])
        with pytest.raises(InvalidPairingError):
            make_augmented_multipartite(spec, [[(0, 1), (2, 3)]])


class TestHamming:
    def test_2_2_is_the_4_cycle(self):
        g = make_hamming(HammingSpec((2, 2)))
        assert (g.n, g.m) == (4, 4)

    def test_2_2_2_is_the_3_cube(self):
        g = make_hamming(HammingSpec((2, 2, 2)))
        assert (g.n, g.m) == (8, 12)
        assert all(len(g.neighbors(v)) == 3 for v in range(8))

    def test_3_3_degrees(self):
        g = make_hamming(HammingSpec((3, 3)))
        assert (g.n, g.m) == (9, 18)
        assert all(len(g.neighbors(v)) == 4 for v in range(9))

    def test_labels_are_coordinate_tuples(self):
        labels = _vertex_labels(HammingSpec((2, 3)))
        assert labels[0] == "(0,0)"
        assert labels[5] == "(1,2)"

    def test_adjacency_is_single_coordinate_change(self):
        g = make_hamming(HammingSpec((2, 3, 4)))
        coords = list(product(range(2), range(3), range(4)))
        for u, cu in enumerate(coords):
            for v in range(u + 1, g.n):
                cv = coords[v]
                differ = sum(1 for a, b in zip(cu, cv) if a != b)
                assert g.has_edge(u, v) == (differ == 1)


class TestCoordinates:
    def test_examples(self):
        spec = HammingSpec((2, 3, 5))
        assert encode_coordinates(spec, (0, 0, 0)) == 0
        assert encode_coordinates(spec, (1, 2, 4)) == 29
        assert encode_coordinates(spec, (0, 1, 2)) == 7

    def test_out_of_range(self):
        spec = HammingSpec((2, 3, 5))
        with pytest.raises(OutOfRangeError):
            encode_coordinates(spec, (0, 3, 0))

    def test_product_order_is_index_order(self):
        for r in (1, 2, 3):
            for factors in product(range(2, 7), repeat=r):
                spec = HammingSpec(factors)
                coords = product(*map(range, factors))
                assert [encode_coordinates(spec, c) for c in coords] == list(range(spec.n))


class TestDistances:
    def test_multipartite_distances(self):
        spec = PartiteSpec((3, 3, 2))
        g = make_complete_multipartite(spec)
        d = all_pairs_distances(g)
        offsets = spec.part_offsets()
        for u in range(g.n):
            for v in range(g.n):
                if u == v:
                    assert d[u][v] == 0
                elif any(
                    off <= u < off + size and off <= v < off + size
                    for off, size in zip(offsets, spec.sizes)
                ):
                    assert d[u][v] == 2
                else:
                    assert d[u][v] == 1

    def test_hamming_distance_is_differing_coordinates(self):
        for factors in ((2, 2), (3, 4), (2, 2, 2), (2, 3, 4), (3, 3, 3)):
            spec = HammingSpec(factors)
            g = make_hamming(spec)
            d = all_pairs_distances(g)
            coords = list(product(*map(range, factors)))
            for u, cu in enumerate(coords):
                for v, cv in enumerate(coords):
                    assert d[u][v] == sum(1 for a, b in zip(cu, cv) if a != b)

    def test_single_vertex(self):
        d = all_pairs_distances(Graph(1))
        assert d[0][0] == 0

    def test_unreachable_sentinel(self):
        d = all_pairs_distances(Graph(2))
        assert d == [[0, -1], [-1, 0]]

    def test_generated_families_are_connected(self):
        for sizes in sorted_partitions(6):
            g = make_complete_multipartite(PartiteSpec(sizes))
            assert min(all_pairs_distances(g)[0]) >= 0

    def test_matrix_invariants(self):
        g = make_hamming(HammingSpec((2, 3, 4)))
        d = all_pairs_distances(g)
        for u in range(g.n):
            assert d[u][u] == 0
            for v in range(g.n):
                assert d[u][v] == d[v][u]
                assert (d[u][v] == 1) == g.has_edge(u, v)
                for w in range(g.n):
                    assert d[u][w] <= d[u][v] + d[v][w]


class TestGraphTextFormat:
    def test_round_trip_is_byte_identical(self):
        for g in (
            make_complete_multipartite(PartiteSpec((3, 3, 2))),
            make_hamming(HammingSpec((2, 3, 4))),
            Graph(1),
        ):
            text = format_graph(g)
            again = format_graph(parse_graph(text))
            assert text == again
            assert text.endswith("\n")

    def test_format_shape(self):
        g = make_complete_multipartite(PartiteSpec((1, 1)))
        assert format_graph(g) == "p 2 1\ne 0 1\n"

    def test_family_sweep_is_byte_stable(self):
        """``format_graph`` and the DOT labels of every graph of FAMILY_SWEEP."""
        digest = hashlib.sha256()
        for spec in FAMILY_SWEEP:
            g = family_graph(spec)
            digest.update(format_graph(g).encode("ascii"))
            digest.update((" ".join(_vertex_labels(spec)) + "\n").encode("ascii"))
        assert digest.hexdigest() == FAMILY_SWEEP_SHA256

    def test_comments_tolerated(self):
        g = parse_graph("c hello\np 2 1\nc mid\ne 0 1\n")
        assert (g.n, g.m) == (2, 1)

    @pytest.mark.parametrize(
        "text",
        list(MALFORMED_GRAPHS),
        # None keeps the text as the id
        ids=lambda text: "range-error-then-bad-line" if len(text) > 100 else None,
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError) as info:
            parse_graph(text)
        assert str(info.value) == MALFORMED_GRAPHS[text]

    def test_parse_peak_memory(self):
        text = format_graph(make_complete_multipartite(PartiteSpec((300, 200, 100))))
        tracemalloc.start()
        try:
            g = parse_graph(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m == 110_000
        # the neighbour lists and their sorted tuples, about 1.8 MB each,
        # and the tokens of one chunk: 3.75 MB in all; no list of the
        # file's lines or of all its tokens, and no neighbour set per vertex
        assert peak <= 6_000_000

    def test_edge_lines_skip_the_line_reader(self, monkeypatch):
        calls = []
        read_lines = graph_module._read_lines

        def counted(lines, *args):
            calls.append(list(lines))
            return read_lines(lines, *args)

        monkeypatch.setattr(graph_module, "_read_lines", counted)
        g = parse_graph(format_graph(make_complete_multipartite(PartiteSpec((300, 200, 100)))))
        assert g.m == 110_000
        assert calls == [["p 600 110000"]]

    def test_an_edge_repeated_chunks_apart_is_one_distinct_edge(self):
        # {0, 1} is written both ways round, more than two chunks apart
        filler = "".join(f"e 2 {v}\n" for v in range(3, 30_003))
        text = f"p 30003 30002\ne 0 1\n{filler}e 1 0\n"
        assert len(filler) > 2 * graph_module._CHUNK_CHARS
        with pytest.raises(FormatError) as info:
            parse_graph(text)
        assert str(info.value) == "problem line declares 30002 edges, file has 30001 distinct"

    def test_a_file_short_of_its_edges_builds_no_spelling_table(self):
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as info:
                parse_graph("p 250000 1000000\ne 0 1\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(info.value) == "problem line declares 1000000 edges, file has 1"
        # a table of 250,000 spellings takes about 29 MB
        assert peak < 1_000_000

    def test_parsed_graph_keeps_one_tuple_per_vertex(self):
        text = format_graph(make_complete_multipartite(PartiteSpec((300, 200, 100))))
        tracemalloc.start()
        try:
            g = parse_graph(text)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m == 110_000
        # 220,000 tuple slots of 8 bytes, 600 tuple heads and the list of
        # them: 1.8 MB; a neighbour set per vertex would add 16 MB
        assert size < 2_500_000


def line_by_line_parse(text):
    """The line-by-line parser that ``parse_graph`` reads blocks in place of,
    kept as the reference: (n, m, {vertex: sorted neighbours}), or the
    FormatError it raised."""
    n = None
    m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'p <n> <m>'")
            try:
                n, m = int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad problem line") from exc
            if max(n, m) > MAX_EDGES:
                raise FormatError(f"{n} vertices and {m} edges exceed the cap of {MAX_EDGES}")
        elif fields[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad edge line") from exc
            edges.append((u, v))
        else:
            raise FormatError(f"line {lineno}: unknown record {fields[0]!r}")
    if n is None:
        raise FormatError("missing problem line")
    if len(edges) != m:
        raise FormatError(f"problem line declares {m} edges, file has {len(edges)}")
    if n < 0:
        raise FormatError("vertex count must be nonnegative")
    adjacency = {}
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise FormatError(f"self-loop at vertex {u}")
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    distinct = sum(map(len, adjacency.values())) // 2
    if distinct != m:
        raise FormatError(f"problem line declares {m} edges, file has {distinct} distinct")
    return n, m, {v: tuple(sorted(s)) for v, s in adjacency.items()}


# Line breaks that join the lines of drawn graph files: "\n", "\r\n" and
# other breaks of ``str.splitlines``.
LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")


# Lines mixed into drawn graph files: comments, blank lines, leading
# blanks, int tokens in other spellings, "e" in a number's place,
# misaligned records, records split by a line break other than "\n",
# and edges out of range, self-loops and repeats.
NOISE_LINES = [
    "c a comment", "c", "  c indented", "\tc", "", "   ", "\t",
    "  e 0 1", "\te 1 2", "e +1 2", "e 1_0 2", "e 0 +2", "e\t0\t1", "e 0 1 ",
    "e e 1", "e 1 e", "e 1", "2 e 3 4", "e 0 1 2", "e", "ee 0 1", "e1 2 3",
    "e 0 one", "e 0 9", "e -1 0", "e 2 2", "e 0 0", "e 1 0", "e 0 1",
    "e 1\n2 e 3 4", "e 0 1 e\n1 2", "\ne 0 1 e 1 2",
    "x 0 1", "p 3 1", "p 3", "p x 1", "E 0 1", "e 0\x1f1", "e \u0663 1",
    "e 0\r1", "e 0 1\x0be 1 2", "c x\x0ce 0 1", "e 1\x1c2 e 3 4", "e 0 1\x85",
    "\u2028e 0 1", "e 0 1\r\ne 1 2\re 0 2",
]


@st.composite
def graph_files(draw):
    n = draw(st.integers(min_value=-1, max_value=6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # now and then an edge with an end at -1 or n, or a self-loop
    wild = st.tuples(st.integers(-1, n), st.integers(-1, n))
    edge = st.one_of(st.sampled_from(pairs), wild) if pairs else wild
    edges = draw(st.lists(edge, unique=draw(st.booleans())))
    lines = [f"e {v} {u}" if draw(st.booleans()) else f"e {u} {v}" for u, v in edges]
    m = len(edges) + draw(st.sampled_from((0, 0, 0, -1, 1)))
    if draw(st.integers(0, 9)):
        lines.insert(0, f"p {n} {m}")
    for _ in range(draw(st.integers(0, 3))):
        noise = draw(st.sampled_from(NOISE_LINES))
        lines.insert(draw(st.integers(0, len(lines))), noise)
    newline = draw(st.sampled_from(LINE_BREAKS))
    return newline.join(lines) + draw(st.sampled_from(("", newline)))


def parse_or_error(parse, text):
    try:
        return parse(text)
    except FormatError as exc:
        return type(exc), str(exc)


class TestParseMatchesLineByLine:
    @settings(max_examples=400, deadline=None)
    @given(graph_files())
    # two lines with 6 tokens, "e" at every third and ints between, that
    # are not two edges
    @example("p 4 2\ne 1\n2 e 3 4\n")
    @example("p 3 2\ne 0 1 e\n1 2\n")
    @example("p 3 2\n\ne 0 1 e 1 2\n")
    def test_same_graph_or_same_error(self, text):
        want = parse_or_error(line_by_line_parse, text)
        # chunks of 0, 1 and 7 characters are cut at the next line end: a
        # cut after every line, and edge lines mixed with others in one
        # chunk; the vertex tokens of every file go through the spelling
        # table (switch 0), through int alone (MAX_EDGES + 1) and as the
        # default switch picks
        saved = graph_module._CHUNK_CHARS, graph_module._TABLE_EDGES_PER_VERTEX
        for chunk_chars, switch in product(
            (0, 1, 7, saved[0]), (0, saved[1], MAX_EDGES + 1)
        ):
            graph_module._CHUNK_CHARS = chunk_chars
            graph_module._TABLE_EDGES_PER_VERTEX = switch
            try:
                got = parse_or_error(parse_graph, text)
            finally:
                graph_module._CHUNK_CHARS, graph_module._TABLE_EDGES_PER_VERTEX = saved
            if isinstance(got, Graph):
                neighbors = {v: got.neighbors(v) for v in range(got.n) if got.neighbors(v)}
                got = got.n, got.m, neighbors
            assert got == want, (chunk_chars, switch)


def explicit_family_graph(spec):
    """The family graph with every edge listed, by brute force from the
    coordinates (first one most significant) or the part blocks, and the
    name of each vertex."""
    if isinstance(spec, HammingSpec):
        coords = list(product(*(range(f) for f in spec.factors)))
        labels = ["(" + ",".join(map(str, c)) + ")" for c in coords]

        def adjacent(u, v):
            return sum(a != b for a, b in zip(coords[u], coords[v])) == 1
    else:
        part = [i for i, size in enumerate(spec.sizes) for _ in range(size)]
        labels = [f"{i}:{k}" for i, size in enumerate(spec.sizes) for k in range(size)]

        def adjacent(u, v):
            return part[u] != part[v]
    n = len(labels)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adjacent(u, v)]
    return Graph(n, edges), labels


class TestFamilyGraphs:
    @pytest.mark.parametrize("spec", FAMILY_SWEEP, ids=spec_id)
    def test_matches_the_explicit_graph(self, spec):
        g = family_graph(spec)
        want, labels = explicit_family_graph(spec)
        assert (g.n, g.m) == (want.n, want.m)
        assert _vertex_labels(spec) == labels
        assert list(g.edges()) == list(want.edges())
        for u in range(g.n):
            assert g.neighbors(u) == want.neighbors(u)
            assert type(g.neighbors(u)) is tuple
            # one index past each end too: never an edge
            assert [g.has_edge(u, v) for v in range(-1, g.n + 1)] == [
                want.has_edge(u, v) for v in range(-1, g.n + 1)
            ]

    @pytest.mark.parametrize(
        "build,edges",
        [
            (lambda: make_hamming(HammingSpec((100, 100))), 990_000),
            (lambda: make_complete_multipartite(PartiteSpec((700, 700))), 490_000),
        ],
        ids=["hamming-100,100", "multipartite-700,700"],
    )
    def test_no_edge_is_stored(self, build, edges):
        tracemalloc.start()
        try:
            g = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m == edges
        assert peak < 1_000_000


# Every Hamming spec with 1 to 3 factors and at most 36 vertices, then every
# multipartite spec with 2 <= n <= 8 and at least two parts.
DISTANCE_SWEEP = [
    HammingSpec(factors)
    for r in (1, 2, 3)
    for factors in product(range(2, 37), repeat=r)
    if prod(factors) <= 36
] + [PartiteSpec(sizes) for sizes in sorted_partitions(8)]


class TestDistanceRule:
    @pytest.mark.parametrize("spec", DISTANCE_SWEEP, ids=spec_id)
    def test_family_rule_is_the_bfs_distance(self, spec):
        # the family graph's rule, the ball rule of the base class on the
        # same graph and on its explicit copy, and BFS on that copy agree
        g = family_graph(spec)
        explicit = Graph(g.n, list(g.edges()))
        rows = all_pairs_distances(explicit)
        diameter = max(map(max, rows))
        for u, v in product(range(g.n), repeat=2):
            if u == v:
                continue
            for k in range(2, diameter + 3):
                want = rows[u][v] >= k
                assert g._distance_at_least(u, v, k) == want, (u, v, k)
                assert Graph._distance_at_least(g, u, v, k) == want, (u, v, k)
                assert explicit._distance_at_least(u, v, k) == want, (u, v, k)


class TestGraphInvariants:
    def test_adjacency_symmetric_sorted_loop_free(self):
        g = make_complete_multipartite(PartiteSpec((3, 2, 2)))
        for u in range(g.n):
            nbrs = g.neighbors(u)
            assert list(nbrs) == sorted(set(nbrs))
            assert u not in nbrs
            for v in nbrs:
                assert u in g.neighbors(v)

    def test_repr_names_the_sizes(self):
        assert repr(Graph(3, [(0, 1)])) == "Graph(n=3, m=1)"

    def test_repeated_edges_are_stored_once(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1
        assert [g.neighbors(v) for v in range(3)] == [(1,), (0,), ()]
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2) and not g.has_edge(2, 0)

    def test_repeats_on_many_vertices_are_stored_once(self):
        n = 40
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u * v) % 3 == 1]
        # every third edge again as given, every other one reversed
        g = Graph(n, edges + edges[::3] + [(v, u) for u, v in edges[::2]])
        assert g.m == len(edges)
        for v in range(n):
            nbrs = g.neighbors(v)
            assert type(nbrs) is tuple
            assert nbrs == tuple(sorted({a + b - v for a, b in edges if v in (a, b)}))

    def test_has_edge_past_the_ends_of_a_neighbour_tuple(self):
        # vertex 5 has no neighbour; 0 and 4 have one, at each end of the range
        g = parse_graph("p 6 4\ne 0 4\ne 1 2\ne 2 3\ne 3 1\n")
        for u in range(g.n):
            for v in (-5, g.n, g.n + 7):
                assert not g.has_edge(u, v)
        for v in range(-5, g.n + 8):
            assert not g.has_edge(5, v)
            assert not g.has_edge(v, 5)
        assert [v for v in range(g.n) if g.has_edge(0, v)] == [4]
        assert [v for v in range(g.n) if g.has_edge(4, v)] == [0]

    def test_isolated_vertices_share_storage(self):
        tracemalloc.start()
        try:
            g = parse_graph("p 1000000 0\n")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (g.n, g.m) == (10**6, 0)
        assert g.neighbors(0) == g.neighbors(10**6 - 1) == ()
        assert not g.has_edge(0, 1)
        assert peak < 64_000_000

    def test_rejects_self_loop_and_bad_edge(self):
        with pytest.raises(InvalidSpecError):
            Graph(2, [(0, 0)])
        with pytest.raises(OutOfRangeError):
            Graph(2, [(0, 2)])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Graph(3, [(1, 2)]),
            lambda: parse_graph("p 3 1\ne 1 2\n"),
            # the mixed-radix rule alone makes 4 and 5 differ in one place
            lambda: make_hamming(HammingSpec((2, 2))),
            lambda: make_complete_multipartite(PartiteSpec((2, 1))),
        ],
        ids=["stored", "parsed", "hamming", "multipartite"],
    )
    def test_a_vertex_outside_the_graph_has_no_edge(self, build):
        g = build()
        for u in (-1, g.n, g.n + 1):
            for v in range(-1, g.n + 2):
                assert not g.has_edge(u, v)
                assert not g.has_edge(v, u)


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: Graph(-1), InvalidSpecError, "vertex count must be nonnegative"),
        (
            lambda: make_augmented_multipartite(PartiteSpec((2, 2)), [[(0, 0)], [(0, 1)]]),
            InvalidPairingError,
            "part 0: degenerate pair (0,0)",
        ),
        (
            lambda: encode_coordinates(HammingSpec((2, 3)), (1,)),
            OutOfRangeError,
            "expected 2 coordinates, got 1",
        ),
        # int would truncate each of these fractions without a word
        (
            lambda: PartiteSpec((2.5, 1)),
            InvalidSpecError,
            "part sizes must be integers: (2.5, 1)",
        ),
        (
            lambda: HammingSpec((2.9, 3)),
            InvalidSpecError,
            "factors must be integers: (2.9, 3)",
        ),
        (
            lambda: encode_coordinates(HammingSpec((2, 3)), (0.5, 1.7)),
            OutOfRangeError,
            "coordinates must be integers: (0.5, 1.7)",
        ),
        # int raises a bare ValueError on these, and a string would be
        # read character by character
        (
            lambda: PartiteSpec(("x", 1)),
            InvalidSpecError,
            "part sizes must be integers: ('x', 1)",
        ),
        (
            lambda: HammingSpec(("a", 2)),
            InvalidSpecError,
            "factors must be integers: ('a', 2)",
        ),
        (
            lambda: encode_coordinates(HammingSpec((2, 3)), ("a", 0)),
            OutOfRangeError,
            "coordinates must be integers: ('a', 0)",
        ),
        (lambda: PartiteSpec("31"), InvalidSpecError, "part sizes must be integers: '31'"),
        (lambda: HammingSpec("23"), InvalidSpecError, "factors must be integers: '23'"),
        (
            lambda: encode_coordinates(HammingSpec((2, 3)), "01"),
            OutOfRangeError,
            "coordinates must be integers: '01'",
        ),
        # int would truncate these pair ends and this index, and a pair
        # of the wrong length or a bare number would raise a bare error
        (
            lambda: make_augmented_multipartite(PartiteSpec((3, 2)), [[(0.5, 1.7)], [(0, 1)]]),
            InvalidPairingError,
            "part 0: pair ends must be integers: (0.5, 1.7)",
        ),
        (
            lambda: make_augmented_multipartite(PartiteSpec((3, 2)), [[("x", 1)], [(0, 1)]]),
            InvalidPairingError,
            "part 0: pair ends must be integers: ('x', 1)",
        ),
        (
            lambda: make_augmented_multipartite(PartiteSpec((3, 2)), [[(0, 1, 2)], [(0, 1)]]),
            InvalidPairingError,
            "part 0: pair (0, 1, 2) does not have two ends",
        ),
        (
            lambda: make_augmented_multipartite(PartiteSpec((3, 2)), [[0], [(0, 1)]]),
            InvalidPairingError,
            "part 0: pair ends must be integers: 0",
        ),
    ],
    ids=[
        "negative-n", "degenerate-pair", "coordinate-count",
        "fractional-part", "fractional-factor", "fractional-coordinate",
        "text-part", "text-factor", "text-coordinate",
        "string-sizes", "string-factors", "string-coordinates",
        "fractional-pair", "text-pair", "three-end-pair", "bare-pair",
    ],
)
def test_bad_library_input_raises_its_error(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


class TestSizeCap:
    @pytest.mark.parametrize(
        "build,error",
        [
            # 2002 vertices, 1,002,001 edges
            (lambda: make_hamming(HammingSpec((2, 1001))), InvalidSpecError),
            # 2001 vertices, 1,001,000 edges
            (lambda: make_complete_multipartite(PartiteSpec((1001, 1000))), InvalidSpecError),
            # the 1,000,000 cross-part edges fit the cap, the 998,000 intra-part ones do not
            (
                lambda: make_augmented_multipartite(
                    PartiteSpec((1000, 1000)), [[(2 * k, 2 * k + 1) for k in range(500)]] * 2
                ),
                InvalidSpecError,
            ),
            (lambda: parse_graph(f"p 3 {MAX_EDGES + 1}\n"), FormatError),
            (lambda: parse_graph("p 2000000000 0\n"), FormatError),
        ],
    )
    def test_over_the_cap_raises_before_allocating(self, build, error):
        tracemalloc.start()
        try:
            with pytest.raises(error, match="exceed the cap"):
                build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
