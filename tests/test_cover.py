"""Cover model, verification semantics, and the cover text format."""

import random
from enum import IntEnum

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from isopath import (
    Cover,
    FormatError,
    Graph,
    HammingSpec,
    PartiteSpec,
    PathVerdict,
    VerifyReport,
    cover_hamming,
    cover_hamming2,
    cover_hamming3,
    cover_multipartite,
    encode_coordinates,
    format_cover,
    make_complete_multipartite,
    make_hamming,
    parse_cover,
    verify_cover,
)
from isopath import graph as graph_module

class _Vertex(IntEnum):
    THREE = 3


SPEC_33 = HammingSpec((3, 3))
SPEC_35 = HammingSpec((3, 5))
SPEC_222 = HammingSpec((2, 2, 2))
SPEC_233 = HammingSpec((2, 3, 3))


def coord_path(spec, *coords):
    return tuple(encode_coordinates(spec, c) for c in coords)


def cover_222():
    return Cover(
        (
            coord_path(SPEC_222, (0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)),
            coord_path(SPEC_222, (1, 0, 1), (1, 0, 0), (1, 1, 0), (0, 1, 0)),
        )
    )


def cover_233():
    return Cover(
        (
            coord_path(SPEC_233, (0, 1, 1), (0, 1, 0), (0, 0, 0), (1, 0, 0)),
            coord_path(SPEC_233, (0, 2, 2), (0, 2, 0), (1, 2, 0), (1, 1, 0)),
            coord_path(SPEC_233, (0, 2, 1), (1, 2, 1), (1, 1, 1)),
            coord_path(SPEC_233, (0, 0, 2), (0, 1, 2), (1, 1, 2)),
            coord_path(SPEC_233, (0, 0, 1), (1, 0, 1), (1, 0, 2), (1, 2, 2)),
        )
    )


class TestPathBasics:
    """A path is a tuple of vertex indices; Cover checks and converts it."""

    def test_requires_a_vertex(self):
        with pytest.raises(ValueError):
            Cover([()])
        with pytest.raises(ValueError):
            Cover([(0, 1), []])

    def test_duplicates_allowed_at_construction(self):
        # distinctness is a verification-time concern
        assert Cover([(0, 1, 0)]).paths == ((0, 1, 0),)

    def test_vertices_become_ints(self):
        assert Cover([("3", 4.0)]).paths == ((3, 4),)

    def test_a_fractional_vertex_is_rejected(self):
        with pytest.raises(ValueError, match="1.5"):
            Cover([[0, 1.5]])
        with pytest.raises(ValueError):
            Cover([(0, 1), (2.5,)])

    @pytest.mark.parametrize(
        "path, expected",
        [
            (("3",), (3,)),
            ((2.0,), (2,)),
            ((True,), (1,)),
            ((_Vertex.THREE,), (3,)),
            ((0, True, 2), (0, 1, 2)),
            ((False, 1), (0, 1)),
            ((0, "4", 5), (0, 4, 5)),
            ((0, _Vertex.THREE, 5.0), (0, 3, 5)),
        ],
    )
    def test_each_vertex_becomes_an_exact_int(self, path, expected):
        cover = Cover([(0, 1), path])
        assert cover.paths == ((0, 1), expected)
        assert all(type(v) is int for v in cover.paths[1])
        assert format_cover(cover) == "0 1\n" + " ".join(map(str, expected)) + "\n"

    @pytest.mark.parametrize(
        "paths, error, message",
        [
            ([(1.5,)], ValueError, r"^path \(1.5,\) has a vertex that is not an integer$"),
            ([(0, 1), (0, 1.5)], ValueError, r"^path \(0, 1.5\) has a vertex that is not an integer$"),
            ([("x",)], ValueError, r"^invalid literal for int\(\) with base 10: 'x'$"),
            ([(0, "x")], ValueError, r"^invalid literal for int\(\) with base 10: 'x'$"),
            ([(None,)], TypeError, r"^int\(\) argument must be .*, not 'NoneType'$"),
            ([(0,), (1, None)], TypeError, r"^int\(\) argument must be .*, not 'NoneType'$"),
            # the conversion is checked before the empty path
            ([(), ("x",)], ValueError, r"^invalid literal"),
            ([(), (0.5,)], ValueError, r"not an integer$"),
            ([()], ValueError, r"^a path has at least one vertex$"),
            ([(0, 1), ()], ValueError, r"^a path has at least one vertex$"),
            ([(True,), ()], ValueError, r"^a path has at least one vertex$"),
        ],
    )
    def test_conversion_errors(self, paths, error, message):
        with pytest.raises(error, match=message):
            Cover(paths)

    def test_int_tuples_are_kept_as_given(self):
        given = ((0, 1), (2,), (3, 4, 5))
        cover = Cover(given)
        assert all(cover.paths[i] is given[i] for i in range(len(given)))

    def test_list_paths_leave_the_cover_hashable(self):
        cover = Cover([[0, 1], [1, 2]])
        assert cover.paths == ((0, 1), (1, 2))
        assert hash(cover) == hash(Cover(((0, 1), (1, 2))))


class TestVerifyCover:
    def test_cube_two_path_cover_is_valid(self):
        g = make_hamming(SPEC_222)
        report = verify_cover(g, cover_222())
        assert report.valid
        assert report.size == 2
        assert report.uncovered == ()
        assert report.overlap == 0

    def test_half_cover_reports_uncovered(self):
        g = make_hamming(SPEC_222)
        report = verify_cover(g, Cover(cover_222().paths[:1]))
        assert not report.valid
        assert len(report.uncovered) == 4

    def test_non_isometric_path_rejected(self):
        k3 = make_complete_multipartite(PartiteSpec((1, 1, 1)))
        k22 = make_complete_multipartite(PartiteSpec((2, 2)))
        cube_detour = coord_path(SPEC_222, (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0))
        cases = [
            # (graph, path, (simple, walk, isometric))
            (k3, (0, 1, 2), (True, True, False)),
            (make_hamming(SPEC_222), cube_detour, (True, True, False)),
            (k22, (0, 2, 0), (False, True, False)),
            (k22, (0, 1), (True, False, False)),
        ]
        for g, path, expected in cases:
            report = verify_cover(g, Cover((path,)))
            verdict = report.path_verdicts[0]
            assert not report.valid
            assert (verdict.simple, verdict.walk, verdict.isometric) == expected, path

    def test_geodesics_accepted(self):
        diagonal = coord_path(SPEC_33, (0, 0), (2, 0), (2, 2))
        same_part = (0, 2, 1)
        cases = [
            (make_hamming(SPEC_33), diagonal),
            (make_complete_multipartite(PartiteSpec((2, 2))), same_part),
            (Graph(1), (0,)),  # a single vertex is isometric by convention
        ]
        for g, path in cases:
            assert verify_cover(g, Cover((path,))).path_verdicts[0].ok, path

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_isometric_verdict_matches_networkx(self, data):
        # A random simple walk of up to 8 edges whose edges are forced into
        # a random graph; the extra edges may or may not shortcut it.
        n = data.draw(st.integers(min_value=1, max_value=12))
        order = data.draw(st.permutations(range(n)))
        walk = order[: data.draw(st.integers(min_value=1, max_value=min(n, 9)))]
        vertex = st.integers(min_value=0, max_value=n - 1)
        extra = data.draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        edges = {tuple(sorted(e)) for e in zip(walk, walk[1:])}
        edges.update(tuple(sorted(e)) for e in extra if e[0] != e[1])
        g = Graph(n, sorted(edges))
        reference = nx.Graph(sorted(edges))
        reference.add_nodes_from(range(n))
        verdict = verify_cover(g, Cover((walk,))).path_verdicts[0]
        assert verdict.simple and verdict.walk
        k = len(walk) - 1
        assert verdict.isometric == (nx.shortest_path_length(reference, walk[0], walk[-1]) == k)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_family_verdict_matches_networkx(self, data):
        # A random simple walk of up to 8 edges along a family graph's
        # neighbours.  A Hamming walk with more edges than factors changes
        # some coordinate twice, and a multipartite walk of 3 edges or more
        # passes some part twice, so non-isometric walks are drawn as well.
        side = st.integers(min_value=2, max_value=4)
        if data.draw(st.booleans()):
            g = make_hamming(HammingSpec(data.draw(st.lists(side, min_size=1, max_size=3))))
        else:
            sizes = data.draw(st.lists(side | st.just(1), min_size=2, max_size=4))
            g = make_complete_multipartite(PartiteSpec(sizes))
        walk = [data.draw(st.integers(min_value=0, max_value=g.n - 1))]
        for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
            fresh = [v for v in g.neighbors(walk[-1]) if v not in walk]
            if not fresh:
                break
            walk.append(data.draw(st.sampled_from(fresh)))
        reference = nx.Graph(list(g.edges()))
        verdict = verify_cover(g, Cover((walk,))).path_verdicts[0]
        assert verdict.simple and verdict.walk
        k = len(walk) - 1
        assert verdict.isometric == (nx.shortest_path_length(reference, walk[0], walk[-1]) == k)

    def test_family_graphs_verify_without_neighbors(self, monkeypatch):
        # a family graph checks a constructed cover whole from its spec: it
        # never grows a ball from neighbours, nor tests a path on its own
        cases = [
            (make_hamming(HammingSpec(factors)), build(*factors))
            for build, factors in [
                (cover_hamming2, (3, 5)),
                (cover_hamming3, (2, 2, 2)),
                (cover_hamming3, (3, 4, 5)),
            ]
        ] + [
            (make_complete_multipartite(spec), cover_multipartite(spec))
            for spec in (PartiteSpec((5, 1)), PartiteSpec((4, 3, 3, 2)))
        ]

        def no_neighbors(self, v):
            raise AssertionError("neighbors called")

        def no_path_test(self, *vertices):
            raise AssertionError("a path tested on its own")

        for family in (graph_module._HammingGraph, graph_module._MultipartiteGraph):
            monkeypatch.setattr(family, "neighbors", no_neighbors)
            monkeypatch.setattr(family, "has_edge", no_path_test)
            monkeypatch.setattr(family, "_distance_at_least", no_path_test)
        for g, cover in cases:
            assert verify_cover(g, cover).valid, g

    @pytest.mark.parametrize(
        "family, path, verdict",
        [
            ("hamming", (0, 1, 2), (True, True, False)),  # one coordinate twice
            ("hamming", (0, 1, 6, 11), (True, True, False)),  # more than r + 1
            ("hamming", (0, 6), (True, False, False)),  # two coordinates at once
            ("hamming", (0, 1, 0), (False, True, False)),
            ("hamming", (0, 0, 6), (False, False, False)),  # a step that stays
            ("hamming", (0, 6, 7), (True, False, False)),  # a double step, ends 2 apart
            ("hamming", (0, 15), (True, False, False)),
            ("multipartite", (0, 4, 7), (True, True, False)),  # ends in two parts
            ("multipartite", (0, 4, 1, 7), (True, True, False)),
            ("multipartite", (0, 1), (True, False, False)),  # within a part
            ("multipartite", (0, 1, 2), (True, False, False)),  # steps in a part
            ("multipartite", (0, 4, 0), (False, True, False)),
            ("multipartite", (0, -1), (True, False, False)),
        ],
    )
    def test_a_broken_path_gets_its_own_verdict(self, family, path, verdict):
        # one path of a constructed cover replaced: the whole-cover check
        # fails, and each path gets the verdict of the stored twin graph
        if family == "hamming":
            g, cover = make_hamming(SPEC_35), cover_hamming(SPEC_35)
        else:
            spec = PartiteSpec((4, 3, 3, 2))
            g, cover = make_complete_multipartite(spec), cover_multipartite(spec)
        paths = list(cover.paths)
        broken = len(paths) // 2
        paths[broken] = path
        report = verify_cover(g, Cover(paths))
        expected = [(True, True, True)] * len(paths)
        expected[broken] = verdict
        assert [(v.simple, v.walk, v.isometric) for v in report.path_verdicts] == expected
        assert not report.valid
        assert report == verify_cover(Graph(g.n, g.edges()), Cover(paths))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_family_report_matches_its_stored_twin(self, data):
        # Covers of a constructed cover's paths, some replaced, and drawn
        # paths: walks along edges (back and forth too, and longer than
        # r + 1), moves to a non-neighbour (the same vertex too) or to any
        # vertex, and a vertex out of range.  A family graph's report, from
        # its whole-cover check or its per-path loop, is the report of the
        # same graph stored, in both modes.
        side = st.integers(min_value=2, max_value=4)
        built = ()
        if data.draw(st.booleans()):
            spec = HammingSpec(data.draw(st.lists(side, min_size=1, max_size=3)))
            g = make_hamming(spec)
            if spec.r > 1:
                built = cover_hamming(spec).paths
        else:
            spec = PartiteSpec(data.draw(st.lists(side | st.just(1), min_size=2, max_size=4)))
            g = make_complete_multipartite(spec)
            built = cover_multipartite(spec).paths
        vertex = st.integers(min_value=0, max_value=g.n - 1)
        move = st.sampled_from(["edge", "edge", "edge", "other", "any"])

        def drawn_path():
            verts = [data.draw(vertex)]
            for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
                kind = data.draw(move)
                if kind == "any":
                    verts.append(data.draw(vertex))
                    continue
                near = set(g.neighbors(verts[-1]))
                if kind == "other":
                    near = set(range(g.n)) - near
                verts.append(data.draw(st.sampled_from(sorted(near))))
            if data.draw(st.integers(min_value=0, max_value=9)) == 0:
                at = data.draw(st.integers(min_value=0, max_value=len(verts) - 1))
                verts[at] = data.draw(st.sampled_from([-1, g.n]))
            return tuple(verts)

        paths = list(built) if data.draw(st.booleans()) else []
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            path = drawn_path()
            if paths and data.draw(st.booleans()):
                paths[data.draw(st.integers(min_value=0, max_value=len(paths) - 1))] = path
            else:
                paths.append(path)
        cover = Cover(paths)
        twin = Graph(g.n, g.edges())
        for strict in (False, True):
            assert verify_cover(g, cover, strict) == verify_cover(twin, cover, strict)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_stored_report_matches_a_networkx_reference(self, data):
        # A random graph, perhaps disconnected, and 1-5 paths that mix walks
        # along its edges with any vertex of range(-2, n + 2).  The whole
        # report is rebuilt in plain Python from networkx, in both modes.
        n = data.draw(st.integers(min_value=1, max_value=9))
        vertex = st.integers(min_value=0, max_value=n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
        edges = sorted({(min(e), max(e)) for e in pairs if e[0] != e[1]})
        g = Graph(n, edges)
        reference = nx.Graph(edges)
        reference.add_nodes_from(range(n))
        anywhere = st.integers(min_value=-2, max_value=n + 1)

        def drawn_path():
            verts = [data.draw(anywhere)]
            for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
                last = verts[-1]
                near = sorted(reference[last]) if 0 <= last < n else []
                if near and data.draw(st.booleans()):
                    verts.append(data.draw(st.sampled_from(near)))
                else:
                    verts.append(data.draw(anywhere))
            return tuple(verts)

        paths = [drawn_path() for _ in range(data.draw(st.integers(min_value=1, max_value=5)))]
        verdicts = []
        for p in paths:
            simple = len(set(p)) == len(p)
            walk = all(0 <= v < n for v in p) and all(
                reference.has_edge(u, v) for u, v in zip(p, p[1:])
            )
            isometric = (
                simple and walk and nx.shortest_path_length(reference, p[0], p[-1]) == len(p) - 1
            )
            verdicts.append(PathVerdict(simple, walk, isometric))
        kept = [v for p in paths for v in p if 0 <= v < n]
        uncovered = tuple(sorted(set(range(n)) - set(kept)))
        valid = all(v.simple and v.walk and v.isometric for v in verdicts) and not uncovered
        ends = [v for p in paths if len(p) == 3 for v in (p[0], p[-1])]
        normal_form = all(len(p) in (2, 3) for p in paths) and len(ends) == len(set(ends))
        overlap = len(kept) - len(set(kept))
        cover = Cover(paths)
        assert verify_cover(g, cover) == VerifyReport(
            valid, tuple(verdicts), uncovered, len(paths), overlap, None
        )
        assert verify_cover(g, cover, True) == VerifyReport(
            valid and normal_form, tuple(verdicts), uncovered, len(paths), overlap, normal_form
        )

    def test_out_of_range_reported_not_raised(self):
        g = Graph(2, [(0, 1)])
        report = verify_cover(g, Cover(((0, 7),)))
        assert not report.valid
        assert not report.path_verdicts[0].walk

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(4, [(0, 1), (1, 2), (2, 3)]),
            make_hamming(HammingSpec((2, 2))),
            make_complete_multipartite(PartiteSpec((1, 1, 1, 1))),
        ],
        ids=["stored", "hamming", "multipartite"],
    )
    @pytest.mark.parametrize(
        "path, overlap",
        [
            ((4, 0, 1), 2),
            ((0, 4, 1), 2),
            ((0, 1, 4), 2),
            ((4,), 0),
            ((-1, 0, 1), 2),
            ((0, -1, 1), 2),
            ((0, 1, -1), 2),
            ((-1,), 0),
        ],
    )
    def test_a_vertex_out_of_range_anywhere_breaks_the_walk(self, graph, path, overlap):
        # the in-range vertices of the bad path still count as covered and
        # in the overlap; 2 and 3 are covered by neither path
        report = verify_cover(graph, Cover((path, (0, 1))))
        verdicts = [(v.simple, v.walk, v.isometric) for v in report.path_verdicts]
        assert verdicts == [(True, False, False), (True, True, True)]
        assert report.uncovered == (2, 3)
        assert report.overlap == overlap
        assert report.size == 2
        assert not report.valid

    def test_invariant_under_reversal_and_permutation(self):
        g = make_hamming(SPEC_233)
        base = cover_233()
        rng = random.Random(7)
        for _ in range(5):
            paths = [p[::-1] if rng.random() < 0.5 else p for p in base.paths]
            rng.shuffle(paths)
            assert verify_cover(g, Cover(tuple(paths))).valid

    def test_overlap_is_counted(self):
        g = make_complete_multipartite(PartiteSpec((2, 2)))
        c = Cover(((0, 2, 1), (0, 3, 1)))
        report = verify_cover(g, c)
        assert report.valid
        assert report.overlap == 2

    def test_overlap_counts_only_in_range_incidences(self):
        # 7 and -1 are skipped, the repeated 0 counts twice
        report = verify_cover(Graph(2, [(0, 1)]), Cover(((0, 7, 0), (-1, 1))))
        assert not report.valid
        assert report.overlap == 1
        assert report.uncovered == ()
        verdicts = [(v.simple, v.walk, v.isometric) for v in report.path_verdicts]
        assert verdicts == [(False, False, False), (True, False, False)]


class TestNormalFormMode:
    def test_shared_3_path_endpoints_fail_strict_only(self):
        g = make_complete_multipartite(PartiteSpec((2, 2)))
        c = Cover(((0, 2, 1), (0, 3, 1)))
        assert verify_cover(g, c).valid
        strict = verify_cover(g, c, strict_normal_form=True)
        assert not strict.valid
        assert strict.normal_form is False

    def test_disjoint_endpoints_pass_strict(self):
        g = make_complete_multipartite(PartiteSpec((2, 2)))
        c = Cover(((0, 2, 1), (2, 0, 3)))
        strict = verify_cover(g, c, strict_normal_form=True)
        assert strict.valid and strict.normal_form

    def test_long_paths_fail_strict(self):
        g = make_hamming(SPEC_222)
        strict = verify_cover(g, cover_222(), strict_normal_form=True)
        assert not strict.valid
        assert strict.normal_form is False

    def test_default_mode_reports_no_normal_form(self):
        g = make_hamming(SPEC_222)
        assert verify_cover(g, cover_222()).normal_form is None


class TestCoverTextFormat:
    def test_round_trip_byte_identical(self):
        c = cover_233()
        text = format_cover(c)
        assert text == format_cover(parse_cover(text))
        assert text.endswith("\n")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.one_of(st.integers(0, 99), st.integers(10**6, 10**12)),
                min_size=1,
                max_size=7,
            ),
            max_size=12,
        ),
        st.integers(0, 12),
    )
    def test_text_is_one_joined_line_per_path(self, paths, at):
        # paths of mixed lengths, vertices past 10^6, and the same cover
        # with a path of 400 vertices put in at ``at``
        for cover in (paths, [*paths[:at], range(10**6, 10**6 + 400), *paths[at:]]):
            want = "".join(" ".join(map(str, p)) + "\n" for p in cover) or "\n"
            assert format_cover(Cover(cover)) == want

    def test_an_empty_cover_is_one_empty_line(self):
        assert format_cover(Cover([])) == "\n"

    def test_comments_become_the_note(self):
        c = parse_cover("# context\n0 1\n")
        assert c.note == "context"
        assert c.paths[0] == (0, 1)

    def test_malformed_rejected(self):
        with pytest.raises(FormatError):
            parse_cover("0 x 1\n")

