"""Path pool enumeration and the branch-and-bound oracle."""

import functools
import hashlib
import math
import random
from unittest import mock

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from isopath import (
    Cover,
    DisconnectedGraphError,
    Graph,
    HammingSpec,
    PartiteSpec,
    PoolBudgetError,
    all_pairs_distances,
    enumerate_isometric_paths,
    format_cover,
    ip_hamming3,
    ip_multipartite,
    make_augmented_multipartite,
    make_complete_multipartite,
    make_hamming,
    parse_graph,
    solve_min_cover,
    verify_cover,
)
from isopath import solver, symmetry
from isopath.cli import _selftest_instances
from isopath.formulas import ceil_div
from isopath.solver import _greedy_indices

from conftest import sorted_partitions, spec_pairings


def pool_of(g):
    return enumerate_isometric_paths(g, all_pairs_distances(g))


def greedy_cover(g):
    pool = pool_of(g)
    return Cover(pool.paths[i] for i in _greedy_indices(pool, g.n))


@st.composite
def long_graphs(draw):
    """A random connected graph on 1-16 vertices, randomly relabelled, whose
    diameter is often 3 or more: a tree, a cycle, or a path with chords."""
    n = draw(st.integers(min_value=1, max_value=16))
    kind = draw(st.sampled_from(("tree", "cycle", "chords")))
    if kind == "tree":
        edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    else:
        edges = {(v - 1, v) for v in range(1, n)}
        if kind == "cycle" and n >= 3:
            edges.add((0, n - 1))
        if kind == "chords" and n >= 3:
            ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            for u, v in draw(st.lists(ends, max_size=4)):
                if u != v:
                    edges.add((min(u, v), max(u, v)))
    perm = draw(st.permutations(range(n)))
    return Graph(n, sorted((perm[u], perm[v]) for u, v in edges))


class TestEnumeration:
    def test_single_edge(self):
        pool = pool_of(Graph(2, [(0, 1)]))
        assert list(pool.paths) == [(0,), (0, 1), (1,)]

    def test_path_graph_on_three_vertices(self):
        pool = pool_of(Graph(3, [(0, 1), (1, 2)]))
        assert list(pool.paths) == [
            (0,),
            (0, 1),
            (0, 1, 2),
            (1,),
            (1, 2),
            (2,),
        ]

    def test_triangle_has_no_3_vertex_path(self):
        pool = pool_of(make_complete_multipartite(PartiteSpec((1, 1, 1))))
        assert len(pool.paths) == 6
        assert pool.max_path_vertices == 2

    def test_canonical_storage_and_order(self):
        pool = pool_of(make_hamming(HammingSpec((2, 3))))
        seqs = list(pool.paths)
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        for p in pool.paths:
            assert p[0] <= p[-1]

    def test_masks_match_paths(self):
        pool = pool_of(make_hamming(HammingSpec((2, 2))))
        for p, mask in zip(pool.paths, pool.masks):
            assert mask == sum(1 << v for v in set(p))

    def test_disconnected_rejected(self):
        g = Graph(2)
        with pytest.raises(DisconnectedGraphError):
            pool_of(g)

    def test_pool_cap(self):
        g = make_hamming(HammingSpec((3, 3)))
        with mock.patch.object(solver, "POOL_CAP", 5), pytest.raises(PoolBudgetError):
            pool_of(g)

    def test_pool_cap_counts_stored_vertices(self):
        # the 3-cube: 8 singletons, 12 edges, two 3-vertex paths for each of
        # the 12 pairs at distance 2 and six 4-vertex paths for each of the
        # 4 antipodal pairs store 8 + 24 + 72 + 96 = 200 vertices; the lower
        # bound checked before enumerating is 8 + 28 + 48 = 84
        g = make_hamming(HammingSpec((2, 2, 2)))
        with mock.patch.object(solver, "POOL_CAP", 200):
            assert sum(map(len, pool_of(g).paths)) == 200
        for cap in (84, 199):
            with mock.patch.object(solver, "POOL_CAP", cap), pytest.raises(PoolBudgetError):
                pool_of(g)
        # below the lower bound not one path is built: the enumeration stops
        # before it reads an adjacency list, which it does at the bound
        d = all_pairs_distances(g)
        with mock.patch.object(type(g), "neighbors", side_effect=AssertionError):
            with mock.patch.object(solver, "POOL_CAP", 84), pytest.raises(AssertionError):
                enumerate_isometric_paths(g, d)
            with mock.patch.object(solver, "POOL_CAP", 83), pytest.raises(PoolBudgetError):
                enumerate_isometric_paths(g, d)

    def test_pool_order_check(self):
        # a connected graph's pool stores at least n^2 vertices
        solver.check_pool_order(3_162)
        with pytest.raises(PoolBudgetError, match="exceeds cap of 10000000 vertices"):
            solver.check_pool_order(3_163)
        with mock.patch.object(solver, "POOL_CAP", 9):
            solver.check_pool_order(3)
            with pytest.raises(PoolBudgetError, match="exceeds cap of 9 vertices"):
                solver.check_pool_order(4)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.data())
    def test_pool_size_formula_for_diameter_2(self, n, data):
        # n singletons + m edges + one path per common neighbor of each
        # distance-2 pair, counted directly from the adjacency structure
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = data.draw(st.integers(min_value=0, max_value=2 ** len(pairs) - 1))
        edges = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
        # join every pair that is unreachable or farther apart than 2: the
        # result is connected with diameter <= 2, and a graph that already
        # was is left as drawn
        d = all_pairs_distances(Graph(n, edges))
        edges += [(u, v) for u, v in pairs if not 0 < d[u][v] <= 2]
        g = Graph(n, edges)
        d = all_pairs_distances(g)
        assert all(0 < d[u][v] <= 2 for u, v in pairs)
        expected = n + g.m
        for u, v in pairs:
            if d[u][v] == 2:
                expected += len(set(g.neighbors(u)) & set(g.neighbors(v)))
        assert len(enumerate_isometric_paths(g, d).paths) == expected

    @settings(max_examples=300, deadline=None)
    @given(long_graphs())
    def test_pool_matches_networkx_shortest_paths(self, g):
        # the singletons plus every shortest path between each pair s < t,
        # read from s: the isometric paths in canonical form
        G = nx.Graph(g.edges())
        G.add_nodes_from(range(g.n))
        paths = [(v,) for v in range(g.n)]
        for s in range(g.n):
            for t in range(s + 1, g.n):
                paths += map(tuple, nx.all_shortest_paths(G, s, t))
        paths.sort()
        pool = pool_of(g)
        assert pool.paths == tuple(paths)
        assert pool.masks == tuple(sum(1 << v for v in p) for p in paths)
        assert pool.max_path_vertices == max(map(len, paths))


class TestGreedy:
    def test_cube_upper_bound(self):
        g = make_hamming(HammingSpec((2, 2, 2)))
        cover = greedy_cover(g)
        assert verify_cover(g, cover).valid
        assert len(cover.paths) <= 3

    def test_single_vertex(self):
        g = Graph(1)
        cover = greedy_cover(g)
        assert cover.paths == ((0,),)

    def test_star_k21_is_one_path(self):
        g = make_complete_multipartite(PartiteSpec((2, 1)))
        cover = greedy_cover(g)
        assert len(cover.paths) == 1
        assert verify_cover(g, cover).valid


class TestSolve:
    def test_two_two_three_needs_five_blocks_worth(self):
        g = make_hamming(HammingSpec((2, 2, 3)))
        result = solve_min_cover(g)
        assert result.size == 4
        assert result.proof_of_optimality

    def test_k221(self):
        g = make_complete_multipartite(PartiteSpec((2, 2, 1)))
        assert solve_min_cover(g).size == 2

    def test_five_cycle(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        result = solve_min_cover(g)
        assert result.size == 2

    def test_single_vertex(self):
        assert solve_min_cover(Graph(1)).size == 1

    def test_soundness(self):
        for factors in ((2, 2), (2, 3), (2, 2, 2), (2, 3, 3)):
            g = make_hamming(HammingSpec(factors))
            result = solve_min_cover(g)
            assert verify_cover(g, result.optimum).valid

    def test_determinism_including_node_count(self):
        g = make_hamming(HammingSpec((2, 2, 3)))
        a = solve_min_cover(g)
        b = solve_min_cover(g)
        assert a.size == b.size
        assert a.nodes_explored == b.nodes_explored
        assert a.optimum.paths == b.optimum.paths

    def test_lower_bound_consistency(self):
        for sizes in ((3, 2), (2, 2, 2), (4, 3)):
            g = make_complete_multipartite(PartiteSpec(sizes))
            pool = pool_of(g)
            result = solve_min_cover(g)
            assert result.size >= ceil_div(g.n, pool.max_path_vertices)

    def test_budget_exhaustion_returns_incumbent(self):
        g = make_hamming(HammingSpec((2, 2, 3)))
        result = solve_min_cover(g, budget=5)
        assert not result.proof_of_optimality
        assert verify_cover(g, result.optimum).valid
        assert result.size >= 4

    @pytest.mark.parametrize(
        "g, full",
        [
            (make_hamming(HammingSpec((2, 2, 3))), 6107),
            (make_complete_multipartite(PartiteSpec((2, 2))), 11),
            (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), 11),
        ],
        ids=["K2xK2xK3", "K2,2", "C5"],
    )
    def test_every_budget_up_to_the_full_search(self, g, full):
        assert solve_min_cover(g).nodes_explored == full
        for budget in range(full + 2):
            result = solve_min_cover(g, budget)
            proven = budget >= full
            assert result.nodes_explored == min(budget + 1, full), budget
            assert result.proof_of_optimality == proven, budget
            if proven:
                assert result.optimum.note == "branch-and-bound optimum"
            else:
                assert result.optimum.note in (
                    "budget-truncated incumbent",
                    "greedy incumbent (budget exhausted)",
                )
            assert verify_cover(g, result.optimum).valid, budget

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            solve_min_cover(Graph(3, [(0, 1)]))

    def test_no_singletons_in_optimum_beyond_k1(self):
        g = make_complete_multipartite(PartiteSpec((2, 2)))
        result = solve_min_cover(g)
        assert all(len(p) > 1 for p in result.optimum.paths)


AUGMENTED_SIZES = ((3, 2), (3, 3, 2), (4, 2), (3, 1, 1))
DOMINANT_5_1_PAIRING = ([(1, 2), (3, 4)], [])


class TestAugmentedFamily:
    def test_balanced_and_many_odd_specs_keep_the_closed_form(self):
        for sizes in AUGMENTED_SIZES:
            spec = PartiteSpec(sizes)
            expected = ip_multipartite(spec).value
            for pairing in spec_pairings(sizes, 3):
                g = make_augmented_multipartite(spec, pairing)
                assert solve_min_cover(g).size == expected, (sizes, pairing)

    def test_dominant_augmented_5_1_beats_the_closed_form(self):
        # once a part is a clique minus a matching, an isometric 3-path can
        # hold three vertices of that part, so the ceil(n1/2) count is not
        # a lower bound any more; the solver certifies a 2-path cover
        spec = PartiteSpec((5, 1))
        g = make_augmented_multipartite(spec, DOMINANT_5_1_PAIRING)
        result = solve_min_cover(g)
        assert result.proof_of_optimality
        assert verify_cover(g, result.optimum).valid
        assert result.size == 2
        assert ip_multipartite(spec).value == 3

    def test_the_claimed_value_over_n_and_p(self):
        # Up to isomorphism an augmented graph is K_n minus P disjoint pairs,
        # so P parts of 2 (each its pair) and n - 2P parts of 1 stand for
        # every pairing; the claimed ip is max(ceil(n/3), ceil((n - P)/2))
        for n in range(3, 17):
            for p in range(n // 2 + 1):
                spec = PartiteSpec((2,) * p + (1,) * (n - 2 * p))
                g = make_augmented_multipartite(spec, [[(0, 1)]] * p + [[]] * (n - 2 * p))
                result = solve_min_cover(g, budget=2_000_000)
                assert result.proof_of_optimality, (n, p)
                assert result.size == max(ceil_div(n, 3), ceil_div(n - p, 2)), (n, p)


def grid(a, b):
    """P_a x P_b, vertex i * b + j at row i and column j."""
    edges = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    edges += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    return Graph(a * b, edges)


@pytest.mark.parametrize(
    "a, b, ip",
    [
        (2, 2, 2),
        (2, 3, 2),
        (2, 5, 2),
        (3, 3, 2),
        (3, 4, 3),
        (3, 5, 3),
        (3, 6, 3),
        (3, 7, 3),
        (4, 4, 3),
        (4, 5, 3),
    ],
)
def test_small_grids_are_proven(a, b, ip):
    # the cheap proven rows of the grid table; node counts are left free
    g = grid(a, b)
    result = solve_min_cover(g, budget=2_000_000)
    assert (result.size, result.proof_of_optimality) == (ip, True)
    assert verify_cover(g, result.optimum).valid


def _sweep_graphs():
    """(key, graph, budget) for every solve of the byte-stability sweep;
    a budget of None is the default, full solve."""
    small = [(("multipartite", sizes), make_complete_multipartite(PartiteSpec(sizes)))
             for sizes in sorted_partitions(8)]
    small += [(("hamming", factors), make_hamming(HammingSpec(factors)))
              for factors in _selftest_instances(8)[1]]
    for sizes in AUGMENTED_SIZES:
        for pairing in spec_pairings(sizes, 3):
            g = make_augmented_multipartite(PartiteSpec(sizes), pairing)
            small.append((("augmented", sizes, pairing), g))
    g = make_augmented_multipartite(PartiteSpec((5, 1)), DOMINANT_5_1_PAIRING)
    small.append((("augmented", (5, 1), DOMINANT_5_1_PAIRING), g))
    for key, g in small:
        yield key, g, None
    k12_12 = make_complete_multipartite(PartiteSpec((12, 12)))
    yield ("multipartite", (12, 12)), k12_12, 8_000_000
    yield ("hamming", (2, 2, 5)), make_hamming(HammingSpec((2, 2, 5))), 8_000_000


# SHA-256 of the solver sweep below; any change to a size, node count, proof
# flag, note or returned cover changes it.
SOLVER_SWEEP_SHA256 = (
    "d777e02bb2c452bc218ad8a022634b9d21ced43e15a103fa5f691342b5358860"
)


def test_solver_sweep_is_byte_stable():
    """Every sorted_partitions(8) multipartite spec, the selftest Hamming
    specs and the augmented specs above, each solved in full and at budgets
    0, 1, 2, nodes // 2 and nodes - 1; K12,12 and K2xK2xK5 at 8,000,000."""
    digest = hashlib.sha256()

    def record(key, budget, result):
        digest.update(
            f"{key!r} budget={budget} size={result.size} "
            f"nodes={result.nodes_explored} proven={result.proof_of_optimality} "
            f"note={result.optimum.note}\n".encode("ascii")
        )
        digest.update(format_cover(result.optimum).encode("ascii"))

    for key, g, budget in _sweep_graphs():
        result = solve_min_cover(g, budget)
        record(key, budget, result)
        if budget is not None:
            continue
        full = result.nodes_explored
        for b in dict.fromkeys((0, 1, 2, full // 2, full - 1)):
            record(key, b, solve_min_cover(g, b))
    assert digest.hexdigest() == SOLVER_SWEEP_SHA256


# SHA-256 of every solve of the sweep at its full budget, without the node
# count: what a search must return, however many nodes it takes to prove it.
SOLVER_OUTCOMES_SHA256 = (
    "02c816ffbcbbeb1cdd27f3a5fdc73dc00e68af78a0382a530aa45f9bff1cbd81"
)


def test_solver_sweep_outcomes_at_full_budget():
    """Size, proof flag, note and cover of each _sweep_graphs() solve."""
    digest = hashlib.sha256()
    for key, g, budget in _sweep_graphs():
        result = solve_min_cover(g, budget)
        assert result.proof_of_optimality, key
        digest.update(
            f"{key!r} size={result.size} proven={result.proof_of_optimality} "
            f"note={result.optimum.note}\n".encode("ascii")
        )
        digest.update(format_cover(result.optimum).encode("ascii"))
    assert digest.hexdigest() == SOLVER_OUTCOMES_SHA256


def _plain_search(g, budget):
    """The branch and bound without the failed-subtree table, copied from
    solve_min_cover as it was before the table: the reference for the size,
    proof, note and cover of a full search.  Returns (size, nodes_explored,
    proof_of_optimality, note, path tuples)."""
    pool = pool_of(g)
    n = g.n
    full = (1 << n) - 1
    masks = pool.masks
    max_len = pool.max_path_vertices
    candidates = [[] for _ in range(n)]
    for i, p in enumerate(pool.paths):
        if len(p) > 1:
            for v in p:
                candidates[v].append((i, masks[i]))
    for v in range(n):
        if not candidates[v]:
            candidates[v] = [
                (i, masks[i]) for i, p in enumerate(pool.paths) if p == (v,)
            ]
    greedy = _greedy_indices(pool, n)
    limit = len(greedy) + 1
    best = greedy
    improved = False
    nodes = 1
    exhausted = nodes > budget
    stack = [] if exhausted else [(0, 0, iter(candidates[0]))]
    chosen = [0] * n
    while stack:
        covered, depth, children = stack[-1]
        depth += 1
        need = n - (limit - depth - 1) * max_len
        for i, mask in children:
            child = covered | mask
            nodes += 1
            if nodes > budget:
                exhausted = True
                stack.clear()
                break
            if child == full:
                chosen[depth - 1] = i
                best = chosen[:depth]
                improved = True
                limit = depth
                need = n - (limit - depth - 1) * max_len
                continue
            if child.bit_count() < need:
                continue
            chosen[depth - 1] = i
            v = (~child & (child + 1)).bit_length() - 1
            stack.append((child, depth, iter(candidates[v])))
            break
        else:
            stack.pop()
    note = "branch-and-bound optimum" if not exhausted else "budget-truncated incumbent"
    if not improved and exhausted:
        note = "greedy incumbent (budget exhausted)"
    paths = tuple(pool.paths[i] for i in best)
    return len(best), nodes, not exhausted, note, paths


@st.composite
def connected_graphs(draw):
    """A random connected graph on 2-14 vertices: a random spanning tree
    (each vertex joined to an earlier one) plus a drawn set of other edges."""
    n = draw(st.integers(min_value=2, max_value=14))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    edges |= {pair for pair in pairs if draw(st.floats(0, 1)) < density}
    return Graph(n, sorted(edges))


@st.composite
def multipartite_graphs(draw):
    """A random complete multipartite graph on 2-14 vertices, or its
    augmented form under a random pairing of each part."""
    sizes = draw(
        st.lists(st.integers(1, 6), min_size=2, max_size=6).filter(lambda s: sum(s) <= 14)
    )
    spec = PartiteSpec(sizes)
    if draw(st.booleans()):
        return make_complete_multipartite(spec)
    pairings = []
    for size in spec.sizes:
        order = draw(st.permutations(range(size)))
        pairings.append([order[k:k + 2] for k in range(0, size - 1, 2)])
    return make_augmented_multipartite(spec, pairings)


# Hamming graphs of two or three factors on at most 16 vertices
SMALL_HAMMING = tuple(
    factors
    for factors in [(a, b) for a in range(2, 9) for b in range(a, 9)]
    + [(a, b, c) for a in range(2, 5) for b in range(a, 5) for c in range(b, 9)]
    if math.prod(factors) <= 16
)


def relabelled(g, perm):
    """g with vertex v renamed perm[v], as a parsed graph would store it."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def relabelled_hamming_graphs(draw):
    g = make_hamming(HammingSpec(draw(st.sampled_from(SMALL_HAMMING))))
    return relabelled(g, draw(st.permutations(range(g.n))))


def _outcome(result):
    return (
        result.size,
        result.proof_of_optimality,
        result.optimum.note,
        result.optimum.paths,
    )


def _assert_plain_outcome(g, data):
    """A full search returns the plain loop's size, proof and cover, whether
    the group is derived at once, part way or (usually) never, and whether
    the table is full from the start, part way or never.  Below the full
    count, a budget stops the search after budget + 1 nodes with a valid
    cover and no proof."""
    size, _, proven, note, paths = _plain_search(g, 10**9)
    assert proven
    want = (size, proven, note, paths)
    full = solve_min_cover(g).nodes_explored
    part_way = data.draw(st.integers(min_value=1, max_value=full))
    for after in (solver.ORBIT_KEY_AFTER, 0, part_way):
        with mock.patch.object(solver, "ORBIT_KEY_AFTER", after):
            for cap in (solver.FAILED_TABLE_CAP, 0, 64):
                with mock.patch.object(solver, "FAILED_TABLE_CAP", cap):
                    assert _outcome(solve_min_cover(g)) == want, (after, cap)
            searched = solve_min_cover(g).nodes_explored
            drawn = data.draw(st.integers(min_value=0, max_value=searched + 1))
            for budget in dict.fromkeys((0, 1, 2, searched - 1, searched, drawn)):
                result = solve_min_cover(g, budget)
                assert result.nodes_explored == min(budget + 1, searched), (after, budget)
                assert result.proof_of_optimality == (budget >= searched), (after, budget)
                assert verify_cover(g, result.optimum).valid, (after, budget)
                if result.proof_of_optimality:
                    assert _outcome(result) == want, (after, budget)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(connected_graphs(), multipartite_graphs(), relabelled_hamming_graphs()),
    st.data(),
)
def test_the_table_replays_the_plain_search_exactly(g, data):
    _assert_plain_outcome(g, data)


def rewired(g, old, new):
    """g with the edge ``old`` replaced by the non-edge ``new``."""
    assert g.has_edge(*old) and not g.has_edge(*new)
    return Graph(g.n, [e for e in g.edges() if e != old] + [new])


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_a_rewired_hamming_graph_is_not_recognised(data):
    # K2 x K2 x K4 under a fixed relabelling, then the edge 1-8 moved to
    # 1-2: the same n and m, the same lines through vertex 0, and distinct
    # coordinates read from the distances, so only the check of every edge
    # against the coordinates can tell that it is not a Hamming graph
    g = make_hamming(HammingSpec((2, 2, 4)))
    g = relabelled(g, random.Random(16).sample(range(g.n), g.n))
    assert sorted(symmetry._hamming_coordinates(g, all_pairs_distances(g))[0]) == [2, 2, 4]
    h = rewired(g, (1, 8), (1, 2))
    assert (h.n, h.m) == (g.n, g.m)
    assert symmetry._hamming_coordinates(h, all_pairs_distances(h)) is None
    _assert_plain_outcome(h, data)


def shrikhande_graph():
    """The Shrikhande graph: vertex 4a+b of Z4 x Z4 joined to its sums with
    ±(1,0), ±(0,1) and ±(1,1).  It has the 16 vertices, 48 edges and
    degree 6 of K4 x K4, but it is not a Hamming graph."""
    steps = ((1, 0), (0, 1), (1, 1))
    return Graph(16, [
        (4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)
        for a in range(4) for b in range(4) for x, y in steps
    ])


@pytest.mark.parametrize("seed", [None, *range(20)])
def test_the_shrikhande_graph_is_not_recognised(seed):
    # the neighbours of a vertex form a 6-cycle.  Under about half of these
    # numberings it splits into two "lines" of 3, and the 4 x 4 coordinates
    # read from the distances repeat; a false match would key the failed
    # table by a map that is not an automorphism
    g = shrikhande_graph()
    if seed is not None:
        g = relabelled(g, random.Random(seed).sample(range(16), 16))
    assert (g.n, g.m) == (16, 48)
    d = all_pairs_distances(g)
    assert symmetry._hamming_coordinates(g, d) is None
    assert symmetry.orbit_key(g, d) is None


def _recognised_soundly(g):
    """Whether g's Hamming coordinates were found; when they were, g must be
    isomorphic to the product of complete graphs of the returned sizes."""
    found = symmetry._hamming_coordinates(g, all_pairs_distances(g))
    if found is None:
        return False
    sizes, _ = found
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    product = functools.reduce(
        nx.cartesian_product, map(nx.complete_graph, sizes), nx.empty_graph(1)
    )
    assert nx.is_isomorphic(G, product)
    return True


def test_hamming_recognition_is_sound_on_the_atlas():
    # the connected graphs of up to 7 vertices; the Hamming graphs among
    # them are K1 to K7, K2 x K2 and K2 x K3
    atlas = [G for G in nx.graph_atlas_g() if len(G) and nx.is_connected(G)]
    assert len(atlas) == 996
    recognised = sum(_recognised_soundly(Graph(len(G), list(G.edges()))) for G in atlas)
    assert recognised == 9


SWAPPED_FACTORS = [
    (3, 3), (2, 4), (2, 2, 2), (2, 2, 3), (2, 3, 3),
    (4, 4), (3, 3, 3), (2, 2, 4), (3, 4), (2, 6),
]


@pytest.mark.parametrize("factors", SWAPPED_FACTORS)
def test_hamming_recognition_is_sound_after_edge_swaps(factors):
    # 1 to 5 degree-preserving swaps keep n, m and every degree; most
    # results are not Hamming graphs, and each one that is recognised
    # must be one
    base = make_hamming(HammingSpec(factors))
    for seed in range(300):
        G = nx.Graph(base.edges())
        nx.double_edge_swap(G, nswap=1 + seed % 5, max_tries=1000, seed=seed)
        perm = random.Random(seed).sample(range(base.n), base.n)
        _recognised_soundly(relabelled(Graph(base.n, list(G.edges())), perm))


def test_the_shrikhande_graph_is_solved_without_a_key():
    # diameter 2, so an isometric path has at most 3 vertices and the
    # counting bound is ceil(16/3) = 6
    g = shrikhande_graph()
    result = solve_min_cover(g)
    assert (result.size, result.nodes_explored, result.proof_of_optimality) == (6, 199, True)
    assert result.size == ceil_div(g.n, 3)
    assert verify_cover(g, result.optimum).valid


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_twin_classes_that_cannot_swap_keep_their_counts_apart(data):
    # augmented K_{4,2} is K6 minus the matching 01, 23, 45: three classes
    # of open twins, any two of which may swap.  Joining a vertex 6 to 0 and
    # 1 only leaves the classes {2, 3} and {4, 5} free to swap.
    g = make_augmented_multipartite(PartiteSpec((4, 2)), [[(0, 1), (2, 3)], [(0, 1)]])
    canon, _ = symmetry.orbit_key(g, all_pairs_distances(g))
    assert canon(0b000001) == canon(0b000100) == canon(0b100000)
    assert canon(0b000011) == canon(0b001100) != canon(0b000101)
    h = Graph(7, list(g.edges()) + [(0, 6), (1, 6)])
    canon, _ = symmetry.orbit_key(h, all_pairs_distances(h))
    assert canon(0b000001) == canon(0b000010)
    assert canon(0b000100) == canon(0b001000) == canon(0b010000) == canon(0b100000)
    assert canon(0b000001) != canon(0b000100)
    assert canon(0b000111) != canon(0b011100)
    _assert_plain_outcome(h, data)


def _same_orbit(g, a, b):
    """Whether an automorphism of g maps the vertex set a onto b (networkx)."""
    marked = []
    for mask in (a, b):
        h = nx.Graph(g.edges())
        h.add_nodes_from(range(g.n))
        nx.set_node_attributes(h, {v: mask >> v & 1 for v in range(g.n)}, "in")
        marked.append(h)
    return nx.vf2pp_is_isomorphic(*marked, node_label="in")


ORBIT_GRAPHS = {
    "K2xK2xK2": relabelled(make_hamming(HammingSpec((2, 2, 2))), (5, 2, 7, 0, 3, 6, 1, 4)),
    "K3xK3": relabelled(make_hamming(HammingSpec((3, 3))), (4, 8, 0, 6, 2, 7, 1, 3, 5)),
    "K2xK4": make_hamming(HammingSpec((2, 4))),
    "K3,3,2": make_complete_multipartite(PartiteSpec((3, 3, 2))),
    "K3,1,1,1,1": make_complete_multipartite(PartiteSpec((3, 1, 1, 1, 1))),
    # an open twin class {0, 1, 2} and a closed one {3, 4, 5} of equal size
    "K3,1,1,1": make_complete_multipartite(PartiteSpec((3, 1, 1, 1))),
    "augmented K4,3": make_augmented_multipartite(
        PartiteSpec((4, 3)), [[(0, 2), (1, 3)], [(0, 1)]]
    ),
    "C4 with a tail": Graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)]),
}


@pytest.mark.parametrize("name", ORBIT_GRAPHS)
def test_one_key_means_one_orbit(name):
    # the key is sound: two vertex sets with one key are automorphic images
    # of each other, so a failed subtree stands for every set of its key
    g = ORBIT_GRAPHS[name]
    canon, width = symmetry.orbit_key(g, all_pairs_distances(g))
    classes = {}
    for mask in range(1 << g.n):
        key = canon(mask)
        assert 0 <= key < 1 << width
        classes.setdefault(key, []).append(mask)
    assert len(classes) < 1 << g.n
    for first, *rest in classes.values():
        for mask in rest:
            assert _same_orbit(g, first, mask), (first, mask)


def test_a_graph_without_twins_or_axes_has_no_key():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    assert symmetry.orbit_key(g, all_pairs_distances(g)) is None


def test_a_hamming_graph_with_too_many_cells_has_no_key():
    # a column of K4 x K4 x K4 has 16 cells, more than a key takes
    g = make_hamming(HammingSpec((4, 4, 4)))
    assert symmetry.orbit_key(g, all_pairs_distances(g)) is None


@pytest.mark.parametrize(
    "factors", [(5,), (2, 4), (7, 7), (2, 2, 2), (2, 2, 7), (3, 3, 4), (2, 5, 5), (3, 4, 5)]
)
def test_a_hamming_key_takes_n_bits(factors):
    g = make_hamming(HammingSpec(factors))
    canon, width = symmetry.orbit_key(g, all_pairs_distances(g))
    assert width == g.n
    assert 0 <= canon((1 << g.n) - 1) < 1 << width


def _moved_mask(perm, mask):
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


@pytest.mark.parametrize("factors,full_group", [((2, 5, 5), False), ((3, 3, 4), True)])
def test_hamming_keys_follow_the_column_and_cell_maps(factors, full_group):
    # K3 x K3 x K4 keys under column permutations and the 72 automorphisms
    # of K3 x K3 on the cells; K2 x K5 x K5 has 240 such automorphisms on
    # 10 cells, too large a table, so its key moves the columns only
    n = math.prod(factors)
    rng = random.Random(sum(factors))
    g = relabelled(make_hamming(HammingSpec(factors)), rng.sample(range(n), n))
    d = all_pairs_distances(g)
    canon, _ = symmetry.orbit_key(g, d)
    sizes, coords = symmetry._hamming_coordinates(g, d)
    axis = sizes.index(max(sizes))
    a, b = (k for k in range(len(sizes)) if k != axis)
    index = {x: v for v, x in enumerate(coords)}

    def automorphism(move):
        return [index[tuple(move(list(x)))] for x in coords]

    values = rng.sample(range(sizes[axis]), sizes[axis])

    def move_columns(x):
        x[axis] = values[x[axis]]
        return x

    def move_cells(x):
        # a value shift on one other axis (in K3 x K3 also an axis swap)
        if sizes[a] == sizes[b]:
            x[a], x[b] = x[b], x[a]
        x[b] = (x[b] + 1) % sizes[b]
        return x

    columns = automorphism(move_columns)
    cells = automorphism(move_cells)
    masks = [rng.getrandbits(n) for _ in range(100)]
    masks += [sum(1 << v for v in rng.sample(range(n), 3)) for _ in range(300)]
    for mask in masks:
        assert canon(_moved_mask(columns, mask)) == canon(mask)
    moved = [canon(_moved_mask(cells, mask)) == canon(mask) for mask in masks]
    assert all(moved) if full_group else not all(moved)
    # equal keys among sampled 3-sets: automorphic images
    classes = {}
    for mask in masks[100:]:
        classes.setdefault(canon(mask), []).append(mask)
    pairs = [(first, mask) for first, *rest in classes.values() for mask in rest]
    assert len(pairs) >= 10
    for first, mask in pairs:
        assert _same_orbit(g, first, mask), (first, mask)


def test_k3_1x13_is_proven_at_the_default_budget():
    # the many-odd case of the multipartite formula at 16 vertices: the
    # plain search takes 117,306,667 nodes, about 22 s CPU
    g = make_complete_multipartite(PartiteSpec((3,) + (1,) * 13))
    result = solve_min_cover(g)
    assert (result.size, result.nodes_explored, result.proof_of_optimality) == (
        8,
        10_414,
        True,
    )
    assert ip_multipartite(PartiteSpec((3,) + (1,) * 13)).value == 8


def hamming_file(factors, seed):
    """The graph text of a Hamming graph under a seeded relabelling."""
    g = make_hamming(HammingSpec(factors))
    perm = random.Random(seed).sample(range(g.n), g.n)
    edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges())
    return f"p {g.n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


@pytest.mark.parametrize("c", [7, 9, 11])
def test_the_exceptional_family_is_proven_from_a_parsed_file(c):
    # K2 x K2 x K_c, c odd, needs n/4 + 1 paths, one more than the counting
    # bound; parsed from a relabelled file, the solver finds the Hamming
    # axes without a spec and proves it at the default budget
    g = parse_graph(hamming_file((2, 2, c), 0))
    result = solve_min_cover(g)
    assert result.proof_of_optimality
    assert result.size == g.n // 4 + 1 == ip_hamming3(2, 2, c).value
    assert verify_cover(g, result.optimum).valid
