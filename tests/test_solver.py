"""Path pool enumeration and the branch-and-bound oracle."""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from isopath import (
    DisconnectedGraphError,
    Graph,
    HammingSpec,
    PartiteSpec,
    PoolBudgetError,
    all_pairs_distances,
    canonical_path,
    enumerate_isometric_paths,
    format_cover,
    greedy_cover,
    ip_multipartite,
    make_augmented_multipartite,
    make_complete_multipartite,
    make_hamming,
    solve_min_cover,
    verify_cover,
)
from isopath import solver
from isopath.cli import _selftest_instances
from isopath.formulas import ceil_div
from isopath.solver import _greedy_indices

from conftest import sorted_partitions, spec_pairings


def pool_of(g):
    return enumerate_isometric_paths(g, all_pairs_distances(g))


class TestEnumeration:
    def test_single_edge(self):
        pool = pool_of(Graph(2, [(0, 1)]))
        assert [p.vertices for p in pool.paths] == [(0,), (0, 1), (1,)]

    def test_path_graph_on_three_vertices(self):
        pool = pool_of(Graph(3, [(0, 1), (1, 2)]))
        assert [p.vertices for p in pool.paths] == [
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
        seqs = [p.vertices for p in pool.paths]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        for p in pool.paths:
            assert canonical_path(p).vertices == p.vertices

    def test_masks_match_paths(self):
        pool = pool_of(make_hamming(HammingSpec((2, 2))))
        for p, mask in zip(pool.paths, pool.masks):
            assert mask == sum(1 << v for v in set(p.vertices))

    def test_disconnected_rejected(self):
        g = Graph(2)
        with pytest.raises(DisconnectedGraphError):
            pool_of(g)

    def test_pool_cap(self):
        g = make_hamming(HammingSpec((3, 3)))
        with pytest.raises(PoolBudgetError):
            enumerate_isometric_paths(g, all_pairs_distances(g), pool_cap=5)

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


class TestGreedy:
    def test_cube_upper_bound(self):
        g = make_hamming(HammingSpec((2, 2, 2)))
        cover = greedy_cover(g, pool_of(g))
        assert verify_cover(g, cover).valid
        assert len(cover.paths) <= 3

    def test_single_vertex(self):
        g = Graph(1)
        cover = greedy_cover(g, pool_of(g))
        assert [p.vertices for p in cover.paths] == [(0,)]

    def test_star_k21_is_one_path(self):
        g = make_complete_multipartite(PartiteSpec((2, 1)))
        cover = greedy_cover(g, pool_of(g))
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
        assert [p.vertices for p in a.optimum.paths] == [
            p.vertices for p in b.optimum.paths
        ]

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
            (make_hamming(HammingSpec((2, 2, 3))), 8988),
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
    "69bc3292c38f4b566a2806b5beecb0d62b34c3658bcd442b13e5e0b2d4cef0b9"
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


def _plain_search(g, budget):
    """The branch and bound without the failed-subtree table, copied from
    solve_min_cover as it was before the table: the reference that the
    table must reproduce exactly.  Returns (size, nodes_explored,
    proof_of_optimality, note, path tuples)."""
    pool = pool_of(g)
    n = g.n
    full = (1 << n) - 1
    masks = pool.masks
    max_len = pool.max_path_vertices
    candidates = [[] for _ in range(n)]
    for i, p in enumerate(pool.paths):
        if len(p) > 1:
            for v in p.vertices:
                candidates[v].append((i, masks[i]))
    for v in range(n):
        if not candidates[v]:
            candidates[v] = [
                (i, masks[i]) for i, p in enumerate(pool.paths) if p.vertices == (v,)
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
    paths = tuple(pool.paths[i].vertices for i in best)
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


@settings(max_examples=120, deadline=None)
@given(connected_graphs(), st.data())
def test_the_table_replays_the_plain_search_exactly(g, data):
    def outcome(result):
        return (
            result.size,
            result.nodes_explored,
            result.proof_of_optimality,
            result.optimum.note,
            tuple(p.vertices for p in result.optimum.paths),
        )

    full = solve_min_cover(g).nodes_explored
    drawn = data.draw(st.integers(min_value=0, max_value=full + 1))
    for budget in dict.fromkeys((0, 1, 2, full - 1, full, full + 1, drawn)):
        plain = _plain_search(g, budget)
        assert outcome(solve_min_cover(g, budget)) == plain, budget
        # a table that is full, from the start or part way, records no more
        for cap in (0, 64):
            with mock.patch.object(solver, "FAILED_TABLE_CAP", cap):
                assert outcome(solve_min_cover(g, budget)) == plain, (budget, cap)


def test_k3_1x13_is_proven_past_the_default_budget():
    # the many-odd case of the multipartite formula at 16 vertices: the
    # plain search takes about 22 s CPU to reach the same count
    g = make_complete_multipartite(PartiteSpec((3,) + (1,) * 13))
    result = solve_min_cover(g, 2 * 10**8)
    assert (result.size, result.nodes_explored, result.proof_of_optimality) == (
        8,
        117_306_667,
        True,
    )
    assert ip_multipartite(PartiteSpec((3,) + (1,) * 13)).value == 8
