"""Independent brute-force oracle: enumerate all isometric paths of a small
graph and find a minimum cover by branch-and-bound set cover.

Intended for graphs up to roughly 30 vertices.  The search is
single-threaded and fully deterministic; identical inputs yield identical
results including the node count.
"""

from ._record import Record
from .cover import PROVENANCE_SOLVER, Cover, Path
from .errors import DisconnectedGraphError, PoolBudgetError
from .graph import DistanceMatrix, Graph, all_pairs_distances

DEFAULT_POOL_CAP = 10**7
DEFAULT_NODE_BUDGET = 10**8
# Most entries the failed-subtree table of one solve holds; an entry takes
# about 100 bytes, so a full table is about 200 MB.
FAILED_TABLE_CAP = 1 << 21


class PathPool(Record):
    """All isometric paths of a graph in canonical order.

    Paths are stored with the lexicographically smaller endpoint first and
    the list is sorted lexicographically by vertex sequence.  ``masks[i]``
    is the covered-vertex bitset of ``paths[i]``.
    """

    __slots__ = ("paths", "masks", "max_path_vertices")

    def __init__(self, paths, masks, max_path_vertices):
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "max_path_vertices", max_path_vertices)


class SolveResult(Record):
    __slots__ = ("optimum", "size", "nodes_explored", "proof_of_optimality")

    def __init__(self, optimum, size, nodes_explored, proof_of_optimality):
        object.__setattr__(self, "optimum", optimum)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "nodes_explored", nodes_explored)
        object.__setattr__(self, "proof_of_optimality", proof_of_optimality)


def enumerate_isometric_paths(
    g: Graph, d: DistanceMatrix, pool_cap: int = DEFAULT_POOL_CAP
) -> PathPool:
    """Every simple path whose edge length equals its endpoint distance,
    including all 1- and 2-vertex paths, each exactly once in canonical form.
    """
    n = g.n
    if n == 0 or not all(d[0][v] >= 0 for v in range(n)):
        raise DisconnectedGraphError("isometric path enumeration needs a connected graph")
    found = [Path((v,)) for v in range(n)]
    adj = [g.neighbors(v) for v in range(n)]

    def extend(prefix, t, remaining):
        # prefix is isometric from its start; remaining = d(start, t) - len in edges
        if len(found) > pool_cap:
            raise PoolBudgetError(f"isometric path pool exceeds cap {pool_cap}")
        tail = prefix[-1]
        row_s = d[prefix[0]]
        row_t = d[t]
        depth = len(prefix)
        for w in adj[tail]:
            if row_s[w] != depth or row_t[w] != remaining - 1:
                continue
            if w == t:
                found.append(Path(prefix + (w,)))
            else:
                extend(prefix + (w,), t, remaining - 1)

    for s in range(n):
        for t in range(s + 1, n):
            extend((s,), t, d[s][t])
    if len(found) > pool_cap:
        raise PoolBudgetError(f"isometric path pool exceeds cap {pool_cap}")
    found.sort(key=lambda p: p.vertices)
    masks = []
    for p in found:
        mask = 0
        for v in p.vertices:
            mask |= 1 << v
        masks.append(mask)
    return PathPool(tuple(found), tuple(masks), max(len(p) for p in found))


def _greedy_indices(pool: PathPool, n: int):
    full = (1 << n) - 1
    covered = 0
    chosen = []
    while covered != full:
        best_idx = -1
        best_gain = 0
        for i, mask in enumerate(pool.masks):
            gain = (mask & ~covered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_idx = i
        if best_idx < 0:
            raise DisconnectedGraphError("pool cannot cover every vertex")
        chosen.append(best_idx)
        covered |= pool.masks[best_idx]
    return chosen


def greedy_cover(g: Graph, pool: PathPool) -> Cover:
    """Valid cover from repeatedly taking the canonical-first path covering
    the most uncovered vertices; used to seed the exact search."""
    chosen = _greedy_indices(pool, g.n)
    return Cover(
        tuple(pool.paths[i] for i in chosen),
        provenance=PROVENANCE_SOLVER,
        note="greedy upper bound",
    )


def solve_min_cover(g: Graph, budget: int | None = None) -> SolveResult:
    """Minimum isometric path cover by branch-and-bound over the path pool.

    The search is one loop over an explicit stack of open nodes.  A node is
    a set of chosen paths; the root chooses none.  An open node branches on
    its lowest-index uncovered vertex, trying the pool paths through it in
    canonical order, and tests each child before descending: a child that
    covers every vertex becomes the incumbent, a child whose bound size +
    ceil(uncovered / max-path-size) does not beat the incumbent is cut, and
    only the rest are opened.  ``nodes_explored`` counts the root and every
    child tested, whether it completed the cover, was cut or was opened.
    A subtree in which no cover was completed is recorded in a table, and a
    later node with the same covered vertices and the same slack (limit -
    depth) adds the recorded count instead of searching it again; so
    ``nodes_explored`` is the node count of the plain search, replayed
    subtrees included, and the budget limits that count.  The table keeps
    at most FAILED_TABLE_CAP entries; past that, subtrees are searched
    again, which changes the time taken but not the result.
    The result is deterministic: the optimum returned comes from the first
    node, in canonical search order, with a complete child of optimum size,
    and is that node's last such child.  When a node would exceed the
    budget the search stops, and the best incumbent is returned with
    proof_of_optimality False.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    d = all_pairs_distances(g)
    if g.n == 0 or not d.connected:
        raise DisconnectedGraphError("solver needs a non-empty connected graph")
    pool = enumerate_isometric_paths(g, d)
    n = g.n
    full = (1 << n) - 1
    masks = pool.masks
    max_len = pool.max_path_vertices

    # Dominance rule: never branch on a singleton while a multi-vertex path
    # covers the branching vertex (always true for connected n >= 2).
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
    # limit = smallest size we still have to beat; ties with the greedy seed
    # are explored, so the search, not the greedy seed, picks the optimum.
    limit = len(greedy) + 1
    best = greedy
    # The root covers nothing and is never cut, since ceil(n / max_len) <=
    # optimum <= len(greedy); it branches on vertex 0.
    nodes = 1
    exhausted = nodes > budget
    # Failed-subtree table.  Below a node, until a cover is completed, the
    # search reads only its covered mask and its slack limit - depth: the
    # children come from candidates[lowest uncovered vertex of covered],
    # the cut is k < n - (limit - depth - 1) * max_len, and chosen and best
    # are written but never read.  So a subtree in which no cover was
    # completed is searched the same way, node for node and again without a
    # completion, wherever the same covered mask recurs at the same slack.
    # failed maps covered | slack << n to the nodes counted below such a
    # node; a hit adds them instead of searching the subtree again.  A full
    # table takes no more entries: a replay is exact, so this costs time only.
    failed = {}
    failed_cap = FAILED_TABLE_CAP
    completions = 0
    # open nodes: (covered, depth, iterator over the untried candidates,
    # nodes and completions when it was opened); chosen[:depth] holds the
    # paths of the open node on top of the stack
    stack = [] if exhausted else [(0, 0, iter(candidates[0]), nodes, 0)]
    chosen = [0] * n
    while stack:
        covered, depth, children, _, _ = stack[-1]
        depth += 1  # of the children
        # A child at this depth covering k vertices is cut iff
        # depth + ceil((n - k) / max_len) >= limit, that is iff k < need.
        need = n - (limit - depth - 1) * max_len
        slack_key = (limit - depth) << n
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
                completions += 1
                limit = depth
                need = n - (limit - depth - 1) * max_len
                slack_key = (limit - depth) << n
                continue
            if child.bit_count() < need:
                continue
            below = failed.get(child | slack_key)
            if below is not None:
                nodes += below
                if nodes > budget:
                    # the plain search would stop inside this subtree
                    nodes = budget + 1
                    exhausted = True
                    stack.clear()
                    break
                continue
            chosen[depth - 1] = i
            # branch on the lowest uncovered vertex: the lowest 0 bit of child
            v = (~child & (child + 1)).bit_length() - 1
            stack.append((child, depth, iter(candidates[v]), nodes, completions))
            break
        else:
            covered, depth, _, opened, completed = stack.pop()
            if completed == completions and len(failed) < failed_cap:
                failed[covered | (limit - depth) << n] = nodes - opened

    note = "branch-and-bound optimum" if not exhausted else "budget-truncated incumbent"
    if not completions and exhausted:
        note = "greedy incumbent (budget exhausted)"
    cover = Cover(
        tuple(pool.paths[i] for i in best),
        provenance=PROVENANCE_SOLVER,
        note=note,
    )
    return SolveResult(
        optimum=cover,
        size=len(best),
        nodes_explored=nodes,
        proof_of_optimality=not exhausted,
    )
