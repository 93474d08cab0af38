"""Independent brute-force oracle: enumerate all isometric paths of a small
graph and find a minimum cover by branch-and-bound set cover.

Intended for graphs up to roughly 30 vertices.  The search is
single-threaded and fully deterministic; identical inputs yield identical
results including the node count.
"""

from ._record import Record
from .cover import Cover
from .errors import DisconnectedGraphError, PoolBudgetError
from .graph import Graph, all_pairs_distances

# Most path vertices, summed over the paths, that one path pool stores.
POOL_CAP = 10**7
DEFAULT_NODE_BUDGET = 10**8
# Most entries the failed-subtree table of one solve holds; an entry, a key
# of n bits or so in a set, takes about 70 bytes: 150 MB in all.
FAILED_TABLE_CAP = 1 << 21
# Nodes a search tests before it derives its automorphism group and keys
# the failed-subtree table by orbit; smaller searches never pay for it.
ORBIT_KEY_AFTER = 10_000


class PathPool(Record):
    """All isometric paths of a graph in canonical order.

    Each path is a tuple of vertex indices with the lexicographically
    smaller endpoint first, and the paths are sorted lexicographically.
    ``masks[i]`` is the covered-vertex bitset of ``paths[i]``.
    """

    __slots__ = ("paths", "masks", "max_path_vertices")

    def __init__(self, paths, masks, max_path_vertices):
        Record.__init__(self, paths, masks, max_path_vertices)


class SolveResult(Record):
    __slots__ = ("optimum", "size", "nodes_explored", "proof_of_optimality")

    def __init__(self, optimum, size, nodes_explored, proof_of_optimality):
        Record.__init__(self, optimum, size, nodes_explored, proof_of_optimality)


def enumerate_isometric_paths(g: Graph, d: list) -> PathPool:
    """Every simple path whose edge length equals its endpoint distance,
    including all 1- and 2-vertex paths, each exactly once in canonical form.

    ``d`` is the distance matrix of g (``all_pairs_distances``).  For each
    target t, every s < t walks to t by steps to neighbours closer to t.  A
    neighbour of t has one closer neighbour, t itself, so its closer list is
    ``(t,)`` with no scan, and a start s adjacent to t stores the edge (s, t)
    with no walk.  Raises PoolBudgetError iff the paths would store more than
    POOL_CAP vertices in all: checked first against a lower bound (n
    singletons plus one shortest path of d(s, t) + 1 vertices for each pair
    s < t), then at each stored walk and, to count the stored edges, after
    each target's loop.
    """
    n = g.n
    if n == 0 or min(d[0]) < 0:
        raise DisconnectedGraphError("path enumeration needs a non-empty connected graph")
    too_many = _too_many()
    if n + n * (n - 1) // 2 + sum(map(sum, d)) // 2 > POOL_CAP:
        raise PoolBudgetError(too_many)
    stored = n
    found = [(v,) for v in range(n)]
    adj = [g.neighbors(v) for v in range(n)]
    for t in range(1, n):
        # A walk that steps to a vertex one closer to t at every step is a
        # shortest path: its start is at distance k from t after k steps.
        # A neighbour of t has one closer neighbour, t itself.
        row = d[t]
        closer = [
            (t,) if k == 1 else [w for w in nbrs if row[w] < k] for nbrs, k in zip(adj, row)
        ]
        for s in range(t):
            if row[s] == 1:
                stored += 2
                found.append((s, t))
                continue
            stack = [(s,)]
            while stack:
                prefix = stack.pop()
                for w in closer[prefix[-1]]:
                    if w == t:
                        stored += len(prefix) + 1
                        if stored > POOL_CAP:
                            raise PoolBudgetError(too_many)
                        found.append(prefix + (w,))
                    else:
                        stack.append(prefix + (w,))
        if stored > POOL_CAP:
            raise PoolBudgetError(too_many)
    found.sort()
    masks = []
    for p in found:
        mask = 0
        for v in p:
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
        # an uncovered vertex's singleton is in the pool, so best_gain >= 1
        chosen.append(best_idx)
        covered |= pool.masks[best_idx]
    return chosen


def check_pool_order(n: int) -> None:
    """Raise PoolBudgetError if an n-vertex graph's pool must exceed POOL_CAP.

    A connected graph's pool stores at least n + sum over s < t of
    (d(s, t) + 1) >= n^2 vertices, so n > isqrt(POOL_CAP) is rejected from n
    alone, before the n^2 distances are built.
    """
    if n * n > POOL_CAP:
        raise PoolBudgetError(_too_many())


def _too_many():
    return f"isometric path pool exceeds cap of {POOL_CAP} vertices"


def solve_min_cover(g: Graph, budget: int | None = None) -> SolveResult:
    """Minimum isometric path cover by branch-and-bound over the path pool.

    The search is one loop over a stack of open nodes.  A node is its stack
    entry: the paths that opened the entries up to it are its chosen paths,
    and its depth, their count, is its stack index.  An open node branches on
    its lowest-index uncovered vertex, trying the pool paths through it in
    canonical order, and tests each child before descending: a child that
    covers every vertex becomes the incumbent, a child whose bound size +
    ceil(uncovered / max-path-size) does not beat the incumbent is cut, a
    child the failed-subtree table rules out is skipped, and only the rest
    are opened.  ``nodes_explored`` counts the nodes searched: the root and
    every child tested, whether it completed the cover, was cut, was
    skipped or was opened; the budget limits that count.
    A subtree in which no cover was completed is recorded in the table by
    the orbit of its covered vertex set under a group of automorphisms of g
    (``symmetry.orbit_key``) and its slack (limit - depth), and a later node
    with the same pair is skipped: no cover completes below it either.  The
    group is derived once the search has tested ORBIT_KEY_AFTER nodes; until
    then, and on a graph where no symmetry is found, a set is its own key.
    The table keeps at most FAILED_TABLE_CAP entries; past that, subtrees
    are searched again, which changes the time taken but not the result.
    The result is deterministic: the optimum returned comes from the first
    node, in canonical search order, with a complete child of optimum size,
    and is that node's last such child.  Since a skipped subtree holds no
    completion, the sequence of completions, and so a full search's size,
    cover and proof, are those of the search without the table.  When a node
    would exceed the budget the search stops, and the best incumbent is
    returned with proof_of_optimality False.
    """
    if budget is None:
        budget = DEFAULT_NODE_BUDGET
    check_pool_order(g.n)
    d = all_pairs_distances(g)
    pool = enumerate_isometric_paths(g, d)
    n = g.n
    full = (1 << n) - 1
    masks = pool.masks
    max_len = pool.max_path_vertices

    # Dominance rule: never branch on a singleton while a multi-vertex path
    # covers the branching vertex (one does unless n == 1, g being connected).
    candidates = [[] for _ in range(n)]
    for entry, p in zip(enumerate(masks), pool.paths):
        if len(p) > 1 or n == 1:
            for v in p:
                candidates[v].append(entry)

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
    # children come from candidates[lowest uncovered vertex of covered] and
    # the cut is k < n - (limit - depth - 1) * max_len.  It completes a cover
    # iff some set of fewer than slack pool paths covers the rest, and an
    # automorphism of g maps pool paths to pool paths.  So a subtree in which
    # no cover was completed has none wherever an image of its covered mask
    # recurs at the same slack.  failed holds canon(covered) | slack << shift
    # for such nodes, canon being the identity until the group is derived.
    failed = set()
    failed_cap = FAILED_TABLE_CAP
    canon = None
    shift = n
    # the group is derived when the node count passes stop, or never
    stop = min(budget, ORBIT_KEY_AFTER)
    # A node is its stack entry (covered, index of the pool path that opened
    # it or None at the root, iterator over its untried candidates, limit when
    # opened); its depth is its stack index.  The limit falls only at a
    # completion, which lies below every open node, so a cover was completed
    # below a node iff the limit fell while it was open.
    stack = [] if exhausted else [(0, None, iter(candidates[0]), limit)]
    while stack:
        covered, _, children, _ = stack[-1]
        depth = len(stack)  # of the children
        # A child at this depth covering k vertices is cut iff
        # depth + ceil((n - k) / max_len) >= limit, that is iff k < need.
        need = n - (limit - depth - 1) * max_len
        slack_key = (limit - depth) << shift
        for i, mask in children:
            child = covered | mask
            nodes += 1
            if nodes > stop:
                if nodes > budget:
                    exhausted = True
                    stack.clear()
                    break
                stop = budget
                # imported here: only searches this long use it
                from .symmetry import orbit_key

                found = orbit_key(g, d)
                if found is not None:
                    # entries keyed by exact masks are dropped, which costs
                    # less than keying them again
                    canon, shift = found
                    failed = set()
                    slack_key = (limit - depth) << shift
            if child == full:
                best = [entry[1] for entry in stack[1:]] + [i]
                limit = depth
                need = n - (limit - depth - 1) * max_len
                continue
            if child.bit_count() < need:
                continue
            if (child if canon is None else canon(child)) | slack_key in failed:
                continue
            # branch on the lowest uncovered vertex: the lowest 0 bit of child
            v = (~child & (child + 1)).bit_length() - 1
            stack.append((child, i, iter(candidates[v]), limit))
            break
        else:
            covered, _, _, opened = stack.pop()
            if opened == limit and len(failed) < failed_cap:
                depth = len(stack)  # of the node just closed
                key = covered if canon is None else canon(covered)
                failed.add(key | (limit - depth) << shift)

    note = "branch-and-bound optimum" if not exhausted else "budget-truncated incumbent"
    if best is greedy and exhausted:
        note = "greedy incumbent (budget exhausted)"
    cover = Cover(tuple(pool.paths[i] for i in best), note=note)
    return SolveResult(
        optimum=cover,
        size=len(best),
        nodes_explored=nodes,
        proof_of_optimality=not exhausted,
    )
