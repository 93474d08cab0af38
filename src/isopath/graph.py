"""Graph core: immutable simple graphs, family generators, BFS distances.

Vertex indexing is canonical so that covers are portable across runs:
complete multipartite graphs lay out each part as a contiguous index
block (largest part first), Hamming graphs use the mixed-radix rule
``index = ((x1*n2) + x2)*n3 + x3`` with the first coordinate most
significant.
"""

from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from itertools import accumulate, repeat
from math import prod
from operator import add, eq, floordiv, itemgetter, mod, mul, ne

from ._record import Record
from .errors import (
    FormatError,
    InvalidPairingError,
    InvalidSpecError,
    OutOfRangeError,
)

UNREACHABLE = -1

# Characters of a graph file that ``parse_graph`` reads past before it
# cuts a chunk at the next line end.
_CHUNK_CHARS = 1 << 16

# The line breaks of ``str.splitlines`` other than "\n".
_OTHER_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# A graph file whose problem line declares at least this many edges per
# vertex names each vertex often enough that ``parse_graph`` looks its
# vertex tokens up in a table of the n plain spellings, built once at
# about the cost of three int conversions a vertex, instead of passing
# each token through int.
_TABLE_EDGES_PER_VERTEX = 4

# Largest edge count of a graph that is generated or parsed; the vertex
# count is held to it too, since a parsed graph may have isolated vertices.
# Checked from the spec or the problem line, before anything is allocated.
MAX_EDGES = 10**6


def _check_size(n, m, error=InvalidSpecError):
    if max(n, m) > MAX_EDGES:
        raise error(f"{n} vertices and {m} edges exceed the cap of {MAX_EDGES}")


def _truncated(given, ints):
    """True iff ``ints``, the ``int`` of each value of ``given``, changed a
    value other than a string: a fraction, say, which ``int`` truncates."""
    return any(k != v and not isinstance(v, str) for v, k in zip(given, ints))


def _integers(values, error, what):
    """The ``int`` of each of ``values``.  Raises ``error`` ("``what`` must
    be integers") when ``values`` is a string or not iterable, when a value
    is neither a number nor a numeric string, or when ``int`` would change a
    value (a fraction, say)."""
    ints = None
    if not isinstance(values, str):
        try:
            values = tuple(values)
            ints = tuple(map(int, values))
        except (TypeError, ValueError, OverflowError):
            pass
    if ints is None or _truncated(values, ints):
        raise error(f"{what} must be integers: {values!r}")
    return ints


def _step_sum(op, values, firsts, lasts):
    """The sum of ``op(a, b)`` over the steps of some paths laid end to end,
    given a value of each vertex: ``values`` in that order, ``firsts`` and
    ``lasts`` at the ends of each path.  The pairs of consecutive values are
    the steps and the pairs (lasts[i], firsts[i + 1]) between paths."""
    return sum(map(op, values, values[1:])) - sum(map(op, lasts, firsts[1:]))


def _digits(vs, stride, span, n):
    """The digit of each of the vertices ``vs`` of an n-vertex Hamming graph
    on the axis of ``stride`` and ``span``."""
    if span < n:
        vs = map(mod, vs, repeat(span))
    return list(map(floordiv, vs, repeat(stride)) if stride > 1 else vs)


def _add_edges(lists, n, us, vs, in_range=False):
    """Append the edges ``(us[i], vs[i])`` of an n-vertex graph to the
    neighbour lists (a ``defaultdict(list)``), both ways round.  The first
    edge out of range or a self-loop raises OutOfRangeError or
    InvalidSpecError before any edge is added; ``in_range`` tells that every
    end is known to lie in [0, n)."""
    if us and (
        not in_range and (min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n)
        or any(map(eq, us, vs))
    ):
        for u, v in zip(us, vs):
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRangeError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidSpecError(f"self-loop at vertex {u}")
    deque(map(list.append, map(lists.__getitem__, us), vs), 0)
    deque(map(list.append, map(lists.__getitem__, vs), us), 0)


class Graph:
    """Simple undirected graph, immutable after construction.

    Adjacency lists are sorted, symmetric, loop-free and duplicate-free.

    This class stores its edges (parsed and augmented graphs); the graphs
    of the two families answer adjacency and distance from their spec
    instead.
    """

    __slots__ = ("n", "m", "_adj")

    # A family graph's ``_all_shortest(paths, flat)`` tells at once whether
    # every path, its vertices in range and laid end to end in ``flat``, is a
    # shortest path; a stored graph has no such test.
    _all_shortest = None

    def __init__(self, n, edges=()):
        if n < 0:
            raise InvalidSpecError("vertex count must be nonnegative")
        edges = list(edges)
        lists = defaultdict(list)
        _add_edges(lists, n, [u for u, _ in edges], [v for _, v in edges])
        self._fill(n, lists)

    def _fill(self, n, lists):
        """Store the graph whose vertex v has the neighbours ``lists[v]``, in
        any order and with repeats (none where v is absent)."""
        # one sorted tuple per vertex; isolated vertices share one empty tuple
        adj = [()] * n
        repeats = False
        for v, ends in lists.items():
            ends.sort()
            nbrs = adj[v] = tuple(ends)
            # a repeated edge {v, w} with v < w repeats w above v in nbrs
            above = nbrs[bisect_right(nbrs, v):]
            repeats = repeats or any(map(eq, above, above[1:]))
        if repeats:
            adj = [tuple(sorted(set(nbrs))) for nbrs in adj]
        self.n = n
        self.m = sum(map(len, adj)) // 2
        self._adj = adj

    def neighbors(self, v):
        return self._adj[v]

    def has_edge(self, u, v):
        if not 0 <= u < self.n:
            return False
        nbrs = self._adj[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def _distance_at_least(self, u, v, k):
        """True iff d(u, v) >= k, for vertices u != v and k >= 2.

        That holds iff no vertex within distance k-2 of u is adjacent to v:
        only that ball is grown, never a full BFS row.
        """
        frontier = {u}
        ball = {u}
        for _ in range(k - 2):
            frontier = set().union(*map(self.neighbors, frontier)) - ball
            ball |= frontier
        return ball.isdisjoint(self.neighbors(v))

    def edges(self):
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield u, v

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class _FamilyGraph(Graph):
    """A family graph, with no edge stored: two distinct vertices of it are
    adjacent iff its distance rule ``_distance_at_least`` puts them below 2."""

    __slots__ = ()

    def has_edge(self, u, v):
        return u != v and 0 <= u < self.n and 0 <= v < self.n and not self._distance_at_least(u, v, 2)


class _HammingGraph(_FamilyGraph):
    """K_{n1} x ... x K_{nr}: the distance of two vertices is the number of
    places in which their mixed-radix coordinates differ."""

    __slots__ = ("_axes",)

    def __init__(self, spec):
        self.n = spec.n
        self.m = self.n * sum(f - 1 for f in spec.factors) // 2
        # (stride, stride * size) of each axis, the most significant first:
        # v % stride holds the digits below the axis, v // (stride * size)
        # the digits above it
        self._axes = tuple((s, s * f) for s, f in zip(spec.strides, spec.factors))

    def neighbors(self, v):
        # A lower value on an axis moves v by less than one stride of the
        # axis before it, so taking the lower values axis by axis and then
        # the higher ones in reverse axis order is ascending.
        lower = []
        higher = []
        for stride, span in self._axes:
            start = v - v % span + v % stride  # v with this coordinate 0
            lower.extend(range(start, v, stride))
            higher.append(range(v + stride, start + span, stride))
        for block in reversed(higher):
            lower.extend(block)
        return tuple(lower)

    def _distance_at_least(self, u, v, k):
        for stride, span in self._axes:
            if u % span // stride != v % span // stride:
                k -= 1
        return k <= 0

    def _all_shortest(self, paths, flat):
        # Every step moves, and the steps change as many coordinates as there
        # are steps, so each changes one: it is an edge.  The ends of a path
        # of k steps differ in k <= r coordinates, so it is a walk of k edges
        # between vertices at distance k: a shortest path.
        firsts = list(map(itemgetter(0), paths))
        lasts = list(map(itemgetter(-1), paths))
        if _step_sum(eq, flat, firsts, lasts):
            return False
        changes, ends = len(paths) - len(flat), repeat(1)
        for stride, span in self._axes:
            digits, first_digits, last_digits = (
                _digits(vs, stride, span, self.n) for vs in (flat, firsts, lasts)
            )
            changes += _step_sum(ne, digits, first_digits, last_digits)
            ends = map(add, ends, map(ne, first_digits, last_digits))
        return not changes and all(map(eq, ends, map(len, paths)))


class _MultipartiteGraph(_FamilyGraph):
    """Complete multipartite graph: the distance of two vertices is 1 across
    part blocks and 2 within one."""

    __slots__ = ("_offsets",)

    def __init__(self, spec):
        n = self.n = spec.n
        self.m = (n * n - sum(s * s for s in spec.sizes)) // 2
        # part i is the block from _offsets[i] up to _offsets[i + 1]
        self._offsets = (*spec.part_offsets(), n)

    def neighbors(self, v):
        # every vertex outside the block of part i - 1, which holds v
        i = bisect_right(self._offsets, v)
        return (*range(self._offsets[i - 1]), *range(self._offsets[i], self.n))

    def _distance_at_least(self, u, v, k):
        return k <= 1 + (bisect_right(self._offsets, u) == bisect_right(self._offsets, v))

    def _all_shortest(self, paths, flat):
        # every step crosses parts, and the ends of a path of k steps are at
        # distance k, which is 2 [u != v] - [u, v in different parts]
        firsts = list(map(itemgetter(0), paths))
        lasts = list(map(itemgetter(-1), paths))
        blocks = repeat(self._offsets)
        parts, first_parts, last_parts = (
            list(map(bisect_right, blocks, vs)) for vs in (flat, firsts, lasts)
        )
        if _step_sum(eq, parts, first_parts, last_parts):
            return False
        apart = list(map(ne, firsts, lasts))
        ends = map(add, map(add, apart, apart), map(eq, first_parts, last_parts))
        return all(map(eq, ends, map(len, paths)))


class PartiteSpec(Record):
    """Validated part sizes of a complete multipartite graph.

    ``sizes`` is normalized to non-increasing order at construction.
    """

    __slots__ = ("sizes",)

    def __init__(self, sizes):
        given = _integers(sizes, InvalidSpecError, "part sizes")
        if not given:
            raise InvalidSpecError("at least one part is required")
        if any(s < 1 for s in given):
            raise InvalidSpecError(f"part sizes must be positive: {given}")
        Record.__init__(self, tuple(sorted(given, reverse=True)))

    @property
    def n(self):
        return sum(self.sizes)

    @property
    def r(self):
        return len(self.sizes)

    @property
    def alpha(self):
        """Number of parts of odd size."""
        return sum(1 for s in self.sizes if s % 2 == 1)

    def part_offsets(self):
        """Start index of each part block in the generated graph."""
        offsets = []
        total = 0
        for s in self.sizes:
            offsets.append(total)
            total += s
        return tuple(offsets)


def sorted_partitions(max_n):
    """Every part-size vector with at least two parts and 2 <= n <= max_n,
    non-increasing, by n and then in decreasing lexicographic order."""
    out = []
    for n in range(2, max_n + 1):
        parts = [n]
        while True:
            if len(parts) >= 2:
                out.append(tuple(parts))
            # lower the last part above 1 by one and refill greedily
            ones = 0
            while parts and parts[-1] == 1:
                parts.pop()
                ones += 1
            if not parts:
                break
            top = parts.pop() - 1
            rest = top + 1 + ones
            while rest:
                parts.append(min(top, rest))
                rest -= parts[-1]
    return out


class HammingSpec(Record):
    """Validated factor sizes of a Hamming graph (product of 1 to 3 complete graphs)."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        given = _integers(factors, InvalidSpecError, "factors")
        if not 1 <= len(given) <= 3:
            raise InvalidSpecError(f"1 to 3 factors supported, got {len(given)}")
        if any(f < 2 for f in given):
            raise InvalidSpecError(f"factors must be at least 2: {given}")
        Record.__init__(self, given)

    @property
    def n(self):
        return prod(self.factors)

    @property
    def r(self):
        return len(self.factors)

    @property
    def strides(self):
        """The index step of each coordinate: the product of the later factors."""
        return tuple(accumulate(self.factors[:0:-1], mul, initial=1))[::-1]


def _bfs_row(adj, n, source):
    dist = [UNREACHABLE] * n
    dist[source] = 0
    frontier = [source]
    k = 0
    while frontier:
        k += 1
        layer = []
        for u in frontier:
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = k
                    layer.append(w)
        frontier = layer
    return dist


def all_pairs_distances(g: Graph) -> list:
    """Exact BFS distances from every source vertex: row u holds d(u, v) at
    index v, UNREACHABLE (-1) where there is no path."""
    adj = [g.neighbors(v) for v in range(g.n)]
    return [_bfs_row(adj, g.n, s) for s in range(g.n)]


def make_complete_multipartite(spec: PartiteSpec) -> Graph:
    """Complete multipartite graph; part i occupies a contiguous index block."""
    g = _MultipartiteGraph(spec)
    _check_partite_size(g.n, g.m)
    return g


def _check_partite_size(n, m):
    """_check_size for the multipartite families, whose graphs are connected
    unless they have no edge and two vertices or more."""
    if n > 1 and m == 0:
        raise InvalidSpecError(
            "a single part of size >= 2 yields a disconnected (edgeless) graph"
        )
    _check_size(n, m)


def _pair(i, pair):
    """A designated pair of part i as a sorted tuple of two ints."""
    ends = _integers(pair, InvalidPairingError, f"part {i}: pair ends")
    if len(ends) != 2:
        raise InvalidPairingError(f"part {i}: pair {ends} does not have two ends")
    return tuple(sorted(ends))


def _validate_pairings(spec: PartiteSpec, pairings):
    if len(pairings) != spec.r:
        raise InvalidPairingError(
            f"need one pairing list per part ({spec.r}), got {len(pairings)}"
        )
    normalized = []
    for i, (size, pairs) in enumerate(zip(spec.sizes, pairings)):
        pairs = [_pair(i, pair) for pair in pairs]
        if len(pairs) != size // 2:
            raise InvalidPairingError(
                f"part {i} of size {size} needs {size // 2} pairs, got {len(pairs)}"
            )
        seen = set()
        for a, b in pairs:
            if a == b:
                raise InvalidPairingError(f"part {i}: degenerate pair ({a},{b})")
            if not (0 <= a < size and 0 <= b < size):
                raise InvalidPairingError(f"part {i}: pair ({a},{b}) out of range")
            if a in seen or b in seen:
                raise InvalidPairingError(f"part {i}: overlapping pairs at ({a},{b})")
            seen.update((a, b))
        normalized.append(tuple(sorted(pairs)))
    return normalized


def make_augmented_multipartite(spec: PartiteSpec, pairings) -> Graph:
    """Complete multipartite graph plus all intra-part edges except the
    designated pairs, i.e. K_n minus the designated pairs: each part becomes
    a clique minus a near-perfect matching.  ``pairings[i]`` uses 0-based
    offsets local to part i.
    """
    pairings = _validate_pairings(spec, pairings)
    n = spec.n
    _check_partite_size(n, n * (n - 1) // 2 - sum(s // 2 for s in spec.sizes))
    excluded = {
        (off + a, off + b)
        for off, pairs in zip(spec.part_offsets(), pairings)
        for a, b in pairs
    }
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in excluded
    ]
    return Graph(n, edges)


def make_hamming(spec: HammingSpec) -> Graph:
    """Cartesian product of complete graphs; vertices adjacent iff their
    coordinate tuples differ in exactly one position."""
    g = _HammingGraph(spec)
    _check_size(g.n, g.m)
    return g


def encode_coordinates(spec: HammingSpec, coords) -> int:
    """Mixed-radix vertex index of a coordinate tuple, the first axis most
    significant: each coordinate times its axis's entry of ``spec.strides``."""
    coords = _integers(coords, OutOfRangeError, "coordinates")
    if len(coords) != spec.r:
        raise OutOfRangeError(f"expected {spec.r} coordinates, got {len(coords)}")
    for c, size in zip(coords, spec.factors):
        if not 0 <= c < size:
            raise OutOfRangeError(f"coordinate {c} out of range [0,{size})")
    return sum(map(mul, coords, spec.strides))


def format_graph(g: Graph) -> str:
    """Render the graph text format: ``p <n> <m>`` then sorted ``e <u> <v>`` lines."""
    lines = [f"p {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _read_lines(lines, lineno, header, us, vs):
    """The line reader of the graph text format: read ``lines``, the first
    numbered ``lineno``, one at a time and append the ends of each edge to
    ``us`` and ``vs``.  ``header`` is the (n, m) of the problem line read
    before them, or None; returns it as it is after them.  Raises the
    FormatError of the first bad record, naming its line."""
    for lineno, raw in enumerate(lines, lineno):
        fields = raw.split()
        if not fields or fields[0].startswith("c"):
            continue
        if fields[0] == "p":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'p <n> <m>'")
            try:
                header = int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad problem line") from exc
            _check_size(*header, FormatError)
        elif fields[0] == "e":
            if header is None:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad edge line") from exc
            us.append(u)
            vs.append(v)
        else:
            raise FormatError(f"line {lineno}: unknown record {fields[0]!r}")
    return header


def _edge_block(chunk, k, names):
    """The ends (us, vs, in_range) of the edges of ``chunk``, k lines joined
    by "\\n", if every line is an ``e <u> <v>`` record, else None.  ``names``
    maps the plain spelling of each vertex to its int, or is None; if it
    holds every token of the chunk, the ends are its ints and ``in_range``
    is True, else every token goes through int."""
    tokens = chunk.split()
    # Every line starts with "e" (the chunk does, and so does each line after
    # a newline), and the tokens are k "e"s at every third place with int
    # tokens between them.  An int token cannot start with "e", so the first
    # tokens of the k lines are those k "e"s: each line is "e" and two ints.
    if not (
        chunk.startswith("e")
        and chunk.count("\ne") == k - 1
        and len(tokens) == 3 * k
        and tokens[0::3].count("e") == k
    ):
        return None
    us, vs = tokens[1::3], tokens[2::3]
    if names is not None:
        try:
            return list(map(names.__getitem__, us)), list(map(names.__getitem__, vs)), True
        except KeyError:
            pass  # a token in another spelling, or out of range
    try:
        return list(map(int, us)), list(map(int, vs)), False
    except ValueError:
        return None


def parse_graph(text: str) -> Graph:
    """Parse the graph text format; ``c`` comment lines are tolerated anywhere.

    The errors come in this order: the first bad line, a missing problem
    line, an edge count other than the declared one, the first edge out of
    range or self-loop, and a count of distinct edges other than declared.
    """
    # with "\n" the only line break, the lines are text[:size].split("\n"),
    # where size leaves out a final "\n"
    if any(map(text.__contains__, _OTHER_LINE_BREAKS)):
        text = "\n".join(text.splitlines())
    size = len(text) - text.endswith("\n")
    header = None
    pos = 0
    lineno = 1
    # the line reader takes the lines up to the problem line one at a time
    while header is None:
        if pos > size:
            raise FormatError("missing problem line")
        end = text.find("\n", pos, size)
        if end < 0:
            end = size
        header = _read_lines((text[pos:end],), lineno, None, [], [])
        pos = end + 1
        lineno += 1
    n, m = header
    # the edges that name a vertex share the one int of its table entry; a
    # file has no more edges than lines left, whatever its problem line says
    names = None
    if _TABLE_EDGES_PER_VERTEX * n <= min(m, text.count("\n", pos, size) + 1):
        names = dict(zip(map(str, range(n)), range(n)))
    lists = defaultdict(list)
    count = 0
    error = None
    # After the problem line, a chunk of lines that are all edge records
    # goes through C-level split, token conversion and list appends; any
    # other chunk goes through the line reader, which skips comments and
    # blanks and raises the error of its first bad line.
    while pos < size:
        end = text.find("\n", pos + _CHUNK_CHARS, size)
        if end < 0:
            end = size
        chunk = text[pos:end]
        k = chunk.count("\n") + 1
        ends = _edge_block(chunk, k, names)
        if ends is None:
            us, vs = [], []
            _read_lines(chunk.split("\n"), lineno, header, us, vs)
            ends = us, vs, False
        pos = end + 1
        lineno += k
        count += len(ends[0])
        # past m edges the count check fails anyway: stop storing them
        if error is None and count <= m:
            try:
                _add_edges(lists, n, *ends)
            except (OutOfRangeError, InvalidSpecError) as exc:
                error = exc
    if count != m:
        raise FormatError(f"problem line declares {m} edges, file has {count}")
    if n < 0:
        raise FormatError("vertex count must be nonnegative")
    if error is not None:
        raise FormatError(str(error)) from error
    g = Graph.__new__(Graph)
    g._fill(n, lists)
    if g.m != m:
        raise FormatError(f"problem line declares {m} edges, file has {g.m} distinct")
    return g
