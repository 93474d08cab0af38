"""Graph core: immutable simple graphs, family generators, BFS distances.

Vertex indexing is canonical so that covers are portable across runs:
complete multipartite graphs lay out each part as a contiguous index
block (largest part first), Hamming graphs use the mixed-radix rule
``index = ((x1*n2) + x2)*n3 + x3`` with the first coordinate most
significant.
"""

from bisect import bisect_right
from collections import defaultdict, deque
from itertools import product
from operator import eq

from ._record import Record
from .errors import (
    FormatError,
    InvalidPairingError,
    InvalidSpecError,
    OutOfRangeError,
)

UNREACHABLE = -1

# Lines of a graph file read as one block by ``parse_graph``.
_BLOCK_LINES = 4096

# Largest edge count of a graph that is generated or parsed; the vertex
# count is held to it too, since a parsed graph may have isolated vertices.
# Checked from the spec or the problem line, before anything is allocated.
MAX_EDGES = 10**6

_NO_NEIGHBORS = frozenset()


def _check_size(n, m, error=InvalidSpecError):
    if max(n, m) > MAX_EDGES:
        raise error(f"{n} vertices and {m} edges exceed the cap of {MAX_EDGES}")


def _add_edges(sets, n, us, vs):
    """Add the edges ``(us[i], vs[i])`` of an n-vertex graph to the adjacency
    sets (a ``defaultdict(set)``).  The first edge out of range or a self-loop
    raises OutOfRangeError or InvalidSpecError before any edge is added."""
    if us and (
        min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n
        or any(map(eq, us, vs))
    ):
        for u, v in zip(us, vs):
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRangeError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidSpecError(f"self-loop at vertex {u}")
    for u, v in zip(us, vs):
        sets[u].add(v)
        sets[v].add(u)


class Graph:
    """Simple undirected graph, immutable after construction.

    Adjacency lists are sorted, symmetric, loop-free and duplicate-free.
    ``labels`` is an optional per-vertex display string (coordinate tuples
    for Hamming graphs, ``part:offset`` for multipartite graphs).

    This class stores its edges (parsed and augmented graphs); the graphs
    of the two families answer adjacency from their spec instead.
    """

    __slots__ = ("n", "m", "_adj", "_nbr", "_labels")

    def __init__(self, n, edges=(), labels=None):
        if n < 0:
            raise InvalidSpecError("vertex count must be nonnegative")
        edges = list(edges)
        sets = defaultdict(set)
        _add_edges(sets, n, [u for u, _ in edges], [v for _, v in edges])
        self._fill(n, sets, labels)

    def _fill(self, n, sets, labels):
        """Store the graph whose vertex v has the neighbour set ``sets[v]``
        (none where v is absent)."""
        # isolated vertices share one empty tuple and one empty set
        adj = [()] * n
        nbr = [_NO_NEIGHBORS] * n
        for v, s in sets.items():
            adj[v] = tuple(sorted(s))
            nbr[v] = s
        self.n = n
        self.m = sum(map(len, sets.values())) // 2
        self._adj = adj
        self._nbr = nbr
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise InvalidSpecError("labels length must equal vertex count")
        self._labels = labels

    @property
    def labels(self):
        return self._labels

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return v in self._nbr[u]

    def edges(self):
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in self.neighbors(u):
                if u < v:
                    yield u, v

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class _HammingGraph(Graph):
    """K_{n1} x ... x K_{nr}: two vertices are adjacent iff their mixed-radix
    coordinates differ in exactly one place.  No edge is stored."""

    __slots__ = ("_factors", "_axes", "_degree")

    def __init__(self, spec):
        self._factors = spec.factors
        self.n = spec.n
        self._degree = sum(f - 1 for f in spec.factors)
        self.m = self.n * self._degree // 2
        self._labels = None
        # (stride, stride * size) of each axis, the most significant first:
        # v % stride holds the digits below the axis, v // (stride * size)
        # the digits above it
        axes = []
        stride = 1
        for size in reversed(spec.factors):
            axes.append((stride, stride * size))
            stride *= size
        self._axes = tuple(reversed(axes))

    @property
    def labels(self):
        if self._labels is None:
            coords = product(*(range(f) for f in self._factors))
            self._labels = tuple(format_coordinates(c) for c in coords)
        return self._labels

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

    def degree(self, v):
        return self._degree

    def has_edge(self, u, v):
        if u == v:
            return False
        # they differ in one place iff they agree below and above some axis
        for stride, span in self._axes:
            if u % stride == v % stride and u // span == v // span:
                return True
        return False


class _MultipartiteGraph(Graph):
    """Complete multipartite graph: two vertices are adjacent iff they lie in
    different part blocks.  No edge is stored."""

    __slots__ = ("_sizes", "_offsets")

    def __init__(self, spec):
        self._sizes = spec.sizes
        self._offsets = spec.part_offsets()
        n = self.n = spec.n
        self.m = (n * n - sum(s * s for s in spec.sizes)) // 2
        self._labels = None

    @property
    def labels(self):
        if self._labels is None:
            self._labels = tuple(
                f"{i}:{k}" for i, size in enumerate(self._sizes) for k in range(size)
            )
        return self._labels

    def _block(self, v):
        """(start, end) of the part block holding v."""
        i = bisect_right(self._offsets, v) - 1
        return self._offsets[i], self._offsets[i] + self._sizes[i]

    def neighbors(self, v):
        start, end = self._block(v)
        return (*range(start), *range(end, self.n))

    def degree(self, v):
        start, end = self._block(v)
        return self.n - (end - start)

    def has_edge(self, u, v):
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return bisect_right(self._offsets, u) != bisect_right(self._offsets, v)


class PartiteSpec(Record):
    """Validated part sizes of a complete multipartite graph.

    ``sizes`` is normalized to non-increasing order at construction;
    ``input_sizes`` keeps the order as given for label round-tripping.
    """

    __slots__ = ("sizes", "input_sizes")

    def __init__(self, sizes, input_sizes=()):
        given = tuple(int(s) for s in sizes)
        if not given:
            raise InvalidSpecError("at least one part is required")
        if any(s < 1 for s in given):
            raise InvalidSpecError(f"part sizes must be positive: {given}")
        original = tuple(int(s) for s in input_sizes) or given
        object.__setattr__(self, "sizes", tuple(sorted(given, reverse=True)))
        object.__setattr__(self, "input_sizes", original)

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
        given = tuple(int(f) for f in factors)
        if not 1 <= len(given) <= 3:
            raise InvalidSpecError(f"1 to 3 factors supported, got {len(given)}")
        if any(f < 2 for f in given):
            raise InvalidSpecError(f"factors must be at least 2: {given}")
        object.__setattr__(self, "factors", given)

    @property
    def n(self):
        p = 1
        for f in self.factors:
            p *= f
        return p

    @property
    def r(self):
        return len(self.factors)


class DistanceMatrix:
    """All-pairs graph distances; UNREACHABLE (-1) marks disconnected pairs."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        self._rows = rows

    def __getitem__(self, u):
        return self._rows[u]

    @property
    def n(self):
        return len(self._rows)

    @property
    def connected(self):
        return all(d != UNREACHABLE for row in self._rows for d in row)


def _bfs_row(adj, n, source):
    dist = [UNREACHABLE] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Exact BFS distances from every source vertex."""
    adj = [g.neighbors(v) for v in range(g.n)]
    return DistanceMatrix([_bfs_row(adj, g.n, s) for s in range(g.n)])


def make_complete_multipartite(spec: PartiteSpec) -> Graph:
    """Complete multipartite graph; part i occupies a contiguous index block."""
    if spec.r == 1 and spec.n > 1:
        raise InvalidSpecError(
            "a single part of size >= 2 yields a disconnected (edgeless) graph"
        )
    g = _MultipartiteGraph(spec)
    _check_size(g.n, g.m)
    return g


def _validate_pairings(spec: PartiteSpec, pairings):
    if len(pairings) != spec.r:
        raise InvalidPairingError(
            f"need one pairing list per part ({spec.r}), got {len(pairings)}"
        )
    normalized = []
    for i, (size, pairs) in enumerate(zip(spec.sizes, pairings)):
        pairs = [tuple(sorted((int(a), int(b)))) for a, b in pairs]
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
    designated pairs, i.e. each part becomes a clique minus a near-perfect
    matching.  ``pairings[i]`` uses 0-based offsets local to part i.
    """
    pairings = _validate_pairings(spec, pairings)
    # every pair of vertices but the designated ones is an edge
    n = spec.n
    _check_size(n, n * (n - 1) // 2 - sum(s // 2 for s in spec.sizes))
    base = make_complete_multipartite(spec)
    offsets = spec.part_offsets()
    edges = list(base.edges())
    for i, size in enumerate(spec.sizes):
        off = offsets[i]
        excluded = set(pairings[i])
        for a in range(size):
            for b in range(a + 1, size):
                if (a, b) not in excluded:
                    edges.append((off + a, off + b))
    return Graph(base.n, edges, base.labels)


def make_hamming(spec: HammingSpec) -> Graph:
    """Cartesian product of complete graphs; vertices adjacent iff their
    coordinate tuples differ in exactly one position."""
    g = _HammingGraph(spec)
    _check_size(g.n, g.m)
    return g


def encode_coordinates(spec: HammingSpec, coords) -> int:
    """Mixed-radix vertex index of a coordinate tuple (first axis most significant)."""
    coords = tuple(int(c) for c in coords)
    if len(coords) != spec.r:
        raise OutOfRangeError(f"expected {spec.r} coordinates, got {len(coords)}")
    index = 0
    for c, size in zip(coords, spec.factors):
        if not 0 <= c < size:
            raise OutOfRangeError(f"coordinate {c} out of range [0,{size})")
        index = index * size + c
    return index


def decode_coordinates(spec: HammingSpec, index: int):
    """Inverse of encode_coordinates."""
    if not 0 <= index < spec.n:
        raise OutOfRangeError(f"vertex index {index} out of range [0,{spec.n})")
    coords = [0] * spec.r
    for axis in range(spec.r - 1, -1, -1):
        size = spec.factors[axis]
        coords[axis] = index % size
        index //= size
    return tuple(coords)


def format_coordinates(coords) -> str:
    return "(" + ",".join(str(c) for c in coords) + ")"


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


def _edge_block(lines):
    """The ends (us, vs) of the edges of ``lines`` if every line starts with
    ``e`` and is an ``e <u> <v>`` record, else None."""
    k = len(lines)
    text = "\n".join(lines)
    tokens = text.split()
    # Every line starts with "e" (the text does, and so does each line after
    # a newline), and the tokens are k "e"s at every third place with int
    # tokens between them.  An int token cannot start with "e", so the first
    # tokens of the k lines are those k "e"s: each line is "e" and two ints.
    if not (
        text.startswith("e")
        and text.count("\ne") == k - 1
        and len(tokens) == 3 * k
        and tokens[0::3].count("e") == k
    ):
        return None
    try:
        return list(map(int, tokens[1::3])), list(map(int, tokens[2::3]))
    except ValueError:
        return None


def parse_graph(text: str) -> Graph:
    """Parse the graph text format; ``c`` comment lines are tolerated anywhere.

    The errors come in this order: the first bad line, a missing problem
    line, an edge count other than the declared one, the first edge out of
    range or self-loop, and a count of distinct edges other than declared.
    """
    lines = text.splitlines()
    header = None
    start = 0
    # the line reader takes the lines up to the problem line one at a time
    while header is None:
        if start == len(lines):
            raise FormatError("missing problem line")
        header = _read_lines(lines[start:start + 1], start + 1, None, [], [])
        start += 1
    n, m = header
    sets = defaultdict(set)
    count = 0
    error = None
    # After the problem line, a block of lines that are all edge records
    # goes through C-level split and int conversion; any other block goes
    # through the line reader, which skips comments and blanks and raises
    # the error of its first bad line.
    for start in range(start, len(lines), _BLOCK_LINES):
        block = lines[start:start + _BLOCK_LINES]
        ends = _edge_block(block)
        if ends is None:
            ends = [], []
            _read_lines(block, start + 1, header, *ends)
        count += len(ends[0])
        # past m edges the count check fails anyway: stop storing them
        if error is None and count <= m:
            try:
                _add_edges(sets, n, *ends)
            except (OutOfRangeError, InvalidSpecError) as exc:
                error = exc
    if count != m:
        raise FormatError(f"problem line declares {m} edges, file has {count}")
    if n < 0:
        raise FormatError("vertex count must be nonnegative")
    if error is not None:
        raise FormatError(str(error)) from error
    g = Graph.__new__(Graph)
    g._fill(n, sets, None)
    if g.m != m:
        raise FormatError(f"problem line declares {m} edges, file has {g.m} distinct")
    return g
