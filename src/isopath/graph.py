"""Graph core: immutable simple graphs, family generators, BFS distances.

Vertex indexing is canonical so that covers are portable across runs:
complete multipartite graphs lay out each part as a contiguous index
block (largest part first), Hamming graphs use the mixed-radix rule
``index = ((x1*n2) + x2)*n3 + x3`` with the first coordinate most
significant.
"""

from collections import deque
from dataclasses import dataclass

from .errors import (
    FormatError,
    InvalidPairingError,
    InvalidSpecError,
    OutOfRangeError,
)

UNREACHABLE = -1

# Largest edge count of a graph that is generated or parsed; the vertex
# count is held to it too, since a parsed graph may have isolated vertices.
# Checked from the spec or the problem line, before anything is allocated.
MAX_EDGES = 10**6


def _check_size(n, m, error=InvalidSpecError):
    if max(n, m) > MAX_EDGES:
        raise error(f"{n} vertices and {m} edges exceed the cap of {MAX_EDGES}")


class Graph:
    """Simple undirected graph, immutable after construction.

    Adjacency lists are sorted, symmetric, loop-free and duplicate-free.
    ``labels`` is an optional per-vertex display string (coordinate tuples
    for Hamming graphs, ``part:offset`` for multipartite graphs).
    """

    __slots__ = ("n", "_adj", "_nbr", "labels")

    def __init__(self, n, edges=(), labels=None):
        if n < 0:
            raise InvalidSpecError("vertex count must be nonnegative")
        nbr = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRangeError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InvalidSpecError(f"self-loop at vertex {u}")
            nbr[u].add(v)
            nbr[v].add(u)
        self.n = n
        self._nbr = tuple(frozenset(s) for s in nbr)
        self._adj = tuple(tuple(sorted(s)) for s in nbr)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise InvalidSpecError("labels length must equal vertex count")
        self.labels = labels

    @property
    def m(self):
        return sum(len(a) for a in self._adj) // 2

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return v in self._nbr[u]

    def edges(self):
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield u, v

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class PartiteSpec:
    """Validated part sizes of a complete multipartite graph.

    ``sizes`` is normalized to non-increasing order at construction;
    ``input_sizes`` keeps the order as given for label round-tripping.
    """

    sizes: tuple
    input_sizes: tuple = ()

    def __post_init__(self):
        given = tuple(int(s) for s in self.sizes)
        if not given:
            raise InvalidSpecError("at least one part is required")
        if any(s < 1 for s in given):
            raise InvalidSpecError(f"part sizes must be positive: {given}")
        original = tuple(int(s) for s in self.input_sizes) or given
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


@dataclass(frozen=True)
class HammingSpec:
    """Validated factor sizes of a Hamming graph (product of 1 to 3 complete graphs)."""

    factors: tuple

    def __post_init__(self):
        given = tuple(int(f) for f in self.factors)
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
    adj = g._adj
    return DistanceMatrix([_bfs_row(adj, g.n, s) for s in range(g.n)])


def make_complete_multipartite(spec: PartiteSpec) -> Graph:
    """Complete multipartite graph; part i occupies a contiguous index block."""
    if spec.r == 1 and spec.n > 1:
        raise InvalidSpecError(
            "a single part of size >= 2 yields a disconnected (edgeless) graph"
        )
    n = spec.n
    _check_size(n, (n * n - sum(s * s for s in spec.sizes)) // 2)
    offsets = spec.part_offsets()
    edges = []
    for i, si in enumerate(spec.sizes):
        for j in range(i + 1, spec.r):
            sj = spec.sizes[j]
            for a in range(offsets[i], offsets[i] + si):
                for b in range(offsets[j], offsets[j] + sj):
                    edges.append((a, b))
    labels = []
    for i, si in enumerate(spec.sizes):
        labels.extend(f"{i}:{k}" for k in range(si))
    return Graph(n, edges, labels)


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
    n = spec.n
    factors = spec.factors
    _check_size(n, n * sum(f - 1 for f in factors) // 2)
    edges = []
    labels = []
    for index in range(n):
        coords = decode_coordinates(spec, index)
        labels.append(format_coordinates(coords))
        for axis, size in enumerate(factors):
            for value in range(coords[axis] + 1, size):
                other = list(coords)
                other[axis] = value
                edges.append((index, encode_coordinates(spec, other)))
    return Graph(n, edges, labels)


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


def parse_graph(text: str) -> Graph:
    """Parse the graph text format; ``c`` comment lines are tolerated anywhere."""
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
            _check_size(n, m, FormatError)
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
    if m is not None and len(edges) != m:
        raise FormatError(f"problem line declares {m} edges, file has {len(edges)}")
    try:
        return Graph(n, edges)
    except (OutOfRangeError, InvalidSpecError) as exc:
        raise FormatError(str(exc)) from exc
