"""Path/cover data model, certificate verification, and text formats."""

from ._record import Record
from .errors import FormatError, OutOfRangeError
from .graph import (
    Graph,
    HammingSpec,
    decode_coordinates,
    encode_coordinates,
    format_coordinates,
)

PROVENANCE_FORMULA = "formula-construction"
PROVENANCE_SOLVER = "exact-solver"
PROVENANCE_FILE = "file"
PROVENANCE_TABLE = "base-table"
PROVENANCE_TAGS = (PROVENANCE_FORMULA, PROVENANCE_SOLVER, PROVENANCE_FILE, PROVENANCE_TABLE)


class Path(Record):
    """Ordered vertex sequence claimed to be an isometric path.

    Distinctness and adjacency are checked at verification time, not here.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices):
        vertices = tuple(map(int, vertices))
        if not vertices:
            raise ValueError("a path has at least one vertex")
        object.__setattr__(self, "vertices", vertices)

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    @property
    def first(self):
        return self.vertices[0]

    @property
    def last(self):
        return self.vertices[-1]

    def reverse(self):
        return Path(self.vertices[::-1])


def canonical_path(p: Path) -> Path:
    """Orientation with the lexicographically smaller endpoint first.

    Storage never canonicalizes; comparison utilities do.
    """
    return p.reverse() if p.last < p.first else p


class Cover(Record):
    """A multiset of paths plus provenance metadata; the central certificate object.

    Vertex overlap between paths is permitted (covers are not partitions).
    """

    __slots__ = ("paths", "provenance", "note")

    def __init__(self, paths, provenance=PROVENANCE_FILE, note=""):
        object.__setattr__(self, "paths", tuple(paths))
        if provenance not in PROVENANCE_TAGS:
            raise ValueError(f"unknown provenance tag {provenance!r}")
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "note", note)

    def __len__(self):
        return len(self.paths)


def cover_size(c: Cover) -> int:
    return len(c.paths)


def covered_set(c: Cover) -> set:
    """Union of the vertex sets of all paths."""
    out = set()
    for p in c.paths:
        out.update(p.vertices)
    return out


class PathVerdict(Record):
    __slots__ = ("simple", "walk", "isometric")

    def __init__(self, simple, walk, isometric):
        object.__setattr__(self, "simple", simple)
        object.__setattr__(self, "walk", walk)
        object.__setattr__(self, "isometric", isometric)

    @property
    def ok(self):
        return self.simple and self.walk and self.isometric


class VerifyReport(Record):
    """Machine-checkable verdict on a (graph, cover) pair.

    ``valid`` holds iff every path verdict is fully true and ``uncovered``
    is empty (and, in strict mode, the cover is in normal form).
    ``overlap`` counts duplicate vertex incidences across paths and is
    diagnostic only.
    """

    __slots__ = ("valid", "path_verdicts", "uncovered", "size", "overlap", "normal_form")

    def __init__(self, valid, path_verdicts, uncovered, size, overlap, normal_form=None):
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "path_verdicts", path_verdicts)
        object.__setattr__(self, "uncovered", uncovered)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "overlap", overlap)
        object.__setattr__(self, "normal_form", normal_form)


def _is_shortest(g: Graph, verts) -> bool:
    """True iff the simple walk ``verts`` is a shortest path of g.

    A walk with k edges is one iff dist(start, end) >= k.  Its end is not
    its start, so that holds iff no vertex within distance k-2 of the start
    is adjacent to the end: only that ball is grown, never a full BFS row.
    """
    k = len(verts) - 1
    if k <= 1:
        return True
    frontier = [verts[0]]
    ball = set(frontier)
    for _ in range(k - 2):
        grown = []
        for u in frontier:
            for w in g.neighbors(u):
                if w not in ball:
                    ball.add(w)
                    grown.append(w)
        frontier = grown
    end = verts[-1]
    return not any(g.has_edge(u, end) for u in ball)


def _normal_form_ok(c: Cover) -> bool:
    """Normal form: every path has 2 or 3 vertices and no two 3-vertex paths
    share an end vertex."""
    endpoint_seen = set()
    for p in c.paths:
        if len(p) not in (2, 3):
            return False
        if len(p) == 3:
            for v in (p.first, p.last):
                if v in endpoint_seen:
                    return False
                endpoint_seen.add(v)
    return True


def verify_cover(g: Graph, c: Cover, strict_normal_form: bool = False) -> VerifyReport:
    """Check every path and the coverage of V(g); problems are reported,
    never raised.  Deterministic and side-effect free."""
    verdicts = []
    covered = set()
    incidences = 0
    for p in c.paths:
        verts = p.vertices
        in_range = all(0 <= v < g.n for v in verts)
        simple = len(set(verts)) == len(verts)
        walk = in_range and all(g.has_edge(a, b) for a, b in zip(verts, verts[1:]))
        isometric = simple and walk and _is_shortest(g, verts)
        verdicts.append(PathVerdict(simple=simple, walk=walk, isometric=isometric))
        for v in verts:
            if 0 <= v < g.n:
                incidences += 1
                covered.add(v)
    uncovered = tuple(sorted(set(range(g.n)) - covered))
    valid = all(v.ok for v in verdicts) and not uncovered
    normal_form = None
    if strict_normal_form:
        normal_form = _normal_form_ok(c)
        valid = valid and normal_form
    return VerifyReport(
        valid=valid,
        path_verdicts=tuple(verdicts),
        uncovered=uncovered,
        size=len(c.paths),
        overlap=incidences - len(covered),
        normal_form=normal_form,
    )


def format_cover(c: Cover, comments=()) -> str:
    """Cover text format: one path per line, space-separated vertex indices.

    Optional comment lines are emitted first, prefixed with ``# ``.
    """
    lines = [f"# {comment}" for comment in comments]
    lines.extend(" ".join(str(v) for v in p.vertices) for p in c.paths)
    return "\n".join(lines) + "\n"


def _path_lines(text, comments):
    """Yield (line number, stripped line) for each path line of a cover file;
    blank lines are skipped and ``#`` comments are appended to ``comments``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        yield lineno, line


def parse_cover(text: str, provenance: str = PROVENANCE_FILE, note: str = "") -> Cover:
    """Parse the cover text format; ``#`` lines are collected into the note."""
    paths = []
    comments = []
    for lineno, line in _path_lines(text, comments):
        try:
            vertices = tuple(map(int, line.split()))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad vertex index") from exc
        paths.append(Path(vertices))
    return Cover(tuple(paths), provenance=provenance, note=note or "; ".join(comments))


def format_cover_labeled(c: Cover, spec: HammingSpec, comments=()) -> str:
    """Labeled sibling format for Hamming graphs: coordinate tuples per vertex."""
    lines = [f"# {comment}" for comment in comments]
    for p in c.paths:
        coords = (format_coordinates(decode_coordinates(spec, v)) for v in p.vertices)
        lines.append(" ".join(coords))
    return "\n".join(lines) + "\n"


def parse_cover_labeled(
    text: str, spec: HammingSpec, provenance: str = PROVENANCE_FILE, note: str = ""
) -> Cover:
    """Parse the labeled format back to vertex indices via encode_coordinates."""
    paths = []
    comments = []
    for lineno, line in _path_lines(text, comments):
        vertices = []
        for token in line.split():
            if not (token.startswith("(") and token.endswith(")")):
                raise FormatError(f"line {lineno}: expected coordinate tuple, got {token!r}")
            try:
                coords = tuple(int(x) for x in token[1:-1].split(","))
            except ValueError as exc:
                raise FormatError(f"line {lineno}: bad coordinate in {token!r}") from exc
            try:
                vertices.append(encode_coordinates(spec, coords))
            except OutOfRangeError as exc:
                raise FormatError(f"line {lineno}: {exc}") from exc
        paths.append(Path(tuple(vertices)))
    return Cover(tuple(paths), provenance=provenance, note=note or "; ".join(comments))
