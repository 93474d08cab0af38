"""Cover data model, certificate verification, and the cover text format.

A path is a tuple of vertex indices claimed to be an isometric path.
"""

from itertools import chain

from ._record import Record
from .errors import FormatError
from .graph import Graph, _truncated


class Cover(Record):
    """A multiset of paths plus a free-text note; the central certificate object.

    Each path becomes a tuple of ints; an empty path, or a vertex other than
    a string that ``int`` changes, is rejected, while distinctness and
    adjacency are checked at verification time, not here.  Paths whose
    vertices are all exactly ``int`` are kept as given; a ``bool`` or other
    ``int`` subclass is converted, so the cover text prints digits.
    Vertex overlap between paths is permitted (covers are not partitions).
    """

    __slots__ = ("paths", "note")

    def __init__(self, paths, note=""):
        paths = given = tuple(map(tuple, paths))
        if not set(map(type, chain.from_iterable(given))) <= {int}:
            paths = tuple(tuple(map(int, p)) for p in given)
            for p, q in zip(given, paths):
                if _truncated(p, q):
                    raise ValueError(f"path {p} has a vertex that is not an integer")
        if not all(paths):
            raise ValueError("a path has at least one vertex")
        Record.__init__(self, paths, note)


class PathVerdict(Record):
    __slots__ = ("simple", "walk", "isometric")

    def __init__(self, simple, walk, isometric):
        Record.__init__(self, simple, walk, isometric)

    @property
    def ok(self):
        return self.simple and self.walk and self.isometric


# verdicts are immutable, so verify_cover hands out one record per outcome
_VERDICTS = {
    (simple, walk, isometric): PathVerdict(simple, walk, isometric)
    for simple in (False, True)
    for walk in (False, True)
    for isometric in (False, True)
}


class VerifyReport(Record):
    """Machine-checkable verdict on a (graph, cover) pair.

    ``valid`` holds iff every path verdict is fully true and ``uncovered``
    is empty (and, in strict mode, the cover is in normal form).
    ``overlap`` counts duplicate vertex incidences across paths and is
    diagnostic only.
    """

    __slots__ = ("valid", "path_verdicts", "uncovered", "size", "overlap", "normal_form")

    def __init__(self, valid, path_verdicts, uncovered, size, overlap, normal_form=None):
        Record.__init__(self, valid, path_verdicts, uncovered, size, overlap, normal_form)


def _normal_form_ok(c: Cover) -> bool:
    """Normal form: every path has 2 or 3 vertices and no two 3-vertex paths
    share an end vertex."""
    endpoint_seen = set()
    for p in c.paths:
        if len(p) not in (2, 3):
            return False
        if len(p) == 3:
            for v in (p[0], p[-1]):
                if v in endpoint_seen:
                    return False
                endpoint_seen.add(v)
    return True


def verify_cover(g: Graph, c: Cover, strict_normal_form: bool = False) -> VerifyReport:
    """Check every path and the coverage of V(g); problems are reported,
    never raised.  Deterministic and side-effect free.

    Range, coverage and overlap come from one pass over the cover's vertices
    laid end to end; the two branches only judge paths.  A family graph
    first checks the whole cover at once; when it finds every path a
    shortest path, every verdict is true.  Otherwise, and on a stored graph,
    each path is checked on its own."""
    n = g.n
    flat = list(chain.from_iterable(c.paths))
    in_range = not flat or (0 <= min(flat) and max(flat) < n)
    kept = flat if in_range else [v for v in flat if 0 <= v < n]
    covered = set(kept)
    if flat and in_range and g._all_shortest is not None and g._all_shortest(c.paths, flat):
        # a walk of k steps between vertices at distance k is simple
        verdicts = (_VERDICTS[True, True, True],) * len(c.paths)
        ok = True
    else:
        verdicts = []
        for verts in c.paths:
            simple = len(set(verts)) == len(verts)
            inside = in_range or 0 <= min(verts) and max(verts) < n
            walk = inside and all(map(g.has_edge, verts, verts[1:]))
            # a simple walk with k edges is a shortest path iff d(start, end) >= k
            k = len(verts) - 1
            isometric = simple and walk and (k <= 1 or g._distance_at_least(verts[0], verts[-1], k))
            verdicts.append(_VERDICTS[simple, walk, isometric])
        ok = all(v.ok for v in verdicts)
    uncovered = tuple(sorted(set(range(n)) - covered)) if len(covered) < n else ()
    valid = ok and not uncovered
    normal_form = None
    if strict_normal_form:
        normal_form = _normal_form_ok(c)
        valid = valid and normal_form
    return VerifyReport(
        valid=valid,
        path_verdicts=tuple(verdicts),
        uncovered=uncovered,
        size=len(c.paths),
        overlap=len(kept) - len(covered),
        normal_form=normal_form,
    )


def format_cover(c: Cover) -> str:
    """Cover text format: one path per line, space-separated vertex indices;
    an empty cover is one empty line.  One ``%`` pass formats the cover's
    vertices laid end to end into a template of one line per path."""
    lengths = list(map(len, c.paths))
    lines = {k: "%d " * (k - 1) + "%d\n" for k in set(lengths)}
    text = "".join(map(lines.__getitem__, lengths)) % tuple(chain.from_iterable(c.paths))
    return text or "\n"


def parse_cover(text: str) -> Cover:
    """Parse the cover text format; blank lines are skipped and ``#`` lines
    are collected into the note."""
    paths = []
    comments = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        try:
            paths.append(tuple(map(int, line.split())))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad vertex index") from exc
    return Cover(paths, note="; ".join(comments))
