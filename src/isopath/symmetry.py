"""Automorphism subgroups found from the graph alone, for the solver's table.

``orbit_key`` derives a subgroup H of Aut(G) from the adjacency structure
and the distance rows, never from a family spec, and returns a function
that maps a vertex set (a bitmask) to an integer key: two sets get the
same key iff some element of H maps one onto the other.  H comes from one
of two sources:

- Hamming axes.  The line through an edge uv, {u, v} plus the common
  neighbours of u and v, is the clique of one axis (Imrich and Klavzar,
  "Recognizing Hamming graphs in linear time and space", IPL 1997).  The
  lines through vertex 0 give the axes and a vertex's coordinate on an
  axis is read from its distances to the points of that line.  The
  coordinates are used only after every edge is checked against them.  H
  permutes the columns along the largest axis (the vertex sets of one
  coordinate value there) and applies the automorphisms of the product of
  the other axes to all columns at once.  A set's key sorts the patterns
  its columns hold, takes the least such sorted sequence over those
  automorphisms and packs it into n bits.
- Twin classes: vertices with the same open, or the same closed,
  neighbourhood.  Any permutation within a class is an automorphism, so H
  forgets which vertices of a class a set holds and keeps their count.
  Two classes whose swap is checked to be an automorphism may also trade
  places, so such classes are counted as a multiset of counts.

A graph where neither source applies gets no key (None), and the solver
keys its table by the exact set.  Recognition that fails, on a graph that
has more symmetry than it finds, costs search time, never soundness.
"""

from itertools import permutations, product
from math import factorial, prod
from sys import byteorder

# Largest number of cells (vertices of one column) of a Hamming key, and
# largest table size, group order times 2^cells, of the group on the other
# axes; past the latter only the column permutations are used.
_MAX_CELLS = 12
_MAX_TABLE = 1 << 16
# Most column multisets whose key a Hamming key remembers; an entry, a
# tuple of c patterns and an n-bit int, takes 160 bytes on K2xK2xK7 and
# 330 on K2xK6xK6, so a full memo there is about 40 to 90 MB.
_MAX_SEEN = 1 << 18


def orbit_key(g, d):
    """(canon, width) for a subgroup of Aut(g), or None if none was found.

    ``d`` is the distance matrix of the connected graph g.  ``canon(mask)``
    is the key of the vertex set ``mask``, below ``1 << width``.
    """
    coords = _hamming_coordinates(g, d)
    if coords is not None:
        return _hamming_key(g.n, *coords)
    return _twin_key(g)


def _hamming_coordinates(g, d):
    """(sizes, coordinate tuple of each vertex) if g is a Hamming graph
    under coordinates read from vertex 0's lines, else None."""
    n = g.n
    adj0 = g.neighbors(0)
    near = frozenset(adj0)
    free = set(adj0)  # the neighbours of 0 on no line yet
    lines = []  # the points of each line through 0, vertex 0 left out
    for w in adj0:
        if w in free:
            line = [w] + sorted(near.intersection(g.neighbors(w)))
            if not free.issuperset(line):
                return None
            free.difference_update(line)
            lines.append(line)
    sizes = [len(line) + 1 for line in lines]
    if prod(sizes) != n or 2 * g.m != n * (sum(sizes) - len(sizes)):
        return None
    # On a Hamming graph, v agrees with point p of an axis line there iff
    # d(p, v) = d(0, v) - 1, and agrees with vertex 0 there iff no point does.
    row0 = d[0]
    point_rows = [[d[p] for p in line] for line in lines]
    coords = []
    for v in range(n):
        target = row0[v] - 1
        coord = []
        for rows in point_rows:
            x = 0
            for k, row in enumerate(rows, 1):
                if row[v] == target:
                    x = k
                    break
            coord.append(x)
        coords.append(tuple(coord))
    if len(set(coords)) != n:
        return None
    # distinct tuples, n of them, and m edges that each join tuples one
    # coordinate apart: an isomorphism onto the product of the lines
    for u in range(n):
        cu = coords[u]
        for v in g.neighbors(u):
            if u < v and sum(a != b for a, b in zip(cu, coords[v])) != 1:
                return None
    return sizes, coords


def _hamming_key(n, sizes, coords):
    """Key of the group that permutes the columns along the largest axis
    and applies the other axes' automorphisms to every column alike.  The
    memo maps a set's sorted column patterns to its key."""
    axis = sizes.index(max(sizes))
    c = sizes[axis]
    others = sizes[:axis] + sizes[axis + 1:]
    cells = prod(others)
    if cells > _MAX_CELLS:
        return None
    # bit of vertex v in key order: its column's byte, or 16-bit word past 8
    # cells, then the mixed-radix cell of its other coordinates (the first
    # other axis most significant)
    wide = cells > 8
    unit = 16 if wide else 8
    cell_of = {cell: k for k, cell in enumerate(product(*map(range, others)))}
    position = [x[axis] * unit + cell_of[x[:axis] + x[axis + 1:]] for x in coords]
    order = prod(map(factorial, others))
    order *= prod(map(factorial, map(others.count, set(others))))
    # every cell map but the identity as a table of column patterns, none
    # for a group too large for tables, and the images of a mask's columns
    # under one map
    cell_maps = [] if order << cells > _MAX_TABLE else _product_automorphisms(others, cell_of)
    images = [_bit_images([1 << k for k in cell_map]) for cell_map in cell_maps]
    if wide:
        def moved(columns, image):
            return map(image.__getitem__, columns)
    else:
        images = [bytes(image).ljust(256, b"\0") for image in images]
        moved = bytes.translate
    # the mask in key order, assembled a byte at a time
    byte_tables = [
        (low, _bit_images([1 << k for k in position[low:low + 8]])) for low in range(0, n, 8)
    ]
    size = c * unit // 8
    seen = {}

    def canon(mask):
        ordered = 0
        for low, table in byte_tables:
            ordered |= table[mask >> low & 255]
        columns = ordered.to_bytes(size, byteorder)
        if wide:
            columns = memoryview(columns).cast("H")
        patterns = tuple(sorted(columns))
        key = seen.get(patterns)
        if key is None:
            # the least sorted image, the identity's being the patterns
            # themselves, its c patterns packed into n bits
            key = 0
            least = min([list(patterns)] + [sorted(moved(columns, i)) for i in images])
            for pattern in least:
                key = key << cells | pattern
            if len(seen) < _MAX_SEEN:
                seen[patterns] = key
        return key

    return canon, n


def _bit_images(bits):
    """The table of x -> OR of bits[k] over the set bits k of x."""
    table = [0]
    for bit in bits:
        table += [t | bit for t in table]
    return table


def _product_automorphisms(sizes, cell_of):
    """Every automorphism but the identity of the product of complete graphs
    of these sizes, as a map of the cells numbered by ``cell_of``: a value
    permutation on each axis, then a permutation of axes of equal size."""
    orders = [o for o in permutations(range(len(sizes))) if [sizes[k] for k in o] == sizes]
    maps = [
        [cell_of[tuple(values[k][cell[k]] for k in order)] for cell in cell_of]
        for values in product(*(permutations(range(size)) for size in sizes))
        for order in orders
    ]
    return maps[1:]  # the first is the identity: no permutation anywhere


def _twin_key(g):
    """Key of the group that permutes each twin class and swaps the classes
    that are checked to be interchangeable; None if there is no twin."""
    n = g.n
    by_open = {}
    by_closed = {}
    for v in range(n):
        nbrs = g.neighbors(v)
        by_open.setdefault(nbrs, []).append(v)
        by_closed.setdefault(tuple(sorted(nbrs + (v,))), []).append(v)
    # the classes are disjoint, and no swap of a closed class (a clique) with
    # an open one (an independent set) is an automorphism
    classes = [c for c in by_open.values() if len(c) > 1]
    classes += [c for c in by_closed.values() if len(c) > 1]
    if not classes:
        return None
    classes.sort()
    groups = []
    for members in classes:
        for group in groups:
            if len(group[0]) == len(members) and _swap_is_automorphism(g, group[0], members):
                group.append(members)
                break
        else:
            groups.append([members])
    singles = (1 << n) - 1
    terms = []  # (class mask, offset of its group's slots, bits per slot)
    offset = n
    for group in groups:
        # a class holding k vertices counts one in slot k of its group
        w = len(group).bit_length()
        for members in group:
            cm = 0
            for v in members:
                cm |= 1 << v
            singles &= ~cm
            terms.append((cm, offset, w))
        offset += w * (len(group[0]) + 1)

    def canon(mask):
        key = mask & singles
        for cm, off, w in terms:
            key += 1 << off + w * (mask & cm).bit_count()
        return key

    return canon, offset


def _swap_is_automorphism(g, a, b):
    """Whether exchanging the vertex lists a and b, a[i] with b[i], maps
    every edge to an edge.  Edges away from both lists are fixed, so the
    edges at their vertices are the ones checked."""
    image = dict(zip(a, b))
    image.update(zip(b, a))
    for u in a + b:
        pu = image[u]
        for v in g.neighbors(u):
            if not g.has_edge(pu, image.get(v, v)):
                return False
    return True
