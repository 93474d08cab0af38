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
  the other axes to all columns at once.
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
from operator import itemgetter

# Largest number of cells (vertices of one column) of a Hamming key, and
# largest table size, group order times 2^cells, of the group on the other
# axes; past the latter only the column permutations are used.
_MAX_CELLS = 12
_MAX_TABLE = 1 << 16
# Most column multisets whose key a Hamming key remembers (about 30 MB).
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
    and applies the other axes' automorphisms to every column alike."""
    axis = sizes.index(max(sizes))
    c = sizes[axis]
    others = sizes[:axis] + sizes[axis + 1:]
    cells = prod(others)
    if cells > _MAX_CELLS:
        return None
    # bit of vertex v in key order: column, then the mixed-radix cell of its
    # other coordinates (the first other axis most significant)
    position = []
    for coord in coords:
        cell = 0
        for k, size in enumerate(others):
            cell = cell * size + coord[k + (k >= axis)]
        position.append(coord[axis] * cells + cell)
    order = prod(map(factorial, others))
    order *= prod(map(factorial, map(others.count, set(others))))
    if order << cells > _MAX_TABLE:
        cell_maps = [range(cells)]
    else:
        cell_maps = _product_automorphisms(others)
    # Columns are read `per` at a time, as a chunk of at most 8 bits, in two
    # chunks or more; the columns that pad the last chunk are empty.
    per = max(1, 8 // cells)
    if per >= c:
        per = (c + 1) // 2
    chunks = -(-c // per)
    # a column holding pattern p counts one in slot p of the multiset key,
    # w bits a slot; a chunk's code is the sum of its columns' codes
    w = (chunks * per).bit_length()
    encodings = []
    for cell_map in cell_maps:
        column = [1 << w * p for p in _bit_images([1 << k for k in cell_map])]
        code = column
        for _ in range(per - 1):
            code = [a + b for b in column for a in code]
        encodings.append(code)
    # the mask in key order, assembled a byte at a time
    position.extend([None] * (-n % 8))
    byte_tables = [
        (low, _bit_images([0 if k is None else 1 << k for k in position[low:low + 8]]))
        for low in range(0, n, 8)
    ]
    chunk = (1 << per * cells) - 1
    shifts = range(0, chunks * per * cells, per * cells)

    # the key of each column multiset met so far, by its identity code
    identity = encodings[0]
    seen = {}

    def canon(mask):
        ordered = 0
        for low, table in byte_tables:
            ordered |= table[mask >> low & 255]
        codes_of = itemgetter(*[ordered >> s & chunk for s in shifts])
        multiset = sum(codes_of(identity))
        key = seen.get(multiset)
        if key is None:
            key = min([sum(codes_of(code)) for code in encodings])
            if len(seen) < _MAX_SEEN:
                seen[multiset] = key
        return key

    return canon, w << cells


def _bit_images(bits):
    """The table of x -> OR of bits[k] over the set bits k of x."""
    table = [0]
    for bit in bits:
        table += [t | bit for t in table]
    return table


def _product_automorphisms(sizes):
    """Every automorphism of the product of complete graphs of these sizes,
    as a map of mixed-radix cells: a value permutation on each axis, then a
    permutation of axes of equal size; the identity comes first."""
    r = len(sizes)
    axis_orders = [
        order for order in permutations(range(r))
        if all(sizes[order[k]] == sizes[k] for k in range(r))
    ]
    cells = list(product(*(range(size) for size in sizes)))
    maps = []
    for values in product(*(permutations(range(size)) for size in sizes)):
        for order in axis_orders:
            image = []
            for cell in cells:
                moved = [0] * r
                for k in range(r):
                    moved[order[k]] = values[k][cell[k]]
                index = 0
                for k in range(r):
                    index = index * sizes[k] + moved[k]
                image.append(index)
            maps.append(image)
    return maps


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
    # no vertex has both an open and a closed twin, so the classes are disjoint
    classes = [(False, c) for c in by_open.values() if len(c) > 1]
    classes += [(True, c) for c in by_closed.values() if len(c) > 1]
    if not classes:
        return None
    classes.sort(key=lambda kc: kc[1][0])
    groups = []
    for closed, members in classes:
        for group in groups:
            first_closed, first = group[0]
            if (
                first_closed == closed
                and len(first) == len(members)
                and _swap_is_automorphism(g, first, members)
            ):
                group.append((closed, members))
                break
        else:
            groups.append([(closed, members)])
    singles = (1 << n) - 1
    terms = []  # (class mask, offset of its group's slots, bits per slot)
    offset = n
    for group in groups:
        # a class holding k vertices counts one in slot k of its group
        w = len(group).bit_length()
        for _, members in group:
            cm = 0
            for v in members:
                cm |= 1 << v
            singles &= ~cm
            terms.append((cm, offset, w))
        offset += w * (len(group[0][1]) + 1)

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
