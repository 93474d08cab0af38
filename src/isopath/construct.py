"""Explicit optimal cover construction for both graph families.

Multipartite covers come from one peel loop and no table: it takes off
one isometric 3-path at a time by a fixed rule (two vertices of the
largest part through one of the smallest other part), then covers the
clique of the last vertices.  Hamming covers come from a box-tiling
loop: a box (a product of coordinate ranges, a distance-invariant
induced subgraph) is either a key of the built-in base-cover table or is
cut into smaller boxes by one split rule, ``_split``, for every factor
count r: a slab of r + 1 layers (of 2 near the end) off the largest
factor, so the counting bound ceil(n/(r+1)) adds up across the cut.  Only
three factors have exceptions: the paper's 2 x 2 x odd family, the
2 x 2 x 2 grid of an all-even box, and a fixed cut of (2, 5, 6).  For 2
and 3 factors the tiling provably meets ip (the proof is ``_split``'s
docstring).  The table names the family of each key.

Tie-breaking everywhere is "lowest available index" so identical inputs
produce byte-identical covers.
"""

from itertools import product, repeat
from operator import mul

from .base_covers import _family, base_cover_lookup, base_cover_table
from .cover import Cover
from .errors import ConstructionError, UnknownCoverKeyError
from .formulas import ip_hamming, ip_multipartite
from .graph import HammingSpec, PartiteSpec


# --- multipartite construction -------------------------------------------


def _emit_complete_base(verts, paths):
    # The last vertex of each part left: a clique, covered by 2-paths in
    # index order; an odd count reuses the second-to-last vertex.
    for k in range(len(verts) // 2):
        paths.append((verts[2 * k], verts[2 * k + 1]))
    if len(verts) % 2 == 1:
        paths.append((verts[-2], verts[-1]))


def _reused(offsets, part):
    # the first vertex of part 0, or of part 1 for a path in part 0: already
    # covered, and adjacent to every vertex outside its part
    return offsets[part == 0]


def cover_multipartite(spec: PartiteSpec) -> Cover:
    """Valid cover of make_complete_multipartite(spec) with exactly
    ip_multipartite(spec).value paths, in normal form.

    Each step peels the first two vertices left in the largest part (lowest
    index on ties) through the next vertex of the smallest other part that
    still has one (lowest index on ties).  When no other part has one, the
    middle is the first vertex of part 0, or of part 1 for a peel in part
    0, and so is the partner of a lone last vertex; last vertices in two or
    more parts form a clique.  No closed form is evaluated in the loop: a
    peel that did not lower it by one would show as a final count other
    than ip_multipartite, which the count check rejects."""
    expected = ip_multipartite(spec).value
    sizes = spec.sizes
    offsets = spec.part_offsets()
    left = list(sizes)  # each part is used from the front
    paths = []
    s = max(left)
    while s > 1:
        big = left.index(s)
        left[big] -= 2
        rest = [(k, i) for i, k in enumerate(left) if k and i != big]
        if rest:
            k, donor = min(rest)
            left[donor] -= 1
            middle = offsets[donor] + sizes[donor] - k
        else:
            middle = _reused(offsets, big)
        first = offsets[big] + sizes[big] - s
        paths.append((first, middle, first + 1))
        s = max(left)
    last = [i for i, k in enumerate(left) if k]
    ends = [offsets[i] + sizes[i] - 1 for i in last]
    if len(last) == 1:
        paths.append((ends[0], _reused(offsets, last[0])))
    else:
        _emit_complete_base(ends, paths)
    if len(paths) != expected:
        raise ConstructionError(
            f"built {len(paths)} paths for sizes {sizes}, formula says {expected}"
        )
    return Cover(
        paths,
        note=f"complete multipartite {','.join(str(s) for s in sizes)}",
    )


# --- Hamming constructions -------------------------------------------------


def _split(key):
    """Sub-boxes of a box whose sorted factors ``key`` are not a base key,
    as (factors, offsets) in that sorted frame; none for a base key that no
    split shrinks, so that a key lost from the table is reported instead of
    split into itself forever.  Each call makes one cut; ``_frame`` calls it
    again on the last sub-box, the rest, while the rest is still sorted and
    not a base key, so a chain of slabs off one axis is one frame.

    The slab rule, for r factors: cut the largest factor c into a slab of
    k = r + 1 layers and the rest when c >= r + 3, else of k = 2 layers.
    Three factors have three exceptions: 2 x 2 x odd, the paper's
    exceptional family, takes 2 x 2 x 2 blocks whose last two overlap on
    one layer; an all-even box with c > 2 takes the 2 x 2 x 2 grid, as
    r + 1 = 4 divides 2^3; and (2, 5, 6) takes the fixed cut (2, 3, 6) +
    (2, 2, 6), as slabs would leave it one path over the bound.

    For r = 2 and 3 the tiling meets ip, ceil(n/(r+1)), or n/4 + 1 for
    2 x 2 x odd, by strong induction on n, as every sub-box is smaller:
    - A base key holds exactly ceil(n/(r+1)) paths (checked at load) and
      none is 2 x 2 x odd.
    - Slab: a slab of r + 1 layers has (r + 1) times the other factors'
      product as vertices, so ceil(n/(r+1)) adds exactly across the cut
      unless a child is 2 x 2 x odd.  A slab (..., 4) never is, and a rest
      is only for (2, b, 6) with b odd: (2, 3, 6) is a base key and
      (2, 5, 6) the fixed cut.
    - 2-layer cut: only when c <= r + 2, which leaves 9 keys, each checked
      once by a test: (3, 4), (4, 4), (3, 4, 4), (2, 4, 5), (3, 3, 5),
      (3, 4, 5), (4, 4, 5), (4, 5, 5) and (5, 5, 5).  Every key with
      c - 2 < 2 is a base key or (2, 2, 3).
    - Exceptions: the grid takes n/8 blocks of 2 paths, n/4; the overlap
      (c + 1)/2 blocks of 2, n/4 + 1; (2, 5, 6) takes 9 + 6 = 15.
    The proof covers r = 2 and 3 only.  At r = 4 the 2-layer cut misses the
    bound: (2, 2, 2, 4) becomes two K2^4 halves, 4 + 4 = 8 paths against
    ceil(32/5) = 7."""
    r, c = len(key), key[-1]
    if r == 3:
        a, b, _ = key
        if a == b == 2 and c & 1:
            return [((2, 2, 2), (0, 0, k)) for k in [*range(0, c - 2, 2), c - 2]]
        if not (a | b | c) & 1 and c > 2:
            corners = product(range(0, a, 2), range(0, b, 2), range(0, c, 2))
            return [((2, 2, 2), corner) for corner in corners]
        if key == (2, 5, 6):
            return [((2, 3, 6), (0, 0, 0)), ((2, 2, 6), (0, 3, 0))]
    k = r + 1 if c >= r + 3 else 2
    if c - k < 2:
        return []
    head, corner = key[:-1], (0,) * (r - 1)
    return [(head + (k,), corner + (0,)), (head + (c - k,), corner + (k,))]


def _tile(spec):
    """Paths of a cover of the Hamming graph of ``spec``, as vertex indices
    of that graph, tiled from base-table boxes in depth-first order."""
    table = base_cover_table()
    family = _family(spec.factors)  # every box has the spec's factor count
    bases = {}  # key: the base cover's index paths, looked up once
    frames = {}  # (sizes, steps) as popped: what _frame makes of the box
    paths = []
    # a box: its factors in its parent's frame, the index stride of the
    # caller's axis under each of them, and the index of its corner
    stack = [(spec.factors, spec.strides, 0)]
    while stack:
        sizes, steps, start = stack.pop()
        frame = frames.get((sizes, steps))
        if frame is None:
            frame = frames[sizes, steps] = _frame(table, bases, family, sizes, steps)
        placed, subs, sub_steps, shifts = frame
        if placed is not None:
            paths.extend(map(tuple, map(map, repeat(start.__add__), placed)))
        else:
            stack.extend(zip(subs, repeat(sub_steps), map(start.__add__, shifts)))
    return paths


def _frame(table, bases, family, sizes, steps):
    """What ``_tile`` does with a box of ``sizes`` under ``steps``, wherever
    its corner lies.  A base box gives (placed, None, None, None), where
    ``placed`` are the base cover's paths as index offsets from the corner.
    A split box gives (None, subs, steps, shifts): its sub-boxes in push
    order, the steps in its sorted frame, and each sub-box's corner as an
    index offset from its own.

    The last sub-box of a split, the rest, is split here too while it is
    in sort order and not a base key, and so on down the chain.  A rest in
    sort order would get these same steps in a frame of its own, so the
    sub-boxes, their order, sizes and steps are those of one frame per rest,
    and a chain of slabs costs one frame.  The chain stops at a base key,
    which is placed whole ((2, 7) leaves (2, 4): 3 paths, where its cut
    would give 4), and at a rest out of sort order, as in 20 x 21 -> (20,
    18), whose own frame takes its axes in another order."""
    order = sorted(range(len(sizes)), key=sizes.__getitem__)
    key = tuple(sizes[i] for i in order)
    steps = tuple(steps[i] for i in order)
    if (family, key) in table:
        if key not in bases:
            bases[key] = base_cover_lookup(family, key).paths
        # the offset of each base vertex, in the base graph's index order
        offset = [sum(map(mul, c, steps)) for c in product(*map(range, key))]
        return [tuple(map(offset.__getitem__, p)) for p in bases[key]], None, None, None
    # every split leaves its last sub-box's other sides sorted
    boxes, shifts, rest, start = [], [], key, 0
    while True:
        subs = _split(rest)
        if not subs:
            raise UnknownCoverKeyError(f"{family} {rest}")
        boxes.extend(sizes for sizes, _ in subs)
        shifts.extend(start + sum(map(mul, corner, steps)) for _, corner in subs)
        rest = boxes[-1]
        if rest[-1] < rest[-2] or (family, rest) in table:
            break
        boxes.pop()
        start = shifts.pop()
    # reversed, so the first sub-box is popped, and emitted, first
    return None, boxes[::-1], steps, shifts[::-1]


def cover_hamming(spec: HammingSpec) -> Cover:
    """Valid cover of make_hamming(spec), 2 or 3 factors, with exactly
    ip_hamming(spec).value paths: base-table boxes and the boxes ``_split``
    cuts, slabs of r + 1 (then 2) layers off the largest factor plus its
    three-factor exceptions."""
    expected = ip_hamming(spec).value
    paths = _tile(spec)
    # By the proof in _split's docstring this fails only when a base entry
    # is lost from the table or damaged after its load check.
    if len(paths) != expected:
        raise ConstructionError(
            f"built {len(paths)} paths for {' x '.join(f'K_{n}' for n in spec.factors)}, "
            f"formula says {expected}"
        )
    return Cover(paths, note=f"hamming {','.join(map(str, spec.factors))}")


def cover_hamming2(n1: int, n2: int) -> Cover:
    """cover_hamming of K_{n1} x K_{n2}."""
    return cover_hamming(HammingSpec((n1, n2)))


def cover_hamming3(n1: int, n2: int, n3: int) -> Cover:
    """cover_hamming of K_{n1} x K_{n2} x K_{n3}."""
    return cover_hamming(HammingSpec((n1, n2, n3)))
