"""Explicit optimal cover construction for both graph families.

Multipartite covers come from a peel loop: it takes off one isometric
3-path at a time, chosen by the active case, then finishes from a base
cover.  Hamming covers come from a box-tiling loop: a box (a product of
coordinate ranges, a distance-invariant induced subgraph) is either a key
of the built-in base-cover table or is cut into smaller boxes by the
family's split rule.

Tie-breaking everywhere is "lowest available index" so identical inputs
produce byte-identical covers.
"""

from operator import mul

from .base_covers import (
    FAMILY_HAMMING2,
    FAMILY_HAMMING3,
    FAMILY_MULTIPARTITE,
    base_cover_lookup,
    base_cover_table,
)
from .cover import Cover
from .errors import ConstructionError
from .formulas import (
    CASE_DOMINANT_PART, CASE_MANY_ODD, ip_hamming2, ip_hamming3, ip_multipartite,
)
from .graph import HammingSpec, PartiteSpec, decode_coordinates


# --- multipartite construction -------------------------------------------


def _emit_dominant_base(remaining, ranked, paths):
    # K_{n1,1}: pair up the big part through the singleton hub.
    big = remaining[ranked[0][1]]
    hub = remaining[ranked[1][1]][0]
    for k in range(len(big) // 2):
        paths.append((big[2 * k], hub, big[2 * k + 1]))
    if len(big) % 2 == 1:
        paths.append((big[-1], hub))


def _emit_complete_base(remaining, paths):
    # All parts have one vertex left, the last of its block: a clique, covered
    # by 2-paths in index order; an odd count reuses the second-to-last vertex.
    verts = [vs[0] for vs in remaining if vs]
    for k in range(len(verts) // 2):
        paths.append((verts[2 * k], verts[2 * k + 1]))
    if len(verts) % 2 == 1:
        paths.append((verts[-2], verts[-1]))


def _emit_221_base(remaining, ranked, paths):
    a1, a2 = remaining[ranked[0][1]][:2]
    b = remaining[ranked[1][1]][0]
    c = remaining[ranked[2][1]][0]
    paths.append((a1, b, a2))
    paths.append((b, c))


def _emit_table_base(remaining, ranked, paths):
    # the key does not increase, so the base graph numbers its parts by rank
    base = base_cover_lookup(FAMILY_MULTIPARTITE, tuple(size for size, _ in ranked))
    translate = [v for _, part in ranked for v in remaining[part]]
    for p in base.paths:
        paths.append(tuple(translate[v] for v in p))


def cover_multipartite(spec: PartiteSpec) -> Cover:
    """Valid cover of make_complete_multipartite(spec) with exactly
    ip_multipartite(spec).value paths, in normal form."""
    expected = ip_multipartite(spec).value
    offsets = spec.part_offsets()
    remaining = [
        list(range(off, off + size)) for off, size in zip(offsets, spec.sizes)
    ]
    paths = []
    run_case = None
    while True:
        active = [(len(vs), idx) for idx, vs in enumerate(remaining) if vs]
        ranked = sorted(active, key=lambda t: (-t[0], t[1]))
        sizes_now = tuple(size for size, _ in ranked)
        if len(sizes_now) == 1:
            raise ConstructionError(f"reduction of {spec.sizes} left one part")
        cur = PartiteSpec(sizes_now)
        case = ip_multipartite(cur).case_tag
        # the reduction proofs keep the case constant along the whole run
        if run_case is not None and case != run_case:
            raise ConstructionError(
                f"case flipped from {run_case} to {case} at sizes {sizes_now}"
            )
        run_case = case
        n, n1, alpha = cur.n, sizes_now[0], cur.alpha

        if case == CASE_DOMINANT_PART:
            if n - n1 == 1:
                _emit_dominant_base(remaining, ranked, paths)
                break
            donor = ranked[1][1]
        elif case == CASE_MANY_ODD:
            if n == alpha:
                _emit_complete_base(remaining, paths)
                break
            if sizes_now == (2, 1, 1):
                _emit_221_base(remaining, ranked, paths)
                break
            odd_parts = [
                idx
                for size, idx in active
                if size % 2 == 1 and idx != ranked[0][1]
            ]
            if not odd_parts:
                raise ConstructionError(f"no odd donor part at sizes {sizes_now}")
            donor = min(odd_parts)
        else:  # BALANCED
            if n <= 8:
                _emit_table_base(remaining, ranked, paths)
                break
            odd_ranks = [
                k for k in range(1, len(ranked)) if ranked[k][0] % 2 == 1
            ]
            donor = ranked[max(odd_ranks) if odd_ranks else len(ranked) - 1][1]
        # peel two vertices of the largest part through one donor vertex
        big = remaining[ranked[0][1]]
        a1, a2 = big[:2]
        del big[:2]
        paths.append((a1, remaining[donor].pop(0), a2))
    if len(paths) != expected:
        raise ConstructionError(
            f"built {len(paths)} paths for sizes {spec.sizes}, formula says {expected}"
        )
    return Cover(
        paths,
        note=f"complete multipartite {','.join(str(s) for s in spec.sizes)}",
    )


# --- Hamming constructions -------------------------------------------------
#
# A split rule takes the sorted factors of a box that is not in the base
# table and returns its sub-boxes as (factors, offsets) in that sorted frame.


def _base_coord_paths(family, key):
    cover = base_cover_lookup(family, key)
    spec = HammingSpec(key)
    return [tuple(decode_coordinates(spec, v) for v in p) for p in cover.paths]


def _tile(factors, rule):
    """Paths of a cover of the Hamming graph on ``factors``, as vertex
    indices of that graph, tiled from base-table boxes in depth-first order."""
    r = len(factors)
    family = FAMILY_HAMMING2 if r == 2 else FAMILY_HAMMING3
    table = base_cover_table()
    bases = {}
    paths = []
    # a box: its factors in its parent's frame, the index stride of the
    # caller's axis under each of them, and the index of its corner
    stack = [(tuple(factors), HammingSpec(factors).strides, 0)]
    while stack:
        sizes, steps, start = stack.pop()
        order = sorted(range(r), key=sizes.__getitem__)
        key = tuple(sizes[i] for i in order)
        steps = tuple(steps[i] for i in order)
        if (family, key) in table:
            if key not in bases:
                bases[key] = _base_coord_paths(family, key)
            paths.extend(
                tuple(start + sum(map(mul, v, steps)) for v in p) for p in bases[key]
            )
            continue
        # reversed, so the first sub-box is popped, and emitted, first
        for sub, shift in reversed(rule(key)):
            stack.append((sub, steps, start + sum(map(mul, shift, steps))))
    return paths


def _hamming_cover(factors, expected, rule):
    paths = _tile(factors, rule)
    if len(paths) != expected:
        raise ConstructionError(
            f"built {len(paths)} paths for {' x '.join(f'K_{n}' for n in factors)}, "
            f"formula says {expected}"
        )
    return Cover(
        paths,
        note=f"hamming {','.join(str(n) for n in factors)}",
    )


def _h2_rule(key):
    a, b = key
    if b == 4:
        return [((a, 2), (0, 0)), ((a, 2), (0, 2))]
    return [((a, 3), (0, 0)), ((a, b - 3), (0, 3))]


def cover_hamming2(n1: int, n2: int) -> Cover:
    """Valid cover of K_{n1} x K_{n2} of size ceil(n1*n2/3): base tables for
    both factors <= 4, otherwise split one factor range into 3 + rest."""
    return _hamming_cover((n1, n2), ip_hamming2(n1, n2).value, _h2_rule)


# composite entries: split one factor of the key into two stacked slices
_H3_COMPOSITES = {
    (2, 5, 6): [((2, 3, 6), (0, 0, 0)), ((2, 2, 6), (0, 3, 0))],
    (3, 3, 5): [((3, 3, 2), (0, 0, 0)), ((3, 3, 3), (0, 0, 2))],
    (5, 5, 5): [((5, 5, 3), (0, 0, 0)), ((5, 5, 2), (0, 0, 3))],
}


def _h3_rule(key):
    a, b, c = key
    if a % 2 == 0 and b % 2 == 0 and c % 2 == 0:
        return [
            ((2, 2, 2), (i, j, k))
            for i in range(0, a, 2)
            for j in range(0, b, 2)
            for k in range(0, c, 2)
        ]
    if a == 2 and b == 2 and c % 2 == 1:
        # c+1 paths from (c+1)/2 blocks; the last two overlap on layer c-2
        return [((2, 2, 2), (0, 0, k)) for k in [*range(0, c - 2, 2), c - 2]]
    if key in _H3_COMPOSITES:
        return _H3_COMPOSITES[key]
    if c >= 7 or (c == 6 and a >= 3):
        return [((a, b, 4), (0, 0, 0)), ((a, b, c - 4), (0, 0, 4))]
    if 4 in key:
        # largest factor is >= 4 here; split it into 2 + rest
        return [((a, b, 2), (0, 0, 0)), ((a, b, c - 2), (0, 0, 2))]
    raise ConstructionError(f"no construction rule for factors {key}")


def cover_hamming3(n1: int, n2: int, n3: int) -> Cover:
    """Valid cover of K_{n1} x K_{n2} x K_{n3} matching ip_hamming3: 2x2x2
    tiling for all-even factors, overlapping blocks for the exceptional
    (2,2,odd) family, base/composite tables and range splits otherwise."""
    return _hamming_cover((n1, n2, n3), ip_hamming3(n1, n2, n3).value, _h3_rule)
