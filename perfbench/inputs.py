"""Seeded input generator for the isopath benchmark.

Writes every input of one run into a directory before anything is timed:
graph files, certificate files and ``ops.json``, the op list.  Each op is
the argv of one ``isopath`` CLI call plus what its output must be.  File
names in ``ops.json`` are relative to the directory, so one seed gives a
byte-identical directory wherever it is written.

The generator does not import isopath: graphs, certificates, defects and
the closed forms used as ground truth are computed here, independently of
the program under test.

    python3 perfbench/inputs.py --workload certify --seed 1 --out DIR
"""

import argparse
import json
import os
import random

WORKLOADS = ("construct", "certify", "oracle")

# One node budget for every solve; K2xK2xK5 needs 7,282,792 nodes to close.
ORACLE_BUDGET = 8_000_000

# Fixed hard set of the oracle workload: (family, sizes).  The last two are
# unproven at this budget today; their incumbents are still checked.
ORACLE_HARD = (
    ("hamming", (2, 2, 5)),
    ("multipartite", (12, 12)),
    ("hamming", (2, 2, 7)),
    ("multipartite", (3,) + (1,) * 13),
)


# --- closed forms (ground truth, re-derived from the paper) ----------------


def _ceil_div(a, b):
    return -(-a // b)


def ip_multipartite(sizes):
    n, n1 = sum(sizes), max(sizes)
    alpha = sum(s % 2 for s in sizes)
    if 3 * n1 > 2 * n:
        return _ceil_div(n1, 2)
    if 3 * alpha > n:
        return _ceil_div(n + alpha, 4)
    return _ceil_div(n, 3)


def ip_hamming(factors):
    n = 1
    for f in factors:
        n *= f
    if len(factors) == 2:
        return _ceil_div(n, 3)
    a, b, c = sorted(factors)
    if a == 2 and b == 2 and c % 2 == 1:
        return n // 4 + 1
    return _ceil_div(n, 4)


# --- family graphs in isopath's vertex indexing ------------------------------
#
# Hamming: mixed radix, first coordinate most significant.  Multipartite:
# each part a contiguous block, in the order the sizes are given.


class Hamming:
    def __init__(self, factors):
        self.factors = tuple(factors)
        self.n = 1
        for f in self.factors:
            self.n *= f

    def decode(self, v):
        coords = []
        for f in reversed(self.factors):
            coords.append(v % f)
            v //= f
        return coords[::-1]

    def encode(self, coords):
        v = 0
        for c, f in zip(coords, self.factors):
            v = v * f + c
        return v

    def dist(self, u, v):
        return sum(a != b for a, b in zip(self.decode(u), self.decode(v)))

    def neighbors(self, v):
        coords = self.decode(v)
        out = []
        for axis, f in enumerate(self.factors):
            for value in range(f):
                if value != coords[axis]:
                    other = list(coords)
                    other[axis] = value
                    out.append(self.encode(other))
        return sorted(out)

    def edges(self):
        return [(u, w) for u in range(self.n) for w in self.neighbors(u) if u < w]


class Multipartite:
    def __init__(self, sizes, pairings=None):
        self.sizes = tuple(sizes)
        self.n = sum(self.sizes)
        self.part = [i for i, s in enumerate(self.sizes) for _ in range(s)]
        self.blocks = []
        start = 0
        for s in self.sizes:
            self.blocks.append(list(range(start, start + s)))
            start += s
        # augmented family: each part a clique minus the given pairs
        self.missing = None
        if pairings is not None:
            self.missing = set()
            for block, pairs in zip(self.blocks, pairings):
                for a, b in pairs:
                    self.missing.add((block[min(a, b)], block[max(a, b)]))

    def adjacent(self, u, v):
        if u == v:
            return False
        if self.part[u] != self.part[v]:
            return True
        return self.missing is not None and (min(u, v), max(u, v)) not in self.missing

    def dist(self, u, v):
        return 0 if u == v else 1 if self.adjacent(u, v) else 2

    def neighbors(self, v):
        return [w for w in range(self.n) if self.adjacent(v, w)]

    def edges(self):
        return [(u, w) for u in range(self.n) for w in range(u + 1, self.n) if self.adjacent(u, w)]


def graph_text(n, edges):
    """isopath graph text format: ``p n m`` then sorted ``e u v`` lines, u < v."""
    lines = [f"p {n} {len(edges)}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"


def cover_text(paths):
    return "".join(" ".join(map(str, p)) + "\n" for p in paths)


# --- certificates ----------------------------------------------------------


def hamming_cover(g):
    """Greedy valid cover: from each uncovered vertex, change one axis per
    step (so the path is isometric), preferring uncovered targets."""
    covered = bytearray(g.n)
    paths = []
    for v in range(g.n):
        if covered[v]:
            continue
        path = [v]
        coords = g.decode(v)
        for axis, f in enumerate(g.factors):
            options = [x for x in range(f) if x != coords[axis]]
            pick = options[0]
            for x in options:
                coords[axis] = x
                if not covered[g.encode(coords)]:
                    pick = x
                    break
            coords[axis] = pick
            path.append(g.encode(coords))
        while len(path) > 1 and covered[path[-1]]:
            path.pop()
        for w in path:
            covered[w] = 1
        paths.append(path)
    return paths


def multipartite_cover(g):
    """Valid cover of 3-vertex paths a-h-b (a, b in one part) while two
    vertices of a part remain, then 2-vertex paths across parts."""
    remaining = [list(block) for block in g.blocks]
    paths = []
    while True:
        order = sorted(range(len(remaining)), key=lambda i: (-len(remaining[i]), i))
        big = remaining[order[0]]
        if len(big) < 2:
            break
        a, b = big.pop(0), big.pop(0)
        donor = remaining[order[1]]
        hub = donor.pop(0) if donor else g.blocks[order[1]][0]
        paths.append([a, hub, b])
    singles = [v for part in remaining for v in part]
    for k in range(0, len(singles) - 1, 2):
        paths.append([singles[k], singles[k + 1]])
    if len(singles) % 2 == 1:
        last = singles[-1]
        paths.append([last, g.neighbors(last)[0]])
    return paths


DEFECTS = ("step", "repeat", "detour", "drop")


def inject_defect(g, paths, kind, rng):
    """Corrupt one path in place.  Returns (bad path indices, uncovered
    count) that ``isopath verify`` must report."""
    order = list(range(len(paths)))
    rng.shuffle(order)
    if kind == "drop":
        counts = {}
        for p in paths:
            for v in p:
                counts[v] = counts.get(v, 0) + 1
        for i in order:
            private = sum(counts[v] == 1 for v in set(paths[i]))
            if private:
                del paths[i]
                return [], private
        raise ValueError("no path covers a vertex alone")
    for i in order:
        p = paths[i]
        if kind == "repeat" and len(p) >= 2:
            p.append(p[-2])
        elif kind == "detour":
            edges = len(p)
            options = [w for w in g.neighbors(p[-1]) if w not in p and g.dist(p[0], w) < edges]
            if not options:
                continue
            p.append(rng.choice(options))
        elif kind == "step" and len(p) >= 2:
            j = rng.randrange(1, len(p))
            options = [
                w for w in rng.sample(range(g.n), min(g.n, 64))
                if w not in p and g.dist(p[j - 1], w) >= 2
            ]
            if not options:
                continue
            p[j] = options[0]
        else:
            continue
        covered = set()
        for q in paths:
            covered.update(q)
        return [i], g.n - len(covered)
    raise ValueError(f"no path admits a {kind} defect")


# --- workloads -------------------------------------------------------------
#
# Every workload is a list of strata.  A stratum's slots sit at fixed points
# t in [0, 1] of a size ladder; the seed jitters each size a little and
# permutes factor and part orders.  So every seed keeps the same mix and
# nearly the same cost per slot, which keeps medians and tails steady.


def _lerp(lo, hi, t):
    return round(lo + (hi - lo) * t)


def _shuffled(rng, sizes):
    sizes = list(sizes)
    rng.shuffle(sizes)
    return tuple(sizes)


def _h2_square(lo, hi):
    def draw(rng, t):
        a = _lerp(lo, hi, t)
        return _shuffled(rng, (a, a + rng.randint(0, 1)))
    return draw


def _h2_thin(lo, hi):
    return lambda rng, t: _shuffled(rng, (2, _lerp(lo, hi, t) + rng.randint(-1, 1)))


def _h3_even(*triples):
    return lambda rng, t: _shuffled(rng, triples[round(t * (len(triples) - 1))])


def _h3_exceptional(lo, hi):
    return lambda rng, t: _shuffled(rng, (2, 2, (_lerp(lo, hi, t) | 1) + rng.choice((0, 2))))


def _h3_thin(lo, hi):
    return lambda rng, t: _shuffled(rng, (3, 3, _lerp(lo, hi, t) + rng.randint(-1, 1)))


def _split(rng, n, parts):
    """n as ``parts`` near-equal positive sizes, each nudged by up to 10%."""
    sizes = [n // parts + (k < n % parts) for k in range(parts)]
    for k in range(parts - 1):
        shift = rng.randint(-(sizes[k] // 10), sizes[k] // 10)
        sizes[k] -= shift
        sizes[-1] += shift
    return sizes


def _multipartite(n_lo, n_hi):
    """Sizes cycle through the three closed-form cases along the ladder."""
    def draw(rng, t):
        n = _lerp(n_lo, n_hi, t) + rng.randint(-2, 2)
        profile = round(t * 11) % 3
        if profile == 0:  # BALANCED
            sizes = _split(rng, n, 3 + round(t * 7) % 4)
        elif profile == 1:  # DOMINANT_PART
            big = round(n * rng.uniform(0.7, 0.74))
            sizes = [big] + _split(rng, n - big, 1 + round(t * 5) % 3)
        else:  # MANY_ODD: a third and more of the vertices are singleton parts
            ones = round(n * rng.uniform(0.38, 0.42))
            sizes = [1] * ones + _split(rng, n - ones, 2 + round(t * 5) % 2)
        return _shuffled(rng, sizes)
    return draw


def _fixed(sizes):
    return lambda rng, t: _shuffled(rng, sizes)


# (slots, family, draw) -- the construct mix, 54 to 1,728 vertices.  Op
# costs fall in tiers, and the ops at the median and at the 90th
# percentile come from one narrow stratum each (marked), so those
# percentiles do not jump between strata from one seed to the next.
CONSTRUCT_MIX = (
    (6, "hamming", _h2_square(8, 12)),
    (5, "hamming", _h2_thin(30, 60)),
    (4, "hamming", _h3_even((4, 4, 4), (4, 4, 6), (4, 6, 6), (6, 6, 6))),
    (5, "hamming", _h3_exceptional(15, 35)),
    (5, "hamming", _h3_thin(7, 20)),
    (15, "multipartite", _multipartite(60, 90)),
    (20, "hamming", _fixed((14, 15))),  # median
    (5, "hamming", _h2_square(16, 18)),
    (4, "hamming", _h2_thin(70, 100)),
    (3, "hamming", _h3_even((6, 6, 8), (6, 8, 8), (8, 8, 8))),
    (4, "hamming", _h3_exceptional(45, 61)),
    (4, "hamming", _h3_thin(30, 42)),
    (4, "multipartite", _multipartite(180, 220)),
    (14, "hamming", _fixed((20, 21))),  # 90th percentile
    (1, "hamming", _fixed((12, 12, 12))),
    (1, "multipartite", _fixed((300, 200, 100))),
)

# (graphs, certificates per graph, family, draw) -- the certify mix, tiered
# like the construct mix
CERTIFY_MIX = (
    (2, 4, "hamming", _h2_square(8, 12)),
    (2, 4, "hamming", _h2_thin(30, 45)),
    (1, 4, "hamming", _h3_even((4, 4, 4))),
    (2, 4, "hamming", _h3_exceptional(15, 25)),
    (1, 4, "hamming", _h3_thin(7, 15)),
    (2, 4, "multipartite", _multipartite(60, 90)),
    (5, 4, "hamming", _fixed((13, 14))),  # median
    (2, 4, "hamming", _h2_square(16, 19)),
    (1, 4, "hamming", _h2_thin(70, 80)),
    (1, 4, "hamming", _h3_exceptional(45, 61)),
    (1, 4, "hamming", _h3_thin(30, 40)),
    (1, 4, "hamming", _h3_even((8, 8, 8))),
    (1, 2, "multipartite", _multipartite(120, 150)),
    (3, 4, "hamming", _fixed((22, 23))),  # 90th percentile
    (1, 2, "multipartite", _fixed((300, 200, 100))),
)


def _slots(count, draw, rng):
    return [draw(rng, k / max(1, count - 1)) for k in range(count)]


# Oracle light sample: (graphs per n, family, n range), multipartite with
# at most 4 parts and no part above 8, so the solve stays below the CLI's
# own overhead; plus LIGHT_HAMMING_DRAWS Hamming graphs with n <= 16.
ORACLE_LIGHT = (
    (8, "multipartite", range(5, 12)),
    (4, "augmented", range(5, 11)),
)
ORACLE_LIGHT_HAMMING = tuple((a, b) for a in range(2, 9) for b in range(a, 9) if a * b <= 16) + ((2, 2, 2),)
LIGHT_HAMMING_DRAWS = 20

# Light ops run LIGHT_REPEAT times per pass and mid ops MID_REPEAT times,
# so the percentiles, which fall among them, rest on more samples than the
# one or two passes of the hard set that fit in a run.  The 90th percentile
# sits between two mid ops, so those get the most.
LIGHT_REPEAT = 3
MID_REPEAT = 9

# Fixed mid set: small graphs whose solves (5-30 ms) cost more than any
# light one, so the 90th percentile of op time falls inside this set.
ORACLE_MID = (
    ("hamming", (2, 2, 3)),
    ("hamming", (2, 3, 2)),
    ("hamming", (2, 4, 2)),
    ("multipartite", (9, 2)),
    ("multipartite", (9, 1, 1)),
    ("multipartite", (4,) + (1,) * 7),
    ("multipartite", (3, 2, 2, 1, 1, 1, 1)),
    ("multipartite", (3,) + (1,) * 8),
    ("multipartite", (3, 2) + (1,) * 6),
    ("multipartite", (2, 2) + (1,) * 7),
    ("multipartite", (4, 2) + (1,) * 5),
    ("multipartite", (3,) + (1,) * 7),
)


def _prod(f):
    n = 1
    for x in f:
        n *= x
    return n


def _formula(family, sizes):
    return ip_hamming(sizes) if family == "hamming" else ip_multipartite(sizes)


def _family_graph(family, sizes):
    return Hamming(sizes) if family == "hamming" else Multipartite(sizes)


def _construct_ops(rng, out):
    ops = []
    for count, family, draw in CONSTRUCT_MIX:
        for sizes in _slots(count, draw, rng):
            expected = _formula(family, sizes)
            ops.append({
                "label": f"{family} {','.join(map(str, sizes))}",
                "argv": ["construct", "--" + family, ",".join(map(str, sizes))],
                "expect": {"size": expected},
            })
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["argv"] += ["-o", f"out{i}.cover"]
    return ops


def _certify_ops(rng, out):
    graphs = []
    for count, certs, family, draw in CERTIFY_MIX:
        graphs.extend((certs, family, sizes) for sizes in _slots(count, draw, rng))
    kinds = [DEFECTS[i % len(DEFECTS)] for i in range(len(graphs))]
    rng.shuffle(kinds)
    ops = []
    for gi, ((certs, family, sizes), kind) in enumerate(zip(graphs, kinds)):
        g = _family_graph(family, sizes)
        base = hamming_cover(g) if family == "hamming" else multipartite_cover(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        edges = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()]
        gname = f"g{gi}.txt"
        _write(out, gname, graph_text(g.n, edges))
        bad_cert = rng.randrange(certs)
        for ci in range(certs):
            paths = [list(p) for p in base]
            rng.shuffle(paths)
            expect = {"valid": True, "bad_paths": [], "uncovered": 0}
            if ci == bad_cert:
                bad, uncovered = inject_defect(g, paths, kind, rng)
                expect = {"valid": False, "bad_paths": bad, "uncovered": uncovered,
                          "defect": kind}
            expect["size"] = len(paths)
            cname = f"g{gi}c{ci}.cover"
            _write(out, cname, cover_text([[perm[v] for v in p] for p in paths]))
            ops.append({
                "label": f"{family} {','.join(map(str, sizes))} cert {ci}",
                "argv": ["verify", "-g", gname, "-c", cname],
                "expect": expect,
            })
    rng.shuffle(ops)
    return ops


def _random_pairings(rng, sizes):
    pairings = []
    for s in sizes:
        verts = list(range(s))
        rng.shuffle(verts)
        pairings.append([tuple(sorted(verts[2 * k: 2 * k + 2])) for k in range(s // 2)])
    return pairings


def _light_sizes(rng, n):
    """Parts in isopath's canonical order (largest first): the solver's
    search order, and so its cost, depends on the vertex layout."""
    while True:
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(n - 1, 3))))
        sizes = sorted((b - a for a, b in zip([0] + cuts, cuts + [n])), reverse=True)
        if sizes[0] <= 8:
            return tuple(sizes)


def _oracle_ops(rng, out):
    light = []
    for per_n, family, ns in ORACLE_LIGHT:
        for n in ns:
            for _ in range(per_n):
                sizes = _light_sizes(rng, n)
                if family == "augmented":
                    g = Multipartite(sizes, _random_pairings(rng, sizes))
                    light.append((family, sizes, g, _ceil_div(n, 3), False))
                else:
                    light.append((family, sizes, Multipartite(sizes), ip_multipartite(sizes), True))
    for _ in range(LIGHT_HAMMING_DRAWS):
        factors = rng.choice(ORACLE_LIGHT_HAMMING)
        light.append(("hamming", factors, Hamming(factors), ip_hamming(factors), True))
    rng.shuffle(light)
    fixed = [(f, s, _family_graph(f, s), _formula(f, s), True) for f, s in ORACLE_MID + ORACLE_HARD]
    ops = []
    for i, (family, sizes, g, bound, exact) in enumerate(light + fixed):
        gname = f"g{i}.txt"
        _write(out, gname, graph_text(g.n, g.edges()))
        ops.append({
            "label": f"{family} {','.join(map(str, sizes))}",
            "argv": ["solve", "-g", gname, "--budget", str(ORACLE_BUDGET), "-o", f"out{i}.cover"],
            # augmented graphs only need the counting bound: the closed form
            # fails there in the dominant-part case
            "expect": {"graph": gname, "size": bound, "exact": exact},
        })
    for op in ops[:len(light)]:
        op["repeat"] = LIGHT_REPEAT
    for op in ops[len(light):-len(ORACLE_HARD)]:
        op["repeat"] = MID_REPEAT
    for op in ops[-len(ORACLE_HARD):]:
        op["hard"] = True
    # mixed, so that the hard ops, most of a pass's time, fall between the
    # repeats of the light and mid ops instead of after all of them
    rng.shuffle(ops)
    return ops


def _write(out, name, text):
    with open(os.path.join(out, name), "w", encoding="ascii", newline="") as handle:
        handle.write(text)


def generate(workload, seed, out):
    """Write the inputs of (workload, seed) into ``out`` and return the ops."""
    os.makedirs(out, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    ops = {"construct": _construct_ops, "certify": _certify_ops, "oracle": _oracle_ops}[
        workload
    ](rng, out)
    _write(out, "ops.json", "[\n" + ",\n".join(json.dumps(op, sort_keys=True) for op in ops) + "\n]\n")
    return ops


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
