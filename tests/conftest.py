"""Shared enumeration helpers for the test suite."""

from itertools import product

from isopath.graph import sorted_partitions  # noqa: F401  (imported from here by the tests)


def part_pairings(size):
    """All ways to split a part into floor(size/2) disjoint pairs plus
    (size mod 2) leftover vertices, in deterministic order."""

    def rec(items):
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        if len(items) % 2 == 1:
            for matching in rec(rest):
                yield matching
        for i in range(len(rest)):
            partner = rest[i]
            for matching in rec(rest[:i] + rest[i + 1 :]):
                yield ((first, partner),) + matching

    yield from rec(tuple(range(size)))


def spec_pairings(sizes, count):
    """First `count` legal whole-graph pairings in lexicographic order."""
    per_part = [list(part_pairings(size)) for size in sizes]
    out = []
    for combo in product(*per_part):
        out.append(tuple(combo))
        if len(out) == count:
            break
    return out
