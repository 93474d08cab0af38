"""Closed-form isometric path numbers and the matching lower bounds.

All arithmetic is exact integer arithmetic; ceilings are computed as
``(a + b - 1) // b``.
"""

from ._record import Record
from .errors import InvalidSpecError
from .graph import HammingSpec, PartiteSpec

CASE_DOMINANT_PART = "DOMINANT_PART"
CASE_MANY_ODD = "MANY_ODD"
CASE_BALANCED = "BALANCED"
CASE_HAMMING2 = "HAMMING2"
CASE_HAMMING3_MAIN = "HAMMING3_MAIN"
CASE_HAMMING3_EXCEPTIONAL = "HAMMING3_EXCEPTIONAL"


def ceil_div(a: int, b: int) -> int:
    return (a + b - 1) // b


class FormulaResult(Record):
    __slots__ = ("value", "case_tag")

    def __init__(self, value, case_tag):
        Record.__init__(self, value, case_tag)


def ip_multipartite(spec: PartiteSpec) -> FormulaResult:
    """Isometric path number of a complete multipartite graph (r >= 2).

    Cases are evaluated in the order DOMINANT_PART, MANY_ODD, BALANCED.
    The first two conditions both hold only on K_{2k+1,1,...,1} with k
    ones, where both closed forms give k + 1.
    """
    if spec.r < 2:
        raise InvalidSpecError("at least two parts are required")
    n, n1, alpha = spec.n, spec.sizes[0], spec.alpha
    if 3 * n1 > 2 * n:
        return FormulaResult(ceil_div(n1, 2), CASE_DOMINANT_PART)
    if 3 * alpha > n:
        return FormulaResult(ceil_div(n + alpha, 4), CASE_MANY_ODD)
    return FormulaResult(ceil_div(n, 3), CASE_BALANCED)


def ip_hamming(spec: HammingSpec) -> FormulaResult:
    """Isometric path number of a product of 2 or 3 complete graphs: the
    counting bound ceil(n/(r+1)), except n/4 + 1 when two of three factors
    equal 2 and the third is odd.  Order-insensitive."""
    if spec.r == 2:
        return FormulaResult(ip_lower_bound_hamming(spec), CASE_HAMMING2)
    if spec.r != 3:
        raise InvalidSpecError(f"2 or 3 factors supported, got {spec.r}")
    a, b, c = sorted(spec.factors)
    if a == b == 2 and c % 2 == 1:
        return FormulaResult(spec.n // 4 + 1, CASE_HAMMING3_EXCEPTIONAL)
    return FormulaResult(ip_lower_bound_hamming(spec), CASE_HAMMING3_MAIN)


def ip_hamming2(n1: int, n2: int) -> FormulaResult:
    """ip_hamming of K_{n1} x K_{n2}: ceil(n1*n2/3)."""
    return ip_hamming(HammingSpec((n1, n2)))


def ip_hamming3(n1: int, n2: int, n3: int) -> FormulaResult:
    """ip_hamming of K_{n1} x K_{n2} x K_{n3}."""
    return ip_hamming(HammingSpec((n1, n2, n3)))


def ip_lower_bound_hamming(spec: HammingSpec) -> int:
    """ceil(n/(r+1)); every isometric path in the product has at most r+1 vertices."""
    return ceil_div(spec.n, spec.r + 1)


def ip_lower_bound_multipartite(spec: PartiteSpec) -> int:
    """ceil(n/3); every isometric path in the multipartite graph has at most 3 vertices."""
    if spec.r < 2:
        raise InvalidSpecError("at least two parts are required")
    return ceil_div(spec.n, 3)
