"""Closed-form isometric path numbers and the matching lower bounds.

All arithmetic is exact integer arithmetic; ceilings are computed as
``(a + b - 1) // b``.
"""

from ._record import Record
from .errors import FormulaConflictError, InvalidSpecError
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
    __slots__ = ("value", "case_tag", "inputs")

    def __init__(self, value, case_tag, inputs):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "case_tag", case_tag)
        object.__setattr__(self, "inputs", inputs)


def odd_part_count(spec: PartiteSpec) -> int:
    """Number of parts of odd size."""
    return spec.alpha


def ip_complete(n: int) -> int:
    """Isometric path number of the complete graph K_n: ceil(n/2)."""
    if n < 1:
        raise InvalidSpecError("complete graph order must be positive")
    return ceil_div(n, 2)


def ip_multipartite(spec: PartiteSpec) -> FormulaResult:
    """Isometric path number of a complete multipartite graph (r >= 2).

    Cases are evaluated in the order DOMINANT_PART, MANY_ODD, BALANCED.
    The first two conditions can hold simultaneously; the implementation
    asserts the two closed forms agree there instead of assuming it, and
    reports a formula conflict otherwise.
    """
    if spec.r < 2:
        raise InvalidSpecError("at least two parts are required")
    n = spec.n
    n1 = spec.sizes[0]
    alpha = spec.alpha
    dominant = 3 * n1 > 2 * n
    many_odd = 3 * alpha > n
    if dominant and many_odd and ceil_div(n1, 2) != ceil_div(n + alpha, 4):
        raise FormulaConflictError(
            f"sizes {spec.sizes}: dominant-part and many-odd forms disagree "
            f"({ceil_div(n1, 2)} vs {ceil_div(n + alpha, 4)})"
        )
    if dominant:
        return FormulaResult(ceil_div(n1, 2), CASE_DOMINANT_PART, spec.sizes)
    if many_odd:
        return FormulaResult(ceil_div(n + alpha, 4), CASE_MANY_ODD, spec.sizes)
    return FormulaResult(ceil_div(n, 3), CASE_BALANCED, spec.sizes)


def ip_hamming2(n1: int, n2: int) -> FormulaResult:
    """Isometric path number of K_{n1} x K_{n2}: ceil(n1*n2/3)."""
    if n1 < 2 or n2 < 2:
        raise InvalidSpecError("factors must be at least 2")
    return FormulaResult(ceil_div(n1 * n2, 3), CASE_HAMMING2, (n1, n2))


def ip_hamming3(n1: int, n2: int, n3: int) -> FormulaResult:
    """Isometric path number of a product of three complete graphs.

    ceil(n1*n2*n3/4), except n1*n2*n3/4 + 1 when two factors equal 2 and
    the third is odd.  Order-insensitive.
    """
    factors = (n1, n2, n3)
    if any(f < 2 for f in factors):
        raise InvalidSpecError("factors must be at least 2")
    n = n1 * n2 * n3
    a, b, c = sorted(factors)
    if a == 2 and b == 2 and c % 2 == 1:
        return FormulaResult(n // 4 + 1, CASE_HAMMING3_EXCEPTIONAL, factors)
    return FormulaResult(ceil_div(n, 4), CASE_HAMMING3_MAIN, factors)


def ip_lower_bound_hamming(spec: HammingSpec) -> int:
    """ceil(n/(r+1)); every isometric path in the product has at most r+1 vertices."""
    return ceil_div(spec.n, spec.r + 1)


def ip_lower_bound_multipartite(spec: PartiteSpec) -> int:
    """ceil(n/3); every isometric path in the multipartite graph has at most 3 vertices."""
    if spec.r < 2:
        raise InvalidSpecError("at least two parts are required")
    return ceil_div(spec.n, 3)
