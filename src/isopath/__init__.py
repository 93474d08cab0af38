"""Isometric path covers of complete multipartite and Hamming graphs.

Closed-form path counts, explicit optimal cover construction, an exact
branch-and-bound oracle for small graphs, and certificate verification.
"""

from .base_covers import base_cover_lookup
from .construct import (
    cover_hamming,
    cover_hamming2,
    cover_hamming3,
    cover_multipartite,
)
from .cover import (
    Cover,
    PathVerdict,
    VerifyReport,
    format_cover,
    parse_cover,
    verify_cover,
)
from .errors import (
    ConstructionError,
    DisconnectedGraphError,
    FormatError,
    InvalidPairingError,
    InvalidSpecError,
    OutOfRangeError,
    PoolBudgetError,
    UnknownCoverKeyError,
)
from .formulas import (
    FormulaResult,
    ip_hamming,
    ip_hamming2,
    ip_hamming3,
    ip_lower_bound_hamming,
    ip_lower_bound_multipartite,
    ip_multipartite,
)
from .graph import (
    Graph,
    HammingSpec,
    PartiteSpec,
    all_pairs_distances,
    encode_coordinates,
    format_graph,
    make_augmented_multipartite,
    make_complete_multipartite,
    make_hamming,
    parse_graph,
)
from .solver import (
    PathPool,
    SolveResult,
    enumerate_isometric_paths,
    solve_min_cover,
)

__version__ = "0.1.0"
