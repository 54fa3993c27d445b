"""Exact-arithmetic toolkit for Specht ideals of polynomial rings.

Constructs Specht polynomial generator systems, analyzes the ideals'
vanishing loci (minimal primes, heights, purity), runs the two-row
straightening and membership-reduction calculus with verified
certificates, computes Hilbert functions and radicalness checks (proved in
every degree for two-row and (a,a,1) shapes, bounded otherwise), and
derives Cohen-Macaulay / Gorenstein verdicts from Koszul Betti tables.
All arithmetic is exact: rationals, prime fields, or GF(p^k).
"""

__version__ = "0.1.0"

from .fields import Field, QQ, field_of
from .poly import Polynomial, substitute
from .linalg import GradedBasis, echelon_span, intersect_spans
from .tableaux import (
    INVERSE,
    LetterOrder,
    NATURAL,
    Partition,
    Tableau,
    count_standard_tableaux,
    enumerate_partitions,
    enumerate_standard_tableaux,
)
from .specht import (
    MembershipCertificate,
    SpechtSystem,
    TwoRowClass,
    independence_rank,
    replay_aa1_reduction,
    replay_radical_reduction,
    sigma_reduce,
    specht_poly,
    straighten_quasi_h,
    supp,
)
from .ideals import (
    GeneratedIdeal,
    IntersectionInk,
    PartitionIdealK,
    QuotientRing,
    SquarefreeDegreeIdeal,
    clique_ideal,
    equal_up_to_degree,
    hilbert_function,
    mult_injective,
    socle,
    specht_ideal,
    specialize_xn,
    sum_ideal,
)
from .varieties import (
    ResourceLimitError,
    SetPartition,
    condition_star,
    evaluation_oracle,
    height_and_purity,
    minimal_primes,
    set_partitions,
)
from .betti import BettiTable, CmVerdict, cm_verdict, koszul_betti

__all__ = [
    "BettiTable",
    "CmVerdict",
    "Field",
    "GeneratedIdeal",
    "GradedBasis",
    "INVERSE",
    "IntersectionInk",
    "LetterOrder",
    "MembershipCertificate",
    "NATURAL",
    "Partition",
    "PartitionIdealK",
    "Polynomial",
    "QQ",
    "QuotientRing",
    "ResourceLimitError",
    "SetPartition",
    "SpechtSystem",
    "SquarefreeDegreeIdeal",
    "Tableau",
    "TwoRowClass",
    "clique_ideal",
    "cm_verdict",
    "condition_star",
    "count_standard_tableaux",
    "echelon_span",
    "enumerate_partitions",
    "enumerate_standard_tableaux",
    "equal_up_to_degree",
    "evaluation_oracle",
    "field_of",
    "height_and_purity",
    "hilbert_function",
    "independence_rank",
    "intersect_spans",
    "koszul_betti",
    "minimal_primes",
    "mult_injective",
    "replay_aa1_reduction",
    "replay_radical_reduction",
    "set_partitions",
    "sigma_reduce",
    "socle",
    "specht_ideal",
    "specht_poly",
    "specialize_xn",
    "straighten_quasi_h",
    "substitute",
    "sum_ideal",
    "supp",
]
