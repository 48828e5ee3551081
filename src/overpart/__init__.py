"""Exact-arithmetic verification of an overpartition identity.

The package counts overpartitions on both sides of a
Rogers-Ramanujan-type identity (parts in fixed residue classes versus
gap conditions driven by subset-sum weights), expands the matching
generating functions and infinite products exactly, and checks every
recurrence and q-difference equation connecting them, all with
arbitrary-precision integer arithmetic at configurable truncation.
"""

from .alpha_system import (
    AlphaSystem,
    DominanceViolated,
    InvalidSystem,
    ModulusTooSmall,
    SumsNotDistinct,
    alpha_weight_sum,
    beta,
    build_system,
)
from .enumeration import (
    count_F,
    count_G,
)
from .recurrence_engine import (
    ChainBroken,
    ChainReport,
    ChainState,
    ConventionOutOfRange,
    NegativeExponents,
    NotStabilized,
    RecRow,
    RoundTripMismatch,
    build_rec_row,
    coeff_f,
    g_series,
    limit_u,
    run_recurrence,
    verify_chain,
    verify_eq_357,
    verify_key_lemma,
    verify_ladder,
    verify_lemma1,
    verify_lemma2,
    verify_Tmj,
)
from .series_ring import (
    DPoly,
    NonUnitLeadingTerm,
    QLaurent,
    TruncationMismatch,
    XSeries,
    product_F,
    qbinomial,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaSystem", "InvalidSystem", "DominanceViolated", "SumsNotDistinct",
    "ModulusTooSmall", "build_system", "beta", "alpha_weight_sum",
    "DPoly", "QLaurent", "XSeries", "TruncationMismatch",
    "NonUnitLeadingTerm", "qbinomial", "product_F",
    "count_F", "count_G",
    "RecRow", "ChainState", "ChainReport", "ChainBroken",
    "ConventionOutOfRange", "NotStabilized", "NegativeExponents",
    "RoundTripMismatch", "g_series", "verify_lemma1",
    "verify_lemma2", "verify_eq_357", "build_rec_row", "run_recurrence",
    "verify_key_lemma", "coeff_f",
    "verify_Tmj", "verify_chain", "verify_ladder", "limit_u",
    "__version__",
]
