"""Exact generating-function toolkit for parity-constrained partition classes.

The package mechanically verifies a catalog of series = product identities
for the four-variable partition weight that marks ceilings and floors of
halved parts by row parity.  Three pillars:

* :mod:`sipq.partitions` — partitions, their statistics, the four classes and
  their bases;
* :mod:`sipq.series` / :mod:`sipq.qseries` — sparse truncated multivariate
  series over exact integers, Pochhammer products, base-``Q`` binomials;
* :mod:`sipq.sip`, :mod:`sipq.basis_gf`, :mod:`sipq.identities` — the
  skeleton/padding structure, three-way basis tables, and the identity
  catalog with its verifier.

Every check compares independently computed sides and demands exact equality
of truncated coefficients; nothing is floating point.
"""

from .basis_gf import (
    cross_check_tables,
    table_closed_form,
    table_enumerated,
    table_recurrence,
)
from .identities import (
    OMEGA_TO_BG,
    OMEGA_TO_XQ,
    OMEGA_TO_XZQ,
    OMEGA_TO_ZQ,
    PochFactor,
    SumFamily,
    TheoremSpec,
    UnknownTheorem,
    combinatorial_side,
    product_side,
    registry,
    series_side,
    spec_by_key,
    verify,
    verify_partial_sums,
    verify_spec,
    verify_substitution_consistency,
)
from .partitions import (
    OMEGA_IDENTITY,
    OmegaExponents,
    Partition,
    PartitionClass,
    PartitionStats,
    basis_members_of_length,
    basis_weight_grid,
    basis_weight_sums,
    class_weight_series,
    conjugate,
    enumerate_partitions,
    is_member,
    members_by_weight,
    omega_exponents,
    stats,
)
from .qseries import (
    A_INFINITY,
    DomainError,
    NonConvergent,
    check_q_gauss,
    check_qbinomial_recurrences,
    check_qbinomial_theorem,
    gauss_binomial,
    pochhammer_finite,
    pochhammer_infinite,
    q_monomial,
    running_product,
)
from .reporting import CheckReport
from .series import (
    FOUR_PARAM,
    SINGLE_Q,
    XZQ,
    ExponentOverflow,
    NonPositiveTail,
    NotAUnit,
    PrecisionLoss,
    RingMismatch,
    Series,
    SeriesComparison,
    SeriesError,
    SeriesRing,
    SubstitutionMap,
    TruncationMismatch,
)
from .sip import (
    InternalError,
    LengthViolation,
    NonEvenMu,
    NotInClass,
    SipDecomposition,
    SipError,
    check_sip_gf_four_parameter,
    compose,
    decompose,
    sip_gf_four_parameter,
    sip_gf_single_variable,
    verify_sip_property,
)

__version__ = "0.1.0"

__all__ = [
    "A_INFINITY",
    "CheckReport",
    "DomainError",
    "ExponentOverflow",
    "FOUR_PARAM",
    "InternalError",
    "LengthViolation",
    "NonConvergent",
    "NonEvenMu",
    "NonPositiveTail",
    "NotAUnit",
    "NotInClass",
    "OMEGA_IDENTITY",
    "OMEGA_TO_BG",
    "OMEGA_TO_XQ",
    "OMEGA_TO_XZQ",
    "OMEGA_TO_ZQ",
    "OmegaExponents",
    "Partition",
    "PartitionClass",
    "PartitionStats",
    "PochFactor",
    "PrecisionLoss",
    "RingMismatch",
    "SINGLE_Q",
    "Series",
    "SeriesComparison",
    "SeriesError",
    "SeriesRing",
    "SipDecomposition",
    "SipError",
    "SubstitutionMap",
    "SumFamily",
    "TheoremSpec",
    "TruncationMismatch",
    "UnknownTheorem",
    "XZQ",
    "basis_members_of_length",
    "basis_weight_grid",
    "basis_weight_sums",
    "check_q_gauss",
    "check_qbinomial_recurrences",
    "check_qbinomial_theorem",
    "check_sip_gf_four_parameter",
    "class_weight_series",
    "combinatorial_side",
    "compose",
    "conjugate",
    "cross_check_tables",
    "decompose",
    "enumerate_partitions",
    "gauss_binomial",
    "is_member",
    "members_by_weight",
    "omega_exponents",
    "pochhammer_finite",
    "pochhammer_infinite",
    "product_side",
    "q_monomial",
    "registry",
    "running_product",
    "series_side",
    "sip_gf_four_parameter",
    "sip_gf_single_variable",
    "spec_by_key",
    "stats",
    "table_closed_form",
    "table_enumerated",
    "table_recurrence",
    "verify",
    "verify_partial_sums",
    "verify_sip_property",
    "verify_spec",
    "verify_substitution_consistency",
]
