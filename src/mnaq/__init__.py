"""Quasigroups from quadratic orthomorphisms over finite fields.

Construction of the quasigroups, four cross-checking decision procedures for
maximal nonassociativity, an O(q^2) exact counter driven by precomputed
quadratic-character tables, and empirical verification of the classification
and density results the construction rests on.
"""

from .assoc import (
    ALL_CLASSES,
    ClassIndex,
    assoc_eq_holds,
    class_code_grid,
    is_mna_A,
    is_mna_B,
    is_mna_Bscaled,
    is_mna_C,
    sigma_count,
)
from .charside import (
    SliceCounts,
    TPartitionReport,
    s_class_member,
    sigma_count_D,
    slice_counters,
    t_partition,
)
from .errors import (
    BadSliceParam,
    DivisionByZero,
    IrregularPair,
    MnaqError,
    NotInS,
    NotInSigma,
    NotOddPrimePower,
    SearchExhausted,
    TooLarge,
    VerificationFailure,
    ZeroPolynomial,
)
from .field import Field, make_field, odd_prime_powers
from .gfpoly import Factorization, factorize
from .quasigroup import (
    SigmaPair,
    SPair,
    enumerate_S,
    enumerate_sigma,
    is_s_pair,
    is_sigma_pair,
    phi_map,
    psi,
    psi_map,
    qmul,
    sigma_cardinality,
)
from .rng import SplitMix64
from .search import SearchCertificate, search_mna, verify_certificate
from .suites import run_suite
from .weil import (
    PolySpec,
    count_sign_pattern,
    is_squarefree_list,
    slice_param_admissible,
    verify_slice_lists,
)

__version__ = "0.1.0"
