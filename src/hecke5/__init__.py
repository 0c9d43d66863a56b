"""Exact arithmetic, membership testing and congruence-subgroup index
computation for the Hecke group generated by S = [[0,1],[-1,0]] and
T = [[1,L],[0,1]] over Z[L], where L is the golden ratio."""

from .golden import (
    GoldenInt,
    LAMBDA,
    ONE,
    UnitDecomposition,
    ZERO,
    compare_real,
    divmod_pseudo,
    format_element,
    gcd_pseudo,
    parse_element,
    unit_log,
)
from .ideals import (
    IdealHNF,
    PrimeFactor,
    factor_ideal,
    ideal_divides,
    ideal_from_generator,
    ideal_mul,
    ideals_up_to,
    lattice_hnf,
    split_rational_prime,
)
from .matrices import (
    IDENTITY,
    Mat2,
    S,
    T,
    complete_column,
    eval_word,
    is_member,
    parabolic_conjugate,
    parse_matrix,
    reduce_fraction,
)
from .quotient import (
    QuotientGroup,
    ResMat,
    build_quotient,
    coset_words,
    index_g,
    index_h,
    orbit_stabilizer,
    power_subgroup,
    sl2_order,
    subgroup_generated,
)
from .formula import IndexReport, index_formula
from .verify import (
    VerificationReport,
    verify_all,
    verify_conjugation_action,
    verify_identities,
    verify_kernel_layer,
    verify_level5_structure,
)

__version__ = "0.1.0"
