"""Exact order and rank certificates for desk-scale rings.

Computes matrix classes under subequivalence, rank functions and their
Sylvester axioms, Grothendieck-group correspondences, and certified
state ranges over Z/p^n, F_p[x]/x^n, Z, F_p[x], and finite products of
finite fields.  Every order decision is backed by a certificate that
can be re-checked independently of how it was found.
"""

from .errors import (
    BoundExceededError,
    ParseError,
    PreconditionError,
    RankcertError,
    SearchBudgetError,
)
from .normal_form import (
    DiagonalForm,
    diagonal_matrix,
    diagonalize,
    is_invertible,
    verify_factorization,
)
from .presentations import (
    LocalSignature,
    Presentation,
    RegularSignature,
    dim,
    direct_sum,
    free_presentation,
    image_signature,
    module_basis_labels,
    module_class,
    module_coeffs_sub,
    module_cone_member,
    module_leq,
    phi,
    phi_group,
    presentation,
    presentations_equivalent,
    psi,
    psi_group,
    quotient_presentation,
    signature,
)
from .rings import (
    Matrix,
    block_diag,
    block_upper,
    det,
    identity,
    mat_mul,
    matrix,
    minor,
    minors_in_ideal,
    parse_matrix,
    parse_ring,
    stack_vertical,
    zeros,
)
from .semigroup import (
    UNKNOWN,
    Cancel,
    Drop,
    ExponentIncrease,
    FactorResult,
    NegativeMinor,
    NegativeRank,
    Positive,
    PowerSwap,
    class_of,
    class_representative,
    has_rank_function,
    leq,
    leq_necessary,
    leq_provable,
    minor_profile,
    minor_refutation,
    order_unit,
    rank_profile,
    regular_factor,
    rk,
    verify_certificate,
    verify_factor,
    verify_formal_certificate,
    witness_chain,
)
from .states import (
    GroupElement,
    GroupLawReport,
    MinorSweep,
    PullbackRank,
    RkSquareResult,
    StateRange,
    StateSpec,
    check_states_exist,
    cone_member,
    group_add,
    group_diff,
    group_element,
    group_neg,
    group_props_check,
    group_sub,
    pullback_rank,
    rk_for_square,
    state_extension,
    state_range,
    verify_rk_square,
    verify_state_extension,
    verify_state_range,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
