"""Exact order and rank certificates for desk-scale rings.

Computes matrix classes under subequivalence, rank functions and their
Sylvester axioms, Grothendieck-group correspondences, and certified
state ranges over Z/p^n, F_p[x]/x^n, Z, F_p[x], and finite products of
finite fields.  Every order decision is backed by a certificate that
can be re-checked independently of how it was found.

The public names load on first use (PEP 562), so a program that needs
only `rings` does not import `states` or `presentations`.
"""

from importlib import import_module

_EXPORTS = {
    "errors": "BoundExceededError ParseError PreconditionError RankcertError",
    "normal_form": "DiagonalForm diagonalize is_invertible minors_in_ideal verify_factorization",
    "presentations": """LocalSignature Presentation RegularSignature dim module_basis_labels
        module_class module_coeffs_sub module_cone_member phi phi_group presentation
        presentations_equivalent psi psi_group quotient_presentation signature""",
    "rings": """Matrix block_diag block_upper identity mat_mul matrix parse_matrix
        parse_ring stack_vertical zeros""",
    "semigroup": """UNKNOWN Cancel Drop ExponentIncrease FactorResult GroupElement
        NegativeComponent NegativeMinor NegativeRank Positive PowerSwap class_of
        class_representative cone_member group_add group_diff group_element group_sub
        has_rank_function leq leq_provable minor_refutation order_unit rank_profile
        regular_factor rk verify_certificate verify_factor verify_formal_certificate
        witness_chain""",
    "states": """MinorSweep PullbackRank RkSquareResult StateRange StateSpec pullback_rank
        rk_for_square state_extension state_range verify_rk_square verify_state_extension
        verify_state_range""",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = ("errors", "fields", "normal_form", "polys", "presentations", "rings",
               "semigroup", "states")

__all__ = sorted([*_MODULE_OF, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        value = import_module(f"{__name__}.{name}")
    elif name in _MODULE_OF:
        value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
