"""Finitely presented modules given by relation matrices.

A module is encoded as R^m / R^n * A for a relations matrix A with m
columns; a free module R^m uses a single zero relations row, keeping
the matrix nonempty.  Over the local families the diagonal form of A
determines the isomorphism type: a diagonal entry c^i with i >= 1
contributes a torsion summand R/(c^i), a unit entry kills a generator,
and uncovered generators stay free.  Over a product of fields the type
is the tuple of component multiplicities.

The module-side Grothendieck group is written over the basis
[R], [R/(c^1)], ..., [R/(c^(n-1))] (local) or the simple components
(regular); phi/psi translate between it and the matrix-side group and
are mutually inverse.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError, check_int
from .normal_form import eliminated
from .records import record
from .rings import Matrix, stack_vertical
from .semigroup import (
    GroupElement,
    class_of,
    cone_member,
    group_diff,
    group_element,
    monoid_width,
    order_unit,
    rk,
)


@record
class Presentation:
    gens: int
    relations: Matrix


def presentation(gens: int, relations: Matrix) -> Presentation:
    if check_int(gens, "gens") < 1:
        raise PreconditionError("a presentation needs at least one generator")
    if relations.cols != gens:
        raise PreconditionError(
            f"relations matrix has {relations.cols} columns for {gens} generators"
        )
    return Presentation(gens, relations)


def quotient_presentation(P: Presentation, extra: Matrix) -> Presentation:
    """Impose additional relation rows on the same generators."""
    return presentation(P.gens, stack_vertical(P.relations, extra))


@record
class LocalSignature:
    torsion: tuple  # exponents >= 1, sorted
    free_rank: int


@record
class RegularSignature:
    multiplicities: tuple


def signature(P: Presentation):
    ring = P.relations.ring
    if ring.is_local:
        exps = eliminated(P.relations)[0]
        return LocalSignature(
            torsion=tuple(sorted(e for e in exps if e >= 1)),
            free_rank=P.gens - len(exps),
        )
    if ring.is_product:
        ranks = class_of(P.relations)
        return RegularSignature(tuple(P.gens - r for r in ranks))
    raise PreconditionError(f"{ring.spec} is not a supported module family")


def dim(k: int, P: Presentation) -> Fraction:
    """dim_k(R^m/R^n A) = m - rk_k(<A>), exact in [0, m]."""
    ring = P.relations.ring
    if not ring.is_local:
        raise PreconditionError("dim_k is defined for the local families")
    return P.gens - rk(ring, k, class_of(P.relations))


def presentations_equivalent(P1: Presentation, P2: Presentation) -> bool:
    if P1.relations.ring != P2.relations.ring:
        raise PreconditionError("presentations over different rings")
    return signature(P1) == signature(P2)


# ---------------------------------------------------------------------------
# module-side Grothendieck group, written as integer coefficient vectors


def module_basis_labels(ring):
    if ring.is_local:
        return ("[R]",) + tuple(f"[R/(c^{i})]" for i in range(1, ring.nil_degree))
    if ring.is_product:
        return tuple(f"[S{i}]" for i in range(ring.width))
    raise PreconditionError(f"{ring.spec} is not a supported module family")


def module_class(P: Presentation) -> tuple:
    """[R^m/R^n A] as nonnegative coordinates over the module basis."""
    sig = signature(P)
    ring = P.relations.ring
    if isinstance(sig, LocalSignature):
        coeffs = [0] * ring.nil_degree
        coeffs[0] = sig.free_rank
        for e in sig.torsion:
            coeffs[e] += 1
        return tuple(coeffs)
    return sig.multiplicities


def phi(P: Presentation) -> GroupElement:
    """Matrix-side image of [R^m/R^n A]: m[<1>] - [<A>]."""
    ring = P.relations.ring
    unit = order_unit(ring)
    return group_element(
        tuple(P.gens * u for u in unit), class_of(P.relations)
    )


def psi(A: Matrix) -> tuple:
    """Module-side image of [<A>]: m[R] - [R^m/R^n A], via the signature."""
    P = presentation(A.cols, A)
    mc = module_class(P)
    unit = order_unit(A.ring)
    return tuple(A.cols * u - c for u, c in zip(unit, mc))


def phi_group(ring, coeffs) -> GroupElement:
    """Linear extension of phi to the whole module-side group."""
    width = monoid_width(ring)
    coeffs = tuple(check_int(c, "a module coefficient") for c in coeffs)
    if len(coeffs) != width:
        raise PreconditionError("module coefficients have the wrong length")
    if ring.is_local:
        diff = [sum(coeffs)] + [-c for c in coeffs[1:]]
    else:
        diff = list(coeffs)
    return group_element(diff, (0,) * width)


def psi_group(ring, g: GroupElement) -> tuple:
    """Linear extension of psi to the whole matrix-side group."""
    d = group_diff(g)
    if len(d) != monoid_width(ring):
        raise PreconditionError("group element has the wrong width")
    if ring.is_local:
        return (sum(d),) + tuple(-x for x in d[1:])
    return tuple(d)


def module_cone_member(ring, coeffs) -> bool:
    """Positivity on the module side, transported through phi."""
    return cone_member(ring, phi_group(ring, coeffs))


def module_coeffs_sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))
