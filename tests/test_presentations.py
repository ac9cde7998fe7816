import random
from fractions import Fraction

import pytest

from rankcert import (
    LocalSignature,
    PreconditionError,
    RegularSignature,
    block_diag,
    class_of,
    cone_member,
    dim,
    group_element,
    group_sub,
    identity,
    leq,
    mat_mul,
    matrix,
    module_basis_labels,
    module_class,
    module_coeffs_sub,
    module_cone_member,
    parse_ring,
    phi,
    phi_group,
    presentation,
    presentations_equivalent,
    psi,
    psi_group,
    quotient_presentation,
    rk,
    signature,
    zeros,
)

from helpers import direct_sum, free_presentation, random_invertible, random_matrix

Z8 = parse_ring("Z/8")
PROD = parse_ring("F2*F3")


def rand_presentation(ring, rng, max_gens=3, max_rels=3):
    m = rng.randrange(1, max_gens + 1)
    n = rng.randrange(1, max_rels + 1)
    return presentation(m, random_matrix(ring, rng, n, m))


# ---------------------------------------------------------------------------
# dimensions


def test_dim_example_values():
    P = presentation(1, matrix(Z8, [[2]]))
    assert dim(1, P) == 1
    assert dim(2, P) == Fraction(1, 2)
    assert dim(3, P) == Fraction(1, 3)


def test_dim_free_and_zero_module():
    assert all(dim(k, free_presentation(Z8, 3)) == 3 for k in (1, 2, 3))
    P0 = presentation(1, matrix(Z8, [[1]]))
    assert all(dim(k, P0) == 0 for k in (1, 2, 3))
    P1 = presentation(1, matrix(Z8, [[0]]))
    assert all(dim(k, P1) == 1 for k in (1, 2, 3))


def test_dim_matches_matrix_rank_identity():
    rng = random.Random(4)
    for _ in range(50):
        P = rand_presentation(Z8, rng)
        for k in (1, 2, 3):
            assert rk(Z8, k, class_of(P.relations)) == P.gens - dim(k, P)


def test_dim_direct_sum_additive():
    rng = random.Random(6)
    for _ in range(60):
        P1 = rand_presentation(Z8, rng)
        P2 = rand_presentation(Z8, rng)
        S = direct_sum(P1, P2)
        for k in (1, 2, 3):
            assert dim(k, S) == dim(k, P1) + dim(k, P2)


def test_dim_quotient_inequalities():
    # R^l -> M -> M/extra -> 0 is exact, so
    # dim(M/extra) <= dim(M) <= l + dim(M/extra)
    rng = random.Random(8)
    for _ in range(60):
        P = rand_presentation(Z8, rng)
        extra_rows = rng.randrange(1, 3)
        extra = random_matrix(Z8, rng, extra_rows, P.gens)
        Q = quotient_presentation(P, extra)
        for k in (1, 2, 3):
            assert dim(k, Q) <= dim(k, P) <= extra_rows + dim(k, Q)


def test_dim_requires_local():
    with pytest.raises(PreconditionError):
        dim(1, free_presentation(PROD, 1))


@pytest.mark.parametrize("spec", ["Z/8", "F2[x]/x^3"])
def test_dim_module_rank_axioms_bulk(spec):
    # dim(0) = 0, dim(R) = 1, direct-sum additivity, and both exact-sequence
    # inequalities, on 500 random instances per ring
    ring = parse_ring(spec)
    rng = random.Random(99)
    ks = range(1, ring.nil_degree + 1)
    assert all(dim(k, presentation(1, identity(ring, 1))) == 0 for k in ks)
    assert all(dim(k, free_presentation(ring, 1)) == 1 for k in ks)
    for _ in range(500):
        P1 = rand_presentation(ring, rng)
        P2 = rand_presentation(ring, rng)
        S = direct_sum(P1, P2)
        extra_rows = rng.randrange(1, 3)
        Q = quotient_presentation(P1, random_matrix(ring, rng, extra_rows, P1.gens))
        for k in ks:
            assert dim(k, S) == dim(k, P1) + dim(k, P2)
            assert dim(k, Q) <= dim(k, P1) <= extra_rows + dim(k, Q)
            assert 0 <= dim(k, P1) <= P1.gens


# ---------------------------------------------------------------------------
# signatures


def test_signature_examples():
    assert signature(presentation(2, matrix(Z8, [[2, 0], [0, 1]]))) == LocalSignature(
        torsion=(1,), free_rank=0
    )
    assert signature(presentation(2, zeros(Z8, 1, 2))) == LocalSignature(
        torsion=(), free_rank=2
    )
    assert signature(presentation(1, matrix(Z8, [[4]]))) == LocalSignature(
        torsion=(2,), free_rank=0
    )


def test_signature_regular():
    A = matrix(PROD, [[(1, 1), (0, 0)], [(0, 0), (0, 1)]])  # ranks (1, 2)
    assert signature(presentation(2, A)) == RegularSignature((1, 0))


def test_signature_invariant_under_presentation_moves():
    rng = random.Random(10)
    for _ in range(60):
        P = rand_presentation(Z8, rng)
        # pad with a killed generator
        padded = presentation(
            P.gens + 1, block_diag(P.relations, identity(Z8, 1))
        )
        assert signature(padded) == signature(P)
        # invertible row/column mixing of the relations matrix
        U = random_invertible(Z8, rng, P.relations.rows)
        V = random_invertible(Z8, rng, P.gens)
        mixed = presentation(P.gens, mat_mul(mat_mul(U, P.relations), V))
        assert signature(mixed) == signature(P)


def test_equivalence_examples():
    P1 = presentation(1, matrix(Z8, [[2]]))
    P2 = presentation(2, matrix(Z8, [[2, 0], [0, 1]]))
    P3 = presentation(1, matrix(Z8, [[4]]))
    assert presentations_equivalent(P1, P2)
    assert not presentations_equivalent(P1, P3)
    assert dim(2, P1) == Fraction(1, 2) and dim(2, P3) == 1
    assert presentations_equivalent(P3, P3)


# ---------------------------------------------------------------------------
# the two-sided correspondence


def test_phi_example():
    P = presentation(1, matrix(Z8, [[2]]))
    assert phi(P) == group_element((1, 0, 0), (0, 1, 0))


def test_psi_example():
    assert psi(identity(Z8, 1)) == (1, 0, 0)
    assert module_basis_labels(Z8) == ("[R]", "[R/(c^1)]", "[R/(c^2)]")


def test_phi_psi_inverse_local():
    rng = random.Random(12)
    for _ in range(80):
        A = random_matrix(Z8, rng, rng.randrange(1, 4), rng.randrange(1, 4))
        # matrix -> module side -> back
        assert phi_group(Z8, psi(A)) == group_element(class_of(A), (0, 0, 0))
        P = rand_presentation(Z8, rng)
        # module -> matrix side -> back
        assert psi_group(Z8, phi(P)) == module_class(P)


def test_phi_psi_inverse_regular():
    rng = random.Random(13)
    for _ in range(60):
        A = random_matrix(PROD, rng, rng.randrange(1, 3), rng.randrange(1, 3))
        assert phi_group(PROD, psi(A)) == group_element(class_of(A), (0, 0))
        P = rand_presentation(PROD, rng)
        assert psi_group(PROD, phi(P)) == module_class(P)


def test_phi_psi_inverse_exhaustive_small():
    # every presentation over Z/4 with <= 2 generators and <= 2 relation rows
    ring = parse_ring("Z/4")
    elems = ring.elements()
    from itertools import product as iproduct

    for m in (1, 2):
        for n in (1, 2):
            for entries in iproduct(elems, repeat=n * m):
                rows = [list(entries[i * m : (i + 1) * m]) for i in range(n)]
                P = presentation(m, matrix(ring, rows))
                assert psi_group(ring, phi(P)) == module_class(P)
                A = P.relations
                assert phi_group(ring, psi(A)) == group_element(
                    class_of(A), (0,) * ring.nil_degree
                )


def test_phi_order_preserving_on_quotients():
    rng = random.Random(14)
    for _ in range(50):
        P = rand_presentation(Z8, rng)
        Q = quotient_presentation(P, random_matrix(Z8, rng, 1, P.gens))
        # quotient modules sit below: phi(Q) <= phi(P) in the cone
        assert cone_member(Z8, group_sub(phi(P), phi(Q)))


def test_psi_order_preserving_on_matrix_pairs():
    rng = random.Random(15)
    checked = 0
    while checked < 50:
        A = random_matrix(Z8, rng, 2, 2)
        B = random_matrix(Z8, rng, 2, 2)
        if not leq(Z8, class_of(A), class_of(B)):
            continue
        assert module_cone_member(Z8, module_coeffs_sub(psi(B), psi(A)))
        checked += 1


# ---------------------------------------------------------------------------
# the regular module order


def componentwise_leq(s, t):
    return all(x <= y for x, y in zip(s, t))


def test_module_leq_examples():
    # the quotient-module order compares multiplicities componentwise
    P = presentation(2, matrix(PROD, [[(1, 1), (0, 0)]]))  # multiplicities (1, 1)
    Q = quotient_presentation(P, matrix(PROD, [[(0, 0), (1, 1)]]))
    assert componentwise_leq(signature(Q).multiplicities, signature(P).multiplicities)
    A = signature(presentation(2, matrix(PROD, [[(1, 0), (0, 0)]]))).multiplicities  # (1, 2)
    B = signature(presentation(2, matrix(PROD, [[(0, 1), (0, 0)]]))).multiplicities  # (2, 1)
    assert not componentwise_leq(A, B) and not componentwise_leq(B, A)


def test_module_leq_requires_regular():
    # a local module has torsion and a free rank, no multiplicities to compare
    assert signature(free_presentation(Z8, 1)) == LocalSignature(torsion=(), free_rank=1)


def test_module_order_agrees_with_matrix_order():
    rng = random.Random(16)
    for _ in range(200):
        A = random_matrix(PROD, rng, rng.randrange(1, 3), rng.randrange(1, 3))
        B = random_matrix(PROD, rng, rng.randrange(1, 3), rng.randrange(1, 3))
        # the row-space module of A has class_of(A) as its multiplicities
        image_order = componentwise_leq(class_of(A), class_of(B))
        assert image_order == leq(PROD, class_of(A), class_of(B))


def test_image_signature_additive_under_block_sums():
    rng = random.Random(18)
    for _ in range(40):
        A = random_matrix(PROD, rng, 2, 2)
        B = random_matrix(PROD, rng, 2, 2)
        # the row-space module of A is RegularSignature(class_of(A))
        combined = class_of(block_diag(A, B))
        split = tuple(x + y for x, y in zip(class_of(A), class_of(B)))
        assert combined == split


def test_presentation_validation():
    with pytest.raises(PreconditionError):
        presentation(0, zeros(Z8, 1, 1))
    with pytest.raises(PreconditionError):
        presentation(2, zeros(Z8, 1, 3))
