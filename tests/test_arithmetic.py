"""Ring arithmetic on canonical values against independent arithmetic.

Polynomial families are checked against sympy's dense F_p[x] routines
(`sympy.polys.galoistools`, highest degree first), Z/p^n and prime fields
against plain integer residues.  Irreducibility is checked against trial
division (tests/helpers.py).  F_p[x]/x^n and GF(p^k) of order at most
64 add and multiply by table lookup, so their operations are called twice
per pair: the first call fills the table, the second reads it.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_mul, gf_neg, gf_rem

from rankcert import parse_ring
from rankcert.polys import is_irreducible, min_irreducible, pdivmod, pmod_monic
from rankcert.rings import ExtensionField

from helpers import reference_is_irreducible


def strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def to_gf(a):
    """A low-first coefficient tuple as a galoistools polynomial."""
    return [ZZ(c) for c in reversed(a)]


def from_gf(f):
    return strip(int(c) for c in reversed(f))


def digits(a, p):
    """The base-p digits of a field encoding, lowest first."""
    out = []
    while a:
        out.append(a % p)
        a //= p
    return tuple(out)


def poly(p, max_len):
    """Canonical F_p[x] tuples with fewer than max_len + 1 coefficients."""
    return st.lists(st.integers(0, p - 1), max_size=max_len).map(strip)


# ---------------------------------------------------------------------------
# F_p[x] and F_p[x]/x^n


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.data())
def test_poly_ring_arithmetic_matches_galoistools(p, data):
    ring = parse_ring(f"F{p}[x]")
    a, b = data.draw(poly(p, 7)), data.draw(poly(p, 7))
    for _ in range(2):
        assert ring.add(a, b) == from_gf(gf_add(to_gf(a), to_gf(b), p, ZZ))
        assert ring.neg(a) == from_gf(gf_neg(to_gf(a), p, ZZ))
        assert ring.mul(a, b) == from_gf(gf_mul(to_gf(a), to_gf(b), p, ZZ))
        if ring.is_unit(a):
            inverse = ring.unit_inverse(a)
            assert inverse == strip(inverse)
            assert from_gf(gf_mul(to_gf(a), to_gf(inverse), p, ZZ)) == (1,)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 4), st.data())
def test_remainder_by_a_monic_divisor_is_the_pdivmod_remainder(p, degree, data):
    a = data.draw(poly(p, 12))
    m = data.draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree)) + [1]
    assert pmod_monic(a, tuple(m), p) == pdivmod(a, tuple(m), p)[1]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(((2, 1), (2, 3), (2, 5), (3, 2), (3, 4), (5, 3))), st.data())
def test_truncated_ring_arithmetic_matches_galoistools(pn, data):
    p, n = pn
    ring = parse_ring(f"F{p}[x]/x^{n}")
    x_n = to_gf((0,) * n + (1,))
    cut = lambda f: from_gf(gf_rem(f, x_n, p, ZZ))
    a, b = data.draw(poly(p, n)), data.draw(poly(p, n))
    for _ in range(2):
        assert ring.add(a, b) == cut(gf_add(to_gf(a), to_gf(b), p, ZZ))
        assert ring.neg(a) == cut(gf_neg(to_gf(a), p, ZZ))
        assert ring.mul(a, b) == cut(gf_mul(to_gf(a), to_gf(b), p, ZZ))
        if a and a[0]:
            inverse = ring.unit_inverse(a)
            assert inverse == strip(inverse) and len(inverse) <= n
            assert cut(gf_mul(to_gf(a), to_gf(inverse), p, ZZ)) == (1,)


# ---------------------------------------------------------------------------
# GF(p^k) with the field's own modulus


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((4, 8, 9, 25, 81, 125, 256, 343, 2187)), st.data())
def test_extension_field_arithmetic_matches_galoistools(q, data):
    field = parse_ring(f"F{q}").fields[0]
    assert isinstance(field, ExtensionField)
    p, modulus = field.p, to_gf(field.modulus)
    reduce = lambda f: from_gf(gf_rem(f, modulus, p, ZZ))
    a, b = data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))
    ga, gb = to_gf(digits(a, p)), to_gf(digits(b, p))
    for _ in range(2):
        assert digits(field.add(a, b), p) == from_gf(gf_add(ga, gb, p, ZZ))
        assert digits(field.neg(a), p) == from_gf(gf_neg(ga, p, ZZ))
        assert digits(field.sub(a, b), p) == from_gf(gf_add(ga, gf_neg(gb, p, ZZ), p, ZZ))
        assert digits(field.mul(a, b), p) == reduce(gf_mul(ga, gb, p, ZZ))
        if a:
            inverse = to_gf(digits(field.unit_inverse(a), p))
            assert reduce(gf_mul(ga, inverse, p, ZZ)) == (1,)


TABULATED = ("F2[x]/x^2", "F2[x]/x^3", "F2[x]/x^4", "F3[x]/x^2", "F4", "F8", "F9", "F16")


@pytest.mark.parametrize("spec", TABULATED)
def test_tabulated_arithmetic_matches_galoistools_on_every_pair(spec):
    # every pair twice, in one ring: the first call fills the table, the
    # second reads the entry back
    ring = parse_ring(spec)
    if ring.is_product:
        ring = ring.fields[0]
        p, modulus, elements = ring.p, to_gf(ring.modulus), range(ring.size)
        as_gf = lambda a: to_gf(digits(a, p))
    else:
        p, modulus, elements = ring.p, to_gf((0,) * ring.nil_degree + (1,)), ring.elements()
        as_gf = to_gf
    reduce = lambda f: gf_rem(f, modulus, p, ZZ)
    for a in elements:
        for b in elements:
            ga, gb = as_gf(a), as_gf(b)
            total, product = reduce(gf_add(ga, gb, p, ZZ)), reduce(gf_mul(ga, gb, p, ZZ))
            for _ in range(2):
                assert as_gf(ring.add(a, b)) == total, (spec, a, b)
                assert as_gf(ring.mul(a, b)) == product, (spec, a, b)


# ---------------------------------------------------------------------------
# Z/p^n and products of fields, against integer residues


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((4, 8, 9, 27, 25, 7, 2**61 - 1)), st.data())
def test_residue_ring_arithmetic_matches_integers(m, data):
    ring = parse_ring(f"Z/{m}")
    a, b = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    assert ring.add(a, b) == (a + b) % m
    assert ring.neg(a) == -a % m
    assert ring.sub(a, b) == (a - b) % m
    assert ring.mul(a, b) == a * b % m
    if a % ring.p:
        assert a * ring.unit_inverse(a) % m == 1


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("F2*F3*F5", "F4*F9", "F7*F8*F25")), st.data())
def test_product_ring_arithmetic_matches_components(spec, data):
    ring = parse_ring(spec)
    a = tuple(data.draw(st.integers(0, q - 1)) for q in ring.orders)
    b = tuple(data.draw(st.integers(0, q - 1)) for q in ring.orders)
    total, negated, product = ring.add(a, b), ring.neg(a), ring.mul(a, b)
    inverse = ring.unit_inverse(a) if ring.is_unit(a) else None
    for i, f in enumerate(ring.fields):
        p = f.p
        if not isinstance(f, ExtensionField):
            assert total[i] == (a[i] + b[i]) % p
            assert negated[i] == -a[i] % p
            assert product[i] == a[i] * b[i] % p
            if inverse is not None:
                assert a[i] * inverse[i] % p == 1
            continue
        modulus = to_gf(f.modulus)
        ga, gb = to_gf(digits(a[i], p)), to_gf(digits(b[i], p))
        assert digits(total[i], p) == from_gf(gf_add(ga, gb, p, ZZ))
        assert digits(negated[i], p) == from_gf(gf_neg(ga, p, ZZ))
        assert digits(product[i], p) == from_gf(gf_rem(gf_mul(ga, gb, p, ZZ), modulus, p, ZZ))
        if inverse is not None:
            gi = to_gf(digits(inverse[i], p))
            assert from_gf(gf_rem(gf_mul(ga, gi, p, ZZ), modulus, p, ZZ)) == (1,)


# ---------------------------------------------------------------------------
# Rabin's irreducibility test


def monic_polys(p, degree):
    for idx in range(p**degree):
        coeffs, rest = [], idx
        for _ in range(degree):
            coeffs.append(rest % p)
            rest //= p
        yield tuple(coeffs) + (1,)


def test_rabin_irreducibility_matches_trial_division():
    for p, max_degree in ((2, 8), (3, 5)):
        for degree in range(0, max_degree + 1):
            for f in monic_polys(p, degree):
                assert is_irreducible(f, p) == reference_is_irreducible(f, p), (p, f)
    # a non-monic f is irreducible exactly when its monic associate is
    for f in ((2, 2, 2), (1, 0, 2), (2, 0, 0, 2), (0, 2)):
        assert is_irreducible(f, 3) == reference_is_irreducible(f, 3), f


def test_min_irreducible_matches_trial_division():
    for p, ks in ((2, range(1, 11)), (3, range(1, 6)), (5, range(1, 4)), (7, range(1, 3))):
        for k in ks:
            expected = next(f for f in monic_polys(p, k) if reference_is_irreducible(f, p))
            assert min_irreducible(p, k) == expected, (p, k)


def test_large_binary_fields_parse_quickly():
    # trial division took 0.2 s, 2.0 s and 4.7 s for these fields; the
    # moduli are those it found
    exponents = {24: (0, 1, 3, 4, 24), 30: (0, 1, 30), 32: (0, 2, 3, 7, 32)}
    for k, support in exponents.items():
        start = time.monotonic()
        field = parse_ring(f"F{2**k}").fields[0]
        assert time.monotonic() - start < 0.1, k
        assert field.modulus == tuple(int(e in support) for e in range(k + 1))
