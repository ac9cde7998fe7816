import itertools
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankcert import (
    Matrix,
    ParseError,
    PreconditionError,
    block_diag,
    identity,
    is_invertible,
    mat_mul,
    matrix,
    minor,
    minors_in_ideal,
    parse_matrix,
    parse_ring,
    pullback_rank,
    zeros,
)
from rankcert.acceptance import SHIPPED_RINGS
from rankcert.fields import PRIME_CAP, factor_prime_power, is_prime
from rankcert.polys import DEGREE_CAP, padd, parse_poly, pmul

from helpers import random_matrix, reference_det

SMALL_FINITE = ["Z/4", "Z/8", "Z/9", "Z/27", "F2[x]/x^3", "F3[x]/x^2", "F2[x]/x^4", "F2*F3"]
# GF(p^k) is a local ring of nil degree 1: the F4, F8 and F9 components, and
# a residue field modulo x^2+x+2, which is not the least irreducible of degree 2
RESIDUE_F9 = pullback_rank(parse_ring("F3[x]"), parse_ring("F3[x]").parse("x^2+x+2")).field
EXTENSION_FIELDS = [*(parse_ring(spec).fields[0] for spec in ("F4", "F8", "F9")), RESIDUE_F9]


def local_rings(specs):
    """(ring, elements) for each local ring among specs, then for each of EXTENSION_FIELDS."""
    rings = [parse_ring(spec) for spec in specs]
    return [(r, r.elements()) for r in rings if r.is_local] + [
        (field, range(field.size)) for field in EXTENSION_FIELDS
    ]


def test_parse_ring_grammar():
    for spec in ["Z", "Z/8", "Z/27", "F2[x]/x^3", "F3[x]", "F2*F3*F5", "F4*F9"]:
        assert parse_ring(spec).spec == spec


@pytest.mark.parametrize("bad", ["Z/6", "Z/1", "F4[x]", "F6*F2", "Q", "Z/0", "F2[x]/x^0"])
def test_parse_ring_rejects(bad):
    with pytest.raises(ParseError):
        parse_ring(bad)


def test_normalize_six_in_z8():
    ring = parse_ring("Z/8")
    v = ring.normalize(6)
    val = ring.valuation(v)
    unit = ring.shift(v, val)
    # oracle: unit * c^val reproduces the residue
    assert (unit * 2**val) % 8 == 6
    assert (unit, val) == (3, 1)


def test_normalize_zero_everywhere():
    for spec in SMALL_FINITE + ["Z", "F3[x]"]:
        ring = parse_ring(spec)
        assert ring.is_zero(ring.normalize(0))


def test_truncated_parse_drops_terms_beyond_the_ring():
    # the dense coefficient list stops at the nil degree, whatever the exponent
    ring = parse_ring("F2[x]/x^3")
    start = time.monotonic()
    assert ring.parse("x^3000000+x^2+1") == (1, 0, 1)
    assert time.monotonic() - start < 0.1


def test_polynomial_literals_are_parsed_up_to_the_degree_cap():
    ring = parse_ring("F2[x]")
    assert len(ring.parse(f"x^{DEGREE_CAP}+1")) == DEGREE_CAP + 1
    with pytest.raises(ParseError, match="degree above"):
        ring.parse(f"x^{DEGREE_CAP + 1}+1")
    # a truncated ring drops the terms it cannot hold before the cap is read
    assert parse_ring("F2[x]/x^3").parse(f"x^{DEGREE_CAP + 1}+x") == (0, 1)


def test_normalize_truncated_poly():
    ring = parse_ring("F2[x]/x^3")
    v = ring.parse("x^2+x")
    # oracle: (x+1) * x = x^2 + x and x+1 is invertible mod x^3
    assert (ring.shift(v, ring.valuation(v)), ring.valuation(v)) == ((1, 1), 1)
    assert ring.mul(ring.normalize((1, 1)), ring.generator) == v
    assert ring.is_unit(ring.normalize((1, 1)))


def test_normalize_idempotent_exhaustively():
    for spec in SMALL_FINITE:
        ring = parse_ring(spec)
        for x in ring.elements():
            assert ring.normalize(x) == x


def test_local_unit_valuation_unique():
    # every nonzero element is unit * c^val for exactly one normalized pair
    for ring, elements in local_rings(["Z/8", "Z/9", "F2[x]/x^3"]):
        seen = {}
        for x in elements:
            if ring.is_zero(x):
                continue
            val = ring.valuation(x)
            assert 0 <= val < ring.nil_degree
            key = (ring.shift(x, val), val)
            assert key not in seen
            seen[key] = x


def test_shift_undoes_generator_power():
    # the local ring contract: x = shift(x, v) * c^v, and shift(x, val(x)) is a unit
    for ring, elements in local_rings(SMALL_FINITE):
        for x in elements:
            if ring.is_zero(x):
                continue
            val = ring.valuation(x)
            for v in range(val + 1):
                assert ring.mul(ring.shift(x, v), ring.generator_power(v)) == x, (ring, x, v)
            assert ring.is_unit(ring.shift(x, val)), (ring, x)


def test_parse_ring_large_prime_is_fast():
    # primality is a strong probable-prime test, so a ring spec in a payload
    # cannot cost O(sqrt(q)): 2^61 - 1 took minutes by trial division
    for spec, p, n in [
        ("Z/1000000007", 1000000007, 1),
        ("Z/100000380000361", 10000019, 2),
        ("Z/2305843009213693951", 2**61 - 1, 1),
        (f"Z/{(2**61 - 1) ** 6}", 2**61 - 1, 6),
        (f"Z/{1000003 ** 30}", 1000003, 30),
    ]:
        start = time.monotonic()
        ring = parse_ring(spec)
        assert time.monotonic() - start < 0.1, spec
        assert (ring.p, ring.nil_degree) == (p, n)


# the least strong pseudoprimes to the first 1, 2, ..., 12 prime bases
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
)


def test_is_prime_matches_sympy_below_the_cap():
    import sympy

    rng = random.Random(7)
    numbers = list(STRONG_PSEUDOPRIMES) + list(range(-2, 3000))
    numbers += [rng.randrange(10 ** rng.randint(4, 24)) for _ in range(3000)]
    numbers += [sympy.prevprime(PRIME_CAP), PRIME_CAP - 1]
    for n in numbers:
        assert is_prime(n) == sympy.isprime(n), n


def test_numbers_past_the_caps_are_parse_errors():
    # the cap itself is the least strong pseudoprime to the 13 bases
    with pytest.raises(ParseError, match=str(PRIME_CAP)):
        is_prime(PRIME_CAP)
    for spec in [f"Z/{PRIME_CAP}", f"F{PRIME_CAP}[x]", f"F{PRIME_CAP}*F2"]:
        with pytest.raises(ParseError, match=str(PRIME_CAP)):
            parse_ring(spec)
    # beyond int()'s digit limit: once a ValueError traceback
    nines = "9" * 5000
    for spec in [f"Z/{nines}", f"F{nines}[x]", f"F2[x]/x^{nines}", f"F{nines}*F2", f"F2*F{nines}"]:
        with pytest.raises(ParseError, match="5000-digit"):
            parse_ring(spec)


def test_parse_ring_cost_does_not_grow_with_the_nil_degree():
    # nil degrees are capped like literal degrees: F3[x]/x^10000000 once
    # parsed, and inverting 1 + x over F3[x]/x^1000000 took 1.2 s
    start = time.monotonic()
    ring = parse_ring(f"F3[x]/x^{DEGREE_CAP}")
    assert ring.unit_inverse((2,)) == (2,)
    for n in (DEGREE_CAP + 1, 10**7):
        with pytest.raises(ParseError, match=f"nil degree above {DEGREE_CAP}"):
            parse_ring(f"F3[x]/x^{n}")
    assert time.monotonic() - start < 0.1


def test_small_rings_fill_their_tables_lazily():
    # parsing makes no table: add and mul, with their tables, are made on
    # first use, and start empty
    product = parse_ring("F4*F9")
    rings = [parse_ring("F2[x]/x^3"), product, *product.fields]
    for ring in rings:
        assert not {"add", "mul", "neg", "valuation"} & set(vars(ring))
    for ring in rings:
        assert ring.add.table == {} and ring.mul.table == {}
        assert ring.neg.__self__ == {}
        if ring.is_local:
            assert ring.valuation.__self__ == {}
    ring = rings[0]
    assert ring.mul((1, 1), (1, 1)) == (1, 0, 1)
    assert ring.mul.table == {((1, 1), (1, 1)): (1, 0, 1)} and ring.add.table == {}
    assert product.mul((2, 3), (3, 4)) == (1, 5)
    assert product.mul.table == {((2, 3), (3, 4)): (1, 5)} and product.add.table == {}


def test_rings_above_the_table_cap_never_tabulate():
    rings = [parse_ring(spec) for spec in ("F2[x]/x^7", "F2[x]/x^65536", "F5[x]/x^3")]
    rings += [parse_ring("F3[x]/x^4")]
    rings += [parse_ring(spec).fields[0] for spec in ("F128", "F81")]
    # products of order 77, 128 and 210, whatever their factors do
    rings += [parse_ring(spec) for spec in ("F7*F11", "F64*F2", "F2*F3*F5*F7")]
    for ring in rings:
        one = ring.one
        assert ring.mul(ring.add(one, one), one) == ring.add(one, one)
        assert not hasattr(ring.add, "table") and not hasattr(ring.mul, "table"), ring
        # neg and the valuation are the family's own methods
        assert ring.neg == ring._neg, ring
        if ring.is_local:
            assert ring.valuation == ring._valuation, ring


# every ring of order at most 64 whose family tabulates
TABULATING = [f"F2[x]/x^{n}" for n in range(2, 7)] + ["F3[x]/x^2", "F3[x]/x^3"]
TABULATING += ["F4", "F8", "F9", "F16", "F2*F3", "F2*F3*F5", "F4*F9"]


@pytest.mark.parametrize("spec", TABULATING)
def test_tabulated_neg_and_valuation_are_the_family_ops(spec):
    ring = parse_ring(spec)
    if spec in ("F4", "F8", "F9", "F16"):
        ring = ring.fields[0]
    assert ring.tabulates
    elements = ring.elements()
    ops = [(ring.neg, ring._neg)]
    if ring.is_local:
        ops.append((ring.valuation, ring._valuation))
    for _ in range(2):  # the first pass fills each table, the second reads it
        for looked_up, op in ops:
            assert [looked_up(a) for a in elements] == [op(a) for a in elements]
    for looked_up, _ in ops:
        assert len(looked_up.__self__) == len(elements) <= 64


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_extension_field_elements_are_its_canonical_encodings(q):
    # elements() once raised PreconditionError ("... is infinite")
    field = parse_ring(f"F{q}").fields[0]
    elements = field.elements()
    assert field.is_finite and len(elements) == len(set(elements)) == q
    # a canonical element is k base-p digits; sums and products stay among them
    assert all(len(field.decode(a)) <= field.k for a in elements)
    assert {op(a, b) for op in (field.add, field.mul) for a in elements for b in elements} == set(
        elements
    )


@pytest.mark.parametrize("spec", ["F2[x]/x^6", "F64"])
def test_an_order_64_table_holds_every_pair_once(spec):
    ring = parse_ring(spec)
    if ring.is_product:
        ring = ring.fields[0]
        elements, add, mul = range(64), ring._add, ring._mul
    else:
        elements = ring.elements()
        add, mul = (lambda a, b: padd(a, b, 2)), (lambda a, b: pmul(a, b, 2, below=6))
    for _ in range(2):
        for a in elements:
            for b in elements:
                ring.add(a, b), ring.mul(a, b)
    for op, table in ((add, ring.add.table), (mul, ring.mul.table)):
        assert len(table) == 64**2
        assert all(out == op(a, b) for (a, b), out in table.items())


def _untabulated(field, name):
    # GF(p^k) keeps its untabulated ops as _add/_mul; Z/p never tabulates
    return getattr(field, "_" + name, getattr(field, name))


@pytest.mark.parametrize("spec", ["F2*F3", "F2*F3*F5", "F4*F9"])
def test_a_product_table_holds_every_pair_once(spec):
    ring = parse_ring(spec)
    elements = ring.elements()
    ops = {name: [_untabulated(f, name) for f in ring.fields] for name in ("add", "mul")}
    for _ in range(2):
        for a in elements:
            for b in elements:
                for name, components in ops.items():
                    expected = tuple(op(x, y) for op, x, y in zip(components, a, b))
                    assert getattr(ring, name)(a, b) == expected
    for table in (ring.add.table, ring.mul.table):
        assert len(table) == len(elements) ** 2 <= 64**2


def _trial_division_prime_power(q):
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k, rest = 0, q
    while rest % p == 0:
        rest //= p
        k += 1
    return (p, k) if rest == 1 else None


def test_factor_prime_power_matches_trial_division():
    def outcome(q):
        try:
            return factor_prime_power(q)
        except ParseError:
            return None

    for q in range(-2, 5000):
        assert outcome(q) == _trial_division_prime_power(q), q
    for p in (1031, 1033, 10007, 65537):
        for k in range(1, 6):
            assert outcome(p**k) == (p, k)
            assert outcome(p**k * 1031 * 1033) is None


def test_ring_laws_exhaustive_z8():
    ring = parse_ring("Z/8")
    elems = ring.elements()
    for a in elems:
        for b in elems:
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
            assert ring.add(a, ring.neg(a)) == ring.zero
            for c in elems:
                assert ring.mul(a, ring.add(b, c)) == ring.add(
                    ring.mul(a, b), ring.mul(a, c)
                )


def test_mul_examples():
    z8 = parse_ring("Z/8")
    assert z8.mul(z8.normalize(2), z8.normalize(4)) == z8.zero
    inv = z8.unit_inverse(z8.normalize(3))
    assert z8.mul(inv, z8.normalize(3)) == z8.one
    assert z8.format(inv) == "3"
    f3x = parse_ring("F3[x]")
    x = f3x.parse("x")
    assert f3x.add(x, f3x.neg(x)) == f3x.zero


def test_unit_inverse_requires_unit():
    z8 = parse_ring("Z/8")
    with pytest.raises(PreconditionError):
        z8.unit_inverse(z8.normalize(2))
    with pytest.raises(PreconditionError):
        parse_ring("Z").unit_inverse(2)


def test_local_mul_valuation_law():
    # val(xy) = val(x) + val(y), truncated to "zero" past nil_degree
    specs = ["Z/4", "Z/8", "Z/9", "Z/27", "F2[x]/x^3", "F3[x]/x^2", "F2[x]/x^4"]
    for ring, elements in local_rings(specs):
        n = ring.nil_degree
        for x in elements:
            for y in elements:
                z = ring.mul(x, y)
                expected = min(ring.valuation(x) + ring.valuation(y), n)
                assert ring.valuation(z) == (n if expected >= n else expected)


def test_unit_inverse_exhaustive():
    for spec in SMALL_FINITE:
        ring = parse_ring(spec)
        for x in ring.elements():
            if ring.is_unit(x):
                assert ring.mul(x, ring.unit_inverse(x)) == ring.one


def test_ideal_member_examples():
    z = parse_ring("Z")
    assert z.ideal_member(4, 2)
    f2x = parse_ring("F2[x]")
    assert not f2x.ideal_member(f2x.parse("x"), f2x.parse("x^2"))
    z8 = parse_ring("Z/8")
    # oracle: {4*r mod 8} = {0, 4} does not contain 6
    assert {(4 * r) % 8 for r in range(8)} == {0, 4}
    assert not z8.ideal_member(z8.normalize(6), z8.normalize(4))


def test_ideal_member_agrees_with_brute_force():
    for spec in SMALL_FINITE + ["F4"]:
        ring = parse_ring(spec)
        elems = ring.elements()
        assert len(elems) <= 81
        for gen in elems:
            reachable = {ring.mul(r, gen) for r in elems}
            for x in elems:
                assert ring.ideal_member(x, gen) == (x in reachable), (spec, x, gen)


def test_minor_examples():
    z = parse_ring("Z")
    assert minor(identity(z, 2), [0, 1], [0, 1]) == 1
    assert minor(matrix(z, [[2, 0], [0, 4]]), [0, 1], [0, 1]) == 8
    z8 = parse_ring("Z/8")
    assert z8.is_zero(minor(matrix(z8, [[2, 1], [0, 4]]), [0, 1], [0, 1]))


def test_minor_index_errors():
    z = parse_ring("Z")
    A = matrix(z, [[1, 2], [3, 4]])
    with pytest.raises(PreconditionError):
        minor(A, [0, 2], [0, 1])
    with pytest.raises(PreconditionError):
        minor(A, [0], [0, 1])
    with pytest.raises(PreconditionError):
        minor(A, [0, 0], [0, 1])


# every family, with products of prime and extension fields
DET_RINGS = [
    "Z", "F2[x]", "F3[x]", "Z/4", "Z/8", "Z/9", "Z/27", "F2[x]/x^3", "F3[x]/x^2",
    "F2*F3", "F4", "F8", "F4*F9",
]


def det(A):
    """The determinant of a square A, as the minor of its full grid."""
    return minor(A, range(A.rows), range(A.cols))


def test_det_matches_permutation_expansion():
    rng = random.Random(11)
    for spec in DET_RINGS:
        ring = parse_ring(spec)
        for size in range(1, 6):
            for _ in range(30):
                A = random_matrix(ring, rng, size, size)
                assert det(A) == reference_det(ring, A), (spec, A)
                k = rng.randrange(1, size + 1)
                rows = rng.sample(range(size), k)
                cols = rng.sample(range(size), k)
                sub = Matrix(ring, [[A.entries[i][j] for j in sorted(cols)] for i in sorted(rows)])
                assert minor(A, rows, cols) == reference_det(ring, sub), (spec, A, rows, cols)


@st.composite
def product_squares(draw):
    """(A, rows, cols): a square A over a product of fields, and a minor's index sets."""
    # a zero-biased draw, so that singular components are common
    ring = parse_ring(draw(st.sampled_from(("F2*F3*F5", "F4*F9"))))
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(ring.zero), st.tuples(*(st.integers(0, q - 1) for q in ring.orders)))
    A = Matrix(ring, [[draw(entry) for _ in range(n)] for _ in range(n)])
    k = draw(st.integers(1, n))
    return A, draw(st.permutations(range(n)))[:k], draw(st.permutations(range(n)))[:k]


def square_6x6(spec, entry):
    ring = parse_ring(spec)
    return Matrix(ring, [[entry(i, j) for j in range(6)] for i in range(6)]), [1, 3, 4], [5, 0, 2]


@settings(max_examples=30, deadline=None)
@given(product_squares())
@example(square_6x6("F2*F3*F5", lambda i, j: ((i * j + 1) % 2, (i + 2 * j) % 3, (i * i + j) % 5)))
@example(square_6x6("F4*F9", lambda i, j: ((i + j * j) % 4, (3 * i * j + i + 1) % 9)))
def test_det_minor_and_invertibility_over_products_match_the_expansion(case):
    A, rows, cols = case
    ring = A.ring
    expected = reference_det(ring, A)
    assert det(A) == expected
    assert is_invertible(A) == ring.is_unit(expected)
    sub = Matrix(ring, [[A.entries[i][j] for j in sorted(cols)] for i in sorted(rows)])
    assert minor(A, rows, cols) == reference_det(ring, sub)


def test_det_is_fast_over_z_and_polynomials():
    import sympy

    # 2^16 column subsets: an expansion over them would take over a second
    rng = random.Random(40)
    B = random_matrix(parse_ring("F3[x]"), rng, 16, 16)
    start = time.perf_counter()
    det(B)
    assert time.perf_counter() - start < 0.5
    rows = [[rng.randrange(-6, 7) for _ in range(40)] for _ in range(40)]
    A = matrix(parse_ring("Z"), rows)
    start = time.perf_counter()
    value = det(A)
    assert time.perf_counter() - start < 0.1
    assert value == sympy.Matrix(rows).det()


def test_minor_multilinearity_and_alternation():
    rng = random.Random(23)
    z = parse_ring("Z")
    for _ in range(30):
        rows = [[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)]
        scaled = [list(r) for r in rows]
        scaled[0] = [5 * x for x in rows[0]]
        assert det(matrix(z, scaled)) == 5 * det(matrix(z, rows))
        swapped = [rows[1], rows[0], rows[2]]
        assert det(matrix(z, swapped)) == -det(matrix(z, rows))
        repeated = [rows[0], rows[0], rows[2]]
        assert det(matrix(z, repeated)) == 0


def test_minors_in_ideal_examples():
    z = parse_ring("Z")
    assert minors_in_ideal(matrix(z, [[2, 0], [0, 2]]), 2, 4)
    assert not minors_in_ideal(identity(z, 3), 1, 2)
    assert minors_in_ideal(matrix(z, [[7, 5], [3, 1]]), 1, 1)
    with pytest.raises(PreconditionError):
        minors_in_ideal(matrix(z, [[1, 2]]), 2, 1)


def test_block_and_identity_examples():
    z8 = parse_ring("Z/8")
    B = block_diag(matrix(z8, [[1]]), matrix(z8, [[2]]))
    assert B.to_strings() == [["1", "0"], ["0", "2"]]
    assert is_invertible(matrix(z8, [[3]]))
    assert not is_invertible(matrix(z8, [[2]]))


def test_matrix_shape_validation():
    z = parse_ring("Z")
    with pytest.raises(PreconditionError):
        Matrix(z, [])
    with pytest.raises(PreconditionError):
        Matrix(z, [[]])
    with pytest.raises(PreconditionError):
        Matrix(z, [[1, 2], [3]])
    with pytest.raises(PreconditionError):
        mat_mul(matrix(z, [[1, 2]]), matrix(z, [[1, 2]]))
    assert zeros(z, 2, 3).shape == (2, 3)


def test_public_constructors_canonicalize_entries():
    z8, f2x3, f3x = parse_ring("Z/8"), parse_ring("F2[x]/x^3"), parse_ring("F3[x]")
    for make in (Matrix, matrix):
        assert make(z8, [[9, -1]]).entries == ((1, 7),)
        assert make(f2x3, [[[1, 0, 0, 1], [3, 2]]]).entries == (((1,), (1,)),)
        assert make(f3x, [[[4, 0], 3]]).entries == (((1,), ()),)
    assert parse_matrix(z8, [["9", "-1"]]).entries == ((1, 7),)
    assert parse_matrix(f2x3, [["x^3+1", "3+2x"]]).entries == (((1,), (1,)),)
    assert parse_matrix(f3x, [["4+0x", "3"]]).entries == (((1,), ()),)
    # the library's own matrices equal the canonicalized public ones
    A = parse_matrix(z8, [["9", "2"], ["3", "12"]])
    assert A == matrix(z8, [[1, 2], [3, 4]])
    assert mat_mul(A, identity(z8, 2)) == Matrix(z8, [[9, 10], [11, 12]])


# parse_matrix once sent a non-str entry to ring.parse as it was, which
# raised AttributeError over F_p[x] and its quotients and over products, and
# truncated 1.5 to 1 over Z; an entry now parses as its str(), as the CLI's
# JSON entries always did
@pytest.mark.parametrize("spec", ["Z", "F2[x]", "Z/8", "F2[x]/x^3", "F4", "F2*F3"])
@pytest.mark.parametrize("entry", [1, (1, 1), 1.5, True, None, [1]])
def test_parse_matrix_reads_an_entry_as_its_text(spec, entry):
    ring = parse_ring(spec)

    def outcome(rows):
        try:
            return parse_matrix(ring, rows)
        except ParseError as exc:
            return str(exc)

    assert outcome([[entry, "0"]]) == outcome([[str(entry), "0"]])
    if type(entry) is int and not ring.is_product:  # "1" is no product literal
        assert isinstance(outcome([[entry]]), Matrix)


def test_public_constructors_reject_empty_and_ragged_input():
    z8 = parse_ring("Z/8")
    for rows in ([], [[]], [[1, 2], [3]], [[1], []]):
        with pytest.raises(PreconditionError):
            Matrix(z8, rows)
        with pytest.raises(PreconditionError):
            matrix(z8, rows)
        with pytest.raises(PreconditionError):
            parse_matrix(z8, [[str(x) for x in row] for row in rows])
    with pytest.raises(PreconditionError):
        zeros(z8, 0, 2)


def test_product_ring_entry_round_trip():
    ring = parse_ring("F2*F3")
    v = ring.parse("(1,2)")
    assert ring.format(v) == "(1,2)"
    with pytest.raises(ParseError):
        ring.parse("(1,3)")
    with pytest.raises(ParseError):
        ring.parse("(1,2,0)")
    A = parse_matrix(ring, [["(1,1)", "(0,2)"], ["(1,0)", "(1,1)"]])
    assert A.rows == 2 and A.cols == 2


# per ring, literals with repeats and equal-valued spellings: "9" and "1"
# over Z/8, "x+1" and "1+x", "2x" and "0" over F2, "(1,1)" and " (1, 1) "
_INTEGER_POOL = ["0", "1", "9", "-7", "2", "10", " 3"]
_POLY_POOL = ["0", "1", "x", "x+1", "1+x", "x^2", "x^3+x", "2x", "3", "-x"]


def _literal_pool(ring):
    if ring.is_product:
        spaced_one = " " + ring.format(ring.one).replace(",", ", ") + " "
        return [ring.format(ring.normalize(n)) for n in range(4)] + [spaced_one]
    if ring.spec.startswith("Z"):
        return _INTEGER_POOL
    return _POLY_POOL


PARSE_RINGS = [*SHIPPED_RINGS, "F4*F9", "Z", "F2[x]"]


@st.composite
def literal_grids(draw):
    ring = parse_ring(draw(st.sampled_from(PARSE_RINGS)))
    pool = _literal_pool(ring)
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    grid = [[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]
    return ring, grid


@settings(max_examples=200, deadline=None)
@given(literal_grids())
def test_parse_matrix_is_the_grid_of_parsed_entries(case):
    ring, grid = case
    A = parse_matrix(ring, grid)
    assert A.entries == tuple(tuple(ring.parse(s) for s in row) for row in grid)


@pytest.mark.parametrize(
    "spec, bad",
    [("Z/8", "x"), ("Z", "1/2"), ("F2[x]/x^3", "y"), ("F2[x]", "x^"), ("F2*F3", "(1,3)"),
     ("F4*F9", "(1,2,3)")],
)
def test_a_bad_literal_raises_its_own_error_each_time(spec, bad):
    ring = parse_ring(spec)
    with pytest.raises(ParseError) as direct:
        ring.parse(bad)
    one = ring.format(ring.one)
    for grid in ([[bad]], [[one, bad], [bad, one]], [[bad, bad]]):
        for _ in range(2):
            with pytest.raises(ParseError) as raised:
                parse_matrix(ring, grid)
            assert str(raised.value) == str(direct.value)


# Z/8, F2[x]/x^3 and F4*F9 have order <= TABLE_CAP and keep their parsed
# literals across calls; Z and F2[x] parse afresh in each call
@pytest.mark.parametrize("spec", ["Z/8", "F2[x]/x^3", "F4*F9", "Z", "F2[x]"])
def test_parse_matrix_parses_each_distinct_literal_once_per_call(monkeypatch, spec):
    ring = parse_ring(spec)
    keeps = ring.is_finite
    calls = []
    parse = ring.parse

    def counting(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(ring, "parse", counting)
    before = dict(vars(ring))
    one, zero = ring.format(ring.one), ring.format(ring.zero)
    grid = [[one, zero, one], [zero, one, zero], [one, one, one]]
    for n in (1, 2):
        A = parse_matrix(ring, grid)
        assert A.entries == tuple(tuple(parse(s) for s in row) for row in grid)
        assert sorted(calls) == sorted([one, zero] * (1 if keeps else n))
    after = dict(vars(ring))
    table = after.pop("_literals", None)
    assert after == before
    assert table == ({one: parse(one), zero: parse(zero)} if keeps else None)


# a ring above the cap keeps no table: over F2[x]/x^65536 the 7-character
# literal x^65535 is a value of 65536 terms
@pytest.mark.parametrize("spec", ["Z/128", "F2[x]/x^7", "F2[x]/x^65536", "F2*F3*F5*F7", "F67"])
def test_a_ring_above_the_table_cap_keeps_no_literals(spec):
    ring = parse_ring(spec)
    literal = "x^65535" if spec == "F2[x]/x^65536" else ring.format(ring.one)
    before = dict(vars(ring))
    for _ in range(2):
        assert parse_matrix(ring, [[literal]]).entries == ((ring.parse(literal),),)
    assert vars(ring) == before


def test_the_literal_table_holds_at_most_4096_entries():
    ring = parse_ring("Z/64")
    texts = [str(i) for i in range(-10**4, 10**4)]
    for start in range(0, len(texts), 100):
        row = texts[start : start + 100]
        assert parse_matrix(ring, [row]).entries == (tuple(int(t) % 64 for t in row),)
        assert len(ring._literals) <= 4096
    assert len(ring._literals) == 4096
    assert all(value == ring.parse(text) for text, value in ring._literals.items())


def test_a_literal_longer_than_64_characters_is_parsed_and_not_kept():
    ring = parse_ring("Z/8")
    at_cap, past_cap = "0" * 63 + "9", "0" * 64 + "9"
    assert parse_matrix(ring, [[at_cap, past_cap]]).entries == ((1, 1),)
    assert list(ring._literals) == [at_cap]


# True == 1 and hash(True) == hash(1), so a table keyed by entries would have
# read True as the literal 1; [1] is unhashable
@pytest.mark.parametrize("spec", ["Z/8", "F2*F3"])
def test_entries_of_other_types_read_as_their_text_in_every_order(spec):
    grids = [[[1]], [["1"]], [[True]], [[1.0]], [[[1]]]]

    def outcome(ring, grid):
        try:
            return parse_matrix(ring, grid).entries
        except ParseError as exc:
            return str(exc)

    def fresh(grid):  # the entry's text, parsed by a ring that has met nothing
        ring = parse_ring(spec)
        try:
            return ((ring.parse(str(grid[0][0])),),)
        except ParseError as exc:
            return str(exc)

    expected = [fresh(grid) for grid in grids]
    assert expected[0] == expected[1] != expected[2]
    for order in itertools.permutations(range(len(grids))):
        ring = parse_ring(spec)
        for i in order:
            assert outcome(ring, grids[i]) == expected[i]
        assert all(type(text) is str for text in ring._literals)


# rows that can be read only once are read in full before an unhashable
# entry sends the row back to be read as text
def test_rows_read_once_are_read_whole():
    z8 = parse_ring("Z/8")
    rows = (iter(row) for row in [["1", "2"], ["3", "9"]])
    assert parse_matrix(z8, rows).entries == ((1, 2), (3, 1))
    with pytest.raises(ParseError, match=re.escape("bad residue literal '[1]'")):
        parse_matrix(z8, (iter(row) for row in [["1", "2"], ["3", [1], "4"]]))


@pytest.mark.parametrize("spec, bad", [("Z/8", "x"), ("F2[x]/x^3", "y"), ("F4*F9", "(1,2,3)")])
def test_a_literal_that_fails_is_not_kept(spec, bad):
    ring = parse_ring(spec)
    one = ring.format(ring.one)
    with pytest.raises(ParseError):
        parse_matrix(ring, [[one, bad]])
    assert list(ring._literals) == [one]


def test_prime_field_components_are_the_residue_rings():
    z2, z3, z5 = (parse_ring(f"Z/{p}") for p in (2, 3, 5))
    assert parse_ring("F2*F3*F5").fields == (z2, z3, z5)
    assert pullback_rank(parse_ring("Z"), 3).field == parse_ring("Z/3")
    assert pullback_rank(parse_ring("Z"), -5).field == parse_ring("Z/5")
    with pytest.raises(ParseError, match="component 3 out of range for F3"):
        parse_ring("F2*F3").normalize((1, 3))
    # a literal's out-of-range component is named, not called a bad literal
    with pytest.raises(ParseError, match="component 5 out of range for F3"):
        parse_ring("F2*F3").parse("(1,5)")
    for field in parse_ring("F5*F9").fields:
        with pytest.raises(PreconditionError):
            field.unit_inverse(0)
    # the spec of GF(p^k) names its modulus
    assert RESIDUE_F9 != parse_ring("F9").fields[0]


# a component was read with int(): a bool or str was taken, a float truncated
@pytest.mark.parametrize(
    "spec, raw",
    [("F2*F3", [True, 1]), ("F2*F3", [1, 1.9]), ("F2*F3", (1.0, True)), ("F4*F9", ["3", "1"])],
)
def test_product_normalize_refuses_a_component_that_is_not_an_int(spec, raw):
    ring = parse_ring(spec)
    for read in (ring.normalize, lambda raw: Matrix(ring, [[raw]])):
        with pytest.raises(ParseError, match="bad product literal"):
            read(raw)


def test_extension_field_component():
    ring = parse_ring("F4")
    # GF(4) multiplication: x * (x+1) = x^2 + x = 1 with modulus x^2 + x + 1
    f = ring.fields[0]
    assert f.modulus == (1, 1, 1)
    assert f.mul(2, 3) == 1
    assert sorted(f.mul(a, b) for a, b in [(2, 2), (3, 3)]) == [2, 3]
    for a in range(1, 4):
        assert f.mul(a, f.unit_inverse(a)) == 1


def _residue_field():
    f2x = parse_ring("F2[x]")
    return pullback_rank(f2x, f2x.parse("x^2+x+1")).field


# GF(p^k) read no element from outside: normalize, parse and Matrix(F, ...)
# each raised a bare NotImplementedError
@pytest.mark.parametrize(
    "field",
    [lambda: parse_ring("F4").fields[0], lambda: parse_ring("F9").fields[0], _residue_field],
    ids=["F4", "F9", "F2[x]/(x^2+x+1)"],
)
def test_extension_field_reads_an_int_encoding(field):
    # as a product-ring component is read: an int encoding in [0, q)
    F = field()
    q = F.size
    assert [F.normalize(x) for x in range(q)] == [F.parse(str(x)) for x in range(q)] == F.elements()
    assert Matrix(F, [[1, q - 1]]).entries == ((1, q - 1),)
    for bad in (True, False, 1.0, "1", None, -1, q):
        with pytest.raises(ParseError):
            F.normalize(bad)
    for bad in ("x", "1.0", "-1", str(q)):
        with pytest.raises(ParseError):
            F.parse(bad)
    with pytest.raises(ParseError):
        Matrix(F, [[q]])


@st.composite
def truncated_literals(draw):
    """A ring F_p[x]/x^n and a literal with terms of any sign up to degree n + 3.

    Terms repeat, cancel and overflow the modulus, so one literal exercises
    reduction mod p, merging, and dropping the degrees >= n.
    """
    ring = parse_ring(draw(st.sampled_from(["F2[x]/x^3", "F3[x]/x^2", "F5[x]/x^4", "F2[x]/x^1"])))
    terms = draw(
        st.lists(st.tuples(st.integers(-12, 12), st.integers(0, ring.nil_degree + 3)), min_size=1)
    )
    text = ""
    for coef, exp in terms:
        body = f"{abs(coef)}" + ("" if exp == 0 else "x" if exp == 1 else f"x^{exp}")
        text += ("-" if coef < 0 else "+") + body
    return ring, text.lstrip("+")


@settings(max_examples=300, deadline=None)
@given(truncated_literals())
@example((parse_ring("F2[x]/x^3"), "x^5+x^2-3x+4x^3"))
def test_truncated_parse_is_one_normalization(case):
    ring, text = case
    value = ring.parse(text)
    assert value == ring.normalize(parse_poly(text, ring.p, below=ring.nil_degree))
    # the untruncated parse, cut below n: an oracle that keeps every term
    assert value == ring.normalize(parse_poly(text, ring.p))
    assert ring.normalize(value) == value
