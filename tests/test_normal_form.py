import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from rankcert import (
    DiagonalForm,
    FactorResult,
    Matrix,
    NegativeComponent,
    PreconditionError,
    class_of,
    class_representative,
    diagonal_matrix,
    diagonalize,
    dim,
    identity,
    is_invertible,
    mat_mul,
    matrix,
    minor,
    parse_ring,
    phi,
    presentation,
    presentations_equivalent,
    psi,
    pullback_rank,
    regular_factor,
    signature,
    verify_factor,
    verify_factorization,
    zeros,
)
from rankcert import acceptance, normal_form
from rankcert.normal_form import eliminate, eliminated, factors, inverse_factors
from rankcert.polys import is_irreducible, pdivmod, pscale
from rankcert.rings import ExtensionField, ModPrimePowerRing

from helpers import (
    random_invertible,
    random_matrix,
    reference_class_of,
    reference_det,
    reference_diagonalize,
    reference_eliminate,
    reference_field_paq,
    reference_field_rank,
    reference_regular_factor,
)

LOCAL_RINGS = ["Z/4", "Z/8", "Z/9", "F2[x]/x^3", "F3[x]/x^2"]


def test_zero_matrix_form():
    ring = parse_ring("Z/8")
    A = zeros(ring, 3, 3)
    form = diagonalize(A)
    assert form.exponents == ()
    assert form.zero_count == 3
    assert form.left == identity(ring, 3)
    assert form.right == identity(ring, 3)
    assert verify_factorization(A, form)


def test_pivot_elimination_example():
    ring = parse_ring("Z/8")
    A = matrix(ring, [[2, 1], [0, 4]])
    form = diagonalize(A)
    assert form.exponents == (0,)
    assert form.zero_count == 1
    assert verify_factorization(A, form)


def test_already_diagonal_up_to_sorting():
    ring = parse_ring("F2[x]/x^3")
    A = matrix(ring, [[(1,), 0, 0], [0, (0, 0, 1), 0], [0, 0, (0, 1)]])
    form = diagonalize(A)
    assert form.exponents == (0, 1, 2)
    assert form.zero_count == 0
    assert verify_factorization(A, form)


def test_non_local_family_rejected():
    z = parse_ring("Z")
    with pytest.raises(PreconditionError):
        diagonalize(matrix(z, [[2]]))
    prod = parse_ring("F2*F3")
    with pytest.raises(PreconditionError):
        diagonalize(identity(prod, 1))


@pytest.mark.parametrize("spec", LOCAL_RINGS)
def test_round_trip_random(spec):
    ring = parse_ring(spec)
    rng = random.Random(hash(spec) & 0xFFFF)
    for _ in range(150):
        rows = rng.randrange(1, 4)
        cols = rng.randrange(1, 4)
        A = random_matrix(ring, rng, rows, cols)
        form = diagonalize(A)
        assert verify_factorization(A, form)
        assert list(form.exponents) == sorted(form.exponents)
        assert len(form.exponents) + form.zero_count == min(rows, cols)
        # determinism
        assert diagonalize(A) == form


@pytest.mark.parametrize("spec", ["Z/4", "Z/8", "Z/9", "F2[x]/x^3"])
def test_invariance_under_invertible_factors(spec):
    ring = parse_ring(spec)
    rng = random.Random(len(spec))
    for _ in range(120):
        size = rng.randrange(1, 4)
        A = random_matrix(ring, rng, size, size)
        U = random_invertible(ring, rng, size)
        V = random_invertible(ring, rng, size)
        base = diagonalize(A)
        moved = diagonalize(mat_mul(mat_mul(U, A), V))
        assert (base.exponents, base.zero_count) == (moved.exponents, moved.zero_count)


def test_verify_rejects_tampering():
    ring = parse_ring("Z/8")
    A = matrix(ring, [[2, 1], [0, 4]])
    form = diagonalize(A)
    bad_left = DiagonalForm(
        form.exponents, form.zero_count, matrix(ring, [[2, 0], [0, 1]]), form.right
    )
    assert not verify_factorization(A, bad_left)
    bad_exps = DiagonalForm((1,), form.zero_count, form.left, form.right)
    assert not verify_factorization(A, bad_exps)
    wrong_count = DiagonalForm(form.exponents, 2, form.left, form.right)
    assert not verify_factorization(A, wrong_count)


def test_identity_form_verifies():
    ring = parse_ring("Z/4")
    I2 = identity(ring, 2)
    assert verify_factorization(I2, DiagonalForm((0, 0), 0, I2, I2))


def test_min_minor_valuation_matches_exponent_prefix_sums():
    # the least k-minor valuation of A equals the sum of its k smallest exponents
    rng = random.Random(77)
    for spec in ["Z/8", "Z/9", "F2[x]/x^3"]:
        ring = parse_ring(spec)
        n = ring.nil_degree
        for _ in range(40):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            A = random_matrix(ring, rng, rows, cols)
            exps = sorted(diagonalize(A).exponents)
            for k in range(1, len(exps) + 1):
                vals = []
                from itertools import combinations

                for rr in combinations(range(rows), k):
                    for cc in combinations(range(cols), k):
                        vals.append(ring.valuation(minor(A, rr, cc)))
                assert min(vals) == sum(exps[:k])


def test_diagonal_matrix_padding():
    ring = parse_ring("Z/8")
    D = diagonal_matrix(ring, 2, 3, (0, 2))
    assert D.to_strings() == [["1", "0", "0"], ["0", "4", "0"]]


# ---------------------------------------------------------------------------
# the recorded elimination against the separate eliminations it replaced

ORACLE_LOCAL = (
    "Z/4", "Z/8", "Z/9", "Z/27", "Z/25", "F2[x]/x^3", "F2[x]/x^4", "F3[x]/x^2", "F5[x]/x^2"
)
ORACLE_PRODUCT = ("F2*F3", "F2*F3*F5", "F4*F9", "F8", "F2*F2")


@st.composite
def matrices(draw, ring, rows, cols):
    # a zero-biased draw, so that low ranks and high valuations are common
    values = ring.elements()
    entry = st.one_of(st.just(ring.zero), st.sampled_from(values))
    grid = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    return Matrix(ring, grid)


@st.composite
def local_matrices(draw):
    ring = parse_ring(draw(st.sampled_from(ORACLE_LOCAL)))
    return draw(matrices(ring, draw(st.integers(1, 6)), draw(st.integers(1, 6))))


@st.composite
def product_pairs(draw):
    ring = parse_ring(draw(st.sampled_from(ORACLE_PRODUCT)))
    a_rows, a_cols, b_rows, b_cols = (draw(st.integers(1, 4)) for _ in range(4))
    A = draw(matrices(ring, a_rows, a_cols))
    B = A if draw(st.integers(0, 9)) == 0 else draw(matrices(ring, b_rows, b_cols))
    return A, B


@settings(max_examples=300, deadline=None)
@given(local_matrices())
def test_diagonalize_and_class_match_reference(A):
    form = diagonalize(A)
    assert form == reference_diagonalize(A)
    assert class_of(A) == reference_class_of(A)
    assert verify_factorization(A, form)


@settings(max_examples=300, deadline=None)
@given(product_pairs())
def test_regular_factor_matches_reference(pair):
    A, B = pair
    assert class_of(A) == reference_class_of(A)
    res = regular_factor(A, B)
    ranks_a, ranks_b = reference_class_of(A), reference_class_of(B)
    C, D, i = reference_regular_factor(A, B)
    expected = FactorResult(C, D) if i is None else NegativeComponent(i, ranks_a[i], ranks_b[i])
    assert res == expected
    assert verify_factor(A, B, res)
    for i in range(A.ring.width):
        claim = NegativeComponent(i, ranks_a[i], ranks_b[i])
        assert verify_factor(A, B, claim) == (ranks_a[i] > ranks_b[i])


@pytest.mark.parametrize("a, b", [((39, 39), (40, 40)), ((0, 40), (40, 40)), ((40, 0), (40, 39))])
def test_regular_factor_of_representatives_makes_quadratic_work(monkeypatch, a, b):
    # the factors of class representatives are almost identities, and their
    # products skip zero entries, so a factorization of side s = 40 makes at
    # most 3 w s^2 field products, also where a component of A has rank 0
    ring, s = parse_ring("F2*F3"), 40
    A, B = class_representative(ring, a), class_representative(ring, b)
    calls, mul = 0, ModPrimePowerRing.mul

    def counted(field, x, y):
        nonlocal calls
        calls += 1
        return mul(field, x, y)

    monkeypatch.setattr(ModPrimePowerRing, "mul", counted)
    res = regular_factor(A, B)
    assert calls <= 3 * ring.width * s**2
    assert isinstance(res, FactorResult) and verify_factor(A, B, res)


@st.composite
def field_grids(draw):
    q = draw(st.sampled_from((2, 3, 4, 5, 8, 9)))
    field = parse_ring(f"F{q}").fields[0]
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    return field, tuple(tuple(draw(entry) for _ in range(cols)) for _ in range(rows))


@settings(max_examples=300, deadline=None)
@given(field_grids())
def test_field_elimination_matches_field_paq(case):
    field, grid = case
    rows, cols = len(grid), len(grid[0])
    exponents, ops = eliminate(field, grid)
    rank, P, Pinv, Q, Qinv = reference_field_paq(field, grid)
    assert len(exponents) == rank == reference_field_rank(field, grid)
    freeze = lambda pair: tuple(tuple(tuple(row) for row in g) for g in pair)
    assert freeze(factors(field, rows, cols, ops)) == (P, Q)
    assert freeze(inverse_factors(field, rows, cols, ops)) == (Pinv, Qinv)


@settings(max_examples=300, deadline=None)
@given(st.one_of(local_matrices().map(lambda A: (A.ring, A.entries)), field_grids()))
def test_early_exit_pivot_records_the_min_pivot_operations(case):
    # the scan stops at the first unit; min() over the whole block picks the same entry
    ring, grid = case
    assert eliminate(ring, grid) == reference_eliminate(ring, grid)


# (ring, generator of a maximal ideal) for residue pullback ranks
RESIDUES = (("Z", "2"), ("Z", "3"), ("Z", "-5"), ("F2[x]", "x^3+x+1"), ("F3[x]", "2x^2+2"))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(RESIDUES), st.integers(1, 5), st.integers(1, 5), st.randoms())
def test_residue_pullback_rank_matches_reference(residue, rows, cols, rng):
    ring = parse_ring(residue[0])
    pi = ring.parse(residue[1])
    M = random_matrix(ring, rng, rows, cols)
    rank = pullback_rank(ring, pi)
    if ring.spec == "Z":
        grid = [[x % abs(pi) for x in row] for row in M.entries]
    else:
        monic = pscale(pi, pow(pi[-1], -1, ring.p), ring.p)
        grid = [[rank.field.encode(pdivmod(x, monic, ring.p)[1]) for x in row] for row in M.entries]
    assert rank(M) == reference_field_rank(rank.field, grid)


# (ring, pi of degree 1): the residue field is Z/p, reached by the remainder modulo pi
LINEAR_RESIDUES = (("F2[x]", "x"), ("F2[x]", "x+1"), ("F5[x]", "x+1"), ("F5[x]", "3x+2"))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(LINEAR_RESIDUES), st.integers(1, 6), st.integers(1, 6), st.randoms())
def test_linear_residue_rank_matches_sympy_over_gf_p(residue, rows, cols, rng):
    ring = parse_ring(residue[0])
    pi = ring.parse(residue[1])
    rank = pullback_rank(ring, pi)
    assert rank.field == parse_ring(f"Z/{ring.p}")
    p = ring.p
    root = next(r for r in range(p) if sum(c * r**i for i, c in enumerate(pi)) % p == 0)
    M = random_matrix(ring, rng, rows, cols)
    K = GF(p)
    grid = [[K(sum(c * root**i for i, c in enumerate(x))) for x in row] for row in M.entries]
    assert rank(M) == DomainMatrix(grid, (rows, cols), K).rank()


def test_extension_field_needs_degree_two():
    # GF(p) is Z/p; only a proper extension is an ExtensionField
    for k, modulus in ((0, (1,)), (1, (1, 1))):
        with pytest.raises(PreconditionError, match="degree k >= 2"):
            ExtensionField(5, k, modulus)
    assert ExtensionField(2, 2).size == 4


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(ORACLE_LOCAL + ORACLE_PRODUCT + ("Z", "F2[x]")),
    st.integers(1, 5),
    st.randoms(),
)
def test_is_invertible_matches_determinant(spec, size, rng):
    ring = parse_ring(spec)
    M = random_matrix(ring, rng, size, size)
    assert is_invertible(M) == ring.is_unit(reference_det(ring, M))
    assert is_invertible(identity(ring, size))


# ---------------------------------------------------------------------------
# each matrix is eliminated at most once


CACHE_LOCAL = ("Z/4", "Z/8", "Z/9", "Z/27", "F2[x]/x^3", "F3[x]/x^2", "F2[x]/x^4")
CACHE_PRODUCT = ("F2*F3", "F4*F9")


def _cold(A):
    """A copy of A with nothing computed on it yet."""
    return Matrix._canonical(A.ring, A.entries)


def _cached_ops(ring):
    """Every reader of the elimination, by name, as a function of (A, B)."""
    ops = {
        "class_of": lambda A, B: class_of(A),
        "signature": lambda A, B: signature(presentation(A.cols, A)),
        "phi": lambda A, B: phi(presentation(A.cols, A)),
        "psi": lambda A, B: psi(A),
    }
    if ring.is_local:
        ops["diagonalize"] = lambda A, B: diagonalize(A)
        for k in range(1, ring.nil_degree + 1):
            ops[f"dim_{k}"] = lambda A, B, k=k: dim(k, presentation(A.cols, A))
    else:
        ops["regular_factor"] = lambda A, B: regular_factor(A, B)
        ops["class_of_b"] = lambda A, B: class_of(B)
    return ops


@st.composite
def cache_cases(draw):
    ring = parse_ring(draw(st.sampled_from(CACHE_LOCAL + CACHE_PRODUCT)))
    A = draw(matrices(ring, draw(st.integers(1, 5)), draw(st.integers(1, 5))))
    B = draw(matrices(ring, draw(st.integers(1, 4)), draw(st.integers(1, 4))))
    return A, B


def _reference_exponents(A):
    """Exponents of A, or of each field component, by the reference elimination."""
    ring = A.ring
    if ring.is_local:
        return tuple(reference_eliminate(ring, A.entries)[0])
    return tuple(
        tuple(reference_eliminate(f, ring.component_grid(A, i))[0])
        for i, f in enumerate(ring.fields)
    )


@settings(max_examples=200, deadline=None)
@given(cache_cases(), st.data())
def test_cached_elimination_answers_as_a_cold_matrix_in_any_order(case, data):
    A, B = case
    ring = A.ring
    ops = _cached_ops(ring)
    cold = {name: op(_cold(A), _cold(B)) for name, op in ops.items()}
    order = data.draw(st.permutations(sorted(ops)))
    warm = {name: ops[name](A, B) for name in order}
    assert warm == cold
    # a second round reads the filled cache and still answers the same
    assert {name: ops[name](A, B) for name in reversed(order)} == cold
    exponents = _reference_exponents(A)
    if ring.is_local:
        assert eliminated(A) == tuple(map(tuple, reference_eliminate(ring, A.entries)))
        assert warm["diagonalize"].exponents == exponents
        assert warm["class_of"] == tuple(exponents.count(e) for e in range(ring.nil_degree))
        assert verify_factorization(A, warm["diagonalize"])
    else:
        assert warm["class_of"] == tuple(map(len, exponents))
        assert warm["class_of_b"] == tuple(map(len, _reference_exponents(B)))
        assert verify_factor(A, B, warm["regular_factor"])


def test_filled_cache_leaves_identity_and_immutability_alone():
    ring = parse_ring("Z/8")
    A = matrix(ring, [[2, 4], [6, 3]])
    cold = _cold(A)
    before = (hash(A), repr(A))
    diagonalize(A)
    class_of(A)
    assert eliminated(A) is eliminated(A)
    assert A == cold and cold == A
    assert (hash(A), repr(A)) == before == (hash(cold), repr(cold))
    for name in ("ring", "entries", "_eliminated", "other"):
        with pytest.raises(AttributeError):
            setattr(A, name, None)
    exponents, ops = eliminated(A)
    assert isinstance(exponents, tuple) and isinstance(ops, tuple)


@pytest.fixture
def eliminations(monkeypatch):
    """Counter of (ring, grid) for each call of normal_form.eliminate."""
    calls = Counter()
    kernel = normal_form.eliminate

    def counted(ring, grid):
        calls[ring, tuple(map(tuple, grid))] += 1
        return kernel(ring, grid)

    monkeypatch.setattr(normal_form, "eliminate", counted)
    return calls


def test_a_presentation_is_eliminated_once(eliminations):
    ring = parse_ring("Z/27")
    A1 = matrix(ring, [[3, 9, 1], [0, 3, 6], [9, 0, 3]])
    A2 = matrix(ring, [[9, 0, 0], [0, 3, 0]])
    P1, P2 = presentation(3, A1), presentation(3, A2)
    for k in range(1, ring.nil_degree + 1):
        dim(k, P1)
    presentations_equivalent(P1, P2)
    phi(P1)
    psi(A1)
    assert eliminations == Counter({(ring, A1.entries): 1, (ring, A2.entries): 1})


def test_regular_requests_eliminate_each_component_once(eliminations):
    ring = parse_ring("F4*F9")
    rng = random.Random(5)
    A, B = random_matrix(ring, rng, 3, 4), identity(ring, 3)
    class_of(A)
    class_of(B)
    result = regular_factor(A, B)
    assert result.ok and verify_factor(A, B, result)
    assert eliminations == Counter(
        {(f, ring.component_grid(M, i)): 1 for M in (A, B) for i, f in enumerate(ring.fields)}
    )
    assert len(eliminations) == 2 * ring.width


# ---------------------------------------------------------------------------
# rings of order at most 16 eliminate rows of byte codes


def _extension_fields(p, k):
    """GF(p^k) modulo each monic irreducible of degree k."""
    fields = []
    for low in itertools.product(range(p), repeat=k):
        modulus = low + (1,)
        if is_irreducible(modulus, p):
            fields.append(ExtensionField(p, k, modulus))
    return fields


# every finite local ring of order at most 16, each GF(p^k) under every modulus
BYTE_RINGS = [parse_ring(f"Z/{q}") for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)]
BYTE_RINGS += [parse_ring(f"F2[x]/x^{n}") for n in (2, 3, 4)] + [parse_ring("F3[x]/x^2")]
BYTE_RINGS += [f for p, k in ((2, 2), (2, 3), (3, 2), (2, 4)) for f in _extension_fields(p, k)]
# the smallest of each family above order 16
GENERIC_RINGS = [parse_ring(spec) for spec in ("Z/27", "Z/32", "F2[x]/x^5")]
GENERIC_RINGS += [parse_ring("F32").fields[0]]


@st.composite
def shaped_grids(draw, ring):
    """A grid of shape 1..12 x 1..12, often a row or a column, of one of four
    kinds: half zero, all zero, without a unit, or all units.  Its entries
    are read off drawn bytes, which is fast and shrinks towards zero."""
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rows, cols = draw(st.sampled_from([(rows, cols), (1, cols), (rows, 1)]))
    values = ring.elements()
    pool = {
        "half zero": [ring.zero] * len(values) + values,
        "zero": [ring.zero],
        "no unit": [x for x in values if not ring.is_unit(x)],
        "units": [x for x in values if ring.is_unit(x)],
    }[draw(st.sampled_from(["half zero", "zero", "no unit", "units"]))]
    raw = draw(st.binary(min_size=rows * cols, max_size=rows * cols))
    entries = [pool[b % len(pool)] for b in raw]
    return tuple(tuple(entries[i : i + cols]) for i in range(0, rows * cols, cols))


@pytest.mark.parametrize("ring", BYTE_RINGS + GENERIC_RINGS, ids=lambda ring: ring.spec)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_byte_elimination_matches_reference(ring, data):
    assert ring._order_at_most(16) == (len(ring.elements()) <= 16) == (ring not in GENERIC_RINGS)
    grid = data.draw(shaped_grids(ring))
    assert eliminate(ring, grid) == reference_eliminate(ring, grid)


def test_rings_of_order_at_most_16_never_reach_the_generic_loop(monkeypatch):
    generic, reached = normal_form._eliminate_values, []

    def guarded(ring, grid):
        assert len(ring.elements()) > 16, f"{ring.spec} reached the generic loop"
        reached.append(ring.spec)
        return generic(ring, grid)

    monkeypatch.setattr(normal_form, "_eliminate_values", guarded)
    rng = random.Random(30)
    # the local and product rings of the matrix-mix workload, and the suite's
    for spec in ("Z/8", "F2[x]/x^3", "F3[x]/x^2", *acceptance.LOCAL_RINGS):
        A = random_matrix(parse_ring(spec), rng, 4, 5)
        assert verify_factorization(A, diagonalize(A))
        assert class_of(A) == reference_class_of(A)
    for spec in ("F2*F3", "F2*F3*F5", "F4*F9"):
        ring = parse_ring(spec)
        A, B = random_matrix(ring, rng, 3, 4), random_matrix(ring, rng, 4, 4)
        assert verify_factor(A, B, regular_factor(A, B))
        assert class_of(A) == reference_class_of(A)
    # its residue pullback ranks: Z/p, and GF(4) modulo x^2+x+1
    for spec, pi in (("Z", "2"), ("Z", "7"), ("F2[x]", "x+1"), ("F2[x]", "x^2+x+1")):
        ring = parse_ring(spec)
        M = random_matrix(ring, rng, 5, 6)
        pullback_rank(ring, ring.parse(pi))(M)
    assert reached == []
    ring = parse_ring("Z/27")
    diagonalize(random_matrix(ring, rng, 3, 3))
    assert reached == ["Z/27"]
