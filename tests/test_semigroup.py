import contextlib
import io
import random
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcert import (
    UNKNOWN,
    Cancel,
    Drop,
    ExponentIncrease,
    FactorResult,
    NegativeComponent,
    NegativeMinor,
    NegativeRank,
    ParseError,
    Positive,
    PowerSwap,
    PreconditionError,
    StateSpec,
    block_diag,
    block_upper,
    class_of,
    class_representative,
    diagonal_matrix,
    diagonalize,
    group_element,
    has_rank_function,
    identity,
    is_invertible,
    leq,
    leq_provable,
    mat_mul,
    matrix,
    minor,
    minor_refutation,
    minors_in_ideal,
    module_basis_labels,
    order_unit,
    parse_ring,
    phi_group,
    presentation,
    presentations_equivalent,
    psi_group,
    pullback_rank,
    rank_profile,
    regular_factor,
    rk,
    rk_for_square,
    signature,
    stack_vertical,
    state_extension,
    state_range,
    verify_certificate,
    verify_factor,
    verify_factorization,
    verify_formal_certificate,
    witness_chain,
    zeros,
)
import rankcert.semigroup as semigroup
from rankcert.acceptance import LOCAL_RINGS
from rankcert.cli import main
from rankcert.polys import pdivmod
from rankcert.rings import (
    ExtensionField,
    FieldProductRing,
    IntegerRing,
    ModPrimePowerRing,
    PolyRing,
    TruncatedPolyRing,
)
from rankcert.semigroup import _formal_bound, _replay, check_element, monoid_width

from helpers import (
    _formal_apply,
    bfs_leq_provable,
    free_presentation,
    random_matrix,
    replace,
    reference_apply_moves,
    reference_leq_provable,
    reference_witness_chain,
    separate_formal_bound,
)

Z8 = parse_ring("Z/8")


def vectors_up_to(width, norm):
    out = [()]
    for _ in range(width):
        out = [v + (t,) for v in out for t in range(norm + 1)]
    return [v for v in out if sum(v) <= norm]


# ---------------------------------------------------------------------------
# classes


def test_class_of_identity():
    for m in (1, 2, 3):
        assert class_of(identity(Z8, m)) == (m, 0, 0)


def test_class_of_elimination_example():
    assert class_of(matrix(Z8, [[2, 1], [0, 4]])) == (1, 0, 0)


def test_class_of_product_components():
    ring = parse_ring("F2*F3")
    A = matrix(ring, [[(1, 1), (0, 1)], [(0, 2), (0, 0)]])
    # oracle per component: [[1,0],[0,0]] has rank 1 over F2,
    # [[1,1],[2,0]] has rank 2 over F3
    assert class_of(A) == (1, 2)


def test_class_representative_round_trip():
    rng = random.Random(5)
    for spec in ["Z/8", "F2*F3"]:
        ring = parse_ring(spec)
        for _ in range(30):
            vec = tuple(rng.randrange(3) for _ in order_unit(ring))
            assert class_of(class_representative(ring, vec)) == vec


# ---------------------------------------------------------------------------
# rank values


def test_rank_formula_values():
    assert rk(Z8, 2, (0, 1, 0)) == Fraction(1, 2)
    assert rk(Z8, 1, (0, 1, 0)) == 0
    assert rk(Z8, 3, (0, 0, 1)) == Fraction(1, 3)
    with pytest.raises(PreconditionError):
        rk(Z8, 4, (0, 0, 0))
    with pytest.raises(PreconditionError):
        rk(Z8, 0, (0, 0, 0))


def test_rank_additive():
    rng = random.Random(3)
    for _ in range(100):
        a = tuple(rng.randrange(4) for _ in range(3))
        b = tuple(rng.randrange(4) for _ in range(3))
        ab = tuple(x + y for x, y in zip(a, b))
        for k in (1, 2, 3):
            assert rk(Z8, k, ab) == rk(Z8, k, a) + rk(Z8, k, b)


# ---------------------------------------------------------------------------
# the order and witness chains


def test_leq_examples():
    assert leq(Z8, (0, 2, 0), (1, 0, 1))
    assert not leq(Z8, (1, 0, 1), (0, 2, 0))
    for a in vectors_up_to(3, 3):
        assert leq(Z8, (0, 0, 0), a)


def test_witness_chain_examples():
    cert = witness_chain(Z8, (0, 2, 0), (1, 0, 1))
    assert isinstance(cert, Positive)
    assert cert.moves[0] == PowerSwap(0, 2)
    assert verify_certificate(Z8, (0, 2, 0), (1, 0, 1), cert)

    neg = witness_chain(Z8, (1, 0, 0), (0, 2, 0))
    assert neg == NegativeRank(1, Fraction(1), Fraction(0))
    assert verify_certificate(Z8, (1, 0, 0), (0, 2, 0), neg)

    assert witness_chain(Z8, (1, 2, 0), (1, 2, 0)) == Positive(())


@pytest.mark.parametrize("spec", ["Z/4", "Z/8", "F2[x]/x^3"])
def test_exhaustive_equivalence_small(spec):
    ring = parse_ring(spec)
    n = ring.nil_degree
    vecs = vectors_up_to(n, 3)
    for a in vecs:
        for b in vecs:
            cert = witness_chain(ring, a, b)
            assert verify_certificate(ring, a, b, cert)
            if leq(ring, a, b):
                assert isinstance(cert, Positive)
            else:
                assert isinstance(cert, NegativeRank)


def _chain_pairs(rng, spec, count, top, density):
    """count seeded pairs over spec, entries up to top, swapped when only b <= a holds."""
    ring = parse_ring(spec)
    n = ring.nil_degree

    def vector():
        return tuple(rng.randint(0, top) if rng.random() < density else 0 for _ in range(n))

    for _ in range(count):
        a, b = vector(), vector()
        if leq(ring, b, a) and not leq(ring, a, b):
            a, b = b, a
        yield ring, a, b


def test_walks_give_the_chains_built_one_swap_at_a_time():
    # 18000 short pairs on six local rings, and wide pairs whose walks are long
    rng, start = random.Random(2831), time.perf_counter()
    pairs = [
        pair
        for spec in ("Z/8", "Z/32", "F2[x]/x^5", "F3[x]/x^4", "F2[x]/x^9", "Z/729")
        for pair in _chain_pairs(rng, spec, 3000, 3, 1.0)
    ] + [
        pair
        for spec in ("F2[x]/x^16", "F2[x]/x^33", "F2[x]/x^64")
        for density in (0.1, 0.3)
        for pair in _chain_pairs(rng, spec, 40, 30, density)
    ]
    positive = 0
    for ring, a, b in pairs:
        cert = witness_chain(ring, a, b)
        assert cert == reference_witness_chain(ring, a, b), (ring.spec, a, b)
        if cert.ok:  # the size bound that cli.CLASS_WORK_CAP relies on
            assert len(cert.moves) <= 2 * ring.nil_degree * sum(a) + sum(b), (ring.spec, a, b)
        positive += cert.ok
    assert positive > len(pairs) // 2
    assert time.perf_counter() - start < 2.0


def test_a_chain_costs_linear_time_in_its_walks():
    # built one swap at a time, the one-copy chain took about 30 ms: O(n) per swap
    ring = parse_ring("F2[x]/x^1024")

    def best_of_three(copies):
        a, b = [0] * 1024, [0] * 1024
        a[512] = b[0] = b[1023] = copies
        times = []
        for _ in range(3):
            start = time.perf_counter()
            cert = witness_chain(ring, a, b)
            times.append(time.perf_counter() - start)
        assert verify_certificate(ring, a, b, cert)
        return min(times)

    one = best_of_three(1)
    assert one < 0.005
    assert best_of_three(10) <= 12 * one


def test_partial_order_laws():
    vecs = vectors_up_to(3, 3)
    for a in vecs:
        assert leq(Z8, a, a)
        for b in vecs:
            if leq(Z8, a, b) and leq(Z8, b, a):
                assert a == b
            for c in vecs[:10]:
                if leq(Z8, a, b) and leq(Z8, b, c):
                    assert leq(Z8, a, c)


def test_order_compatible_with_addition():
    vecs = vectors_up_to(3, 2)
    for a in vecs:
        for b in vecs:
            if not leq(Z8, a, b):
                continue
            for c in vecs:
                assert leq(
                    Z8,
                    tuple(x + y for x, y in zip(a, c)),
                    tuple(x + y for x, y in zip(b, c)),
                )


def test_order_unit_law():
    n = Z8.nil_degree
    for a in vectors_up_to(3, 4):
        bound = tuple(sum(a) * n if i == 0 else 0 for i in range(3))
        assert leq(Z8, a, bound)


def test_verify_rejects_tampered_certificates():
    a, b = (1, 0, 0), (0, 2, 0)  # not leq
    fake = Positive((Drop(1), Drop(1), ExponentIncrease(0)))
    assert not verify_certificate(Z8, a, b, fake)
    # rk_1 would increase along such a chain, so replay cannot reach the target
    good = witness_chain(Z8, (0, 2, 0), (1, 0, 1))
    extra = Positive(good.moves + (Drop(0),))
    assert not verify_certificate(Z8, (0, 2, 0), (1, 0, 1), extra)
    assert not verify_certificate(
        Z8, (0, 1, 0), (1, 0, 0), NegativeRank(1, Fraction(0), Fraction(1))
    )
    # wrong recorded values
    assert not verify_certificate(
        Z8, (1, 0, 0), (0, 2, 0), NegativeRank(1, Fraction(2), Fraction(0))
    )


def test_chain_moves_respect_index_convention():
    # PowerSwap against the identity index n consumes one generator only
    cert = witness_chain(Z8, (0, 0, 2), (1, 0, 0))
    assert isinstance(cert, Positive)
    assert verify_certificate(Z8, (0, 0, 2), (1, 0, 0), cert)
    assert any(isinstance(m, PowerSwap) and m.j2 == 3 for m in cert.moves)


def test_verify_certificate_replays_exponent_increase():
    # e_0 -> e_1 gives (0,1,0) <= (1,0,0); e_2 -> e_3, the zero class, gives
    # 0 <= (0,0,1); there is no e_3 to raise
    assert verify_certificate(Z8, (0, 1, 0), (1, 0, 0), Positive((ExponentIncrease(0),)))
    assert verify_certificate(Z8, (0, 0, 0), (0, 0, 1), Positive((ExponentIncrease(2),)))
    assert not verify_certificate(Z8, (0, 0, 0), (0, 0, 1), Positive((ExponentIncrease(3),)))


PROD = parse_ring("F2*F3")


def _diagonal_form_over_z8():
    return diagonalize(matrix(Z8, [[2]]))


# the guards of the verifiers and of cross-ring calls: each refuses as its
# docstring says, False from a verifier and PreconditionError from the rest
@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: verify_certificate(PROD, (1, 0), (1, 1), Positive(())), False),
        (lambda: verify_certificate(Z8, (0, 1, 0), (1, 0, 0), "positive"), False),
        (lambda: verify_certificate(Z8, (0, 1, 0), (1, 0, 0), None), False),
        (lambda: verify_formal_certificate((1,), (0,), None), False),
        (lambda: verify_formal_certificate((1,), (0,), PowerSwap(0, 1)), False),
        (lambda: verify_factorization(matrix(PROD, [[(1, 1)]]), _diagonal_form_over_z8()), False),
        (lambda: verify_factorization(matrix(Z8, [[2]]), replace(
            _diagonal_form_over_z8(), left=identity(parse_ring("Z/4"), 1))), False),
        (lambda: presentations_equivalent(
            presentation(1, matrix(Z8, [[2]])), presentation(1, matrix(parse_ring("Z/4"), [[2]]))),
         PreconditionError),
        (lambda: module_basis_labels(PROD), ("[S0]", "[S1]")),
        (lambda: module_basis_labels(parse_ring("Z")), PreconditionError),
        (lambda: state_extension(
            Z8, StateSpec(generators=((1, 0, 0), (0, 1, 0)), values=(1,)), (0, 0, 1)),
         PreconditionError),
        (lambda: pullback_rank(parse_ring("Z"), 2)(matrix(Z8, [[1]])), PreconditionError),
    ],
    ids=["local-chain-over-a-product", "string-certificate", "no-certificate",
         "formal-no-certificate", "formal-move-as-certificate", "factorization-over-a-product",
         "factor-over-another-ring", "presentations-across-rings", "product-module-basis",
         "module-basis-over-z", "fewer-values-than-generators", "pullback-of-another-ring"],
)
def test_verifiers_and_guards_refuse_as_documented(call, expected):
    if expected is PreconditionError:
        with pytest.raises(PreconditionError):
            call()
    else:
        assert call() == expected


def _cli(*argv, stdin=""):
    """`cli.main(argv)` in process on the given stdin: (exit code, stderr)."""
    err, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, err.getvalue()


Z, Z4 = parse_ring("Z"), parse_ring("Z/4")


# the public guards no other test reaches: each raises the error it names
# with its message, or returns what its docstring promises
@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: IntegerRing().normalize(True), ParseError("bad integer literal True")),
        (lambda: PolyRing(2).normalize(1.5), ParseError("bad polynomial literal 1.5")),
        (lambda: TruncatedPolyRing(2, 3).normalize(1.5),
         ParseError("bad truncated polynomial literal 1.5")),
        (lambda: ModPrimePowerRing(4, 1), ParseError("4 is not prime")),
        (lambda: ModPrimePowerRing(2, 0), ParseError("exponent must be >= 1")),
        (lambda: Z8.normalize("1"), ParseError("bad residue literal '1'")),
        (lambda: TruncatedPolyRing(4, 2), ParseError("4 is not prime")),
        (lambda: ExtensionField(2, 2, (1, 1, 0)),
         PreconditionError("modulus must be monic of degree k")),
        (lambda: FieldProductRing([]), ParseError("empty field product")),
        (lambda: PROD.normalize([1]), ParseError("bad product literal [1]")),
        (lambda: PROD.parse("(a,b)"), ParseError("bad product literal '(a,b)'")),
        (lambda: identity(Z8, 0), PreconditionError("identity size must be >= 1")),
        (lambda: mat_mul(identity(Z8, 1), identity(Z4, 1)),
         PreconditionError("matrix product over different rings")),
        (lambda: block_diag(identity(Z8, 1), identity(Z4, 1)),
         PreconditionError("block sum over different rings")),
        (lambda: block_upper(identity(Z8, 1), identity(Z4, 1), identity(Z8, 1)),
         PreconditionError("block sum over different rings")),
        (lambda: block_upper(identity(Z8, 1), identity(Z8, 2), identity(Z8, 1)),
         PreconditionError("off-diagonal block has wrong shape")),
        (lambda: stack_vertical(identity(Z8, 1), identity(Z8, 2)),
         PreconditionError("vertical stack needs equal column counts")),
        (lambda: Z8.generator_power(4), PreconditionError("exponent 4 outside [0, 3]")),
        (lambda: Z.unit_inverse(-1), -1),
        (lambda: is_invertible(zeros(Z8, 2, 3)),
         PreconditionError("invertibility needs a square matrix")),
        (lambda: minor(identity(Z8, 2), [0.5], [0]),
         PreconditionError("row index must be an int, not 0.5")),
        (lambda: minor(identity(Z8, 2), ["0"], [0]),
         PreconditionError("row index must be an int, not '0'")),
        (lambda: minor(identity(Z8, 2), [True], [False]),
         PreconditionError("row index must be an int, not True")),
        (lambda: minor(identity(Z8, 2), 0, [0]),
         PreconditionError("minor needs equal nonempty row and column sets")),
        (lambda: diagonal_matrix(Z8, 0, 0, ()),
         PreconditionError("matrices must have at least one row and column")),
        (lambda: diagonal_matrix(Z8, 1, 1, (0, 0)),
         PreconditionError("2 exponents for a 1 x 1 matrix")),
        (lambda: diagonal_matrix(Z8, 2, 2, (1.0,)),
         PreconditionError("exponent must be an int, not 1.0")),
        (lambda: diagonal_matrix(Z8, True, 1, (0,)),
         PreconditionError("rows must be an int, not True")),
        (lambda: diagonal_matrix(Z8, 2, 2, (True,)),
         PreconditionError("exponent must be an int, not True")),
        (lambda: diagonal_matrix(Z8, 2, 2, 1),
         PreconditionError("exponents must be a sequence, not 1")),
        (lambda: pdivmod((1,), (), 2), ZeroDivisionError("polynomial division by zero")),
        (lambda: parse_ring("F2[x]").ideal_member((0, 1), ()), False),
        (lambda: signature(presentation(1, matrix(Z, [[2]]))),
         PreconditionError("Z is not a supported module family")),
        (lambda: phi_group(Z8, (1, 0)),
         PreconditionError("module coefficients have the wrong length")),
        (lambda: psi_group(Z8, group_element((1,), (0,))),
         PreconditionError("group element has the wrong width")),
        (lambda: monoid_width(Z), PreconditionError("Z has no computed class monoid")),
        (lambda: class_of(matrix(Z, [[2]])), PreconditionError("Z has no computed class monoid")),
        (lambda: rk(PROD, 1, (1, 0)), PreconditionError("rk_k is defined for the local families")),
        (lambda: group_element((1,), (0, 0)),
         PreconditionError("group element over mismatched monoids")),
        (lambda: witness_chain(PROD, (1, 0), (1, 1)),
         PreconditionError("witness_chain applies to the local families")),
        (lambda: regular_factor(matrix(PROD, [[1]]), matrix(parse_ring("F2*F5"), [[1]])),
         PreconditionError("regular_factor needs matrices over one product ring")),
        (lambda: _cli("leq", "--ring", "Z/8", "--elem", "2", "--a", "[1,1]", "--b", "[0,2]"),
         (2, "parse error: --elem applies to the Z and F_p[x] families\n")),
        (lambda: _cli("verify", stdin='{"command": "class", "ring": "Z/8"}'),
         (2, "parse error: verify does not support command 'class'\n")),
    ],
    ids=["integer-bool", "poly-float", "truncated-float", "residue-not-prime",
         "residue-exponent-0", "residue-str", "truncated-not-prime", "extension-not-monic",
         "empty-product", "product-width", "product-parse", "identity-0", "mat-mul-across-rings",
         "block-diag-across-rings", "block-upper-across-rings", "block-upper-shape",
         "stack-vertical-shape", "generator-power-above-n", "z-unit-inverse", "is-invertible-2x3",
         "minor-float-index", "minor-str-index", "minor-bool-index", "minor-int-rows",
         "diagonal-0x0", "diagonal-too-many-exponents", "diagonal-float-exponent",
         "diagonal-bool-rows", "diagonal-bool-exponent", "diagonal-int-exponents",
         "pdivmod-by-zero", "ideal-member-of-zero", "signature-over-z", "phi-group-width",
         "psi-group-width", "monoid-width-over-z", "class-of-over-z", "rk-over-product",
         "group-element-lengths", "witness-chain-over-product", "regular-factor-across-rings",
         "cli-leq-elem-over-local", "cli-verify-class"],
)
def test_public_guards_refuse_as_documented(call, expected):
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as raised:
            call()
        assert type(raised.value) is type(expected) and str(raised.value) == str(expected)
    else:
        assert call() == expected


# ---------------------------------------------------------------------------
# minor profiles and the formal bounded search


def test_minor_profile_examples():
    # the minor profile of (0, 1, 2) is its prefix sums (0, 1, 3)
    assert minor_refutation((0, 1, 2), (1,)) == NegativeMinor(1, 0, 1)
    assert minor_refutation((0, 1, 2), (0, 2)) == NegativeMinor(2, 1, 2)
    assert minor_refutation((0, 1, 2), (0, 1, 3)) == NegativeMinor(3, 3, 4)
    assert minor_refutation((), ()) is None
    assert minor_refutation((), (0,)) is None  # the empty multiset is the zero class
    assert minor_refutation((0,), ()) == NegativeMinor(1, 0, None)
    assert minor_refutation((1, 1), (0, 2)) is None


def test_minor_lemma_grid_reproduction():
    # m ones, k a's, j a^2's below n ones and l a^2's forces k <= 2(n-m)
    for m, n, k, j, l in product(range(7), repeat=5):
        if k == 0:
            continue
        lhs = (0,) * m + (1,) * k + (2,) * j
        rhs = (0,) * n + (2,) * l
        if k > 2 * (n - m):
            assert minor_refutation(lhs, rhs) is not None, (m, n, k, j, l)


def test_leq_provable_examples():
    cert = leq_provable((1, 1), (0, 2))
    assert cert == Positive((PowerSwap(0, 2),))
    assert verify_formal_certificate((1, 1), (0, 2), cert)

    neg = leq_provable((0,), (1,))
    assert neg == NegativeMinor(1, 0, 1)
    assert verify_formal_certificate((0,), (1,), neg)

    inc = leq_provable((2,), (1,))
    assert inc == Positive((ExponentIncrease(1),))
    assert verify_formal_certificate((2,), (1,), inc)


def test_leq_provable_drop_and_cancel():
    cert = leq_provable((3,), (3, 5))
    assert isinstance(cert, Positive)
    assert verify_formal_certificate((3,), (3, 5), cert)
    assert leq_provable((), ()) == Positive(())


def test_leq_provable_unknown_stays_unknown():
    # equal profiles but no chain at depth 0 is reported as unknown
    assert leq_provable((1,), (0, 2), depth=0) is UNKNOWN


def multisets(size, top):
    """Every sorted tuple of at most size entries in 0..top."""
    return [
        c for k in range(size + 1) for c in combinations_with_replacement(range(top + 1), k)
    ]


GRID = [(a, b) for a in multisets(3, 4) for b in multisets(3, 4)]


@pytest.mark.parametrize("depth", [0, 1, 2, 4, 8])
def test_leq_provable_matches_the_unpruned_search_on_a_grid(depth):
    for a, b in GRID:
        assert leq_provable(a, b, depth) == reference_leq_provable(a, b, depth), (a, b)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 6), max_size=4),
    st.lists(st.integers(0, 6), max_size=4),
    st.integers(0, 10),
)
def test_leq_provable_matches_the_unpruned_search(a, b, depth):
    assert leq_provable(a, b, depth) == reference_leq_provable(a, b, depth)


def test_formal_bound_is_a_lower_bound_on_the_shortest_chain():
    # at every state of the unpruned search's chain, h is at most the moves left
    for a, b in GRID:
        start = (b, a)
        h = _formal_bound(*start)
        assert (h is None) == (minor_refutation(a, b) is not None), (a, b)
        assert (h == 0) == (a == b), (a, b)
        chain = reference_leq_provable(a, b, 8)
        if not isinstance(chain, Positive):
            continue
        state = start
        for done, mv in enumerate(chain.moves):
            assert _formal_bound(*state) <= len(chain.moves) - done, (a, b, done)
            state = _formal_apply(*state, mv)
        assert state[0] == state[1]


def test_joint_bound_is_at_least_the_separate_one():
    # min over K of max(P_K, N_K) >= max(min P_K, min N_K)
    for a, b in GRID:
        old, new = separate_formal_bound(b, a), _formal_bound(b, a)
        assert (old is None) == (new is None), (a, b)
        assert old is None or new >= old, (a, b)


def test_capped_fronts_keep_the_bound_and_the_chains(monkeypatch):
    # a front cut to one pair is the separate DP; a cap only loosens h, and
    # the chain found does not depend on it
    exact = {(a, b): (_formal_bound(b, a), leq_provable(a, b, 8)) for a, b in GRID}
    monkeypatch.setattr(semigroup, "_FRONT_CAP", 1)
    for a, b in GRID:
        assert _formal_bound(b, a) == separate_formal_bound(b, a), (a, b)
    monkeypatch.setattr(semigroup, "_FRONT_CAP", 2)
    for (a, b), (h, chain) in exact.items():
        capped = _formal_bound(b, a)
        assert (capped is None) == (h is None), (a, b)
        assert h is None or separate_formal_bound(b, a) <= capped <= h, (a, b)
        assert leq_provable(a, b, 8) == chain, (a, b)


def test_formal_bound_is_quick_when_every_matching_is_pareto_least():
    # t_i = i * 10^7 against t_i -+ 2^(i-1): each matching of T into its own
    # pair has P + N = 2^m - 1 with a distinct P, so all 2^m pairs are
    # Pareto-least; the uncapped DP built and sorted them all
    m = 24
    tgt = tuple(i * 10**7 for i in range(1, m + 1))
    cur = tuple(sorted(x for i, t in enumerate(tgt) for x in (t - 2**i, t + 2**i)))
    start = time.monotonic()
    h = _formal_bound(cur, tgt)
    assert leq_provable(tgt, cur, 8) is UNKNOWN
    assert time.monotonic() - start < 0.5
    assert separate_formal_bound(cur, tgt) <= h <= 2 * m + 2 ** (m - 1) - 2


@st.composite
def provable_pairs(draw):
    """(a, b, depth) with a <= b: b is built from a by reversed moves."""
    a = draw(st.lists(st.integers(0, 12), max_size=6))
    b = list(a)
    for _ in range(draw(st.integers(0, 12))):
        move = draw(st.sampled_from(("lower", "spread", "add")))
        if move == "add" or not b:
            if len(b) < 6:
                b.append(draw(st.integers(0, 12)))
        elif move == "lower":
            i = draw(st.integers(0, len(b) - 1))
            b[i] = max(b[i] - 1, 0)
        elif len(b) >= 2:  # undo a swap: lower the smaller value, raise the other
            i, j = sorted(draw(st.lists(st.integers(0, len(b) - 1), min_size=2, max_size=2,
                                        unique=True)), key=lambda k: b[k])
            if b[i] > 0:
                b[i] -= 1
                b[j] += 1
    return a, b, draw(st.integers(0, 30))


@settings(max_examples=300, deadline=None)
@given(provable_pairs())
def test_leq_provable_matches_the_breadth_first_search(case):
    a, b, depth = case
    assert leq_provable(a, b, depth) == bfs_leq_provable(a, b, depth)


# the chains the unpruned search returned, which took it 1.2 s and 13 ms
CHAIN_18 = (
    PowerSwap(0, 12), PowerSwap(0, 11), PowerSwap(0, 10), PowerSwap(1, 9), PowerSwap(1, 8),
    PowerSwap(1, 7), PowerSwap(2, 6), Cancel(5), PowerSwap(2, 13), PowerSwap(2, 12),
    PowerSwap(3, 11), PowerSwap(3, 10), PowerSwap(3, 9), PowerSwap(4, 8), Cancel(5),
    PowerSwap(4, 7), Cancel(5), PowerSwap(4, 6),
)
CHAIN_9 = (
    PowerSwap(0, 12), PowerSwap(0, 11), PowerSwap(1, 10), PowerSwap(1, 9), PowerSwap(2, 8),
    PowerSwap(2, 7), PowerSwap(3, 6), Cancel(4), PowerSwap(3, 5),
)

# the chains the breadth-first search returned for the cases it took 1.5 s,
# 5.9 s, 9.2 s, 11.6 s and 2.1 s to answer
CHAIN_17 = (
    PowerSwap(0, 9), Cancel(1), PowerSwap(0, 8), PowerSwap(0, 7), PowerSwap(0, 6), Cancel(5),
    PowerSwap(0, 9), PowerSwap(1, 8), Cancel(2), PowerSwap(1, 7), PowerSwap(1, 6), Drop(1),
    Drop(2), Drop(9), Drop(9), Drop(9), PowerSwap(2, 5),
)
CHAIN_20 = (
    PowerSwap(0, 9), Cancel(1), PowerSwap(0, 8), PowerSwap(0, 7), Cancel(6), PowerSwap(0, 9),
    PowerSwap(1, 8), Cancel(2), PowerSwap(1, 7), PowerSwap(1, 9), PowerSwap(2, 8), Cancel(3),
    PowerSwap(2, 7), Drop(0), Drop(0), Drop(6), Drop(9), Drop(9), Drop(9), PowerSwap(3, 6),
)
CHAIN_22 = (
    PowerSwap(0, 9), Cancel(1), PowerSwap(0, 8), Cancel(7), PowerSwap(0, 9), PowerSwap(0, 8),
    PowerSwap(1, 7), Cancel(2), Cancel(6), PowerSwap(1, 9), PowerSwap(1, 8), PowerSwap(2, 7),
    Cancel(3), PowerSwap(2, 9), Drop(0), Drop(0), Drop(0), Drop(8), Drop(9), Drop(9), Drop(9),
    PowerSwap(3, 6),
)
CHAIN_24 = (
    PowerSwap(0, 9), Cancel(1), Cancel(8), PowerSwap(0, 9), PowerSwap(0, 8), Cancel(7),
    PowerSwap(0, 9), PowerSwap(1, 8), Cancel(2), PowerSwap(1, 7), Cancel(6), PowerSwap(1, 9),
    PowerSwap(2, 8), Cancel(3), PowerSwap(2, 7), Drop(0), Drop(0), Drop(0), Drop(0), Drop(9),
    Drop(9), Drop(9), Drop(9), PowerSwap(3, 6),
)
CHAIN_601 = tuple(PowerSwap(k // 2, 900 - k) for k in range(599)) + (
    Cancel(300), PowerSwap(299, 301),
)


@pytest.mark.parametrize(
    "a, b, depth, expected",
    [
        ((5, 5, 5, 5, 5), (0, 0, 0, 12, 13), 18, Positive(CHAIN_18)),
        # the unpruned search answered this after 18.4 s
        ((6,) * 6, (0, 0, 0, 0, 18, 18), 26, UNKNOWN),
        ((4, 4, 4), (0, 0, 12), 8, UNKNOWN),
        ((4, 4, 4), (0, 0, 12), 14, Positive(CHAIN_9)),
        ((1, 2, 3, 4, 5), (0,) * 5 + (9,) * 5, 40, Positive(CHAIN_17)),
        ((1, 2, 3, 4, 5, 6), (0,) * 6 + (9,) * 6, 40, Positive(CHAIN_20)),
        ((1, 2, 3, 4, 5, 6, 7), (0,) * 7 + (9,) * 7, 100, Positive(CHAIN_22)),
        ((1, 2, 3, 4, 5, 6, 7, 8), (0,) * 8 + (9,) * 8, 100, Positive(CHAIN_24)),
        ((300, 300, 300), (0, 0, 900), 3000, Positive(CHAIN_601)),
    ],
    ids=["18-moves", "six-6s", "9-moves-at-depth-8", "9-moves", "1-to-5", "1-to-6", "1-to-7",
         "1-to-8", "601-moves"],
)
def test_long_formal_chains_are_quick(a, b, depth, expected):
    start = time.monotonic()
    assert leq_provable(a, b, depth) == expected
    assert time.monotonic() - start < 0.5
    if expected is not UNKNOWN:
        assert verify_formal_certificate(a, b, expected)


def test_formal_verify_is_linear_in_the_chain():
    # each move once sliced a sorted tuple: each of these took about 21 s
    size = 40000
    a, b = (1,) * size, (0,) * size
    increases = (ExponentIncrease(0),) * (size - 1)
    start = time.monotonic()
    assert verify_formal_certificate(a, b, Positive(increases + (ExponentIncrease(0),)))
    assert not verify_formal_certificate(a, b, Positive(increases + (Drop(0),)))
    assert time.monotonic() - start < 0.5


@pytest.mark.parametrize("a, b", [((1, 1), (0, 0)), ((0, 2, 2), (0, 1, 1)), ((4, 4, 4), (0, 0, 12))])
def test_leq_provable_bounds_each_state_once_per_call(monkeypatch, a, b):
    # the rounds for bound = h(start), ..., depth regenerate the same states;
    # (0, 0) -> (1, 1) takes 3 moves where h = 2, so it takes two rounds
    calls = []

    def counted(cur, tgt):
        calls.append((cur, tgt))
        return _formal_bound(cur, tgt)

    monkeypatch.setattr(semigroup, "_formal_bound", counted)
    assert leq_provable(a, b, 14) == reference_leq_provable(a, b, 14)
    assert len(calls) == len(set(calls)) > 0


def test_formal_verify_rejects_bad_moves():
    assert not verify_formal_certificate((1, 1), (0, 2), Positive((PowerSwap(2, 0),)))
    assert not verify_formal_certificate((1, 1), (0, 2), Positive((Cancel(1),)))
    assert not verify_formal_certificate((0,), (1,), NegativeMinor(1, 0, 2))


# ---------------------------------------------------------------------------
# one interpreter replays local and formal chains: oracles are the local
# replay it replaced and the Counter moves of the unpruned search


REPLAY_RINGS = [parse_ring(spec) for spec in ("Z/4", "Z/8", "F2[x]/x^3")]
MOVE_KINDS = [Cancel, PowerSwap, ExponentIncrease, Drop] * 3 + [None]
# not moves: a plain tuple and an order certificate
NOT_MOVES = [(0,), NegativeRank(1, Fraction(0), Fraction(0))]
# copies of each index in a target that every cancel of a chain of at most
# 8 moves can take from
FULL = 8


def draw_chain(data, state, apply, held, top):
    """Up to 8 moves, drawn along their replay from state by apply.

    A move that does not apply (apply gives None) leaves the state as it was.

    Each index is a value that held(state) names or any of -1..top, often
    -1 or top - 1, and a swap's j2 is often j1 + 1; now and then a move is
    no move at all.  So most moves apply, and a chain with one that does
    not is likely to apply around it.
    """
    moves = []
    for _ in range(data.draw(st.integers(0, 8))):
        index = st.sampled_from([-1, top - 1]) | st.integers(-1, top)
        if held(state):
            index = st.sampled_from(held(state)) | index
        kind = data.draw(st.sampled_from(MOVE_KINDS))
        if kind is None:
            mv = data.draw(st.sampled_from(NOT_MOVES))
        elif kind is PowerSwap:
            j1 = data.draw(index)
            mv = PowerSwap(j1, data.draw(st.just(j1 + 1) | index))
        else:
            mv = kind(data.draw(index))
        moves.append(mv)
        state = apply(state, mv) or state
    return tuple(moves)


def local_verdict(n, a, b, moves):
    replay = reference_apply_moves(n, b, a, moves)
    return replay is not None and replay[0] == replay[1]


def formal_verdict(a, b, moves):
    state = (tuple(sorted(b)), tuple(sorted(a)))
    for mv in moves:
        state = _formal_apply(*state, mv)
        if state is None:
            return False
    return state[0] == state[1]


# Besides a given target, each check takes the targets that the reference
# and the interpreter reach against a full target: so chains that both
# accept, and chains that one of them accepts in error, are checked as
# well as refused ones.


def check_local_replay(ring, a, b, moves):
    n = ring.nil_degree
    full = [FULL] * n
    cur, tgt = list(b), list(full)
    _replay(cur, tgt, moves, n)  # the counts where the interpreter stops
    targets = [a]
    for counts in (reference_apply_moves(n, b, full, moves), (cur, tgt)):
        if counts is not None:
            targets.append(tuple(x + FULL - t for x, t in zip(*counts)))
    for target in targets:
        if min(target) >= 0:
            expected = local_verdict(n, target, b, moves)
            assert verify_certificate(ring, target, b, Positive(moves)) == expected, (
                ring.spec, target, b, moves,
            )


FORMAL_FULL = Counter(dict.fromkeys(range(-1, 11), FULL))


def formal_start(b):
    return tuple(sorted(b)), tuple(sorted(FORMAL_FULL.elements()))


def check_formal_replay(a, b, moves):
    state = formal_start(b)
    for mv in moves:
        state = state and _formal_apply(*state, mv)
    cur, tgt = Counter(b), Counter(FORMAL_FULL)
    _replay(cur, tgt, moves, inf)  # the counts where the interpreter stops
    targets = [a]
    for counts in (state, (cur, tgt)):
        if counts:
            reached = Counter(counts[0]) + (FORMAL_FULL - Counter(counts[1]))
            targets.append(tuple(reached.elements()))
    for target in targets:
        expected = formal_verdict(target, b, moves)
        assert verify_formal_certificate(target, b, Positive(moves)) == expected, (
            target, b, moves,
        )


def single_moves(top):
    """Every move with indices in -1..top, and the not-moves."""
    indices = range(-1, top + 1)
    kinds = (Cancel, ExponentIncrease, Drop)
    swaps = [PowerSwap(j1, j2) for j1 in indices for j2 in indices]
    return [kind(i) for kind in kinds for i in indices] + swaps + NOT_MOVES


@pytest.mark.parametrize("ring", REPLAY_RINGS, ids=lambda ring: ring.spec)
def test_each_local_move_matches_the_reference_replay(ring):
    n = ring.nil_degree
    for b in product(range(3), repeat=n):
        for mv in single_moves(n + 1):
            check_local_replay(ring, b, b, (mv,))


def test_each_formal_move_matches_the_counter_moves():
    for b in multisets(3, 3):
        for mv in single_moves(5):
            check_formal_replay(b, b, (mv,))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_local_replay_matches_the_reference_replay(data):
    # indices -1..n+1 name a negative index, n and beyond, j2 = n and i = n - 1
    ring = data.draw(st.sampled_from(REPLAY_RINGS))
    n = ring.nil_degree
    element = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    a, b = data.draw(element), data.draw(element)
    moves = draw_chain(
        data, (list(b), [FULL] * n), lambda s, mv: reference_apply_moves(n, *s, (mv,)),
        lambda s: [i for i, count in enumerate(s[0]) if count], n + 1,
    )
    check_local_replay(ring, a, b, moves)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_formal_replay_matches_the_counter_moves(data):
    values = st.lists(st.integers(0, 8), max_size=6)
    a, b = data.draw(values), data.draw(values)
    moves = draw_chain(
        data, formal_start(b), lambda s, mv: _formal_apply(*s, mv), lambda s: s[0], 10
    )
    check_formal_replay(a, b, moves)


def shifted(mv, s):
    if isinstance(mv, PowerSwap):
        return PowerSwap(mv.j1 + s, mv.j2 + s)
    if isinstance(mv, (Cancel, ExponentIncrease, Drop)):
        return type(mv)(mv.i + s)
    return mv


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_formal_replay_keeps_its_verdicts_above_the_dense_counts(data):
    # formal moves have no cap, so adding s to every exponent and index keeps
    # the verdict; exponents above _DENSE_TOP replay in Counters, not lists
    values = st.lists(st.integers(0, 8), max_size=6)
    a, b = data.draw(values), data.draw(values)
    moves = draw_chain(
        data, formal_start(b), lambda s, mv: _formal_apply(*s, mv), lambda s: s[0], 10
    )
    state = formal_start(b)
    for mv in moves:
        state = state and _formal_apply(*state, mv)
    targets = [a]
    if state:
        targets.append(tuple((Counter(state[0]) + (FORMAL_FULL - Counter(state[1]))).elements()))
    s = semigroup._DENSE_TOP + 1
    for target in targets:
        expected = verify_formal_certificate(target, b, Positive(moves))
        moved = Positive(tuple(shifted(mv, s) for mv in moves))
        up = [x + s for x in target], [x + s for x in b]
        assert verify_formal_certificate(*up, moved) == expected, (target, b, moves)


@pytest.mark.parametrize(
    "exponents",
    [(1.5,), (1.9,), (True,), ("1",), (-1,), (0, -2), 3, None],
    ids=["float", "float-1.9", "bool", "str", "negative", "negative-second", "int", "none"],
)
def test_formal_exponents_are_checked_once(exponents):
    # a float or bool entry was once read by int(): (1.5,) <= (1,) held, and
    # a negative entry raised from verify_formal_certificate
    for call in (lambda: leq_provable(exponents, (1,)), lambda: leq_provable((1,), exponents),
                 lambda: minor_refutation(exponents, (1,)),
                 lambda: minor_refutation((1,), exponents)):
        with pytest.raises(PreconditionError):
            call()
    for cert in (Positive(()), NegativeMinor(1, -1, 1), NegativeMinor(1, 1, -1)):
        assert not verify_formal_certificate(exponents, (1,), cert)
        assert not verify_formal_certificate((1,), exponents, cert)


# ---------------------------------------------------------------------------
# regular factorizations


def test_regular_factor_identity_and_zero():
    ring = parse_ring("F2*F3")
    A = matrix(ring, [[(1, 2), (0, 1)], [(1, 0), (0, 0)]])
    res = regular_factor(A, A)
    assert res.ok and res.C == identity(ring, 2) and res.D == identity(ring, 2)
    Z = matrix(ring, [[(0, 0), (0, 0)]])
    res = regular_factor(Z, A)
    assert res.ok and verify_factor(Z, A, res)


def test_regular_factor_rank_one_into_rank_two():
    ring = parse_ring("F2*F3")
    A = matrix(ring, [[(1, 0), (0, 0)], [(0, 0), (0, 0)]])
    B = matrix(ring, [[(1, 1), (0, 0)], [(0, 0), (0, 0)]])
    assert class_of(A) == (1, 0) and class_of(B) == (1, 1)
    res = regular_factor(A, B)
    assert res.ok
    assert mat_mul(mat_mul(res.C, B), res.D) == A
    assert verify_factor(A, B, res)


def test_regular_factor_failing_component():
    ring = parse_ring("F2*F3")
    A = identity(ring, 2)
    B = matrix(ring, [[(1, 1), (0, 0)], [(0, 0), (1, 0)]])  # ranks (2, 1)
    res = regular_factor(A, B)
    assert not res.ok and res.failing_component == 1
    assert verify_factor(A, B, res)


def test_regular_factor_random_round_trips():
    ring = parse_ring("F2*F3")
    rng = random.Random(9)
    done = 0
    while done < 60:
        A = random_matrix(ring, rng, rng.randrange(1, 3), rng.randrange(1, 3))
        B = random_matrix(ring, rng, rng.randrange(1, 3), rng.randrange(1, 3))
        res = regular_factor(A, B)
        assert verify_factor(A, B, res)
        if res.ok:
            assert leq(ring, class_of(A), class_of(B))
        else:
            assert not leq(ring, class_of(A), class_of(B))
        done += 1


def test_verify_factor_rejects_mismatched_shapes_and_rings():
    ring = parse_ring("F2*F3")
    A = matrix(ring, [[(1, 0)]])
    B = matrix(ring, [[(1, 1)]])
    res = regular_factor(A, B)
    wide = matrix(ring, [[(1, 0), (0, 0)]])
    assert not verify_factor(A, B, FactorResult(wide, res.D))
    assert not verify_factor(A, B, FactorResult(res.C, wide))
    z8 = parse_ring("Z/8")
    one = identity(z8, 1)
    assert not verify_factor(one, one, NegativeComponent(0, 1, 0))
    assert not verify_factor(A, one, NegativeComponent(0, 1, 0))


def test_verify_factor_checks_every_field_of_a_refusal():
    ring = parse_ring("F2*F3")
    A = identity(ring, 2)
    B = matrix(ring, [[(1, 1), (0, 0)], [(0, 0), (1, 0)]])  # ranks (2, 1)
    refusal = regular_factor(A, B)
    assert refusal == NegativeComponent(1, 2, 1) and verify_factor(A, B, refusal)
    edited = [
        NegativeComponent(1, 3, 1),  # lhs
        NegativeComponent(1, 2, 0),  # rhs
        NegativeComponent(0, 2, 2),  # the true ranks, lhs == rhs
        NegativeComponent(2, 2, 1),  # index beyond the width
        NegativeComponent(-1, 2, 1),
    ]
    for claim in edited:
        assert not verify_factor(A, B, claim), claim
    assert not verify_factor(B, A, NegativeComponent(1, 1, 2))  # lhs < rhs
    assert not verify_factor(A, B, Positive(()))


# ---------------------------------------------------------------------------
# existence and axioms


def test_has_rank_function_examples():
    assert has_rank_function(parse_ring("Z/8"))
    assert has_rank_function(parse_ring("F2*F3"))
    assert has_rank_function(parse_ring("F2[x]/x^2"))


def test_block_rank_axioms_sample():
    rng = random.Random(31)
    ring = parse_ring("Z/8")
    for _ in range(60):
        A = random_matrix(ring, rng, rng.randrange(1, 3), rng.randrange(1, 3))
        B = random_matrix(ring, rng, rng.randrange(1, 3), rng.randrange(1, 3))
        C = random_matrix(ring, rng, A.rows, B.cols)
        for k in (1, 2, 3):
            ra = rk(ring, k, class_of(A))
            rb = rk(ring, k, class_of(B))
            assert rk(ring, k, class_of(block_diag(A, B))) == ra + rb
            assert rk(ring, k, class_of(block_upper(A, C, B))) >= ra + rb
            if A.cols == B.rows:
                assert rk(ring, k, class_of(mat_mul(A, B))) <= min(ra, rb)


def test_rank_profile_length():
    assert rank_profile(Z8, (1, 1, 1)) == (
        Fraction(1),
        Fraction(3, 2),
        Fraction(2),
    )


@pytest.mark.parametrize("spec", ["Z", "F2[x]", "F2*F3"])
def test_rank_profile_outside_the_local_families_is_a_precondition_error(spec):
    # it once raised AttributeError, reading the nil degree first
    with pytest.raises(PreconditionError, match="local families"):
        rank_profile(parse_ring(spec), (1, 0))


def test_rank_profile_reads_one_profile():
    ring = parse_ring("F2[x]/x^4096")
    a = tuple(i % 3 for i in range(4096))
    start = time.perf_counter()
    profile = rank_profile(ring, a)
    assert time.perf_counter() - start < 0.1  # n rk calls took 1.4 s
    assert all(profile[k - 1] == rk(ring, k, a) for k in (1, 2, 4095, 4096))


def test_negative_rank_is_the_first_excess_of_the_rank_profiles():
    # criterion 1's grid: five local rings, class norms up to 4
    for spec in LOCAL_RINGS:
        ring = parse_ring(spec)
        vecs = vectors_up_to(ring.nil_degree, 4)
        for a, b in product(vecs, vecs):
            cert = witness_chain(ring, a, b)
            if isinstance(cert, NegativeRank):
                pa, pb = rank_profile(ring, a), rank_profile(ring, b)
                k = next(k for k in range(1, len(pa) + 1) if pa[k - 1] > pb[k - 1])
                assert cert == NegativeRank(k, pa[k - 1], pb[k - 1])


def test_check_element_returns_a_valid_tuple_as_it_is():
    z8, prod = parse_ring("Z/8"), parse_ring("F2*F3")
    a = (0, 2, 1)
    assert check_element(z8, a) is a
    assert check_element(z8, [0, 2, 1]) == a
    assert check_element(prod, iter([1, 0])) == (1, 0)
    assert leq(z8, [1, 0, 0], (1, 0, 0))


@pytest.mark.parametrize(
    "bad",
    [(True, 0, 0), (0, False, 1), (-1, 0, 0), [0, -2, 0], (1.0, 0, 0), [0.5, 0, 0],
     ("1", 0, 0), (0, 0), [0, 0, 0, 0], (), 3, None],
    ids=["bool", "bool-false", "negative", "negative-list", "float", "float-list",
         "string", "short", "long", "empty", "int", "none"],
)
def test_check_element_rejects_malformed_operands(bad):
    with pytest.raises(PreconditionError):
        check_element(parse_ring("Z/8"), bad)
    with pytest.raises(PreconditionError):
        leq(parse_ring("Z/8"), bad, (1, 0, 0))


SPEC = StateSpec(generators=((1, 0, 0),), values=(1,))


# each public bound, index and coefficient is an int, as a class entry is: a
# float or a bool was compared as a number (and answered, or failed later with
# TypeError or AttributeError), and phi_group rounded it
@pytest.mark.parametrize(
    "call, bound",
    [
        (lambda x: leq_provable((1, 1), (0, 2), depth=x), "depth"),
        (lambda x: state_extension(Z8, SPEC, (0, 1, 0), ball=x), "ball"),
        (lambda x: state_extension(Z8, SPEC, (0, 1, 0), m_bound=x), "M"),
        (lambda x: rk(Z8, x, (0, 1, 0)), "k"),
        (lambda x: rk_for_square(parse_ring("Z"), 2, x), "bound"),
        (lambda x: state_range(Z8, (0, 1, 0), x, 3), "N"),
        (lambda x: state_range(Z8, (0, 1, 0), 3, x), "M"),
        (lambda x: phi_group(Z8, (x, 0, 0)), "a module coefficient"),
        (lambda x: presentation(x, zeros(Z8, 1, 1)), "gens"),
        (lambda x: free_presentation(Z8, x), "columns"),
        (lambda x: zeros(Z8, x, 2), "rows"),
        (lambda x: zeros(Z8, 1, x), "columns"),
        (lambda x: identity(Z8, x), "size"),
        (lambda x: minors_in_ideal(identity(Z8, 2), x, 2), "k"),
    ],
    ids=["depth", "ball", "extension-M", "k", "rk-square-bound", "N", "M", "phi-coefficient",
         "presentation-gens", "free-presentation", "zeros-rows", "zeros-columns", "identity",
         "minors-in-ideal"],
)
@pytest.mark.parametrize("bad", [2.5, 1.0, True, False, "1"])
def test_public_bounds_refuse_a_non_int(call, bound, bad):
    with pytest.raises(PreconditionError, match=f"^{bound} must be an int, not "):
        call(bad)
    call(1)  # an int in range answers
