import json
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankcert import (
    BoundExceededError,
    MinorSweep,
    Positive,
    PowerSwap,
    PreconditionError,
    StateRange,
    StateSpec,
    cone_member,
    group_add,
    group_diff,
    group_element,
    group_sub,
    has_rank_function,
    mat_mul,
    matrix,
    order_unit,
    parse_ring,
    pullback_rank,
    rank_profile,
    rk,
    rk_for_square,
    state_extension,
    state_range,
    verify_rk_square,
    verify_state_extension,
    verify_state_range,
)

from rankcert import states
from rankcert.acceptance import _vectors_up_to as vectors_up_to, brute_square_sweep
from rankcert.polys import min_irreducible
from rankcert.semigroup import _profile
from rankcert.states import _best_below

from helpers import (
    answers_sha256,
    extension_answers,
    fast_state_extension,
    raise_first_conflict,
    random_matrix,
    reference_state_extension,
    reference_state_range,
    replace,
    scan_state_range,
    sorted_difference_state_extension,
    span_with_values,
)

Z8 = parse_ring("Z/8")
E0, E1, E2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


# ---------------------------------------------------------------------------
# the positive cone


def test_cone_examples():
    assert cone_member(Z8, group_element(E0, E1))
    assert cone_member(Z8, group_element(E1, E1))
    assert not cone_member(Z8, group_element(E1, E0))


def test_cone_is_rank_criterion():
    for a in vectors_up_to(3, 3):
        for b in vectors_up_to(3, 3):
            expected = all(
                rk(Z8, k, b) <= rk(Z8, k, a) for k in (1, 2, 3)
            )
            assert cone_member(Z8, group_element(a, b)) == expected


def test_group_props_exhaustive():
    # the group law on every [x] - [y] with ||x||, ||y|| <= 3
    vecs = vectors_up_to(3, 3)
    elems = [group_element(x, y) for x in vecs for y in vecs]
    members = [g for g in elems if cone_member(Z8, g)]
    for g in members:
        for h in members:
            assert cone_member(Z8, group_add(g, h)), ("closure", g, h)
        assert not (cone_member(Z8, group_element(g.neg, g.pos)) and any(group_diff(g))), (
            "antisymmetry", g)
    # the order unit: t * <1> - g is positive for some t <= 3 * width + 1
    v = order_unit(Z8)
    for g in elems:
        assert any(
            cone_member(Z8, group_sub(group_element(tuple(t * x for x in v), (0, 0, 0)), g))
            for t in range(11)
        ), ("order-unit", g)


def test_cone_closure_random_pairs():
    rng = random.Random(2)
    vecs = vectors_up_to(3, 4)
    members = [
        group_element(a, b)
        for a in vecs
        for b in vecs
        if cone_member(Z8, group_element(a, b))
    ]
    for _ in range(200):
        g, h = rng.choice(members), rng.choice(members)
        assert cone_member(Z8, group_add(g, h))


def test_order_unit_bounds_e2():
    assert cone_member(Z8, group_element(E0, E2))


def test_regular_cone():
    ring = parse_ring("F2*F3")
    assert cone_member(ring, group_element((2, 1), (1, 1)))
    assert not cone_member(ring, group_element((1, 2), (2, 1)))


# ---------------------------------------------------------------------------
# state ranges


def test_state_range_e1():
    sr = state_range(Z8, E1, 12, 12)
    assert sr.p_lb == 0
    assert sr.q_ub == Fraction(2, 3)
    assert sr.exact == (Fraction(0), Fraction(2, 3))
    n, k, m = sr.q_witness
    # witness relation really holds: m*a + k*v <= n*v
    lhs = tuple(m * x + k * y for x, y in zip(E1, E0))
    assert all(
        rk(Z8, t, lhs) <= n * rk(Z8, t, E0) for t in (1, 2, 3)
    )
    assert Fraction(n - k, m) == Fraction(2, 3)


def test_state_range_normalized_at_unit():
    sr = state_range(Z8, E0, 8, 8)
    assert sr.p_lb == sr.q_ub == 1
    assert sr.exact == (Fraction(1), Fraction(1))


def test_state_range_zero_element():
    sr = state_range(Z8, (0, 0, 0), 6, 6)
    assert sr.p_lb == sr.q_ub == 0
    assert sr.exact == (Fraction(0), Fraction(0))


def test_state_range_monotone_refinement():
    for a in [E1, E2, (1, 1, 0), (0, 1, 2)]:
        prev = None
        for bound in range(4, 13):
            sr = state_range(Z8, a, bound, bound)
            if prev is not None:
                assert sr.p_lb >= prev.p_lb
                assert sr.q_ub <= prev.q_ub
            # the enumerated interval always brackets the exact one
            lo, hi = sr.exact
            assert sr.p_lb <= lo <= hi <= sr.q_ub
            prev = sr


def test_state_range_converges_to_extreme_ranks():
    for spec in ["Z/4", "Z/8", "Z/9"]:
        ring = parse_ring(spec)
        n = ring.nil_degree
        for a in vectors_up_to(n, 3):
            sr = state_range(ring, a, 12, 12)
            profile = rank_profile(ring, a)
            assert sr.p_lb == min(profile)
            assert sr.q_ub == max(profile)


def test_state_range_convex_combinations_lie_inside():
    rng = random.Random(17)
    for _ in range(200):
        a = tuple(rng.randrange(4) for _ in range(3))
        sr = state_range(Z8, a, 12, 12)
        weights = [rng.randrange(5) for _ in range(3)]
        if sum(weights) == 0:
            weights[rng.randrange(3)] = 1
        total = sum(weights)
        value = sum(
            Fraction(w, total) * rk(Z8, k + 1, a) for k, w in enumerate(weights)
        )
        assert sr.p_lb <= value <= sr.q_ub


def test_state_range_regular():
    ring = parse_ring("F2*F3")
    sr = state_range(ring, (1, 2), 12, 12)
    assert sr.p_lb == 1 and sr.q_ub == 2
    assert sr.exact == (Fraction(1), Fraction(2))


def test_state_range_bound_overflow():
    with pytest.raises(BoundExceededError):
        # m*a can never fit under n*v with such tiny n-bounds
        state_range(Z8, (9, 0, 0), 1, 1)


def test_check_states_exist_passes():
    # states exist where a rank function does: 2 * <1> <= <1> fails
    for spec in ["Z/4", "Z/8", "Z/9", "F2[x]/x^3", "F3[x]/x^2", "F2*F3"]:
        assert has_rank_function(parse_ring(spec))


# ---------------------------------------------------------------------------
# state extension


def test_extension_of_unit_subsemigroup_matches_state_range():
    spec = StateSpec(generators=(E0,), values=(Fraction(1),))
    for a in [E1, E2, (1, 1, 0)]:
        ext = state_extension(Z8, spec, a, ball=12, m_bound=12)
        sr = state_range(Z8, a, 12, 12)
        assert (ext.p_lb, ext.q_ub) == (sr.p_lb, sr.q_ub)


def test_extension_two_generator_instance():
    # W1 = <e0, e2> with values 1 and 0, extended at a = e1: the rank
    # functions fixing those values are the combinations of rk_1 and rk_2,
    # so the extension interval is [0, 1/2]; computed by enumeration.
    spec = StateSpec(generators=(E0, E2), values=(Fraction(1), Fraction(0)))
    ext = state_extension(Z8, spec, E1, ball=6, m_bound=6)
    assert ext.p_lb == 0
    assert ext.q_ub == Fraction(1, 2)
    b, c, m, mbar = ext.q_witness
    assert (b, c, m, mbar) == ((1, 0, 1), (0, 0, 0), 2, 0)


def test_extension_shifted_matches_unshifted():
    spec = StateSpec(generators=(E0, E2), values=(Fraction(1), Fraction(0)))
    plain = state_extension(Z8, spec, E1, ball=6, m_bound=6)
    shifted = state_extension(Z8, spec, E1, ball=6, m_bound=6, shifted=True)
    assert plain.p_lb == shifted.p_lb
    assert plain.q_ub == shifted.q_ub


def test_extension_rejects_additivity_conflict():
    spec = StateSpec(
        generators=(E0, (2, 0, 0)), values=(Fraction(1), Fraction(3))
    )
    with pytest.raises(PreconditionError):
        state_extension(Z8, spec, E1, ball=6, m_bound=4)


def test_extension_rejects_monotonicity_conflict():
    # e1 <= e0 but a larger value is assigned to e1
    spec = StateSpec(generators=(E0, E1), values=(Fraction(1), Fraction(2)))
    with pytest.raises(PreconditionError):
        state_extension(Z8, spec, E2, ball=6, m_bound=4)


def test_extension_rejects_conflict_below_one_multiple_of_a():
    # e1 <= e0 with the larger value: D = P(e1) - P(e0) = (-1, -1, -1) and
    # P(a) = (1, 2, 3), so the least m with e1 <= e0 + m<a> is exactly 0
    # (ceil(-1/2) = ceil(-1/3) = 0), the m = 0 relation that is the conflict
    spec = StateSpec(generators=(E0, E1), values=(Fraction(1), Fraction(2)))
    case = (Z8, spec, E0, 1, 2, False)
    with pytest.raises(PreconditionError, match=r"\(0, 1, 0\) <= \(1, 0, 0\) but value 2 > 1"):
        state_extension(*case)
    assert outcome(state_extension, *case) == outcome(reference_state_extension, *case)


# the conflict (0, 3, 0) <= (2, 0, 0) lies outside ball 2, where the bounds
# cross: p_lb 4/5 > q_ub 1/10
CROSSED = (Z8, StateSpec((E0, E1), (Fraction(1), Fraction(9, 10))), E2, 2, 12, False)


def test_crossed_extension_is_refused_and_does_not_verify():
    # crossed bounds prove that no state extends the spec; ball 3 finds the conflict itself
    with pytest.raises(PreconditionError, match=r"admits no state: witness \(\(0, 2, 0\)"):
        state_extension(*CROSSED)
    with pytest.raises(PreconditionError, match=r"\(0, 3, 0\) <= \(2, 0, 0\)"):
        state_extension(Z8, CROSSED[1], E2, 3, 12)
    crossed = StateRange(
        Fraction(4, 5), Fraction(1, 10), ((0, 2, 0), E0, 1, 0), (E0, E1, 1, 0), None
    )
    ring, spec, a, ball, m_bound, shifted = CROSSED
    assert not verify_state_extension(ring, spec, a, crossed, ball, m_bound, shifted)


def test_extension_requires_order_unit():
    spec = StateSpec(generators=(E2,), values=(Fraction(0),))
    with pytest.raises(PreconditionError):
        state_extension(Z8, spec, E1, ball=6, m_bound=4)


def test_extension_bounds_are_checked_before_the_spec():
    # ball -1 once emptied the span ("must contain the order-unit"), and M 0
    # or below ended in a bound overflow
    spec = StateSpec(generators=(E0, E2), values=(Fraction(1), Fraction(0)))
    with pytest.raises(PreconditionError, match="ball must be >= 0"):
        state_extension(Z8, spec, E1, ball=-1)
    for m_bound in (0, -2):
        with pytest.raises(PreconditionError, match="M must be >= 1"):
            state_extension(Z8, spec, E1, m_bound=m_bound)
    # ball 0 and M 1 pass: the span {0} then lacks the unit
    with pytest.raises(PreconditionError, match="order-unit"):
        state_extension(Z8, spec, E1, ball=0, m_bound=1)


# ---------------------------------------------------------------------------
# the integer-profile enumerations against the Fraction/leq reference loops

REFERENCE_RINGS = ("Z/4", "Z/8", "Z/32", "F2[x]/x^5", "F3[x]/x^4", "F2*F3", "F2*F3*F5")


def outcome(fn, *args):
    try:
        sr = fn(*args)
    except (PreconditionError, BoundExceededError) as exc:
        return type(exc).__name__, str(exc)
    return "ok", (sr.p_lb, sr.q_ub, sr.p_witness, sr.q_witness, sr.exact)


def vectors(width, top):
    return st.lists(st.integers(0, top), min_size=width, max_size=width).map(tuple)


@st.composite
def range_cases(draw):
    ring = parse_ring(draw(st.sampled_from(REFERENCE_RINGS)))
    width = ring.nil_degree if ring.is_local else ring.width
    a = draw(vectors(width, 3))
    return ring, a, draw(st.integers(0, 7)), draw(st.integers(0, 7))


# the reference loops cost |span|^2 * M, so the ball is lowered until the
# span holds at most this many elements
SPAN_CAP = 60


def span_size(gens, ball):
    span = {(0,) * len(gens[0])}
    for g in gens:
        for x in list(span):
            while any(g) and sum(x) + sum(g) <= ball:
                x = tuple(s + t for s, t in zip(x, g))
                span.add(x)
    return len(span)


@st.composite
def extension_cases(draw):
    """A spec from one state, sometimes perturbed or missing the unit.

    Three specs in four get one more generator: a copy of another, a sum
    of two others or zero, so that many elements have several coefficient
    vectors.  The generators come in any order, and the ball goes up to 8
    (see SPAN_CAP).
    """
    ring = parse_ring(draw(st.sampled_from(REFERENCE_RINGS)))
    width = ring.nil_degree if ring.is_local else ring.width
    unit = (1,) + (0,) * (width - 1) if ring.is_local else (1,) * width
    gens = [unit] + draw(st.lists(vectors(width, 1), max_size=2))
    extra = draw(st.sampled_from(("copy", "sum", "zero", None)))
    if extra == "copy":
        gens.append(draw(st.sampled_from(gens)))
    elif extra == "sum":
        x, y = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        gens.append(tuple(s + t for s, t in zip(x, y)))
    elif extra == "zero":
        gens.append((0,) * width)
    if draw(st.integers(0, 9)) == 0:
        gens = gens[1:] or [(0,) * width]
    gens = draw(st.permutations(gens))
    state = draw(st.integers(0, width - 1))
    if ring.is_local:
        values = [rk(ring, state + 1, g) for g in gens]
    else:
        values = [Fraction(g[state]) for g in gens]
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(values) - 1))
        values[i] += Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
    spec = StateSpec(tuple(gens), tuple(values))
    a = draw(vectors(width, 1))
    # some balls are too small to hold the unit
    ball = draw(st.integers(sum(unit) - 1, 8))
    while span_size(gens, ball) > SPAN_CAP:
        ball -= 1
    m_bound = draw(st.integers(1, 4))
    return ring, spec, a, ball, m_bound, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(range_cases())
def test_state_range_matches_reference(case):
    assert outcome(state_range, *case) == outcome(reference_state_range, *case)


@st.composite
def range_cases_at_cli_defaults(draw):
    ring, a, _, _ = draw(range_cases())
    return ring, a, draw(st.integers(0, 12)), draw(st.integers(0, 12))


@settings(max_examples=150, deadline=None)
@given(range_cases_at_cli_defaults())
def test_state_range_closed_form_matches_reference_up_to_cli_defaults(case):
    assert outcome(state_range, *case) == outcome(reference_state_range, *case)


def test_state_range_cost_does_not_grow_with_n_bound():
    start = time.perf_counter()
    sr = state_range(Z8, E1, 10**6, 12)
    assert time.perf_counter() - start < 1
    assert sr == state_range(Z8, E1, 12, 12)


def test_state_range_cost_does_not_grow_with_m_bound():
    for bound in (2**31, 10**18):
        start = time.perf_counter()
        sr = state_range(Z8, E1, bound, bound)
        assert time.perf_counter() - start < 0.01
        assert sr == state_range(Z8, E1, 12, 12)


@st.composite
def scan_cases(draw):
    ring = parse_ring(draw(st.sampled_from(REFERENCE_RINGS)))
    width = ring.nil_degree if ring.is_local else ring.width
    a = draw(vectors(width, 40))
    return ring, a, draw(st.integers(0, 300)), draw(st.integers(0, 300))


@settings(max_examples=300, deadline=None)
@given(scan_cases())
@example((Z8, (0, 0, 0), 12, 12))  # a = 0: r = R = 0
@example((Z8, E0, 12, 12))  # a = <1>: r = R = 1
@example((Z8, (9, 4, 0), 5, 3))  # r = 9 > N: p stops at N/1, and R = 35/3 leaves no q
@example((Z8, (0, 0, 40), 12, 12))  # r = 0 and R = 40/3 > N: no q
@example((parse_ring("Z/32"), (19, 0, 0, 0, 3), 97, 89))  # R = 98/5, q = 59/3
def test_state_range_matches_the_per_m_scan(case):
    assert outcome(state_range, *case) == outcome(scan_state_range, *case)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 60), st.integers(1, 60), st.integers(0, 40), st.integers(1, 40))
def test_best_below_is_the_best_fraction_in_the_box(a, b, n_cap, d_cap):
    u, w = _best_below(a, b, n_cap, d_cap)
    assert 0 <= u <= n_cap and 1 <= w <= d_cap and u * b <= a * w and gcd(u, w) == 1
    best = max(Fraction(min(n_cap, a * m // b), m) for m in range(1, d_cap + 1))
    assert Fraction(u, w) == best


@settings(max_examples=150, deadline=None)
@given(extension_cases())
@example(CROSSED)
def test_state_extension_matches_reference(case):
    assert outcome(state_extension, *case) == outcome(reference_state_extension, *case)


# the fast oracle's pair loop and witness scan cost about |span|^2 * M, so
# the ball is lowered until the span holds at most this many elements
WIDE_SPAN_CAP = 150


@st.composite
def wide_extension_cases(draw):
    """extension_cases at balls 8 to 16, beyond SPAN_CAP, and M up to 12.

    The specs keep up to 4 generators, copied, summed or zero ones among
    them, and values that give many pairs d = 0; a has zero entries, so
    P(a) has zero lanes, and is 0 one time in five, so P(a) = 0.
    """
    ring, spec, a, _, _, shifted = draw(extension_cases())
    if draw(st.integers(0, 4)) == 0:
        a = (0,) * len(a)
    ball = draw(st.integers(8, 16))
    while span_size(spec.generators, ball) > WIDE_SPAN_CAP:
        ball -= 1
    return ring, spec, a, ball, draw(st.integers(1, 12)), shifted


@settings(max_examples=200, deadline=None)
@given(wide_extension_cases())
@example(CROSSED)
def test_state_extension_matches_the_two_pass_kernel(case):
    # optima, witnesses and errors, against the kernel that read both orders
    # of every pair and found the witness in a second scan
    assert outcome(state_extension, *case) == outcome(fast_state_extension, *case)


@st.composite
def inconsistent_extension_cases(draw):
    """wide_extension_cases with random values, which most specs do not admit."""
    ring, spec, a, ball, m_bound, shifted = draw(wide_extension_cases())
    values = tuple(
        Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 3))) for _ in spec.generators
    )
    return ring, StateSpec(spec.generators, values), a, ball, m_bound, shifted


@settings(max_examples=200, deadline=None)
@given(inconsistent_extension_cases())
def test_monotonicity_conflict_is_the_first_in_sorted_order(case):
    # the one pass visits pairs of disjoint support only; the first conflict
    # of all ordered pairs must be among them
    ring, spec, _, ball, _, _ = case
    try:
        elems, denom, _ = span_with_values(ring, spec, ball)
        raise_first_conflict(elems, {x: _profile(ring, x) for x in elems}, denom)
    except PreconditionError as exc:
        assert outcome(state_extension, *case) == ("PreconditionError", str(exc))
    else:
        assert "is inconsistent" not in str(outcome(state_extension, *case))


def test_state_extension_cost_grows_slowly_with_ball():
    # the README spec: pairs of disjoint support number O(ball^2) here
    spec = StateSpec(generators=(E0, E2), values=(Fraction(1), Fraction(0)))
    start = time.perf_counter()
    sr = state_extension(Z8, spec, E1, ball=48, m_bound=12)
    assert time.perf_counter() - start < 1
    assert sr == state_extension(Z8, spec, E1, ball=12, m_bound=12)


def test_zero_generators_add_no_support_groups():
    # a zero generator leaves both the element and its support as they are;
    # eleven of them once made 2^11 support groups, and the kernel read every
    # pair of groups
    zeros = StateSpec((E0,) + ((0, 0, 0),) * 11, (1,) + (0,) * 11)
    _, _, supports = states._span_with_values(Z8, zeros, 1, 8, 2)
    assert set(supports) == {0, 1}
    sr = state_extension(Z8, zeros, E1, ball=1, m_bound=12)
    assert sr == state_extension(Z8, StateSpec((E0,), (1,)), E1, ball=1, m_bound=12)
    assert verify_state_extension(Z8, zeros, E1, sr, 1, 12, False)


def test_state_extension_lanes_hold_m_bound_10_18():
    # the README spec at ball 48: a lane holds M max P(a) + width * ball, here
    # 2 * 10**18 + 144 at a = e1, and the answers verify at the same bounds
    spec = StateSpec(generators=(E0, E2), values=(Fraction(1), Fraction(0)))
    start = time.perf_counter()
    sr = state_extension(Z8, spec, E1, ball=48, m_bound=10**18)
    assert time.perf_counter() - start < 1
    assert sr == state_extension(Z8, spec, E1, ball=12, m_bound=12)
    assert verify_state_extension(Z8, spec, E1, sr, 48, 10**18, False)
    # every state gives <1> the value 1; p's first test reads <1> <= 0 + M<1>
    unit = state_extension(Z8, spec, E0, ball=48, m_bound=10**18)
    assert (unit.p_lb, unit.q_ub) == (1, 1)
    assert verify_state_extension(Z8, spec, E0, unit, 48, 10**18, False)


def test_state_extension_settles_ties_without_a_search():
    # the README spec at ball 48: ties at the screened m are settled by one
    # test, so only the pairs that improve p or q are searched
    spec = StateSpec(generators=(E0, E2), values=(Fraction(1), Fraction(0)))
    least, calls = states._least, []

    def counted(*args):
        calls.append(args)
        return least(*args)

    expected = state_extension(Z8, spec, E1, ball=12, m_bound=12)
    for m_bound in (12, 10**18):
        calls.clear()
        with mock.patch.object(states, "_least", counted):
            sr = state_extension(Z8, spec, E1, ball=48, m_bound=m_bound)
        assert sr == expected
        assert len(calls) <= 8


@st.composite
def packed_lane_cases(draw):
    """wide_extension_cases, or their inconsistent variant, with M up to 10**18 one time in two."""
    ring, spec, a, ball, m_bound, shifted = draw(
        st.one_of(wide_extension_cases(), inconsistent_extension_cases())
    )
    if draw(st.booleans()):
        m_bound = draw(st.integers(1, 10**18))
    return ring, spec, a, ball, m_bound, shifted


Z2, F2F3 = parse_ring("Z/2"), parse_ring("F2*F3")
Z32, F2F3F5 = parse_ring("Z/32"), parse_ring("F2*F3*F5")
Z32_UNIT, Z32_E2, Z32_E3 = (1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)


@settings(max_examples=200, deadline=None)
@given(packed_lane_cases())
@example(CROSSED)
# one lane: a zero generator, and an additivity conflict
@example((Z2, StateSpec(((1,), (0,), (2,)), (1, 0, 2)), (1,), 9, 10**18, False))
@example((Z2, StateSpec(((1,), (0,), (3,)), (1, 0, 2)), (1,), 9, 10**18, True))
# a zero lane of P(a) over F2*F3: a zero generator, and the conflict (1, 0) <= (1, 1)
@example((F2F3, StateSpec(((1, 1), (0, 1), (0, 0)), (1, 0, 0)), (1, 0), 12, 10**18, False))
@example((F2F3, StateSpec(((1, 1), (1, 0)), (1, 2)), (0, 1), 12, 10**18, True))
# element lanes of ball.bit_length() + 1 bits, at the balls where that width
# steps (7, 8, 15, 16): witnesses with an entry equal to the ball, crossed
# bounds naming one, and conflict texts naming such elements
@example((Z32, StateSpec((Z32_UNIT, Z32_E2), (1, Fraction(1, 5))), (0, 0, 2, 0, 1), 7, 12, False))
@example((Z32, StateSpec((Z32_UNIT, (0, 0, 0, 2, 0)), (1, 1)), (1, 2, 0, 2, 1), 8, 12, False))
@example(
    (Z32, StateSpec((Z32_UNIT, Z32_E2), (1, Fraction(4, 7))), (2, 0, 2, 1, 2), 15, 10**18, True)
)
@example((Z32, StateSpec((Z32_UNIT, (0,) * 5), (1, 0)), (2, 0, 1, 1, 1), 16, 12, False))
@example((Z32, StateSpec((Z32_UNIT, Z32_E3, (0, 0, 0, 16, 0)), (1, 0, 1)), Z32_E2, 16, 12, False))
@example((F2F3F5, StateSpec(((1, 1, 1), (0, 0, 1)), (1, 0)), (0, 0, 2), 7, 10**18, False))
@example((F2F3F5, StateSpec(((1, 1, 1), (0, 0, 1), (0, 0, 8)), (1, 0, 1)), (0, 1, 0), 8, 12, True))
@example(
    (F2F3F5, StateSpec(((1, 1, 1), (1, 0, 0), (15, 0, 1)), (1, 1, 14)), (0, 1, 0), 16, 12, False)
)
def test_state_extension_matches_the_sorted_difference_kernel(case):
    # the packed-lane tests against the kernel they replaced, whose cost does
    # not grow with M
    assert outcome(state_extension, *case) == outcome(sorted_difference_state_extension, *case)


@settings(max_examples=100, deadline=None)
@given(packed_lane_cases(), st.randoms(use_true_random=False))
@example(CROSSED, random.Random(0))
def test_pair_kernel_ignores_visit_order_and_repeated_entries(case, rng):
    # every answer is the best ratio with the least witness, or the least
    # conflict: shuffling the support groups and their entries, and reading
    # one entry twice, must not change p, q, either witness or the conflict
    kernel, inputs = states._extension_optima, []

    def captured(*args):
        inputs.append(args)
        return kernel(*args)

    with mock.patch.object(states, "_extension_optima", captured):
        outcome(state_extension, *case)
    if not inputs:  # the span walk refused an additivity conflict
        return
    supports, *rest = inputs[0]
    groups = [(support, list(entries)) for support, entries in supports.items()]
    rng.shuffle(groups)
    for _, entries in groups:
        rng.shuffle(entries)
    entries = rng.choice(groups)[1]
    entries.insert(rng.randrange(len(entries) + 1), rng.choice(entries))
    assert kernel(dict(groups), *rest) == kernel(supports, *rest)


FROZEN = json.loads((Path(__file__).parent / "fixtures" / "extension_answers.json").read_text())


def test_state_extension_answers_are_frozen():
    # outcomes recorded with the sorted-difference kernel, on a seeded grid over
    # the shipped rings (helpers.extension_answer_cases)
    answers = extension_answers(FROZEN["cases"])
    assert answers[: len(FROZEN["first"])] == FROZEN["first"]
    assert answers_sha256(answers) == FROZEN["sha256"]


@settings(max_examples=150, deadline=None)
@given(range_cases())
def test_state_range_certificates_verify(case):
    ring, a, n_bound, m_bound = case
    try:
        sr = state_range(*case)
    except (PreconditionError, BoundExceededError):
        return
    assert verify_state_range(ring, a, sr, n_bound, m_bound)
    (n, k, m), (n2, k2, m2) = sr.p_witness, sr.q_witness
    assert not verify_state_range(ring, a, sr, n_bound, m - 1)
    assert not verify_state_range(ring, a, replace(sr, q_ub=sr.q_ub + 1), n_bound, m_bound)
    # the endpoints are extreme over the grid, so a one-step better claim fails its relation
    if n < n_bound:
        better = replace(sr, p_lb=Fraction(n + 1 - k, m), p_witness=(n + 1, k, m))
        assert not verify_state_range(ring, a, better, n_bound, m_bound)
    if n2 > 0:
        better = replace(sr, q_ub=Fraction(n2 - 1 - k2, m2), q_witness=(n2 - 1, k2, m2))
        assert not verify_state_range(ring, a, better, n_bound, m_bound)


@settings(max_examples=150, deadline=None)
@given(extension_cases())
def test_state_extension_certificates_verify(case):
    ring, spec, a, ball, m_bound, shifted = case
    try:
        sr = state_extension(*case)
    except (PreconditionError, BoundExceededError):
        return
    assert verify_state_extension(ring, spec, a, sr, ball, m_bound, shifted)
    # cancellation keeps a shifted relation valid, but only a shifted run may name one
    b, c, m, _ = sr.p_witness
    moved = replace(sr, p_witness=(b, c, m, 3))
    assert verify_state_extension(ring, spec, a, moved, ball, m_bound, shifted) == shifted
    assert not verify_state_extension(ring, spec, a, sr, ball, m - 1, shifted)
    assert not verify_state_extension(
        ring, spec, a, replace(sr, q_ub=sr.q_ub + 1), ball, m_bound, shifted
    )
    # the ball only caps the witness norms; the values are looked up below the witness
    assert verify_state_extension(ring, spec, a, sr, 10**9, m_bound, shifted)


# ---------------------------------------------------------------------------
# the square-zero endpoint and pullback ranks


def test_rk_for_square_integers():
    z = parse_ring("Z")
    res = rk_for_square(z, 2, bound=6)
    assert res.value == Fraction(1, 2)
    assert res.upper == Positive((PowerSwap(0, 2),))
    assert res.lower.clean and res.lower.candidates > 0
    assert verify_rk_square(z, 2, res)


def test_rk_for_square_polynomials():
    ring = parse_ring("F2[x]")
    res = rk_for_square(ring, (0, 1), bound=6)
    assert res.value == Fraction(1, 2)
    assert res.lower.clean
    assert verify_rk_square(ring, (0, 1), res)


def test_square_sweep_closed_form_matches_enumeration():
    z = parse_ring("Z")
    for bound in range(11):
        lower = rk_for_square(z, 2, bound=bound).lower
        assert lower == brute_square_sweep(bound)
        assert lower.clean


def test_rk_for_square_hypothesis_enforced():
    z = parse_ring("Z")
    with pytest.raises(PreconditionError):
        rk_for_square(z, 1, bound=4)  # 1 is a unit
    with pytest.raises(PreconditionError):
        rk_for_square(z, 0, bound=4)
    with pytest.raises(PreconditionError):
        rk_for_square(parse_ring("Z/8"), 2, bound=4)


def test_rk_for_square_refuses_a_negative_bound():
    # bound -1 covered 0 candidates and certified nothing, yet verified
    z = parse_ring("Z")
    with pytest.raises(PreconditionError, match="bounds must be >= 0"):
        rk_for_square(z, 1, bound=-1)  # a unit, whose hypothesis fails at m = 0
    res = rk_for_square(z, 2, bound=0)
    assert res.lower == MinorSweep(0, 0, 0) and verify_rk_square(z, 2, res)
    assert not verify_rk_square(z, 2, replace(res, lower=MinorSweep(-1, 0, 0)))


def test_rk_for_square_hypothesis_decided_at_any_bound():
    z, f3x = parse_ring("Z"), parse_ring("F3[x]")
    with pytest.raises(PreconditionError, match=r"-1\^0 lies in \(-1\^1\)"):
        rk_for_square(z, -1, bound=10**9)
    with pytest.raises(PreconditionError, match=r"0\^1 lies in \(0\^2\)"):
        rk_for_square(z, 0, bound=10**9)
    with pytest.raises(PreconditionError, match=r"2\^0 lies in \(2\^1\)"):
        rk_for_square(f3x, (2,), bound=10**9)
    # the first failure for 0 is at m = 1, beyond bound 0, but the upper
    # chain uses a^2, so the hypothesis is checked up to m = 2 at any bound
    with pytest.raises(PreconditionError, match=r"0\^1 lies in \(0\^2\)"):
        rk_for_square(z, 0, bound=0)
    res = rk_for_square(f3x, (1, 1), bound=10**6)
    assert res.lower.clean and verify_rk_square(f3x, (1, 1), res)


def test_quotient_state_realizes_zero_endpoint():
    z = parse_ring("Z")
    rk2 = pullback_rank(z, 2)
    assert rk2(matrix(z, [[2]])) == 0
    assert rk2(matrix(z, [[4]])) == 0
    assert rk2(matrix(z, [[3]])) == 1


def test_pullback_examples():
    z = parse_ring("Z")
    assert pullback_rank(z, 0)(matrix(z, [[2]])) == 1
    assert pullback_rank(z, 3)(matrix(z, [[3, 0], [0, 2]])) == 1
    with pytest.raises(PreconditionError):
        pullback_rank(z, 4)
    f2x = parse_ring("F2[x]")
    with pytest.raises(PreconditionError):
        pullback_rank(f2x, f2x.parse("x^2+1"))  # (x+1)^2 over F2
    rkx = pullback_rank(f2x, f2x.parse("x^2+x+1"))
    assert rkx(matrix(f2x, [[(1, 1, 1)]])) == 0
    assert rkx(matrix(f2x, [[(1, 1)]])) == 1


def test_pullback_fraction_field_rank():
    z = parse_ring("Z")
    A = matrix(z, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert pullback_rank(z, 0)(A) == 2
    f3x = parse_ring("F3[x]")
    B = matrix(f3x, [[(0, 1), (1,)], [(0, 0, 1), (0, 1)]])
    # second row is x * first row: rank 1 over the fraction field
    assert pullback_rank(f3x, 0)(B) == 1


@st.composite
def matrix_products(draw, entries, size=7):
    """The rows of an r x k times k x c product: its rank is at most k."""
    r, k, c = (draw(st.integers(1, size)) for _ in range(3))

    def block(n, m):
        return draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))

    return block(r, k), block(k, c)


@settings(max_examples=100, deadline=None)
@given(matrix_products(st.integers(-9, 9)))
def test_fraction_field_rank_matches_sympy(factors):
    import sympy

    z = parse_ring("Z")
    M = mat_mul(matrix(z, factors[0]), matrix(z, factors[1]))
    rows = [list(row) for row in M.entries]
    assert pullback_rank(z, 0)(M) == sympy.Matrix(rows).rank()


def test_fraction_field_rank_matches_sympy_on_sparse_products():
    # mostly-zero factors leave zeros in pivot columns; those rows must
    # still be scaled by the pivot before the exact division
    import sympy

    rng = random.Random(11)
    z = parse_ring("Z")
    for _ in range(300):
        r, k, c = (rng.randint(1, 6) for _ in range(3))
        A = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(k)] for _ in range(r)]
        B = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(c)] for _ in range(k)]
        M = mat_mul(matrix(z, A), matrix(z, B))
        assert pullback_rank(z, 0)(M) == sympy.Matrix([list(row) for row in M.entries]).rank()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(
    lambda p: st.tuples(st.just(p), matrix_products(vectors(2, p - 1), size=4))
))
def test_fraction_field_rank_over_polynomials_matches_a_large_residue_field(case):
    # entries have degree <= 2, so every nonzero minor has degree <= 8 and
    # stays nonzero modulo an irreducible of degree 9: the two ranks agree
    p, factors = case
    ring = parse_ring(f"F{p}[x]")
    M = mat_mul(matrix(ring, factors[0]), matrix(ring, factors[1]))
    assert pullback_rank(ring, 0)(M) == pullback_rank(ring, min_irreducible(p, 9))(M)


def test_pullback_rank_is_monotone_under_products():
    rng = random.Random(41)
    z = parse_ring("Z")
    rank = pullback_rank(z, 2)
    for _ in range(50):
        A = random_matrix(z, rng, 2, 2)
        B = random_matrix(z, rng, 2, 2)
        assert rank(mat_mul(A, B)) <= min(rank(A), rank(B))
