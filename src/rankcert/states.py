"""States of the class monoid: cones, ranges, extensions, pullbacks.

The Grothendieck group of a free class monoid is Z^width; its elements
and positive cone live in `semigroup`, and `group_props_check` checks
its group law exhaustively.  State ranges are the best order relations
against the order-unit v = <1> over a bounded grid:

    p = sup { (n - k)/m : n * v <= m * a + k * v }
    q = inf { (n - k)/m : n * v >= m * a + k * v }

Floor is monotone, so p (q) is the best approximation to the least
(greatest) profile ratio from below (above) within the grid, found by a
Stern-Brocot descent; each endpoint carries the witness that achieves it.

Extension intervals come from relations b <= c + m * a (and >=) between
elements b, c of a finitely generated subsemigroup with prescribed
values, worth (v(b) - v(c))/m, with an optional shifted variant allowing
relations b + t * a <= c + (m + t) * a.  The order is cancellative, so a
shifted relation holds iff its t = 0 form does, and every relation is
decided at t = 0.  The profile P is linear, so a relation depends on b
and c only through P(b) - P(c), and additive values make its worth
depend only on v(b) - v(c).  Removing the common part of the coefficient
vectors of b and c changes neither and keeps both in the ball, so the
optimum over all pairs is reached on pairs of disjoint support.  A pair
is read only with v(b) >= v(c) (both ways when equal): p >= 0 is reached
at b = c, and an upper relation with v(b) < v(c) puts c <= b, a
monotonicity conflict.  Profiles are packed into one int each, so a
relation is one test of the lanes' high bits (SWAR): a lane of B =
bitlen(M max P(a) + width * ball) + 1 bits holds m P(a) + P(c) - P(b),
biased by 2^(B - 1), exactly for 0 <= m <= M, as no lane of a profile in
the ball exceeds width * ball.  A pair's best m is searched for only when
the test at the m that would tie the optimum passes.  The witness, the
first relation in sorted (b, c, m) order worth the optimum, is kept by
the same pass: a nonzero generator g shared by b and c gives the earlier
witness (b - g, c - g, m).

Each order decision compares integer order profiles (semigroup._profile)
of operands validated once at the boundary.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

from .errors import BoundExceededError, PreconditionError
from .fields import FIELD_CAP, is_prime
from .normal_form import bareiss, eliminate
from .polys import is_irreducible, pdivmod, pscale
from .records import record
from .rings import ExtensionField, IntegerRing, Matrix, ModPrimePowerRing, PolyRing
from .semigroup import (
    Positive,
    PowerSwap,
    _profile,
    check_element,
    check_formal_hypothesis,
    cone_member,
    group_add,
    group_diff,
    group_element,
    group_neg,
    group_sub,
    has_rank_function,
    leq,
    monoid_add,
    monoid_identity,
    monoid_scale,
    order_unit,
    verify_formal_certificate,
)


# ---------------------------------------------------------------------------
# the group law of the Grothendieck group (semigroup.GroupElement)


@record
class GroupLawReport:
    closure_ok: bool
    antisymmetry_ok: bool
    order_unit_ok: bool
    elements_checked: int
    failures: tuple


def group_props_check(ring, max_norm: int = 3) -> GroupLawReport:
    """Exhaustive group-law check on elements [x] - [y], ||x||, ||y|| <= max_norm."""
    width = len(monoid_identity(ring))
    vecs = _vectors_up_to(width, max_norm)
    elems = [group_element(x, y) for x in vecs for y in vecs]
    members = [g for g in elems if cone_member(ring, g)]
    failures = []

    for g in members:
        for h in members:
            if not cone_member(ring, group_add(g, h)):
                failures.append(("closure", g, h))
    closure_ok = not failures

    anti = [
        g for g in members if cone_member(ring, group_neg(g)) and any(group_diff(g))
    ]
    antisymmetry_ok = not anti
    failures.extend(("antisymmetry", g) for g in anti)

    v = order_unit(ring)
    unit_ok = True
    bound = max_norm * max(1, width) + 1
    for g in elems:
        if not any(
            cone_member(ring, group_sub(group_element(monoid_scale(t, v), monoid_identity(ring)), g))
            for t in range(bound + 1)
        ):
            unit_ok = False
            failures.append(("order-unit", g))
    return GroupLawReport(
        closure_ok, antisymmetry_ok, unit_ok, len(elems), tuple(failures)
    )


def _vectors_up_to(width: int, norm: int):
    out = [()]
    for _ in range(width):
        out = [v + (t,) for v in out for t in range(norm + 1)]
    return [v for v in out if sum(v) <= norm]


# ---------------------------------------------------------------------------
# state ranges against the order-unit


@record
class StateRange:
    p_lb: Fraction
    q_ub: Fraction
    p_witness: tuple
    q_witness: tuple
    exact: object  # (low, high) Fractions when extreme states are known


def check_states_exist(ring):
    """Raise unless (m+1)v is incomparable above m * v for every m >= 1.

    It cannot raise on a ring that check_element accepts, whose P(<1>) is
    (1, ..., n) or (1, ..., 1), so state_range and state_extension skip it.
    """
    if not has_rank_function(ring):
        raise PreconditionError(f"no states exist: 2 * <1> <= 1 * <1> over {ring.spec}")


def _extremes(pa, pv):
    """(r, R): the least and the greatest P(a)_i / P(<1>)_i, as integer pairs."""
    low = high = (pa[0], pv[0])
    for x, y in zip(pa, pv):
        low = (x, y) if x * low[1] < low[0] * y else low
        high = (x, y) if x * high[1] > high[0] * y else high
    return low, high


def _best_below(a, b, n_cap, d_cap):
    """The largest u/w <= a/b with 0 <= u <= n_cap and 1 <= w <= d_cap, as (u, w).

    A Stern-Brocot descent from the Farey neighbours L = 0/1 and H = 1/0
    keeps L <= a/b < H and L in the box, each run of equal moves in one
    division.  It stops at L = a/b, or when L + H leaves the box.  Then no
    fraction of the box lies in (L, H), which holds a/b, since every
    fraction strictly between Farey neighbours is (i L.num + j H.num)/
    (i L.den + j H.den) with i, j >= 1; so u/w = L.  Fractions along the
    descent grow like Fibonacci numbers, so it takes O(log(N + M)) runs.
    """
    ln, ld, hn, hd = 0, 1, 1, 0
    while below := a * ld - b * ln:  # b ld (a/b - L), 0 once L = a/b
        above = b * hn - a * hd  # > 0, as H > a/b
        if below < above:  # the mediant exceeds a/b: H + j L > a/b
            j = (above - 1) // below
            hn, hd = hn + j * ln, hd + j * ld
            continue
        k = below // above  # L + k H <= a/b
        cap = min(k, (n_cap - ln) // hn, (d_cap - ld) // hd if hd else k)
        ln, ld = ln + cap * hn, ld + cap * hd
        if cap < k:
            break
    return ln, ld


def state_range(ring, a, n_bound: int = 12, m_bound: int = 12) -> StateRange:
    """Certified bounds p <= s(a) <= q over the states s with s(<1>) = 1.

    The grid holds the relations n v <= m a + k v (for p) and
    n v >= m a + k v (for q) with n, k in [0, N] and m in [1, M], each
    worth d/m for d = n - k.  Let r and R be the least and the greatest
    P(a)_i / P(v)_i, the exact interval (P(v) is (1..n) or (1..1)).  By
    the profile, n v <= m a + k v iff d P(v) <= m P(a), and P(v) > 0, so
    for each m the lower relation holds exactly for d <= min_i floor(m
    P(a)_i / P(v)_i) = floor(m r), as floor is monotone, and the upper
    one for d >= ceil(m R).  P(a) >= 0 and d ranges over [-N, N], so p is
    the largest d/m <= r and q the least d/m >= R with 0 <= d <= N and
    1 <= m <= M: p = _best_below(r), and q = 0 if R = 0, else the
    reciprocal of _best_below(1/R) with the bounds swapped, whose
    numerator 0 means that no q exists.  The cost is O(width + log(N +
    M)), whatever N and M are.

    Whether a relation holds depends only on its ratio d/m, so every
    grid triple worth an optimal u/w (in lowest terms) is a witness.
    Since u >= 0, the first of them in (n, k, m) order is (u, 0, w).
    """
    a = check_element(ring, a)
    if n_bound < 1 or m_bound < 1:
        raise PreconditionError("bounds must be >= 1")
    low, high = _extremes(_profile(ring, a), _profile(ring, order_unit(ring)))
    p = _best_below(*low, n_bound, m_bound)
    q = _best_below(high[1], high[0], m_bound, n_bound)[::-1] if high[0] else (0, 1)
    if not q[1]:
        raise BoundExceededError(
            f"no witness relation found within bounds ({n_bound}, {m_bound})"
        )
    return StateRange(
        p_lb=Fraction(*p),
        q_ub=Fraction(*q),
        p_witness=(p[0], 0, p[1]),
        q_witness=(q[0], 0, q[1]),
        exact=(Fraction(*low), Fraction(*high)),
    )


def _relation_holds(ring, b, c, m: int, pa, lower: bool) -> bool:
    """b <= c + m a (lower) or b >= c + m a (upper), by integer profiles."""
    rhs = [y + m * z for y, z in zip(_profile(ring, c), pa)]
    return all(x <= y if lower else x >= y for x, y in zip(_profile(ring, b), rhs))


def verify_state_range(ring, a, result: StateRange, n_bound: int, m_bound: int) -> bool:
    """Re-check both witness relations and the exact interval of a state_range result.

    A witness (n, k, m) must lie in the enumerated grid and relate n v to
    m a + k v as its endpoint (n - k)/m claims, in constant time; the
    exact interval is read off the profiles (_extremes), in time linear in
    the width.
    """
    try:
        a = check_element(ring, a)
        v, pa = order_unit(ring), _profile(ring, a)
    except PreconditionError:
        return False
    low, high = _extremes(pa, _profile(ring, v))
    if result.exact != (Fraction(*low), Fraction(*high)):
        return False
    ends = []
    for (n, k, m), lower in ((result.p_witness, True), (result.q_witness, False)):
        in_grid = 0 <= n <= n_bound and 0 <= k <= n_bound and 1 <= m <= m_bound
        b, c = monoid_scale(n, v), monoid_scale(k, v)
        holds = in_grid and _relation_holds(ring, b, c, m, pa, lower)
        ends.append(Fraction(n - k, m) if holds else None)
    return ends == [result.p_lb, result.q_ub]


# ---------------------------------------------------------------------------
# state extension from a finitely generated subsemigroup


@record
class StateSpec:
    generators: tuple  # monoid elements
    values: tuple  # Fractions, one per generator


def _pack(profile, lane: int) -> int:
    """A profile as one int, P_i in bits [i lane, (i + 1) lane)."""
    return sum(z << i * lane for i, z in enumerate(profile))


def _span_with_values(ring, spec: StateSpec, ball: int, lane: int):
    """Elements of the generated subsemigroup with ||.||_1 <= ball.

    Returns ({element: value numerator}, denominator, {support: {(element,
    packed profile, value numerator)}}): every value is an integer over
    one common denominator, a support is the bitmask of the generators
    with a nonzero coefficient in some combination reaching the element,
    and profiles are packed in lanes of the given width (_pack).  Each
    step of the walk adds a generator's packed profile, value and norm:
    the profile is additive, and no lane of an element in the ball
    reaches 2^(lane - 1) (state_extension).  The first additivity
    conflict, in lexicographic order of the coefficients, is rejected.
    """
    gens = [check_element(ring, g) for g in spec.generators]
    vals = [Fraction(v) for v in spec.values]
    if len(gens) != len(vals):
        raise PreconditionError("generator/value length mismatch")
    denom = lcm(*(v.denominator for v in vals))
    combos = [(monoid_identity(ring), 0, 0, 0, 0)]
    for i, (g, v) in enumerate(zip(gens, vals)):
        pg, ng = _pack(_profile(ring, g), lane), sum(g)
        gv = v.numerator * (denom // v.denominator)
        grown = []
        for combo in combos:
            grown.append(combo)
            elt, prof, val, support, norm = combo
            support |= 1 << i
            while norm + ng <= ball:
                elt, prof = tuple(map(add, elt, g)), prof + pg
                val, norm = val + gv, norm + ng
                grown.append((elt, prof, val, support, norm))
                if not ng:  # a zero generator is taken once, to expose its value
                    break
        combos = grown
    elems, supports = {}, {}
    for elt, prof, val, support, _ in combos:
        prev = elems.setdefault(elt, val)
        if prev != val:
            raise PreconditionError(
                f"state spec is inconsistent: element {elt} gets values "
                f"{Fraction(prev, denom)} and {Fraction(val, denom)}"
            )
        supports.setdefault(support, set()).add((elt, prof, val))
    return elems, denom, supports


def _least(pa, high, e, lo, hi):
    """The least m in [lo, hi] with every lane of m P(a) + E >= 0, given it holds at hi."""
    while lo < hi:
        mid = (lo + hi) // 2
        if (mid * pa + high + e) & high == high:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _extension_optima(supports, pa, high, m_bound: int, zero):
    """Best (d, m, witness) for p and for q, and the least conflicting pair.

    For b, c with d = v(b) - v(c) > 0 and packed E = P(c) - P(b), b <= c +
    m<a> iff no lane of m P(a) + E is negative, b >= c + m<a> iff no lane
    of -m P(a) - E is, and a lane where P(a) = 0 reads the sign of E for
    every m.  So the lower relation holds for every m >= least and the
    upper for every m <= most.  A pair relating at m = 0 is a conflict, b
    <= c with v(b) > v(c), of which the least (b, c) is returned (None
    without one); else it is worth d / least for p and d / min(M, most)
    for q.  p starts at 0 with the least witness (0, 0, 1), so a pair with
    d = 0 decides q only, at m = 1.  A pair is screened for p at floor(d
    p_m / p_d), capped at M, and for q at ceil(d q_m / q_d); only if it
    passes is least, or most = M - the least k with k P(a) - M P(a) - E >=
    0, found by binary search (_least).  q's witness is None when no pair
    has an upper relation.
    """
    p_d, p_m, p_w = 0, 1, (zero, zero, 1)
    q_d, q_m, q_w = 1, 0, None  # 1/0 stands above every ratio
    conflict = None
    groups = list(supports.items())
    for i, (sb, bs) in enumerate(groups):
        for sc, cs in groups[i:]:
            if sb & sc:
                continue
            for x, px, vx in bs:
                for y, py, vy in cs:
                    d, e = vx - vy, py - px
                    if not d:
                        for w, e in (((x, y, 1), e), ((y, x, 1), -e)):
                            if (q_d or w < q_w) and (high - pa - e) & high == high:
                                q_d, q_m, q_w = 0, 1, w
                        continue
                    b, c = x, y
                    if d < 0:
                        b, c, d, e = y, x, -d, -e
                    if (high + e) & high == high:
                        conflict = min(conflict or (b, c), (b, c))
                        continue
                    m = min(d * p_m // p_d, m_bound) if p_d else m_bound
                    if m and (m * pa + high + e) & high == high:
                        m = _least(pa, high, e, 1, m)
                        if d * p_m > p_d * m or (b, c, m) < p_w:
                            p_d, p_m, p_w = d, m, (b, c, m)
                    m = max(-(-d * q_m // q_d), 1) if q_d else m_bound + 1
                    if m <= m_bound and (high - m * pa - e) & high == high:
                        m = m_bound - _least(pa, high, -e - m_bound * pa, 0, m_bound - m)
                        if d * q_m < q_d * m or (b, c, m) < q_w:
                            q_d, q_m, q_w = d, m, (b, c, m)
    return (p_d, p_m, p_w), (q_d, q_m, q_w), conflict


def state_extension(
    ring,
    spec: StateSpec,
    a,
    ball: int = 12,
    m_bound: int = 12,
    shifted: bool = False,
) -> StateRange:
    """Extension interval of the state fixed on a subsemigroup, at a.

    Relations b + t<a> <= c + (m + t)<a> with b, c in the span are
    enumerated for 1 <= m <= m_bound (ball >= 0 and m_bound >= 1 are
    required).  Without `shifted` only t = 0 is allowed.  The order is
    cancellative, so a shifted relation holds iff b <= c + m<a> does:
    every relation is decided at t = 0, and the witness (b, c, m, t)
    always has t = 0 either way.

    The spec is checked first for additivity (_span_with_values), then
    for monotonicity (x <= y implies v(x) <= v(y)), then for the unit
    <1> with value 1.  A monotonicity conflict can lie outside the ball;
    when it shows only as p_lb > q_ub, no state extends the spec either,
    and the crossed bounds are refused with both witnesses.  Pairs of
    disjoint support reach every optimum and every monotonicity conflict
    (_extension_optima): the first conflict (x, y) in sorted order is
    among them, as a shared generator g would make (x - g, y - g) an
    earlier one.  A pair (b, c) with d = v(b) - v(c) < 0 decides nothing:
    its ratio for p is negative, and b >= c + m<a> puts c <= b (P(a) >=
    0), so the reversed pair is a conflict.  The witness, the first (b, c,
    m) in sorted order worth the optimum, is visited by the same pass: a
    generator g shared by combinations reaching b and c gives the witness
    (b - g, c - g, m), earlier unless g = 0, which drops out of both.

    Each relation is one test of packed integer profiles (_pack), exact
    for lanes of B = bitlen(M max P(a) + width * ball) + 1 bits: a
    profile lane in the ball is at most width * ball, so every lane of
    m P(a) + P(c) - P(b) with 0 <= m <= M lies in (-2^(B - 1), 2^(B -
    1)), and biased by 2^(B - 1) it borrows nothing from the next.  A pair
    costs one subtraction of packed ints and at most three tests, and
    O(log M) more tests when it passes a screen.
    """
    a = check_element(ring, a)
    if ball < 0:
        raise PreconditionError("ball must be >= 0")
    if m_bound < 1:
        raise PreconditionError("M must be >= 1")
    pa, zero = _profile(ring, a), monoid_identity(ring)
    lane = (m_bound * max(pa) + len(pa) * ball).bit_length() + 1
    elems, denom, supports = _span_with_values(ring, spec, ball, lane)
    (p_d, p_m, p_w), (q_d, q_m, q_w), conflict = _extension_optima(
        supports, _pack(pa, lane), _pack([1 << lane - 1] * len(pa), lane), m_bound, zero
    )
    if conflict is not None:
        x, y = conflict
        raise PreconditionError(
            f"state spec is inconsistent: {x} <= {y} but value "
            f"{Fraction(elems[x], denom)} > {Fraction(elems[y], denom)}"
        )
    if elems.get(order_unit(ring)) != denom:
        raise PreconditionError(
            "state spec must contain the order-unit <1> with value 1"
        )
    if q_w is None:
        raise BoundExceededError(
            f"no witness relation found within bounds ({ball}, {m_bound})"
        )
    p_lb, q_ub = Fraction(p_d, p_m * denom), Fraction(q_d, q_m * denom)
    if p_d * q_m > q_d * p_m:  # p_lb > q_ub, with p_m, q_m >= 1
        # every extending state s has p_lb <= s(a) <= q_ub, so none exists
        raise PreconditionError(
            f"state spec admits no state: witness {p_w} gives p_lb = {p_lb}, "
            f"above q_ub = {q_ub} from witness {q_w}"
        )
    return StateRange(
        p_lb=p_lb,
        q_ub=q_ub,
        p_witness=(*p_w, 0),
        q_witness=(*q_w, 0),
        exact=None,
    )


def _values_below(gens, values, top) -> dict:
    """{element: value} over the span's elements componentwise <= top.

    Each element keeps the value of the first combination reaching it; a
    consistent spec gives every combination the same value.
    """
    found = {(0,) * len(top): Fraction(0)}
    for g, v in zip(gens, values):
        for elt, val in list(found.items()):
            while any(g):
                elt, val = monoid_add(elt, g), val + v
                if any(x > t for x, t in zip(elt, top)):
                    break
                found.setdefault(elt, val)
    return found


def verify_state_extension(
    ring, spec: StateSpec, a, result: StateRange, ball: int, m_bound: int, shifted: bool
) -> bool:
    """Re-check both witness relations of a state_extension result.

    A witness (b, c, m, mbar) needs ||b||_1, ||c||_1 <= ball, 1 <= m <=
    m_bound and mbar = 0 unless shifted; its relation is decided at t = 0.
    Values come from the span below b and c, so the cost is bounded by
    the witness, not the ball.  An inconsistent spec admits no state, so
    the emitter's consistency scan is not repeated; a result whose p_lb
    exceeds its q_ub proves the same and is refused, and so is a spec
    whose span does not give the order unit <1> the value 1.
    """

    def endpoint(witness, lower):
        b, c, m, mbar = witness
        b, c = check_element(ring, b), check_element(ring, c)
        if max(sum(b), sum(c)) > ball or not 1 <= m <= m_bound:
            return None
        if mbar < 0 or (mbar > 0 and not shifted):
            return None
        if not _relation_holds(ring, b, c, m, pa, lower):
            return None
        values = _values_below(gens, spec.values, tuple(map(max, b, c)))
        if b not in values or c not in values:
            return None
        return (values[b] - values[c]) / m

    try:
        pa = _profile(ring, check_element(ring, a))
        gens = [check_element(ring, g) for g in spec.generators]
        ends = (endpoint(result.p_witness, True), endpoint(result.q_witness, False))
    except PreconditionError:
        return False
    if len(gens) != len(spec.values) or ends != (result.p_lb, result.q_ub):
        return False
    # a state gives <1> the value 1; the span below <1> has at most
    # 2^width elements, whatever the ball
    unit = order_unit(ring)
    if _values_below(gens, spec.values, unit).get(unit) != 1:
        return False
    # a refused witness reads None; crossed bounds prove that no state extends the spec
    p_lb, q_ub = ends
    return p_lb is not None and q_ub is not None and p_lb <= q_ub


# ---------------------------------------------------------------------------
# the square-zero endpoint: sup of rk(a) among states killing a^2


@record
class MinorSweep:
    """Record of the refutation of all sub-1/2 relations up to a bound.

    Every candidate c + m<a> <= b with (n - m1)/m < 1/2 (see
    _square_sweep) is refuted by the index k = m1 + m: either
    mu_k(lhs) = m < 2(k - n) = mu_k(rhs), or rhs has fewer than k
    entries.  So `refuted` equals `candidates` for every bound.
    """

    bound: int
    candidates: int
    refuted: int

    @property
    def clean(self) -> bool:
        return self.candidates == self.refuted


@record
class RkSquareResult:
    value: Fraction
    upper: Positive  # chain certifying 2<a> <= <1> + <a^2>
    lower: MinorSweep


def _square_candidates(bound: int) -> int:
    """Number of sub-1/2 grid relations up to bound, in closed form.

    Counts (n, l, m1, j, m) with n, l, m1, j in [0, bound], m in
    [1, bound] and 2(n - m1) < m.  l and j are free; with d = n - m1,
    which (bound + 1 - |d|) pairs (n, m1) attain, every m counts when
    d <= 0 and max(0, bound - 2d) of them when d > 0.
    """
    b = bound
    if b < 1:
        return 0
    top = (b - 1) // 2  # the largest d > 0 with some m counting
    # sum over d = 1..top of (b + 1 - d)(b - 2d), by power sums of d
    s1 = top * (top + 1) // 2
    s2 = top * (top + 1) * (2 * top + 1) // 6
    positive = top * b * (b + 1) - (3 * b + 2) * s1 + 2 * s2
    non_positive = b * (b + 1) * (b + 2) // 2
    return (b + 1) ** 2 * (non_positive + positive)


def _square_sweep(bound: int) -> MinorSweep:
    """Refute every grid relation c + m<a> <= b whose value ratio is < 1/2.

    Elements range over b = n<1> + l<a^2>, c = m1<1> + j<a^2> with all
    coefficients <= bound, so lhs has exponents (0^m1, 1^m, 2^j) and rhs
    (0^n, 2^l).  The index k = m1 + m refutes every candidate with
    (n - m1)/m < 1/2: mu_k(lhs) = m < 2(k - n) = mu_k(rhs), or rhs has
    fewer than k entries.  The sweep is therefore clean by that lemma,
    which pins the infimum at 1/2, and only its size is computed.
    """
    candidates = _square_candidates(bound)
    return MinorSweep(bound, candidates, candidates)


def rk_for_square(ring, a, bound: int = 6) -> RkSquareResult:
    """Certified sup of rk(a) over rank functions with rk(a^2) = 0.

    Upper side: the one-move chain PowerSwap(0, 2), which turns the
    exponents (0, 2) of <1> + <a^2> into (1, 1) of 2<a>, caps the value
    at 1/2.  Lower side: every grid relation c + m<a> <= b that would
    push the infimum below 1/2 is refuted by the minor index k = m1 + m
    (see _square_sweep), so the lower certificate is that lemma together
    with the number of relations it covers, for a bound >= 0.
    """
    check_formal_hypothesis(ring, a, bound)
    if bound < 0:
        raise PreconditionError("bounds must be >= 0")
    return RkSquareResult(Fraction(1, 2), Positive((PowerSwap(0, 2),)), _square_sweep(bound))


def verify_rk_square(ring, a, result: RkSquareResult) -> bool:
    """Re-check both certificates of a rk_for_square result.

    The lower certificate is checked by the refuting-index lemma: it
    must claim every candidate refuted, and its candidate count is
    compared with the closed form, in constant time.  A bound below 0
    covers no relation, so it certifies nothing.
    """
    try:
        check_formal_hypothesis(ring, a, result.lower.bound)
    except PreconditionError:
        return False
    if result.value != Fraction(1, 2):
        return False
    if not verify_formal_certificate((1, 1), (0, 2), result.upper):
        return False
    lower = result.lower
    candidates = _square_candidates(lower.bound)
    return lower.bound >= 0 and lower.refuted == lower.candidates == candidates


# ---------------------------------------------------------------------------
# pullback rank functions on Z and F_p[x]


class PullbackRank:
    """Rank through a quotient or fraction field of Z or F_p[x].

    pi = 0 gives the rank over the fraction field, by `bareiss`; a prime
    pi gives the rank over the residue field modulo pi, counted by
    `eliminate`.  Both are exact.  A residue field of prime order is Z/p,
    the local family with n = 1: over Z an entry is reduced mod |pi|, and
    over F_p[x] a pi of degree 1 reduces an entry by evaluation at its
    root.  Only a pi of degree k >= 2 over F_p[x] gives GF(p^k), a
    `rings.ExtensionField` modulo the monic pi: local, with c = 0 and nil
    degree 1.
    """

    def __init__(self, ring, pi):
        if not isinstance(ring, (IntegerRing, PolyRing)):
            raise PreconditionError("pullback_rank needs Z or F_p[x]")
        self.ring = ring
        self.pi = ring.normalize(pi)
        if ring.is_zero(self.pi):
            self.field = None
            self.description = f"rank over the fraction field of {ring.spec}"
            return
        if isinstance(ring, IntegerRing):
            p = abs(self.pi)
            if not is_prime(p):
                raise PreconditionError(f"{self.pi} is not prime in Z")
            self.field = ModPrimePowerRing(p, 1)
            self._reduce = self.field.normalize
        else:
            degree = len(self.pi) - 1  # p^degree > FIELD_CAP from FIELD_CAP.bit_length() on
            if degree >= 2 and ring.p ** min(degree, FIELD_CAP.bit_length()) > FIELD_CAP:
                raise PreconditionError(f"pi gives a residue field above order {FIELD_CAP}")
            if not is_irreducible(self.pi, ring.p):
                raise PreconditionError(
                    f"{ring.format(self.pi)} is not irreducible in {ring.spec}"
                )
            p = ring.p
            lead_inv = pow(self.pi[-1], -1, p)
            monic = pscale(self.pi, lead_inv, p)
            if degree == 1:
                self.field = ModPrimePowerRing(p, 1)
                self._reduce = lambda x: _evaluate(x, -monic[0] % p, p)
            else:
                field = ExtensionField(p, degree, monic)
                self.field = field
                self._reduce = lambda x: field.encode(pdivmod(x, monic, p)[1])
        self.description = f"rank over {ring.spec} modulo ({ring.format(self.pi)})"

    def __call__(self, M: Matrix) -> Fraction:
        if M.ring != self.ring:
            raise PreconditionError("matrix is over a different ring")
        if self.field is None:
            return Fraction(bareiss(self.ring, M.entries)[0])
        grid = [[self._reduce(x) for x in row] for row in M.entries]
        return Fraction(len(eliminate(self.field, grid)[0]))


def _evaluate(a, root, p) -> int:
    """a(root) mod p, by Horner's rule: a mod (x - root) in Z/p."""
    acc = 0
    for coeff in reversed(a):
        acc = (acc * root + coeff) % p
    return acc


def pullback_rank(ring, pi) -> PullbackRank:
    return PullbackRank(ring, pi)

