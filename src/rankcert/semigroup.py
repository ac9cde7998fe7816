"""Matrix classes under subequivalence, their order, and certificates.

Over an Artinian local family with radical generator c and c^n = 0, the
classes of matrices under mutual subequivalence form the free abelian
monoid on the generators <c^0>, ..., <c^(n-1)>; a class is stored as the
tuple of generator multiplicities.  Over a product of fields a class is
the tuple of componentwise ranks.  An element [a] - [b] of the
Grothendieck group Z^width is stored as a reduced (pos, neg) pair.

The order is decided through the rank functions rk_k (local) or
componentwise rank comparison (regular), and every decision carries a
certificate: a replayable chain of elementary moves, an explicit
factorization, or a violated rank/minor-valuation inequality.  Each
public entry point checks each class operand once (check_element) and
reads every decision and rank refutation off its integer profile
(_profile); the private helpers trust what they are given.  Move
indices follow the convention that index n names the class of the zero
matrix (c^n = 0), so a move may legally produce "generator n" and add
nothing.  One interpreter, _replay, re-checks every chain on exponent
counts, in time linear in its moves and entries: a local chain with that
cap n, and a formal chain over (Z, a) or (F_p[x], a) with no cap.  An
emitter does not re-check its own certificate: verify_certificate
replays a chain, and verify_factor multiplies out a factorization.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import inf

from .errors import PreconditionError, check_int
from .normal_form import diagonal_matrix, eliminated, factors, inverse_factors
from .records import record
from .rings import IntegerRing, Matrix, PolyRing, identity, mat_mul


# ---------------------------------------------------------------------------
# certificate vocabulary


@record
class PowerSwap:
    """Replace e_{j1} + e_{j2} by e_{j1+1} + e_{j2-1} (j1 < j2)."""

    j1: int
    j2: int


@record
class ExponentIncrease:
    """Replace e_i by e_{i+1}."""

    i: int


@record
class Drop:
    """Delete one copy of e_i."""

    i: int


@record
class Cancel:
    """Remove a common copy of e_i from both sides (order additivity)."""

    i: int


@record
class Positive:
    """Chain of moves transforming the right element down to the left one."""

    moves: tuple
    ok = True  # each order certificate's class says whether it proves lhs <= rhs


@record
class NegativeRank:
    """rk_k(lhs original element) > rk_k(rhs), refuting lhs <= rhs."""

    k: int
    lhs: Fraction
    rhs: Fraction
    ok = False


@record
class NegativeMinor:
    """Minimal k-minor valuation dropped: lhs < rhs (None means +infinity)."""

    k: int
    lhs: object
    rhs: object
    ok = False


class _Unknown:
    def __repr__(self):
        return "UNKNOWN"


UNKNOWN = _Unknown()


# ---------------------------------------------------------------------------
# monoid elements


def monoid_width(ring) -> int:
    if ring.is_local:
        return ring.nil_degree
    if ring.is_product:
        return ring.width
    raise PreconditionError(f"{ring.spec} has no computed class monoid")


def monoid_identity(ring) -> tuple:
    return (0,) * monoid_width(ring)


def monoid_add(a, b) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def monoid_scale(m: int, a) -> tuple:
    return tuple(m * x for x in a)


def check_element(ring, a) -> tuple:
    """a as a monoid element of ring: a tuple of monoid_width(ring) ints >= 0.

    A tuple that already is one is returned as it is, and another iterable
    of such ints as a tuple.  Anything else (a bool or float entry, a
    negative entry, the wrong width, a non-iterable) raises
    PreconditionError.
    """
    if type(a) is not tuple:
        try:
            a = tuple(a)
        except TypeError:
            raise PreconditionError(f"bad monoid element {a!r} for {ring.spec}") from None
    if len(a) == monoid_width(ring):
        for x in a:
            if type(x) is not int or x < 0:
                break
        else:
            return a
    raise PreconditionError(f"bad monoid element {a} for {ring.spec}")


def class_of(A: Matrix) -> tuple:
    """Class of a matrix: generator multiplicities or componentwise ranks."""
    ring = A.ring
    if ring.is_local:
        vec = [0] * ring.nil_degree
        for e in eliminated(A)[0]:
            vec[e] += 1
        return tuple(vec)
    if ring.is_product:
        return tuple(len(eliminated(A, i)[0]) for i in range(ring.width))
    raise PreconditionError(f"{ring.spec} has no computed class monoid")


def class_representative(ring, a) -> Matrix:
    """A diagonal matrix whose class is a."""
    a = check_element(ring, a)
    if ring.is_local:
        size = max(1, sum(a))
        return diagonal_matrix(ring, size, size, [i for i, m in enumerate(a) for _ in range(m)])
    size = max(1, max(a))
    grid = [[ring.zero] * size for _ in range(size)]
    for t in range(size):
        grid[t][t] = tuple(1 if t < a[i] else 0 for i in range(ring.width))
    return Matrix._canonical(ring, grid)


# ---------------------------------------------------------------------------
# rank functions and the order


def _profile(ring, a) -> tuple:
    """Integer order profile of a checked element.

    Over a local ring, k * rk_k(a) = sum over i < k of a_i (k - i) for
    k = 1..n, built as prefix sums of prefix sums; over a product ring,
    a itself.  a <= b iff the profiles compare componentwise, and the
    profile is additive: P(m a + k v) = m P(a) + k P(v).
    """
    if not ring.is_local:
        return a
    out, count, acc = [], 0, 0
    for x in a:
        count += x
        acc += count
        out.append(acc)
    return tuple(out)


def rk(ring, k: int, a) -> Fraction:
    """rk_k of a class: sum over i < k of a_i (k - i)/k."""
    if not ring.is_local:
        raise PreconditionError("rk_k is defined for the local families")
    n = ring.nil_degree
    if not 1 <= check_int(k, "k") <= n:
        raise PreconditionError(f"k = {k} outside [1, {n}]")
    return Fraction(_profile(ring, check_element(ring, a))[k - 1], k)


def rank_profile(ring, a) -> tuple:
    """(rk_1(a), ..., rk_n(a)), read off one profile in O(n)."""
    if not ring.is_local:
        raise PreconditionError("rk_k is defined for the local families")
    profile = _profile(ring, check_element(ring, a))
    return tuple(Fraction(x, k) for k, x in enumerate(profile, 1))


def leq(ring, a, b) -> bool:
    a = check_element(ring, a)
    b = check_element(ring, b)
    return all(x <= y for x, y in zip(_profile(ring, a), _profile(ring, b)))


def _first_excess(pa, pb):
    """The least k with pa[k - 1] > pb[k - 1]; None iff the profiled a <= b."""
    return next((k for k, (x, y) in enumerate(zip(pa, pb), 1) if x > y), None)


# ---------------------------------------------------------------------------
# Grothendieck group elements and the positive cone


@record
class GroupElement:
    """[pos] - [neg], componentwise reduced so min(pos_i, neg_i) = 0."""

    pos: tuple
    neg: tuple


def group_element(a, b) -> GroupElement:
    if len(a) != len(b):
        raise PreconditionError("group element over mismatched monoids")
    diff = [x - y for x, y in zip(a, b)]
    pos = tuple(max(d, 0) for d in diff)
    neg = tuple(max(-d, 0) for d in diff)
    return GroupElement(pos, neg)


def group_diff(g: GroupElement) -> tuple:
    return tuple(p - n for p, n in zip(g.pos, g.neg))


def group_add(g: GroupElement, h: GroupElement) -> GroupElement:
    return group_element(monoid_add(g.pos, h.pos), monoid_add(g.neg, h.neg))


def group_sub(g: GroupElement, h: GroupElement) -> GroupElement:
    return group_add(g, GroupElement(h.neg, h.pos))


def cone_member(ring, g: GroupElement) -> bool:
    """[a] - [b] is positive iff b + c <= a + c for some c.

    For the rank-induced local order and the componentwise regular
    order the relation is additive, so the c is irrelevant and the
    comparison reduces to leq(neg, pos).
    """
    return leq(ring, g.neg, g.pos)


# ---------------------------------------------------------------------------
# witness chains (local)


def witness_chain(ring, a, b):
    """Certify a <= b with a move chain, or refute with a rank violation.

    Follows the inductive order argument: cancel common generators, and
    while supports are disjoint push the largest generator j1 of b below
    low, the least of a, upward with a PowerSwap against the next one
    above, j2 (index n, the identity, when none exists).  No index is
    common until j1 + s reaches low or j2 - s reaches top, a's largest
    below j2, so each walk of t = min(low - j1, j2 - top) swaps
    PowerSwap(j1 + s, j2 - s) is emitted at once, and a cancel ends it:
    a chain has at most 2n|a| + |b| moves and costs O(n|a| + moves).  The
    chain is not replayed here; verify_certificate does that.
    """
    if not ring.is_local:
        raise PreconditionError("witness_chain applies to the local families")
    a = check_element(ring, a)
    b = check_element(ring, b)
    n = ring.nil_degree
    pa, pb = _profile(ring, a), _profile(ring, b)
    k = _first_excess(pa, pb)
    if k is not None:
        return NegativeRank(k, Fraction(pa[k - 1], k), Fraction(pb[k - 1], k))
    if a == b:
        return Positive(())

    moves = []
    cur_a, cur_b = list(a), list(b)
    # one cancel per copy of a; low only moves up, and no index below it is common
    low = 0
    for _ in range(sum(a)):
        while not cur_a[low]:
            low += 1
        common = next((i for i in range(low, n) if cur_a[i] and cur_b[i]), None)
        if common is None:  # a walk, which makes low or top common
            j1 = next(i for i in range(low - 1, -1, -1) if cur_b[i])
            j2 = next((i for i in range(j1 + 1, n) if cur_b[i]), n)
            top = next(i for i in range(j2 - 1, low - 1, -1) if cur_a[i])
            t = min(low - j1, j2 - top)
            moves.extend(PowerSwap(j1 + s, j2 - s) for s in range(t))
            cur_b[j1] -= 1
            if j2 < n:
                cur_b[j2] -= 1
            cur_b[j1 + t] += 1
            cur_b[j2 - t] += 1
            common = low if j1 + t == low else top
        moves.append(Cancel(common))
        cur_a[common] -= 1
        cur_b[common] -= 1
    for i in range(n):
        moves.extend([Drop(i)] * cur_b[i])
    return Positive(tuple(moves))


def _replay(cur, tgt, moves, cap) -> bool:
    """Whether moves lead the counts cur to tgt; False at a move that does not apply.

    cur and tgt count the copies of each exponent, and cancels take from
    both.  A local chain counts in lists indexed by exponent, with cap = n:
    an exponent of n or above is the zero class (c^n = 0), so a move that
    makes one adds nothing, and a PowerSwap may name j2 = n without holding
    it.  A formal chain counts with cap = inf, in lists or Counters (see
    verify_formal_certificate).  Each move costs O(1), so a replay costs
    O(moves + entries).
    """
    for mv in moves:
        if isinstance(mv, Cancel):
            i = mv.i
            if not (0 <= i < cap and cur[i] and tgt[i]):
                return False
            cur[i] -= 1
            tgt[i] -= 1
        elif isinstance(mv, PowerSwap):
            j1, j2 = mv.j1, mv.j2
            if not (0 <= j1 < j2 <= cap and cur[j1]) or j2 < cap and not cur[j2]:
                return False
            cur[j1] -= 1
            if j2 < cap:
                cur[j2] -= 1
            if j1 + 1 < cap:
                cur[j1 + 1] += 1
            cur[j2 - 1] += 1
        elif isinstance(mv, (ExponentIncrease, Drop)):
            i = mv.i
            if not (0 <= i < cap and cur[i]):
                return False
            cur[i] -= 1
            if i + 1 < cap and isinstance(mv, ExponentIncrease):
                cur[i + 1] += 1
        else:
            return False
    return cur == tgt


def verify_certificate(ring, a, b, cert) -> bool:
    """Re-check a certificate for the claim a <= b without re-deriving it.

    A Positive chain is replayed by _replay on the class counts of b, with
    cap n: c^n = 0, so a move that makes exponent n adds nothing.
    """
    try:
        a = check_element(ring, a)
        b = check_element(ring, b)
    except PreconditionError:
        return False
    if not ring.is_local:
        return False
    if isinstance(cert, Positive):
        return _replay(list(b), list(a), cert.moves, ring.nil_degree)
    if isinstance(cert, NegativeRank):
        k = cert.k
        if not 1 <= k <= ring.nil_degree:
            return False
        lhs = Fraction(_profile(ring, a)[k - 1], k)
        rhs = Fraction(_profile(ring, b)[k - 1], k)
        return lhs == cert.lhs and rhs == cert.rhs and lhs > rhs
    return False


# ---------------------------------------------------------------------------
# formal diagonal elements over (Z, a) or (F_p[x], a): minor profiles and
# a bounded, sound-but-incomplete order search


def check_exponents(exponents) -> tuple:
    """exponents as a formal element diag(a^e): a sorted tuple of ints >= 0.

    The formal twin of check_element: a bool, float, str or negative
    entry, or a non-iterable, raises PreconditionError.
    """
    try:
        exps = tuple(sorted(exponents))
    except TypeError:
        exps = None
    if exps is None or any(type(e) is not int or e < 0 for e in exps):
        raise PreconditionError(f"bad exponent multiset {exponents!r}: entries must be ints >= 0")
    return exps


def profile_value(profile, k):
    """mu_k, with None for +infinity (fewer than k diagonal entries)."""
    return profile[k - 1] if 1 <= k <= len(profile) else None


def minor_refutation(e_a, e_b):
    """Least k with mu_k(e_a) < mu_k(e_b), as a NegativeMinor; None if sound."""
    return _minor_refutation(check_exponents(e_a), check_exponents(e_b))


def _minor_refutation(ea, eb):
    """minor_refutation of two exponent tuples that check_exponents returned."""
    pb = tuple(accumulate(eb))
    for k, va in enumerate(accumulate(ea), 1):
        vb = profile_value(pb, k)
        if vb is None or va < vb:
            return NegativeMinor(k, va, vb)
    return None


def _without(seq, v):
    """The sorted tuple seq less one copy of v, which it holds."""
    k = bisect_left(seq, v)
    return seq[:k] + seq[k + 1 :]


def _with(seq, v):
    """The sorted tuple seq with one more copy of v."""
    k = bisect_left(seq, v)
    return seq[:k] + (v,) + seq[k:]


def _formal_successors(cur, tgt):
    """(move class, move fields, next state) for each canonical move from a state.

    A state whose sides share a value has one move, the Cancel of the
    least shared value.  Otherwise the moves are every PowerSwap of two
    distinct values, every ExponentIncrease, then every Drop, by
    ascending values; a swap of adjacent values gives the state back and
    is left out.
    """
    i = j = 0
    while i < len(cur) and j < len(tgt):
        x, t = cur[i], tgt[j]
        if x == t:
            yield Cancel, (x,), (cur[:i] + cur[i + 1 :], tgt[:j] + tgt[j + 1 :])
            return
        if x < t:
            i += 1
        else:
            j += 1
    values = sorted(set(cur))
    for k, j1 in enumerate(values):
        raised = _with(_without(cur, j1), j1 + 1)
        for j2 in values[k + 1 :]:
            if j2 > j1 + 1:
                yield PowerSwap, (j1, j2), (_with(_without(raised, j2), j2 - 1), tgt)
    for v in values:
        yield ExponentIncrease, (v,), (_with(_without(cur, v), v + 1), tgt)
    for v in values:
        yield Drop, (v,), (_without(cur, v), tgt)


# fronts seen on requests of up to 8 values of 0-12 hold at most 9 pairs;
# the cap keeps the bound's DP polynomial when values are spread wide
_FRONT_CAP = 16


def _formal_bound(cur, tgt):
    """A lower bound on the moves from state (cur, tgt) to equal sides.

    None when the minor test refutes tgt <= cur, so that no chain exists.
    See leq_provable for the bound and its proof.
    """
    if cur == tgt:
        return 0
    if _minor_refutation(tgt, cur) is not None:
        return None
    size_c, size_t = len(cur), len(tgt)
    xs, ts = [], []
    i = j = 0
    while i < size_c and j < size_t:
        x, t = cur[i], tgt[j]
        if x == t:
            i += 1
            j += 1
        elif x < t:
            xs.append(x)
            i += 1
        else:
            ts.append(t)
            j += 1
    xs.extend(cur[i:])
    ts.extend(tgt[j:])
    n, m = len(xs), len(ts)
    common = size_c - n
    # front[j]: the Pareto-least pairs (sum of (t - x)+, sum of (x - t)+)
    # over matchings of ts[:j] in order into the values of xs read so far.
    # A front longer than _FRONT_CAP has each two neighbours replaced by
    # their componentwise minimum: every matching's pair still dominates a
    # kept one, so h stays a lower bound, and each kept sum is still some
    # matching's, so h is never below max(min P_K, min N_K).
    front = [[(0, 0)]]
    for x in xs:
        if len(front) <= m:
            front.append([])
        for j in range(len(front) - 1, 0, -1):
            d = ts[j - 1] - x
            moved = [(p + d, q) if d > 0 else (p, q - d) for p, q in front[j - 1]]
            least = []
            for p, q in sorted(front[j] + moved):
                if not least or q < least[-1][1]:
                    least.append((p, q))
            if len(least) > _FRONT_CAP:
                least = [(p, q) for (p, _), (_, q) in zip(least[::2], least[1::2] + least[-1:])]
            front[j] = least
    return common + n + min(max(pair) for pair in front[m]) - min(m, 2)


def _bounded_search(start, bound, bounds):
    """The first chain of at most bound moves that DFS from start finds, or None.

    The descent walks _formal_successors in order.  It enters a state
    generated at level L only when it has not entered it at a level <= L,
    and when L plus its _formal_bound is at most bound.  bounds memoizes
    _formal_bound across the rounds of one leq_provable call.
    """
    levels = {start: 0}
    stack = [(None, None, _formal_successors(*start))]
    while stack:
        level = len(stack)
        for kind, fields, nxt in stack[-1][2]:
            if nxt[0] == nxt[1]:
                return tuple(k(*f) for k, f, _ in stack[1:]) + (kind(*fields),)
            # a state left unequal at level bound cannot be finished in time
            if level < levels.get(nxt, bound):
                if nxt in bounds:
                    h = bounds[nxt]
                else:
                    h = bounds[nxt] = _formal_bound(*nxt)
                if h is not None and level + h <= bound:
                    levels[nxt] = level
                    stack.append((kind, fields, _formal_successors(*nxt)))
                    break
        else:
            stack.pop()
    return None


def check_formal_hypothesis(ring, a, bound: int):
    """Check a^m not in (a^(m+1)) for all m <= bound; return a normalized.

    Z and F_p[x] are UFDs, so the first failure is at m = 0 when a is a
    unit, at m = 1 when a = 0, and never otherwise.
    """
    if not isinstance(ring, (IntegerRing, PolyRing)):
        raise PreconditionError("formal diagonal elements need Z or F_p[x]")
    a = ring.normalize(a)
    if ring.is_unit(a):
        first = 0
    elif ring.is_zero(a):
        first = 1
    else:
        first = None
    if first is not None and first <= bound:
        raise PreconditionError(
            f"hypothesis fails: {ring.format(a)}^{first} lies in "
            f"({ring.format(a)}^{first + 1})"
        )
    return a


def leq_provable(e_a, e_b, depth: int = 8):
    """Bounded search for a chain proving diag(a^{e_a}) <= diag(a^{e_b}).

    Returns a Positive chain, a NegativeMinor refutation, or UNKNOWN.
    Sound in all three answers but incomplete: UNKNOWN decides nothing.

    Order the chains of canonical moves (_formal_successors) from the
    state (current, target) = (e_b, e_a) by length, then by the successor
    index of each move in turn.  The chain returned is the least one, P*,
    which breadth-first search over the same moves finds first; so it is
    a shortest one, and UNKNOWN means that no canonical chain has at most
    depth moves.

    The search is pruned by a lower bound h on the moves still needed
    from a state (C, T), C the current and T the target multiset.  The
    minor test for T <= C asks |T| <= |C| and, for each k <= |T|, that
    the k least values of T sum to at least the k least of C.  A move
    keeps it passing backwards (an increase or a swap raises those sums
    of C, a drop deletes a value of C, a cancel keeps each inequality),
    and it passes when C = T; so where it fails no chain exists, and h is
    unreachable.  h is 0 when C = T.  Otherwise let c be the number of
    common values, n and m the sizes of C and T with them removed, and,
    for an m-subset K of C, P_K (N_K) the sum of (t - x)+ ((x - t)+) over
    K matched in sorted order to T; then
    h = c + n + min over K of max(P_K, N_K) - min(m, 2).  _formal_bound
    returns at most h (less where it caps its DP), so it is a lower bound
    wherever h is.

    Proof.  Only a drop changes |C| - |T|, so a chain has n - m drops.
    T loses values only to cancels.  A cancel leaves unequal sides
    unequal, so the last move is not one: it starts from a state without
    common values (they would force a cancel) and creates at most two
    values (a swap two, an increase one, a drop none).  So at most
    min(m, 2) values of T are never cancelled, and a chain has at least
    c + m - min(m, 2) cancels.  Follow each value of C to the value of T
    it is cancelled against or completes, or to its drop.  The kept
    values K rise by at least P_K and fall by at least N_K, for the same
    K, since for a fixed subset the sorted matching minimizes each sum
    (t -> t+ is convex).  An increase raises one value by one and a swap
    raises one and lowers another, so increases and swaps number at
    least max(P_K, N_K).

    The search runs a depth-first descent for bound = h(start), ...,
    depth.  It walks the successors in order, enters a state generated at
    level L only when L + h <= bound and the round has not entered it at
    a level <= L, and returns the first complete chain it meets.  A round
    returns only chains of at most bound moves, so no round before
    bound = d, the length of P*, returns one; if d > depth none does, and
    the answer is UNKNOWN, as without pruning.  In round d no state of P*
    is skipped.  Its state at level L has L + h <= d, as h is a lower
    bound.  It is at distance L from the start, as P* is a shortest
    chain, so a chain the descent met before P*'s first L moves and that
    reaches it has L moves and precedes them; followed by the rest of P*
    it would be a shortest chain before P*.  No complete chain is a
    prefix of another, so the descent meets them in increasing order, and
    in round d each has d moves: the first it meets is P*.  The memo only
    caches h, a function of the state alone.
    """
    ea, eb = check_exponents(e_a), check_exponents(e_b)
    if check_int(depth, "depth") < 0:
        raise PreconditionError("depth must be >= 0")
    refutation = _minor_refutation(ea, eb)
    if refutation is not None:
        return refutation
    if ea == eb:
        return Positive(())
    bounds = {}
    for bound in range(_formal_bound(eb, ea), depth + 1):
        chain = _bounded_search((eb, ea), bound, bounds)
        if chain is not None:
            return Positive(chain)
    return UNKNOWN


# the largest exponent that verify_formal_certificate counts in a list
_DENSE_TOP = 64


def verify_formal_certificate(e_a, e_b, cert) -> bool:
    """Re-check a leq_provable certificate for multisets e_a <= e_b.

    False when e_a or e_b is not a multiset of ints >= 0.  A Positive chain
    is replayed by _replay on the counts of e_b with no cap: no power of the
    pivot is 0, so every move that makes an exponent adds it.  A move makes
    an exponent at most one above the largest held, so while the exponents
    are at most _DENSE_TOP the counts fit a list of top + moves + 1 slots,
    and a move that reads past it names an exponent not held.  Larger
    exponents count in Counters, so the replay costs O(moves + entries)
    whatever values the payload names.
    """
    try:
        ea, eb = check_exponents(e_a), check_exponents(e_b)
    except PreconditionError:
        return False
    if isinstance(cert, Positive):
        moves = cert.moves
        top = max(ea[-1] if ea else 0, eb[-1] if eb else 0)
        if top > _DENSE_TOP:
            return _replay(Counter(eb), Counter(ea), moves, inf)
        size = top + len(moves) + 1
        cur, tgt = [0] * size, [0] * size
        for e in eb:
            cur[e] += 1
        for e in ea:
            tgt[e] += 1
        try:
            return _replay(cur, tgt, moves, inf)
        except IndexError:
            return False
    if isinstance(cert, NegativeMinor):
        pa, pb = tuple(accumulate(ea)), tuple(accumulate(eb))
        va, vb = profile_value(pa, cert.k), profile_value(pb, cert.k)
        if (va, vb) != (cert.lhs, cert.rhs):
            return False
        return va is not None and (vb is None or va < vb)
    return False


# ---------------------------------------------------------------------------
# product-of-fields factorizations


@record
class FactorResult:
    """A = C * B * D, certifying A <= B over a product of fields."""

    C: Matrix
    D: Matrix
    ok = True


@record
class NegativeComponent:
    """Rank lhs of A > rank rhs of B in one field component, refuting A <= B."""

    failing_component: int
    lhs: int
    rhs: int
    ok = False


def regular_factor(A: Matrix, B: Matrix) -> FactorResult | NegativeComponent:
    """Explicit C, D with A = C * B * D over a product of fields.

    When the componentwise rank comparison fails, returns the first
    failing component with its two ranks instead.  C * B * D is not
    multiplied out here; verify_factor does that.
    """
    ring = A.ring
    if not ring.is_product or B.ring != ring:
        raise PreconditionError("regular_factor needs matrices over one product ring")
    ranks_a, ranks_b = class_of(A), class_of(B)
    k = _first_excess(ranks_a, ranks_b)
    if k is not None:
        return NegativeComponent(k - 1, ranks_a[k - 1], ranks_b[k - 1])
    if A == B:
        return FactorResult(identity(ring, A.rows), identity(ring, A.cols))

    # A = Pa E Qa and B = Pb E' Qb with E, E' 0/1 diagonal and rank(A) = r <= rank(B),
    # so A = (Pa[:, :r] Pb^-1[:r, :]) B (Qb^-1[:, :r] Qa[:r, :]).
    c_parts, d_parts = [], []
    for i, (f, r) in enumerate(zip(ring.fields, ranks_a)):
        Pa, Qa = factors(f, A.rows, A.cols, eliminated(A, i)[1])
        Pb_inv, Qb_inv = inverse_factors(f, B.rows, B.cols, eliminated(B, i)[1])
        c_parts.append(_product_through(f, Pa, Pb_inv, r))
        d_parts.append(_product_through(f, Qb_inv, Qa, r))

    # entry (s, t) of C or D is the tuple of the components' entries (s, t)
    C, D = (
        Matrix._canonical(ring, [zip(*rows) for rows in zip(*parts)])
        for parts in (c_parts, d_parts)
    )
    return FactorResult(C, D)


def _product_through(f, X, Y, r):
    """X[:, :r] * Y[:r, :] over the field f, by mat_mul; a zero grid when r = 0."""
    if not r:
        return [[f.zero] * len(Y[0]) for _ in X]
    X, Y = Matrix._canonical(f, [row[:r] for row in X]), Matrix._canonical(f, Y[:r])
    return mat_mul(X, Y).entries


def verify_factor(A: Matrix, B: Matrix, result) -> bool:
    """Re-check a regular_factor result; False on mismatched rings or shapes."""
    ring = A.ring
    if not ring.is_product or B.ring != ring:
        return False
    if isinstance(result, NegativeComponent):
        i = result.failing_component
        if not isinstance(i, int) or not 0 <= i < ring.width:
            return False
        lhs, rhs = class_of(A)[i], class_of(B)[i]
        return (result.lhs, result.rhs) == (lhs, rhs) and lhs > rhs
    if not isinstance(result, FactorResult):
        return False
    C, D = result.C, result.D
    if (C.ring, C.shape, D.ring, D.shape) != (ring, (A.rows, B.rows), ring, (B.cols, A.cols)):
        return False
    return mat_mul(mat_mul(C, B), D) == A


# ---------------------------------------------------------------------------
# existence of a rank function


def has_rank_function(ring) -> bool:
    """Check I_{m+1} not<= I_m for every m >= 1.

    By cancellation (m+1)<1> <= m<1> iff <1> <= 0, for every m alike, so
    only m = 1 needs checking.
    """
    return not all(x <= 0 for x in _profile(ring, order_unit(ring)))


def order_unit(ring) -> tuple:
    """<1>: the class of the 1x1 identity matrix."""
    width = monoid_width(ring)
    if ring.is_local:
        return tuple(1 if i == 0 else 0 for i in range(width))
    return (1,) * width
