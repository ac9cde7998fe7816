"""Shared random generators and reference implementations for the test suite."""

import hashlib
import json
import random
from collections import Counter, deque
from fractions import Fraction
from itertools import permutations
from math import inf, lcm
from operator import add, sub

from rankcert import (
    UNKNOWN,
    BoundExceededError,
    Cancel,
    DiagonalForm,
    Drop,
    ExponentIncrease,
    Matrix,
    Positive,
    PowerSwap,
    PreconditionError,
    StateRange,
    StateSpec,
    check_states_exist,
    identity,
    is_invertible,
    leq,
    minor_refutation,
    order_unit,
    parse_ring,
    rank_profile,
    rk,
    state_extension,
)
from rankcert.acceptance import SHIPPED_RINGS
from rankcert.cli import record_payload
from rankcert.normal_form import _ADD_COL, _ADD_ROW, _SCALE, _SWAP_COLS, _SWAP_ROWS
from rankcert.polys import pdegree, pdivides
from rankcert.semigroup import (
    _formal_successors,
    _profile,
    check_element,
    monoid_add,
    monoid_identity,
    monoid_scale,
)


def replace(record, **changes):
    """A copy of a frozen record with some fields changed."""
    return type(record)(**{**vars(record), **changes})


def random_value(ring, rng):
    if ring.spec == "Z":
        return rng.randrange(-6, 7)
    if ring.is_finite:
        return rng.choice(ring.elements())
    # F_p[x]: restrained degrees keep determinants small
    return ring.normalize([rng.randrange(ring.p) for _ in range(rng.randrange(4))])


def random_matrix(ring, rng, rows, cols):
    return Matrix(
        ring, [[random_value(ring, rng) for _ in range(cols)] for _ in range(rows)]
    )


def random_invertible(ring, rng, size, attempts=300):
    for _ in range(attempts):
        M = random_matrix(ring, rng, size, size)
        if is_invertible(M):
            return M
    raise AssertionError(f"no invertible {size}x{size} over {ring.spec} found")


def reference_det(ring, M):
    """The determinant by the Leibniz permutation expansion; valid over any commutative ring."""
    n = M.rows
    total = ring.zero
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = ring.one
        for i in range(n):
            term = ring.mul(term, M.entry(i, perm[i]))
        total = ring.add(total, term) if inversions % 2 == 0 else ring.sub(total, term)
    return total


def reference_is_diagonal_form(ring, A, exponents, zero_count, left, right) -> bool:
    """Whether A = left * D * right is a true diagonal form of A over a finite local ring.

    D is diag(c^e for e in exponents) padded with zeros to A's shape, the
    exponents ascend in [0, n), and left and right are invertible.  Each
    product entry is summed by ring.add and ring.mul, c^e is e products of
    c, and a matrix is invertible when its Leibniz determinant has an
    inverse among the ring's elements: nothing of normal_form is used.
    """
    n, rows, cols = ring.nil_degree, len(A), len(A[0])
    if list(exponents) != sorted(exponents) or not all(0 <= e < n for e in exponents):
        return False
    if zero_count < 0 or len(exponents) + zero_count != min(rows, cols):
        return False
    if (len(left), len(left[0]), len(right), len(right[0])) != (rows, rows, cols, cols):
        return False
    elements = ring.elements()
    for square in (left, right):
        d = reference_det(ring, Matrix(ring, square))
        if not any(ring.mul(d, x) == ring.one for x in elements):
            return False
    powers = []
    for e in exponents:
        g = ring.one
        for _ in range(e):
            g = ring.mul(g, ring.generator)
        powers.append(g)

    def entry(i, j):
        total = ring.zero
        for t, g in enumerate(powers):
            total = ring.add(total, ring.mul(ring.mul(left[i][t], g), right[t][j]))
        return total

    return all(entry(i, j) == A[i][j] for i in range(rows) for j in range(cols))


# ---------------------------------------------------------------------------
# reference state enumerations: the Fraction/leq loops, one public leq call
# per relation, kept as an oracle for the integer-profile versions


def reference_states_exist(ring, limit):
    v = order_unit(ring)
    for m in range(1, limit + 1):
        if leq(ring, monoid_scale(m + 1, v), monoid_scale(m, v)):
            raise PreconditionError(
                f"no states exist: {m + 1} * <1> <= {m} * <1> over {ring.spec}"
            )


def reference_state_range(ring, a, n_bound=12, m_bound=12):
    a = check_element(ring, a)
    if n_bound < 1 or m_bound < 1:
        raise PreconditionError("bounds must be >= 1")
    reference_states_exist(ring, n_bound)
    v = order_unit(ring)
    best_p = best_q = None
    for n in range(n_bound + 1):
        lhs = monoid_scale(n, v)
        for k in range(n_bound + 1):
            for m in range(1, m_bound + 1):
                rhs = monoid_add(monoid_scale(m, a), monoid_scale(k, v))
                val = Fraction(n - k, m)
                if (best_p is None or val > best_p[0]) and leq(ring, lhs, rhs):
                    best_p = (val, (n, k, m))
                if (best_q is None or val < best_q[0]) and leq(ring, rhs, lhs):
                    best_q = (val, (n, k, m))
    if best_p is None or best_q is None:
        raise BoundExceededError(
            f"no witness relation found within bounds ({n_bound}, {m_bound})"
        )
    if ring.is_local:
        profile = rank_profile(ring, a)
        exact = (min(profile), max(profile))
    else:
        exact = (Fraction(min(a)), Fraction(max(a)))
    return StateRange(best_p[0], best_q[0], best_p[1], best_q[1], exact)


def scan_state_range(ring, a, n_bound=12, m_bound=12):
    """The per-m scan: a floor and a ceiling of the profile ratios for each m.

    For each m in [1, M] the best lower d is min(N, min_i floor(m P(a)_i /
    P(v)_i)) and the best upper d is max_i ceil(m P(a)_i / P(v)_i) when it
    is <= N, so the scan costs O(M * width), whatever N is.
    """
    a = check_element(ring, a)
    if n_bound < 1 or m_bound < 1:
        raise PreconditionError("bounds must be >= 1")
    check_states_exist(ring)
    pv = _profile(ring, order_unit(ring))
    pa = _profile(ring, a)
    lows, highs = [], []
    for m in range(1, m_bound + 1):
        lows.append(Fraction(min(n_bound, *(m * x // y for x, y in zip(pa, pv))), m))
        d = max(-(-m * x // y) for x, y in zip(pa, pv))
        if d <= n_bound:
            highs.append(Fraction(d, m))
    if not highs:
        raise BoundExceededError(
            f"no witness relation found within bounds ({n_bound}, {m_bound})"
        )
    p, q = max(lows), min(highs)
    if ring.is_local:
        ranks = [Fraction(x, k) for k, x in enumerate(pa, 1)]
        exact = (min(ranks), max(ranks))
    else:
        exact = (Fraction(min(a)), Fraction(max(a)))
    return StateRange(
        p, q, (p.numerator, 0, p.denominator), (q.numerator, 0, q.denominator), exact
    )


def reference_span_with_values(ring, spec, ball):
    gens = [check_element(ring, g) for g in spec.generators]
    vals = [Fraction(v) for v in spec.values]
    if len(gens) != len(vals):
        raise PreconditionError("generator/value length mismatch")
    elems = {}

    def visit(idx, cur, val):
        if idx == len(gens):
            prev = elems.get(cur)
            if prev is not None and prev != val:
                raise PreconditionError(
                    f"state spec is inconsistent: element {cur} gets values {prev} and {val}"
                )
            elems.setdefault(cur, val)
            return
        g, gv = gens[idx], vals[idx]
        t = 0
        elt, value = cur, val
        while sum(elt) <= ball:
            visit(idx + 1, elt, value)
            if sum(g) == 0 and t >= 1:
                break
            elt = monoid_add(elt, g)
            value = value + gv
            t += 1

    visit(0, monoid_identity(ring), Fraction(0))
    ordered = sorted(elems)
    for x in ordered:
        for y in ordered:
            if elems[x] > elems[y] and leq(ring, x, y):
                raise PreconditionError(
                    f"state spec is inconsistent: {x} <= {y} but value "
                    f"{elems[x]} > {elems[y]}"
                )
    return elems


def reference_state_extension(ring, spec, a, ball=12, m_bound=12, shifted=False):
    a = check_element(ring, a)
    reference_states_exist(ring, max(ball, 1))
    v = order_unit(ring)
    elems = reference_span_with_values(ring, spec, ball)
    if elems.get(v) != Fraction(1):
        raise PreconditionError("state spec must contain the order-unit <1> with value 1")
    shifts = range(m_bound + 1) if shifted else (0,)
    best_p = best_q = None
    for b in sorted(elems):
        for c in sorted(elems):
            for m in range(1, m_bound + 1):
                val = Fraction(elems[b] - elems[c], m)
                for mbar in shifts:
                    lhs = monoid_add(b, monoid_scale(mbar, a))
                    rhs = monoid_add(c, monoid_scale(m + mbar, a))
                    if (best_p is None or val > best_p[0]) and leq(ring, lhs, rhs):
                        best_p = (val, (b, c, m, mbar))
                    if (best_q is None or val < best_q[0]) and leq(ring, rhs, lhs):
                        best_q = (val, (b, c, m, mbar))
    if best_p is None or best_q is None:
        raise BoundExceededError(
            f"no witness relation found within bounds ({ball}, {m_bound})"
        )
    return refuse_crossed(StateRange(best_p[0], best_q[0], best_p[1], best_q[1], None))


def refuse_crossed(sr):
    """sr, unless p_lb > q_ub: then no state extends the spec, as in the library."""
    if sr.p_lb > sr.q_ub:
        raise PreconditionError(
            f"state spec admits no state: witness {sr.p_witness[:3]} gives p_lb = {sr.p_lb}, "
            f"above q_ub = {sr.q_ub} from witness {sr.q_witness[:3]}"
        )
    return sr


# ---------------------------------------------------------------------------
# reference eliminations: the three separate eliminations that once computed
# local diagonal forms, field ranks and field factorizations, kept as oracles
# for the one recorded elimination in normal_form


def reference_diagonalize(A):
    ring = A.ring
    n = ring.nil_degree
    r, c = A.rows, A.cols

    M = [list(row) for row in A.entries]
    L = [[ring.one if i == j else ring.zero for j in range(r)] for i in range(r)]
    R = [[ring.one if i == j else ring.zero for j in range(c)] for i in range(c)]

    # Invariant: A = L * M * R throughout.
    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        for row in L:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        R[i], R[j] = R[j], R[i]

    def scale_row(i, u):
        u_inv = ring.unit_inverse(u)
        M[i] = [ring.mul(u, x) for x in M[i]]
        for row in L:
            row[i] = ring.mul(row[i], u_inv)

    def add_row(i, j, t):
        # row_i += t * row_j
        M[i] = [ring.add(x, ring.mul(t, y)) for x, y in zip(M[i], M[j])]
        for row in L:
            row[j] = ring.sub(row[j], ring.mul(t, row[i]))

    def add_col(i, j, t):
        # col_i += t * col_j
        for row in M:
            row[i] = ring.add(row[i], ring.mul(t, row[j]))
        R[j] = [ring.sub(x, ring.mul(t, y)) for x, y in zip(R[j], R[i])]

    exponents = []
    d = 0
    while d < r and d < c:
        best = None
        for i in range(d, r):
            for j in range(d, c):
                v = ring.valuation(M[i][j])
                if v < n and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        v, pi, pj = best
        if pi != d:
            swap_rows(d, pi)
        if pj != d:
            swap_cols(d, pj)
        unit = ring.shift(M[d][d], v)
        if unit != ring.one:
            scale_row(d, ring.unit_inverse(unit))
        # pivot is now exactly c^v; every other entry has valuation >= v
        for i in range(d + 1, r):
            x = M[i][d]
            if not ring.is_zero(x):
                add_row(i, d, ring.neg(ring.shift(x, v)))
        for j in range(d + 1, c):
            x = M[d][j]
            if not ring.is_zero(x):
                add_col(j, d, ring.neg(ring.shift(x, v)))
        exponents.append(v)
        d += 1

    return DiagonalForm(
        exponents=tuple(exponents),
        zero_count=min(r, c) - len(exponents),
        left=Matrix(ring, L),
        right=Matrix(ring, R),
    )


def reference_field_identity(field, m):
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def reference_field_rank(field, rows) -> int:
    """Rank by Gaussian elimination; rows is a sequence of sequences."""
    M = [list(r) for r in rows]
    nrows, ncols = len(M), len(M[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = field.unit_inverse(M[rank][col])
        M[rank] = [field.mul(inv, x) for x in M[rank]]
        for r in range(nrows):
            if r != rank and M[r][col] != 0:
                f = M[r][col]
                M[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(M[r], M[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def reference_field_paq(field, rows):
    """Factor A = P * diag(I_r, 0) * Q over a field.

    Returns (r, P, Pinv, Q, Qinv) with P (m x m) and Q (n x n) invertible.
    Row/column operations are applied to a working copy while P and Q
    accumulate their inverses, so the identity A = P * D * Q holds exactly.
    """
    M = [list(r) for r in rows]
    m, n = len(M), len(M[0])
    P = [list(r) for r in reference_field_identity(field, m)]
    Pinv = [list(r) for r in reference_field_identity(field, m)]
    Q = [list(r) for r in reference_field_identity(field, n)]
    Qinv = [list(r) for r in reference_field_identity(field, n)]

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        Pinv[i], Pinv[j] = Pinv[j], Pinv[i]
        for row in P:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in M:
            row[i], row[j] = row[j], row[i]
        for row in Qinv:
            row[i], row[j] = row[j], row[i]
        Q[i], Q[j] = Q[j], Q[i]

    def scale_row(i, s):
        s_inv = field.unit_inverse(s)
        M[i] = [field.mul(s, x) for x in M[i]]
        Pinv[i] = [field.mul(s, x) for x in Pinv[i]]
        for row in P:
            row[i] = field.mul(row[i], s_inv)

    def add_row(i, j, t):
        # row_i += t * row_j
        M[i] = [field.add(x, field.mul(t, y)) for x, y in zip(M[i], M[j])]
        Pinv[i] = [field.add(x, field.mul(t, y)) for x, y in zip(Pinv[i], Pinv[j])]
        for row in P:
            row[j] = field.sub(row[j], field.mul(t, row[i]))

    def add_col(i, j, t):
        # col_i += t * col_j
        for row in M:
            row[i] = field.add(row[i], field.mul(t, row[j]))
        for row in Qinv:
            row[i] = field.add(row[i], field.mul(t, row[j]))
        Q[j] = [field.sub(x, field.mul(t, y)) for x, y in zip(Q[j], Q[i])]

    d = 0
    while d < m and d < n:
        pivot = next(
            ((i, j) for i in range(d, m) for j in range(d, n) if M[i][j] != 0), None
        )
        if pivot is None:
            break
        i, j = pivot
        if i != d:
            swap_rows(d, i)
        if j != d:
            swap_cols(d, j)
        if M[d][d] != 1:
            scale_row(d, field.unit_inverse(M[d][d]))
        for r in range(d + 1, m):
            if M[r][d] != 0:
                add_row(r, d, field.neg(M[r][d]))
        for c in range(d + 1, n):
            if M[d][c] != 0:
                add_col(c, d, field.neg(M[d][c]))
        d += 1

    freeze = lambda rows_: tuple(tuple(r) for r in rows_)
    return d, freeze(P), freeze(Pinv), freeze(Q), freeze(Qinv)


def reference_field_mat_mul(field, A, B):
    out = []
    for i in range(len(A)):
        row = []
        for j in range(len(B[0])):
            acc = 0
            for t in range(len(B)):
                acc = field.add(acc, field.mul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def reference_class_of(A):
    ring = A.ring
    if ring.is_local:
        vec = [0] * ring.nil_degree
        for e in reference_diagonalize(A).exponents:
            vec[e] += 1
        return tuple(vec)
    return tuple(
        reference_field_rank(f, ring.component_grid(A, i)) for i, f in enumerate(ring.fields)
    )


def reference_regular_factor(A, B):
    """(C, D, failing component) as the field_paq factorization computed them."""
    ring = A.ring
    for i, (x, y) in enumerate(zip(reference_class_of(A), reference_class_of(B))):
        if x > y:
            return None, None, i
    if A == B:
        return identity(ring, A.rows), identity(ring, A.cols), None
    c_parts, d_parts = [], []
    for i, f in enumerate(ring.fields):
        rank_a, Pa, _, Qa, _ = reference_field_paq(f, ring.component_grid(A, i))
        _, _, Pb_inv, _, Qb_inv = reference_field_paq(f, ring.component_grid(B, i))
        E = [[1 if (s == t and s < rank_a) else 0 for t in range(B.rows)] for s in range(A.rows)]
        F = [[1 if (s == t and s < rank_a) else 0 for t in range(A.cols)] for s in range(B.cols)]
        mul = reference_field_mat_mul
        c_parts.append(mul(f, mul(f, Pa, E), Pb_inv))
        d_parts.append(mul(f, mul(f, Qb_inv, F), Qa))

    def assemble(parts, r, c):
        return Matrix(
            ring, [[tuple(part[s][t] for part in parts) for t in range(c)] for s in range(r)]
        )

    return assemble(c_parts, A.rows, B.rows), assemble(d_parts, B.cols, A.cols), None


# ---------------------------------------------------------------------------
# the irreducibility test and the elimination pivot as they were before the
# fast paths, kept as oracles for them


def reference_is_irreducible(f, p) -> bool:
    """Trial division by all monic polynomials of degree <= deg(f)/2."""
    d = pdegree(f)
    if d <= 0:
        return False
    if d == 1:
        return True
    for deg in range(1, d // 2 + 1):
        for idx in range(p**deg):
            coeffs, rest = [], idx
            for _ in range(deg):
                coeffs.append(rest % p)
                rest //= p
            coeffs.append(1)
            if pdivides(tuple(coeffs), f, p):
                return False
    return True


def reference_eliminate(ring, grid):
    """normal_form.eliminate with the pivot taken by min() over the whole block."""
    n = ring.nil_degree
    M = [list(row) for row in grid]
    r, c = len(M), len(M[0])
    exponents, ops = [], []
    for d in range(min(r, c)):
        v, pi, pj = min(
            (ring.valuation(M[i][j]), i, j) for i in range(d, r) for j in range(d, c)
        )
        if v == n:
            break
        if pi != d:
            M[d], M[pi] = M[pi], M[d]
            ops.append((_SWAP_ROWS, d, pi, None))
        if pj != d:
            for row in M[d:]:
                row[d], row[pj] = row[pj], row[d]
            ops.append((_SWAP_COLS, d, pj, None))
        unit = ring.shift(M[d][d], v)
        if unit != ring.one:
            u = ring.unit_inverse(unit)
            M[d] = [ring.mul(u, x) for x in M[d]]
            ops.append((_SCALE, d, u, unit))
        for i in range(d + 1, r):
            x = M[i][d]
            if not ring.is_zero(x):
                t = ring.neg(ring.shift(x, v))
                M[i] = [ring.add(a, ring.mul(t, b)) for a, b in zip(M[i], M[d])]
                ops.append((_ADD_ROW, i, d, t))
        for j in range(d + 1, c):
            x = M[d][j]
            if not ring.is_zero(x):
                ops.append((_ADD_COL, j, d, ring.neg(ring.shift(x, v))))
        exponents.append(v)
    return exponents, ops


# ---------------------------------------------------------------------------
# the local chain replay as it was before one interpreter replayed local and
# formal chains alike; kept as the oracle for it


def reference_apply_moves(n, start, target, moves):
    """Replay moves with index convention e_n = identity; None on a bad move."""
    cur = list(start)
    tgt = list(target)
    for mv in moves:
        if isinstance(mv, Cancel):
            i = mv.i
            if not (0 <= i < n and cur[i] >= 1 and tgt[i] >= 1):
                return None
            cur[i] -= 1
            tgt[i] -= 1
        elif isinstance(mv, PowerSwap):
            j1, j2 = mv.j1, mv.j2
            if not (0 <= j1 < j2 <= n and cur[j1] >= 1):
                return None
            if j2 < n and cur[j2] < 1:
                return None
            cur[j1] -= 1
            if j2 < n:
                cur[j2] -= 1
            if j1 + 1 < n:
                cur[j1 + 1] += 1
            if j2 - 1 < n:
                cur[j2 - 1] += 1
        elif isinstance(mv, ExponentIncrease):
            i = mv.i
            if not (0 <= i < n and cur[i] >= 1):
                return None
            cur[i] -= 1
            if i + 1 < n:
                cur[i + 1] += 1
        elif isinstance(mv, Drop):
            i = mv.i
            if not (0 <= i < n and cur[i] >= 1):
                return None
            cur[i] -= 1
        else:
            return None
    return cur, tgt


# ---------------------------------------------------------------------------
# the formal-order search as it was before the pruned search over sorted
# tuples: Counter moves, an unpruned queue; kept as the oracle for it


def _formal_moves(cur, tgt, cap):
    """Canonical move list from a (current, target) multiset pair."""
    common = sorted((Counter(cur) & Counter(tgt)).elements())
    if common:
        return [Cancel(common[0])]
    moves = []
    values = sorted(set(cur))
    for i, j1 in enumerate(values):
        for j2 in values[i + 1 :]:
            if j1 + 1 <= cap:
                moves.append(PowerSwap(j1, j2))
    for v in values:
        if v + 1 <= cap:
            moves.append(ExponentIncrease(v))
    for v in values:
        moves.append(Drop(v))
    return moves


def _formal_apply(cur, tgt, mv):
    c = Counter(cur)
    t = Counter(tgt)
    if isinstance(mv, Cancel):
        if not (c[mv.i] and t[mv.i]):
            return None
        c[mv.i] -= 1
        t[mv.i] -= 1
    elif isinstance(mv, PowerSwap):
        if not (mv.j1 < mv.j2 and c[mv.j1] and c[mv.j2]):
            return None
        c[mv.j1] -= 1
        c[mv.j2] -= 1
        c[mv.j1 + 1] += 1
        c[mv.j2 - 1] += 1
    elif isinstance(mv, ExponentIncrease):
        if not c[mv.i]:
            return None
        c[mv.i] -= 1
        c[mv.i + 1] += 1
    elif isinstance(mv, Drop):
        if not c[mv.i]:
            return None
        c[mv.i] -= 1
    else:
        return None
    return tuple(sorted(c.elements())), tuple(sorted(t.elements()))


def reference_leq_provable(e_a, e_b, depth: int = 8):
    """Bounded search for a chain proving diag(a^{e_a}) <= diag(a^{e_b}).

    Returns a Positive chain, a NegativeMinor refutation, or UNKNOWN.
    Sound in all three answers but incomplete: UNKNOWN decides nothing.
    """
    ea = tuple(sorted(int(e) for e in e_a))
    eb = tuple(sorted(int(e) for e in e_b))
    if any(e < 0 for e in ea + eb):
        raise PreconditionError("exponents must be nonnegative")
    refutation = minor_refutation(ea, eb)
    if refutation is not None:
        return refutation
    if ea == eb:
        return Positive(())
    cap = max(ea + eb, default=0) + depth + 1
    start = (eb, ea)
    queue = deque([(start, ())])
    seen = {start}
    while queue:
        (cur, tgt), moves = queue.popleft()
        if len(moves) >= depth:
            continue
        for mv in _formal_moves(cur, tgt, cap):
            nxt = _formal_apply(cur, tgt, mv)
            if nxt is None:
                continue
            chain = moves + (mv,)
            if nxt[0] == nxt[1]:
                return Positive(chain)
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, chain))
    return UNKNOWN


# the formal-order search as it was before the depth-first descent: a
# breadth-first search in rounds over the library's canonical moves, pruned
# by the bound with P* and N* minimized separately; kept as the oracle for
# requests too long for the unpruned search


def separate_formal_bound(cur, tgt):
    """The lower bound c + n + max(P*, N*) - min(m, 2) on the moves from (cur, tgt).

    None when the minor test refutes tgt <= cur.
    """
    if cur == tgt:
        return 0
    size_c, size_t = len(cur), len(tgt)
    if size_t > size_c:
        return None
    sum_c = sum_t = 0
    for x, t in zip(cur, tgt):
        sum_c += x
        sum_t += t
        if sum_t < sum_c:
            return None
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
    # up[j] (down[j]): the least sum of (t - x)+ ((x - t)+) over matchings
    # of ts[:j] in order into the values of xs read so far
    up, down = [0], [0]
    for x in xs:
        top = len(up) - 1
        if top < m:
            d = ts[top] - x
            up.append(up[-1] + max(d, 0))
            down.append(down[-1] + max(-d, 0))
        for j in range(top, 0, -1):
            d = ts[j - 1] - x
            if d > 0:
                up[j] = min(up[j], up[j - 1] + d)
                down[j] = min(down[j], down[j - 1])
            else:
                up[j] = min(up[j], up[j - 1])
                down[j] = min(down[j], down[j - 1] - d)
    return common + n + max(up[m], down[m]) - min(m, 2)


def _bfs_round(start, bound, bounds):
    """The first chain of at most bound moves that BFS from start finds, or None."""
    parent = {start: None}
    frontier = [start]
    for level in range(1, bound + 1):
        enqueued = []
        for state in frontier:
            for kind, fields, nxt in _formal_successors(*state):
                if nxt[0] == nxt[1]:
                    moves = [kind(*fields)]
                    while parent[state] is not None:
                        state, kind, fields = parent[state]
                        moves.append(kind(*fields))
                    return tuple(reversed(moves))
                if nxt not in parent:
                    parent[nxt] = (state, kind, fields)
                    if nxt not in bounds:
                        bounds[nxt] = separate_formal_bound(*nxt)
                    h = bounds[nxt]
                    if h is not None and level + h <= bound:
                        enqueued.append(nxt)
        frontier = enqueued
    return None


def bfs_leq_provable(e_a, e_b, depth: int = 8):
    """leq_provable by pruned breadth-first search, for sorted exponent tuples."""
    ea, eb = tuple(sorted(e_a)), tuple(sorted(e_b))
    refutation = minor_refutation(ea, eb)
    if refutation is not None:
        return refutation
    if ea == eb:
        return Positive(())
    bounds = {}
    for bound in range(separate_formal_bound(eb, ea), depth + 1):
        chain = _bfs_round((eb, ea), bound, bounds)
        if chain is not None:
            return Positive(chain)
    return UNKNOWN


# ---------------------------------------------------------------------------
# the state-extension kernel as it was before the one-pass kernel: profiles
# computed per element, both orders of every pair (_pair_relations), the
# witness recovered by a second scan (_first_witness); kept as the fast
# oracle for state_extension at balls beyond SPAN_CAP


def span_with_values(ring, spec: StateSpec, ball: int):
    """Elements of the generated subsemigroup with ||.||_1 <= ball.

    Returns ({element: value numerator}, denominator, {support: elements}):
    every value is an integer over one common denominator, and a support
    is the bitmask of the generators with a nonzero coefficient in some
    combination reaching the element.  The first additivity conflict, in
    lexicographic order of the coefficients, is rejected.
    """
    gens = [check_element(ring, g) for g in spec.generators]
    vals = [Fraction(v) for v in spec.values]
    if len(gens) != len(vals):
        raise PreconditionError("generator/value length mismatch")
    denom = lcm(*(v.denominator for v in vals))
    combos = [(monoid_identity(ring), 0, 0)]
    for i, (g, v) in enumerate(zip(gens, vals)):
        gv, grown = v.numerator * (denom // v.denominator), []
        for elt, val, support in combos:
            t = 0  # a zero generator still gets t = 1, to expose its value
            while sum(elt) <= ball and (t < 2 or any(g)):
                grown.append((elt, val, support | (t > 0) << i))
                elt, val, t = monoid_add(elt, g), val + gv, t + 1
        combos = grown
    elems, supports = {}, {}
    for elt, val, support in combos:
        prev = elems.setdefault(elt, val)
        if prev != val:
            raise PreconditionError(
                f"state spec is inconsistent: element {elt} gets values "
                f"{Fraction(prev, denom)} and {Fraction(val, denom)}"
            )
        supports.setdefault(support, set()).add(elt)
    return elems, denom, supports


def _extension_optima(supports, values, profiles, pa, m_bound: int):
    """Best (d, m) for both endpoints over pairs of disjoint support, and monotonicity.

    For a pair b, c with D = P(b) - P(c) and d = v(b) - v(c), b <= c +
    m<a> iff D <= m P(a): it holds for every m >= least = max_i
    ceil(D_i / P(a)_i), provided D_i <= 0 wherever P(a)_i = 0; likewise
    b >= c + m<a> holds for every m <= most = min_i floor(D_i / P(a)_i),
    provided D_i >= 0 there.  So a pair is worth d / max(1, least) for p
    and d / min(m_bound, most) for q.  That is its best ratio when d >= 0;
    a pair with d < 0 never decides either: p >= 0 is reached at b = c,
    and an upper relation with d < 0 puts c <= b with v(c) > v(b).  That
    m = 0 case is monotonicity: d > 0 with D <= 0 is a conflict.

    Profiles are scaled by s / P(a)_i with s = lcm of the positive P(a)_i,
    so least and most are the ceiling and floor of one max and one min of
    the scaled differences over s (_pair_relations).  Returns (best_p,
    best_q, monotone), a best being None when no pair has a relation.
    """
    scale = lcm(*(z for z in pa if z > 0))

    def row(x):
        px = profiles[x]
        scaled = [y * (scale // z) for y, z in zip(px, pa) if z > 0]
        return scaled, [y for y, z in zip(px, pa) if z == 0], values[x]

    groups = [(support, [row(x) for x in xs]) for support, xs in supports.items()]
    best_p = best_q = None
    monotone = True
    for d, least, most in _pair_relations(groups, scale, m_bound * scale):
        if d > 0 and least <= 0:
            monotone = False
        low, high = max(1, least), min(m_bound, most)
        if low <= m_bound and (best_p is None or d * best_p[1] > best_p[0] * low):
            best_p = (d, low)
        if high >= 1 and (best_q is None or d * best_q[1] < best_q[0] * high):
            best_q = (d, high)
    return best_p, best_q, monotone


def _pair_relations(groups, scale: int, cap: int):
    """(d, least, most) for both orders of every pair of disjoint support.

    Each unordered pair is read once, for both orders, since floor(-x) =
    -ceil(x).  cap stands in for an empty max or min over the scaled coordinates,
    which happens when P(a) = 0: then every m is allowed.  A coordinate
    where P(a) is 0 bars the lower relation when D is positive there and
    the upper one when D is negative, by an infinite least or most.
    """
    for i, (sb, bs) in enumerate(groups):
        for sc, cs in groups[i:]:
            if sb & sc:
                continue
            for pb, zb, vb in bs:
                for pc, zc, vc in cs:
                    diff = [x - y for x, y in zip(pb, pc)]
                    least = -(-max(diff, default=-cap) // scale)
                    most = min(diff, default=cap) // scale
                    if zb:
                        zd = [x - y for x, y in zip(zb, zc)]
                        above, below = max(zd) > 0, min(zd) < 0
                        yield vb - vc, inf if above else least, -inf if below else most
                        yield vc - vb, inf if below else -most, -inf if above else -least
                    else:
                        yield vb - vc, least, most
                        yield vc - vb, -most, -least


def _first_witness(ordered, by_value, pa, m_bound: int, best, lower: bool):
    """The first (b, c, m, 0) in (b, c, m) order whose ratio is the optimum best.

    For each b in sorted order and each m with an integer v(c) = v(b) -
    opt * m, the elements of that value are searched in sorted order for
    the least c whose relation holds; the least (c, m) of the first b
    with any is the witness.
    """
    opt = Fraction(*best)
    steps = [
        (m, m // opt.denominator * opt.numerator, [m * z for z in pa])
        for m in range(opt.denominator, m_bound + 1, opt.denominator)
    ]
    for b, vb, pb in ordered:
        hits = []
        for m, dv, ma in steps:
            for c, pc in by_value.get(vb - dv, ()):
                if all(
                    (x <= y + z) if lower else (x >= y + z) for x, y, z in zip(pb, pc, ma)
                ):
                    hits.append((c, m))
                    break
        if hits:
            c, m = min(hits)
            return (b, c, m, 0)


def raise_first_conflict(elems, profiles, denom):
    """Raise at the first x <= y with v(x) > v(y), in sorted order of (x, y).

    A rescan of every ordered pair of the span, O(|span|^2 * width), over
    the library's elements, profiles and value numerators: the oracle for
    the least conflict that state_extension keeps in its one pass.
    """
    ordered = [(x, elems[x], profiles[x]) for x in sorted(elems)]
    for x, vx, px in ordered:
        for y, vy, py in ordered:
            if vx > vy and all(s <= t for s, t in zip(px, py)):
                raise PreconditionError(
                    f"state spec is inconsistent: {x} <= {y} but value "
                    f"{Fraction(vx, denom)} > {Fraction(vy, denom)}"
                )


def fast_state_extension(
    ring,
    spec: StateSpec,
    a,
    ball: int = 12,
    m_bound: int = 12,
    shifted: bool = False,
) -> StateRange:
    """Extension interval of the state fixed on a subsemigroup, at a.

    Relations b + t<a> <= c + (m + t)<a> with b, c in the span are
    enumerated for 1 <= m <= m_bound.  Without `shifted` only t = 0 is
    allowed.  The order is cancellative, so a shifted relation holds iff
    b <= c + m<a> does: every relation is decided at t = 0, and the
    witness (b, c, m, t) always has t = 0 either way.

    The spec is checked first for additivity (span_with_values), then
    for monotonicity (x <= y implies v(x) <= v(y)), then for the unit
    <1> with value 1.  A relation depends only on P(b) - P(c), and with
    additive values the ratio only on v(b) - v(c); removing the common
    part of two coefficient vectors changes neither and keeps both in
    the ball.  So pairs of disjoint support reach every optimum and every
    monotonicity conflict (_extension_optima), and the first conflicting
    pair in sorted order is searched for only once one is known.  The
    witness is the first (b, c, m) in sorted order reaching the optimum,
    recovered by looking up c by its value (_first_witness).
    """
    a = check_element(ring, a)
    check_states_exist(ring)
    v = order_unit(ring)
    elems, denom, supports = span_with_values(ring, spec, ball)
    profiles = {x: _profile(ring, x) for x in elems}
    pa = _profile(ring, a)
    best_p, best_q, monotone = _extension_optima(supports, elems, profiles, pa, m_bound)
    if not monotone:
        raise_first_conflict(elems, profiles, denom)
    ordered = [(x, elems[x], profiles[x]) for x in sorted(elems)]
    if elems.get(v) != denom:
        raise PreconditionError(
            "state spec must contain the order-unit <1> with value 1"
        )
    if best_p is None or best_q is None:
        raise BoundExceededError(
            f"no witness relation found within bounds ({ball}, {m_bound})"
        )
    by_value = {}
    for x, vx, px in ordered:
        by_value.setdefault(vx, []).append((x, px))
    return refuse_crossed(StateRange(
        p_lb=Fraction(best_p[0], best_p[1] * denom),
        q_ub=Fraction(best_q[0], best_q[1] * denom),
        p_witness=_first_witness(ordered, by_value, pa, m_bound, best_p, True),
        q_witness=_first_witness(ordered, by_value, pa, m_bound, best_q, False),
        exact=None,
    ))


# ---------------------------------------------------------------------------
# the one-pass state-extension kernel before packed profiles: each profile a
# tuple, scaled by lcm / P(a)_i, and least and most read off the two ends of
# one sorted difference per pair, with a second sort over the lanes where
# P(a) = 0; kept as an oracle for the packed-lane kernel whose cost, unlike
# fast_state_extension's, does not grow with m_bound


def _sorted_difference_span(ring, spec: StateSpec, ball: int):
    """Elements of the generated subsemigroup with ||.||_1 <= ball.

    Returns ({element: value numerator}, {element: profile}, denominator,
    {support: elements}): every value is an integer over one common
    denominator, and a support is the bitmask of the generators with a
    nonzero coefficient in some combination reaching the element.  Each
    step of the walk adds a generator's profile, value and norm, as the
    profile is additive.  The first additivity conflict, in lexicographic
    order of the coefficients, is rejected.
    """
    gens = [check_element(ring, g) for g in spec.generators]
    vals = [Fraction(v) for v in spec.values]
    if len(gens) != len(vals):
        raise PreconditionError("generator/value length mismatch")
    denom = lcm(*(v.denominator for v in vals))
    zero = monoid_identity(ring)
    combos = [(zero, zero, 0, 0, 0)]
    for i, (g, v) in enumerate(zip(gens, vals)):
        pg, ng, gv = _profile(ring, g), sum(g), v.numerator * (denom // v.denominator)
        grown = []
        for combo in combos:
            grown.append(combo)
            elt, prof, val, support, norm = combo
            support |= 1 << i
            while norm + ng <= ball:
                elt, prof = tuple(map(add, elt, g)), tuple(map(add, prof, pg))
                val, norm = val + gv, norm + ng
                grown.append((elt, prof, val, support, norm))
                if not ng:  # a zero generator is taken once, to expose its value
                    break
        combos = grown
    elems, profiles, supports = {}, {}, {}
    for elt, prof, val, support, _ in combos:
        prev = elems.setdefault(elt, val)
        if prev != val:
            raise PreconditionError(
                f"state spec is inconsistent: element {elt} gets values "
                f"{Fraction(prev, denom)} and {Fraction(val, denom)}"
            )
        profiles[elt] = prof
        supports.setdefault(support, set()).add(elt)
    return elems, profiles, denom, supports


def _sorted_difference_optima(elems, profiles, supports, pa, m_bound: int):
    """Best (d, m, witness) for p and for q, and the least conflicting pair.

    For a pair b, c with D = P(b) - P(c) and d = v(b) - v(c), b <= c +
    m<a> iff D <= m P(a): it holds for every m >= least = max_i
    ceil(D_i / P(a)_i), provided D_i <= 0 wherever P(a)_i = 0; likewise
    b >= c + m<a> holds for every m <= most = min_i floor(D_i / P(a)_i),
    provided D_i >= 0 there.  Profiles are scaled by s / P(a)_i, s the lcm
    of the positive P(a)_i, so least and most come from the ends of the
    sorted scaled difference; reversing the pair gives -most and -least.
    With d >= 0, a pair is worth d / max(1, least) for p and d / min(M,
    most) for q, at the least m worth it (1 for q when d = 0), and d > 0
    with least <= 0 is a conflict, b <= c with v(b) > v(c), of which the
    least (b, c) is returned (None without one).  q's witness is None when
    no pair has an upper relation; b = c always has a lower one.
    """
    scale = lcm(*(z for z in pa if z))
    factors = [(i, scale // z) for i, z in enumerate(pa) if z]
    zero = [i for i, z in enumerate(pa) if not z]
    rows = {
        x: (x, [px[i] * f for i, f in factors], [px[i] for i in zero], elems[x])
        for x, px in profiles.items()
    }
    groups = [(support, [rows[x] for x in xs]) for support, xs in supports.items()]
    # ratios as (d, m): -1/0 and 1/0 stand below and above every ratio
    p_d, p_m, p_w = -1, 0, None
    q_d, q_m, q_w = 1, 0, None
    conflict = None
    for i, (sb, bs) in enumerate(groups):
        for sc, cs in groups[i:]:
            if sb & sc:
                continue
            for x, px, zx, vx in bs:
                for y, py, zy, vy in cs:
                    if factors:
                        diff = sorted(map(sub, px, py))
                        least, most = -(-diff[-1] // scale), diff[0] // scale
                    else:  # P(a) = 0: every m or none
                        least, most = -inf, inf
                    if zero:
                        diff = sorted(map(sub, zx, zy))
                        least = inf if diff[-1] > 0 else least
                        most = -inf if diff[0] < 0 else most
                    d = vx - vy
                    if d > 0:
                        orients = ((x, y, d, least, most),)
                    elif d < 0:
                        orients = ((y, x, -d, -most, -least),)
                    else:
                        orients = ((x, y, 0, least, most), (y, x, 0, -most, -least))
                    for b, c, d, least, most in orients:
                        if least <= 0 < d:
                            conflict = min(conflict or (b, c), (b, c))
                            continue
                        low = least if least > 1 else 1
                        if low <= m_bound:
                            s, t = d * p_m, p_d * low
                            if s > t or s == t and (b, c, low) < p_w:
                                p_d, p_m, p_w = d, low, (b, c, low)
                        if most >= 1:
                            high = most if most < m_bound else m_bound
                            s, t = d * q_m, q_d * high
                            m = high if d else 1
                            if s < t or s == t and (b, c, m) < q_w:
                                q_d, q_m, q_w = d, high, (b, c, m)
    return (p_d, p_m, p_w), (q_d, q_m, q_w), conflict


def sorted_difference_state_extension(
    ring,
    spec: StateSpec,
    a,
    ball: int = 12,
    m_bound: int = 12,
    shifted: bool = False,
) -> StateRange:
    """state_extension by the one-pass sorted-difference kernel.

    The same checks, in the same order, as the library: additivity in the
    span walk, then the least monotonicity conflict, the unit, a missing
    q witness and crossed bounds.  Its cost does not grow with m_bound.
    """
    a = check_element(ring, a)
    if ball < 0:
        raise PreconditionError("ball must be >= 0")
    if m_bound < 1:
        raise PreconditionError("M must be >= 1")
    check_states_exist(ring)
    elems, profiles, denom, supports = _sorted_difference_span(ring, spec, ball)
    (p_d, p_m, p_w), (q_d, q_m, q_w), conflict = _sorted_difference_optima(
        elems, profiles, supports, _profile(ring, a), m_bound
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


# ---------------------------------------------------------------------------
# frozen state_extension answers: a seeded grid of requests whose outcomes
# tests/fixtures/extension_answers.json pins by sha256


def extension_answer_cases(count: int, seed: int = 2309):
    """count seeded state_extension requests (ring, spec, a, ball, M, shifted).

    Rings come from acceptance.SHIPPED_RINGS in turn, the shifted flag
    alternates and the spec kind cycles through four: values from one
    state (rk_k, or a component of a product), so the spec is consistent;
    one such value moved by a small fraction; random values, which most
    specs do not admit; and a unit vector worth a tenth more than its
    greatest state value, at a ball at most two above the unit's norm,
    where the conflict can lie outside the ball and the bounds cross.  a
    is 0 one time in six, and M reaches 10**6 and 10**18, so the profile
    lanes are wide.  The first count cases of a larger grid are this grid.
    """
    rng = random.Random(seed)
    for i in range(count):
        ring = parse_ring(SHIPPED_RINGS[i % len(SHIPPED_RINGS)])
        width = len(order_unit(ring))
        kind = i // len(SHIPPED_RINGS) % 4
        gens = [order_unit(ring)] + [
            tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(rng.randint(1, 2))
        ]
        if kind == 3:  # the unit and one unit vector, as in test_states.CROSSED
            j = rng.randrange(1, width)
            gens[1:] = [tuple(int(t == j) for t in range(width))]
        states = [
            [rk(ring, k, g) if ring.is_local else Fraction(g[k - 1]) for g in gens]
            for k in range(1, width + 1)
        ]
        values = list(rng.choice(states))
        if kind == 1:
            values[rng.randrange(len(values))] += Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        elif kind == 2:
            values = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in gens]
        elif kind == 3:
            values[-1] = max(s[-1] for s in states) + Fraction(1, 10)
        a = tuple(rng.randint(0, 2) for _ in range(width)) if rng.randrange(6) else (0,) * width
        norm = sum(gens[0])  # a ball below it lacks the unit
        ball = norm + rng.randint(0, 2) if kind == 3 else rng.randint(norm - 1, 7)
        m_bound = rng.choice((1, 2, 3, 4, 6, 12, 10**6, 10**18))
        yield ring, StateSpec(tuple(gens), tuple(values)), a, ball, m_bound, i % 2 == 1


def extension_answers(count: int) -> list:
    """The outcomes of the first count grid cases, as JSON: ["ok", the
    extend-state payload (cli.record_payload)] or [error type, text]."""
    out = []
    for case in extension_answer_cases(count):
        try:
            out.append(["ok", record_payload(state_extension(*case), "extension")])
        except (PreconditionError, BoundExceededError) as exc:
            out.append([type(exc).__name__, str(exc)])
    return out


def answers_sha256(outcomes) -> str:
    return hashlib.sha256(json.dumps(outcomes, sort_keys=True).encode()).hexdigest()
