"""Shared random generators and reference implementations for the test suite."""

from fractions import Fraction

from rankcert import (
    BoundExceededError,
    Matrix,
    PreconditionError,
    StateRange,
    is_invertible,
    leq,
    order_unit,
    rank_profile,
)
from rankcert.semigroup import check_element, monoid_add, monoid_identity, monoid_scale


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


def random_monoid_element(ring, rng, max_norm):
    width = len(order_unit(ring))
    vec = [0] * width
    for _ in range(rng.randrange(max_norm + 1)):
        vec[rng.randrange(width)] += 1
    return tuple(vec)


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
    return StateRange(best_p[0], best_q[0], best_p[1], best_q[1], None)
