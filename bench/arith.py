"""Independent exact arithmetic for planting inputs and checking answers.

Nothing here imports rankcert.  Planted inputs are built with this
arithmetic and the oracles recompute answers with it, so a defect in the
library's arithmetic cannot produce both a question and its answer.
Elements are plain ints (Z/p^n, GF(q) encodings) or coefficient tuples
(F_p[x]/x^n), rendered as the literals the library parses.
"""

from __future__ import annotations

from fractions import Fraction


# ---------------------------------------------------------------------------
# the two Artinian local families


class ModPrimePower:
    """Z/p^n; elements are ints in [0, p^n), radical generator c = p."""

    def __init__(self, p: int, n: int):
        self.p, self.n, self.q = p, n, p**n
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return (a + b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def c_pow(self, e):
        return 0 if e >= self.n else self.p**e

    def random(self, rng):
        return rng.randrange(self.q)

    def random_unit(self, rng):
        return rng.randrange(self.q // self.p) * self.p + rng.randrange(1, self.p)

    def literal(self, a):
        return str(a)


class TruncatedPoly:
    """F_p[x]/x^n; elements are n-tuples of coefficients, c = x."""

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        out = [0] * self.n
        for i, x in enumerate(a):
            if x:
                for j in range(self.n - i):
                    out[i + j] += x * b[j]
        return tuple(v % self.p for v in out)

    def c_pow(self, e):
        return tuple(1 if i == e else 0 for i in range(self.n))

    def random(self, rng):
        return tuple(rng.randrange(self.p) for _ in range(self.n))

    def random_unit(self, rng):
        return (rng.randrange(1, self.p),) + tuple(
            rng.randrange(self.p) for _ in range(self.n - 1)
        )

    def literal(self, a):
        terms = [str(c) if i == 0 else f"{c}x^{i}" for i, c in enumerate(a) if c]
        return "+".join(terms) or "0"


def local_arith(spec: str):
    """Arithmetic for a spec such as Z/8 or F2[x]/x^3."""
    if spec.startswith("Z/"):
        q = int(spec[2:])
        p = next(d for d in range(2, q + 1) if q % d == 0)
        n = 0
        while q > 1:
            q //= p
            n += 1
        return ModPrimePower(p, n)
    head, tail = spec.split("[x]/x^")
    return TruncatedPoly(int(head[1:]), int(tail))


def mat_mul(ar, A, B):
    return [
        [_dot(ar, row, [B[t][j] for t in range(len(B))]) for j in range(len(B[0]))]
        for row in A
    ]


def _dot(ar, xs, ys):
    acc = ar.zero
    for x, y in zip(xs, ys):
        acc = ar.add(acc, ar.mul(x, y))
    return acc


def random_invertible(ar, rng, size):
    """P * L * U with L unit lower and U upper triangular with unit diagonal.

    Invertible over any commutative ring, since its determinant is a unit.
    """
    L = [
        [ar.random(rng) if j < i else (ar.one if i == j else ar.zero) for j in range(size)]
        for i in range(size)
    ]
    U = [
        [ar.random(rng) if j > i else (ar.random_unit(rng) if i == j else ar.zero) for j in range(size)]
        for i in range(size)
    ]
    LU = mat_mul(ar, L, U)
    rng.shuffle(LU)
    return LU


def planted_local(ar, rng, rows, cols, exponents):
    """U * diag(c^e) * V for the given exponents (e = n is a zero entry)."""
    U = random_invertible(ar, rng, rows)
    V = random_invertible(ar, rng, cols)
    UD = [[ar.mul(U[i][t], ar.c_pow(e)) for t, e in enumerate(exponents)] for i in range(rows)]
    return mat_mul(ar, UD, V[: len(exponents)])


def class_vector(n, exponents):
    vec = [0] * n
    for e in exponents:
        if e < n:
            vec[e] += 1
    return tuple(vec)


# ---------------------------------------------------------------------------
# finite fields GF(q), q = p^k, for the product rings and residue fields


class FiniteField:
    """GF(p^k) with elements encoded base p, lowest degree first.

    The modulus is the least monic irreducible in the order that reads the
    coefficient list, lowest degree first, as a base-p number: the encoding
    the library documents for product-ring literals.
    """

    def __init__(self, q: int):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        k, rest = 0, q
        while rest > 1:
            rest //= p
            k += 1
        self.p, self.k, self.q = p, k, q
        if k == 1:
            self.add_t = [[(a + b) % p for b in range(p)] for a in range(p)]
            self.mul_t = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            if k > 3:
                raise ValueError("extension degrees above 3 are not supported")
            modulus = next(m for m in _monics(p, k) if _no_roots(m, p))
            self.add_t = [[_encode(_vadd(_decode(a, p, k), _decode(b, p, k), p), p) for b in range(q)] for a in range(q)]
            self.mul_t = [[_encode(_polymulmod(_decode(a, p, k), _decode(b, p, k), modulus, p), p) for b in range(q)] for a in range(q)]
        self.inv_t = {a: next(b for b in range(1, q) if self.mul_t[a][b] == 1) for a in range(1, q)}
        self.neg_t = [next(b for b in range(q) if self.add_t[a][b] == 0) for a in range(q)]


def _decode(a, p, k):
    out = []
    for _ in range(k):
        out.append(a % p)
        a //= p
    return out


def _encode(coeffs, p):
    out = 0
    for c in reversed(coeffs):
        out = out * p + c
    return out


def _vadd(a, b, p):
    return [(x + y) % p for x, y in zip(a, b)]


def _monics(p, k):
    for idx in range(p**k):
        yield _decode(idx, p, k) + [1]


def _no_roots(m, p):
    return all(sum(c * pow(r, i, p) for i, c in enumerate(m)) % p for r in range(p))


def _polymulmod(a, b, m, p):
    k = len(m) - 1
    prod = [0] * (2 * k)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for d in range(2 * k - 1, k - 1, -1):
        f = prod[d] % p
        if f:
            for i, c in enumerate(m):
                prod[d - k + i] -= f * c
    return [c % p for c in prod[:k]]


def field_rank(F: FiniteField, rows) -> int:
    M = [list(r) for r in rows]
    rank = 0
    for col in range(len(M[0]) if M else 0):
        piv = next((r for r in range(rank, len(M)) if M[r][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = F.inv_t[M[rank][col]]
        for r in range(rank + 1, len(M)):
            f = F.mul_t[M[r][col]][inv]
            if f:
                nf = F.neg_t[f]
                M[r] = [F.add_t[x][F.mul_t[nf][y]] for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


def field_mat_mul(F: FiniteField, A, B):
    out = []
    for row in A:
        new = []
        for j in range(len(B[0])):
            acc = 0
            for t, x in enumerate(row):
                acc = F.add_t[acc][F.mul_t[x][B[t][j]]]
            new.append(acc)
        out.append(new)
    return out


class FieldProduct:
    """F_q1 x ... x F_qr; matrices are kept as one grid per component."""

    def __init__(self, spec: str):
        self.fields = [FiniteField(int(t[1:])) for t in spec.split("*")]

    def random_grid(self, F, rng, rows, cols, rank=None):
        """A random grid, of rank at most `rank` when one is given."""
        if rank is None:
            return [[rng.randrange(F.q) for _ in range(cols)] for _ in range(rows)]
        X = self.random_grid(F, rng, rows, rank)
        Y = self.random_grid(F, rng, rank, cols)
        return field_mat_mul(F, X, Y) if rank else [[0] * cols for _ in range(rows)]

    def literals(self, grids):
        rows, cols = len(grids[0]), len(grids[0][0])
        return [
            ["(" + ",".join(str(g[i][j]) for g in grids) + ")" for j in range(cols)]
            for i in range(rows)
        ]


# ---------------------------------------------------------------------------
# the order oracles: prefix sums, with no Fraction in the comparison


def rank_numerators(vec):
    """k * rk_k(vec) for k = 1..n, an integer: sum over i < k of vec_i (k - i)."""
    out, prefix, acc = [], 0, 0
    for x in vec:
        prefix += x
        acc += prefix
        out.append(acc)
    return out


def local_leq(a, b) -> bool:
    return all(x <= y for x, y in zip(rank_numerators(a), rank_numerators(b)))


def least_violation(a, b):
    """(k, rk_k(a), rk_k(b)) for the least k with rk_k(a) > rk_k(b), or None."""
    for k, (x, y) in enumerate(zip(rank_numerators(a), rank_numerators(b)), start=1):
        if x > y:
            return k, Fraction(x, k), Fraction(y, k)
    return None


def minor_violation(e_a, e_b):
    """(k, mu_k(a), mu_k(b)) for the least k with mu_k(a) < mu_k(b), or None.

    mu_k is the k-th prefix sum of the sorted exponents; None for mu_k(b)
    stands for +infinity, when b has fewer than k entries.
    """
    pa, pb, acc = [], [], 0
    for e in sorted(e_a):
        acc += e
        pa.append(acc)
    acc = 0
    for e in sorted(e_b):
        acc += e
        pb.append(acc)
    for k, va in enumerate(pa, start=1):
        vb = pb[k - 1] if k <= len(pb) else None
        if vb is None or va < vb:
            return k, va, vb
    return None


# ---------------------------------------------------------------------------
# F2[x] with polynomials as bit masks (bit i is the coefficient of x^i)

# x^25 + x^3 + 1 is irreducible over F2.  A k x k minor of a matrix whose
# entries have degree <= 2 has degree <= 24 for k <= 12, so it vanishes
# modulo this polynomial only if it is zero: ranks over F2(x) of such
# matrices equal ranks over the field F2[x]/(x^25 + x^3 + 1).
GF2_25 = (1 << 25) | (1 << 3) | 1


def f2_mul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def f2_mod(a, m):
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def f2_literal(a):
    terms = [("1" if i == 0 else "x" if i == 1 else f"x^{i}") for i in range(a.bit_length() - 1, -1, -1) if a >> i & 1]
    return "+".join(terms) or "0"


def f2_rank_mod(rows, m):
    """Rank of a matrix over F2[x] reduced modulo an irreducible m."""
    M = [[f2_mod(x, m) for x in row] for row in rows]
    order = (1 << (m.bit_length() - 1)) - 1  # size of the multiplicative group
    rank = 0
    for col in range(len(M[0])):
        piv = next((r for r in range(rank, len(M)) if M[r][col]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv, base, e = 1, M[rank][col], order - 1
        while e:
            if e & 1:
                inv = f2_mod(f2_mul(inv, base), m)
            base = f2_mod(f2_mul(base, base), m)
            e >>= 1
        for r in range(rank + 1, len(M)):
            if M[r][col]:
                f = f2_mod(f2_mul(M[r][col], inv), m)
                M[r] = [x ^ f2_mod(f2_mul(f, y), m) for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank
