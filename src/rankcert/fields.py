"""Finite fields GF(q) and dense linear algebra over them.

Field elements are plain ints.  For GF(p) they are residues in [0, p);
for GF(p^k) they encode coefficient vectors base p (lowest degree in the
least significant digit), reduced modulo the lexicographically least
monic irreducible of degree k.  Matrices over a field are tuples of
tuples of ints.
"""

from __future__ import annotations

from .errors import ParseError, PreconditionError
from .polys import min_irreducible, pdivmod, pmul, pnormalize


def _least_divisor(q: int) -> int:
    """The least divisor d >= 2 of q >= 2, by trial division up to sqrt(q)."""
    d = 2
    while d * d <= q:
        if q % d == 0:
            return d
        d += 1
    return q


def is_prime(p: int) -> bool:
    return p >= 2 and _least_divisor(p) == p


def factor_prime_power(q: int):
    """Return (p, k) with q = p^k, or raise if q is not a prime power."""
    if q < 2:
        raise ParseError(f"{q} is not a prime power")
    p = _least_divisor(q)
    k, rest = 0, q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ParseError(f"{q} is not a prime power")
    return p, k


class PrimeField:
    """GF(p) with residue arithmetic."""

    def __init__(self, p: int):
        self.p = p
        self.size = p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, -1, self.p)

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class ExtensionField:
    """GF(p^k) as F_p[x] modulo a monic irreducible of degree k."""

    def __init__(self, p: int, k: int, modulus=None):
        self.p = p
        self.k = k
        self.size = p**k
        self.modulus = tuple(modulus) if modulus is not None else min_irreducible(p, k)
        if len(self.modulus) != k + 1 or self.modulus[-1] != 1:
            raise PreconditionError("modulus must be monic of degree k")

    def decode(self, a: int) -> tuple:
        coeffs, rest = [], a
        while rest:
            coeffs.append(rest % self.p)
            rest //= self.p
        return pnormalize(coeffs, self.p)

    def encode(self, coeffs) -> int:
        out = 0
        for c in reversed(pnormalize(coeffs, self.p)):
            out = out * self.p + c
        return out

    def add(self, a, b):
        ca, cb = self.decode(a), self.decode(b)
        m = max(len(ca), len(cb))
        out = [0] * m
        for i, c in enumerate(ca):
            out[i] = c
        for i, c in enumerate(cb):
            out[i] = (out[i] + c) % self.p
        return self.encode(out)

    def neg(self, a):
        return self.encode(tuple((-c) % self.p for c in self.decode(a)))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        prod = pmul(self.decode(a), self.decode(b), self.p)
        return self.encode(pdivmod(prod, self.modulus, self.p)[1])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        # a^(q-2) = a^(-1) in GF(q)
        result, base, e = 1, a, self.size - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def elements(self):
        return range(self.size)

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and (other.p, other.k, other.modulus) == (self.p, self.k, self.modulus)
        )

    def __hash__(self):
        return hash(("ExtensionField", self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"


def make_field(q: int):
    p, k = factor_prime_power(q)
    return PrimeField(p) if k == 1 else ExtensionField(p, k)


def field_mat_mul(field, A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    if len(A[0]) != inner:
        raise PreconditionError("dimension mismatch in field matrix product")
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc = field.add(acc, field.mul(A[i][t], B[t][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def field_identity(field, m):
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def field_rank(field, rows) -> int:
    """Rank by Gaussian elimination; rows is a sequence of sequences."""
    M = [list(r) for r in rows]
    nrows, ncols = len(M), len(M[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[rank], M[pivot] = M[pivot], M[rank]
        inv = field.inv(M[rank][col])
        M[rank] = [field.mul(inv, x) for x in M[rank]]
        for r in range(nrows):
            if r != rank and M[r][col] != 0:
                f = M[r][col]
                M[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(M[r], M[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def field_paq(field, rows):
    """Factor A = P * diag(I_r, 0) * Q over a field.

    Returns (r, P, Pinv, Q, Qinv) with P (m x m) and Q (n x n) invertible.
    Row/column operations are applied to a working copy while P and Q
    accumulate their inverses, so the identity A = P * D * Q holds exactly.
    """
    M = [list(r) for r in rows]
    m, n = len(M), len(M[0])
    P = [list(r) for r in field_identity(field, m)]
    Pinv = [list(r) for r in field_identity(field, m)]
    Q = [list(r) for r in field_identity(field, n)]
    Qinv = [list(r) for r in field_identity(field, n)]

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
        s_inv = field.inv(s)
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
            scale_row(d, field.inv(M[d][d]))
        for r in range(d + 1, m):
            if M[r][d] != 0:
                add_row(r, d, field.neg(M[r][d]))
        for c in range(d + 1, n):
            if M[d][c] != 0:
                add_col(c, d, field.neg(M[d][c]))
        d += 1

    freeze = lambda rows_: tuple(tuple(r) for r in rows_)
    return d, freeze(P), freeze(Pinv), freeze(Q), freeze(Qinv)
