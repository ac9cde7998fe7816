"""Finite fields GF(p^k) = F_p[x]/(f), and the primality tests behind ring specs.

A prime field is Z/p, the local family `rings.ModPrimePowerRing` with
n = 1; GF(p^k) presents the same interface.  Its elements are plain ints
encoding coefficient vectors base p (lowest degree in the least
significant digit), reduced modulo the lexicographically least monic
irreducible of degree k.  Arithmetic takes and returns these canonical
ints: addition and negation work digitwise on the encoding (XOR when
p = 2), multiplication decodes, multiplies and reduces, and nothing is
re-reduced.  A field of order at most TABLE_CAP looks add and mul up in
tables that fill as pairs of canonical ints are met (`tabulated`, which
`rings.TruncatedPolyRing` and `rings.FieldProductRing` share).  As a
local ring with c = 0 (nil degree 1) the field is eliminated by
`normal_form.eliminate`, like every other field component; this module
does no linear algebra.
"""

from __future__ import annotations

from functools import cached_property
from itertools import count

from .errors import ParseError, PreconditionError
from .polys import min_irreducible, pdivmod, pmul


# Sorenson and Webster (2015): a strong probable prime to the 13 prime
# bases 2..41 is prime below this bound
PRIME_CAP = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# GF(p^k) with k >= 2 is built only up to this order: finding its modulus
# costs what the spec names, seconds for 2^128 and minutes for 1000003^4
FIELD_CAP = 2**32
# a ring of order q <= TABLE_CAP adds and multiplies by table lookup: at
# most q^2 = 4096 entries per table, filled as pairs are met
TABLE_CAP = 64


def is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_CAP, by strong probable-prime tests.

    Raises ParseError at or above the cap, where the 13 bases no longer
    decide primality.
    """
    if n >= PRIME_CAP:
        raise ParseError(f"primality is decided only below {PRIME_CAP}")
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_root(q: int, k: int) -> int:
    """The floor of q^(1/k) for q >= 1, by Newton's method on integers.

    Newton starts just above the root, from the root of q's leading bits,
    so it takes few steps whatever k is.
    """
    b = q.bit_length()
    s = b // (2 * k)
    x = 1 << -(-b // k) if s == 0 else (_integer_root(q >> (k * s), k) + 1) << s
    while True:
        y = ((k - 1) * x + q // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def factor_prime_power(q: int):
    """Return (p, k) with q = p^k, or raise if q is not a prime power.

    A prime p below 2^10 is found by trial division, which decides a huge
    q with a small factor at once.  A larger p has k <= log2(q) / 10: q is
    replaced by its exact l-th root for each prime l dividing k, in
    increasing order, and what is left must be prime.
    """
    if q < 2:
        raise ParseError(f"{q} is not a prime power")
    p = next((d for d in range(2, 1 << 10) if q % d == 0), q)
    if p == q:
        k, ell = 1, 2
        while ell <= p.bit_length() // 10:
            root = _integer_root(p, ell)
            if root**ell == p:
                p, k = root, k * ell
            else:
                ell = next(n for n in count(ell + 1) if is_prime(n))
        if is_prime(p):
            return p, k
        raise ParseError(f"{q} is not a prime power")
    k, rest = 0, q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ParseError(f"{q} is not a prime power")
    return p, k


def tabulated(op, p: int, e: int):
    """op(a, b) on a ring of order p^e, looked up in a table when p^e <= TABLE_CAP.

    The table starts empty; a pair is computed by op the first time it
    is met and looked up after that, so every entry is op's own result
    and a ring of order q holds at most q^2 of them, on canonical
    operands.  The table is the returned function's `table`.  A larger
    ring gets op itself, and p^e is not computed for an e at which p^e
    must exceed the cap.  A product of fields passes its order as p, with
    e = 1.
    """
    if e >= TABLE_CAP.bit_length() or p**e > TABLE_CAP:
        return op
    table = {}
    get = table.get

    def lookup(a, b):
        out = get((a, b))
        if out is None:
            out = table[a, b] = op(a, b)
        return out

    lookup.table = table
    return lookup


class ExtensionField:
    """GF(p^k), k >= 2, as F_p[x] modulo a monic irreducible of degree k; a local ring with c = 0."""

    is_local = True
    is_product = False
    nil_degree = 1
    zero = 0
    one = 1

    def __init__(self, p: int, k: int, modulus=None):
        if k < 2:  # GF(p) is Z/p, `rings.ModPrimePowerRing(p, 1)`
            raise PreconditionError(f"an extension field needs degree k >= 2, not {k}")
        self.p = p
        self.k = k
        self.size = p**k
        self.modulus = tuple(modulus) if modulus is not None else min_irreducible(p, k)
        if len(self.modulus) != k + 1 or self.modulus[-1] != 1:
            raise PreconditionError("modulus must be monic of degree k")

    def decode(self, a: int) -> tuple:
        """The coefficient tuple of a canonical element: its base-p digits."""
        coeffs, rest = [], a
        while rest:
            rest, c = divmod(rest, self.p)
            coeffs.append(c)
        return tuple(coeffs)

    def encode(self, coeffs) -> int:
        """The element with these coefficients, each in [0, p)."""
        out = 0
        for c in reversed(coeffs):
            out = out * self.p + c
        return out

    # add and mul are made on first use, so a parsed field that does no
    # arithmetic allocates no table
    @cached_property
    def add(self):
        return tabulated(self._add, self.p, self.k)

    @cached_property
    def mul(self):
        return tabulated(self._mul, self.p, self.k)

    def _add(self, a, b):
        p = self.p
        if p == 2:
            return a ^ b
        out, place = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + y) % p * place
            place *= p
        return out

    def neg(self, a):
        p = self.p
        if p == 2:
            return a
        out, place = 0, 1
        while a:
            a, x = divmod(a, p)
            out += -x % p * place
            place *= p
        return out

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def _mul(self, a, b):
        prod = pmul(self.decode(a), self.decode(b), self.p)
        return self.encode(pdivmod(prod, self.modulus, self.p)[1])

    def is_zero(self, a):
        return a == 0

    def valuation(self, a) -> int:
        return 1 if a == 0 else 0

    def shift(self, a, v: int):
        return a

    def unit_inverse(self, a):
        if a == 0:
            raise PreconditionError(f"0 is not a unit in {self!r}")
        # a^(q-2) = a^(-1) in GF(q)
        result, base, e = 1, a, self.size - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and (other.p, other.k, other.modulus) == (self.p, self.k, self.modulus)
        )

    def __hash__(self):
        return hash(("ExtensionField", self.p, self.k, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.k})"
