"""The numbers behind ring specs: primality, prime-power factoring and the caps.

The fields themselves are rings: GF(p) is Z/p, `rings.ModPrimePowerRing`
with n = 1, and GF(p^k) for k >= 2 is `rings.ExtensionField`, a local
ring of nil degree 1.  This module decides which specs name them and
bounds what a spec may cost: `PRIME_CAP` for primality, `FIELD_CAP` for
the order of an extension field, and `TABLE_CAP` for the order up to
which a ring adds and multiplies by table lookup.
"""

from __future__ import annotations

from itertools import count

from .errors import ParseError


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
