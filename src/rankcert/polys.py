"""Dense univariate polynomials over F_p.

A polynomial is a tuple of coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  All functions
take the prime p explicitly.

Arithmetic takes canonical polynomials (coefficients in [0, p), no
trailing zeros) and returns canonical polynomials without re-reducing
them: `padd`, `pmul`, `pdivmod` and `pmod_monic` reduce each coefficient
once and strip trailing zeros only where a leading term can cancel.  Only
`pnormalize`, and through it `parse_poly` and `pscale`, canonicalizes
arbitrary coefficient lists.

Over F_2 a polynomial is also a bit int, bit i the coefficient of x^i, as
GF(2^k) (`rings.ExtensionField`) and F2[x] `normal_form.bareiss` store it.
There addition is XOR, and the carry-less `clmul`, `clquo` and `clmod`
shift and XOR whole ints, once per set bit of a factor or of the quotient.
"""

from __future__ import annotations

import re

from .errors import ParseError

_TERM = re.compile(r"^(\d+)?(x(?:\^(\d+))?)?$")
# a literal is parsed only up to this degree: its dense coefficient list
# costs time and memory in the degree (x^10000000 took 3 s and 237 MiB)
DEGREE_CAP = 2**16


def pnormalize(coeffs, p) -> tuple:
    out = [int(c) % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pstrip(out: list) -> tuple:
    """The tuple of reduced coefficients out, without its trailing zeros."""
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pdegree(a) -> int:
    """Degree, with deg(0) = -1."""
    return len(a) - 1


def padd(a, b, p) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = [(x + y) % p for x, y in zip(a, b)]
    if len(a) > len(b):  # the leading term of a survives
        return tuple(out) + a[len(b) :]
    return pstrip(out)


def pneg(a, p) -> tuple:
    return tuple([-c % p for c in a])


def pmul(a, b, p, below=None) -> tuple:
    """The product a * b, or its terms of degree < below when below is given.

    Coefficients are reduced once, after the convolution.  Over the field
    F_p the full product's leading coefficient is nonzero, so only a
    truncated product can need stripping.
    """
    if not a or not b:
        return ()
    size = len(a) + len(b) - 1
    if below is not None and below < size:
        size = below
    out = [0] * size
    for i, ca in enumerate(a[:size]):
        if ca:
            for j, cb in enumerate(b[: size - i], i):
                out[j] += ca * cb
    if below is None:
        return tuple([c % p for c in out])
    return pstrip([c % p for c in out])


def pscale(a, s, p) -> tuple:
    return pnormalize([c * s for c in a], p)


def pdivmod(a, b, p) -> tuple:
    """Quotient and remainder of a by b (b nonzero; coefficients in F_p).

    The remainder's coefficients are reduced once, at the end; each
    quotient term reads its coefficient modulo p as it goes.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = pow(b[-1], -1, p)
    top = len(b) - 1
    terms = [(i, c) for i, c in enumerate(b[:top]) if c]
    rem = list(a)
    quo = [0] * max(0, len(a) - top)
    for shift in range(len(a) - len(b), -1, -1):
        factor = rem[shift + top] * lead_inv % p
        if factor:
            quo[shift] = factor
            for i, c in terms:
                rem[shift + i] -= factor * c
    return tuple(quo), pstrip([c % p for c in rem[:top]])


def pmod_monic(a, m, p) -> tuple:
    """The remainder of a modulo a monic m of degree >= 1, as pdivmod(a, m, p)[1].

    Synthetic division: no quotient is built and the leading coefficient,
    1, is never inverted.  A canonical a of lower degree than m is its
    own remainder, and the remainder modulo x - r is a(r), by Horner's rule.
    """
    top = len(m) - 1
    if len(a) <= top:
        return a
    if top == 1:
        r, out = -m[0] % p, 0
        for c in reversed(a):
            out = (out * r + c) % p
        return (out,) if out else ()
    terms = [(i, p - c) for i, c in enumerate(m[:top]) if c]  # -m below its leading term
    rem = list(a)
    for lead in range(len(a) - 1, top - 1, -1):
        factor = rem[lead] % p
        if factor:
            base = lead - top
            for i, c in terms:
                rem[base + i] += factor * c
    return pstrip([c % p for c in rem[:top]])


def clmul(a: int, b: int) -> int:
    """The product of two F2[x] bit ints: the denser shifted to each set bit of the other."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << low.bit_length() - 1
        a ^= low
    return out


def clquo(a: int, b: int) -> int:
    """The quotient of the F2[x] bit int a by a nonzero b; exact when b divides a."""
    top, out = b.bit_length(), 0
    while (n := a.bit_length()) >= top:
        out |= 1 << n - top
        a ^= b << n - top
    return out


def clmod(a: int, m: int) -> int:
    """The remainder of the F2[x] bit int a modulo a nonzero m (monic, as over F_2 all are)."""
    top = m.bit_length()
    while (n := a.bit_length()) >= top:
        a ^= m << n - top
    return a


def pdivides(b, a, p) -> bool:
    """True iff b divides a in F_p[x]."""
    if not b:
        return not a
    return not pdivmod(a, b, p)[1]


def _frobenius(a, f, p) -> tuple:
    """a^p modulo f.

    Over F_p, a(x)^p = a(x^p): for p <= deg f the coefficients are spread
    p apart and reduced once; a larger p squares and multiplies.
    """
    if p < len(f):
        spread = [0] * ((len(a) - 1) * p + 1) if a else []
        spread[::p] = a
        return pdivmod(tuple(spread), f, p)[1]
    out, e = (1,), p
    while e:
        if e & 1:
            out = pdivmod(pmul(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = pdivmod(pmul(a, a, p), f, p)[1]
    return out


def _pgcd(a, b, p) -> tuple:
    """A greatest common divisor of a and b (not made monic)."""
    while b:
        a, b = b, pdivmod(a, b, p)[1]
    return a


def is_irreducible(f, p) -> bool:
    """Ben-Or's test: f of degree k >= 2 is irreducible over F_p iff gcd(f,
    x^(p^i) - x) = 1 for i = 1..k/2, as x^(p^i) - x is the product of the
    monic irreducibles of degree dividing i.  It returns at the first common
    factor, after d p-th powers modulo f for a least factor of degree d."""
    k = pdegree(f)
    if k <= 1:
        return k == 1
    power, minus_x = (0, 1), (0, p - 1)
    for _ in range(k // 2):
        power = _frobenius(power, f, p)  # x^(p^i) modulo f
        if len(_pgcd(f, padd(power, minus_x, p), p)) > 1:
            return False
    return True


def min_irreducible(p, k) -> tuple:
    """Lexicographically least monic irreducible of degree k over F_p."""
    for idx in range(p**k):
        coeffs, rest = [], idx
        for _ in range(k):
            coeffs.append(rest % p)
            rest //= p
        coeffs.append(1)
        f = tuple(coeffs)
        if is_irreducible(f, p):
            return f
    raise ValueError(f"no irreducible of degree {k} over F_{p}")


def parse_poly(text, p, below=None) -> tuple:
    """Parse literals like 'x^2+x', '2x+1', '-x', '0'.

    Terms of degree >= below, when below is given, are dropped before the
    dense coefficient list is built, so a truncated ring never allocates
    for them.  A kept term of degree above DEGREE_CAP is a ParseError.
    """
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial literal")
    s = s.replace("-", "+-").lstrip("+")
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        neg = term.startswith("-")
        body = term[1:] if neg else term
        m = _TERM.match(body)
        if not m or not body:
            raise ParseError(f"bad polynomial term {term!r} in {text!r}")
        coef_s, xpart, exp_s = m.group(1), m.group(2), m.group(3)
        if coef_s is None and xpart is None:
            raise ParseError(f"bad polynomial term {term!r} in {text!r}")
        try:  # int() refuses literals beyond the interpreter's digit limit
            coef = int(coef_s) if coef_s is not None else 1
            exp = 0
            if xpart is not None:
                exp = int(exp_s) if exp_s is not None else 1
        except ValueError:
            raise ParseError(f"number too long in polynomial literal {text[:40]!r}") from None
        if neg:
            coef = -coef
        if below is None or exp < below:
            coeffs[exp] = coeffs.get(exp, 0) + coef
    degree = max(coeffs) if coeffs else -1
    if degree > DEGREE_CAP:
        raise ParseError(f"degree above {DEGREE_CAP} in polynomial literal {text[:40]!r}")
    out = [0] * (degree + 1)
    for e, c in coeffs.items():
        out[e] = c
    return pnormalize(out, p)


def format_poly(a) -> str:
    """Canonical rendering, highest degree first; inverse of parse_poly."""
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("x" if c == 1 else f"{c}x")
        else:
            parts.append(f"x^{e}" if c == 1 else f"{c}x^{e}")
    return "+".join(parts)
