"""Dense univariate polynomials over F_p.

A polynomial is a tuple of coefficients, lowest degree first, with no
trailing zeros; the zero polynomial is the empty tuple.  All functions
take the prime p explicitly.
"""

from __future__ import annotations

import re

from .errors import ParseError

_TERM = re.compile(r"^(\d+)?(x(?:\^(\d+))?)?$")


def pnormalize(coeffs, p) -> tuple:
    out = [int(c) % p for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pdegree(a) -> int:
    """Degree, with deg(0) = -1."""
    return len(a) - 1


def padd(a, b, p) -> tuple:
    m = max(len(a), len(b))
    out = [0] * m
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return pnormalize(out, p)


def pneg(a, p) -> tuple:
    return tuple((-c) % p for c in a)


def pmul(a, b, p) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return pnormalize(out, p)


def pscale(a, s, p) -> tuple:
    return pnormalize([c * s for c in a], p)


def pdivmod(a, b, p) -> tuple:
    """Quotient and remainder of a by b (b nonzero; coefficients in F_p)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lead_inv = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    while len(rem) >= len(b):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(b):
            break
        shift = len(rem) - len(b)
        factor = (rem[-1] * lead_inv) % p
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - factor * c) % p
    return pnormalize(quo, p), pnormalize(rem, p)


def pdivides(b, a, p) -> bool:
    """True iff b divides a in F_p[x]."""
    if not b:
        return not a
    return not pdivmod(a, b, p)[1]


def is_irreducible(f, p) -> bool:
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
    for them.
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
    try:
        out = [0] * (max(coeffs) + 1 if coeffs else 0)
    except (OverflowError, MemoryError):
        raise ParseError(f"degree too high in polynomial literal {text[:40]!r}") from None
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
