"""Supported coefficient rings and exact dense matrices over them.

Five families are available, named in the same grammar the CLI accepts:

    Z           integers
    Z/8         Z/p^n, Artinian local with radical generator c = p
    F2[x]       polynomials over a prime field
    F2[x]/x^3   truncated polynomials, Artinian local with c = x
    F2*F3*F5    finite product of finite fields (von Neumann regular)

Every value is a canonical immutable object, so equality of values is
equality in the ring.  A value of Z/p^n is its residue in [0, p^n); a
value of F_p[x]/x^n is its F_p[x] coefficient tuple cut below degree n.
The local families read the radical generator c off that form on demand:
valuation(a) is the largest v with c^v dividing a (n for zero), and
shift(a, v), for v <= valuation(a), is the canonical a / c^v, so
mul(shift(a, v), generator_power(v)) == a and shift(a, valuation(a)) is
a unit; generator_power(i) is c^i by square-and-multiply (`Ring.power`),
in O(log i) products.  A field component of a product is local too:
GF(p) is Z/p, the family with n = 1, and GF(p^k) for k >= 2 is
`ExtensionField`, with c = 0 and nil degree 1.  No floating point is
used anywhere.

Values are validated once, at the boundary: `normalize`, `parse` and
the public `Matrix(...)` / `matrix(...)` canonicalize whatever they are
given.  Inside that boundary every ring operation takes canonical values
and returns canonical values without re-reducing them, and matrices the
library builds from such values skip normalization (`Matrix._canonical`).
So F_p[x]/x^n, GF(p^k) and finite products of fields (F2*F3, F2*F3*F5,
F4*F9) of order at most `fields.TABLE_CAP` = 64 add, multiply, negate
and take valuations by table lookup, decided in one place, `Ring` (add,
mul and neg) and `_LocalRing` (valuation): each canonical argument, or
pair of them, is computed once, the first time it is met, and looked up
after that in a `_Table`, a dict that fills itself.  A two-argument
table holds at most 64^2 = 4096 entries and a one-argument table at most
64, and none exists before the ring's first use of its operation.
Whether a ring tabulates is read off its spec, never by computing p^n
for a large n or the order of a long product.  Z, F_p[x], Z/p^n and
prime fields keep their own methods, one step per operation.  The byte
tables through which `normal_form.eliminate` works over a local ring of
order at most 16 live in `normal_form`.  `parse_matrix` reads entry
texts through a `_Literals` table, parsing each distinct text once.  A
ring of order at most 64 keeps its table as long as it lives, as it keeps
its add and mul tables; the table stores a text only if it has at most 64
characters and the table holds fewer than 4096, so it costs 1.8 MiB at
worst.  Any other ring parses through a table local to the call, and
keeps nothing after it returns.

Every finite field is built here: `make_field` for a product component,
and `residue_field` for the residue field of Z or F_p[x] modulo a prime,
with the map onto it.  An F_p[x] value reaches its residue field one
way, as its remainder modulo the monic pi read as base-p digits, the
encoding of `ExtensionField`; when pi has degree 1 that is a value of
Z/p.

The guards shared by every family live in `Ring` alone: `is_zero`
compares with the canonical zero, `unit_inverse` raises
PreconditionError unless `is_unit` holds and then calls the family's
`_inverse`, and `format` is `str` unless a family prints otherwise.
"""

from __future__ import annotations

import re
from functools import cached_property, partial
from itertools import product, repeat

from .errors import ParseError, PreconditionError, check_int
from .fields import FIELD_CAP, TABLE_CAP, factor_prime_power, is_prime
from .polys import (
    DEGREE_CAP,
    format_poly,
    is_irreducible,
    min_irreducible,
    padd,
    parse_poly,
    pdivides,
    pmod_monic,
    pmul,
    pneg,
    pnormalize,
    pscale,
    pstrip,
)


class _Table(dict):
    """op(key) for each key, computed the first time the key is met.

    A missing key calls op once and stores what it returns, so every
    entry is op's own result.  Over a ring of order q a table keyed by
    canonical values holds at most q entries.  A table's bound
    `__getitem__` answers a key already met in one C-level call.
    """

    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op

    def __missing__(self, key):
        out = self[key] = self.op(key)
        return out


class _Literals(_Table):
    """parse(text) for each literal text met, kept while the table is small.

    A missing text is parsed, and stored only if it has at most TABLE_CAP
    characters and the table holds fewer than TABLE_CAP^2 = 4096 entries;
    past either limit it is parsed on every meeting.  A text that fails
    to parse raises and is not stored.
    """

    __slots__ = ()

    def __missing__(self, text):
        if type(text) is not str:  # so True never meets the entry of "1"
            return self[str(text)]
        out = self.op(text)
        if len(text) <= TABLE_CAP and len(self) < TABLE_CAP * TABLE_CAP:
            self[text] = out
        return out


def tabulated(op):
    """op(a, b), looked up in a `_Table` keyed by the pair (a, b).

    The table starts empty and holds at most q^2 entries for a ring of
    order q, on canonical operands.  It is the returned function's `table`.
    """
    table = _Table(lambda pair: op(*pair))
    get = table.__getitem__

    def lookup(a, b):
        return get((a, b))

    lookup.table = table
    return lookup


def _product_at_most(factors, cap) -> bool:
    """True iff the product of factors, each >= 2, is at most cap.

    It stops at the first partial product above the cap, so it takes at
    most cap.bit_length() steps and never forms a large power.
    """
    order = 1
    for q in factors:
        order *= q
        if order > cap:
            return False
    return True


def _digits(a: int, p: int) -> tuple:
    """The base-p digits of a >= 0, least significant first."""
    out = []
    while a:
        a, c = divmod(a, p)
        out.append(c)
    return tuple(out)


def _read_digits(digits, p: int) -> int:
    """The int with these base-p digits, least significant first, each in [0, p)."""
    out = 0
    for c in reversed(digits):
        out = out * p + c
    return out


class Ring:
    """Common interface; concrete families override what they compute.

    Every family defines is_unit and _inverse; is_zero, the unit_inverse
    guard and the str formatter are defined here once.  Z, F_p[x] and
    Z/p^n define add, mul and neg themselves.  The other families define
    _add, _mul and _neg, and set `tabulates` when their order is at most
    TABLE_CAP; then add and mul look _add and _mul up in tables
    (`tabulated`), and neg is the lookup of a one-argument `_Table` of
    _neg; otherwise they are _add, _mul and _neg.
    """

    spec = ""
    is_local = False
    is_product = False
    is_finite = False
    tabulates = False

    def normalize(self, raw):
        raise NotImplementedError

    # made on first use, so a parsed ring that does no arithmetic
    # allocates no table
    @cached_property
    def add(self):
        return tabulated(self._add) if self.tabulates else self._add

    @cached_property
    def mul(self):
        return tabulated(self._mul) if self.tabulates else self._mul

    @cached_property
    def neg(self):
        return _Table(self._neg).__getitem__ if self.tabulates else self._neg

    @cached_property
    def _literals(self):
        """The `_Literals` of parse, kept by a ring of order <= TABLE_CAP (`parse_matrix`)."""
        return _Literals(self.parse)

    def _order_at_most(self, cap) -> bool:
        """True iff the ring has at most cap elements, read off its spec.

        An infinite ring has more; a finite family reads its own spec.
        """
        return False

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        return a == self.zero  # exact: values are canonical

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def unit_inverse(self, a):
        if not self.is_unit(a):
            raise PreconditionError(f"{self.format(a)} is not a unit in {self.spec}")
        return self._inverse(a)

    def _inverse(self, a):
        """The inverse of a value that is_unit accepts."""
        raise NotImplementedError

    def ideal_member(self, x, gen) -> bool:
        """True iff x lies in the principal ideal generated by gen."""
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        return str(a)

    def elements(self):
        raise PreconditionError(f"{self.spec} is infinite")

    def power(self, a, e: int):
        """a^e for e >= 0, by square-and-multiply: O(log e) products."""
        out = self.one
        while e:
            if e & 1:
                out = self.mul(out, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return out

    def __eq__(self, other):
        return type(other) is type(self) and other.spec == self.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"Ring({self.spec})"


class IntegerRing(Ring):
    spec = "Z"

    def __init__(self):
        self.zero = 0
        self.one = 1

    def normalize(self, raw):
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ParseError(f"bad integer literal {raw!r}")
        return raw

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a in (1, -1)

    def _inverse(self, a):
        return a

    def ideal_member(self, x, gen):
        if gen == 0:
            return x == 0
        return x % gen == 0

    def parse(self, text):
        try:
            return int(text)
        except ValueError:
            raise ParseError(f"bad integer literal {text!r}") from None


class PolyRing(Ring):
    """F_p[x]; values are coefficient tuples, lowest degree first."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ParseError(f"{p} is not prime")
        self.p = p
        self.spec = f"F{p}[x]"
        self.zero = ()
        self.one = (1,)

    def normalize(self, raw):
        if isinstance(raw, (list, tuple)):
            return pnormalize(raw, self.p)
        if isinstance(raw, int) and not isinstance(raw, bool):
            return pnormalize((raw,), self.p)
        raise ParseError(f"bad polynomial literal {raw!r}")

    def add(self, a, b):
        return padd(a, b, self.p)

    def neg(self, a):
        return pneg(a, self.p)

    def mul(self, a, b):
        return pmul(a, b, self.p)

    def is_unit(self, a):
        return len(a) == 1

    def _inverse(self, a):
        return (pow(a[0], -1, self.p),)

    def ideal_member(self, x, gen):
        return pdivides(gen, x, self.p)

    def parse(self, text):
        return parse_poly(text, self.p)

    def format(self, a):
        return format_poly(a)


class _LocalRing(Ring):
    """Shared logic for the Artinian local families: Z/p^n, F_p[x]/x^n and GF(p^k).

    A unit is a value of valuation 0; `Ring.unit_inverse` guards it.
    """

    is_local = True
    is_finite = True

    nil_degree: int  # least n with c^n = 0
    generator: object  # the radical generator c

    # Z/p^n defines valuation itself; F_p[x]/x^n and GF(p^k) define
    # _valuation, looked up like neg when the ring tabulates
    @cached_property
    def valuation(self):
        """Largest v with c^v dividing a; nil_degree for zero."""
        return _Table(self._valuation).__getitem__ if self.tabulates else self._valuation

    def shift(self, a, v: int):
        """The canonical a / c^v, for 0 <= v <= valuation(a)."""
        raise NotImplementedError

    def is_unit(self, a):
        return self.valuation(a) == 0

    def ideal_member(self, x, gen):
        return self.valuation(x) >= self.valuation(gen)

    def generator_power(self, i: int):
        """c^i, with i = nil_degree giving zero."""
        if not 0 <= i <= self.nil_degree:
            raise PreconditionError(f"exponent {i} outside [0, {self.nil_degree}]")
        return self.power(self.generator, i)

    def parse(self, text):
        """An int literal, read by normalize (F_p[x]/x^n reads polynomials)."""
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"bad residue literal {text!r}") from None
        return self.normalize(value)


class ModPrimePowerRing(_LocalRing):
    """Z/p^n with radical generator c = p; values are residues in [0, p^n)."""

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise ParseError(f"{p} is not prime")
        if n < 1:
            raise ParseError("exponent must be >= 1")
        self.p = p
        self.nil_degree = n
        self.modulus = p**n
        self.spec = f"Z/{self.modulus}"
        self.zero = 0
        self.one = 1
        self.generator = self.normalize(p)

    def normalize(self, raw):
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ParseError(f"bad residue literal {raw!r}")
        return raw % self.modulus

    def valuation(self, a):
        if a == 0:
            return self.nil_degree
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def shift(self, a, v):
        return a // self.p**v if v else a

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return -a % self.modulus

    def mul(self, a, b):
        return a * b % self.modulus

    def _inverse(self, a):
        return pow(a, -1, self.modulus)

    def _order_at_most(self, cap):
        return self.modulus <= cap

    def elements(self):
        return list(range(self.modulus))


class TruncatedPolyRing(_LocalRing):
    """F_p[x]/(x^n) with radical generator c = x; values are F_p[x] tuples of length <= n."""

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise ParseError(f"{p} is not prime")
        if n < 1:
            raise ParseError("exponent must be >= 1")
        if n > DEGREE_CAP:
            # arithmetic costs O(n) in the nil degree that a spec names
            raise ParseError(f"nil degree above {DEGREE_CAP} in F{p}[x]/x^{n}")
        self.p = p
        self.nil_degree = n
        self.spec = f"F{p}[x]/x^{n}"
        self.zero = ()
        self.one = (1,)
        self.generator = self.normalize((0, 1))
        self.tabulates = self._order_at_most(TABLE_CAP)
        self._add = partial(padd, p=p)
        self._mul = partial(pmul, p=p, below=n)

    def normalize(self, raw):
        if isinstance(raw, int) and not isinstance(raw, bool):
            raw = (raw,)
        if not isinstance(raw, (list, tuple)):
            raise ParseError(f"bad truncated polynomial literal {raw!r}")
        return pnormalize(raw[: self.nil_degree], self.p)

    def _valuation(self, a):
        return next((i for i, c in enumerate(a) if c), self.nil_degree)

    def shift(self, a, v):
        return a[v:]

    def _neg(self, a):
        return pneg(a, self.p)

    def _order_at_most(self, cap):
        return _product_at_most(repeat(self.p, self.nil_degree), cap)

    def _inverse(self, a):
        # power series inversion of the unit up to degree n-1, in O(n * deg a);
        # a constant unit is its own series
        inv0 = pow(a[0], -1, self.p)
        w = [inv0]
        if len(a) > 1:
            for k in range(1, self.nil_degree):
                acc = sum(a[i] * w[k - i] for i in range(1, min(k, len(a) - 1) + 1))
                w.append(-inv0 * acc % self.p)
        return pstrip(w)

    def parse(self, text):
        # parse_poly already reduces mod p and drops terms of degree >= n
        return parse_poly(text, self.p, below=self.nil_degree)

    def format(self, a):
        return format_poly(a)

    def elements(self):
        return [pnormalize(c, self.p) for c in product(range(self.p), repeat=self.nil_degree)]


class ExtensionField(_LocalRing):
    """GF(p^k) = F_p[x]/(f) for a monic irreducible f of degree k >= 2; local with c = 0.

    f defaults to the lexicographically least monic irreducible of
    degree k.  An element is a plain int encoding its coefficient vector
    base p, lowest degree in the least significant digit.  Every
    operation decodes, works through the F_p[x] kernels of `polys` and
    encodes, multiplication reducing modulo f; only when p = 2 are
    addition XOR and negation the identity.  The spec names p and f, so
    fields with different moduli are unequal.
    """

    nil_degree = 1
    generator = 0
    zero = 0
    one = 1

    def __init__(self, p: int, k: int, modulus=None):
        if k < 2:  # GF(p) is Z/p, `ModPrimePowerRing(p, 1)`
            raise PreconditionError(f"an extension field needs degree k >= 2, not {k}")
        self.p = p
        self.k = k
        self.size = p**k
        self.modulus = tuple(modulus) if modulus is not None else min_irreducible(p, k)
        if len(self.modulus) != k + 1 or self.modulus[-1] != 1:
            raise PreconditionError("modulus must be monic of degree k")
        self.spec = f"F{p}[x]/({format_poly(self.modulus)})"
        self.tabulates = self._order_at_most(TABLE_CAP)

    def normalize(self, raw):
        """An int encoding in [0, q), as a product-ring component is read."""
        if isinstance(raw, bool) or not isinstance(raw, int) or not 0 <= raw < self.size:
            raise ParseError(f"bad GF({self.size}) literal {raw!r}: an int in [0, {self.size})")
        return raw

    def decode(self, a: int) -> tuple:
        """The coefficient tuple of a canonical element: its base-p digits."""
        return _digits(a, self.p)

    def encode(self, coeffs) -> int:
        """The element with these coefficients, each in [0, p)."""
        return _read_digits(coeffs, self.p)

    def _add(self, a, b):
        if self.p == 2:
            return a ^ b
        return self.encode(padd(self.decode(a), self.decode(b), self.p))

    def _neg(self, a):
        if self.p == 2:
            return a
        return self.encode(pneg(self.decode(a), self.p))

    def _mul(self, a, b):
        prod = pmul(self.decode(a), self.decode(b), self.p)
        return self.encode(pmod_monic(prod, self.modulus, self.p))

    def _valuation(self, a) -> int:
        return 1 if a == 0 else 0

    def shift(self, a, v: int):
        return a

    def _inverse(self, a):
        return self.power(a, self.size - 2)  # a^(q-2) = a^(-1) in GF(q)

    def _order_at_most(self, cap):
        return self.size <= cap

    def elements(self):
        return list(range(self.size))


def make_field(q: int):
    """GF(q): Z/p when q is prime, else GF(p^k)."""
    p, k = factor_prime_power(q)
    if k > 1 and q > FIELD_CAP:
        raise ParseError(f"extension fields are supported only up to order {FIELD_CAP}")
    return ModPrimePowerRing(p, 1) if k == 1 else ExtensionField(p, k)


def residue_field(ring, pi):
    """(field, reduce): the residue field of Z or F_p[x] modulo pi, and the map onto it.

    pi must be a nonzero canonical value of ring; one that is not prime,
    or whose field is above `FIELD_CAP`, raises PreconditionError.  Over
    Z the field is Z/|pi|.  Over F_p[x], reduce takes the remainder of a
    value modulo the monic associate of pi and reads it as base-p digits:
    a value of Z/p when pi has degree 1, and of GF(p^k), the
    `ExtensionField` modulo that monic pi, when it has degree k >= 2.
    Nothing is cached: each call builds its field anew.
    """
    if isinstance(ring, IntegerRing):
        p = abs(pi)
        if not is_prime(p):
            raise PreconditionError(f"{pi} is not prime in Z")
        field = ModPrimePowerRing(p, 1)
        return field, field.normalize
    p, degree = ring.p, len(pi) - 1
    # p^degree > FIELD_CAP from FIELD_CAP.bit_length() on
    if degree >= 2 and p ** min(degree, FIELD_CAP.bit_length()) > FIELD_CAP:
        raise PreconditionError(f"pi gives a residue field above order {FIELD_CAP}")
    if not is_irreducible(pi, p):
        raise PreconditionError(f"{ring.format(pi)} is not irreducible in {ring.spec}")
    monic = pscale(pi, pow(pi[-1], -1, p), p)
    field = ModPrimePowerRing(p, 1) if degree == 1 else ExtensionField(p, degree, monic)
    return field, lambda x: _read_digits(pmod_monic(x, monic, p), p)


class FieldProductRing(Ring):
    """Finite product of finite fields; values are tuples of field encodings."""

    is_product = True
    is_finite = True

    def __init__(self, orders):
        if not orders:
            raise ParseError("empty field product")
        self.orders = tuple(int(q) for q in orders)
        self.fields = tuple(make_field(q) for q in self.orders)
        self.width = len(self.fields)
        self.spec = "*".join(f"F{q}" for q in self.orders)
        self.zero = (0,) * self.width
        self.one = (1,) * self.width
        self.tabulates = self._order_at_most(TABLE_CAP)

    def normalize(self, raw):
        if isinstance(raw, int) and not isinstance(raw, bool):
            # diagonal embedding of integers; constant coefficients live in F_p
            return tuple(raw % f.p for f in self.fields)
        if not isinstance(raw, (list, tuple)) or len(raw) != self.width:
            raise ParseError(f"bad product literal {raw!r}")
        out = []
        for c, q in zip(raw, self.orders):
            if isinstance(c, bool) or not isinstance(c, int):
                raise ParseError(f"bad product literal {raw!r}: component {c!r} is not an int")
            if not 0 <= c < q:
                raise ParseError(f"component {c} out of range for F{q}")
            out.append(c)
        return tuple(out)

    def _order_at_most(self, cap):
        return _product_at_most(self.orders, cap)

    def _neg(self, a):
        return tuple([f.neg(x) for f, x in zip(self.fields, a)])

    def _add(self, a, b):
        return tuple([f.add(x, y) for f, x, y in zip(self.fields, a, b)])

    def _mul(self, a, b):
        return tuple([f.mul(x, y) for f, x, y in zip(self.fields, a, b)])

    def is_unit(self, a):
        return all(x != 0 for x in a)

    def _inverse(self, a):
        return tuple(f._inverse(x) for f, x in zip(self.fields, a))

    def ideal_member(self, x, gen):
        return all(g != 0 or c == 0 for c, g in zip(x, gen))

    def parse(self, text):
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            raise ParseError(f"product literal must look like (a,b,...): {text!r}")
        parts = s[1:-1].split(",")
        if len(parts) != self.width:
            raise ParseError(f"expected {self.width} components in {text!r}")
        try:
            components = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"bad product literal {text!r}") from None
        return self.normalize(components)

    def format(self, a):
        return "(" + ",".join(str(c) for c in a) + ")"

    def elements(self):
        return [tuple(t) for t in product(*(range(q) for q in self.orders))]

    def component_grid(self, M: "Matrix", i: int):
        """Entries of M projected to the i-th field, as tuple-of-tuples."""
        return tuple(tuple(e[i] for e in row) for row in M.entries)


_PRODUCT_RE = re.compile(r"^F(\d+)(\*F\d+)*$")


def _spec_int(digits: str) -> int:
    """A number in a ring spec; one longer than int() accepts is a ParseError."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"a {len(digits)}-digit number in a ring spec is too long") from None


def parse_ring(text: str) -> Ring:
    """Parse a ring spec such as Z, Z/8, F2[x], F2[x]/x^3, F2*F3*F5."""
    s = text.strip()
    if s == "Z":
        return IntegerRing()
    m = re.match(r"^Z/(\d+)$", s)
    if m:
        p, n = factor_prime_power(_spec_int(m.group(1)))
        return ModPrimePowerRing(p, n)
    m = re.match(r"^F(\d+)\[x\]/x\^(\d+)$", s)
    if m:
        return TruncatedPolyRing(_spec_int(m.group(1)), _spec_int(m.group(2)))
    m = re.match(r"^F(\d+)\[x\]$", s)
    if m:
        return PolyRing(_spec_int(m.group(1)))
    if _PRODUCT_RE.match(s):
        return FieldProductRing([_spec_int(t[1:]) for t in s.split("*")])
    raise ParseError(f"unrecognized ring spec {text!r}")


class Matrix:
    """Immutable rectangular matrix of normalized ring values.

    Each matrix is eliminated at most once: `normal_form.eliminated`
    keeps the immutable (exponents, ops) of the matrix, or of each field
    component, in the private `_eliminated` slot, filled on first use and
    shared by every later caller.  The slot takes no part in ==, hash or
    repr, and it lives and dies with the matrix.
    """

    __slots__ = ("ring", "entries", "_eliminated")

    def __init__(self, ring: Ring, rows):
        entries = tuple(tuple(ring.normalize(x) for x in row) for row in rows)
        _check_shape(entries)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_eliminated", None)

    @classmethod
    def _canonical(cls, ring: Ring, rows) -> "Matrix":
        """A matrix of entries the library computed itself.

        The entries must already be canonical values of ring, and the rows
        a nonempty rectangle: neither is checked, and nothing is
        normalized.  Ring arithmetic returns canonical values, so a grid
        built from them qualifies; anything from outside goes through
        Matrix(...) or parse_matrix instead.
        """
        M = object.__new__(cls)
        object.__setattr__(M, "ring", ring)
        object.__setattr__(M, "entries", tuple(map(tuple, rows)))
        object.__setattr__(M, "_eliminated", None)
        return M

    def __setattr__(self, *_):
        raise AttributeError("Matrix is immutable")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @property
    def shape(self):
        return (self.rows, self.cols)

    def to_strings(self):
        return [[self.ring.format(x) for x in row] for row in self.entries]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.ring == self.ring
            and other.entries == self.entries
        )

    def __hash__(self):
        return hash((self.ring, self.entries))

    def __repr__(self):
        return f"Matrix({self.ring.spec}, {self.to_strings()})"


def _check_shape(entries):
    if not entries or any(len(r) == 0 for r in entries):
        raise PreconditionError("matrices must have at least one row and column")
    width = len(entries[0])
    if any(len(r) != width for r in entries):
        raise PreconditionError("ragged matrix")


def matrix(ring: Ring, rows) -> Matrix:
    return Matrix(ring, rows)


def parse_matrix(ring: Ring, rows_of_strings) -> Matrix:
    """The matrix of ring.parse of each entry's str(), each distinct text parsed once.

    So [[1]] and [["1"]] give the same matrix, and [[True]] is read as
    "True".  The parsed texts are looked up in a `_Literals` table.  A
    ring of order at most TABLE_CAP keeps its table (`Ring._literals`), so
    a text is parsed once in the ring's life; the table stores at most
    4096 texts of at most 64 characters, 1.8 MiB at worst (tracemalloc,
    CPython 3.11: texts of four-byte digits with values of six terms;
    0.94 MiB for ASCII texts).  Any other ring reads through a table local
    to this call, so nothing outlives it.  A literal that fails is not
    kept: it raises ring.parse's own ParseError.
    """
    table = ring._literals if ring._order_at_most(TABLE_CAP) else _Literals(ring.parse)
    get, entries = table.__getitem__, []
    for row in rows_of_strings:
        if type(row) not in (list, tuple):
            row = tuple(row)  # read twice below if an entry is unhashable
        try:
            entries.append(tuple(map(get, row)))
        except TypeError:  # an unhashable entry, such as a list, is read as its text
            entries.append(tuple([get(str(s)) for s in row]))
    _check_shape(entries)
    return Matrix._canonical(ring, entries)


def identity(ring: Ring, m: int) -> Matrix:
    if check_int(m, "size") < 1:
        raise PreconditionError("identity size must be >= 1")
    return Matrix._canonical(
        ring, [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)]
    )


def zeros(ring: Ring, r: int, c: int) -> Matrix:
    if check_int(r, "rows") < 1 or check_int(c, "columns") < 1:
        raise PreconditionError("matrices must have at least one row and column")
    return Matrix._canonical(ring, [[ring.zero] * c for _ in range(r)])


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    """A * B, row by row: each nonzero A[i][t] adds A[i][t] * B[t] to row i.

    The first such term starts the row, so a row of A with one nonzero
    entry costs B.cols products and no sums.
    """
    if A.ring != B.ring:
        raise PreconditionError("matrix product over different rings")
    if A.cols != B.rows:
        raise PreconditionError(f"cannot multiply {A.shape} by {B.shape}")
    ring = A.ring
    add, mul, zero = ring.add, ring.mul, ring.zero
    out = []
    for row_a in A.entries:
        row = None
        for x, row_b in zip(row_a, B.entries):
            if x != zero:
                if row is None:
                    row = [mul(x, y) for y in row_b]
                else:
                    row = [add(acc, mul(x, y)) for acc, y in zip(row, row_b)]
        out.append([zero] * B.cols if row is None else row)
    return Matrix._canonical(ring, out)


def block_diag(A: Matrix, B: Matrix) -> Matrix:
    if A.ring != B.ring:
        raise PreconditionError("block sum over different rings")
    ring = A.ring
    out = []
    for row in A.entries:
        out.append(list(row) + [ring.zero] * B.cols)
    for row in B.entries:
        out.append([ring.zero] * A.cols + list(row))
    return Matrix._canonical(ring, out)


def block_upper(A: Matrix, C: Matrix, B: Matrix) -> Matrix:
    """[[A, C], [0, B]]; C must be A.rows x B.cols."""
    if not (A.ring == B.ring == C.ring):
        raise PreconditionError("block sum over different rings")
    if C.rows != A.rows or C.cols != B.cols:
        raise PreconditionError("off-diagonal block has wrong shape")
    ring = A.ring
    out = []
    for ra, rc in zip(A.entries, C.entries):
        out.append(list(ra) + list(rc))
    for rb in B.entries:
        out.append([ring.zero] * A.cols + list(rb))
    return Matrix._canonical(ring, out)


def stack_vertical(A: Matrix, B: Matrix) -> Matrix:
    if A.ring != B.ring or A.cols != B.cols:
        raise PreconditionError("vertical stack needs equal column counts")
    return Matrix._canonical(A.ring, A.entries + B.entries)

