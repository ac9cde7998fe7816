"""Elimination: diagonal forms, determinants, minors and invertibility.

Every matrix A over Z/p^n or F_p[x]/x^n factors as A = left * D * right
with left, right invertible and D = diag(c^e1, ..., c^el, 0, ..., 0)
padded to A's shape.  The pivot of least valuation divides every other
entry after unit scaling, so plain unimodular row/column elimination
(unit scalings, transvections, swaps) reaches the diagonal form.

One kernel, `eliminate`, does that elimination and records its
operations in order instead of mirroring them into factors.  A field is
a local ring of nil degree 1: GF(p) is Z/p, the family with n = 1, and
GF(p^k) is `rings.ExtensionField`; c = 0, and every nonzero entry is a
unit of valuation 0.  So the same kernel gives the ranks of the field
components of a product ring and of a residue field.  Callers read only
what they need: a class reads the exponents, a rank counts them, and
`factors` alone replays the operations into factors, for `diagonalize`
and, with `inverse_factors` feeding it the inverse operations, for
`semigroup.regular_factor`.

Over a ring of order q <= 16 `eliminate` works on byte rows: each row
is a `bytearray` of element codes, an element's index in
`ring.elements()`, so zero is code 0 and two codes fit in one byte.
Finding a pivot, scaling its row and each row transvection are then
one C-level `bytes.translate` through a 256-byte table: valuations, or
a + t * b on a byte packing the codes a and b, with scaling as the a = 0
case.  The tables, `_ByteCodes`, are made from the ring's own operations
on its first elimination and kept in this module's registry keyed by
the ring, so equal rings share them; they depend on the ring alone and
record no answer.  Only the values that go into the operations are
decoded, so both paths return the same (exponents, ops).  Larger rings
keep one ring operation per entry.

Each `Matrix` is eliminated at most once.  `eliminated(A)`, or
`eliminated(A, i)` for the i-th field component of a product ring, runs
`eliminate` on first use and keeps the result on A as tuples: immutable,
and shared by the class, the module signature, the diagonal form and the
regular factorization of that matrix.  `eliminate` itself takes a grid
and returns fresh lists, for callers that hold no matrix (determinants,
minors, pullback ranks).

The determinant is read off the same elimination.  A transvection keeps
it, a row or column swap negates it, and scaling by a unit u multiplies
it by u, so det A = (-1)^swaps * (the units scaled away) * c^(e1+...+el),
and it is 0 when there are fewer exponents than rows.  Over a field c = 0
and every exponent is 0; over a product of fields det is componentwise.
Z and F_p[x] are not local: there `bareiss` eliminates fraction-free
(Bareiss 1968).  After the pivot step at row r every entry below and
right of the pivot is an (r + 1)-minor (Sylvester's identity), so the
new entries divide exactly by the previous pivot and stay as large as
the minors.  The pivots count the rank over the fraction field, and for
a square matrix of full rank the last pivot, negated once per row swap,
is det.  Its one loop runs on each family's own encoding: Z on ints by
the int operators, F2[x] on the bit ints of `polys` (carry-less
products, XOR for subtraction, `clquo` for the exact division) and
F_p[x] for odd p on coefficient tuples; only the last pivot is decoded.
A matrix is invertible iff it is square with a unit det, and the k x k
minors that `minors_in_ideal` reads are dets of sub-grids: every family
takes the same path.
"""

from __future__ import annotations

import operator
from functools import cached_property, partial
from itertools import combinations

from .errors import PreconditionError, check_int
from .polys import clmul, clquo, pdivmod
from .records import record
from .rings import IntegerRing, Matrix, _digits, _read_digits, _Table, mat_mul

# Recorded operations, in the order they were applied to the working copy:
#   (_SWAP_ROWS, i, j, None)   swap rows i and j
#   (_SWAP_COLS, i, j, None)   swap columns i and j
#   (_SCALE, i, u, u_inv)      row i *= u, for a unit u with inverse u_inv
#   (_ADD_ROW, i, j, t)        row i += t * row j
#   (_ADD_COL, i, j, t)        column i += t * column j
_SWAP_ROWS, _SWAP_COLS, _SCALE, _ADD_ROW, _ADD_COL = range(5)


@record
class DiagonalForm:
    exponents: tuple  # valuations of the nonzero diagonal entries, ascending
    zero_count: int
    left: Matrix
    right: Matrix


class _ByteCodes:
    """A local ring of order q <= 16 as one-byte element codes, and the
    tables that eliminate `bytearray` rows of codes by `bytes.translate`.

    An element's code is its index in `elements()`, so zero is code 0,
    and two codes a, b pack into the one byte a << 4 | b.  Every table is
    made from the ring's own operations the first time it is needed, and
    a table keyed by a code or a valuation is a `_Table`:

    - `valuation`: code -> valuation, n for zero;
    - `shift[v]`, `unshift[v]`: the code of x -> the code of x / c^v and
      of -(x / c^v), for x of valuation >= v: the unit of a pivot c^v * u
      and the factor of the transvection clearing x against c^v;
    - `inverse[u]`: the code of the inverse of the unit u;
    - `add`: a << 4 | b -> the code of a + b;
    - `axpy[t]`: a << 4 | b -> the code of a + t * b, from `add` and the
      products t * b.  A byte below 16 packs a = 0 with b, so axpy[u]
      also multiplies a row of plain codes by u.

    `valuation`, `add` and `axpy[t]` are 256-byte translate tables.
    `values` maps codes to elements, and `encode` a grid of elements to
    a list of `bytearray` rows of codes.  Everything here depends on the
    ring alone: at q = 16 it holds at most 17 translate tables, about
    8 KiB in all.
    """

    def __init__(self, ring):
        values = ring.elements()
        codes = {x: i for i, x in enumerate(values)}
        self.ring, self.values, self.codes, self.one = ring, values, codes, codes[ring.one]
        if values == list(range(len(values))):  # Z/p^n and GF(p^k): each element is its code
            self.encode = lambda grid: list(map(bytearray, grid))
        else:
            code = codes.__getitem__
            self.encode = lambda grid: [bytearray(map(code, row)) for row in grid]
        self.valuation = bytes(map(ring.valuation, values)).ljust(256, b"\0")
        self.shift, self.unshift = _Table(self._shift), _Table(self._unshift)
        self.inverse = _Table(lambda u: codes[ring._inverse(values[u])])
        self.axpy = _Table(self._axpy)

    def _shift(self, v):
        ring, codes, valuation = self.ring, self.codes, self.valuation
        return bytes([codes[ring.shift(x, v)] if valuation[a] >= v else 0
                      for a, x in enumerate(self.values)])

    def _unshift(self, v):
        neg, values, codes = self.ring.neg, self.values, self.codes
        return bytes([codes[neg(values[a])] for a in self.shift[v]])

    @cached_property
    def add(self):
        add, values, codes, out = self.ring.add, self.values, self.codes, bytearray(256)
        for a, x in enumerate(values):
            out[a << 4 : (a << 4) + len(values)] = bytes([codes[add(x, y)] for y in values])
        return bytes(out)

    def _axpy(self, t):
        mul, codes, x = self.ring.mul, self.codes, self.values[t]
        times_t = [codes[mul(x, y)] for y in self.values] + [0] * (16 - len(self.values))
        return bytes([a << 4 | b for a in range(16) for b in times_t]).translate(self.add)


# the `_ByteCodes` of each ring of order <= 16, made the first time the
# ring eliminates and shared by every equal ring: the tables depend on the
# spec alone, and a pullback rank makes its residue field anew per call.
# There are 29 such specs (10 Z/p^n, 10 F_p[x]/x^n and 9 GF(p^k) moduli),
# so this holds at most about 180 KiB.
_BYTE_CODES = _Table(_ByteCodes)


def eliminate(ring, grid):
    """Exponents of the diagonal form of grid, and the operations reaching it.

    The pivot of step d is the first entry, row-major, of least valuation
    in the block below and right of (d, d).  It is moved to (d, d) and
    scaled to c^v; its column is cleared by row transvections and its
    row by column transvections.  Columns left of d are zero below row
    d - 1, so a row transvection touches columns d and up only.  Once the
    pivot column is clear, a column transvection changes only the pivot
    row, which no later step reads, so column transvections are recorded
    without being applied.  The entries must be canonical values of ring.
    A ring of order at most 16 eliminates rows of byte codes
    (`_eliminate_codes`), any other the rows of values (`_eliminate_values`);
    both make the same operations.
    """
    if ring._order_at_most(16):  # two codes fit in a byte
        return _eliminate_codes(ring, _BYTE_CODES[ring], grid)
    return _eliminate_values(ring, grid)


def _eliminate_values(ring, grid):
    """`eliminate` on lists of values, one ring operation per entry.

    The pivot scan stops at the first unit, since nothing has a smaller
    valuation.
    """
    n = ring.nil_degree
    add, mul, neg, shift, valuation = ring.add, ring.mul, ring.neg, ring.shift, ring.valuation
    zero = ring.zero
    M = [list(row) for row in grid]
    r, c = len(M), len(M[0])
    exponents, ops = [], []
    for d in range(min(r, c)):
        v, pi, pj = _pivot(valuation, M, d, c, n)
        if v == n:
            break
        if pi != d:
            M[d], M[pi] = M[pi], M[d]
            ops.append((_SWAP_ROWS, d, pi, None))
        if pj != d:
            for row in M[d:]:
                row[d], row[pj] = row[pj], row[d]
            ops.append((_SWAP_COLS, d, pj, None))
        unit = shift(M[d][d], v)  # a unit: v is the pivot's valuation
        if unit != ring.one:
            u = ring._inverse(unit)
            M[d][d:] = [mul(u, x) for x in M[d][d:]]
            ops.append((_SCALE, d, u, unit))
        # the pivot is now exactly c^v; every other entry has valuation >= v
        pivot_row = M[d][d:]
        for i in range(d + 1, r):
            row = M[i]
            x = row[d]
            if x != zero:
                t = neg(shift(x, v))
                row[d:] = [add(a, mul(t, b)) for a, b in zip(row[d:], pivot_row)]
                ops.append((_ADD_ROW, i, d, t))
        for j in range(d + 1, c):
            x = pivot_row[j - d]
            if x != zero:
                ops.append((_ADD_COL, j, d, neg(shift(x, v))))
        exponents.append(v)
    return exponents, ops


def _eliminate_codes(ring, tables, grid):
    """`eliminate` on `bytearray` rows of codes, by the tables of `_ByteCodes`.

    Below row d - 1 the columns left of d are zero, of valuation n, so
    whole rows stand in for the block.  Each step translates the block
    to valuations in one call and takes the first byte of the least
    valuation present.  A row transvection by t packs the row over the
    pivot row, a << 4 | b per column, in one int, and translates its
    bytes through axpy[t]; scaling by u translates the pivot row, whose
    bytes are a = 0 packed with b, through axpy[u].  Only the values that
    go into the operations are decoded.
    """
    n = ring.nil_degree
    values, valuation, shifts, unshifts, inverse, axpy = (
        tables.values, tables.valuation, tables.shift, tables.unshift, tables.inverse,
        tables.axpy)
    M = tables.encode(grid)
    r, c = len(M), len(M[0])
    exponents, ops = [], []
    record = ops.append
    for d in range(min(r, c)):
        block = b"".join(M[d:]).translate(valuation)
        for v in range(n):
            k = block.find(v)
            if k >= 0:
                break
        else:
            break
        pi, pj = divmod(k, c)
        pi += d
        if pi != d:
            M[d], M[pi] = M[pi], M[d]
            record((_SWAP_ROWS, d, pi, None))
        if pj != d:
            for row in M[d:]:
                row[d], row[pj] = row[pj], row[d]
            record((_SWAP_COLS, d, pj, None))
        pivot_row = M[d]
        unit = shifts[v][pivot_row[d]]
        if unit != tables.one:
            u = inverse[unit]
            pivot_row[:] = pivot_row.translate(axpy[u])
            record((_SCALE, d, values[u], values[unit]))
        unshift = unshifts[v]
        pivot = int.from_bytes(pivot_row, "big")
        for i in range(d + 1, r):
            row = M[i]
            x = row[d]
            if x:
                t = unshift[x]
                packed = int.from_bytes(row, "big") << 4 | pivot
                row[:] = packed.to_bytes(c, "big").translate(axpy[t])
                record((_ADD_ROW, i, d, values[t]))
        for j in range(d + 1, c):
            x = pivot_row[j]
            if x:
                record((_ADD_COL, j, d, values[unshift[x]]))
        exponents.append(v)
    return exponents, ops


def eliminated(A: Matrix, component=None):
    """(exponents, ops) of A, or of its component-th field component, as tuples.

    component must be given over a product ring and None over a local one.
    The first call per (matrix, component) runs `eliminate` and keeps the
    result on A; every later call returns that same immutable pair.
    """
    cache = A._eliminated
    if cache is None:
        cache = {}
        object.__setattr__(A, "_eliminated", cache)
    result = cache.get(component)
    if result is None:
        ring = A.ring
        if component is None:
            exponents, ops = eliminate(ring, A.entries)
        else:
            exponents, ops = eliminate(ring.fields[component], ring.component_grid(A, component))
        result = cache[component] = (tuple(exponents), tuple(ops))
    return result


def _pivot(valuation, M, d, c, n):
    """(v, i, j): the first entry row-major of least valuation v in the
    block below and right of (d, d), with v = n when the block is zero."""
    best = (n + 1, d, d)
    for i in range(d, len(M)):
        row = M[i]
        for j in range(d, c):
            v = valuation(row[j])
            if v < best[0]:
                if v == 0:
                    return 0, i, j
                best = (v, i, j)
    return best


def _identity_grid(ring, m):
    return [[ring.one if i == j else ring.zero for j in range(m)] for i in range(m)]


def factors(ring, rows, cols, ops):
    """(L, R) with A = L * D * R: each operation undone on identities, in order.

    Undoing a transvection by t adds -t times a row or column; a zero
    entry of it adds nothing and is skipped.
    """
    add, mul, neg, zero = ring.add, ring.mul, ring.neg, ring.zero
    L, R = _identity_grid(ring, rows), _identity_grid(ring, cols)
    for kind, i, j, t in ops:
        if kind == _SWAP_ROWS:
            for row in L:
                row[i], row[j] = row[j], row[i]
        elif kind == _SWAP_COLS:
            R[i], R[j] = R[j], R[i]
        elif kind == _SCALE:  # j is the unit u, t its inverse
            for row in L:
                row[i] = mul(row[i], t)
        elif kind == _ADD_ROW:
            t = neg(t)
            for row in L:
                if row[i] != zero:
                    row[j] = add(row[j], mul(t, row[i]))
        else:
            t = neg(t)
            R[j] = [x if y == zero else add(x, mul(t, y)) for x, y in zip(R[j], R[i])]
    return L, R


def inverse_factors(ring, rows, cols, ops):
    """(L^-1, R^-1) with L^-1 * A * R^-1 = D, as `factors` of the inverse operations.

    L = E1^-1 ... Ek^-1 for the row operations E1, ..., Ek in order, so
    L^-1 = Ek ... E1 is what `factors` builds from Ek^-1, ..., E1^-1; R
    likewise.  A swap is its own inverse, a scaling by u is inverted by
    u^-1, and a transvection by t by -t.
    """
    neg, inverse = ring.neg, []
    for kind, i, j, t in reversed(ops):
        if kind == _SCALE:  # (u, u^-1) becomes (u^-1, u)
            j, t = t, j
        elif kind == _ADD_ROW or kind == _ADD_COL:
            t = neg(t)
        inverse.append((kind, i, j, t))
    return factors(ring, rows, cols, inverse)


def diagonalize(A: Matrix) -> DiagonalForm:
    ring = A.ring
    if not ring.is_local:
        raise PreconditionError(f"{ring.spec} is not an Artinian local family")
    exponents, ops = eliminated(A)
    L, R = factors(ring, A.rows, A.cols, ops)
    return DiagonalForm(
        exponents=exponents,
        zero_count=min(A.rows, A.cols) - len(exponents),
        left=Matrix._canonical(ring, L),
        right=Matrix._canonical(ring, R),
    )


def _fraction_free(ring):
    """(encode, mul, sub, exact quotient, decode): the arithmetic of `bareiss`."""
    if isinstance(ring, IntegerRing):
        return int, operator.mul, operator.sub, operator.floordiv, int
    p = ring.p
    if p == 2:
        return partial(_read_digits, p=2), clmul, operator.xor, clquo, partial(_digits, p=2)
    return tuple, ring.mul, ring.sub, lambda x, d: pdivmod(x, d, p)[0], tuple


def bareiss(ring, grid):
    """(rank, pivot): the rank of a grid over Z or F_p[x] and its last
    pivot, negated once per row swap."""
    encode, mul, sub, quo, decode = _fraction_free(ring)
    M = [list(map(encode, row)) for row in grid]
    nrows, ncols = len(M), len(M[0])
    rank, prev, swaps = 0, encode(ring.one), 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if M[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            M[rank], M[pivot] = M[pivot], M[rank]
            swaps += 1
        top, pval = M[rank][col + 1 :], M[rank][col]
        for row in M[rank + 1 :]:
            x = row[col]
            row[col + 1 :] = [quo(sub(mul(pval, a), mul(x, b)), prev)
                              for a, b in zip(row[col + 1 :], top)]
        prev = pval
        rank += 1
        if rank == nrows:
            break
    pivot = decode(prev)
    return rank, ring.neg(pivot) if swaps % 2 else pivot


def _det(ring, grid):
    """det of a square grid of canonical values of ring (a field is local, n = 1)."""
    if ring.is_product:
        return tuple(
            _det(f, [[x[i] for x in row] for row in grid]) for i, f in enumerate(ring.fields)
        )
    if not ring.is_local:
        rank, pivot = bareiss(ring, grid)
        return pivot if rank == len(grid) else ring.zero
    exponents, ops = eliminate(ring, grid)
    e = sum(exponents)
    if len(exponents) < len(grid) or e >= ring.nil_degree:
        return ring.zero
    d = ring.generator_power(e) if e else ring.one
    for kind, _, _, t in ops:
        if kind == _SCALE:  # t is the unit scaled away
            d = ring.mul(d, t)
        elif kind == _SWAP_ROWS or kind == _SWAP_COLS:
            d = ring.neg(d)
    return d


def minors_in_ideal(M: Matrix, k: int, gen) -> bool:
    """True iff every k x k minor of M lies in the ideal generated by gen."""
    if not 1 <= check_int(k, "k") <= min(M.rows, M.cols):
        raise PreconditionError(f"minor size {k} outside [1, {min(M.rows, M.cols)}]")
    ring = M.ring
    gen = ring.normalize(gen)
    for rows in combinations(M.entries, k):
        for cols in combinations(range(M.cols), k):
            if not ring.ideal_member(_det(ring, [[row[j] for j in cols] for row in rows]), gen):
                return False
    return True


def is_invertible(M: Matrix) -> bool:
    """Square with a unit determinant."""
    if M.rows != M.cols:
        raise PreconditionError("invertibility needs a square matrix")
    return M.ring.is_unit(_det(M.ring, M.entries))


def verify_factorization(A: Matrix, form: DiagonalForm) -> bool:
    """Re-check left * D * right == A and the invertibility of both factors."""
    ring = A.ring
    if not ring.is_local:
        return False
    n = ring.nil_degree
    exps = form.exponents
    if any(not isinstance(e, int) or not 0 <= e < n for e in exps):
        return False
    if tuple(sorted(exps)) != tuple(exps):
        return False
    if form.zero_count < 0 or len(exps) + form.zero_count != min(A.rows, A.cols):
        return False
    left, right = form.left, form.right
    if left.ring != ring or right.ring != ring:
        return False
    if left.shape != (A.rows, A.rows) or right.shape != (A.cols, A.cols):
        return False
    if not is_invertible(left) or not is_invertible(right):
        return False
    # left * D scales column j of left by c^(e_j), and D's zero columns pad
    # it to A.cols, in O(rows * cols) products
    mul, powers = ring.mul, [ring.generator_power(e) for e in exps]
    pad = [ring.zero] * (A.cols - len(exps))
    scaled = [[mul(x, g) for x, g in zip(row, powers)] + pad for row in left.entries]
    return mat_mul(Matrix._canonical(ring, scaled), right) == A
