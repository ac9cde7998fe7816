"""Diagonalization over the Artinian local families.

Every matrix A over Z/p^n or F_p[x]/x^n factors as A = left * D * right
with left, right invertible and D = diag(c^e1, ..., c^el, 0, ..., 0)
padded to A's shape.  The pivot of least valuation divides every other
entry after unit scaling, so plain unimodular row/column elimination
(unit scalings, transvections, swaps) reaches the diagonal form; each
operation is mirrored on left/right so the factorization can be checked
afterwards by multiplication alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .rings import Matrix, is_invertible, mat_mul


@dataclass(frozen=True)
class DiagonalForm:
    exponents: tuple  # valuations of the nonzero diagonal entries, ascending
    zero_count: int
    left: Matrix
    right: Matrix


def _require_local(ring):
    if not getattr(ring, "is_local", False):
        raise PreconditionError(f"{ring.spec} is not an Artinian local family")


def diagonal_matrix(ring, rows: int, cols: int, exponents) -> Matrix:
    """The padded diagonal matrix with entries c^e for e in exponents."""
    _require_local(ring)
    grid = [[ring.zero] * cols for _ in range(rows)]
    for idx, e in enumerate(exponents):
        grid[idx][idx] = ring.generator_power(e)
    return Matrix(ring, grid)


def diagonalize(A: Matrix) -> DiagonalForm:
    ring = A.ring
    _require_local(ring)
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

    form = DiagonalForm(
        exponents=tuple(exponents),
        zero_count=min(r, c) - len(exponents),
        left=Matrix(ring, L),
        right=Matrix(ring, R),
    )
    return form


def verify_factorization(A: Matrix, form: DiagonalForm) -> bool:
    """Re-check left * D * right == A and the invertibility of both factors."""
    ring = A.ring
    if not getattr(ring, "is_local", False):
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
    D = diagonal_matrix(ring, A.rows, A.cols, exps)
    return mat_mul(mat_mul(left, D), right) == A
