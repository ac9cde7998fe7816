"""The acceptance suite: ten self-contained checks, each returning a result.

Both `tests/test_acceptance.py` and the CLI `selftest` command run these.
Every check is deterministic (fixed seeds) and exact; runtime limits
stated for a check are enforced as part of the check itself.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product as iproduct
from math import prod

from .errors import PreconditionError
from .normal_form import diagonalize, is_invertible, minors_in_ideal, verify_factorization
from .presentations import (
    module_class,
    module_coeffs_sub,
    module_cone_member,
    phi,
    phi_group,
    presentation,
    psi,
    psi_group,
    quotient_presentation,
)
from .records import record
from .rings import (
    Matrix,
    ModPrimePowerRing,
    block_diag,
    block_upper,
    identity,
    mat_mul,
    matrix,
    parse_ring,
    zeros,
)
from .semigroup import (
    NegativeRank,
    Positive,
    class_of,
    cone_member,
    group_element,
    group_sub,
    has_rank_function,
    leq,
    minor_refutation,
    rank_profile,
    regular_factor,
    rk,
    verify_certificate,
    verify_factor,
    witness_chain,
)
from .states import (
    MinorSweep,
    pullback_rank,
    rk_for_square,
    state_range,
    verify_rk_square,
)

LOCAL_RINGS = ("Z/4", "Z/8", "Z/9", "F2[x]/x^3", "F3[x]/x^2")
SHIPPED_RINGS = LOCAL_RINGS + ("Z/27", "F2*F3", "F2*F3*F5")


@record
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.number:2d}. {self.title} [{self.elapsed:.1f}s] {self.detail}"


# ---------------------------------------------------------------------------
# shared generators


def _random_value(ring, rng):
    """A random value; over a finite ring, the draw of rng.choice(ring.elements()).

    choice(seq) spends the bits of randrange(len(seq)), so the index is
    drawn that way and its element is built without the list: over Z/p^n
    the residue itself, otherwise the digits of the index in the radices
    of the elements() order, most significant first (the coefficients from
    degree 0 up over F_p[x]/x^n, the components over a product).
    """
    if ring.spec == "Z":
        return rng.randrange(-4, 5)
    if isinstance(ring, ModPrimePowerRing):
        return rng.randrange(ring.modulus)
    if not ring.is_finite:
        return ring.normalize([rng.randrange(ring.p) for _ in range(rng.randrange(3))])
    radices = ring.orders if ring.is_product else (ring.p,) * ring.nil_degree
    index, digits = rng.randrange(prod(radices)), []
    for q in reversed(radices):
        index, d = divmod(index, q)
        digits.append(d)
    return ring.normalize(digits[::-1])


def _random_matrix(ring, rng, rows, cols):
    return Matrix(
        ring, [[_random_value(ring, rng) for _ in range(cols)] for _ in range(rows)]
    )


def _vectors_up_to(width: int, norm: int):
    out = [()]
    for _ in range(width):
        out = [v + (t,) for v in out for t in range(norm + 1)]
    return [v for v in out if sum(v) <= norm]


def _random_invertible(ring, rng, size):
    while True:
        M = _random_matrix(ring, rng, size, size)
        if is_invertible(M):
            return M


# ---------------------------------------------------------------------------
# 1. local order equivalence, exhaustively up to norm 4


def criterion_local_order_equivalence() -> CriterionResult:
    start = time.monotonic()
    pairs = 0
    failures = []
    for spec in LOCAL_RINGS:
        ring = parse_ring(spec)
        vecs = _vectors_up_to(ring.nil_degree, 4)
        for a in vecs:
            for b in vecs:
                pairs += 1
                cert = witness_chain(ring, a, b)
                ok_kind = (
                    isinstance(cert, Positive)
                    if leq(ring, a, b)
                    else isinstance(cert, NegativeRank)
                )
                if not ok_kind or not verify_certificate(ring, a, b, cert):
                    failures.append((spec, a, b))
    elapsed = time.monotonic() - start
    passed = not failures and elapsed < 60.0
    detail = f"{pairs} pairs over {len(LOCAL_RINGS)} rings, {len(failures)} failures"
    return CriterionResult(1, "local order equivalence", passed, detail, elapsed)


# ---------------------------------------------------------------------------
# 2. rank values exact: rk_k(<c^i>) = (k - i)/k


def criterion_rank_values_exact() -> CriterionResult:
    start = time.monotonic()
    checked = 0
    failures = []
    specs = [f"Z/{p**n}" for p in (2, 3) for n in range(1, 5)] + [
        f"F{p}[x]/x^{n}" for p in (2, 3) for n in range(1, 5)
    ]
    for spec in specs:
        ring = parse_ring(spec)
        n = ring.nil_degree
        for i in range(n):
            vec = class_of(matrix(ring, [[ring.generator_power(i)]]))
            for k in range(1, n + 1):
                expected = Fraction(k - i, k) if i < k else Fraction(0)
                checked += 1
                if rk(ring, k, vec) != expected:
                    failures.append((spec, k, i))
    elapsed = time.monotonic() - start
    detail = f"{checked} (ring, k, i) triples, {len(failures)} mismatches"
    return CriterionResult(2, "rank values exact", not failures, detail, elapsed)


# ---------------------------------------------------------------------------
# 3. the square-zero endpoint with dual certificates


def brute_square_sweep(bound: int) -> MinorSweep:
    """Enumerate the sub-1/2 grid relations and refute each by its minors.

    An independent oracle for the closed-form lower certificate of
    rk_for_square: lhs = (0^m1, 1^m, 2^j) against rhs = (0^n, 2^l), all
    coefficients <= bound, keeping those with (n - m1)/m < 1/2.
    """
    candidates = refuted = 0
    for n in range(bound + 1):
        for l in range(bound + 1):
            rhs = (0,) * n + (2,) * l
            for m1 in range(bound + 1):
                for j in range(bound + 1):
                    for m in range(1, bound + 1):
                        if 2 * (n - m1) >= m:
                            continue
                        candidates += 1
                        lhs = (0,) * m1 + (1,) * m + (2,) * j
                        if minor_refutation(lhs, rhs) is not None:
                            refuted += 1
    return MinorSweep(bound, candidates, refuted)


def criterion_rk_square() -> CriterionResult:
    start = time.monotonic()
    failures = []
    oracle = brute_square_sweep(6)
    for spec, elem in (("Z", 2), ("F2[x]", (0, 1))):
        ring = parse_ring(spec)
        res = rk_for_square(ring, elem, bound=6)
        if res.value != Fraction(1, 2):
            failures.append((spec, "value", res.value))
        if not isinstance(res.upper, Positive):
            failures.append((spec, "upper"))
        if res.lower != oracle or not oracle.clean:
            failures.append((spec, "sweep"))
        if not verify_rk_square(ring, elem, res):
            failures.append((spec, "verify"))
    elapsed = time.monotonic() - start
    passed = not failures and elapsed < 10.0
    detail = f"(Z, 2) and (F2[x], x) at bound 6, {len(failures)} failures"
    return CriterionResult(3, "square-zero endpoint is 1/2", passed, detail, elapsed)


# ---------------------------------------------------------------------------
# 4. state range exactness and monotone refinement


def criterion_state_range() -> CriterionResult:
    start = time.monotonic()
    ring = parse_ring("Z/8")
    a = (0, 1, 0)
    failures = []
    sr = state_range(ring, a, 12, 12)
    profile = rank_profile(ring, a)
    if sr.p_lb != Fraction(0) or sr.p_lb != min(profile):
        failures.append(("p_lb", sr.p_lb))
    if sr.q_ub != Fraction(2, 3) or sr.q_ub != max(profile):
        failures.append(("q_ub", sr.q_ub))
    prev = None
    for bound in range(4, 13):
        step = state_range(ring, a, bound, bound)
        if prev is not None and (step.p_lb < prev.p_lb or step.q_ub > prev.q_ub):
            failures.append(("monotone", bound))
        prev = step
    elapsed = time.monotonic() - start
    detail = f"a = <2> over Z/8 at bounds 4..12, {len(failures)} failures"
    return CriterionResult(4, "state range exactness", not failures, detail, elapsed)


# ---------------------------------------------------------------------------
# 5. Sylvester axiom suite


def _axiom_violations(rank_fn, ring, rng, count):
    violations = []
    if rank_fn(identity(ring, 1)) != 1:
        violations.append("rank(1) != 1")
    if rank_fn(zeros(ring, 2, 3)) != 0:
        violations.append("rank(0) != 0")
    for _ in range(count):
        r1, c1 = rng.randrange(1, 4), rng.randrange(1, 4)
        r2, c2 = rng.randrange(1, 4), rng.randrange(1, 4)
        A = _random_matrix(ring, rng, r1, c1)
        B = _random_matrix(ring, rng, r2, c2)
        C = _random_matrix(ring, rng, r1, c2)
        ra, rb = rank_fn(A), rank_fn(B)
        if rank_fn(block_diag(A, B)) != ra + rb:
            violations.append(("diag", A, B))
        if rank_fn(block_upper(A, C, B)) < ra + rb:
            violations.append(("upper", A, B, C))
        P = _random_matrix(ring, rng, c1, rng.randrange(1, 4))
        if rank_fn(mat_mul(A, P)) > min(ra, rank_fn(P)):
            violations.append(("product", A, P))
    return violations


def rank_functions(ring, pi):
    """The rank functions the axiom suite checks over ring, as (label, rank_fn).

    Over a local ring rk_1, ..., rk_n; otherwise the pullback rank modulo pi.
    """
    if ring.is_local:
        return [
            (f"rk_{k}", lambda M, k=k: rk(ring, k, class_of(M)))
            for k in range(1, ring.nil_degree + 1)
        ]
    if pi is None:
        raise PreconditionError("axioms-check needs a local ring, or Z/F_p[x] with --pi")
    rank_fn = pullback_rank(ring, pi)
    return [(rank_fn.description, rank_fn)]


def criterion_sylvester_axioms() -> CriterionResult:
    start = time.monotonic()
    failures = []
    suites = 0
    # (ring, pi, seed) per roster; a local ring's rank functions share one stream
    rosters = [(spec, None, 100 + len(spec)) for spec in LOCAL_RINGS] + [
        ("Z", 0, 200), ("Z", 2, 200), ("Z", 3, 200),
        ("F2[x]", 0, 200), ("F2[x]", (0, 1), 200), ("F3[x]", (0, 1), 200),
    ]
    for spec, pi, seed in rosters:
        ring = parse_ring(spec)
        rng = random.Random(seed)
        for label, rank_fn in rank_functions(ring, pi):
            bad = _axiom_violations(rank_fn, ring, rng, 500)
            suites += 1
            if bad:
                failures.append((spec, label, len(bad)))
    elapsed = time.monotonic() - start
    detail = f"{suites} rank functions x 500 instances, {len(failures)} with violations"
    return CriterionResult(5, "Sylvester axiom suite", not failures, detail, elapsed)


# ---------------------------------------------------------------------------
# 6. minor monotonicity along elementary chains


def _ideal_generators(ring):
    if ring.spec == "Z":
        return [ring.normalize(g) for g in (1, 2, 3, 4, 8, 0)]
    n = ring.nil_degree
    return [ring.generator_power(i) for i in range(n + 1)]


def _chain_pairs(ring, rng):
    """A short descending chain; returns adjacent (smaller, larger) pairs."""
    blocks = [
        _random_matrix(ring, rng, rng.randrange(1, 3), rng.randrange(1, 3))
        for _ in range(2)
    ]
    E = _random_matrix(ring, rng, blocks[0].rows, blocks[1].cols)
    top = block_upper(blocks[0], E, blocks[1])
    mid = block_diag(blocks[0], blocks[1])
    pairs = [(mid, top)]
    C = _random_matrix(ring, rng, rng.randrange(1, 4), mid.rows)
    D = _random_matrix(ring, rng, mid.cols, rng.randrange(1, 4))
    pairs.append((mat_mul(mat_mul(C, mid), D), mid))
    return pairs


def _minor_monotone(smaller, larger, gens) -> bool:
    ring = smaller.ring
    for k in range(1, min(smaller.rows, smaller.cols) + 1):
        for gen in gens:
            if k <= min(larger.rows, larger.cols):
                upper_ok = minors_in_ideal(larger, k, gen)
            else:
                upper_ok = True  # no k-minors upstairs: vacuously in the ideal
            if upper_ok and not minors_in_ideal(smaller, k, gen):
                return False
    return True


def criterion_minor_lemma() -> CriterionResult:
    start = time.monotonic()
    failures = 0
    chains = 0
    for spec in ("Z/8", "Z"):
        ring = parse_ring(spec)
        gens = _ideal_generators(ring)
        rng = random.Random(42)
        for _ in range(500):
            chains += 1
            for smaller, larger in _chain_pairs(ring, rng):
                if not _minor_monotone(smaller, larger, gens):
                    failures += 1
    elapsed = time.monotonic() - start
    detail = f"{chains} chains over Z/8 and Z, {failures} violations"
    return CriterionResult(6, "minor lemma along chains", failures == 0, detail, elapsed)


# ---------------------------------------------------------------------------
# 7. regular three-way agreement over F2 x F3, all shapes up to 2x2


def _mod_matrices(p, shape):
    rows, cols = shape
    cells = list(iproduct(range(p), repeat=rows * cols))
    return [
        tuple(tuple(c[i * cols + j] for j in range(cols)) for i in range(rows))
        for c in cells
    ]


def _mod_mat_mul(A, B, p):
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(len(B))) % p for j in range(len(B[0])))
        for i in range(len(A))
    )


def _mod_rank(A, p):
    M = [list(r) for r in A]
    rank = 0
    for col in range(len(M[0])):
        piv = next((r for r in range(rank, len(M)) if M[r][col] % p), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][col], -1, p)
        for r in range(rank + 1, len(M)):
            f = (M[r][col] * inv) % p
            if f:
                M[r] = [(x - f * y) % p for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


def _reachable_products(B, p, target_shape):
    """All C * B * D of the target shape, by brute force over C and D."""
    ar, ac = target_shape
    br, bc = len(B), len(B[0])
    lefts = {_mod_mat_mul(C, B, p) for C in _mod_matrices(p, (ar, br))}
    out = set()
    for P in lefts:
        for D in _mod_matrices(p, (bc, ac)):
            out.add(_mod_mat_mul(P, D, p))
    return out


def criterion_regular_three_way() -> CriterionResult:
    start = time.monotonic()
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2)]
    comp = {}
    for p in (2, 3):
        mats = [M for s in shapes for M in _mod_matrices(p, s)]
        ranks = {M: _mod_rank(M, p) for M in mats}
        reach = {
            (M, s): _reachable_products(M, p, s) for M in mats for s in shapes
        }
        comp[p] = (mats, ranks, reach)
    ring = parse_ring("F2*F3")
    pairs = 0
    failures = 0
    factor_checks = 0
    mats2, ranks2, reach2 = comp[2]
    mats3, ranks3, reach3 = comp[3]
    by_shape2 = {s: [M for M in mats2 if (len(M), len(M[0])) == s] for s in shapes}
    by_shape3 = {s: [M for M in mats3 if (len(M), len(M[0])) == s] for s in shapes}
    for sa in shapes:
        for sb in shapes:
            for A2 in by_shape2[sa]:
                for A3 in by_shape3[sa]:
                    class_a = (ranks2[A2], ranks3[A3])
                    for B2 in by_shape2[sb]:
                        reach_a2 = A2 in reach2[(B2, sa)]
                        for B3 in by_shape3[sb]:
                            pairs += 1
                            class_b = (ranks2[B2], ranks3[B3])
                            order = leq(ring, class_a, class_b)
                            rank_le = class_a[0] <= class_b[0] and class_a[1] <= class_b[1]
                            reachable = reach_a2 and A3 in reach3[(B3, sa)]
                            if order != rank_le or order != reachable:
                                failures += 1
                            if order and pairs % 4096 == 0:
                                A = _combine(ring, A2, A3)
                                B = _combine(ring, B2, B3)
                                res = regular_factor(A, B)
                                factor_checks += 1
                                if not (res.ok and verify_factor(A, B, res)):
                                    failures += 1
    elapsed = time.monotonic() - start
    passed = failures == 0 and elapsed < 120.0
    detail = f"{pairs} pairs, {factor_checks} factorizations spot-checked, {failures} failures"
    return CriterionResult(7, "regular three-way agreement", passed, detail, elapsed)


def _combine(ring, M2, M3):
    return Matrix(
        ring,
        [
            [(M2[i][j], M3[i][j]) for j in range(len(M2[0]))]
            for i in range(len(M2))
        ],
    )


# ---------------------------------------------------------------------------
# 8. Grothendieck correspondence round trips and cone compatibility


def criterion_grothendieck() -> CriterionResult:
    start = time.monotonic()
    failures = []
    for spec in ("Z/8", "F2*F3"):
        ring = parse_ring(spec)
        rng = random.Random(300)
        width = len(class_of(identity(ring, 1)))
        zero = (0,) * width
        for _ in range(200):
            A = _random_matrix(ring, rng, rng.randrange(1, 4), rng.randrange(1, 4))
            if phi_group(ring, psi(A)) != group_element(class_of(A), zero):
                failures.append((spec, "phi.psi", A))
            m = rng.randrange(1, 4)
            P = presentation(m, _random_matrix(ring, rng, rng.randrange(1, 4), m))
            if psi_group(ring, phi(P)) != module_class(P):
                failures.append((spec, "psi.phi", P))
            # cone compatibility both ways
            Q = quotient_presentation(P, _random_matrix(ring, rng, 1, m))
            if not cone_member(ring, group_sub(phi(P), phi(Q))):
                failures.append((spec, "phi order", P))
            B = _random_matrix(ring, rng, A.rows, A.cols)
            if leq(ring, class_of(A), class_of(B)) and not module_cone_member(
                ring, module_coeffs_sub(psi(B), psi(A))
            ):
                failures.append((spec, "psi order", A, B))
    elapsed = time.monotonic() - start
    detail = f"200 matrices + 200 presentations per ring, {len(failures)} failures"
    return CriterionResult(
        8, "Grothendieck correspondence", not failures, detail, elapsed
    )


# ---------------------------------------------------------------------------
# 9. normal-form invariance under invertible factors


def criterion_normal_form_invariance() -> CriterionResult:
    start = time.monotonic()
    failures = 0
    for spec in LOCAL_RINGS:
        ring = parse_ring(spec)
        rng = random.Random(500)
        for _ in range(500):
            size = rng.randrange(1, 4)
            A = _random_matrix(ring, rng, size, size)
            form = diagonalize(A)
            if not verify_factorization(A, form):
                failures += 1
                continue
            U = _random_invertible(ring, rng, size)
            V = _random_invertible(ring, rng, size)
            moved = diagonalize(mat_mul(mat_mul(U, A), V))
            if (form.exponents, form.zero_count) != (moved.exponents, moved.zero_count):
                failures += 1
    elapsed = time.monotonic() - start
    detail = f"500 invertible moves per ring over {len(LOCAL_RINGS)} rings, {failures} failures"
    return CriterionResult(9, "normal-form invariance", failures == 0, detail, elapsed)


# ---------------------------------------------------------------------------
# 10. existence criterion on the shipped rings


def criterion_existence() -> CriterionResult:
    start = time.monotonic()
    failures = []
    for spec in SHIPPED_RINGS:
        ring = parse_ring(spec)
        if not has_rank_function(ring):
            failures.append((spec, "has_rank_function"))
    elapsed = time.monotonic() - start
    detail = f"{len(SHIPPED_RINGS)} rings, {len(failures)} failures"
    return CriterionResult(10, "rank function existence", not failures, detail, elapsed)


CRITERIA = (
    criterion_local_order_equivalence,
    criterion_rank_values_exact,
    criterion_rk_square,
    criterion_state_range,
    criterion_sylvester_axioms,
    criterion_minor_lemma,
    criterion_regular_three_way,
    criterion_grothendieck,
    criterion_normal_form_invariance,
    criterion_existence,
)


def run_all(numbers=None):
    results = []
    for idx, fn in enumerate(CRITERIA, start=1):
        if numbers is not None and idx not in numbers:
            continue
        results.append(fn())
    return results
