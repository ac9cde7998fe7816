"""vector-states: in-process library requests on class vectors and exponents.

No request carries a matrix, so rings and normal_form do no work here.
The weight sits in the leq inner loops of state_range and
state_extension and in the rk_for_square sweep and its verifier.  Class
vectors come from a small domain, so some requests repeat.  Answers are
checked against prefix-sum forms of the rank criterion and the minor
profile (arith.py), outside the request timers.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import arith
from schedule import Deck, Smallest, request, stream, warmup

# Every deck below that sets a request's cost has as many cards as its kind
# has requests in a block, so each block holds exactly one round of it.
MIX = {"vec-leq": 42, "state-range": 24, "state-extension": 10, "leq-provable": 16, "rk-square": 5}
RINGS = ("Z/8", "Z/32", "F2[x]/x^5", "F3[x]/x^4", "F2*F3", "F2*F3*F5")
# (ring, whether a <= b): over a local ring a positive answer builds and
# checks a witness chain and costs about twice a negative one, so the
# outcome is dealt, not left to the draw; the p50 falls among these requests
VEC_LEQ = tuple((spec, holds) for spec in RINGS for holds in (True,) * 4 + (False,) * 3)
SQUARES = (("Z", "2"), ("Z", "3"), ("Z", "6"), ("F2[x]", "x"), ("F2[x]", "x+1"), ("F2[x]", "x^2+x+1"))
RANGES = tuple((spec, n, m) for spec in RINGS for n, m in ((6, 9), (8, 12), (10, 6), (12, 11)))
# (ring, ball, M, shifted, extra generators): one extension request in five
# is shifted.  The cards cost about the same (near 0.1 s on a 2-core x86
# host), so the 90th latency percentile falls inside a group of like requests
EXTENSIONS = (("Z/8", 6, 4, False, 1), ("Z/32", 6, 6, False, 1), ("Z/32", 4, 4, False, 2),
              ("F2[x]/x^5", 6, 4, False, 1), ("F3[x]/x^4", 5, 6, False, 1),
              ("F3[x]/x^4", 6, 3, False, 1), ("F2*F3", 6, 6, False, 2),
              ("F2*F3*F5", 6, 3, False, 2), ("Z/8", 5, 3, True, 1), ("F2*F3", 4, 5, True, 2))


def _width(spec):
    if "*" in spec:
        return spec.count("*") + 1
    return arith.local_arith(spec).n


def _unit(spec):
    return (1,) * _width(spec) if "*" in spec else (1,) + (0,) * (_width(spec) - 1)


def _leq(spec, a, b):
    if "*" in spec:
        return all(x <= y for x, y in zip(a, b))
    return arith.local_leq(a, b)


def _add(a, b, m=1):
    return tuple(x + m * y for x, y in zip(a, b))


def _scale(a, m):
    return tuple(m * x for x in a)


def _span(generators, ball):
    """Sums of generators with 1-norm <= ball, the zero vector included."""
    span = {(0,) * len(generators[0])}
    for g in generators:
        frontier = set(span)
        while frontier:
            frontier = {_add(x, g) for x in frontier if sum(x) + sum(g) <= ball} - span
            span |= frontier
    return span


class VectorStates:
    block = sum(MIX.values())

    def __init__(self):
        self.rc = None
        self.rings = {}
        self.stats = Counter()

    # -- inputs ------------------------------------------------------------

    def requests(self, seed, deck=Deck):
        rng = random.Random(seed)
        return stream(rng, MIX, self._makers(rng, deck), unique=False)

    def _makers(self, rng, deck):
        vec_cards = deck(rng, VEC_LEQ)
        ranges = deck(rng, RANGES)
        extensions = deck(rng, EXTENSIONS)
        exponent_sizes = deck(rng, [(i, j) for i in range(1, 5) for j in range(1, 5)])
        squares = deck(rng, SQUARES)
        bounds = deck(rng, range(3, 8))

        def vector(spec, top):
            return [rng.randint(0, top) for _ in range(_width(spec))]

        def vec_leq():
            spec, holds = vec_cards.deal()
            a, b = vector(spec, 1), vector(spec, 1)
            while _leq(spec, a, b) != holds:
                a, b = vector(spec, 1), vector(spec, 1)
            return request("vec-leq", {"ring": spec, "a": a, "b": b})

        def state_range():
            spec, n, m = ranges.deal()
            # the upper witness needs a <= N<1>; otherwise the library
            # rightly reports that the bounds are too small
            a = vector(spec, 3)
            while not _leq(spec, a, _scale(_unit(spec), n)):
                a = vector(spec, 3)
            return request("state-range", {"ring": spec, "a": a, "N": n, "M": m})

        def state_extension():
            spec, ball, m, shifted, extra = extensions.deal()
            # the values come from a state s (rk_k, or one component of a
            # product), so the spec is consistent and s(a) lies in the answer
            state = rng.randrange(_width(spec))
            # the unit and the last unit vectors: the card sets the span and the cost
            width = _width(spec)
            gens = [list(_unit(spec))] + [[int(i == j) for j in range(width)]
                                         for i in range(width - extra, width)]
            values = [str(_state_value(spec, state, g)) for g in gens]
            # likewise the upper witness needs a <= b for some b in the span
            span = _span(gens, ball)
            a = vector(spec, 2)
            while not any(_leq(spec, a, b) for b in span):
                a = vector(spec, 2)
            return request("state-extension",
                           {"ring": spec, "generators": gens, "values": values,
                            "a": a, "ball": ball, "M": m, "shifted": shifted},
                           {"state": state})

        def leq_provable():
            la, lb = exponent_sizes.deal()
            return request("leq-provable", {"a": [rng.randint(0, 4) for _ in range(la)],
                                            "b": [rng.randint(0, 4) for _ in range(lb)]})

        def rk_square():
            spec, elem = squares.deal()
            return request("rk-square", {"ring": spec, "elem": elem, "bound": bounds.deal()})

        return {"vec-leq": vec_leq, "state-range": state_range, "state-extension": state_extension,
                "leq-provable": leq_provable, "rk-square": rk_square}

    # -- set-up --------------------------------------------------------------

    def warmup(self):
        return warmup(self.requests(0, deck=Smallest), MIX)

    def setup(self, warmup):
        import rankcert
        from tracing import NullTracer

        self.rc = rankcert
        for spec in RINGS + ("Z", "F2[x]"):
            self.rings[spec] = rankcert.parse_ring(spec)
        tr = NullTracer()
        for req in warmup:
            self.execute(req, tr)

    # -- requests ------------------------------------------------------------

    def execute(self, req, tr):
        return getattr(self, "_" + req.kind.replace("-", "_"))(req.data, tr)

    def _vec_leq(self, d, tr):
        rc = self.rc
        ring = self.rings[d["ring"]]
        a, b = d["a"], d["b"]
        result = tr.call("semigroup.leq", rc.leq, ring, a, b)
        if not ring.is_local:
            # witness chains are defined for the local families only
            return result, None, None
        cert = tr.call("semigroup.witness_chain", rc.witness_chain, ring, a, b)
        if isinstance(cert, rc.Positive):
            tr.count("semigroup.witness_chain.moves", len(cert.moves))
        ok = tr.call("semigroup.verify_certificate", rc.verify_certificate, ring, a, b, cert)
        return result, cert, ok

    def _state_range(self, d, tr):
        n, m = d["N"], d["M"]
        tr.count("states.state_range.triples", (n + 1) ** 2 * m)
        return tr.call("states.state_range", self.rc.state_range,
                       self.rings[d["ring"]], d["a"], n, m)

    def _state_extension(self, d, tr):
        rc = self.rc
        spec = rc.StateSpec(tuple(tuple(g) for g in d["generators"]),
                            tuple(Fraction(v) for v in d["values"]))
        return tr.call("states.state_extension", rc.state_extension, self.rings[d["ring"]],
                       spec, d["a"], d["ball"], d["M"], d["shifted"])

    def _leq_provable(self, d, tr):
        rc = self.rc
        cert = tr.call("semigroup.leq_provable", rc.leq_provable, d["a"], d["b"], 8)
        if cert is rc.UNKNOWN:
            tr.count("semigroup.leq_provable.unknown")
            return cert, None
        ok = tr.call("semigroup.verify_formal_certificate", rc.verify_formal_certificate,
                     d["a"], d["b"], cert)
        return cert, ok

    def _rk_square(self, d, tr):
        rc = self.rc
        ring = self.rings[d["ring"]]
        elem = ring.parse(d["elem"])
        res = tr.call("states.rk_for_square", rc.rk_for_square, ring, elem, d["bound"])
        tr.count("states.rk_for_square.candidates", res.lower.candidates)
        ok = tr.call("states.verify_rk_square", rc.verify_rk_square, ring, elem, res)
        return res, ok

    # -- oracles ---------------------------------------------------------------

    def check(self, req, out) -> bool:
        d = req.data
        if req.kind == "vec-leq":
            result, cert, ok = out
            expected = _leq(d["ring"], d["a"], d["b"])
            self.stats["vec-leq." + ("positive" if expected else "negative")] += 1
            if result != expected:
                return False
            if cert is None:
                return "*" in d["ring"]
            if isinstance(cert, self.rc.Positive) != expected:
                return False
            if not expected and (cert.k, cert.lhs, cert.rhs) != arith.least_violation(d["a"], d["b"]):
                return False
            return ok is True
        if req.kind == "state-range":
            return self._check_state_range(d, out)
        if req.kind == "state-extension":
            return self._check_state_extension(d, out)
        if req.kind == "leq-provable":
            cert, ok = out
            refutation = arith.minor_violation(d["a"], d["b"])
            if cert is self.rc.UNKNOWN:
                self.stats["leq-provable.unknown"] += 1
                return refutation is None
            self.stats["leq-provable." + ("negative" if refutation else "positive")] += 1
            if refutation is not None:
                return isinstance(cert, self.rc.NegativeMinor) and ok is True and (
                    (cert.k, cert.lhs, cert.rhs) == refutation)
            return isinstance(cert, self.rc.Positive) and ok is True
        res, ok = out
        b = d["bound"]
        low = sum(1 for n in range(b + 1) for m1 in range(b + 1) for m in range(1, b + 1)
                  if 2 * (n - m1) < m)
        candidates = (b + 1) ** 2 * low
        return (ok is True and res.value == Fraction(1, 2)
                and isinstance(res.upper, self.rc.Positive)
                and res.lower.candidates == res.lower.refuted == candidates)

    def _check_state_range(self, d, sr):
        spec, a, N, M = d["ring"], d["a"], d["N"], d["M"]
        # n<1> <= m a + k<1> is linear in (n - k, m): compare rank numerators
        # (local) or components (product) of the unit and of a
        if "*" in spec:
            ua, uv = list(a), [1] * len(a)
            exact = (Fraction(min(a)), Fraction(max(a)))
        else:
            ua, uv = arith.rank_numerators(a), list(range(1, len(a) + 1))
            exact = (min(Fraction(t, k) for k, t in enumerate(ua, 1)),
                     max(Fraction(t, k) for k, t in enumerate(ua, 1)))

        def below(n, k, m):  # n<1> <= m a + k<1>
            return all((n - k) * v <= m * x for v, x in zip(uv, ua))

        def above(n, k, m):  # m a + k<1> <= n<1>
            return all((n - k) * v >= m * x for v, x in zip(uv, ua))

        grid = [(n, k, m) for n in range(N + 1) for k in range(N + 1) for m in range(1, M + 1)]
        p = max(Fraction(n - k, m) for n, k, m in grid if below(n, k, m))
        q = min(Fraction(n - k, m) for n, k, m in grid if above(n, k, m))
        pw, qw = sr.p_witness, sr.q_witness
        return (
            (sr.p_lb, sr.q_ub) == (p, q)
            and tuple(sr.exact) == exact
            and below(*pw) and Fraction(pw[0] - pw[1], pw[2]) == p
            and above(*qw) and Fraction(qw[0] - qw[1], qw[2]) == q
        )

    def _check_state_extension(self, d, sr):
        spec, a, state = d["ring"], tuple(d["a"]), d["state"]
        span = _span(d["generators"], d["ball"])

        def value(x):
            return _state_value(spec, state, x)

        def witness(w, upper):
            b, c, m, mbar = w
            if b not in span or c not in span or m < 1 or mbar < 0 or (mbar and not d["shifted"]):
                return None
            lhs, rhs = _add(b, a, mbar), _add(c, a, m + mbar)
            if not (_leq(spec, rhs, lhs) if upper else _leq(spec, lhs, rhs)):
                return None
            return (value(b) - value(c)) / m

        p = witness(sr.p_witness, upper=False)
        q = witness(sr.q_witness, upper=True)
        return p == sr.p_lb and q == sr.q_ub and p is not None and p <= value(a) <= q

    def finish(self) -> int:
        return 0


def _state_value(spec, state, x):
    """rk_k(x) with k = state + 1 (local), or component `state` (product)."""
    if "*" in spec:
        return Fraction(x[state])
    k = state + 1
    return Fraction(arith.rank_numerators(x)[k - 1], k)
