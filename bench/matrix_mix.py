"""matrix-mix: in-process library requests with matrix operands.

Each request is what a CLI user gets for one matrix question: the entry
strings are parsed, the answer is computed, its certificate is built and
the certificate is checked.  The mix exercises ring arithmetic,
diagonalize, class_of, regular_factor, the presentations and the
verifiers; no request repeats.  Every answer is compared with facts
planted by arith.py or recomputed there, outside the request timers.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import arith
from schedule import Deck, Smallest, request, stream, warmup

MIX = {"diagonalize": 6, "class-leq": 5, "regular": 4, "module": 3, "pullback": 2}
LOCAL = ("Z/8", "Z/27", "F2[x]/x^3", "F3[x]/x^2")
PRODUCT = ("F2*F3", "F2*F3*F5", "F4*F9")
PULLBACK = (("Z", "0"), ("Z", "2"), ("Z", "3"), ("Z", "5"), ("Z", "7"),
            ("F2[x]", "0"), ("F2[x]", "x"), ("F2[x]", "x+1"))


def _pullback_value(pullback_rank, ring, pi, M):
    return pullback_rank(ring, pi)(M)


class MatrixMix:
    block = sum(MIX.values())

    def __init__(self):
        self.rc = None
        self.rings = {}
        self.stats = Counter()
        self.deferred = []
        self.local = {spec: arith.local_arith(spec) for spec in LOCAL}
        self.products = {spec: arith.FieldProduct(spec) for spec in PRODUCT}

    # -- inputs ------------------------------------------------------------

    def requests(self, seed, deck=Deck):
        rng = random.Random(seed)
        return stream(rng, MIX, self._makers(rng, deck), unique=True)

    def _makers(self, rng, deck):
        local_rings = deck(rng, LOCAL)
        product_rings = deck(rng, PRODUCT)
        pullbacks = deck(rng, PULLBACK)
        local_shapes = deck(rng, [(r, c) for r in range(1, 9) for c in range(1, 9)])
        product_shapes = deck(rng, [(r, c) for r in range(1, 6) for c in range(1, 6)])
        pullback_shapes = deck(rng, [(r, c) for r in range(2, 13) for c in range(2, 13)])
        planted = deck(rng, (True, False))
        equivalent = deck(rng, (True, False))

        def local_matrix(spec, shape):
            ar = self.local[spec]
            exps = [rng.randint(0, ar.n) for _ in range(min(shape))]
            A = arith.planted_local(ar, rng, *shape, exps)
            return [[ar.literal(x) for x in row] for row in A], exps

        def diagonalize():
            spec = local_rings.deal()
            rows, exps = local_matrix(spec, local_shapes.deal())
            n = self.local[spec].n
            return request("diagonalize", {"ring": spec, "a": rows},
                           {"exponents": sorted(e for e in exps if e < n),
                            "zero_count": exps.count(n)})

        def class_leq():
            spec = local_rings.deal()
            n = self.local[spec].n
            a_rows, a_exps = local_matrix(spec, local_shapes.deal())
            b_rows, b_exps = local_matrix(spec, local_shapes.deal())
            return request("class-leq", {"ring": spec, "a": a_rows, "b": b_rows},
                           {"a_class": arith.class_vector(n, a_exps),
                            "b_class": arith.class_vector(n, b_exps)})

        def regular():
            spec = product_rings.deal()
            P = self.products[spec]
            (r1, c1), (r2, c2) = product_shapes.deal(), product_shapes.deal()
            is_planted = planted.deal()
            a_grids, b_grids = [], []
            for F in P.fields:
                B = P.random_grid(F, rng, r2, c2, rng.randint(0, min(r2, c2)))
                if is_planted:
                    C = P.random_grid(F, rng, r1, r2)
                    D = P.random_grid(F, rng, c2, c1)
                    A = arith.field_mat_mul(F, arith.field_mat_mul(F, C, B), D)
                else:
                    A = P.random_grid(F, rng, r1, c1, rng.randint(0, min(r1, c1)))
                a_grids.append(A)
                b_grids.append(B)
            return request("regular", {"ring": spec, "a": P.literals(a_grids), "b": P.literals(b_grids)},
                           {"planted": is_planted, "a_grids": a_grids, "b_grids": b_grids})

        def module():
            spec = local_rings.deal()
            n = self.local[spec].n
            r1, m1 = local_shapes.deal()
            rows1, exps1 = local_matrix(spec, (r1, m1))
            if equivalent.deal():
                # same signature: the same nonzero diagonal, plus u generators
                # killed by unit relations and z extra zero relation rows
                nonzero = [e for e in exps1 if e < n]
                u, z = rng.randint(0, 1), rng.randint(0, 2)
                m2 = m1 + u
                r2 = max(1, len(nonzero) + u + z)
                exps2 = nonzero + [0] * u
                exps2 += [n] * (min(r2, m2) - len(exps2))
                rng.shuffle(exps2)
                ar = self.local[spec]
                A2 = arith.planted_local(ar, rng, r2, m2, exps2)
                rows2 = [[ar.literal(x) for x in row] for row in A2]
            else:
                r2, m2 = local_shapes.deal()
                rows2, exps2 = local_matrix(spec, (r2, m2))
            return request("module", {"ring": spec, "p1": [m1, rows1], "p2": [m2, rows2]},
                           {"a_class": arith.class_vector(n, exps1), "m1": m1,
                            "sig1": _signature(n, m1, exps1), "sig2": _signature(n, m2, exps2)})

        def pullback():
            spec, pi = pullbacks.deal()
            r, c = pullback_shapes.deal()
            k = rng.randint(1, min(r, c))
            if spec == "Z":
                X = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(r)]
                Y = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(k)]
                grid = [[sum(x * y for x, y in zip(row, col)) for col in zip(*Y)] for row in X]
                rows = [[str(x) for x in row] for row in grid]
            else:
                X = [[rng.randrange(4) for _ in range(k)] for _ in range(r)]
                Y = [[rng.randrange(4) for _ in range(c)] for _ in range(k)]
                grid = []
                for row in X:
                    out = []
                    for col in zip(*Y):
                        acc = 0
                        for x, y in zip(row, col):
                            acc ^= arith.f2_mul(x, y)
                        out.append(acc)
                    grid.append(out)
                rows = [[arith.f2_literal(x) for x in row] for row in grid]
            return request("pullback", {"ring": spec, "pi": pi, "a": rows}, {"grid": grid})

        return {"diagonalize": diagonalize, "class-leq": class_leq, "regular": regular,
                "module": module, "pullback": pullback}

    # -- set-up --------------------------------------------------------------

    def warmup(self):
        return warmup(self.requests(0, deck=Smallest), MIX)

    def setup(self, warmup):
        import rankcert
        from tracing import NullTracer

        self.rc = rankcert
        for spec in LOCAL + PRODUCT + ("Z", "F2[x]"):
            self.rings[spec] = rankcert.parse_ring(spec)
        tr = NullTracer()
        for req in warmup:
            self.execute(req, tr)

    # -- requests ------------------------------------------------------------

    def execute(self, req, tr):
        return getattr(self, "_" + req.kind.replace("-", "_"))(req.data, tr)

    def _parse(self, ring, rows, tr):
        tr.count("rings.parse_matrix.entries", len(rows) * len(rows[0]))
        return tr.call("rings.parse_matrix", self.rc.parse_matrix, ring, rows)

    def _diagonalize(self, d, tr):
        rc = self.rc
        A = self._parse(self.rings[d["ring"]], d["a"], tr)
        tr.count("normal_form.diagonalize.cells", A.rows * A.cols)
        form = tr.call("normal_form.diagonalize", rc.diagonalize, A)
        ok = tr.call("normal_form.verify_factorization", rc.verify_factorization, A, form)
        return form.exponents, form.zero_count, ok

    def _class_leq(self, d, tr):
        rc = self.rc
        ring = self.rings[d["ring"]]
        A = self._parse(ring, d["a"], tr)
        B = self._parse(ring, d["b"], tr)
        a = tr.call("semigroup.class_of.local", rc.class_of, A)
        b = tr.call("semigroup.class_of.local", rc.class_of, B)
        result = tr.call("semigroup.leq", rc.leq, ring, a, b)
        cert = tr.call("semigroup.witness_chain", rc.witness_chain, ring, a, b)
        if isinstance(cert, rc.Positive):
            tr.count("semigroup.witness_chain.moves", len(cert.moves))
        ok = tr.call("semigroup.verify_certificate", rc.verify_certificate, ring, a, b, cert)
        return a, b, result, cert, ok

    def _regular(self, d, tr):
        rc = self.rc
        ring = self.rings[d["ring"]]
        A = self._parse(ring, d["a"], tr)
        B = self._parse(ring, d["b"], tr)
        a = tr.call("semigroup.class_of.product", rc.class_of, A)
        b = tr.call("semigroup.class_of.product", rc.class_of, B)
        result = tr.call("semigroup.leq", rc.leq, ring, a, b)
        factor = tr.call("semigroup.regular_factor", rc.regular_factor, A, B)
        if factor.ok:
            tr.count("semigroup.regular_factor.positive")
        ok = tr.call("semigroup.verify_factor", rc.verify_factor, A, B, factor)
        return a, b, result, factor, ok

    def _module(self, d, tr):
        rc = self.rc
        ring = self.rings[d["ring"]]
        (m1, rows1), (m2, rows2) = d["p1"], d["p2"]
        A1 = self._parse(ring, rows1, tr)
        A2 = self._parse(ring, rows2, tr)
        P1 = tr.call("presentations.presentation", rc.presentation, m1, A1)
        P2 = tr.call("presentations.presentation", rc.presentation, m2, A2)
        dims = [tr.call("presentations.dim", rc.dim, k, P1) for k in range(1, ring.nil_degree + 1)]
        equal = tr.call("presentations.presentations_equivalent", rc.presentations_equivalent, P1, P2)
        g = tr.call("presentations.phi", rc.phi, P1)
        coeffs = tr.call("presentations.psi", rc.psi, A1)
        return dims, equal, g, coeffs

    def _pullback(self, d, tr):
        ring = self.rings[d["ring"]]
        M = self._parse(ring, d["a"], tr)
        pi = ring.parse(d["pi"])
        mode = "fraction" if ring.is_zero(pi) else "residue"
        return tr.call(f"states.pullback_rank.{mode}", _pullback_value,
                       self.rc.pullback_rank, ring, pi, M)

    # -- oracles ---------------------------------------------------------------

    def check(self, req, out) -> bool:
        d = req.data
        for rows in [d.get("a"), d.get("b"), d.get("p1", [0, None])[1], d.get("p2", [0, None])[1]]:
            if rows:
                self.stats[f"size.{max(len(rows), len(rows[0]))}"] += 1
        if req.kind == "diagonalize":
            exps, zero_count, ok = out
            return ok is True and list(exps) == d["exponents"] and zero_count == d["zero_count"]
        if req.kind == "class-leq":
            a, b, result, cert, ok = out
            expected = arith.local_leq(d["a_class"], d["b_class"])
            self.stats["class-leq." + ("positive" if expected else "negative")] += 1
            if isinstance(cert, self.rc.Positive) != expected:
                return False
            if not expected and (cert.k, cert.lhs, cert.rhs) != arith.least_violation(d["a_class"], d["b_class"]):
                return False
            return ok is True and result == expected and (a, b) == (d["a_class"], d["b_class"])
        if req.kind == "regular":
            return self._check_regular(d, *out)
        if req.kind == "module":
            return self._check_module(d, *out)
        self.deferred.append((d["ring"], d["pi"], d["grid"], out))
        return True

    def _check_regular(self, d, a, b, result, factor, ok):
        P = self.products[d["ring"]]
        ra = tuple(arith.field_rank(F, g) for F, g in zip(P.fields, d["a_grids"]))
        rb = tuple(arith.field_rank(F, g) for F, g in zip(P.fields, d["b_grids"]))
        expected = all(x <= y for x, y in zip(ra, rb))
        self.stats["regular." + ("positive" if expected else "negative")] += 1
        if (a, b) != (ra, rb) or result != expected or factor.ok != expected or ok is not True:
            return False
        if d["planted"] and not expected:
            return False
        if not expected:
            return factor.failing_component == next(i for i, (x, y) in enumerate(zip(ra, rb)) if x > y)
        # C * B * D == A, componentwise, in the independent field arithmetic
        for i, F in enumerate(P.fields):
            C = [[e[i] for e in row] for row in factor.C.entries]
            D = [[e[i] for e in row] for row in factor.D.entries]
            if arith.field_mat_mul(F, arith.field_mat_mul(F, C, d["b_grids"][i]), D) != d["a_grids"][i]:
                return False
        return True

    def _check_module(self, d, dims, equal, g, coeffs):
        a, m = d["a_class"], d["m1"]
        n = len(a)
        expected_dims = [m - Fraction(t, k) for k, t in enumerate(arith.rank_numerators(a), start=1)]
        diff = [m - a[0]] + [-x for x in a[1:]]
        torsion, free = d["sig1"]
        module_class = [free] + [torsion.count(e) for e in range(1, n)]
        psi = [m - module_class[0]] + [-c for c in module_class[1:]]
        expected_equal = d["sig1"] == d["sig2"]
        self.stats["module." + ("positive" if expected_equal else "negative")] += 1
        return (
            list(dims) == expected_dims
            and equal == expected_equal
            and list(g.pos) == [max(x, 0) for x in diff]
            and list(g.neg) == [max(-x, 0) for x in diff]
            and list(coeffs) == psi
        )

    def finish(self) -> int:
        """Check the pullback ranks; returns how many were wrong."""
        from sympy import GF, QQ, ZZ
        from sympy.polys.matrices import DomainMatrix

        wrong = 0
        for spec, pi, grid, value in self.deferred:
            if spec == "Z":
                domain = QQ if pi == "0" else GF(int(pi))
                expected = DomainMatrix.from_list(grid, ZZ).convert_to(domain).rank()
            elif pi == "0":
                expected = arith.f2_rank_mod(grid, arith.GF2_25)
            else:
                expected = arith.f2_rank_mod(grid, 0b10 if pi == "x" else 0b11)
            self.stats[f"pullback.{'fraction' if pi == '0' else 'residue'}"] += 1
            wrong += value != expected
        self.deferred.clear()
        return wrong


def _signature(n, gens, exponents):
    """(sorted torsion exponents, free rank) of R^gens / (relations)."""
    nonzero = [e for e in exponents if e < n]
    return sorted(e for e in nonzero if e >= 1), gens - len(nonzero)
