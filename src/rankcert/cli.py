"""Command-line front end.

Requests are flags, responses are canonical JSON on stdout: keys sorted,
rationals as "num/den" in lowest terms, matrices as arrays of entry
strings.  Output is byte-stable for a fixed request.  Exit codes:
0 success, 1 failed verification/selftest, 2 parse error, 3 precondition
violation, 4 bound overflow.  `verify` is total: it exits 0, 1 or 2 and
never prints a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from fractions import Fraction

from .errors import BoundExceededError, ParseError, PreconditionError
from .normal_form import DiagonalForm, diagonalize, verify_factorization
from .rings import Matrix, parse_matrix, parse_ring

# semigroup, states and presentations are imported inside the handlers
# that use them, so the other commands start without loading them


# ---------------------------------------------------------------------------
# encoding helpers


def fmt_fraction(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(text) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad rational {text!r}") from None


def load_json(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None


def matrix_payload(M: Matrix):
    return M.to_strings()


def load_matrix(ring, data) -> Matrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ParseError("matrix payload must be a nonempty array of arrays")
    return parse_matrix(ring, [[str(e) for e in row] for row in data])


def load_operand(ring, text: str):
    """A JSON matrix (nested arrays) or monoid vector (flat int array)."""
    data = load_json(text, "operand")
    if isinstance(data, list) and data and all(isinstance(r, list) for r in data):
        return "matrix", load_matrix(ring, data)
    if isinstance(data, list) and all(isinstance(x, int) for x in data):
        from .semigroup import check_element

        return "vector", check_element(ring, data)
    raise ParseError(f"operand must be a matrix or a vector: {text!r}")


def load_exponents(text: str):
    data = load_json(text, "exponent list")
    if not isinstance(data, list) or not all(isinstance(x, int) and x >= 0 for x in data):
        raise ParseError("exponent multiset must be a list of nonnegative ints")
    return tuple(sorted(data))


@functools.cache
def _moves():
    """Each move's payload name, with its class and fields."""
    from .semigroup import Cancel, Drop, ExponentIncrease, PowerSwap

    return {
        "power-swap": (PowerSwap, ("j1", "j2")),
        "exponent-increase": (ExponentIncrease, ("i",)),
        "drop": (Drop, ("i",)),
        "cancel": (Cancel, ("i",)),
    }

_RANGE_WITNESS = ("n", "k", "m")
_EXTENSION_WITNESS = ("b", "c", "m", "mbar")


def move_payload(mv):
    for name, (cls, fields) in _moves().items():
        if isinstance(mv, cls):
            return {"move": name, **{f: getattr(mv, f) for f in fields}}
    raise ParseError(f"unknown move {mv!r}")


def _typed(value, kind, what):
    """value if it has type kind (an int is never a bool); else ParseError."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ParseError(f"{what} is missing or not of type {kind.__name__}")


def _get(data, key, kind):
    value = data.get(key) if isinstance(data, dict) else None
    return _typed(value, kind, f"payload field {key!r}")


def _int_tuple(value, what) -> tuple:
    return tuple(_typed(x, int, f"an entry of {what}") for x in _typed(value, list, what))


def load_spec(gens, values):
    """A state spec from JSON arrays of class vectors and of rationals."""
    from .states import StateSpec

    return StateSpec(
        generators=tuple(_int_tuple(g, "a generator") for g in _typed(gens, list, "generators")),
        values=tuple(parse_fraction(v) for v in _typed(values, list, "values")),
    )


def load_move(data):
    kind = _get(data, "move", str)
    if kind not in _moves():
        raise ParseError(f"unknown move payload {data!r}")
    cls, fields = _moves()[kind]
    return cls(*(_get(data, f, int) for f in fields))


def _inf_or_int(x):
    return "inf" if x is None else x


def _get_inf_or_int(data, key):
    return None if data.get(key) == "inf" else _get(data, key, int)


def certificate_payload(cert):
    from .semigroup import NegativeMinor, NegativeRank, Positive

    if isinstance(cert, Positive):
        return {"kind": "positive", "moves": [move_payload(m) for m in cert.moves]}
    if isinstance(cert, NegativeRank):
        return {
            "kind": "negative-rank",
            "k": cert.k,
            "lhs": fmt_fraction(cert.lhs),
            "rhs": fmt_fraction(cert.rhs),
        }
    if isinstance(cert, NegativeMinor):
        return {
            "kind": "negative-minor",
            "k": cert.k,
            "lhs": _inf_or_int(cert.lhs),
            "rhs": _inf_or_int(cert.rhs),
        }
    raise ParseError(f"unknown certificate {cert!r}")


def load_certificate(data):
    from .semigroup import NegativeMinor, NegativeRank, Positive

    kind = _get(data, "kind", str)
    if kind == "positive":
        return Positive(tuple(load_move(m) for m in _get(data, "moves", list)))
    if kind == "negative-rank":
        lhs, rhs = parse_fraction(data.get("lhs")), parse_fraction(data.get("rhs"))
        return NegativeRank(_get(data, "k", int), lhs, rhs)
    if kind == "negative-minor":
        lhs, rhs = _get_inf_or_int(data, "lhs"), _get_inf_or_int(data, "rhs")
        return NegativeMinor(_get(data, "k", int), lhs, rhs)
    raise ParseError(f"unknown certificate payload {data!r}")


# ---------------------------------------------------------------------------
# command handlers


def cmd_normalize(args):
    ring = parse_ring(args.ring)
    value = ring.parse(args.value)
    payload = {"command": "normalize", "ring": ring.spec, "value": ring.format(value)}
    if ring.is_local:
        payload["zero"] = ring.is_zero(value)
        if not ring.is_zero(value):
            val = ring.valuation(value)
            payload["unit"] = ring.format(ring.shift(value, val))
            payload["valuation"] = val
    return payload


def cmd_diagonalize(args):
    ring = parse_ring(args.ring)
    kind, A = load_operand(ring, args.matrix)
    if kind != "matrix":
        raise ParseError("diagonalize needs a matrix operand")
    form = diagonalize(A)
    return {
        "command": "diagonalize",
        "ring": ring.spec,
        "matrix": matrix_payload(A),
        "exponents": list(form.exponents),
        "zero_count": form.zero_count,
        "left": matrix_payload(form.left),
        "right": matrix_payload(form.right),
        "verified": verify_factorization(A, form),
    }


def cmd_class(args):
    from .semigroup import class_of

    ring = parse_ring(args.ring)
    kind, A = load_operand(ring, args.a)
    if kind != "matrix":
        raise ParseError("class needs a matrix operand")
    return {
        "command": "class",
        "ring": ring.spec,
        "matrix": matrix_payload(A),
        "class": list(class_of(A)),
    }


def cmd_rank(args):
    from .semigroup import class_of, rk

    ring = parse_ring(args.ring)
    kind, value = load_operand(ring, args.a)
    vec = class_of(value) if kind == "matrix" else value
    return {
        "command": "rank",
        "ring": ring.spec,
        "k": args.k,
        "class": list(vec),
        "rank": fmt_fraction(rk(ring, args.k, vec)),
    }


def _leq_payload(command, args):
    from .semigroup import (
        UNKNOWN,
        Positive,
        class_of,
        class_representative,
        leq,
        leq_provable,
        regular_factor,
        verify_certificate,
        verify_factor,
        verify_formal_certificate,
        witness_chain,
    )

    ring = parse_ring(args.ring)
    if args.elem is not None:
        # formal diagonal elements over (Z, elem) or (F_p[x], elem)
        from .states import check_formal_hypothesis

        if ring.is_local or ring.is_product:
            raise ParseError("--elem applies to the Z and F_p[x] families")
        pivot = ring.parse(args.elem)
        ea, eb = load_exponents(args.a), load_exponents(args.b)
        # minor certificates need the hypothesis up to every exponent they use
        check_formal_hypothesis(ring, pivot, max(args.depth - 1, *ea, *eb))
        cert = leq_provable(ea, eb, depth=args.depth)
        result = "unknown" if cert is UNKNOWN else isinstance(cert, Positive)
        payload = {
            "command": command,
            "ring": ring.spec,
            "mode": "formal",
            "elem": ring.format(pivot),
            "depth": args.depth,
            "a": list(ea),
            "b": list(eb),
            "result": result,
        }
        if cert is not UNKNOWN:
            payload["certificate"] = certificate_payload(cert)
            payload["verified"] = verify_formal_certificate(ea, eb, cert)
        return payload

    kind_a, a = load_operand(ring, args.a)
    kind_b, b = load_operand(ring, args.b)
    vec_a = class_of(a) if kind_a == "matrix" else a
    vec_b = class_of(b) if kind_b == "matrix" else b
    payload = {
        "command": command,
        "ring": ring.spec,
        "a_class": list(vec_a),
        "b_class": list(vec_b),
        "result": leq(ring, vec_a, vec_b),
    }
    if ring.is_local:
        payload["mode"] = "local"
        cert = witness_chain(ring, vec_a, vec_b)
        payload["certificate"] = certificate_payload(cert)
        payload["verified"] = verify_certificate(ring, vec_a, vec_b, cert)
    else:
        payload["mode"] = "regular"
        A = a if kind_a == "matrix" else class_representative(ring, vec_a)
        B = b if kind_b == "matrix" else class_representative(ring, vec_b)
        payload["a_matrix"] = matrix_payload(A)
        payload["b_matrix"] = matrix_payload(B)
        res = regular_factor(A, B)
        if res.ok:
            payload["certificate"] = {
                "kind": "factorization",
                "c": matrix_payload(res.C),
                "d": matrix_payload(res.D),
            }
        else:
            i = res.failing_component
            payload["certificate"] = {
                "kind": "negative-component",
                "component": i,
                "lhs": vec_a[i],
                "rhs": vec_b[i],
            }
        payload["verified"] = verify_factor(A, B, res)
    return payload


def cmd_state_range(args):
    from .semigroup import class_of
    from .states import state_range

    ring = parse_ring(args.ring)
    kind, a = load_operand(ring, args.a)
    vec = class_of(a) if kind == "matrix" else a
    sr = state_range(ring, vec, args.N, args.M)
    payload = {
        "command": "state-range",
        "ring": ring.spec,
        "a": list(vec),
        "N": args.N,
        "M": args.M,
        "p_lb": fmt_fraction(sr.p_lb),
        "q_ub": fmt_fraction(sr.q_ub),
        "p_witness": dict(zip(_RANGE_WITNESS, sr.p_witness)),
        "q_witness": dict(zip(_RANGE_WITNESS, sr.q_witness)),
    }
    if sr.exact is not None:
        payload["exact"] = [fmt_fraction(sr.exact[0]), fmt_fraction(sr.exact[1])]
    return payload


def cmd_extend_state(args):
    from .semigroup import class_of
    from .states import state_extension

    ring = parse_ring(args.ring)
    spec = load_spec(load_json(args.generators, "generators"), load_json(args.values, "values"))
    kind, a = load_operand(ring, args.a)
    vec = class_of(a) if kind == "matrix" else a
    sr = state_extension(
        ring, spec, vec, ball=args.ball, m_bound=args.M, shifted=args.shifted
    )
    return {
        "command": "extend-state",
        "ring": ring.spec,
        "generators": [list(g) for g in spec.generators],
        "values": [fmt_fraction(v) for v in spec.values],
        "a": list(vec),
        "ball": args.ball,
        "M": args.M,
        "shifted": args.shifted,
        "p_lb": fmt_fraction(sr.p_lb),
        "q_ub": fmt_fraction(sr.q_ub),
        "p_witness": dict(zip(_EXTENSION_WITNESS, sr.p_witness)),
        "q_witness": dict(zip(_EXTENSION_WITNESS, sr.q_witness)),
    }


def cmd_rk_square(args):
    from .states import rk_for_square

    ring = parse_ring(args.ring)
    elem = ring.parse(args.a)
    res = rk_for_square(ring, elem, bound=args.bounds)
    return {
        "command": "rk-square",
        "ring": ring.spec,
        "elem": ring.format(elem),
        "bounds": args.bounds,
        "value": fmt_fraction(res.value),
        "upper": certificate_payload(res.upper),
        "lower": {
            "bound": res.lower.bound,
            "candidates": res.lower.candidates,
            "refuted": res.lower.refuted,
        },
    }


def cmd_dim(args):
    from .presentations import dim, presentation

    ring = parse_ring(args.ring)
    kind, A = load_operand(ring, args.relations)
    if kind != "matrix":
        raise ParseError("dim needs a relations matrix")
    P = presentation(args.gens, A)
    return {
        "command": "dim",
        "ring": ring.spec,
        "gens": args.gens,
        "relations": matrix_payload(A),
        "k": args.k,
        "dim": fmt_fraction(dim(args.k, P)),
    }


def _load_presentation(ring, text):
    from .presentations import presentation

    data = load_json(text, "presentation payload")
    if not isinstance(data, dict) or "gens" not in data or "relations" not in data:
        raise ParseError('presentation must look like {"gens": m, "relations": [[..]]}')
    return presentation(_get(data, "gens", int), load_matrix(ring, data["relations"]))


def _signature_payload(sig):
    if hasattr(sig, "multiplicities"):
        return {"multiplicities": list(sig.multiplicities)}
    return {"torsion": list(sig.torsion), "free_rank": sig.free_rank}


def cmd_equiv(args):
    from .presentations import presentations_equivalent, signature

    ring = parse_ring(args.ring)
    P1 = _load_presentation(ring, args.p1)
    P2 = _load_presentation(ring, args.p2)
    return {
        "command": "equiv",
        "ring": ring.spec,
        "equivalent": presentations_equivalent(P1, P2),
        "signatures": [
            _signature_payload(signature(P1)),
            _signature_payload(signature(P2)),
        ],
    }


def cmd_phi(args):
    from .presentations import phi

    ring = parse_ring(args.ring)
    P = _load_presentation(ring, args.presentation)
    g = phi(P)
    return {
        "command": "phi",
        "ring": ring.spec,
        "gens": P.gens,
        "relations": matrix_payload(P.relations),
        "pos": list(g.pos),
        "neg": list(g.neg),
    }


def cmd_psi(args):
    from .presentations import module_basis_labels, psi

    ring = parse_ring(args.ring)
    kind, A = load_operand(ring, args.a)
    if kind != "matrix":
        raise ParseError("psi needs a matrix operand")
    return {
        "command": "psi",
        "ring": ring.spec,
        "matrix": matrix_payload(A),
        "coeffs": list(psi(A)),
        "basis": list(module_basis_labels(ring)),
    }


def cmd_axioms_check(args):
    from . import acceptance  # only this command and selftest use the suite
    from .semigroup import class_of, rk
    from .states import pullback_rank

    if args.count < 1:
        raise PreconditionError("count must be >= 1")
    ring = parse_ring(args.ring)
    rng = random.Random(args.seed)
    report = {}
    if ring.is_local:
        for k in range(1, ring.nil_degree + 1):
            rank_fn = lambda M, k=k: rk(ring, k, class_of(M))
            bad = acceptance._axiom_violations(rank_fn, ring, rng, args.count)
            report[f"rk_{k}"] = len(bad)
    elif args.pi is not None:
        rank_fn = pullback_rank(ring, ring.parse(args.pi))
        bad = acceptance._axiom_violations(rank_fn, ring, rng, args.count)
        report[rank_fn.description] = len(bad)
    else:
        raise PreconditionError(
            "axioms-check needs a local ring, or Z/F_p[x] with --pi"
        )
    return {
        "command": "axioms-check",
        "ring": ring.spec,
        "count": args.count,
        "seed": args.seed,
        "violations": report,
        "passed": not any(report.values()),
    }


def cmd_verify(args):
    try:
        if args.file is not None:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except (OSError, ValueError) as exc:
        raise ParseError(f"verify payload is unreadable: {exc}") from None
    data = load_json(text, "verify payload")
    command = _get(data, "command", str)
    try:
        ok = _verify_response(command, data)
    except PreconditionError:
        # a certificate outside a library precondition certifies nothing
        ok = False
    return {"command": "verify", "verified": ok, "of": command}, (0 if ok else 1)


def _load_state_range(data, fields):
    """A state-range or extend-state response; witness fields b and c are vectors.

    Only a state-range response carries the `exact` interval.
    """
    from .states import StateRange

    p_w, q_w = (
        tuple(_int_tuple(w.get(f), f) if f in ("b", "c") else _get(w, f, int) for f in fields)
        for w in (_get(data, "p_witness", dict), _get(data, "q_witness", dict))
    )
    p_lb, q_ub = parse_fraction(data.get("p_lb")), parse_fraction(data.get("q_ub"))
    exact = None
    if fields is _RANGE_WITNESS:
        exact = tuple(parse_fraction(x) for x in _typed(data.get("exact"), list, "exact"))
    return StateRange(p_lb, q_ub, p_w, q_w, exact)


def _verify_response(command, data) -> bool:
    """Decode a response into library types and re-check it with its verifier."""
    from .semigroup import (
        FactorResult,
        Positive,
        class_of,
        verify_certificate,
        verify_factor,
        verify_formal_certificate,
    )

    if command not in ("leq", "chain", "rk-square", "state-range", "extend-state", "diagonalize"):
        raise ParseError(f"verify does not support command {command!r}")
    ring = parse_ring(_get(data, "ring", str))
    result = data.get("result")
    if command in ("leq", "chain"):
        mode = data.get("mode")
        if mode in ("formal", "local"):
            if "certificate" not in data:  # a formal search may end unknown
                return False
            cert = load_certificate(data["certificate"])
            if mode == "formal":
                from .states import check_formal_hypothesis

                a, b = _int_tuple(data.get("a"), "a"), _int_tuple(data.get("b"), "b")
                bound = max(_get(data, "depth", int) - 1, *a, *b)
                check_formal_hypothesis(ring, ring.parse(_get(data, "elem", str)), bound)
                ok = verify_formal_certificate(a, b, cert)
            else:
                a = _int_tuple(data.get("a_class"), "a_class")
                b = _int_tuple(data.get("b_class"), "b_class")
                ok = verify_certificate(ring, a, b, cert)
            return ok and result == isinstance(cert, Positive)
        if mode == "regular":
            A = load_matrix(ring, data.get("a_matrix"))
            B = load_matrix(ring, data.get("b_matrix"))
            a = _int_tuple(data.get("a_class"), "a_class")
            b = _int_tuple(data.get("b_class"), "b_class")
            cert = _get(data, "certificate", dict)
            kind = cert.get("kind")
            if kind == "factorization":
                C, D = load_matrix(ring, cert.get("c")), load_matrix(ring, cert.get("d"))
                ok = result is True and verify_factor(A, B, FactorResult(C, D, None))
            elif kind == "negative-component":
                i = _get(cert, "component", int)
                claimed = (_get(cert, "lhs", int), _get(cert, "rhs", int))
                ok = (
                    result is False
                    and verify_factor(A, B, FactorResult(None, None, i))
                    and claimed == (class_of(A)[i], class_of(B)[i])
                )
            else:
                return False
            return ok and (a, b) == (class_of(A), class_of(B))
        return False
    if command == "rk-square":
        from .states import MinorSweep, RkSquareResult, verify_rk_square

        lower = _get(data, "lower", dict)
        res = RkSquareResult(
            value=parse_fraction(data.get("value")),
            upper=load_certificate(data.get("upper")),
            lower=MinorSweep(*(_get(lower, k, int) for k in ("bound", "candidates", "refuted"))),
        )
        return verify_rk_square(ring, ring.parse(_get(data, "elem", str)), res)
    if command == "state-range":
        from .states import verify_state_range

        sr = _load_state_range(data, _RANGE_WITNESS)
        a = _int_tuple(data.get("a"), "a")
        return verify_state_range(ring, a, sr, _get(data, "N", int), _get(data, "M", int))
    if command == "extend-state":
        from .states import verify_state_extension

        spec = load_spec(data.get("generators"), data.get("values"))
        sr = _load_state_range(data, _EXTENSION_WITNESS)
        a = _int_tuple(data.get("a"), "a")
        bounds = (_get(data, "ball", int), _get(data, "M", int), _get(data, "shifted", bool))
        return verify_state_extension(ring, spec, a, sr, *bounds)
    A = load_matrix(ring, data.get("matrix"))
    form = DiagonalForm(
        exponents=_int_tuple(data.get("exponents"), "exponents"),
        zero_count=_get(data, "zero_count", int),
        left=load_matrix(ring, data.get("left")),
        right=load_matrix(ring, data.get("right")),
    )
    return verify_factorization(A, form)


def cmd_selftest(args):
    from . import acceptance

    numbers = set(args.only) if args.only else None
    results = acceptance.run_all(numbers)
    for res in results:
        print(res.line())
    return None, (0 if all(r.passed for r in results) else 1)


# ---------------------------------------------------------------------------
# parser


def _flag(name, **options):
    return name, options


_RING = _flag("--ring", required=True, help="ring spec, e.g. Z/8 or F2*F3")
_A = _flag("--a", required=True)
_LEQ = [
    _RING,
    _A,
    _flag("--b", required=True),
    _flag("--elem", help="pivot element for formal mode over Z / F_p[x]"),
    _flag("--depth", type=int, default=8),
]
# each command's help text, handler and flags, in the order --help lists them
_COMMANDS = {
    "normalize": (
        "canonicalize a ring element literal", cmd_normalize,
        [_RING, _flag("--value", required=True)],
    ),
    "diagonalize": (
        "diagonal form with invertible factors", cmd_diagonalize,
        [_RING, _flag("--matrix", required=True)],
    ),
    "class": ("monoid class of a matrix", cmd_class, [_RING, _A]),
    "rank": (
        "rk_k of a matrix or class vector", cmd_rank,
        [_RING, _A, _flag("--k", type=int, required=True)],
    ),
    "leq": ("order decision with certificate", functools.partial(_leq_payload, "leq"), _LEQ),
    "chain": (
        "order decision with certificate (alias emphasizing the chain)",
        functools.partial(_leq_payload, "chain"), _LEQ,
    ),
    "state-range": (
        "certified state range of a class", cmd_state_range,
        [_RING, _A, _flag("--N", type=int, default=12), _flag("--M", type=int, default=12)],
    ),
    "extend-state": (
        "extension interval from a subsemigroup", cmd_extend_state,
        [
            _RING,
            _flag("--generators", required=True, help="JSON list of class vectors"),
            _flag("--values", required=True, help='JSON list of rationals, e.g. ["1/1","0/1"]'),
            _A,
            _flag("--ball", type=int, default=12),
            _flag("--M", type=int, default=12),
            _flag("--shifted", action="store_true"),
        ],
    ),
    "rk-square": (
        "sup rk(a) among rank functions killing a^2", cmd_rk_square,
        [_RING, _A, _flag("--bounds", type=int, default=6)],
    ),
    "dim": (
        "dimension of a presented module", cmd_dim,
        [
            _RING,
            _flag("--gens", type=int, required=True),
            _flag("--relations", required=True),
            _flag("--k", type=int, required=True),
        ],
    ),
    "equiv": (
        "isomorphism test for presentations", cmd_equiv,
        [_RING, _flag("--p1", required=True), _flag("--p2", required=True)],
    ),
    "phi": (
        "matrix-side group image of a presentation", cmd_phi,
        [_RING, _flag("--presentation", required=True)],
    ),
    "psi": ("module-side group image of a matrix", cmd_psi, [_RING, _A]),
    "axioms-check": (
        "random Sylvester axiom suite", cmd_axioms_check,
        [
            _RING,
            _flag("--count", type=int, default=200),
            _flag("--seed", type=int, default=0),
            _flag("--pi", help="prime element (or 0) for Z / F_p[x]"),
        ],
    ),
    "verify": (
        "re-check an emitted response", cmd_verify,
        [_flag("--file", help="response JSON (default: stdin)")],
    ),
    "selftest": (
        "run the acceptance suite", cmd_selftest,
        [_flag("--only", type=int, nargs="*", help="criterion numbers to run")],
    ),
}


def build_parser(argv=None):
    """The CLI parser; when argv names a command first, with that subparser alone."""
    parser = argparse.ArgumentParser(
        prog="rankcert",
        description="Exact order and rank certificates for desk-scale rings.",
    )
    if argv and argv[0] in _COMMANDS:
        # keeps the usage line naming every command; argparse would also name
        # the positional by it in a missing- or unknown-command error, which
        # cannot arise here
        metavar = "{" + ",".join(_COMMANDS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
        names = argv[:1]
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        names = _COMMANDS
    for name in names:
        help_text, handler, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        out = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 3
    except BoundExceededError as exc:
        print(f"bound overflow: {exc}", file=sys.stderr)
        return 4
    payload, code = out if isinstance(out, tuple) else (out, 0)
    if payload is not None:
        print(json.dumps(payload, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
