"""Command-line front end.

Requests are flags, responses are canonical JSON on stdout: keys sorted,
rationals as "num/den" in lowest terms, matrices as arrays of entry
strings.  Output is byte-stable for a fixed request.  Exit codes:
0 success, 1 failed verification/selftest, 2 parse error, 3 precondition
violation, 4 bound overflow.  `verify` is total: it exits 0, 1 or 2 and
never prints a traceback.

`main` is the request boundary: it parses `--ring` and writes the
`command` and `ring` keys of every response.  Each verifiable command
has one decode-and-check function in `_VERIFIERS`.  `verify` runs it on
the response it reads, and `main` runs it on a response about to be
printed that carries a `verified` field, so a printed verdict is the one
`verify` gives on the printed bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

import rankcert

from .errors import BoundExceededError, ParseError, PreconditionError
from .rings import Matrix, parse_matrix, parse_ring

# normal_form, semigroup, states and presentations are imported inside the
# handlers that use them, so the other commands start without loading them


# ---------------------------------------------------------------------------
# decoding and encoding


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


def load_matrix(ring, data) -> Matrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise ParseError("matrix payload must be a nonempty array of arrays")
    return parse_matrix(ring, [[str(e) for e in row] for row in data])


def load_matrix_operand(ring, text: str) -> Matrix:
    """A matrix operand: a JSON array of rows."""
    return load_matrix(ring, load_json(text, "operand"))


def load_class_operand(ring, text: str):
    """A matrix or class vector operand, as (matrix or None, class vector)."""
    from .semigroup import check_element, class_of

    data = load_json(text, "operand")
    if isinstance(data, list) and data and isinstance(data[0], list):
        A = load_matrix(ring, data)
        return A, class_of(A)
    return None, check_element(ring, _int_tuple(data, "the operand"))


def _exponents(value, what) -> tuple:
    exponents = _int_tuple(value, what)
    if any(e < 0 for e in exponents):
        raise ParseError("exponent multiset must be a list of nonnegative ints")
    return tuple(sorted(exponents))


def load_exponents(text: str) -> tuple:
    return _exponents(load_json(text, "exponent list"), "the exponent list")


def load_spec(gens, values):
    """A state spec from JSON arrays of class vectors and of rationals."""
    from .states import StateSpec

    return StateSpec(
        generators=tuple(_int_tuple(g, "a generator") for g in _typed(gens, list, "generators")),
        values=tuple(parse_fraction(v) for v in _typed(values, list, "values")),
    )


# a field codec: (encode a field value, decode a payload value described as
# `what` over a ring, which only a matrix reads)
_INT = (lambda x: x, lambda value, what, ring: _typed(value, int, what))
_INTS = (list, lambda value, what, ring: _int_tuple(value, what))
_FRACTION = (fmt_fraction, lambda value, what, ring: parse_fraction(value))
_FRACTIONS = (
    lambda xs: [fmt_fraction(x) for x in xs],
    lambda value, what, ring: tuple(parse_fraction(x) for x in _typed(value, list, what)),
)
_INT_OR_INF = (  # None stands for +infinity
    lambda x: "inf" if x is None else x,
    lambda value, what, ring: None if value == "inf" else _typed(value, int, what),
)
_MOVES = (
    lambda moves: [record_payload(mv) for mv in moves],
    lambda value, what, ring: tuple(load_record(mv, "move") for mv in _typed(value, list, what)),
)
_CERTIFICATE = (
    lambda cert: record_payload(cert),
    lambda value, what, ring: load_record(value, "kind", ring),
)
_MATRIX = (Matrix.to_strings, lambda value, what, ring: load_matrix(ring, value))


def _keyed(keys):
    """The codec of a tuple printed as an object, a codec per key."""
    return (
        lambda t: _encode(keys, t),
        lambda value, what, ring: _decode(keys, value, what, ring),
    )


def _nested(name):
    """The codec of a record printed as an object in payload format name."""
    return (
        lambda rec: record_payload(rec, name),
        lambda value, what, ring: load_fields(_typed(value, dict, what), name, ring),
    )


_RANGE_WITNESS = _keyed({"n": _INT, "k": _INT, "m": _INT})
_EXTENSION_WITNESS = _keyed({"b": _INTS, "c": _INTS, "m": _INT, "mbar": _INT})

# Every record the CLI prints, by payload format name: the public name of its
# class, the key that carries the format name in the payload (None for a
# record printed as fields of the response or of an object), and a codec per
# payload key, paired with the class's fields in order.  A field after the
# last key decodes to None.  A class's first entry is its default format.
_CODECS = {
    "power-swap": ("PowerSwap", "move", {"j1": _INT, "j2": _INT}),
    "exponent-increase": ("ExponentIncrease", "move", {"i": _INT}),
    "drop": ("Drop", "move", {"i": _INT}),
    "cancel": ("Cancel", "move", {"i": _INT}),
    "positive": ("Positive", "kind", {"moves": _MOVES}),
    "negative-rank": ("NegativeRank", "kind", {"k": _INT, "lhs": _FRACTION, "rhs": _FRACTION}),
    "negative-minor": (
        "NegativeMinor", "kind", {"k": _INT, "lhs": _INT_OR_INF, "rhs": _INT_OR_INF},
    ),
    "factorization": ("FactorResult", "kind", {"c": _MATRIX, "d": _MATRIX}),
    "negative-component": (
        "NegativeComponent", "kind", {"component": _INT, "lhs": _INT, "rhs": _INT},
    ),
    "diagonal-form": (
        "DiagonalForm", None,
        {"exponents": _INTS, "zero_count": _INT, "left": _MATRIX, "right": _MATRIX},
    ),
    "state-range": (
        "StateRange", None,
        {
            "p_lb": _FRACTION, "q_ub": _FRACTION,
            "p_witness": _RANGE_WITNESS, "q_witness": _RANGE_WITNESS, "exact": _FRACTIONS,
        },
    ),
    "extension": (  # an extend-state interval: no exact extremes
        "StateRange", None,
        {
            "p_lb": _FRACTION, "q_ub": _FRACTION,
            "p_witness": _EXTENSION_WITNESS, "q_witness": _EXTENSION_WITNESS,
        },
    ),
    "minor-sweep": ("MinorSweep", None, {"bound": _INT, "candidates": _INT, "refuted": _INT}),
    "rk-square": (
        "RkSquareResult", None,
        {"value": _FRACTION, "upper": _CERTIFICATE, "lower": _nested("minor-sweep")},
    ),
    "group-element": ("GroupElement", None, {"pos": _INTS, "neg": _INTS}),
    "local-signature": ("LocalSignature", None, {"torsion": _INTS, "free_rank": _INT}),
    "regular-signature": ("RegularSignature", None, {"multiplicities": _INTS}),
}
_DEFAULT_FORMAT = {cls: name for name, (cls, _, _) in reversed(_CODECS.items())}


def _encode(keys, values) -> dict:
    return {k: encode(v) for (k, (encode, _)), v in zip(keys.items(), values)}


def _decode(keys, data, what, ring) -> tuple:
    data = _typed(data, dict, what)
    return tuple(dec(data.get(k), f"payload field {k!r}", ring) for k, (_, dec) in keys.items())


def record_payload(rec, name=None) -> dict:
    """The payload of a record, in format name (default: its class's first)."""
    if name is None:
        name = _DEFAULT_FORMAT.get(type(rec).__name__)
        if name is None:
            raise TypeError(f"no payload format for {rec!r}")
    _, tag, keys = _CODECS[name]
    fields = _encode(keys, (getattr(rec, f) for f in rec._fields))
    return fields if tag is None else {tag: name, **fields}


def load_fields(data, name: str, ring=None):
    """The record that the keys of data encode in payload format name."""
    cls_name, _, keys = _CODECS[name]
    cls = getattr(rankcert, cls_name)  # loads the class's module on first use
    values = _decode(keys, data, "the record payload", ring)
    return cls(*values, *(None,) * (len(cls._fields) - len(values)))


def load_record(data, tag: str, ring=None):
    """The move (tag "move") or order certificate (tag "kind") a payload encodes."""
    name = _get(data, tag, str)
    if _CODECS.get(name, (None, None))[1] != tag:
        raise ParseError(f"unknown {tag} payload {data!r}")
    return load_fields(data, name, ring)


# a handler returns "verified": _PENDING to have main fill in verify's
# verdict on the response it prints
_PENDING = None


def _check_hypothesis(ring, pivot, depth, a, b):
    """The formal hypothesis for a decision of a <= b searched to depth."""
    from .semigroup import check_formal_hypothesis

    # minor certificates need the hypothesis up to every exponent they use
    check_formal_hypothesis(ring, pivot, max((depth - 1, *a, *b)))


# ---------------------------------------------------------------------------
# command handlers: each gets the parsed ring and the arguments, and returns
# the response without its "command" and "ring" keys


def cmd_normalize(ring, args):
    value = ring.parse(args.value)
    payload = {"value": ring.format(value)}
    if ring.is_local:
        payload["zero"] = ring.is_zero(value)
        if not ring.is_zero(value):
            val = ring.valuation(value)
            payload["unit"] = ring.format(ring.shift(value, val))
            payload["valuation"] = val
    return payload


def cmd_diagonalize(ring, args):
    from .normal_form import diagonalize

    A = load_matrix_operand(ring, args.matrix)
    return {"matrix": A.to_strings(), **record_payload(diagonalize(A)), "verified": _PENDING}


def cmd_class(ring, args):
    from .semigroup import class_of

    A = load_matrix_operand(ring, args.a)
    return {
        "matrix": A.to_strings(),
        "class": list(class_of(A)),
    }


def cmd_rank(ring, args):
    from .semigroup import rk

    _, a = load_class_operand(ring, args.a)
    return {
        "k": args.k,
        "class": list(a),
        "rank": fmt_fraction(rk(ring, args.k, a)),
    }


# A class-vector operand of leq or chain sets the size of the certificate by
# its entries, not its length, so a request would choose its own cost without
# a cap.  Over a product of w fields the command factors representatives of
# side at most s = max(a + b), in about w s^3 field operations.  Over a local
# ring of nil degree n the chain makes |a| = sum(a) cancels, at most n - 1
# swaps before each, and at most |b| + swaps drops: at most 2n|a| + |b|
# moves.  A swap costs O(n) to build, and a move about as much to print and
# replay as 64 steps of that, so (2n|a| + |b|) ceil(n/64) bounds the work.
# At the cap the slowest requests found take about 0.3 s on a 2-core VM: a
# factorization over GF(2^32), the costliest field, and a chain of 20000 drops.
CLASS_WORK_CAP = 20_000


def _check_class_work(ring, a, b):
    """Refuse a leq or chain request whose class vectors exceed CLASS_WORK_CAP."""
    if ring.is_local:
        n = ring.nil_degree
        work = (2 * n * sum(a) + sum(b)) * -(-n // 64)
        rule = f"(2n|a| + |b|) * ceil(n/64) <= {CLASS_WORK_CAP}, n = {n} the nil degree"
    else:
        s = max(1, *a, *b)
        work = ring.width * s**3
        rule = f"w * s^3 <= {CLASS_WORK_CAP}, w = {ring.width} fields, s = {s} the largest entry"
    if work > CLASS_WORK_CAP:
        raise PreconditionError(
            f"class vectors over {ring.spec} need {rule}; this request needs {work}"
        )


def cmd_leq(ring, args):
    """leq and chain: an order decision read off its certificate."""
    from .semigroup import class_representative, regular_factor, witness_chain

    if args.elem is not None:
        return _formal_leq(ring, args)
    A, a = load_class_operand(ring, args.a)
    B, b = load_class_operand(ring, args.b)
    if A is None or B is None:
        _check_class_work(ring, a, b)
    payload = {"a_class": list(a), "b_class": list(b), "verified": _PENDING}
    if ring.is_local:
        payload["mode"] = "local"
        cert = witness_chain(ring, a, b)
    else:
        A = class_representative(ring, a) if A is None else A
        B = class_representative(ring, b) if B is None else B
        payload.update(mode="regular", a_matrix=A.to_strings(), b_matrix=B.to_strings())
        cert = regular_factor(A, B)
    payload.update(result=cert.ok, certificate=record_payload(cert))
    return payload


def _formal_leq(ring, args):
    """Formal diagonal elements over (Z, elem) or (F_p[x], elem)."""
    from .semigroup import UNKNOWN, leq_provable

    if ring.is_local or ring.is_product:
        raise ParseError("--elem applies to the Z and F_p[x] families")
    pivot = ring.parse(args.elem)
    a, b = load_exponents(args.a), load_exponents(args.b)
    _check_hypothesis(ring, pivot, args.depth, a, b)
    cert = leq_provable(a, b, depth=args.depth)
    payload = {
        "mode": "formal",
        "elem": ring.format(pivot),
        "depth": args.depth,
        "a": list(a),
        "b": list(b),
        "result": "unknown" if cert is UNKNOWN else cert.ok,
    }
    if cert is not UNKNOWN:
        payload.update(certificate=record_payload(cert), verified=_PENDING)
    return payload


def cmd_state_range(ring, args):
    from .states import state_range

    _, a = load_class_operand(ring, args.a)
    sr = state_range(ring, a, args.N, args.M)
    return {"a": list(a), "N": args.N, "M": args.M, **record_payload(sr)}


def cmd_extend_state(ring, args):
    from .states import state_extension

    spec = load_spec(load_json(args.generators, "generators"), load_json(args.values, "values"))
    _, a = load_class_operand(ring, args.a)
    sr = state_extension(ring, spec, a, ball=args.ball, m_bound=args.M, shifted=args.shifted)
    return {
        "generators": [list(g) for g in spec.generators],
        "values": [fmt_fraction(v) for v in spec.values],
        "a": list(a),
        "ball": args.ball,
        "M": args.M,
        "shifted": args.shifted,
        **record_payload(sr, "extension"),
    }


def cmd_rk_square(ring, args):
    from .states import rk_for_square

    elem = ring.parse(args.a)
    res = rk_for_square(ring, elem, bound=args.bounds)
    return {"elem": ring.format(elem), "bounds": args.bounds, **record_payload(res)}


def cmd_dim(ring, args):
    from .presentations import dim, presentation

    A = load_matrix_operand(ring, args.relations)
    P = presentation(args.gens, A)
    return {
        "gens": args.gens,
        "relations": A.to_strings(),
        "k": args.k,
        "dim": fmt_fraction(dim(args.k, P)),
    }


def _load_presentation(ring, text):
    from .presentations import presentation

    data = load_json(text, "presentation payload")
    if not isinstance(data, dict) or "gens" not in data or "relations" not in data:
        raise ParseError('presentation must look like {"gens": m, "relations": [[..]]}')
    return presentation(_get(data, "gens", int), load_matrix(ring, data["relations"]))


def cmd_equiv(ring, args):
    from .presentations import presentations_equivalent, signature

    P1 = _load_presentation(ring, args.p1)
    P2 = _load_presentation(ring, args.p2)
    return {
        "equivalent": presentations_equivalent(P1, P2),
        "signatures": [record_payload(signature(P1)), record_payload(signature(P2))],
    }


def cmd_phi(ring, args):
    from .presentations import phi

    P = _load_presentation(ring, args.presentation)
    return {"gens": P.gens, "relations": P.relations.to_strings(), **record_payload(phi(P))}


def cmd_psi(ring, args):
    from .presentations import module_basis_labels, psi

    A = load_matrix_operand(ring, args.a)
    return {
        "matrix": A.to_strings(),
        "coeffs": list(psi(A)),
        "basis": list(module_basis_labels(ring)),
    }


# axioms-check draws count instances per rank function, so a request would
# choose its own cost without a cap; 10000 is 20 times the README's 500.
# Over a local ring of nil degree n it runs n rank functions on matrices of
# entries with n coefficients, about count * n^3 work, capped at 20 times
# the README's 500 * 3^3 (n = 1 for a pullback rank)
AXIOMS_COUNT_CAP = 10_000
AXIOMS_WORK_CAP = 270_000


def cmd_axioms_check(ring, args):
    from . import acceptance  # only this command and selftest use the suite
    from .semigroup import class_of, rk
    from .states import pullback_rank

    if args.count < 1:
        raise PreconditionError("count must be >= 1")
    if args.count > AXIOMS_COUNT_CAP:
        raise PreconditionError(f"count must be <= {AXIOMS_COUNT_CAP}")
    n = ring.nil_degree if ring.is_local else 1
    if args.count * n**3 > AXIOMS_WORK_CAP:
        raise PreconditionError(
            f"count * n^3 must be <= {AXIOMS_WORK_CAP}, with count = {args.count} "
            f"and nil degree n = {n}"
        )
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
        "count": args.count,
        "seed": args.seed,
        "violations": report,
        "passed": not any(report.values()),
    }


# ---------------------------------------------------------------------------
# verification: one decode-and-check function per verifiable response


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
    if command not in _VERIFIERS:
        raise ParseError(f"verify does not support command {command!r}")
    ok = _verdict(command, parse_ring(_get(data, "ring", str)), data)
    return {"verified": ok, "of": command}, (0 if ok else 1)


def _verdict(command, ring, data) -> bool:
    """Decode a response of command into library types and re-check it."""
    try:
        return _VERIFIERS[command](ring, data)
    except PreconditionError:
        # a certificate outside a library precondition certifies nothing
        return False


def _verify_diagonalize(ring, data) -> bool:
    from .normal_form import verify_factorization

    A = load_matrix(ring, data.get("matrix"))
    return verify_factorization(A, load_fields(data, "diagonal-form", ring))


def _verify_order(ring, data) -> bool:
    """A leq or chain response, in its formal, local or regular mode."""
    from .semigroup import (
        Positive,
        class_of,
        verify_certificate,
        verify_factor,
        verify_formal_certificate,
    )

    mode, result = data.get("mode"), data.get("result")
    if mode not in ("formal", "local", "regular") or "certificate" not in data:
        return False  # a formal search may end unknown, with no certificate
    cert = load_record(data["certificate"], "kind", ring)
    if mode == "formal":
        a, b = _exponents(data.get("a"), "a"), _exponents(data.get("b"), "b")
        pivot = ring.parse(_get(data, "elem", str))
        depth = _get(data, "depth", int)
        # a chain must fit the depth it was searched to; a refutation needs none
        if depth < 0 or isinstance(cert, Positive) and len(cert.moves) > depth:
            return False
        _check_hypothesis(ring, pivot, depth, a, b)
        ok = verify_formal_certificate(a, b, cert)
    else:
        a = _int_tuple(data.get("a_class"), "a_class")
        b = _int_tuple(data.get("b_class"), "b_class")
        if mode == "local":
            ok = verify_certificate(ring, a, b, cert)
        else:
            A = load_matrix(ring, data.get("a_matrix"))
            B = load_matrix(ring, data.get("b_matrix"))
            # the claimed classes must be those of the matrices, whatever the certificate
            ok = verify_factor(A, B, cert) and (a, b) == (class_of(A), class_of(B))
    return ok and result is cert.ok


def _verify_rk_square(ring, data) -> bool:
    from .states import verify_rk_square

    res = load_fields(data, "rk-square", ring)
    return verify_rk_square(ring, ring.parse(_get(data, "elem", str)), res)


def _verify_state_range(ring, data) -> bool:
    from .states import verify_state_range

    sr = load_fields(data, "state-range", ring)
    a = _int_tuple(data.get("a"), "a")
    return verify_state_range(ring, a, sr, _get(data, "N", int), _get(data, "M", int))


def _verify_extend_state(ring, data) -> bool:
    from .states import verify_state_extension

    spec = load_spec(data.get("generators"), data.get("values"))
    sr = load_fields(data, "extension", ring)
    a = _int_tuple(data.get("a"), "a")
    bounds = (_get(data, "ball", int), _get(data, "M", int), _get(data, "shifted", bool))
    return verify_state_extension(ring, spec, a, sr, *bounds)


_VERIFIERS = {
    "diagonalize": _verify_diagonalize,
    "leq": _verify_order,
    "chain": _verify_order,
    "rk-square": _verify_rk_square,
    "state-range": _verify_state_range,
    "extend-state": _verify_extend_state,
}


def cmd_selftest(args):
    from . import acceptance

    numbers = set(args.only) if args.only else None
    unknown = sorted((numbers or set()) - set(range(1, len(acceptance.CRITERIA) + 1)))
    if unknown:
        raise PreconditionError(
            f"unknown criteria {', '.join(map(str, unknown))}; they are numbered "
            f"1 to {len(acceptance.CRITERIA)}"
        )
    results = acceptance.run_all(numbers)
    for res in results:
        _emit(res.line())
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
# each command's help text, handler and flags, in the order --help lists them;
# the handler of a command with --ring also gets the parsed ring
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
    "leq": ("order decision with certificate", cmd_leq, _LEQ),
    "chain": ("order decision with certificate (alias emphasizing the chain)", cmd_leq, _LEQ),
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


def _emit(text):
    """Print a line of stdout; once its reader has gone, stdout goes to os.devnull.

    A closed pipe is not an error of the command, which keeps its own exit
    code, and the redirect keeps the flush at shutdown quiet.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if "ring" in args:
            ring = parse_ring(args.ring)
            payload, code = {"ring": ring.spec, **args.handler(ring, args)}, 0
            if "verified" in payload:
                payload["verified"] = _verdict(args.command, ring, payload)
        else:  # verify and selftest
            payload, code = args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 3
    except BoundExceededError as exc:
        print(f"bound overflow: {exc}", file=sys.stderr)
        return 4
    if payload is not None:
        _emit(json.dumps({"command": args.command, **payload}, sort_keys=True, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
