import ast
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import rankcert
from rankcert import semigroup
from rankcert import (
    BoundExceededError,
    DiagonalForm,
    GroupElement,
    LocalSignature,
    MinorSweep,
    PreconditionError,
    RegularSignature,
    RkSquareResult,
    StateRange,
    parse_matrix,
)
from rankcert.cli import (
    _CODECS,
    CLASS_WORK_CAP,
    load_fields,
    load_record,
    main,
    record_payload,
)
from rankcert.rings import matrix, parse_ring
from rankcert.semigroup import (
    Cancel,
    Drop,
    ExponentIncrease,
    FactorResult,
    NegativeComponent,
    NegativeMinor,
    NegativeRank,
    Positive,
    PowerSwap,
    minor_refutation,
)
from rankcert.states import SPAN_CAP

from helpers import reference_is_diagonal_form, reference_state_range
from test_verify_fuzz import LIMIT_S, run, with_leaf


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_leq_negative_rank_example(capsys):
    data = run_json(capsys, "leq", "--ring", "Z/8", "--a", "[[2]]", "--b", "[[4]]")
    assert data["result"] is False
    assert data["certificate"] == {
        "kind": "negative-rank",
        "k": 2,
        "lhs": "1/2",
        "rhs": "0/1",
    }
    assert data["verified"] is True


def test_class_zero_vector(capsys):
    data = run_json(capsys, "class", "--ring", "Z/8", "--a", '[["0"]]')
    assert data["class"] == [0, 0, 0]


def test_normalize_local_fields(capsys):
    data = run_json(capsys, "normalize", "--ring", "Z/8", "--value", "6")
    assert data["value"] == "6"
    assert data["unit"] == "3"
    assert data["valuation"] == 1


def test_rank_command(capsys):
    data = run_json(capsys, "rank", "--ring", "Z/8", "--a", "[0,1,0]", "--k", "2")
    assert data["rank"] == "1/2"


def test_rk_square_command(capsys):
    data = run_json(capsys, "rk-square", "--ring", "Z", "--a", "2", "--bounds", "6")
    assert data["value"] == "1/2"
    assert data["upper"]["kind"] == "positive"
    assert data["lower"]["candidates"] == data["lower"]["refuted"]


@pytest.mark.parametrize("ring, a", [("Z", "2"), ("F2[x]", "x")])
def test_rk_square_has_no_depth_flag(capsys, ring, a):
    code, out, err = run_cli(capsys, "rk-square", "--ring", ring, "--a", a, "--depth", "0")
    assert code == 2
    assert out == "" and "Traceback" not in err
    assert run_json(capsys, "rk-square", "--ring", ring, "--a", a)["upper"] == {
        "kind": "positive",
        "moves": [{"j1": 0, "j2": 2, "move": "power-swap"}],
    }


@pytest.mark.parametrize("ring, elem", [("Z", "2"), ("F2[x]", "x")])
def test_rk_square_of_zero_is_refused_at_every_bound(capsys, tmp_path, ring, elem):
    # rk(0) = 0 for every rank function, so 0 is refused at every bound,
    # though its hypothesis first fails at m = 1: the upper chain uses a^2
    for bounds in ("0", "1"):
        argv = ("rk-square", "--ring", ring, "--a", "0", "--bounds", bounds)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "") and "0^1 lies in (0^2)" in err
    # such a response, built by hand from the one for elem, does not verify
    data = run_json(capsys, "rk-square", "--ring", ring, "--a", elem)
    data.update(elem="0", bounds=0, lower={"bound": 0, "candidates": 0, "refuted": 0})
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "verify", "--file", str(path))[0] == 1


def sub_half_relations(bound):
    """Grid relations (n, l, m1, j, m) with 2(n - m1) < m, summed over d = n - m1."""
    low = bound * (bound + 1) * (bound + 2) // 2  # d <= 0: every m counts
    low += sum((bound + 1 - d) * (bound - 2 * d) for d in range(1, (bound + 1) // 2))
    return (bound + 1) ** 2 * low


def test_rk_square_verify_cost_is_bounded_by_the_certificate(capsys, tmp_path):
    data = run_json(capsys, "rk-square", "--ring", "Z", "--a", "2", "--bounds", "6")
    assert data["lower"]["candidates"] == sub_half_relations(6)
    path = tmp_path / "resp.json"
    big = 1000000
    data["bounds"] = data["lower"]["bound"] = big
    for count, code in ((data["lower"]["candidates"], 1), (sub_half_relations(big), 0)):
        data["lower"]["candidates"] = data["lower"]["refuted"] = count
        path.write_text(json.dumps(data))
        start = time.monotonic()
        assert run_cli(capsys, "verify", "--file", str(path))[0] == code
        assert time.monotonic() - start < 1.0
    # the lemma refutes every candidate, so a sweep claiming less is wrong
    data["lower"]["refuted"] -= 1
    path.write_text(json.dumps(data))
    assert run_cli(capsys, "verify", "--file", str(path))[0] == 1


def test_chain_then_verify(capsys, tmp_path):
    data = run_json(capsys, "chain", "--ring", "Z/8", "--a", "[0,2,0]", "--b", "[1,0,1]")
    assert data["result"] is True
    path = tmp_path / "resp.json"
    path.write_text(json.dumps(data))
    verdict = run_json(capsys, "verify", "--file", str(path))
    assert verdict["verified"] is True


def test_verify_rejects_tampered_chain(capsys, tmp_path):
    data = run_json(capsys, "chain", "--ring", "Z/8", "--a", "[0,2,0]", "--b", "[1,0,1]")
    data["certificate"]["moves"].append({"move": "drop", "i": 0})
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "verify", "--file", str(path))
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_regular_leq_emits_factorization(capsys, tmp_path):
    data = run_json(
        capsys, "leq", "--ring", "F2*F3", "--a", '[["(1,0)"]]', "--b", '[["(1,1)"]]'
    )
    assert data["result"] is True
    assert data["certificate"]["kind"] == "factorization"
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(data))
    assert run_json(capsys, "verify", "--file", str(path))["verified"] is True


def test_regular_leq_negative_component(capsys):
    data = run_json(
        capsys, "leq", "--ring", "F2*F3", "--a", "[1,2]", "--b", "[2,1]"
    )
    assert data["result"] is False
    assert data["certificate"]["kind"] == "negative-component"
    assert data["certificate"]["component"] == 1


def test_formal_mode(capsys, tmp_path):
    data = run_json(
        capsys, "leq", "--ring", "Z", "--elem", "2", "--a", "[1,1]", "--b", "[0,2]"
    )
    assert data["mode"] == "formal"
    assert data["result"] is True
    assert data["certificate"]["moves"] == [
        {"move": "power-swap", "j1": 0, "j2": 2}
    ]
    path = tmp_path / "formal.json"
    path.write_text(json.dumps(data))
    assert run_json(capsys, "verify", "--file", str(path))["verified"] is True


def test_state_range_verify_round_trip(capsys, tmp_path):
    data = run_json(capsys, "state-range", "--ring", "Z/8", "--a", "[0,1,0]")
    assert data["p_lb"] == "0/1" and data["q_ub"] == "2/3"
    assert data["exact"] == ["0/1", "2/3"]
    path = tmp_path / "sr.json"
    path.write_text(json.dumps(data))
    assert run_json(capsys, "verify", "--file", str(path))["verified"] is True


def test_extend_state_verify_round_trip(capsys, tmp_path):
    data = run_json(
        capsys,
        "extend-state",
        "--ring",
        "Z/8",
        "--generators",
        "[[1,0,0],[0,0,1]]",
        "--values",
        '["1/1","0/1"]',
        "--a",
        "[0,1,0]",
        "--ball",
        "6",
        "--M",
        "6",
    )
    assert data["p_lb"] == "0/1" and data["q_ub"] == "1/2"
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(data))
    assert run_json(capsys, "verify", "--file", str(path))["verified"] is True


def test_dim_equiv_phi_psi(capsys):
    assert run_json(
        capsys, "dim", "--ring", "Z/8", "--gens", "1", "--relations", '[["2"]]', "--k", "3"
    )["dim"] == "1/3"
    eq = run_json(
        capsys,
        "equiv",
        "--ring",
        "Z/8",
        "--p1",
        '{"gens":1,"relations":[["2"]]}',
        "--p2",
        '{"gens":2,"relations":[["2","0"],["0","1"]]}',
    )
    assert eq["equivalent"] is True
    ph = run_json(
        capsys, "phi", "--ring", "Z/8", "--presentation", '{"gens":1,"relations":[["2"]]}'
    )
    assert ph["pos"] == [1, 0, 0] and ph["neg"] == [0, 1, 0]
    ps = run_json(capsys, "psi", "--ring", "Z/8", "--a", '[["1"]]')
    assert ps["coeffs"] == [1, 0, 0]


@pytest.mark.parametrize("gens", ['"x"', "true"])
def test_presentation_gens_must_be_an_int(capsys, gens):
    payload = '{"gens":%s,"relations":[["2"]]}' % gens
    code, out, err = run_cli(capsys, "phi", "--ring", "Z/8", "--presentation", payload)
    assert code == 2 and out == "" and "Traceback" not in err


def test_diagonalize_verify_round_trip(capsys, tmp_path):
    data = run_json(
        capsys, "diagonalize", "--ring", "Z/8", "--matrix", '[["2","1"],["0","4"]]'
    )
    assert data["exponents"] == [0] and data["zero_count"] == 1
    assert data["verified"] is True
    path = tmp_path / "diag.json"
    path.write_text(json.dumps(data))
    assert run_json(capsys, "verify", "--file", str(path))["verified"] is True


def test_axioms_check(capsys):
    data = run_json(capsys, "axioms-check", "--ring", "Z/4", "--count", "40")
    assert data["passed"] is True
    data = run_json(
        capsys, "axioms-check", "--ring", "Z", "--count", "40", "--pi", "2"
    )
    assert data["passed"] is True


def test_exit_codes(capsys):
    assert run_cli(capsys, "normalize", "--ring", "Z/6", "--value", "1")[0] == 2
    assert run_cli(capsys, "rank", "--ring", "Z/8", "--a", "[0,1,0]", "--k", "9")[0] == 3
    assert (
        run_cli(capsys, "state-range", "--ring", "Z/8", "--a", "[9,0,0]", "--N", "1", "--M", "1")[0]
        == 4
    )
    assert run_cli(capsys, "nonsense")[0] == 2


def test_output_byte_stable(capsys):
    argv = ["leq", "--ring", "Z/8", "--a", "[[2]]", "--b", "[[4]]"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_selftest_fast_subset(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--only", "2", "10")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert len(lines) == 2
    assert all(l.startswith("PASS") for l in lines)


EXTEND_STATE_ARGS = (
    "extend-state", "--ring", "Z/8", "--generators", "[[1,0,0],[0,0,1]]",
    "--values", '["1/1","0/1"]', "--a", "[0,1,0]",
)
EXTEND_STATE = EXTEND_STATE_ARGS + ("--ball", "12", "--M", "12")
EXTEND_STATE_HALF = (
    "extend-state", "--ring", "Z/8", "--generators", "[[1,0,0],[0,1,0]]",
    "--values", '["1/1","1/2"]', "--a", "[0,0,1]", "--ball", "6", "--M", "6",
)
STATE_RANGE = ("state-range", "--ring", "Z/8", "--a", "[0,1,0]")
REGULAR_LEQ = ("leq", "--ring", "F2*F3", "--a", '[["(1,0)"]]', "--b", '[["(1,1)"]]')
REGULAR_REFUTATION = ("leq", "--ring", "F2*F3", "--a", "[1,2]", "--b", "[2,1]")
REGULAR_REFUSAL = ("leq", "--ring", "F2*F3", "--a", '[["(1,1)"]]', "--b", '[["(1,0)"]]')
LOCAL_CHAIN = ("chain", "--ring", "Z/8", "--a", "[0,2,0]", "--b", "[1,0,1]")
FORMAL_REFUTATION = ("leq", "--ring", "Z", "--elem", "2", "--a", "[1]", "--b", "[2]")
FORMAL_CHAIN = ("leq", "--ring", "Z", "--elem", "2", "--a", "[1,1]", "--b", "[0,2]")
RK_SQUARE_POLY = ("rk-square", "--ring", "F2[x]", "--a", "x")
RK_SQUARE = ("rk-square", "--ring", "Z", "--a", "2", "--bounds", "6")
# a chain of the two moves no README command prints
FORMAL_DROP_CHAIN = ("chain", "--ring", "Z", "--elem", "2", "--a", "[1]", "--b", "[0,2]")
DIAGONALIZE = ("diagonalize", "--ring", "Z/8", "--matrix", '[["2","1"],["0","4"]]')
# c^65535 in a ring of nil degree 65536: c^i once took i products, and
# diagonalizing x^16000 took 12.6 s, quadratic in the exponent
DIAGONALIZE_X65535 = ("diagonalize", "--ring", "F3[x]/x^65536", "--matrix", '[["x^65535"]]')
REGULAR_EQUIV = (
    "equiv", "--ring", "F2*F3",
    "--p1", '{"gens":1,"relations":[["(1,0)"]]}', "--p2", '{"gens":1,"relations":[["(0,1)"]]}',
)
_rng = random.Random(18)
# an 18 x 18 form: its factors have 2^18 column subsets, so a verifier must
# test their invertibility by elimination, in O(n^3), to decide it quickly
DIAGONALIZE_18 = (
    "diagonalize", "--ring", "Z/8",
    "--matrix", json.dumps([[str(_rng.randrange(8)) for _ in range(18)] for _ in range(18)]),
)


def edit(fn):
    """An edit that changes a response in place, then returns it."""

    def apply(data):
        fn(data)
        return data

    return apply


def long_formal_chain(last):
    """An edit of FORMAL_CHAIN to a chain of 20000 moves at 0: increases, then one of kind last."""

    def apply(data):
        size = 20000
        moves = [{"move": "exponent-increase", "i": 0}] * (size - 1) + [{"move": last, "i": 0}]
        data.update(a=[1] * size, b=[0] * size, depth=size)
        data["certificate"] = {"kind": "positive", "moves": moves}
        return data

    return apply


# (emitting command, edit of its response, exit codes verify may give)
EDITED_RESPONSES = [
    pytest.param(EXTEND_STATE, edit(lambda d: d.update(ball=3000)), {0}, id="ball-3000"),
    pytest.param(
        EXTEND_STATE,
        edit(lambda d: (d["p_witness"].update(mbar=5), d["q_witness"].update(mbar=7))),
        {1},
        id="mbar-unshifted",
    ),
    pytest.param(
        EXTEND_STATE, edit(lambda d: d.update(values=["0/1", "1/1"])), {0, 1}, id="inconsistent"
    ),
    pytest.param(STATE_RANGE, edit(lambda d: d["q_witness"].update(m=0)), {1}, id="m-zero"),
    pytest.param(STATE_RANGE, edit(lambda d: d["p_witness"].update(n=-3)), {1}, id="n-negative"),
    pytest.param(
        REGULAR_LEQ,
        edit(lambda d: d["certificate"].update(c=[["(1,0)", "(0,0)"]])),
        {1},
        id="factor-shape",
    ),
    # the claimed classes must be those of the matrices, whatever the certificate
    pytest.param(REGULAR_LEQ, edit(lambda d: d.update(a_class=[1, 1])), {1}, id="a-class"),
    pytest.param(REGULAR_LEQ, edit(lambda d: d.update(b_class=[1, 1, 0])), {1}, id="b-class"),
    pytest.param(REGULAR_LEQ, edit(lambda d: d.pop("a_class")), {2}, id="no-a-class"),
    pytest.param(
        REGULAR_REFUTATION, edit(lambda d: d.update(b_class=[1, 2])), {1}, id="refuted-b-class"
    ),
    pytest.param(
        REGULAR_REFUTATION, edit(lambda d: d["certificate"].update(lhs=3)), {1}, id="refuted-lhs"
    ),
    # a well-formed refusal of a true relation, with the result to match
    pytest.param(
        REGULAR_LEQ,
        edit(lambda d: d.update(
            result=False,
            certificate={"kind": "negative-component", "component": 1, "lhs": 0, "rhs": 1},
        )),
        {1},
        id="kind-swapped",
    ),
    pytest.param(
        REGULAR_LEQ,
        edit(lambda d: d.update(certificate={"kind": "positive", "moves": []})),
        {1},
        id="regular-positive",
    ),
    pytest.param(
        REGULAR_LEQ, edit(lambda d: d["certificate"].update(c="x")), {2}, id="c-not-matrix"
    ),
    pytest.param(
        LOCAL_CHAIN, edit(lambda d: d["certificate"]["moves"][0].pop("j1")), {2}, id="no-j1"
    ),
    pytest.param(LOCAL_CHAIN, lambda d: [d], {2}, id="top-level-list"),
    # a JSON 1 is not true, as for the regular mode
    pytest.param(LOCAL_CHAIN, edit(lambda d: d.update(result=1)), {1}, id="result-one"),
    pytest.param(FORMAL_REFUTATION, edit(lambda d: d.update(result=0)), {1}, id="result-zero"),
    # diag(u) <= diag(u^2) for a unit u, and diag(0) <= diag(0): the refutation is false
    pytest.param(FORMAL_REFUTATION, edit(lambda d: d.update(elem="1")), {1}, id="unit-pivot"),
    pytest.param(
        FORMAL_REFUTATION, edit(lambda d: d.update(elem="0", depth=0)), {1}, id="zero-pivot"
    ),
    # the hypothesis bound of empty exponents once raised TypeError in verify
    pytest.param(FORMAL_REFUTATION, edit(lambda d: d.update(a=[], b=[])), {1}, id="no-exponents"),
    # negative exponents were once verified (exit 0), and raised from the
    # minor profile of a refutation (exit 1); both are refused as unparsable
    pytest.param(
        FORMAL_REFUTATION,
        edit(lambda d: d.update(
            a=[-1], b=[-2], result=True,
            certificate={"kind": "positive", "moves": [{"move": "exponent-increase", "i": -2}]},
        )),
        {2},
        id="negative-exponents",
    ),
    pytest.param(
        FORMAL_REFUTATION,
        edit(lambda d: (d.update(a=[-1]), d["certificate"].update(lhs=-1))),
        {2},
        id="refuted-negative-exponent",
    ),
    pytest.param(DIAGONALIZE_18, edit(lambda d: None), {0}, id="diagonalize-18x18"),
    # beyond int()'s digit limit, beyond an index-sized int, beyond memory
    pytest.param(
        RK_SQUARE_POLY, edit(lambda d: d.update(elem="x^" + "9" * 5000)), {2}, id="elem-digits"
    ),
    pytest.param(
        RK_SQUARE_POLY, edit(lambda d: d.update(elem="x^" + "9" * 30)), {2}, id="elem-index"
    ),
    pytest.param(
        RK_SQUARE_POLY, edit(lambda d: d.update(elem="x^1000000000000")), {2}, id="elem-memory"
    ),
    # a bound below 0 covers no relation: 0 candidates, all refuted, certified nothing
    pytest.param(
        RK_SQUARE_POLY,
        edit(lambda d: d["lower"].update(bound=-1, candidates=0, refuted=0)),
        {1},
        id="negative-bound",
    ),
    # malformed fields of the records printed as fields of a response
    pytest.param(STATE_RANGE, edit(lambda d: d.update(exact="x")), {2}, id="exact-string"),
    pytest.param(STATE_RANGE, edit(lambda d: d.pop("exact")), {2}, id="no-exact"),
    pytest.param(
        STATE_RANGE, edit(lambda d: d.update(p_witness=[0, 0, 1])), {2}, id="witness-list"
    ),
    pytest.param(STATE_RANGE, edit(lambda d: d["q_witness"].update(m=True)), {2}, id="m-bool"),
    pytest.param(STATE_RANGE, edit(lambda d: d.update(exact=["0/1"])), {1}, id="exact-one"),
    pytest.param(EXTEND_STATE, edit(lambda d: d["p_witness"].update(b="x")), {2}, id="b-string"),
    pytest.param(EXTEND_STATE, edit(lambda d: d["q_witness"].pop("mbar")), {2}, id="no-mbar"),
    # an extension has no exact extremes: the key is not read
    pytest.param(
        EXTEND_STATE, edit(lambda d: d.update(exact=["0/1", "1/1"])), {0}, id="extension-exact"
    ),
    pytest.param(RK_SQUARE_POLY, edit(lambda d: d.pop("lower")), {2}, id="no-lower"),
    pytest.param(RK_SQUARE_POLY, edit(lambda d: d.update(lower=[6, 0, 0])), {2}, id="lower-list"),
    pytest.param(
        RK_SQUARE_POLY, edit(lambda d: d["lower"].update(bound=True)), {2}, id="bound-bool"
    ),
    pytest.param(
        RK_SQUARE_POLY, edit(lambda d: d.update(upper={"move": "drop", "i": 0})), {2},
        id="upper-move",
    ),
    # a response names the request whose sweep it carries: each of these
    # edits of the README response, its lower bound left at 6, once verified
    *(
        pytest.param(
            RK_SQUARE, edit(lambda d, b=b: d.update(bounds=b)), {1}, id=f"rk-square-bounds-{b}"
        )
        for b in (0, 5, 7)
    ),
    pytest.param(RK_SQUARE, edit(lambda d: None), {0}, id="rk-square-unedited"),
    pytest.param(DIAGONALIZE, edit(lambda d: d.update(exponents=[True])), {2}, id="exponent-bool"),
    pytest.param(DIAGONALIZE, edit(lambda d: d.pop("left")), {2}, id="no-left"),
    # an empty row is malformed, not a wrong certificate: it once exited 1
    pytest.param(DIAGONALIZE, edit(lambda d: d.update(left=[[]])), {2}, id="left-empty-row"),
    pytest.param(DIAGONALIZE, edit(lambda d: d.update(zero_count="1")), {2}, id="zero-count-str"),
    # the square of a prime near 10^7: trial division up to p took about 1.5 s
    pytest.param(
        LOCAL_CHAIN,
        edit(lambda d: d.update(ring="Z/100000380000361")),
        {0, 1, 2},
        id="ring-p-squared",
    ),
    # a spec whose span gives <1> a value other than 1 admits no state; each
    # of these edits of EXTEND_STATE_HALF, and the generator edit of
    # EXTEND_STATE, once verified (exit 0)
    *(
        pytest.param(
            argv, edit(lambda d, v=v: d["values"].__setitem__(0, v)), {1}, id=f"{name}-unit-{v}"
        )
        for argv, name in ((EXTEND_STATE, "readme"), (EXTEND_STATE_HALF, "half"))
        for v in ("2/1", "0/1", "1/2")
    ),
    *(
        pytest.param(
            argv, edit(lambda d: d["generators"].__setitem__(0, [1, 0, 1])), {1},
            id=f"{name}-unit-generator",
        )
        for argv, name in ((EXTEND_STATE, "readme"), (EXTEND_STATE_HALF, "half"))
    ),
    pytest.param(EXTEND_STATE_HALF, edit(lambda d: None), {0}, id="half-unedited"),
    # a chain must fit the depth it was searched to: at depth 0 the command
    # prints "unknown"; and no search has a depth below 0
    pytest.param(FORMAL_CHAIN, edit(lambda d: d.update(depth=0)), {1}, id="formal-depth-0"),
    pytest.param(
        FORMAL_REFUTATION, edit(lambda d: d.update(depth=-1)), {1}, id="formal-depth-negative"
    ),
    # a formal chain is replayed in time linear in its size: each move once
    # sliced a sorted tuple, and each of these took about 7 s
    pytest.param(
        FORMAL_CHAIN, long_formal_chain("exponent-increase"), {0}, id="formal-increases-20000"
    ),
    pytest.param(FORMAL_CHAIN, long_formal_chain("drop"), {1}, id="formal-last-drop-20000"),
    pytest.param(DIAGONALIZE_X65535, edit(lambda d: None), {0}, id="diagonalize-x65535"),
    # the invertibility test of left reads c^30000 off its determinant
    pytest.param(
        DIAGONALIZE_X65535, edit(lambda d: d.update(left=[["x^30000"]])), {1}, id="left-x30000"
    ),
]


@pytest.mark.parametrize("argv, change, codes", EDITED_RESPONSES)
def test_verify_edited_response_is_decided_quickly(capsys, tmp_path, argv, change, codes):
    start = time.monotonic()
    data = change(run_json(capsys, *argv))
    assert time.monotonic() - start < 1.0  # emitting the response is quick too
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    start = time.monotonic()
    code, _, err = run_cli(capsys, "verify", "--file", str(path))
    assert code in codes, err
    assert time.monotonic() - start < 1.0


# (argv, exit code, stderr text): a bound out of its range, or a nil
# degree above the cap, is refused at the boundary by a message naming it;
# extend-state once exited 4 for --M -2 and 3 for --ball -1 with "must
# contain the order-unit", and rk-square printed value 1/2 over 0
# candidates for --bounds -1
OUT_OF_RANGE = [
    pytest.param(
        EXTEND_STATE_ARGS + ("--ball", "-1", "--M", "12"), 3, "ball must be >= 0", id="ball"
    ),
    pytest.param(EXTEND_STATE_ARGS + ("--ball", "12", "--M", "-2"), 3, "M must be >= 1", id="M"),
    pytest.param(EXTEND_STATE_ARGS + ("--ball", "12", "--M", "0"), 3, "M must be >= 1", id="M-0"),
    pytest.param(
        ("rk-square", "--ring", "Z", "--a", "1", "--bounds", "-1"), 3, "bounds must be >= 0",
        id="rk-square-unit",
    ),
    pytest.param(
        ("rk-square", "--ring", "F2[x]", "--a", "x", "--bounds", "-1"), 3, "bounds must be >= 0",
        id="rk-square",
    ),
    pytest.param(
        ("normalize", "--ring", "F3[x]/x^65537", "--value", "1"), 2, "nil degree above 65536",
        id="nil-degree",
    ),
    pytest.param(
        ("axioms-check", "--ring", "Z/8", "--count", "-3"), 3, "count must be >= 1", id="count"
    ),
    pytest.param(
        ("axioms-check", "--ring", "Z/8", "--count", "10001"), 3, "count must be <= 10000",
        id="count-cap",
    ),
    # the work grows as count * n^3 in the nil degree n; n = 256 at count 1
    # once took 23.9 s
    # a local ring has no residue field to name; --pi was once ignored there
    pytest.param(
        ("axioms-check", "--ring", "Z/8", "--count", "1", "--pi", "x"), 3,
        "--pi names a residue field of Z or F_p[x]; Z/8 is local", id="local-pi-x",
    ),
    pytest.param(
        ("axioms-check", "--ring", "Z/8", "--count", "1", "--pi", "2"), 3,
        "--pi names a residue field of Z or F_p[x]; Z/8 is local", id="local-pi-2",
    ),
    pytest.param(
        ("axioms-check", "--ring", "F2[x]/x^256", "--count", "1"), 3,
        "count * n^3 must be <= 270000, with count = 1 and nil degree n = 256", id="work-cap",
    ),
    pytest.param(
        ("axioms-check", "--ring", "F2[x]/x^64", "--count", "2"), 3,
        "count * n^3 must be <= 270000, with count = 2 and nil degree n = 64", id="work-cap-64",
    ),
    pytest.param(("selftest", "--only", "99"), 3, "unknown criteria 99;", id="selftest-99"),
    pytest.param(
        ("selftest", "--only", "0", "-3", "2"), 3, "unknown criteria -3, 0;", id="selftest-0-3"
    ),
    pytest.param(FORMAL_REFUTATION + ("--depth", "-5"), 3, "depth must be >= 0", id="depth"),
    pytest.param(
        # refused by its residue field order, before the irreducibility test,
        # whose cost grows about cubically with the degree
        ("axioms-check", "--ring", "F2[x]", "--pi", "+".join(f"x^{i}" for i in range(1025))),
        3, "pi gives a residue field above order 4294967296", id="pi-degree",
    ),
]


@pytest.mark.parametrize("argv, code, message", OUT_OF_RANGE)
def test_out_of_range_options_are_refused_by_name(capsys, argv, code, message):
    got, out, err = run_cli(capsys, *argv)
    assert got == code and out == ""
    assert message in err and "Traceback" not in err


def test_verify_certifies_state_range_exact(capsys, tmp_path):
    data = run_json(capsys, *STATE_RANGE, "--N", "12", "--M", "12")
    path = tmp_path / "sr.json"
    for response, code in [
        (data, 0),
        ({**data, "exact": ["5/1", "7/1"]}, 1),
        ({k: v for k, v in data.items() if k != "exact"}, 2),
    ]:
        path.write_text(json.dumps(response))
        assert run_cli(capsys, "verify", "--file", str(path))[0] == code


# a JSON entry that is no string is parsed as its text, which no ring reads
@pytest.mark.parametrize("entry, text", [("true", "True"), ("1.5", "1.5"), ("null", "None"),
                                         ("[1]", "[1]")])
@pytest.mark.parametrize("ring", ["Z", "Z/8", "F2[x]/x^3", "F2*F3"])
def test_matrix_entries_that_are_no_literal_are_parse_errors(capsys, ring, entry, text):
    code, out, err = run_cli(capsys, "diagonalize", "--ring", ring, "--matrix", f"[[{entry}]]")
    assert (code, out) == (2, "") and repr(text) in err


# p_lb 4/5 > q_ub 1/10: the conflict (0,3,0) <= (2,0,0) lies outside ball 2,
# and the crossed bounds prove that no state extends the spec; this once
# exited 0, and verify accepted the response
CROSSED_EXTENSION = {
    "command": "extend-state", "ring": "Z/8", "generators": [[1, 0, 0], [0, 1, 0]],
    "values": ["1/1", "9/10"], "a": [0, 0, 1], "ball": 2, "M": 12, "shifted": False,
    "p_lb": "4/5", "q_ub": "1/10",
    "p_witness": {"b": [0, 2, 0], "c": [1, 0, 0], "m": 1, "mbar": 0},
    "q_witness": {"b": [1, 0, 0], "c": [0, 1, 0], "m": 1, "mbar": 0},
}


def test_crossed_extension_is_refused(capsys):
    code, out, err = run_cli(
        capsys, "extend-state", "--ring", "Z/8", "--generators", "[[1,0,0],[0,1,0]]",
        "--values", '["1/1","9/10"]', "--a", "[0,0,1]", "--ball", "2", "--M", "12",
    )
    assert (code, out) == (3, "")
    assert "admits no state" in err and "p_lb = 4/5" in err and "q_ub = 1/10" in err
    assert "((0, 2, 0), (1, 0, 0), 1)" in err and "((1, 0, 0), (0, 1, 0), 1)" in err


def test_verify_refuses_a_crossed_extension(capsys, tmp_path):
    path = tmp_path / "crossed.json"
    path.write_text(json.dumps(CROSSED_EXTENSION))
    code, out, _ = run_cli(capsys, "verify", "--file", str(path))
    assert code == 1 and json.loads(out)["verified"] is False


LARGE = "2147483648"


# the state range descends the Stern-Brocot tree, and the extension's best m
# per pair is a closed form, so neither costs time in M
@pytest.mark.parametrize(
    "argv", [STATE_RANGE + ("--N", LARGE, "--M", LARGE), EXTEND_STATE_ARGS + ("--M", LARGE)]
)
def test_large_bounds_are_answered_quickly_and_verify(argv):
    code, out, elapsed = run(argv)
    assert code == 0 and elapsed < LIMIT_S
    assert run(["verify"], out)[0] == 0


AXIOMS_OUT = """{
  "command": "axioms-check",
  "count": %s,
  "passed": true,
  "ring": "%s",
  "seed": 0,
  "violations": {
%s
  }
}
"""


# an entry is drawn by its index, not from a list of the whole ring, so the
# ring's order does not set the cost; the text is the one printed when every
# draw built that list (3.4 s and 4.6 s as processes on a 2-core VM)
@pytest.mark.parametrize("ring, count, n", [("Z/1000003", 5, 1), ("F2[x]/x^12", 2, 12)])
def test_axioms_check_cost_does_not_grow_with_the_ring(ring, count, n):
    code, out, elapsed = run(("axioms-check", "--ring", ring, "--count", str(count)))
    report = ",\n".join(f'    "{key}": 0' for key in sorted(f"rk_{k}" for k in range(1, n + 1)))
    assert code == 0 and elapsed < LIMIT_S
    assert out == AXIOMS_OUT % (count, ring, report)


def test_axioms_check_count_above_the_cap_is_refused_at_once():
    code, out, elapsed = run(("axioms-check", "--ring", "Z/8", "--count", LARGE))
    assert code == 3 and out == "" and elapsed < LIMIT_S


def _far_chain(copies):
    """chain over F2[x]/x^1024 from copies of e_512 to copies of e_0 + e_1023."""
    a, b = [0] * 1024, [0] * 1024
    a[512] = b[0] = b[1023] = copies
    return ("chain", "--ring", "F2[x]/x^1024", "--a", json.dumps(a), "--b", json.dumps(b))


# a class vector sets the size of its certificate by its entries: the
# first and the three Z/8 and F2[x]/x^64 chains took seconds, or were killed,
# before CLASS_WORK_CAP; the others lie one step past requests answered below
@pytest.mark.parametrize(
    "argv",
    [
        ("leq", "--ring", "F2*F3", "--a", "[100000,100000]", "--b", '[["(1,1)"]]'),
        ("leq", "--ring", "F2*F3", "--a", "[100,100]", "--b", "[101,101]"),
        ("leq", "--ring", "F4294967296", "--a", "[141]", "--b", "[142]"),
        ("chain", "--ring", "Z/8", "--a", "[0,100000,0]", "--b", "[50000,0,50000]"),
        ("chain", "--ring", "Z/8", "--a", "[0,0,0]", "--b", "[0,20001,0]"),
        ("chain", "--ring", "F2[x]/x^64", "--a", json.dumps([0] * 40 + [1000] + [0] * 23),
         "--b", json.dumps([1000] + [0] * 62 + [1000])),
        _far_chain(10),
    ],
)
def test_class_vectors_above_the_work_cap_are_refused_at_once(argv):
    code, out, elapsed = run(argv)
    assert code == 3 and out == "" and elapsed < LIMIT_S
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        main(list(argv))
    assert f"<= {CLASS_WORK_CAP}" in err.getvalue()


# requests at the cap answer in time.  GF(2^32) is the costliest field, and
# s = 141 its slowest factorization found (1.1 MB of JSON); Z/2 gives the
# longest chain of drops.  The three requests after the matrix operand were
# refused while the cap modelled the constructor's running time, not the
# certificate's size.  A matrix operand is not capped
@pytest.mark.parametrize(
    "argv",
    [
        ("leq", "--ring", "F4294967296", "--a", "[26]", "--b", "[27]"),
        ("leq", "--ring", "F4294967296*F4294967296", "--a", "[20,20]", "--b", "[21,21]"),
        ("chain", "--ring", "Z/2", "--a", "[0]", "--b", "[20000]"),
        ("chain", "--ring", "F2[x]/x^64", "--a", json.dumps([0] * 32 + [153] + [0] * 31),
         "--b", json.dumps([153] + [0] * 62 + [153])),
        ("leq", "--ring", "F2", "--a", '[["(1)"]]', "--b", json.dumps(
            [["(1)" if i == j else "(0)" for j in range(30)] for i in range(30)])),
        ("leq", "--ring", "F2*F3", "--a", "[60,60]", "--b", "[61,61]"),
        ("leq", "--ring", "F4294967296", "--a", "[27]", "--b", "[28]"),
        _far_chain(1),
        ("leq", "--ring", "F4294967296", "--a", "[140]", "--b", "[141]"),
        _far_chain(9),
    ],
)
def test_class_vectors_at_the_work_cap_answer_in_time(argv):
    code, out, elapsed = run(argv)
    assert code == 0 and elapsed < LIMIT_S
    assert json.loads(out)["verified"] is True


# the span walk and the pair loop grow with the ball, so a request whose
# closed-form bound exceeds SPAN_CAP is refused before either runs.  The
# README spec bounds its pairs by (2 ball + 1)^2: ball 547 gives 1199025, 548
# gives 1203409.  Three unit generators give (2 ball + 1)^3: 1157625 at 52.
# At a = [1,1,0] and M = 10^18 most of the README spec's 449635 pairs tie
# with p = 1, and took 0.5-0.9 s while each tie cost three tests
README_TIES = (
    "extend-state", "--ring", "Z/8", "--generators", "[[1,0,0],[0,0,1]]",
    "--values", '["1/1","0/1"]', "--a", "[1,1,0]", "--M", str(10**18),
)
THREE_UNITS = (
    "extend-state", "--ring", "Z/8", "--generators", "[[1,0,0],[0,1,0],[0,0,1]]",
    "--values", '["1/1","2/3","1/3"]', "--a", "[1,1,0]", "--M", "12",
)


@pytest.mark.parametrize("ball", ["548", "1000000", str(10**18)])
def test_extend_state_past_the_span_cap_is_refused_at_once(ball):
    argv = EXTEND_STATE_ARGS + ("--ball", ball, "--M", "12")
    code, out, elapsed = run(argv)
    assert code == 3 and out == "" and elapsed < LIMIT_S
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        main(list(argv))
    assert f"<= {SPAN_CAP}, with 3 for a zero g; ball {ball} needs" in err.getvalue()


@pytest.mark.parametrize(
    "args, ball",
    [(EXTEND_STATE_ARGS + ("--M", "12"), 547), (README_TIES, 547), (THREE_UNITS, 52)],
    ids=["readme-547", "readme-ties-547", "three-units-52"],
)
def test_extend_state_at_the_span_cap_answers_in_time(args, ball):
    code, out, elapsed = run(args + ("--ball", str(ball)))
    assert code == 0 and elapsed < LIMIT_S
    assert run(["verify"], out)[0] == 0
    assert run(args + ("--ball", str(ball + 1)))[0] == 3


@pytest.mark.parametrize(
    "argv", [("normalize", "--ring", "Z/8", "--value", "6"), ("selftest", "--only", "2")]
)
def test_closed_stdout_prints_no_traceback(argv):
    # the read end is closed before the command starts, so every write fails
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONPATH": str(Path(rankcert.__file__).resolve().parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "rankcert", *argv], stdout=write, stderr=subprocess.PIPE,
            text=True, env=env,
        )
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr
    assert proc.returncode in range(5)


def test_formal_hypothesis_is_decided_at_any_depth(capsys):
    start = time.monotonic()
    data = run_json(
        capsys, "leq", "--ring", "Z", "--elem", "2", "--a", "[1]", "--b", "[1]", "--depth", "8000"
    )
    assert data["result"] is True
    assert time.monotonic() - start < 1.0
    assert run_cli(capsys, "leq", "--ring", "Z", "--elem", "-1", "--a", "[1]", "--b", "[1]")[0] == 3
    # diag(0) <= diag(0): the hypothesis must hold up to the exponents, whatever the depth
    argv = ("leq", "--ring", "Z", "--elem", "0", "--a", "[1]", "--b", "[2]", "--depth", "1")
    assert run_cli(capsys, *argv)[0] == 3


def test_formal_leq_of_empty_exponents_is_decided_and_verifies(capsys, tmp_path):
    # the hypothesis bound max(depth - 1, *a, *b) once raised TypeError here
    data = run_json(capsys, "leq", "--ring", "Z", "--elem", "2", "--a", "[]", "--b", "[]")
    assert data["result"] is True and data["verified"] is True
    assert data["certificate"] == {"kind": "positive", "moves": []}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    assert run_json(capsys, "verify", "--file", str(path))["verified"] is True


# a JSON boolean is not an int, and a matrix operand must be an array of
# rows; the exit code each request gave before is noted after it
INVALID_OPERANDS = {
    "formal-bool": ("leq", "--ring", "Z", "--elem", "2", "--a", "[true]", "--b", "[true,0]"),  # 0
    "class-bool": ("rank", "--ring", "Z/8", "--a", "[true,0,0]", "--k", "2"),  # 3
    "leq-bool": ("leq", "--ring", "Z/8", "--a", "[0,1,0]", "--b", "[0,false,0]"),  # 3
    "diagonalize": ("diagonalize", "--ring", "Z/8", "--matrix", "[0,1]"),  # 3
    "diagonalize-width": ("diagonalize", "--ring", "Z/8", "--matrix", "[0,1,0]"),  # 2
    "class": ("class", "--ring", "Z/8", "--a", "[0,1]"),  # 3
    "dim": ("dim", "--ring", "Z/8", "--gens", "1", "--relations", "[0]", "--k", "2"),  # 3
    "psi": ("psi", "--ring", "Z/8", "--a", "[]"),  # 3
    "ragged": ("diagonalize", "--ring", "Z/8", "--matrix", '[["1"],["1","2"]]'),  # 3
    "empty-row": ("diagonalize", "--ring", "Z/8", "--matrix", "[[]]"),  # 3
    # the ring is parsed before any other option is checked
    "ring-and-count": ("axioms-check", "--ring", "Q", "--count", "0"),  # 3
}


@pytest.mark.parametrize("argv", INVALID_OPERANDS.values(), ids=INVALID_OPERANDS)
def test_invalid_operands_are_parse_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("parse error: ")


F2F3 = parse_ring("F2*F3")
# (record, its payload as printed before the codecs shared one table; the
# regular certificates as the README F2*F3 command and REGULAR_REFUSAL print them)
CODEC_CASES = [
    (PowerSwap(0, 2), {"j1": 0, "j2": 2, "move": "power-swap"}),
    (ExponentIncrease(1), {"i": 1, "move": "exponent-increase"}),
    (Drop(0), {"i": 0, "move": "drop"}),
    (Cancel(2), {"i": 2, "move": "cancel"}),
    (
        Positive((PowerSwap(0, 2), Drop(1))),
        {
            "kind": "positive",
            "moves": [{"j1": 0, "j2": 2, "move": "power-swap"}, {"i": 1, "move": "drop"}],
        },
    ),
    (
        NegativeRank(2, Fraction(1, 2), Fraction(0)),
        {"k": 2, "kind": "negative-rank", "lhs": "1/2", "rhs": "0/1"},
    ),
    (
        FactorResult(matrix(F2F3, [[(1, 0)]]), matrix(F2F3, [[(1, 0)]])),
        {"c": [["(1,0)"]], "d": [["(1,0)"]], "kind": "factorization"},
    ),
    (
        NegativeComponent(1, 1, 0),
        {"component": 1, "kind": "negative-component", "lhs": 1, "rhs": 0},
    ),
    (NegativeMinor(1, 0, None), {"k": 1, "kind": "negative-minor", "lhs": 0, "rhs": "inf"}),
]


@pytest.mark.parametrize(
    "record, payload", CODEC_CASES, ids=[type(r).__name__ for r, _ in CODEC_CASES]
)
def test_codec_round_trip(record, payload):
    assert record_payload(record) == payload
    tag = "move" if "move" in payload else "kind"
    assert load_record(json.loads(json.dumps(payload)), tag, F2F3) == record


def test_negative_minor_to_infinity_is_emitted_and_verified(capsys):
    data = run_json(capsys, "leq", "--ring", "Z", "--elem", "2", "--a", "[0]", "--b", "[]")
    assert data["result"] is False and data["verified"] is True
    assert data["certificate"] == CODEC_CASES[-1][1]


@pytest.mark.parametrize(
    "payload, tag",
    [
        ({"kind": "drop", "i": 0}, "kind"),
        ({"move": "positive", "moves": []}, "move"),
        ({"move": "drop", "i": True}, "move"),
        ({"kind": "negative-minor", "k": 1, "lhs": "inf", "rhs": 1.5}, "kind"),
        ([], "kind"),
    ],
    ids=["move-as-certificate", "certificate-as-move", "bool-field", "float-field", "not-a-dict"],
)
def test_codec_refuses_malformed_payloads(payload, tag):
    with pytest.raises(rankcert.ParseError):
        load_record(payload, tag)


Z8 = parse_ring("Z/8")
R8_SWEEP = MinorSweep(6, 9898, 9898)
# (payload format, record, its payload as the README commands print it, and
# REGULAR_EQUIV for the regular signature); matrices are over Z/8
FIELD_CODEC_CASES = [
    (
        "diagonal-form",
        DiagonalForm(
            (0,), 1, parse_matrix(Z8, [["1", "0"], ["4", "1"]]),
            parse_matrix(Z8, [["2", "1"], ["1", "0"]]),
        ),
        {"exponents": [0], "left": [["1", "0"], ["4", "1"]], "right": [["2", "1"], ["1", "0"]],
         "zero_count": 1},
    ),
    (
        "state-range",
        StateRange(
            Fraction(0), Fraction(2, 3), (0, 0, 1), (2, 0, 3), (Fraction(0), Fraction(2, 3))
        ),
        {"exact": ["0/1", "2/3"], "p_lb": "0/1", "p_witness": {"k": 0, "m": 1, "n": 0},
         "q_ub": "2/3", "q_witness": {"k": 0, "m": 3, "n": 2}},
    ),
    (
        "extension",
        StateRange(
            Fraction(0), Fraction(1, 2), ((0, 0, 0), (0, 0, 0), 1, 0),
            ((1, 0, 1), (0, 0, 0), 2, 0), None,
        ),
        {"p_lb": "0/1", "p_witness": {"b": [0, 0, 0], "c": [0, 0, 0], "m": 1, "mbar": 0},
         "q_ub": "1/2", "q_witness": {"b": [1, 0, 1], "c": [0, 0, 0], "m": 2, "mbar": 0}},
    ),
    ("minor-sweep", R8_SWEEP, {"bound": 6, "candidates": 9898, "refuted": 9898}),
    (
        "rk-square",
        RkSquareResult(Fraction(1, 2), Positive((PowerSwap(0, 2),)), R8_SWEEP),
        {
            "lower": {"bound": 6, "candidates": 9898, "refuted": 9898},
            "upper": {"kind": "positive", "moves": [{"j1": 0, "j2": 2, "move": "power-swap"}]},
            "value": "1/2",
        },
    ),
    ("group-element", GroupElement((1, 0, 0), (0, 1, 0)), {"neg": [0, 1, 0], "pos": [1, 0, 0]}),
    ("local-signature", LocalSignature((1,), 0), {"free_rank": 0, "torsion": [1]}),
    ("regular-signature", RegularSignature((0, 1)), {"multiplicities": [0, 1]}),
]


@pytest.mark.parametrize(
    "name, record, payload", FIELD_CODEC_CASES, ids=[name for name, _, _ in FIELD_CODEC_CASES]
)
def test_field_codec_round_trip(name, record, payload):
    assert record_payload(record, name) == payload
    assert load_fields(json.loads(json.dumps(payload)), name, Z8) == record


def test_a_record_prints_in_its_first_format_by_default():
    sr = FIELD_CODEC_CASES[1][1]
    assert record_payload(sr) == record_payload(sr, "state-range")
    with pytest.raises(TypeError):
        record_payload(Fraction(1, 2))


README_FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "cli_readme.json"
README_INVOCATIONS = json.loads(README_FIXTURES.read_text())["invocations"]


@pytest.mark.parametrize(
    "inv",
    README_INVOCATIONS,
    ids=[f"{i}-{inv['argv'][0]}" for i, inv in enumerate(README_INVOCATIONS)],
)
def test_readme_command_bytes(capsys, monkeypatch, inv):
    # every README command prints the recorded bytes and exit code, and so does
    # `verify` when its response is piped back in
    code, out, _ = run_cli(capsys, *inv["argv"])
    assert (out, code) == (inv["stdout"], inv["exit"])
    if inv["verify"] is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code, out, _ = run_cli(capsys, "verify")
        assert (out, code) == (inv["verify"]["stdout"], inv["verify"]["exit"])


# diagonalize over F2[x]/x^3, regular leq over F4*F9, dim and equiv over
# F3[x]/x^2: rings that add and multiply by table lookup, recorded before
# they did
SMALL_RING_FIXTURES = Path(__file__).resolve().parent / "fixtures" / "cli_small_rings.json"
SMALL_RING_INVOCATIONS = json.loads(SMALL_RING_FIXTURES.read_text())["invocations"]


@pytest.mark.parametrize(
    "inv",
    SMALL_RING_INVOCATIONS,
    ids=[f"{i}-{inv['argv'][0]}" for i, inv in enumerate(SMALL_RING_INVOCATIONS)],
)
def test_small_ring_command_bytes(capsys, monkeypatch, inv):
    test_readme_command_bytes(capsys, monkeypatch, inv)


# the fields of an order response that a single-leaf mutation edits
ORDER_FIELDS = ("a_class", "b_class", "a", "b", "depth", "result", "certificate")
ORDER_RESPONSES = [
    json.loads(inv["stdout"])
    for inv in README_INVOCATIONS + SMALL_RING_INVOCATIONS
    if inv["argv"][0] in ("leq", "chain") and inv["verify"] is not None
]


def leaf_mutations(value):
    """(path, new leaf) for each single-leaf mutation of a JSON value.

    An int goes up or down by one or to 0, a bool flips, and a list loses
    its last element or gains a copy of it; strings are kept.
    """
    if isinstance(value, bool):
        yield (), not value
    elif isinstance(value, int):
        yield from (((), new) for new in {value - 1, value + 1, 0} - {value})
    elif isinstance(value, (list, dict)):
        if isinstance(value, list) and value:
            yield (), value[:-1]
            yield (), value + [value[-1]]
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            for path, new in leaf_mutations(item):
                yield (key, *path), new


def test_verified_order_responses_state_true_decisions():
    # every mutation of a recorded leq or chain response that verify accepts
    # states the true decision of the order it names
    modes, accepted = set(), 0
    for response in ORDER_RESPONSES:
        modes.add(response["mode"])
        for key in ORDER_FIELDS:
            for path, new in leaf_mutations(response.get(key)):
                doc = json.loads(json.dumps(response))
                *inner, last = (key, *path)
                parent = doc
                for step in inner:
                    parent = parent[step]
                parent[last] = new
                code, _, _ = run(["verify"], json.dumps(doc))
                assert code in (0, 1, 2), (key, path, new)
                if code:
                    continue
                accepted += 1
                if doc["mode"] == "formal":
                    true = minor_refutation(doc["a"], doc["b"]) is None
                else:
                    true = semigroup.leq(parse_ring(doc["ring"]), doc["a_class"], doc["b_class"])
                assert doc["result"] is true, (doc["ring"], key, path, new)
    assert modes == {"local", "regular", "formal"} and accepted > 0


DIAGONAL_RESPONSES = [
    json.loads(inv["stdout"])
    for inv in README_INVOCATIONS + SMALL_RING_INVOCATIONS
    if inv["argv"][0] == "diagonalize" and inv["verify"] is not None
]


def diagonal_mutations(response):
    """Each single-leaf mutation of a diagonalize response's form and matrix.

    The ints and lists mutate as in leaf_mutations, and an entry of a
    matrix becomes each other element of the ring.
    """
    ring = parse_ring(response["ring"])
    literals = [ring.format(x) for x in ring.elements()]
    for key in ("exponents", "zero_count", "left", "right", "matrix"):
        value = response[key]
        yield from (((key, *path), new) for path, new in leaf_mutations(value))
        if key in ("left", "right", "matrix"):
            for i, row in enumerate(value):
                for j, literal in enumerate(row):
                    yield from (((key, i, j), new) for new in literals if new != literal)


def test_verified_diagonalize_responses_state_true_factorizations():
    # every mutation of a recorded diagonalize response that verify accepts
    # is a diagonal form of the matrix it names, by an oracle that shares
    # no code with normal_form
    start, accepted, refused = time.monotonic(), 0, 0
    for response in DIAGONAL_RESPONSES:
        ring = parse_ring(response["ring"])
        for path, new in diagonal_mutations(response):
            doc = json.loads(json.dumps(response))
            *inner, last = path
            parent = doc
            for step in inner:
                parent = parent[step]
            parent[last] = new
            code, _, _ = run(["verify"], json.dumps(doc))
            assert code in (0, 1, 2), (path, new)
            if code:
                refused += 1
                continue
            accepted += 1
            grids = [[[ring.parse(x) for x in row] for row in doc[key]]
                     for key in ("matrix", "left", "right")]
            assert reference_is_diagonal_form(
                ring, grids[0], doc["exponents"], doc["zero_count"], *grids[1:]
            ), (doc["ring"], path, new)
    assert {r["ring"] for r in DIAGONAL_RESPONSES} == {"Z/8", "F2[x]/x^3"}
    assert accepted > 0 and refused > 0
    assert time.monotonic() - start < 2


# the recorded rk-square and state-range responses, and the requests of two
# more: a state-range whose M is below the denominator of the optimum 2/3, so
# that raising M leaves its q witness valid but no longer optimal, and a
# rk-square over F2[x], where units and zero are spelled differently
VALUE_RESPONSES = [
    json.loads(inv["stdout"])
    for inv in README_INVOCATIONS + SMALL_RING_INVOCATIONS
    if inv["argv"][0] in ("rk-square", "state-range") and inv["verify"] is not None
]
VALUE_REQUESTS = (
    ["state-range", "--ring", "Z/8", "--a", "[0,1,0]", "--N", "12", "--M", "2"],
    ["rk-square", "--ring", "F2[x]", "--a", "x", "--bounds", "3"],
)
RATIONAL = re.compile(r"-?\d+/\d+")
ELEMENTS = ("0", "1", "-1", "2", "3", "4", "x", "x+1", "x^2")


def string_leaves(value, path=()):
    """(path, string) for each string leaf of a JSON value."""
    if isinstance(value, str):
        yield path, value
    elif isinstance(value, (list, dict)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from string_leaves(item, (*path, key))


def value_mutations(response):
    """Each single-leaf mutation of a rk-square, state-range or extend-state response.

    The ints and lists mutate as in leaf_mutations; a rational becomes a
    non-canonical spelling of itself and three neighbours, and the element
    of a rk-square response becomes each other literal of ELEMENTS.
    """
    yield from leaf_mutations(response)
    for path, text in string_leaves(response):
        if RATIONAL.fullmatch(text):
            p, q = map(int, text.split("/"))
            for new in (f"{2 * p}/{2 * q}", f"{p + 1}/{q}", f"{p - 1}/{q}", f"{p}/{q + 1}"):
                yield path, new
    if "elem" in response:
        yield from ((("elem",), new) for new in ELEMENTS if new != response["elem"])


def true_value_answer(doc):
    """The answer the command gives to the request a response names, or None
    where it refuses it, judged without the library's state code.

    rk-square: the value 1/2 holds exactly when the element is neither 0 nor
    a unit (+-1 over Z, a nonzero constant over F_p[x]).  state-range:
    (p_lb, q_ub, exact) by the brute-force grid of helpers.
    """
    ring = parse_ring(doc["ring"])
    if doc["command"] == "rk-square":
        elem = ring.parse(doc["elem"])
        unit = abs(elem) == 1 if ring.spec == "Z" else len(elem) == 1
        return None if elem == ring.zero or unit else (Fraction(1, 2),)
    try:
        sr = reference_state_range(ring, doc["a"], doc["N"], doc["M"])
    except (PreconditionError, BoundExceededError):
        return None
    return sr.p_lb, sr.q_ub, sr.exact


def stated_value_answer(doc):
    """The answer a response states, with its rationals read by value."""
    if doc["command"] == "rk-square":
        return (Fraction(doc["value"]),)
    return Fraction(doc["p_lb"]), Fraction(doc["q_ub"]), tuple(map(Fraction, doc["exact"]))


def in_lowest_terms(doc):
    """Whether every rational a response spells is in lowest terms."""
    texts = [t for _, t in string_leaves(doc) if RATIONAL.fullmatch(t)]
    return all(t == "{0.numerator}/{0.denominator}".format(Fraction(t)) for t in texts)


def test_verified_value_responses_state_true_answers():
    # every mutation of a rk-square or state-range response that verify
    # accepts states the command's answer to the request it names, compared
    # by value, or falls in a named allow-list class:
    # - "non-canonical": a rational spelled out of lowest terms ("0/2"),
    #   which verify reads by value, as the README says;
    # - "raised-bound": N or M raised, so that the printed witnesses stay
    #   valid and state the answer at the recorded bounds, but a better one
    #   exists within the new bounds; verify checks that each endpoint is
    #   valid, not that it is the best one
    start, refused, allowed = time.monotonic(), 0, Counter()
    responses = VALUE_RESPONSES + [json.loads(run(argv)[1]) for argv in VALUE_REQUESTS]
    for response in responses:
        for path, new in value_mutations(response):
            doc = with_leaf(response, path, new)
            code, _, _ = run(["verify"], json.dumps(doc))
            assert code in (0, 1, 2), (path, new)
            if code:
                refused += 1
                continue
            stated, true = stated_value_answer(doc), true_value_answer(doc)
            if stated == true:
                allowed["restated" if in_lowest_terms(doc) else "non-canonical"] += 1
                continue
            raised = path in (("N",), ("M",)) and new > response[path[0]]
            assert raised and stated == true_value_answer(response), (doc, path, new)
            allowed["raised-bound"] += 1
    assert {r["command"] for r in responses} == {"rk-square", "state-range"}
    assert set(allowed) == {"restated", "non-canonical", "raised-bound"} and refused > 0
    assert time.monotonic() - start < 2


# the recorded extend-state response, and the requests of two more: the
# README request shifted, and a spec valued 1 on <1> and 1/2 on e1
EXTENSION_RESPONSES = [
    json.loads(inv["stdout"])
    for inv in README_INVOCATIONS + SMALL_RING_INVOCATIONS
    if inv["argv"][0] == "extend-state" and inv["verify"] is not None
]
EXTENSION_REQUESTS = (EXTEND_STATE + ("--shifted",), EXTEND_STATE_HALF)


def extension_answer(doc):
    """(p_lb, q_ub) that the command prints for the request a response names, or None."""
    argv = ["extend-state", "--ring", doc["ring"], "--generators", json.dumps(doc["generators"]),
            "--values", json.dumps(doc["values"]), "--a", json.dumps(doc["a"]),
            "--ball", str(doc["ball"]), "--M", str(doc["M"])] + ["--shifted"] * doc["shifted"]
    code, out, _ = run(argv)
    if code:
        return None
    answer = json.loads(out)
    return Fraction(answer["p_lb"]), Fraction(answer["q_ub"])


def test_verified_extension_responses_state_true_answers():
    # every mutation of an extend-state response that verify accepts states
    # the command's answer to the request it names, compared by value, or
    # falls in a named allow-list class:
    # - "non-canonical": a rational spelled out of lowest terms ("0/2");
    # - "not-optimal": the stated interval holds the command's, as its
    #   witnesses stay valid while the request changed (the README response
    #   with a = [0,0,0] keeps q_ub = 1/2, where the command prints 0/1);
    #   verify checks that each endpoint is valid, not that it is the best one
    start, refused, allowed = time.monotonic(), 0, Counter()
    responses = EXTENSION_RESPONSES + [json.loads(run(argv)[1]) for argv in EXTENSION_REQUESTS]
    for response in responses:
        for path, new in value_mutations(response):
            doc = with_leaf(response, path, new)
            code, _, _ = run(["verify"], json.dumps(doc))
            assert code in (0, 1, 2), (path, new)
            if code:
                refused += 1
                continue
            stated, true = (Fraction(doc["p_lb"]), Fraction(doc["q_ub"])), extension_answer(doc)
            if stated == true:
                allowed["restated" if in_lowest_terms(doc) else "non-canonical"] += 1
                continue
            assert true is not None and stated[0] <= true[0] <= true[1] <= stated[1], (doc, path)
            allowed["not-optimal"] += 1
    assert len(responses) == 3 and refused > 0
    assert set(allowed) == {"restated", "non-canonical", "not-optimal"}
    assert time.monotonic() - start < 1


def test_every_certificate_kind_round_trips_through_its_codec(capsys):
    # each certificate a README response prints, the regular refusal and a
    # formal refutation; a kind printed without a codec entry fails to load
    # here, and a codec entry that no such response prints fails the kind count
    responses = [json.loads(inv["stdout"]) for inv in README_INVOCATIONS if inv["exit"] == 0]
    responses += [run_json(capsys, *argv) for argv in (REGULAR_REFUSAL, FORMAL_REFUTATION)]
    certificates = [
        (parse_ring(r["ring"]), value)
        for r in responses
        for value in r.values()
        if isinstance(value, dict) and "kind" in value
    ]
    for ring, cert in certificates:
        assert record_payload(load_record(cert, "kind", ring)) == cert
    kinds = {name for name, (_, tag, _) in _CODECS.items() if tag == "kind"}
    assert {cert["kind"] for _, cert in certificates} == kinds


# the payload format of the record each command prints as fields of its response
RESPONSE_FORMATS = {
    "diagonalize": "diagonal-form",
    "state-range": "state-range",
    "extend-state": "extension",
    "rk-square": "rk-square",
    "phi": "group-element",
}


def printed_records(response):
    """(payload format, payload) of each record a response prints, nested ones aside."""
    command = response["command"]
    if command in RESPONSE_FORMATS:
        yield RESPONSE_FORMATS[command], response
    elif "certificate" in response:
        yield response["certificate"]["kind"], response["certificate"]
    for signature in response.get("signatures", ()):
        yield "local-signature" if "torsion" in signature else "regular-signature", signature


def nested_formats(record):
    """The payload format of each record in the fields of record, at any depth."""
    for value in (getattr(record, f) for f in record._fields):
        for item in value if isinstance(value, tuple) else (value,):
            if hasattr(type(item), "_fields"):
                (name,) = (n for n, (cls, _, _) in _CODECS.items() if cls == type(item).__name__)
                yield name
                yield from nested_formats(item)


def test_every_printed_record_round_trips_through_the_table(capsys):
    # each record a README response prints, and those of the regular refusal,
    # a formal refutation, a drop chain and a regular signature, reprints its
    # keys from the record; a record printed without a table entry fails to
    # load or print, and an entry that no such response prints fails the
    # format count
    extras = (REGULAR_REFUSAL, FORMAL_REFUTATION, FORMAL_DROP_CHAIN, REGULAR_EQUIV)
    responses = [json.loads(inv["stdout"]) for inv in README_INVOCATIONS if inv["exit"] == 0]
    responses += [run_json(capsys, *argv) for argv in extras]
    printed = set()
    for response in responses:
        ring = parse_ring(response["ring"])
        for name, payload in printed_records(response):
            record = load_fields(payload, name, ring)
            reprinted = record_payload(record, name)
            assert reprinted == {k: payload[k] for k in reprinted}
            printed |= {name, *nested_formats(record)}
    assert printed == set(_CODECS)


def test_readme_order_commands_decide_once(capsys, monkeypatch):
    # the result is read off the certificate, not decided again by leq
    calls = []
    monkeypatch.setattr(semigroup, "leq", lambda *args: calls.append(args))
    orders = [inv for inv in README_INVOCATIONS if inv["argv"][0] in ("leq", "chain")]
    assert len(orders) == 4
    for inv in orders:
        assert run_cli(capsys, *inv["argv"])[:2] == (inv["exit"], inv["stdout"])
    assert calls == []


@pytest.mark.parametrize(
    "argv",
    [REGULAR_LEQ, ("chain", "--ring", "F2*F3*F5", "--a", "[2,1,0]", "--b", "[3,3,3]")],
    ids=["readme-leq", "chain-vectors"],
)
def test_a_factorization_is_multiplied_out_once(capsys, monkeypatch, argv):
    # regular_factor multiplies per field; C * B * D over the product ring is
    # verify_factor's alone (regular_factor once checked the same product)
    calls, mat_mul = [], semigroup.mat_mul

    def counted(X, Y):
        calls.append((X.ring.spec, sys._getframe(1).f_code.co_name))
        return mat_mul(X, Y)

    monkeypatch.setattr(semigroup, "mat_mul", counted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["verified"] is True, err
    assert [caller for spec, caller in calls if spec == argv[2]] == ["verify_factor"] * 2


# the exit code of each library error, as the CLI docstring and README state
EXIT_CODES = {rankcert.ParseError: 2, rankcert.PreconditionError: 3, rankcert.BoundExceededError: 4}


@pytest.mark.parametrize(
    "error", rankcert.RankcertError.__subclasses__(), ids=lambda error: error.__name__
)
def test_every_library_error_has_an_exit_code(capsys, monkeypatch, error):
    def refuse(spec):
        raise error("refused")

    monkeypatch.setattr(rankcert, "parse_ring", refuse)
    code, out, err = run_cli(capsys, "normalize", "--ring", "Z/8", "--value", "1")
    assert (code, out) == (EXIT_CODES.get(error), "")
    assert err.endswith(": refused\n") and err.count("\n") == 1


def test_cli_import_leaves_acceptance_unloaded():
    # only selftest and axioms-check need the acceptance suite
    code = "import sys, rankcert.cli; print('rankcert.acceptance' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(rankcert.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "False"


def _loaded(code, *argv):
    """sys.modules once a fresh interpreter has run code, with argv as sys.argv[1:].

    It holds the modules that the package's lazy names load by
    importlib.import_module, which `-X importtime` does not log.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(rankcert.__file__).resolve().parents[1])}
    return set(subprocess.run(
        [sys.executable, "-c", f"import sys; {code}; print(*sys.modules, file=sys.stderr)", *argv],
        capture_output=True, text=True, check=True, env=env,
    ).stderr.split())


MAIN = "from rankcert.cli import main; main(sys.argv[1:])"


def test_cli_commands_import_only_what_they_use(tmp_path):
    # each command imports the modules it uses; records need no dataclasses
    startup = _loaded("pass")
    loaded = _loaded(MAIN, "normalize", "--ring", "Z/8", "--value", "6") - startup
    assert "rankcert.cli" in loaded
    unused = {"dataclasses", "inspect", "rankcert.states", "rankcert.presentations"}
    assert not loaded & (
        unused | {"rankcert.acceptance", "rankcert.semigroup", "rankcert.normal_form"}
    )
    loaded = _loaded(MAIN, *LOCAL_CHAIN)
    assert "rankcert.semigroup" in loaded
    assert not loaded & {"rankcert.states", "rankcert.presentations"}
    loaded = _loaded("import rankcert")
    assert {m for m in loaded if m.startswith("rankcert")} == {"rankcert"}
    # the group elements and the formal hypothesis live in semigroup, so
    # dim, equiv, phi, psi and a formal leq with its verify need no states
    formal = next(inv for inv in README_INVOCATIONS if "--elem" in inv["argv"])
    path = tmp_path / "formal.json"
    path.write_text(formal["stdout"])
    commands = [inv["argv"] for inv in README_INVOCATIONS
                if inv["argv"][0] in ("dim", "equiv", "phi", "psi")]
    commands += [formal["argv"], ["verify", "--file", str(path)]]
    assert [argv[0] for argv in commands] == ["dim", "equiv", "phi", "psi", "leq", "verify"]
    for argv in commands:
        loaded = _loaded(MAIN, *argv)
        assert "rankcert.semigroup" in loaded, argv
        assert "rankcert.states" not in loaded, argv


# the rankcert modules that each README command not covered above loads
ORDER_MODULES = {
    "rankcert", "rankcert.cli", "rankcert.errors", "rankcert.fields", "rankcert.normal_form",
    "rankcert.polys", "rankcert.records", "rankcert.rings", "rankcert.semigroup",
}
STATE_MODULES = ORDER_MODULES | {"rankcert.states"}
SUITE_MODULES = STATE_MODULES | {"rankcert.presentations", "rankcert.acceptance"}
README_MODULES = {
    "class": ORDER_MODULES, "rank": ORDER_MODULES, "leq": ORDER_MODULES,
    "state-range": STATE_MODULES, "extend-state": STATE_MODULES, "rk-square": STATE_MODULES,
    "axioms-check": SUITE_MODULES,
}


def test_readme_commands_load_the_modules_they_run():
    commands = [inv["argv"] for inv in README_INVOCATIONS if inv["argv"][0] in README_MODULES
                and (inv["argv"][0] != "leq" or json.loads(inv["stdout"])["mode"] == "regular")]
    assert sorted({argv[0] for argv in commands}) == sorted(README_MODULES)
    for argv in commands:
        loaded = {m for m in _loaded(MAIN, *argv) if m.split(".")[0] == "rankcert"}
        assert loaded == README_MODULES[argv[0]], argv


def test_cli_reads_the_library_through_the_export_table():
    # each library name resolves through rankcert's export table, so a
    # misspelled one fails here rather than in the branch that reads it
    tree = ast.parse(Path(rankcert.cli.__file__).read_text())
    assert not [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level]
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            imports = {ast.unparse(node) for node in ast.walk(fn)
                       if isinstance(node, (ast.Import, ast.ImportFrom))}
            assert imports <= {"from . import acceptance"}, fn.name
    reads = [(ast.unparse(node.value), node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)]
    public = {attr for owner, attr in reads if owner == "rankcert"}
    helpers = {attr for owner, attr in reads if owner == "rankcert.semigroup"}
    assert len(public) > 30 and helpers
    assert public <= set(rankcert.__all__), public - set(rankcert.__all__)
    for name in helpers:
        assert hasattr(rankcert.semigroup, name), name


def test_diagonalize_and_its_verify_load_no_order_modules(capsys, tmp_path):
    # a record decodes through the package's lazy names
    path = tmp_path / "diag.json"
    path.write_text(run_cli(capsys, *DIAGONALIZE)[1])
    for argv in (DIAGONALIZE, ("verify", "--file", str(path))):
        loaded = _loaded(MAIN, *argv)
        assert "rankcert.normal_form" in loaded
        assert not loaded & {"rankcert.semigroup", "rankcert.states"}


# usage, help and error text as printed when every subparser was built in
# every process, at 80 columns
TOP_USAGE = """usage: rankcert [-h]
                {normalize,diagonalize,class,rank,leq,chain,state-range,extend-state,rk-square,dim,equiv,phi,psi,axioms-check,verify,selftest}
                ...
"""
TOP_HELP = TOP_USAGE + """
Exact order and rank certificates for desk-scale rings.

positional arguments:
  {normalize,diagonalize,class,rank,leq,chain,state-range,extend-state,rk-square,dim,equiv,phi,psi,axioms-check,verify,selftest}
    normalize           canonicalize a ring element literal
    diagonalize         diagonal form with invertible factors
    class               monoid class of a matrix
    rank                rk_k of a matrix or class vector
    leq                 order decision with certificate
    chain               order decision with certificate (alias emphasizing the
                        chain)
    state-range         certified state range of a class
    extend-state        extension interval from a subsemigroup
    rk-square           sup rk(a) among rank functions killing a^2
    dim                 dimension of a presented module
    equiv               isomorphism test for presentations
    phi                 matrix-side group image of a presentation
    psi                 module-side group image of a matrix
    axioms-check        random Sylvester axiom suite
    verify              re-check an emitted response
    selftest            run the acceptance suite

options:
  -h, --help            show this help message and exit
"""
LEQ_USAGE = "usage: rankcert leq [-h] --ring RING --a A --b B [--elem ELEM] [--depth DEPTH]\n"
LEQ_HELP = LEQ_USAGE + """
options:
  -h, --help     show this help message and exit
  --ring RING    ring spec, e.g. Z/8 or F2*F3
  --a A
  --b B
  --elem ELEM    pivot element for formal mode over Z / F_p[x]
  --depth DEPTH
"""
COMMANDS = (
    "{normalize,diagonalize,class,rank,leq,chain,state-range,extend-state,rk-square,dim,equiv,"
    "phi,psi,axioms-check,verify,selftest}"
)
CHOICES = ", ".join(f"'{name}'" for name in COMMANDS[1:-1].split(","))


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["--help"], 0, TOP_HELP, ""),
        (["leq", "--help"], 0, LEQ_HELP, ""),
        (
            ["frobnicate"], 2, "",
            TOP_USAGE + "rankcert: error: argument command: invalid choice: 'frobnicate' "
            f"(choose from {CHOICES})\n",
        ),
        (
            ["leq", "--ring", "Z", "--a", "[1]"], 2, "",
            LEQ_USAGE + "rankcert leq: error: the following arguments are required: --b\n",
        ),
        (
            ["normalize", "--ring", "Z", "--value", "1", "extra"], 2, "",
            TOP_USAGE + "rankcert: error: unrecognized arguments: extra\n",
        ),
        ([], 2, "", TOP_USAGE + "rankcert: error: the following arguments are required: command\n"),
    ],
    ids=["help", "leq-help", "unknown-command", "missing-flag", "extra-argument", "no-command"],
)
def test_parser_text_is_unchanged(capsys, monkeypatch, argv, code, out, err):
    # a named command builds only its own subparser; the text stays the same
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, *argv) == (code, out, err)


# rankcert.__all__ before its names were loaded on first use, and
# NegativeComponent, the regular refusal record; SearchBudgetError went with
# the emitters' self-checks, the only code that raised it
PUBLIC_NAMES = """
BoundExceededError Cancel DiagonalForm Drop ExponentIncrease FactorResult GroupElement
LocalSignature Matrix MinorSweep NegativeComponent NegativeMinor NegativeRank ParseError
Positive PowerSwap PreconditionError Presentation PullbackRank RankcertError RegularSignature
RkSquareResult StateRange StateSpec UNKNOWN block_diag block_upper class_of class_representative
cone_member diagonal_matrix diagonalize dim errors fields group_add group_diff group_element
group_sub has_rank_function identity is_invertible leq leq_provable mat_mul matrix minor
minor_refutation minors_in_ideal module_basis_labels module_class module_coeffs_sub
module_cone_member normal_form order_unit parse_matrix parse_ring phi phi_group polys
presentation presentations presentations_equivalent psi psi_group pullback_rank
quotient_presentation rank_profile regular_factor rings rk rk_for_square semigroup signature
stack_vertical state_extension state_range states verify_certificate verify_factor
verify_factorization verify_formal_certificate verify_rk_square verify_state_extension
verify_state_range witness_chain zeros
""".split()


def test_public_names_are_unchanged_and_resolve():
    assert rankcert.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(rankcert, name)
        if isinstance(value, types.ModuleType):
            assert value.__name__ == f"rankcert.{name}"
        else:
            assert getattr(sys.modules[value.__module__], name) is value
    with pytest.raises(AttributeError):
        rankcert.no_such_name


def test_every_export_is_read_outside_the_tests():
    # a name only tests read is unused surface: code reads it in a library
    # module or a bench script (its own def or class statement is no read),
    # or the README documents it
    root = Path(__file__).resolve().parents[1]
    scripts = [*Path(rankcert.__file__).parent.glob("*.py"), *(root / "bench").glob("*.py")]
    reads = set()
    for path in scripts:
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    reads.add(node.id)
                elif isinstance(node, ast.Attribute):
                    reads.add(node.attr)
    reads.update(re.findall(r"\w+", (root / "README.md").read_text()))
    exported = {name for names in rankcert._EXPORTS.values() for name in names.split()}
    assert sorted(exported - reads) == []


def test_readme_library_block_holds_as_commented():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.S | re.M)[1]
    ns = {}
    exec(block, ns)
    assert (ns["form"].exponents, ns["form"].zero_count) == ((0,), 1)
    first, *rest = ns["cert"].moves
    assert first == rankcert.PowerSwap(0, 2) and rest
    assert all(isinstance(move, rankcert.Cancel) for move in rest)
    sr = ns["sr"]
    assert (sr.p_lb, sr.q_ub) == (0, Fraction(2, 3)) == sr.exact
    assert ns["res"].value == Fraction(1, 2)
    assert rankcert.verify_rk_square(rankcert.parse_ring("Z"), 2, ns["res"])


@pytest.mark.parametrize(
    "ring",
    [f"F{2**128}", f"F{2**256}", f"F{1000003**4}", f"F2*F{3**21}"],
    ids=["2^128", "2^256", "1000003^4", "3^21-component"],
)
def test_extension_fields_beyond_the_cap_are_parse_errors(capsys, ring):
    # finding the modulus took 0.45 s for 2^128, 13.6 s for 2^256, and over
    # 100 s for 1000003^4
    start = time.monotonic()
    code, _, err = run_cli(capsys, "normalize", "--ring", ring, "--value", "0")
    assert code == 2 and "up to order 4294967296" in err
    assert time.monotonic() - start < 0.1
