"""`verify` is total: every mutation of a README response exits 0, 1 or 2, fast.

Each example takes one verifiable response from the README's CLI block,
applies one mutation (drop a key, change a value's type, perturb an
integer, reshape a matrix) and feeds it to `verify` in-process.  An
exception escaping `main` is what would print a traceback.
"""

import io
import json
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankcert.cli import main
from rankcert.states import _square_candidates

README_RESPONSES = (
    ("diagonalize", "--ring", "Z/8", "--matrix", '[["2","1"],["0","4"]]'),
    ("leq", "--ring", "Z/8", "--a", "[[2]]", "--b", "[[4]]"),
    ("chain", "--ring", "Z/8", "--a", "[0,2,0]", "--b", "[1,0,1]"),
    ("leq", "--ring", "F2*F3", "--a", '[["(1,0)"]]', "--b", '[["(1,1)"]]'),
    ("leq", "--ring", "Z", "--elem", "2", "--a", "[1,1]", "--b", "[0,2]"),
    ("state-range", "--ring", "Z/8", "--a", "[0,1,0]", "--N", "12", "--M", "12"),
    (
        "extend-state", "--ring", "Z/8", "--generators", "[[1,0,0],[0,0,1]]",
        "--values", '["1/1","0/1"]', "--a", "[0,1,0]", "--ball", "12", "--M", "12",
    ),
    ("rk-square", "--ring", "Z", "--a", "2", "--bounds", "6"),
)
LIMIT_S = 1.0
OTHER_VALUES = (None, True, 0, -1, 2.5, "x", "1/0", "inf", [], [[]], {}, {"kind": "positive"})
LARGE_INTS = (-(2**31), -1, 0, 2**31)


class TooSlow(Exception):
    pass


def run(argv, stdin=""):
    """Exit code, stdout and seconds of one in-process CLI call.

    A call still running after ten times the limit is stopped, so that a
    hang fails the example instead of the suite.
    """

    def stop(signum, frame):
        raise TooSlow(argv)

    out, saved = io.StringIO(), sys.stdin
    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 10 * LIMIT_S)
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = time.monotonic()
            code = main(list(argv))
            elapsed = time.monotonic() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = saved
    return code, out.getvalue(), elapsed


@lru_cache(maxsize=None)
def responses():
    texts = []
    for argv in README_RESPONSES:
        code, text, _ = run(argv)
        assert code == 0, argv
        texts.append(text)
    return tuple(texts)


def nodes(doc, path=()):
    """(path, value) for every node of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, value in children:
        yield from nodes(value, path + (key,))


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def is_matrix(value):
    return isinstance(value, list) and bool(value) and all(isinstance(r, list) for r in value)


def reshapes(m):
    return [
        m[1:],
        [m[0][:-1]] + m[1:],
        m + [list(m[0])],
        [list(col) for col in zip(*m)],
        [row + ["0"] for row in m],
        [],
    ]


@st.composite
def mutated_responses(draw):
    doc = json.loads(draw(st.sampled_from(responses())))
    everything = list(nodes(doc))
    kind = draw(st.sampled_from(["drop", "retype", "perturb", "reshape"]))
    if kind == "drop":
        choices = [p for p, _ in everything if p]
    elif kind == "retype":
        choices = [p for p, _ in everything]
    elif kind == "perturb":
        choices = [p for p, v in everything if is_int(v)]
    else:
        choices = [p for p, v in everything if is_matrix(v)]
    if not choices:
        return doc
    path = draw(st.sampled_from(choices))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]] if path else doc
    if kind == "drop":
        del parent[path[-1]]
        return doc
    if kind == "retype":
        new = draw(st.sampled_from([v for v in OTHER_VALUES if type(v) is not type(value)]))
    elif kind == "perturb":
        new = draw(st.one_of(st.integers(-3, 3).map(lambda d: value + d),
                             st.sampled_from(LARGE_INTS)))
    else:
        new = draw(st.sampled_from(reshapes(value)))
    if not path:
        return new
    parent[path[-1]] = new
    return doc


@settings(max_examples=400, deadline=None)
@given(mutated_responses())
def test_verify_is_total_on_mutated_readme_responses(doc):
    code, out, elapsed = run(["verify"], json.dumps(doc))
    assert code in (0, 1, 2)
    assert elapsed < LIMIT_S
    if code in (0, 1):
        assert json.loads(out)["verified"] is (code == 0)


def test_every_readme_response_verifies():
    for text in responses():
        code, out, _ = run(["verify"], text)
        assert code == 0 and json.loads(out)["verified"] is True


# ring specs whose parse once cost time or memory that grew with a number
# they name: trial division up to 2^61 - 1, a number past int()'s digit
# limit (a traceback), and p^n for the nil degree n = 10^7
COSTLY_RINGS = ("Z/2305843009213693951", "Z/" + "9" * 5000, "F3[x]/x^10000000")


@pytest.mark.parametrize("ring", COSTLY_RINGS, ids=("mersenne-61", "digits-5000", "nil-1e7"))
def test_verify_decides_a_response_over_a_costly_ring_quickly(ring):
    for text in responses():
        doc = json.loads(text)
        doc["ring"] = ring
        code, _, elapsed = run(["verify"], json.dumps(doc))
        assert code in (1, 2), doc["command"]
        assert elapsed < LIMIT_S, doc["command"]


def test_verify_refuses_a_polynomial_beyond_the_degree_cap_quickly():
    # parsing x^3000000 over F2[x] built its dense coefficient list first
    doc = json.loads(responses()[7])
    assert doc["command"] == "rk-square"
    doc.update(ring="F2[x]", elem="x^3000000")
    code, _, elapsed = run(["verify"], json.dumps(doc))
    assert code == 2
    assert elapsed < LIMIT_S


def test_verify_decides_a_regular_response_over_a_large_extension_field_quickly():
    # building GF(2^32) by trial division took 4.7 s before any check ran;
    # the README factorization has 0/1 entries, so it holds over this ring too
    doc = json.loads(responses()[3])
    assert doc["mode"] == "regular"
    doc["ring"] = "F4294967296*F2"
    code, out, elapsed = run(["verify"], json.dumps(doc))
    assert code == 0 and json.loads(out)["verified"] is True
    assert elapsed < LIMIT_S
    doc["certificate"]["c"] = [["(0,0)"]]
    code, _, elapsed = run(["verify"], json.dumps(doc))
    assert code in (1, 2)
    assert elapsed < LIMIT_S


def test_verify_canonicalizes_diagonalize_entry_literals():
    # non-canonical literals of the same Z/8 values verify as before; a
    # changed value still fails
    doc = json.loads(responses()[0])
    edits = {
        "matrix": [["10", "-7"], ["8", "12"]],
        "left": [["9", "-8"], ["-4", "17"]],
        "right": [["-6", "009"], ["1", "0"]],
    }
    for key, value in edits.items():
        code, out, _ = run(["verify"], json.dumps({**doc, key: value}))
        assert code == 0 and json.loads(out)["verified"] is True, key
    code, out, _ = run(["verify"], json.dumps({**doc, "matrix": [["10", "-7"], ["8", "13"]]}))
    assert code == 1 and json.loads(out)["verified"] is False


def with_leaf(response, path, new):
    """A copy of a response with the leaf at path replaced by new."""
    doc = json.loads(json.dumps(response))
    *inner, last = path
    parent = doc
    for step in inner:
        parent = parent[step]
    parent[last] = new
    return doc


def coordinated_edits(x):
    """{name: (kind, {path: value}, exit codes)}: a bound field raised to x with the witness
    fields that it bounds.

    A single-leaf edit cannot reach these: a large witness alone leaves its
    bound, and a large bound alone leaves the witness small.
    """
    candidates = _square_candidates(x)
    return {
        "extend-state-ball-b": (
            "extend-state", {("ball",): x, ("q_witness", "b"): [x - 1, 0, 1]}, {1}),
        "extend-state-2ball-b": (
            "extend-state", {("ball",): 2 * x + 1, ("q_witness", "b"): [x, 0, 1]}, {1}),
        "extend-state-ball-bc": (
            "extend-state",
            {("ball",): x, ("p_witness", "b"): [x, 0, 0], ("p_witness", "c"): [x, 0, 0]}, {1}),
        "extend-state-M-m": (
            "extend-state", {("M",): x, ("p_witness", "m"): x, ("q_witness", "m"): x}, {1}),
        "state-range-N-nk": (
            "state-range", {("N",): x, ("p_witness", "n"): x, ("p_witness", "k"): x}, {0}),
        "state-range-NM-nm": (
            "state-range",
            {("N",): 2 * x, ("M",): 3 * x, ("q_witness", "n"): 2 * x, ("q_witness", "m"): 3 * x},
            {0}),
        "rk-square-bounds-lower": (
            "rk-square", {("bounds",): x, ("lower", "bound"): x}, {1}),
        "rk-square-bounds-sweep": (
            "rk-square",
            {("bounds",): x, ("lower", "bound"): x, ("lower", "candidates"): candidates,
             ("lower", "refuted"): candidates},
            {0}),
        "formal-depth-chain": (
            "leq",
            {("depth",): x, ("a",): [1, x - 1], ("b",): [0, x],
             ("certificate", "moves", 0, "j2"): x},
            {0}),
    }


@pytest.mark.parametrize("x", [10**6, 10**9], ids=["1e6", "1e9"])
@pytest.mark.parametrize("name", list(coordinated_edits(1)))
def test_verify_decides_coordinated_bound_edits_quickly(x, name):
    # the extend-state edits took seconds while verify listed the span below
    # the witness: 12.6 s as a process at 10^6
    kind, changes, codes = coordinated_edits(x)[name]
    doc = next(d for d in map(json.loads, responses())
               if d["command"] == kind and d.get("mode") in (None, "formal"))
    for path, value in changes.items():
        doc = with_leaf(doc, path, value)
    code, _, elapsed = run(["verify"], json.dumps(doc))
    assert code in codes, changes
    assert elapsed < LIMIT_S
