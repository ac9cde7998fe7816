"""Every command is total: mutations of each README command exit 0-4, fast.

Each example takes one README command (the CLI block, `verify --file`
and `selftest --only 2`), and replaces the values of one or two of its
flags by short, mostly invalid values, or drops a flag.  It runs the
command in-process; an exception escaping `main` is what would print a
traceback.  Large class vectors are among the values: a `leq` or `chain`
request whose certificate would exceed `cli.CLASS_WORK_CAP` in size exits
3 at once, and `rank`, `state-range` and `extend-state` read a class
vector in closed form.  An `extend-state --ball` whose span would exceed
`states.SPAN_CAP` exits 3 at once, as pinned below.  Other large values
stay out: a formal request whose lists need many drops still costs
seconds.  The long formal chains pinned below take milliseconds at their
large `--depth`.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_verify_fuzz import LIMIT_S, responses, run

FIXTURES = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "cli_readme.json"
RESPONSE = "<README response>"  # stands for the path of a file holding one
README_COMMANDS = tuple(
    tuple(inv["argv"]) for inv in json.loads(FIXTURES.read_text())["invocations"]
) + (("verify", "--file", RESPONSE), ("selftest", "--only", "2"))
VALUES = (
    "", "[]", "{}", "x", "-1", "0", "1.5", "[[]]", "null", "[1]", "[[1]]", "[-1]", "true",
    '["1/0"]', '[["x"]]', "2", "[0,0]", "F2[x]/x^256", "[100000,100000]", "[0,100000,0]",
)
# without --only, selftest runs the whole acceptance suite, about a minute
KEPT = {("selftest", "--only")}
FORMAL = ("leq", "--ring", "Z", "--elem", "2")
EXTEND_STATE = next(argv for argv in README_COMMANDS if argv[0] == "extend-state")
SPREAD = [i * 10**7 for i in range(1, 21)]


@st.composite
def mutated_commands(draw):
    argv = list(draw(st.sampled_from(README_COMMANDS)))
    flags = [i for i, token in enumerate(argv) if token.startswith("--")]
    chosen = draw(st.lists(st.sampled_from(flags), min_size=1, max_size=2, unique=True))
    for i in sorted(chosen, reverse=True):  # every README flag takes one value
        drop = () if (argv[0], argv[i]) in KEPT else (None,)
        value = draw(st.sampled_from(VALUES + drop))
        if value is None:
            del argv[i : i + 2]
        else:
            argv[i + 1] = value
    return argv


@pytest.fixture(scope="module")
def response_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("argv") / "response.json"
    path.write_text(responses()[1])
    return str(path)


@settings(max_examples=300, deadline=None)
@given(mutated_commands())
# the hypothesis bound of empty exponents once raised TypeError
@example([*FORMAL, "--a", "[]", "--b", "[]"])
# axioms-check work grows with the nil degree cubed; this once ran for minutes
@example(["axioms-check", "--ring", "F2[x]/x^256", "--count", "500"])
# the breadth-first formal search took 12.8 s on the first and set the cost
# by the exponents the request chose, whatever --depth was
@example([*FORMAL, "--a", "[1,2,3,4,5,6,7,8]", "--b", json.dumps([0] * 8 + [9] * 8),
          "--depth", "100"])
@example([*FORMAL, "--a", "[1000,1000]", "--b", "[0,2000]", "--depth", "3000"])
# the bound's DP once kept all 2^20 matchings of these lists
@example([*FORMAL, "--a", json.dumps(SPREAD), "--b", json.dumps(
    sorted(x for i, t in enumerate(SPREAD) for x in (t - 2**i, t + 2**i)))])
# the span walk once grew with --ball; past SPAN_CAP it is refused before it starts
@example([*EXTEND_STATE[:-4], "--ball", "1000000", "--M", "12"])
@example([*EXTEND_STATE[:-4], "--ball", str(10**18), "--M", "12"])
def test_every_command_is_total_on_mutated_readme_argv(response_file, argv):
    argv = [response_file if token == RESPONSE else token for token in argv]
    code, _, elapsed = run(argv, stdin=responses()[1])
    assert code in (0, 1, 2, 3, 4)
    assert elapsed < LIMIT_S
