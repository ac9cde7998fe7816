"""cli-readme: every command of the README's CLI block, as a user runs it.

Each command is a fresh `python -m rankcert` process, and each response
that `verify` accepts is piped back through `rankcert verify`.  Stdout
and exit code must match the fixtures byte for byte.  The inputs are
fixed, so the seed does not apply.  `selftest` is left out: it is the
acceptance suite and would swamp every other command.

Re-record the fixtures (only when a change is meant to alter CLI output):

    python3 bench/cli_readme.py --record
"""

from __future__ import annotations

import io
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

from schedule import request

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "cli_readme.json"
VERIFIABLE = {"diagonalize", "leq", "chain", "state-range", "extend-state", "rk-square"}
PROBES = 5  # interpreter and import probes in a traced run
PASSES = 4  # one block takes seconds, so a run times it this many times


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def spawn(argv, stdin=None):
    return subprocess.run([sys.executable, *argv], input=stdin, capture_output=True,
                          env=child_env(), timeout=120, check=False)


def readme_commands():
    """argv lists of the README's CLI block, after the `rankcert` word."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


class CliReadme:
    passes = PASSES

    def __init__(self):
        self.invocations = json.loads(FIXTURES.read_text(encoding="utf-8"))["invocations"]
        self.block = sum(2 if inv["verify"] else 1 for inv in self.invocations)
        self.stats = Counter()
        self.last_stdout = b""

    def requests(self, seed):
        while True:
            for inv in self.invocations:
                yield request(inv["argv"][0], {"argv": inv["argv"]},
                              {"stdout": inv["stdout"], "exit": inv["exit"], "pipe": False})
                if inv["verify"]:
                    yield request("verify", {"argv": ["verify"], "of": inv["argv"]},
                                  {**inv["verify"], "pipe": True})

    def warmup(self):
        return []

    def setup(self, warmup):
        from rankcert.cli import build_parser
        from rankcert.rings import parse_ring

        for spec in ("Z/8", "F2*F3", "Z"):
            parse_ring(spec)
        build_parser()

    def execute(self, req, tr):
        d = req.data
        stdin = self.last_stdout if d["pipe"] else None
        proc = tr.call(f"cli.process.{req.kind}", spawn, ["-m", "rankcert", *d["argv"]], stdin)
        if not d["pipe"]:
            self.last_stdout = proc.stdout
        return proc

    def check(self, req, proc) -> bool:
        self.stats["verify" if req.data["pipe"] else "command"] += 1
        return proc.returncode == req.data["exit"] and proc.stdout == req.data["stdout"].encode()

    def finish(self) -> int:
        return 0

    def traced_extras(self, tracer):
        """Start-up probes and one in-process pass; returns (attempted, wrong)."""
        for _ in range(PROBES):
            tracer.call("cli.interpreter", spawn, ["-c", "pass"])
            tracer.call("cli.import", spawn, ["-c", "import rankcert.cli"])
        from rankcert.cli import main

        attempted = wrong = 0
        for inv in self.invocations:
            runs = [(inv["argv"], None, inv)]
            if inv["verify"]:
                runs.append((["verify"], inv["stdout"], inv["verify"]))
            for argv, stdin, expected in runs:
                buf, saved = io.StringIO(), sys.stdin
                sys.stdin = io.StringIO(stdin or "")
                try:
                    with redirect_stdout(buf):
                        code = tracer.call(f"cli.main.{argv[0]}", main, list(argv))
                finally:
                    sys.stdin = saved
                attempted += 1
                wrong += (code, buf.getvalue()) != (expected["exit"], expected["stdout"])
        return attempted, wrong


def record():
    invocations = []
    for argv in readme_commands():
        proc = spawn(["-m", "rankcert", *argv])
        inv = {"argv": argv, "stdout": proc.stdout.decode(), "exit": proc.returncode, "verify": None}
        if argv[0] in VERIFIABLE:
            check = spawn(["-m", "rankcert", "verify"], proc.stdout)
            inv["verify"] = {"stdout": check.stdout.decode(), "exit": check.returncode}
        invocations.append(inv)
    FIXTURES.parent.mkdir(exist_ok=True)
    FIXTURES.write_text(json.dumps({"invocations": invocations}, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
