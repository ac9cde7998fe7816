"""rankcert benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a rankcert checkout.  Each workload is a closed
loop with one caller.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  The line before
it records the workload's properties.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from clock import AROUND, Clock
from schedule import digest
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = {
    "matrix-mix": ("matrix_mix", "MatrixMix"),
    "vector-states": ("vector_states", "VectorStates"),
    "cli-readme": ("cli_readme", "CliReadme"),
}
PASSES = 3  # an untraced run times each of its requests this many times
SETUP_RUNS = 2  # fresh processes timing set-up, before each pass
SETUP_PROBES = 3  # reference-clock probes before and after a set-up
RSS_BLOCKS = 2  # a library run's peak memory is read after this many blocks
DIGEST_REQUESTS = 64  # the input digest covers this prefix of the stream

END_TO_END = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

TRACED_CALLS = (
    "rings.parse_matrix",
    "normal_form.diagonalize",
    "normal_form.verify_factorization",
    "semigroup.class_of.local",
    "semigroup.class_of.product",
    "semigroup.leq",
    "semigroup.witness_chain",
    "semigroup.verify_certificate",
    "semigroup.regular_factor",
    "semigroup.verify_factor",
    "semigroup.leq_provable",
    "semigroup.verify_formal_certificate",
    "states.state_range",
    "states.state_extension",
    "states.rk_for_square",
    "states.verify_rk_square",
    "states.pullback_rank.fraction",
    "states.pullback_rank.residue",
    "presentations.presentation",
    "presentations.dim",
    "presentations.presentations_equivalent",
    "presentations.phi",
    "presentations.psi",
)
WORK_COUNTS = {
    "rings.parse_matrix.entries": "higher",
    "normal_form.diagonalize.cells": "higher",
    "semigroup.witness_chain.moves": "lower",
    "semigroup.leq_provable.unknown": "lower",
    "semigroup.regular_factor.positive": "higher",
    "states.state_range.triples": "higher",
    "states.rk_for_square.candidates": "higher",
}
LAYERS = ("rings", "normal_form", "semigroup", "states", "presentations", "request")
CLI_COMMANDS = ("normalize", "diagonalize", "class", "rank", "leq", "chain", "state-range",
                "extend-state", "rk-square", "dim", "equiv", "phi", "psi", "axioms-check", "verify")


def per_layer_metrics():
    """name -> (unit, better) for every metric of a traced run."""
    out = {}
    for name in TRACED_CALLS:
        out[f"{name}.calls"] = ("count", "higher")
        out[f"{name}.busy_s"] = ("s", "lower")
    for name, better in WORK_COUNTS.items():
        out[name] = ("count", better)
    out["semigroup.leq_provable.decided_ratio"] = ("ratio", "higher")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = ("s", "lower")
    out["trace.coverage"] = ("ratio", "higher")
    out["trace.throughput_rps"] = ("1/s", "higher")
    out["trace.untraced_throughput_rps"] = ("1/s", "higher")
    out["trace.overhead"] = ("ratio", "lower")
    out["cli.interpreter_ms"] = ("ms", "lower")
    out["cli.import_ms"] = ("ms", "lower")
    for where in ("process", "main"):
        for command in CLI_COMMANDS:
            out[f"cli.{where}.{command}.p50_ms"] = ("ms", "lower")
    return out


def make(name):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)()


def probe_setup(name):
    """Child-process entry: time import, ring parsing and warm-up once, on
    the reference clock, with SETUP_PROBES probes on either side."""
    workload = make(name)
    warm = workload.warmup()
    clock = Clock()
    for _ in range(SETUP_PROBES):
        clock.probe()
    start = perf_counter()
    workload.setup(warm)
    stop = perf_counter()
    for _ in range(SETUP_PROBES):
        clock.probe()
    print(stop - start, (stop - start) * clock.scale(stop))


def time_setup(name):
    code = f"import sys; sys.path[:0] = {[str(BENCH), str(SRC)]!r}; import run; run.probe_setup({name!r})"
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(tuple(map(float, proc.stdout.split()[-2:])))
    return times


def percentile(values, q):
    """The q-th percentile (0 < q < 100), inclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(name, seed, seconds, trace):
    workload = make(name)
    setup_times = time_setup(name)
    workload.setup(workload.warmup())
    tracer = Tracer() if trace else None
    # the library workloads' peak memory is read early, so that the requests
    # kept for the later passes do not count; cli-readme's is its children's
    who = resource.RUSAGE_CHILDREN if name == "cli-readme" else resource.RUSAGE_SELF
    peak_rss_mib = None
    null = NullTracer()
    clock = Clock()

    def execute(idx, req, tr):
        """One timed execution: (output, (seconds, end), error text or None)."""
        out = error = None
        start = perf_counter()
        tr.begin(idx, start)
        try:
            out = workload.execute(req, tr)
        except Exception:  # a failed request is counted, and the loop goes on
            error = traceback.format_exc()
        stop = perf_counter()
        tr.end(stop)
        return out, (stop - start, stop), error

    def untraced(idx, req):
        if clock.due():
            clock.probe()
        return execute(idx, req, null)

    def check(req, out, error):
        if error is not None:
            return error
        try:
            return None if workload.check(req, out) else "wrong answer"
        except Exception:
            return traceback.format_exc()

    passes = 1 if trace else getattr(workload, "passes", PASSES)
    reqs, times, traced_times, errors = [], [], [], []
    stream = workload.requests(seed)
    start = perf_counter()
    deadline = start + seconds / passes

    def more():
        """Whole blocks only, so every run sees the workload's exact mix; a
        block starts only if it should end before the deadline."""
        if not reqs or len(reqs) % workload.block:
            return True
        now = perf_counter()
        return now + (now - start) / len(reqs) * workload.block < deadline

    while more():
        idx, req = len(reqs), next(stream)
        if tracer is None:
            out, t, error = untraced(idx, req)
        else:
            # each request runs untraced and traced, in alternating order:
            # the paired times give the tracing overhead
            first, second = (null, tracer) if idx % 2 else (tracer, null)
            runs = {tr: execute(idx, req, tr) for tr in (first, second)}
            (_, t, e1), (out, (traced_t, _), error) = runs[null], runs[tracer]
            error = error or e1
            traced_times.append(traced_t)
        reqs.append(req)
        times.append([t])
        errors.append(check(req, out, error))
        if len(reqs) == RSS_BLOCKS * workload.block and who == resource.RUSAGE_SELF:
            peak_rss_mib = resource.getrusage(who).ru_maxrss / 1024
    # later passes repeat the same requests; a request's time is its fastest
    # run on the reference clock, which drops interrupts and cache refills
    for _ in range(passes - 1):
        setup_times += time_setup(name)
        for idx, req in enumerate(reqs):
            _, t, error = untraced(idx, req)
            times[idx].append(t)
            errors[idx] = errors[idx] or error
    if not trace:  # the last requests need probes after them too
        for _ in range(AROUND):
            clock.probe()

    peak_rss_mib = peak_rss_mib or resource.getrusage(who).ru_maxrss / 1024
    wrong = workload.finish()  # oracles that would distort the memory figure
    wall = [min(t for t, _ in ts) for ts in times]
    # untraced times are on the reference clock (clock.py); traced runs
    # compare the two tracers side by side and keep wall times
    best = wall if trace else [min(t * clock.scale(stop) for t, stop in ts) for ts in times]
    busy = sum(best)
    failed = sum(e is not None for e in errors)
    for req, error in [(r, e) for r, e in zip(reqs, errors) if e is not None][:3]:
        print(f"bench: {req.kind} request failed: {req.key[:200]}\n{error}", file=sys.stderr)
    correct = len(reqs) - failed - wrong
    attempted = len(reqs)
    failed += wrong
    if tracer is not None and hasattr(workload, "traced_extras"):
        extras_attempted, extras_wrong = workload.traced_extras(tracer)
        attempted += extras_attempted
        failed += extras_wrong

    def latency(times):
        """Throughput and latency percentiles; a failed request takes forever."""
        lat = sorted(t if e is None else float("inf") for t, e in zip(times, errors))
        return {"throughput_rps": correct / sum(times),
                "latency_p50_ms": percentile(lat, 50) * 1e3,
                "latency_p90_ms": percentile(lat, 90) * 1e3}

    kinds, kind_busy = Counter(), Counter()
    for req, t in zip(reqs, best):
        kinds[req.kind] += 1
        kind_busy[req.kind] += t
    properties = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "error_ratio": failed / attempted,
        "samples": len(reqs),
        "input_digest": digest(r for _, r in zip(range(DIGEST_REQUESTS), make(name).requests(seed))),
        "repeat_share": 1 - len({r.key for r in reqs}) / len(reqs),
        "kinds": {k: {"count": kinds[k], "busy_share": kind_busy[k] / busy} for k in sorted(kinds)},
        "stats": dict(sorted(workload.stats.items())),
        "setup_runs_s": [reference for _, reference in setup_times],
        "mean_over_fastest": sum(statistics.fmean(t for t, _ in ts) for ts in times) / sum(wall),
    }
    if tracer is None:
        metrics = {
            **latency(best),
            "setup_s": statistics.median(reference for _, reference in setup_times),
            "peak_rss_mib": peak_rss_mib,
        }
        units = END_TO_END
        # the same figures in wall time, and the host's speed they were read at
        properties["wall"] = {**latency(wall),
                              "setup_s": statistics.median(t for t, _ in setup_times)}
        properties["host_speed"] = clock.speed()
    else:
        metrics = traced_metrics(tracer, correct / busy, correct / sum(traced_times))
        units = {k: unit for k, (unit, _) in per_layer_metrics().items()}
        metrics = {k: metrics.get(k, 0) for k in units}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return properties, result


def traced_metrics(tracer, untraced, traced):
    metrics = tracer.layer_metrics()
    calls = metrics.get("semigroup.leq_provable.calls", 0)
    if calls:
        metrics["semigroup.leq_provable.decided_ratio"] = (
            calls - metrics.get("semigroup.leq_provable.unknown", 0)) / calls
    metrics["trace.throughput_rps"] = traced
    metrics["trace.untraced_throughput_rps"] = untraced
    metrics["trace.overhead"] = 1 - traced / untraced if untraced else 0.0
    if "cli.interpreter.p50_ms" in metrics:
        metrics["cli.interpreter_ms"] = metrics["cli.interpreter.p50_ms"]
        metrics["cli.import_ms"] = metrics["cli.import.p50_ms"] - metrics["cli.interpreter.p50_ms"]
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rankcert" / "__init__.py").is_file():
        print(f"bench: no rankcert sources under {SRC}; run from a rankcert checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    properties, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    record = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"properties": properties, "result": result}, indent=1) + "\n")
    print(json.dumps({"properties": properties}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
