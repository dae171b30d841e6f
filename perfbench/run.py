"""Benchmark runner for padicdyn: one workload, one closed-loop client.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ./src and
called in-process through ``padicdyn.cli.main([..., "--format", "json"])``,
one query at a time.  With ``--trace 0`` the run times whole passes over
the workload's round until ``--seconds`` have passed and at least
MIN_SAMPLES queries are done, and reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it times one untraced pass and one
traced pass and reports the per-layer metrics and the tracing overhead.
Every output is checked apart from the program after the timed region.
The last line of stdout is the result as one JSON object; the raw samples
go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import refclock  # noqa: E402
from workloads import ROUNDS  # noqa: E402

MIN_SAMPLES = 100  # so that p90 has at least ten samples beyond it
SETUP_SAMPLES = 7
# a fixed small query per workload, run once before timing and in every
# set-up sample, so that lazy set-up is paid outside the timed queries
WARMUP = {
    "tower": ["tower", "z^2+1", "-p", "5", "-x", "2", "-n", "2"],
    "orbit": ["orbit", "z^2-1", "-p", "5", "-x", "2", "-N", "3", "-n", "1"],
    "analyze": ["analyze", "z^2+1", "-p", "7"],
    "moduli": ["moduli", "5*z^2+z", "-p", "5"],
}

SETUP_CHILD = """
import contextlib, io, sys, time
sys.path[:0] = [{src!r}, {here!r}]
from refclock import time_reference
time_reference()
before = time_reference()
t0 = time.perf_counter()
import padicdyn.cli
with contextlib.redirect_stdout(io.StringIO()):
    padicdyn.cli.main({argv!r})
wall = time.perf_counter() - t0
print(wall, before, time_reference())
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_samples(workload: str) -> list:
    """Import plus warm-up in fresh interpreters: (wall, ref before, ref after).

    The first interpreter is not counted: it compiles the bytecode cache.
    """
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), argv=WARMUP[workload] + ["--format", "json"])
    out = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=ROOT
        )
        if proc.returncode != 0:
            fail(f"set-up sample failed:\n{proc.stderr}")
        if i:
            out.append(tuple(float(v) for v in proc.stdout.split()))
    return out


def run_query(cli, argv):
    """One query: (wall seconds, exit code or exception text, stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception as exc:  # the program raised: the query failed
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, code, buf.getvalue()


def timed_pass(cli, queries, samples, outputs, tracer=None):
    """Run every query once, each between two reference timings."""
    ref = refclock.time_reference()
    for qid, query in enumerate(queries):
        if tracer is not None:
            tracer.query_id = len(samples)
        wall, code, out = run_query(cli, list(query.argv) + ["--format", "json"])
        ref_after = refclock.time_reference()
        first = outputs.setdefault(qid, (code, out))
        samples.append({
            "query": qid,
            "wall_s": wall,
            "ref_before_s": ref,
            "ref_after_s": ref_after,
            "scaled_s": refclock.scale(wall, ref, ref_after),
            "code": code,
            "same_bytes": first == (code, out),
        })
        ref = ref_after


def check_outputs(workload, queries, outputs):
    """Problems per query id, from the checks made apart from the program."""
    from checks import CHECKS  # imports sympy: after the timed region

    problems = {}
    for qid, (code, out) in outputs.items():
        if code != 0:
            continue
        try:
            found = CHECKS[workload](queries[qid], json.loads(out))
        except Exception as exc:  # a malformed payload is a wrong output
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            problems[qid] = found
    return problems


def tally(samples, problems):
    """(failed sample count, whether every output produced was right)."""
    failed, correct = 0, not problems
    for s in samples:
        wrong = s["query"] in problems or not s["same_bytes"]
        correct = correct and not wrong
        failed += s["code"] != 0 or wrong
    return failed, correct


def throughput(samples):
    return len(samples) / sum(s["scaled_s"] for s in samples)


def end_to_end(samples, setup, rss_mib):
    times = sorted(s["scaled_s"] for s in samples)
    return {
        "throughput_qps": throughput(samples),
        "query_p50_s": statistics.median(times),
        "query_tail_s": statistics.quantiles(times, n=10, method="inclusive")[-1],
        "peak_rss_mib": rss_mib,
        "setup_s": statistics.median(refclock.scale(*s) for s in setup),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)

    if not (SRC / "padicdyn" / "cli.py").is_file():
        fail(f"no program source at {SRC / 'padicdyn'}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(SRC))
    import padicdyn.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "padicdyn":
        fail(f"padicdyn was imported from {cli.__file__}, not from {SRC}")

    queries = ROUNDS[args.workload](args.seed)
    setup = [] if args.trace else setup_samples(args.workload)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(WARMUP[args.workload] + ["--format", "json"])

    samples, outputs = [], {}
    if args.trace:
        from layers import Tracer

        timed_pass(cli, queries, samples, outputs)
        untraced = list(samples)
        tracer = Tracer()
        tracer.install()
        try:
            timed_pass(cli, queries, samples, outputs, tracer)
        finally:
            tracer.uninstall()
        traced = samples[len(untraced):]
        layer = tracer.report(
            {len(untraced) + i: s["scaled_s"] / s["wall_s"] for i, s in enumerate(traced)}
        )
        layer["trace.untraced_qps"] = throughput(untraced)
        layer["trace.traced_qps"] = throughput(traced)
        layer["trace.overhead_pct"] = 100 * (throughput(untraced) / throughput(traced) - 1)
        wanted = spec["per_layer"]
    else:
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(samples) < MIN_SAMPLES:
            timed_pass(cli, queries, samples, outputs)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layer = end_to_end(samples, setup, rss_mib)
        wanted = spec["end_to_end"]

    problems = check_outputs(args.workload, queries, outputs)
    failed, correct = tally(samples, problems)
    metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in wanted}

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nominal_ref_s": refclock.NOMINAL_S,
        "queries": [" ".join(q.argv) for q in queries],
        "problems": {str(k): v for k, v in problems.items()},
        "setup": setup,
        "samples": samples,
        "metrics": metrics,
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw, indent=1))
    for qid, found in problems.items():
        print(f"check failed: {' '.join(queries[qid].argv)}: {found}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
