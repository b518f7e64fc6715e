#!/usr/bin/env python3
"""The taufact benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload's inputs are generated from
the seed (gen.py), written under .bench_work/, and fed to
`taufact.cli.main` in fresh interpreters (child.py), one per repetition, so
no repetition inherits a warm module-level cache.  Every output is checked
(gate.py).  With --trace 0 the run repeats the workload for about S seconds
and reports the end-to-end metrics; with --trace 1 it runs the workload once
untraced and once traced (tracing.py) at --jobs 1, and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gate  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

MIN_REPS = 2
# layers whose calls can be answered from the callee's own cache
CACHED = tuple(f"rings.{m}" for m in tracing.RING_PRIMITIVES if m != "mul") + ("relations.holds", "properties.fs")
SETUP_SAMPLES = 9
DEADLINE_S = 170


class Failure(Exception):
    pass


def spawn(root, base, mode, inputs, trace=False, jobs=1, trace_out=None, timeout=DEADLINE_S):
    """Run child.py once in a fresh interpreter and return its result; a
    verify result carries the report bytes under "report"."""
    job = {
        "src": os.path.join(root, "src"),
        "mode": mode,
        "trace": trace,
        "jobs": jobs,
        "inputs": inputs,
        "report": base + ".report.json",
        "trace_out": trace_out,
    }
    job["spawned"] = time.monotonic()
    with open(base + ".json", "w") as fh:
        json.dump(job, fh)
    # its own session, so that a timeout also ends the --jobs 2 pool workers
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), base + ".json"],
        cwd=root,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failure("a repetition ran past the deadline") from None
    if proc.returncode != 0:
        raise Failure(f"repetition exited {proc.returncode}: {err.decode()[-2000:]}")
    with open(base + ".result.json") as fh:
        result = json.load(fh)
    if mode == "verify":
        with open(job["report"], "rb") as fh:
            result["report"] = fh.read()
        os.remove(job["report"])
    return result


class Runner:
    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(root, ".bench_work", f"{workload}-{seed}-{os.getpid()}")
        self.started = time.monotonic()
        self.jobs_run = 0
        os.makedirs(self.work)
        self.spec = gen.generate(workload, seed)
        self.inputs = os.path.join(self.work, "inputs.json")
        with open(self.inputs, "w") as fh:
            json.dump(self.spec.get("corpus") or {"requests": self.spec.get("requests")}, fh)
        self.expected = gate.recorded_digest(workload, seed)

    def child(self, mode, trace=False, jobs=1):
        self.jobs_run += 1
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise Failure("out of time before a repetition")
        trace_out = os.path.join(os.path.dirname(self.work), f"trace-{self.workload}-{self.seed}.json")
        base = os.path.join(self.work, f"job{self.jobs_run}")
        return spawn(self.root, base, mode, self.inputs, trace, jobs, trace_out, remaining)

    def rep(self, trace=False, jobs=None):
        return self.child(self.spec["kind"], trace=trace, jobs=self.spec["jobs"] if jobs is None else jobs)

    def operations(self):
        if self.spec["kind"] == "verify":
            return self.spec["props"]["entries"]
        return len(self.spec["requests"])

    def gate(self, reps):
        """(attempted, failed, problems, digest) over repetitions that must
        all give the same output."""
        attempted = failed = 0
        problems = []
        expected = self.expected
        for r in reps:
            ops = self.operations()
            attempted += ops
            if self.spec["kind"] == "verify":
                digest = hashlib.sha256(r["report"]).hexdigest()
                bad, why = gate.check_report(r["report"], self.spec["corpus"], r["exit_code"], expected)
            else:
                digest = r["digest"]
                bad = len(r["failures"])
                why = [f"request {i}: {p}" for i, p in r["failures"][:5]]
                if expected is not None and digest != expected:
                    bad, why = ops, ["output digest differs from the one recorded for this seed"]
            if expected is None:
                expected = digest
            elif digest != expected and bad < ops:
                bad, why = ops, ["output differs between repetitions"]
            failed += bad
            problems += why
        return attempted, failed, problems, expected


def quantile(values, q):
    """Linear-interpolated quantile (statistics.quantiles' 'inclusive')."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timed_run(runner, seconds):
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start + reps[-1]["wall_s"] / 2 < seconds:
        reps.append(runner.rep())
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.child("probe")["setup_s"])
    ops = runner.operations()
    # a request's latency is its median over the repetitions, which all send
    # the same requests; that keeps host noise out of the tail
    latencies = [statistics.median(xs) for xs in zip(*(r["latencies_s"] for r in reps))]
    samples = sum(len(r["latencies_s"]) for r in reps)
    attempted, failed, problems, digest = runner.gate(reps)
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), "s", len(reps)),
        "ops_per_s": (statistics.median(ops / r["wall_s"] for r in reps), "1/s", len(reps)),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB", len(reps)),
        "latency_p50_ms": (1000 * quantile(latencies, 0.50), "ms", samples),
        "latency_p99_ms": (1000 * quantile(latencies, 0.99), "ms", samples),
        "failed_frac": (failed / attempted, "ratio", attempted),
    }
    return metrics, attempted, failed, problems, digest


def traced_run(runner):
    jobs = runner.spec["jobs"]
    plain = runner.rep(jobs=1)
    wide = runner.rep() if jobs > 1 else plain
    traced = runner.rep(trace=True, jobs=1)
    attempted, failed, problems, digest = runner.gate([plain, traced] + ([wide] if jobs > 1 else []))
    layers = traced["layers"]
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit, 1)

    for key, value in sorted(layers.items()):
        if not key.endswith(".hits"):
            put(key, value, "s" if key.endswith("_s") or key.endswith(".s") else "count")
    for layer in CACHED:
        calls = layers.get(f"{layer}.calls", 0)
        put(f"{layer}.hit_ratio", layers.get(f"{layer}.hits", 0) / calls if calls else 0.0, "ratio")
    if runner.spec["kind"] == "verify":
        rows = json.loads(traced["report"])["entries"]
        for outcome in ("verified", "inapplicable", "violated", "skipped", "informational"):
            put(f"theorems.rows.{outcome}", sum(r["outcome"] == outcome for r in rows), "count")
        inside = layers["cli.unit_sum_s"] / traced["wall_s"]
        put("cli.pool_idle_frac", 1 - inside * plain["wall_s"] / (jobs * wide["wall_s"]), "ratio")
    put("trace.overhead", traced["wall_s"] / plain["wall_s"] - 1, "ratio")
    put("trace.untraced_wall_s", plain["wall_s"], "s")
    put("trace.traced_wall_s", traced["wall_s"], "s")
    return out, attempted, failed, problems, digest


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "taufact", "cli.py")):
        print("error: run from a taufact checkout (no src/taufact/cli.py here)", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    runner = Runner(root, args.workload, args.seed)
    try:
        runner.child("probe")  # compiles bytecode; untimed
        if args.trace:
            metrics, attempted, failed, problems, digest = traced_run(runner)
            wanted = contract["per_layer"]
        else:
            metrics, attempted, failed, problems, digest = timed_run(runner, args.seconds)
            wanted = contract["end_to_end"]
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: inputs {json.dumps(runner.spec['props'])}")
    print(f"output sha256 {digest}; recorded for this seed: {runner.expected or 'none'}")
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:6s} n={n}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {},
    }
    for m in wanted:
        if m["name"] not in metrics:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        value, unit, _ = metrics[m["name"]]
        result["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
