#!/usr/bin/env python3
"""Record the benchmark's reference data.  Run from the root of a checkout.

    python3 perfbench/record.py digests  --seeds 0-20
        Runs every workload traced for each seed (which also runs it
        untraced, and zz-scoped at --jobs 1 and 2), and stores the output
        sha256 of each seed whose outputs all agree and pass the gate in
        digests.json.

    python3 perfbench/record.py baseline --seeds 1-10
        Runs every workload untraced once per seed and traced once, prints
        the spread of each end-to-end metric (distance between the first
        and third quartile over the median) against a third of its bound,
        and writes medians, quartiles and per-layer numbers to
        baseline.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(line.split()[2].rstrip(";") for line in lines if line.startswith("output sha256"))
    return json.loads(lines[-1]), digest, proc.stdout


def record_digests(contract, seeds):
    path = os.path.join(HERE, "digests.json")
    with open(path) as fh:
        doc = json.load(fh)
    for workload in gen.WORKLOADS:
        table = doc["digests"].setdefault(workload, {})
        for seed in seeds:
            result, digest, _ = bench(workload, seed, contract["run_seconds"], 1)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: outputs failed the gate")
            table[str(seed)] = digest
            print(workload, seed, digest, flush=True)
        doc["digests"][workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def record_baseline(contract, seeds):
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    out = {
        "commit": subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip() or None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": contract["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in gen.WORKLOADS:
        values = {name: [] for name in bounds}
        attempted = failed = 0
        for seed in seeds:
            result, _, _ = bench(workload, seed, contract["run_seconds"], 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {}}
        for name, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3, "spread": round(spread, 4), "values": xs}
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            print(f"{workload:13s} {name:16s} median {median:12.5g} spread {spread:.4f} bound/3 {bounds[name] / 3:.4f} {'ok' if ok else 'WIDE'}", flush=True)
        _, _, text = bench(workload, seeds[0], contract["run_seconds"], 1)
        entry["per_layer_seed"] = seeds[0]
        entry["per_layer"] = {}
        for line in text.splitlines():
            # "  name   value unit n=count", every metric the traced run printed
            parts = line.split()
            if line.startswith("  ") and len(parts) == 4 and parts[3].startswith("n="):
                entry["per_layer"][parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
        out["workloads"][workload] = entry
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return steady


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("what", choices=("digests", "baseline"))
    p.add_argument("--seeds", type=seeds_arg, required=True, help="a seed or a range lo-hi")
    args = p.parse_args()
    with open("BENCHMARK.json") as fh:
        contract = json.load(fh)
    if args.what == "digests":
        record_digests(contract, args.seeds)
        return 0
    return 0 if record_baseline(contract, args.seeds) else 1


if __name__ == "__main__":
    sys.exit(main())
