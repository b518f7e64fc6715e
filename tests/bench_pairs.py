#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts.

    python3 tests/bench_pairs.py PARENT CHANGE --workload finite-sweep --seed 1 --seed 7 --pairs 10 --seconds 8

Runs ``perfbench/run.py --workload W --seed S --seconds X --trace 0`` from
the root of the PARENT checkout and of the CHANGE checkout in turn, PAIRS
times per (workload, seed), with the parent first in even pairs and the
change first in odd ones, so that drift on a shared host falls on both
sides alike.  Prints, as JSON on stdout, the per-metric runs, medians and
quartiles (``statistics.quantiles``, exclusive method) of each side, the
number of pairs in which the change did better, the ratio of the medians
and a verdict against the metric's ``bound`` in ``BENCHMARK.json``
(``verdict``), in the shape of the ``workloads`` block of the
``BENCH_*.json`` files.  Progress goes to stderr.
A run that fails or reports a failed operation stops the script.

Standard library only; pytest does not collect it (no ``test_`` prefix).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one ``perfbench/run.py`` run from ``root``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{root}: {' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{root}: {workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return result


def summary(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4), "q3": round(q3, 4), "runs": [round(x, 4) for x in runs]}


def verdict(parent: list, change: list, better: str, bound: float) -> tuple:
    """The ratio of the change's median to the parent's, and a verdict on it
    against ``bound``, the share by which the metric may worsen:
    ``unresolved`` when the parent's interquartile range over its median
    exceeds the bound, unless every change run beats every parent run;
    otherwise ``better`` when the change's median is better, ``within
    bound`` when it is worse by at most the bound, and ``worse beyond
    bound`` when it is worse by more."""
    base = statistics.median(parent)
    ratio = statistics.median(change) / base
    q1, _, q3 = statistics.quantiles(parent, n=4)
    sign = -1 if better == "lower" else 1
    beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
    if (q3 - q1) / base > bound and not beats_all:
        return ratio, "unresolved"
    gain = sign * (ratio - 1)
    if gain > 0:
        return ratio, "better"
    return ratio, "within bound" if -gain <= bound else "worse beyond bound"


def pairs_block(roots: dict, workload: str, seed: int, pairs: int, seconds: float, metrics: dict) -> dict:
    runs = {side: [] for side in SIDES}
    for i in range(pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(roots[side], workload, seed, seconds)["metrics"])
            print(f"{workload} seed {seed} pair {i} {side}: {runs[side][-1]['wall_s']['value']:.4f} s", file=sys.stderr)
    out = {}
    for name, (unit, better, bound) in metrics.items():
        values = {side: [r[name]["value"] for r in runs[side]] for side in SIDES}
        sign = -1 if better == "lower" else 1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        ratio, word = verdict(values["parent"], values["change"], better, bound)
        out[name] = {
            "unit": unit,
            "better": better,
            **{side: summary(values[side]) for side in SIDES},
            "change_better_in_pairs": f"{wins}/{pairs}",
            "ratio_of_medians": round(ratio, 4),
            "bound": bound,
            "verdict": word,
        }
    return {"pairs": pairs, "first_in_pair": "parent in even pairs (0, 2, ...), change in odd", "metrics": out}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="root of the parent checkout")
    p.add_argument("change", help="root of the change checkout")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--seed", type=int, action="append", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=8)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2 (quartiles need two runs)")
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        metrics = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in json.load(fh)["end_to_end"]}
    out = {
        workload: {f"seed-{seed}": pairs_block(roots, workload, seed, args.pairs, args.seconds, metrics) for seed in args.seed}
        for workload in args.workload
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
