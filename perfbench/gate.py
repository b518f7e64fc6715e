"""Correctness gate: every output the benchmark times is checked here.

A verify report passes when the command exited 0, it parses, it has rows
for every (ring, relation) entry of the corpus, none of them is `violated`,
and its sha256 matches the digest recorded for the seed (when one is
recorded).  A query-stream response passes when the command exited 0 and
each factorization or split it lists has a unit in its unit slot and
non-unit factors (nonzero ones when there are two or more) that are
pairwise related and multiply back to the target.  That is checked with
the benchmark's own ring model, not taufact's.
"""

from __future__ import annotations

import hashlib
import json
import os

import model

HERE = os.path.dirname(os.path.abspath(__file__))
FLAGS = {"irreducible", "strongly-irreducible", "m-irreducible", "unrefinably-irreducible", "very-strongly-irreducible"}


def recorded_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)["digests"].get(workload, {}).get(str(seed))


def check_report(data: bytes, corpus, exit_code, expected_digest=None):
    """Failed (ring, relation) entries of one verify call and why.

    Returns (failed, problems): `failed` counts corpus entries, all of them
    when the call as a whole is wrong."""
    entries = {(r, t) for r in corpus["rings"] for t in corpus["taus"]}
    if exit_code != 0:
        return len(entries), [f"exit code {exit_code}"]
    if expected_digest is not None and hashlib.sha256(data).hexdigest() != expected_digest:
        return len(entries), ["report digest differs from the one recorded for this seed"]
    try:
        report = json.loads(data)
        rows = report["entries"]
    except (ValueError, KeyError, TypeError) as exc:
        return len(entries), [f"report does not parse: {exc}"]
    seen = {(row["ring"], row["tau"]) for row in rows}
    if seen != entries:
        return len(entries), [f"report covers {len(seen)} of {len(entries)} entries"]
    violated = {(row["ring"], row["tau"]) for row in rows if row["outcome"] == "violated"}
    problems = [f"violated row for {r} {t}" for r, t in sorted(violated)]
    if report["summary"].get("violated", 0) != sum(row["outcome"] == "violated" for row in rows):
        return len(entries), problems + ["summary disagrees with the rows"]
    return len(violated), problems


def check_response(argv, exit_code, text):
    """None when one query-stream response is right, else the reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    opts = dict(zip(argv[1::2], argv[2::2]))
    ring = model.parse_ring(opts["--ring"])
    target = ring.from_json(json.loads(opts["--element"]))
    related = model.relation(opts["--tau"], ring)
    try:
        payload = json.loads(text)
    except ValueError:
        return "response is not JSON"

    def factors_ok(unit, factors):
        if not ring.is_unit(unit):
            return "unit slot holds a non-unit"
        if any(ring.is_unit(x) for x in factors):
            return "unit factor"
        if len(factors) > 1 and ring.zero in factors:
            return "zero factor in a nontrivial factorization"
        if ring.mul(unit, model.product(ring, factors)) != target:
            return "factors do not multiply to the target"
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if not related(factors[i], factors[j]):
                    return "a pair of factors is not related"
        return None

    cmd = argv[0]
    if cmd == "factorizations":
        if ring.from_json(payload["target"]) != target or not payload["items"]:
            return "wrong target or no factorization"
        for item in payload["items"]:
            factors = [ring.from_json(x) for x in item["factors"]]
            if item["trivial"] != (len(factors) == 1):
                return "trivial flag disagrees with the length"
            problem = factors_ok(ring.from_json(item["unit"]), factors)
            if problem:
                return problem
        return None
    if cmd == "ufact":
        if ring.from_json(payload["element"]) != target or not payload["splits"]:
            return "wrong element or no split"
        for split in payload["splits"]:
            if not split["essential"]:
                return "split without an essential factor"
            factors = [ring.from_json(x) for x in split["inessential"] + split["essential"]]
            problem = factors_ok(ring.from_json(split["unit"]), factors)
            if problem:
                return problem
        return None
    if cmd == "classify":
        flags = payload["flags"]
        if ring.from_json(payload["element"]) != target or set(flags) != FLAGS:
            return "wrong element or flag set"
        if not set(flags.values()) <= {"true", "false", "unknown"}:
            return "flag outside true/false/unknown"
        return None
    return f"unknown command {cmd}"
