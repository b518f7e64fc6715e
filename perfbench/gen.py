"""Seeded inputs for the three workloads, from the standard library only.

`generate(workload, seed)` returns the corpus (verify workloads) or the
request list (query-stream) together with the input properties a claim
about the workload must cite.  The same seed always gives the same inputs.

Each workload is a stratified sample: the seed picks the members of every
stratum, while the strata fix how much costly work a run holds.  Without
that, one heavy ring, element or request more or less would move a run's
time by more than the regressions the benchmark has to catch.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter

import model

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("finite-sweep", "zz-scoped", "query-stream")

DEFAULT_TAUS = ("full", "empty", "zero", "comax", "regular", "regcap(full)", "regcap(comax)")
CAP = 6

# finite-sweep: one ring from each cost tier of each construction.  The
# frame (frame.json) lists the finite rings of order <= 36 whose verify with
# the default relations took at most 0.7 s at the seed commit; tiers are
# equal-count slices of that cost order.  Of FINITE_DRAWS such draws the one
# whose frame cost is closest to the tiers' median total is kept.  The
# heavier rings stay out because one of them would dominate a sweep.
FINITE_TIERS = {"Zn": 3, "GFq": 3, "prod": 4, "nested": 2}
FINITE_DRAWS = 64

# zz-scoped: elements (a, b) of the default prod(Z,Z) scope by the number
# d(|a|) * d(|b|) of positive divisor pairs, which sets the divisor pool and
# the cost; no two elements are associates.  Of ZZ_DRAWS such draws the one
# whose scope cost (_zz_cost) is closest to the median is kept.  Plus
# zero-divisor samples on the axes and Z_COUNT elements of the default Z
# scope.
ZZ_PLAN = ((36, 1), (24, 2), (18, 2), (16, 2), (12, 3), (8, 3), (6, 3), (4, 3), (2, 2))
ZZ_DRAWS = 64
ZZ_AXIS = 4
Z_COUNT = 40

# query-stream: the 5:3:2 command mix over the default corpus rings, each
# ring with an equal share of the distinct requests of every command.
REQUESTS = 2400
COMMAND_WEIGHTS = (("factorizations", 5), ("classify", 3), ("ufact", 2))
REPEAT_SHARE = 0.17
HOT_EVERY = 4
# at equal divisor pools, `full` enumerates more than `comax`, which
# enumerates more than the relations that admit only trivial factorizations
TAU_COST = {"full": 2, "regular": 2, "regcap(full)": 2, "comax": 1, "regcap(comax)": 1, "empty": 0, "zero": 0}


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def default_scopes():
    z = [a for a in range(-60, 61) if abs(a) > 1]
    zz = [[a, b] for a in range(-20, 21) for b in range(-20, 21) if a != 0 and b != 0]
    zz += [[a, 0] for a in range(-20, 21) if a != 0]
    zz += [[0, b] for b in range(-20, 21) if b != 0]
    return z, zz


def default_finite_rings():
    rings = [f"Zn({n})" for n in range(2, 25)]
    rings += [f"prod(Zn({a}),Zn({b}))" for a in range(2, 7) for b in range(2, 7)]
    rings += ["GFq(2,[1,1,1])", "GFq(2,[0,0,1])"]
    rings += [f"prod(Zn({q}),Zn({q}))" for q in (3, 5, 7)]
    return list(dict.fromkeys(rings))


def _ndiv(n):
    n = abs(n)
    return sum(1 for d in range(1, n + 1) if n % d == 0)


# ---------------------------------------------------------------------------
# finite-sweep


def finite_sweep(seed):
    with open(os.path.join(HERE, "frame.json")) as fh:
        frame = json.load(fh)["rings"]
    rnd = _rng("finite-sweep", seed)
    tiers = []
    for kind, count in FINITE_TIERS.items():
        ranked = sorted((r for r in frame if r["kind"] == kind), key=lambda r: (r["verify_s"], r["ring"]))
        tiers += [ranked[i * len(ranked) // count : (i + 1) * len(ranked) // count] for i in range(count)]
    target = sum(t[len(t) // 2]["verify_s"] for t in tiers)
    draws = [[rnd.choice(t) for t in tiers] for _ in range(FINITE_DRAWS)]
    best = min(draws, key=lambda d: abs(sum(r["verify_s"] for r in d) - target))
    rings = [r["ring"] for r in best]
    rnd.shuffle(rings)
    corpus = {"schema": 1, "rings": rings, "taus": list(DEFAULT_TAUS), "cap": CAP, "budget": 500000}
    props = _finite_props(rings)
    props["frame_verify_s"] = round(sum(r["verify_s"] for r in best), 3)
    return {"kind": "verify", "jobs": 1, "corpus": corpus, "props": props}


def _finite_props(rings):
    elements = zero_divisors = redundant = 0
    for spec in rings:
        ring = model.parse_ring(spec)
        r_sharp = model.sharp(ring)
        elements += ring.order
        zero_divisors += len(r_sharp)  # in a finite ring R# is the zero divisors
        tables = Counter()
        for tau in DEFAULT_TAUS:
            rel = model.relation(tau, ring)
            tables[tuple(rel(a, b) for i, a in enumerate(r_sharp) for b in r_sharp[i:])] += 1
        redundant += sum(n - 1 for n in tables.values())
    return {
        "rings": len(rings),
        "entries": len(rings) * len(DEFAULT_TAUS),
        "orders": sorted(model.parse_ring(r).order for r in rings),
        "zero_divisor_share": round(zero_divisors / elements, 4),
        "redundant_entry_share": round(redundant / (len(rings) * len(DEFAULT_TAUS)), 4),
    }


# ---------------------------------------------------------------------------
# zz-scoped


def _zz_classes():
    classes = {}  # d(|a|) * d(|b|) -> [(|a|, |b|)]
    for a in range(1, 21):
        for b in range(1, 21):
            if (a, b) != (1, 1):
                classes.setdefault(_ndiv(a) * _ndiv(b), []).append((a, b))
    return classes


def _zz_draw(rnd, classes):
    return [pair for pairs, count in ZZ_PLAN for pair in rnd.sample(classes[pairs], count)]


def _zz_cost(pairs):
    """Enumeration work of a scope: elements share the factorization sets
    of their common divisors, so sum over the union of divisor pairs, each
    weighted by its squared divisor-pair count."""
    union = {
        (p, q)
        for a, b in pairs
        for p in range(1, a + 1)
        if a % p == 0
        for q in range(1, b + 1)
        if b % q == 0
    }
    return sum((_ndiv(p) * _ndiv(q)) ** 2 for p, q in union)


def zz_scoped(seed):
    rnd = _rng("zz-scoped", seed)
    z_scope, zz_scope = default_scopes()
    classes = _zz_classes()
    reference = _rng("zz-scoped", "target")
    target = sorted(_zz_cost(_zz_draw(reference, classes)) for _ in range(ZZ_DRAWS))[ZZ_DRAWS // 2]
    draws = [_zz_draw(rnd, classes) for _ in range(ZZ_DRAWS)]
    best = min(draws, key=lambda d: abs(_zz_cost(d) - target))
    zz = [[a * rnd.choice((1, -1)), b * rnd.choice((1, -1))] for a, b in best]
    zz += rnd.sample([e for e in zz_scope if not (e[0] and e[1])], ZZ_AXIS)
    z = rnd.sample(z_scope, Z_COUNT)
    corpus = {
        "schema": 1,
        "rings": ["Z", "prod(Z,Z)"],
        "taus": list(DEFAULT_TAUS),
        "scopes": {"Z": z, "prod(Z,Z)": zz},
        "cap": CAP,
        "budget": 500000,
    }
    props = {
        "rings": 2,
        "entries": 2 * len(DEFAULT_TAUS),
        "scope_sizes": {"Z": len(z), "prod(Z,Z)": len(zz)},
        "zero_divisor_share": round(ZZ_AXIS / (len(z) + len(zz)), 4),
        "zz_divisor_pool_sizes": sorted(4 * _ndiv(a) * _ndiv(b) for a, b in best),
        "zz_scope_cost": _zz_cost(best),
    }
    return {"kind": "verify", "jobs": 2, "corpus": corpus, "props": props}


# ---------------------------------------------------------------------------
# query-stream


def _targets(spec):
    """Every (pool, relation, element) a request on this ring may carry.

    `pool` is the number of nonzero non-unit divisors the enumeration can
    draw factors from, or 0 when the relation admits only the trivial
    factorization of the element; it orders a ring's requests by cost.
    Targets are nonzero non-units, the elements the relations are defined
    on; infinite rings contribute those with no zero coordinate."""
    if spec == "Z":
        ring = model.Integers()
        elems = [a for a in range(-60, 61) if abs(a) > 1]
        divisors = {a: 2 * _ndiv(a) - 2 for a in elems}
    elif spec == "prod(Z,Z)":
        ring = model.parse_ring(spec)
        elems = [(a, b) for a in range(-20, 21) for b in range(-20, 21) if a and b and (abs(a), abs(b)) != (1, 1)]
        divisors = {e: 4 * _ndiv(e[0]) * _ndiv(e[1]) - 4 for e in elems}
    else:
        ring = model.parse_ring(spec)
        elems = model.sharp(ring)
        sharp = set(elems)
        found = {a: set() for a in elems}
        for r in ring.elements():
            for d in sharp:
                p = ring.mul(r, d)
                if p in found:
                    found[p].add(d)
        divisors = {a: len(ds) for a, ds in found.items()}
    out = []
    for a in elems:
        for tau in DEFAULT_TAUS:
            if tau in ("empty", "zero"):
                # no pair is related, or related pairs multiply to 0, which
                # is not a target
                pool = 0
            elif tau.startswith("reg") and not ring.is_regular(a):
                pool = 0
            else:
                pool = divisors[a]
            out.append((pool, tau, json.dumps(ring.to_json(a), separators=(",", ":"))))
    return sorted(out)


def query_stream(seed):
    rnd = _rng("query-stream", seed)
    rings = default_finite_rings() + ["Z", "prod(Z,Z)"]
    targets = {r: _targets(r) for r in rings}
    total_weight = sum(w for _, w in COMMAND_WEIGHTS)
    stream = []
    for cmd, weight in COMMAND_WEIGHTS:
        wanted = REQUESTS * weight // total_weight
        repeats = round(wanted * REPEAT_SHARE)
        quota = dict.fromkeys(rings, 0)
        i = 0
        while sum(quota.values()) < wanted - repeats:
            ring = rings[i % len(rings)]
            i += 1
            if quota[ring] < len(targets[ring]):
                quota[ring] += 1
        distinct = []
        for ring, k in quota.items():
            # systematic sample at fixed quantiles of the ring's targets in
            # cost order, so every stream holds the same cost profile; the
            # seed picks among targets of equal cost
            ranked = sorted(targets[ring], key=lambda t: (t[0], TAU_COST[t[1]], rnd.random()))
            for j in range(k):
                _, tau, el = ranked[int((j + 0.5) * len(ranked) / k)]
                distinct.append((cmd, ring, tau, el))
        # popularity: a hot set, every HOT_EVERY-th distinct request (they
        # are in ring and cost order), takes all the repeats, so the repeats
        # have the stream's cost profile, not that of one popular request
        hot = distinct[rnd.randrange(HOT_EVERY) :: HOT_EVERY]
        stream += distinct + rnd.sample(hot, repeats)
    rnd.shuffle(stream)
    requests = [
        [cmd, "--ring", ring, "--tau", tau, "--element", el, "--cap", str(CAP)]
        for cmd, ring, tau, el in stream
    ]
    props = {
        "requests": len(requests),
        "repeated_share": round(1 - len(set(stream)) / len(stream), 4),
        "commands": dict(Counter(r[0] for r in requests)),
        "rings": len(rings),
        "zero_divisor_share": round(_stream_zero_divisor_share(stream), 4),
    }
    return {"kind": "stream", "jobs": 1, "requests": requests, "props": props}


def _stream_zero_divisor_share(stream):
    zd = 0
    for _, spec, _, el in stream:
        ring = model.parse_ring(spec)
        a = ring.from_json(json.loads(el))
        zd += a != ring.zero and not ring.is_regular(a)
    return zd / len(stream)


def generate(workload, seed):
    return {"finite-sweep": finite_sweep, "zz-scoped": zz_scoped, "query-stream": query_stream}[workload](seed)
