import random

import pytest

from taufact import (
    ComaximalTau,
    EmptyTau,
    FullTau,
    RegCapTau,
    RegularTau,
    SubsetTau,
    TauConstructionError,
    UnsupportedOperationError,
    ZeroProductTau,
    build_ring_from_text,
    build_tau,
)
from taufact import relations
from taufact.corpus import default_corpus_spec
from taufact.properties import Evaluator
from taufact.relations import normal_spec
from conftest import small_finite_rings
from oracles import oracle_refinable

ALL_SPECS = (
    FullTau(),
    EmptyTau(),
    ZeroProductTau(),
    ComaximalTau(),
    RegularTau(),
    RegCapTau(FullTau()),
    RegCapTau(ComaximalTau()),
)


def test_zero_product_examples(z6):
    t = build_tau(ZeroProductTau(), z6)
    assert t.holds(2, 3)
    assert not t.holds(2, 4)


def test_comaximal_examples(zint, z6):
    t = build_tau(ComaximalTau(), zint)
    assert t.holds(3, 4)
    assert not t.holds(2, 6)
    t6 = build_tau(ComaximalTau(), z6)
    assert t6.holds(2, 3)  # 2*2 + 3*(-1) = 1 mod 6
    assert not t6.holds(2, 4)


def test_regcap_empty_on_finite_rings(z6):
    t = build_tau(RegCapTau(FullTau()), z6)
    for a in z6.nonzero_nonunits():
        for b in z6.nonzero_nonunits():
            assert not t.holds(a, b)


def test_subset_validation(z6):
    t = build_tau(SubsetTau((2, 4)), z6)
    assert t.holds(2, 4) and not t.holds(2, 3)
    with pytest.raises(TauConstructionError):
        build_tau(SubsetTau((5,)), z6)  # 5 is a unit
    with pytest.raises(TauConstructionError):
        build_tau(SubsetTau((0,)), z6)


def test_symmetry_exhaustive():
    for ring in small_finite_rings():
        sharp = ring.nonzero_nonunits()
        for spec in ALL_SPECS:
            t = build_tau(spec, ring)
            for a in sharp:
                for b in sharp:
                    assert t.holds(a, b) == t.holds(b, a)


def test_regcap_implies_inner_and_regular():
    for ring in small_finite_rings():
        sharp = ring.nonzero_nonunits()
        inner = build_tau(FullTau(), ring)
        t = build_tau(RegCapTau(FullTau()), ring)
        for a in sharp:
            for b in sharp:
                if t.holds(a, b):
                    assert inner.holds(a, b)
                    assert ring.is_regular(a) and ring.is_regular(b)


def test_infinite_ring_needs_scope(zint):
    t = build_tau(FullTau(), zint)
    with pytest.raises(UnsupportedOperationError):
        Evaluator(zint, t, 4).refinable()
    assert Evaluator(zint, t, 4, range(2, 12)).refinable() is True


def test_refinable_verdicts(z6, z8):
    assert Evaluator(z6, build_tau(FullTau(), z6), 4).refinable() is True
    assert Evaluator(z6, build_tau(EmptyTau(), z6), 4).refinable() is True
    assert Evaluator(z8, build_tau(ZeroProductTau(), z8), 4).refinable() is True


def test_comaximal_refinable_on_integers(zint):
    # divisors of comaximal elements stay comaximal
    t = build_tau(ComaximalTau(), zint)
    scope = [a for a in range(-40, 41) if abs(a) > 1]
    assert Evaluator(zint, t, 4, scope).refinable() is True


def test_subset_not_refinable(z8):
    # 0 = 1*2*4 is a factorization over S = {2, 4}; refining 2 by its
    # trivial variant 2 = 3*6 drags in 6, and (6, 4) leaves S
    t = build_tau(SubsetTau((2, 4)), z8)
    assert Evaluator(z8, t, 4).refinable() is False


def _engine_flags(tau):
    return tau.regular_only, tau.associate_stable, tau._relates_no_pair, tau._zero_product


def test_normal_spec_keeps_what_the_engine_branches_on():
    """The normal form merges only specs that hold on the same pairs and
    agree on every flag the relation sets for the engine."""
    rc = RegCapTau
    assert normal_spec(rc(FullTau())) == RegularTau()
    assert normal_spec(rc(RegularTau())) == RegularTau()
    assert normal_spec(rc(rc(rc(FullTau())))) == RegularTau()
    assert normal_spec(rc(rc(ComaximalTau()))) == rc(ComaximalTau())
    assert normal_spec(rc(ZeroProductTau())) == rc(EmptyTau())
    for kept in (rc(EmptyTau()), rc(ComaximalTau()), EmptyTau(), FullTau()):
        assert normal_spec(kept) == kept
    for ring in small_finite_rings():
        sharp = ring.nonzero_nonunits()
        for spec in ALL_SPECS + (rc(EmptyTau()), rc(ZeroProductTau()), rc(rc(ComaximalTau()))):
            tau, norm = build_tau(spec, ring), build_tau(normal_spec(spec), ring)
            assert _engine_flags(norm) == _engine_flags(tau), spec
            assert all(tau.holds(a, b) == norm.holds(a, b) for a in sharp for b in sharp)


@pytest.mark.parametrize("ring_str", ["Z", "prod(Z,Z)"])
def test_regcap_zero_relates_the_pairs_regcap_empty_relates(ring_str):
    """On the default scope of Z, and the part of prod(Z,Z)'s with
    components in [-6, 6], neither restriction relates any pair: a product
    of regular elements is nonzero."""
    ring = build_ring_from_text(ring_str)
    scope = default_corpus_spec()["scopes"][ring_str]
    if ring_str == "prod(Z,Z)":
        scope = [e for e in scope if max(map(abs, e)) <= 6]
    sharp = [x for x in map(ring.element_from_json, scope) if not ring.is_unit(x)]
    zero, empty = build_tau(RegCapTau(ZeroProductTau()), ring), build_tau(RegCapTau(EmptyTau()), ring)
    assert len(sharp) > 100
    assert [(a, b) for a in sharp for b in sharp if zero.holds(a, b) != empty.holds(a, b)] == []


def _refinable_cases():
    """Every small finite ring under the default relations and four seeded
    subset relations."""
    rng = random.Random(20261018)
    for ring in small_finite_rings():
        sharp = ring.nonzero_nonunits()
        specs = list(ALL_SPECS)
        for _ in range(4 if sharp else 0):
            k = rng.randint(1, len(sharp))
            specs.append(SubsetTau(tuple(sorted(rng.sample(sharp, k), key=ring.sort_key))))
        for spec in specs:
            yield ring, spec


def _refinable_mismatches():
    out = []
    for ring, spec in _refinable_cases():
        holds, _ = oracle_refinable(ring, build_tau(spec, ring), 3)
        if Evaluator(ring, build_tau(spec, ring), 3).refinable() != holds:
            out.append((ring.spec_string(), spec))
    return out


def _block_scan(tau, targets, fs):
    """Refinability decided block by block over every co-occurring pair,
    with no pass over the unions of the blocks.  The blocks of x are the
    factor sets of its nontrivial factorizations and its unit variants."""
    ring = tau.ring
    pairs = set()
    for a in targets:
        pairs.update(relations._position_pairs(fs(a).items))

    def blocks(x):
        out = {frozenset(f.factors) for f in fs(x).items if not f.trivial}
        return out | {frozenset({ring.mul(ring.unit_inverse(u), x)}) for u in ring.units()}

    return all(
        tau.holds(u, v) for x, y in pairs for g in blocks(x) for h in blocks(y) for u in g for v in h
    )


def test_union_pass_agrees_with_the_block_scan():
    """The union pass gives the outcome of the block scan, on relations
    that are refinable and on some that are not."""
    failures = 0
    for ring, spec in _refinable_cases():
        ev = Evaluator(ring, build_tau(spec, ring), 3)
        got = ev.refinable()
        assert got == _block_scan(build_tau(spec, ring), ring.nonunits(), ev.fs), (ring.spec_string(), spec)
        failures += not got
    assert failures


def test_refinable_matches_definition_oracle():
    assert _refinable_mismatches() == []


def test_refinable_oracle_sees_dropped_unit_blocks(monkeypatch):
    """Without the trivial unit-variant blocks the engine misses refinements
    the definition rejects, and the oracle comparison says so."""
    def nontrivial_only(tau, x, fs):
        return frozenset(v for f in fs(x).items if not f.trivial for v in f.factors)

    monkeypatch.setattr(relations, "_refinement_blocks", nontrivial_only)
    assert _refinable_mismatches()


@pytest.mark.parametrize(
    "ring_str, scope",
    [
        ("prod(Zn(4),Zn(6))", None),
        ("prod(Z,Z)", [(a, b) for a in range(2, 9) for b in (-6, -3, 2, 5, 6)]),
    ],
)
def test_refinable_asks_only_block_cross_pairs(ring_str, scope, monkeypatch):
    """The relation under test is asked only about pairs (u, v) with u in a
    block of x and v in a block of y for co-occurring positions x, y.
    Enumerations come from a twin relation, so they ask the twin."""
    ring = build_ring_from_text(ring_str)
    ev = Evaluator(ring, build_tau(ComaximalTau(), ring))
    tau = build_tau(ComaximalTau(), ring)
    asked = []
    engine_holds = tau._holds
    monkeypatch.setattr(tau, "_holds", lambda a, b: asked.append((a, b)) or engine_holds(a, b))
    checked = Evaluator(ring, tau, ev.cap, scope)
    checked.fs = ev.fs
    checked.refinable()

    targets = ring.nonunits() if ring.is_finite else [a for a in scope if not ring.is_unit(a)]
    together = set()
    for a in targets:
        for f in ev.fs(a).items:
            together.update(
                (x, y) for i, x in enumerate(f.factors) for y in f.factors[i + 1 :]
            )
    support = {}
    for x in {x for pair in together for x in pair}:
        support[x] = {ring.mul(ring.unit_inverse(u), x) for u in ring.units()}
        support[x].update(v for f in ev.fs(x).items for v in f.factors)
    allowed = {(u, v) for x, y in together for u in support[x] for v in support[y]}
    assert asked
    outside = [p for p in asked if p not in allowed and p[::-1] not in allowed]
    assert outside == [], f"{len(outside)} of {len(asked)} pairs asked outside the block cross pairs"
