import json

import pytest

from taufact import (
    ComaximalTau,
    FullTau,
    IntegersSpec,
    ModIntSpec,
    ProductSpec,
    RegCapTau,
    ZeroProductTau,
    build_ring,
    build_tau,
    summarize,
    verify_corpus_entry,
)
from taufact.relations import format_tau_spec

from taufact import PolyQuotSpec

SMALL_SPECS = [
    (ModIntSpec(6), FullTau()),
    (ModIntSpec(6), ZeroProductTau()),
    (ModIntSpec(8), ComaximalTau()),
    (ModIntSpec(9), FullTau()),
    (ProductSpec(ModIntSpec(2), ModIntSpec(3)), FullTau()),
    (ProductSpec(ModIntSpec(3), ModIntSpec(3)), RegCapTau(FullTau())),
    (PolyQuotSpec(2, (0, 0, 1)), FullTau()),
]


def run_entry(ring_spec, tau_spec, scope=None, cap=5):
    ring = build_ring(ring_spec)
    tau = build_tau(tau_spec, ring)
    entries = verify_corpus_entry(ring, tau, scope, cap, {})
    return entries, summarize(entries)


@pytest.mark.parametrize("ring_spec,tau_spec", SMALL_SPECS)
def test_no_violations_on_small_entries(ring_spec, tau_spec):
    entries, summary = run_entry(ring_spec, tau_spec)
    assert summary["violated"] == 0, [
        (e.theorem, e.instance, e.witness) for e in entries if e.outcome == "violated"
    ]


def test_entries_are_json_serializable():
    entries, _ = run_entry(ModIntSpec(6), FullTau())
    payload = [e.to_json() for e in entries]
    json.dumps(payload)  # witnesses must already be plain data
    theorems = {e.theorem for e in entries}
    assert {
        "irreducible-hierarchy",
        "regular-atom-five-way",
        "trivial-factorization-associates",
        "regular-collapse-six-way",
        "zero-divisor-atoms",
        "ring-atomicity-five-way",
        "refinable-finiteness-eight-way",
        "regular-vs-restricted-properties",
        "plain-implies-regular-properties",
        "regular-relation-baseline",
        "split-equivalences",
        "essential-divisor-lemma",
        "restricted-nontrivial-coincide",
        "finite-factorization-arrows",
        "regular-factorization-arrows",
    } <= theorems


def test_informational_rows_never_counted_as_violations():
    entries, summary = run_entry(ModIntSpec(6), FullTau())
    assert summary["informational"] >= 1
    for e in entries:
        if e.outcome == "informational":
            assert e.theorem in ("relation-predicates",) or e.instance.startswith(
                ("informational", "flag-")
            )


def test_integers_scoped_entry_verifies():
    scope = [a for a in range(-30, 31) if abs(a) > 1]
    entries, summary = run_entry(IntegersSpec(), FullTau(), scope=scope, cap=6)
    assert summary["violated"] == 0
    assert all(e.scoped for e in entries)


def test_zero_divisor_family_on_product():
    ring_spec = ProductSpec(IntegersSpec(), IntegersSpec())
    scope = [(a, b) for a in range(-6, 7) for b in range(-6, 7) if a and b]
    scope += [(a, 0) for a in range(1, 5)] + [(0, b) for b in range(1, 5)]
    entries, summary = run_entry(ring_spec, RegCapTau(FullTau()), scope=scope, cap=6)
    assert summary["violated"] == 0
    by_theorem = {e.theorem: e for e in entries}
    assert by_theorem["zero-divisor-atoms"].outcome == "verified"
    assert by_theorem["essential-divisor-lemma"].outcome == "verified"


def test_eight_way_gated_on_refinability(z8):
    # the one-element subset relation relates nothing outside {2,4};
    # refining via trivial variants leaves it, so the family is inapplicable
    from taufact import SubsetTau

    entries, _ = run_entry(ModIntSpec(8), SubsetTau((2, 4)))
    row = next(e for e in entries if e.theorem == "refinable-finiteness-eight-way")
    assert row.outcome == "inapplicable"


def test_mixed_infinite_finite_product_entry():
    """The laws hold on a product of the integers with a modular ring,
    where genuinely unbounded elements exist ((4,3) = (2,3)^2 (1,3)^k)."""
    ring_spec = ProductSpec(IntegersSpec(), ModIntSpec(6))
    scope = [(a, b) for a in range(-5, 6) if a for b in range(6)]
    for tau_spec in (FullTau(), RegCapTau(FullTau())):
        entries, summary = run_entry(ring_spec, tau_spec, scope=scope, cap=6)
        assert summary["violated"] == 0, [
            (e.theorem, e.instance) for e in entries if e.outcome == "violated"
        ]


def test_nested_product_entry():
    ring_spec = ProductSpec(ModIntSpec(2), ProductSpec(ModIntSpec(2), ModIntSpec(3)))
    entries, summary = run_entry(ring_spec, ZeroProductTau(), cap=5)
    assert summary["violated"] == 0


def test_subset_relation_entries():
    from taufact import SubsetTau

    for subset in ((2, 4, 8), (3, 9), (2, 6, 10)):
        entries, summary = run_entry(ModIntSpec(12), SubsetTau(subset), cap=5)
        assert summary["violated"] == 0, subset


def test_random_subset_relations_fuzz():
    """Fixed-seed sweep: the laws hold under arbitrary subset relations,
    which have none of the structure the built-in relations enjoy."""
    import random

    from taufact import SubsetTau

    rng = random.Random(20260810)
    for spec in (ModIntSpec(8), ModIntSpec(12), ProductSpec(ModIntSpec(2), ModIntSpec(4))):
        ring = build_ring(spec)
        sharp = ring.nonzero_nonunits()
        for _ in range(4):
            k = rng.randint(1, len(sharp))
            subset = tuple(sorted(rng.sample(sharp, k), key=ring.sort_key))
            entries, summary = run_entry(spec, SubsetTau(subset), cap=5)
            assert summary["violated"] == 0, (spec, subset)


def test_split_equivalences_can_fail(monkeypatch):
    """The split/plain agreement is checked, not assumed: with the last
    split of each element dropped, the family reports violations."""
    from taufact.properties import Evaluator

    scope = [a for a in range(-30, 31) if abs(a) > 1]

    def violated():
        entries, _ = run_entry(IntegersSpec(), FullTau(), scope=scope, cap=6)
        return [
            e for e in entries
            if e.theorem == "split-equivalences" and e.outcome == "violated"
        ]

    assert violated() == []
    u_pool = Evaluator.u_pool
    monkeypatch.setattr(Evaluator, "u_pool", lambda self, a: u_pool(self, a)[:-1])
    assert violated()
