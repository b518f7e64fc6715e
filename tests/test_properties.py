from fractions import Fraction

import pytest

from taufact import (
    AssociateKind,
    ComaximalTau,
    FullTau,
    IrreducibleKind,
    PropKind,
    PropScope,
    PropertyId,
    UnsupportedOperationError,
    ZeroProductTau,
    build_tau,
    check_property,
    elasticity,
)
from conftest import small_finite_rings
from oracles import oracle_atomic

IRR = IrreducibleKind.IRREDUCIBLE
A = AssociateKind.ASSOCIATE


def test_property_id_parameter_validation():
    with pytest.raises(ValueError):
        PropertyId(PropKind.BFR, alpha=IRR)
    with pytest.raises(ValueError):
        PropertyId(PropKind.FFR)  # missing beta
    with pytest.raises(ValueError):
        PropertyId(PropKind.ATOMIC, alpha=IRR, beta=A)


def test_z6_strictness_pair(z6):
    """The weak finite-factorization property holds while the plain one
    fails, witnessing strictness of the implication between them."""
    tau = build_tau(FullTau(), z6)
    ffr = check_property(z6, tau, PropertyId(PropKind.FFR, beta=A))
    assert ffr.outcome == "fails"
    assert ffr.witness is not None
    wffr = check_property(z6, tau, PropertyId(PropKind.WFFR, beta=A))
    assert wffr.outcome == "holds"


def test_z6_bfr_fails_with_pump(z6):
    tau = build_tau(FullTau(), z6)
    v = check_property(z6, tau, PropertyId(PropKind.BFR))
    assert v.outcome == "fails"


def test_accp_always_holds_with_bound():
    for ring in small_finite_rings():
        for spec in (FullTau(), ZeroProductTau(), ComaximalTau()):
            tau = build_tau(spec, ring)
            v = check_property(ring, tau, PropertyId(PropKind.ACCP))
            assert v.outcome == "holds"
            assert v.bound is not None and v.bound >= 1


def test_atomicity_matches_oracle():
    for ring in small_finite_rings()[:5]:
        for spec in (FullTau(), ZeroProductTau()):
            tau = build_tau(spec, ring)
            v = check_property(
                ring, tau, PropertyId(PropKind.ATOMIC, alpha=IRR), cap=4
            )
            expected = all(oracle_atomic(ring, tau, a, 4) for a in ring.nonunits())
            assert v.holds == expected, (ring.spec_string(), spec)


def test_regular_scope_vacuous_on_finite(f3xf3):
    tau = build_tau(FullTau(), f3xf3)
    v = check_property(
        f3xf3, tau, PropertyId(PropKind.UFR, alpha=IRR, beta=A, scope=PropScope.REGULAR)
    )
    assert v.outcome == "holds" and "vacuous" in v.note


def test_integers_classical(zint):
    tau = build_tau(FullTau(), zint)
    scope = list(range(2, 101))
    ufr = check_property(
        zint, tau, PropertyId(PropKind.UFR, alpha=IRR, beta=A, scope=PropScope.REGULAR),
        scope_elements=scope,
    )
    assert ufr.holds and ufr.scoped
    hfr = check_property(
        zint, tau, PropertyId(PropKind.HFR, alpha=IRR, scope=PropScope.REGULAR),
        scope_elements=scope,
    )
    assert hfr.holds
    bfr = check_property(
        zint, tau, PropertyId(PropKind.BFR, scope=PropScope.REGULAR), scope_elements=scope
    )
    assert bfr.holds and bfr.bound == 6  # 64 is out of scope, 2^6 is not reached; 96 = 2^5*3


def test_product_of_integers_ufr(zz):
    tau = build_tau(FullTau(), zz)
    scope = [(a, b) for a in range(1, 21) for b in range(1, 21)]
    v = check_property(
        zz, tau, PropertyId(PropKind.UFR, alpha=IRR, beta=A, scope=PropScope.REGULAR),
        scope_elements=scope,
    )
    assert v.holds


def test_unbounded_mixed_product():
    """(4,3) = (2,3)^2 * (1,3)^k for every k: bounded-length fails in the
    product of the integers with Z/6."""
    from taufact import IntegersSpec, ModIntSpec, ProductSpec, build_ring

    ring = build_ring(ProductSpec(IntegersSpec(), ModIntSpec(6)))
    tau = build_tau(FullTau(), ring)
    v = check_property(
        ring, tau, PropertyId(PropKind.BFR), scope_elements=[(4, 3)], cap=6
    )
    assert v.outcome == "fails"


def test_scope_zero_rejected(zint):
    tau = build_tau(FullTau(), zint)
    with pytest.raises(Exception):
        check_property(zint, tau, PropertyId(PropKind.BFR), scope_elements=[0, 2])


def test_infinite_ring_needs_scope(zint):
    tau = build_tau(FullTau(), zint)
    with pytest.raises(UnsupportedOperationError):
        check_property(zint, tau, PropertyId(PropKind.BFR))


def test_elasticity_integers(zint):
    tau = build_tau(FullTau(), zint)
    el = elasticity(zint, tau, scope_elements=list(range(2, 101)))
    assert el.value == Fraction(1)
    assert el.per_element[12] == Fraction(1)


def test_elasticity_empty_scope(z6):
    tau = build_tau(FullTau(), z6)
    el = elasticity(z6, tau)
    assert el.value == "undefined-empty-scope"


def test_elasticity_product(zz):
    tau = build_tau(FullTau(), zz)
    el = elasticity(zz, tau, scope_elements=[(a, b) for a in range(2, 21) for b in range(2, 21)])
    assert el.value == Fraction(1)


def test_hfr_iff_atomic_and_elasticity_one(zint):
    tau = build_tau(FullTau(), zint)
    scope = list(range(2, 61))
    hfr = check_property(
        zint, tau, PropertyId(PropKind.HFR, alpha=IRR, scope=PropScope.REGULAR),
        scope_elements=scope,
    )
    atomic = check_property(
        zint, tau, PropertyId(PropKind.ATOMIC, alpha=IRR, scope=PropScope.REGULAR),
        scope_elements=scope,
    )
    el = elasticity(zint, tau, scope_elements=scope)
    assert hfr.holds == (atomic.holds and el.value == Fraction(1))


def test_restricted_scope_properties_hold_on_squares_of_fields():
    from taufact import ModIntSpec, ProductSpec, build_ring

    for q in (3, 5, 7):
        ring = build_ring(ProductSpec(ModIntSpec(q), ModIntSpec(q)))
        tau = build_tau(FullTau(), ring)
        for scope in (PropScope.REGCAP, PropScope.REGCAP_U):
            for kind, kw in (
                (PropKind.ATOMIC, dict(alpha=IrreducibleKind.UNREFINABLE)),
                (PropKind.UFR, dict(alpha=IRR, beta=AssociateKind.STRONG)),
                (PropKind.BFR, dict()),
            ):
                v = check_property(ring, tau, PropertyId(kind, scope=scope, **kw))
                assert v.holds, (q, scope, kind)


def test_split_view_agrees_with_plain_view():
    """Every regular divisor is essential, so the regcap-u scope is the
    regcap-all scope read through the splits: each catalog property must
    agree with its twin in outcome and bound, on every finite default ring
    and relation and on the integers with their default scope."""
    from dataclasses import replace

    from taufact.cli import _CATALOG_PROPS
    from taufact.corpus import default_corpus_spec
    from taufact.parsing import build_ring_from_text, build_tau_from_text
    from taufact.properties import Evaluator

    spec = default_corpus_spec()
    pairs = 0
    for ring_str in spec["rings"]:
        ring = build_ring_from_text(ring_str)
        if not ring.is_finite and ring_str != "Z":
            continue
        scope = spec["scopes"].get(ring_str)
        if scope is not None:
            scope = [ring.element_from_json(e) for e in scope]
        for tau_str in spec["taus"]:
            tau = build_tau_from_text(tau_str, ring)
            ev = Evaluator(ring, tau.regcap(), spec["cap"])
            for prop in _CATALOG_PROPS:
                if prop.scope != PropScope.REGCAP_U:
                    continue
                split = check_property(ring, tau, prop, scope, spec["cap"], evaluator=ev)
                twin = replace(prop, scope=PropScope.REGCAP)
                plain = check_property(ring, tau, twin, scope, spec["cap"], evaluator=ev)
                assert (split.outcome, split.bound) == (plain.outcome, plain.bound), (
                    ring_str, tau_str, prop.label(),
                )
                pairs += 1
    assert pairs == 52 * 7 * 8
