from dataclasses import replace
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
from taufact import properties
from taufact.corpus import DEFAULT_TAUS
from taufact.parsing import build_ring_from_text, build_tau_from_text
from taufact.properties import CATALOG_PROPS, Evaluator
from conftest import evaluator, small_finite_rings
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
    ffr = check_property(evaluator(z6, tau), PropertyId(PropKind.FFR, beta=A))
    assert ffr.outcome == "fails"
    assert ffr.witness is not None
    wffr = check_property(evaluator(z6, tau), PropertyId(PropKind.WFFR, beta=A))
    assert wffr.outcome == "holds"


def test_z6_bfr_fails_with_pump(z6):
    tau = build_tau(FullTau(), z6)
    v = check_property(evaluator(z6, tau), PropertyId(PropKind.BFR))
    assert v.outcome == "fails"


def test_accp_always_holds_with_bound():
    for ring in small_finite_rings():
        for spec in (FullTau(), ZeroProductTau(), ComaximalTau()):
            tau = build_tau(spec, ring)
            v = check_property(evaluator(ring, tau), PropertyId(PropKind.ACCP))
            assert v.outcome == "holds"
            assert v.bound is not None and v.bound >= 1


def test_atomicity_matches_oracle():
    for ring in small_finite_rings()[:5]:
        for spec in (FullTau(), ZeroProductTau()):
            tau = build_tau(spec, ring)
            v = check_property(evaluator(ring, tau, cap=4), PropertyId(PropKind.ATOMIC, alpha=IRR))
            expected = all(oracle_atomic(ring, tau, a, 4) for a in ring.nonunits())
            assert v.holds == expected, (ring.spec_string(), spec)


def test_regular_scope_vacuous_on_finite(f3xf3):
    tau = build_tau(FullTau(), f3xf3)
    v = check_property(
        evaluator(f3xf3, tau), PropertyId(PropKind.UFR, alpha=IRR, beta=A, scope=PropScope.REGULAR)
    )
    assert v.outcome == "holds" and "vacuous" in v.note


def test_integers_classical(zint):
    tau = build_tau(FullTau(), zint)
    scope = list(range(2, 101))
    ufr = check_property(
        evaluator(zint, tau, scope), PropertyId(PropKind.UFR, alpha=IRR, beta=A, scope=PropScope.REGULAR)
    )
    assert ufr.holds and ufr.scoped
    hfr = check_property(
        evaluator(zint, tau, scope), PropertyId(PropKind.HFR, alpha=IRR, scope=PropScope.REGULAR)
    )
    assert hfr.holds
    bfr = check_property(evaluator(zint, tau, scope), PropertyId(PropKind.BFR, scope=PropScope.REGULAR))
    assert bfr.holds and bfr.bound == 6  # 64 is out of scope, 2^6 is not reached; 96 = 2^5*3


def test_product_of_integers_ufr(zz):
    tau = build_tau(FullTau(), zz)
    scope = [(a, b) for a in range(1, 21) for b in range(1, 21)]
    v = check_property(
        evaluator(zz, tau, scope), PropertyId(PropKind.UFR, alpha=IRR, beta=A, scope=PropScope.REGULAR)
    )
    assert v.holds


def test_unbounded_mixed_product():
    """(4,3) = (2,3)^2 * (1,3)^k for every k: bounded-length fails in the
    product of the integers with Z/6."""
    from taufact import IntegersSpec, ModIntSpec, ProductSpec, build_ring

    ring = build_ring(ProductSpec(IntegersSpec(), ModIntSpec(6)))
    tau = build_tau(FullTau(), ring)
    v = check_property(evaluator(ring, tau, [(4, 3)], cap=6), PropertyId(PropKind.BFR))
    assert v.outcome == "fails"


def test_scope_zero_rejected(zint):
    tau = build_tau(FullTau(), zint)
    with pytest.raises(Exception):
        check_property(evaluator(zint, tau, [0, 2]), PropertyId(PropKind.BFR))


def test_infinite_ring_needs_scope(zint):
    tau = build_tau(FullTau(), zint)
    with pytest.raises(UnsupportedOperationError):
        check_property(evaluator(zint, tau), PropertyId(PropKind.BFR))


def test_elasticity_integers(zint):
    tau = build_tau(FullTau(), zint)
    el = elasticity(evaluator(zint, tau, list(range(2, 101))))
    assert el.value == Fraction(1)
    assert el.per_element[12] == Fraction(1)


def test_elasticity_empty_scope(z6):
    tau = build_tau(FullTau(), z6)
    el = elasticity(evaluator(z6, tau))
    assert el.value == "undefined-empty-scope"


def test_elasticity_product(zz):
    tau = build_tau(FullTau(), zz)
    el = elasticity(evaluator(zz, tau, [(a, b) for a in range(2, 21) for b in range(2, 21)]))
    assert el.value == Fraction(1)


def test_hfr_iff_atomic_and_elasticity_one(zint):
    tau = build_tau(FullTau(), zint)
    scope = list(range(2, 61))
    hfr = check_property(
        evaluator(zint, tau, scope), PropertyId(PropKind.HFR, alpha=IRR, scope=PropScope.REGULAR)
    )
    atomic = check_property(
        evaluator(zint, tau, scope), PropertyId(PropKind.ATOMIC, alpha=IRR, scope=PropScope.REGULAR)
    )
    el = elasticity(evaluator(zint, tau, scope))
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
                prop = PropertyId(kind, scope=scope, **kw)
                v = check_property(evaluator(ring, tau, prop=prop), prop)
                assert v.holds, (q, scope, kind)


def test_split_view_agrees_with_plain_view():
    """Every regular divisor is essential, so the regcap-u scope is the
    regcap-all scope read through the splits: each catalog property must
    agree with its twin in outcome and bound, on every finite default ring
    and relation and on the integers with their default scope."""
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
            ev = Evaluator(ring, tau.regcap(), spec["cap"], scope)
            for prop in CATALOG_PROPS:
                if prop.scope != PropScope.REGCAP_U:
                    continue
                split = check_property(ev, prop)
                twin = replace(prop, scope=PropScope.REGCAP)
                plain = check_property(ev, twin)
                assert (split.outcome, split.bound) == (plain.outcome, plain.bound), (
                    ring_str, tau_str, prop.label(),
                )
                pairs += 1
    assert pairs == 52 * 7 * 8


def _atomic_reading_props():
    for scope in PropScope:
        for alpha in IrreducibleKind:
            yield PropertyId(PropKind.ATOMIC, alpha=alpha, scope=scope)
            yield PropertyId(PropKind.HFR, alpha=alpha, scope=scope)
            yield PropertyId(PropKind.UFR, alpha=alpha, beta=A, scope=scope)


def test_hfr_and_ufr_add_no_atomic_outcomes(monkeypatch):
    """HFR and UFR read their atomicity prerequisite from the evaluator's
    ATOMIC verdict: deciding every ATOMIC, HFR and UFR cell of one
    evaluator asks for exactly the atomic outcomes that its ATOMIC cells
    alone ask for."""
    calls = []
    engine = properties._atomic_element
    monkeypatch.setattr(
        properties, "_atomic_element", lambda *args: calls.append(args[1:]) or engine(*args)
    )
    z = build_ring_from_text("Z")
    cases = [(ring, None, 4) for ring in small_finite_rings()]
    cases.append((z, [a for a in range(-30, 31) if abs(a) > 1], 6))
    props = list(_atomic_reading_props())
    atomic_only = [p for p in props if p.kind == PropKind.ATOMIC]
    for ring, scope, cap in cases:
        for text in DEFAULT_TAUS:
            tau = build_tau_from_text(text, ring)
            for side in (tau, tau.regcap()):
                asked = []
                for cells in (atomic_only, props):
                    del calls[:]
                    ev = Evaluator(ring, side, cap, scope)
                    for prop in cells:
                        ev.verdict(prop)
                    asked.append(sorted(map(repr, calls)))
                assert asked[0] == asked[1], (ring.spec_string(), text)


@pytest.mark.parametrize("tau_text", ["full", "comax"])
def test_very_strong_ffr_bound_equals_strong_in_a_domain(tau_text):
    """In Z the strong and very-strong associate classes coincide, so both
    FFR bounds must agree; the very-strong enumeration must run at the cap
    the strong one ran at, not at the evaluator's corpus cap."""
    ring = build_ring_from_text("Z")
    tau = build_tau_from_text(tau_text, ring)
    for scope in ([128], [384], [512], [12, 30, 96, 128, 384, 512, 720]):
        for sc in (PropScope.PLAIN, PropScope.REGCAP, PropScope.REGCAP_U):
            strong, very = (
                check_property(evaluator(ring, tau, scope, prop=p), p)
                for p in (
                    PropertyId(PropKind.FFR, beta=beta, scope=sc)
                    for beta in (AssociateKind.STRONG, AssociateKind.VERY_STRONG)
                )
            )
            assert strong.holds and very.holds, (scope, sc)
            assert very.bound == strong.bound, (scope, sc)


def _all_cells():
    """Every cell: each property kind with every alpha and beta it takes,
    in every scope."""
    for scope in PropScope:
        for kind in PropKind:
            alphas = IrreducibleKind if kind in properties._TAKES_ALPHA else (None,)
            betas = AssociateKind if kind in properties._TAKES_BETA else (None,)
            for alpha in alphas:
                for beta in betas:
                    yield PropertyId(kind, alpha, beta, scope)


class _Fresh(Evaluator):
    """An evaluator that decides every cell it is asked for, HFR's and
    UFR's atomicity prerequisite included, by ``check_property`` on the
    cell itself: no reading rule and no verdict memo."""

    def verdict(self, prop):
        return check_property(self, prop)


def _reading_cases():
    z, zz = build_ring_from_text("Z"), build_ring_from_text("prod(Z,Z)")
    cases = [(ring, None, 4) for ring in small_finite_rings()]
    cases.append((z, [a for a in range(-24, 25) if abs(a) > 1], 6))
    zz_scope = [(a, b) for a in (-2, 3, 4, 6) for b in (2, -3, 5)] + [(2, 0), (0, 3)]
    cases.append((zz, zz_scope, 6))
    return cases


def _reading_mismatches(cases):
    """The cells whose ``Evaluator.verdict`` differs from a fresh decision
    on one evaluator, under every default relation and under its
    restriction.  The reading rule holds on any one evaluator, so every
    cell is read on both, whichever relation its scope names."""
    cells = list(_all_cells())
    for ring, scope, cap in cases:
        for text in DEFAULT_TAUS:
            tau = build_tau_from_text(text, ring)
            for side in (tau, tau.regcap()):
                memo, fresh = Evaluator(ring, side, cap, scope), _Fresh(ring, side, cap, scope)
                for prop in cells:
                    if memo.verdict(prop) != check_property(fresh, prop):
                        yield ring.spec_string(), side.spec_string(), prop.label()


def test_every_cell_matches_a_fresh_decision():
    """``Evaluator.verdict`` reads a strong cell as its associate twin and
    a ``regcap-all`` cell as its ``plain`` twin; every cell still equals
    ``check_property`` on a fresh evaluator that applies no reading rule."""
    assert sum(1 for _ in _all_cells()) == 4 * (5 + 1 + 1 + 3 + 3 + 15 + 5 + 15)
    assert list(_reading_mismatches(_reading_cases())) == []


@pytest.mark.parametrize(
    "also",
    [PropScope.REGCAP_U, PropScope.REGULAR, AssociateKind.VERY_STRONG],
    ids=["regcap-u", "regular-elements", "very-strong"],
)
def test_fresh_decisions_see_a_wider_reading_rule(monkeypatch, also):
    """A reading rule that also reads ``regcap-u`` or ``regular-elements``
    as ``plain``, or very-strong cells as associate ones, makes some cell
    differ from its fresh decision on the small finite rings."""
    engine = PropertyId.reading

    def wider(prop):
        if prop.scope == also:
            return engine(replace(prop, scope=PropScope.PLAIN))
        if prop.beta == also:
            return engine(replace(prop, beta=A))
        return engine(prop)

    monkeypatch.setattr(PropertyId, "reading", wider)
    cases = [(ring, None, 4) for ring in small_finite_rings()]
    assert next(_reading_mismatches(cases), None) is not None


def test_a_failed_chain_is_raised_again():
    """A divisor chain whose search raised leaves no entry behind: a second
    read raises again instead of reading a chain of height 1."""
    ring = build_ring_from_text("prod(Z,Z)")
    ev = Evaluator(ring, build_tau(FullTau(), ring), scope=[(2, 0)])
    for _ in range(2):
        with pytest.raises(UnsupportedOperationError):
            ev.chain_bound((2, 0), False)


def test_a_failed_enumeration_is_raised_again_without_rerunning(monkeypatch):
    """An axis element of prod(Z,Z) has infinitely many divisors: every
    call raises a fresh error with the first one's message, and the
    enumeration runs once."""
    calls = []
    engine = properties.enumerate_factorizations
    monkeypatch.setattr(
        properties, "enumerate_factorizations", lambda *a, **k: calls.append(1) or engine(*a, **k)
    )
    ring = build_ring_from_text("prod(Z,Z)")
    ev = Evaluator(ring, build_tau(FullTau(), ring), scope=[(2, 0)])
    errors = []
    for _ in range(3):
        with pytest.raises(UnsupportedOperationError) as info:
            ev.fs((2, 0))
        errors.append(info.value)
    assert len(calls) == 1
    assert len({str(e) for e in errors}) == 1 and "infinite" in str(errors[0])
    assert len({id(e) for e in errors}) == 3
