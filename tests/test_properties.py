import pickle
from dataclasses import replace
from fractions import Fraction

import pytest

from taufact import (
    AssociateKind,
    ComaximalTau,
    Flag,
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
from taufact import factor, properties
from taufact.corpus import DEFAULT_TAUS
from taufact.parsing import build_ring_from_text, build_tau_from_text
from taufact.properties import CATALOG_PROPS, Evaluator
from taufact.theorems import _CELLS
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


def test_elasticity_notes_a_capped_enumeration(monkeypatch, zint):
    """An element whose search stopped at its cap gives no ratio, and the
    note says so: 2^7 under a default cap one lower."""
    engine = factor.default_cap
    monkeypatch.setattr(factor, "default_cap", lambda ring, tau, a: engine(ring, tau, a) - 1)
    el = elasticity(evaluator(zint, build_tau(FullTau(), zint), [128, 6]))
    assert (el.value, el.per_element, el.note) == (Fraction(1), {6: Fraction(1)}, "some elements undecided at cap")


def test_elasticity_notes_an_unknown_atomic_flag(monkeypatch, zint):
    """An element whose own search is complete gives no ratio when a factor
    of it has an atomic flag unknown at its cap, and the note says so: under
    ``subset[2,8]`` the search of 8 = 2*2*2 stops at cap 2, so 8 is not
    known to be irreducible, and 16 = 2*8 = 2*2*2*2 is undecided."""
    engine = factor.default_cap
    monkeypatch.setattr(factor, "default_cap", lambda ring, tau, a: 2 if abs(a) == 8 else engine(ring, tau, a))
    ev = evaluator(zint, build_tau_from_text("subset[2,8]", zint), [16, 6])
    assert ev.exhaustive(16) and ev.atom_flag(8, IRR) == Flag.UNKNOWN
    el = elasticity(ev)
    assert (el.value, el.per_element, el.note) == (Fraction(1), {6: Fraction(1)}, "some atomic flags unknown at cap")


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


def test_every_checker_cell_reads_hashes_and_memoizes_as_a_fresh_one():
    """Every cell ``EntryChecker.prop`` can return (one object per equal
    cell) reads as the cell ``replace`` builds by the reading rule, hashes
    as a freshly built equal cell, and that fresh cell finds the same
    ``Evaluator.verdict`` memo entry."""
    cells = set(_CELLS.values())
    assert len(cells) == len(list(_all_cells())) and len({id(c) for c in _CELLS.values()}) == len(cells)
    ring = build_ring_from_text("Zn(6)")
    ev = Evaluator(ring, build_tau_from_text("full", ring), 4)
    for cell in cells:
        beta = A if cell.beta == AssociateKind.STRONG else cell.beta
        assert cell.reading() == replace(cell, beta=beta, scope=cell.scope.reading), cell
        fresh = PropertyId(cell.kind, cell.alpha, cell.beta, cell.scope)
        assert fresh == cell and hash(fresh) == hash(cell) == hash(pickle.loads(pickle.dumps(cell)))
        got = ev.verdict(cell)
        size = len(ev._verdicts)
        assert ev.verdict(fresh) is got and len(ev._verdicts) == size


def test_enum_keys_hash_by_identity():
    """The enums that key the hot memos hash by identity, which is sound as
    members are singletons compared by identity; that no output depends on
    the hash is pinned by ``tests/test_cli.py::test_output_does_not_depend_on_the_hash_seed``."""
    for cls in (PropKind, PropScope, IrreducibleKind, Flag):
        assert cls.__hash__ is object.__hash__, cls


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


# ---------------------------------------------------------------------------
# Associate orbits


class _PerElement(Evaluator):
    """An evaluator with no orbit map: every element does its own work."""

    def _orbit_map(self):
        return {}


def _attempt(read):
    """``read()``, or the message of the error it raised."""
    try:
        return read()
    except UnsupportedOperationError as exc:
        return ("raises", str(exc))


def _orbit_cases():
    """Every small finite ring, and ``Z`` and ``prod(Z,Z)`` over scopes that
    hold whole associate orbits (axis elements included)."""
    z, zz = build_ring_from_text("Z"), build_ring_from_text("prod(Z,Z)")
    cases = [(ring, None, 4) for ring in small_finite_rings()]
    cases.append((z, [a for a in range(-24, 25) if abs(a) > 1], 6))
    zz_scope = [(a, b) for a in (-2, 2, 3, 4, -4, 6) for b in (2, -2, -3, 5)]
    cases.append((zz, zz_scope + [(2, 0), (-2, 0), (0, 3), (0, -3)], 6))
    return cases


def _orbit_mismatches(cases, taus=DEFAULT_TAUS, shared_class=Evaluator):
    """What an evaluator with orbit sharing reads differently from one with
    no orbit map, under each relation and its restriction: a profile (of
    every domain element, and on a finite ring of every non-unit), an
    element outcome's status and bound (every cell, every element of its
    domain), a verdict, or refinability."""
    cells = list(_all_cells())
    for ring, scope, cap in cases:
        for text in taus:
            tau = build_tau_from_text(text, ring)
            for side in (tau, tau.regcap()):
                shared, fresh = shared_class(ring, side, cap, scope), _PerElement(ring, side, cap, scope)
                where = (ring.spec_string(), side.spec_string())
                domain = shared.domain()[0]
                for a in dict.fromkeys(domain + (ring.nonunits() if ring.is_finite else [])):
                    if _attempt(lambda: shared.profile(a).flags) != _attempt(lambda: fresh.profile(a).flags):
                        yield *where, "profile", a
                for prop in cells:
                    for a in shared.domain(prop.scope == PropScope.REGULAR)[0]:
                        outcomes = [
                            _attempt(lambda: (lambda o: (o.status, o.bound))(properties._element_outcome(ev, prop, a)))
                            for ev in (shared, fresh)
                        ]
                        if outcomes[0] != outcomes[1]:
                            yield *where, prop.label(), a
                    if _attempt(lambda: shared.verdict(prop)) != _attempt(lambda: fresh.verdict(prop)):
                        yield *where, prop.label(), "verdict"
                if shared.refinable() != fresh.refinable():
                    yield *where, "refinable"


def test_orbit_sharing_matches_per_element_work():
    """Every profile, element outcome, verdict (witness and notes included)
    and refinability answer of an evaluator that shares work across
    associate orbits equals that of one with no orbit map, under the
    default relations and their restrictions; the scopes hold associates,
    so sharing happens."""
    sharing = set()
    for ring, scope, cap in _orbit_cases():
        ev = Evaluator(ring, build_tau(FullTau(), ring), cap, scope)
        domain = ev.domain()[0]
        if len({ev.orbit(a) for a in domain}) < len(domain):
            sharing.add(ring.spec_string())
    assert {"Z", "prod(Z,Z)", "Zn(6)", "prod(Zn(3),Zn(3))", "GFq(3,[0,0,1])"} <= sharing
    assert list(_orbit_mismatches(_orbit_cases())) == []


def test_orbit_comparison_sees_a_representative_trivial_factor(monkeypatch):
    """IDF counts the element's own trivial factor, the one atom that is no
    orbit invariant under a very-strong key: reading the representative's
    makes some outcome differ from per-element work.  On ``Z/6`` under
    ``full`` the orbit {2, 4} has the factorizations 2*2 and 2*2*2 (and
    2 = 2*4, so neither is very strongly associate to itself): 4's atoms 4
    and 2 make two very-strong classes, its representative 2's one."""
    engine = properties._idf_element
    monkeypatch.setattr(
        properties, "_idf_element", lambda ev, view, a, alpha, beta: engine(ev, view, ev.orbit(a), alpha, beta)
    )
    cases = [(ring, None, 4) for ring in small_finite_rings()]
    assert next(_orbit_mismatches(cases, taus=["full"]), None) is not None


def test_subset_relations_share_orbits():
    """A ``subset`` relation is not associate-stable, yet it shares orbits
    like any other: the orbit argument reads the relation only on factors,
    which associates share (README, "Design notes")."""
    z = build_ring_from_text("Z")
    scope = [a for a in range(-24, 25) if abs(a) > 1]
    taus = ["subset[2,4]", "subset[-2,4,8]", "subset[2,3,6]"]
    assert list(_orbit_mismatches([(z, scope, 6)], taus)) == []
    # units move 2 to 4 but subset[2] relates only 2 with itself
    z6 = build_ring_from_text("Zn(6)")
    assert list(_orbit_mismatches([(z6, None, 4)], ["subset[2]", "subset[2,4]"])) == []
