import itertools

import pytest

from taufact import (
    AssociateKind,
    ComaximalTau,
    Flag,
    FullTau,
    IrreducibleKind,
    PreconditionError,
    RegCapTau,
    ZeroProductTau,
    build_tau,
    classify,
    hierarchy_violations,
    tau_r_atom,
)
from conftest import small_finite_rings
from oracles import oracle_ring_predicates

I, S, M, U, V = (
    IrreducibleKind.IRREDUCIBLE,
    IrreducibleKind.STRONG,
    IrreducibleKind.M,
    IrreducibleKind.UNREFINABLE,
    IrreducibleKind.VERY_STRONG,
)


def flags_of(ring, tauspec, a, cap=6):
    p = classify(ring, build_tau(tauspec, ring), a, cap=cap)
    return {k: v for k, v in p.flags.items()}


def test_z6_full_profile(z6):
    flags = flags_of(z6, FullTau(), 2)
    assert flags[I] == Flag.TRUE
    assert flags[S] == Flag.TRUE
    assert flags[M] == Flag.TRUE
    assert flags[U] == Flag.FALSE  # 2 = 5*2*2 is a nontrivial factorization
    assert flags[V] == Flag.FALSE  # 2 = 4*2 with 4 not a unit, so 2 is not self-very


def test_z6_zero_relation_profile(z6):
    # only the trivial factorizations exist, but 2 is not very strongly
    # self-associate (2 = 4*2), so four flags hold and the fifth fails
    flags = flags_of(z6, ZeroProductTau(), 2)
    assert [flags[k] for k in (I, S, M, U)] == [Flag.TRUE] * 4
    assert flags[V] == Flag.FALSE


def test_idempotent_under_restriction(f3xf3):
    flags = flags_of(f3xf3, RegCapTau(FullTau()), (1, 0))
    assert flags[U] == Flag.TRUE
    assert flags[V] == Flag.FALSE


def test_units_rejected(z6):
    with pytest.raises(PreconditionError):
        classify(z6, build_tau(FullTau(), z6), 5)


def test_hierarchy_exhaustive():
    for ring in small_finite_rings():
        # the M => strong arrow rests on the ring being strongly associate
        assert oracle_ring_predicates(ring)["strongly_associate"], ring
        for spec in (FullTau(), ZeroProductTau(), ComaximalTau(), RegCapTau(FullTau())):
            tau = build_tau(spec, ring)
            for a in ring.nonunits():
                p = classify(ring, tau, a, cap=5)
                assert hierarchy_violations(p) == [], (
                    ring.spec_string(),
                    spec,
                    a,
                    p.flags,
                )


def test_presimplifiable_collapse_observed(z4):
    # quasi-local: all five flavors coincide on nonzero non-units
    assert oracle_ring_predicates(z4)["presimplifiable"]
    tau = build_tau(FullTau(), z4)
    for a in z4.nonzero_nonunits():
        p = classify(z4, tau, a, cap=6)
        decided = {p[k] for k in (I, S, M, U, V)}
        assert len(decided) == 1


def test_atom_flag_matches_oracle():
    # the irreducible flag's "exists an atomic factorization" reading is
    # cross-checked in test_properties; here the flag itself vs raw quantifier
    for ring in small_finite_rings()[:5]:
        tau = build_tau(FullTau(), ring)
        sharp = ring.nonzero_nonunits()
        units = set(ring.units())
        for a in ring.nonunits():
            p = classify(ring, tau, a, cap=4)
            if p[I] == Flag.UNKNOWN:
                continue
            # raw check: every factor multiset up to 4 with the right product
            # has a factor generating (a)
            ok = True
            unit_multiples = {ring.mul(ring.unit_inverse(u), a) for u in units}
            for k in range(2, 5):
                for combo in itertools.combinations_with_replacement(sharp, k):
                    if ring.product(combo) in unit_multiples:
                        if not any(
                            ring.associated(a, x, AssociateKind.ASSOCIATE) for x in combo
                        ):
                            ok = False
                            break
                if not ok:
                    break
            assert (p[I] == Flag.TRUE) == ok, (ring.spec_string(), a)


def test_tau_r_atom_examples(zz, zint):
    full = build_tau(FullTau(), zz)
    res = tau_r_atom(zz, full, (2, 1))
    assert res.is_atom and res.conditions == (True,) * 5
    res = tau_r_atom(zz, full, (4, 1))
    assert not res.is_atom and res.conditions == (False,) * 5
    assert tau_r_atom(zint, build_tau(FullTau(), zint), 7).is_atom


def test_tau_r_atom_five_way_equivalence(zz, zint):
    full_zz = build_tau(FullTau(), zz)
    for a in [(x, y) for x in range(2, 8) for y in range(1, 8)]:
        if zz.is_unit(a):
            continue
        res = tau_r_atom(zz, full_zz, a)
        assert len(set(res.conditions)) == 1, (a, res.conditions)
    full_z = build_tau(FullTau(), zint)
    for a in range(2, 40):
        res = tau_r_atom(zint, full_z, a)
        assert len(set(res.conditions)) == 1
        assert res.is_atom == all(a % d for d in range(2, a))  # atom iff prime


def test_tau_r_atom_requires_regular(z6, zz):
    with pytest.raises(PreconditionError):
        tau_r_atom(z6, build_tau(FullTau(), z6), 2)  # zero divisor
    with pytest.raises(PreconditionError):
        tau_r_atom(zz, build_tau(FullTau(), zz), (2, 0))
