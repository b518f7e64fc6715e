import pytest

from taufact import (
    AssociateKind,
    UDomainError,
    Factorization,
    FullTau,
    PreconditionError,
    RegCapTau,
    build_tau,
    enumerate_factorizations,
    phi,
    phi_inverse,
    u_partitions,
)
from taufact import ufact
from taufact.parsing import build_ring_from_text
from conftest import small_finite_rings
from oracles import oracle_u_partitions, oracle_validate_u_factorization


def test_two_way_split_example(z6):
    f = Factorization(ring=z6, unit=1, factors=(2, 4), target=2)
    parts = u_partitions(z6, f)
    shapes = {(p.inessential, p.essential) for p in parts}
    # the all-essential split fails: dropping 2 leaves (4) = (2*4)
    assert shapes == {((4,), (2,)), ((2,), (4,))}
    for p in parts:
        assert oracle_validate_u_factorization(p) is None


def test_trivial_forced_split(z6):
    f = Factorization(ring=z6, unit=5, factors=(2,), target=4)
    parts = u_partitions(z6, f)
    assert len(parts) == 1
    assert parts[0].inessential == () and parts[0].essential == (2,)


def test_regular_factors_all_essential(zz):
    f = Factorization(ring=zz, unit=(1, 1), factors=((2, 1), (3, 1)), target=(6, 1))
    parts = u_partitions(zz, f)
    assert len(parts) == 1
    assert parts[0].inessential == ()
    assert set(parts[0].essential) == {(2, 1), (3, 1)}


def test_phi_inverse_roundtrip(zz, z6):
    rc = build_tau(RegCapTau(FullTau()), zz)
    f = Factorization(ring=zz, unit=(1, 1), factors=((2, 1), (3, 1)), target=(6, 1))
    u = phi_inverse(zz, rc, f)
    assert u.inessential == ()
    assert phi(u).factors == f.factors and phi(u).unit == f.unit
    assert phi_inverse(zz, rc, phi(u)) == u
    # trivial case
    rc6 = build_tau(RegCapTau(FullTau()), z6)
    t = Factorization(ring=z6, unit=5, factors=(2,), target=4)
    assert phi_inverse(z6, rc6, t).essential == (2,)


def test_phi_inverse_domain_checks(z6):
    full = build_tau(FullTau(), z6)
    # nontrivial factorization with zero-divisor factors under a relation
    # that is not regular-restricted: refused
    f = Factorization(ring=z6, unit=1, factors=(2, 4), target=2)
    with pytest.raises(PreconditionError):
        phi_inverse(z6, full, f)


def test_phi_inverse_rejects_inessential_factor(zz):
    # (2,1)*(1,2)*(2,2) with the redundant pair: make a factorization whose
    # all-essential split genuinely violates the dropped-factor condition
    # by feigning regular factors through the precondition's explicit branch
    f = Factorization(ring=zz, unit=(1, 1), factors=((2, 1), (1, 2)), target=(2, 2))
    # all factors regular: allowed; and both are essential, so this passes
    u = phi_inverse(zz, build_tau(FullTau(), zz), f)
    assert set(u.essential) == {(1, 2), (2, 1)} and u.inessential == ()


def test_splits_revalidate_everywhere():
    for ring in small_finite_rings()[:6]:
        tau = build_tau(FullTau(), ring)
        for a in ring.nonunits():
            fs = enumerate_factorizations(ring, tau, a, AssociateKind.STRONG, cap=4)
            for f in fs.items:
                for u in u_partitions(ring, f):
                    assert oracle_validate_u_factorization(u) is None
                    assert phi(u).target == a


def test_restricted_relation_splits_all_essential():
    for ring in small_finite_rings()[:6]:
        tau = build_tau(RegCapTau(FullTau()), ring)
        for a in ring.nonunits():
            fs = enumerate_factorizations(ring, tau, a, AssociateKind.STRONG, cap=4)
            for f in fs.items:
                for u in u_partitions(ring, f):
                    assert u.inessential == ()


def test_phi_inverse_flags_nonessential_factor(z6):
    # feeding the inverse a factorization that is not actually within the
    # restricted relation's domain trips the essentiality check
    rc = build_tau(RegCapTau(FullTau()), z6)
    f = Factorization(ring=z6, unit=1, factors=(2, 4), target=2)
    with pytest.raises(UDomainError):
        phi_inverse(z6, rc, f)


def _small_cases(spec):
    """The small rings' non-units under one relation at cap 4."""
    return [(ring, spec, ring.nonunits(), 4) for ring in small_finite_rings()[:6]]


def _repeated_factor_cases():
    """Targets whose factorizations repeat factors, up to six times, under
    full at cap 6: the nonzero non-units of prod(Zn(6),Zn(4)) and of
    prod(Zn(8),Zn(2)), where (2,1), (4,1) and (0,1) are three ideals, so a
    product off by one copy of (2,1) shows, and a box of regular elements
    of prod(Z,Z)."""
    finite = [build_ring_from_text(text) for text in ("prod(Zn(6),Zn(4))", "prod(Zn(8),Zn(2))")]
    zz = build_ring_from_text("prod(Z,Z)")
    box = [(a, b) for a in (4, 6, 8, 12) for b in (4, 6, 8, 12)]
    return [(ring, FullTau(), ring.nonzero_nonunits(), 6) for ring in finite] + [(zz, FullTau(), box, 6)]


def _split_mismatches(cases):
    """(ring, factorization) wherever ``u_partitions`` and the oracle's
    splits differ as sets, over the cases' enumerations."""
    out = []
    for ring, spec, targets, cap in cases:
        tau = build_tau(spec, ring)
        for a in targets:
            fs = enumerate_factorizations(ring, tau, a, AssociateKind.STRONG, cap=cap)
            for f in fs.items:
                got = {(u.inessential, u.essential) for u in u_partitions(ring, f)}
                if got != oracle_u_partitions(ring, f):
                    out.append((ring.spec_string(), f))
    return out


def test_splits_match_oracle():
    for spec in (FullTau(), RegCapTau(FullTau())):
        assert _split_mismatches(_small_cases(spec)) == [], spec


def test_splits_match_oracle_on_repeated_factors():
    cases = _repeated_factor_cases()
    for ring, spec, targets, cap in cases:
        tau = build_tau(spec, ring)
        # the cases reach the split table's deeper entries
        assert any(
            max(f.factors.count(x) for x in f.factors) >= 3
            for a in targets
            for f in enumerate_factorizations(ring, tau, a, AssociateKind.STRONG, cap=cap).items
        ), ring.spec_string()
    assert _split_mismatches(cases) == []


@pytest.mark.parametrize(
    "fault",
    [
        lambda ring, x, p: True,
        # (x*p) <= (p), which always holds, instead of (p) <= (x*p)
        lambda ring, x, p: not ring.cofactors(ring.mul(x, p), p).is_empty(),
        lambda ring, x, p: False,
    ],
    ids=["always-fixed", "wrong-inclusion", "never-fixed"],
)
def test_split_oracle_sees_a_wrong_ideal_test(monkeypatch, fault):
    """A wrong essentiality test, whether it drops valid splits or admits
    bad ones, makes the split comparison fail."""
    monkeypatch.setattr(ufact, "_ideal_fixed", fault)
    assert _split_mismatches(_small_cases(FullTau()))
