"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The default corpus is fixed by the library; scoped verdicts quantify over the
corpus scopes only.  Stated time budgets are printed with each line and
asserted with slack for slower machines.
"""

import hashlib
import json
import time
from fractions import Fraction

import pytest

from taufact import (
    AssociateKind,
    ElementClass,
    Factorization,
    Flag,
    FullTau,
    IrreducibleKind,
    ModIntSpec,
    ProductSpec,
    PropKind,
    PropScope,
    PropertyId,
    RegCapTau,
    UnsupportedOperationError,
    build_ring,
    build_tau,
    check_property,
    classify,
    elasticity,
    enumerate_factorizations,
    hierarchy_violations,
    tau_r_atom,
)
from taufact import factor
from taufact.cli import run_verification
from taufact.corpus import default_corpus_spec, generate_corpus
from taufact.parsing import build_ring_from_text
from taufact.properties import Evaluator
from conftest import evaluator
from oracles import oracle_classes_fast, oracle_validate_factorization

A, S, V = AssociateKind.ASSOCIATE, AssociateKind.STRONG, AssociateKind.VERY_STRONG
IRR = IrreducibleKind.IRREDUCIBLE
TIME_SLACK = 4.0  # budgets assume a desktop; allow slower machines


def _line(capsys, name, ok, elapsed, budget=None, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        b = f" / budget {budget:.0f}s" if budget else ""
        d = f" - {detail}" if detail else ""
        print(f"[acceptance] {name}: {status} ({elapsed:.1f}s{b}){d}", flush=True)


@pytest.fixture(scope="session")
def corpus_entries():
    return generate_corpus(default_corpus_spec())


def test_criterion_01_oracle_equivalence(corpus_entries, capsys):
    """Naive multiset oracle agrees with the engine after canonicalization,
    on every finite corpus ring with at most 36 elements, for every
    relation, every non-unit, up to length 5."""
    entries, _ = corpus_entries
    t0 = time.time()
    discrepancies = []
    seen = set()
    for ce in entries:
        if not ce.ring.is_finite or ce.ring.order > 36:
            continue
        key = (ce.ring_str, ce.tau_str)
        if key in seen:
            continue
        seen.add(key)
        oracle = oracle_classes_fast(ce.ring, ce.tau, 5, A)
        for a in ce.ring.nonunits():
            fs = enumerate_factorizations(ce.ring, ce.tau, a, A, cap=5)
            if set(fs.classes.keys()) != oracle[a]:
                discrepancies.append((ce.ring_str, ce.tau_str, a))
    elapsed = time.time() - t0
    ok = not discrepancies and elapsed < 120 * TIME_SLACK
    _line(capsys, "1 oracle-equivalence", ok, elapsed, 120, f"{len(seen)} (ring, tau) pairs")
    assert discrepancies == []
    assert elapsed < 120 * TIME_SLACK


def test_criterion_02_hierarchy(corpus_entries, capsys):
    """The five-flavor irreducibility hierarchy holds for every decided
    (ring, relation, non-unit) triple in the corpus."""
    entries, _ = corpus_entries
    t0 = time.time()
    violations = []
    checked = skipped = 0
    for ce in entries:
        ring, tau = ce.ring, ce.tau
        ev = Evaluator(ring, tau, 6)
        domain = ce.scope if ce.scope is not None else ring.nonunits()
        for a in domain:
            if ring.is_unit(a):
                continue
            try:
                profile = ev.profile(a)
            except UnsupportedOperationError:
                skipped += 1
                continue
            if hierarchy_violations(profile):
                violations.append((ce.ring_str, ce.tau_str, a))
            checked += 1
    elapsed = time.time() - t0
    ok = not violations and elapsed < 60 * TIME_SLACK
    _line(
        capsys, "2 irreducibility-hierarchy", ok, elapsed, 60,
        f"{checked} triples, {skipped} skipped",
    )
    assert violations == []
    assert elapsed < 60 * TIME_SLACK


def test_criterion_03_five_way_equivalence(capsys):
    """The five atom characterizations agree on every regular non-unit
    tested over the integer scopes (at least 500 elements)."""
    t0 = time.time()
    spec = default_corpus_spec()
    disagreements = []
    tested = 0
    for ring_str in ("Z", "prod(Z,Z)"):
        from taufact import build_ring_from_text

        ring = build_ring_from_text(ring_str)
        tau = build_tau(FullTau(), ring)
        ev = Evaluator(ring, tau, 6)
        for ej in spec["scopes"][ring_str]:
            a = ring.element_from_json(ej)
            if ring.classify(a) != ElementClass.REGULAR_NON_UNIT:
                continue
            res = tau_r_atom(ring, tau, a, fs=ev.fs(a))
            if len(set(res.conditions)) != 1:
                disagreements.append((ring_str, a, res.conditions))
            tested += 1
    elapsed = time.time() - t0
    ok = not disagreements and tested >= 500 and elapsed < 60 * TIME_SLACK
    _line(capsys, "3 atom-five-way", ok, elapsed, 60, f"{tested} regular non-units")
    assert disagreements == []
    assert tested >= 500
    assert elapsed < 60 * TIME_SLACK


def _theorem_rows(report, theorem):
    return [e for e in report["entries"] if e["theorem"] == theorem]


def test_criterion_04_eight_way(default_reports, capsys):
    """All eight finiteness conditions agree on every refinable corpus
    entry."""
    report = default_reports[0]
    rows = _theorem_rows(report, "refinable-finiteness-eight-way")
    bad = [r for r in rows if r["outcome"] == "violated"]
    verified = sum(1 for r in rows if r["outcome"] == "verified")
    ok = not bad and verified > 0
    _line(capsys, "4 refinable-eight-way", ok, 0.0, detail=f"{verified} verified of {len(rows)}")
    assert bad == []
    assert verified > 0


def test_criterion_05_restriction_theorems(default_reports, capsys):
    """Regular-collapse, zero-divisor atomicity, ring-level atomicity
    equivalence, and the regular-vs-restricted property equivalences hold
    with zero violations over the corpus."""
    report = default_reports[0]
    t0 = time.time()
    bad = []
    counts = {}
    for theorem in (
        "regular-collapse-six-way",
        "zero-divisor-atoms",
        "ring-atomicity-five-way",
        "regular-vs-restricted-properties",
    ):
        rows = _theorem_rows(report, theorem)
        counts[theorem] = len(rows)
        bad.extend(r for r in rows if r["outcome"] == "violated")
        assert rows, theorem
    ok = not bad
    _line(
        capsys, "5 restriction-theorems", ok, time.time() - t0,
        detail=", ".join(f"{k.split('-')[0]}:{v}" for k, v in counts.items()),
    )
    assert bad == []


def test_criterion_06_essential_divisors(default_reports, capsys):
    """Every restricted-relation split has an empty inessential block and
    the flatten/split maps are mutually inverse, corpus-wide."""
    report = default_reports[0]
    rows = _theorem_rows(report, "essential-divisor-lemma")
    bad = [r for r in rows if r["outcome"] == "violated"]
    verified = sum(1 for r in rows if r["outcome"] == "verified")
    ok = not bad and verified > 0
    _line(capsys, "6 essential-divisors", ok, 0.0, detail=f"{verified} verified of {len(rows)}")
    assert bad == []
    assert verified > 0


@pytest.mark.parametrize("q", [3, 5, 7])
def test_criterion_07_field_square(q, capsys):
    """The square of a field of size q under the regular-restricted full
    relation: no regular non-units, vacuous unique factorization, (1,0) is
    unrefinably but not very strongly atomic, and its q-1 trivial
    factorizations are pairwise strongly but not very strongly associate."""
    t0 = time.time()
    ring = build_ring(ProductSpec(ModIntSpec(q), ModIntSpec(q)))
    tau = build_tau(RegCapTau(FullTau()), ring)
    ok = True
    # no regular non-units
    regs = [a for a in ring.elements() if ring.classify(a) == ElementClass.REGULAR_NON_UNIT]
    ok &= regs == []
    # vacuously a unique factorization ring on the regular scope
    ufr = check_property(
        evaluator(ring, tau), PropertyId(PropKind.UFR, alpha=IRR, beta=A, scope=PropScope.REGULAR)
    )
    ok &= ufr.holds and "vacuous" in ufr.note
    # (1,0): unrefinably atomic, not very strongly atomic
    profile = classify(ring, tau, (1, 0), cap=6)
    ok &= profile[IrreducibleKind.UNREFINABLE] == Flag.TRUE
    ok &= profile[IrreducibleKind.VERY_STRONG] == Flag.FALSE
    # exactly q-1 trivial factorizations up to very strong associates,
    # collapsing to one class up to strong associates
    fs_v = enumerate_factorizations(ring, tau, (1, 0), V, cap=6)
    fs_s = enumerate_factorizations(ring, tau, (1, 0), S, cap=6)
    ok &= all(f.trivial for f in fs_v.items)
    ok &= len(fs_v.classes) == q - 1
    ok &= len(fs_s.classes) == 1
    # the trivial factors are pairwise strongly but never very strongly associate
    factors = sorted({f.factors[0] for f in fs_v.items}, key=ring.sort_key)
    ok &= len(factors) == q - 1
    for x in factors:
        for y in factors:
            ok &= ring.associated(x, y, S)
            ok &= not ring.associated(x, y, V)
    _line(capsys, f"7 field-square q={q}", bool(ok), time.time() - t0)
    assert ok


def test_criterion_08_strictness_witnesses(capsys):
    """Z/6 with the full relation is weakly finite but not finite (pump at
    4), and 2 is irreducible, strongly and m-irreducible yet neither
    unrefinable nor very strong."""
    t0 = time.time()
    z6 = build_ring(ModIntSpec(6))
    tau = build_tau(FullTau(), z6)
    wffr = check_property(evaluator(z6, tau), PropertyId(PropKind.WFFR, beta=A))
    ffr = check_property(evaluator(z6, tau), PropertyId(PropKind.FFR, beta=A))
    ok = wffr.holds and ffr.outcome == "fails"
    # element 4 pumps with x = 4: 4*4 = 4 and 4 rel 4
    fs4 = enumerate_factorizations(z6, tau, 4, A, cap=5)
    ok &= fs4.unbounded == "yes" and fs4.pump is not None and fs4.pump.x == 4
    pumped = Factorization(
        ring=z6,
        unit=fs4.pump.base.unit,
        factors=tuple(sorted(fs4.pump.base.factors + (4,), key=z6.sort_key)),
        target=4,
    )
    ok &= oracle_validate_factorization(tau, pumped) is None
    profile = classify(z6, tau, 2, cap=6)
    expect = {
        IrreducibleKind.IRREDUCIBLE: Flag.TRUE,
        IrreducibleKind.STRONG: Flag.TRUE,
        IrreducibleKind.M: Flag.TRUE,
        IrreducibleKind.UNREFINABLE: Flag.FALSE,
        IrreducibleKind.VERY_STRONG: Flag.FALSE,
    }
    ok &= all(profile[k] == v for k, v in expect.items())
    _line(capsys, "8 strictness-witnesses", bool(ok), time.time() - t0)
    assert ok


def test_criterion_09_classical_integers(capsys):
    """Over the integers with the full relation: 12 has exactly the four
    expected classes, elasticity over 2..100 is 1, and unique factorization
    holds on the scope for every irreducibility flavor."""
    t0 = time.time()
    from taufact import IntegersSpec

    zint = build_ring(IntegersSpec())
    tau = build_tau(FullTau(), zint)
    fs = enumerate_factorizations(zint, tau, 12, A, cap=8)
    got = {f.factors for f in fs.items}
    ok = got == {(12,), (2, 6), (3, 4), (2, 2, 3)}
    el = elasticity(evaluator(zint, tau, list(range(2, 101))))
    ok &= el.value == Fraction(1)
    scope = list(range(2, 101))
    for alpha in IrreducibleKind:
        v = check_property(
            evaluator(zint, tau, scope),
            PropertyId(PropKind.UFR, alpha=alpha, beta=A, scope=PropScope.REGULAR),
        )
        ok &= v.holds
    elapsed = time.time() - t0
    ok &= elapsed < 30 * TIME_SLACK
    _line(capsys, "9 classical-integers", bool(ok), elapsed, 30)
    assert ok


# sha256 of the default-corpus report as ``taufact verify --out`` writes it
GOLDEN_SHA256 = "d56db7e8b7a3688ee291d677e7bfff31350a719a0924e4ceb34cc93327bd4328"


def test_criterion_10_determinism(default_reports, capsys):
    """Two runs of the full default-corpus verification, at ``--jobs 1`` and
    ``--jobs 2``, produce byte-identical reports, equal to the golden
    report, with zero violations."""
    report, (first, second), _, elapsed = default_reports
    digest = hashlib.sha256(first).hexdigest()
    ok = first == second and digest == GOLDEN_SHA256 and report["summary"]["violated"] == 0
    _line(
        capsys, "10 determinism", ok, elapsed,
        detail=f"{len(report['entries'])} entries, summary {report['summary']}",
    )
    assert first == second
    assert digest == GOLDEN_SHA256
    assert report["summary"]["violated"] == 0


def _skipped_on_finite_rings(report) -> list:
    """The skipped rows of ``report`` on a finite ring.  Enumeration there
    is exhaustive, so a cell left undecided is a decision the engine lost,
    such as a pump check."""
    skipped = [r for r in report["entries"] if r["outcome"] == "skipped"]
    finite = {s for s in {r["ring"] for r in skipped} if build_ring_from_text(s).is_finite}
    return [r for r in skipped if r["ring"] in finite]


def test_no_skipped_row_on_a_finite_ring(default_reports):
    """Every skipped default row is on an infinite ring."""
    report = default_reports[0]
    assert report["summary"]["skipped"] > 0
    assert _skipped_on_finite_rings(report) == []


def test_finite_ring_skips_see_a_lost_pump_check(monkeypatch):
    """With no factor ever pumping, no row turns violated, but rows on
    finite rings turn skipped, and the check above says so."""
    corpus = {"schema": 1, "rings": ["Zn(4)", "Zn(8)", "prod(Zn(2),Zn(4))"], "cap": 5}
    assert _skipped_on_finite_rings(run_verification(corpus)) == []
    monkeypatch.setattr(factor, "pump_factor", lambda *args: None)
    report = run_verification(corpus)
    assert report["summary"]["violated"] == 0
    assert _skipped_on_finite_rings(report)


# sha256 of the default-corpus atlas as ``taufact verify --atlas-out`` writes it
ATLAS_SHA256 = "878a90902f41d1dbcc042ab7321d442836a09ac63a9ac5059847ffbbcb954e31"


def test_default_atlas_digest(default_reports, capsys):
    """The default-corpus atlas is pinned byte for byte, as the report is,
    and is the same at ``--jobs 1`` and ``--jobs 2``."""
    _, _, (first, second), elapsed = default_reports
    digest = hashlib.sha256(first).hexdigest()
    _line(capsys, "default atlas", first == second and digest == ATLAS_SHA256, elapsed)
    assert first == second
    assert digest == ATLAS_SHA256
