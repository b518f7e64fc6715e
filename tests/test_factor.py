import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from taufact import (
    AssociateKind,
    ComaximalTau,
    EmptyTau,
    Factorization,
    FullTau,
    IntegersSpec,
    ModIntSpec,
    PreconditionError,
    ProductSpec,
    RegCapTau,
    RegularTau,
    Ring,
    SubsetTau,
    UnsupportedOperationError,
    ZeroProductTau,
    build_ring,
    build_tau,
    canonicalize,
    enumerate_factorizations,
    tau_divides,
)
from taufact.cli import run_verification
from taufact.corpus import DEFAULT_TAUS, default_corpus_spec
from taufact.parsing import build_tau_from_text
from taufact.factor import default_cap
from conftest import divisor_class_cases, small_finite_rings
from oracles import (
    matching_equivalent,
    oracle_classes_fast,
    oracle_divisor_classes,
    oracle_factorization_classes,
    oracle_unbounded,
    oracle_validate_factorization,
)
from taufact import factor, relations

A, S, V = AssociateKind.ASSOCIATE, AssociateKind.STRONG, AssociateKind.VERY_STRONG

TAUS = (
    FullTau(),
    EmptyTau(),
    ZeroProductTau(),
    ComaximalTau(),
    RegularTau(),
    RegCapTau(FullTau()),
)


def factor_multisets(fs):
    return {f.factors for f in fs.items}


def test_z6_full_four(z6):
    fs = enumerate_factorizations(z6, build_tau(FullTau(), z6), 4, A, cap=4)
    # 2 ~ 4, so the classes are one per length
    assert len(fs.classes) == 4
    assert fs.unbounded == "yes"
    assert fs.pump is not None and fs.pump.x == 4  # 4*4 = 4 and 4 rel 4
    fsv = enumerate_factorizations(z6, build_tau(FullTau(), z6), 4, V, cap=4)
    # no self-very-strong elements here: every multiset is its own class
    assert {f.factors for f in fsv.items} >= {(2, 2), (2, 4), (4, 4), (2,), (4,)}


def test_integers_twelve(zint):
    fs = enumerate_factorizations(zint, build_tau(FullTau(), zint), 12, A, cap=8)
    assert factor_multisets(fs) == {(12,), (2, 6), (3, 4), (2, 2, 3)}
    assert fs.unbounded == "no"
    assert fs.complete


def test_integers_comaximal(zint):
    fs = enumerate_factorizations(zint, build_tau(ComaximalTau(), zint), 12, A, cap=8)
    assert factor_multisets(fs) == {(12,), (3, 4)}


def test_regcap_zero_divisor_trivial_only(z6, zz):
    fs = enumerate_factorizations(z6, build_tau(RegCapTau(FullTau()), z6), 4, A, cap=8)
    assert [f.factors for f in fs.items] == [(4,)]
    assert fs.unbounded == "no" and fs.complete
    fs2 = enumerate_factorizations(zz, build_tau(RegCapTau(FullTau()), zz), (2, 0), A, cap=8)
    assert all(f.trivial for f in fs2.items) and fs2.complete


def test_zero_relation_nonzero_target_trivial(z6):
    fs = enumerate_factorizations(z6, build_tau(ZeroProductTau(), z6), 2, A, cap=8)
    assert [f.factors for f in fs.items] == [(2,)]
    fs0 = enumerate_factorizations(z6, build_tau(ZeroProductTau(), z6), 0, A, cap=8)
    assert (2, 3) in factor_multisets(fs0)


def test_infinite_divisor_set_unsupported(zz):
    with pytest.raises(UnsupportedOperationError):
        enumerate_factorizations(zz, build_tau(FullTau(), zz), (2, 0), A, cap=6)


def test_unit_target_rejected(z6):
    tau = build_tau(FullTau(), z6)
    with pytest.raises(PreconditionError):
        enumerate_factorizations(z6, tau, 5, A)
    with pytest.raises(PreconditionError):
        enumerate_factorizations(z6, tau, 0, A, cap=1)  # cap must be >= 2


def test_zero_target_infinite_ring_rejected(zint):
    with pytest.raises(PreconditionError):
        enumerate_factorizations(zint, build_tau(FullTau(), zint), 0, A)


def test_emitted_factorizations_validate():
    for ring in small_finite_rings():
        for spec in TAUS:
            tau = build_tau(spec, ring)
            for a in ring.nonunits():
                fs = enumerate_factorizations(ring, tau, a, S, cap=4)
                for f in fs.items:
                    assert oracle_validate_factorization(tau, f) is None
                    assert set(f.factors) <= set(ring.divisors(a))


def _oracle_mismatches(rings, specs, cap, oracle) -> list:
    """(ring, relation, beta, target) wherever the engine's canonical class
    keys differ from the oracle's."""
    out = []
    for ring in rings:
        for spec in specs:
            tau = build_tau(spec, ring)
            for beta in (A, S, V):
                expected = oracle(ring, tau, cap, beta)
                for a in ring.nonunits():
                    fs = enumerate_factorizations(ring, tau, a, beta, cap=cap)
                    if set(fs.classes.keys()) != expected[a]:
                        out.append((ring.spec_string(), spec, beta, a))
    return out


def test_oracle_agreement_small_rings():
    # the acceptance suite runs the big corpus; keep a quick slice here
    specs = (FullTau(), ZeroProductTau(), ComaximalTau())
    assert _oracle_mismatches(small_finite_rings()[:6], specs, 3, oracle_factorization_classes) == []


def test_oracles_see_a_wrong_class_key(monkeypatch):
    """A class key that ignores associates disagrees with both oracles, so
    their comparison can fail."""
    monkeypatch.setattr(Ring, "associate_key", lambda ring, x, kind: (0, ring.sort_key(x)))
    for oracle in (oracle_factorization_classes, oracle_classes_fast):
        assert _oracle_mismatches([build_ring(ModIntSpec(6))], (FullTau(),), 3, oracle)


def test_pump_witness_constructs_longer_factorization(z6):
    tau = build_tau(FullTau(), z6)
    for a in z6.nonunits():
        fs = enumerate_factorizations(z6, tau, a, A, cap=5)
        if fs.unbounded != "yes":
            continue
        pump = fs.pump
        pumped = Factorization(
            ring=z6,
            unit=pump.base.unit,
            factors=tuple(sorted(pump.base.factors + (pump.x,), key=z6.sort_key)),
            target=a,
        )
        # inserting the pump keeps pairwise validity; the unit slot adapts
        err = oracle_validate_factorization(tau, pumped)
        if err is not None:
            prod = z6.product(pumped.factors)
            u = z6.cofactors(a, prod).pick_unit()
            assert u is not None
            pumped = Factorization(ring=z6, unit=u, factors=pumped.factors, target=a)
            assert oracle_validate_factorization(tau, pumped) is None


def test_tau_divides_examples(zint, z6):
    full = build_tau(FullTau(), zint)
    assert tau_divides(zint, full, 6, 12)
    assert tau_divides(zint, full, -6, 12)
    comax = build_tau(ComaximalTau(), zint)
    assert not tau_divides(zint, comax, 2, 12)
    assert tau_divides(zint, comax, 3, 12)
    assert not tau_divides(z6, build_tau(FullTau(), z6), 2, 3)
    # trivial divisibility: strong associates
    assert tau_divides(z6, build_tau(EmptyTau(), z6), 2, 4)  # 2 = 5*4


def test_tau_divides_matches_enumeration():
    for ring in small_finite_rings()[:5]:
        for spec in (FullTau(), ZeroProductTau(), ComaximalTau()):
            tau = build_tau(spec, ring)
            for a in ring.nonunits():
                fs = enumerate_factorizations(ring, tau, a, V, cap=4)
                present = set()
                for f in fs.items:
                    present.update(f.factors)
                for b in ring.elements():
                    got = tau_divides(ring, tau, b, a, cap=4)
                    if b in present:
                        assert got
                    if not got:
                        assert b not in present


def test_tau_divides_is_unknown_when_the_cap_cuts_a_growing_product(zint):
    """8 = 2*2*2 is the only factorization of 8 with a factor 2 under
    subset[2]; a cap of 2 cuts it off, so the answer is unknown, not no."""
    tau = build_tau(SubsetTau((2,)), zint)
    assert tau_divides(zint, tau, 2, 8, cap=2) is None
    assert tau_divides(zint, tau, 2, 8, cap=3) is True
    assert tau_divides(zint, tau, 2, 6, cap=2) is False


def _z_oracle(n: int, related) -> tuple:
    """The factorizations of n in Z up to sign and order, from divisor
    arithmetic alone, at the cap max(8, non-unit divisor classes + 1): the
    nondecreasing tuples of divisors d >= 2 of |n| with product |n|,
    pairwise related.  Also the length of the longest pairwise-related
    tuple whose product divides |n|, and the cap."""
    n = abs(n)
    divs = [d for d in range(2, n + 1) if n % d == 0]
    cap = max(8, len(divs) + 1)
    found, longest = set(), 0

    def grow(start, chosen, product):
        nonlocal longest
        longest = max(longest, len(chosen))
        if product == n:
            found.add(tuple(chosen))
        if len(chosen) == cap:
            return
        for i in range(start, len(divs)):
            d = divs[i]
            if n % (product * d) == 0 and all(related(d, c) for c in chosen):
                grow(i, chosen + [d], product * d)

    grow(0, [], 1)
    return found, longest, cap


@pytest.mark.parametrize("text", ["full", "comax"])
def test_enumeration_matches_divisor_oracle_on_scoped_integers(zint, text):
    """Every target of the default Z scope: the classes (read up to sign)
    and ``unbounded`` match an oracle that never calls the engine.  Z is a
    domain, so nothing pumps, and the search is exhaustive below the cap."""
    related = (lambda x, y: True) if text == "full" else (lambda x, y: gcd(x, y) == 1)
    tau = build_tau_from_text(text, zint)
    for a in default_corpus_spec()["scopes"]["Z"]:
        found, longest, cap = _z_oracle(a, related)
        for beta in (A, S):
            fs = enumerate_factorizations(zint, tau, a, beta)
            assert fs.cap == cap
            got = sorted(tuple(sorted(abs(x) for x in f.factors)) for f in fs.items)
            assert got == sorted(found), (text, a)
            assert fs.unbounded == ("no" if longest < cap else "unknown"), (text, a)


def test_validate_factorization_examples(z6):
    # brute-forced variant of the stated example: 2 = 1*2*4 in Z/6, and
    # 4 = 1*2*2*4 after substituting it for one 2 of 4 = 1*2*2
    full = build_tau(FullTau(), z6)
    assert oracle_validate_factorization(full, Factorization(ring=z6, unit=1, factors=(2, 4), target=2)) is None
    refined = Factorization(ring=z6, unit=1, factors=(2, 2, 4), target=4)
    assert oracle_validate_factorization(full, refined) is None
    # the validator can fail: a wrong target, a unit factor, an unrelated pair
    assert oracle_validate_factorization(full, Factorization(ring=z6, unit=1, factors=(2, 4), target=4))
    assert oracle_validate_factorization(full, Factorization(ring=z6, unit=1, factors=(5, 2), target=4))
    comax = build_tau(ComaximalTau(), z6)
    assert oracle_validate_factorization(comax, refined)


def test_canonicalize_rearrangement(z6):
    f1 = Factorization(ring=z6, unit=1, factors=(2, 4), target=2)
    f2 = Factorization(ring=z6, unit=1, factors=(4, 2), target=2)
    for beta in (A, S, V):
        assert canonicalize(z6, f1.factors, beta) == canonicalize(z6, f2.factors, beta)


def test_canonicalize_strong_merges_associates(z6):
    t1 = Factorization(ring=z6, unit=1, factors=(4,), target=4)
    t2 = Factorization(ring=z6, unit=5, factors=(2,), target=4)
    assert canonicalize(z6, t1.factors, S) == canonicalize(z6, t2.factors, S)
    assert canonicalize(z6, t1.factors, V) != canonicalize(z6, t2.factors, V)


def test_canonicalize_very_strong_example(f3xf3):
    t1 = Factorization(ring=f3xf3, unit=(1, 1), factors=((1, 0),), target=(1, 0))
    t2 = Factorization(ring=f3xf3, unit=(2, 1), factors=((2, 0),), target=(1, 0))
    assert canonicalize(f3xf3, t1.factors, V) != canonicalize(f3xf3, t2.factors, V)
    assert canonicalize(f3xf3, t1.factors, S) == canonicalize(f3xf3, t2.factors, S)


def test_canonical_keys_match_bijective_matching():
    rng = random.Random(7)
    for ring in small_finite_rings()[:6]:
        tau = build_tau(FullTau(), ring)
        for a in ring.nonunits():
            fs = enumerate_factorizations(ring, tau, a, V, cap=3)
            items = list(fs.items)
            rng.shuffle(items)
            sample = items[:8]
            for beta in (A, S, V):
                for f in sample:
                    for g in sample:
                        assert (
                            canonicalize(ring, f.factors, beta) == canonicalize(ring, g.factors, beta)
                        ) == matching_equivalent(ring, f, g, beta)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_factorization_validity_is_permutation_invariant(data, z8):
    tau = build_tau(FullTau(), z8)
    fs = enumerate_factorizations(z8, tau, 0, A, cap=4)
    items = fs.items
    f = data.draw(st.sampled_from(items))
    perm = data.draw(st.permutations(list(f.factors)))
    g = Factorization(ring=z8, unit=f.unit, factors=tuple(perm), target=f.target)
    assert oracle_validate_factorization(tau, g) is None


def _unbounded_mismatches(cap=4):
    """The (ring, relation) pairs of the small finite rings, under the
    default relations and four seeded subset relations each, where the
    elements enumeration calls unbounded at ``cap`` differ from
    ``oracle_unbounded``'s, and how many elements the oracle names."""
    rng = random.Random(20261018)
    bad, named = [], 0
    for ring in small_finite_rings():
        sharp = ring.nonzero_nonunits()
        specs = list(TAUS)
        for _ in range(4 if sharp else 0):
            specs.append(SubsetTau(tuple(sorted(rng.sample(sharp, rng.randint(1, len(sharp))), key=ring.sort_key))))
        for spec in specs:
            tau = build_tau(spec, ring)
            want = oracle_unbounded(ring, tau, cap)
            got = {
                a for a in ring.nonunits()
                if enumerate_factorizations(ring, tau, a, S, cap=cap).unbounded == "yes"
            }
            named += len(want)
            if got != want:
                bad.append((ring.spec_string(), spec))
    return bad, named


def test_unbounded_matches_repeated_power_oracle():
    bad, named = _unbounded_mismatches()
    assert bad == [] and named > 100


def test_unbounded_oracle_sees_a_skipped_pump_check(monkeypatch):
    """With no factor ever pumping, enumeration calls those elements
    undecided at the cap, and the oracle comparison says so.  No verify row
    turns violated under this fault: the verdicts that read the pump go
    from fails to unknown, so their rows go from verified to skipped."""
    monkeypatch.setattr(factor, "pump_factor", lambda *args: None)
    bad, _ = _unbounded_mismatches()
    assert bad


def test_pumping_soundness_at_cap_plus_one():
    """Whenever enumeration reports unbounded, inserting enough copies of
    the pump reaches length cap+1 and still validates."""
    for spec, cap in ((FullTau(), 5), (ZeroProductTau(), 4)):
        for ring in small_finite_rings():
            tau = build_tau(spec, ring)
            for a in ring.nonunits():
                fs = enumerate_factorizations(ring, tau, a, A, cap=cap)
                if fs.unbounded != "yes":
                    continue
                pump = fs.pump
                extra = cap + 1 - len(pump.base.factors)
                factors = tuple(
                    sorted(pump.base.factors + (pump.x,) * extra, key=ring.sort_key)
                )
                prod = ring.product(factors)
                unit = ring.cofactors(a, prod).pick_unit()
                assert unit is not None, (ring.spec_string(), a, pump)
                pumped = Factorization(ring=ring, unit=unit, factors=factors, target=a)
                assert oracle_validate_factorization(tau, pumped) is None


def test_bounded_verdicts_are_actually_bounded():
    """When enumeration says bounded, a run at a higher cap finds nothing
    longer."""
    for ring in small_finite_rings()[:6]:
        tau = build_tau(ComaximalTau(), ring)
        for a in ring.nonunits():
            fs = enumerate_factorizations(ring, tau, a, A, cap=4)
            if fs.unbounded == "no":
                again = enumerate_factorizations(ring, tau, a, A, cap=7)
                assert again.max_length == fs.max_length


def test_random_subset_oracle_fuzz():
    import random

    from taufact import SubsetTau

    rng = random.Random(99)
    for ring in small_finite_rings()[:6]:
        sharp = ring.nonzero_nonunits()
        if not sharp:
            continue  # fields have no nonzero non-units
        for _ in range(3):
            k = rng.randint(1, len(sharp))
            subset = tuple(sorted(rng.sample(sharp, k), key=ring.sort_key))
            tau = build_tau(SubsetTau(subset), ring)
            for beta in (A, S, V):
                oracle = oracle_classes_fast(ring, tau, 4, beta)
                for a in ring.nonunits():
                    fs = enumerate_factorizations(ring, tau, a, beta, cap=4)
                    assert set(fs.classes.keys()) == oracle[a], (
                        ring.spec_string(),
                        subset,
                        a,
                        beta,
                    )


def _capped_cases():
    """(ring, relation, targets): every small finite ring under the default
    relations and three seeded subset relations, and the integers over a
    scope under subset relations."""
    rng = random.Random(20261019)
    for ring in small_finite_rings():
        taus = [build_tau_from_text(text, ring) for text in DEFAULT_TAUS]
        sharp = ring.nonzero_nonunits()
        for _ in range(3 if sharp else 0):
            subset = rng.sample(sharp, rng.randint(1, len(sharp)))
            taus.append(build_tau(SubsetTau(tuple(sorted(subset, key=ring.sort_key))), ring))
        for tau in taus:
            yield ring, tau, ring.nonunits()
    zint = build_ring(IntegersSpec())
    for subset in ((2,), (2, 3), (-2, 4), (2, 3, 6), (3, 9, -27)):
        yield zint, build_tau(SubsetTau(subset), zint), [a for a in range(-64, 65) if abs(a) > 1]


def test_exhaustive_enumerations_survive_a_higher_cap():
    """An enumeration reported exhaustive at cap c lists every class: the
    enumeration at cap c + 3 has the same class keys."""
    claims = 0
    for ring, tau, targets in _capped_cases():
        for a in targets:
            for cap in (2, 3):
                fs = enumerate_factorizations(ring, tau, a, S, cap=cap)
                if not fs.exhaustive:
                    continue
                claims += 1
                again = enumerate_factorizations(ring, tau, a, S, cap=cap + 3)
                assert set(again.classes) == set(fs.classes), (ring.spec_string(), tau.spec_string(), a, cap)
    assert claims


def test_default_cap_counts_the_oracle_classes():
    for ring, targets, box in divisor_class_cases():
        tau = build_tau(FullTau(), ring)
        for a in targets:
            expected = max(8, len(oracle_divisor_classes(ring, a, box)) + 1)
            assert default_cap(ring, tau, a) == expected, (ring, a)
    zz = build_ring(ProductSpec(IntegersSpec(), IntegersSpec()))
    for a in ((0, 0), (2, 0), (0, -12)):
        assert default_cap(zz, build_tau(FullTau(), zz), a) == 8


def _prime_factor_count(n: int) -> int:
    """The number of prime factors of |n| with multiplicity, by trial division."""
    n, count, p = abs(n), 0, 2
    while p * p <= n:
        while n % p == 0:
            n, count = n // p, count + 1
        p += 1
    return count + (n > 1)


def _integer_length_mismatches():
    """The integers whose enumeration under ``full`` at the default cap is
    not exhaustive or whose longest factorization is not their number of
    prime factors: a factorization into non-units has at most that many
    factors, the product of the primes has that many, and the cap exceeds
    the number of divisor classes, which a chain p1 | p1*p2 | ... bounds
    below by that number, so no search reaches the cap."""
    zint = build_ring(IntegersSpec())
    tau = build_tau(FullTau(), zint)
    for a in [a for a in range(-64, 65) if abs(a) > 1] + [128, -256, 512, 3**7, 2**4 * 3**4]:
        fs = enumerate_factorizations(zint, tau, a, S)
        if not fs.exhaustive or fs.max_length != _prime_factor_count(a):
            yield a


def test_integer_enumerations_stop_below_the_default_cap():
    assert list(_integer_length_mismatches()) == []


def test_integer_lengths_see_a_cap_off_by_one(monkeypatch):
    """A default cap one lower stops the search of 2^7 at its cap, so its
    enumeration is no longer exhaustive.  Verify reports no row violated
    for it: the verdicts that read such an element turn unknown, and their
    rows skipped."""
    spec = {"schema": 1, "rings": ["Z"], "taus": ["full"], "scopes": {"Z": [128, 6]}}
    assert run_verification(spec)["summary"]["skipped"] == 0
    engine = default_cap
    monkeypatch.setattr(factor, "default_cap", lambda ring, tau, a: engine(ring, tau, a) - 1)
    assert 128 in list(_integer_length_mismatches())
    summary = run_verification(spec)["summary"]
    assert summary["violated"] == 0 and summary["skipped"] > 0


# the oracle's own reading of each spec class, apart from the engine's:
# (regular only, associate stable)
_SPEC_FLAGS = {
    FullTau: (False, True),
    EmptyTau: (False, True),
    ZeroProductTau: (False, True),
    ComaximalTau: (False, True),
    RegularTau: (True, True),
    SubsetTau: (False, False),
}


def _spec_flags(spec):
    """A ``regcap`` is regular-only and as stable as what it restricts."""
    if isinstance(spec, RegCapTau):
        return True, _spec_flags(spec.inner)[1]
    return _SPEC_FLAGS[type(spec)]


def _old_candidates(ring, tau, a, reduce_assoc):
    """``TauRelation.candidates`` as built from the whole divisor set:
    the sorted divisors in R#, then the regular filter, then the first
    element of each associate class, then the partner filter.  None when
    the divisor set is infinite."""
    regular_only, stable = _spec_flags(tau.spec)
    if isinstance(tau.spec, EmptyTau):
        return []
    if regular_only and not ring.is_regular(a):
        return []
    if isinstance(tau.spec, ZeroProductTau) and a != ring.zero:
        return []
    try:
        divs = ring.divisors(a)
    except UnsupportedOperationError:
        return None
    cands = sorted((d for d in divs if d != ring.zero and not ring.is_unit(d)), key=ring.sort_key)
    if regular_only:
        cands = [d for d in cands if ring.is_regular(d)]
    if reduce_assoc and stable:
        reps = {}
        for d in cands:
            reps.setdefault(ring.associate_key(d, A), d)
        cands = list(reps.values())
    return [x for x in cands if any(tau.holds(x, y) for y in cands)]


def _candidate_mismatches() -> list:
    """The (ring, relation, target, reduce_assoc) cases where the candidates
    differ from the old construction, under the default relations,
    spellings of the one that relates no pair, and seeded subset relations;
    on prod(Z,Z) over a smaller box, with axis elements."""
    rng = random.Random(16)
    texts = DEFAULT_TAUS + ("regcap(zero)", "regcap(empty)", "regcap(regcap(zero))")
    out = []
    for ring, targets, _ in divisor_class_cases():
        if ring.spec_string() == "prod(Z,Z)":
            targets = [(i, j) for i in range(-6, 7) for j in range(-6, 7)]
        sharp = [a for a in targets if a != ring.zero and not ring.is_unit(a)]
        taus = [build_tau_from_text(text, ring) for text in texts]
        for _ in range(3 if sharp else 0):
            subset = rng.sample(sharp, rng.randint(1, min(len(sharp), 12)))
            taus.append(build_tau(SubsetTau(tuple(sorted(subset, key=ring.sort_key))), ring))
        for tau in taus:
            for a in targets:
                for reduce_assoc in (False, True):
                    expected = _old_candidates(ring, tau, a, reduce_assoc)
                    try:
                        got = tau.candidates(a, reduce_assoc)
                    except UnsupportedOperationError:
                        got = None
                    if got != expected:
                        out.append((ring.spec_string(), tau.spec_string(), a, reduce_assoc))
    return out


def test_candidates_match_the_full_divisor_construction():
    """The candidates read off the class table equal the old construction."""
    assert _candidate_mismatches() == []


def test_candidate_comparison_sees_a_subset_read_as_stable(monkeypatch):
    """With ``subset`` relations marked associate-stable, their reduced
    candidates keep one member per class, and the comparison fails."""
    stable = relations._associate_stable
    monkeypatch.setattr(relations, "_associate_stable", lambda spec: isinstance(spec, SubsetTau) or stable(spec))
    mismatches = _candidate_mismatches()
    assert mismatches and all(tau.startswith("subset") and reduce for _, tau, _, reduce in mismatches)


def _enumeration_outcome(ring, tau, a, beta):
    """What an enumeration reports, or the error it raises."""
    try:
        fs = enumerate_factorizations(ring, tau, a, beta)
    except (PreconditionError, UnsupportedOperationError) as exc:
        return type(exc), str(exc)
    pump = None if fs.pump is None else (fs.pump.x, fs.pump.base)
    return fs.items, fs.raw_total, fs.max_length, fs.unbounded, pump


def _trivial_orbit_cases():
    """(ring, relation, targets): the finite capped cases, and the integers
    and prod(Z,Z) under the default relations over their default scopes
    (the prod(Z,Z) one cut to its box [-6, 6], axes included)."""
    for ring, tau, targets in _capped_cases():
        if ring.is_finite:
            yield ring, tau, targets
    scopes = default_corpus_spec()["scopes"]
    zint = build_ring(IntegersSpec())
    zz = build_ring(ProductSpec(IntegersSpec(), IntegersSpec()))
    box = [tuple(a) for a in scopes["prod(Z,Z)"] if max(map(abs, a)) <= 6]
    for ring, targets in ((zint, scopes["Z"]), (zz, box)):
        for text in DEFAULT_TAUS:
            yield ring, build_tau_from_text(text, ring), targets


def test_first_trivial_factorization_decides_as_every_member_would(monkeypatch):
    """Settling the trivial factorizations by the first of the target's
    orbit gives what considering each member gives: the same classes and
    representatives, raw count, longest length, unboundedness and pump
    witness, under every beta.  Subset relations and ``VERY_STRONG`` keep
    per-member work, where a later member can pump when the first does not
    (``subset[4]`` on Zn(6): 2 = 5*4, and only (4,) pumps)."""
    cases = []
    for ring, tau, targets in _trivial_orbit_cases():
        for a in targets:
            if ring.is_unit(a):
                continue
            for beta in (A, S, V):
                cases.append((ring, tau, a, beta, _enumeration_outcome(ring, tau, a, beta)))
    z6 = build_ring(ModIntSpec(6))
    pumped = _enumeration_outcome(z6, build_tau(SubsetTau((4,)), z6), 2, S)[-1]
    assert pumped == (4, Factorization(ring=z6, unit=5, factors=(4,), target=2))
    monkeypatch.setattr(factor, "_first_trivial_decides", lambda tau, beta: False)
    for ring, tau, a, beta, got in cases:
        expected = _enumeration_outcome(ring, tau, a, beta)
        assert got == expected, (ring.spec_string(), tau.spec_string(), a, beta)


def test_enumeration_reads_one_relation_row_per_candidate(monkeypatch, zz):
    """An enumeration asks ``holds(x, y)`` at most once per pair of its
    candidates with y not before x (n(n+1)/2 calls for n candidates), not
    once per search node: on the regular target (18,16) of prod(Z,Z) under
    ``regular``, which never pumps, its 29 candidates cost at most 435."""
    tau = build_tau_from_text("regular", zz)
    n = len(tau.candidates((18, 16), reduce_assoc=True))
    calls = []
    holds = tau.holds
    monkeypatch.setattr(tau, "holds", lambda x, y: calls.append((x, y)) or holds(x, y))
    fs = enumerate_factorizations(zz, tau, (18, 16))
    assert len(fs.candidates) == n == 29 and fs.exhaustive and len(fs.items) > n
    assert 0 < len(calls) <= n * (n + 1) // 2
