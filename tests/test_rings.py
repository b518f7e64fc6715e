import ast
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from taufact import (
    AssociateKind,
    ElementClass,
    InfiniteSetError,
    IntegersSpec,
    ModIntSpec,
    PolyQuotSpec,
    ProductSpec,
    RingConstructionError,
    build_ring,
    build_ring_from_text,
    default_corpus_spec,
    enumerate_elements,
    ring_predicates,
)
from conftest import divisor_class_cases, small_finite_rings
from oracles import oracle_class_key, oracle_divisor_classes

A, S, V = AssociateKind.ASSOCIATE, AssociateKind.STRONG, AssociateKind.VERY_STRONG


def test_build_validates_modulus():
    with pytest.raises(RingConstructionError, match="n"):
        build_ring(ModIntSpec(1))


def test_build_validates_polyquot():
    with pytest.raises(RingConstructionError, match="prime"):
        build_ring(PolyQuotSpec(4, (1, 1)))
    with pytest.raises(RingConstructionError, match="monic"):
        build_ring(PolyQuotSpec(2, (1, 0)))
    with pytest.raises(RingConstructionError, match="degree"):
        build_ring(PolyQuotSpec(2, (1,)))
    with pytest.raises(RingConstructionError, match="reduced"):
        build_ring(PolyQuotSpec(2, (3, 1)))


def test_finiteness_flag():
    assert build_ring(ModIntSpec(6)).is_finite
    assert build_ring(ProductSpec(ModIntSpec(3), ModIntSpec(3))).order == 9
    assert not build_ring(ProductSpec(IntegersSpec(), IntegersSpec())).is_finite


def test_enumerate_elements_order(z6):
    assert enumerate_elements(z6) == [0, 1, 2, 3, 4, 5]
    r = build_ring(ProductSpec(ModIntSpec(2), ModIntSpec(3)))
    assert enumerate_elements(r) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    with pytest.raises(InfiniteSetError):
        enumerate_elements(build_ring(IntegersSpec()))


def test_classify_examples(z6, zz):
    assert z6.classify(5) == ElementClass.UNIT  # 5*5 = 25 = 1 mod 6
    assert z6.classify(4) == ElementClass.ZERO_DIVISOR  # 4*3 = 0 mod 6
    assert z6.classify(0) == ElementClass.ZERO
    assert zz.classify((2, 3)) == ElementClass.REGULAR_NON_UNIT


def _scan_class(ring, a):
    """The class of a by a scan for a unit inverse, then for an annihilator."""
    elems = list(ring.elements())
    if a == ring.zero:
        return ElementClass.ZERO
    if any(ring.mul(a, b) == ring.one for b in elems):
        return ElementClass.UNIT
    if any(b != ring.zero and ring.mul(a, b) == ring.zero for b in elems):
        return ElementClass.ZERO_DIVISOR
    return ElementClass.REGULAR_NON_UNIT


def test_finite_rings_have_no_regular_nonunits():
    """``classify`` scans for a unit inverse only; the annihilator scan
    agrees, so no non-unit of a finite ring is regular."""
    for ring in small_finite_rings():
        for a in ring.elements():
            assert ring.classify(a) == _scan_class(ring, a), (ring.spec_string(), a)


def test_divisors_examples(z6, zint):
    assert z6.divisors(3) == frozenset({1, 3, 5})
    assert zint.divisors(12) == frozenset({1, -1, 2, -2, 3, -3, 4, -4, 6, -6, 12, -12})
    with pytest.raises(InfiniteSetError):
        zint.divisors(0)


def test_divisors_cofactors_consistency():
    for ring in small_finite_rings():
        for a in ring.elements():
            divs = ring.divisors(a)
            for b in ring.elements():
                assert (b in divs) == (not ring.cofactors(a, b).is_empty())


def test_cofactors_examples(z6):
    assert z6.cofactors(4, 2).as_frozenset() == frozenset({2, 5})
    assert z6.cofactors(3, 2).as_frozenset() == frozenset()
    assert z6.cofactors(0, 0).is_all()


def test_cofactors_product_all_propagation(zz):
    cof = zz.cofactors((0, 6), (0, 2))
    assert not cof.is_empty()
    assert not cof.contains_unit()
    assert not cof.is_all()
    with pytest.raises(InfiniteSetError):
        cof.as_frozenset()
    assert zz.cofactors((0, 0), (0, 0)).is_all()


def test_associated_examples(z6, f3xf3):
    assert z6.associated(2, 4, S)  # 2 = 5*4 mod 6
    assert not z6.associated(2, 2, V)  # 2 = 4*2 with 4 not a unit
    assert f3xf3.associated((1, 0), (2, 0), S)
    assert not f3xf3.associated((1, 0), (2, 0), V)


def test_associate_strength_and_symmetry():
    for ring in small_finite_rings():
        elems = list(ring.elements())
        for a in elems:
            for b in elems:
                if ring.associated(a, b, V):
                    assert ring.associated(a, b, S)
                if ring.associated(a, b, S):
                    assert ring.associated(a, b, A)
                assert ring.associated(a, b, A) == ring.associated(b, a, A)
                assert ring.associated(a, b, S) == ring.associated(b, a, S)


def test_associate_transitivity_exhaustive(z6, f2x2):
    for ring in (z6, f2x2):
        elems = list(ring.elements())
        for a in elems:
            for b in elems:
                if not ring.associated(a, b, A):
                    continue
                for c in elems:
                    if ring.associated(b, c, A):
                        assert ring.associated(a, c, A)


def test_regular_elements_collapse_relations(zz, zint):
    # for regular elements the three relations coincide, and self-very holds
    samples = [(2, 3), (4, 1), (-6, 5), (1, 7)]
    for a in samples:
        assert zz.associated(a, a, V)
        for b in samples:
            assert zz.associated(a, b, A) == zz.associated(a, b, S) == zz.associated(a, b, V)
    for a in (2, -9, 30):
        assert zint.associated(a, a, V)


def test_ring_predicates(z4, z6):
    assert ring_predicates(z4) == {"presimplifiable": True, "strongly_associate": True}
    preds = ring_predicates(z6)
    assert preds["presimplifiable"] is False  # 3 = 3*3 with 3 neither 0 nor a unit
    assert preds["strongly_associate"] is True


def test_strongly_associate_closed_form_matches_scan():
    """The closed form against the exhaustive scan, which shares no code
    with it, on every finite default-corpus ring and the unit-test rings."""
    corpus = [build_ring_from_text(s) for s in default_corpus_spec()["rings"]]
    finite = [r for r in corpus if r.is_finite]
    assert len(finite) == 51
    extra = [build_ring_from_text(s) for s in ("GFq(2,[1,0,0,1])", "prod(GFq(2,[0,0,1]),Zn(4))")]
    for ring in finite + small_finite_rings() + extra:
        assert ring.is_strongly_associate() == ring_predicates(ring)["strongly_associate"], ring


def test_associate_key_matches_scan():
    """The unit-orbit key equals the oracle's least associate found by a scan,
    for every element and kind: over the whole ring when it is finite, over
    the divisors on the scoped infinite default-corpus rings, and over a box
    holding every unit multiple where a zero coordinate makes the divisor set
    infinite."""
    spec = default_corpus_spec()
    corpus = [build_ring_from_text(s) for s in spec["rings"]]
    finite = [r for r in corpus if r.is_finite]
    assert len(finite) == 51
    for ring in finite + small_finite_rings():
        for x in ring.elements():
            for kind in (A, S, V):
                assert ring.associate_key(x, kind) == oracle_class_key(ring, x, kind), (ring, x, kind)
    for text in ("Z", "prod(Z,Z)"):
        ring = build_ring_from_text(text)
        scope = [ring.element_from_json(e) for e in spec["scopes"][text]]
        for x in scope:
            try:
                pool = ring.divisors(x)
            except InfiniteSetError:
                a, b = (abs(c) for c in x)
                pool = [(i, j) for i in range(-a, a + 1) for j in range(-b, b + 1)]
            for kind in (A, S, V):
                assert ring.associate_key(x, kind) == oracle_class_key(ring, x, kind, pool), (ring, x, kind)


def test_strongly_associate_scan_only_in_oracle():
    src = Path(__file__).resolve().parent.parent / "src" / "taufact"
    callers = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Attribute) and node.attr == "_scan_strongly_associate":
                    callers.append((path.name, fn.name))
    assert sorted(set(callers)) == [("rings.py", "ring_predicates")]


def test_ring_predicates_infinite_raises(zint):
    with pytest.raises(Exception):
        ring_predicates(zint)


def test_unit_inverse_roundtrip():
    for ring in small_finite_rings():
        for u in ring.units():
            assert ring.mul(u, ring.unit_inverse(u)) == ring.one


def test_modring_comaximal_exhaustive():
    # oracle: (a, b) = Z/n iff 1 - a*x is a multiple of b for some x
    for n in range(2, 37):
        ring = build_ring(ModIntSpec(n))
        multiples = [{b * y % n for y in range(n)} for b in range(n)]
        for a in range(n):
            for b in range(n):
                expected = any((1 - a * x) % n in multiples[b] for x in range(n))
                assert ring.comaximal(a, b) == expected, (n, a, b)


def test_modring_classify_closed_form():
    # oracle: a unit has an inverse among the residues; a finite ring has
    # no regular non-units, so every other non-zero residue divides zero
    for n in range(2, 37):
        ring = build_ring(ModIntSpec(n))
        for a in range(n):
            if a == 0:
                expected = ElementClass.ZERO
            elif any(a * x % n == 1 for x in range(n)):
                expected = ElementClass.UNIT
            else:
                expected = ElementClass.ZERO_DIVISOR
            assert ring.classify(a) == expected, (n, a)


def test_modring_cofactors_divisors_units_inverse_closed_form():
    # oracles: scans over the residues
    for n in range(2, 41):
        ring = build_ring(ModIntSpec(n))
        for a in range(n):
            for b in range(n):
                cof = ring.cofactors(a, b)
                if a == 0 and b == 0:
                    assert cof.is_all(), n
                    assert cof.as_frozenset() == frozenset(range(n))
                else:
                    assert not cof.is_all(), (n, a, b)
                    assert cof.as_frozenset() == {r for r in range(n) if r * b % n == a}, (n, a, b)
            assert ring.divisors(a) == {b for b in range(n) if any(r * b % n == a for r in range(n))}, (n, a)
        assert ring.units() == [a for a in range(n) if any(a * x % n == 1 for x in range(n))], n
        for a in range(n):
            inverses = [x for x in range(n) if a * x % n == 1]
            if inverses:
                assert ring.unit_inverse(a) == inverses[0], (n, a)
            else:
                with pytest.raises(ValueError, match="not a unit"):
                    ring.unit_inverse(a)


def test_units_in_sort_key_order():
    texts = ["Z", "Zn(12)", "GFq(2,[1,1,1])", "GFq(3,[0,0,1])", "prod(Zn(4),Zn(6))",
             "prod(Z,Z)", "prod(GFq(2,[0,0,1]),Zn(5))", "prod(prod(Zn(3),Z),Zn(4))"]
    for text in texts:
        ring = build_ring_from_text(text)
        units = ring.units()
        assert len(units) >= 2
        assert units == sorted(units, key=ring.sort_key), text


def test_polyquot_comaximal_matches_double_scan():
    """The ideal test ``1 - a*x in bR`` against the scan over all (x, y)."""
    rings = [r for r in small_finite_rings() if isinstance(r.spec, PolyQuotSpec)]
    rings += [
        build_ring_from_text(s)
        for s in default_corpus_spec()["rings"] + ["prod(GFq(2,[0,0,1]),Zn(4))"]
        if s.startswith(("GFq", "prod(GFq"))
    ]
    assert len({r.spec_string() for r in rings}) == 4
    for ring in rings:
        elems = list(ring.elements())
        for a in elems:
            for b in elems:
                expected = any(
                    ring.add(ring.mul(a, x), ring.mul(b, y)) == ring.one
                    for x in elems
                    for y in elems
                )
                assert ring.comaximal(a, b) == expected, (ring.spec_string(), a, b)


def test_nonunits_built_once_and_left_intact():
    """``nonunits`` hands out one list per ring, and a verify run over the
    ring leaves it equal to a fresh scan."""
    from taufact import build_tau_from_text
    from taufact.corpus import DEFAULT_TAUS
    from taufact.theorems import verify_corpus_entries

    for text in ("Zn(12)", "prod(Zn(2),Zn(4))", "GFq(2,[0,0,1])"):
        ring = build_ring_from_text(text)
        got = ring.nonunits()
        assert ring.nonunits() is got
        taus = [build_tau_from_text(t, ring) for t in DEFAULT_TAUS]
        verify_corpus_entries(ring, taus, None, 4, {})
        assert ring.nonunits() is got
        assert got == sorted(
            (a for a in ring.elements() if _scan_class(ring, a) != ElementClass.UNIT),
            key=ring.sort_key,
        )


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 30), x=st.integers(0, 200), y=st.integers(0, 200))
def test_modring_arithmetic_matches_int_mod(n, x, y):
    ring = build_ring(ModIntSpec(n))
    a, b = x % n, y % n
    assert ring.add(a, b) == (x + y) % n
    assert ring.mul(a, b) == (x * y) % n
    assert ring.neg(a) == (-x) % n


@settings(max_examples=40, deadline=None)
@given(
    x=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    y=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    z=st.tuples(st.integers(0, 1), st.integers(0, 1)),
)
def test_f4_field_laws(x, y, z, f4):
    assert f4.mul(x, y) == f4.mul(y, x)
    assert f4.mul(x, f4.mul(y, z)) == f4.mul(f4.mul(x, y), z)
    assert f4.mul(x, f4.add(y, z)) == f4.add(f4.mul(x, y), f4.mul(x, z))
    if x != f4.zero:
        assert f4.is_unit(x)  # F_4 is a field


def test_element_json_roundtrip(zz, f4):
    for ring, samples in ((zz, [(2, -3), (0, 5)]), (f4, [(0, 1), (1, 1)])):
        for a in samples:
            assert ring.element_from_json(ring.element_to_json(a)) == a


def test_regular_scope_relations_coincide_corpuswide():
    """Over the corpus scopes, the three associate relations agree on
    pairs of regular elements, and each regular element is very strongly
    self-associate."""
    from taufact.corpus import default_corpus_spec
    from taufact import build_ring_from_text

    spec = default_corpus_spec()
    for ring_str in ("Z", "prod(Z,Z)"):
        ring = build_ring_from_text(ring_str)
        scope = [ring.element_from_json(e) for e in spec["scopes"][ring_str]]
        regs = [a for a in scope if ring.classify(a) == ElementClass.REGULAR_NON_UNIT]
        sample = regs[:40]
        for a in sample:
            assert ring.associated(a, a, V)
            for b in sample:
                assert (
                    ring.associated(a, b, A)
                    == ring.associated(a, b, S)
                    == ring.associated(a, b, V)
                )


def test_corpus_finite_rings_have_no_regular_nonunits():
    from taufact.corpus import default_corpus_spec, generate_corpus

    entries, _ = generate_corpus(default_corpus_spec())
    seen = set()
    for ce in entries:
        if not ce.ring.is_finite or ce.ring_str in seen:
            continue
        seen.add(ce.ring_str)
        for a in ce.ring.elements():
            assert ce.ring.classify(a) == _scan_class(ce.ring, a), (ce.ring_str, a)


def test_divisor_classes_match_oracle():
    """``divisor_classes`` equals the definition-built oracle, order
    included."""
    for ring, targets, box in divisor_class_cases():
        for a in targets:
            assert ring.divisor_classes(a) == oracle_divisor_classes(ring, a, box), (ring, a)


def test_divisor_classes_of_axis_elements_raise():
    zint = build_ring(IntegersSpec())
    with pytest.raises(InfiniteSetError):
        zint.divisor_classes(0)
    zz = build_ring(ProductSpec(IntegersSpec(), IntegersSpec()))
    for a in [(0, 0)] + [p for c in (1, 2, -6, 12) for p in ((c, 0), (0, c))]:
        with pytest.raises(InfiniteSetError):
            zz.divisor_classes(a)


def test_no_ring_primitive_is_bound_per_instance():
    """perfbench's tracer wraps ring primitives on the classes, so an
    instance attribute of the same name would hide its calls."""
    primitives = ("mul", "classify", "divisors", "cofactors", "associated", "comaximal", "units", "divisor_classes")
    rings = [build_ring_from_text(s) for s in default_corpus_spec()["rings"]]
    seen = 0
    while rings:
        ring = rings.pop()
        ring.mul(ring.one, ring.one)
        ring.divisor_classes(ring.one)
        assert not set(primitives) & set(vars(ring)), ring
        rings += [vars(ring)[side] for side in ("left", "right") if side in vars(ring)]
        seen += 1
    assert seen > len(default_corpus_spec()["rings"])
