import gc
import random
import weakref

import pytest

from conftest import small_finite_rings
from taufact import (
    IntegersSpec,
    ModIntSpec,
    ParseError,
    PolyQuotSpec,
    ProductSpec,
    build_ring_from_text,
    build_tau,
    build_tau_from_text,
    parse_element,
    parse_ring_spec,
    parse_tau_spec,
)
from taufact.corpus import DEFAULT_TAUS
from taufact.relations import ComaximalTau, EmptyTau, FullTau, RegCapTau, RegularTau, SubsetTau, ZeroProductTau


@pytest.mark.parametrize(
    "text,expected",
    [
        ("Z", IntegersSpec()),
        ("Zn(6)", ModIntSpec(6)),
        ("GFq(2,[1,1,1])", PolyQuotSpec(2, (1, 1, 1))),
        ("prod(Zn(3),Zn(3))", ProductSpec(ModIntSpec(3), ModIntSpec(3))),
        (
            "prod(prod(Zn(2),Z),Zn(4))",
            ProductSpec(ProductSpec(ModIntSpec(2), IntegersSpec()), ModIntSpec(4)),
        ),
        (" prod( Zn(2) , Z ) ", ProductSpec(ModIntSpec(2), IntegersSpec())),
    ],
)
def test_ring_grammar(text, expected):
    assert parse_ring_spec(text) == expected


@pytest.mark.parametrize("bad", ["", "Q", "Zn()", "Zn(6", "prod(Zn(2))", "Zn(6)x"])
def test_ring_grammar_errors(bad):
    with pytest.raises(ParseError) as err:
        parse_ring_spec(bad)
    assert "position" in str(err.value)


def test_tau_grammar(z6):
    assert parse_tau_spec("full", z6) == FullTau()
    assert parse_tau_spec("regcap(comax)", z6) == RegCapTau(ComaximalTau())
    assert parse_tau_spec("subset[2,4]", z6) == SubsetTau((2, 4))
    with pytest.raises(ParseError):
        parse_tau_spec("weird", z6)


def test_element_grammar(z6, zz, f4):
    assert parse_element("4", z6) == 4
    assert parse_element("(2,-3)", zz) == (2, -3)
    assert parse_element("[1,1]", f4) == (1, 1)
    nested = build_ring_from_text("prod(prod(Zn(2),Z),Zn(4))")
    assert parse_element("((1,-7),3)", nested) == ((1, -7), 3)
    with pytest.raises(ParseError):
        parse_element("9", z6)
    with pytest.raises(ParseError):
        parse_element("(1,2", zz)


def test_spec_string_roundtrip():
    for text in ["Z", "Zn(24)", "GFq(2,[0,0,1])", "prod(Zn(3),prod(Z,Zn(2)))"]:
        ring = build_ring_from_text(text)
        assert parse_ring_spec(ring.spec_string()) == parse_ring_spec(text)


def _memo_rings():
    """The small finite rings with every element, and Z, prod(Z,Z) and
    nested products with elements of a small box."""
    for ring in small_finite_rings():
        yield ring, ring.elements()
    box = range(-7, 8)
    yield build_ring_from_text("Z"), list(box)
    yield build_ring_from_text("prod(Z,Z)"), [(i, j) for i in box for j in box]
    nested = build_ring_from_text("prod(prod(Zn(2),Z),Zn(4))")
    yield nested, [((i, j), k) for i in range(2) for j in box for k in range(4)]
    nested = build_ring_from_text("prod(Zn(3),prod(Z,GFq(2,[1,1,1])))")
    yield nested, [(i, (j, f)) for i in range(3) for j in box for f in build_ring_from_text("GFq(2,[1,1,1])").elements()]


def _memo_taus(ring, elements, rng):
    """The default relations of ``ring`` and three seeded subset relations
    on ``elements``."""
    taus = [build_tau_from_text(text, ring) for text in DEFAULT_TAUS]
    sharp = [a for a in elements if a != ring.zero and not ring.is_unit(a)]
    for _ in range(3 if sharp else 0):
        subset = rng.sample(sharp, rng.randint(1, min(len(sharp), 12)))
        taus.append(build_tau(SubsetTau(tuple(sorted(subset, key=ring.sort_key))), ring))
    return taus


def test_memoized_parses_match_a_fresh_parse():
    """Every ring, element and relation text parses, on its first and on a
    repeated call, to the value it was formatted from."""
    rng = random.Random(27)
    for ring, elements in _memo_rings():
        text = ring.spec_string()
        assert parse_ring_spec(text) == parse_ring_spec(text) == ring.spec
        for a in elements:
            text = ring.format_element(a)
            assert parse_element(text, ring) == parse_element(text, ring) == a, (ring.spec_string(), text)
        for tau in _memo_taus(ring, elements, rng):
            text = tau.spec_string()
            assert parse_tau_spec(text, ring) == parse_tau_spec(text, ring) == tau.spec, text


@pytest.mark.parametrize(
    "call",
    [
        lambda: parse_ring_spec("prod(Zn(2),Q)"),
        lambda: parse_element("(1,2", build_ring_from_text("prod(Z,Z)")),
        lambda: parse_element("9", build_ring_from_text("Zn(6)")),
        lambda: parse_element("[1,2]", build_ring_from_text("GFq(2,[1,1,1])")),
        lambda: parse_tau_spec("subset[[1,1]]", build_ring_from_text("GFq(2,[0,0,1,1])")),
        lambda: parse_tau_spec("regcap(weird)", None),
        lambda: parse_tau_spec("subset[2]", None),
    ],
)
def test_parse_errors_are_not_memoized(call):
    messages = []
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            call()
        messages.append(str(err.value))
    assert messages[0] == messages[1] and "position" in messages[0]


def test_relation_texts_parse_without_a_ring():
    expected = [FullTau(), EmptyTau(), ZeroProductTau(), ComaximalTau(), RegularTau()]
    expected += [RegCapTau(FullTau()), RegCapTau(ComaximalTau())]
    assert [parse_tau_spec(text, None) for text in DEFAULT_TAUS] == expected
    assert parse_tau_spec("regcap(regcap(zero))", None) == RegCapTau(RegCapTau(ZeroProductTau()))


def test_parse_memos_keep_no_ring():
    """A ring read by a parse is freed with its last reference: no parse
    keeps the ring, whose caches it would keep alive."""
    ring = build_ring_from_text("prod(Zn(2),Zn(6))")
    ring.divisors((0, 2))  # fill a cache a parse must not keep
    assert parse_element("[0,5]", ring) == (0, 5)
    assert parse_tau_spec("subset[(1,2),(0,3)]", ring) == SubsetTau(((1, 2), (0, 3)))
    ref = weakref.ref(ring)
    del ring
    gc.collect()
    assert ref() is None


def test_parse_memos_key_by_the_ring():
    """A text that is an element of one ring and not of another of the same
    shape is read against each: a cache keyed by text alone would accept
    it on both."""
    wide = build_ring_from_text("prod(Zn(2),Zn(6))")
    narrow = build_ring_from_text("prod(Zn(2),Zn(3))")
    for _ in range(2):
        assert parse_element("[0,5]", wide) == (0, 5)
        with pytest.raises(ParseError):
            parse_element("[0,5]", narrow)
    zz, zint = build_ring_from_text("prod(Z,Z)"), build_ring_from_text("Z")
    for _ in range(2):
        assert parse_tau_spec("subset[(1,2)]", zz) == SubsetTau(((1, 2),))
        with pytest.raises(ParseError):
            parse_tau_spec("subset[(1,2)]", zint)
