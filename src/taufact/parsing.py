"""Text grammars for rings, relations and elements.

Ring specs:     Z | Zn(6) | GFq(2,[1,1,1]) | prod(<ring>,<ring>), nested.
Relation specs: full | empty | zero | comax | regular | subset[e1,...] |
                regcap(<relation>).
Elements:       integers, [c0,c1,...] coefficient arrays, (x,y) pairs,
                mirroring the ring shape.

Parse errors carry the offending position.
"""

from __future__ import annotations

from .rings import (
    IntegersSpec,
    ModIntSpec,
    PolyQuotSpec,
    ProductSpec,
    Ring,
    build_ring,
)
from .relations import (
    ComaximalTau,
    EmptyTau,
    FullTau,
    RegCapTau,
    RegularTau,
    SubsetTau,
    TauRelation,
    ZeroProductTau,
    build_tau,
)


class ParseError(ValueError):
    def __init__(self, text: str, pos: int, message: str):
        self.pos = pos
        super().__init__(f"{message} at position {pos}: {text[:pos]}>><<{text[pos:]}")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            raise ParseError(self.text, self.pos, f"expected {ch!r}")
        self.pos += len(ch)

    def word(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if start == self.pos:
            raise ParseError(self.text, self.pos, "expected a name")
        return self.text[start : self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start : self.pos].lstrip("+-"):
            raise ParseError(self.text, start, "expected an integer")
        return int(self.text[start : self.pos])

    def done(self):
        self.skip_ws()
        if self.pos != len(self.text):
            raise ParseError(self.text, self.pos, "trailing input")


def parse_ring_spec(text: str):
    sc = _Scanner(text)
    spec = _ring(sc)
    sc.done()
    return spec


def _ring(sc: _Scanner):
    start = sc.pos
    name = sc.word()
    if name == "Z":
        return IntegersSpec()
    if name == "Zn":
        sc.expect("(")
        n = sc.integer()
        sc.expect(")")
        return ModIntSpec(n)
    if name == "GFq":
        sc.expect("(")
        p = sc.integer()
        sc.expect(",")
        sc.expect("[")
        coeffs = [sc.integer()]
        while sc.peek() == ",":
            sc.expect(",")
            coeffs.append(sc.integer())
        sc.expect("]")
        sc.expect(")")
        return PolyQuotSpec(p, tuple(coeffs))
    if name == "prod":
        sc.expect("(")
        left = _ring(sc)
        sc.expect(",")
        right = _ring(sc)
        sc.expect(")")
        return ProductSpec(left, right)
    raise ParseError(sc.text, start, f"unknown ring constructor {name!r}")


def build_ring_from_text(text: str) -> Ring:
    return build_ring(parse_ring_spec(text))


def _element(sc: _Scanner, ring: Ring):
    from .rings import IntegerRing, ModRing, PolyQuotRing, ProductRing

    if isinstance(ring, (ModRing, IntegerRing)):
        value = sc.integer()
        if not ring.contains(value):
            raise ParseError(sc.text, sc.pos, f"not an element of {ring.spec_string()}")
        return value
    if isinstance(ring, PolyQuotRing):
        sc.expect("[")
        coeffs = [sc.integer()]
        while sc.peek() == ",":
            sc.expect(",")
            coeffs.append(sc.integer())
        sc.expect("]")
        value = tuple(coeffs)
        if not ring.contains(value):
            raise ParseError(sc.text, sc.pos, f"not an element of {ring.spec_string()}")
        return value
    if isinstance(ring, ProductRing):
        opener = sc.peek()
        if opener not in "([":
            raise ParseError(sc.text, sc.pos, "expected a pair")
        closer = ")" if opener == "(" else "]"
        sc.expect(opener)
        left = _element(sc, ring.left)
        sc.expect(",")
        right = _element(sc, ring.right)
        sc.expect(closer)
        return (left, right)
    raise ParseError(sc.text, sc.pos, "unsupported ring shape")


def parse_element(text: str, ring: Ring):
    sc = _Scanner(text)
    value = _element(sc, ring)
    sc.done()
    return value


def parse_tau_spec(text: str, ring: Ring | None):
    """The relation spec of ``text``; ``ring`` reads subset elements and may
    be None for a text that names none."""
    sc = _Scanner(text)
    spec = _tau(sc, ring)
    sc.done()
    return spec


def _tau(sc: _Scanner, ring: Ring):
    start = sc.pos
    name = sc.word()
    if name == "full":
        return FullTau()
    if name == "empty":
        return EmptyTau()
    if name == "zero":
        return ZeroProductTau()
    if name == "comax":
        return ComaximalTau()
    if name == "regular":
        return RegularTau()
    if name == "regcap":
        sc.expect("(")
        inner = _tau(sc, ring)
        sc.expect(")")
        return RegCapTau(inner)
    if name == "subset":
        sc.expect("[")
        elems = [_element(sc, ring)]
        while sc.peek() == ",":
            sc.expect(",")
            elems.append(_element(sc, ring))
        sc.expect("]")
        return SubsetTau(tuple(elems))
    raise ParseError(sc.text, start, f"unknown relation constructor {name!r}")


def build_tau_from_text(text: str, ring: Ring) -> TauRelation:
    return build_tau(parse_tau_spec(text, ring), ring)
