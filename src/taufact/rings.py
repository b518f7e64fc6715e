"""Constructible commutative rings with identity.

Supported constructions: Z/nZ, the integers, F_p[x]/(f) with f monic, and
finite nestings of binary products.  Every ring exposes exact arithmetic,
unit / zero-divisor classification, finite divisor sets, cofactor sets and
the three associate relations (same ideal, unit multiple, unit multiple with
every cofactor a unit).

Elements are plain hashable Python values: an int residue for Z/nZ, an int
for the integers, a tuple of residues for a quotient of F_p[x], and a pair
for a product.  Structural equality on these encodings is ring equality.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

Element = object  # int | tuple, shape mirrors the ring spec


class RingConstructionError(ValueError):
    """Malformed ring description (names the offending field)."""


class UnsupportedOperationError(RuntimeError):
    """Operation undefined or undecidable for this ring / element."""


class InfiniteSetError(UnsupportedOperationError):
    """The requested set (elements, divisors, ...) is infinite."""


class ElementClass(enum.Enum):
    ZERO = "zero"
    UNIT = "unit"
    ZERO_DIVISOR = "zero-divisor"
    REGULAR_NON_UNIT = "regular-non-unit"


class AssociateKind(enum.IntEnum):
    """The three associate relations, ordered by strength."""

    ASSOCIATE = 1
    STRONG = 2
    VERY_STRONG = 3


# ---------------------------------------------------------------------------
# Ring specs


@dataclass(frozen=True)
class ModIntSpec:
    n: int


@dataclass(frozen=True)
class IntegersSpec:
    pass


@dataclass(frozen=True)
class PolyQuotSpec:
    p: int
    f: tuple  # coefficients low-to-high, monic


@dataclass(frozen=True)
class ProductSpec:
    left: "RingSpec"
    right: "RingSpec"


RingSpec = object  # ModIntSpec | IntegersSpec | PolyQuotSpec | ProductSpec


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Cofactor sets

_ALL = "all"
_FINITE = "finite"
_PAIR = "pair"


class CofactorSet:
    """The set {r : a = r*b}, possibly the whole ring.

    ``All`` (the whole ring) arises exactly for a = b = 0.  Over products the
    set is a rectangle of component cofactor sets; queries stay decidable even
    when one side is all of an infinite component.
    """

    __slots__ = ("kind", "ring", "elems", "left", "right")

    def __init__(self, kind, ring, elems=None, left=None, right=None):
        self.kind = kind
        self.ring = ring
        self.elems = elems
        self.left = left
        self.right = right

    @staticmethod
    def finite(ring, elems) -> "CofactorSet":
        return CofactorSet(_FINITE, ring, elems=frozenset(elems))

    @staticmethod
    def all_of(ring) -> "CofactorSet":
        return CofactorSet(_ALL, ring)

    @staticmethod
    def pair(ring, left, right) -> "CofactorSet":
        return CofactorSet(_PAIR, ring, left=left, right=right)

    def is_empty(self) -> bool:
        if self.kind == _ALL:
            return False
        if self.kind == _FINITE:
            return not self.elems
        return self.left.is_empty() or self.right.is_empty()

    def contains_unit(self) -> bool:
        if self.kind == _ALL:
            return True  # 1 is in the ring
        if self.kind == _FINITE:
            return any(self.ring.is_unit(r) for r in self.elems)
        return self.left.contains_unit() and self.right.contains_unit()

    def all_units(self) -> bool:
        """True iff the set is nonempty and every member is a unit."""
        if self.is_empty():
            return False
        return self._all_units_nonempty()

    def _all_units_nonempty(self) -> bool:
        if self.kind == _ALL:
            return False  # 0 is in the ring and is not a unit
        if self.kind == _FINITE:
            return all(self.ring.is_unit(r) for r in self.elems)
        return self.left._all_units_nonempty() and self.right._all_units_nonempty()

    def pick_unit(self):
        """A deterministic unit member, or None."""
        if self.kind == _ALL:
            return self.ring.one
        if self.kind == _FINITE:
            units = [r for r in self.elems if self.ring.is_unit(r)]
            return min(units, key=self.ring.sort_key) if units else None
        lu = self.left.pick_unit()
        ru = self.right.pick_unit()
        if lu is None or ru is None:
            return None
        return (lu, ru)


# ---------------------------------------------------------------------------
# Rings


class Ring:
    """Common behaviour shared by all supported ring constructions."""

    spec: RingSpec
    is_finite: bool
    order: int | None

    def __init__(self):
        self._divisor_cache: dict = {}
        self._divisor_class_cache: dict = {}
        self._unit_cache: list | None = None
        self._nonunit_cache: list | None = None
        self._unit_inverse_cache: dict = {}
        self._classify_cache: dict = {}
        self._cofactor_cache: dict = {}
        self._assoc_cache: dict = {}
        self._assoc_key_cache: dict = {}

    # -- arithmetic (overridden per construction)

    def mul(self, a, b):
        raise NotImplementedError

    def product(self, factors) -> Element:
        out = self.one
        for x in factors:
            out = self.mul(out, x)
        return out

    def contains(self, a) -> bool:
        raise NotImplementedError

    def sort_key(self, a):
        raise NotImplementedError

    def elements(self) -> Iterator[Element]:
        raise InfiniteSetError("cannot enumerate an infinite ring")

    def element_to_json(self, a):
        raise NotImplementedError

    def element_from_json(self, data) -> Element:
        raise NotImplementedError

    def format_element(self, a) -> str:
        import json

        return json.dumps(self.element_to_json(a))

    # -- derived sets and predicates

    def units(self) -> list:
        if self._unit_cache is None:
            if not self.is_finite:
                raise InfiniteSetError("cannot scan an infinite ring for units")
            self._unit_cache = sorted(
                (a for a in self.elements() if self.is_unit(a)), key=self.sort_key
            )
        return self._unit_cache

    def is_unit(self, a) -> bool:
        return self.classify(a) == ElementClass.UNIT

    def is_regular(self, a) -> bool:
        """Non-zero-divisor (units included, 0 excluded)."""
        return self.classify(a) in (ElementClass.UNIT, ElementClass.REGULAR_NON_UNIT)

    def unit_inverse(self, a):
        inv = self._unit_inverse_cache.get(a)
        if inv is None:
            inv = self._compute_unit_inverse(a)
            self._unit_inverse_cache[a] = inv
        return inv

    def _compute_unit_inverse(self, a):
        for b in self.units():
            if self.mul(a, b) == self.one:
                return b
        raise ValueError(f"{a!r} is not a unit")

    def classify(self, a) -> ElementClass:
        got = self._classify_cache.get(a)
        if got is None:
            got = self._classify(a)
            self._classify_cache[a] = got
        return got

    def _classify(self, a) -> ElementClass:
        # Decide by a unit scan; constructions with a closed form override.
        # A finite ring has no regular non-units: if a is not a unit, x -> a*x
        # misses 1, so on a finite set it is not one-to-one either, and
        # a*b = a*c with b != c gives a*(b - c) = 0.
        if a == self.zero:
            return ElementClass.ZERO
        for b in self.elements():
            if self.mul(a, b) == self.one:
                return ElementClass.UNIT
        return ElementClass.ZERO_DIVISOR

    def nonunits(self) -> list:
        """All non-units (0 included) in deterministic order; finite rings
        only.  Built once per ring and shared: callers must not mutate it."""
        if self._nonunit_cache is None:
            self._nonunit_cache = sorted(
                (a for a in self.elements() if not self.is_unit(a)), key=self.sort_key
            )
        return self._nonunit_cache

    def nonzero_nonunits(self) -> list:
        """R# in deterministic order; finite rings only."""
        return [a for a in self.nonunits() if a != self.zero]

    def divisors(self, a) -> frozenset:
        """All b with a = r*b for some r (units and a itself included).

        Raises InfiniteSetError when the set is infinite (only possible for
        elements with a zero integer coordinate).
        """
        got = self._divisor_cache.get(a)
        if got is None:
            got = self._divisors(a)
            self._divisor_cache[a] = got
        return got

    def _divisors(self, a) -> frozenset:
        return frozenset(
            b for b in self.elements() if not self.cofactors(a, b).is_empty()
        )

    def divisor_classes(self, a) -> tuple:
        """One representative per associate class of a's non-unit divisors,
        in ``sort_key`` order: the first member of each class in that order.

        Every associate of a divisor is a divisor, so a class's first
        divisor is its least member.  Raises InfiniteSetError as ``divisors``.
        """
        got = self._divisor_class_cache.get(a)
        if got is None:
            got = self._divisor_classes(a)
            self._divisor_class_cache[a] = got
        return got

    def _divisor_classes(self, a) -> tuple:
        reps: dict = {}
        for d in sorted(self.divisors(a), key=self.sort_key):
            if not self.is_unit(d):
                reps.setdefault(self.associate_key(d, AssociateKind.ASSOCIATE), d)
        return tuple(reps.values())

    def cofactors(self, a, b) -> CofactorSet:
        got = self._cofactor_cache.get((a, b))
        if got is None:
            got = self._cofactors(a, b)
            self._cofactor_cache[(a, b)] = got
        return got

    def _cofactors(self, a, b) -> CofactorSet:
        raise NotImplementedError

    def comaximal(self, a, b) -> bool:
        """(a, b) generate the whole ring: some ax + by = 1."""
        raise NotImplementedError

    def associated(self, a, b, kind: AssociateKind) -> bool:
        key = (a, b, kind)
        got = self._assoc_cache.get(key)
        if got is None:
            got = self._associated(a, b, kind)
            self._assoc_cache[key] = got
        return got

    def _associated(self, a, b, kind: AssociateKind) -> bool:
        if kind == AssociateKind.ASSOCIATE:
            return not self.cofactors(a, b).is_empty() and not self.cofactors(
                b, a
            ).is_empty()
        if kind == AssociateKind.STRONG:
            return self.cofactors(a, b).contains_unit()
        # very strong: same ideal, and (both zero, or every cofactor a unit)
        if not self.associated(a, b, AssociateKind.ASSOCIATE):
            return False
        if a == self.zero and b == self.zero:
            return True
        return self.cofactors(a, b).all_units()

    def associate_key(self, x, kind: AssociateKind) -> tuple:
        """Class key of x: the least ``sort_key`` over its kind-associates.

        Every constructible ring is strongly associate (README, "Design
        notes"), so the associates of x are exactly its unit multiples, and
        the key is ``(0, min sort_key(u*x))`` over the units u.  Under
        VERY_STRONG an x that is not very-strongly associate to itself is
        its own class, ``(1, sort_key(x))``.  One that is relates very
        strongly to every unit multiple y = u*x, so its class is the whole
        orbit: if x = r*y then x = (r*u)*x, so r*u and with it r is a unit.
        So every kind shares one orbit key per x, memoized once.
        """
        if kind == AssociateKind.VERY_STRONG and not self.associated(x, x, kind):
            return (1, self.sort_key(x))
        got = self._assoc_key_cache.get(x)
        if got is None:
            got = (0, self._orbit_min(x))
            self._assoc_key_cache[x] = got
        return got

    def _orbit_min(self, x):
        """The least ``sort_key(u*x)`` over the units u; constructions with a
        closed form override the scan."""
        return min(self.sort_key(self.mul(u, x)) for u in self.units())

    def spec_string(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<Ring {self.spec_string()}>"

    def __eq__(self, other):
        return isinstance(other, Ring) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)


class ModRing(Ring):
    """Z/nZ with residues 0..n-1."""

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise RingConstructionError(f"ModInt modulus n must be an integer >= 2, got {n!r}")
        super().__init__()
        self.n = n
        self.spec = ModIntSpec(n)
        self.is_finite = True
        self.order = n
        self.zero = 0
        self.one = 1
        self._comax_cache: dict = {}

    def mul(self, a, b):
        return (a * b) % self.n

    def contains(self, a):
        return isinstance(a, int) and 0 <= a < self.n

    def sort_key(self, a):
        return a

    def elements(self):
        return iter(range(self.n))

    def element_to_json(self, a):
        return a

    def element_from_json(self, data):
        if not isinstance(data, int) or isinstance(data, bool) or not 0 <= data < self.n:
            raise ValueError(f"not a residue mod {self.n}: {data!r}")
        return data

    def _classify(self, a) -> ElementClass:
        # a is a unit iff gcd(a, n) = 1; every other non-zero residue is a
        # zero divisor, as in any finite ring (see Ring._classify).
        if a == 0:
            return ElementClass.ZERO
        if math.gcd(a, self.n) == 1:
            return ElementClass.UNIT
        return ElementClass.ZERO_DIVISOR

    def units(self) -> list:
        if self._unit_cache is None:
            self._unit_cache = [a for a in range(1, self.n) if math.gcd(a, self.n) == 1]
        return self._unit_cache

    def _compute_unit_inverse(self, a):
        try:
            return pow(a, -1, self.n)
        except ValueError:
            raise ValueError(f"{a!r} is not a unit") from None

    def _divisors(self, a) -> frozenset:
        # b | a iff gcd(b, n) | a: r*b = a has a solution mod n exactly when
        # the gcd divides a (see _cofactors).
        n = self.n
        return frozenset(b for b in range(n) if a % math.gcd(b, n) == 0)

    def _cofactors(self, a, b) -> CofactorSet:
        # With g = gcd(b, n), r*b = a (mod n) is solvable iff g | a, and then
        # divides through to r*(b/g) = a/g (mod n/g), where b/g is a unit:
        # the solutions are r0 + k*(n/g) with r0 = (a/g)*(b/g)^-1 mod n/g.
        if a == 0 and b == 0:
            return CofactorSet.all_of(self)
        n = self.n
        g = math.gcd(b, n)
        if a % g:
            return CofactorSet.finite(self, ())
        m = n // g
        r0 = (a // g) * pow(b // g, -1, m) % m
        return CofactorSet.finite(self, range(r0, n, m))

    def _orbit_min(self, x):
        # the unit orbit of x is the residues g = gcd(x, n) times a unit, so
        # its least member is g (0 when x = 0, where g = n)
        return math.gcd(x, self.n) % self.n

    def comaximal(self, a, b) -> bool:
        got = self._comax_cache.get((a, b))
        if got is None:
            got = math.gcd(a, b, self.n) == 1
            self._comax_cache[(a, b)] = got
        return got

    def spec_string(self) -> str:
        return f"Zn({self.n})"


class IntegerRing(Ring):
    """The ring of integers."""

    def __init__(self):
        super().__init__()
        self.spec = IntegersSpec()
        self.is_finite = False
        self.order = None
        self.zero = 0
        self.one = 1

    def mul(self, a, b):
        return a * b

    def contains(self, a):
        return isinstance(a, int)

    def sort_key(self, a):
        return (abs(a), 0 if a >= 0 else 1)

    def element_to_json(self, a):
        return a

    def element_from_json(self, data):
        if not isinstance(data, int) or isinstance(data, bool):
            raise ValueError(f"not an integer: {data!r}")
        return data

    def units(self):
        return [1, -1]

    def _classify(self, a):
        if a == 0:
            return ElementClass.ZERO
        if a in (1, -1):
            return ElementClass.UNIT
        return ElementClass.REGULAR_NON_UNIT

    def _compute_unit_inverse(self, a):
        if a in (1, -1):
            return a
        raise ValueError(f"{a!r} is not a unit")

    def _orbit_min(self, x):
        # the orbit is {x, -x}
        return (abs(x), 0)

    def _divisors(self, a) -> frozenset:
        if a == 0:
            raise InfiniteSetError("divisor set of 0 is all of the integers")
        n = abs(a)
        divs = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                divs.update((d, -d, n // d, -(n // d)))
            d += 1
        return frozenset(divs)

    def _divisor_classes(self, a) -> tuple:
        # the class of d is {d, -d}, and d > 0 sorts first
        return tuple(sorted(d for d in self.divisors(a) if d > 1))

    def _cofactors(self, a, b) -> CofactorSet:
        if b == 0:
            if a == 0:
                return CofactorSet.all_of(self)
            return CofactorSet.finite(self, ())
        if a % b == 0:
            return CofactorSet.finite(self, (a // b,))
        return CofactorSet.finite(self, ())

    def _associated(self, a, b, kind: AssociateKind) -> bool:
        # integral domain: all three relations are |a| = |b|
        return abs(a) == abs(b)

    def comaximal(self, a, b) -> bool:
        return math.gcd(a, b) == 1

    def spec_string(self) -> str:
        return "Z"


def _poly_gcd(p: int, a, b) -> list:
    """A gcd over F_p of two coefficient sequences (low to high), as a
    list with no trailing zeros; [] is the zero polynomial."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a <- a mod b
            c, shift = a[-1] * inv % p, len(a) - len(b)
            for i, y in enumerate(b):
                a[shift + i] = (a[shift + i] - c * y) % p
            a = _poly_trim(a)
        a, b = b, a
    return a


def _poly_trim(a) -> list:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


class PolyQuotRing(Ring):
    """F_p[x]/(f) for a monic f of degree >= 1.

    Elements are coefficient tuples of length deg f (low-to-high), i.e.
    residue polynomials of degree < deg f.
    """

    def __init__(self, p: int, f):
        f = tuple(f)
        if not _is_prime(p):
            raise RingConstructionError(f"PolyQuot characteristic p must be prime, got {p!r}")
        if len(f) < 2:
            raise RingConstructionError("PolyQuot modulus f must have degree >= 1")
        if any(not isinstance(c, int) or not 0 <= c < p for c in f):
            raise RingConstructionError(
                f"PolyQuot modulus f must have coefficients reduced mod {p}, got {f!r}"
            )
        if f[-1] != 1:
            raise RingConstructionError(f"PolyQuot modulus f must be monic, got {f!r}")
        super().__init__()
        self.p = p
        self.f = f
        self.deg = len(f) - 1
        self.spec = PolyQuotSpec(p, f)
        self.is_finite = True
        self.order = p**self.deg
        self.zero = (0,) * self.deg
        self.one = tuple([1] + [0] * (self.deg - 1)) if self.deg > 1 else (1,)
        self._comax_cache: dict = {}
        self._mul_cache: dict = {}

    def mul(self, a, b):
        # memoized, as ``comaximal`` is: the scans reach each of the (at most
        # order**2) products many times
        got = self._mul_cache.get((a, b))
        if got is not None:
            return got
        d = self.deg
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] = (conv[i + j] + x * y) % self.p
        # reduce mod f (monic): kill coefficients at degree >= d
        for k in range(2 * d - 2, d - 1, -1):
            c = conv[k]
            if c:
                conv[k] = 0
                for i in range(len(self.f) - 1):
                    conv[k - self.deg + i] = (conv[k - self.deg + i] - c * self.f[i]) % self.p
        got = self._mul_cache[(a, b)] = tuple(conv[:d])
        return got

    def contains(self, a):
        return (
            isinstance(a, tuple)
            and len(a) == self.deg
            and all(isinstance(c, int) and 0 <= c < self.p for c in a)
        )

    def sort_key(self, a):
        return a

    def elements(self):
        return itertools.product(range(self.p), repeat=self.deg)

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, data):
        if not isinstance(data, list) or any(isinstance(c, bool) for c in data):
            raise ValueError(f"expected a coefficient array, got {data!r}")
        a = tuple(data)
        if not self.contains(a):
            raise ValueError(f"not a residue polynomial for {self.spec_string()}: {data!r}")
        return a

    def _cofactors(self, a, b) -> CofactorSet:
        if a == self.zero and b == self.zero:
            return CofactorSet.all_of(self)
        return CofactorSet.finite(
            self, (r for r in self.elements() if self.mul(r, b) == a)
        )

    def comaximal(self, a, b) -> bool:
        # aR + bR is the image of the ideal (a, b, f) of F_p[x], a PID, so it
        # is all of R iff gcd(a, b, f) is a nonzero constant
        got = self._comax_cache.get((a, b))
        if got is None:
            got = len(_poly_gcd(self.p, _poly_gcd(self.p, self.f, a), b)) == 1
            self._comax_cache[(a, b)] = got
        return got

    def spec_string(self) -> str:
        return f"GFq({self.p},[{','.join(str(c) for c in self.f)}])"


class ProductRing(Ring):
    """Direct product of two supported rings; elements are pairs."""

    def __init__(self, left: Ring, right: Ring):
        super().__init__()
        self.left = left
        self.right = right
        self.spec = ProductSpec(left.spec, right.spec)
        self.is_finite = left.is_finite and right.is_finite
        self.order = left.order * right.order if self.is_finite else None
        self.zero = (left.zero, right.zero)
        self.one = (left.one, right.one)
        self._int_pair = isinstance(left, IntegerRing) and isinstance(right, IntegerRing)

    def mul(self, a, b):
        if self._int_pair:
            return (a[0] * b[0], a[1] * b[1])
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def contains(self, a):
        return (
            isinstance(a, tuple)
            and len(a) == 2
            and self.left.contains(a[0])
            and self.right.contains(a[1])
        )

    def sort_key(self, a):
        return (self.left.sort_key(a[0]), self.right.sort_key(a[1]))

    def elements(self):
        if not self.is_finite:
            raise InfiniteSetError("cannot enumerate an infinite ring")
        return (
            (x, y) for x in self.left.elements() for y in self.right.elements()
        )

    def element_to_json(self, a):
        return [self.left.element_to_json(a[0]), self.right.element_to_json(a[1])]

    def element_from_json(self, data):
        if not isinstance(data, list) or len(data) != 2:
            raise ValueError(f"expected a pair, got {data!r}")
        return (
            self.left.element_from_json(data[0]),
            self.right.element_from_json(data[1]),
        )

    def units(self):
        # component units in order, paired left-major: in sort_key order
        if self._unit_cache is None:
            self._unit_cache = [(x, y) for x in self.left.units() for y in self.right.units()]
        return self._unit_cache

    def _compute_unit_inverse(self, a):
        return (self.left.unit_inverse(a[0]), self.right.unit_inverse(a[1]))

    def _orbit_min(self, x):
        # the units are the pairs of component units, and sort_key is
        # lexicographic, so the minimum is taken component by component
        return (self.left._orbit_min(x[0]), self.right._orbit_min(x[1]))

    def _classify(self, a):
        cl = self.left.classify(a[0])
        cr = self.right.classify(a[1])
        if cl == ElementClass.ZERO and cr == ElementClass.ZERO:
            return ElementClass.ZERO
        if cl == ElementClass.UNIT and cr == ElementClass.UNIT:
            return ElementClass.UNIT
        regular = (ElementClass.UNIT, ElementClass.REGULAR_NON_UNIT)
        if cl in regular and cr in regular:
            return ElementClass.REGULAR_NON_UNIT
        return ElementClass.ZERO_DIVISOR

    def _divisors(self, a) -> frozenset:
        return frozenset(
            (x, y)
            for x in self.left.divisors(a[0])
            for y in self.right.divisors(a[1])
        )

    def _divisor_classes(self, a) -> tuple:
        # units and divisors are pairs, so a class is a pair of component
        # classes (the unit class, named by the least unit, included) and
        # its least member the pair of theirs; sort_key is lexicographic,
        # so left-major order is sorted
        one = self.units()[0]
        sides = [
            sorted((u,) + ring.divisor_classes(x), key=ring.sort_key)
            for ring, x, u in zip((self.left, self.right), a, one)
        ]
        return tuple(p for p in itertools.product(*sides) if p != one)

    def _cofactors(self, a, b) -> CofactorSet:
        return CofactorSet.pair(
            self,
            self.left.cofactors(a[0], b[0]),
            self.right.cofactors(a[1], b[1]),
        )

    def comaximal(self, a, b) -> bool:
        return self.left.comaximal(a[0], b[0]) and self.right.comaximal(a[1], b[1])

    def spec_string(self) -> str:
        return f"prod({self.left.spec_string()},{self.right.spec_string()})"


def build_ring(spec: RingSpec) -> Ring:
    """Construct a ring from its spec, validating invariants."""
    if isinstance(spec, ModIntSpec):
        return ModRing(spec.n)
    if isinstance(spec, IntegersSpec):
        return IntegerRing()
    if isinstance(spec, PolyQuotSpec):
        return PolyQuotRing(spec.p, spec.f)
    if isinstance(spec, ProductSpec):
        return ProductRing(build_ring(spec.left), build_ring(spec.right))
    raise RingConstructionError(f"unknown ring spec: {spec!r}")

