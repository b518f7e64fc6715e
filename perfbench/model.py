"""A small stdlib model of the rings and relations the benchmark feeds to
taufact, written independently of taufact's own code.

The generator uses it to draw elements and to describe its inputs (zero
divisors, extensionally equal relations); the gate uses it to check that
every factorization and split taufact prints multiplies back to its target
and respects its relation.  It covers the ring grammar `Z`, `Zn(n)`,
`GFq(p,[c0,...,1])` and `prod(A,B)`, and the seven default relations plus
`regcap(...)` of any of them.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import gcd


class Zn:
    def __init__(self, n):
        self.n = n
        self.order = n
        self.zero, self.one = 0, 1

    def elements(self):
        return list(range(self.n))

    def mul(self, a, b):
        return a * b % self.n

    def is_unit(self, a):
        return gcd(a, self.n) == 1

    def is_regular(self, a):
        return self.is_unit(a)

    def comaximal(self, a, b):
        return gcd(gcd(a, b), self.n) == 1

    def from_json(self, v):
        return v

    def to_json(self, a):
        return a


class Integers:
    order = None
    zero, one = 0, 1

    def mul(self, a, b):
        return a * b

    def is_unit(self, a):
        return a in (1, -1)

    def is_regular(self, a):
        return a != 0

    def comaximal(self, a, b):
        return gcd(a, b) == 1

    def from_json(self, v):
        return v

    def to_json(self, a):
        return a


class PolyQuot:
    """F_p[x]/(f), elements as coefficient tuples, low degree first."""

    def __init__(self, p, f):
        self.p, self.f = p, tuple(f)
        self.deg = len(f) - 1
        self.order = p**self.deg
        self.zero = (0,) * self.deg
        self.one = (1,) + (0,) * (self.deg - 1)

    def elements(self):
        return list(itertools.product(range(self.p), repeat=self.deg))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        d, p = self.deg, self.p
        prod = [0] * (2 * d)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        # x^d = -(f_0 + f_1 x + ... + f_{d-1} x^{d-1})
        for k in range(2 * d - 1, d - 1, -1):
            c = prod[k] % p
            prod[k] = 0
            for i in range(d):
                prod[k - d + i] -= c * self.f[i]
        return tuple(c % p for c in prod[:d])

    def is_unit(self, a):
        return _poly_unit(self, a)

    def is_regular(self, a):
        return self.is_unit(a)

    def comaximal(self, a, b):
        return _poly_comaximal(self, a, b)

    def from_json(self, v):
        return tuple(v)

    def to_json(self, a):
        return list(a)


@lru_cache(maxsize=None)
def _poly_units(ring):
    return frozenset(a for a in ring.elements() if any(ring.mul(a, b) == ring.one for b in ring.elements()))


def _poly_unit(ring, a):
    return a in _poly_units(ring)


@lru_cache(maxsize=None)
def _poly_comaximal(ring, a, b):
    # the ideal (a, b) is all of R iff it contains a unit
    elems = ring.elements()
    ideal = {ring.add(ring.mul(a, x), ring.mul(b, y)) for x in elems for y in elems}
    return any(ring.is_unit(c) for c in ideal)


class Product:
    def __init__(self, left, right):
        self.left, self.right = left, right
        self.order = left.order * right.order if left.order and right.order else None
        self.zero = (left.zero, right.zero)
        self.one = (left.one, right.one)

    def elements(self):
        return [(x, y) for x in self.left.elements() for y in self.right.elements()]

    def mul(self, a, b):
        return (self.left.mul(a[0], b[0]), self.right.mul(a[1], b[1]))

    def is_unit(self, a):
        return self.left.is_unit(a[0]) and self.right.is_unit(a[1])

    def is_regular(self, a):
        return self.left.is_regular(a[0]) and self.right.is_regular(a[1])

    def comaximal(self, a, b):
        return self.left.comaximal(a[0], b[0]) and self.right.comaximal(a[1], b[1])

    def from_json(self, v):
        return (self.left.from_json(v[0]), self.right.from_json(v[1]))

    def to_json(self, a):
        return [self.left.to_json(a[0]), self.right.to_json(a[1])]


@lru_cache(maxsize=None)
def parse_ring(text: str):
    ring, rest = _parse(text.replace(" ", ""))
    if rest:
        raise ValueError(f"trailing text in ring spec {text!r}")
    return ring


def _parse(s):
    if s.startswith("Zn("):
        n, rest = s[3:].split(")", 1)
        return Zn(int(n)), rest
    if s.startswith("GFq("):
        p, rest = s[4:].split(",", 1)
        coeffs, rest = rest[1:].split("]", 1)
        return PolyQuot(int(p), [int(c) for c in coeffs.split(",")]), rest[1:]
    if s.startswith("prod("):
        left, rest = _parse(s[5:])
        right, rest = _parse(rest[1:])
        return Product(left, right), rest[1:]
    if s.startswith("Z"):
        return Integers(), s[1:]
    raise ValueError(f"cannot parse ring spec {s!r}")


def relation(tau: str, ring):
    """The relation named by a default spec, as a predicate on R# pairs."""
    if tau.startswith("regcap(") and tau.endswith(")"):
        inner = relation(tau[7:-1], ring)
        return lambda a, b: ring.is_regular(a) and ring.is_regular(b) and inner(a, b)
    return {
        "full": lambda a, b: True,
        "empty": lambda a, b: False,
        "zero": lambda a, b: ring.mul(a, b) == ring.zero,
        "comax": ring.comaximal,
        "regular": lambda a, b: ring.is_regular(a) and ring.is_regular(b),
    }[tau]


def sharp(ring):
    """R#, the nonzero non-units of a finite ring."""
    return [a for a in ring.elements() if a != ring.zero and not ring.is_unit(a)]


def product(ring, factors):
    out = ring.one
    for x in factors:
        out = ring.mul(out, x)
    return out
