"""Enumeration of factorizations whose factors pairwise satisfy a relation.

A factorization of a non-unit ``a`` is ``a = u * x1 * ... * xn`` with ``u`` a
unit, the ``xi`` non-units, and every pair of distinct positions related by
the ambient relation (a repeated factor must relate to itself).  ``n = 1`` is
the trivial case and carries no pair condition.

Candidate factors are drawn from the divisors of the target, which keeps the
search finite even over the integers.  Enumeration is exhaustive up to a
length cap; unbounded length is detected by a pumping rule (a factor x with
x related to everything in the factorization and x * P strongly associate to
the product P can be inserted any number of times), reported as a tri-state
so a cap never silently masquerades as a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rings import AssociateKind, ElementClass, InfiniteSetError, Ring
from .relations import TauRelation


class PreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class Factorization:
    """unit * product(factors) = target, factors sorted canonically."""

    ring: Ring
    unit: object
    factors: tuple
    target: object

    @property
    def trivial(self) -> bool:
        return len(self.factors) == 1

    def to_json(self):
        r = self.ring
        return {
            "unit": r.element_to_json(self.unit),
            "factors": [r.element_to_json(x) for x in self.factors],
            "target": r.element_to_json(self.target),
            "trivial": self.trivial,
        }


@dataclass(frozen=True)
class PumpWitness:
    x: object
    base: Factorization


@dataclass
class FactorizationSet:
    """All factorizations of one target up to rearrangement and an associate kind."""

    ring: Ring
    target: object
    beta: AssociateKind
    cap: int
    classes: dict  # canonical key -> representative Factorization
    candidates: tuple
    raw_total: int
    max_length: int
    unbounded: str  # "no" | "yes" | "unknown"
    pump: Optional[PumpWitness]

    def __post_init__(self):
        # the class representatives, shorter first, then by canonical key
        self.items: tuple = tuple(
            self.classes[k] for k in sorted(self.classes, key=lambda k: (len(k), k))
        )

    @property
    def complete(self) -> bool:
        return self.unbounded != "unknown"

    @property
    def exhaustive(self) -> bool:
        """The cap cut off no factorization and no partial product that
        could grow, and none pumps, so all are listed."""
        return self.unbounded == "no"

    def to_json(self):
        out = {
            "target": self.ring.element_to_json(self.target),
            "cap": self.cap,
            "complete": self.complete,
            "unbounded": self.unbounded,
            "items": [f.to_json() for f in self.items],
        }
        if self.pump is not None:
            out["pump"] = {
                "x": self.ring.element_to_json(self.pump.x),
                "base": self.pump.base.to_json(),
            }
        return out


# ---------------------------------------------------------------------------
# Canonical forms


def canonicalize(ring: Ring, factors: tuple, beta: AssociateKind) -> tuple:
    """Class key of a factorization's factor tuple: equal for two
    factorizations iff their factor multisets match bijectively with
    beta-associated factors (rearrangement and unit variation quotiented
    away)."""
    return tuple(sorted([ring.associate_key(x, beta) for x in factors]))


# ---------------------------------------------------------------------------
# Enumeration


def pump_factor(ring: Ring, tau: TauRelation, factors: tuple, product):
    """A factor that can be inserted into the factorization any number of
    times, or None.

    ``x`` qualifies when it relates to itself and to every factor and
    ``x * product`` is strongly associate to ``product``: the unit slot then
    absorbs each extra copy, so the factorization has no length bound.
    """
    if ring.zero in factors:
        return None
    others = set(factors)
    for x in dict.fromkeys(factors):  # preserves order, dedups
        if ring.is_unit(x):
            continue
        if not tau.holds(x, x):
            continue
        if any(not tau.holds(x, y) for y in others):
            continue
        if ring.associated(ring.mul(x, product), product, AssociateKind.STRONG):
            return x
    return None


def default_cap(ring: Ring, tau: TauRelation, target) -> int:
    """max(8, number of associate classes of non-unit divisors + 1), or 8
    when the divisor set is infinite."""
    try:
        return max(8, len(ring.divisor_classes(target)) + 1)
    except InfiniteSetError:
        return 8


def _first_trivial_decides(tau: TauRelation, beta: AssociateKind) -> bool:
    """The trivial factorizations ``(x,)`` of a target, x over its associate
    orbit, share one class key and pump alike: the key is the orbit's below
    ``VERY_STRONG``, and on an associate-stable relation ``x = 0``,
    ``holds(x, x)`` and ``x*x`` strongly associate to x all hold for every x
    in the orbit or for none (README, "Design notes")."""
    return beta != AssociateKind.VERY_STRONG and tau.associate_stable


def enumerate_factorizations(
    ring: Ring,
    tau: TauRelation,
    target,
    beta: AssociateKind = AssociateKind.ASSOCIATE,
    cap: Optional[int] = None,
) -> FactorizationSet:
    """All factorizations of ``target`` with length 1..cap, canonicalized."""
    cls = ring.classify(target)
    if cls == ElementClass.UNIT:
        raise PreconditionError("target must be a non-unit")
    if not ring.is_finite and target == ring.zero:
        raise PreconditionError("cannot factor 0 in an infinite ring")
    if cap is None:
        cap = default_cap(ring, tau, target)
    if cap < 2:
        raise PreconditionError("cap must be at least 2")

    zero = ring.zero
    mul = ring.mul
    regular = cls == ElementClass.REGULAR_NON_UNIT
    classes: dict = {}
    raw_seen: set = set()
    pump: Optional[PumpWitness] = None
    max_length = 0
    truncated = False  # the cap stopped a partial product that could grow

    def consider(factors: tuple, product, unit) -> None:
        # a Factorization is built only for a new class or the pump witness
        nonlocal pump, max_length
        if factors in raw_seen:
            return
        raw_seen.add(factors)
        max_length = max(max_length, len(factors))
        key = canonicalize(ring, factors, beta)
        if key not in classes:
            classes[key] = Factorization(ring=ring, unit=unit, factors=factors, target=target)
        # a regular target never pumps: x*P = u*P with P regular forces x = u
        if pump is None and not regular:
            x = pump_factor(ring, tau, factors, product)
            if x is not None:
                base = Factorization(ring=ring, unit=unit, factors=factors, target=target)
                pump = PumpWitness(x=x, base=base)

    # trivial factorizations, one per distinct factor value, smallest unit
    # first (``units()`` is in ``sort_key`` order); they are the target's
    # associate orbit, so where the first decides the class and the pump for
    # all, the others are only counted
    first_decides = _first_trivial_decides(tau, beta)
    for u in ring.units():
        x = mul(ring.unit_inverse(u), target)
        if first_decides and raw_seen:
            raw_seen.add((x,))
        elif (x,) not in raw_seen:
            consider((x,), x, u)

    candidates = tau.candidates(target, reduce_assoc=beta != AssociateKind.VERY_STRONG)

    if candidates:
        unit_cof: dict = {}

        def unit_for(product):
            got = unit_cof.get(product, False)
            if got is False:
                got = ring.cofactors(target, product).pick_unit()
                unit_cof[product] = got
            return got

        divisor_set = ring.divisors(target)
        index = dict(zip(candidates, range(len(candidates))))
        rows: dict = {}

        def row(x) -> set:
            # the candidates from x on that relate to x, read once per
            # enumeration: a pool holds only candidates >= its chosen x
            got = rows.get(x)
            if got is None:
                got = rows[x] = {y for y in candidates[index[x] :] if tau.holds(x, y)}
            return got

        # depth-first over nondecreasing candidate index sequences
        def extend(pool: list, chosen: list, product) -> None:
            nonlocal truncated
            for idx, x in enumerate(pool):
                prod2 = mul(product, x)
                # every partial product divides the target (0 divides only 0)
                if prod2 == zero:
                    if target != zero:
                        continue
                elif prod2 not in divisor_set:
                    continue
                chosen.append(x)
                grows = True
                if len(chosen) >= 2:
                    u = unit_for(prod2)
                    if u is not None:
                        consider(tuple(chosen), prod2, u)
                        # P*y | t = u*P with P regular forces y to be a unit
                        grows = not regular
                if len(chosen) < cap:
                    if grows:
                        # keep candidates >= x that relate to x (x itself only if x rel x)
                        related = row(x)
                        pool2 = [y for y in pool[idx:] if y in related]
                        if pool2:
                            extend(pool2, chosen, prod2)
                elif not truncated:
                    truncated = not row(x).isdisjoint(pool[idx:])
                chosen.pop()

        extend(candidates, [], ring.one)

    if pump is not None:
        unbounded = "yes"
    elif max_length >= cap or truncated:
        unbounded = "unknown"
    else:
        unbounded = "no"

    return FactorizationSet(
        ring=ring,
        target=target,
        beta=beta,
        cap=cap,
        classes=classes,
        candidates=tuple(candidates),
        raw_total=len(raw_seen),
        max_length=max_length,
        unbounded=unbounded,
        pump=pump,
    )


def tau_divides(ring: Ring, tau: TauRelation, b, a, cap: Optional[int] = None) -> Optional[bool]:
    """b occurs as a factor in some factorization of a (trivial ones count).

    Decided by a dedicated search for a valid factor multiset of length at
    most ``cap`` containing b, so class-representative collapsing cannot
    hide b.  None (unknown) when none was found but a partial product at
    the cap could still grow by a related factor and keep dividing a.
    """
    # trivial factorization: b = (some unit)^-1 * a
    if ring.associated(b, a, AssociateKind.STRONG):
        return True
    candidates = tau.candidates(a)
    if b not in candidates:
        return False
    if cap is None:
        cap = default_cap(ring, tau, a)
    zero = ring.zero
    mul = ring.mul
    divisor_set = ring.divisors(a)
    unit_cof: dict = {}

    def completes(product) -> bool:
        got = unit_cof.get(product)
        if got is None:
            got = ring.cofactors(a, product).contains_unit()
            unit_cof[product] = got
        return got

    def divides(product) -> bool:
        # 0 divides only 0
        return a == zero if product == zero else product in divisor_set

    def search(pool: list, size: int, product) -> Optional[bool]:
        if size >= 2 and completes(product):
            return True
        if size >= cap:
            return None if any(divides(mul(product, x)) for x in pool) else False
        out = False
        for idx, x in enumerate(pool):
            prod2 = mul(product, x)
            if not divides(prod2):
                continue
            pool2 = [y for y in pool[idx:] if tau.holds(x, y)]
            got = search(pool2, size + 1, prod2)
            if got:
                return True
            if got is None:
                out = None
        return out

    pool0 = [y for y in candidates if tau.holds(b, y)]
    return search(pool0, 1, b)

