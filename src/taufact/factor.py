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

from .rings import (
    AssociateKind,
    ElementClass,
    InfiniteSetError,
    Ring,
    UnsupportedOperationError,
)
from .relations import (
    ComaximalTau,
    EmptyTau,
    FullTau,
    RegCapTau,
    RegularTau,
    TauRelation,
    ZeroProductTau,
    _in_sharp,
    normal_spec,
)

# the normal forms of the relations that relate no pair
_RELATES_NO_PAIR = (EmptyTau(), RegCapTau(EmptyTau()))


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

    def product(self):
        return self.ring.product(self.factors)

    def to_json(self):
        r = self.ring
        return {
            "unit": r.element_to_json(self.unit),
            "factors": [r.element_to_json(x) for x in self.factors],
            "target": r.element_to_json(self.target),
            "trivial": self.trivial,
        }

    def __repr__(self):
        r = self.ring
        facs = "*".join(r.format_element(x) for x in self.factors)
        return f"{r.format_element(self.target)}={r.format_element(self.unit)}*{facs}"


@dataclass(frozen=True)
class Rejection:
    """A refinement that is not a valid factorization; names the bad pair."""

    pair: tuple
    reason: str


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
    note: str = ""

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
        if self.note:
            out["note"] = self.note
        return out


def validate_factorization(tau: TauRelation, f: Factorization) -> Optional[str]:
    """Re-check every invariant directly from the definitions.

    Returns None when valid, else a human-readable violation.
    """
    ring = f.ring
    if not ring.is_unit(f.unit):
        return f"unit slot holds a non-unit: {ring.format_element(f.unit)}"
    if not f.factors:
        return "empty factor list"
    for x in f.factors:
        if ring.is_unit(x):
            return f"factor {ring.format_element(x)} is a unit"
    if ring.mul(f.unit, f.product()) != f.target:
        return "unit * factors does not equal the target"
    if len(f.factors) >= 2:
        for i in range(len(f.factors)):
            for j in range(i + 1, len(f.factors)):
                x, y = f.factors[i], f.factors[j]
                if not _in_sharp(ring, x) or not _in_sharp(ring, y):
                    return "paired factor outside the nonzero non-units"
                if not tau.holds(x, y):
                    return (
                        f"pair ({ring.format_element(x)}, {ring.format_element(y)})"
                        " not related"
                    )
    return None


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


def _associate_stable(spec) -> bool:
    """Relations invariant under replacing arguments by associates."""
    if isinstance(spec, (FullTau, EmptyTau, ComaximalTau, ZeroProductTau, RegularTau)):
        return True
    if isinstance(spec, RegCapTau):
        return _associate_stable(spec.inner)
    return False


def _nontrivial_candidates(
    ring: Ring, tau: TauRelation, target, reduce_assoc: bool = False
) -> list:
    """Elements that can appear in a factorization of length >= 2.

    With ``reduce_assoc`` (sound only for associate-stable relations on
    strongly associate rings, and for canonical views no finer than the
    strong-associate one), candidates shrink to one per associate class:
    any factorization normalizes factor-wise onto class representatives
    with the unit slot absorbing the difference.  They are the target's
    ``Ring.divisor_classes`` without zero, the first member of each class
    in ``sort_key`` order, which is the one a scan of the sorted divisors
    keeps.
    """
    got = tau._cand_cache.get((target, reduce_assoc), False)
    if got is not False:
        if got is None:
            raise UnsupportedOperationError(
                f"divisor set of {ring.format_element(target)} is infinite; "
                "nontrivial factorizations cannot be enumerated"
            )
        return got
    if normal_spec(tau.spec) in _RELATES_NO_PAIR:
        # no candidate has a partner
        return []
    if tau.regular_only and not ring.is_regular(target):
        # a product of two or more pairwise-regular factors is regular
        return []
    if isinstance(tau.spec, ZeroProductTau) and target != ring.zero:
        # pairwise zero products force the whole product to zero
        return []
    try:
        if reduce_assoc and _associate_stable(tau.spec) and ring.is_strongly_associate():
            cands = [d for d in ring.divisor_classes(target) if d != ring.zero]
        else:
            cands = sorted(
                (d for d in ring.divisors(target) if _in_sharp(ring, d)), key=ring.sort_key
            )
    except InfiniteSetError:
        tau._cand_cache[(target, reduce_assoc)] = None
        raise UnsupportedOperationError(
            f"divisor set of {ring.format_element(target)} is infinite; "
            "nontrivial factorizations cannot be enumerated"
        )
    if tau.regular_only:
        cands = [d for d in cands if ring.is_regular(d)]
    # a factor needs at least one partner (possibly itself)
    cands = [x for x in cands if any(tau.holds(x, y) for y in cands)]
    tau._cand_cache[(target, reduce_assoc)] = cands
    return cands


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
    # first (``units()`` is in ``sort_key`` order)
    for u in ring.units():
        x = mul(ring.unit_inverse(u), target)
        if (x,) not in raw_seen:
            consider((x,), x, u)

    candidates = _nontrivial_candidates(
        ring, tau, target, reduce_assoc=beta != AssociateKind.VERY_STRONG
    )

    if candidates:
        unit_cof: dict = {}

        def unit_for(product):
            got = unit_cof.get(product, False)
            if got is False:
                got = ring.cofactors(target, product).pick_unit()
                unit_cof[product] = got
            return got

        divisor_set = ring.divisors(target)

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
                        pool2 = [y for y in pool[idx:] if tau.holds(x, y)]
                        if pool2:
                            extend(pool2, chosen, prod2)
                elif not truncated:
                    truncated = any(tau.holds(x, y) for y in pool[idx:])
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
    candidates = _nontrivial_candidates(ring, tau, a)
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


def refine(ring: Ring, tau: TauRelation, f: Factorization, x, sub: Factorization):
    """Replace one occurrence of factor x by sub's factors; unit slots multiply.

    Returns the refined Factorization, or a Rejection naming a violating pair
    (a rejection is a result, not an error: it witnesses non-refinability).
    """
    if x not in f.factors:
        raise PreconditionError(f"{ring.format_element(x)} is not a factor")
    if sub.target != x:
        raise PreconditionError("substitute factorization has the wrong target")
    factors = list(f.factors)
    factors.remove(x)
    factors.extend(sub.factors)
    factors.sort(key=ring.sort_key)
    refined = Factorization(
        ring=ring,
        unit=ring.mul(f.unit, sub.unit),
        factors=tuple(factors),
        target=f.target,
    )
    if len(refined.factors) >= 2:
        for i in range(len(refined.factors)):
            for j in range(i + 1, len(refined.factors)):
                a, b = refined.factors[i], refined.factors[j]
                if (
                    not _in_sharp(ring, a)
                    or not _in_sharp(ring, b)
                    or not tau.holds(a, b)
                ):
                    return Rejection(pair=(a, b), reason="pair not related")
    return refined
