"""Symmetric pair relations on the nonzero non-units of a ring.

Built-in constructors: the full relation, the empty relation, restriction to
a subset S (a rel b iff both in S), comaximality, zero products, regularity
of both arguments, and the regular-restriction combinator rel & (Reg x Reg).

Refinability, the one relation-level predicate the harness reads, is a
yes/no answer decided over the targets and enumerations
``properties.Evaluator.refinable`` hands it: every non-unit of a finite
ring, or an explicit element scope on an infinite one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rings import InfiniteSetError, Ring, UnsupportedOperationError


class TauConstructionError(ValueError):
    pass


@dataclass(frozen=True)
class FullTau:
    pass


@dataclass(frozen=True)
class EmptyTau:
    pass


@dataclass(frozen=True)
class SubsetTau:
    elements: tuple


@dataclass(frozen=True)
class ComaximalTau:
    pass


@dataclass(frozen=True)
class ZeroProductTau:
    pass


@dataclass(frozen=True)
class RegularTau:
    pass


@dataclass(frozen=True)
class RegCapTau:
    inner: "TauSpec"


TauSpec = object

# the normal forms of the relations that relate no pair
_RELATES_NO_PAIR = (EmptyTau(), RegCapTau(EmptyTau()))


def _associate_stable(spec) -> bool:
    """Relations invariant under replacing arguments by associates."""
    if isinstance(spec, (FullTau, EmptyTau, ComaximalTau, ZeroProductTau, RegularTau)):
        return True
    if isinstance(spec, RegCapTau):
        return _associate_stable(spec.inner)
    return False


class TauRelation:
    """A symmetric relation on R#, bound to a concrete ring.

    Everything the engine reads of the spec, other than the pairs it
    relates, is decided here, once, when the relation is built: the flags
    ``regular_only`` (the relation can only hold between regular elements)
    and ``associate_stable`` (it is invariant under replacing arguments by
    associates), and the shortcuts of ``candidates``.  Relations with one
    pair table on a finite ring answer each alike (README, "Design
    notes"), and a test keeps every other module to these flags.
    """

    def __init__(self, spec: TauSpec, ring: Ring):
        self.spec = spec
        self.ring = ring
        self._cache: dict = {}
        self._cand_cache: dict = {}
        self.regular_only = isinstance(spec, (RegCapTau, RegularTau))
        self.associate_stable = _associate_stable(spec)
        self._relates_no_pair = normal_spec(spec) in _RELATES_NO_PAIR
        self._zero_product = isinstance(spec, ZeroProductTau)
        self._inner_rel = (
            TauRelation(spec.inner, ring) if isinstance(spec, RegCapTau) else None
        )
        if isinstance(spec, SubsetTau):
            for e in spec.elements:
                if not ring.contains(e):
                    raise TauConstructionError(
                        f"subset element {e!r} is not a ring element"
                    )
                if e == ring.zero or ring.is_unit(e):
                    raise TauConstructionError(
                        f"subset element {ring.format_element(e)} is not a nonzero non-unit"
                    )
            self._subset = frozenset(spec.elements)

    def holds(self, a, b) -> bool:
        """Whether the relation holds; arguments are expected in R#."""
        key = (a, b)
        got = self._cache.get(key)
        if got is None:
            got = self._holds(a, b)
            self._cache[key] = got
            self._cache[(b, a)] = got
        return got

    def _holds(self, a, b) -> bool:
        spec = self.spec
        ring = self.ring
        if isinstance(spec, FullTau):
            return True
        if isinstance(spec, EmptyTau):
            return False
        if isinstance(spec, SubsetTau):
            return a in self._subset and b in self._subset
        if isinstance(spec, ComaximalTau):
            return ring.comaximal(a, b)
        if isinstance(spec, ZeroProductTau):
            return ring.mul(a, b) == ring.zero
        if isinstance(spec, RegularTau):
            return ring.is_regular(a) and ring.is_regular(b)
        if isinstance(spec, RegCapTau):
            if not (ring.is_regular(a) and ring.is_regular(b)):
                return False
            return self._inner_rel.holds(a, b)
        raise TauConstructionError(f"unknown tau spec: {spec!r}")

    def candidates(self, target, reduce_assoc: bool = False) -> list:
        """Elements that can appear in a factorization of ``target`` of
        length >= 2, in ``sort_key`` order, memoized per target.

        With ``reduce_assoc`` (sound for associate-stable relations and views
        no finer than the strong-associate one, as every constructible ring
        is strongly associate: README, "Design notes"), candidates shrink to
        one per associate class: any factorization normalizes factor-wise
        onto class representatives with the unit slot absorbing the
        difference.  They are the target's ``Ring.divisor_classes`` without
        zero, the first member of each class in ``sort_key`` order, which is
        the one a scan of the sorted divisors keeps.
        """
        key = (target, reduce_assoc)
        got = self._cand_cache.get(key, False)
        if got is False:
            ring = self.ring
            if self._relates_no_pair:
                # no candidate has a partner
                return []
            if self.regular_only and not ring.is_regular(target):
                # a product of two or more pairwise-regular factors is regular
                return []
            if self._zero_product and target != ring.zero:
                # pairwise zero products force the whole product to zero
                return []
            try:
                if reduce_assoc and self.associate_stable:
                    got = [d for d in ring.divisor_classes(target) if d != ring.zero]
                else:
                    got = sorted((d for d in ring.divisors(target) if _in_sharp(ring, d)), key=ring.sort_key)
            except InfiniteSetError:
                got = None  # remembered, so that each read raises
            else:
                if self.regular_only:
                    got = [d for d in got if ring.is_regular(d)]
                # a factor needs at least one partner (possibly itself)
                got = [x for x in got if any(self.holds(x, y) for y in got)]
            self._cand_cache[key] = got
        if got is None:
            raise UnsupportedOperationError(
                f"divisor set of {self.ring.format_element(target)} is infinite; "
                "nontrivial factorizations cannot be enumerated"
            )
        return got

    def regcap(self) -> "TauRelation":
        """The restriction of this relation to pairs of regular elements."""
        return TauRelation(RegCapTau(self.spec), self.ring)

    def spec_string(self) -> str:
        return format_tau_spec(self.spec, self.ring)


def format_tau_spec(spec: TauSpec, ring: Optional[Ring] = None) -> str:
    if isinstance(spec, FullTau):
        return "full"
    if isinstance(spec, EmptyTau):
        return "empty"
    if isinstance(spec, ZeroProductTau):
        return "zero"
    if isinstance(spec, ComaximalTau):
        return "comax"
    if isinstance(spec, RegularTau):
        return "regular"
    if isinstance(spec, RegCapTau):
        return f"regcap({format_tau_spec(spec.inner, ring)})"
    if isinstance(spec, SubsetTau):
        if ring is not None:
            body = ",".join(ring.format_element(e) for e in spec.elements)
        else:
            body = ",".join(repr(e) for e in spec.elements)
        return f"subset[{body}]"
    raise TauConstructionError(f"unknown tau spec: {spec!r}")


def build_tau(spec: TauSpec, ring: Ring) -> TauRelation:
    return TauRelation(spec, ring)


def pair_table(tau: TauRelation) -> tuple:
    """Whether ``tau`` relates each unordered pair of R#, in the order of
    ``nonzero_nonunits()``; finite rings only."""
    sharp = tau.ring.nonzero_nonunits()
    return tuple(tau.holds(a, b) for i, a in enumerate(sharp) for b in sharp[i:])


def normal_spec(spec: TauSpec) -> TauSpec:
    """One spec per relation the engine cannot tell apart.

    ``regcap(full)`` and ``regcap(regular)`` become ``regular``,
    ``regcap(regcap(X))`` becomes ``regcap(X)``, and ``regcap(zero)``
    becomes ``regcap(empty)``: each pair holds on the same pairs (a product
    of regular elements is regular, so nonzero), is ``regular_only`` and is
    associate-stable alike, and neither side is ``zero`` at the top level,
    where ``TauRelation.candidates`` branches; its test for a relation that
    relates no pair reads this normal form.  Nothing else is rewritten.
    ``regcap(empty)`` holds nowhere, as ``empty`` does, but it is
    ``regular_only`` and ``empty`` is not, and the engine and the harness
    branch on that.
    """
    if not isinstance(spec, RegCapTau):
        return spec
    inner = normal_spec(spec.inner)
    if isinstance(inner, (FullTau, RegularTau)):
        return RegularTau()
    if isinstance(inner, RegCapTau):
        return inner
    if isinstance(inner, ZeroProductTau):
        return RegCapTau(EmptyTau())
    return RegCapTau(inner)


def check_tau_property(tau: TauRelation, targets, fs) -> bool:
    """Whether ``tau`` is refinable, decided from ``fs(a)``, the
    factorizations of each of ``targets`` and of their factors.

    A refinement replaces every position by a factorization of it; its new
    pair conditions decompose over pairs of original positions, so it is
    enough to check the cross pairs of the replacement blocks of every two
    co-occurring positions.  Block factors are nonzero non-units by
    construction, so compatibility only depends on the relation, and every
    block of x is compatible with every block of y iff every factor in a
    block of x relates to every factor in a block of y: one test over those
    unions decides each pair.
    """
    pairs = set()
    for a in targets:
        try:
            pairs.update(_position_pairs(fs(a).items))
        except UnsupportedOperationError:
            continue
    pairs = sorted(pairs)
    # A pair holds factors of a nontrivial factorization, drawn from the
    # target's divisor set, which is then finite (else the enumeration
    # raised); each divides the target, so its own divisor set is finite
    # too and ``fs`` enumerates it.
    unions = {v: _refinement_blocks(tau, v, fs) for v in dict.fromkeys(v for pair in pairs for v in pair)}
    for x, y in pairs:
        if not all(tau.holds(u, v) for u in unions[x] for v in unions[y]):
            return False
    return True


def _in_sharp(ring: Ring, x) -> bool:
    return x != ring.zero and not ring.is_unit(x)


def _position_pairs(items):
    """Distinct unordered value pairs of co-occurring factor positions."""
    pairs = set()
    for f in items:
        vals = sorted(set(f.factors))
        for i, x in enumerate(vals):
            if f.factors.count(x) >= 2:
                pairs.add((x, x))
            for y in vals[i + 1 :]:
                pairs.add((x, y))
    return pairs


def _refinement_blocks(tau, x, fs):
    """The factors of every multiset that can replace one position holding
    x: those of x's nontrivial factorizations and its unit variants
    ``u^-1 x``."""
    ring = tau.ring
    out = {v for f in fs(x).items if not f.trivial for v in f.factors}
    out.update(ring.mul(ring.unit_inverse(u), x) for u in ring.units())
    return frozenset(out)
