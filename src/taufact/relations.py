"""Symmetric pair relations on the nonzero non-units of a ring.

Built-in constructors: the full relation, the empty relation, restriction to
a subset S (a rel b iff both in S), comaximality, zero products, regularity
of both arguments, and the regular-restriction combinator rel & (Reg x Reg).

Relation-level predicates (multiplicative, divisive, associate preserving,
refinable, combinable) are decided by exhaustive scan on finite rings, or
over an explicit element scope on infinite ones (flagged as scoped).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .rings import (
    AssociateKind,
    InfiniteSetError,
    Ring,
    UnsupportedOperationError,
)


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


class TauRelation:
    """A symmetric relation on R#, bound to a concrete ring."""

    def __init__(self, spec: TauSpec, ring: Ring):
        self.spec = spec
        self.ring = ring
        self._cache: dict = {}
        self._cand_cache: dict = {}
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

    @property
    def regular_only(self) -> bool:
        """True when the relation can only hold between regular elements."""
        return isinstance(self.spec, (RegCapTau, RegularTau))

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

    def regcap(self) -> "TauRelation":
        """The restriction of this relation to pairs of regular elements."""
        return TauRelation(RegCapTau(self.spec), self.ring)

    def spec_string(self) -> str:
        return format_tau_spec(self.spec, self.ring)

    def __repr__(self):
        return f"<Tau {self.spec_string()} on {self.ring.spec_string()}>"


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


class TauProperty(enum.Enum):
    MULTIPLICATIVE = "multiplicative"
    DIVISIVE = "divisive"
    ASSOCIATE_PRESERVING = "associate-preserving"
    REFINABLE = "refinable"
    COMBINABLE = "combinable"


@dataclass
class TauPropertyVerdict:
    property: TauProperty
    outcome: str  # "holds" | "fails"
    witness: Optional[tuple] = None
    cap: Optional[int] = None
    scoped: bool = False
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"


_VACUOUS_NOTE = "products leaving the nonzero non-units are treated as vacuously satisfying the implication"


def check_tau_property(
    tau: TauRelation,
    prop: TauProperty,
    kind: AssociateKind = AssociateKind.ASSOCIATE,
    scope=None,
    cap: Optional[int] = None,
    fs_provider=None,
) -> TauPropertyVerdict:
    """Decide a relation-level predicate, exhaustively or over a scope.

    ``kind`` only applies to ASSOCIATE_PRESERVING.  Refinable and combinable
    quantify over enumerated factorizations up to ``cap``; the verdict records
    the cap used.
    """
    ring = tau.ring
    if scope is None:
        if not ring.is_finite:
            raise UnsupportedOperationError(
                "relation predicates over an infinite ring need an explicit scope"
            )
        domain = ring.nonzero_nonunits()
        scoped = False
    else:
        domain = [a for a in scope if a != ring.zero and not ring.is_unit(a)]
        scoped = not ring.is_finite
    if prop == TauProperty.MULTIPLICATIVE:
        return _check_multiplicative(tau, domain, scoped)
    if prop == TauProperty.DIVISIVE:
        return _check_divisive(tau, domain, scoped)
    if prop == TauProperty.ASSOCIATE_PRESERVING:
        return _check_associate_preserving(tau, kind, domain, scoped)
    if prop == TauProperty.REFINABLE:
        return _check_refinable(tau, domain, scoped, cap, fs_provider)
    if prop == TauProperty.COMBINABLE:
        return _check_combinable(tau, domain, scoped, cap, fs_provider)
    raise ValueError(f"unknown relation property: {prop!r}")


def _in_sharp(ring: Ring, x) -> bool:
    return x != ring.zero and not ring.is_unit(x)


def _check_multiplicative(tau, domain, scoped) -> TauPropertyVerdict:
    ring = tau.ring
    for a in domain:
        related = [b for b in domain if tau.holds(a, b)]
        for b in related:
            for c in related:
                bc = ring.mul(b, c)
                if not _in_sharp(ring, bc):
                    continue  # vacuous-case convention
                if not tau.holds(a, bc):
                    return TauPropertyVerdict(
                        TauProperty.MULTIPLICATIVE,
                        "fails",
                        witness=(a, b, c),
                        scoped=scoped,
                        note=_VACUOUS_NOTE,
                    )
    return TauPropertyVerdict(
        TauProperty.MULTIPLICATIVE, "holds", scoped=scoped, note=_VACUOUS_NOTE
    )


def _sharp_divisors(ring: Ring, b):
    return sorted(
        (d for d in ring.divisors(b) if _in_sharp(ring, d)), key=ring.sort_key
    )


def _check_divisive(tau, domain, scoped) -> TauPropertyVerdict:
    ring = tau.ring
    note = ""
    skipped = 0
    for a in domain:
        for b in domain:
            if not tau.holds(a, b):
                continue
            try:
                subs = _sharp_divisors(ring, b)
            except InfiniteSetError:
                skipped += 1
                continue
            for bp in subs:
                if not tau.holds(a, bp):
                    return TauPropertyVerdict(
                        TauProperty.DIVISIVE, "fails", witness=(a, b, bp), scoped=scoped
                    )
    if skipped:
        note = f"{skipped} pairs skipped (infinite divisor sets)"
    return TauPropertyVerdict(TauProperty.DIVISIVE, "holds", scoped=scoped, note=note)


def _check_associate_preserving(tau, kind, domain, scoped) -> TauPropertyVerdict:
    ring = tau.ring
    for b in domain:
        partners = None
        for bp in domain:
            if bp == b or not ring.associated(b, bp, kind):
                continue
            if partners is None:
                partners = [a for a in domain if tau.holds(a, b)]
            for a in partners:
                if not tau.holds(a, bp):
                    return TauPropertyVerdict(
                        TauProperty.ASSOCIATE_PRESERVING,
                        "fails",
                        witness=(a, b, bp),
                        scoped=scoped,
                        note=f"kind={kind.name}",
                    )
    return TauPropertyVerdict(
        TauProperty.ASSOCIATE_PRESERVING, "holds", scoped=scoped, note=f"kind={kind.name}"
    )


def _iter_factorization_sets(tau, domain, cap, fs_provider=None):
    # Local import: the engine depends on this module for relation types.
    from .factor import enumerate_factorizations

    ring = tau.ring
    targets = list(domain)
    if ring.is_finite:
        targets = list(ring.nonunits())
    for a in targets:
        try:
            if fs_provider is not None:
                yield a, fs_provider(a)
            else:
                yield a, enumerate_factorizations(ring, tau, a, cap=cap)
        except UnsupportedOperationError:
            continue


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


def _refinement_blocks(tau, x, cap, cache, fs_provider=None):
    """Factor multisets that can replace one position holding x: the factor
    lists of x's factorizations, with trivial ones expanded over all units."""
    got = cache.get(x, False)
    if got is not False:
        return got
    from .factor import enumerate_factorizations

    ring = tau.ring
    try:
        if fs_provider is not None:
            fs = fs_provider(x)
        else:
            fs = enumerate_factorizations(ring, tau, x, cap=cap)
    except UnsupportedOperationError:
        cache[x] = None
        return None
    blocks = [f.factors for f in fs.items if not f.trivial]
    for u in ring.units():
        blocks.append((ring.mul(ring.unit_inverse(u), x),))
    got = sorted(set(blocks))
    cache[x] = got
    return got


def _check_refinable(tau, domain, scoped, cap, fs_provider=None) -> TauPropertyVerdict:
    """A refinement replaces every position by a factorization of it; its new
    pair conditions decompose over pairs of original positions, so it is
    enough to check all cross pairs of replacement blocks.

    Block factors are nonzero non-units by construction, so compatibility
    only depends on the relation, checked via adjacency bitmasks over the
    value universe.
    """
    ring = tau.ring
    cap = cap if cap is not None else 4
    blocks_cache: dict = {}
    pairs = set()
    for a, fs in _iter_factorization_sets(tau, domain, cap, fs_provider):
        pairs.update(_position_pairs(fs.items))
    pairs = sorted(pairs)
    block_sets: dict = {}  # value -> list of distinct factor-value frozensets
    for x, y in pairs:
        for v in (x, y):
            if v not in block_sets:
                blocks = _refinement_blocks(tau, v, cap, blocks_cache, fs_provider)
                block_sets[v] = (
                    None if blocks is None else sorted({frozenset(b) for b in blocks})
                )
    universe = sorted(
        {u for bs in block_sets.values() if bs for b in bs for u in b},
        key=ring.sort_key,
    )
    index = {u: i for i, u in enumerate(universe)}
    adj = []
    for u in universe:
        m = 0
        for v in universe:
            if tau.holds(u, v):
                m |= 1 << index[v]
        adj.append(m)

    def mask(bs):
        m = 0
        for u in bs:
            m |= 1 << index[u]
        return m

    def capmask(bs):
        m = (1 << len(universe)) - 1
        for u in bs:
            m &= adj[index[u]]
        return m

    masked = {
        v: None if bss is None else [(bs, mask(bs), capmask(bs)) for bs in bss]
        for v, bss in block_sets.items()
    }
    for x, y in pairs:
        gx, gy = masked[x], masked[y]
        if gx is None or gy is None:
            continue
        for g, gm, gcap in gx:
            for h, hm, _ in gy:
                if hm & ~gcap:
                    u = next(a for a in g for b in h if not tau.holds(a, b))
                    v = next(b for b in h if not tau.holds(u, b))
                    return TauPropertyVerdict(
                        TauProperty.REFINABLE,
                        "fails",
                        witness=((x, sorted(g, key=ring.sort_key)), (y, sorted(h, key=ring.sort_key)), (u, v)),
                        cap=cap,
                        scoped=scoped,
                    )
    return TauPropertyVerdict(TauProperty.REFINABLE, "holds", cap=cap, scoped=scoped)


def _check_combinable(tau, domain, scoped, cap, fs_provider=None) -> TauPropertyVerdict:
    """Merging two positions of a factorization must leave a factorization;
    only the merged value's pairs with the remaining positions are new."""
    ring = tau.ring
    cap = cap if cap is not None else 4
    seen = set()
    for a, fs in _iter_factorization_sets(tau, domain, cap, fs_provider):
        for f in fs.items:
            n = len(f.factors)
            if n < 2:
                continue
            for i in range(n):
                for j in range(i + 1, n):
                    rest = list(f.factors)
                    x = rest.pop(j)
                    y = rest.pop(i)
                    key = (x, y, tuple(sorted(set(rest))))
                    if key in seen:
                        continue
                    seen.add(key)
                    m = ring.mul(x, y)
                    if not rest:
                        continue  # merged factorization is trivial: no pairs
                    bad = None
                    if not _in_sharp(ring, m):
                        bad = (m, rest[0])
                    else:
                        for v in set(rest):
                            if not tau.holds(m, v):
                                bad = (m, v)
                                break
                    if bad is not None:
                        return TauPropertyVerdict(
                            TauProperty.COMBINABLE,
                            "fails",
                            witness=(f, (x, y), bad),
                            cap=cap,
                            scoped=scoped,
                        )
    return TauPropertyVerdict(TauProperty.COMBINABLE, "holds", cap=cap, scoped=scoped)
