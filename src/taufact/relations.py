"""Symmetric pair relations on the nonzero non-units of a ring.

Built-in constructors: the full relation, the empty relation, restriction to
a subset S (a rel b iff both in S), comaximality, zero products, regularity
of both arguments, and the regular-restriction combinator rel & (Reg x Reg).

Refinability, the one relation-level predicate the harness reads, is
decided over the targets and enumerations ``properties.Evaluator.refinable``
hands it: every non-unit of a finite ring, or an explicit element scope on
an infinite one (flagged as scoped).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .rings import Ring, UnsupportedOperationError


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


def normal_spec(spec: TauSpec) -> TauSpec:
    """One spec per relation the engine cannot tell apart.

    ``regcap(full)`` and ``regcap(regular)`` become ``regular``,
    ``regcap(regcap(X))`` becomes ``regcap(X)``, and ``regcap(zero)``
    becomes ``regcap(empty)``: each pair holds on the same pairs (a product
    of regular elements is regular, so nonzero), is ``regular_only`` and is
    associate-stable alike, and neither side is ``zero`` at the top level,
    where ``_nontrivial_candidates`` branches; its test for a relation that
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


@dataclass
class TauPropertyVerdict:
    """Whether a relation is refinable, with a failing refinement as
    witness."""

    outcome: str  # "holds" | "fails"
    witness: Optional[tuple] = None
    cap: Optional[int] = None
    scoped: bool = False

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"


def check_tau_property(tau: TauRelation, targets, scoped: bool, cap: int, fs) -> TauPropertyVerdict:
    """Decide refinability from ``fs(a)``, the factorizations of each of
    ``targets`` and of their factors.

    The verdict records the largest cap of the enumerations it read (``fs``
    may choose its own, as ``Evaluator.fs`` does on an infinite ring), or
    ``cap`` when it read none.
    """
    read = []  # the caps of the enumerations the check reads

    def fs_read(a):
        got = fs(a)
        read.append(got.cap)
        return got

    verdict = _check_refinable(tau, targets, scoped, fs_read)
    verdict.cap = max(read, default=cap)
    return verdict


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
    """Factor multisets that can replace one position holding x: the factor
    lists of x's factorizations, with trivial ones expanded over all units."""
    ring = tau.ring
    try:
        items = fs(x).items
    except UnsupportedOperationError:
        return None
    blocks = [f.factors for f in items if not f.trivial]
    for u in ring.units():
        blocks.append((ring.mul(ring.unit_inverse(u), x),))
    return sorted(set(blocks))


def _check_refinable(tau, targets, scoped, fs) -> TauPropertyVerdict:
    """A refinement replaces every position by a factorization of it; its new
    pair conditions decompose over pairs of original positions, so it is
    enough to check the cross pairs of the replacement blocks of every two
    co-occurring positions.

    Block factors are nonzero non-units by construction, so compatibility
    only depends on the relation, and only those cross pairs are asked.
    Every block of x is compatible with every block of y iff every factor
    in a block of x relates to every factor in a block of y, so a pair is
    checked once over those unions, and block by block only to name a
    witness.
    """
    ring = tau.ring
    pairs = set()
    for a in targets:
        try:
            pairs.update(_position_pairs(fs(a).items))
        except UnsupportedOperationError:
            continue
    pairs = sorted(pairs)
    block_sets = {}  # value -> list of distinct factor-value frozensets
    unions = {}  # value -> the factors of all its blocks
    for v in dict.fromkeys(v for pair in pairs for v in pair):
        blocks = _refinement_blocks(tau, v, fs)
        block_sets[v] = None if blocks is None else sorted({frozenset(b) for b in blocks})
        unions[v] = None if blocks is None else frozenset().union(*block_sets[v])
    for x, y in pairs:
        gx, gy = block_sets[x], block_sets[y]
        if gx is None or gy is None:
            continue
        if all(tau.holds(u, v) for u in unions[x] for v in unions[y]):
            continue
        for g in gx:
            for h in gy:
                bad = next(((u, v) for u in g for v in h if not tau.holds(u, v)), None)
                if bad is not None:
                    return TauPropertyVerdict(
                        "fails",
                        witness=((x, sorted(g, key=ring.sort_key)), (y, sorted(h, key=ring.sort_key)), bad),
                        scoped=scoped,
                    )
    return TauPropertyVerdict("holds", scoped=scoped)
