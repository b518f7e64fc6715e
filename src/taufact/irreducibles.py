"""The five irreducibility flavors of a non-unit under a pair relation.

A non-unit a is, with respect to the ambient relation:
  - irreducible      if every factorization has some factor generating (a);
  - strongly irred.  if every factorization has some factor = (unit) * a;
  - m-irreducible    if every factorization has all factors generating (a);
  - unrefinably irr. if only trivial factorizations exist;
  - very strongly    if additionally a = r*a forces r to be a unit.

Flags are three-valued: a counterexample decides false at any cap, a complete
enumeration (or a closure argument over the candidate divisors) decides true,
anything else stays unknown-at-cap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .factor import (
    FactorizationSet,
    PreconditionError,
    enumerate_factorizations,
)
from .rings import AssociateKind, ElementClass, Ring, UnsupportedOperationError
from .relations import TauRelation


class IrreducibleKind(enum.Enum):
    # identity hash, as ``properties.PropKind`` explains
    __hash__ = object.__hash__

    IRREDUCIBLE = "irreducible"
    STRONG = "strongly-irreducible"
    M = "m-irreducible"
    UNREFINABLE = "unrefinably-irreducible"
    VERY_STRONG = "very-strongly-irreducible"


class Flag(enum.Enum):
    __hash__ = object.__hash__

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown-at-cap"


ALPHA_KINDS = (
    IrreducibleKind.IRREDUCIBLE,
    IrreducibleKind.STRONG,
    IrreducibleKind.M,
    IrreducibleKind.UNREFINABLE,
    IrreducibleKind.VERY_STRONG,
)

# the four flavors most ring-level laws quantify over (very strong excluded)
ALPHA_KINDS_NO_VERY = ALPHA_KINDS[:4]


@dataclass
class IrreducibilityProfile:
    element: object
    flags: dict  # IrreducibleKind -> Flag
    cap: int

    def __getitem__(self, kind: IrreducibleKind) -> Flag:
        return self.flags[kind]

    def to_json(self, ring: Ring):
        return {
            "element": ring.element_to_json(self.element),
            "flags": {k.value: v.value for k, v in self.flags.items()},
            "cap": self.cap,
        }


def classify(
    ring: Ring,
    tau: TauRelation,
    a,
    cap: Optional[int] = None,
    fs: Optional[FactorizationSet] = None,
) -> IrreducibilityProfile:
    """Compute all five flags from the enumerated factorization set."""
    if ring.is_unit(a):
        raise PreconditionError("irreducibility is defined for non-units only")
    if fs is None:
        fs = enumerate_factorizations(ring, tau, a, AssociateKind.STRONG, cap=cap)
    items = fs.items

    assoc = lambda x: ring.associated(a, x, AssociateKind.ASSOCIATE)
    strong = lambda x: ring.associated(a, x, AssociateKind.STRONG)

    def universal(satisfies, closure_rel) -> Flag:
        for f in items:
            if not satisfies(f):
                return Flag.FALSE
        if fs.exhaustive:
            return Flag.TRUE
        if all(closure_rel(d) for d in fs.candidates):
            # every possible factor of any factorization is related to a
            return Flag.TRUE
        return Flag.UNKNOWN

    flags = {
        IrreducibleKind.IRREDUCIBLE: universal(
            lambda f: any(assoc(x) for x in f.factors), assoc
        ),
        IrreducibleKind.STRONG: universal(
            lambda f: any(strong(x) for x in f.factors), strong
        ),
        IrreducibleKind.M: universal(
            lambda f: all(assoc(x) for x in f.factors), assoc
        ),
    }

    if any(not f.trivial for f in items) or fs.unbounded == "yes":
        unref = Flag.FALSE
    elif fs.exhaustive:
        unref = Flag.TRUE
    else:
        unref = Flag.UNKNOWN
    flags[IrreducibleKind.UNREFINABLE] = unref

    if not ring.associated(a, a, AssociateKind.VERY_STRONG):
        flags[IrreducibleKind.VERY_STRONG] = Flag.FALSE
    else:
        flags[IrreducibleKind.VERY_STRONG] = unref

    return IrreducibilityProfile(element=a, flags=flags, cap=fs.cap)


# (from_kind, to_kind); M => STRONG holds because every constructible ring
# is strongly associate (README, "Design notes")
HIERARCHY_ARROWS = (
    (IrreducibleKind.VERY_STRONG, IrreducibleKind.UNREFINABLE),
    (IrreducibleKind.UNREFINABLE, IrreducibleKind.STRONG),
    (IrreducibleKind.STRONG, IrreducibleKind.IRREDUCIBLE),
    (IrreducibleKind.M, IrreducibleKind.IRREDUCIBLE),
    (IrreducibleKind.M, IrreducibleKind.STRONG),
)


def hierarchy_violations(profile: IrreducibilityProfile):
    """Arrows of the irreducibility hierarchy violated by decided flags."""
    return [
        (src, dst)
        for src, dst in HIERARCHY_ARROWS
        if profile[src] == Flag.TRUE and profile[dst] == Flag.FALSE
    ]


@dataclass
class TauRAtomResult:
    is_atom: bool
    conditions: tuple  # the five equivalent characterizations, evaluated independently


def tau_r_atom(
    ring: Ring,
    tau: TauRelation,
    a,
    cap: Optional[int] = None,
    fs: Optional[FactorizationSet] = None,
) -> TauRAtomResult:
    """Evaluate the five atom characterizations of a regular non-unit.

    All five quantify over the factorizations of a (automatically regular
    factorizations, since every divisor of a regular element is regular).
    Every condition, the very-strong one included, is invariant under
    unit-scaling of factors, so class representatives suffice.
    """
    if ring.classify(a) != ElementClass.REGULAR_NON_UNIT:
        raise PreconditionError("expected a regular non-unit")
    if fs is None:
        fs = enumerate_factorizations(ring, tau, a, AssociateKind.STRONG, cap=cap)
    if not fs.exhaustive:
        raise UnsupportedOperationError(
            "factorization set of a regular element did not enumerate completely"
        )
    items = fs.items
    rel = lambda x, kind: ring.associated(a, x, kind)
    c1 = all(any(rel(x, AssociateKind.ASSOCIATE) for x in f.factors) for f in items)
    c2 = all(any(rel(x, AssociateKind.STRONG) for x in f.factors) for f in items)
    c3 = all(all(rel(x, AssociateKind.ASSOCIATE) for x in f.factors) for f in items)
    c4 = all(f.trivial for f in items)
    c5 = ring.associated(a, a, AssociateKind.VERY_STRONG) and all(
        any(rel(x, AssociateKind.VERY_STRONG) for x in f.factors) for f in items
    )
    return TauRAtomResult(is_atom=c4, conditions=(c1, c2, c3, c4, c5))
