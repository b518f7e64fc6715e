"""Essential / inessential splits of factorizations.

A split  target = unit * (inessential block) * <essential block>  is valid
when (1) each inessential factor fixes the principal ideal of the essential
product, and (2) dropping any essential factor changes that ideal.  The
essential block is nonempty; with a single essential divisor condition (2)
holds automatically because the divisor is a non-unit.

Ideal equality (x*p) = (p) is decided by a cofactor query: the inclusion
(x*p) <= (p) is free, so equality means p lies in (x*p).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .factor import Factorization, PreconditionError
from .rings import Ring
from .relations import TauRelation


class UDomainError(ValueError):
    """A split expected to be all-essential was not (names the bad factor)."""


@dataclass(frozen=True)
class UFactorization:
    ring: Ring
    unit: object
    inessential: tuple
    essential: tuple  # nonempty
    target: object

    @property
    def factors(self) -> tuple:
        """Both blocks together, in ring order: the factors of ``phi(u)``."""
        return tuple(sorted(self.inessential + self.essential, key=self.ring.sort_key))

    @property
    def trivial(self) -> bool:
        return len(self.inessential) + len(self.essential) == 1

    def to_json(self):
        r = self.ring
        return {
            "unit": r.element_to_json(self.unit),
            "inessential": [r.element_to_json(x) for x in self.inessential],
            "essential": [r.element_to_json(x) for x in self.essential],
            "target": r.element_to_json(self.target),
        }

    def __repr__(self):
        r = self.ring
        ines = "*".join(r.format_element(x) for x in self.inessential)
        ess = "*".join(r.format_element(x) for x in self.essential)
        lead = f"{r.format_element(self.unit)}" + (f"*{ines}" if ines else "")
        return f"{r.format_element(self.target)}={lead}*<{ess}>"


def _ideal_fixed(ring: Ring, x, p) -> bool:
    """(x*p) = (p); the inclusion into (p) always holds."""
    return not ring.cofactors(p, ring.mul(x, p)).is_empty()


def _inessential_index(ring: Ring, essential: tuple) -> Optional[int]:
    """Position of the first factor of an essential block whose removal
    leaves the block's ideal unchanged (so it is not essential), or None."""
    for i, x in enumerate(essential):
        rest = ring.product(essential[:i] + essential[i + 1 :])
        if _ideal_fixed(ring, x, rest):
            return i
    return None


# A separate re-check from the definitions: tests take it as the reference for u_partitions.
def validate_u_factorization(u: UFactorization) -> Optional[str]:
    ring = u.ring
    if not ring.is_unit(u.unit):
        return "unit slot holds a non-unit"
    if not u.essential:
        return "essential block is empty"
    total = ring.mul(
        u.unit, ring.mul(ring.product(u.inessential), ring.product(u.essential))
    )
    if total != u.target:
        return "blocks do not multiply to the target"
    ep = ring.product(u.essential)
    for x in u.inessential:
        if not _ideal_fixed(ring, x, ep):
            return f"inessential factor {ring.format_element(x)} moves the ideal"
    for i in range(len(u.essential)):
        rest = ring.product(u.essential[:i] + u.essential[i + 1 :])
        if _ideal_fixed(ring, u.essential[i], rest):
            return (
                f"essential factor {ring.format_element(u.essential[i])}"
                " does not move the ideal"
            )
    return None


def u_partitions(ring: Ring, f: Factorization) -> tuple:
    """All valid (inessential, essential) splits of a factorization's factors."""
    values = sorted(set(f.factors), key=ring.sort_key)
    counts = [f.factors.count(v) for v in values]
    out = []
    for ess_counts in itertools.product(*(range(c + 1) for c in counts)):
        if sum(ess_counts) == 0:
            continue
        essential = []
        inessential = []
        for v, c, e in zip(values, counts, ess_counts):
            essential.extend([v] * e)
            inessential.extend([v] * (c - e))
        u = UFactorization(
            ring=ring,
            unit=f.unit,
            inessential=tuple(inessential),
            essential=tuple(essential),
            target=f.target,
        )
        ep = ring.product(u.essential)
        if not all(_ideal_fixed(ring, x, ep) for x in u.inessential):
            continue
        if _inessential_index(ring, u.essential) is None:
            out.append(u)
    return tuple(out)


def phi(u: UFactorization) -> Factorization:
    """Flatten a split back into a plain factorization."""
    ring = u.ring
    return Factorization(
        ring=ring,
        unit=u.unit,
        factors=u.factors,
        target=u.target,
    )


def phi_inverse(ring: Ring, tau: TauRelation, f: Factorization) -> UFactorization:
    """The all-essential split of a regular-restricted factorization.

    Every non-unit factor of such a factorization is essential, so the
    inessential block is empty; a violation of condition (2) here signals a
    bug and raises.
    """
    if not (
        tau.regular_only
        or f.trivial
        or all(ring.is_regular(x) for x in f.factors)
    ):
        raise PreconditionError(
            "inverse map needs a regular-restricted relation, regular factors,"
            " or a trivial factorization"
        )
    u = UFactorization(
        ring=ring,
        unit=f.unit,
        inessential=(),
        essential=f.factors,
        target=f.target,
    )
    i = _inessential_index(ring, u.essential)
    if i is not None:
        raise UDomainError(f"factor {ring.format_element(u.essential[i])} is not essential")
    return u
