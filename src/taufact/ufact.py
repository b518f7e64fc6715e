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


def u_partitions(ring: Ring, f: Factorization) -> tuple:
    """All valid (inessential, essential) splits of a factorization's factors.

    A split is an essential count vector ``e``, one entry per distinct
    factor.  The essential products form one table: ``P[e]`` is one ``mul``
    from ``P[e - 1_j]``, which the lexicographic order of the vectors has
    already visited.  Factor ``j`` fixing the ideal of ``P[e]`` is condition
    (1) at ``e`` and, negated, condition (2) at ``e + 1_j``, so each such
    test is made once and read by both (README, "Design notes").  A
    trivial factorization asks the table's one question directly.
    """
    if f.trivial:
        # its one split: condition (1) asks nothing, (2) asks P[0] = 1
        if _ideal_fixed(ring, f.factors[0], ring.one):
            return ()
        return (UFactorization(ring=ring, unit=f.unit, inessential=(), essential=f.factors, target=f.target),)
    values = sorted(set(f.factors), key=ring.sort_key)
    counts = [f.factors.count(v) for v in values]
    vectors = itertools.product(*[range(c + 1) for c in counts])
    products = {next(vectors): ring.one}  # essential count vector -> its block's product
    fixed: dict = {}  # (e, j) -> values[j] fixes the ideal of P[e]

    def fixes(e: tuple, j: int) -> bool:
        got = fixed.get((e, j))
        if got is None:
            got = fixed[e, j] = _ideal_fixed(ring, values[j], products[e])
        return got

    out = []
    for e in vectors:
        # (j, e - 1_j) for each factor j in the essential block
        below = [(j, e[:j] + (k - 1,) + e[j + 1 :]) for j, k in enumerate(e) if k]
        j, prev = below[-1]
        products[e] = ring.mul(products[prev], values[j])
        if all(fixes(e, j) for j, k in enumerate(e) if k < counts[j]) and not any(
            fixes(prev, j) for j, prev in below
        ):
            essential, inessential = [], []
            for v, c, k in zip(values, counts, e):
                essential += [v] * k
                inessential += [v] * (c - k)
            out.append(
                UFactorization(
                    ring=ring,
                    unit=f.unit,
                    inessential=tuple(inessential),
                    essential=tuple(essential),
                    target=f.target,
                )
            )
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
