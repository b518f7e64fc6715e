import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from taufact import (
    IntegersSpec,
    ModIntSpec,
    PolyQuotSpec,
    ProductSpec,
    build_ring,
)
from taufact.properties import DEFAULT_PROPERTY_CAP, Evaluator


@pytest.fixture(scope="session")
def z6():
    return build_ring(ModIntSpec(6))


@pytest.fixture(scope="session")
def z4():
    return build_ring(ModIntSpec(4))


@pytest.fixture(scope="session")
def z8():
    return build_ring(ModIntSpec(8))


@pytest.fixture(scope="session")
def zz():
    return build_ring(ProductSpec(IntegersSpec(), IntegersSpec()))


@pytest.fixture(scope="session")
def zint():
    return build_ring(IntegersSpec())


@pytest.fixture(scope="session")
def f3xf3():
    return build_ring(ProductSpec(ModIntSpec(3), ModIntSpec(3)))


@pytest.fixture(scope="session")
def f4():
    return build_ring(PolyQuotSpec(2, (1, 1, 1)))


@pytest.fixture(scope="session")
def f2x2():
    """F_2[x]/(x^2): the smallest quotient with a nilpotent."""
    return build_ring(PolyQuotSpec(2, (0, 0, 1)))


def small_finite_rings():
    """Rings small enough for exhaustive scans in unit tests."""
    specs = [ModIntSpec(n) for n in (2, 3, 4, 5, 6, 8, 9, 10, 12)]
    specs += [
        ProductSpec(ModIntSpec(2), ModIntSpec(2)),
        ProductSpec(ModIntSpec(2), ModIntSpec(3)),
        ProductSpec(ModIntSpec(3), ModIntSpec(3)),
        ProductSpec(ModIntSpec(2), ModIntSpec(4)),
        PolyQuotSpec(2, (1, 1, 1)),
        PolyQuotSpec(2, (0, 0, 1)),
        PolyQuotSpec(3, (0, 0, 1)),
    ]
    return [build_ring(s) for s in specs]


def divisor_class_cases():
    """(ring, targets, oracle box) for the divisor-class checks: every
    non-unit of the small finite rings (box: the whole ring), Z for
    2 <= |a| <= 64, and prod(Z,Z) with both components nonzero in
    [-12, 12].  Each box holds every divisor of its targets with the
    cofactor, and every unit with its inverse."""
    for ring in small_finite_rings():
        yield ring, ring.nonunits(), None
    zint = build_ring(IntegersSpec())
    yield zint, [a for a in range(-64, 65) if abs(a) >= 2], range(-64, 65)
    zz = build_ring(ProductSpec(IntegersSpec(), IntegersSpec()))
    box = [(i, j) for i in range(-12, 13) for j in range(-12, 13)]
    yield zz, [a for a in box if 0 not in a], box


def evaluator(ring, tau, scope=None, cap=DEFAULT_PROPERTY_CAP, prop=None):
    """The evaluator a verdict of ``prop`` reads: on ``tau``, or on its
    restriction to regular pairs when ``prop``'s scope is restricted, over
    ``scope`` at ``cap``."""
    restricted = prop is not None and prop.scope.restricted
    return Evaluator(ring, tau.regcap() if restricted else tau, cap, scope)
