import contextlib
import io
import json
import sys
import time
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
from taufact import cli
from taufact.cli import main
from taufact.properties import DEFAULT_PROPERTY_CAP, Evaluator


@pytest.fixture(autouse=True)
def cold_registry():
    """Every test starts with an empty query registry, so that no request in
    it is answered from a ring whose memos an earlier test warmed, perhaps
    with engine code that test had patched."""
    cli._registry.clear()


@pytest.fixture(scope="session")
def default_reports(tmp_path_factory):
    """Two full verification runs of the default corpus, at ``--jobs 1`` and
    ``--jobs 2``, each writing the report and the atlas: the report parsed,
    then the bytes of each report file and of each atlas file, and the time
    both runs took (criterion 10 and the atlas digest read both runs; the
    others, and the corpus metadata test, read the parsed report)."""
    out = tmp_path_factory.mktemp("default")
    reports, atlases = [], []
    t0 = time.time()
    for jobs in ("1", "2"):
        report, atlas = out / f"report-{jobs}.json", out / f"atlas-{jobs}.json"
        argv = ["verify", "--corpus", "default", "--jobs", jobs, "--pretty", "--out", str(report), "--atlas-out", str(atlas)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        reports.append(report.read_bytes())
        atlases.append(atlas.read_bytes())
    return json.loads(reports[0]), reports, atlases, time.time() - t0


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


# A ring for each shape of class of relations that relate the same pairs of
# R#, with two relations that the class joins there.
CLASS_SHAPES = {
    "GFq(2,[1,1,1])": ("full", "regcap(comax)"),  # a field: all seven
    "Zn(9)": ("full", "zero"),  # R# * R# = 0
    "GFq(2,[0,0,1])": ("full", "zero"),
    "Zn(8)": ("comax", "empty"),  # local
    "prod(Zn(2),Zn(3))": ("zero", "comax"),  # reduced
}


def class_shape_corpora():
    """One corpus per ring of ``CLASS_SHAPES``: the default relations and,
    where R# is not empty, ``subset`` of all of R# (which joins ``full``),
    at cap 5."""
    from taufact.corpus import DEFAULT_TAUS
    from taufact.parsing import build_ring_from_text
    from taufact.relations import SubsetTau, format_tau_spec

    for ring_str in CLASS_SHAPES:
        ring = build_ring_from_text(ring_str)
        sharp = ring.nonzero_nonunits()
        subset = [format_tau_spec(SubsetTau(tuple(sharp)), ring)] if sharp else []
        yield {"schema": 1, "rings": [ring_str], "taus": list(DEFAULT_TAUS) + subset, "cap": 5}
