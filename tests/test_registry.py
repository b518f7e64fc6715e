"""The query commands' ring registry (``cli._registry``): answers from a warm
ring match answers from a fresh one, the registry keeps at most its bound
of finite rings and no infinite one, and a failed request stores nothing."""

import contextlib
import gc
import io
import random
import weakref

from conftest import small_finite_rings
from taufact import cli, parse_ring_spec
from taufact.corpus import DEFAULT_TAUS
from taufact.relations import SubsetTau, format_tau_spec


def _run(argv):
    """Exit code, stdout and stderr of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _held():
    """The registry's rings and relations, by identity, in its order."""
    return [(spec, id(ring), [(k, id(tau)) for k, tau in taus.items()]) for spec, (ring, taus) in cli._registry.items()]


def _stream(seed):
    """A seeded, shuffled request stream over the small finite rings: for
    each ring under the default relations and one seeded ``subset``
    relation, ``factorizations`` at every ``--beta``, ``classify`` and
    ``ufact`` of up to four seeded non-units, and one ``properties``; and
    per ring a bad element, a bad ``subset`` element, a ``--cap 1``
    request and a unit target."""
    rng = random.Random(seed)
    requests = []
    for ring in small_finite_rings():
        ring_text = ring.spec_string()
        sharp = ring.nonzero_nonunits()
        taus = list(DEFAULT_TAUS)
        if sharp:
            subset = sorted(rng.sample(sharp, rng.randint(1, len(sharp))), key=ring.sort_key)
            taus.append(format_tau_spec(SubsetTau(tuple(subset)), ring))
        nonunits = ring.nonunits()
        elements = [ring.format_element(a) for a in rng.sample(nonunits, min(4, len(nonunits)))]
        for tau in taus:
            common = ["--ring", ring_text, "--tau", tau]
            for el in elements:
                for beta in sorted(cli.BETA_NAMES):
                    requests.append(["factorizations", *common, "--element", el, "--beta", beta])
                requests.append(["classify", *common, "--element", el])
                requests.append(["ufact", *common, "--element", el])
        requests.append(["properties", "--ring", ring_text, "--tau", rng.choice(taus)])
        # the zero with its first coordinate out of range
        bad = ring.format_element(ring.zero).replace("0", str(ring.order), 1)
        requests.append(["classify", "--ring", ring_text, "--tau", "full", "--element", bad])
        requests.append(["factorizations", "--ring", ring_text, "--tau", f"subset[{bad}]", "--element", elements[0]])
        requests.append(["factorizations", "--ring", ring_text, "--tau", "full", "--element", elements[0], "--cap", "1"])
        requests.append(["ufact", "--ring", ring_text, "--tau", "full", "--element", ring.format_element(ring.one)])
    rng.shuffle(requests)
    return requests


def test_warm_answers_match_fresh_answers():
    """Every request of the stream answers byte for byte as on a fresh
    ring and relation, though most find theirs warmed by earlier requests
    (which would also show any cached list a caller mutates)."""
    requests = _stream(20261020)
    warm = [_run(argv) for argv in requests]
    assert len(cli._registry) == len(small_finite_rings())
    fresh = []
    for argv in requests:
        cli._registry.clear()
        fresh.append(_run(argv))
    assert warm == fresh
    codes = [code for code, _, _ in warm]
    assert codes.count(0) > len(codes) // 2 and codes.count(1) > len(small_finite_rings())


def test_registry_keeps_its_bound_of_rings():
    """Past ``RING_REGISTRY_SIZE`` distinct finite rings the least recently
    used one is dropped, and freed."""
    size = cli.RING_REGISTRY_SIZE

    def ask(n):
        assert _run(["factorizations", "--ring", f"Zn({n})", "--tau", "empty", "--element", "0"])[0] == 0

    ask(2)
    first = weakref.ref(cli._registry[parse_ring_spec("Zn(2)")][0])
    for n in range(3, size + 3):
        ask(n)
    assert len(cli._registry) == size
    assert parse_ring_spec("Zn(2)") not in cli._registry
    gc.collect()
    assert first() is None
    # recency, not age, decides: a ring asked again outlives a later one
    ask(3)
    ask(size + 3)
    assert parse_ring_spec("Zn(3)") in cli._registry and parse_ring_spec("Zn(4)") not in cli._registry
    assert len(cli._registry) == size


def test_registry_keeps_its_bound_of_relations():
    """A ring keeps at most ``RELATIONS_PER_RING`` relations, dropping the
    least recently used."""
    size = cli.RELATIONS_PER_RING
    texts = [f"subset[{2 * k}]" for k in range(1, size + 2)]
    for text in texts:
        assert _run(["classify", "--ring", "Zn(64)", "--tau", text, "--element", "2"])[0] == 0
    _, taus = cli._registry[parse_ring_spec("Zn(64)")]
    assert [tau.spec_string() for tau in taus.values()] == texts[1:]


def test_infinite_rings_are_not_kept(monkeypatch):
    """A ``Z`` or ``prod(Z,Z)`` request builds its ring, and nothing holds
    it once the request is answered."""
    built = []
    build = cli.build_ring_from_text
    monkeypatch.setattr(cli, "build_ring_from_text", lambda text: built.append(weakref.ref(ring := build(text))) or ring)
    assert _run(["factorizations", "--ring", "Z", "--tau", "full", "--element", "12"])[0] == 0
    assert _run(["ufact", "--ring", "prod(Z,Z)", "--tau", "comax", "--element", "(6,4)"])[0] == 0
    assert _run(["classify", "--ring", "Z", "--tau", "full", "--element", "12"])[0] == 0
    assert len(built) == 3 and not cli._registry
    gc.collect()
    assert all(ref() is None for ref in built)


def test_failed_requests_store_nothing():
    """A request whose relation or element fails to read or build leaves
    the registry as it was, order included; a valid relation on the same
    ring works after it, and the failure repeats with the same message."""
    for ring, el in (("Zn(6)", "0"), ("prod(Zn(2),Zn(3))", "(0,0)")):
        assert _run(["classify", "--ring", ring, "--tau", "full", "--element", el])[0] == 0
    held = _held()
    failures = [
        ("Zn(6)", "subset[1]", "2"),  # a unit: TauConstructionError
        ("Zn(6)", "subset[9]", "2"),  # not an element: ParseError
        ("Zn(6)", "comax", "9"),  # a bad element
        ("Zn(6)", "regcap(", "2"),
        ("Zn(10)", "subset[5,1]", "2"),  # a new ring, failing
        ("Zn(1)", "full", "0"),  # RingConstructionError
    ]
    messages = []
    for ring, tau, el in failures:
        code, out, err = _run(["factorizations", "--ring", ring, "--tau", tau, "--element", el])
        assert (code, out, err.count("error:")) == (1, "", 1), (ring, tau, err)
        assert _held() == held
        messages.append(err)
    ok = _run(["factorizations", "--ring", "Zn(6)", "--tau", "subset[2,4]", "--element", "2"])
    assert ok[0] == 0
    for (ring, tau, el), message in zip(failures, messages):
        assert _run(["factorizations", "--ring", ring, "--tau", tau, "--element", el]) == (1, "", message)
    cli._registry.clear()
    assert _run(["factorizations", "--ring", "Zn(6)", "--tau", "subset[2,4]", "--element", "2"]) == ok
