"""The query commands' ring registry (``cli._registry``): answers from a warm
ring match answers from a fresh one, a warm request parses and builds
nothing, the registry keeps at most its bound of finite rings and of texts
per ring and no infinite ring, and a failed request stores nothing."""

import contextlib
import gc
import io
import random
import weakref

from conftest import small_finite_rings
from taufact import cli, parsing
from taufact.corpus import DEFAULT_TAUS
from taufact.relations import SubsetTau, format_tau_spec


def _run(argv):
    """Exit code, stdout and stderr of one ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _held():
    """The registry's rings, relations and elements, by identity, in its order."""
    return [
        (key, id(ring), [[(k, id(v)) for k, v in texts.items()] for texts in maps])
        for key, (ring, *maps) in cli._registry.items()
    ]


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
        zero = ring.format_element(ring.zero)
        if zero not in elements:  # on Zn its value 0 is falsy
            elements.append(zero)
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
    """Past ``REGISTRY_SIZE`` distinct finite ring texts the least recently
    used one is dropped, and freed."""
    size = cli.REGISTRY_SIZE

    def ask(n):
        assert _run(["factorizations", "--ring", f"Zn({n})", "--tau", "empty", "--element", "0"])[0] == 0

    ask(2)
    first = weakref.ref(cli._registry["Zn(2)"][0])
    for n in range(3, size + 3):
        ask(n)
    assert len(cli._registry) == size
    assert "Zn(2)" not in cli._registry
    gc.collect()
    assert first() is None
    # recency, not age, decides: a ring asked again outlives a later one
    ask(3)
    ask(size + 3)
    assert "Zn(3)" in cli._registry and "Zn(4)" not in cli._registry
    assert len(cli._registry) == size


def test_registry_keeps_its_bound_of_relations():
    """A ring keeps at most ``REGISTRY_SIZE`` relation texts and at most
    ``REGISTRY_SIZE`` element texts, each dropping its least recently used;
    new elements never push out a relation."""
    size = cli.REGISTRY_SIZE
    requests = [(f"subset[{2 * k}]", str(2 * k)) for k in range(1, size + 2)]
    for tau, el in requests:
        assert _run(["classify", "--ring", "Zn(256)", "--tau", tau, "--element", el])[0] == 0
    _, relations, elements = cli._registry["Zn(256)"]
    assert list(relations) == [tau for tau, _ in requests[1:]]
    assert list(elements) == [el for _, el in requests[1:]]
    # recency, not age, decides: texts asked again outlive later ones
    for tau, el in (("subset[4]", "4"), ("subset[132]", "132")):
        assert _run(["classify", "--ring", "Zn(256)", "--tau", tau, "--element", el])[0] == 0
    assert list(relations)[0] == "subset[8]" and list(relations)[-2:] == ["subset[4]", "subset[132]"]
    assert list(elements)[0] == "8" and list(elements)[-2:] == ["4", "132"]
    kept = list(relations)
    churn = [str(2 * k) for k in range(67, 83)]
    for el in churn:
        assert _run(["classify", "--ring", "Zn(256)", "--tau", "subset[132]", "--element", el])[0] == 0
    assert list(relations) == kept and list(elements)[-len(churn) :] == churn and len(elements) == size


def test_warm_requests_parse_and_build_nothing(monkeypatch):
    """After one request on a finite ring, a request with a new relation
    text and a new element text on that ring builds no ring, and the same
    request again, on the element 0, parses nothing."""
    assert _run(["classify", "--ring", "Zn(12)", "--tau", "full", "--element", "2"])[0] == 0
    calls = []

    def counted(name, fn):
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(parsing, "build_ring", counted("build_ring", parsing.build_ring))
    argv = ["factorizations", "--ring", "Zn(12)", "--tau", "regcap(subset[9,3])", "--element", "0"]
    cold = _run(argv)
    assert cold[0] == 0 and calls == []
    for name in ("build_ring_from_text", "build_tau_from_text", "parse_element"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    assert _run(argv) == cold and calls == []


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
    ring works after it, and the failure repeats with the same message,
    also on an empty registry.  A text kept as an element is not served as
    a relation, nor the reverse."""
    for ring, el in (("Zn(6)", "0"), ("prod(Zn(2),Zn(3))", "(0,0)")):
        assert _run(["classify", "--ring", ring, "--tau", "full", "--element", el])[0] == 0
    held = _held()
    failures = [
        ("Zn(6)", "subset[1]", "2"),  # a unit: TauConstructionError
        ("Zn(6)", "subset[9]", "2"),  # not an element: ParseError
        ("Zn(6)", "comax", "9"),  # a bad element
        ("Zn(6)", "regcap(", "2"),
        ("Zn(6)", "0", "2"),  # kept as an element, not a relation
        ("Zn(6)", "comax", "full"),  # kept as a relation, not an element
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
    for (ring, tau, el), message in zip(failures, messages):
        cli._registry.clear()
        assert _run(["factorizations", "--ring", ring, "--tau", tau, "--element", el]) == (1, "", message)
