import ast
import json
import random
from pathlib import Path

import pytest

from taufact import cli, properties, theorems
from taufact import (
    ComaximalTau,
    FullTau,
    IntegersSpec,
    ModIntSpec,
    ProductSpec,
    RegCapTau,
    ZeroProductTau,
    build_ring,
    build_tau,
    summarize,
    verify_corpus_entry,
)
from taufact.corpus import DEFAULT_TAUS, default_corpus_spec, generate_corpus
from taufact.parsing import build_ring_from_text, build_tau_from_text, parse_tau_spec
from taufact.relations import EmptyTau, RegularTau, SubsetTau, format_tau_spec, normal_spec, pair_table
from taufact.factor import PreconditionError
from taufact.properties import REGULAR_PROPS, Evaluator, PropertyVerdict
from taufact.theorems import EntryChecker, context_spec
from conftest import CLASS_SHAPES, class_shape_corpora, small_finite_rings

from taufact import PolyQuotSpec

SMALL_SPECS = [
    (ModIntSpec(6), FullTau()),
    (ModIntSpec(6), ZeroProductTau()),
    (ModIntSpec(8), ComaximalTau()),
    (ModIntSpec(9), FullTau()),
    (ProductSpec(ModIntSpec(2), ModIntSpec(3)), FullTau()),
    (ProductSpec(ModIntSpec(3), ModIntSpec(3)), RegCapTau(FullTau())),
    (PolyQuotSpec(2, (0, 0, 1)), FullTau()),
]


def run_entry(ring_spec, tau_spec, scope=None, cap=5):
    ring = build_ring(ring_spec)
    tau = build_tau(tau_spec, ring)
    entries = verify_corpus_entry(ring, tau, scope, cap, {})
    return entries, summarize(e.outcome for e in entries)


@pytest.mark.parametrize("ring_spec,tau_spec", SMALL_SPECS)
def test_no_violations_on_small_entries(ring_spec, tau_spec):
    entries, summary = run_entry(ring_spec, tau_spec)
    assert summary["violated"] == 0, [
        (e.theorem, e.instance, e.witness) for e in entries if e.outcome == "violated"
    ]


def test_entries_are_json_serializable():
    entries, _ = run_entry(ModIntSpec(6), FullTau())
    payload = [e.to_json() for e in entries]
    json.dumps(payload)  # witnesses must already be plain data
    theorems = {e.theorem for e in entries}
    assert {
        "irreducible-hierarchy",
        "regular-atom-five-way",
        "trivial-factorization-associates",
        "regular-collapse-six-way",
        "zero-divisor-atoms",
        "ring-atomicity-five-way",
        "refinable-finiteness-eight-way",
        "regular-vs-restricted-properties",
        "plain-implies-regular-properties",
        "regular-relation-baseline",
        "split-equivalences",
        "essential-divisor-lemma",
        "restricted-nontrivial-coincide",
        "finite-factorization-arrows",
        "regular-factorization-arrows",
    } <= theorems


def test_informational_rows_never_counted_as_violations():
    entries, summary = run_entry(ModIntSpec(6), FullTau())
    assert summary["informational"] >= 1
    for e in entries:
        if e.outcome == "informational":
            assert e.theorem in ("relation-predicates",) or e.instance.startswith(
                ("informational", "flag-")
            )


def test_integers_scoped_entry_verifies():
    scope = [a for a in range(-30, 31) if abs(a) > 1]
    entries, summary = run_entry(IntegersSpec(), FullTau(), scope=scope, cap=6)
    assert summary["violated"] == 0
    assert all(e.scoped for e in entries)


def test_zero_divisor_family_on_product():
    ring_spec = ProductSpec(IntegersSpec(), IntegersSpec())
    scope = [(a, b) for a in range(-6, 7) for b in range(-6, 7) if a and b]
    scope += [(a, 0) for a in range(1, 5)] + [(0, b) for b in range(1, 5)]
    entries, summary = run_entry(ring_spec, RegCapTau(FullTau()), scope=scope, cap=6)
    assert summary["violated"] == 0
    by_theorem = {e.theorem: e for e in entries}
    assert by_theorem["zero-divisor-atoms"].outcome == "verified"
    assert by_theorem["essential-divisor-lemma"].outcome == "verified"


def test_eight_way_gated_on_refinability(z8):
    # the one-element subset relation relates nothing outside {2,4};
    # refining via trivial variants leaves it, so the family is inapplicable
    from taufact import SubsetTau

    entries, _ = run_entry(ModIntSpec(8), SubsetTau((2, 4)))
    row = next(e for e in entries if e.theorem == "refinable-finiteness-eight-way")
    assert row.outcome == "inapplicable"


def test_mixed_infinite_finite_product_entry():
    """The laws hold on a product of the integers with a modular ring,
    where genuinely unbounded elements exist ((4,3) = (2,3)^2 (1,3)^k)."""
    ring_spec = ProductSpec(IntegersSpec(), ModIntSpec(6))
    scope = [(a, b) for a in range(-5, 6) if a for b in range(6)]
    for tau_spec in (FullTau(), RegCapTau(FullTau())):
        entries, summary = run_entry(ring_spec, tau_spec, scope=scope, cap=6)
        assert summary["violated"] == 0, [
            (e.theorem, e.instance) for e in entries if e.outcome == "violated"
        ]


def test_nested_product_entry():
    ring_spec = ProductSpec(ModIntSpec(2), ProductSpec(ModIntSpec(2), ModIntSpec(3)))
    entries, summary = run_entry(ring_spec, ZeroProductTau(), cap=5)
    assert summary["violated"] == 0


def test_subset_relation_entries():
    from taufact import SubsetTau

    for subset in ((2, 4, 8), (3, 9), (2, 6, 10)):
        entries, summary = run_entry(ModIntSpec(12), SubsetTau(subset), cap=5)
        assert summary["violated"] == 0, subset


def test_random_subset_relations_fuzz():
    """Fixed-seed sweep: the laws hold under arbitrary subset relations,
    which have none of the structure the built-in relations enjoy."""
    import random

    from taufact import SubsetTau

    rng = random.Random(20260810)
    for spec in (ModIntSpec(8), ModIntSpec(12), ProductSpec(ModIntSpec(2), ModIntSpec(4))):
        ring = build_ring(spec)
        sharp = ring.nonzero_nonunits()
        for _ in range(4):
            k = rng.randint(1, len(sharp))
            subset = tuple(sorted(rng.sample(sharp, k), key=ring.sort_key))
            entries, summary = run_entry(spec, SubsetTau(subset), cap=5)
            assert summary["violated"] == 0, (spec, subset)


def test_split_equivalences_can_fail(monkeypatch):
    """The split/plain agreement is checked, not assumed: with the last
    split of each element dropped, the family reports violations."""
    scope = [a for a in range(-30, 31) if abs(a) > 1]

    def violated():
        entries, _ = run_entry(IntegersSpec(), FullTau(), scope=scope, cap=6)
        return [
            e for e in entries
            if e.theorem == "split-equivalences" and e.outcome == "violated"
        ]

    assert violated() == []
    u_pool = Evaluator.u_pool
    monkeypatch.setattr(Evaluator, "u_pool", lambda self, a: u_pool(self, a)[:-1])
    assert violated()


def _direct_rows(corpus, monkeypatch):
    """Each entry on a fresh ring, with a fresh checker and no shared
    context, and with relation specs used as written: neither the normal
    form nor the finite-ring context key applies, so on a finite ring the
    regular-pairs hypothesis is read from the relation's own pair table."""
    entries, meta = generate_corpus(corpus)
    rows = []
    within_regular = EntryChecker._tau_subset_of_regular

    def within_regular_by_table(checker):
        tau = checker.plain.tau
        if checker.ring.is_finite and not tau.regular_only:
            return not any(pair_table(tau))
        return within_regular(checker)

    with monkeypatch.context() as m:
        m.setattr(theorems, "normal_spec", lambda spec: spec)
        m.setattr(theorems, "context_spec", lambda tau: tau.spec)
        m.setattr(EntryChecker, "_tau_subset_of_regular", within_regular_by_table)
        for ce in entries:
            ring = build_ring_from_text(ce.ring_str)
            tau = build_tau_from_text(ce.tau_str, ring)
            rows += [e.to_json() for e in verify_corpus_entry(ring, tau, ce.scope, meta["cap"], {})]
    return rows


def _finite_default_corpus():
    spec = default_corpus_spec()
    spec["rings"] = [r for r in spec["rings"] if r not in spec["scopes"]]
    spec["scopes"] = {}
    return spec


def _scoped_corpus(taus=DEFAULT_TAUS):
    zz = [[a, b] for a in range(-6, 7) for b in range(-6, 7) if a and b]
    zz += [[a, 0] for a in range(1, 5)] + [[0, b] for b in range(1, 5)]
    return {
        "schema": 1,
        "rings": ["Z", "prod(Z,Z)"],
        "taus": list(taus),
        "scopes": {"Z": [a for a in range(-60, 61) if abs(a) > 1], "prod(Z,Z)": zz},
        "cap": 6,
    }


@pytest.mark.parametrize(
    "corpus",
    [_finite_default_corpus(), _scoped_corpus(), *class_shape_corpora()],
    ids=["finite-default", "scoped", *CLASS_SHAPES],
)
def test_shared_contexts_match_direct_rows(corpus, monkeypatch):
    """Rows from relation contexts shared across entries, and copied
    between entries with one context key, equal rows computed per entry
    on its own, also on a ring of each shape of class the finite key
    joins."""
    assert cli.run_verification(corpus)["entries"] == _direct_rows(corpus, monkeypatch)


def _rows_by_entry(entries) -> dict:
    out: dict = {}
    for row in entries:
        out.setdefault((row["ring"], row["tau"]), []).append(row)
    return out


@pytest.mark.parametrize("corpus", list(class_shape_corpora()), ids=list(CLASS_SHAPES))
def test_reversed_relations_give_each_entry_the_same_rows(corpus):
    """The class-shape corpora join the classes they are named for (and
    ``subset`` of all of R# joins ``full``), and with the relations in
    reverse order, so that another member builds a class's evaluator,
    every (ring, tau) gets the same rows."""
    ring_str = corpus["rings"][0]
    groups = [set(g) for g in generate_corpus(corpus)[1]["extensionally_equal_taus"][ring_str]]
    assert any(set(CLASS_SHAPES[ring_str]) <= g for g in groups)
    assert all(any({"full", t} <= g for g in groups) for t in corpus["taus"] if t.startswith("subset"))
    forwards = cli.run_verification(corpus)["entries"]
    backwards = cli.run_verification({**corpus, "taus": corpus["taus"][::-1]})["entries"]
    assert _rows_by_entry(backwards) == _rows_by_entry(forwards)


@pytest.mark.parametrize(
    "wrong,corpus",
    [
        (RegCapTau(ComaximalTau()), {"schema": 1, "rings": ["Zn(6)"], "taus": ["regcap(comax)"], "cap": 5}),
        (RegCapTau(EmptyTau()), _scoped_corpus(["empty", "regcap(empty)"])),
    ],
    ids=["regcap-comax", "regcap-empty"],
)
def test_shared_rows_see_a_wrong_normal_form(wrong, corpus, monkeypatch):
    """A normal form that drops a regcap the engine can see (here
    ``regular_only``) makes the shared rows differ from the direct ones."""
    direct = _direct_rows(corpus, monkeypatch)
    assert cli.run_verification(corpus)["entries"] == direct

    def normal(spec):
        return wrong.inner if spec == wrong else normal_spec(spec)

    monkeypatch.setattr(theorems, "normal_spec", normal)
    assert cli.run_verification(corpus)["entries"] != direct


def test_regular_pairs_hypothesis_reads_the_context_key(monkeypatch):
    """On a finite ring ``regular-relation-baseline`` reads whether the
    relation relates no pair of R# off the entry's context key, the pair
    table: it asks the relation no pair again, and answers as the relation's
    own table does."""
    specs = [parse_tau_spec(t, None) for t in DEFAULT_TAUS]
    for text, subset in (("Zn(6)", (2, 3)), ("Zn(9)", (3,)), ("prod(Zn(2),Zn(3))", ((0, 1),))):
        ring = build_ring_from_text(text)
        contexts: dict = {}
        for spec in specs + [SubsetTau(subset)]:
            checker = EntryChecker(ring, build_tau(spec, ring), None, 4, contexts)
            asked = []
            with monkeypatch.context() as m:
                m.setattr(type(checker.plain.tau), "holds", lambda tau, a, b: asked.append((a, b)))
                got = checker._tau_subset_of_regular()
            assert asked == [], (text, spec)
            tau = build_tau(spec, ring)
            assert got == (tau.regular_only or not any(pair_table(tau))), (text, spec)


def test_context_spec_keys_finite_rings_by_pair_table():
    """On a finite ring two relations get one context key exactly when they
    relate the same ordered pairs of R#: the default relations, their
    ``regcap``s and seeded ``subset`` relations with theirs.  Infinite rings
    keep the normal form."""
    rng = random.Random(20261019)
    specs = [parse_tau_spec(t, None) for t in DEFAULT_TAUS]
    specs += [RegCapTau(s) for s in specs]
    for ring in small_finite_rings():
        sharp = ring.nonzero_nonunits()
        subsets = [SubsetTau(tuple(sharp))] if sharp else []
        subsets += [SubsetTau(tuple(rng.sample(sharp, rng.randint(1, len(sharp))))) for _ in range(3) if sharp]
        keys, tables = [], []
        for spec in specs + subsets + [RegCapTau(s) for s in subsets]:
            tau = build_tau(spec, ring)
            keys.append(context_spec(tau))
            tables.append(frozenset((a, b) for a in sharp for b in sharp if tau.holds(a, b)))
        for i in range(len(keys)):
            for j in range(i):
                assert (keys[i] == keys[j]) == (tables[i] == tables[j]), (ring.spec_string(), i, j)
    for text, subset in (("Z", SubsetTau((2, 3))), ("prod(Z,Z)", SubsetTau(((2, 0), (1, 3))))):
        ring = build_ring_from_text(text)
        for spec in specs + [subset, RegCapTau(subset)]:
            assert context_spec(build_tau(spec, ring)) == normal_spec(spec)


def test_shared_rows_see_a_key_that_skips_a_pair(monkeypatch):
    """A pair table that leaves out the last element of R# joins ``full``
    and ``empty`` on Z/4, where R# is {2}, and the shared rows then differ
    from the direct ones."""
    corpus = {"schema": 1, "rings": ["Zn(4)"], "taus": ["full", "empty"], "cap": 5}
    direct = _direct_rows(corpus, monkeypatch)
    assert cli.run_verification(corpus)["entries"] == direct

    def skipping(tau):
        sharp = tau.ring.nonzero_nonunits()[:-1]
        return tuple(tau.holds(a, b) for i, a in enumerate(sharp) for b in sharp[i:])

    monkeypatch.setattr(theorems, "pair_table", skipping)
    assert cli.run_verification(corpus)["entries"] != direct


def test_shared_rows_see_a_context_key_that_fires_on_infinite_rings(monkeypatch):
    """A context key that merges regular-only relations on an infinite
    ring too puts ``regcap(empty)`` in the context of ``regular`` on scoped
    ``prod(Z,Z)``, and the shared rows then differ from the direct ones."""
    corpus = _scoped_corpus(["regular", "regcap(empty)"])
    corpus["rings"] = ["prod(Z,Z)"]
    direct = _direct_rows(corpus, monkeypatch)
    assert cli.run_verification(corpus)["entries"] == direct
    real = theorems.context_spec

    def everywhere(tau):
        return RegularTau() if isinstance(normal_spec(tau.spec), RegCapTau) else real(tau)

    monkeypatch.setattr(theorems, "context_spec", everywhere)
    assert cli.run_verification(corpus)["entries"] != direct


def test_refinable_verdict_records_the_caps_it_read():
    """On an infinite ring the evaluator enumerates at the per-element
    default cap, and the refinability verdict records the largest cap it
    read, not the corpus cap."""
    ring = build_ring_from_text("prod(Z,Z)")
    scope = [(a, b) for a in (2, 4, 6, 12) for b in (-3, 2, 9)] + [(2, 0), (0, 3)]
    ev = Evaluator(ring, build_tau(ComaximalTau(), ring), 6, scope)
    read = []
    fs = ev.fs
    ev.fs = lambda a: read.append(fs(a).cap) or fs(a)
    verdict = ev.refinable()
    assert read and verdict.cap == max(read) > 6


@pytest.mark.parametrize(
    "corpus",
    [{"schema": 1, "rings": ["Zn(12)", "prod(Zn(2),Zn(4))"], "cap": 5}, _scoped_corpus()],
    ids=["finite", "scoped"],
)
def test_each_domain_resolved_once_per_evaluator(corpus, monkeypatch):
    """A verify run resolves the domain of each evaluator at most once,
    however many verdicts and entries read it or its regular part."""
    made, calls = [], []
    real = properties._resolve_domain

    class Counted(Evaluator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def counted(ring, scope):
        calls.append(scope)
        return real(ring, scope)

    monkeypatch.setattr(theorems, "Evaluator", Counted)
    monkeypatch.setattr(properties, "_resolve_domain", counted)
    assert cli.run_verification(corpus)["summary"]["violated"] == 0
    assert made and len(calls) <= len(made)


def test_zero_in_infinite_scope_rejected():
    """A zero in an infinite ring's scope is refused, as ``check_property``
    refuses it, not dropped."""
    ring = build_ring(IntegersSpec())
    with pytest.raises(PreconditionError):
        verify_corpus_entry(ring, build_tau(FullTau(), ring), [0, 2, 3], 5, {})


# Outcome of a law row by (lhs, rhs) outcome; rows: lhs holds / fails /
# unknown, columns: rhs holds / fails / unknown.
_SIDES = ("holds", "fails", "unknown")
_LAW_TABLES = {
    "implication": [
        ["verified", "violated", "skipped"],
        ["verified", "verified", "skipped"],
        ["skipped", "skipped", "skipped"],
    ],
    "equivalence": [
        ["verified", "violated", "skipped"],
        ["violated", "verified", "skipped"],
        ["skipped", "skipped", "skipped"],
    ],
}
_WITNESS_KEYS = {
    "implication": ["lhs", "rhs", "rhs_witness"],
    "equivalence": ["lhs", "lhs_outcome", "rhs", "rhs_outcome"],
}


def _expected_law_rows(law, mode):
    out = {}
    for i, lhs in enumerate(_SIDES):
        for j, rhs in enumerate(_SIDES):
            outcome = _LAW_TABLES[law][i][j]
            keys = _WITNESS_KEYS[law] if outcome == "violated" else []
            note = "undecided side at cap" if outcome == "skipped" else ""
            if mode == "gated":
                outcome, keys, note = "inapplicable", [], "relation not refinable"
            elif mode == "informational" and outcome != "skipped":
                if outcome == "violated":
                    note = f"flagged: {law} contradicted"
                outcome = "informational"
            out[lhs, rhs] = (outcome, keys, note)
    return out


def _law_rows(law, mode):
    """The rows ``law`` gives each pair of synthetic verdicts, on a relation
    that is not refinable (the one of ``test_eight_way_gated_on_refinability``)."""
    ring = build_ring(ModIntSpec(8))
    checker = EntryChecker(ring, build_tau(SubsetTau((2, 4)), ring), None, 5, {})
    assert not checker.refinable.holds
    for lhs in _SIDES:
        for rhs in _SIDES:
            getattr(checker, law)(
                "law",
                f"{lhs}-{rhs}",
                PropertyVerdict(REGULAR_PROPS["ffr"], lhs, witness=2 if lhs == "fails" else None),
                PropertyVerdict(REGULAR_PROPS["bfr"], rhs, witness=4 if rhs == "fails" else None),
                gated=mode == "gated",
                informational=mode == "informational",
            )
    return {
        tuple(e.instance.split("-")): (e.outcome, list(e.witness or ()), e.note)
        for e in checker.entries
    }


@pytest.mark.parametrize("mode", ["asserted", "gated", "informational"])
@pytest.mark.parametrize("law", ["implication", "equivalence"])
def test_law_rows_follow_the_comparison_table(law, mode):
    assert _law_rows(law, mode) == _expected_law_rows(law, mode)


def test_law_table_sees_an_implication_read_both_ways(monkeypatch):
    """With ``_law`` treating an implication as an equivalence, the table
    test fails: fails => holds comes out violated."""
    law = EntryChecker._law
    monkeypatch.setattr(EntryChecker, "_law", lambda self, *a: law(self, *a[:4], True, *a[5:]))
    rows = _law_rows("implication", "asserted")
    assert rows["fails", "holds"][0] == "violated"
    assert rows != _expected_law_rows("implication", "asserted")


def _callers(names) -> dict:
    """The scopes of ``src/taufact`` that call each of ``names``, by a bare
    name or as an attribute of a ``taufact`` module: ``module``, or
    ``module.function``, ``module.Class.method`` and so on inwards."""
    package = Path(properties.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    out: dict = {name: set() for name in names}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call):
                func = child.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
                    name = func.attr
                if name in out:
                    out[name].add(scope)
            visit(child, inner)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return out


def test_one_way_to_a_verdict():
    """Evaluators are built by the two drivers, and property verdicts,
    refinability, domains and element profiles are each reached through one
    ``Evaluator`` method (``cmd_classify`` answers a query at its own
    ``--cap``); atomic outcomes are read only by ``check_property``, so HFR
    and UFR reach them through the ATOMIC verdict."""
    names = ["Evaluator", "check_property", "check_tau_property", "_resolve_domain", "classify", "_atomic_element"]
    assert _callers(names) == {
        "Evaluator": {"theorems.context_evaluator", "cli.cmd_properties"},
        "check_property": {"properties.Evaluator.verdict"},
        "check_tau_property": {"properties.Evaluator.refinable"},
        "_resolve_domain": {"properties.Evaluator.domain"},
        "classify": {"properties.Evaluator.profile", "cli.cmd_classify"},
        "_atomic_element": {"properties.check_property.element_outcome"},
    }
    tree = ast.parse(Path(properties.__file__).read_text())
    named = [n for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "_atomic_element"]
    assert len(named) == 1  # one call, and no second path such as a memo


def test_harness_rules_stated_once():
    """``theorems`` builds property cells only in ``EntryChecker.prop``, and
    only ``EntryChecker._law`` emits ``VIOLATED`` for a law row: no function
    that compares verdicts through ``implication``, ``equivalence`` or
    ``_law`` emits it itself."""
    tree = ast.parse(Path(theorems.__file__).read_text())
    functions = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            functions += [(f"{cls.name}.{fn.name}", fn) for fn in cls.body if isinstance(fn, ast.FunctionDef)]

    def builds_cell(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "PropertyId"

    builders, violates, laws = [], set(), set()
    for name, fn in functions:
        for node in ast.walk(fn):
            if builds_cell(node):
                builders.append(name)
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "emit" and any(
                isinstance(n, ast.Name) and n.id == "VIOLATED" for n in ast.walk(node)
            ):
                violates.add(name)
            if node.func.attr in ("implication", "equivalence", "_law"):
                laws.add(name)
    assert builders == ["EntryChecker.prop"]
    assert sum(map(builds_cell, ast.walk(tree))) == 1
    assert "EntryChecker._law" in violates
    assert not violates & laws
    assert all(name.startswith("EntryChecker.family_") for name in violates - {"EntryChecker._law"})
