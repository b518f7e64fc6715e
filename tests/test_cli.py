import ast
import contextlib
import gc
import io
import itertools
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from taufact import cli, theorems
from taufact.cli import main
from taufact.corpus import DEFAULT_TAUS, CorpusEntry, default_corpus_spec, generate_corpus
from taufact.factor import default_cap
from taufact.irreducibles import classify
from taufact.parsing import build_ring_from_text, build_tau_from_text, parse_tau_spec
from taufact.properties import Evaluator, _resolve_domain
from taufact.relations import ComaximalTau, RegCapTau, SubsetTau, build_tau, format_tau_spec, normal_spec
from taufact.rings import AssociateKind, UnsupportedOperationError
from taufact.theorems import context_spec
from conftest import class_shape_corpora, small_finite_rings


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_command(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--ring", "Zn(6)", "--tau", "full", "--element", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["flags"]["irreducible"] == "true"
    assert payload["flags"]["m-irreducible"] == "true"
    assert payload["flags"]["unrefinably-irreducible"] == "false"
    assert payload["flags"]["very-strongly-irreducible"] == "false"


def test_factorizations_command(capsys):
    code, out, _ = run_cli(
        capsys, "factorizations", "--ring", "Z", "--tau", "comax", "--element", "12"
    )
    assert code == 0
    payload = json.loads(out)
    got = {tuple(sorted(i["factors"], key=lambda x: (abs(x), x < 0))) for i in payload["items"]}
    assert got == {(12,), (3, 4)}


def test_ufact_command(capsys):
    code, out, _ = run_cli(
        capsys, "ufact", "--ring", "Zn(6)", "--tau", "zero", "--element", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["splits"] == [
        {"unit": 1, "inessential": [], "essential": [2], "target": 2}
    ]


def test_requests_grow_no_module_container(capsys):
    """A stream of requests keeps no memory in the taufact modules: no dict,
    list or set bound at module level grows while mixed requests run."""
    mods = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "taufact"]

    def sizes():
        return {
            (m.__name__, attr): len(val)
            for m in mods
            for attr, val in vars(m).items()
            if not attr.startswith("__") and isinstance(val, (dict, list, set))
        }

    before = sizes()
    requests = [
        ("factorizations", "Zn(12)", "full", "4"),
        ("classify", "prod(Z,Z)", "comax", "(6,4)"),
        ("ufact", "Z", "full", "12"),
        ("factorizations", "GFq(2,[0,0,1])", "zero", "[0,1]"),
        ("ufact", "prod(Z,Z)", "full", "(2,3)"),
        ("classify", "Zn(12)", "full", "6"),
        ("factorizations", "Z", "regcap(full)", "-18"),
        ("ufact", "GFq(2,[0,0,1])", "full", "[0,1]"),
    ]
    for cmd, ring, tau, element in requests:
        code, _, err = run_cli(capsys, cmd, "--ring", ring, "--tau", tau, "--element", element)
        assert code == 0, err
    assert before and sizes() == before


def test_properties_command(capsys):
    code, out, _ = run_cli(capsys, "properties", "--ring", "Zn(6)", "--tau", "full")
    assert code == 0
    payload = json.loads(out)
    by_label = {v["property"]: v["outcome"] for v in payload["properties"]}
    assert by_label["ffr/associate/plain"] == "fails"
    assert by_label["wffr/associate/plain"] == "holds"
    assert payload["elasticity"]["value"] == "undefined-empty-scope"


def test_properties_scope(capsys):
    code, out, _ = run_cli(
        capsys,
        "properties",
        "--ring",
        "Z",
        "--tau",
        "full",
        "--scope",
        json.dumps(list(range(2, 30))),
    )
    assert code == 0
    payload = json.loads(out)
    by_label = {v["property"]: v for v in payload["properties"]}
    assert by_label["ufr/irreducible/associate/regular-elements"]["outcome"] == "holds"
    assert by_label["ufr/irreducible/associate/regular-elements"]["scoped"] is True


# --pretty renders, one expected text per command


def test_classify_pretty(capsys):
    code, out, _ = run_cli(capsys, "classify", "--ring", "Zn(6)", "--tau", "full", "--element", "2", "--pretty")
    assert code == 0
    assert out == (
        "element 2 under full on Zn(6):\n"
        "  irreducible                      true\n"
        "  strongly-irreducible             true\n"
        "  m-irreducible                    true\n"
        "  unrefinably-irreducible          false\n"
        "  very-strongly-irreducible        false\n"
    )


def test_factorizations_pretty(capsys):
    code, out, _ = run_cli(capsys, "factorizations", "--ring", "Z", "--tau", "comax", "--element", "12", "--pretty")
    assert code == 0
    assert out == (
        "2 classes (cap 8, complete True, unbounded no):\n"
        "  12 = 1 * 12\n"
        "  12 = 1 * 3 * 4\n"
    )


def test_ufact_pretty(capsys):
    code, out, _ = run_cli(capsys, "ufact", "--ring", "Zn(6)", "--tau", "zero", "--element", "2", "--pretty")
    assert code == 0
    assert out == "1 splits:\n  unit 1 | inessential (none) | essential <2>\n"


def test_properties_pretty(capsys):
    code, out, _ = run_cli(capsys, "properties", "--ring", "Zn(4)", "--tau", "full", "--pretty")
    assert code == 0
    rows = {
        "plain": [
            "atomic/irreducible/plain                     holds bound=2",
            "accp/plain                                   holds bound=2",
            "bfr/plain                                    fails",
            "ffr/associate/plain                          fails",
            "wffr/associate/plain                         holds bound=1",
            "idf/irreducible/associate/plain              holds bound=1",
            "hfr/irreducible/plain                        fails",
            "ufr/irreducible/associate/plain              fails",
        ],
        "regular-elements": [f"{label:44s} holds bound=0" for label in (
            "atomic/irreducible/regular-elements",
            "accp/regular-elements",
            "bfr/regular-elements",
            "ffr/associate/regular-elements",
            "wffr/associate/regular-elements",
            "idf/irreducible/associate/regular-elements",
            "hfr/irreducible/regular-elements",
            "ufr/irreducible/associate/regular-elements",
        )],
    }
    for scope in ("regcap-all", "regcap-u"):
        rows[scope] = [
            f"{label:44s} holds bound={bound}"
            for label, bound in (
                (f"atomic/irreducible/{scope}", 1),
                (f"accp/{scope}", 1),
                (f"bfr/{scope}", 1),
                (f"ffr/associate/{scope}", 0),
                (f"wffr/associate/{scope}", 0),
                (f"idf/irreducible/associate/{scope}", 1),
                (f"hfr/irreducible/{scope}", 1),
                (f"ufr/irreducible/associate/{scope}", 1),
            )
        ]
    lines = ["properties of full on Zn(4):"]
    lines += ["  " + row for scope_rows in rows.values() for row in scope_rows]
    lines.append("  elasticity: undefined-empty-scope")
    assert out == "\n".join(lines) + "\n"


def test_verify_pretty(tmp_path, capsys, monkeypatch):
    """The summary line, then one line per violated row."""
    cpath = tmp_path / "corpus.json"
    cpath.write_text(json.dumps({"schema": 1, "rings": ["Zn(4)"], "taus": ["full"]}))
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(cpath), "--pretty")
    assert code == 0
    assert out == "entries: 171  verified: 160  inapplicable: 1  violated: 0  skipped: 0  informational: 10\n"

    verification = cli.run_verification

    def one_violated(*args, **kwargs):
        report = verification(*args, **kwargs)
        report["entries"][1]["outcome"] = "violated"
        report["summary"] = theorems.summarize(r["outcome"] for r in report["entries"])
        return report

    monkeypatch.setattr(cli, "run_verification", one_violated)
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(cpath), "--pretty")
    assert code == 2
    assert out == (
        "entries: 171  verified: 159  inapplicable: 1  violated: 1  skipped: 0  informational: 10\n"
        "VIOLATED Zn(4) full irreducible-hierarchy/arrows\n"
    )


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "classify", "--ring", "Zn(6)")
    assert code == 1
    code, _, err = run_cli(
        capsys, "classify", "--ring", "Zn(", "--tau", "full", "--element", "2"
    )
    assert code == 1 and "position" in err


def test_parser_reused_across_calls(capsys):
    """One parser serves every in-process call: errors and other commands
    in between leave a repeated request's output unchanged."""
    request = (
        "factorizations", "--ring", "Zn(12)", "--tau", "full", "--element", "0", "--beta", "strong"
    )
    first = run_cli(capsys, *request)
    assert first[0] == 0 and json.loads(first[1])["items"]
    assert run_cli(capsys, "factorizations", "--ring", "Zn(12)")[0] == 1
    code, _, err = run_cli(capsys, "classify", "--ring", "Q(3)", "--tau", "full", "--element", "0")
    assert code == 1 and "unknown ring" in err
    assert run_cli(capsys, "classify", "--ring", "Zn(6)", "--tau", "full", "--element", "2")[0] == 0
    assert run_cli(capsys, *request) == first
    assert cli._build_parser() is cli._build_parser()


def _parse_or_exit(argv):
    """``parse_args(argv)``, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser().parse_args(argv)
        except SystemExit:
            return None


_COMMANDS = cli._build_parser().commands
_OPTIONS = sorted({o for options in _COMMANDS.values() for o in options})
_VALUES = (
    st.integers(-60, 60).map(str)
    | st.sampled_from(
        ["-1e5", "-", "", "--", "-x", "--ring", "-1.5", "-5\n", " 6 ", "6_0", "-٣", "a=b", "Zn(6)", "full"]
    )
    | st.sampled_from(sorted(cli.BETA_NAMES) + ["bogus", "Strong"])
    | st.text(max_size=4)
)
_TOKENS = (
    st.sampled_from(_OPTIONS + ["-h", "--help", "--", "bogus"])
    | st.builds(lambda o, n: o[: max(2, len(o) - n)], st.sampled_from(_OPTIONS), st.integers(1, 4))
    | st.builds(lambda o, v: f"{o}={v}", st.sampled_from(_OPTIONS), _VALUES)
    | _VALUES
)


@st.composite
def _argvs(draw):
    """A command, mostly its required options and some others, in any
    order with values of any kind, and now and then any token at all."""
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["bogus", "-h", "--help"]))
    options = _COMMANDS.get(command, {})
    chosen = [o for o, a in sorted(options.items()) if draw(st.floats(0, 1)) < (0.9 if a.required else 0.4)]
    argv = [command]
    for option in draw(st.permutations(chosen)):
        argv.append(option)
        if options[option].nargs != 0:
            argv.append(draw(_VALUES))
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(1, len(argv))), draw(_TOKENS))
    return argv


@settings(max_examples=600, deadline=None)
@given(_argvs() | st.lists(_TOKENS, max_size=6).map(lambda rest: ["classify", *rest]))
def test_fast_args_agree_with_argparse(argv):
    """Where the one-pass reader answers, argparse parses the same argv
    without exiting and returns an equal namespace."""
    fast = cli._fast_args(argv)
    if fast is not None:
        assert _parse_or_exit(argv) == fast


_QUERY_TAIL = ["--ring", "prod(Zn(2),Zn(4))", "--tau", "regcap(comax)", "--element", "[1,2]", "--cap", "6"]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", *_QUERY_TAIL],
        ["factorizations", *_QUERY_TAIL],
        ["ufact", *_QUERY_TAIL],
        ["factorizations", "--ring", "Z", "--tau", "full", "--element", "-54", "--cap", "-6", "--beta", "strong"],
        ["classify", "--pretty", "--element", "-54", "--tau", "full", "--ring", "Z"],
        ["properties", "--ring", "Z", "--tau", "full", "--scope", "[2,3]"],
        ["verify", "--corpus", "F", "--jobs", "2", "--out", "F"],
        ["catalog", "--pretty", "--out", "F"],
    ],
)
def test_fast_args_take_well_formed_requests(argv):
    fast = cli._fast_args(argv)
    assert fast is not None and fast == _parse_or_exit(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["factorizations", "--ring", "Z", "--tau", "full", "--element", "2", "--beta", "bogus"],
        ["classify", "--ring", "Z", "--tau", "full", "--element", "2", "--cap", "six"],
        ["verify", "--jobs", "1.5"],
        ["classify", "--ri", "Z", "--tau", "full", "--element", "2"],
        ["classify", "--ring", "Z", "--tau", "full", "--element", "2", "--cap=6"],
        ["classify", "--ring", "Z", "--ring", "Z", "--tau", "full", "--element", "2"],
        ["classify", "--ring", "Z", "--tau", "full", "--element", "-1e5"],
        ["classify", "--ring", "Z", "--tau", "full", "--element", "2", "-h"],
        ["classify", "--ring", "Z", "--tau", "full", "--", "--element", "2"],
        ["classify", "--ring", "Z", "--tau", "full"],
        ["catalog"],
        ["--help"],
        [],
    ],
)
def test_fast_args_leave_the_rest_to_argparse(argv):
    assert cli._fast_args(argv) is None


def _main_output(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def test_module_entry_point():
    """``python -m taufact.cli`` reads ``sys.argv``: help exits 0, a usage
    error exits 1 with argparse's usage, and argv outside the one-pass form
    (abbreviations, ``--opt=value``) still parse."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "taufact.cli", *argv], env=env, capture_output=True, text=True, timeout=120
        )

    done = run("--help")
    assert done.returncode == 0 and "usage:" in done.stdout
    done = run("classify", "--ring", "Zn(6)")
    assert done.returncode == 1 and "usage:" in done.stderr and "error:" in done.stderr
    done = run("classify", "--ri", "Zn(6)", "--tau", "full", "--element", "2", "--cap=6")
    assert done.returncode == 0, done.stderr
    assert done.stdout == _main_output("classify", "--ring", "Zn(6)", "--tau", "full", "--element", "2", "--cap", "6")
    done = run("factorizations", "--ring", "Z", "--tau", "full", "--element", "-54")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["items"]


@pytest.mark.parametrize(
    "corpus, message",
    [
        ([], "JSON object"),
        ({"schema": 1, "taus": ["full"]}, "rings"),
        ({"schema": 1, "rings": ["Zn(6)", 6]}, "rings"),
        ({"schema": 1, "rings": ["Zn(6)"], "scopes": []}, "scopes"),
        ({"schema": 1, "rings": ["Zn(6)"], "cap": "6"}, "cap"),
        ({"schema": 1, "rings": ["Zn(6)"], "budget": None}, "budget"),
        ({"schema": 1, "rings": ["Zn(6)"], "taus": "full"}, "taus"),
        ({"schema": 1, "rings": ["Zn(6)"], "scopes": {"Zn(6)": 2}}, "scope for Zn(6)"),
        ({"schema": 1, "rings": ["Zn(6)"], "scopes": {"Zn(6)": [7]}}, "scope for Zn(6)"),
        ({"schema": 1, "rings": ["Z"], "scopes": {"Z": [2, [3]]}}, "scope for Z"),
        ({"schema": 1, "rings": ["Z"], "scopes": {"Z": [2, True]}}, "scope for Z"),
        ({"schema": 1, "rings": ["Zn(6)"], "scopes": {"Zn(6)": [True]}}, "scope for Zn(6)"),
    ],
)
def test_malformed_corpus_is_a_usage_error(tmp_path, capsys, corpus, message):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    for command in ("verify", "catalog"):
        code, _, err = run_cli(capsys, command, "--corpus", str(path), "--out", str(tmp_path / "out.json"))
        assert code == 1 and err.startswith("error:") and message in err


@pytest.mark.parametrize("scope", ["[[1]]", "{}", "[7]", '"2"', "2"])
def test_malformed_properties_scope_is_a_usage_error(capsys, scope):
    code, _, err = run_cli(capsys, "properties", "--ring", "Zn(6)", "--tau", "full", "--scope", scope)
    assert code == 1 and err.startswith("error:") and "--scope" in err


@pytest.mark.parametrize(
    "ring, scope",
    [("prod(Z,Z)", "[[true,2],[2,3]]"), ("GFq(2,[1,1,1])", "[[true,0]]"), ("Z", "[2,false]")],
)
def test_json_booleans_are_not_elements(capsys, ring, scope):
    """A JSON boolean is no ring element, though Python's ``bool`` is an
    ``int``: the scope is refused, not read as 1 or 0."""
    code, out, err = run_cli(capsys, "properties", "--ring", ring, "--tau", "full", "--scope", scope)
    assert (code, out) == (1, "") and err.startswith("error:") and "--scope" in err


def test_properties_cap_as_given(capsys):
    """``--cap`` is taken as given, 0 included; without it the cells report
    the default cap."""
    def caps(*argv):
        code, out, _ = run_cli(capsys, "properties", "--ring", "Zn(6)", "--tau", "full", *argv)
        assert code == 0
        payload = json.loads(out)
        return [v.get("cap") for v in payload["properties"]] + [payload["elasticity"].get("cap")]

    assert set(caps()) == {6}
    assert 0 in caps("--cap", "0") and 6 not in caps("--cap", "0")
    assert set(caps("--cap", "3")) == {3}


def test_properties_caps_on_an_infinite_ring(capsys):
    """On Z a cell records the largest cap its enumerations ran at: the
    per-element default cap, 10 for 512 = 2^9 with its nine divisor
    classes.  ACCP reads divisor chains only, and an empty scope reads
    nothing, so those cells record the given cap."""
    def run(scope):
        code, out, _ = run_cli(capsys, "properties", "--ring", "Z", "--tau", "full", "--scope", scope)
        assert code == 0
        payload = json.loads(out)
        return {v["property"]: v for v in payload["properties"]}, payload["elasticity"]

    cells, elas = run("[512]")
    assert (cells["bfr/plain"]["bound"], cells["bfr/plain"]["cap"]) == (9, 10)
    assert {v["cap"] for k, v in cells.items() if not k.startswith("accp/")} == {10}
    assert {v["cap"] for k, v in cells.items() if k.startswith("accp/")} == {6}
    assert elas["cap"] == 10
    cells, elas = run("[1,-1]")
    assert {v["cap"] for v in cells.values()} == {6} and elas["cap"] == 6


def test_capped_search_claims_nothing(capsys):
    """At ``--cap 2`` the search for 8 under ``subset[2]`` stops at 2*2,
    which could still grow into 2*2*2: the listing is not exhaustive and no
    flag is decided true.  At cap 3 the factorization appears and every
    flag is false."""
    def run(command, cap):
        argv = (command, "--ring", "Z", "--tau", "subset[2]", "--element", "8", "--cap", str(cap))
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        return json.loads(out)

    fs = run("factorizations", 2)
    assert (fs["complete"], fs["unbounded"]) == (False, "unknown")
    assert "true" not in run("classify", 2)["flags"].values()
    fs = run("factorizations", 3)
    assert [item["factors"] for item in fs["items"]] == [[8], [2, 2, 2]]
    assert set(run("classify", 3)["flags"].values()) == {"false"}


def test_verify_tiny_corpus(tmp_path, capsys):
    corpus = {
        "schema": 1,
        "rings": ["Zn(6)", "Zn(8)"],
        "taus": ["full", "zero", "regcap(full)"],
        "scopes": {},
        "cap": 5,
        "budget": 1000,
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["violated"] == 0
    assert report["summary"]["verified"] > 0


def test_verify_deterministic_and_parallel_equal(tmp_path, capsys, monkeypatch):
    # Z is scoped and infinite; Zn(6) is listed twice and comax named twice,
    # so units merge entries that are not next to each other in the corpus
    real_build = cli.build_ring_from_text
    built, contexts = [], []

    def build_ring(text):
        ring = real_build(text)
        built.append(weakref.ref(ring))
        return ring

    class Context(theorems.Evaluator):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(weakref.ref(self))

    monkeypatch.setattr(cli, "build_ring_from_text", build_ring)
    monkeypatch.setattr(theorems, "Evaluator", Context)
    corpus = {
        "schema": 1,
        "rings": ["Zn(6)", "Zn(9)", "prod(Zn(2),Zn(3))", "Z", "Zn(6)"],
        "taus": ["full", "comax", "regcap(full)", "regular", "comax"],
        "scopes": {"Z": [2, -3, 4, 6, 12, -30]},
        "cap": 4,
        "budget": 1000,
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    outs = []
    for jobs in ("1", "2", "1"):
        code, out, _ = run_cli(capsys, "verify", "--corpus", str(path), "--jobs", jobs)
        assert code == 0
        assert cli._ring_slot == []
        outs.append(out)
    # the in-process runs leave no ring or relation context behind once
    # the slot is emptied
    gc.collect()
    assert built and all(ref() is None for ref in built)
    assert contexts and all(ref() is None for ref in contexts)
    assert outs[0] == outs[1] == outs[2]
    entries = json.loads(outs[0])["entries"]
    assert any(r["ring"] == "Z" and r["scoped"] for r in entries)
    blocks = [key for key, _ in itertools.groupby((r["ring"], r["tau"]) for r in entries)]
    assert blocks == [(ring, tau) for ring in corpus["rings"] for tau in corpus["taus"]]
    # a repeated ring or relation reports the same rows at each place
    by_block = {}
    for key, rows in itertools.groupby(entries, key=lambda r: (r["ring"], r["tau"])):
        by_block.setdefault(key, []).append(list(rows))
    assert by_block[("Zn(6)", "comax")][0] == by_block[("Zn(6)", "comax")][-1]
    assert len(by_block[("Zn(6)", "comax")]) == 4


def _seeded_entries(seed):
    """Ring-major corpus entries on a few finite and scoped infinite rings
    (a ring may come back later in the list), each with a seeded draw of
    default, doubly restricted, subset and restricted subset relations."""
    rng = random.Random(seed)
    rings = rng.sample(["Zn(4)", "Zn(6)", "prod(Zn(2),Zn(3))", "GFq(2,[1,1,1])", "Z", "prod(Z,Z)"], 3)
    rings.append(rng.choice(rings))
    entries = []
    for ring_str in rings:
        ring = build_ring_from_text(ring_str)
        if ring.is_finite:
            scope, sharp = None, ring.nonzero_nonunits()
        else:
            scope = [6, -4, 9, 12] if ring_str == "Z" else [(2, 3), (4, -6), (9, 1), (2, 0), (0, 3)]
            sharp = scope
        specs = [parse_tau_spec(t, ring) for t in DEFAULT_TAUS]
        specs += [RegCapTau(s) for s in specs]
        if sharp:
            subset = SubsetTau(tuple(rng.sample(sharp, min(2, len(sharp)))))
            specs += [subset, RegCapTau(subset)]
        for spec in rng.sample(specs, rng.randint(2, 6)):
            tau = build_tau(spec, ring)
            entries.append(CorpusEntry(ring_str, tau.spec_string(), scope, ring, tau))
    return entries


def _overlap_components(entries):
    """The connected groups of entries of one ring whose plain or restricted
    context specs overlap, in order of their first entry."""
    specs = [{context_spec(ce.tau), context_spec(ce.tau.regcap())} for ce in entries]
    seen, units = set(), []
    for i in range(len(entries)):
        if i in seen:
            continue
        unit, todo = {i}, [i]
        while todo:
            j = todo.pop()
            for k, ce in enumerate(entries):
                if k not in unit and ce.ring_str == entries[j].ring_str and specs[j] & specs[k]:
                    unit.add(k)
                    todo.append(k)
        seen |= unit
        units.append(sorted(unit))
    return units


def test_pool_units_are_the_overlap_components():
    """Keying pool units by the restricted context spec gives the connected
    groups of overlapping entries; keying them by the plain spec would not."""
    plain_keyed_differs = False
    for seed in range(40):
        entries = _seeded_entries(seed)
        want = _overlap_components(entries)
        assert cli._pool_units(entries) == want, seed
        by_plain: dict = {}
        for i, ce in enumerate(entries):
            by_plain.setdefault((ce.ring_str, context_spec(ce.tau)), []).append(i)
        plain_keyed_differs |= list(by_plain.values()) != want
    assert plain_keyed_differs


def test_catalog_roundtrip(tmp_path, capsys):
    corpus = {
        "schema": 1,
        "rings": ["Zn(6)"],
        "taus": ["full"],
        "scopes": {},
        "cap": 5,
        "budget": 100,
    }
    cpath = tmp_path / "corpus.json"
    cpath.write_text(json.dumps(corpus))
    apath = tmp_path / "atlas.json"
    code, out, _ = run_cli(capsys, "catalog", "--corpus", str(cpath), "--out", str(apath))
    assert code == 0
    atlas = json.loads(apath.read_text())
    assert atlas["schema"] == 1
    entry = atlas["entries"][0]
    assert entry["ring"] == "Zn(6)" and entry["tau"] == "full"
    assert any(e["element"] == 2 for e in entry["elements"])
    # regenerating produces identical bytes
    apath2 = tmp_path / "atlas2.json"
    run_cli(capsys, "catalog", "--corpus", str(cpath), "--out", str(apath2))
    assert apath.read_text() == apath2.read_text()


def test_corpus_budget_enforced(tmp_path, capsys):
    corpus = {
        "schema": 1,
        "rings": ["Zn(24)"],
        "taus": ["full"],
        "scopes": {},
        "cap": 5,
        "budget": 10,
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code, _, err = run_cli(capsys, "verify", "--corpus", str(path))
    assert code == 1 and "budget" in err


def test_corpus_zero_scope_rejected(tmp_path, capsys):
    corpus = {
        "schema": 1,
        "rings": ["Z"],
        "taus": ["full"],
        "scopes": {"Z": [0, 2, 3]},
        "cap": 5,
        "budget": 1000,
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code, _, err = run_cli(capsys, "verify", "--corpus", str(path))
    assert code == 1 and "0" in err


def test_finite_partial_scope_rows_are_scoped(capsys):
    """On a finite ring a scope short of the non-units flags every verify
    row scoped, as it flags the ``properties`` verdicts over that scope."""
    corpus = {"schema": 1, "rings": ["Zn(12)"], "taus": ["full"], "scopes": {"Zn(12)": [2, 3]}}
    rows = cli.run_verification(corpus)["entries"]
    assert rows and all(r["scoped"] for r in rows)
    code, out, _ = run_cli(capsys, "properties", "--ring", "Zn(12)", "--tau", "full", "--scope", "[2,3]")
    assert code == 0
    assert all(v["scoped"] for v in json.loads(out)["properties"])


def test_catalog_partial_scope_entry_is_scoped(tmp_path, capsys):
    """A finite ring with a scope short of its non-units gives an atlas entry
    that says ``scoped``, as its property verdicts and elasticity do, and
    lists the scope's non-units only."""
    corpus = {"schema": 1, "rings": ["Zn(12)"], "taus": ["full"], "scopes": {"Zn(12)": [2, 3]}}
    cpath = tmp_path / "corpus.json"
    cpath.write_text(json.dumps(corpus))
    apath = tmp_path / "atlas.json"
    assert run_cli(capsys, "catalog", "--corpus", str(cpath), "--out", str(apath))[0] == 0
    (entry,) = json.loads(apath.read_text())["entries"]
    assert entry["scoped"] is True
    assert all(v["scoped"] for v in entry["properties"] if "scoped" in v)
    assert entry["elasticity"]["scoped"] is True
    assert [e["element"] for e in entry["elements"]] == [2, 3]


_json_strings = st.text(st.characters(), max_size=8) | st.sampled_from(["", "\x00\x1f\x7f", "\u2028é😀", '"\\/'])
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | _json_strings
)
_json_keys = _json_strings | st.integers() | st.floats() | st.booleans() | st.none()
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers(), max_size=4)
    | st.dictionaries(_json_keys, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_writer_matches_json_dumps_indent2(obj):
    assert cli.dumps_indent2(obj) == json.dumps(obj, indent=2)


def test_writer_matches_json_dumps_on_subclasses():
    class Text(str):
        pass

    class Items(list):
        pass

    class Table(dict):
        pass

    obj = Table(
        {Text("k"): Items([AssociateKind.STRONG, Text("v"), 1.5, Items([2, 3])]), AssociateKind.ASSOCIATE: (True, None)}
    )
    assert cli.dumps_indent2(obj) == json.dumps(obj, indent=2)


def test_writer_rejects_what_json_rejects():
    for bad in (object(), {1, 2}, b"x", complex(1, 2), [1, {"a": {3}}], {(1, 2): 3}, {"k": [object()]}):
        with pytest.raises(TypeError) as want:
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError) as got:
            cli.dumps_indent2(bad)
        assert str(got.value) == str(want.value)


def test_every_emit_site_writes_stdlib_indent2_bytes(tmp_path, capsys):
    """Each command's JSON text is what ``json.dumps(..., indent=2)`` writes
    for the same data."""

    def same_as_stdlib(text):
        assert text.endswith("\n")
        text = text[:-1]
        assert text == json.dumps(json.loads(text), indent=2)

    requests = [
        ("classify", "--ring", "prod(Zn(2),Zn(4))", "--tau", "full", "--element", "[1,2]"),
        ("ufact", "--ring", "Zn(12)", "--tau", "comax", "--element", "6"),
        ("ufact", "--ring", "prod(Z,Z)", "--tau", "full", "--element", "[6,4]", "--cap", "4"),
        ("properties", "--ring", "Zn(6)", "--tau", "zero"),
        ("properties", "--ring", "Z", "--tau", "full", "--scope", "[4,-6]"),
    ]
    for beta in sorted(cli.BETA_NAMES):
        requests.append(("factorizations", "--ring", "Zn(6)", "--tau", "full", "--element", "3", "--beta", beta))
        requests.append(
            ("factorizations", "--ring", "prod(Zn(2),Zn(3))", "--tau", "full", "--element", "[0,0]", "--beta", beta)
        )
    for argv in requests:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        same_as_stdlib(out)
    corpus = {"schema": 1, "rings": ["Zn(4)", "Z"], "taus": ["full", "comax"], "scopes": {"Z": [6, -4]}}
    cpath = tmp_path / "corpus.json"
    cpath.write_text(json.dumps(corpus))
    report = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(cpath), "--out", str(report))
    assert code == 0
    same_as_stdlib(out)
    same_as_stdlib(report.read_text())
    atlas = tmp_path / "atlas.json"
    assert run_cli(capsys, "catalog", "--corpus", str(cpath), "--out", str(atlas))[0] == 0
    same_as_stdlib(atlas.read_text())


def test_default_corpus_metadata():
    entries, meta = generate_corpus(default_corpus_spec())
    # 23 modular rings + 25 products + 2 quotients + Z + ZxZ + the one field
    # square not already in the product grid (7x7)
    assert meta["rings"] == 53
    assert meta["taus"] == 7
    assert meta["entries"] == 53 * 7
    # on finite rings the regular-pair relations collapse to the empty one
    assert any(
        set(g) >= {"empty", "regular"}
        for groups in meta["extensionally_equal_taus"].values()
        for g in groups
    )


def test_strict_exit_code_on_skips(tmp_path, capsys):
    # axis samples under the full relation cannot be enumerated, so some
    # checks are skipped; --strict turns that into exit code 3
    corpus = {
        "schema": 1,
        "rings": ["prod(Z,Z)"],
        "taus": ["full"],
        "scopes": {"prod(Z,Z)": [[2, 3], [2, 0]]},
        "cap": 5,
        "budget": 1000,
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(path), "--strict")
    assert code == 3


def test_empty_corpus_is_valid():
    entries, meta = generate_corpus(
        {"schema": 1, "rings": [], "taus": ["full"], "scopes": {}, "cap": 5, "budget": 10}
    )
    assert entries == [] and meta["entries"] == 0


def _direct_atlas(corpus):
    """Each catalog entry on its own: a fresh ring, a fresh evaluator on the
    entry's relation and one on its restriction, over the corpus scope as
    written, with no context spec applied.  The entry's cap is the largest
    its flags and verdicts read: an infinite ring's elements enumerate at
    the per-element default cap."""
    entries, meta = generate_corpus(corpus)
    cap = meta["cap"]
    out = []
    for ce in entries:
        ring = build_ring_from_text(ce.ring_str)
        tau = build_tau_from_text(ce.tau_str, ring)
        domain, scoped = _resolve_domain(ring, ce.scope)
        elements = []
        read = []
        for a in domain:
            row = {"element": ring.element_to_json(a), "class": ring.classify(a).value}
            try:
                row["flags"] = {k.value: v.value for k, v in classify(ring, tau, a, cap=cap).flags.items()}
                read.append(cap if ring.is_finite else default_cap(ring, tau, a))
            except UnsupportedOperationError as exc:
                row.update(flags="unsupported", note=str(exc))
            elements.append(row)
        props, elas = cli._property_vector(
            Evaluator(ring, tau, cap, ce.scope), Evaluator(ring, tau.regcap(), cap, ce.scope)
        )
        read += [v["cap"] for v in props if "cap" in v]
        out.append(
            {
                "ring": ce.ring_str,
                "tau": ce.tau_str,
                "cap": max(read, default=cap),
                "scoped": scoped,
                "elements": elements,
                "properties": props,
                "elasticity": elas,
            }
        )
    return out


def _shared_atlas(corpus):
    return cli._run_corpus(corpus, None, 1, cli._catalog_group)[2]


def _finite_catalog_corpora():
    """One corpus per small finite ring: the default relations, a subset of
    two non-units, its restriction, and a doubled restriction."""
    for ring in small_finite_rings():
        taus = list(DEFAULT_TAUS) + ["regcap(regcap(comax))", "regcap(regcap(full))"]
        sharp = ring.nonzero_nonunits()
        if sharp:
            subset = format_tau_spec(SubsetTau(tuple(sharp[:2])), ring)
            taus += [subset, f"regcap({subset})"]
        yield {"schema": 1, "rings": [ring.spec_string()], "taus": taus, "cap": 5}


def _scoped_catalog_corpus():
    zz = [[a, b] for a in range(-4, 5) for b in range(-4, 5) if a and b]
    zz += [[a, 0] for a in range(1, 4)] + [[0, b] for b in range(1, 4)]
    return {
        "schema": 1,
        "rings": ["Z", "prod(Z,Z)"],
        "taus": list(DEFAULT_TAUS) + ["regcap(regcap(comax))", "regcap(empty)"],
        "scopes": {"Z": [a for a in range(-20, 21) if abs(a) > 1], "prod(Z,Z)": zz},
        "cap": 5,
    }


def test_catalog_shared_evaluators_match_direct_entries():
    """Atlas entries read from evaluators shared by context key, and copied
    between entries with one context key, equal entries built per entry
    with their own evaluator pair, also on a ring of each shape of class
    the finite key joins; there, with the relations in reverse order, each
    (ring, tau) gets the same entry."""
    for corpus in list(_finite_catalog_corpora()) + [_scoped_catalog_corpus()]:
        assert _shared_atlas(corpus) == _direct_atlas(corpus), corpus["rings"]
    for corpus in class_shape_corpora():
        shared = _shared_atlas(corpus)
        assert shared == _direct_atlas(corpus), corpus["rings"]
        backwards = _shared_atlas({**corpus, "taus": corpus["taus"][::-1]})
        assert backwards == shared[::-1], corpus["rings"]


@pytest.mark.parametrize(
    "corpus",
    [
        {"schema": 1, "rings": ["Zn(6)"], "taus": ["comax", "regcap(comax)"], "cap": 5},
        {**_scoped_catalog_corpus(), "rings": ["prod(Z,Z)"], "taus": ["comax"]},
    ],
    ids=["finite", "scoped"],
)
def test_catalog_sees_a_wrong_context_spec(corpus, monkeypatch):
    """A context key that sends ``regcap(comax)`` to the key of ``comax``
    makes the shared atlas differ from the direct one."""
    direct = _direct_atlas(corpus)
    assert _shared_atlas(corpus) == direct
    real = theorems.context_spec

    def wrong(tau):
        if normal_spec(tau.spec) == RegCapTau(ComaximalTau()):
            return real(build_tau(ComaximalTau(), tau.ring))
        return real(tau)

    monkeypatch.setattr(theorems, "context_spec", wrong)
    assert _shared_atlas(corpus) != direct


def test_catalog_flags_are_the_evaluators(tmp_path, capsys):
    """Catalog element flags are the entry evaluator's profiles: on an
    infinite ring they are taken at the per-element default cap, where a
    corpus cap of 2 would leave 8 under ``subset[2]`` undecided."""
    corpus = {"schema": 1, "rings": ["Z"], "taus": ["subset[2]"], "scopes": {"Z": [8]}, "cap": 2}
    (entry,) = _shared_atlas(corpus)
    ring = build_ring_from_text("Z")
    ev = Evaluator(ring, build_tau_from_text("subset[2]", ring), 2, [8])
    want = {k.value: v.value for k, v in ev.profile(8).flags.items()}
    assert [row["flags"] for row in entry["elements"]] == [want]
    assert set(want.values()) == {"false"}


_SLOT_CORPUS = {
    "schema": 1,
    "rings": ["Zn(6)", "Z", "prod(Zn(2),Zn(3))", "Zn(6)"],
    "taus": ["full", "comax", "regcap(full)", "regular"],
    "scopes": {"Z": [2, -3, 4, 6, 12, -30]},
    "cap": 4,
}


def test_catalog_leaves_no_evaluator_behind(tmp_path, capsys, monkeypatch):
    made = []

    class Context(theorems.Evaluator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(theorems, "Evaluator", Context)
    cpath = tmp_path / "corpus.json"
    cpath.write_text(json.dumps(_SLOT_CORPUS))
    assert run_cli(capsys, "catalog", "--corpus", str(cpath), "--out", str(tmp_path / "atlas.json"))[0] == 0
    assert cli._ring_slot == []
    gc.collect()
    assert made and all(ref() is None for ref in made)


def test_verify_then_catalog_in_one_process_match_separate_runs(tmp_path, capsys):
    """The ring slot carries nothing from a verify run into a catalog run in
    the same process: each writes the bytes it writes in a process of its
    own."""
    cpath = tmp_path / "corpus.json"
    cpath.write_text(json.dumps(_SLOT_CORPUS))
    argvs = {
        "verify": ["verify", "--corpus", str(cpath), "--out"],
        "catalog": ["catalog", "--corpus", str(cpath), "--out"],
    }
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    alone, together = {}, {}
    for name, argv in argvs.items():
        out = tmp_path / f"{name}-alone.json"
        done = subprocess.run(
            [sys.executable, "-m", "taufact.cli", *argv, str(out)], env=env, capture_output=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        alone[name] = out.read_bytes()
    for name, argv in argvs.items():
        out = tmp_path / f"{name}-together.json"
        assert run_cli(capsys, *argv, str(out))[0] == 0
        together[name] = out.read_bytes()
    assert together == alone


def test_one_corpus_driver():
    """``generate_corpus``, ``_pool_units`` and ``ProcessPoolExecutor`` are
    each called from one function of ``cli``: verify and catalog share one
    corpus driver."""
    tree = ast.parse(Path(cli.__file__).read_text())
    callers: dict = {}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callers.setdefault(node.func.id, set()).add(fn.name)
    for name in ("generate_corpus", "_pool_units", "ProcessPoolExecutor"):
        assert callers.get(name) == {"_run_corpus"}, name
