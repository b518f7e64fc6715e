"""Command-line surface: classification, factorization listings, splits,
ring properties, theorem verification over corpora, and atlas generation.

All commands print JSON on stdout (--pretty renders a readable view
instead); exit status is 0 on success, 1 on usage or parse errors, 2 when
verification finds a violated law, 3 under --strict when any check was
skipped at cap.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

# Only what ``main`` and the element queries need is imported here; each
# other command imports its engine when it runs (README, "Design notes").
from .corpus import CorpusError, default_corpus_spec, generate_corpus
from .factor import PreconditionError, enumerate_factorizations
from .parsing import ParseError, build_ring_from_text, build_tau_from_text, parse_element
from .relations import RegCapTau, TauConstructionError, normal_spec
from .rings import AssociateKind, RingConstructionError, UnsupportedOperationError

if TYPE_CHECKING:
    from .properties import Evaluator

BETA_NAMES = {
    "associate": AssociateKind.ASSOCIATE,
    "strong": AssociateKind.STRONG,
    "verystrong": AssociateKind.VERY_STRONG,
}


class _Parser(argparse.ArgumentParser):
    """``commands`` maps each command name to its options: each option
    string to the ``Action`` that the command's ``add_argument`` returned."""

    commands: dict

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on first use and shared by every ``main`` call in
    the process: building it costs about 20 times a parse, and parsing
    leaves it unchanged."""
    p = _Parser(prog="taufact", description=__doc__.splitlines()[0])
    p.commands = {}
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help):
        """``add_argument`` of a new command, recording each option."""
        sp = sub.add_parser(name, help=help)
        options = p.commands[name] = {}

        def add(*args, **kwargs):
            action = sp.add_argument(*args, **kwargs)
            options.update(dict.fromkeys(action.option_strings, action))

        return add

    def common(add, element=True):
        add("--ring", required=True, help="ring spec, e.g. Zn(6), Z, prod(Zn(3),Zn(3))")
        add("--tau", required=True, help="relation spec, e.g. full, zero, regcap(full)")
        if element:
            add("--element", required=True, help="element literal matching the ring shape")
        add("--cap", type=int, default=None, help="factorization length cap")
        add("--pretty", action="store_true")

    common(command("classify", "irreducibility profile of one element"))
    add = command("factorizations", "factorization classes of one element")
    common(add)
    add("--beta", choices=sorted(BETA_NAMES), default="associate")
    common(command("ufact", "essential/inessential splits of one element"))
    add = command("properties", "ring-level property vector")
    common(add, element=False)
    add("--scope", default=None, help="JSON array of elements (infinite rings)")
    add = command("verify", "run the theorem harness over a corpus")
    add("--corpus", default="default", help='"default" or a corpus JSON file')
    add("--jobs", type=int, default=1)
    add("--cap", type=int, default=None)
    add("--strict", action="store_true")
    add("--pretty", action="store_true")
    add("--out", default=None, help="write the report to a file as well")
    add = command("catalog", "emit a per-(ring, relation) atlas")
    add("--corpus", default="default")
    add("--out", required=True)
    add("--cap", type=int, default=None)
    add("--pretty", action="store_true")
    return p


def _fast_args(argv):
    """The namespace ``_build_parser().parse_args(argv)`` returns, read in
    one pass over the command's options, or None when ``argv`` is not of
    the one form read here.

    That form is a command name, then distinct options spelled in full
    (``-h`` is none of them), each store option followed by a value that
    passes the option's ``type`` and ``choices`` and does not start with
    ``-`` unless it is a negative integer (argparse reads that as a value,
    since no option looks like a negative number).  Every required option
    is given.  argparse parses every other argv and reports every usage
    error: abbreviations, ``--opt=value``, ``--``, repeats, help.
    """
    options = _build_parser().commands.get(argv[0]) if argv else None
    if options is None:
        return None
    values: dict = {}
    i = 1
    while i < len(argv):
        action = options.get(argv[i])
        if action is None or action.dest in values:
            return None
        if action.nargs == 0:  # store_true
            values[action.dest] = action.const
            i += 1
            continue
        if i + 1 == len(argv):
            return None
        text = argv[i + 1]
        if text.startswith("-") and not text[1:].isdecimal():
            return None
        try:
            value = text if action.type is None else action.type(text)
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        i += 2
    actions = options.values()
    if any(a.required and a.dest not in values for a in actions):
        return None
    return argparse.Namespace(command=argv[0], **{a.dest: values.get(a.dest, a.default) for a in actions})


_INFINITY = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(k) -> str:
    if isinstance(k, str):
        return _quote(k)
    if isinstance(k, float):
        return '"' + _float_text(k) + '"'
    if k is True:
        return '"true"'
    if k is False:
        return '"false"'
    if k is None:
        return '"null"'
    if isinstance(k, int):
        return '"' + int.__repr__(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")


def _array_text(obj, newline: str) -> str:
    if not obj:
        return "[]"
    inner = newline + "  "
    if all(type(x) is int for x in obj):
        items = map(int.__repr__, obj)
    else:
        items = [_json_text(x, inner) for x in obj]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _object_text(obj, newline: str) -> str:
    if not obj:
        return "{}"
    inner = newline + "  "
    items = [_key_text(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def _json_text(obj, newline: str) -> str:
    """The text of ``obj`` nested at the indent that ``newline`` ends in."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    if t is list or t is tuple:
        return _array_text(obj, newline)
    if t is dict:
        return _object_text(obj, newline)
    # the rest in the order of json's pure-Python encoder, so that an
    # instance of a subclass takes the branch it takes there
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, (list, tuple)):
        return _array_text(obj, newline)
    if isinstance(obj, dict):
        return _object_text(obj, newline)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def dumps_indent2(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.

    An ``indent`` sends ``json.dumps`` to its pure-Python encoder.  This
    writer quotes strings with the C ``encode_basestring_ascii`` and joins a
    list of plain ints in one step, which nearly halves the time to encode
    the CLI's responses.  Like ``json`` it raises ``TypeError`` on an object
    it cannot encode; unlike it, it does not look for cycles.
    """
    return _json_text(obj, "\n")


def _emit(payload, pretty: bool, pretty_render=None):
    if pretty and pretty_render is not None:
        print(pretty_render(payload))
    else:
        print(dumps_indent2(payload))


def _load_inputs(args, element=True):
    ring = build_ring_from_text(args.ring)
    tau = build_tau_from_text(args.tau, ring)
    el = parse_element(args.element, ring) if element else None
    return ring, tau, el


def cmd_classify(args) -> int:
    from .irreducibles import classify

    ring, tau, el = _load_inputs(args)
    profile = classify(ring, tau, el, cap=args.cap)
    payload = {"schema": 1, "ring": args.ring, "tau": tau.spec_string()}
    payload.update(profile.to_json(ring))

    def render(p):
        lines = [f"element {json.dumps(p['element'])} under {p['tau']} on {p['ring']}:"]
        for kind, flag in p["flags"].items():
            lines.append(f"  {kind:32s} {flag}")
        return "\n".join(lines)

    _emit(payload, args.pretty, render)
    return 0


def cmd_factorizations(args) -> int:
    ring, tau, el = _load_inputs(args)
    fs = enumerate_factorizations(ring, tau, el, BETA_NAMES[args.beta], cap=args.cap)
    payload = {"schema": 1, "ring": args.ring, "tau": tau.spec_string(), "beta": args.beta}
    payload.update(fs.to_json())

    def render(p):
        lines = [
            f"{len(p['items'])} classes (cap {p['cap']}, complete {p['complete']}, unbounded {p['unbounded']}):"
        ]
        for item in p["items"]:
            facs = " * ".join(json.dumps(x) for x in item["factors"])
            lines.append(f"  {json.dumps(item['target'])} = {json.dumps(item['unit'])} * {facs}")
        return "\n".join(lines)

    _emit(payload, args.pretty, render)
    return 0


def cmd_ufact(args) -> int:
    from .ufact import u_partitions

    ring, tau, el = _load_inputs(args)
    fs = enumerate_factorizations(ring, tau, el, cap=args.cap)
    splits = []
    for f in fs.items:
        for u in u_partitions(ring, f):
            splits.append(u.to_json())
    payload = {
        "schema": 1,
        "ring": args.ring,
        "tau": tau.spec_string(),
        "element": ring.element_to_json(el),
        "cap": fs.cap,
        "splits": splits,
    }

    def render(p):
        lines = [f"{len(p['splits'])} splits:"]
        for s in p["splits"]:
            ines = " * ".join(json.dumps(x) for x in s["inessential"]) or "(none)"
            ess = " * ".join(json.dumps(x) for x in s["essential"])
            lines.append(f"  unit {json.dumps(s['unit'])} | inessential {ines} | essential <{ess}>")
        return "\n".join(lines)

    _emit(payload, args.pretty, render)
    return 0


def _property_vector(plain: Evaluator, restricted: Evaluator):
    """The property cells of a relation, read from its evaluator and its
    restriction's, and its elasticity."""
    from .properties import CATALOG_PROPS, elasticity

    out = []
    for prop in CATALOG_PROPS:
        try:
            v = (restricted if prop.scope.restricted else plain).verdict(prop)
            out.append(v.to_json(plain.ring))
        except (UnsupportedOperationError, PreconditionError) as exc:
            out.append({"property": prop.label(), "outcome": "unsupported", "note": str(exc)})
    try:
        el = elasticity(plain)
        elas = el.to_json(plain.ring)
    except (UnsupportedOperationError, PreconditionError) as exc:
        elas = {"value": "unsupported", "note": str(exc)}
    return out, elas


def cmd_properties(args) -> int:
    from .properties import DEFAULT_PROPERTY_CAP, Evaluator

    ring, tau, _ = _load_inputs(args, element=False)
    scope = None
    if args.scope is not None:
        data = json.loads(args.scope)
        if not isinstance(data, list):
            raise ParseError(args.scope, 0, "--scope must be a JSON array of elements")
        try:
            scope = [ring.element_from_json(e) for e in data]
        except ValueError as exc:
            raise ParseError(args.scope, 0, f"--scope: {exc}") from None
    cap = DEFAULT_PROPERTY_CAP if args.cap is None else args.cap
    props, elas = _property_vector(Evaluator(ring, tau, cap, scope), Evaluator(ring, tau.regcap(), cap, scope))
    payload = {
        "schema": 1,
        "ring": args.ring,
        "tau": tau.spec_string(),
        "properties": props,
        "elasticity": elas,
    }

    def render(p):
        lines = [f"properties of {p['tau']} on {p['ring']}:"]
        for v in p["properties"]:
            bound = f" bound={v['bound']}" if "bound" in v else ""
            lines.append(f"  {v['property']:44s} {v['outcome']}{bound}")
        lines.append(f"  elasticity: {p['elasticity']['value']}")
        return "\n".join(lines)

    _emit(payload, args.pretty, render)
    return 0


def _load_corpus(name: str) -> dict:
    if name == "default":
        return default_corpus_spec()
    with open(name) as fh:
        return json.load(fh)


# The ring a process built last, with the evaluators of its entries keyed by
# context key: [(ring_str, scope_json, cap), ring, contexts], or empty.
_ring_slot: list = []


def _slot_unit(payload):
    """The ring, relations, scope, cap and evaluator contexts of one pool
    unit.  The ring and its contexts stay in the slot while the next unit
    names the same ring, scope and cap."""
    ring_str, tau_strs, scope_json, cap = payload
    if not _ring_slot or _ring_slot[0] != (ring_str, scope_json, cap):
        _ring_slot[:] = [(ring_str, scope_json, cap), build_ring_from_text(ring_str), {}]
    _, ring, contexts = _ring_slot
    scope = None if scope_json is None else [ring.element_from_json(e) for e in scope_json]
    return ring, [build_tau_from_text(t, ring) for t in tau_strs], scope, cap, contexts


def _verify_group(payload):
    """Worker: the theorem rows of each entry of one pool unit."""
    from .theorems import verify_corpus_entries

    return verify_corpus_entries(*_slot_unit(payload))


def _catalog_group(payload):
    """Worker: the atlas entries of one pool unit.  An atlas entry depends
    on its relation only through its evaluator and the ``tau`` label, as
    verify's rows do."""
    from .theorems import context_evaluator, per_context_spec

    ring, taus, scope, cap, contexts = _slot_unit(payload)

    evaluator = lambda spec: context_evaluator(contexts, ring, spec, scope, cap)

    def entry(tau):
        plain = evaluator(tau.spec)
        domain, scoped = plain.domain()
        elements = []
        read = []  # the caps of the enumerations the entry reads
        for a in domain:
            row = {"element": ring.element_to_json(a), "class": ring.classify(a).value}
            try:
                profile = plain.profile(a)
            except UnsupportedOperationError as exc:
                row.update(flags="unsupported", note=str(exc))
            else:
                row["flags"] = {k.value: v.value for k, v in profile.flags.items()}
                read.append(profile.cap)
            elements.append(row)
        props, elas = _property_vector(plain, evaluator(RegCapTau(tau.spec)))
        read.extend(v["cap"] for v in props if "cap" in v)
        cap_read = max(read, default=cap)
        return {"cap": cap_read, "scoped": scoped, "elements": elements, "properties": props, "elasticity": elas}

    bodies = per_context_spec(taus, evaluator, entry, lambda body, tau: body)
    return [{"ring": payload[0], "tau": t, **body} for t, body in zip(payload[1], bodies)]


def _pool_units(corpus_entries) -> list:
    """Entry indices per pool unit: the entries of one ring with one
    restricted context key (``theorems.context_spec`` of the relation's
    ``regcap``), in the order of their first entry.

    These are the connected groups of entries whose plain or restricted
    context keys overlap.  On a finite ring every restriction relates no
    pair of R#, so all entries form one unit.  On an infinite ring the
    restricted spec depends only on the plain spec, and a plain spec that
    equals another entry's restricted spec is regular-only, so it is its
    own restriction: two entries overlap iff their restricted specs match.

    The units are not independent: every entry's baseline rows also read
    the ring's ``regular`` and ``full`` evaluators, which ``_ring_slot``
    keeps per process, so every worker that runs a unit of a ring builds
    those two evaluators for itself, even where another worker has built
    them already.
    """
    units: dict = {}
    for i, ce in enumerate(corpus_entries):
        key = (ce.ring_str, None if ce.ring.is_finite else normal_spec(RegCapTau(ce.tau.spec)))
        units.setdefault(key, []).append(i)
    return list(units.values())


def _run_corpus(corpus_spec: dict, cap, jobs: int, worker):
    """The corpus metadata, the cap, and ``worker``'s result per corpus entry
    in corpus order.  ``worker`` maps one pool unit's payload to a result per
    relation; with ``jobs`` > 1 each unit is one task on a process pool."""
    corpus_entries, meta = generate_corpus(corpus_spec)
    cap = cap if cap is not None else meta["cap"]
    scopes = corpus_spec.get("scopes", {})
    units = _pool_units(corpus_entries)
    payloads = []
    for unit in units:
        ring_str = corpus_entries[unit[0]].ring_str
        tau_strs = tuple(corpus_entries[i].tau_str for i in unit)
        payloads.append((ring_str, tau_strs, scopes.get(ring_str), cap))
    try:
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            # one task per unit, handed to whichever worker is free
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(worker, payloads, chunksize=1))
        else:
            results = [worker(payload) for payload in payloads]
    finally:
        _ring_slot.clear()
    per_entry: list = [None] * len(corpus_entries)
    for unit, chunks in zip(units, results):
        for i, chunk in zip(unit, chunks):
            per_entry[i] = chunk
    return meta, cap, per_entry


def run_verification(corpus_spec: dict, cap=None, jobs: int = 1):
    # imported before the pool starts, so that forked workers inherit it
    from .theorems import summarize

    meta, cap, per_entry = _run_corpus(corpus_spec, cap, jobs, _verify_group)
    rows = [r for chunk in per_entry for r in chunk]
    return {
        "schema": 1,
        "corpus": meta,
        "cap": cap,
        "entries": rows,
        "summary": summarize(r["outcome"] for r in rows),
    }


def cmd_verify(args) -> int:
    corpus_spec = _load_corpus(args.corpus)
    report = run_verification(corpus_spec, cap=args.cap, jobs=args.jobs)
    text = dumps_indent2(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.pretty:
        s = report["summary"]
        print(
            f"entries: {len(report['entries'])}  verified: {s['verified']}  "
            f"inapplicable: {s['inapplicable']}  violated: {s['violated']}  "
            f"skipped: {s['skipped']}  informational: {s['informational']}"
        )
        for r in report["entries"]:
            if r["outcome"] == "violated":
                print(f"VIOLATED {r['ring']} {r['tau']} {r['theorem']}/{r['instance']}")
    else:
        print(text)
    if report["summary"]["violated"]:
        return 2
    if args.strict and report["summary"]["skipped"]:
        return 3
    return 0


def cmd_catalog(args) -> int:
    meta, _, atlas_entries = _run_corpus(_load_corpus(args.corpus), args.cap, 1, _catalog_group)
    atlas = {"schema": 1, "corpus": meta, "entries": atlas_entries}
    with open(args.out, "w") as fh:
        fh.write(dumps_indent2(atlas) + "\n")
    if args.pretty:
        print(f"wrote {len(atlas_entries)} atlas entries to {args.out}")
    else:
        print(json.dumps({"schema": 1, "written": args.out, "entries": len(atlas_entries)}))
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
    commands = {
        "classify": cmd_classify,
        "factorizations": cmd_factorizations,
        "ufact": cmd_ufact,
        "properties": cmd_properties,
        "verify": cmd_verify,
        "catalog": cmd_catalog,
    }
    try:
        return commands[args.command](args)
    except (
        ParseError,
        RingConstructionError,
        TauConstructionError,
        CorpusError,
        PreconditionError,
        UnsupportedOperationError,
        json.JSONDecodeError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
