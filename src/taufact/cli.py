"""Command-line surface: classification, factorization listings, splits,
ring properties, and theorem verification over corpora, which also writes
the atlas of each (ring, relation) from the same run.

All commands print JSON on stdout (--pretty renders a readable view
instead); exit status is 0 on success, 1 on usage or parse errors, 2 when
verification finds a violated law, 3 under --strict when any check was
skipped at cap.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections import OrderedDict
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

# Only what ``main`` and the element queries need is imported here; each
# other command imports its engine when it runs (README, "Design notes").
from .corpus import CorpusError, _extensional_groups, default_corpus_spec, generate_corpus
from .factor import PreconditionError, enumerate_factorizations
from .parsing import (
    ParseError,
    build_ring_from_text,
    build_tau_from_text,
    parse_element,
)
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
    add("--atlas-out", default=None, help="write the per-(ring, relation) atlas to a file")
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


# A row is a non-empty dict with str keys and values of these exact types,
# which the C encoder writes as json's pure-Python one does.
_ROW_KEYS = frozenset((str,))
_ROW_VALUES = frozenset((str, int, bool, type(None)))
_DICTS = frozenset((dict,))
_INTS = frozenset((int,))
# A shorter run of rows takes the per-value path, which is faster on it.
_MIN_ROWS = 3


def _is_row(x) -> bool:
    return (
        type(x) is dict
        and bool(x)
        and _ROW_VALUES.issuperset(map(type, x.values()))
        and _ROW_KEYS.issuperset(map(type, x))
    )


def _row_flags(obj):
    """``_is_row`` of each item.  When every item is a non-empty exact dict
    with str keys, which one C-level pass over all items tells, only the
    value types are left to test per item, by C-level maps: no Python call
    per item."""
    if (
        _DICTS.issuperset(map(type, obj))
        and all(obj)
        and _ROW_KEYS.issuperset(map(type, itertools.chain.from_iterable(obj)))
    ):
        return map(_ROW_VALUES.issuperset, map(map, itertools.repeat(type), map(dict.values, obj)))
    return map(_is_row, obj)


def _rows_text(rows, newline: str) -> str:
    """The rows' texts nested at ``newline``, joined as ``_array_text``
    joins items, from one C encoder call: its item separator carries the
    rows' inner indent, and one replace breaks the lines at the braces of
    each row boundary.  ``},<indent>{`` occurs nowhere else, since an
    encoded string holds no raw newline."""
    inner = newline + "  "
    sep = "," + inner
    text = json.JSONEncoder(separators=(sep, ": "), check_circular=False).encode(rows)
    body = text[2:-2].replace("}" + sep + "{", newline + "}," + newline + "{" + inner)
    return "{" + inner + body + newline + "}"


def _items_text(obj, inner: str, texts: dict) -> list:
    """The texts of ``obj``'s items nested at ``inner``, each run of at
    least ``_MIN_ROWS`` consecutive rows as one text (``_rows_text``)."""
    out = []
    start = 0
    for row, run in itertools.groupby(_row_flags(obj)):
        stop = start + len(list(run))
        if row and stop - start >= _MIN_ROWS:
            out.append(_rows_text(obj[start:stop], inner))
        else:
            out += [_json_text(x, inner, texts) for x in obj[start:stop]]
        start = stop
    return out


def _array_text(obj, newline: str, texts: dict) -> str:
    if not obj:
        return "[]"
    inner = newline + "  "
    if _INTS.issuperset(map(type, obj)):
        # keyed by exact ints only: True and 1.0 hash like 1
        key = (newline, *obj)
        got = texts.get(key)
        if got is None:
            got = texts[key] = "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + newline + "]"
        return got
    if len(obj) >= _MIN_ROWS and _is_row(obj[0]) and json.encoder.c_make_encoder is not None:
        # only a list that starts with a row is searched for runs: on the
        # query commands' lists, which hold none, the search cost about a
        # tenth of the encoding time
        items = _items_text(obj, inner, texts)
    else:
        items = [_json_text(x, inner, texts) for x in obj]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _object_text(obj, newline: str, texts: dict) -> str:
    if not obj:
        return "{}"
    inner = newline + "  "
    items = [
        (_quote(k) if type(k) is str else _key_text(k)) + ": " + _json_text(v, inner, texts)
        for k, v in obj.items()
    ]
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def _json_text(obj, newline: str, texts: dict) -> str:
    """The text of ``obj`` nested at the indent that ``newline`` ends in;
    ``texts`` holds the int lists already written in this call."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int:
        return int.__repr__(obj)
    if t is list or t is tuple:
        return _array_text(obj, newline, texts)
    if t is dict:
        return _object_text(obj, newline, texts)
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
        return _array_text(obj, newline, texts)
    if isinstance(obj, dict):
        return _object_text(obj, newline, texts)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def dumps_indent2(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.

    An ``indent`` sends ``json.dumps`` to its pure-Python encoder.  This
    writer quotes strings with the C ``encode_basestring_ascii``, writes a
    list of plain ints once per nesting depth and call (the query commands'
    responses repeat a few elements many times), and writes each run of
    rows (flat dicts: ``_is_row``) in one C encoder call (``_rows_text``);
    without the C encoder every value takes the per-value path.  Measured
    on Python 3.11 (2-core shared host), medians in one process: the 164 KB
    response to ``factorizations --ring 'prod(Zn(6),Zn(4))' --tau full
    --element '[2,0]' --cap 6`` takes 3.5 ms against 8.6 ms for
    ``json.dumps(obj, indent=2)``, and finite-sweep seed 1's report (15,189
    rows) 0.052 s against 0.103 s.  Like ``json`` it raises ``TypeError`` on an object it cannot encode;
    unlike it, it does not look for cycles.
    """
    return _json_text(obj, "\n", {})


def _emit(payload, pretty: bool, pretty_render=None):
    if pretty and pretty_render is not None:
        print(pretty_render(payload))
    else:
        print(dumps_indent2(payload))


# The query commands' finite rings, kept across the requests of a process:
# ring text -> (ring, its relations by text, its elements by text), each
# least recently used first and each of at most ``REGISTRY_SIZE`` entries
# (README, "Design notes").  Verify keeps its own ``_ring_slot``.
REGISTRY_SIZE = 64
_registry: OrderedDict = OrderedDict()


def _remember(lru: OrderedDict, key, value) -> None:
    """Store ``value`` at ``key`` as the most recently used entry, dropping
    the least recently used one past ``REGISTRY_SIZE``."""
    lru[key] = value
    lru.move_to_end(key)
    if len(lru) > REGISTRY_SIZE:
        lru.popitem(last=False)


def _load_inputs(args, element=True):
    """The ring, relation and element of a request.  On a finite ring each
    comes from the registry when there, and goes into it only once all
    three have been read, so a request whose input fails to parse or build
    leaves the registry as it was."""
    entry = _registry.get(args.ring) or (build_ring_from_text(args.ring), OrderedDict(), OrderedDict())
    ring, relations, elements = entry
    tau = relations.get(args.tau)
    if tau is None:
        tau = build_tau_from_text(args.tau, ring)
    el = None
    if element:
        el = elements.get(args.element)
        if el is None:
            el = parse_element(args.element, ring)
    if ring.is_finite:
        _remember(relations, args.tau, tau)
        if element:
            _remember(elements, args.element, el)
        _remember(_registry, args.ring, entry)
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
    return out, elasticity(plain).to_json(plain.ring)


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
    plain = Evaluator(ring, tau, cap, scope)
    plain.domain()  # a scope the ring cannot take is an input error
    props, elas = _property_vector(plain, Evaluator(ring, tau.regcap(), cap, scope))
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


def _verify_group(payload):
    """Worker: the theorem rows of each entry of one pool unit, each paired
    with the entry's atlas entry when the payload asks for the atlas, else
    with None; and on a finite ring the context key of each entry, its pair
    table on R#, else None.

    The ring and its evaluator contexts stay in the slot while the next
    unit names the same ring, scope and cap.  An atlas entry depends on its
    relation only through its evaluator and the ``tau`` label, as the rows
    do, so it is computed once per context key, from the evaluators the
    rows have just read.
    """
    from .theorems import context_evaluator, per_context_spec, verify_corpus_entries

    ring_str, tau_strs, scope_json, cap, atlas = payload
    if not _ring_slot or _ring_slot[0] != (ring_str, scope_json, cap):
        _ring_slot[:] = [(ring_str, scope_json, cap), build_ring_from_text(ring_str), {}]
    _, ring, contexts = _ring_slot
    scope = None if scope_json is None else [ring.element_from_json(e) for e in scope_json]
    taus = [build_tau_from_text(t, ring) for t in tau_strs]
    rows = verify_corpus_entries(ring, taus, scope, cap, contexts)
    evaluator = lambda spec: context_evaluator(contexts, ring, spec, scope, cap)
    keys = tuple(contexts[evaluator(tau.spec)] for tau in taus) if ring.is_finite else None
    if not atlas:
        return [(r, None) for r in rows], keys

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
    return [(r, {"ring": ring_str, "tau": t, **body}) for r, t, body in zip(rows, tau_strs, bodies)], keys


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


def run_verification(corpus_spec: dict, cap=None, jobs: int = 1, atlas: bool = False):
    """The report of a corpus run, with rows in corpus order; with ``atlas``,
    the report and the atlas.  With ``jobs`` > 1 each pool unit is one task
    on a process pool."""
    # imported before the pool starts, so that forked workers inherit it
    from .theorems import summarize

    corpus_entries, meta = generate_corpus(corpus_spec)
    cap = cap if cap is not None else meta["cap"]
    scopes = corpus_spec.get("scopes", {})
    units = _pool_units(corpus_entries)
    payloads = []
    for unit in units:
        ring_str = corpus_entries[unit[0]].ring_str
        tau_strs = tuple(corpus_entries[i].tau_str for i in unit)
        payloads.append((ring_str, tau_strs, scopes.get(ring_str), cap, atlas))
    try:
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            # one task per unit, handed to whichever worker is free
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_verify_group, payloads, chunksize=1))
        else:
            results = [_verify_group(payload) for payload in payloads]
    finally:
        _ring_slot.clear()
    per_entry: list = [None] * len(corpus_entries)
    groups = {}
    for unit, payload, (pairs, keys) in zip(units, payloads, results):
        for i, pair in zip(unit, pairs):
            per_entry[i] = pair
        # a finite ring's unit runs the corpus's relations once per listing
        # of the ring; the relations whose workers' pair tables agree
        if keys is not None and (ring_groups := _extensional_groups(zip(payload[1][: meta["taus"]], keys))):
            groups[payload[0]] = ring_groups
    meta["extensionally_equal_taus"] = groups
    rows = [r for chunk, _ in per_entry for r in chunk]
    report = {
        "schema": 1,
        "corpus": meta,
        "cap": cap,
        "entries": rows,
        "summary": summarize(r["outcome"] for r in rows),
    }
    if not atlas:
        return report
    return report, {"schema": 1, "corpus": meta, "entries": [e for _, e in per_entry]}


def cmd_verify(args) -> int:
    corpus_spec = _load_corpus(args.corpus)
    if args.atlas_out:
        report, atlas = run_verification(corpus_spec, cap=args.cap, jobs=args.jobs, atlas=True)
        with open(args.atlas_out, "w") as fh:
            fh.write(dumps_indent2(atlas) + "\n")
    else:
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
