"""Per-layer tracing of taufact from outside its source tree.

`install()` wraps the public functions of each taufact module, the theorem
families, and the primitives of every concrete ring class.  Calls that do
further traced work get a span (name, start, end, parent, unit); the hot
leaves (`mul`, cache lookups, `holds`, `canonicalize`) only bump counters.
A name bound by value in another module (`from .factor import
enumerate_factorizations`) is replaced there too, so every call site sees
the wrapper.  Spans stay in memory; `Tracer.dump` writes them at exit and
`Tracer.metrics` folds them into the per-layer table.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

RING_PRIMITIVES = ("mul", "classify", "divisors", "cofactors", "associated", "comaximal", "units")

# (module, function) pairs that get a span, and the layer name they report as
SPANNED = (
    ("cli", "main", "cli.main"),
    ("cli", "run_verification", "cli.run_verification"),
    ("cli", "_verify_group", "cli.unit"),
    ("cli", "cmd_verify", "cli.cmd_verify"),
    ("corpus", "generate_corpus", "corpus.generate_corpus"),
    ("corpus", "_extensional_groups", "corpus.extensional_groups"),
    ("parsing", "build_ring_from_text", "parsing.build_ring"),
    ("parsing", "build_tau_from_text", "parsing.build_tau"),
    ("relations", "check_tau_property", "relations.check_tau_property"),
    ("factor", "enumerate_factorizations", "factor.enumerate"),
    ("factor", "tau_divides", "factor.tau_divides"),
    ("irreducibles", "classify", "irreducibles.classify"),
    ("irreducibles", "tau_r_atom", "irreducibles.tau_r_atom"),
    ("ufact", "u_partitions", "ufact.u_partitions"),
    ("ufact", "phi_inverse", "ufact.phi_inverse"),
    ("properties", "check_property", "properties.check_property"),
)

FAMILIES = (
    "hierarchy",
    "trivial_associates",
    "atom_five_way",
    "regular_collapse",
    "zero_divisor_atoms",
    "ring_atomicity_five_way",
    "eight_way",
    "regular_vs_restricted",
    "plain_implies_regular",
    "regular_relation_baseline",
    "split_equivalences",
    "essential_divisors",
    "nontrivial_coincide",
    "plain_arrow_diagram",
    "regular_arrow_diagram",
)


def _cache_probe(cls_name, method):
    """Predicate telling whether a call will be answered from the ring's
    own cache; None where that class computes the answer every time."""
    probes = {
        "classify": lambda r, a: a[0] in r._classify_cache,
        "divisors": lambda r, a: a[0] in r._divisor_cache,
        "cofactors": lambda r, a: (a[0], a[1]) in r._cofactor_cache,
        "associated": lambda r, a: (a[0], a[1], a[2]) in r._assoc_cache,
        "units": lambda r, a: r._unit_cache is not None,
        "comaximal": lambda r, a: (a[0], a[1]) in r._comax_cache,
    }
    if cls_name == "IntegerRing" and method in ("units", "comaximal"):
        return None
    if cls_name == "ProductRing" and method == "comaximal":
        return None
    return probes.get(method)


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, unit)
        self.stack = []
        self.unit = None
        self.counts = defaultdict(int)
        self.miss_s = defaultdict(float)
        self._miss_stack = []
        self.classes = 0
        self.raw = 0

    # -- wrappers

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.unit)

        return wrapper

    def _unit_span(self, name, fn, unit_of):
        inner = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer, self.unit = self.unit, unit_of(args)
            try:
                return inner(*args, **kwargs)
            finally:
                self.unit = outer

        return wrapper

    def _ring_method(self, cls_name, method, fn):
        counts = self.counts
        calls_key = f"rings.{method}.calls"
        if method == "mul":

            def mul(ring, a, b):
                counts[calls_key] += 1
                return fn(ring, a, b)

            return mul
        probe = _cache_probe(cls_name, method)
        hits_key = f"rings.{method}.hits"
        miss_s, miss_stack = self.miss_s, self._miss_stack

        @functools.wraps(fn)
        def wrapper(ring, *args):
            counts[calls_key] += 1
            if probe is not None and probe(ring, args):
                counts[hits_key] += 1
                return fn(ring, *args)
            start = perf_counter()
            miss_stack.append(0.0)
            try:
                return fn(ring, *args)
            finally:
                took = perf_counter() - start
                nested = miss_stack.pop()
                miss_s[method] += took - nested
                if miss_stack:
                    miss_stack[-1] += took

        return wrapper

    def _counted(self, key, fn, probe=None):
        counts = self.counts
        hits_key = key.rsplit(".", 1)[0] + ".hits"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if probe is not None and probe(args):
                counts[hits_key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _enumerate(self, fn):
        traced = self.span("factor.enumerate", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fs = traced(*args, **kwargs)
            self.classes += len(fs.classes)
            self.raw += fs.raw_total
            return fs

        return wrapper

    # -- installation

    def install(self):
        import taufact  # noqa: F401  (loads every submodule)
        from taufact import factor, properties, relations, rings, theorems

        mods = [m for name, m in sorted(sys.modules.items()) if name == "taufact" or name.startswith("taufact.")]

        def rebind(orig, new):
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, new)

        for mod_name, fn_name, layer in SPANNED:
            orig = getattr(sys.modules[f"taufact.{mod_name}"], fn_name)
            if layer == "factor.enumerate":
                new = self._enumerate(orig)
            elif layer == "cli.unit":
                new = self._unit_span(layer, orig, lambda args: args[0][0])
            elif layer == "cli.main":
                counter = iter(range(1 << 62))
                new = self._unit_span(layer, orig, lambda args: next(counter))
            else:
                new = self.span(layer, orig)
            rebind(orig, new)
        rebind(factor.canonicalize, self._counted("factor.canonicalize.calls", factor.canonicalize))

        checker = theorems.EntryChecker
        checker.__init__ = self.span("theorems.entry_setup", checker.__init__)
        for fam in FAMILIES:
            setattr(checker, f"family_{fam}", self.span(f"theorems.{fam}", getattr(checker, f"family_{fam}")))
        ev = properties.Evaluator
        ev.fs = self._counted("properties.fs.calls", ev.fs, lambda a: a[1] in a[0]._fs)
        rel = relations.TauRelation
        rel.holds = self._counted("relations.holds.calls", rel.holds, lambda a: (a[1], a[2]) in a[0]._cache)
        for cls in (rings.Ring, rings.ModRing, rings.IntegerRing, rings.PolyQuotRing, rings.ProductRing):
            for method in RING_PRIMITIVES:
                if method in vars(cls):
                    setattr(cls, method, self._ring_method(cls.__name__, method, vars(cls)[method]))

    # -- output

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "unit"], "spans": self.spans}, fh)

    def metrics(self):
        """Counters, and per layer: calls, inclusive seconds (outermost call
        of a recursive layer only) and self seconds."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child_s[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                incl[name] += end - start
        out = {}
        for name in calls:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
            out[f"{name}.self_s"] = self_s[name]
        for key, n in self.counts.items():
            out[key] = n
        for method, s in self.miss_s.items():
            out[f"rings.{method}.miss_s"] = s
        out["factor.classes"] = self.classes
        out["factor.raw"] = self.raw
        units = [end - start for name, start, end, _, _ in spans if name == "cli.unit"]
        out["cli.units"] = len(units)
        out["cli.unit_sum_s"] = sum(units)
        out["cli.unit_max_s"] = max(units, default=0.0)
        # all cmd_verify does besides run_verification is load and write
        out["cli.report_write_s"] = self_s["cli.cmd_verify"]
        return out
