"""Corpus construction: the (ring, relation, scope) sweep the harness runs on.

A corpus file is JSON:

    {"schema": 1,
     "rings": ["Zn(6)", "prod(Z,Z)", ...],
     "taus": ["full", "zero", ...],
     "scopes": {"Z": [2, -2, ...], "prod(Z,Z)": [[1, 2], ...]},
     "cap": 6,
     "budget": 500000}

Scopes are explicit element lists so scoped verdicts are reproducible from
the file alone; infinite rings must carry one, and it must not contain 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .parsing import build_ring_from_text, build_tau_from_text
from .rings import Ring
from .relations import TauRelation


class CorpusError(ValueError):
    pass


DEFAULT_TAUS = (
    "full",
    "empty",
    "zero",
    "comax",
    "regular",
    "regcap(full)",
    "regcap(comax)",
)

DEFAULT_CAP = 6
DEFAULT_BUDGET = 500_000


@dataclass
class CorpusEntry:
    ring_str: str
    tau_str: str
    scope: object  # None | list of elements
    ring: Ring
    tau: TauRelation


def default_corpus_spec() -> dict:
    """Modular rings to Z/24, products to 6x6, two quadratic quotients,
    the integers and their square with bounded scopes, and three squares
    of prime fields."""
    rings = [f"Zn({n})" for n in range(2, 25)]
    rings += [f"prod(Zn({a}),Zn({b}))" for a in range(2, 7) for b in range(2, 7)]
    rings += ["GFq(2,[1,1,1])", "GFq(2,[0,0,1])"]
    rings += ["Z", "prod(Z,Z)"]
    rings += [f"prod(Zn({q}),Zn({q}))" for q in (3, 5, 7)]
    rings = list(dict.fromkeys(rings))  # the small field squares overlap the grid
    z_scope = [a for a in range(-60, 61) if abs(a) > 1]
    zz_scope = [
        [a, b] for a in range(-20, 21) for b in range(-20, 21) if a != 0 and b != 0
    ]
    zz_scope += [[a, 0] for a in range(-20, 21) if a != 0]
    zz_scope += [[0, b] for b in range(-20, 21) if b != 0]
    return {
        "schema": 1,
        "rings": rings,
        "taus": list(DEFAULT_TAUS),
        "scopes": {"Z": z_scope, "prod(Z,Z)": zz_scope},
        "cap": DEFAULT_CAP,
        "budget": DEFAULT_BUDGET,
    }


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(n, str) for n in value)


def generate_corpus(spec: dict):
    """Materialize a corpus spec into entries plus metadata.

    Every (ring, relation) pair is an entry.  The run that verifies them
    adds the metadata's last key, ``extensionally_equal_taus``: per finite
    ring, which relation specs share a pair table on R#, read off the
    tables its worker keys the ring's evaluators by (``_extensional_groups``,
    ``theorems.context_spec``); it computes the rows and atlas entries of
    each such group once.
    """
    if not isinstance(spec, dict):
        raise CorpusError("a corpus must be a JSON object")
    if spec.get("schema") != 1:
        raise CorpusError("corpus schema must be 1")
    budget = spec.get("budget", DEFAULT_BUDGET)
    cap = spec.get("cap", DEFAULT_CAP)
    rings = spec.get("rings")
    taus = spec.get("taus", list(DEFAULT_TAUS))
    scopes = spec.get("scopes", {})
    for field, ok, what in (
        ("budget", _is_int(budget), "an integer"),
        ("cap", _is_int(cap), "an integer"),
        ("rings", _is_names(rings), "a JSON array of strings"),
        ("taus", _is_names(taus), "a JSON array of strings"),
        ("scopes", isinstance(scopes, dict), "a JSON object"),
    ):
        if not ok:
            raise CorpusError(f"corpus {field} must be {what}")
    entries = []
    total = 0
    ring_infos = []
    for ring_str in rings:
        ring = build_ring_from_text(ring_str)
        scope_json = scopes.get(ring_str)
        scope = None
        if scope_json is not None:
            if not isinstance(scope_json, list):
                raise CorpusError(f"scope for {ring_str} must be a JSON array")
            try:
                scope = [ring.element_from_json(e) for e in scope_json]
            except ValueError as exc:
                raise CorpusError(f"scope for {ring_str}: {exc}") from None
            if not ring.is_finite and any(e == ring.zero for e in scope):
                raise CorpusError(
                    f"scope for infinite ring {ring_str} must not contain 0"
                )
            total += len(scope)
        elif ring.is_finite:
            total += ring.order
        else:
            raise CorpusError(f"infinite ring {ring_str} needs an explicit scope")
        if total > budget:
            raise CorpusError(
                f"budget {budget} exceeded at ring {ring_str} (running total {total})"
            )
        ring_infos.append((ring_str, ring, scope))
    for ring_str, ring, scope in ring_infos:
        for tau_str in taus:
            entries.append(CorpusEntry(ring_str, tau_str, scope, ring, build_tau_from_text(tau_str, ring)))
    meta = {
        "rings": len(ring_infos),
        "taus": len(taus),
        "entries": len(entries),
        "elements": total,
        "cap": cap,
    }
    return entries, meta


def _extensional_groups(tables) -> list:
    """Groups of relation specs with one pair table on R#, from (spec,
    table) pairs."""
    by_table: dict = {}
    for tau_str, table in tables:
        by_table.setdefault(table, []).append(tau_str)
    return sorted(g for g in by_table.values() if len(g) > 1)
