"""Ring-level finite-factorization properties in four flavors.

Each property is decided per element and aggregated: atomicity (factorization
into irreducibles of a chosen flavor), chain condition on principal ideals
along factor-divisibility, bounded / finite / weakly-finite factorization,
irreducible-divisor finiteness, half-factoriality and unique factorization.

Scopes:
  plain        quantify over all non-units under the given relation;
  regular      quantify over regular non-units only;
  regcap       quantify over all non-units under the relation's restriction
               to pairs of regular elements;
  regcap-u     as regcap, but through essential divisors of the splits.

Verdicts are three-valued (holds / fails with witness / unknown at cap) and a
theorem is never claimed from unknown inputs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

from .factor import (
    FactorizationSet,
    PreconditionError,
    _nontrivial_candidates,
    canonicalize,
    enumerate_factorizations,
    pump_factor,
)
from .irreducibles import (
    Flag,
    IrreducibleKind,
    classify,
)
from .rings import (
    AssociateKind,
    ElementClass,
    Ring,
    UnsupportedOperationError,
)
from .relations import TauPropertyVerdict, TauRelation, check_tau_property
from .ufact import UFactorization, u_partitions


class PropKind(enum.Enum):
    ATOMIC = "atomic"
    ACCP = "accp"
    BFR = "bfr"
    FFR = "ffr"
    WFFR = "wffr"
    IDF = "idf"
    HFR = "hfr"
    UFR = "ufr"


class PropScope(enum.Enum):
    PLAIN = "plain"
    REGULAR = "regular-elements"
    REGCAP = "regcap-all"
    REGCAP_U = "regcap-u"

    @property
    def restricted(self) -> bool:
        """Whether the scope reads the relation's restriction to regular
        pairs rather than the relation itself."""
        return self in (PropScope.REGCAP, PropScope.REGCAP_U)

    @property
    def reading(self) -> "PropScope":
        """The scope whose verdict this one reuses on one evaluator:
        ``regcap-all`` reads as ``plain``, as both read the same domain, view
        and ACCP chain there; every other scope reads itself."""
        return PropScope.PLAIN if self == PropScope.REGCAP else self


_TAKES_ALPHA = {PropKind.ATOMIC, PropKind.IDF, PropKind.HFR, PropKind.UFR}
_TAKES_BETA = {PropKind.FFR, PropKind.WFFR, PropKind.IDF, PropKind.UFR}


@dataclass(frozen=True)
class PropertyId:
    kind: PropKind
    alpha: Optional[IrreducibleKind] = None
    beta: Optional[AssociateKind] = None
    scope: PropScope = PropScope.PLAIN

    def __post_init__(self):
        if (self.alpha is not None) != (self.kind in _TAKES_ALPHA):
            raise ValueError(f"{self.kind.value} takes alpha iff it is parameterized by it")
        if (self.beta is not None) != (self.kind in _TAKES_BETA):
            raise ValueError(f"{self.kind.value} takes beta iff it is parameterized by it")

    def reading(self) -> "PropertyId":
        """The cell whose verdict this one reuses: the scope's reading, and
        ``associate`` for a strong beta (every constructible ring is strongly
        associate, README "Design notes", so beta reaches every predicate
        through one orbit key; very-strong keys split orbits)."""
        beta = AssociateKind.ASSOCIATE if self.beta == AssociateKind.STRONG else self.beta
        return replace(self, beta=beta, scope=self.scope.reading)

    def label(self) -> str:
        bits = [self.kind.value]
        if self.alpha is not None:
            bits.append(self.alpha.value)
        if self.beta is not None:
            bits.append(self.beta.name.lower())
        bits.append(self.scope.value)
        return "/".join(bits)


_IRR, _ASSOC = IrreducibleKind.IRREDUCIBLE, AssociateKind.ASSOCIATE

# The regular-scope properties (Anderson & Valdes-Leon 1996) the harness
# compares across relations, with irreducible atoms and plain associates: on
# regular elements the associate and irreducible notions coincide, so one
# choice stands for all.
REGULAR_PROPS = {
    name: PropertyId(kind, alpha=alpha, beta=beta, scope=PropScope.REGULAR)
    for name, kind, alpha, beta in (
        ("atomic", PropKind.ATOMIC, _IRR, None),
        ("accp", PropKind.ACCP, None, None),
        ("bfr", PropKind.BFR, None, None),
        ("ffr", PropKind.FFR, None, _ASSOC),
        ("wffr", PropKind.WFFR, None, _ASSOC),
        ("idf", PropKind.IDF, _IRR, _ASSOC),
        ("hfr", PropKind.HFR, _IRR, None),
        ("ufr", PropKind.UFR, _IRR, _ASSOC),
    )
}

# The regular-scope properties in every scope, scope by scope: the property
# vector of ``taufact properties`` and of each atlas entry.
CATALOG_PROPS = tuple(replace(prop, scope=scope) for scope in PropScope for prop in REGULAR_PROPS.values())


@dataclass
class PropertyVerdict:
    prop: PropertyId
    outcome: str  # "holds" | "fails" | "unknown"
    witness: Optional[object] = None
    bound: Optional[int] = None
    cap: int = 0
    scoped: bool = False
    note: str = ""

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"

    def to_json(self, ring: Ring):
        out = {
            "property": self.prop.label(),
            "outcome": self.outcome,
            "cap": self.cap,
            "scoped": self.scoped,
        }
        if self.bound is not None:
            out["bound"] = self.bound
        if self.witness is not None:
            out["witness"] = _witness_json(ring, self.witness)
        if self.note:
            out["note"] = self.note
        return out


def _witness_json(ring: Ring, w):
    from .factor import Factorization, PumpWitness

    if isinstance(w, Factorization):
        return w.to_json()
    if isinstance(w, PumpWitness):
        return {"pump": ring.element_to_json(w.x), "base": w.base.to_json()}
    if isinstance(w, UFactorization):
        return w.to_json()
    if isinstance(w, dict):
        return {k: _witness_json(ring, v) for k, v in w.items()}
    if isinstance(w, (list, tuple)):
        if ring.contains(w):
            return ring.element_to_json(w)
        return [_witness_json(ring, v) for v in w]
    if ring.contains(w):
        return ring.element_to_json(w)
    return repr(w)


DEFAULT_PROPERTY_CAP = 6


@dataclass
class _ElementOutcome:
    status: str  # "holds" | "fails" | "unknown"
    witness: object = None
    bound: Optional[int] = None
    note: str = ""


class Evaluator:
    """The work on one (ring, relation) at one element scope and cap: the
    enumerations, irreducibility profiles, splits and per-element outcomes,
    and the property and refinability verdicts built from them.

    A verdict depends only on the relation, the property, the scope and the
    cap, so every reader of one relation on one ring, scope and cap (the
    corpus entries whose plain or restricted side has its context key, the
    baseline rows, the property vector) shares one evaluator.
    """

    def __init__(self, ring: Ring, tau: TauRelation, cap: int = DEFAULT_PROPERTY_CAP, scope=None):
        self.ring = ring
        self.tau = tau
        self.cap = cap
        self.scope = scope
        self._fs: dict = {}
        self._profiles: dict = {}
        self._upools: dict = {}
        self._chain: dict = {}
        self._alpha_items: dict = {}
        self._atom_sets: dict = {}
        self._verdicts: dict = {}
        self._domains: dict = {}
        self._refinable: Optional[TauPropertyVerdict] = None

    def domain(self, regular: bool = False):
        """``_resolve_domain`` over the evaluator's scope, resolved once, and
        with ``regular`` only its regular elements."""
        got = self._domains.get(regular)
        if got is None:
            if regular:
                domain, scoped = self.domain()
                cls = self.ring.classify
                got = ([a for a in domain if cls(a) == ElementClass.REGULAR_NON_UNIT], scoped)
            else:
                got = _resolve_domain(self.ring, self.scope)
            self._domains[regular] = got
        return got

    def verdict(self, prop: PropertyId) -> PropertyVerdict:
        """``check_property`` of ``prop``'s reading, decided once and
        labelled ``prop``."""
        got = self._verdicts.get(prop)
        if got is None:
            reading = prop.reading()
            if reading == prop:
                got = check_property(self, prop)
            else:
                got = replace(self.verdict(reading), prop=prop)
            self._verdicts[prop] = got
        return got

    def refinable(self) -> TauPropertyVerdict:
        """Whether the relation is refinable, decided once from the
        evaluator's enumerations: of every non-unit of a finite ring, whatever
        the scope, and of the scope's non-units on an infinite one."""
        if self._refinable is None:
            ring = self.ring
            targets = ring.nonunits() if ring.is_finite else self.domain()[0]
            self._refinable = check_tau_property(self.tau, targets, not ring.is_finite, self.cap, self.fs)
        return self._refinable

    def fs(self, a) -> FactorizationSet:
        """The strong-associate enumeration of a, run once; one that cannot
        run raises its error again, with the same message, on every call."""
        got = self._fs.get(a)
        if got is None:
            # Infinite rings: the per-element default cap; divisor norms grow,
            # so the search bottoms out below it and verdicts stay exhaustive.
            cap = self.cap if self.ring.is_finite else None
            try:
                got = enumerate_factorizations(
                    self.ring, self.tau, a, AssociateKind.STRONG, cap=cap
                )
            except UnsupportedOperationError as exc:
                got = exc
            self._fs[a] = got
        if isinstance(got, UnsupportedOperationError):
            raise type(got)(*got.args)
        return got

    def exhaustive(self, a) -> bool:
        return self.fs(a).exhaustive

    def profile(self, a):
        got = self._profiles.get(a)
        if got is None:
            got = classify(self.ring, self.tau, a, cap=self.cap, fs=self.fs(a))
            self._profiles[a] = got
        return got

    def atom_flag(self, a, alpha: IrreducibleKind) -> Flag:
        return self.profile(a)[alpha]

    def alpha_status(self, factors, alpha: IrreducibleKind) -> Flag:
        """Whether every one of ``factors`` is an alpha-irreducible."""
        out = Flag.TRUE
        for x in set(factors):
            flag = self.atom_flag(x, alpha)
            if flag == Flag.FALSE:
                return Flag.FALSE
            if flag == Flag.UNKNOWN:
                out = Flag.UNKNOWN
        return out

    def u_pool(self, a) -> tuple:
        got = self._upools.get(a)
        if got is None:
            pool = []
            for f in self.fs(a).items:
                pool.extend(u_partitions(self.ring, f))
            got = tuple(pool)
            self._upools[a] = got
        return got

    def alpha_items(self, view: "FactorView", a, alpha: IrreducibleKind) -> tuple:
        """The pieces of a whose atoms are certainly alpha-irreducible, and
        whether some other piece might be."""
        key = (view.name, a, alpha)
        got = self._alpha_items.get(key)
        if got is None:
            certain = []
            maybe = False
            for p in view.pieces(self, a):
                status = self.alpha_status(view.atoms(p), alpha)
                if status == Flag.TRUE:
                    certain.append(p)
                elif status == Flag.UNKNOWN:
                    maybe = True
            got = (certain, maybe)
            self._alpha_items[key] = got
        return got

    def atom_set(self, view: "FactorView", a, nontrivial: bool) -> frozenset:
        """The factors that ``view`` requires irreducible, over the pieces of
        a (only its nontrivial pieces with ``nontrivial``), collected once."""
        key = (view.name, a, nontrivial)
        got = self._atom_sets.get(key)
        if got is None:
            got = set()
            for p in view.pieces(self, a):
                if not (nontrivial and p.trivial):
                    got.update(view.atoms(p))
            got = self._atom_sets[key] = frozenset(got)
        return got

    def pumped_atomic(self, view: "FactorView", a, alpha: IrreducibleKind):
        """A certainly alpha-atomic piece of a with a factor that pumps it, as
        (piece, factor), or None.

        Only an unbounded enumeration can hold one: it tests every
        factorization it meets with the same rule until one pumps.
        """
        if self.fs(a).unbounded != "yes":
            return None
        ring = self.ring
        for p in self.alpha_items(view, a, alpha)[0]:
            x = pump_factor(ring, self.tau, p.factors, ring.product(p.factors))
            if x is not None:
                return p, x
        return None

    # -- divisibility chains

    def chain_bound(self, a, regular_only: bool) -> int:
        """Height of the proper-divisibility poset over the elements that can
        follow a in an ascending chain of principal ideals.

        A chain step needs the next element to occur as a factor in a
        nontrivial factorization of the current one, so successors live among
        the nontrivial factor candidates; the poset height bounds every chain.
        """
        key = (a, regular_only)
        got = self._chain.get(key)
        if got is not None:
            return got
        self._chain[key] = 1  # proper containment forbids cycles
        ring = self.ring
        best = 1
        try:
            for b in _nontrivial_candidates(ring, self.tau, a, reduce_assoc=True):
                if regular_only and not ring.is_regular(b):
                    continue
                if not ring.cofactors(b, a).is_empty():
                    continue  # a divides b back: same ideal, not a proper step
                best = max(best, 1 + self.chain_bound(b, regular_only))
        except UnsupportedOperationError:
            del self._chain[key]  # a later read must raise again, not see 1
            raise
        self._chain[key] = best
        return best


# ---------------------------------------------------------------------------
# Factor views


@dataclass(frozen=True)
class FactorView:
    """How the element predicates read the factorizations of an element.

    ``pieces(ev, a)`` lists them, ``atoms(p)`` gives the factors of a piece
    that must be irreducible, and ``key(ring, p, beta)`` is its class up
    to rearrangement and beta-associates.  Every piece also has ``factors``
    (all of them) and ``trivial`` (one factor in total).
    """

    name: str
    pieces: Callable
    atoms: Callable
    key: Callable


def _split_key(ring: Ring, u: UFactorization, beta) -> tuple:
    ines = tuple(sorted(ring.associate_key(x, beta) for x in u.inessential))
    ess = tuple(sorted(ring.associate_key(x, beta) for x in u.essential))
    return (ines, ess)


# The lambdas look ``canonicalize`` up when called, so a rebinding of the
# module name (as perfbench's tracer does) reaches every view call.
PLAIN_VIEW = FactorView(
    "plain",
    pieces=lambda ev, a: ev.fs(a).items,
    atoms=lambda f: f.factors,
    key=lambda ring, f, beta: canonicalize(ring, f.factors, beta),
)

# The same properties read through the essential divisors of the splits.
SPLIT_VIEW = FactorView(
    "split",
    pieces=lambda ev, a: ev.u_pool(a),
    atoms=lambda u: u.essential,
    key=_split_key,
)


# ---------------------------------------------------------------------------
# Per-element property outcomes


def _beta_class_count(ring, xs, beta) -> int:
    return len({ring.associate_key(x, beta) for x in xs})


def _atomic_element(ev: Evaluator, view: FactorView, a, alpha) -> _ElementOutcome:
    certain, maybe = ev.alpha_items(view, a, alpha)
    if certain:
        return _ElementOutcome("holds", bound=len(view.atoms(certain[0])))
    if ev.exhaustive(a) and not maybe:
        return _ElementOutcome("fails", witness=a)
    # closure: factors of any factorization, of any length, come from the
    # candidate pool plus the trivial factors; all certainly non-atomic
    # means no atomic factorization can exist
    fs = ev.fs(a)
    pool = set(fs.candidates)
    pool.update(x for f in fs.items if f.trivial for x in f.factors)
    if all(ev.atom_flag(x, alpha) == Flag.FALSE for x in pool):
        return _ElementOutcome("fails", witness=a)
    return _ElementOutcome("unknown", note="no certain atomic factorization below cap")


def _accp_element(ev: Evaluator, a, regular_chain: bool) -> _ElementOutcome:
    # Essential divisors are factors, so the same poset height bounds the
    # essential-divisor chains of the split variant.
    bound = ev.chain_bound(a, regular_chain)
    return _ElementOutcome("holds", bound=bound)


def _bfr_element(ev: Evaluator, view: FactorView, a) -> _ElementOutcome:
    fs = ev.fs(a)
    if fs.unbounded == "yes":
        return _ElementOutcome("fails", witness=fs.pump)
    if not ev.exhaustive(a):
        return _ElementOutcome("unknown", note="length bound not established at cap")
    bound = max((len(view.atoms(p)) for p in view.pieces(ev, a)), default=0)
    return _ElementOutcome("holds", bound=bound)


def _ffr_element(ev: Evaluator, view: FactorView, a, beta) -> _ElementOutcome:
    fs = ev.fs(a)
    if fs.unbounded == "yes":
        return _ElementOutcome("fails", witness=fs.pump)
    if not ev.exhaustive(a):
        return _ElementOutcome("unknown", note="class count not established at cap")
    if beta == AssociateKind.VERY_STRONG:
        # The strong-associate enumeration merges very-strong classes, so
        # both views count the classes of a very-strong enumeration, taken
        # at the cap the strong one ran at.
        vs = enumerate_factorizations(ev.ring, ev.tau, a, beta, cap=fs.cap)
        count = len([f for f in vs.items if not f.trivial])
    else:
        keys = {view.key(ev.ring, p, beta) for p in view.pieces(ev, a) if not p.trivial}
        count = len(keys)
    return _ElementOutcome("holds", bound=count)


def _wffr_element(ev: Evaluator, view: FactorView, a, beta) -> _ElementOutcome:
    values = ev.atom_set(view, a, nontrivial=True)
    return _ElementOutcome("holds", bound=_beta_class_count(ev.ring, values, beta))


def _idf_element(ev: Evaluator, view: FactorView, a, alpha, beta) -> _ElementOutcome:
    atoms = [x for x in ev.atom_set(view, a, nontrivial=False) if ev.atom_flag(x, alpha) == Flag.TRUE]
    return _ElementOutcome("holds", bound=_beta_class_count(ev.ring, atoms, beta))


def _hfr_element(ev: Evaluator, view: FactorView, a, alpha) -> _ElementOutcome:
    certain, maybe = ev.alpha_items(view, a, alpha)
    lengths = {len(view.atoms(p)) for p in certain}
    if len(lengths) > 1:
        ws = sorted(certain, key=lambda p: len(view.atoms(p)))
        return _ElementOutcome("fails", witness={"element": a, "short": ws[0], "long": ws[-1]})
    pumped = ev.pumped_atomic(view, a, alpha)
    if pumped is not None:
        return _ElementOutcome("fails", witness={"element": a, "base": pumped[0], "pump": pumped[1]})
    if not ev.exhaustive(a) or maybe:
        return _ElementOutcome("unknown", note="atomic lengths not settled at cap")
    return _ElementOutcome("holds", bound=max(lengths) if lengths else 0)


def _ufr_element(ev: Evaluator, view: FactorView, a, alpha, beta) -> _ElementOutcome:
    certain, maybe = ev.alpha_items(view, a, alpha)
    keys = {}
    for p in certain:
        keys.setdefault(view.key(ev.ring, p, beta), p)
    if len(keys) > 1:
        reps = sorted(keys.values(), key=lambda p: (len(view.atoms(p)), ev.ring.sort_key(view.atoms(p)[0])))
        return _ElementOutcome("fails", witness={"element": a, "first": reps[0], "second": reps[1]})
    pumped = ev.pumped_atomic(view, a, alpha)
    if pumped is not None:
        return _ElementOutcome("fails", witness={"element": a, "base": pumped[0], "pump": pumped[1]})
    if not ev.exhaustive(a) or maybe:
        return _ElementOutcome("unknown", note="atomic classes not settled at cap")
    return _ElementOutcome("holds", bound=len(keys))


# ---------------------------------------------------------------------------
# Ring-level aggregation


def _resolve_domain(ring: Ring, scope_elements):
    """The sorted non-units of ``scope_elements`` (all non-units of a finite
    ring when None), and whether they fall short of all non-units (always on
    an infinite ring)."""
    if scope_elements is None:
        if not ring.is_finite:
            raise UnsupportedOperationError(
                "properties over an infinite ring need an explicit element scope"
            )
        return ring.nonunits(), False
    domain = []
    for a in scope_elements:
        if ring.is_unit(a):
            continue
        if a == ring.zero and not ring.is_finite:
            raise PreconditionError("scope for an infinite ring must not contain 0")
        domain.append(a)
    domain = sorted(set(domain), key=ring.sort_key)
    return domain, not ring.is_finite or set(domain) != set(ring.nonunits())


def check_property(ev: Evaluator, prop: PropertyId) -> PropertyVerdict:
    """Decide one ring-level property over ``ev``'s scope at its cap;
    exhaustive on finite rings, scoped (and flagged as such) on infinite
    ones.  ``ev`` is on the relation the property's scope reads.

    The verdict records the largest cap of the domain enumerations it read
    (``Evaluator.fs`` picks its own on an infinite ring), or ``ev.cap`` when
    it read none (ACCP, or an empty scope).
    """
    ring = ev.ring
    domain, scoped = ev.domain(prop.scope == PropScope.REGULAR)
    view = SPLIT_VIEW if prop.scope == PropScope.REGCAP_U else PLAIN_VIEW
    read = []  # the caps of the domain enumerations the verdict reads
    # an element outcome that returns has run ``ev.fs``, so its memo holds
    # the enumeration; ACCP reads divisor chains only
    memo = ev._fs if prop.kind != PropKind.ACCP else None

    def element_outcome(a) -> _ElementOutcome:
        k = prop.kind
        if k == PropKind.ATOMIC:
            return _atomic_element(ev, view, a, prop.alpha)
        if k == PropKind.ACCP:
            return _accp_element(ev, a, prop.scope == PropScope.REGULAR)
        if k == PropKind.BFR:
            return _bfr_element(ev, view, a)
        if k == PropKind.FFR:
            return _ffr_element(ev, view, a, prop.beta)
        if k == PropKind.WFFR:
            return _wffr_element(ev, view, a, prop.beta)
        if k == PropKind.IDF:
            return _idf_element(ev, view, a, prop.alpha, prop.beta)
        if k == PropKind.HFR:
            return _hfr_element(ev, view, a, prop.alpha)
        if k == PropKind.UFR:
            return _ufr_element(ev, view, a, prop.alpha, prop.beta)
        raise ValueError(f"unknown property kind {k!r}")

    # HFR and UFR also require atomicity of the whole scope, read from the
    # evaluator's ATOMIC verdict, which reads every element they read
    atomic_unknown = False
    if prop.kind in (PropKind.HFR, PropKind.UFR):
        atomic = ev.verdict(PropertyId(PropKind.ATOMIC, alpha=prop.alpha, scope=prop.scope))
        if atomic.outcome == "fails":
            return replace(atomic, prop=prop, note="not atomic for this flavor")
        atomic_unknown = atomic.outcome == "unknown"
        read.append(atomic.cap)
    bound = 0
    unknown_note = ""
    skipped = 0
    for a in domain:
        try:
            out = element_outcome(a)
        except UnsupportedOperationError as exc:
            skipped += 1
            unknown_note = f"element {ring.format_element(a)} skipped: {exc}"
            continue
        if memo is not None:
            read.append(memo[a].cap)
        if out.status == "fails":
            return PropertyVerdict(
                prop, "fails",
                witness=out.witness if out.witness is not None else a,
                cap=max(read, default=ev.cap), scoped=scoped,
            )
        if out.status == "unknown":
            unknown_note = out.note or unknown_note
            skipped += 1
        elif out.bound is not None:
            bound = max(bound, out.bound)
    if skipped or atomic_unknown:
        note = unknown_note or "atomicity unknown at cap"
        if skipped:
            note += f" ({skipped} elements undecided)"
        return PropertyVerdict(prop, "unknown", cap=max(read, default=ev.cap), scoped=scoped, note=note)
    note = "vacuous: empty scope" if not domain else ""
    return PropertyVerdict(prop, "holds", bound=bound, cap=max(read, default=ev.cap), scoped=scoped, note=note)


# ---------------------------------------------------------------------------
# Elasticity


@dataclass
class Elasticity:
    value: object  # Fraction | "infinite" | "undefined-empty-scope"
    per_element: dict
    cap: int
    scoped: bool = False
    note: str = ""

    def to_json(self, ring: Ring):
        def enc(v):
            return str(v) if isinstance(v, Fraction) else v

        return {
            "value": enc(self.value),
            "per_element": [
                {"element": ring.element_to_json(a), "rho": enc(v)}
                for a, v in sorted(self.per_element.items(), key=lambda kv: ring.sort_key(kv[0]))
            ],
            "cap": self.cap,
            "scoped": self.scoped,
            **({"note": self.note} if self.note else {}),
        }


def elasticity(ev: Evaluator) -> Elasticity:
    """Per-element ratio of longest to shortest atomic factorization length
    over the regular non-units of ``ev``'s scope, and its supremum, with
    the cap recorded as ``check_property`` records it."""
    domain, scoped = ev.domain(regular=True)
    if not domain:
        return Elasticity("undefined-empty-scope", {}, ev.cap, scoped)
    per: dict = {}
    infinite = False
    note = ""
    for a in domain:
        certain, maybe = ev.alpha_items(PLAIN_VIEW, a, IrreducibleKind.IRREDUCIBLE)
        if not ev.exhaustive(a):
            if ev.pumped_atomic(PLAIN_VIEW, a, IrreducibleKind.IRREDUCIBLE) is not None:
                infinite = True
                per[a] = "infinite"
                continue
            note = "some elements undecided at cap"
            continue
        if maybe:
            note = "some atomic flags unknown at cap"
            continue
        lengths = [len(f.factors) for f in certain]
        if not lengths:
            continue  # no atomic factorization: no ratio contribution
        per[a] = Fraction(max(lengths), min(lengths))
    cap = max(ev._fs[a].cap for a in domain)  # every element ran ``ev.fs``
    if infinite:
        return Elasticity("infinite", per, cap, scoped, note)
    finite_vals = [v for v in per.values() if isinstance(v, Fraction)]
    if not finite_vals:
        return Elasticity("undefined-empty-scope", per, cap, scoped, note or "no atomic factorizations in scope")
    return Elasticity(max(finite_vals), per, cap, scoped, note)
