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
from typing import Callable, Optional

from .factor import (
    Factorization,
    FactorizationSet,
    PreconditionError,
    PumpWitness,
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
from .relations import TauRelation, check_tau_property
from .ufact import UFactorization, u_partitions


class PropKind(enum.Enum):
    # members are singletons compared by identity, so they hash by it too
    # (README, "Design notes"), which is C-level and reads no name
    __hash__ = object.__hash__

    ATOMIC = "atomic"
    ACCP = "accp"
    BFR = "bfr"
    FFR = "ffr"
    WFFR = "wffr"
    IDF = "idf"
    HFR = "hfr"
    UFR = "ufr"


class PropScope(enum.Enum):
    __hash__ = object.__hash__

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
    """One property cell.  A cell is a memo key read thousands of times per
    run, so it keeps its hash, taken once from its fields as the generated
    one would be, and its ``reading()`` once computed."""

    kind: PropKind
    alpha: Optional[IrreducibleKind] = None
    beta: Optional[AssociateKind] = None
    scope: PropScope = PropScope.PLAIN

    def __post_init__(self):
        if (self.alpha is not None) != (self.kind in _TAKES_ALPHA):
            raise ValueError(f"{self.kind.value} takes alpha iff it is parameterized by it")
        if (self.beta is not None) != (self.kind in _TAKES_BETA):
            raise ValueError(f"{self.kind.value} takes beta iff it is parameterized by it")
        object.__setattr__(self, "_hash", hash((self.kind, self.alpha, self.beta, self.scope)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt from its fields: an identity hash is per process
        return PropertyId, (self.kind, self.alpha, self.beta, self.scope)

    def reading(self) -> "PropertyId":
        """The cell whose verdict this one reuses: the scope's reading, and
        ``associate`` for a strong beta (every constructible ring is strongly
        associate, README "Design notes", so beta reaches every predicate
        through one orbit key; very-strong keys split orbits)."""
        got = self.__dict__.get("_reading")
        if got is None:
            beta = AssociateKind.ASSOCIATE if self.beta == AssociateKind.STRONG else self.beta
            got = replace(self, beta=beta, scope=self.scope.reading)
            if got == self:
                got = self
            object.__setattr__(self, "_reading", got)
        return got

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
    """A property witness as JSON.  The checks build each witness from
    elements, factorizations, splits and pump witnesses, alone or in a
    dict, so anything else is an element."""
    if isinstance(w, (Factorization, UFactorization)):
        return w.to_json()
    if isinstance(w, PumpWitness):
        return {"pump": ring.element_to_json(w.x), "base": w.base.to_json()}
    if isinstance(w, dict):
        return {k: _witness_json(ring, v) for k, v in w.items()}
    return ring.element_to_json(w)


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

    Associates share their work: the per-element memos are keyed by the
    representative of the element's associate orbit (``orbit``), whose
    results every member's readers take (README, "Design notes").
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
        self._refinable: Optional[bool] = None
        self._domain_orbits: dict = {}
        self._reps = self._orbit_map()

    # -- associate orbits

    def orbit(self, a):
        """The representative of a's associate orbit: the orbit's first
        domain member in ``sort_key`` order, else on a finite ring its first
        non-unit; a itself when a is in no mapped orbit (a unit, or on an
        infinite ring a non-member).
        The memos read ``self._reps.get(a, a)`` inline, as it is hot."""
        return self._reps.get(a, a)

    def orbits(self, elements) -> list:
        """The orbits met in ``elements``, as lists of their members there,
        in order of first member.  Over the sorted domain, or a part of it
        cut by an orbit-invariant test, the first member is the
        representative, so what a loop over orbits names first is the
        element a loop over elements would name first."""
        groups: dict = {}
        for a in elements:
            groups.setdefault(self.orbit(a), []).append(a)
        return list(groups.values())

    def domain_orbits(self, regular: bool = False) -> list:
        """``orbits`` of ``domain(regular)``, grouped once."""
        got = self._domain_orbits.get(regular)
        if got is None:
            got = self._domain_orbits[regular] = self.orbits(self.domain(regular)[0])
        return got

    def _orbit_map(self) -> dict:
        """Each domain element (and on a finite ring each non-unit) mapped
        to its orbit's representative."""
        ring = self.ring
        try:
            members = list(self.domain()[0])
        except (UnsupportedOperationError, PreconditionError):
            members = []  # no domain: the readers raise, or read no orbit
        if ring.is_finite:
            members += ring.nonunits()
        first: dict = {}
        return {a: first.setdefault(ring.associate_key(a, AssociateKind.ASSOCIATE), a) for a in members}

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

    def refinable(self) -> bool:
        """Whether the relation is refinable, decided once from the
        evaluator's enumerations: of every non-unit of a finite ring, whatever
        the scope, and of the scope's non-units on an infinite one."""
        if self._refinable is None:
            ring = self.ring
            targets = ring.nonunits() if ring.is_finite else self.domain()[0]
            # associates have the same factor tuples, so one per orbit
            reps = dict.fromkeys(map(self.orbit, targets))
            self._refinable = check_tau_property(self.tau, reps, self.fs)
        return self._refinable

    def fs(self, a) -> FactorizationSet:
        """The strong-associate enumeration of a's orbit representative, run
        once; one that cannot run raises its error again, with the same
        message, on every call.  A member that is not the representative
        raises its own error, run on itself, so that the message names it."""
        rep = self._reps.get(a, a)
        got = self._fs.get(rep)
        if got is None:
            try:
                got = self._enumerate(rep)
            except UnsupportedOperationError as exc:
                got = exc
            self._fs[rep] = got
        if isinstance(got, UnsupportedOperationError):
            if rep != a:
                self._enumerate(a)
            raise type(got)(*got.args)
        return got

    def _enumerate(self, a) -> FactorizationSet:
        # Infinite rings: the per-element default cap; divisor norms grow,
        # so the search bottoms out below it and verdicts stay exhaustive.
        cap = self.cap if self.ring.is_finite else None
        return enumerate_factorizations(self.ring, self.tau, a, AssociateKind.STRONG, cap=cap)

    def exhaustive(self, a) -> bool:
        return self.fs(a).exhaustive

    def profile(self, a):
        rep = self._reps.get(a, a)
        got = self._profiles.get(rep)
        if got is None:
            fs = self.fs(a)  # a member's own error names it
            got = self._profiles[rep] = classify(self.ring, self.tau, rep, fs=fs)
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
        rep = self._reps.get(a, a)
        got = self._upools.get(rep)
        if got is None:
            pool = []
            for f in self.fs(a).items:
                pool.extend(u_partitions(self.ring, f))
            got = self._upools[rep] = tuple(pool)
        return got

    def alpha_items(self, view: "FactorView", a, alpha: IrreducibleKind) -> tuple:
        """The pieces of a whose atoms are certainly alpha-irreducible, and
        whether some other piece might be."""
        key = (view.name, self._reps.get(a, a), alpha)
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
        a's orbit representative (only its nontrivial pieces with
        ``nontrivial``), collected once per orbit."""
        key = (view.name, self._reps.get(a, a), nontrivial)
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
        key = (self._reps.get(a, a), regular_only)
        got = self._chain.get(key)
        if got is not None:
            return got
        self._chain[key] = 1  # proper containment forbids cycles
        ring = self.ring
        best = 1
        try:
            for b in self.tau.candidates(a, reduce_assoc=True):
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
    ring = ev.ring
    atoms = ev.atom_set(view, a, nontrivial=False)
    if beta == AssociateKind.VERY_STRONG:
        # The trivial piece's one atom is u^-1 * a for the first unit u, an
        # associate of the representative's; a very-strong key can tell
        # the two apart, so take a's own.
        trivial = ring.mul(ring.unit_inverse(ring.units()[0]), a)
        atoms = ev.atom_set(view, a, nontrivial=True) | {trivial}
    atoms = [x for x in atoms if ev.atom_flag(x, alpha) == Flag.TRUE]
    return _ElementOutcome("holds", bound=_beta_class_count(ring, atoms, beta))


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


def _element_outcome(ev: Evaluator, prop: PropertyId, a) -> _ElementOutcome:
    """The outcome of ``prop`` on one element of ``ev``'s scope."""
    k = prop.kind
    view = SPLIT_VIEW if prop.scope == PropScope.REGCAP_U else PLAIN_VIEW
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


def check_property(ev: Evaluator, prop: PropertyId) -> PropertyVerdict:
    """Decide one ring-level property over ``ev``'s scope at its cap;
    exhaustive on finite rings, scoped (and flagged as such) on infinite
    ones.  ``ev`` is on the relation the property's scope reads.

    An element outcome (status and bound) is decided once per orbit
    (``Evaluator.orbit``) and read by every member, but for a very-strong
    beta: a very-strong key splits an orbit, and IDF counts the element's
    own trivial factor.  The first failing element is its orbit's first
    member, so the witness is its own; the note of the last skipped element
    names it, run on itself.

    The verdict records the largest cap of the domain enumerations it read
    (``Evaluator.fs`` picks its own on an infinite ring), or ``ev.cap`` when
    it read none (ACCP, or an empty scope).
    """
    ring = ev.ring
    regular = prop.scope == PropScope.REGULAR
    domain, scoped = ev.domain(regular)
    read = []  # the caps of the domain enumerations the verdict reads

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
    skipped = 0
    undecided = []  # (last member, outcome or error) of each undecided orbit
    shared = prop.beta != AssociateKind.VERY_STRONG
    for orbit in ev.domain_orbits(regular) if shared else [[a] for a in domain]:
        a = orbit[0]
        try:
            out = _element_outcome(ev, prop, a)
        except UnsupportedOperationError as exc:
            skipped += len(orbit)
            undecided.append((orbit[-1], exc))
            continue
        if prop.kind != PropKind.ACCP:
            # the outcome has run ``ev.fs``; ACCP reads divisor chains only
            read.append(ev._fs[ev._reps.get(a, a)].cap)
        if out.status == "fails":
            return PropertyVerdict(
                prop, "fails",
                witness=out.witness if out.witness is not None else a,
                cap=max(read, default=ev.cap), scoped=scoped,
            )
        if out.status == "unknown":
            skipped += len(orbit)
            undecided.append((orbit[-1], out))
        elif out.bound is not None:
            bound = max(bound, out.bound)
    if skipped or atomic_unknown:
        note = "atomicity unknown at cap"
        if undecided:
            # the last undecided element in domain order names the note
            a, out = max(undecided, key=lambda u: ring.sort_key(u[0]))
            if isinstance(out, UnsupportedOperationError):
                if ev.orbit(a) != a:
                    try:
                        _element_outcome(ev, prop, a)
                    except UnsupportedOperationError as own:
                        out = own
                note = f"element {ring.format_element(a)} skipped: {out}"
            else:
                note = out.note
        if skipped:
            note += f" ({skipped} elements undecided)"
        return PropertyVerdict(prop, "unknown", cap=max(read, default=ev.cap), scoped=scoped, note=note)
    note = "vacuous: empty scope" if not domain else ""
    return PropertyVerdict(prop, "holds", bound=bound, cap=max(read, default=ev.cap), scoped=scoped, note=note)


# ---------------------------------------------------------------------------
# Elasticity


@dataclass
class Elasticity:
    value: object  # Fraction | "undefined-empty-scope"
    per_element: dict
    cap: int
    scoped: bool = False
    note: str = ""

    def to_json(self, ring: Ring):
        def enc(v):
            return v if isinstance(v, str) else str(v)

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
    the cap recorded as ``check_property`` records it.

    A regular target never pumps (README, "Design notes"), so no element's
    ratio is infinite: one whose search stopped at the cap is undecided."""
    from fractions import Fraction

    domain, scoped = ev.domain(regular=True)
    if not domain:
        return Elasticity("undefined-empty-scope", {}, ev.cap, scoped)
    per: dict = {}
    note = ""
    for a in domain:
        certain, maybe = ev.alpha_items(PLAIN_VIEW, a, IrreducibleKind.IRREDUCIBLE)
        if not ev.exhaustive(a):
            note = "some elements undecided at cap"
            continue
        if maybe:
            note = "some atomic flags unknown at cap"
            continue
        lengths = [len(f.factors) for f in certain]
        if not lengths:
            continue  # no atomic factorization: no ratio contribution
        per[a] = Fraction(max(lengths), min(lengths))
    cap = max(ev.fs(a).cap for a in domain)  # every element ran ``ev.fs``
    if not per:
        return Elasticity("undefined-empty-scope", per, cap, scoped, note or "no atomic factorizations in scope")
    return Elasticity(max(per.values()), per, cap, scoped, note)
