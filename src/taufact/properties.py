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
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .factor import (
    FactorizationSet,
    PreconditionError,
    canonicalize,
    enumerate_factorizations,
    pump_factor,
    _factor_key,
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
from .relations import TauRelation
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

    def label(self) -> str:
        bits = [self.kind.value]
        if self.alpha is not None:
            bits.append(self.alpha.value)
        if self.beta is not None:
            bits.append(self.beta.name.lower())
        bits.append(self.scope.value)
        return "/".join(bits)


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

    @property
    def decided(self) -> bool:
        return self.outcome != "unknown"

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
    """Shared per-(ring, relation) caches for property and theorem checks."""

    def __init__(self, ring: Ring, tau: TauRelation, cap: int = DEFAULT_PROPERTY_CAP):
        self.ring = ring
        self.tau = tau
        self.cap = cap
        self._fs: dict = {}
        self._profiles: dict = {}
        self._upools: dict = {}
        self._chain: dict = {}
        self._alpha_items: dict = {}

    def fs(self, a) -> FactorizationSet:
        got = self._fs.get(a)
        if got is None:
            # Infinite rings: the per-element default cap; divisor norms grow,
            # so the search bottoms out below it and verdicts stay exhaustive.
            cap = self.cap if self.ring.is_finite else None
            got = enumerate_factorizations(
                self.ring, self.tau, a, AssociateKind.STRONG, cap=cap
            )
            self._fs[a] = got
        return got

    def exhaustive(self, a) -> bool:
        fs = self.fs(a)
        return fs.unbounded == "no" and not fs.budget_exhausted

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
        from .factor import _nontrivial_candidates

        key = (a, regular_only)
        got = self._chain.get(key)
        if got is not None:
            return got
        self._chain[key] = 1  # proper containment forbids cycles
        ring = self.ring
        best = 1
        for b in _nontrivial_candidates(ring, self.tau, a, reduce_assoc=True):
            if regular_only and not ring.is_regular(b):
                continue
            if not ring.cofactors(b, a).is_empty():
                continue  # a divides b back: same ideal, not a proper step
            best = max(best, 1 + self.chain_bound(b, regular_only))
        self._chain[key] = best
        return best


# ---------------------------------------------------------------------------
# Factor views


@dataclass(frozen=True)
class FactorView:
    """How the element predicates read the factorizations of an element.

    ``pieces(ev, a)`` lists them, ``atoms(p)`` gives the factors of a piece
    that must be irreducible, and ``key(ring, a, p, beta)`` is its class up
    to rearrangement and beta-associates.  Every piece also has ``factors``
    (all of them) and ``trivial`` (one factor in total).
    """

    name: str
    pieces: Callable
    atoms: Callable
    key: Callable


def _split_key(ring: Ring, a, u: UFactorization, beta) -> tuple:
    ines = tuple(sorted(_factor_key(ring, a, x, beta) for x in u.inessential))
    ess = tuple(sorted(_factor_key(ring, a, x, beta) for x in u.essential))
    return (ines, ess)


# The lambdas look ``canonicalize`` up when called, so a rebinding of the
# module name (as perfbench's tracer does) reaches every view call.
PLAIN_VIEW = FactorView(
    "plain",
    pieces=lambda ev, a: ev.fs(a).items,
    atoms=lambda f: f.factors,
    key=lambda ring, a, f, beta: canonicalize(ring, f, beta),
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


def _beta_class_count(ring, target, xs, beta) -> int:
    return len({_factor_key(ring, target, x, beta) for x in xs})


def _atomic_element(ev: Evaluator, view: FactorView, a, alpha) -> _ElementOutcome:
    saw_unknown = False
    for p in view.pieces(ev, a):
        status = ev.alpha_status(view.atoms(p), alpha)
        if status == Flag.TRUE:
            return _ElementOutcome("holds", bound=len(view.atoms(p)))
        if status == Flag.UNKNOWN:
            saw_unknown = True
    if ev.exhaustive(a) and not saw_unknown:
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
        # both views count the classes of a very-strong enumeration.
        vs = enumerate_factorizations(ev.ring, ev.tau, a, beta, cap=ev.cap)
        count = len([f for f in vs.items if not f.trivial])
    else:
        keys = {view.key(ev.ring, a, p, beta) for p in view.pieces(ev, a) if not p.trivial}
        count = len(keys)
    return _ElementOutcome("holds", bound=count)


def _wffr_element(ev: Evaluator, view: FactorView, a, beta) -> _ElementOutcome:
    values = set()
    for p in view.pieces(ev, a):
        if not p.trivial:
            values.update(view.atoms(p))
    count = _beta_class_count(ev.ring, a, values, beta)
    note = "" if ev.exhaustive(a) else "count taken at cap"
    return _ElementOutcome("holds", bound=count, note=note)


def _idf_element(ev: Evaluator, view: FactorView, a, alpha, beta) -> _ElementOutcome:
    values = set()
    for p in view.pieces(ev, a):
        values.update(view.atoms(p))
    atoms = []
    saw_unknown = False
    for x in values:
        flag = ev.atom_flag(x, alpha)
        if flag == Flag.TRUE:
            atoms.append(x)
        elif flag == Flag.UNKNOWN:
            saw_unknown = True
    count = _beta_class_count(ev.ring, a, atoms, beta)
    notes = []
    if not ev.exhaustive(a):
        notes.append("count taken at cap")
    if saw_unknown:
        notes.append("some divisor flags unknown")
    return _ElementOutcome("holds", bound=count, note="; ".join(notes))


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
        keys.setdefault(view.key(ev.ring, a, p, beta), p)
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


def _resolve_domain(ring: Ring, prop: PropertyId, scope_elements):
    if scope_elements is None:
        if not ring.is_finite:
            raise UnsupportedOperationError(
                "properties over an infinite ring need an explicit element scope"
            )
        domain = ring.nonunits()
        scoped = False
    else:
        domain = []
        for a in scope_elements:
            if ring.is_unit(a):
                continue
            if a == ring.zero and not ring.is_finite:
                raise PreconditionError("scope for an infinite ring must not contain 0")
            domain.append(a)
        domain = sorted(set(domain), key=ring.sort_key)
        scoped = not ring.is_finite or set(domain) != set(ring.nonunits())
    if prop.scope == PropScope.REGULAR:
        domain = [a for a in domain if ring.classify(a) == ElementClass.REGULAR_NON_UNIT]
    return domain, scoped


def check_property(
    ring: Ring,
    tau: TauRelation,
    prop: PropertyId,
    scope_elements=None,
    cap: Optional[int] = None,
    evaluator: Optional[Evaluator] = None,
) -> PropertyVerdict:
    """Decide one ring-level property; exhaustive on finite rings, scoped
    (and flagged as such) on infinite ones."""
    cap = cap if cap is not None else DEFAULT_PROPERTY_CAP
    domain, scoped = _resolve_domain(ring, prop, scope_elements)
    eff_tau = tau.regcap() if prop.scope in (PropScope.REGCAP, PropScope.REGCAP_U) else tau
    ev = evaluator if evaluator is not None else Evaluator(ring, eff_tau, cap)
    view = SPLIT_VIEW if prop.scope == PropScope.REGCAP_U else PLAIN_VIEW

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

    # HFR and UFR also require atomicity of the whole scope
    if prop.kind in (PropKind.HFR, PropKind.UFR):
        atomic_id = PropertyId(PropKind.ATOMIC, alpha=prop.alpha, scope=prop.scope)
        atomic = check_property(ring, tau, atomic_id, scope_elements, cap, evaluator=ev)
        if atomic.outcome == "fails":
            return PropertyVerdict(
                prop, "fails", witness=atomic.witness, cap=cap, scoped=scoped,
                note="not atomic for this flavor",
            )
        atomic_unknown = atomic.outcome == "unknown"
    else:
        atomic_unknown = False

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
        if out.status == "fails":
            return PropertyVerdict(
                prop, "fails",
                witness=out.witness if out.witness is not None else a,
                cap=cap, scoped=scoped, note=out.note,
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
        return PropertyVerdict(prop, "unknown", cap=cap, scoped=scoped, note=note)
    note = "vacuous: empty scope" if not domain else ""
    return PropertyVerdict(prop, "holds", bound=bound, cap=cap, scoped=scoped, note=note)


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


def elasticity(
    ring: Ring,
    tau: TauRelation,
    scope_elements=None,
    cap: Optional[int] = None,
    evaluator: Optional[Evaluator] = None,
) -> Elasticity:
    """Per-element ratio of longest to shortest atomic factorization length
    over the regular non-units, and its supremum."""
    cap = cap if cap is not None else DEFAULT_PROPERTY_CAP
    prop = PropertyId(PropKind.ATOMIC, alpha=IrreducibleKind.IRREDUCIBLE, scope=PropScope.REGULAR)
    domain, scoped = _resolve_domain(ring, prop, scope_elements)
    if not domain:
        return Elasticity("undefined-empty-scope", {}, cap, scoped)
    ev = evaluator if evaluator is not None else Evaluator(ring, tau, cap)
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
    if infinite:
        return Elasticity("infinite", per, cap, scoped, note)
    finite_vals = [v for v in per.values() if isinstance(v, Fraction)]
    if not finite_vals:
        return Elasticity("undefined-empty-scope", per, cap, scoped, note or "no atomic factorizations in scope")
    return Elasticity(max(finite_vals), per, cap, scoped, note)
