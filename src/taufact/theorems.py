"""Mechanical verification of the factorization laws over a corpus.

Each law is checked per (ring, relation, scope) corpus entry and reported as
verified, inapplicable (a hypothesis such as refinability fails), violated
(with a minimal witness; always an implementation defect), skipped (cap or
support limitation), or informational (computed but deliberately not
asserted).  Verdicts never promote unknown inputs to universal claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .factor import PreconditionError
from .irreducibles import (
    ALPHA_KINDS,
    ALPHA_KINDS_NO_VERY,
    Flag,
    IrreducibleKind,
    hierarchy_violations,
    tau_r_atom,
)
from .properties import (
    REGULAR_PROPS,
    Evaluator,
    PropScope,
    PropertyId,
    PropertyVerdict,
    PLAIN_VIEW,
    _witness_json,
)
from .relations import (
    FullTau,
    RegCapTau,
    RegularTau,
    TauRelation,
    build_tau,
    normal_spec,
    pair_table,
)
from .rings import (
    AssociateKind,
    ElementClass,
    InfiniteSetError,
    IntegerRing,
    Ring,
    UnsupportedOperationError,
)
from .ufact import UDomainError, phi, phi_inverse

BETAS2 = (AssociateKind.ASSOCIATE, AssociateKind.STRONG)

VERIFIED = "verified"
INAPPLICABLE = "inapplicable"
VIOLATED = "violated"
SKIPPED = "skipped"
INFORMATIONAL = "informational"


@dataclass
class TheoremEntry:
    ring: str
    tau: str
    theorem: str
    instance: str
    outcome: str
    witness: Optional[object] = None
    cap: int = 0
    scoped: bool = False
    note: str = ""

    def to_json(self):
        out = {
            "ring": self.ring,
            "tau": self.tau,
            "theorem": self.theorem,
            "instance": self.instance,
            "outcome": self.outcome,
            "cap": self.cap,
            "scoped": self.scoped,
        }
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note:
            out["note"] = self.note
        return out


def _tristate(v: PropertyVerdict):
    if v.outcome == "holds":
        return True
    if v.outcome == "fails":
        return False
    return None


def context_spec(tau: TauRelation):
    """The key of a relation's evaluator among its ring's contexts: the
    normal spec (``relations.normal_spec``) on an infinite ring, and the
    pair table on R# (``relations.pair_table``) on a finite one, where R#
    has no regular element (``Ring._classify``), so no target is regular.
    The engine reads pairs but for six spec tests, each alike within a
    table (full proof in README, "Design notes"): ``_RELATES_NO_PAIR`` and
    the regular-only shortcut leave no candidate, as the partner filter
    does under a table that relates no pair; under ``zero``'s table a
    nonzero target has only trivial factorizations and no pump, and the
    ``candidates`` the ``ZeroProductTau`` shortcut drops change no closure
    and give ``chain_bound`` no proper step; a ``subset`` with a stable
    relation's table relates all of R# or no pair, and the reduction behind
    ``_associate_stable`` keeps each class, first member, pump and cut;
    ``phi_inverse`` and ``_tau_subset_of_regular`` give a regular-only
    relation its table's answer.  Computed tables carry this, not the
    paper's claim about regular targets."""
    if tau.ring.is_finite:
        return pair_table(tau)
    return normal_spec(tau.spec)


def context_evaluator(contexts: dict, ring: Ring, spec, scope, cap: int) -> Evaluator:
    """The evaluator of a relation spec in ``contexts``, which maps the
    context keys (``context_spec``) of ``ring`` at one scope and cap, and
    the normal specs that reached them, to evaluators, and each evaluator
    back to its key; each is built on the relation its key was first read
    from, over ``scope``, at ``cap``."""
    spec = normal_spec(spec)
    got = contexts.get(spec)
    if got is None:
        tau = build_tau(spec, ring)
        key = context_spec(tau)
        if key not in contexts:
            ev = contexts[key] = Evaluator(ring, tau, cap, scope)
            contexts[ev] = key
        got = contexts[spec] = contexts[key]
    return got


def per_context_spec(taus, evaluator, compute, relabel) -> list:
    """``compute(tau)`` for each relation, computed once per evaluator
    (``evaluator(spec)``): a relation whose evaluator an earlier one had
    gets ``relabel(result, tau)`` of that one's result instead."""
    by_ev: dict = {}
    out = []
    for tau in taus:
        ev = evaluator(tau.spec)
        out.append(relabel(by_ev[ev], tau) if ev in by_ev else by_ev.setdefault(ev, compute(tau)))
    return out


class EntryChecker:
    """Runs every theorem family for one corpus entry.

    ``contexts`` holds the evaluators of one ring, scope and cap
    (``context_evaluator``); the checker adds the ones it needs.  An entry
    reads its relation's evaluator (``plain``), its restriction's to regular
    pairs (``restricted``), and for the baseline rows the ``regular`` and
    ``full`` ones.
    """

    def __init__(self, ring: Ring, tau: TauRelation, scope, cap: int, contexts: dict):
        self.ring = ring
        self.ring_label = ring.spec_string()
        self.label = tau.spec_string()
        self.scope = scope
        self.cap = cap
        self.contexts = contexts
        self.plain = self._context(tau.spec)
        self.restricted = self._context(RegCapTau(tau.spec))
        self.domain, self.scoped = self.plain.domain()
        self.regular_domain, _ = self.plain.domain(regular=True)
        self.entries: list = []
        self.refinable = self.plain.refinable()

    # -- plumbing

    def _context(self, spec) -> Evaluator:
        """The evaluator of a relation spec."""
        return context_evaluator(self.contexts, self.ring, spec, self.scope, self.cap)

    def prop(self, name, scope=PropScope.REGULAR, alpha=None, beta=None, ev=None) -> PropertyVerdict:
        """The verdict of ``REGULAR_PROPS[name]`` at ``scope``, with its alpha
        and beta unless given, read from ``ev`` or else from the entry's
        relation or its restriction, as the scope says."""
        base = REGULAR_PROPS[name]
        cell = PropertyId(base.kind, alpha or base.alpha, beta or base.beta, scope)
        if ev is None:
            ev = self.restricted if scope.restricted else self.plain
        return ev.verdict(cell)

    def emit(self, theorem, instance, outcome, witness=None, note=""):
        self.entries.append(
            TheoremEntry(
                ring=self.ring_label,
                tau=self.label,
                theorem=theorem,
                instance=instance,
                outcome=outcome,
                witness=witness,
                cap=self.cap,
                scoped=self.scoped,
                note=note,
            )
        )

    def _ej(self, x):
        return self.ring.element_to_json(x)

    def implication(self, theorem, instance, lhs, rhs, gated=False, informational=False):
        """lhs and rhs are PropertyVerdicts; asserts lhs holds => rhs holds."""
        self._law(theorem, instance, lhs, rhs, False, gated, informational)

    def equivalence(self, theorem, instance, lhs, rhs, gated=False, informational=False):
        """Asserts lhs holds <=> rhs holds."""
        self._law(theorem, instance, lhs, rhs, True, gated, informational)

    def _law(self, theorem, instance, lhs, rhs, both_ways, gated, informational):
        """The one rule of a law row: inapplicable when ``gated`` on a relation
        that is not refinable, skipped when a side is undecided, violated
        (informational when only flagged) when lhs => rhs fails, or with
        ``both_ways`` when lhs <=> rhs does, else verified."""
        if gated and not self.refinable.holds:
            self.emit(theorem, instance, INAPPLICABLE, note="relation not refinable")
            return
        l, r = _tristate(lhs), _tristate(rhs)
        if l is None or r is None:
            self.emit(theorem, instance, SKIPPED, note="undecided side at cap")
            return
        if not (l != r if both_ways else l and not r):
            self.emit(theorem, instance, INFORMATIONAL if informational else VERIFIED)
            return
        if both_ways:
            law = "equivalence"
            witness = {
                "lhs": lhs.prop.label(),
                "lhs_outcome": lhs.outcome,
                "rhs": rhs.prop.label(),
                "rhs_outcome": rhs.outcome,
            }
        else:
            law = "implication"
            witness = {
                "lhs": lhs.prop.label(),
                "rhs": rhs.prop.label(),
                "rhs_witness": _witness_json(self.ring, rhs.witness)
                if rhs.witness is not None
                else None,
            }
        self.emit(
            theorem,
            instance,
            INFORMATIONAL if informational else VIOLATED,
            witness=witness,
            note=f"flagged: {law} contradicted" if informational else "",
        )

    # -- theorem families

    def run(self) -> list:
        self.emit(
            "relation-predicates",
            "refinable",
            INFORMATIONAL,
            note=f"refinable: {self.refinable.outcome}",
        )
        self.family_hierarchy()
        self.family_trivial_associates()
        self.family_atom_five_way()
        self.family_regular_collapse()
        self.family_zero_divisor_atoms()
        self.family_ring_atomicity_five_way()
        self.family_eight_way()
        self.family_regular_vs_restricted()
        self.family_plain_implies_regular()
        self.family_regular_relation_baseline()
        self.family_split_equivalences()
        self.family_essential_divisors()
        self.family_nontrivial_coincide()
        self.family_plain_arrow_diagram()
        self.family_regular_arrow_diagram()
        return self.entries

    def family_hierarchy(self):
        theorem = "irreducible-hierarchy"
        checked = skipped = 0
        for a in self.domain:
            try:
                profile = self.plain.profile(a)
            except UnsupportedOperationError:
                skipped += 1
                continue
            bad = hierarchy_violations(profile)
            if bad:
                self.emit(
                    theorem,
                    "arrows",
                    VIOLATED,
                    witness={
                        "element": self._ej(a),
                        "arrow": [k.value for k in bad[0]],
                        "flags": {k.value: v.value for k, v in profile.flags.items()},
                    },
                )
                return
            checked += 1
        note = f"{checked} elements"
        if skipped:
            note += f", {skipped} skipped (enumeration unsupported)"
        self.emit(theorem, "arrows", VERIFIED, note=note)

    def family_trivial_associates(self):
        theorem = "trivial-factorization-associates"
        ring = self.ring
        units = ring.units()
        inv = {u: ring.unit_inverse(u) for u in units}
        for a in self.domain:
            factors = {ring.mul(inv[u], a) for u in units}
            base = next(iter(factors))
            for x in factors:
                if not ring.associated(base, x, AssociateKind.STRONG):
                    self.emit(
                        theorem,
                        "strong",
                        VIOLATED,
                        witness={"element": self._ej(a), "pair": [self._ej(base), self._ej(x)]},
                    )
                    return
        self.emit(theorem, "strong", VERIFIED, note=f"{len(self.domain)} elements, {len(units)} units")

    def family_atom_five_way(self):
        theorem = "regular-atom-five-way"
        dom = self.regular_domain
        if not dom:
            self.emit(theorem, "conditions", VERIFIED, note="vacuous: no regular non-units")
            return
        for a in dom:
            try:
                res = tau_r_atom(self.ring, self.plain.tau, a, fs=self.plain.fs(a))
            except UnsupportedOperationError:
                self.emit(theorem, "conditions", SKIPPED, note=f"element {self.ring.format_element(a)} incomplete")
                return
            if len(set(res.conditions)) != 1:
                self.emit(
                    theorem,
                    "conditions",
                    VIOLATED,
                    witness={"element": self._ej(a), "conditions": list(res.conditions)},
                )
                return
        self.emit(theorem, "conditions", VERIFIED, note=f"{len(dom)} regular non-units")

    def family_regular_collapse(self):
        theorem = "regular-collapse-six-way"
        dom = self.regular_domain
        if not dom:
            self.emit(theorem, "conditions", VERIFIED, note="vacuous: no regular non-units")
            return
        for a in dom:
            try:
                res = tau_r_atom(self.ring, self.plain.tau, a, fs=self.plain.fs(a))
            except UnsupportedOperationError:
                self.emit(theorem, "conditions", SKIPPED, note=f"element {self.ring.format_element(a)} incomplete")
                return
            profile = self.restricted.profile(a)
            bits = [res.is_atom]
            undecided = False
            for kind in ALPHA_KINDS:
                flag = profile[kind]
                if flag == Flag.UNKNOWN:
                    undecided = True
                    break
                bits.append(flag == Flag.TRUE)
            if undecided:
                self.emit(theorem, "conditions", SKIPPED, note="restricted-relation flags undecided")
                return
            if len(set(bits)) != 1:
                self.emit(
                    theorem,
                    "conditions",
                    VIOLATED,
                    witness={"element": self._ej(a), "bits": bits},
                )
                return
        self.emit(theorem, "conditions", VERIFIED, note=f"{len(dom)} regular non-units")

    def family_zero_divisor_atoms(self):
        theorem = "zero-divisor-atoms"
        dom = [
            a
            for a in self.domain
            if self.ring.classify(a) in (ElementClass.ZERO, ElementClass.ZERO_DIVISOR)
        ]
        if not dom:
            self.emit(theorem, "flags", VERIFIED, note="vacuous: no zero divisors in scope")
            return
        for a in dom:
            profile = self.restricted.profile(a)
            for kind in ALPHA_KINDS_NO_VERY:
                if profile[kind] != Flag.TRUE:
                    self.emit(
                        theorem,
                        "flags",
                        VIOLATED,
                        witness={
                            "element": self._ej(a),
                            "kind": kind.value,
                            "flag": profile[kind].value,
                        },
                    )
                    return
        self.emit(theorem, "flags", VERIFIED, note=f"{len(dom)} zero divisors")

    def family_ring_atomicity_five_way(self):
        theorem = "ring-atomicity-five-way"
        lhs = self.prop("atomic")
        for alpha in ALPHA_KINDS_NO_VERY:
            rhs = self.prop("atomic", PropScope.REGCAP, alpha)
            self.equivalence(theorem, f"regular-atomic<=>restricted-{alpha.value}", lhs, rhs)

    # -- eight-way finiteness equivalence (needs refinability)

    def _atomic_class_finiteness(self) -> Optional[bool]:
        """Condition: every regular non-unit has finitely many atomic
        factorizations up to rearrangement and associates."""
        ev = self.plain
        irr = IrreducibleKind.IRREDUCIBLE
        for a in self.regular_domain:
            try:
                _, maybe = ev.alpha_items(PLAIN_VIEW, a, irr)
            except UnsupportedOperationError:
                return None
            if ev.pumped_atomic(PLAIN_VIEW, a, irr) is not None:
                return False
            if not ev.exhaustive(a) or maybe:
                return None
        return True

    def _every_regular(self, test) -> Optional[bool]:
        """True when ``test`` holds on every regular non-unit; None at the
        first element where it fails or cannot be decided."""
        for a in self.regular_domain:
            try:
                if not test(a):
                    return None
            except (UnsupportedOperationError, InfiniteSetError):
                return None
        return True

    def family_eight_way(self):
        theorem = "refinable-finiteness-eight-way"
        if not self.refinable.holds:
            self.emit(theorem, "conditions", INAPPLICABLE, note="relation not refinable")
            return
        c1, c2, atomic, idf = (_tristate(self.prop(n)) for n in ("ffr", "wffr", "atomic", "idf"))
        c3 = None if atomic is None or idf is None else (atomic and idf)
        fin = self._atomic_class_finiteness()
        c4 = None if atomic is None or fin is None else (atomic and fin)
        # finitely many regular factor classes per element, by an exhaustive
        # enumeration or by a finite divisor set (every factor is a divisor;
        # ``divisors`` raises InfiniteSetError on an infinite one)
        c5 = self._every_regular(self.plain.exhaustive)
        c7 = self._every_regular(self.ring.divisors)
        c6, c8 = c5, c7  # ideal-containment restatements share the class counts
        conds = [c1, c2, c3, c4, c5, c6, c7, c8]
        if any(c is None for c in conds):
            self.emit(theorem, "conditions", SKIPPED, note="some condition undecided at cap")
            return
        if len(set(conds)) != 1:
            self.emit(
                theorem,
                "conditions",
                VIOLATED,
                witness={"conditions": conds},
            )
            return
        self.emit(theorem, "conditions", VERIFIED, note=f"all eight: {conds[0]}")

    # -- regular-scope vs restricted-relation equivalences

    def family_regular_vs_restricted(self):
        theorem = "regular-vs-restricted-properties"
        cap_ = PropScope.REGCAP
        for name in ("accp", "bfr"):
            self.equivalence(theorem, name, self.prop(name), self.prop(name, cap_))
        for beta in BETAS2:
            for name in ("wffr", "ffr"):
                rhs = self.prop(name, cap_, beta=beta)
                self.equivalence(theorem, f"{name}-{beta.name.lower()}", self.prop(name), rhs)
        atomic_idf = _combine_and(self.prop("atomic"), self.prop("idf"))
        for alpha in ALPHA_KINDS_NO_VERY:
            rhs = self.prop("hfr", cap_, alpha)
            self.equivalence(theorem, f"hfr-{alpha.value}", self.prop("hfr"), rhs)
            for beta in BETAS2:
                cell = f"{alpha.value}-{beta.name.lower()}"
                for name in ("ufr", "idf"):
                    rhs = self.prop(name, cap_, alpha, beta)
                    self.equivalence(theorem, f"{name}-{cell}", self.prop(name), rhs)
                rhs = _combine_and(self.prop("atomic", cap_, alpha), self.prop("idf", cap_, alpha, beta))
                self.equivalence(theorem, f"atomic-idf-{cell}", atomic_idf, rhs)
        # refinable consequence: (6) <=> (7) <=> (8) on the restricted side
        wffr_r = self.prop("wffr", cap_)
        conj_r = _combine_and(self.prop("atomic", cap_), self.prop("idf", cap_))
        self.equivalence(theorem, "refinable-wffr<=>ffr", wffr_r, self.prop("ffr", cap_), gated=True)
        self.equivalence(theorem, "refinable-wffr<=>atomic-idf", wffr_r, conj_r, gated=True)
        # excluded parameter cells: computed, never asserted
        rhs_very = self.prop("atomic", cap_, IrreducibleKind.VERY_STRONG)
        self.equivalence(
            theorem, "informational-atomic-very-strong", self.prop("atomic"), rhs_very, informational=True
        )

    def family_plain_implies_regular(self):
        theorem = "plain-implies-regular-properties"
        plain = PropScope.PLAIN
        for name in ("bfr", "accp"):
            self.implication(theorem, name, self.prop(name, plain), self.prop(name))
        for alpha in ALPHA_KINDS_NO_VERY:
            for name in ("atomic", "hfr"):
                lhs = self.prop(name, plain, alpha)
                self.implication(theorem, f"{name}-{alpha.value}", lhs, self.prop(name))
            for beta in BETAS2:
                for name in ("ufr", "idf"):
                    lhs = self.prop(name, plain, alpha, beta)
                    self.implication(theorem, f"{name}-{alpha.value}-{beta.name.lower()}", lhs, self.prop(name))
        for beta in BETAS2:
            for name in ("ffr", "wffr"):
                lhs = self.prop(name, plain, beta=beta)
                self.implication(theorem, f"{name}-{beta.name.lower()}", lhs, self.prop(name))

    def _tau_subset_of_regular(self) -> Optional[bool]:
        tau = self.plain.tau
        if tau.regular_only:
            return True
        ring = self.ring
        if ring.is_finite:
            # R# of a finite ring holds no regular element (see
            # ``context_spec``), so the relation stays within regular pairs
            # exactly when it relates no pair of R#: when no pair of its
            # context key, the pair table, holds
            return not any(self.contexts[self.plain])
        # Z is a domain, so its nonzero elements are regular; the other
        # infinite rings are products, where two nonzero components
        # annihilate each other
        if isinstance(ring, IntegerRing):
            return True
        return None  # cannot certify

    def family_regular_relation_baseline(self):
        theorem = "regular-relation-baseline"
        sub = self._tau_subset_of_regular()
        if sub is None:
            self.emit(theorem, "hypothesis", INAPPLICABLE, note="cannot certify relation stays within regular pairs")
            return
        if not sub:
            self.emit(theorem, "hypothesis", INAPPLICABLE, note="relation relates zero divisors")
            return
        # the properties of the ``regular`` relation
        ev = self._context(RegularTau())
        base = {name: self.prop(name, ev=ev) for name in ("bfr", "ffr", "wffr", "accp", "hfr", "ufr")}
        for name in ("bfr", "ffr", "wffr", "accp"):
            self.implication(theorem, name, base[name], self.prop(name))
        # corollary: the baseline finite-factorization rings satisfy the chain
        # condition, and are atomic when the relation is refinable
        for name in ("ufr", "ffr", "hfr", "bfr"):
            self.implication(theorem, f"corollary-{name}-accp", base[name], base["accp"])
            self.implication(theorem, f"corollary-{name}-tau-accp", base[name], self.prop("accp"))
            self.implication(
                theorem, f"corollary-{name}-atomic", base[name], self.prop("atomic"), gated=True
            )

    def family_split_equivalences(self):
        """Each property read through the splits against its regcap-all twin."""
        theorem = "split-equivalences"

        def twins(instance, name, alpha=None, beta=None):
            lhs = self.prop(name, PropScope.REGCAP_U, alpha, beta)
            self.equivalence(theorem, instance, lhs, self.prop(name, PropScope.REGCAP, alpha, beta))

        for name in ("accp", "bfr"):
            twins(name, name)
        for beta in BETAS2:
            for name in ("ffr", "wffr"):
                twins(f"{name}-{beta.name.lower()}", name, beta=beta)
        for alpha in ALPHA_KINDS_NO_VERY:
            for name in ("atomic", "hfr"):
                twins(f"{name}-{alpha.value}", name, alpha)
            for beta in BETAS2:
                for name in ("ufr", "idf"):
                    twins(f"{name}-{alpha.value}-{beta.name.lower()}", name, alpha, beta)

    def family_essential_divisors(self):
        theorem = "essential-divisor-lemma"
        ring = self.ring
        checked = 0
        for a in self.domain:
            if not self.restricted.exhaustive(a):
                self.emit(theorem, "empty-inessential", SKIPPED, note=f"element {ring.format_element(a)} incomplete")
                return
            for uf in self.restricted.u_pool(a):
                if uf.inessential:
                    self.emit(
                        theorem,
                        "empty-inessential",
                        VIOLATED,
                        witness=uf.to_json(),
                    )
                    return
                back = phi_inverse(ring, self.restricted.tau, phi(uf))
                if back != uf:
                    self.emit(theorem, "round-trip", VIOLATED, witness=uf.to_json())
                    return
            for f in self.restricted.fs(a).items:
                try:
                    uf = phi_inverse(ring, self.restricted.tau, f)
                except UDomainError as exc:
                    self.emit(theorem, "round-trip", VIOLATED, witness=f.to_json(), note=str(exc))
                    return
                if phi(uf).factors != f.factors or phi(uf).unit != f.unit:
                    self.emit(theorem, "round-trip", VIOLATED, witness=f.to_json())
                    return
                checked += 1
        self.emit(theorem, "empty-inessential", VERIFIED, note=f"{checked} factorizations")
        self.emit(theorem, "round-trip", VERIFIED, note=f"{checked} factorizations")

    def family_nontrivial_coincide(self):
        theorem = "restricted-nontrivial-coincide"
        dom = self.regular_domain
        if not dom:
            self.emit(theorem, "classes", VERIFIED, note="vacuous: no regular non-units")
            return
        for a in dom:
            try:
                plain_fs = self.plain.fs(a)
            except UnsupportedOperationError:
                self.emit(theorem, "classes", SKIPPED, note="plain enumeration unsupported")
                return
            reg_fs = self.restricted.fs(a)
            if not (self.plain.exhaustive(a) and self.restricted.exhaustive(a)):
                self.emit(theorem, "classes", SKIPPED, note="incomplete enumeration")
                return
            plain_keys = {k for k, f in plain_fs.classes.items() if not f.trivial}
            reg_keys = {k for k, f in reg_fs.classes.items() if not f.trivial}
            if plain_keys != reg_keys:
                self.emit(
                    theorem,
                    "classes",
                    VIOLATED,
                    witness={"element": self._ej(a)},
                )
                return
        self.emit(theorem, "classes", VERIFIED, note=f"{len(dom)} regular non-units")

    def family_plain_arrow_diagram(self):
        theorem = "finite-factorization-arrows"
        plain = PropScope.PLAIN
        bfr, accp, atomic0 = (self.prop(name, plain) for name in ("bfr", "accp", "atomic"))
        self.implication(theorem, "bfr=>accp", bfr, accp, gated=True)
        self.implication(theorem, "accp=>atomic", accp, atomic0, gated=True)
        full_accp = self._full_relation_accp()
        if full_accp is not None:
            self.implication(theorem, "plain-accp=>relation-accp", full_accp, accp)
        for beta in BETAS2:
            ffr, wffr = (self.prop(name, plain, beta=beta) for name in ("ffr", "wffr"))
            bl = beta.name.lower()
            self.implication(theorem, f"ffr=>bfr-{bl}", ffr, bfr)
            self.implication(theorem, f"ffr=>wffr-{bl}", ffr, wffr)
            idf0 = self.prop("idf", plain, beta=beta)
            self.implication(
                theorem, f"wffr=>atomic-idf-{bl}", wffr, _combine_and(atomic0, idf0), gated=True
            )
            for alpha in ALPHA_KINDS_NO_VERY:
                al = alpha.value
                ufr = self.prop("ufr", plain, alpha, beta)
                hfr = self.prop("hfr", plain, alpha)
                idf = self.prop("idf", plain, alpha, beta)
                self.implication(theorem, f"ufr=>hfr-{al}-{bl}", ufr, hfr)
                self.implication(theorem, f"ufr=>ffr-{al}-{bl}", ufr, ffr, gated=True)
                self.implication(theorem, f"hfr=>bfr-{al}", hfr, bfr, gated=True)
                self.implication(theorem, f"wffr=>idf-{al}-{bl}", wffr, idf)
                # alternative transcription, flagged but never asserted
                self.implication(theorem, f"flag-hfr=>ffr-{al}-{bl}", hfr, ffr, gated=True, informational=True)

    def _full_relation_accp(self) -> Optional[PropertyVerdict]:
        try:
            return self.prop("accp", PropScope.PLAIN, ev=self._context(FullTau()))
        except (UnsupportedOperationError, PreconditionError):
            return None

    def family_regular_arrow_diagram(self):
        theorem = "regular-factorization-arrows"
        ufr, hfr, ffr, wffr, bfr, accp, atomic, idf = map(
            self.prop, ("ufr", "hfr", "ffr", "wffr", "bfr", "accp", "atomic", "idf")
        )
        accp_plain = self.prop("accp", PropScope.PLAIN)
        self.implication(theorem, "ufr=>hfr", ufr, hfr)
        self.implication(theorem, "hfr=>bfr", hfr, bfr, gated=True)
        self.implication(theorem, "ufr=>ffr", ufr, ffr, gated=True)
        self.implication(theorem, "ffr=>bfr", ffr, bfr)
        self.implication(theorem, "bfr=>accp", bfr, accp, gated=True)
        self.implication(theorem, "accp=>atomic", accp, atomic, gated=True)
        self.implication(theorem, "plain-accp=>regular-accp", accp_plain, accp)
        self.equivalence(theorem, "ffr<=>wffr", ffr, wffr, gated=True)
        self.equivalence(theorem, "wffr<=>atomic-idf", wffr, _combine_and(atomic, idf), gated=True)
        self.implication(theorem, "atomic-idf=>idf", _combine_and(atomic, idf), idf)


def _combine_and(a: PropertyVerdict, b: PropertyVerdict) -> PropertyVerdict:
    """Conjunction verdict for paired properties (atomic + divisor-finite)."""
    ta, tb = _tristate(a), _tristate(b)
    if ta is False or tb is False:
        outcome = "fails"
        witness = a.witness if ta is False else b.witness
    elif ta is None or tb is None:
        outcome, witness = "unknown", None
    else:
        outcome, witness = "holds", None
    out = PropertyVerdict(
        prop=a.prop, outcome=outcome, witness=witness, cap=a.cap, scoped=a.scoped,
        note=f"conjunction({a.prop.label()}, {b.prop.label()})",
    )
    return out


def verify_corpus_entry(ring: Ring, tau: TauRelation, scope, cap: int, contexts: dict) -> list:
    checker = EntryChecker(ring, tau, scope, cap, contexts)
    return checker.run()


def verify_corpus_entries(ring: Ring, taus, scope, cap: int, contexts: dict) -> list:
    """The JSON rows of each entry of one ring.  Rows depend on the relation
    only through its evaluator (which fixes its restriction's) and the
    ``tau`` label, so an entry whose evaluator an earlier one had gets its
    rows, relabelled."""
    return per_context_spec(
        taus,
        lambda spec: context_evaluator(contexts, ring, spec, scope, cap),
        lambda tau: [e.to_json() for e in verify_corpus_entry(ring, tau, scope, cap, contexts)],
        _relabel,
    )


def _relabel(rows, tau) -> list:
    """``rows`` with the ``tau`` label of ``tau``."""
    label = tau.spec_string()
    return [{**row, "tau": label} for row in rows]


def summarize(outcomes) -> dict:
    """Rows per outcome, every outcome present, keys sorted."""
    summary = dict.fromkeys((VERIFIED, INAPPLICABLE, VIOLATED, SKIPPED, INFORMATIONAL), 0)
    for outcome in outcomes:
        summary[outcome] = summary.get(outcome, 0) + 1
    return dict(sorted(summary.items()))
