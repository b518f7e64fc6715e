"""Mechanical verification of the factorization laws over a corpus.

Each law is checked per (ring, relation, scope) corpus entry and reported as
verified, inapplicable (a hypothesis such as refinability fails), violated
(with a minimal witness; always an implementation defect), skipped (cap or
support limitation), or informational (computed but deliberately not
asserted).  Verdicts never promote unknown inputs to universal claims.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .factor import PreconditionError
from .irreducibles import (
    ALPHA_KINDS_NO_VERY,
    Flag,
    IrreducibleKind,
    hierarchy_violations,
    tau_r_atom,
)
from .properties import (
    Evaluator,
    PropKind,
    PropScope,
    PropertyId,
    PropertyVerdict,
    PLAIN_VIEW,
    check_property,
    _witness_json,
)
from .relations import (
    RegularTau,
    TauProperty,
    TauRelation,
    build_tau,
    check_tau_property,
)
from .rings import (
    AssociateKind,
    ElementClass,
    InfiniteSetError,
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


class EntryChecker:
    """Runs every theorem family for one corpus entry."""

    def __init__(self, ring: Ring, tau: TauRelation, scope, cap: int, ring_cache: dict):
        self.ring = ring
        self.tau = tau
        if scope is not None:
            scope = sorted(
                {a for a in scope if not ring.is_unit(a) and (ring.is_finite or a != ring.zero)},
                key=ring.sort_key,
            )
        self.scope = scope  # None for finite rings, else a sorted element list
        self.cap = cap
        self.scoped = scope is not None and not ring.is_finite
        self.ring_cache = ring_cache
        self.ev_plain = Evaluator(ring, tau, cap)
        self.ev_regcap = Evaluator(ring, tau.regcap(), cap)
        self._verdicts: dict = {}
        self.entries: list = []
        self.refinable = check_tau_property(
            tau, TauProperty.REFINABLE, scope=scope, cap=cap,
            fs_provider=self.ev_plain.fs,
        )

    # -- plumbing

    def domain(self) -> list:
        if self.scope is not None:
            return self.scope
        return self.ring.nonunits()

    def verdict(self, prop: PropertyId) -> PropertyVerdict:
        got = self._verdicts.get(prop)
        if got is None:
            ev = (
                self.ev_regcap
                if prop.scope in (PropScope.REGCAP, PropScope.REGCAP_U)
                else self.ev_plain
            )
            got = check_property(
                self.ring, self.tau, prop, self.scope, self.cap, evaluator=ev
            )
            self._verdicts[prop] = got
        return got

    def emit(self, theorem, instance, outcome, witness=None, note=""):
        self.entries.append(
            TheoremEntry(
                ring=self.ring.spec_string(),
                tau=self.tau.spec_string(),
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
        if gated and not self.refinable.holds:
            self.emit(theorem, instance, INAPPLICABLE, note="relation not refinable")
            return
        l, r = _tristate(lhs), _tristate(rhs)
        if l is None or r is None:
            self.emit(theorem, instance, SKIPPED, note="undecided side at cap")
            return
        if l and not r:
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
                note="flagged: implication contradicted" if informational else "",
            )
            return
        self.emit(theorem, instance, INFORMATIONAL if informational else VERIFIED)

    def equivalence(self, theorem, instance, lhs, rhs, gated=False, informational=False):
        if gated and not self.refinable.holds:
            self.emit(theorem, instance, INAPPLICABLE, note="relation not refinable")
            return
        l, r = _tristate(lhs), _tristate(rhs)
        if l is None or r is None:
            self.emit(theorem, instance, SKIPPED, note="undecided side at cap")
            return
        if l != r:
            witness = {
                "lhs": lhs.prop.label(),
                "lhs_outcome": lhs.outcome,
                "rhs": rhs.prop.label(),
                "rhs_outcome": rhs.outcome,
            }
            self.emit(
                theorem,
                instance,
                INFORMATIONAL if informational else VIOLATED,
                witness=witness,
                note="flagged: equivalence contradicted" if informational else "",
            )
            return
        self.emit(theorem, instance, INFORMATIONAL if informational else VERIFIED)

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
        for a in self.domain():
            try:
                profile = self.ev_plain.profile(a)
            except UnsupportedOperationError:
                skipped += 1
                continue
            bad = hierarchy_violations(profile, self.ring.is_strongly_associate())
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
        for a in self.domain():
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
        self.emit(theorem, "strong", VERIFIED, note=f"{len(self.domain())} elements, {len(units)} units")

    def _regular_domain(self):
        return [
            a
            for a in self.domain()
            if self.ring.classify(a) == ElementClass.REGULAR_NON_UNIT
        ]

    def family_atom_five_way(self):
        theorem = "regular-atom-five-way"
        dom = self._regular_domain()
        if not dom:
            self.emit(theorem, "conditions", VERIFIED, note="vacuous: no regular non-units")
            return
        for a in dom:
            try:
                res = tau_r_atom(self.ring, self.tau, a, fs=self.ev_plain.fs(a))
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
        dom = self._regular_domain()
        if not dom:
            self.emit(theorem, "conditions", VERIFIED, note="vacuous: no regular non-units")
            return
        for a in dom:
            try:
                res = tau_r_atom(self.ring, self.tau, a, fs=self.ev_plain.fs(a))
            except UnsupportedOperationError:
                self.emit(theorem, "conditions", SKIPPED, note=f"element {self.ring.format_element(a)} incomplete")
                return
            profile = self.ev_regcap.profile(a)
            bits = [res.is_atom]
            undecided = False
            for kind in (
                IrreducibleKind.IRREDUCIBLE,
                IrreducibleKind.STRONG,
                IrreducibleKind.M,
                IrreducibleKind.UNREFINABLE,
                IrreducibleKind.VERY_STRONG,
            ):
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
            for a in self.domain()
            if self.ring.classify(a) in (ElementClass.ZERO, ElementClass.ZERO_DIVISOR)
        ]
        if not dom:
            self.emit(theorem, "flags", VERIFIED, note="vacuous: no zero divisors in scope")
            return
        need = (
            IrreducibleKind.IRREDUCIBLE,
            IrreducibleKind.STRONG,
            IrreducibleKind.M,
            IrreducibleKind.UNREFINABLE,
        )
        for a in dom:
            profile = self.ev_regcap.profile(a)
            for kind in need:
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
        lhs = self.verdict(
            PropertyId(PropKind.ATOMIC, alpha=IrreducibleKind.IRREDUCIBLE, scope=PropScope.REGULAR)
        )
        for alpha in ALPHA_KINDS_NO_VERY:
            rhs = self.verdict(PropertyId(PropKind.ATOMIC, alpha=alpha, scope=PropScope.REGCAP))
            self.equivalence(theorem, f"regular-atomic<=>restricted-{alpha.value}", lhs, rhs)

    # -- eight-way finiteness equivalence (needs refinability)

    def _atomic_class_finiteness(self):
        """Condition: every regular non-unit has finitely many atomic
        factorizations up to rearrangement and associates."""
        ev = self.ev_plain
        irr = IrreducibleKind.IRREDUCIBLE
        for a in self._regular_domain():
            try:
                _, maybe = ev.alpha_items(PLAIN_VIEW, a, irr)
            except UnsupportedOperationError:
                return None, a
            if ev.pumped_atomic(PLAIN_VIEW, a, irr) is not None:
                return False, a
            if not ev.exhaustive(a) or maybe:
                return None, a
        return True, None

    def _factor_class_count_finite(self, use_divides: bool):
        """Conditions: finitely many regular factor classes per element, via
        either an exhaustive enumeration or a finite divisor set (every factor
        is a divisor); None at the first element where neither is decided."""
        ring = self.ring
        for a in self._regular_domain():
            try:
                if use_divides:
                    ring.divisors(a)
                elif not self.ev_plain.exhaustive(a):
                    return None, a
            except (UnsupportedOperationError, InfiniteSetError):
                return None, a
        return True, None

    def family_eight_way(self):
        theorem = "refinable-finiteness-eight-way"
        if not self.refinable.holds:
            self.emit(theorem, "conditions", INAPPLICABLE, note="relation not refinable")
            return
        c1 = _tristate(
            self.verdict(PropertyId(PropKind.FFR, beta=AssociateKind.ASSOCIATE, scope=PropScope.REGULAR))
        )
        c2 = _tristate(
            self.verdict(PropertyId(PropKind.WFFR, beta=AssociateKind.ASSOCIATE, scope=PropScope.REGULAR))
        )
        atomic = _tristate(
            self.verdict(PropertyId(PropKind.ATOMIC, alpha=IrreducibleKind.IRREDUCIBLE, scope=PropScope.REGULAR))
        )
        idf = _tristate(
            self.verdict(
                PropertyId(PropKind.IDF, alpha=IrreducibleKind.IRREDUCIBLE, beta=AssociateKind.ASSOCIATE, scope=PropScope.REGULAR)
            )
        )
        c3 = None if atomic is None or idf is None else (atomic and idf)
        fin, bad = self._atomic_class_finiteness()
        c4 = None if atomic is None or fin is None else (atomic and fin)
        c5, bad5 = self._factor_class_count_finite(use_divides=False)
        c7, bad7 = self._factor_class_count_finite(use_divides=True)
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
        reg = PropScope.REGULAR
        cap_ = PropScope.REGCAP
        acc_l = self.verdict(PropertyId(PropKind.ACCP, scope=reg))
        acc_r = self.verdict(PropertyId(PropKind.ACCP, scope=cap_))
        self.equivalence(theorem, "accp", acc_l, acc_r)
        ufr_l = self.verdict(
            PropertyId(PropKind.UFR, alpha=IrreducibleKind.IRREDUCIBLE, beta=AssociateKind.ASSOCIATE, scope=reg)
        )
        hfr_l = self.verdict(PropertyId(PropKind.HFR, alpha=IrreducibleKind.IRREDUCIBLE, scope=reg))
        bfr_l = self.verdict(PropertyId(PropKind.BFR, scope=reg))
        idf_l = self.verdict(
            PropertyId(PropKind.IDF, alpha=IrreducibleKind.IRREDUCIBLE, beta=AssociateKind.ASSOCIATE, scope=reg)
        )
        atomic_l = self.verdict(
            PropertyId(PropKind.ATOMIC, alpha=IrreducibleKind.IRREDUCIBLE, scope=reg)
        )
        wffr_l = self.verdict(PropertyId(PropKind.WFFR, beta=AssociateKind.ASSOCIATE, scope=reg))
        ffr_l = self.verdict(PropertyId(PropKind.FFR, beta=AssociateKind.ASSOCIATE, scope=reg))
        self.equivalence(theorem, "bfr", bfr_l, self.verdict(PropertyId(PropKind.BFR, scope=cap_)))
        for beta in BETAS2:
            self.equivalence(
                theorem,
                f"wffr-{beta.name.lower()}",
                wffr_l,
                self.verdict(PropertyId(PropKind.WFFR, beta=beta, scope=cap_)),
            )
            self.equivalence(
                theorem,
                f"ffr-{beta.name.lower()}",
                ffr_l,
                self.verdict(PropertyId(PropKind.FFR, beta=beta, scope=cap_)),
            )
        for alpha in ALPHA_KINDS_NO_VERY:
            self.equivalence(
                theorem,
                f"hfr-{alpha.value}",
                hfr_l,
                self.verdict(PropertyId(PropKind.HFR, alpha=alpha, scope=cap_)),
            )
            for beta in BETAS2:
                self.equivalence(
                    theorem,
                    f"ufr-{alpha.value}-{beta.name.lower()}",
                    ufr_l,
                    self.verdict(PropertyId(PropKind.UFR, alpha=alpha, beta=beta, scope=cap_)),
                )
                self.equivalence(
                    theorem,
                    f"idf-{alpha.value}-{beta.name.lower()}",
                    idf_l,
                    self.verdict(PropertyId(PropKind.IDF, alpha=alpha, beta=beta, scope=cap_)),
                )
                lhs_conj = _combine_and(atomic_l, idf_l)
                rhs_conj = _combine_and(
                    self.verdict(PropertyId(PropKind.ATOMIC, alpha=alpha, scope=cap_)),
                    self.verdict(PropertyId(PropKind.IDF, alpha=alpha, beta=beta, scope=cap_)),
                )
                self.equivalence(
                    theorem,
                    f"atomic-idf-{alpha.value}-{beta.name.lower()}",
                    lhs_conj,
                    rhs_conj,
                )
        # refinable consequence: (6) <=> (7) <=> (8) on the restricted side
        wffr_r = self.verdict(PropertyId(PropKind.WFFR, beta=AssociateKind.ASSOCIATE, scope=cap_))
        ffr_r = self.verdict(PropertyId(PropKind.FFR, beta=AssociateKind.ASSOCIATE, scope=cap_))
        conj_r = _combine_and(
            self.verdict(PropertyId(PropKind.ATOMIC, alpha=IrreducibleKind.IRREDUCIBLE, scope=cap_)),
            self.verdict(
                PropertyId(PropKind.IDF, alpha=IrreducibleKind.IRREDUCIBLE, beta=AssociateKind.ASSOCIATE, scope=cap_)
            ),
        )
        self.equivalence(theorem, "refinable-wffr<=>ffr", wffr_r, ffr_r, gated=True)
        self.equivalence(theorem, "refinable-wffr<=>atomic-idf", wffr_r, conj_r, gated=True)
        # excluded parameter cells: computed, never asserted
        very = IrreducibleKind.VERY_STRONG
        rhs_very = self.verdict(PropertyId(PropKind.ATOMIC, alpha=very, scope=cap_))
        self.equivalence(
            theorem,
            "informational-atomic-very-strong",
            self.verdict(PropertyId(PropKind.ATOMIC, alpha=IrreducibleKind.IRREDUCIBLE, scope=reg)),
            rhs_very,
            informational=True,
        )

    def family_plain_implies_regular(self):
        theorem = "plain-implies-regular-properties"
        reg = PropScope.REGULAR
        plain = PropScope.PLAIN
        targets = {
            "ufr": self.verdict(
                PropertyId(PropKind.UFR, alpha=IrreducibleKind.IRREDUCIBLE, beta=AssociateKind.ASSOCIATE, scope=reg)
            ),
            "hfr": self.verdict(PropertyId(PropKind.HFR, alpha=IrreducibleKind.IRREDUCIBLE, scope=reg)),
            "ffr": self.verdict(PropertyId(PropKind.FFR, beta=AssociateKind.ASSOCIATE, scope=reg)),
            "wffr": self.verdict(PropertyId(PropKind.WFFR, beta=AssociateKind.ASSOCIATE, scope=reg)),
            "idf": self.verdict(
                PropertyId(PropKind.IDF, alpha=IrreducibleKind.IRREDUCIBLE, beta=AssociateKind.ASSOCIATE, scope=reg)
            ),
            "bfr": self.verdict(PropertyId(PropKind.BFR, scope=reg)),
            "accp": self.verdict(PropertyId(PropKind.ACCP, scope=reg)),
            "atomic": self.verdict(
                PropertyId(PropKind.ATOMIC, alpha=IrreducibleKind.IRREDUCIBLE, scope=reg)
            ),
        }
        self.implication(
            theorem, "bfr", self.verdict(PropertyId(PropKind.BFR, scope=plain)), targets["bfr"]
        )
        self.implication(
            theorem, "accp", self.verdict(PropertyId(PropKind.ACCP, scope=plain)), targets["accp"]
        )
        for alpha in ALPHA_KINDS_NO_VERY:
            self.implication(
                theorem,
                f"atomic-{alpha.value}",
                self.verdict(PropertyId(PropKind.ATOMIC, alpha=alpha, scope=plain)),
                targets["atomic"],
            )
            self.implication(
                theorem,
                f"hfr-{alpha.value}",
                self.verdict(PropertyId(PropKind.HFR, alpha=alpha, scope=plain)),
                targets["hfr"],
            )
            for beta in BETAS2:
                self.implication(
                    theorem,
                    f"ufr-{alpha.value}-{beta.name.lower()}",
                    self.verdict(PropertyId(PropKind.UFR, alpha=alpha, beta=beta, scope=plain)),
                    targets["ufr"],
                )
                self.implication(
                    theorem,
                    f"idf-{alpha.value}-{beta.name.lower()}",
                    self.verdict(PropertyId(PropKind.IDF, alpha=alpha, beta=beta, scope=plain)),
                    targets["idf"],
                )
        for beta in BETAS2:
            self.implication(
                theorem,
                f"ffr-{beta.name.lower()}",
                self.verdict(PropertyId(PropKind.FFR, beta=beta, scope=plain)),
                targets["ffr"],
            )
            self.implication(
                theorem,
                f"wffr-{beta.name.lower()}",
                self.verdict(PropertyId(PropKind.WFFR, beta=beta, scope=plain)),
                targets["wffr"],
            )

    def _tau_subset_of_regular(self) -> Optional[bool]:
        if self.tau.regular_only:
            return True
        ring = self.ring
        if ring.is_finite:
            sharp = ring.nonzero_nonunits()
            for a in sharp:
                for b in sharp:
                    if self.tau.holds(a, b) and not (
                        ring.is_regular(a) and ring.is_regular(b)
                    ):
                        return False
            return True
        # structurally: a domain has only regular nonzero elements
        if not _has_zero_divisors(ring):
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
        base = self._baseline_verdicts()
        pairs = (
            ("bfr", PropertyId(PropKind.BFR, scope=PropScope.REGULAR)),
            ("ffr", PropertyId(PropKind.FFR, beta=AssociateKind.ASSOCIATE, scope=PropScope.REGULAR)),
            ("wffr", PropertyId(PropKind.WFFR, beta=AssociateKind.ASSOCIATE, scope=PropScope.REGULAR)),
            ("accp", PropertyId(PropKind.ACCP, scope=PropScope.REGULAR)),
        )
        for name, prop in pairs:
            self.implication(theorem, name, base[name], self.verdict(prop))
        # corollary: the baseline finite-factorization rings satisfy the chain
        # condition, and are atomic when the relation is refinable
        for name in ("ufr", "ffr", "hfr", "bfr"):
            self.implication(theorem, f"corollary-{name}-accp", base[name], base["accp"])
            self.implication(
                theorem,
                f"corollary-{name}-tau-accp",
                base[name],
                self.verdict(PropertyId(PropKind.ACCP, scope=PropScope.REGULAR)),
            )
            self.implication(
                theorem,
                f"corollary-{name}-atomic",
                base[name],
                self.verdict(
                    PropertyId(PropKind.ATOMIC, alpha=IrreducibleKind.IRREDUCIBLE, scope=PropScope.REGULAR)
                ),
                gated=True,
            )

    def _baseline_verdicts(self) -> dict:
        got = self.ring_cache.get("regular-baseline")
        if got is None:
            rtau = build_tau(RegularTau(), self.ring)
            ev = Evaluator(self.ring, rtau, self.cap)
            def v(prop):
                return check_property(self.ring, rtau, prop, self.scope, self.cap, evaluator=ev)
            got = {
                "bfr": v(PropertyId(PropKind.BFR, scope=PropScope.REGULAR)),
                "ffr": v(PropertyId(PropKind.FFR, beta=AssociateKind.ASSOCIATE, scope=PropScope.REGULAR)),
                "wffr": v(PropertyId(PropKind.WFFR, beta=AssociateKind.ASSOCIATE, scope=PropScope.REGULAR)),
                "accp": v(PropertyId(PropKind.ACCP, scope=PropScope.REGULAR)),
                "hfr": v(PropertyId(PropKind.HFR, alpha=IrreducibleKind.IRREDUCIBLE, scope=PropScope.REGULAR)),
                "ufr": v(
                    PropertyId(PropKind.UFR, alpha=IrreducibleKind.IRREDUCIBLE, beta=AssociateKind.ASSOCIATE, scope=PropScope.REGULAR)
                ),
            }
            self.ring_cache["regular-baseline"] = got
        return got

    def family_split_equivalences(self):
        """Each property read through the splits against its regcap-all twin."""
        theorem = "split-equivalences"
        u = PropScope.REGCAP_U
        twins = [("accp", PropertyId(PropKind.ACCP, scope=u)), ("bfr", PropertyId(PropKind.BFR, scope=u))]
        for beta in BETAS2:
            b = beta.name.lower()
            twins.append((f"ffr-{b}", PropertyId(PropKind.FFR, beta=beta, scope=u)))
            twins.append((f"wffr-{b}", PropertyId(PropKind.WFFR, beta=beta, scope=u)))
        for alpha in ALPHA_KINDS_NO_VERY:
            twins.append((f"atomic-{alpha.value}", PropertyId(PropKind.ATOMIC, alpha=alpha, scope=u)))
            twins.append((f"hfr-{alpha.value}", PropertyId(PropKind.HFR, alpha=alpha, scope=u)))
            for beta in BETAS2:
                b = beta.name.lower()
                twins.append((f"ufr-{alpha.value}-{b}", PropertyId(PropKind.UFR, alpha=alpha, beta=beta, scope=u)))
                twins.append((f"idf-{alpha.value}-{b}", PropertyId(PropKind.IDF, alpha=alpha, beta=beta, scope=u)))
        for instance, prop in twins:
            twin = replace(prop, scope=PropScope.REGCAP)
            self.equivalence(theorem, instance, self.verdict(prop), self.verdict(twin))

    def family_essential_divisors(self):
        theorem = "essential-divisor-lemma"
        ring = self.ring
        checked = 0
        for a in self.domain():
            if not self.ev_regcap.exhaustive(a):
                self.emit(theorem, "empty-inessential", SKIPPED, note=f"element {ring.format_element(a)} incomplete")
                return
            for uf in self.ev_regcap.u_pool(a):
                if uf.inessential:
                    self.emit(
                        theorem,
                        "empty-inessential",
                        VIOLATED,
                        witness=uf.to_json(),
                    )
                    return
                back = phi_inverse(ring, self.ev_regcap.tau, phi(uf))
                if back != uf:
                    self.emit(theorem, "round-trip", VIOLATED, witness=uf.to_json())
                    return
            for f in self.ev_regcap.fs(a).items:
                try:
                    uf = phi_inverse(ring, self.ev_regcap.tau, f)
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
        dom = self._regular_domain()
        if not dom:
            self.emit(theorem, "classes", VERIFIED, note="vacuous: no regular non-units")
            return
        for a in dom:
            try:
                plain_fs = self.ev_plain.fs(a)
            except UnsupportedOperationError:
                self.emit(theorem, "classes", SKIPPED, note="plain enumeration unsupported")
                return
            reg_fs = self.ev_regcap.fs(a)
            if not (self.ev_plain.exhaustive(a) and self.ev_regcap.exhaustive(a)):
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
        bfr = self.verdict(PropertyId(PropKind.BFR, scope=plain))
        accp = self.verdict(PropertyId(PropKind.ACCP, scope=plain))
        atomic0 = self.verdict(
            PropertyId(PropKind.ATOMIC, alpha=IrreducibleKind.IRREDUCIBLE, scope=plain)
        )
        self.implication(theorem, "bfr=>accp", bfr, accp, gated=True)
        self.implication(theorem, "accp=>atomic", accp, atomic0, gated=True)
        full_accp = self._full_relation_accp()
        if full_accp is not None:
            self.implication(theorem, "plain-accp=>relation-accp", full_accp, accp)
        for beta in BETAS2:
            ffr = self.verdict(PropertyId(PropKind.FFR, beta=beta, scope=plain))
            wffr = self.verdict(PropertyId(PropKind.WFFR, beta=beta, scope=plain))
            bl = beta.name.lower()
            self.implication(theorem, f"ffr=>bfr-{bl}", ffr, bfr)
            self.implication(theorem, f"ffr=>wffr-{bl}", ffr, wffr)
            idf0 = self.verdict(
                PropertyId(PropKind.IDF, alpha=IrreducibleKind.IRREDUCIBLE, beta=beta, scope=plain)
            )
            self.implication(
                theorem, f"wffr=>atomic-idf-{bl}", wffr, _combine_and(atomic0, idf0), gated=True
            )
            for alpha in ALPHA_KINDS_NO_VERY:
                al = alpha.value
                ufr = self.verdict(PropertyId(PropKind.UFR, alpha=alpha, beta=beta, scope=plain))
                hfr = self.verdict(PropertyId(PropKind.HFR, alpha=alpha, scope=plain))
                idf = self.verdict(PropertyId(PropKind.IDF, alpha=alpha, beta=beta, scope=plain))
                self.implication(theorem, f"ufr=>hfr-{al}-{bl}", ufr, hfr)
                self.implication(theorem, f"ufr=>ffr-{al}-{bl}", ufr, ffr, gated=True)
                self.implication(theorem, f"hfr=>bfr-{al}", hfr, bfr, gated=True)
                self.implication(theorem, f"wffr=>idf-{al}-{bl}", wffr, idf)
                # alternative transcription, flagged but never asserted
                self.implication(theorem, f"flag-hfr=>ffr-{al}-{bl}", hfr, ffr, gated=True, informational=True)

    def _full_relation_accp(self) -> Optional[PropertyVerdict]:
        got = self.ring_cache.get("full-accp", False)
        if got is False:
            from .relations import FullTau

            ftau = build_tau(FullTau(), self.ring)
            ev = Evaluator(self.ring, ftau, self.cap)
            try:
                got = check_property(
                    self.ring, ftau, PropertyId(PropKind.ACCP, scope=PropScope.PLAIN),
                    self.scope, self.cap, evaluator=ev,
                )
            except (UnsupportedOperationError, PreconditionError):
                got = None
            self.ring_cache["full-accp"] = got
        return got

    def family_regular_arrow_diagram(self):
        theorem = "regular-factorization-arrows"
        reg = PropScope.REGULAR
        ufr = self.verdict(
            PropertyId(PropKind.UFR, alpha=IrreducibleKind.IRREDUCIBLE, beta=AssociateKind.ASSOCIATE, scope=reg)
        )
        hfr = self.verdict(PropertyId(PropKind.HFR, alpha=IrreducibleKind.IRREDUCIBLE, scope=reg))
        ffr = self.verdict(PropertyId(PropKind.FFR, beta=AssociateKind.ASSOCIATE, scope=reg))
        wffr = self.verdict(PropertyId(PropKind.WFFR, beta=AssociateKind.ASSOCIATE, scope=reg))
        bfr = self.verdict(PropertyId(PropKind.BFR, scope=reg))
        accp = self.verdict(PropertyId(PropKind.ACCP, scope=reg))
        atomic = self.verdict(
            PropertyId(PropKind.ATOMIC, alpha=IrreducibleKind.IRREDUCIBLE, scope=reg)
        )
        idf = self.verdict(
            PropertyId(PropKind.IDF, alpha=IrreducibleKind.IRREDUCIBLE, beta=AssociateKind.ASSOCIATE, scope=reg)
        )
        accp_plain = self.verdict(PropertyId(PropKind.ACCP, scope=PropScope.PLAIN))
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


def _has_zero_divisors(ring: Ring) -> bool:
    if ring.is_finite:
        return any(
            ring.classify(a) == ElementClass.ZERO_DIVISOR for a in ring.elements()
        )
    from .rings import IntegerRing, ProductRing

    if isinstance(ring, IntegerRing):
        return False
    if isinstance(ring, ProductRing):
        return True  # two nonzero components annihilate each other
    return True


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


def verify_corpus_entry(ring: Ring, tau: TauRelation, scope, cap: int, ring_cache: dict) -> list:
    checker = EntryChecker(ring, tau, scope, cap, ring_cache)
    return checker.run()


def summarize(entries: list) -> dict:
    summary = {VERIFIED: 0, INAPPLICABLE: 0, VIOLATED: 0, SKIPPED: 0, INFORMATIONAL: 0}
    for e in entries:
        summary[e.outcome] = summary.get(e.outcome, 0) + 1
    return summary
