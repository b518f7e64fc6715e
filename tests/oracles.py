"""Independent brute-force oracles the engine is checked against.

These deliberately avoid the engine's divisor-restricted search: candidate
factors are all nonzero non-units, multisets are generated by itertools,
class keys come from a scan of the whole ring rather than the unit orbit,
and class equality is decided by explicit bijective matching.  The
validators and ring predicates work from the definitions on finite rings:
units by a scan for an inverse, products by ``ring.mul``, ideal equality by
a scan for a cofactor.
"""

import functools
import itertools

from taufact import AssociateKind, UFactorization


def oracle_class_key(ring, x, beta, pool=None):
    """The least ``sort_key`` over every y in ``pool`` (default: the whole
    ring) with x beta-associated to y; an x not very-strongly associate to
    itself is its own class.  The pool must hold every associate of x."""
    if beta == AssociateKind.VERY_STRONG and not ring.associated(x, x, beta):
        return (1, ring.sort_key(x))
    scan = ring.elements() if pool is None else pool
    return (0, min(ring.sort_key(y) for y in scan if ring.associated(x, y, beta)))


@functools.lru_cache(maxsize=4)
def _right_factors(ring, box):
    """Each product r*b of two members of ``box``, mapped to the b's."""
    out = {}
    for r in box:
        for b in box:
            out.setdefault(ring.mul(r, b), set()).add(b)
    return out


def oracle_divisor_classes(ring, a, box=None):
    """The associate classes of a's non-unit divisors, each named by its
    least ``sort_key`` member, in ``sort_key`` order.

    From the definitions alone: b divides a when r*b = a for some r, a unit
    is an element with an inverse, and a class is a unit orbit {u*d}.  Every
    search runs over ``box`` (default: the whole ring), which must hold
    every divisor of a with its cofactor, and every unit with its inverse.
    """
    box = tuple(ring.elements()) if box is None else tuple(box)
    table = _right_factors(ring, box)
    units = table[ring.one]
    reps = {
        min((ring.mul(u, d) for u in units), key=ring.sort_key)
        for d in table.get(a, ())
        if d not in units
    }
    return tuple(sorted(reps, key=ring.sort_key))


def _key_table(ring, beta):
    return {x: oracle_class_key(ring, x, beta) for x in ring.elements()}


def _multiset_key(keys, factors):
    return tuple(sorted(keys[x] for x in factors))


def oracle_factorization_classes(ring, tau, cap, beta):
    """Map each non-unit to its set of canonical factorization keys, by
    enumerating every factor multiset over the nonzero non-units."""
    keys = _key_table(ring, beta)
    sharp = ring.nonzero_nonunits()
    units = ring.units()
    unit_multiples = {
        a: {ring.mul(ring.unit_inverse(u), a) for u in units} for a in ring.nonunits()
    }
    out = {a: set() for a in ring.nonunits()}
    for a in ring.nonunits():
        for u in units:
            out[a].add(_multiset_key(keys, (ring.mul(ring.unit_inverse(u), a),)))
    for k in range(2, cap + 1):
        for combo in itertools.combinations_with_replacement(sharp, k):
            ok = True
            for i in range(k):
                for j in range(i + 1, k):
                    if not tau.holds(combo[i], combo[j]):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            prod = ring.product(combo)
            for a in ring.nonunits():
                if prod in unit_multiples[a]:
                    out[a].add(_multiset_key(keys, combo))
    return out


def matching_equivalent(ring, f, g, beta):
    """Factor multisets match bijectively with beta-associated pairs;
    identical elements always match (identity tagging for the non-reflexive
    very-strong relation)."""
    if len(f.factors) != len(g.factors):
        return False
    for perm in itertools.permutations(g.factors):
        if all(
            x == y
            or (
                ring.associated(x, x, beta)
                and ring.associated(y, y, beta)
                and ring.associated(x, y, beta)
            )
            for x, y in zip(f.factors, perm)
        ):
            return True
    return False


def oracle_atomic(ring, tau, a, cap):
    """Does a have a factorization whose factors all admit only
    factorizations with an associate of themselves?  (Irreducible flavor,
    decided entirely from the oracle enumeration.)"""
    def raw_factorizations(target):
        sharp = ring.nonzero_nonunits()
        units = ring.units()
        unit_multiples = {ring.mul(ring.unit_inverse(u), target) for u in units}
        for u in units:
            yield (ring.mul(ring.unit_inverse(u), target),)
        for k in range(2, cap + 1):
            for combo in itertools.combinations_with_replacement(sharp, k):
                ok = all(
                    tau.holds(combo[i], combo[j])
                    for i in range(k)
                    for j in range(i + 1, k)
                )
                if ok and ring.product(combo) in unit_multiples:
                    yield combo

    def is_atom(x):
        return all(
            any(ring.associated(x, y, AssociateKind.ASSOCIATE) for y in fac)
            for fac in raw_factorizations(x)
        )

    return any(all(is_atom(x) for x in fac) for fac in raw_factorizations(a))


def oracle_classes_fast(ring, tau, cap, beta):
    """Index-table variant of the multiset oracle for the acceptance sweep:
    same quantification (all pairwise-related factor multisets over the
    nonzero non-units), table-driven arithmetic."""
    elems = list(ring.elements())
    idx = {e: i for i, e in enumerate(elems)}
    mul = [[idx[ring.mul(a, b)] for b in elems] for a in elems]
    sharp = [idx[a] for a in ring.nonzero_nonunits()]
    partners = {
        i: frozenset(j for j in sharp if tau.holds(elems[i], elems[j])) for i in sharp
    }
    units = ring.units()
    nonunits = [idx[a] for a in ring.nonunits()]
    by_unit_multiple = {}
    for a in nonunits:
        for u in units:
            by_unit_multiple.setdefault(idx[ring.mul(ring.unit_inverse(u), elems[a])], []).append(a)
    out = {elems[a]: set() for a in nonunits}
    keys = _key_table(ring, beta)
    for a in nonunits:
        target = elems[a]
        for u in units:
            out[target].add((keys[ring.mul(ring.unit_inverse(u), target)],))
    one = idx[ring.one]
    index_keys = [keys[e] for e in elems]

    def record(chosen, prod):
        key = tuple(sorted(index_keys[i] for i in chosen))
        for a in by_unit_multiple.get(prod, ()):
            out[elems[a]].add(key)

    full_pool = frozenset(sharp)

    def rec(pool, chosen, prod):
        for k, i in enumerate(pool):
            prod2 = mul[prod][i]
            chosen.append(i)
            if len(chosen) >= 2:
                record(chosen, prod2)
            if len(chosen) < cap:
                if partners[i] == full_pool:
                    sub = pool[k:]
                else:
                    sub = [j for j in pool[k:] if j in partners[i]]
                if sub:
                    rec(sub, chosen, prod2)
            chosen.pop()

    rec(sharp, [], one)
    return out


def _pairwise_related(tau, factors):
    return all(
        tau.holds(factors[i], factors[j])
        for i in range(len(factors))
        for j in range(i + 1, len(factors))
    )


def oracle_refinable(ring, tau, cap):
    """Refinability from the definition, by brute force over R#.

    A factorization with two or more positions is any pairwise-related
    multiset over the nonzero non-units of length 2..cap.  A position
    holding x may be replaced by a factorization of x: a trivial variant
    ``(u^-1 x,)`` for a unit u, or a pairwise-related multiset of length
    2..cap whose product is a unit multiple of x.  The relation is refinable
    when replacing any two positions of any factorization leaves a
    pairwise-related multiset.  Returns ``(holds, replacements)``, the
    second mapping each x in R# to its replacement multisets, so that a
    caller can check a witness against the definition."""
    sharp = ring.nonzero_nonunits()
    units = ring.units()
    multisets = [
        combo
        for k in range(2, cap + 1)
        for combo in itertools.combinations_with_replacement(sharp, k)
        if _pairwise_related(tau, combo)
    ]
    by_product = {}
    for combo in multisets:
        by_product.setdefault(ring.product(combo), []).append(combo)
    replacements = {}
    for x in sharp:
        orbit = {ring.mul(ring.unit_inverse(u), x) for u in units}
        replacements[x] = [(y,) for y in orbit] + [
            combo for y in orbit for combo in by_product.get(y, ())
        ]
    seen = set()
    for f in multisets:
        for i, j in itertools.combinations(range(len(f)), 2):
            rest = f[:i] + f[i + 1 : j] + f[j + 1 :]
            for g in replacements[f[i]]:
                for h in replacements[f[j]]:
                    refined = tuple(sorted(rest + g + h, key=ring.sort_key))
                    if refined in seen:
                        continue
                    seen.add(refined)
                    if not _pairwise_related(tau, refined):
                        return False, replacements
    return True, replacements


def oracle_unbounded(ring, tau, cap):
    """The non-units of a finite ring with a factorization of length at most
    ``cap`` that holds some factor x at least m + p times, where
    x^m = x^(m+p) with m, p >= 1 least (the powers of x cycle, as the ring
    is finite).

    Each has factorizations of unbounded length: x^c = x^(c+p) for c >= m,
    so p more copies of x keep the product, and every new pair (x with x,
    or x with a factor beside it) is a pair the factorization relates."""
    sharp = ring.nonzero_nonunits()
    units = [u for u in ring.elements() if _is_unit(ring, u)]
    need = {}
    for x in sharp:
        first, power, j = {}, x, 1
        while power not in first:
            first[power] = j
            power, j = ring.mul(power, x), j + 1
        need[x] = j  # x^j is the first repeated power, so j = m + p
    out = set()
    for k in range(2, cap + 1):
        for combo in itertools.combinations_with_replacement(sharp, k):
            if any(combo.count(x) >= need[x] for x in set(combo)) and _pairwise_related(tau, combo):
                prod = _product(ring, combo)
                out.update(ring.mul(u, prod) for u in units)
    return out


# ---------------------------------------------------------------------------
# Validators and ring predicates from the definitions (finite rings only,
# but for splits also Z and prod(Z,Z))


def _is_unit(ring, x):
    return any(ring.mul(x, y) == ring.one for y in ring.elements())


def _product(ring, factors):
    return functools.reduce(ring.mul, factors, ring.one)


def _ideal_fixed(ring, x, p):
    """(x*p) = (p): (x*p) lies in (p) always, and p in (x*p) when some r
    has r*x*p = p."""
    xp = ring.mul(x, p)
    return any(ring.mul(r, xp) == p for r in ring.elements())


def _coords(a):
    """An element of Z or prod(Z,Z) as a tuple of integers."""
    return a if isinstance(a, tuple) else (a,)


def _integer_unit(ring, x):
    """The units of Z are +-1, and those of prod(Z,Z) coordinatewise so."""
    return all(abs(c) == 1 for c in _coords(x))


def _integer_ideal_fixed(ring, x, p):
    """(x*p) = (p) in Z iff p = 0 or x = +-1, coordinatewise in prod(Z,Z)."""
    return all(pc == 0 or abs(xc) == 1 for xc, pc in zip(_coords(x), _coords(p)))


def oracle_validate_factorization(tau, f):
    """None when f is a factorization under tau, else the violation: the
    unit slot holds a unit, the factors are non-units, unit times factors is
    the target, and every two positions hold nonzero non-units related by
    tau."""
    ring = f.ring
    if not _is_unit(ring, f.unit):
        return f"unit slot holds a non-unit: {ring.format_element(f.unit)}"
    if not f.factors:
        return "empty factor list"
    for x in f.factors:
        if _is_unit(ring, x):
            return f"factor {ring.format_element(x)} is a unit"
    if ring.mul(f.unit, _product(ring, f.factors)) != f.target:
        return "unit * factors does not equal the target"
    for x, y in itertools.combinations(f.factors, 2):
        if ring.zero in (x, y):
            return "paired factor outside the nonzero non-units"
        if not tau.holds(x, y):
            return f"pair ({ring.format_element(x)}, {ring.format_element(y)}) not related"
    return None


def oracle_validate_u_factorization(u):
    """None when u is a valid split, else the violation: a unit slot, a
    nonempty essential block, blocks that multiply to the target, each
    inessential factor fixing the ideal of the essential product, and each
    essential factor moving the ideal of the others' product.  Over Z and
    prod(Z,Z), which cannot be scanned, units and ideals are read from the
    coordinates."""
    ring = u.ring
    is_unit, ideal_fixed = (_is_unit, _ideal_fixed) if ring.is_finite else (_integer_unit, _integer_ideal_fixed)
    if not is_unit(ring, u.unit):
        return "unit slot holds a non-unit"
    if not u.essential:
        return "essential block is empty"
    ep = _product(ring, u.essential)
    if ring.mul(u.unit, ring.mul(_product(ring, u.inessential), ep)) != u.target:
        return "blocks do not multiply to the target"
    for x in u.inessential:
        if not ideal_fixed(ring, x, ep):
            return f"inessential factor {ring.format_element(x)} moves the ideal"
    for i, x in enumerate(u.essential):
        if ideal_fixed(ring, x, _product(ring, u.essential[:i] + u.essential[i + 1 :])):
            return f"essential factor {ring.format_element(x)} does not move the ideal"
    return None


def oracle_u_partitions(ring, f):
    """Every (inessential, essential) split of f's factors that the
    definition admits, each block sorted by ``sort_key``."""
    n = len(f.factors)
    out = set()
    for k in range(1, n + 1):
        for ess_idx in itertools.combinations(range(n), k):
            ess = tuple(f.factors[i] for i in ess_idx)
            ines = tuple(f.factors[i] for i in range(n) if i not in ess_idx)
            u = UFactorization(ring=ring, unit=f.unit, inessential=ines, essential=ess, target=f.target)
            if oracle_validate_u_factorization(u) is None:
                out.add((tuple(sorted(ines, key=ring.sort_key)), tuple(sorted(ess, key=ring.sort_key))))
    return out


def oracle_ring_predicates(ring):
    """Whether the ring is presimplifiable (x = x*y with x nonzero forces y
    to be a unit) and strongly associate ((a) = (b) forces a = u*b for a
    unit u), by scans of the whole ring."""
    elems = list(ring.elements())
    units = {u for u in elems if _is_unit(ring, u)}
    multiples = {b: {ring.mul(r, b) for r in elems} for b in elems}
    unit_multiples = {b: {ring.mul(u, b) for u in units} for b in elems}
    presimplifiable = all(
        ring.mul(x, y) != x or y in units for x in elems if x != ring.zero for y in elems
    )
    strongly_associate = all(
        a in unit_multiples[b]
        for a in elems
        for b in elems
        if a in multiples[b] and b in multiples[a]
    )
    return {"presimplifiable": presimplifiable, "strongly_associate": strongly_associate}
