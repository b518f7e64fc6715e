"""Independent brute-force oracles the engine is checked against.

These deliberately avoid the engine's divisor-restricted search: candidate
factors are all nonzero non-units, multisets are generated by itertools,
class keys come from a scan of the whole ring rather than the unit orbit,
and class equality is decided by explicit bijective matching.
"""

import functools
import itertools

from taufact import AssociateKind


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
