"""Filters of a finite residuated lattice and everything built from them.

In the finite case every filter is principal: a filter F is upward closed and
closed under mul, so the product e of all its members lies in F, its
stabilized power e* is an idempotent member below every member, and
F = up(e*). The filter lattice is therefore {F(x) : x in A}, and meets/joins
reduce to F(x) n F(y) = F(x v y), F(x) v F(y) = F(x * y).

All filters are bitmasks over the carrier; collections are kept in the
canonical order (cardinality, then mask value), and "first witness" always
means first in that order.
"""
from __future__ import annotations

from .core import ResiduatedLattice, bits, classify_elements, down_masks, mask_of, meet, memo
from .errors import EquivalenceViolation, ImproperInput, NotAFilter, NotAnIdeal, agree


def canonical_sort(masks) -> tuple[int, ...]:
    return tuple(sorted(set(masks), key=lambda m: (bin(m).count("1"), m)))


def maximal_members(family) -> tuple[int, ...]:
    """The members of a sequence of masks that no other member contains, in
    the sequence's order."""
    return tuple(f for f in family if not any(g != f and g & f == f for g in family))


@memo
def principal_filters(a: ResiduatedLattice) -> tuple[int, ...]:
    """principal_filters(a)[x] is up(x*), the filter generated by x, where x*
    is the stabilized power of x."""
    return tuple(a.up[a.powers(x)[-1]] for x in range(a.n))


@memo
def filter_generators(a: ResiduatedLattice) -> dict[int, int]:
    """Each filter, in canonical order, mapped to its least element, the
    idempotent that generates it: the one x whose principal filter is up(x).
    Each is checked against generated_filter, the full-product route."""
    least = {f: x for x, f in enumerate(principal_filters(a)) if a.up[x] == f}
    generators = {f: least[f] for f in canonical_sort(least)}
    for f in generators:
        routes = {"power_limit": f, "product": generated_filter(a, f)}
        agree(a, "principal generator does not regenerate its filter", routes, f)
    return generators


def check_filter(a: ResiduatedLattice, f: int) -> None:
    """Refuse a mask that is not a filter, by one lookup in the filter family."""
    if f not in filter_generators(a):
        raise NotAFilter(f"{a.set_repr(f)} is not a filter of {a.label}")


def generated_filter(a: ResiduatedLattice, subset: int) -> int:
    """Least filter containing the subset (full product, then upward)."""
    if subset & ~a.full:
        raise ImproperInput(f"{a.set_repr(subset)} is not a subset of {a.label}")
    e = a.one
    for x in bits(subset):
        e = a.mul[e][x]
    return a.up[a.powers(e)[-1]]


@memo
def all_filters(a: ResiduatedLattice) -> tuple[int, ...]:
    return tuple(filter_generators(a))


@memo
def proper_filters(a: ResiduatedLattice) -> tuple[int, ...]:
    return tuple(f for f in all_filters(a) if f != a.full)


@memo
def maximal_filters(a: ResiduatedLattice) -> tuple[int, ...]:
    return maximal_members(proper_filters(a))


@memo
def prime_filters(a: ResiduatedLattice) -> tuple[int, ...]:
    """The proper filters whose complement is closed under joins."""
    primes = []
    for f in proper_filters(a):
        outside = a.full ^ f
        if all(
            not (f >> a.join[x][y]) & 1 for x in bits(outside) for y in bits(outside)
        ):
            primes.append(f)
    return tuple(primes)


@memo
def max_mask(a: ResiduatedLattice) -> int:
    """The positions of the maximal filters among the prime filters."""
    maxima = maximal_filters(a)
    return mask_of(i for i, p in enumerate(prime_filters(a)) if p in maxima)


@memo
def join_table(a: ResiduatedLattice) -> dict[int, dict[int, int]]:
    """join_table(a)[f][g] is the join of the filters f and g, for every pair
    of filters: up(e * e') for their generators e, e', since a product of
    idempotents is idempotent and so generates the join. This is the one
    derivation of a filter join; readers look joins up here, and a meet is &."""
    gen = filter_generators(a)
    return {f: {g: a.up[a.mul[gen[f]][gen[g]]] for g in gen} for f in gen}


def join_family(a: ResiduatedLattice, family) -> int:
    joins = join_table(a)
    out = 1 << a.one
    for f in family:
        out = joins[out][f]
    return out


def maximals_over(a: ResiduatedLattice, subset: int) -> tuple[int, ...]:
    return tuple(m for m in maximal_filters(a) if m & subset == subset)


@memo
def radical(a: ResiduatedLattice, f: int) -> int:
    """Intersection of the maximal filters containing f; proper input only."""
    if f == a.full:
        raise ImproperInput("radical of the improper filter is not defined")
    check_filter(a, f)
    over = maximals_over(a, f)
    if not over:
        raise EquivalenceViolation(
            "proper filter not below any maximal filter", detail=a.label
        )
    return meet(a, over)


def radical_total(a: ResiduatedLattice, f: int) -> int:
    """radical extended by Rad(A) = A (empty intersection convention)."""
    return a.full if f == a.full else radical(a, f)


def is_semisimple(a: ResiduatedLattice) -> bool:
    return radical_total(a, 1 << a.one) == 1 << a.one


@memo
def zero_divisors(a: ResiduatedLattice) -> tuple[int, ...]:
    """zero_divisors(a)[x] is the mask of {y : x * y = 0}. Only the
    zero-product route of comaximal_routes reads it."""
    return tuple(
        mask_of(y for y in range(a.n) if a.mul[x][y] == a.zero) for x in range(a.n)
    )


def comaximal_routes(a: ResiduatedLattice, f: int, g: int) -> dict[str, bool]:
    """The join is improper; some product is 0; some negation of f is in g."""
    check_filter(a, f)
    check_filter(a, g)
    zero = zero_divisors(a)
    return {
        "join": join_table(a)[f][g] == a.full,
        "zero_product": any(zero[x] & g for x in bits(f)),
        "negation": any((g >> a.neg(x)) & 1 for x in bits(f)),
    }


def is_comaximal(a: ResiduatedLattice, f: int, g: int) -> bool:
    """Three independent routes, which must agree on proper filters."""
    if f == a.full or g == a.full:
        raise ImproperInput("comaximality is about proper filters")
    return agree(a, "comaximality routes disagree", comaximal_routes(a, f, g), f, g)


def is_maximal_by_powers(a: ResiduatedLattice, f: int) -> bool:
    """Power test: proper f is maximal iff every x outside has neg(x^k) in f."""
    if f == a.full:
        raise ImproperInput("maximality test is about proper filters")
    check_filter(a, f)
    return all(
        any((f >> a.neg(p)) & 1 for p in a.powers(x)) for x in bits(a.full ^ f)
    )


@memo
def join_to_one(a: ResiduatedLattice) -> tuple[int, ...]:
    """join_to_one(a)[x] is the mask of {y : x v y = 1}, read off the join
    table alone."""
    return tuple(
        mask_of(y for y in range(a.n) if a.join[x][y] == a.one) for x in range(a.n)
    )


@memo
def co_join_rows(a: ResiduatedLattice) -> tuple[int, ...]:
    """co_join_rows(a)[x] is the mask of {y : x v y = 1}, the rows of
    join_to_one derived from the order instead of the join table: y joins x
    to 1 iff no z < 1 lies above both. Only complements_join_to_one reads it,
    so it shares no table with the coannihilator's joins route."""
    down = down_masks(a.up)
    rows = []
    for x in range(a.n):
        below_common = 0
        for z in bits(a.up[x] ^ (1 << a.one)):
            below_common |= down[z]
        rows.append(a.full ^ below_common)
    return tuple(rows)


def complements_join_to_one(a: ResiduatedLattice, p: int, q: int) -> bool:
    """Some x outside p and y outside q have x v y = 1."""
    rows, outside_q = co_join_rows(a), a.full ^ q
    return any(rows[x] & outside_q for x in bits(a.full ^ p))


def power_negations_join_outside(a: ResiduatedLattice, m: int) -> bool:
    """Every x outside m has a power whose negation joins to 1 with some
    y outside m."""
    return all(
        any(
            a.join[y][a.neg(px)] == a.one
            for px in a.powers(x)
            for y in bits(a.full ^ m)
        )
        for x in bits(a.full ^ m)
    )


def coannihilator(a: ResiduatedLattice, subset: int) -> int:
    """kernel of the primes omitting the subset; checked against the
    elementwise route {y : y v x = 1 for all x in the subset}, the meet of
    the join_to_one rows of the subset."""
    if subset & ~a.full:
        raise ImproperInput(f"{a.set_repr(subset)} is not a subset of {a.label}")
    via_primes = via_joins = a.full
    for p in prime_filters(a):
        if p & subset != subset:
            via_primes &= p
    rows = join_to_one(a)
    for x in bits(subset):
        via_joins &= rows[x]
    routes = {"primes": via_primes, "joins": via_joins}
    return agree(a, "coannihilator routes disagree", routes, subset)


@memo
def element_coannihilators(a: ResiduatedLattice) -> tuple[int, ...]:
    """element_coannihilators(a)[x] is the coannihilator of {x}, computed
    once per algebra."""
    return tuple(coannihilator(a, 1 << x) for x in range(a.n))


def gamma(a: ResiduatedLattice) -> tuple[int, ...]:
    """The coannihilators of single elements, canonically ordered."""
    return canonical_sort(element_coannihilators(a))


def big_gamma(a: ResiduatedLattice) -> tuple[int, ...]:
    """All coannihilators: meets of element coannihilators, A the empty one.
    Meeting each element coannihilator with the meets found so far reaches
    every subfamily in one pass."""
    meets = {a.full}
    for u in gamma(a):
        meets |= {m & u for m in meets}
    return canonical_sort(meets)


def is_rickart(a: ResiduatedLattice) -> bool:
    """gamma is a Boolean sublattice of the filter lattice."""
    g = gamma(a)
    gs = set(g)
    if (1 << a.one) not in gs or a.full not in gs:
        return False
    joins = join_table(a)
    for u in g:
        for v in g:
            if u & v not in gs or joins[u][v] not in gs:
                return False
    for u in g:
        if not any(u & v == 1 << a.one and joins[u][v] == a.full for v in g):
            return False
    return True


def is_baer(a: ResiduatedLattice) -> bool:
    """big_gamma is a sublattice of the filter lattice (joins stay inside)."""
    g = big_gamma(a)
    gs = set(g)
    joins = join_table(a)
    return all(u & v in gs and joins[u][v] in gs for u in g for v in g)


@memo
def down_sets(a: ResiduatedLattice) -> tuple[int, ...]:
    """down_sets(a)[x] is the mask of {y : y <= x}, the ideal dual of a.up[x]."""
    return down_masks(a.up)


def is_ideal(a: ResiduatedLattice, subset: int) -> bool:
    """Non-empty, downward closed, join closed."""
    if subset == 0 or subset & ~a.full:
        return False
    down = down_sets(a)
    for x in bits(subset):
        if down[x] & subset != down[x]:
            return False
        for y in bits(subset):
            if not (subset >> a.join[x][y]) & 1:
                return False
    return True


def omega_filter(a: ResiduatedLattice, ideal: int) -> int:
    """{x : x v y = 1 for some y in the ideal}; always a filter."""
    if not is_ideal(a, ideal):
        raise NotAnIdeal(f"{a.set_repr(ideal)} is not an ideal of {a.label or 'the algebra'}")
    rows = join_to_one(a)
    out = 0
    for y in bits(ideal):
        out |= rows[y]
    if not a.is_filter(out):
        raise EquivalenceViolation(
            "omega of an ideal is not a filter", detail=(a.label, a.set_repr(ideal))
        )
    return out


@memo
def d_part(a: ResiduatedLattice, prime: int) -> int:
    """omega of the complement ideal of a prime, cross-checked against the
    kernel of its generalizations."""
    primes = prime_filters(a)
    if prime not in primes:
        raise ImproperInput(f"{a.set_repr(prime)} is not a prime filter")
    routes = {
        "omega": omega_filter(a, a.full ^ prime),
        "kernel": meet(a, (q for q in primes if q & prime == q)),
    }
    return agree(a, "d_part routes disagree", routes, prime)


def local_battery(a: ResiduatedLattice) -> dict[str, bool]:
    """Five equivalent readings of locality.

    They are equivalent for non-trivial algebras; on the one-element algebra
    the nilpotence reading holds vacuously while the others fail, so the
    unanimity check exempts that single degenerate case.
    """
    maxima = maximal_filters(a)
    cls = classify_elements(a)
    interior, nil = cls.interior, cls.nilpotents
    interior_is_filter = a.is_filter(interior)
    battery = {
        "unique_maximal_filter": len(maxima) == 1,
        "interior_is_filter": interior_is_filter,
        "interior_is_proper_filter": interior_is_filter and interior != a.full,
        "interior_is_the_maximal_filter": interior_is_filter
        and maxima == (interior,),
        "zero_products_have_nilpotent_factor": all(
            (nil >> x) & 1 or (nil >> y) & 1
            for x in range(a.n)
            for y in range(a.n)
            if (nil >> a.mul[x][y]) & 1
        ),
    }
    if a.n > 1:
        agree(a, "local characterizations disagree", battery)
    return battery


def is_local(a: ResiduatedLattice) -> bool:
    return len(maximal_filters(a)) == 1
