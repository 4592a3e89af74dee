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

from .core import ResiduatedLattice, bits, classify_elements, mask_of, memo
from .errors import EquivalenceViolation, ImproperInput, NotAFilter, NotAnIdeal, agree


def canonical_sort(masks) -> tuple[int, ...]:
    return tuple(sorted(set(masks), key=lambda m: (bin(m).count("1"), m)))


def maximal_members(family) -> tuple[int, ...]:
    """The members of a sequence of masks that no other member contains, in
    the sequence's order."""
    return tuple(f for f in family if not any(g != f and g & f == f for g in family))


class Analysis:
    """Filter analysis of one algebra; analysis(a) builds it once (`memo`)."""

    def __init__(self, a: ResiduatedLattice):
        limits = [a.powers(x)[-1] for x in range(a.n)]
        self.principal = tuple(a.up[e] for e in limits)
        self.filters = canonical_sort(self.principal)
        # each filter's least element, the idempotent that generates it
        self.generator = {a.up[e]: e for e in limits}
        for f in self.filters:
            routes = {"power_limit": f, "product": generated_filter(a, f)}
            agree(a, "principal generator does not regenerate its filter", routes, f)
        self.proper = tuple(f for f in self.filters if f != a.full)
        self.maximals = maximal_members(self.proper)
        primes = []
        for f in self.proper:
            outside = a.full ^ f
            if all(
                not (f >> a.join[x][y]) & 1
                for x in bits(outside)
                for y in bits(outside)
            ):
                primes.append(f)
        self.primes = tuple(primes)
        # the positions of the maximal filters among the primes
        self.max_mask = mask_of(i for i, p in enumerate(primes) if p in self.maximals)
        cls = classify_elements(a)
        self.nilpotents = cls.nilpotents
        self.interior = cls.interior
        self.beta = cls.boolean_center
        self.idempotents = cls.idempotents


@memo
def analysis(a: ResiduatedLattice) -> Analysis:
    return Analysis(a)


def principal_filter(a: ResiduatedLattice, x: int) -> int:
    return analysis(a).principal[x]


def generated_filter(a: ResiduatedLattice, subset: int) -> int:
    """Least filter containing the subset (full product, then upward)."""
    e = a.one
    for x in bits(subset):
        e = a.mul[e][x]
    return a.up[a.powers(e)[-1]]


def all_filters(a: ResiduatedLattice) -> tuple[int, ...]:
    return analysis(a).filters


def proper_filters(a: ResiduatedLattice) -> tuple[int, ...]:
    return analysis(a).proper


def maximal_filters(a: ResiduatedLattice) -> tuple[int, ...]:
    return analysis(a).maximals


def prime_filters(a: ResiduatedLattice) -> tuple[int, ...]:
    return analysis(a).primes


def filter_join(a: ResiduatedLattice, f: int, g: int) -> int:
    """up(e * e') for the generators e, e' of f and g: a product of
    idempotents is idempotent, so it generates the join."""
    gen = analysis(a).generator
    return a.up[a.mul[gen[f]][gen[g]]]


def filter_meet(a: ResiduatedLattice, f: int, g: int) -> int:
    return f & g


def join_family(a: ResiduatedLattice, family) -> int:
    out = 1 << a.one
    for f in family:
        out = filter_join(a, out, f)
    return out


def maximals_over(a: ResiduatedLattice, subset: int) -> tuple[int, ...]:
    return tuple(m for m in analysis(a).maximals if m & subset == subset)


@memo
def radical(a: ResiduatedLattice, f: int) -> int:
    """Intersection of the maximal filters containing f; proper input only."""
    if f == a.full:
        raise ImproperInput("radical of the improper filter is not defined")
    if not a.is_filter(f):
        raise NotAFilter(a.set_repr(f))
    over = maximals_over(a, f)
    if not over:
        raise EquivalenceViolation(
            "proper filter not below any maximal filter", detail=a.label
        )
    out = a.full
    for m in over:
        out &= m
    return out


def radical_total(a: ResiduatedLattice, f: int) -> int:
    """radical extended by Rad(A) = A (empty intersection convention)."""
    return a.full if f == a.full else radical(a, f)


def is_semisimple(a: ResiduatedLattice) -> bool:
    return radical_total(a, 1 << a.one) == 1 << a.one


def comaximal_routes(a: ResiduatedLattice, f: int, g: int) -> dict[str, bool]:
    """The join is improper; some product is 0; some negation of f is in g."""
    return {
        "join": filter_join(a, f, g) == a.full,
        "zero_product": any(a.mul[x][y] == a.zero for x in bits(f) for y in bits(g)),
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


def complements_join_to_one(a: ResiduatedLattice, p: int, q: int) -> bool:
    """Some x outside p and y outside q have x v y = 1."""
    return any(
        a.join[x][y] == a.one for x in bits(a.full ^ p) for y in bits(a.full ^ q)
    )


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
    via_primes = via_joins = a.full
    for p in analysis(a).primes:
        if p & subset != subset:
            via_primes &= p
    rows = join_to_one(a)
    for x in bits(subset):
        via_joins &= rows[x]
    routes = {"primes": via_primes, "joins": via_joins}
    return agree(a, "coannihilator routes disagree", routes, subset)


@memo
def element_coannihilator(a: ResiduatedLattice, x: int) -> int:
    return coannihilator(a, 1 << x)


def gamma(a: ResiduatedLattice) -> tuple[int, ...]:
    """The coannihilators of single elements, canonically ordered."""
    return canonical_sort(element_coannihilator(a, x) for x in range(a.n))


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
    for u in g:
        for v in g:
            if u & v not in gs or filter_join(a, u, v) not in gs:
                return False
    for u in g:
        if not any(
            u & v == 1 << a.one and filter_join(a, u, v) == a.full for v in g
        ):
            return False
    return True


def is_baer(a: ResiduatedLattice) -> bool:
    """big_gamma is a sublattice of the filter lattice (joins stay inside)."""
    g = big_gamma(a)
    gs = set(g)
    return all(
        u & v in gs and filter_join(a, u, v) in gs for u in g for v in g
    )


@memo
def down_sets(a: ResiduatedLattice) -> tuple[int, ...]:
    """down_sets(a)[x] is the mask of {y : y <= x}, the ideal dual of a.up[x]."""
    return tuple(mask_of(y for y in range(a.n) if a.leq(y, x)) for x in range(a.n))


def is_ideal(a: ResiduatedLattice, subset: int) -> bool:
    """Non-empty, downward closed, join closed."""
    if subset == 0:
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
    ctx = analysis(a)
    if prime not in ctx.primes:
        raise ImproperInput(f"{a.set_repr(prime)} is not a prime filter")
    via_omega = omega_filter(a, a.full ^ prime)
    via_kernel = a.full
    for q in ctx.primes:
        if q & prime == q:
            via_kernel &= q
    routes = {"omega": via_omega, "kernel": via_kernel}
    return agree(a, "d_part routes disagree", routes, prime)


def local_battery(a: ResiduatedLattice) -> dict[str, bool]:
    """Five equivalent readings of locality.

    They are equivalent for non-trivial algebras; on the one-element algebra
    the nilpotence reading holds vacuously while the others fail, so the
    unanimity check exempts that single degenerate case.
    """
    ctx = analysis(a)
    interior_is_filter = a.is_filter(ctx.interior)
    battery = {
        "unique_maximal_filter": len(ctx.maximals) == 1,
        "interior_is_filter": interior_is_filter,
        "interior_is_proper_filter": interior_is_filter and ctx.interior != a.full,
        "interior_is_the_maximal_filter": interior_is_filter
        and ctx.maximals == (ctx.interior,),
        "zero_products_have_nilpotent_factor": all(
            (ctx.nilpotents >> x) & 1 or (ctx.nilpotents >> y) & 1
            for x in range(a.n)
            for y in range(a.n)
            if (ctx.nilpotents >> a.mul[x][y]) & 1
        ),
    }
    if a.n > 1:
        agree(a, "local characterizations disagree", battery)
    return battery


def is_local(a: ResiduatedLattice) -> bool:
    return len(analysis(a).maximals) == 1
