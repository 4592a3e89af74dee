"""Cross-cutting identities tying elements, filters and quotients together.

Each suite returns a dict of named booleans and raises EquivalenceViolation
when any law fails, so a single call both documents and enforces the
corresponding facts. Reports run all suites on every algebra they describe.
"""
from __future__ import annotations

from .core import ResiduatedLattice, bits, mask_of, quotient
from .errors import hold
from . import filters as flt


def _ideal_closure(a: ResiduatedLattice, subset: int) -> int:
    """Least lattice ideal containing the subset: the down-set of its join,
    as a finite lattice has only principal non-empty ideals; empty for the
    empty set."""
    if not subset:
        return 0
    sup = a.zero
    for x in bits(subset):
        sup = a.join[sup][x]
    return flt.down_sets(a)[sup]


def generated_filter_laws(a: ResiduatedLattice) -> dict[str, bool]:
    """How principal filters combine with joins, meets and products."""
    ctx = flt.analysis(a)
    join_is_power_cone = True
    for f in ctx.filters:
        for x in range(a.n):
            cone = 0
            for g in bits(f):
                for px in a.powers(x):
                    cone |= a.up[a.mul[g][px]]
            if cone != flt.filter_join(a, f, ctx.principal[x]):
                join_is_power_cone = False
    antitone = all(
        ctx.principal[y] & ctx.principal[x] == ctx.principal[y]
        for x in range(a.n)
        for y in range(a.n)
        if a.leq(x, y)
    )
    meet_rule = all(
        ctx.principal[x] & ctx.principal[y] == ctx.principal[a.join[x][y]]
        for x in range(a.n)
        for y in range(a.n)
    )
    join_rule = all(
        flt.filter_join(a, ctx.principal[x], ctx.principal[y])
        == ctx.principal[a.mul[x][y]]
        for x in range(a.n)
        for y in range(a.n)
    )
    fam = set(ctx.principal)
    sublattice = all(
        u & v in fam and flt.filter_join(a, u, v) in fam for u in fam for v in fam
    )
    return hold(a, "generated filter", {
        "join_is_power_cone": join_is_power_cone,
        "antitone": antitone,
        "meet_of_principals": meet_rule,
        "join_of_principals": join_rule,
        "principal_sublattice": sublattice,
    })


def comaximality_laws(a: ResiduatedLattice) -> dict[str, bool]:
    """Exercise the three comaximality routes over every proper pair."""
    for f in flt.proper_filters(a):
        for g in flt.proper_filters(a):
            flt.is_comaximal(a, f, g)
    return {"three_route_agreement": True}


def maximality_power_law(a: ResiduatedLattice) -> dict[str, bool]:
    """Maximality coincides with the negated-power membership test."""
    maxima = set(flt.maximal_filters(a))
    ok = all(
        (f in maxima) == flt.is_maximal_by_powers(a, f)
        for f in flt.proper_filters(a)
    )
    return hold(a, "maximality power", {"powers_detect_maximality": ok})


def filter_lattice_laws(a: ResiduatedLattice) -> dict[str, bool]:
    fs = flt.all_filters(a)
    distributive = all(
        flt.filter_meet(a, f, flt.filter_join(a, g, h))
        == flt.filter_join(a, flt.filter_meet(a, f, g), flt.filter_meet(a, f, h))
        for f in fs
        for g in fs
        for h in fs
    )
    empty_join = flt.join_family(a, []) == 1 << a.one
    total_join = flt.join_family(a, fs) == a.full
    return hold(a, "filter lattice", {
        "distributive": distributive,
        "empty_join_is_bottom": empty_join,
        "total_join_is_top": total_join,
    })


def nilpotent_ideal_law(a: ResiduatedLattice) -> dict[str, bool]:
    ni = flt.analysis(a).nilpotents
    ok = flt.is_ideal(a, ni) if ni else True
    return hold(a, "nilpotent ideal", {"nilpotents_form_ideal": ok})


def beta_radical_laws(a: ResiduatedLattice) -> dict[str, bool]:
    """The Boolean center against primes, the radical, and d-parts."""
    ctx = flt.analysis(a)
    beta = ctx.beta
    one = 1 << a.one
    rad = flt.radical_total(a, one)
    center_in_dpart = all(
        beta & p & flt.d_part(a, p) == beta & p for p in ctx.primes
    )
    center_meets_radical_trivially = beta & rad == one
    # The filter join of two d-parts being improper does not preclude a
    # separating join witness (A8 with primes {f,1} and {c,e,1} is a
    # counterexample), so only the forward direction is a law; the full
    # equivalence belongs to the omega join, i.e. the ideal join of the
    # complements.
    dpart_comaximal_implies_witness = all(
        flt.filter_join(a, flt.d_part(a, p), flt.d_part(a, q)) != a.full
        or flt.complements_join_to_one(a, p, q)
        for p in ctx.primes
        for q in ctx.primes
    )
    ideal_join_iff_witness = all(
        (_ideal_closure(a, (a.full ^ p) | (a.full ^ q)) == a.full)
        == flt.complements_join_to_one(a, p, q)
        for p in ctx.primes
        for q in ctx.primes
    )
    return hold(a, "boolean center", {
        "center_in_dpart": center_in_dpart,
        "center_meets_radical_trivially": center_meets_radical_trivially,
        "dpart_comaximal_implies_witness": dpart_comaximal_implies_witness,
        "complement_ideal_join_iff_witness": ideal_join_iff_witness,
    })


def dpart_meet_law(a: ResiduatedLattice) -> dict[str, bool]:
    """The d-parts of the maximal filters intersect in {1}."""
    out = a.full
    for m in flt.maximal_filters(a):
        out &= flt.d_part(a, m)
    return hold(a, "d-part meet", {"maximal_dparts_meet_in_one": out == 1 << a.one})


def quotient_maximals_law(a: ResiduatedLattice) -> dict[str, bool]:
    """Max(A/F) is exactly the image of the maximal filters over F."""
    ok = True
    for f in flt.all_filters(a):
        q, proj = quotient(a, f)
        image = {
            mask_of(proj[x] for x in bits(m)) for m in flt.maximals_over(a, f)
        }
        if set(flt.maximal_filters(q)) != image:
            ok = False
    return hold(a, "quotient maximals", {"maximals_project": ok})


def local_quotient_law(a: ResiduatedLattice) -> dict[str, bool]:
    """A/D(m) is local exactly when every x outside m has a power whose
    negation is comaximal with something outside m."""
    ok = True
    for m in flt.maximal_filters(a):
        q, _ = quotient(a, flt.d_part(a, m))
        if flt.is_local(q) != flt.power_negations_join_outside(a, m):
            ok = False
    return hold(a, "local quotient", {"dpart_quotient_local_iff": ok})


def coannihilator_laws(a: ResiduatedLattice) -> dict[str, bool]:
    """Galois-style behavior of X |-> X-perp, checked on the empty set, A, the
    singletons and the pairs. That base carries every subset: the primes
    omitting S u T are those omitting S plus those omitting T, so
    perp(S u T) = perp(S) n perp(T) is a meet of singleton perps, which are
    filters, and perp is antitone. The co-join rows are symmetric, so
    S <= perp(perp(S)), and then perp^3 = perp."""
    subsets = [0, a.full] + [1 << x for x in range(a.n)] + [
        (1 << x) | (1 << y) for x in range(a.n) for y in range(x)
    ]
    rows = flt.join_to_one(a)
    filterhood = True
    extensive = all(
        rows[x] >> y & 1 == rows[y] >> x & 1 for x in range(a.n) for y in range(x)
    )
    triple = True
    antitone = True
    for s in subsets:
        cs = flt.coannihilator(a, s)
        if not a.is_filter(cs):
            filterhood = False
        ccs = flt.coannihilator(a, cs)
        if s & ccs != s:
            extensive = False
        if flt.coannihilator(a, ccs) != cs:
            triple = False
        for x in range(a.n):
            wider = flt.coannihilator(a, s | (1 << x))
            if wider & cs != wider:
                antitone = False
    return hold(a, "coannihilator", {
        "always_a_filter": filterhood,
        "subset_of_double": extensive,
        "triple_equals_single": triple,
        "antitone": antitone,
    })


def omega_monotone_law(a: ResiduatedLattice) -> dict[str, bool]:
    """omega is monotone over the lattice ideals. The non-empty ideals of a
    finite lattice are exactly the principal ones, the down-sets of single
    elements; each is still asserted to be an ideal."""
    ideals = flt.down_sets(a)
    ok = all(flt.is_ideal(a, i) for i in ideals)
    if ok:
        omegas = {i: flt.omega_filter(a, i) for i in ideals}
        ok = all(
            omegas[i] & omegas[j] == omegas[i]
            for i in ideals
            for j in ideals
            if j & i == i
        )
    return hold(a, "omega", {"monotone_on_ideals": ok})


def run_all(a: ResiduatedLattice) -> dict[str, dict[str, bool]]:
    """Every law suite in this module, keyed by suite name."""
    return {
        "generated_filter": generated_filter_laws(a),
        "comaximality": comaximality_laws(a),
        "maximality_power": maximality_power_law(a),
        "filter_lattice": filter_lattice_laws(a),
        "nilpotent_ideal": nilpotent_ideal_law(a),
        "boolean_center": beta_radical_laws(a),
        "dpart_meet": dpart_meet_law(a),
        "quotient_maximals": quotient_maximals_law(a),
        "local_quotient": local_quotient_law(a),
        "coannihilator": coannihilator_laws(a),
        "omega": omega_monotone_law(a),
    }
