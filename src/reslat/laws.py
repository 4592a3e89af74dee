"""Every law suite of the package: cross-cutting identities tying elements,
filters and quotients together, the sigma and rho laws, the pure-spectrum
laws, and the hull-kernel facts of the spectrum.

Each suite returns a dict of named booleans and raises EquivalenceViolation
when any law fails, so a single call both documents and enforces the
corresponding facts. `run_laws` is the one table of suites, keyed as in the
report; reports run it on every algebra they describe.
"""
from __future__ import annotations

from .core import ResiduatedLattice, bits, classify_elements, mask_of, meet, quotient
from .errors import EquivalenceViolation, agree, hold
from . import filters as flt
from . import pure as pr
from . import topology as top


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
    principal = flt.principal_filters(a)
    joins = flt.join_table(a)
    join_is_power_cone = True
    for f in flt.all_filters(a):
        for x in range(a.n):
            cone = 0
            for g in bits(f):
                for px in a.powers(x):
                    cone |= a.up[a.mul[g][px]]
            if cone != joins[f][principal[x]]:
                join_is_power_cone = False
    antitone = all(
        principal[y] & principal[x] == principal[y]
        for x in range(a.n)
        for y in range(a.n)
        if a.leq(x, y)
    )
    meet_rule = all(
        principal[x] & principal[y] == principal[a.join[x][y]]
        for x in range(a.n)
        for y in range(a.n)
    )
    join_rule = all(
        joins[principal[x]][principal[y]] == principal[a.mul[x][y]]
        for x in range(a.n)
        for y in range(a.n)
    )
    fam = set(principal)
    sublattice = all(u & v in fam and joins[u][v] in fam for u in fam for v in fam)
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
    joins = flt.join_table(a)
    distributive = all(
        f & joins[g][h] == joins[f & g][f & h]
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
    ni = classify_elements(a).nilpotents
    ok = flt.is_ideal(a, ni) if ni else True
    return hold(a, "nilpotent ideal", {"nilpotents_form_ideal": ok})


def beta_radical_laws(a: ResiduatedLattice) -> dict[str, bool]:
    """The Boolean center against primes, the radical, and d-parts."""
    beta = classify_elements(a).boolean_center
    primes = flt.prime_filters(a)
    joins = flt.join_table(a)
    one = 1 << a.one
    rad = flt.radical_total(a, one)
    center_in_dpart = all(
        beta & p & flt.d_part(a, p) == beta & p for p in primes
    )
    center_meets_radical_trivially = beta & rad == one
    # The filter join of two d-parts being improper does not preclude a
    # separating join witness (A8 with primes {f,1} and {c,e,1} is a
    # counterexample), so only the forward direction is a law; the full
    # equivalence belongs to the omega join, i.e. the ideal join of the
    # complements.
    dpart_comaximal_implies_witness = all(
        joins[flt.d_part(a, p)][flt.d_part(a, q)] != a.full
        or flt.complements_join_to_one(a, p, q)
        for p in primes
        for q in primes
    )
    ideal_join_iff_witness = all(
        (_ideal_closure(a, (a.full ^ p) | (a.full ^ q)) == a.full)
        == flt.complements_join_to_one(a, p, q)
        for p in primes
        for q in primes
    )
    return hold(a, "boolean center", {
        "center_in_dpart": center_in_dpart,
        "center_meets_radical_trivially": center_meets_radical_trivially,
        "dpart_comaximal_implies_witness": dpart_comaximal_implies_witness,
        "complement_ideal_join_iff_witness": ideal_join_iff_witness,
    })


def dpart_meet_law(a: ResiduatedLattice) -> dict[str, bool]:
    """The d-parts of the maximal filters intersect in {1}."""
    out = meet(a, (flt.d_part(a, m) for m in flt.maximal_filters(a)))
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
    """Galois-style behavior of X |-> X-perp. Filterhood, S <= perp(perp(S))
    and perp^3 = perp are checked on the empty set, A, the singletons and the
    pairs. That base carries every subset: the primes omitting S u T are
    those omitting S plus those omitting T, so perp(S u T) = perp(S) n perp(T)
    is a meet of singleton perps, which are filters, and perp is antitone.
    The co-join rows are symmetric, so S <= perp(perp(S)), and then
    perp^3 = perp.

    Antitony is checked as perp(T) <= perp(T - {y}) for every set T of one
    to three elements and every y in T, each T walked once. These are the
    instances perp(S u {x}) <= perp(S) for S in the base and x outside S;
    those with x in S hold trivially and are not checked. Only the base and
    its first and second perps are kept; the perp of a three-element set is
    read from them when it is there and otherwise computed, with both routes
    compared, and dropped, so the suite holds O(n^2) perps instead of
    O(n^3). Each distinct subset is still asked for once."""
    singles = [1 << x for x in range(a.n)]
    # ordered by their larger element, so the pairs below x come first
    pairs = [s | t for i, s in enumerate(singles) for t in singles[:i]]
    rows = flt.join_to_one(a)
    filterhood = True
    extensive = all(
        rows[x] >> y & 1 == rows[y] >> x & 1 for x in range(a.n) for y in range(x)
    )
    triple = True
    antitone = True
    perps: dict[int, int] = {}

    def perp(s: int) -> int:
        """flt.coannihilator, with both routes compared once per subset."""
        if s not in perps:
            perps[s] = flt.coannihilator(a, s)
        return perps[s]

    for s in [0, a.full] + singles + pairs:
        cs = perp(s)
        if not a.is_filter(cs):
            filterhood = False
        ccs = perp(cs)
        if s & ccs != s:
            extensive = False
        if perp(ccs) != cs:
            triple = False
    for x in range(a.n):
        for s in [0] + singles[:x] + pairs[: x * (x - 1) // 2]:
            t = s | singles[x]
            pt = perps[t] if t in perps else flt.coannihilator(a, t)
            if any(pt & perps[t ^ (1 << y)] != pt for y in bits(t)):
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


# ------------------------------------------------- pure filters, sigma and rho


def sigma_laws(a: ResiduatedLattice) -> dict[str, bool]:
    """The unconditional sigma laws; every False is raised as a violation.

    The join inequality, v sigma(F_i) <= sigma(v F_i) for every family, is
    checked on all pairs; induction over join_family's fold gives the rest:
    the empty join {1} is below every filter, and if the inequality holds for
    F_1..F_k-1 with join G, the pairwise law at (G, F_k) extends it to k.
    """
    fs = flt.all_filters(a)
    joins = flt.join_table(a)
    laws = {}
    laws["routes_agree"] = all(pr.sigma(a, f) is not None for f in fs)
    laws["contractive_filter"] = all(
        a.is_filter(pr.sigma(a, f)) and pr.sigma(a, f) & f == pr.sigma(a, f) for f in fs
    )
    laws["monotone"] = all(
        pr.sigma(a, f) & pr.sigma(a, g) == pr.sigma(a, f)
        for f in fs
        for g in fs
        if f & g == f
    )
    laws["below_d_part_on_primes"] = all(
        pr.sigma(a, p) & flt.d_part(a, p) == pr.sigma(a, p)
        for p in flt.prime_filters(a)
    )
    laws["equals_d_part_on_maximals"] = all(
        pr.sigma(a, m) == flt.d_part(a, m) for m in flt.maximal_filters(a)
    )
    laws["meet_homomorphism"] = all(
        pr.sigma(a, f & g) == pr.sigma(a, f) & pr.sigma(a, g) for f in fs for g in fs
    )
    laws["family_join_inequality"] = all(
        (lambda j: j & pr.sigma(a, joins[f][g]) == j)(
            joins[pr.sigma(a, f)][pr.sigma(a, g)]
        )
        for f in fs
        for g in fs
    )
    return hold(a, "sigma", laws)


def sigma_frame_laws(a: ResiduatedLattice) -> dict[str, bool]:
    """The pure filters form a frame inside the filter lattice.

    Frame distributivity, f ^ (v g_i) = v (f ^ g_i) for every family of pure
    g_i, is checked on all pure triples; induction over join_family's fold
    gives the rest: both sides are {1} on the empty family, and the join G of
    g_1..g_k-1 is pure (join_closed), so the triple law at (f, G, g_k)
    extends it to k.
    """
    pure = pr.pure_filters(a)
    pure_set = set(pure)
    joins = flt.join_table(a)
    laws = {
        "meet_closed": all(f & g in pure_set for f in pure for g in pure),
        "join_closed": all(joins[f][g] in pure_set for f in pure for g in pure),
        "bounds": (1 << a.one) in pure_set and a.full in pure_set,
        "frame_distributivity": all(
            f & joins[g][h] == joins[f & g][f & h]
            for f in pure
            for g in pure
            for h in pure
        ),
    }
    return hold(a, "sigma frame", laws)


def pure_intersection_law(a: ResiduatedLattice) -> dict[str, bool]:
    """Every pure filter is the meet of the d-parts of the maximals over it."""
    ok = all(
        meet(a, (flt.d_part(a, m) for m in flt.maximals_over(a, f))) == f
        for f in pr.pure_filters(a)
    )
    laws = {"pure_is_meet_of_d_parts": ok}
    return hold(a, "pure intersection", laws)


def rho_laws(a: ResiduatedLattice) -> dict[str, bool]:
    fs = flt.all_filters(a)
    pure = set(pr.pure_filters(a))
    laws = {}
    laws["below_sigma"] = all(
        pr.rho(a, f) & pr.sigma(a, f) == pr.rho(a, f) for f in fs
    )
    laws["kernel_operator"] = all(
        pr.rho(a, f) & f == pr.rho(a, f) and pr.rho(a, pr.rho(a, f)) == pr.rho(a, f)
        for f in fs
    ) and all(
        pr.rho(a, f) & pr.rho(a, g) == pr.rho(a, f) for f in fs for g in fs if f & g == f
    )
    laws["fixed_points_are_pure"] = {f for f in fs if pr.rho(a, f) == f} == pure
    laws["meet_homomorphism"] = all(
        pr.rho(a, f & g) == pr.rho(a, f) & pr.rho(a, g) for f in fs for g in fs
    )
    laws["pure_is_meet_of_maximal_parts"] = all(
        meet(a, (pr.rho(a, m) for m in flt.maximals_over(a, f))) == f for f in pure
    )
    laws["pure_recovered_from_radical"] = all(
        pr.rho(a, flt.radical_total(a, f)) == f for f in pure
    )
    laws["same_part_as_d_part_on_primes"] = all(
        pr.rho(a, p) == pr.rho(a, flt.d_part(a, p)) for p in flt.prime_filters(a)
    )
    return hold(a, "rho", laws)


def purely_prime_laws(a: ResiduatedLattice) -> dict[str, bool]:
    spp = set(pr.purely_prime(a))
    laws = {}
    laws["pure_part_of_prime_is_purely_prime"] = all(
        pr.rho(a, p) in spp for p in flt.prime_filters(a)
    )
    laws["purely_maximal_are_max_pure_parts"] = set(pr.purely_maximal(a)) <= {
        pr.rho(a, m) for m in flt.maximal_filters(a)
    }
    laws["pure_is_meet_of_purely_primes_above"] = all(
        meet(a, (cand for cand in spp if cand & f == f)) == f
        for f in pr.pure_filters(a)
    )
    return hold(a, "purely prime", laws)


def continuity_law(a: ResiduatedLattice) -> dict[str, bool]:
    """The pure part map reflects the pure-spectrum opens exactly:
    for pure F and prime p, F <= rho(p) iff F <= p."""
    ok = all(
        (f & pr.rho(a, p) == f) == (f & p == f)
        for f in pr.pure_filters(a)
        for p in flt.prime_filters(a)
    )
    laws = {"pure_part_map_reflects_opens": ok}
    return hold(a, "continuity", laws)


def stable_open_law(a: ResiduatedLattice) -> dict[str, bool]:
    """Opens of Spec_h stable under specialization = duals of pure filters."""
    primes = flt.prime_filters(a)
    hspace = top.spec_space(a, "hull")
    stable_opens = {
        o
        for o in top.opens(hspace)
        if top.specialization_mask(primes, o) == o
    }
    full = (1 << len(primes)) - 1
    pure_duals = {full ^ top.hull_in(primes, f) for f in pr.pure_filters(a)}
    laws = {"stable_opens_are_pure_duals": stable_opens == pure_duals}
    return hold(a, "stable open", laws)


# ---------------------------------------------------- the hull-kernel spectrum


def closure_lemmas(a: ResiduatedLattice) -> bool:
    """For every set of primes: hull-kernel closure = hull of kernel =
    specialization set, and dual closure = generalization set. Each route is
    a union over the points of the set, the hull of the kernel because
    hull(F n G) = hull(F) u hull(G) for filters (checked on every pair), so
    the routes are compared on the empty set and on each single point."""
    points = flt.prime_filters(a)
    hspace = top.spec_space(a, "hull")
    dspace = top.spec_space(a, "dual")
    hulls = {f: top.hull_in(points, f) for f in flt.all_filters(a)}
    for f in hulls:
        for g in hulls:
            routes = {"hull_of_meet": top.hull_in(points, f & g), "union": hulls[f] | hulls[g]}
            agree(a, "closure lemmas fail", routes, f, g)
    for pi in [0] + [1 << i for i in range(len(points))]:
        where = [points[i] for i in bits(pi)]
        hull = {
            "hull_closure": top.closure(hspace, pi),
            "hull_of_kernel": top.hull_in(points, top.kernel_of(a, points, pi)),
            "specialization": top.specialization_mask(points, pi),
        }
        dual = {
            "dual_closure": top.closure(dspace, pi),
            "generalization": top.generalization_mask(points, pi),
        }
        agree(a, "closure lemmas fail", hull, *where)
        agree(a, "closure lemmas fail", dual, *where)
    return True


def patch_stability_criterion(a: ResiduatedLattice) -> bool:
    """A point set is hull-kernel closed iff it is patch closed and stable
    under specialization. The patch space is discrete (read off its point
    closures), so every set is patch closed, and the criterion says
    that the hull-closed sets are the stable ones: the unions of up-sets
    that `hull_closed_family_facts` builds, since S is stable iff S is the
    union of its points' up-sets. Asserted; returns True."""
    if not top.is_discrete(top.spec_space(a, "patch")):
        raise EquivalenceViolation("patch topology is not discrete", detail=a.label)
    return hull_closed_family_facts(a)


def max_dense_iff_semisimple(a: ResiduatedLattice) -> bool:
    """Density of the maximals in the spectrum = semisimplicity. Asserted;
    returns True."""
    hspace = top.spec_space(a, "hull")
    agree(a, "density of maximals disagrees with semisimplicity", {
        "max_dense": top.closure(hspace, flt.max_mask(a)) == (1 << len(hspace)) - 1,
        "semisimple": flt.is_semisimple(a),
    })
    return True


def hull_closed_family_facts(a: ResiduatedLattice) -> bool:
    """The hull-kernel closed sets are exactly the filter hulls and exactly
    the specialization-stable sets, built as unions of the points' up-sets
    and cut off once they outnumber the filter hulls."""
    points = flt.prime_filters(a)
    filter_hulls = {top.hull_in(points, f) for f in flt.all_filters(a)}
    stable = {0}
    for up in (top.specialization_mask(points, 1 << i) for i in range(len(points))):
        stable |= {s | up for s in stable}
        if len(stable) > len(filter_hulls):
            break
    closed = top.closed_sets(top.spec_space(a, "hull"))
    routes = {"stable": stable, "filter_hulls": filter_hulls, "closed": closed}
    agree(a, "closed-set descriptions of the spectrum disagree", routes)
    return True


def topology_laws(a: ResiduatedLattice) -> dict[str, bool]:
    """The spectral facts, each asserted by its own check, which raises
    EquivalenceViolation when its routes disagree. The patch/stability
    criterion returns the closed-family facts it rests on, and
    `topology.clopen_check` returns the clopen sets it compared."""
    lemmas = closure_lemmas(a)
    closed = patch_stability_criterion(a)
    top.clopen_check(a)
    return hold(a, "topology", {
        "closure_lemmas": lemmas,
        "closed_families_coincide": closed,
        "patch_stability_criterion": closed,
        "clopens_are_center_hulls": True,
        "max_dense_iff_semisimple": max_dense_iff_semisimple(a),
    })


def run_laws(a: ResiduatedLattice) -> dict[str, dict[str, bool]]:
    """Every law suite in the package, by its key in the report; raises
    EquivalenceViolation on any failure, otherwise returns the named results."""
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
        "sigma": sigma_laws(a),
        "sigma_frame": sigma_frame_laws(a),
        "pure_intersection": pure_intersection_law(a),
        "rho": rho_laws(a),
        "purely_prime": purely_prime_laws(a),
        "continuity": continuity_law(a),
        "stable_open": stable_open_law(a),
        "topology": topology_laws(a),
    }
