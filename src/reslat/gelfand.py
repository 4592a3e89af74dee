"""Gelfand residuated lattices: fourteen independent characterizations.

Every criterion that is provably equivalent to "each prime filter lies under
exactly one maximal filter" is computed from scratch by its own route, and
the final verdict insists on unanimity: a single disagreement raises
EquivalenceViolation instead of producing an answer. The same policy covers
the soft/Hausdorff battery and the after-the-fact theorems (unique retraction,
discrete maximal spectrum, rho = sigma, ...) that are implied by a positive
or negative verdict.
"""
from __future__ import annotations

from collections import namedtuple

from .core import ResiduatedLattice, bits, classify_elements, down_masks, memo, quotient
from .errors import EquivalenceViolation, agree
from . import filters as flt
from . import pure as pr
from . import topology as top


def unique_maximal_over_primes(a: ResiduatedLattice):
    """The definition; witness is the first prime under two maximals."""
    for p in flt.prime_filters(a):
        over = flt.maximals_over(a, p)
        if len(over) != 1:
            return False, (p, over)
    return True, None


def contessa_check(a: ResiduatedLattice):
    """Zero products admit powers whose negations join to 1.

    The power exponents range over the full (finite) power sequence of each
    factor, which is exhaustive because powers repeat beyond stabilization.
    Each element's negated powers are listed once.
    """
    negated = [[a.neg(p) for p in a.powers(x)] for x in range(a.n)]
    for x in range(a.n):
        for y in range(a.n):
            if a.mul[x][y] != a.zero:
                continue
            if not any(
                a.join[u][v] == a.one for u in negated[x] for v in negated[y]
            ):
                return False, (x, y)
    return True, None


def maximal_battery(a: ResiduatedLattice) -> dict[str, bool]:
    """Ten conditions about maximal filters and their d-parts. Each prime's
    d-part and the filter joins are read once."""
    primes = flt.prime_filters(a)
    maxima = flt.maximal_filters(a)
    fs = flt.all_filters(a)
    full = a.full
    joins = flt.join_table(a)
    dp = {p: flt.d_part(a, p) for p in primes}
    pairs = [(m, n) for m in maxima for n in maxima if m != n]

    separating_join = all(flt.complements_join_to_one(a, m, n) for m, n in pairs)
    dpart_comaximal = all(joins[dp[m]][dp[n]] == full for m, n in pairs)
    dpart_negation_witness = all(
        any((dp[n] >> a.neg(x)) & 1 for x in bits(dp[m])) for m, n in pairs
    )
    dpart_prime_inclusion = all(
        not (dp[p] & m == dp[p]) or p & m == p for p in primes for m in maxima
    )
    dpart_proper_inclusion = all(
        not (dp[m] & f == dp[m]) or f & m == f
        for f in fs
        if f != full
        for m in maxima
    )
    comaximal_transfer = all(
        joins[f][dp[m]] == full
        for f in fs
        if f != full
        for m in maxima
        if joins[f][m] == full
    )
    dpart_unique_maximal = all(flt.maximals_over(a, dp[m]) == (m,) for m in maxima)
    gens = top.generalization(a)
    generalization_is_hull = all(
        gens[i] == top.hull_in(primes, dp[primes[i]]) for i in bits(flt.max_mask(a))
    )
    dpart_quotient_local = all(
        flt.is_local(quotient(a, dp[m])[0]) for m in maxima
    )
    power_negation_join = all(flt.power_negations_join_outside(a, m) for m in maxima)
    return {
        "separating_join": separating_join,
        "dpart_comaximal": dpart_comaximal,
        "dpart_negation_witness": dpart_negation_witness,
        "dpart_prime_inclusion": dpart_prime_inclusion,
        "dpart_proper_inclusion": dpart_proper_inclusion,
        "comaximal_transfer": comaximal_transfer,
        "dpart_unique_maximal": dpart_unique_maximal,
        "generalization_is_hull": generalization_is_hull,
        "dpart_quotient_local": dpart_quotient_local,
        "power_negation_join": power_negation_join,
    }


def _normal_over(a: ResiduatedLattice, family: tuple[int, ...]) -> bool:
    """Normality of a bounded filter family: comaximal pairs admit
    complementary-ish witnesses meeting in the bottom filter {1}: for each
    comaximal (f, g) some u comaximal with f and v comaximal with g have
    u & v = {1}. The members comaximal with each f are listed once."""
    one = 1 << a.one
    joins = flt.join_table(a)
    partners = {
        f: [u for u in family if joins[u][f] == a.full]
        for f in family
    }
    return all(
        any(u & v == one for u in partners[f] for v in partners[g])
        for f in family
        for g in partners[f]
    )


def normal_filter_lattice(a: ResiduatedLattice) -> dict[str, bool]:
    """Normality of the filter lattice and of the principal-filter lattice.

    Every filter of a finite algebra is up(e) for an idempotent e, and every
    such up(e) is a filter, so the two families coincide as sets; they are
    still assembled by their own routes, from the idempotents and from the
    principal filters of all elements, and checked separately.
    """
    idempotents = classify_elements(a).idempotents
    return {
        "all_filters": _normal_over(
            a, flt.canonical_sort(a.up[e] for e in bits(idempotents))
        ),
        "principal_filters": _normal_over(a, flt.canonical_sort(flt.principal_filters(a))),
    }


def spectral_separation(a: ResiduatedLattice) -> dict[str, bool]:
    """Distinct maximal points have disjoint open sets around them, i.e.
    disjoint minimal neighbourhoods; and each maximal point's set of
    generalizations is closed."""
    at_max = tuple(bits(flt.max_mask(a)))
    hspace = top.spec_space(a, "hull")
    around = down_masks(hspace)
    nb = [around[i] for i in at_max]
    sep = all(not u & v for i, u in enumerate(nb) for v in nb[i + 1:])
    gens = top.generalization(a)
    gens_closed = all(top.is_closed(hspace, gens[i]) for i in at_max)
    return {
        "maximal_pairs_separated": sep,
        "generalizations_closed": gens_closed,
    }


def _retraction(a: ResiduatedLattice, space, points, mspace, maxima: tuple[int, ...]):
    """The continuous map space -> mspace fixing the maximal points, as a
    tuple of images (indices into maxima, which index mspace's points), or
    None; space's points are the filters `points`. mspace is T1, so such a
    map is constant on each point closure and sends each point to the
    maximal point in its closure. That map is the only candidate; the
    continuity check rejects it when a closure holds two."""
    if not top.is_t1(mspace):
        raise EquivalenceViolation("maximal spectrum is not T1", detail=a.label)
    max_pos = {m: i for i, m in enumerate(maxima)}
    img = []
    for c in space:
        above = [max_pos[points[j]] for j in bits(c) if points[j] in max_pos]
        if not above:
            raise EquivalenceViolation("prime under no maximal filter", detail=a.label)
        img.append(above[0])
    return tuple(img) if top.is_continuous(img.__getitem__, space, mspace) else None


@memo
def retractions(a: ResiduatedLattice) -> tuple[int, tuple[int, ...] | None]:
    """Count the continuous retractions Spec_h -> Max_h (at most one); keep it."""
    image = _retraction(a, top.spec_space(a, "hull"), flt.prime_filters(a),
                        pr.max_subspace(a), flt.maximal_filters(a))
    return int(image is not None), image


@memo
def relation_closure(a: ResiduatedLattice, kind: str) -> tuple[int, ...]:
    """Classes of the transitive closure of a comaximality-failure relation.

    kind "comaximal": p ~ q when p v q is proper.
    kind "dpart": p ~ q when D(p) v D(q) is proper.
    """
    if kind not in ("comaximal", "dpart"):
        raise ValueError(f"unknown relation kind {kind!r}")
    # the filters whose joins relate the primes, in the primes' order
    sides = flt.prime_filters(a)
    if kind == "dpart":
        sides = tuple(flt.d_part(a, p) for p in sides)
    joins = flt.join_table(a)
    k = len(sides)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        row = joins[sides[i]]
        for j in range(i + 1, k):
            if row[sides[j]] != a.full:
                parent[find(i)] = find(j)
    groups: dict[int, int] = {}
    for i in range(k):
        groups[find(i)] = groups.get(find(i), 0) | (1 << i)
    return flt.canonical_sort(groups.values())


def relation_class_condition(a: ResiduatedLattice, kind: str) -> bool:
    """Every maximal filter's class equals its generalization set."""
    classes = relation_closure(a, kind)
    gens = top.generalization(a)
    for mi in bits(flt.max_mask(a)):
        cls = next(c for c in classes if (c >> mi) & 1)
        if cls != gens[mi]:
            return False
    return True


def quotient_space_homeo(a: ResiduatedLattice, kind: str) -> bool:
    """Does m -> class(m) give Max_h ~ Spec_h / closure classes?"""
    at_max = flt.max_mask(a)
    classes = relation_closure(a, kind)
    for c in classes:
        if bin(at_max & c).count("1") != 1:
            return False
    hspace = top.spec_space(a, "hull")
    qspace = top.quotient_space(hspace, classes)
    img = [next(ci for ci, c in enumerate(classes) if (c >> mi) & 1) for mi in bits(at_max)]
    return top.is_homeomorphism(lambda i: img[i], pr.max_subspace(a), qspace)


# The verdict, each criterion's value, each battery's leaves by criterion,
# and the witnesses some criteria name.
GelfandVerdict = namedtuple("GelfandVerdict", "verdict criteria details witnesses")


@memo
def gelfand_verdict(a: ResiduatedLattice) -> GelfandVerdict:
    """Evaluate all fourteen criteria and assert their unanimity, once per
    algebra."""
    criteria: dict[str, bool] = {}
    details: dict[str, dict[str, bool]] = {}
    witnesses: dict[str, str] = {}
    leaves: dict[str, bool] = {}

    def record(name: str, result) -> None:
        """A dict result is a battery: every leaf votes as "name.leaf", and
        the criterion holds when all of them do. A bool result is a single
        leaf, voting as "name"."""
        if isinstance(result, dict):
            details[name] = result
            leaves.update((f"{name}.{leaf}", v) for leaf, v in result.items())
            criteria[name] = all(result.values())
        else:
            leaves[name] = result
            criteria[name] = result

    uniq, wit = unique_maximal_over_primes(a)
    record("unique_maximal", uniq)
    if wit is not None:
        p, over = wit
        witnesses["unique_maximal"] = (
            f"prime {a.set_repr(p)} lies under "
            + " and ".join(a.set_repr(m) for m in over[:2])
        )

    cont, wit = contessa_check(a)
    record("contessa", cont)
    if wit is not None:
        x, y = wit
        witnesses["contessa"] = (
            f"{a.names[x]}*{a.names[y]} = 0 but no powers have "
            f"negations joining to 1"
        )

    record("maximal_battery", maximal_battery(a))
    record("normal_filter_lattice", normal_filter_lattice(a))
    record("spectral_separation", spectral_separation(a))
    count, first = retractions(a)
    record("max_retract", count >= 1)
    record("spectrum_normal", top.is_normal(top.spec_space(a, "hull")))
    for kind, name in (("comaximal", "comaximal_classes"), ("dpart", "dpart_classes")):
        record(name, {
            "classes_match_generalizations": relation_class_condition(a, kind),
            "quotient_homeomorphic_to_max": quotient_space_homeo(a, kind),
        })
    record("topologies_match_on_max", pr.d_topology_coincidence(a))
    record("pure_spectrum_homeo", pr.spp_max_homeo(a))
    record("sigma_battery", pr.sigma_battery(a))
    record("rho_battery", pr.rho_battery(a))
    record("rho_rad_adjoint", pr.rho_rad_adjunction(a))

    verdict = agree(a, "Gelfand criteria disagree", leaves)

    # theorems implied by the verdict, asserted rather than reported
    if verdict:
        if count != 1:
            raise EquivalenceViolation(
                "Gelfand algebra without a unique retraction", detail=a.label
            )
        primes = flt.prime_filters(a)
        maxima = flt.maximal_filters(a)
        expected = tuple(
            maxima.index(flt.maximals_over(a, p)[0]) for p in primes
        )
        routes = {"retraction": first, "unique_maximal": expected}
        agree(a, "unique retraction is not the unique-maximal map", routes)
        mspace = pr.max_subspace(a)
        if not (top.is_hausdorff(mspace) and top.is_discrete(mspace)):
            raise EquivalenceViolation(
                "Gelfand maximal spectrum is not discrete", detail=a.label
            )
        pr.gelfand_pure_laws(a)
    return GelfandVerdict(
        verdict=verdict, criteria=criteria, details=details, witnesses=witnesses
    )


def hausdorff_battery(a: ResiduatedLattice) -> dict[str, bool]:
    """Six equivalent statements about the maximal spectrum being Hausdorff.

    These are equivalent to each other on every algebra (asserted), and all
    six hold exactly when Max_h is Hausdorff; softness additionally needs
    semisimplicity.
    """
    primes = flt.prime_filters(a)
    rad = flt.radical_total(a, 1 << a.one)
    hrad_mask = top.hull_in(primes, rad)
    hrad_space = top.subspace(top.spec_space(a, "hull"), hrad_mask)
    hrad_points = tuple(primes[i] for i in bits(hrad_mask))
    maxima = flt.maximal_filters(a)

    hausdorff = top.is_hausdorff(pr.max_subspace(a))
    unique_max = all(
        len(flt.maximals_over(a, p)) == 1 for p in hrad_points
    )

    retract = _retraction(a, hrad_space, hrad_points, pr.max_subspace(a), maxima) is not None

    normaletc = top.is_normal(hrad_space)
    gens = top.generalization(a)
    gens_closed = all(
        top.is_closed(hrad_space, top.cut(gens[i], hrad_mask)) for i in bits(flt.max_mask(a))
    )

    negations_in_radical = all(
        any(
            (rad >> a.join[a.neg(px)][a.neg(py)]) & 1
            for px in a.powers(x)
            for py in a.powers(y)
        )
        for x in range(a.n)
        for y in range(a.n)
        if a.mul[x][y] == a.zero
    )

    battery = {
        "max_hausdorff": hausdorff,
        "radical_hull_unique_maximal": unique_max,
        "max_retract_of_radical_hull": retract,
        "radical_hull_normal": normaletc,
        "generalizations_closed_in_radical_hull": gens_closed,
        "negation_joins_in_radical": negations_in_radical,
    }
    agree(a, "Hausdorff battery disagrees", battery)
    return battery


@memo
def is_soft(a: ResiduatedLattice):
    """Three equivalent readings of softness, with unanimity asserted."""
    one = 1 << a.one
    rad = flt.radical_total(a, one)
    primes = flt.prime_filters(a)
    semis = flt.is_semisimple(a)
    by_definition = semis and all(
        len(flt.maximals_over(a, p)) == 1
        for p in primes
        if p & rad == rad
    )
    hspace = top.spec_space(a, "hull")
    by_topology = top.is_hausdorff(pr.max_subspace(a)) and (
        top.closure(hspace, flt.max_mask(a)) == (1 << len(hspace)) - 1
    )
    by_gelfand = gelfand_verdict(a).verdict and rad == one
    routes = {
        "semisimple_with_unique_maximals_over_radical": by_definition,
        "max_hausdorff_and_dense": by_topology,
        "gelfand_and_trivial_radical": by_gelfand,
    }
    return agree(a, "softness routes disagree", routes), routes


def classification(a: ResiduatedLattice) -> dict[str, bool]:
    """The six classification flags used by reports and the search."""
    soft, _ = is_soft(a)
    return {
        "gelfand": gelfand_verdict(a).verdict,
        "soft": soft,
        "local": flt.is_local(a),
        "semisimple": flt.is_semisimple(a),
        "rickart": flt.is_rickart(a),
        "baer": flt.is_baer(a),
    }
