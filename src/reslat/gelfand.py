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

from dataclasses import dataclass, field

from .core import ResiduatedLattice, bits, quotient
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
    """
    for x in range(a.n):
        for y in range(a.n):
            if a.mul[x][y] != a.zero:
                continue
            if not any(
                a.join[a.neg(px)][a.neg(py)] == a.one
                for px in a.powers(x)
                for py in a.powers(y)
            ):
                return False, (x, y)
    return True, None


def maximal_battery(a: ResiduatedLattice) -> dict[str, bool]:
    """Ten conditions about maximal filters and their d-parts."""
    ctx = flt.analysis(a)
    primes = ctx.primes
    maxima = ctx.maximals
    fs = ctx.filters
    full = a.full
    pairs = [(m, n) for m in maxima for n in maxima if m != n]

    separating_join = all(flt.complements_join_to_one(a, m, n) for m, n in pairs)
    dpart_comaximal = all(
        flt.filter_join(a, flt.d_part(a, m), flt.d_part(a, n)) == full
        for m, n in pairs
    )
    dpart_negation_witness = all(
        any(
            (flt.d_part(a, n) >> a.neg(x)) & 1
            for x in bits(flt.d_part(a, m))
        )
        for m, n in pairs
    )
    dpart_prime_inclusion = all(
        not (flt.d_part(a, p) & m == flt.d_part(a, p)) or p & m == p
        for p in primes
        for m in maxima
    )
    dpart_proper_inclusion = all(
        not (flt.d_part(a, m) & f == flt.d_part(a, m)) or f & m == f
        for f in fs
        if f != full
        for m in maxima
    )
    comaximal_transfer = all(
        flt.filter_join(a, f, flt.d_part(a, m)) == full
        for f in fs
        if f != full
        for m in maxima
        if flt.filter_join(a, f, m) == full
    )
    dpart_unique_maximal = all(
        flt.maximals_over(a, flt.d_part(a, m)) == (m,) for m in maxima
    )
    generalization_is_hull = all(
        top.generalization_mask(primes, 1 << primes.index(m))
        == top.hull_in(primes, flt.d_part(a, m))
        for m in maxima
    )
    dpart_quotient_local = all(
        flt.is_local(quotient(a, flt.d_part(a, m))[0]) for m in maxima
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
    partners = {
        f: [u for u in family if flt.filter_join(a, u, f) == a.full]
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
    ctx = flt.analysis(a)
    return {
        "all_filters": _normal_over(
            a, flt.canonical_sort(a.up[e] for e in bits(ctx.idempotents))
        ),
        "principal_filters": _normal_over(a, flt.canonical_sort(ctx.principal)),
    }


def spectral_separation(a: ResiduatedLattice) -> dict[str, bool]:
    """Distinct maximal points have disjoint open sets around them, i.e.
    disjoint minimal neighbourhoods; and each maximal point's set of
    generalizations is closed."""
    primes = flt.prime_filters(a)
    maxima = flt.maximal_filters(a)
    hspace = top.spec_space(a, "hull")
    nb = [hspace.nb[primes.index(m)] for m in maxima]
    sep = all(not u & v for i, u in enumerate(nb) for v in nb[i + 1:])
    gens_closed = all(
        hspace.is_closed(top.generalization_mask(primes, 1 << primes.index(m)))
        for m in maxima
    )
    return {
        "maximal_pairs_separated": sep,
        "generalizations_closed": gens_closed,
    }


def _retraction(
    space: top.FiniteSpace, mspace: top.FiniteSpace, maxima: tuple[int, ...]
):
    """The continuous map space -> mspace fixing the maximal points, as a
    tuple of images (indices into maxima, which index mspace's points), or
    None. mspace is T1, so such a map is constant on each point closure and
    sends each point to the maximal point in its closure. That map is the
    only candidate; the continuity check rejects it when a closure holds two."""
    if not top.is_t1(mspace):
        raise EquivalenceViolation("maximal spectrum is not T1", detail=mspace.label)
    max_pos = {m: i for i, m in enumerate(maxima)}
    img = []
    for c in space.cl:
        above = [max_pos[space.keys[j]] for j in bits(c) if space.keys[j] in max_pos]
        if not above:
            raise EquivalenceViolation("prime under no maximal filter", detail=space.label)
        img.append(above[0])
    return tuple(img) if top.is_continuous(img.__getitem__, space, mspace) else None


def retractions(a: ResiduatedLattice) -> tuple[int, tuple[int, ...] | None]:
    """Count the continuous retractions Spec_h -> Max_h (at most one); keep it."""
    image = _retraction(top.spec_space(a, "hull"), pr.max_subspace(a), flt.maximal_filters(a))
    return int(image is not None), image


def relation_closure(a: ResiduatedLattice, kind: str) -> tuple[int, ...]:
    """Classes of the transitive closure of a comaximality-failure relation.

    kind "comaximal": p ~ q when p v q is proper.
    kind "dpart": p ~ q when D(p) v D(q) is proper.
    """
    if kind not in ("comaximal", "dpart"):
        raise ValueError(f"unknown relation kind {kind!r}")
    primes = flt.prime_filters(a)
    k = len(primes)

    def related(p, q):
        if kind == "comaximal":
            return flt.filter_join(a, p, q) != a.full
        return flt.filter_join(a, flt.d_part(a, p), flt.d_part(a, q)) != a.full

    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if related(primes[i], primes[j]):
                parent[find(i)] = find(j)
    groups: dict[int, int] = {}
    for i in range(k):
        groups[find(i)] = groups.get(find(i), 0) | (1 << i)
    return flt.canonical_sort(groups.values())


def relation_class_condition(a: ResiduatedLattice, kind: str) -> bool:
    """Every maximal filter's class equals its generalization set."""
    primes = flt.prime_filters(a)
    classes = relation_closure(a, kind)
    for m in flt.maximal_filters(a):
        mi = primes.index(m)
        cls = next(c for c in classes if (c >> mi) & 1)
        if cls != top.generalization_mask(primes, 1 << mi):
            return False
    return True


def quotient_space_homeo(a: ResiduatedLattice, kind: str) -> bool:
    """Does m -> class(m) give Max_h ~ Spec_h / closure classes?"""
    primes = flt.prime_filters(a)
    maxima = flt.maximal_filters(a)
    classes = relation_closure(a, kind)
    max_index = {primes.index(m) for m in maxima}
    for c in classes:
        if len(max_index & set(bits(c))) != 1:
            return False
    hspace = top.spec_space(a, "hull")
    qspace = top.quotient_space(hspace, classes, f"{a.label}:spec/{kind}")
    img = []
    for m in maxima:
        mi = primes.index(m)
        img.append(next(ci for ci, c in enumerate(classes) if (c >> mi) & 1))
    return top.is_homeomorphism(lambda i: img[i], pr.max_subspace(a), qspace)


@dataclass
class GelfandVerdict:
    verdict: bool
    criteria: dict[str, bool]
    details: dict[str, dict[str, bool]] = field(default_factory=dict)
    witnesses: dict[str, str] = field(default_factory=dict)


CRITERIA = (
    "unique_maximal",
    "contessa",
    "maximal_battery",
    "normal_filter_lattice",
    "spectral_separation",
    "max_retract",
    "spectrum_normal",
    "comaximal_classes",
    "dpart_classes",
    "topologies_match_on_max",
    "pure_spectrum_homeo",
    "sigma_battery",
    "rho_battery",
    "rho_rad_adjoint",
)


def gelfand_verdict(a: ResiduatedLattice) -> GelfandVerdict:
    """Evaluate all fourteen criteria and assert their unanimity."""
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
    hrad_space = top.subspace(top.spec_space(a, "hull"), hrad_mask, f"{a.label}:h(Rad)")
    hrad_points = tuple(primes[i] for i in bits(hrad_mask))
    maxima = flt.maximal_filters(a)

    hausdorff = top.is_hausdorff(pr.max_subspace(a))
    unique_max = all(
        len(flt.maximals_over(a, p)) == 1 for p in hrad_points
    )

    retract = _retraction(hrad_space, pr.max_subspace(a), maxima) is not None

    normaletc = top.is_normal(hrad_space)
    gens_closed = all(
        hrad_space.is_closed(
            top.cut(top.generalization_mask(primes, 1 << primes.index(m)), hrad_mask)
        )
        for m in maxima
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


def is_soft(a: ResiduatedLattice, verdict: GelfandVerdict | None = None):
    """Three equivalent readings of softness, with unanimity asserted."""
    if verdict is None:
        verdict = gelfand_verdict(a)
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
        hspace.closure(flt.analysis(a).max_mask) == hspace.full
    )
    by_gelfand = verdict.verdict and rad == one
    routes = {
        "semisimple_with_unique_maximals_over_radical": by_definition,
        "max_hausdorff_and_dense": by_topology,
        "gelfand_and_trivial_radical": by_gelfand,
    }
    return agree(a, "softness routes disagree", routes), routes


def classification(a: ResiduatedLattice, verdict: GelfandVerdict | None = None) -> dict[str, bool]:
    """The six classification flags used by reports and the search."""
    if verdict is None:
        verdict = gelfand_verdict(a)
    soft, _ = is_soft(a, verdict)
    return {
        "gelfand": verdict.verdict,
        "soft": soft,
        "local": flt.is_local(a),
        "semisimple": flt.is_semisimple(a),
        "rickart": flt.is_rickart(a),
        "baer": flt.is_baer(a),
    }
