"""Pure filters: the sigma and rho operators and the pure spectrum.

sigma(F) is computed two independent ways and the results are compared every
time: as the kernel of the generalizations of the hull of F, and elementwise
as {x : F v coann(x) = A}. rho(F) is the largest pure filter inside F, where
pure means sigma-fixed. The purely prime filters carry the pure spectrum,
whose closed sets are the pure hulls h_p(F).
"""
from __future__ import annotations

from .core import ResiduatedLattice, bits, memo
from .errors import EquivalenceViolation, agree, hold
from . import filters as flt
from . import topology as top


@memo
def sigma(a: ResiduatedLattice, f: int) -> int:
    """Pure closure data of a filter, by two routes that must agree."""
    primes = flt.prime_filters(a)
    hf = top.hull_in(primes, f)
    gen = top.generalization_mask(primes, hf)
    via_kernel = top.kernel_of(a, primes, gen)
    via_joins = 0
    for x in range(a.n):
        if flt.filter_join(a, f, flt.element_coannihilator(a, x)) == a.full:
            via_joins |= 1 << x
    routes = {"kernel": via_kernel, "joins": via_joins}
    return agree(a, "sigma routes disagree", routes, f)


@memo
def pure_filters(a: ResiduatedLattice) -> tuple[int, ...]:
    return tuple(f for f in flt.all_filters(a) if sigma(a, f) == f)


def is_pure(a: ResiduatedLattice, f: int) -> bool:
    return sigma(a, f) == f


@memo
def rho(a: ResiduatedLattice, f: int) -> int:
    """Join of the pure filters below f (the pure part of f)."""
    return flt.join_family(a, (p for p in pure_filters(a) if p & f == p))


@memo
def purely_prime(a: ResiduatedLattice) -> tuple[int, ...]:
    """Proper pure filters prime with respect to meets of pure filters."""
    pure = pure_filters(a)
    out = []
    for cand in pure:
        if cand == a.full:
            continue
        good = True
        for f in pure:
            for g in pure:
                if (f & g) & cand == f & g and not (
                    f & cand == f or g & cand == g
                ):
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(cand)
    return flt.canonical_sort(out)


def purely_maximal(a: ResiduatedLattice) -> tuple[int, ...]:
    """Maximal elements among the proper pure filters."""
    return flt.maximal_members([f for f in pure_filters(a) if f != a.full])


def _pure_hull_space(a: ResiduatedLattice, points, label: str) -> top.FiniteSpace:
    """The points with closed sets the pure hulls, the empty and the full set."""
    closed = {top.hull_in(points, f) for f in pure_filters(a)}
    closed |= {0, (1 << len(points)) - 1}
    return top.audit_space(label, points, closed)


def pure_spectrum_space(a: ResiduatedLattice) -> top.FiniteSpace:
    """The purely prime filters with closed sets the pure hulls."""
    return _pure_hull_space(a, purely_prime(a), f"{a.label}:pure-spectrum")


def d_topology_space(a: ResiduatedLattice) -> top.FiniteSpace:
    """Spec with closed sets the hulls of pure filters (opens are d(F))."""
    return _pure_hull_space(a, flt.prime_filters(a), f"{a.label}:d-topology")


def max_subspace(a: ResiduatedLattice) -> top.FiniteSpace:
    """The maximal filters with the relative hull-kernel topology."""
    mask = flt.analysis(a).max_mask
    return top.subspace(top.spec_space(a, "hull"), mask, f"{a.label}:max")


def spp_max_homeo(a: ResiduatedLattice) -> bool:
    """Is rho a homeomorphism from the maximal spectrum onto the pure one?"""
    maxima = flt.maximal_filters(a)
    spp = purely_prime(a)
    if len(maxima) != len(spp):
        return False
    source = max_subspace(a)
    target = pure_spectrum_space(a)
    images = []
    for m in maxima:
        r = rho(a, m)
        if r not in spp:
            raise EquivalenceViolation(
                "pure part of a maximal filter is not purely prime",
                detail=(a.label, a.set_repr(m)),
            )
        images.append(spp.index(r))
    return top.is_homeomorphism(lambda i: images[i], source, target)


def d_topology_coincidence(a: ResiduatedLattice) -> bool:
    """Do the hull-kernel and d-topologies agree on the maximals? Both have
    the same points in the same order, so comparing point closures suffices."""
    via_d = top.subspace(d_topology_space(a), flt.analysis(a).max_mask, "d")
    return max_subspace(a).cl == via_d.cl


def rho_rad_adjunction(a: ResiduatedLattice) -> bool:
    """rho(F) <= G iff F <= Rad(G), over all filter pairs."""
    fs = flt.all_filters(a)
    for f in fs:
        rf = rho(a, f)
        for g in fs:
            lhs = rf & g == rf
            rhs = f & flt.radical_total(a, g) == f
            if lhs != rhs:
                return False
    return True


def _part_battery(a: ResiduatedLattice, part) -> dict[str, bool]:
    """Five characterizations of a pure-part operator (sigma or rho), each
    quantified exhaustively over the filters.

    The join-homomorphism condition is stated for arbitrary families; the
    filter lattice is finite and join-closed, so the pairwise law plus the
    empty family already forces the general one by induction on family size.
    """
    fs = flt.all_filters(a)
    maxima = flt.maximal_filters(a)
    one = 1 << a.one
    max_inclusion = all(
        not (part(a, f) & m == part(a, f)) or f & m == f
        for f in fs
        for m in maxima
    )
    same_maximals = all(
        flt.maximals_over(a, f) == flt.maximals_over(a, part(a, f)) for f in fs
    )
    same_radical = all(
        flt.radical_total(a, f) == flt.radical_total(a, part(a, f)) for f in fs
    )
    preserves_comax = all(
        flt.filter_join(a, part(a, f), part(a, g)) == a.full
        for f in fs
        for g in fs
        if flt.filter_join(a, f, g) == a.full
    )
    join_hom = part(a, one) == one and all(
        part(a, flt.filter_join(a, f, g))
        == flt.filter_join(a, part(a, f), part(a, g))
        for f in fs
        for g in fs
    )
    return {
        "max_inclusion_reflects": max_inclusion,
        "same_maximals": same_maximals,
        "same_radical": same_radical,
        "preserves_comaximal": preserves_comax,
        "join_homomorphism": join_hom,
    }


def sigma_battery(a: ResiduatedLattice) -> dict[str, bool]:
    """The five pure-part characterizations, read through sigma."""
    return _part_battery(a, sigma)


def rho_battery(a: ResiduatedLattice) -> dict[str, bool]:
    """The same five read through rho, plus comaximality of maximal pure
    parts."""
    maxima = flt.maximal_filters(a)
    battery = _part_battery(a, rho)
    battery["maximal_parts_comaximal"] = all(
        flt.filter_join(a, rho(a, m), rho(a, n)) == a.full
        for m in maxima
        for n in maxima
        if m != n
    )
    return battery


def pure_characterization_family(a: ResiduatedLattice) -> tuple[int, ...]:
    """{kernel of the generalization of the maximals inside a closed set},
    ranging over the closed sets of Spec_h; the generalization kernel of a
    maximal is its d-part, so this intersects d-parts."""
    primes = flt.prime_filters(a)
    hspace = top.spec_space(a, "hull")
    maxset = set(flt.maximal_filters(a))
    family = set()
    for c in hspace.closed:
        k = a.full
        for i in bits(c):
            if primes[i] in maxset:
                k &= flt.d_part(a, primes[i])
        family.add(k)
    return flt.canonical_sort(family)


# ---------------------------------------------------------------- law suites


def sigma_laws(a: ResiduatedLattice) -> dict[str, bool]:
    """The unconditional sigma laws; every False is raised as a violation.

    The join inequality, v sigma(F_i) <= sigma(v F_i) for every family, is
    checked on all pairs; induction over join_family's fold gives the rest:
    the empty join {1} is below every filter, and if the inequality holds for
    F_1..F_k-1 with join G, the pairwise law at (G, F_k) extends it to k.
    """
    fs = flt.all_filters(a)
    laws = {}
    laws["routes_agree"] = all(sigma(a, f) is not None for f in fs)
    laws["contractive_filter"] = all(
        a.is_filter(sigma(a, f)) and sigma(a, f) & f == sigma(a, f) for f in fs
    )
    laws["monotone"] = all(
        sigma(a, f) & sigma(a, g) == sigma(a, f)
        for f in fs
        for g in fs
        if f & g == f
    )
    laws["below_d_part_on_primes"] = all(
        sigma(a, p) & flt.d_part(a, p) == sigma(a, p)
        for p in flt.prime_filters(a)
    )
    laws["equals_d_part_on_maximals"] = all(
        sigma(a, m) == flt.d_part(a, m) for m in flt.maximal_filters(a)
    )
    laws["meet_homomorphism"] = all(
        sigma(a, f & g) == sigma(a, f) & sigma(a, g) for f in fs for g in fs
    )
    laws["family_join_inequality"] = all(
        (lambda j: j & sigma(a, flt.filter_join(a, f, g)) == j)(
            flt.filter_join(a, sigma(a, f), sigma(a, g))
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
    pure = pure_filters(a)
    pure_set = set(pure)
    laws = {
        "meet_closed": all(f & g in pure_set for f in pure for g in pure),
        "join_closed": all(
            flt.filter_join(a, f, g) in pure_set for f in pure for g in pure
        ),
        "bounds": (1 << a.one) in pure_set and a.full in pure_set,
        "frame_distributivity": all(
            f & flt.filter_join(a, g, h) == flt.filter_join(a, f & g, f & h)
            for f in pure
            for g in pure
            for h in pure
        ),
    }
    return hold(a, "sigma frame", laws)


def pure_intersection_law(a: ResiduatedLattice) -> dict[str, bool]:
    """Every pure filter is the meet of the d-parts of the maximals over it."""
    ok = True
    for f in pure_filters(a):
        k = a.full
        for m in flt.maximals_over(a, f):
            k &= flt.d_part(a, m)
        if k != f:
            ok = False
    laws = {"pure_is_meet_of_d_parts": ok}
    return hold(a, "pure intersection", laws)


def rho_laws(a: ResiduatedLattice) -> dict[str, bool]:
    fs = flt.all_filters(a)
    pure = set(pure_filters(a))
    laws = {}
    laws["below_sigma"] = all(
        rho(a, f) & sigma(a, f) == rho(a, f) for f in fs
    )
    laws["kernel_operator"] = all(
        rho(a, f) & f == rho(a, f) and rho(a, rho(a, f)) == rho(a, f)
        for f in fs
    ) and all(
        rho(a, f) & rho(a, g) == rho(a, f) for f in fs for g in fs if f & g == f
    )
    laws["fixed_points_are_pure"] = {f for f in fs if rho(a, f) == f} == pure
    laws["meet_homomorphism"] = all(
        rho(a, f & g) == rho(a, f) & rho(a, g) for f in fs for g in fs
    )
    laws["pure_is_meet_of_maximal_parts"] = all(
        _meet_of_rho_maximals(a, f) == f for f in pure
    )
    laws["pure_recovered_from_radical"] = all(
        rho(a, flt.radical_total(a, f)) == f for f in pure
    )
    laws["same_part_as_d_part_on_primes"] = all(
        rho(a, p) == rho(a, flt.d_part(a, p)) for p in flt.prime_filters(a)
    )
    return hold(a, "rho", laws)


def _meet_of_rho_maximals(a: ResiduatedLattice, f: int) -> int:
    out = a.full
    for m in flt.maximals_over(a, f):
        out &= rho(a, m)
    return out


def purely_prime_laws(a: ResiduatedLattice) -> dict[str, bool]:
    spp = set(purely_prime(a))
    laws = {}
    laws["pure_part_of_prime_is_purely_prime"] = all(
        rho(a, p) in spp for p in flt.prime_filters(a)
    )
    laws["purely_maximal_are_max_pure_parts"] = set(purely_maximal(a)) <= {
        rho(a, m) for m in flt.maximal_filters(a)
    }
    ok = True
    for f in pure_filters(a):
        k = a.full
        for cand in spp:
            if cand & f == f:
                k &= cand
        if k != f:
            ok = False
    laws["pure_is_meet_of_purely_primes_above"] = ok
    return hold(a, "purely prime", laws)


def continuity_law(a: ResiduatedLattice) -> dict[str, bool]:
    """The pure part map reflects the pure-spectrum opens exactly:
    for pure F and prime p, F <= rho(p) iff F <= p."""
    ok = all(
        (f & rho(a, p) == f) == (f & p == f)
        for f in pure_filters(a)
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
        for o in hspace.opens()
        if top.specialization_mask(primes, o) == o
    }
    pure_duals = {
        hspace.full ^ top.hull_in(primes, f) for f in pure_filters(a)
    }
    laws = {"stable_opens_are_pure_duals": stable_opens == pure_duals}
    return hold(a, "stable open", laws)


def gelfand_pure_laws(a: ResiduatedLattice) -> dict[str, bool]:
    """Laws that hold under the Gelfand hypothesis; caller gates on it."""
    fs = flt.all_filters(a)
    spp = purely_prime(a)
    laws = {}
    laws["rho_equals_sigma"] = all(rho(a, f) == sigma(a, f) for f in fs)
    laws["purely_maximal_structure"] = (
        set(purely_maximal(a))
        == {rho(a, m) for m in flt.maximal_filters(a)}
        == set(spp)
    )
    space = pure_spectrum_space(a)
    laws["pure_spectrum_hausdorff"] = top.is_hausdorff(space)
    laws["pure_spectrum_discrete"] = top.is_discrete(space)
    laws["pure_family_from_closed_sets"] = (
        tuple(pure_characterization_family(a)) == pure_filters(a)
    )
    return hold(a, "Gelfand pure", laws)
