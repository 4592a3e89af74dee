"""Pure filters: the sigma and rho operators and the pure spectrum.

sigma(F) is computed two independent ways and the results are compared every
time: as the kernel of the generalizations of the hull of F, and elementwise
as {x : F v coann(x) = A}. rho(F) is the largest pure filter inside F, where
pure means sigma-fixed. The purely prime filters carry the pure spectrum,
whose closed sets are the pure hulls h_p(F).
"""
from __future__ import annotations

from .core import ResiduatedLattice, bits, mask_of, meet, memo
from .errors import EquivalenceViolation, agree, hold
from . import filters as flt
from . import topology as top


@memo
def sigma(a: ResiduatedLattice, f: int) -> int:
    """Pure closure data of a filter, by two routes that must agree."""
    flt.check_filter(a, f)
    primes = flt.prime_filters(a)
    hf = top.hull_in(primes, f)
    gen = top.closure(top.generalization(a), hf)
    via_kernel = top.kernel_of(a, primes, gen)
    joins = flt.join_table(a)[f]
    via_joins = mask_of(
        x for x, c in enumerate(flt.element_coannihilators(a)) if joins[c] == a.full
    )
    routes = {"kernel": via_kernel, "joins": via_joins}
    return agree(a, "sigma routes disagree", routes, f)


@memo
def pure_filters(a: ResiduatedLattice) -> tuple[int, ...]:
    return tuple(f for f in flt.all_filters(a) if sigma(a, f) == f)


@memo
def rho(a: ResiduatedLattice, f: int) -> int:
    """Join of the pure filters below f (the pure part of f)."""
    flt.check_filter(a, f)
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


def _pure_hull_space(a: ResiduatedLattice, points, label: str) -> tuple[int, ...]:
    """The points with closed sets the pure hulls, the empty and the full set."""
    closed = {top.hull_in(points, f) for f in pure_filters(a)}
    closed |= {0, (1 << len(points)) - 1}
    return top.checked_space(label, len(points), closed)


@memo
def pure_spectrum_space(a: ResiduatedLattice) -> tuple[int, ...]:
    """The purely prime filters with closed sets the pure hulls."""
    return _pure_hull_space(a, purely_prime(a), f"{a.label}:pure-spectrum")


def d_topology_space(a: ResiduatedLattice) -> tuple[int, ...]:
    """Spec with closed sets the hulls of pure filters (opens are d(F))."""
    return _pure_hull_space(a, flt.prime_filters(a), f"{a.label}:d-topology")


@memo
def max_subspace(a: ResiduatedLattice) -> tuple[int, ...]:
    """The maximal filters with the relative hull-kernel topology."""
    return top.subspace(top.spec_space(a, "hull"), flt.max_mask(a))


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
    return max_subspace(a) == top.subspace(d_topology_space(a), flt.max_mask(a))


def rho_rad_adjunction(a: ResiduatedLattice) -> bool:
    """rho(F) <= G iff F <= Rad(G), over all filter pairs."""
    fs = flt.all_filters(a)
    radicals = [flt.radical_total(a, g) for g in fs]
    for f in fs:
        rf = rho(a, f)
        for g, rad in zip(fs, radicals):
            if (rf & g == rf) != (f & rad == f):
                return False
    return True


def _part_battery(a: ResiduatedLattice, part) -> dict[str, bool]:
    """Five characterizations of a pure-part operator (sigma or rho), each
    quantified exhaustively over the filters.

    The join-homomorphism condition is stated for arbitrary families; the
    filter lattice is finite and join-closed, so the pairwise law plus the
    empty family already forces the general one by induction on family size.
    Each filter's part, maximals and radical, and the filter joins, are
    read once.
    """
    fs = flt.all_filters(a)
    maxima = flt.maximal_filters(a)
    joins = flt.join_table(a)
    parts = {f: part(a, f) for f in fs}
    over = {f: flt.maximals_over(a, f) for f in fs}
    radicals = {f: flt.radical_total(a, f) for f in fs}
    one = 1 << a.one
    max_inclusion = all(
        not (parts[f] & m == parts[f]) or f & m == f
        for f in fs
        for m in maxima
    )
    same_maximals = all(over[f] == over[parts[f]] for f in fs)
    same_radical = all(radicals[f] == radicals[parts[f]] for f in fs)
    preserves_comax = all(
        joins[parts[f]][parts[g]] == a.full
        for f in fs
        for g in fs
        if joins[f][g] == a.full
    )
    join_hom = parts[one] == one and all(
        parts[joins[f][g]] == joins[parts[f]][parts[g]] for f in fs for g in fs
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
    battery = _part_battery(a, rho)
    joins = flt.join_table(a)
    parts = [rho(a, m) for m in flt.maximal_filters(a)]
    battery["maximal_parts_comaximal"] = all(
        joins[p][q] == a.full
        for i, p in enumerate(parts)
        for j, q in enumerate(parts)
        if i != j
    )
    return battery


def pure_characterization_family(a: ResiduatedLattice) -> tuple[int, ...]:
    """{kernel of the generalization of the maximals inside a closed set},
    ranging over the closed sets of Spec_h; the generalization kernel of a
    maximal is its d-part, so this intersects d-parts."""
    primes = flt.prime_filters(a)
    hspace = top.spec_space(a, "hull")
    maxset = set(flt.maximal_filters(a))
    return flt.canonical_sort(
        meet(a, (flt.d_part(a, primes[i]) for i in bits(c) if primes[i] in maxset))
        for c in top.closed_sets(hspace)
    )


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
