"""Finite topological spaces over collections of prime filters.

A space is the tuple of its points' closures, each a bitmask over point
indices, and nothing else: a finite space is determined by its points'
closures, i.e. by its specialization preorder (Alexandrov; Stong 1966;
Barmak 2011). What a point stands for (a prime filter, a class of primes) is
the caller's to keep. Everything else is derived on each call and kept
nowhere: a set is closed when it contains the closure of each of its points,
the minimal open neighbourhood of a point is the set of points whose closure
contains it (the closures transposed, by `core.down_masks`), and the closed
family is the unions of the point closures. Normality and Hausdorffness are
questions about pairs of points, continuity and homeomorphism about the
image of each point closure.

`spec_space` builds each spectral space once per algebra and kind (through
`core.memo`). The inclusion order of the primes is derived once, from the
prime masks themselves: `specialization(a)` is the space whose point closures
are the primes above each prime, and `generalization(a)` its transpose.

The three spectral topologies on a prime collection are generated by element
hulls h(x), their complements d(x), or both (patch). In the finite setting
the hull-kernel closed sets are exactly the hulls of filters, equivalently
the up-sets of the inclusion (specialization) order, and the patch topology
is discrete. The closure lemmas and closed-family facts of `laws` check the
first, the patch space's own point closures the second; together they decide
the patch/stability criterion for every point set at once, not set by set.
The patch family is never enumerated: `spectrum` counts it as 2^points
because the space is discrete.
"""
from __future__ import annotations

from .core import ResiduatedLattice, bits, classify_elements, down_masks, mask_of, meet, memo
from .errors import EquivalenceViolation, agree
from . import filters as flt


def closure(space: tuple[int, ...], mask: int) -> int:
    """The least closed set holding mask: the union of its points' closures."""
    out = 0
    for i in bits(mask):
        out |= space[i]
    return out


def is_closed(space: tuple[int, ...], mask: int) -> bool:
    return closure(space, mask) == mask


def closed_sets(space: tuple[int, ...]) -> frozenset[int]:
    """The closed family: every union of point closures."""
    family = {0}
    for c in space:
        family |= {d | c for d in family}
    return frozenset(family)


def opens(space: tuple[int, ...]) -> frozenset[int]:
    full = (1 << len(space)) - 1
    return frozenset(full ^ c for c in closed_sets(space))


def generate(npoints: int, basis) -> tuple[int, ...]:
    """The coarsest space on npoints points in which the basis members are
    closed: each point's closure is the meet of the members containing it."""
    out = [(1 << npoints) - 1] * npoints
    for c in basis:
        for i in bits(c):
            out[i] &= c
    return tuple(out)


def checked_space(label: str, npoints: int, closed) -> tuple[int, ...]:
    """The space of an explicit closed family, named label in a refusal. The
    family must contain the empty and the full set and be stable under union
    and intersection, i.e. be the unions of its point closures."""
    family = frozenset(closed)
    if 0 not in family or (1 << npoints) - 1 not in family:
        raise EquivalenceViolation(f"{label}: family misses empty or full set")
    space = generate(npoints, family)
    if closed_sets(space) != family:
        raise EquivalenceViolation(
            f"{label}: closed family not stable under union/intersection"
        )
    return space


def hull_in(points: tuple[int, ...], subset: int) -> int:
    """Indices of the points containing the subset."""
    return mask_of(i for i, p in enumerate(points) if p & subset == subset)


def kernel_of(a: ResiduatedLattice, points: tuple[int, ...], point_mask: int) -> int:
    """Intersection of the selected points; the whole carrier when none."""
    return meet(a, (points[i] for i in bits(point_mask)))


@memo
def specialization(a: ResiduatedLattice) -> tuple[int, ...]:
    """Row i is the mask of the primes containing prime i: the inclusion
    order of the prime spectrum, as a space whose closed sets are its
    up-sets."""
    primes = flt.prime_filters(a)
    return tuple(sum(1 << j for j, q in enumerate(primes) if q & p == p) for p in primes)


@memo
def generalization(a: ResiduatedLattice) -> tuple[int, ...]:
    """Row i is the mask of the primes contained in prime i: the transposed
    order, as a space whose closed sets are its down-sets."""
    return down_masks(specialization(a))


@memo
def spec_space(a: ResiduatedLattice, kind: str) -> tuple[int, ...]:
    """Hull-kernel, dual, or patch space over the prime spectrum, built
    once per algebra and kind."""
    if kind not in ("hull", "dual", "patch"):
        raise ValueError(f"unknown space kind {kind!r}")
    points = flt.prime_filters(a)
    hulls = [hull_in(points, 1 << x) for x in range(a.n)]
    duals = [((1 << len(points)) - 1) ^ h for h in hulls]
    return generate(len(points), {"hull": hulls, "dual": duals, "patch": hulls + duals}[kind])


def is_normal(space: tuple[int, ...]) -> bool:
    """Disjoint closed sets have disjoint neighbourhoods. The smallest
    neighbourhood of a closed set is the union of its points' minimal
    neighbourhoods, so it suffices that points with disjoint closures have
    disjoint minimal neighbourhoods."""
    nb = down_masks(space)
    return all(
        space[i] & space[j] or not nb[i] & nb[j]
        for i in range(len(space))
        for j in range(i + 1, len(space))
    )


def is_hausdorff(space: tuple[int, ...]) -> bool:
    """Distinct points have disjoint minimal neighbourhoods."""
    nb = down_masks(space)
    return all(
        not nb[i] & nb[j]
        for i in range(len(space))
        for j in range(i + 1, len(space))
    )


def is_t1(space: tuple[int, ...]) -> bool:
    """Every point is closed."""
    return all(c == 1 << i for i, c in enumerate(space))


def is_discrete(space: tuple[int, ...]) -> bool:
    """Every point is open."""
    return all(u == 1 << i for i, u in enumerate(down_masks(space)))


def space_predicates(space: tuple[int, ...]) -> dict[str, bool]:
    return {
        "normal": is_normal(space),
        "hausdorff": is_hausdorff(space),
        "t1": is_t1(space),
        "discrete": is_discrete(space),
        "compact": True,  # finite spaces are compact; kept so reports say so
    }


def cut(mask: int, point_mask: int) -> int:
    """The selected points of mask, renumbered as indices into point_mask."""
    return mask_of(new for new, old in enumerate(bits(point_mask)) if (mask >> old) & 1)


def subspace(space: tuple[int, ...], point_mask: int) -> tuple[int, ...]:
    """The relative topology: each point's closure cut to the subspace."""
    return tuple(cut(space[i], point_mask) for i in bits(point_mask))


def quotient_space(space: tuple[int, ...], classes: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient by a partition of the points, with the final topology. The
    closure of a class is the least closed union of classes containing it,
    reached by alternately closing and saturating."""
    union = 0
    for c in classes:
        if union & c:
            raise ValueError("classes overlap")
        union |= c
    if union != (1 << len(space)) - 1:
        raise ValueError("classes do not cover the space")
    cl = []
    for c in classes:
        sat = c
        while True:
            closed = closure(space, sat)
            nxt = sum(d for d in classes if d & closed)
            if nxt == sat:
                break
            sat = nxt
        cl.append(sum(1 << ci for ci, d in enumerate(classes) if d & sat))
    return tuple(cl)


def _image(func, mask: int) -> int:
    return mask_of(map(func, bits(mask)))


def is_continuous(func, source: tuple[int, ...], target: tuple[int, ...]) -> bool:
    """func maps source point indices to target point indices; it is
    continuous iff it maps each point closure into the closure of the
    point's image."""
    return all(not _image(func, c) & ~target[func(i)] for i, c in enumerate(source))


def is_homeomorphism(func, source: tuple[int, ...], target: tuple[int, ...]) -> bool:
    """A bijection carrying each point closure onto the image's closure."""
    if len(source) != len(target):
        return False
    if len({func(i) for i in range(len(source))}) != len(source):
        return False
    return all(_image(func, c) == target[func(i)] for i, c in enumerate(source))


@memo
def clopen_check(a: ResiduatedLattice) -> tuple[int, ...]:
    """Clopen sets of the spectrum = hulls of Boolean-center elements."""
    points = flt.prime_filters(a)
    closed = closed_sets(spec_space(a, "hull"))
    clopens = {c for c in closed if ((1 << len(points)) - 1) ^ c in closed}
    beta = classify_elements(a).boolean_center
    beta_hulls = {hull_in(points, 1 << e) for e in bits(beta)}
    routes = {"clopen": tuple(sorted(clopens)), "beta_hulls": tuple(sorted(beta_hulls))}
    return agree(a, "clopen sets differ from Boolean-center hulls", routes)
