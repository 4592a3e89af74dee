"""Finite topological spaces over collections of prime filters.

A space is a point tuple (each point carries a key, usually a filter mask)
plus the closure of each point, stored as bitmasks over point indices. A
finite space is determined by its points' closures, i.e. by its
specialization preorder (Alexandrov; Stong 1966; Barmak 2011), so everything
else is read off them: a set is closed when it contains the closure of each
of its points, the minimal open neighbourhood of a point is the set of points
whose closure contains it, and the closed family (the unions of point
closures) is only built when asked for. Normality and Hausdorffness are
questions about pairs of points, continuity and homeomorphism about the
image of each point closure.

Spectral spaces are immutable, so `spec_space` builds each one once per
algebra and kind (through `core.memo`).

The three spectral topologies on a prime collection are generated by element
hulls h(x), their complements d(x), or both (patch). In the finite setting
the hull-kernel closed sets are exactly the hulls of filters, equivalently
the up-sets of the inclusion (specialization) order, and the patch topology
is discrete. The closure lemmas and closed-family facts check the first, the
patch space's own point closures the second; together they decide the
patch/stability criterion for every point set at once, not set by set.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import ResiduatedLattice, bits, memo
from .errors import EquivalenceViolation, agree
from . import filters as flt


@dataclass(frozen=True)
class FiniteSpace:
    label: str
    keys: tuple
    cl: tuple[int, ...]  # closure of each point

    @property
    def npoints(self) -> int:
        return len(self.keys)

    @property
    def full(self) -> int:
        return (1 << self.npoints) - 1

    @cached_property
    def closed(self) -> frozenset[int]:
        """The closed family: every union of point closures."""
        family = {0}
        for c in self.cl:
            family |= {d | c for d in family}
        return frozenset(family)

    def opens(self) -> frozenset[int]:
        return frozenset(self.full ^ c for c in self.closed)

    def is_closed(self, mask: int) -> bool:
        return self.closure(mask) == mask

    @cached_property
    def nb(self) -> tuple[int, ...]:
        """Minimal open neighbourhood of each point: the points whose
        closure contains it."""
        out = [0] * self.npoints
        for j, c in enumerate(self.cl):
            for i in bits(c):
                out[i] |= 1 << j
        return tuple(out)

    def closure(self, mask: int) -> int:
        out = 0
        for i in bits(mask):
            out |= self.cl[i]
        return out


def _meets(n: int, family) -> tuple[int, ...]:
    """Closure of each of n points: the meet of the members containing it."""
    out = [(1 << n) - 1] * n
    for c in family:
        for i in bits(c):
            out[i] &= c
    return tuple(out)


def audit_space(label: str, keys, closed) -> FiniteSpace:
    """The space of an explicit closed family, which must contain the empty
    and the full set and be stable under union and intersection, i.e. be
    the unions of its point closures."""
    family = frozenset(closed)
    keys = tuple(keys)
    full = (1 << len(keys)) - 1
    if 0 not in family or full not in family:
        raise EquivalenceViolation(f"{label}: family misses empty or full set")
    space = FiniteSpace(label=label, keys=keys, cl=_meets(len(keys), family))
    if space.closed != family:
        raise EquivalenceViolation(
            f"{label}: closed family not stable under union/intersection"
        )
    return space


def generate_space(label: str, keys, closed_basis) -> FiniteSpace:
    """The coarsest space in which the basis members are closed."""
    keys = tuple(keys)
    return FiniteSpace(label=label, keys=keys, cl=_meets(len(keys), closed_basis))


def hull_in(points: tuple[int, ...], subset: int) -> int:
    """Indices of the points containing the subset."""
    out = 0
    for i, p in enumerate(points):
        if p & subset == subset:
            out |= 1 << i
    return out


def cohull_in(points: tuple[int, ...], subset: int) -> int:
    return ((1 << len(points)) - 1) ^ hull_in(points, subset)


def kernel_of(a: ResiduatedLattice, points: tuple[int, ...], point_mask: int) -> int:
    """Intersection of the selected points; the whole carrier when none."""
    out = a.full
    for i in bits(point_mask):
        out &= points[i]
    return out


def specialization_mask(points: tuple[int, ...], point_mask: int) -> int:
    """Points lying above (containing) some selected point."""
    out = 0
    for i, p in enumerate(points):
        for j in bits(point_mask):
            if p & points[j] == points[j]:
                out |= 1 << i
                break
    return out


def generalization_mask(points: tuple[int, ...], point_mask: int) -> int:
    """Points lying below (contained in) some selected point."""
    out = 0
    for i, p in enumerate(points):
        for j in bits(point_mask):
            if p & points[j] == p:
                out |= 1 << i
                break
    return out


def spec_space(a: ResiduatedLattice, kind: str = "hull") -> FiniteSpace:
    """Hull-kernel, dual, or patch space over the prime spectrum, built
    once per algebra and kind."""
    if kind not in ("hull", "dual", "patch"):
        raise ValueError(f"unknown space kind {kind!r}")
    return _spec_space(a, kind)


@memo
def _spec_space(a: ResiduatedLattice, kind: str) -> FiniteSpace:
    points = flt.prime_filters(a)
    basis: list[int] = []
    if kind in ("hull", "patch"):
        basis += [hull_in(points, 1 << x) for x in range(a.n)]
    if kind in ("dual", "patch"):
        basis += [cohull_in(points, 1 << x) for x in range(a.n)]
    return generate_space(f"{a.label}:{kind}[{len(points)}pts]", points, basis)


def is_normal(space: FiniteSpace) -> bool:
    """Disjoint closed sets have disjoint neighbourhoods. The smallest
    neighbourhood of a closed set is the union of its points' minimal
    neighbourhoods, so it suffices that points with disjoint closures have
    disjoint minimal neighbourhoods."""
    cl, nb = space.cl, space.nb
    return all(
        cl[i] & cl[j] or not nb[i] & nb[j]
        for i in range(space.npoints)
        for j in range(i + 1, space.npoints)
    )


def is_hausdorff(space: FiniteSpace) -> bool:
    """Distinct points have disjoint minimal neighbourhoods."""
    nb = space.nb
    return all(
        not nb[i] & nb[j]
        for i in range(space.npoints)
        for j in range(i + 1, space.npoints)
    )


def is_t1(space: FiniteSpace) -> bool:
    """Every point is closed."""
    return all(c == 1 << i for i, c in enumerate(space.cl))


def is_discrete(space: FiniteSpace) -> bool:
    """Every point is open."""
    return all(u == 1 << i for i, u in enumerate(space.nb))


def space_predicates(space: FiniteSpace) -> dict[str, bool]:
    return {
        "normal": is_normal(space),
        "hausdorff": is_hausdorff(space),
        "t1": is_t1(space),
        "discrete": is_discrete(space),
        "compact": True,  # finite spaces are compact; kept so reports say so
    }


def cut(mask: int, point_mask: int) -> int:
    """The selected points of mask, renumbered as indices into point_mask."""
    out = 0
    for new, old in enumerate(bits(point_mask)):
        if (mask >> old) & 1:
            out |= 1 << new
    return out


def subspace(space: FiniteSpace, point_mask: int, label: str) -> FiniteSpace:
    """The relative topology: each point's closure cut to the subspace."""
    sel = tuple(bits(point_mask))
    keys = tuple(space.keys[i] for i in sel)
    cl = tuple(cut(space.cl[i], point_mask) for i in sel)
    return FiniteSpace(label=label, keys=keys, cl=cl)


def quotient_space(space: FiniteSpace, classes: tuple[int, ...], label: str) -> FiniteSpace:
    """Quotient by a partition of the points, with the final topology. The
    closure of a class is the least closed union of classes containing it,
    reached by alternately closing and saturating."""
    union = 0
    for c in classes:
        if union & c:
            raise ValueError("classes overlap")
        union |= c
    if union != space.full:
        raise ValueError("classes do not cover the space")
    cl = []
    for c in classes:
        sat = c
        while True:
            closed = space.closure(sat)
            nxt = sum(d for d in classes if d & closed)
            if nxt == sat:
                break
            sat = nxt
        cl.append(sum(1 << ci for ci, d in enumerate(classes) if d & sat))
    keys = tuple(frozenset(space.keys[i] for i in bits(c)) for c in classes)
    return FiniteSpace(label=label, keys=keys, cl=tuple(cl))


def _image(func, mask: int) -> int:
    out = 0
    for i in bits(mask):
        out |= 1 << func(i)
    return out


def is_continuous(func, source: FiniteSpace, target: FiniteSpace) -> bool:
    """func maps source point indices to target point indices; it is
    continuous iff it maps each point closure into the closure of the
    point's image."""
    return all(
        not _image(func, c) & ~target.cl[func(i)] for i, c in enumerate(source.cl)
    )


def is_homeomorphism(func, source: FiniteSpace, target: FiniteSpace) -> bool:
    """A bijection carrying each point closure onto the image's closure."""
    if source.npoints != target.npoints:
        return False
    if len({func(i) for i in range(source.npoints)}) != source.npoints:
        return False
    return all(
        _image(func, c) == target.cl[func(i)] for i, c in enumerate(source.cl)
    )


def closure_lemmas(a: ResiduatedLattice) -> bool:
    """For every set of primes: hull-kernel closure = hull of kernel =
    specialization set, and dual closure = generalization set. Each route is
    a union over the points of the set, the hull of the kernel because
    hull(F n G) = hull(F) u hull(G) for filters (checked on every pair), so
    the routes are compared on the empty set and on each single point."""
    points = flt.prime_filters(a)
    hspace = spec_space(a, "hull")
    dspace = spec_space(a, "dual")
    hulls = {f: hull_in(points, f) for f in flt.all_filters(a)}
    for f in hulls:
        for g in hulls:
            routes = {"hull_of_meet": hull_in(points, f & g), "union": hulls[f] | hulls[g]}
            agree(a, "closure lemmas fail", routes, f, g)
    for pi in [0] + [1 << i for i in range(len(points))]:
        where = [points[i] for i in bits(pi)]
        hull = {
            "hull_closure": hspace.closure(pi),
            "hull_of_kernel": hull_in(points, kernel_of(a, points, pi)),
            "specialization": specialization_mask(points, pi),
        }
        dual = {
            "dual_closure": dspace.closure(pi),
            "generalization": generalization_mask(points, pi),
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
    if not is_discrete(spec_space(a, "patch")):
        raise EquivalenceViolation("patch topology is not discrete", detail=a.label)
    return hull_closed_family_facts(a)


def clopen_check(a: ResiduatedLattice) -> tuple[int, ...]:
    """Clopen sets of the spectrum = hulls of Boolean-center elements."""
    points = flt.prime_filters(a)
    hspace = spec_space(a, "hull")
    clopens = {c for c in hspace.closed if (hspace.full ^ c) in hspace.closed}
    beta_hulls = {hull_in(points, 1 << e) for e in bits(flt.analysis(a).beta)}
    routes = {"clopen": tuple(sorted(clopens)), "beta_hulls": tuple(sorted(beta_hulls))}
    return agree(a, "clopen sets differ from Boolean-center hulls", routes)


def max_dense_iff_semisimple(a: ResiduatedLattice) -> bool:
    """Density of the maximals in the spectrum = semisimplicity; asserted."""
    hspace = spec_space(a, "hull")
    return agree(a, "density of maximals disagrees with semisimplicity", {
        "max_dense": hspace.closure(flt.analysis(a).max_mask) == hspace.full,
        "semisimple": flt.is_semisimple(a),
    })


def hull_closed_family_facts(a: ResiduatedLattice) -> bool:
    """The hull-kernel closed sets are exactly the filter hulls and exactly
    the specialization-stable sets, built as unions of the points' up-sets
    and cut off once they outnumber the filter hulls."""
    points = flt.prime_filters(a)
    hspace = spec_space(a, "hull")
    filter_hulls = {hull_in(points, f) for f in flt.all_filters(a)}
    stable = {0}
    for up in (specialization_mask(points, 1 << i) for i in range(len(points))):
        stable |= {s | up for s in stable}
        if len(stable) > len(filter_hulls):
            break
    routes = {"stable": stable, "filter_hulls": filter_hulls, "closed": hspace.closed}
    agree(a, "closed-set descriptions of the spectrum disagree", routes)
    return True
