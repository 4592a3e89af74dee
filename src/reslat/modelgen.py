"""Exhaustive generation of small residuated lattices.

Bounded lattices are enumerated up to isomorphism from the orders that can
be canonical, each decided once by core's order half, keeping an order
unless a relabelling of the interior gives smaller up masks (the test stops
at the first one, so for a kept lattice it reads off the automorphisms).
Multiplication tables are filled by backtracking that prunes on
associativity and distributivity over joins as each cell is set,
deduplicating by the automorphisms; core's operation half decides each
table. The tests compare the counts with a naive twin that regenerates
everything without pruning and deduplicates by isomorphism search.

Element 0 is always the bottom and element n-1 the top.
"""
from __future__ import annotations

from collections import Counter, namedtuple
from itertools import permutations, product as iproduct

from .core import (
    _operations, _order, bits, down_masks, element_names, is_prelinear, mask_of, size_bound,
)
from .errors import (
    CarrierTooLarge,
    EquivalenceViolation,
    NotALattice,
)
from .gelfand import classification


def _candidate_orders(n: int):
    """Bounded orders on n elements, as up masks, that can be canonical.

    The canonical form is the least relabelling of the interior 1..n-2
    (up-mask tuples compared lexicographically), and in it no interior pair
    i < j has i below j. Else, for w < z at indices k < l, swap w and z: a
    mask before k holds both, neither, or z without w (by transitivity), so
    it stays equal or bit l becomes bit k; the mask at k becomes the image
    of up[z], inside up[w] but without bit l, so strictly smaller. Each pair
    is therefore unrelated (0) or has j below i (1), walked in lexicographic
    order; only transitive relations are kept, so no class is lost.
    """
    pairs = [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1)]
    for below in iproduct((0, 1), repeat=len(pairs)):
        up = [(1 << n) - 1] + [(1 << (n - 1)) | (1 << x) for x in range(1, n)]
        for (i, j), b in zip(pairs, below):
            up[j] |= b << i
        if all(up[y] | up[x] == up[x] for x in range(n) for y in bits(up[x])):
            yield tuple(up)


def _compare_relabelled(up, up_bits, p, inv) -> int:
    """The sign of (image > up) - (image < up), where image is `up` relabelled
    by p (inv is its inverse) and up-mask tuples compare lexicographically.
    Index k of the image is up[inv[k]] relabelled; the walk stops at the
    first index that differs. Bottom and top are fixed, so their indices
    always agree and are skipped."""
    for k in range(1, len(up) - 1):
        m = 0
        for j in up_bits[inv[k]]:
            m |= 1 << p[j]
        if m != up[k]:
            return 1 if m > up[k] else -1
    return 0


def _middle_perms(n: int):
    """The relabellings fixing bottom and top, as maps old -> new index, in
    lexicographic order."""
    for perm in permutations(range(1, n - 1)):
        yield (0, *perm, n - 1) if n > 1 else (0,)


def _lattices(n: int, chains_only: bool = False):
    """Each canonical lattice on n elements as core's order half returns it,
    with the interior relabellings that fix it, in `_middle_perms` order:
    the canonical test walks them all for a lattice it keeps."""
    if n < 1:
        raise ValueError("carrier size must be positive")
    if n > size_bound():
        raise CarrierTooLarge(f"carrier size {n} exceeds bound {size_bound()}")
    names = element_names(n)
    if n == 1 or chains_only:
        yield _order(names, [mask_of(range(i, n)) for i in range(n)]), (tuple(range(n)),)
        return
    for up in _candidate_orders(n):
        try:
            lattice = _order(names, up)
        except NotALattice:
            continue
        up_bits = [tuple(bits(m)) for m in up]
        autos = []
        for p in _middle_perms(n):
            inv = sorted(range(n), key=p.__getitem__)
            sign = _compare_relabelled(up, up_bits, p, inv)
            if sign < 0:
                break
            if sign == 0:
                autos.append(p)
        else:
            yield lattice, tuple(autos)


def enumerate_lattices(n: int, chains_only: bool = False):
    """Canonical bounded lattices on n elements, bottom first, top last."""
    for lattice, _ in _lattices(n, chains_only):
        yield lattice.up


def _structures_on(lattice):
    """Multiplication tables completing the lattice, by backtracking.

    Each free cell {i, j} takes a value below i ∧ j, and the value is kept
    only if `holds(i, j)`: every associativity instance (xy)z = x(yz) and
    every distributivity instance x(y ∨ z) = xy ∨ xz whose cells are all set
    holds. `holds` reads each instance (ab)c = a(bc) and b(a ∨ c) = ba ∨ bc
    with a in {i, j}, and that meets every instance when its last cell is
    set. By commutativity (xy)z = x(yz) is also (zy)x = z(yx), with the
    same four cells; {x, y} and {x, yz} name x, and {z, y} and {z, yx} name
    z, in the place of a. The cells of x(y ∨ z) = xy ∨ xz are {x, y},
    {x, z} and {x, y ∨ z}; the first names y and the second, read as
    x(z ∨ y), names z in the place of a. The third is never last: it is
    {x, y} or {x, z} when y and z are comparable (chains have no other
    pairs), the fixed cell {x, 1} when y ∨ z = 1, and otherwise y ∨ z is
    interior and above y and z, so the canonical labelling gives it a
    smaller index than both (`_candidate_orders`) and its cell comes first
    in `free`. Instances with 0 or 1 among x, y, z hold by the fixed rows
    and the bound v ≤ i ∧ j, so the other two are interior.
    Distributivity on comparable y ≤ z is monotonicity. In a finite
    lattice, distributivity and x0 = 0 make ⋁{z : xz ≤ y} the residuum, and
    integrality gives the join inequality, so every table yielded is
    residuated; core's operation half decides it again.
    """
    n, up, join, meet = len(lattice.names), lattice.up, lattice.join, lattice.meet
    down = down_masks(up)
    mul = [[None] * n for _ in range(n)]
    for x in range(n):
        mul[x][n - 1] = mul[n - 1][x] = x
        mul[x][0] = mul[0][x] = 0
    free = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]
    inner = range(1, n - 1)

    def holds(i, j):
        # a is i or j: the x of (ab)c = a(bc) and the y of b(a v c) = ba v bc
        for a in {i, j}:
            ma, ja = mul[a], join[a]
            for b in inner:
                ab = ma[b]
                if ab is None:
                    continue
                mb, mab, jab = mul[b], mul[ab], join[ab]
                for c in inner:
                    bc = mb[c]
                    if bc is None:
                        continue
                    abc, right = mab[c], ma[bc]
                    if abc is not None and right is not None and abc != right:
                        return False
                    spread = mb[ja[c]]
                    if spread is not None and spread != jab[bc]:
                        return False
        return True

    def rec(k):
        if k == len(free):
            yield tuple(tuple(row) for row in mul)
            return
        i, j = free[k]
        for v in bits(down[meet[i][j]]):
            mul[i][j] = mul[j][i] = v
            if holds(i, j):
                yield from rec(k + 1)
        mul[i][j] = mul[j][i] = None

    yield from rec(0)


def _permuted_mul(n: int, mul, p):
    new = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            new[p[x]][p[y]] = p[mul[x][y]]
    return tuple(tuple(r) for r in new)


def residuated_structures(n: int, chains_only: bool = False):
    """All residuated lattices on n elements, one per isomorphism class. The
    generator returns the number of lattices it walked, some of which (M3
    and N5) carry no residuated structure."""
    idx = lattices = 0
    for lattice, autos in _lattices(n, chains_only):
        lattices += 1
        for mul in _structures_on(lattice):
            if len(autos) > 1 and min(
                _permuted_mul(n, mul, p) for p in autos
            ) != mul:
                continue
            idx += 1
            yield _operations(lattice, mul, label=f"n{n}.{idx}")
    return lattices


# The flags a sweep counts, in the order of SweepReport's *_count fields.
SWEEP_FLAGS = ("gelfand", "soft", "local", "semisimple", "rickart", "baer", "prelinear")

SweepReport = namedtuple("SweepReport", [
    "size", "lattice_count", "structure_count",
    *(f"{flag}_count" for flag in SWEEP_FLAGS), "labels",
])


def classify_all(n: int, deep: bool = False, chains_only: bool = False) -> SweepReport:
    """Run every model of size n through the full criteria machinery.

    Any EquivalenceViolation aborts the sweep, re-raised with its message
    and detail and the offending model serialized so it can be replayed.
    The law suites and the serializer are imported only when they run.
    """
    if deep:
        from .laws import run_laws
    counts = Counter()
    labels = []
    structures = residuated_structures(n, chains_only)
    while True:
        try:
            a = next(structures)
        except StopIteration as walked:
            lattice_count = walked.value
            break
        labels.append(a.label)
        try:
            flags = classification(a)
            flags["prelinear"] = is_prelinear(a)
            if flags["prelinear"] and not flags["gelfand"]:
                raise EquivalenceViolation(
                    "prelinear model is not Gelfand", detail=a.label
                )
            if deep:
                run_laws(a)
        except EquivalenceViolation as exc:
            from .fileformat import serialize

            raise EquivalenceViolation(
                f"sweep aborted on {a.label}: {exc}", detail=(serialize(a), exc.detail)
            ) from exc
        counts.update(key for key in SWEEP_FLAGS if flags[key])
    flag_counts = [counts[key] for key in SWEEP_FLAGS]
    return SweepReport(n, lattice_count, len(labels), *flag_counts, tuple(labels))
