"""Brute-force references for the tests: the exhaustive enumerations the
package replaced by checked bases, the pairwise meet fixpoint and the
between scan it replaced by one pass, the canonical test that compares
whole relabelled tuples, the isomorphism search and the residuum
re-derivation, the naive model enumeration, the kernels of the
table search, validation and quotients as they were before their rows were
hoisted, the comaximality and complement scans and the memoized antitone
walk of the coannihilator laws as they were before their tables, the
specialization and generalization scans the prime order replaced, a
Goedel-chain constructor, a fresh copy of an algebra, a stand-in join
table, filter helpers that only the tests use (and the error of the prime
extension), and the in-process CLI runner. The enumerations are
exponential and meant for small inputs."""

import contextlib
import io
from itertools import product as iproduct

from reslat import cli, filters as flt, topology as top
from reslat.core import (
    ResiduatedLattice,
    _lattice_tables,
    _residuum_table,
    bits,
    down_masks,
    element_names,
    mask_of,
    validate,
)
from reslat.errors import (
    AdjunctionFails,
    EquivalenceViolation,
    NoResiduum,
    NotAFilter,
    NotALattice,
    NotCommutativeMonoid,
    NotResiduated,
    ReslatError,
    hold,
)
from reslat.modelgen import _candidate_orders, _middle_perms


def run_cli(argv):
    """(exit code, stdout, stderr) of `reslat argv...` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def fresh(a):
    """An algebra equal to a, with its label and an empty cache of its own."""
    return ResiduatedLattice(*a._tables(), label=a.label)


def join_table_of(cell):
    """A stand-in for filters.join_table whose cell (f, g) on the algebra a is
    cell(a, f, g): a new table each call, since the real one is memoized."""

    def join_table(a):
        fs = flt.all_filters(a)
        return {f: {g: cell(a, f, g) for g in fs} for f in fs}

    return join_table


def goedel(k):
    """The Goedel chain of k elements: min as product, 0 < a < b < ... < 1."""
    names = ["0"] + [chr(ord("a") + i) for i in range(k - 2)] + ["1"]
    mul = [[min(i, j) for j in range(k)] for i in range(k)]
    covers = [(i, i + 1) for i in range(k - 1)]
    return validate(names, mul, covers=covers, label=f"goedel{k}")


def coannihilator_laws_by_powerset(a):
    """The four coannihilator laws, checked on every subset of the carrier."""
    filterhood = extensive = triple = antitone = True
    for s in range(1 << a.n):
        cs = flt.coannihilator(a, s)
        filterhood &= a.is_filter(cs)
        ccs = flt.coannihilator(a, cs)
        extensive &= s & ccs == s
        triple &= flt.coannihilator(a, ccs) == cs
        for x in range(a.n):
            wider = flt.coannihilator(a, s | (1 << x))
            antitone &= wider & cs == wider
    return {
        "always_a_filter": filterhood,
        "subset_of_double": extensive,
        "triple_equals_single": triple,
        "antitone": antitone,
    }


def coannihilator_laws_by_memo(a):
    """The coannihilator laws on the empty set, A, the singletons and the
    pairs, keeping the perp of every set met, the sets S u {x} for each S of
    that base and every x among them (O(n^3) perps)."""
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
    perps = {}

    def perp(s):
        if s not in perps:
            perps[s] = flt.coannihilator(a, s)
        return perps[s]

    for s in subsets:
        cs = perp(s)
        if not a.is_filter(cs):
            filterhood = False
        ccs = perp(cs)
        if s & ccs != s:
            extensive = False
        if perp(ccs) != cs:
            triple = False
        for x in range(a.n):
            wider = perp(s | (1 << x))
            if wider & cs != wider:
                antitone = False
    return hold(a, "coannihilator", {
        "always_a_filter": filterhood,
        "subset_of_double": extensive,
        "triple_equals_single": triple,
        "antitone": antitone,
    })


def specialization_by_scan(points, point_mask):
    """Points lying above (containing) some selected point."""
    out = 0
    for i, p in enumerate(points):
        for j in bits(point_mask):
            if p & points[j] == points[j]:
                out |= 1 << i
                break
    return out


def generalization_by_scan(points, point_mask):
    """Points lying below (contained in) some selected point."""
    out = 0
    for i, p in enumerate(points):
        for j in bits(point_mask):
            if p & points[j] == p:
                out |= 1 << i
                break
    return out


def closure_lemmas_by_scan(a):
    """The five closure routes agree on every set of primes."""
    points = flt.prime_filters(a)
    hspace, dspace = top.spec_space(a, "hull"), top.spec_space(a, "dual")
    return all(
        top.closure(hspace, pi)
        == top.hull_in(points, top.kernel_of(a, points, pi))
        == specialization_by_scan(points, pi)
        and top.closure(dspace, pi) == generalization_by_scan(points, pi)
        for pi in range(1 << len(points))
    )


def patch_stability_by_scan(a):
    """A point set is hull-kernel closed iff it is patch closed and stable
    under specialization, checked on every set of primes."""
    points = flt.prime_filters(a)
    hspace, pspace = top.spec_space(a, "hull"), top.spec_space(a, "patch")
    return all(
        top.is_closed(hspace, pi)
        == (top.is_closed(pspace, pi) and specialization_by_scan(points, pi) == pi)
        for pi in range(1 << len(points))
    )


def refuse_closed_sets_of(refused):
    """A stand-in for `topology.closed_sets` that fails when handed the
    space `refused` (or an equal tuple): set in place of the real one, it
    shows that a command never enumerates that space's closed family."""
    real = top.closed_sets

    def closed_sets(space):
        if space == refused:
            raise AssertionError(f"closed family of {len(space)}-point space enumerated")
        return real(space)

    return closed_sets


def stable_sets_by_scan(points):
    """The point sets equal to their specialization set, over all 2^k."""
    return {
        pi
        for pi in range(1 << len(points))
        if specialization_by_scan(points, pi) == pi
    }


def retraction_images(space, points, mspace, maxima):
    """Every continuous map space -> mspace fixing the maximal points, as
    tuples of images (indices into maxima), by walking every assignment of
    the other points to maximal filters; space's points are the filters
    `points`."""
    max_pos = {m: i for i, m in enumerate(maxima)}
    free = [i for i, p in enumerate(points) if p not in max_pos]
    for choice in iproduct(range(len(maxima)), repeat=len(free)):
        img = [max_pos.get(p, 0) for p in points]
        for slot, c in zip(free, choice):
            img[slot] = c
        if top.is_continuous(img.__getitem__, space, mspace):
            yield tuple(img)


def big_gamma_by_fixpoint(a):
    """All coannihilators: the element coannihilators and A, closed under
    pairwise meets until nothing new appears."""
    base = set(flt.gamma(a)) | {a.full}
    changed = True
    while changed:
        changed = False
        for u in list(base):
            for v in list(base):
                if u & v not in base:
                    base.add(u & v)
                    changed = True
    return flt.canonical_sort(base)


def spec_edges_by_scan(a):
    """The covering pairs (p, q) of the primes under inclusion, found by
    looking for a third prime strictly between."""
    primes = flt.prime_filters(a)
    edges = []
    for i, p in enumerate(primes):
        for j, q in enumerate(primes):
            if i == j or p & q != p:
                continue
            between = [
                r
                for k, r in enumerate(primes)
                if k not in (i, j) and p & r == p and r & q == r
            ]
            if not between:
                edges.append((p, q))
    return edges


def primes_over(a, subset):
    """Primes containing the subset (the hull, as filters)."""
    return tuple(p for p in flt.prime_filters(a) if p & subset == subset)


def comaximal_witness(a, f, g):
    """First (x, y) with x in f, y in g, x*y = 0, or None: the scan of the
    zero-product route of comaximality before its zero-divisor table."""
    for x in bits(f):
        for y in bits(g):
            if a.mul[x][y] == a.zero:
                return x, y
    return None


def complements_join_by_scan(a, p, q):
    """Some x outside p and y outside q have x v y = 1, by the join table."""
    return any(
        a.join[x][y] == a.one for x in bits(a.full ^ p) for y in bits(a.full ^ q)
    )


class Unsatisfiable(ReslatError):
    """A constraint problem (e.g. prime extension) has no solution."""


def prime_extension(a, f, cone):
    """A filter containing f, maximal among those missing the join-closed
    cone; such filters are prime, and that is asserted for all of them.
    Returns the canonically first one."""
    if not a.is_filter(f):
        raise NotAFilter(a.set_repr(f))
    if cone == 0:
        raise ValueError("cone must be non-empty")
    for x in bits(cone):
        for y in bits(cone):
            if not (cone >> a.join[x][y]) & 1:
                raise ValueError("cone must be closed under joins")
    if f & cone:
        raise Unsatisfiable(
            f"filter {a.set_repr(f)} already meets {a.set_repr(cone)}"
        )
    avoiders = [g for g in flt.all_filters(a) if g & f == f and not g & cone]
    best = [
        g
        for g in avoiders
        if not any(h != g and h & g == g for h in avoiders)
    ]
    primes = set(flt.prime_filters(a))
    for g in best:
        if g not in primes:
            raise EquivalenceViolation(
                "maximal cone-avoiding filter is not prime",
                detail=(a.label, a.set_repr(g), a.set_repr(cone)),
            )
    return best[0]


# Tests compare algebras up to isomorphism by an explicit search, and the
# residuum of an algebra with the one its mul and order give.


def find_isomorphism(a: ResiduatedLattice, b: ResiduatedLattice):
    """A bijection preserving order, join, meet, mul (hence res), or None."""
    if a.n != b.n:
        return None
    n = a.n

    def profiles(alg: ResiduatedLattice):
        down = down_masks(alg.up)
        return [
            (bin(alg.up[x]).count("1"), bin(down[x]).count("1"), alg.mul[x][x] == x,
             x == alg.zero, x == alg.one)
            for x in range(n)
        ]

    prof_a, prof_b = profiles(a), profiles(b)
    if sorted(prof_a) != sorted(prof_b):
        return None
    cand = [[y for y in range(n) if prof_b[y] == prof_a[x]] for x in range(n)]
    img = [-1] * n
    used = [False] * n

    def extend(x: int) -> bool:
        if x == n:
            return True
        for y in cand[x]:
            if used[y]:
                continue
            ok = True
            for x2 in range(x):
                y2 = img[x2]
                if (
                    a.leq(x, x2) != b.leq(y, y2)
                    or a.leq(x2, x) != b.leq(y2, y)
                    or (a.mul[x][x2] < x and img[a.mul[x][x2]] != b.mul[y][y2])
                    or (a.join[x][x2] < x and img[a.join[x][x2]] != b.join[y][y2])
                    or (a.meet[x][x2] < x and img[a.meet[x][x2]] != b.meet[y][y2])
                ):
                    ok = False
                    break
            if not ok:
                continue
            img[x] = y
            used[y] = True
            if extend(x + 1):
                return True
            img[x] = -1
            used[y] = False
        return False

    if not extend(0):
        return None
    # full verification on the completed map
    for x in range(n):
        for y in range(n):
            if (
                img[a.mul[x][y]] != b.mul[img[x]][img[y]]
                or img[a.join[x][y]] != b.join[img[x]][img[y]]
                or img[a.meet[x][y]] != b.meet[img[x]][img[y]]
                or img[a.res[x][y]] != b.res[img[x]][img[y]]
            ):
                return None
    return tuple(img)


def is_isomorphic(a: ResiduatedLattice, b: ResiduatedLattice) -> bool:
    return find_isomorphism(a, b) is not None


def derive_residuum(algebra: ResiduatedLattice) -> tuple[tuple[int, ...], ...]:
    """Recompute the residuum from mul and the order alone."""
    table = _residuum_table(algebra.n, algebra.up, algebra.join, algebra.mul)
    return tuple(tuple(r) for r in table)


# The naive twin of modelgen's enumeration: no canonical-form pruning, no
# backtracking, deduplication by explicit isomorphism search. It walks every
# strict partial order on the interior, three states per pair, so it does
# not rely on the package's restriction to orders that can be canonical.


def _middle_orders(m):
    """All strict partial orders on m points, as boolean matrices."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for states in iproduct((0, 1, 2), repeat=len(pairs)):
        rel = [[i == j for j in range(m)] for i in range(m)]
        for (i, j), s in zip(pairs, states):
            if s == 1:
                rel[i][j] = True
            elif s == 2:
                rel[j][i] = True
        if all(
            rel[i][k]
            for i in range(m)
            for j in range(m)
            for k in range(m)
            if rel[i][j] and rel[j][k]
        ):
            yield rel


def _bounded_up(n, rel):
    """Attach bottom 0 and top n-1 to an interior order."""
    up = [0] * n
    up[0] = (1 << n) - 1
    up[n - 1] = 1 << (n - 1)
    for i in range(n - 2):
        m = (1 << (n - 1)) | (1 << (i + 1))
        for j in range(n - 2):
            if rel[i][j]:
                m |= 1 << (j + 1)
        up[i + 1] = m
    return tuple(up)


def _is_lattice(n, up):
    try:
        _lattice_tables(n, up)
    except NotALattice:
        return False
    return True


def _apply_perm(n, up, p):
    """The up masks relabelled by p, built in full."""
    new_up = [0] * n
    for i in range(n):
        m = 0
        for j in bits(up[i]):
            m |= 1 << p[j]
        new_up[p[i]] = m
    return tuple(new_up)


def lattices_by_full_tuples(n):
    """(up masks, automorphisms) of each canonical lattice among modelgen's
    candidate orders on n > 1 elements, by the canonical test that builds
    each relabelled up-mask tuple in full before comparing it."""
    out = []
    for up in _candidate_orders(n):
        if not _is_lattice(n, up):
            continue
        autos = []
        for p in _middle_perms(n):
            image = _apply_perm(n, up, p)
            if image < up:
                break
            if image == up:
                autos.append(p)
        else:
            out.append((up, tuple(autos)))
    return out


def lattice_automorphisms(n, up):
    """The interior relabellings that fix the up masks, by walking all."""
    up = tuple(up)
    return tuple(p for p in _middle_perms(n) if _apply_perm(n, up, p) == up)


def _bounded_lattices(n):
    """Every bounded lattice order on n > 1 elements, in walk order."""
    for rel in _middle_orders(n - 2):
        up = _bounded_up(n, rel)
        if _is_lattice(n, up):
            yield up


def lattices_by_full_walk(n):
    """The canonical lattices in walk order: each lattice whose up masks are
    the minimum over every relabelling of the interior."""
    if n == 1:
        return [(1,)]
    return [
        up
        for up in _bounded_lattices(n)
        if up == min(_apply_perm(n, up, p) for p in _middle_perms(n))
    ]


def _order_isomorphic(n, up1, up2):
    return any(_apply_perm(n, up1, p) == tuple(up2) for p in _middle_perms(n))


def naive_lattices(n):
    """Unpruned lattice enumeration deduplicated by isomorphism search."""
    if n == 1:
        return ((1,),)
    reps = []
    for up in _bounded_lattices(n):
        if not any(_order_isomorphic(n, up, r) for r in reps):
            reps.append(up)
    return tuple(reps)


def structures_by_complete_check(n, up):
    """The tables of modelgen._structures_on, found by a backtracker that
    prunes on monotonicity only and checks the laws on each full table."""
    join, meet = _lattice_tables(n, up)
    names = element_names(n)
    top = n - 1

    def leq(x, y):
        return (up[x] >> y) & 1

    down = [mask_of(y for y in range(n) if leq(y, x)) for x in range(n)]
    mul = [[None] * n for _ in range(n)]
    for x in range(n):
        mul[x][top] = x
        mul[top][x] = x
        if n > 1:
            mul[x][0] = 0
            mul[0][x] = 0
    free = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]
    found = []

    def row_ok(i, j, v):
        for y in range(n):
            w = mul[i][y]
            if w is None:
                continue
            if leq(y, j) and not leq(w, v):
                return False
            if leq(j, y) and not leq(v, w):
                return False
        return True

    def complete():
        try:
            operation_laws_by_scan(names, up, join, mul)
            residuum_table_by_scan(n, up, join, mul)
        except (NotCommutativeMonoid, NotResiduated):
            return False
        return True

    def rec(k):
        if k == len(free):
            if complete():
                found.append(tuple(tuple(row) for row in mul))
            return
        i, j = free[k]
        for v in bits(down[meet[i][j]]):
            if not row_ok(i, j, v) or (i != j and not row_ok(j, i, v)):
                continue
            mul[i][j] = v
            mul[j][i] = v
            rec(k + 1)
            mul[i][j] = None
            if i != j:
                mul[j][i] = None

    rec(0)
    return found


def naive_structures(n):
    """Unpruned table enumeration deduplicated with the isomorphism finder."""
    names = element_names(n)
    reps = []
    if n == 1:
        return (validate(names, [[0]], leq=[[True]], label="naive1.1"),)
    for up in _bounded_lattices(n):
        join, meet = _lattice_tables(n, up)

        def leq(x, y, up=up):
            return (up[x] >> y) & 1

        down = [mask_of(y for y in range(n) if leq(y, x)) for x in range(n)]
        cells = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]
        choices = [tuple(bits(down[meet[i][j]])) for i, j in cells]
        rows = [[bool(leq(i, j)) for j in range(n)] for i in range(n)]
        for picks in iproduct(*choices):
            mul = [[0] * n for _ in range(n)]
            for x in range(n):
                mul[x][n - 1] = x
                mul[n - 1][x] = x
            for (i, j), v in zip(cells, picks):
                mul[i][j] = v
                mul[j][i] = v
            ok = all(
                mul[mul[x][y]][z] == mul[x][mul[y][z]]
                and mul[x][join[y][z]] == join[mul[x][y]][mul[x][z]]
                and leq(mul[join[x][y]][join[x][z]], join[x][mul[y][z]])
                for x in range(n)
                for y in range(n)
                for z in range(n)
            )
            if ok:
                for x in range(n):
                    for y in range(n):
                        zs = [z for z in range(n) if leq(mul[x][z], y)]
                        r = zs[0]
                        for z in zs[1:]:
                            r = join[r][z]
                        if not leq(mul[x][r], y):
                            ok = False
            if not ok:
                continue
            cand = validate(names, mul, leq=rows, label=f"naive{n}.{len(reps) + 1}")
            if not any(find_isomorphism(cand, r) for r in reps):
                reps.append(cand)
    return tuple(reps)


# The kernels of the table search, validation and quotients before their
# rows were hoisted, the residuum was read off masks and the search skipped
# unset cells whole and read each instance in one order; the tests compare
# the package's kernels with them.


def bits_by_generator(mask):
    """Indices of the set bits, ascending, generated for every mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def residuum_table_by_scan(n, up, join, mul):
    """res[x][y] = max{z : x*z <= y}, checking the full adjunction."""
    res = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            zs = [z for z in range(n) if (up[mul[x][z]] >> y) & 1]
            if not zs:
                raise NoResiduum(x, y)
            r = zs[0]
            for z in zs[1:]:
                r = join[r][z]
            if not (up[mul[x][r]] >> y) & 1:
                raise NoResiduum(x, y, f"{{z : {x}*z <= {y}}} has no maximum")
            res[x][y] = r
        for y in range(n):
            for z in range(n):
                if ((up[mul[x][z]] >> y) & 1) != ((up[z] >> res[x][y]) & 1):
                    raise AdjunctionFails(x, y, z)
    return res


def operation_laws_by_scan(names, up, join, mul):
    """Associativity, distributivity of mul over join and the join inequality
    x v yz >= (x v y)(x v z), on every triple."""
    for x, y, z in iproduct(range(len(names)), repeat=3):
        if mul[mul[x][y]][z] != mul[x][mul[y][z]]:
            error, law = NotCommutativeMonoid, "not associative"
        elif mul[x][join[y][z]] != join[mul[x][y]][mul[x][z]]:
            error, law = NotResiduated, "multiplication fails to distribute over join"
        elif not (up[mul[join[x][y]][join[x][z]]] >> join[x][mul[y][z]]) & 1:
            error, law = NotResiduated, "join inequality fails"
        else:
            continue
        raise error(f"{law} at {names[x]},{names[y]},{names[z]}")


def class_table_by_scan(table, proj, reps, where):
    """The operation table on the congruence classes, checked cell by cell."""
    n, m = len(table), len(reps)
    out = [[0] * m for _ in range(m)]
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            out[i][j] = proj[table[x][y]]
    for x in range(n):
        for y in range(n):
            if proj[table[x][y]] != out[proj[x]][proj[y]]:
                raise EquivalenceViolation(
                    "operation not well defined on congruence classes",
                    detail=(*where, x, y),
                )
    return tuple(tuple(r) for r in out)


def structures_by_pairwise_scan(lattice):
    """The tables of modelgen._structures_on, by the same backtracking with
    each instance checked in both orders (a, b, c) and (b, a, c), unset
    cells included."""
    n, up, join, meet = len(lattice.names), lattice.up, lattice.join, lattice.meet
    down = [mask_of(y for y in range(n) if (up[y] >> x) & 1) for x in range(n)]
    mul = [[None] * n for _ in range(n)]
    for x in range(n):
        mul[x][n - 1] = mul[n - 1][x] = x
        mul[x][0] = mul[0][x] = 0
    free = [(i, j) for i in range(1, n - 1) for j in range(i, n - 1)]

    def holds(i, j):
        for a in {i, j}:
            for b in range(1, n - 1):
                for c in range(1, n - 1):
                    for x, y, z in ((a, b, c), (b, a, c)):
                        xy, yz, xz = mul[x][y], mul[y][z], mul[x][z]
                        if xy is None:
                            continue
                        if yz is not None:
                            left, right = mul[xy][z], mul[x][yz]
                            if None not in (left, right) and left != right:
                                return False
                        spread = mul[x][join[y][z]]
                        if None not in (xz, spread) and spread != join[xy][xz]:
                            return False
        return True

    def rec(k):
        if k == len(free):
            yield tuple(tuple(row) for row in mul)
            return
        i, j = free[k]
        for v in bits_by_generator(down[meet[i][j]]):
            mul[i][j] = mul[j][i] = v
            if holds(i, j):
                yield from rec(k + 1)
        mul[i][j] = mul[j][i] = None

    yield from rec(0)
