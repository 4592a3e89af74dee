"""Finite residuated lattices: construction, validation, products, quotients.

Carriers are index sets 0..n-1; every subset is an int bitmask. An algebra is
immutable once validated, and all derived analysis (filters, spectra, ...) is
computed once per instance by the functions the other modules wrap in `memo`.
"""
from __future__ import annotations

import functools
import os
from collections import namedtuple
from itertools import product as iproduct

from .errors import (
    AdjunctionFails,
    CarrierTooLarge,
    EquivalenceViolation,
    FormatError,
    ImproperInput,
    NoResiduum,
    NotAFilter,
    NotALattice,
    NotCommutativeMonoid,
    NotResiduated,
    ResiduumMismatch,
    UsageError,
)

DEFAULT_MAX_SIZE = 64


def size_bound() -> int:
    """Carrier bound; RESLAT_MAX_SIZE, a positive integer, overrides the
    default of 64."""
    raw = os.environ.get("RESLAT_MAX_SIZE")
    if raw is None:
        return DEFAULT_MAX_SIZE
    try:
        bound = int(raw)
    except ValueError:
        raise UsageError(f"RESLAT_MAX_SIZE must be an integer, got {raw!r}") from None
    if bound < 1:
        raise UsageError(f"RESLAT_MAX_SIZE must be a positive integer, got {raw!r}")
    return bound


# The set bits of every mask below 256, which covers carriers of up to 8.
_SMALL_BITS = tuple(tuple(i for i in range(8) if (m >> i) & 1) for m in range(256))


def bits(mask: int):
    """Indices of the set bits, ascending: a tuple read from a table for a
    mask below 256, a generator above it."""
    if 0 <= mask < 256:
        return _SMALL_BITS[mask]
    return _bits_above(mask)


def _bits_above(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def element_names(n: int) -> tuple[str, ...]:
    """0, a, b, ..., 1: the names of a chain's or a searched model's elements,
    bottom first and top last."""
    if n == 1:
        return ("1",)
    return ("0",) + tuple(chr(ord("a") + i) for i in range(n - 2)) + ("1",)


def mask_of(indices) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def meet(a: ResiduatedLattice, masks) -> int:
    """Intersection of the masks; the whole carrier when there are none."""
    out = a.full
    for m in masks:
        out &= m
    return out


_MISSING = object()


def memo(fn):
    """Compute fn(a, *args) once per algebra instance, kept in a._cache under
    fn alone when there are no args and under (fn, args) otherwise: equal but
    distinct algebras share nothing, and a call that raises stores nothing."""

    @functools.wraps(fn)
    def wrapper(a, *args):
        key = (fn, args) if args else fn
        value = a._cache.get(key, _MISSING)
        if value is _MISSING:
            value = a._cache[key] = fn(a, *args)
        return value

    return wrapper


# The fields that make up an algebra: equality and hashing read these and
# ignore the label.
_TABLES = ("names", "up", "join", "meet", "mul", "res", "zero", "one")


class ResiduatedLattice:
    """A finite residuated lattice with all operation tables materialized.

    `up[x]` is the bitmask of {y : x <= y}. The residuum table always satisfies
    the adjunction against `mul`; `validate` is the only intended constructor.
    Instances are immutable. `n` and `full` are stored once, and `_cache` holds
    what `memo` computes for this instance.
    """

    __slots__ = _TABLES + ("label", "_cache", "n", "full")

    def __init__(self, names, up, join, meet, mul, res, zero, one, label=""):
        values = (names, up, join, meet, mul, res, zero, one, label,
                  {}, len(names), (1 << len(names)) - 1)
        for slot, value in zip(self.__slots__, values):
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a ResiduatedLattice")

    def _tables(self) -> tuple:
        return tuple(getattr(self, f) for f in _TABLES)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._tables() == other._tables()

    def __hash__(self):
        return hash(self._tables())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in _TABLES + ("label",))
        return f"{self.__class__.__qualname__}({fields})"

    def leq(self, x: int, y: int) -> bool:
        return bool((self.up[x] >> y) & 1)

    def neg(self, x: int) -> int:
        return self.res[x][self.zero]

    def powers(self, x: int) -> list[int]:
        """x, x^2, ... up to and including the stabilized power."""
        out = [x]
        p = x
        while self.mul[p][x] != p:
            p = self.mul[p][x]
            out.append(p)
        return out

    def set_names(self, mask: int) -> tuple[str, ...]:
        """The names of the mask's elements; a mask outside the carrier is
        refused."""
        if mask & ~self.full:
            raise ImproperInput(f"{self.set_repr(mask)} is not a subset of {self.label}")
        return tuple(self.names[i] for i in bits(mask))

    def set_repr(self, mask: int) -> str:
        """The names in braces; a mask outside the carrier by its bits."""
        if mask & ~self.full:
            return f"mask {mask:#b}"
        return "{" + ",".join(self.set_names(mask)) + "}"

    def is_filter(self, mask: int) -> bool:
        """Non-empty, upward closed and closed under multiplication."""
        if mask & ~self.full or not (mask >> self.one) & 1:
            return False
        for x in bits(mask):
            if self.up[x] & mask != self.up[x]:
                return False
            for y in bits(mask):
                if not (mask >> self.mul[x][y]) & 1:
                    return False
        return True


# A bounded lattice as the order half of `validate` returns it.
_Lattice = namedtuple("_Lattice", "names up join meet zero one")


def down_masks(up) -> tuple[int, ...]:
    """down_masks(up)[x] is the mask of {y : y <= x}, read off the up masks
    (bit j of up[i] is set iff i <= j)."""
    down = [0] * len(up)
    for z, u in enumerate(up):
        for y in bits(u):
            down[y] |= 1 << z
    return tuple(down)


def _lattice_tables(n: int, up):
    """Join/meet tables from a partial order, or a NotALattice witness:
    x v y is the element whose up set is up[x] & up[y], and x ^ y the one
    whose down set is down[x] & down[y], when there is one."""
    down = down_masks(up)
    by_up = {m: x for x, m in enumerate(up)}
    by_down = {m: x for x, m in enumerate(down)}
    join = tuple(tuple(by_up.get(u & v) for v in up) for u in up)
    meet = tuple(tuple(by_down.get(d & e) for e in down) for d in down)
    for x in range(n):
        for y in range(n):
            if join[x][y] is None:
                raise NotALattice(f"elements {x},{y} have no join")
            if meet[x][y] is None:
                raise NotALattice(f"elements {x},{y} have no meet")
    return join, meet


def _order(names: tuple[str, ...], up) -> _Lattice:
    """The order half of `validate`: the order axioms, a unique bottom and
    top, and the join/meet tables, read off the up masks (bit j of up[i] is
    set iff i <= j). Faults are reported in the order of a scan over
    (i, j, k)."""
    n = len(names)
    for i in range(n):
        if not (up[i] >> i) & 1:
            raise NotALattice(f"order not reflexive at {names[i]}")
        for j in bits(up[i]):
            if j != i and (up[j] >> i) & 1:
                raise NotALattice(f"order not antisymmetric at {names[i]},{names[j]}")
            for k in bits(up[j] & ~up[i]):
                raise NotALattice(
                    f"order not transitive at {names[i]},{names[j]},{names[k]}"
                )
    bottoms = [i for i in range(n) if up[i] == (1 << n) - 1]
    tops = list(bits(functools.reduce(int.__and__, up)))
    if len(bottoms) != 1 or len(tops) != 1:
        raise NotALattice("order has no unique bottom or top")
    join, meet = _lattice_tables(n, up)
    return _Lattice(names, tuple(up), join, meet, bottoms[0], tops[0])


def _residuum_table(n: int, up, join, mul):
    """res[x][y] = max{z : x*z <= y}, checking the full adjunction.

    below[y], the mask of {z : x*z <= y}, is read off the up masks of the
    values in row x. The adjunction says that below[y] is the down set of
    x -> y, so the residuum is the element with that down set, and a row
    in which some below[y] is no down set has a fault (`_residuum_fault`).
    """
    down = down_masks(up)
    by_down = {d: r for r, d in enumerate(down)}
    res = []
    for x in range(n):
        level = {}  # each value v of x*z, with the mask of its z
        for z, v in enumerate(mul[x]):
            level[v] = level.get(v, 0) | 1 << z
        below = [0] * n
        for v, zs in level.items():
            for y in bits(up[v]):
                below[y] |= zs
        row = [by_down.get(zs) for zs in below]
        if None in row:
            _residuum_fault(x, below, down, join)
        res.append(row)
    return res


def _residuum_fault(x: int, below, down, join):
    """Raise the fault that a scan of row x over y, then z, meets first:
    NoResiduum when some below[y] is empty or the join of its members,
    folded in ascending order, lies outside it; otherwise AdjunctionFails
    at the first y, and the lowest z, where below[y] and the down set of
    that join differ."""
    adjunction = None
    for y, zs in enumerate(below):
        if not zs:
            raise NoResiduum(x, y)
        low = zs & -zs
        r = low.bit_length() - 1
        for z in bits(zs ^ low):
            r = join[r][z]
        if not (zs >> r) & 1:
            raise NoResiduum(x, y, f"{{z : {x}*z <= {y}}} has no maximum")
        fault = zs ^ down[r]
        if fault and adjunction is None:
            adjunction = AdjunctionFails(x, y, (fault & -fault).bit_length() - 1)
    raise adjunction


def _operation_laws(names, up, join, mul) -> None:
    """Associativity, distributivity of mul over join and the join inequality
    x v yz >= (x v y)(x v z), on every triple. Once `_residuum_table` has
    passed, the last two follow (a residuated product distributes over joins,
    and an integral one satisfies the join inequality). They stay because
    `validate` checks tables from outside the program: checked on their own,
    they keep a fault in the residuum kernel from admitting a table that
    breaks them."""
    n = len(names)
    for x in range(n):
        mx, jx = mul[x], join[x]
        for y in range(n):
            xy, my, jy = mx[y], mul[y], join[y]
            mxy, jxy, mjx = mul[xy], join[xy], mul[jx[y]]
            for z in range(n):
                if mxy[z] != mx[my[z]]:
                    error, law = NotCommutativeMonoid, "not associative"
                elif mx[jy[z]] != jxy[mx[z]]:
                    error, law = NotResiduated, "multiplication fails to distribute over join"
                elif not (up[mjx[jx[z]]] >> jx[my[z]]) & 1:
                    error, law = NotResiduated, "join inequality fails"
                else:
                    continue
                raise error(f"{law} at {names[x]},{names[y]},{names[z]}")


def _rows(table) -> list[list] | None:
    """The table as a list of row lists; None unless it is a list or tuple
    of lists or tuples."""
    if isinstance(table, (list, tuple)) and all(isinstance(r, (list, tuple)) for r in table):
        return [list(r) for r in table]
    return None


def _operations(lattice: _Lattice, mul, res=None, label: str = "") -> ResiduatedLattice:
    """The operation half of `validate`: mul is a commutative monoid with
    the top as unit, residuated on the lattice, associative, and its
    residuum equals a supplied `res`."""
    names, up, join = lattice.names, lattice.up, lattice.join
    n = len(names)
    mul = _rows(mul)
    if mul is None or len(mul) != n or any(len(r) != n for r in mul) or any(
        type(v) is not int or not 0 <= v < n for r in mul for v in r
    ):
        raise NotCommutativeMonoid("multiplication table must be n x n over the carrier")
    for x in range(n):
        if mul[x][lattice.one] != x or mul[lattice.one][x] != x:
            raise NotCommutativeMonoid(f"1 is not a unit at {names[x]}")
        for y in range(x + 1, n):
            if mul[x][y] != mul[y][x]:
                raise NotCommutativeMonoid(f"not commutative at {names[x]},{names[y]}")

    # Residuum before associativity: a broken table should be reported
    # against the residuation first, matching how the axioms are layered.
    derived = _residuum_table(n, up, join, mul)
    _operation_laws(names, up, join, mul)
    if res is not None:
        res = _rows(res)
        if res is None or len(res) != n or any(len(r) != n for r in res) or any(
            type(v) is not int for r in res for v in r
        ):
            raise NotResiduated("residuum table must be n x n")
        for x, y in iproduct(range(n), repeat=2):
            r, d = res[x][y], derived[x][y]
            if r != d:
                got = names[r] if 0 <= r < n else f"{r} (outside the carrier)"
                raise ResiduumMismatch(
                    f"residuum at ({names[x]},{names[y]}) is {got}, derived {names[d]}"
                )

    return ResiduatedLattice(
        **lattice._asdict(),
        mul=tuple(tuple(r) for r in mul),
        res=tuple(tuple(r) for r in derived),
        label=label or "unnamed",
    )


def validate(
    names,
    mul,
    *,
    leq=None,
    covers=None,
    res=None,
    label: str = "",
) -> ResiduatedLattice:
    """Check every axiom and build the algebra, or raise a specific error.

    Order data comes either as a full <= matrix (`leq`, rows of truthy values)
    or as covering pairs of indices (`covers`). The residuum is always
    derived; a supplied `res` must equal it (ResiduumMismatch otherwise).
    Names and the label must be str, and indices and table entries int:
    nothing is converted.
    """
    names = tuple(names)
    n = len(names)
    if n == 0:
        raise NotALattice("empty carrier")
    if n > size_bound():
        raise CarrierTooLarge(f"carrier size {n} exceeds bound {size_bound()}")
    if not all(type(s) is str for s in names):
        raise NotALattice("element names must be strings")
    if len(set(names)) != n:
        raise NotALattice("duplicate element names")
    if type(label) is not str:
        raise FormatError("label must be a string")

    if (leq is None) == (covers is None):
        raise NotALattice("supply exactly one of leq matrix or covering pairs")
    if covers is not None:
        up = [1 << i for i in range(n)]
        for cover in covers:
            pair = tuple(cover) if isinstance(cover, (list, tuple)) else (cover,)
            if not (len(pair) == 2 and all(type(i) is int and 0 <= i < n for i in pair)):
                raise NotALattice(f"cover ({','.join(map(str, pair))}) out of range")
            up[pair[0]] |= 1 << pair[1]
        for k in range(n):  # transitive closure (Warshall)
            for i in range(n):
                if (up[i] >> k) & 1:
                    up[i] |= up[k]
    else:
        rows = _rows(leq)
        if rows is None or len(rows) != n or any(len(r) != n for r in rows):
            raise NotALattice("order matrix must be n x n")
        up = [mask_of(j for j, v in enumerate(r) if v) for r in rows]
    return _operations(_order(names, up), mul, res, label)


# Masks of the distinguished element classes of one algebra: idempotents,
# nilpotents, the interior (the complement of the nilpotents) and the Boolean
# center (idempotents e with e v neg(e) = 1).
ElementClassification = namedtuple(
    "ElementClassification", "idempotents nilpotents interior boolean_center"
)


def is_prelinear(a: ResiduatedLattice) -> bool:
    """(x -> y) v (y -> x) = 1 everywhere."""
    return all(
        a.join[a.res[x][y]][a.res[y][x]] == a.one
        for x in range(a.n)
        for y in range(a.n)
    )


@memo
def classify_elements(a: ResiduatedLattice) -> ElementClassification:
    idem = mask_of(x for x in range(a.n) if a.mul[x][x] == x)
    nil = mask_of(x for x in range(a.n) if a.zero in a.powers(x))
    beta = mask_of(
        e for e in bits(idem) if a.join[e][a.neg(e)] == a.one
    )
    return ElementClassification(
        idempotents=idem,
        nilpotents=nil,
        interior=a.full ^ nil,
        boolean_center=beta,
    )


def direct_product(a: ResiduatedLattice, b: ResiduatedLattice) -> ResiduatedLattice:
    """Componentwise product; raises CarrierTooLarge above the size bound."""
    n = a.n * b.n
    if n > size_bound():
        raise CarrierTooLarge(f"product size {n} exceeds bound {size_bound()}")
    pairs = list(iproduct(range(a.n), range(b.n)))
    index = {p: i for i, p in enumerate(pairs)}
    names = tuple(f"({a.names[x]},{b.names[y]})" for x, y in pairs)
    up = tuple(
        mask_of(index[x2, y2] for x2, y2 in pairs if a.leq(x, x2) and b.leq(y, y2))
        for x, y in pairs
    )

    def tab(fa, fb):
        return tuple(
            tuple(index[fa[x1][x2], fb[y1][y2]] for x2, y2 in pairs) for x1, y1 in pairs
        )

    return ResiduatedLattice(
        names=names,
        up=up,
        join=tab(a.join, b.join),
        meet=tab(a.meet, b.meet),
        mul=tab(a.mul, b.mul),
        res=tab(a.res, b.res),
        zero=index[a.zero, b.zero],
        one=index[a.one, b.one],
        label=f"{a.label}x{b.label}",
    )


def _class_table(table, proj, reps, where):
    """The operation table on the congruence classes, read at the
    representatives reps, checked to be well defined on every pair; `where`
    opens the detail of the violation."""
    out = [[proj[table[x][y]] for y in reps] for x in reps]
    for x, row in enumerate(table):
        classes = out[proj[x]]
        for y, v in enumerate(row):
            if proj[v] != classes[proj[y]]:
                raise EquivalenceViolation(
                    "operation not well defined on congruence classes",
                    detail=(*where, x, y),
                )
    return tuple(tuple(r) for r in out)


def quotient(a: ResiduatedLattice, filter_mask: int):
    """Quotient by a filter; returns (algebra, projection old index -> new).

    Congruence: x ~ y iff x->y and y->x both lie in the filter. Every
    operation is checked to be well defined on the classes; a failure would
    mean the congruence claim itself is broken and raises EquivalenceViolation.
    """
    if not a.is_filter(filter_mask):
        raise NotAFilter(f"{a.set_repr(filter_mask)} is not a filter of {a.label}")
    n = a.n

    def related(x, y):
        return (filter_mask >> a.res[x][y]) & 1 and (filter_mask >> a.res[y][x]) & 1

    proj = [-1] * n
    reps: list[int] = []
    for x in range(n):
        for ci, r in enumerate(reps):
            if related(x, r):
                proj[x] = ci
                break
        else:
            proj[x] = len(reps)
            reps.append(x)
    m = len(reps)
    shown = a.set_repr(filter_mask)
    where = (a.label, shown)
    join, meet, mul, res = (
        _class_table(table, proj, reps, where) for table in (a.join, a.meet, a.mul, a.res)
    )
    up = tuple(
        mask_of(j for j in range(m) if join[i][j] == j) for i in range(m)
    )
    names = tuple(a.names[r] for r in reps)
    alg = ResiduatedLattice(
        names=names,
        up=up,
        join=join,
        meet=meet,
        mul=mul,
        res=res,
        zero=proj[a.zero],
        one=proj[a.one],
        label=f"{a.label}/{shown}",
    )
    return alg, tuple(proj)

