"""Built-in algebras.

A6 and A8 are the two running examples: A6 has two maximal filters that every
Gelfand criterion rejects, A8 is local and passes all of them. The chains carry
the Goedel structure (mul = min), the cubes are Boolean, MV3 is the
three-element MV-chain. A6 and A8 are kept in the text format of
`fileformat`. Residuum tables are stored explicitly so that re-derivation
from mul can be checked bit-exactly against them.
"""
from __future__ import annotations

from .core import ResiduatedLattice, element_names, validate
from .fileformat import parse_text

_A6 = """\
name A6
elements 0 a b c d 1
covers 0<a 0<c a<b b<d c<d d<1
mul
0 0 0 0 0 0
0 a a 0 a a
0 a a 0 a b
0 0 0 c c c
0 a a c d d
0 a b c d 1
res
1 1 1 1 1 1
c 1 1 c 1 1
c d 1 c 1 1
b b b 1 1 1
0 b b c 1 1
0 a b c d 1
"""

_A8 = """\
name A8
elements 0 a b c d e f 1
covers 0<a 0<b a<c a<d b<d c<e d<e d<f e<1 f<1
mul
0 0 0 0 0 0 0 0
0 a 0 a a a a a
0 0 0 0 0 0 b b
0 a 0 c a c a c
0 a 0 a a a d d
0 a 0 c a c d e
0 a b a d d f f
0 a b c d e f 1
res
1 1 1 1 1 1 1 1
b 1 b 1 1 1 1 1
e e 1 e 1 1 1 1
b f b 1 f 1 f 1
b e b e 1 1 1 1
b d b e f 1 f 1
0 c b c e e 1 1
0 a b c d e f 1
"""


def _chain(k: int) -> ResiduatedLattice:
    """Goedel chain of k elements: mul = min, res[x][y] = 1 if x<=y else y."""
    covers = [(i, i + 1) for i in range(k - 1)]
    mul = [[min(i, j) for j in range(k)] for i in range(k)]
    res = [[k - 1 if i <= j else j for j in range(k)] for i in range(k)]
    return validate(element_names(k), mul, covers=covers, res=res, label=f"chain{k}")


def _cube(k: int) -> ResiduatedLattice:
    """Boolean algebra 2^k; element names are bitstrings, mul = meet."""
    n = 1 << k
    names = tuple(format(v, f"0{k}b") for v in range(n))
    top = n - 1
    covers = [
        (v, v | (1 << b)) for v in range(n) for b in range(k) if not (v >> b) & 1
    ]
    mul = [[i & j for j in range(n)] for i in range(n)]
    res = [[(i ^ top) | j for j in range(n)] for i in range(n)]
    return validate(names, mul, covers=covers, res=res, label=f"cube{k}")


def _mv3() -> ResiduatedLattice:
    names = ("0", "h", "1")
    covers = [(0, 1), (1, 2)]
    mul = [[0, 0, 0], [0, 0, 1], [0, 1, 2]]
    res = [[2, 2, 2], [1, 2, 2], [0, 1, 2]]
    return validate(names, mul, covers=covers, res=res, label="MV3")


_BUILDERS = {
    "A6": lambda: parse_text(_A6),
    "A8": lambda: parse_text(_A8),
    "chain2": lambda: _chain(2),
    "chain3": lambda: _chain(3),
    "chain4": lambda: _chain(4),
    "chain5": lambda: _chain(5),
    "chain6": lambda: _chain(6),
    "cube1": lambda: _cube(1),
    "cube2": lambda: _cube(2),
    "cube3": lambda: _cube(3),
    "MV3": _mv3,
}
_CANONICAL = {name.lower(): name for name in _BUILDERS}
_built: dict[str, ResiduatedLattice] = {}


def catalog_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def get(name: str) -> ResiduatedLattice | None:
    """Catalog lookup, case insensitive; None when unknown."""
    canonical = _CANONICAL.get(name.lower())
    if canonical is None:
        return None
    if canonical not in _built:
        _built[canonical] = _BUILDERS[canonical]()
    return _built[canonical]
