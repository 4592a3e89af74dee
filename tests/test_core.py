"""Carrier-level checks: validation, residuum derivation, element classes,
products, quotients, isomorphism."""

import types
from pathlib import Path

import pytest

from reslat import catalog, core, fileformat as ff, filters as flt, laws, report
from reslat import topology as top
from reslat.errors import (
    AdjunctionFails,
    CarrierTooLarge,
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

from oracles import derive_residuum, find_isomorphism, fresh, is_isomorphic

CATALOG_NAMES = (
    "A6", "A8", "chain2", "chain3", "chain4", "chain5", "chain6",
    "cube1", "cube2", "cube3", "MV3",
)

PRELINEAR = {
    "A6": False, "A8": False,
    "chain2": True, "chain3": True, "chain4": True, "chain5": True,
    "chain6": True, "cube1": True, "cube2": True, "cube3": True, "MV3": True,
}


def test_catalog_names():
    assert catalog.catalog_names() == CATALOG_NAMES


def test_catalog_lookup_is_case_insensitive():
    assert catalog.get("a6") is catalog.get("A6")
    assert catalog.get("mv3") is catalog.get("MV3")
    assert catalog.get("nosuchthing") is None


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_entries_validate(name):
    a = catalog.get(name)
    rebuilt = core.validate(a.names, a.mul, covers=ff.cover_pairs(a), label=a.label)
    assert rebuilt.up == a.up
    assert rebuilt.res == a.res


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_derived_residuum_matches_stored_tables(name):
    a = catalog.get(name)
    assert derive_residuum(a) == a.res


def test_validate_rejects_broken_product():
    a = catalog.get("A6")
    mul = [list(r) for r in a.mul]
    mul[1][3] = mul[3][1] = 4  # a*c := d destroys the adjunction
    with pytest.raises(AdjunctionFails):
        core.validate(a.names, mul, covers=ff.cover_pairs(a))


def test_supplied_residuum_must_equal_the_derived_one():
    a = catalog.get("A6")
    covers = ff.cover_pairs(a)
    res = [list(r) for r in a.res]
    assert core.validate(a.names, a.mul, covers=covers, res=res).res == a.res
    res[0][0] = a.zero
    with pytest.raises(ResiduumMismatch, match=r"residuum at \(0,0\) is 0, derived 1"):
        core.validate(a.names, a.mul, covers=covers, res=res)
    res[0][0] = a.n
    with pytest.raises(NotResiduated, match="outside the carrier"):
        core.validate(a.names, a.mul, covers=covers, res=res)
    for bad in (a.res[:-1], [r[:-1] for r in a.res]):
        with pytest.raises(NotResiduated, match="residuum table must be n x n"):
            core.validate(a.names, a.mul, covers=covers, res=bad)


def test_validate_rejects_noncommutative_product():
    a = catalog.get("A6")
    mul = [list(r) for r in a.mul]
    mul[1][2] = 0  # a*b != b*a
    with pytest.raises(NotCommutativeMonoid, match="not commutative at a,b"):
        core.validate(a.names, mul, covers=ff.cover_pairs(a))


def test_validate_rejects_non_lattice_order():
    # two incomparable atoms with two incomparable coatoms: ab has no join
    names = ("0", "a", "b", "c", "d", "1")
    covers = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]
    mul = [[min(i, j) for j in range(6)] for i in range(6)]
    with pytest.raises(NotALattice):
        core.validate(names, mul, covers=covers)


CHAIN3 = dict(names="0a1", mul=[[0, 0, 0], [0, 1, 1], [0, 1, 2]], covers=[(0, 1), (1, 2)])


def _chain4(aa, ab, bb):
    """0 < a < b < 1 with the three interior products given."""
    mul = [[0, 0, 0, 0], [0, aa, ab, 1], [0, ab, bb, 2], [0, 1, 2, 3]]
    return dict(names="0ab1", mul=mul, covers=[(0, 1), (1, 2), (2, 3)])


def _with(base, **changes):
    return {**base, **changes}


# (id, validate arguments, error class, message); the last cases hold two
# faults each and pin which one is reported first.
REJECTIONS = [
    ("empty", dict(names=(), mul=[], covers=[]), NotALattice, "empty carrier"),
    ("too-large", dict(names=range(65), mul=[], covers=[]),
     CarrierTooLarge, "carrier size 65 exceeds bound 64"),
    ("duplicate", _with(CHAIN3, names="0a0"), NotALattice, "duplicate element names"),
    # names are not converted: str() would name these '0' and "['z']"
    ("names-not-strings", dict(names=[0, ["z"]], mul=[[0, 0], [0, 1]], covers=[(0, 1)]),
     NotALattice, "element names must be strings"),
    # serialize would later read it as a string ('#' in a.label)
    ("label-not-string", _with(CHAIN3, label=5), FormatError, "label must be a string"),
    ("both-orders", _with(CHAIN3, leq=[[1, 1, 1], [0, 1, 1], [0, 0, 1]]),
     NotALattice, "supply exactly one of leq matrix or covering pairs"),
    ("no-order", _with(CHAIN3, covers=None),
     NotALattice, "supply exactly one of leq matrix or covering pairs"),
    ("cover-range", _with(CHAIN3, covers=[(0, 1), (1, 3)]),
     NotALattice, "cover (1,3) out of range"),
    ("cover-fraction", _with(CHAIN3, covers=[(0.5, 1), (1, 2)]),
     NotALattice, "cover (0.5,1) out of range"),
    ("cover-triple", _with(CHAIN3, covers=[(0, 1, 2)]), NotALattice, "cover (0,1,2) out of range"),
    ("cover-not-a-pair", _with(CHAIN3, covers=[5]), NotALattice, "cover (5) out of range"),
    ("leq-rows", _with(CHAIN3, covers=None, leq=[[1, 1, 1], [0, 1, 1]]),
     NotALattice, "order matrix must be n x n"),
    ("leq-columns", _with(CHAIN3, covers=None, leq=[[1, 1, 1], [0, 1], [0, 0, 1]]),
     NotALattice, "order matrix must be n x n"),
    ("leq-not-rows", _with(CHAIN3, covers=None, leq=[1, 1]),
     NotALattice, "order matrix must be n x n"),
    ("reflexive", _with(CHAIN3, covers=None, leq=[[1, 1, 1], [0, 0, 1], [0, 0, 1]]),
     NotALattice, "order not reflexive at a"),
    ("antisymmetric", _with(CHAIN3, covers=None, leq=[[1, 1, 1], [1, 1, 1], [0, 0, 1]]),
     NotALattice, "order not antisymmetric at 0,a"),
    ("cover-cycle", _with(CHAIN3, covers=[(0, 1), (1, 0), (1, 2)]),
     NotALattice, "order not antisymmetric at 0,a"),
    ("transitive", _with(CHAIN3, covers=None, leq=[[1, 1, 0], [0, 1, 1], [0, 0, 1]]),
     NotALattice, "order not transitive at 0,a,1"),
    ("bounds", dict(names="xy", mul=[[0, 0], [0, 1]], leq=[[1, 0], [0, 1]]),
     NotALattice, "order has no unique bottom or top"),
    ("join", dict(names="0abcd1", mul=[[min(i, j) for j in range(6)] for i in range(6)],
                  covers=[(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]),
     NotALattice, "elements 1,2 have no join"),
    # c, d first: the pair (c, d) has the join 1 but no meet
    ("meet", dict(names="cdab01", mul=[[0] * 6 for _ in range(6)],
                  covers=[(2, 0), (2, 1), (3, 0), (3, 1), (4, 2), (4, 3), (0, 5), (1, 5)]),
     NotALattice, "elements 0,1 have no meet"),
    ("mul-shape", _with(CHAIN3, mul=[[0, 0, 0], [0, 1, 1]]),
     NotCommutativeMonoid, "multiplication table must be n x n over the carrier"),
    ("mul-value", _with(CHAIN3, mul=[[0, 0, 0], [0, 3, 1], [0, 1, 2]]),
     NotCommutativeMonoid, "multiplication table must be n x n over the carrier"),
    # entries are not converted: int() would read each of these as a chain
    ("mul-fractions", dict(names="01", mul=[[0, 0.5], [0.9, 1]], covers=[(0, 1)]),
     NotCommutativeMonoid, "multiplication table must be n x n over the carrier"),
    ("mul-digit-strings", _with(CHAIN3, mul=[["0", "0", "0"], ["0", "1", "1"], ["0", "1", "2"]]),
     NotCommutativeMonoid, "multiplication table must be n x n over the carrier"),
    ("mul-bool", _with(CHAIN3, mul=[[0, 0, 0], [0, True, True], [0, True, 2]]),
     NotCommutativeMonoid, "multiplication table must be n x n over the carrier"),
    ("mul-none", _with(CHAIN3, mul=None),
     NotCommutativeMonoid, "multiplication table must be n x n over the carrier"),
    ("mul-not-rows", _with(CHAIN3, mul=[0, 1]),
     NotCommutativeMonoid, "multiplication table must be n x n over the carrier"),
    ("unit", _with(CHAIN3, mul=[[0, 0, 0], [0, 1, 0], [0, 0, 2]]),
     NotCommutativeMonoid, "1 is not a unit at a"),
    ("commutative", _with(CHAIN3, mul=[[0, 0, 0], [1, 1, 1], [0, 1, 2]]),
     NotCommutativeMonoid, "not commutative at 0,a"),
    # a = index 0 and a*z = a for every z: nothing multiplies a below 0
    ("no-residuum", dict(names="a01", mul=[[0, 0, 0], [0, 1, 1], [0, 1, 2]],
                         covers=[(1, 0), (0, 2)]),
     NoResiduum, "no residuum for (x=0, y=1)"),
    # the diamond with a*a = a*b = 0: their join 1 gives a*1 = a, not 0
    ("no-maximum", dict(names="0ab1", mul=[[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 2],
                                           [0, 1, 2, 3]],
                        covers=[(0, 1), (0, 2), (1, 3), (2, 3)]),
     NoResiduum, "{z : 1*z <= 0} has no maximum"),
    ("adjunction", _chain4(1, 0, 0), AdjunctionFails, "adjunction fails at (x=1, y=0, z=1)"),
    ("associative", _chain4(0, 1, 1), NotCommutativeMonoid, "not associative at a,b,b"),
    ("res-rows", _with(CHAIN3, res=[[2, 2, 2], [0, 2, 2]]),
     NotResiduated, "residuum table must be n x n"),
    ("res-fraction", _with(CHAIN3, res=[[2, 2, 2], [0, 2, 2], [0, 1.2, 2]]),
     NotResiduated, "residuum table must be n x n"),
    ("res-not-rows", _with(CHAIN3, res=[1, 1]), NotResiduated, "residuum table must be n x n"),
    ("res-value", _with(CHAIN3, res=[[2, 2, 2], [0, 2, 2], [0, 1, 1]]),
     ResiduumMismatch, "residuum at (1,1) is a, derived 1"),
    ("res-outside", _with(CHAIN3, res=[[2, 2, 2], [0, 2, 2], [0, 1, 3]]),
     ResiduumMismatch, "residuum at (1,1) is 3 (outside the carrier), derived 1"),
    ("size-before-names", dict(names=[0] * 65, mul=[], covers=[]),
     CarrierTooLarge, "carrier size 65 exceeds bound 64"),
    ("names-before-orders", _with(CHAIN3, names="0a0", covers=None),
     NotALattice, "duplicate element names"),
    ("orders-before-range", _with(CHAIN3, covers=[(0, 5)], leq=[[1]]),
     NotALattice, "supply exactly one of leq matrix or covering pairs"),
    ("antisymmetric-before-reflexive",
     _with(CHAIN3, covers=None, leq=[[1, 1, 1], [1, 0, 1], [0, 0, 1]]),
     NotALattice, "order not antisymmetric at 0,a"),
    ("transitive-before-antisymmetric",
     dict(names="0ab1", mul=[[0] * 4] * 4,
          leq=[[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]),
     NotALattice, "order not transitive at 0,a,b"),
    ("order-before-mul", _with(CHAIN3, covers=[(0, 1)], mul=[]),
     NotALattice, "order has no unique bottom or top"),
    ("commutative-before-unit", _with(CHAIN3, mul=[[0, 1, 0], [0, 1, 0], [0, 0, 2]]),
     NotCommutativeMonoid, "not commutative at 0,a"),
    ("residuum-before-associative", _chain4(0, 1, 0),
     AdjunctionFails, "adjunction fails at (x=2, y=0, z=1)"),
    ("derived-before-supplied", _with(_chain4(1, 0, 0), res=[[0]]),
     AdjunctionFails, "adjunction fails at (x=1, y=0, z=1)"),
]


@pytest.mark.parametrize("args,error,message", [c[1:] for c in REJECTIONS],
                         ids=[c[0] for c in REJECTIONS])
def test_each_validate_rejection(monkeypatch, args, error, message):
    """Class and text of every rejection `validate` can reach. Two cannot:
    once the residuum passes, mul is residuated, so it distributes over
    joins and, being integral, satisfies the join inequality."""
    monkeypatch.delenv("RESLAT_MAX_SIZE", raising=False)
    args = dict(args)
    with pytest.raises(error) as info:
        core.validate(args.pop("names"), args.pop("mul"), **args)
    assert type(info.value) is error
    assert str(info.value) == message


def test_validate_respects_size_bound(monkeypatch):
    monkeypatch.setenv("RESLAT_MAX_SIZE", "4")
    a = catalog.get("chain5")
    with pytest.raises(CarrierTooLarge):
        core.validate(a.names, a.mul, covers=ff.cover_pairs(a))


def test_size_bound_rejects_garbage_env(monkeypatch):
    for raw, message in (
        ("banana", "RESLAT_MAX_SIZE must be an integer, got 'banana'"),
        ("0", "RESLAT_MAX_SIZE must be a positive integer, got '0'"),
        ("-1", "RESLAT_MAX_SIZE must be a positive integer, got '-1'"),
    ):
        monkeypatch.setenv("RESLAT_MAX_SIZE", raw)
        with pytest.raises(UsageError) as info:
            core.size_bound()
        assert str(info.value) == message


def test_classify_elements_a6():
    a = catalog.get("A6")
    cls = core.classify_elements(a)
    assert a.set_repr(cls.nilpotents) == "{0}"
    assert a.set_repr(cls.interior) == "{a,b,c,d,1}"
    assert a.set_repr(cls.boolean_center) == "{0,1}"
    assert a.set_repr(cls.idempotents) == "{0,a,c,d,1}"


def test_classify_elements_a8():
    a = catalog.get("A8")
    cls = core.classify_elements(a)
    assert a.set_repr(cls.nilpotents) == "{0,b}"
    assert a.set_repr(cls.interior) == "{a,c,d,e,f,1}"
    assert a.set_repr(cls.boolean_center) == "{0,1}"
    assert a.set_repr(cls.idempotents) == "{0,a,c,f,1}"


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_prelinearity(name):
    assert core.is_prelinear(catalog.get(name)) is PRELINEAR[name]


def test_direct_product_of_chains_is_the_square():
    p = core.direct_product(catalog.get("chain2"), catalog.get("chain2"))
    assert p.n == 4
    assert p.label == "chain2xchain2"
    assert p.names == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
    assert is_isomorphic(p, catalog.get("cube2"))


def test_direct_product_respects_size_bound(monkeypatch):
    monkeypatch.setenv("RESLAT_MAX_SIZE", "4")
    with pytest.raises(CarrierTooLarge):
        core.direct_product(catalog.get("chain2"), catalog.get("chain3"))


def test_quotient_by_principal_filter():
    a = catalog.get("A6")
    fd = 0b110000  # {d,1}
    q, proj = core.quotient(a, fd)
    assert q.n == 4
    assert q.label == "A6/{d,1}"
    assert proj == (0, 1, 1, 2, 3, 3)
    # projection is a homomorphism for the three operations
    for x in range(a.n):
        for y in range(a.n):
            assert proj[a.mul[x][y]] == q.mul[proj[x]][proj[y]]
            assert proj[a.join[x][y]] == q.join[proj[x]][proj[y]]
            assert proj[a.meet[x][y]] == q.meet[proj[x]][proj[y]]


def test_quotient_by_improper_filter_is_trivial():
    a = catalog.get("A6")
    q, proj = core.quotient(a, a.full)
    assert q.n == 1
    assert proj == (0,) * 6


def test_quotient_rejects_non_filter():
    """Also a mask with a bit past the carrier and one with every bit set,
    which the refusal names by their bits."""
    a = catalog.get("A6")
    with pytest.raises(NotAFilter):
        core.quotient(a, 0b000101)  # {0,b}
    for mask, name in ((0b10000100000, "mask 0b10000100000"), (-1, "mask -0b1")):
        assert not a.is_filter(mask)
        with pytest.raises(NotAFilter, match=f"^{name} is not a filter of A6$"):
            core.quotient(a, mask)


def test_set_names_rejects_a_mask_outside_the_carrier():
    """Named by its bits, as set_repr names it; unchecked, the lookup would
    index past the end of the names."""
    a = catalog.get("A6")
    assert a.set_names(0b110000) == ("d", "1")
    for mask, name in ((1 << 6, "mask 0b1000000"),
                       (1 << 10 | 1 << a.one, "mask 0b10000100000"), (-1, "mask -0b1")):
        with pytest.raises(ImproperInput, match=f"^{name} is not a subset of A6$"):
            a.set_names(mask)


def test_find_isomorphism_distinguishes_same_size_algebras():
    # both have three elements, but the middle of MV3 is nilpotent
    assert find_isomorphism(catalog.get("chain3"), catalog.get("MV3")) is None
    assert not is_isomorphic(catalog.get("chain3"), catalog.get("MV3"))


def test_find_isomorphism_refuses_different_sizes():
    assert find_isomorphism(catalog.get("chain2"), catalog.get("chain3")) is None


def test_is_filter_needs_upward_closure():
    a = catalog.get("A6")
    x = a.names.index("a")
    assert a.is_filter(a.up[x])
    assert not a.is_filter(1 << x | 1 << a.one)  # {a,1} misses b and d


def test_find_isomorphism_inverts_a_relabeling():
    a = catalog.get("A8")
    perm = (0, 3, 1, 5, 2, 6, 4, 7)  # reshuffle the middle elements
    names = tuple(f"e{i}" for i in range(8))
    mul = [[0] * 8 for _ in range(8)]
    for x in range(8):
        for y in range(8):
            mul[perm[x]][perm[y]] = perm[a.mul[x][y]]
    covers = [(perm[lo], perm[hi]) for lo, hi in ff.cover_pairs(a)]
    b = core.validate(names, mul, covers=covers, label="shuffled")
    iso = find_isomorphism(a, b)
    assert iso is not None
    for x in range(8):
        for y in range(8):
            assert iso[a.mul[x][y]] == b.mul[iso[x]][iso[y]]


def test_set_repr_and_masks():
    a = catalog.get("A6")
    assert a.set_repr(0) == "{}"
    assert a.set_repr(a.full) == "{0,a,b,c,d,1}"
    assert core.mask_of([0, 2, 4]) == 0b10101
    assert list(core.bits(0b10101)) == [0, 2, 4]


# ----------------------------------------------------------------- memo


def test_memo_computes_once_per_instance_and_arguments():
    calls = []

    @core.memo
    def double(alg, x):
        """Twice x."""
        calls.append((id(alg), x))
        return 2 * x

    a = catalog.get("A8")
    b = fresh(a)
    assert a == b and a is not b
    assert [double(a, 1), double(a, 1), double(a, 2), double(b, 1)] == [2, 2, 4, 2]
    assert calls == [(id(a), 1), (id(a), 2), (id(b), 1)]
    assert double.__name__ == "double" and double.__doc__ == "Twice x."
    assert double.__module__ == __name__


def test_memo_without_arguments_and_after_a_raise():
    """A function of the algebra alone is computed once; a call that raises
    stores nothing, so the next call computes again."""
    calls = []

    @core.memo
    def size(alg):
        calls.append("size")
        return alg.n

    @core.memo
    def fails(alg):
        calls.append("fails")
        raise ValueError("no value")

    a = fresh(catalog.get("A8"))
    assert [size(a), size(a)] == [8, 8]
    for _ in range(2):
        with pytest.raises(ValueError, match="no value"):
            fails(a)
    assert calls == ["size", "fails", "fails"]


def test_equal_algebras_share_no_results():
    a = catalog.get("A8")
    b = fresh(a)
    assert flt.filter_generators(a) is flt.filter_generators(a)
    assert flt.filter_generators(a) is not flt.filter_generators(b)
    assert top.spec_space(a, "hull") is not top.spec_space(b, "hull")


def test_algebras_compare_by_their_tables_and_are_immutable():
    """Equality and hashing read the eight table fields and ignore the label,
    no field can be assigned, and the repr names every field but the cache."""
    a = catalog.get("chain3")
    b = core.validate(a.names, a.mul, covers=[(0, 1), (1, 2)], label="relabelled")
    assert a == b and hash(a) == hash(b) and a.label != b.label
    lukasiewicz = catalog.get("MV3").mul
    assert a != core.validate(a.names, lukasiewicz, covers=[(0, 1), (1, 2)], label="chain3")
    assert a != a.names and len({a, b, fresh(a)}) == 1
    for field in ("names", "label", "n", "_cache", "unknown"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)
    assert a.label == "chain3" and a.n == 3 and a.full == 7
    assert repr(a) == (
        "ResiduatedLattice(names=('0', 'a', '1'), up=(7, 6, 4), "
        "join=((0, 1, 2), (1, 1, 2), (2, 2, 2)), meet=((0, 0, 0), (0, 1, 1), (0, 1, 2)), "
        "mul=((0, 0, 0), (0, 1, 1), (0, 1, 2)), res=((2, 2, 2), (0, 2, 2), (0, 1, 2)), "
        "zero=0, one=2, label='chain3')"
    )


def test_a_report_analyses_each_algebra_once(monkeypatch):
    """build_report derives the filter generators once per algebra instance
    (the algebra and its quotients), which regenerates each of its filters
    once, and the coannihilator of each element once; the law suites' own
    coannihilator calls are not counted."""
    generated = []
    coannihilated = []
    generated_filter, coannihilator = flt.generated_filter, flt.coannihilator

    def counting_generated_filter(alg, subset):
        generated.append((alg, subset))
        return generated_filter(alg, subset)

    def counting_coannihilator(alg, subset):
        coannihilated.append((alg, subset))
        return coannihilator(alg, subset)

    monkeypatch.setattr(laws, "flt", types.SimpleNamespace(**vars(flt)))
    monkeypatch.setattr(flt, "generated_filter", counting_generated_filter)
    monkeypatch.setattr(flt, "coannihilator", counting_coannihilator)
    a = core.direct_product(catalog.get("A6"), catalog.get("chain2"))
    report.build_report(a)
    assert len({id(alg) for alg, _ in generated}) > 1
    assert len({(id(alg), f) for alg, f in generated}) == len(generated)
    assert sorted(f for alg, f in generated if alg is a) == sorted(flt.all_filters(a))
    assert sorted(subset for alg, subset in coannihilated if alg is a) == [
        1 << x for x in range(a.n)
    ]
    assert all(alg is a for alg, _ in coannihilated)


def test_only_memo_touches_the_cache():
    """One store for derived results: `_cache` is named in core.py alone."""
    src = Path(core.__file__).parent
    assert [p.name for p in sorted(src.glob("*.py")) if "_cache" in p.read_text()] == [
        "core.py"
    ]


def test_no_powerset_walk_on_the_report_path():
    """Laws and theorems are decided from checked bases, not by walking
    every subset: no `range(1 <<` is left on the report path, and the
    retraction is built, not searched over maps."""
    src = Path(core.__file__).parent
    modules = ("filters", "laws", "pure", "topology", "gelfand", "report")
    walks = [
        (name, line.strip())
        for name in modules
        for line in (src / f"{name}.py").read_text().splitlines()
        if "range(1 <<" in line
    ]
    assert walks == []
    assert "itertools" not in (src / "gelfand.py").read_text()
