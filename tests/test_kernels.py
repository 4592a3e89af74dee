"""The kernels whose rows are hoisted or read off masks, and the table search
that skips unset cells whole, against their twins in oracles.py that scan
cell by cell; the coannihilator laws that keep O(n^2) perps against the walk
that kept them all; and the spectral spaces and relation classes that are
derived once per algebra."""

import random

import pytest

from reslat import catalog, core, filters as flt, gelfand as gf, laws, modelgen as mg
from reslat import pure as pr
from reslat.errors import (
    AdjunctionFails,
    EquivalenceViolation,
    NoResiduum,
    NotCommutativeMonoid,
    NotResiduated,
    ReslatError,
    ResiduumMismatch,
)

from oracles import (
    bits_by_generator,
    class_table_by_scan,
    coannihilator_laws_by_memo,
    comaximal_witness,
    complements_join_by_scan,
    fresh,
    operation_laws_by_scan,
    residuum_table_by_scan,
    structures_by_pairwise_scan,
)


def test_bits_matches_the_generator():
    for mask in range(1 << 12):
        assert tuple(core.bits(mask)) == tuple(bits_by_generator(mask)), mask
    rng = random.Random(20100601)
    for width in (9, 16, 32, 64):
        for _ in range(500):
            mask = rng.getrandbits(width)
            assert tuple(core.bits(mask)) == tuple(bits_by_generator(mask)), mask


# size -> tables found on the canonical lattices, before deduplication
TABLE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 7, 5: 27, 6: 142, 7: 839}


@pytest.mark.parametrize("n", sorted(TABLE_COUNTS))
def test_the_table_search_matches_the_pairwise_scan(n):
    """Skipping a b whose cell ab is unset, and reading each instance in
    the order (a, b, c) alone, drop no instance: the search yields the same
    tables, in the same order, on every lattice."""
    tables = 0
    for lattice, _ in mg._lattices(n):
        got = list(mg._structures_on(lattice))
        assert got == list(structures_by_pairwise_scan(lattice)), lattice.up
        tables += len(got)
    assert tables == TABLE_COUNTS[n]


def _outcome(lattice, mul, res):
    """The algebra the operation half builds, or its error class and message."""
    try:
        return core._operations(lattice, mul, res, label="probe")
    except ReslatError as exc:
        return type(exc), str(exc)


def _mutations(a):
    """Every table that differs from a.mul in one cell, or in one cell and
    its mirror image."""
    for x in range(a.n):
        for y in range(a.n):
            for v in range(a.n):
                if v == a.mul[x][y]:
                    continue
                for cells in {((x, y),), ((x, y), (y, x))}:
                    mul = [list(row) for row in a.mul]
                    for i, j in cells:
                        mul[i][j] = v
                    yield mul


def _operation_cases():
    """(lattice, mul, res): the census with at most five elements as
    generated, and every mutation of the census with at most four elements,
    with and without the residuum it had."""
    cases = []
    for n in range(1, 6):
        for a in mg.residuated_structures(n):
            lattice = core._order(a.names, a.up)
            cases += [(lattice, a.mul, None), (lattice, a.mul, a.res)]
            if n <= 4:
                for mul in _mutations(a):
                    cases += [(lattice, mul, None), (lattice, mul, a.res)]
    return cases


def test_the_operation_half_matches_the_scanned_kernels(monkeypatch):
    """Same algebra, or the same first fault with the same message."""
    cases = _operation_cases()
    got = [_outcome(*case) for case in cases]
    monkeypatch.setattr(core, "_residuum_table", residuum_table_by_scan)
    monkeypatch.setattr(core, "_operation_laws", operation_laws_by_scan)
    assert got == [_outcome(*case) for case in cases]
    faults = {o[0] for o in got if isinstance(o, tuple)}
    assert faults == {AdjunctionFails, NoResiduum, NotCommutativeMonoid, ResiduumMismatch}
    # the 37 census tables twice, and 28 mutations that are residuated
    # again when no residuum is supplied
    assert sum(isinstance(o, core.ResiduatedLattice) for o in got) == 2 * 37 + 28


def _fault(kernel, *args):
    try:
        return kernel(*args)
    except ReslatError as exc:
        return type(exc), str(exc)


def test_each_kernel_matches_its_scan_on_tables_the_operation_half_rejects():
    """Past the residuum, distributivity and the join inequality cannot
    fail, so each kernel also runs alone, on every mutation of the census
    with at most five elements."""
    messages = set()
    for n in range(1, 6):
        for a in mg.residuated_structures(n):
            for mul in _mutations(a):
                res = _fault(core._residuum_table, n, a.up, a.join, mul)
                assert res == _fault(residuum_table_by_scan, n, a.up, a.join, mul)
                laws = _fault(core._operation_laws, a.names, a.up, a.join, mul)
                assert laws == _fault(operation_laws_by_scan, a.names, a.up, a.join, mul)
                if laws is not None:
                    messages.add(laws[1].split(" at ")[0])
    assert messages == {
        "not associative",
        "multiplication fails to distribute over join",
        "join inequality fails",
    }


def test_the_residuum_kernel_matches_its_scan_on_the_census_and_products():
    """The census with at most six elements, the catalog, and products of
    16, 36 and 64 elements, whose masks pass 256 bits."""
    g, prod = catalog.get, core.direct_product
    algebras = [a for n in range(1, 7) for a in mg.residuated_structures(n)]
    algebras += [g(name) for name in catalog.catalog_names()]
    algebras += [prod(g("A8"), g("cube1")), prod(g("A6"), g("A6")), prod(g("A8"), g("A8"))]
    for a in algebras:
        got = core._residuum_table(a.n, a.up, a.join, a.mul)
        assert got == residuum_table_by_scan(a.n, a.up, a.join, a.mul), a.label
        assert tuple(map(tuple, got)) == a.res, a.label


def test_the_residuum_kernel_raises_the_scans_fault_past_eight_elements():
    """Tables of A8xcube1 with one cell and its mirror image changed, drawn
    with a fixed seed: the same fault, with the same message, as the scan."""
    a = core.direct_product(catalog.get("A8"), catalog.get("cube1"))
    rng = random.Random(20260601)
    faults = set()
    for _ in range(200):
        x, y = rng.randrange(a.n), rng.randrange(a.n)
        mul = [list(row) for row in a.mul]
        mul[x][y] = mul[y][x] = rng.choice([v for v in range(a.n) if v != a.mul[x][y]])
        got = _fault(core._residuum_table, a.n, a.up, a.join, mul)
        assert got == _fault(residuum_table_by_scan, a.n, a.up, a.join, mul)
        faults.add(got[0])
    assert faults == {AdjunctionFails, NoResiduum}


def _quotient_outcome(a, f):
    try:
        q, proj = core.quotient(a, f)
    except EquivalenceViolation as exc:
        return str(exc), exc.detail
    return q._tables(), q.label, proj


def _quotient_cases():
    """Each catalog algebra with each of its filters, and the same with one
    cell x*0 of mul patched to every other element: the filter test reads
    no cell outside the filter, so the patch reaches the class tables."""
    cases = []
    for name in catalog.catalog_names():
        a = catalog.get(name)
        for f in flt.all_filters(a):
            cases.append((a, f))
            if (f >> a.zero) & 1:
                continue
            for x in range(a.n):
                for v in range(a.n):
                    if v != a.mul[x][a.zero]:
                        mul = [list(row) for row in a.mul]
                        mul[x][a.zero] = v
                        tables = a._tables()[:4] + (mul,) + a._tables()[5:]
                        cases.append((core.ResiduatedLattice(*tables, label=name), f))
    return cases


def test_quotients_match_the_scanned_class_tables(monkeypatch):
    cases = _quotient_cases()
    got = [_quotient_outcome(a, f) for a, f in cases]
    monkeypatch.setattr(core, "_class_table", class_table_by_scan)
    assert got == [_quotient_outcome(a, f) for a, f in cases]
    raised = [o for o in got if len(o) == 2]
    assert {o[0] for o in raised} == {"operation not well defined on congruence classes"}
    assert 0 < len(raised) < len(got)


def _law_kernel_corpus():
    """The catalog, every structure with at most six elements, A6xA6,
    chain3^3 and A8xchain3."""
    g, prod = catalog.get, core.direct_product
    algebras = [g(name) for name in catalog.catalog_names()]
    algebras += [a for n in range(1, 7) for a in mg.residuated_structures(n)]
    chain3 = g("chain3")
    algebras += [prod(g("A6"), g("A6")), prod(prod(chain3, chain3), chain3), prod(g("A8"), chain3)]
    return algebras


LAW_KERNEL_CORPUS = _law_kernel_corpus()


def test_the_zero_divisor_rows_match_the_zero_product_scan():
    """The zero-product route of comaximality, read off the zero-divisor
    rows, against the double loop over both filters, on every pair of
    filters; both answers occur."""
    seen = set()
    for a in LAW_KERNEL_CORPUS:
        fs = flt.all_filters(a)
        for f in fs:
            for g in fs:
                got = flt.comaximal_routes(a, f, g)["zero_product"]
                assert got == (comaximal_witness(a, f, g) is not None), (a.label, f, g)
                seen.add(got)
    assert seen == {False, True}


def test_the_co_join_rows_match_the_complement_scan():
    """The co-join rows, derived from the order, are the rows of the join
    table; read by complements_join_to_one they give the double loop's
    answer on every pair of filters, and both answers occur."""
    seen = set()
    for a in LAW_KERNEL_CORPUS:
        assert flt.co_join_rows(a) == flt.join_to_one(a), a.label
        fs = flt.all_filters(a)
        for p in fs:
            for q in fs:
                got = flt.complements_join_to_one(a, p, q)
                assert got == complements_join_by_scan(a, p, q), (a.label, p, q)
                seen.add(got)
    assert seen == {False, True}


def _law_outcome(suite, a):
    try:
        return suite(a)
    except EquivalenceViolation as exc:
        return str(exc), exc.detail


def _wide_on_triples(real):
    """A perp that is the whole carrier on every three-element set."""
    return lambda a, s: a.full if bin(s).count("1") == 3 else real(a, s)


def _narrow_on_pairs(real):
    """A perp that is {1} on every two-element set."""
    return lambda a, s: 1 << a.one if bin(s).count("1") == 2 else real(a, s)


@pytest.mark.parametrize("perp", ["coannihilator", "generated_filter", "wide_on_triples",
                                  "narrow_on_pairs"])
def test_the_streamed_coannihilator_laws_match_the_memoized_walk(monkeypatch, perp):
    """The suite checks the instances of the walk that memoized every perp,
    less the trivial ones: with the real perp and with three broken ones,
    it returns the same laws or fails the same laws on every algebra."""
    real = flt.coannihilator
    replacement = {
        "coannihilator": real,
        "generated_filter": flt.generated_filter,
        "wide_on_triples": _wide_on_triples(real),
        "narrow_on_pairs": _narrow_on_pairs(real),
    }[perp]
    monkeypatch.setattr(flt, "coannihilator", replacement)
    failing = set()
    for a in LAW_KERNEL_CORPUS:
        got = _law_outcome(laws.coannihilator_laws, a)
        assert got == _law_outcome(coannihilator_laws_by_memo, a), a.label
        if isinstance(got, tuple):
            failing.update(got[1][1])
    assert ("antitone" in failing) is (perp != "coannihilator")


@pytest.mark.parametrize("name", ["A6", "A8", "cube2"])
def test_spaces_and_relation_classes_are_derived_once(name):
    a = fresh(catalog.get(name))
    assert pr.max_subspace(a) is pr.max_subspace(a)
    assert pr.pure_spectrum_space(a) is pr.pure_spectrum_space(a)
    for kind in ("comaximal", "dpart"):
        assert gf.relation_closure(a, kind) is gf.relation_closure(a, kind)
