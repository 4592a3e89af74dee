"""Acceptance gate: one test per criterion, each printing one pass/fail line
under pytest -v. Timing bounds are asserted with wall-clock measurements."""

import time
import random
import itertools

import pytest

from reslat import catalog, cli, core, filters as flt, gelfand as gf
from reslat import laws, modelgen as mg, report

from oracles import naive_lattices, naive_structures, run_cli

CATALOG = (
    "A6", "A8", "chain2", "chain3", "chain4", "chain5", "chain6",
    "cube1", "cube2", "cube3", "MV3",
)


def test_c1_filter_and_spectrum_tables():
    """The two reference models list exactly the frozen filter, maximal and
    prime collections, in under a second."""
    t0 = time.perf_counter()
    code, out, _ = run_cli(["filters", "A6"])
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == [
        "{1}", "{d,1}", "{c,d,1}", "{a,b,d,1}", "{0,a,b,c,d,1}",
    ]
    code, out, _ = run_cli(["filters", "A8"])
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == [
        "{1}", "{f,1}", "{c,e,1}", "{a,c,d,e,f,1}", "{0,a,b,c,d,e,f,1}",
    ]
    code, out, _ = run_cli(["spectrum", "A6"])
    assert code == 0
    assert out.splitlines()[:3] == ["{1}", "{c,d,1} maximal", "{a,b,d,1} maximal"]
    code, out, _ = run_cli(["spectrum", "A8"])
    assert code == 0
    assert out.splitlines()[:3] == [
        "{f,1}", "{c,e,1}", "{a,c,d,e,f,1} maximal",
    ]
    assert time.perf_counter() - t0 < 1.0


def test_c2_flagship_classification():
    """A6 is not Gelfand and carries witnesses; A8 is Gelfand on all fourteen
    criteria; both verdicts land in under a second."""
    t0 = time.perf_counter()
    v6 = gf.gelfand_verdict(catalog.get("A6"))
    assert v6.verdict is False
    assert set(v6.criteria.values()) == {False}
    assert v6.witnesses["unique_maximal"] == (
        "prime {1} lies under {c,d,1} and {a,b,d,1}"
    )
    v8 = gf.gelfand_verdict(catalog.get("A8"))
    assert v8.verdict is True
    assert set(v8.criteria.values()) == {True}
    assert time.perf_counter() - t0 < 1.0


def test_c3_unanimity_on_catalog_and_all_models_up_to_five():
    """All fourteen criteria return identical booleans on the catalog and on
    every enumerated model with at most five elements, within a minute."""
    t0 = time.perf_counter()
    checked = 0
    for name in CATALOG:
        v = gf.gelfand_verdict(catalog.get(name))
        assert set(v.criteria.values()) == {v.verdict}
        checked += 1
    for n in range(1, 6):
        for a in mg.residuated_structures(n):
            v = gf.gelfand_verdict(a)
            assert set(v.criteria.values()) == {v.verdict}
            checked += 1
    assert checked == len(CATALOG) + 1 + 1 + 2 + 7 + 26
    assert time.perf_counter() - t0 < 60.0


def test_c3_unanimity_full_sweep_to_six():
    """The full n = 6 sweep stays unanimous (classify_all raises on any
    disagreement) and finishes well inside ten minutes."""
    t0 = time.perf_counter()
    rep = mg.classify_all(6)
    assert rep.structure_count == 129
    assert rep.gelfand_count == 125
    assert time.perf_counter() - t0 < 600.0


def test_c4_property_suites_zero_violations():
    """Every law suite passes on the catalog and on all models with at most
    five elements; suites raise EquivalenceViolation on any failure."""
    for name in CATALOG:
        results = laws.run_laws(catalog.get(name))
        for suite, checks in results.items():
            assert all(checks.values()), (name, suite)
    for n in range(1, 6):
        for a in mg.residuated_structures(n):
            results = laws.run_laws(a)
            for suite, checks in results.items():
                assert all(checks.values()), (a.label, suite)


def test_c5_products_of_gelfand_algebras_stay_gelfand():
    """Sampled pairs of enumerated Gelfand algebras with product size at most
    36 multiply to Gelfand algebras, within a minute."""
    t0 = time.perf_counter()
    pool = []
    for n in range(2, 7):
        for a in mg.residuated_structures(n):
            if gf.gelfand_verdict(a).verdict:
                pool.append(a)
    rng = random.Random(20260815)
    pairs = [
        (a, b)
        for a, b in itertools.combinations(pool, 2)
        if a.n * b.n <= 36
    ]
    for a, b in rng.sample(pairs, 40):
        p = core.direct_product(a, b)
        v = gf.gelfand_verdict(p)
        assert v.verdict is True, (a.label, b.label)
    assert time.perf_counter() - t0 < 60.0


@pytest.mark.parametrize("left,right", [("A8", "A8"), ("cube3", "cube3")])
def test_c5_full_reports_on_64_element_products(left, right):
    """The largest corpus products get a whole report: filter counts
    multiply, prime and maximal counts add, the product is Gelfand iff both
    factors are, and every law holds."""
    f, g = catalog.get(left), catalog.get(right)
    p = core.direct_product(f, g)
    assert p.n == 64
    rep = report.build_report(p)
    assert rep["filters"]["count"] == len(flt.all_filters(f)) * len(flt.all_filters(g))
    assert len(rep["prime_filters"]) == len(flt.prime_filters(f)) + len(flt.prime_filters(g))
    assert len(rep["maximal_filters"]) == (
        len(flt.maximal_filters(f)) + len(flt.maximal_filters(g))
    )
    both = gf.gelfand_verdict(f).verdict and gf.gelfand_verdict(g).verdict
    assert rep["gelfand"]["verdict"] is both
    for suite, checks in rep["laws"].items():
        assert set(checks.values()) == {True}, suite


def test_c6_soft_classification():
    """Boolean cubes are soft, the flagships are not, and both the softness
    routes and the Hausdorff battery stay unanimous everywhere."""
    assert gf.is_soft(catalog.get("cube1"))[0]
    assert gf.is_soft(catalog.get("cube2"))[0]
    assert gf.is_soft(catalog.get("cube3"))[0]
    assert not gf.is_soft(catalog.get("A6"))[0]
    assert not gf.is_soft(catalog.get("A8"))[0]
    for name in CATALOG:
        a = catalog.get(name)
        soft, routes = gf.is_soft(a)
        assert set(routes.values()) == {soft}
        assert len(set(gf.hausdorff_battery(a).values())) == 1
    for n in range(1, 7):
        for a in mg.residuated_structures(n):
            soft, routes = gf.is_soft(a)
            assert set(routes.values()) == {soft}
            assert len(set(gf.hausdorff_battery(a).values())) == 1


def test_c7_enumeration_sanity():
    """Canonicity-pruned counts equal naive brute-force counts: structures up
    to four elements, backbone lattices at five."""
    for n in range(1, 5):
        pruned = sum(1 for _ in mg.residuated_structures(n))
        assert pruned == len(naive_structures(n))
    assert sum(1 for _ in mg.enumerate_lattices(5)) == len(naive_lattices(5))


def test_c8_prelinear_models_are_gelfand():
    """Every enumerated model satisfying (x->y) v (y->x) = 1 is Gelfand."""
    seen_prelinear = 0
    for n in range(1, 7):
        for a in mg.residuated_structures(n):
            if core.is_prelinear(a):
                seen_prelinear += 1
                assert gf.gelfand_verdict(a).verdict is True, a.label
    assert seen_prelinear == 1 + 1 + 2 + 7 + 23 + 99
