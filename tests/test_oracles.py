"""The checked-base routes against the exhaustive enumerations they replace:
coannihilator laws, closure lemmas, the patch/stability criterion, stable
sets and retractions; and the one-step derivations against the routes they
replace: filter joins folded from the join table, all coannihilators and the
spectrum's DOT edges."""

import time
import types

import pytest

from reslat import catalog, cli, core, fileformat as ff, filters as flt, gelfand as gf
from reslat import laws, modelgen, pure as pr, topology as top
from reslat.errors import EquivalenceViolation

from oracles import (
    big_gamma_by_fixpoint,
    closure_lemmas_by_scan,
    coannihilator_laws_by_powerset,
    goedel,
    patch_stability_by_scan,
    retraction_images,
    run_cli,
    spec_edges_by_scan,
    stable_sets_by_scan,
)


def _corpus():
    """The catalog, the Goedel chains of 2 to 10 elements, every structure
    with at most five elements and three products."""
    get, prod = catalog.get, core.direct_product
    algebras = [get(name) for name in catalog.catalog_names()]
    algebras += [goedel(k) for k in range(2, 11)]
    for n in range(1, 6):
        algebras += list(modelgen.residuated_structures(n))
    algebras += [
        prod(get("A6"), get("A6")),
        prod(get("A6"), get("cube2")),
        prod(prod(get("chain3"), get("chain3")), get("chain3")),
    ]
    return algebras


CORPUS = _corpus()


def test_coannihilator_laws_match_the_powerset():
    small = [a for a in CORPUS if a.n <= 10]
    assert len(small) > 40
    for a in small:
        assert laws.coannihilator_laws(a) == coannihilator_laws_by_powerset(a), a.label


def test_an_asymmetric_join_row_fails_the_double_law(monkeypatch):
    """The symmetric Galois base is read from the co-join rows: one row that
    forgets a partner fails subset_of_double, also above ten elements."""
    a = core.direct_product(catalog.get("A8"), catalog.get("cube1"))
    assert a.n == 16
    rows = list(flt.join_to_one(a))
    assert rows[a.zero] == 1 << a.one and (rows[a.one] >> a.zero) & 1
    rows[a.zero] = 0
    broken = types.SimpleNamespace(**{**vars(flt), "join_to_one": lambda alg: rows})
    monkeypatch.setattr(laws, "flt", broken)
    with pytest.raises(EquivalenceViolation, match="coannihilator laws fail") as exc:
        laws.coannihilator_laws(a)
    assert exc.value.detail == (a.label, ("subset_of_double",))


def test_closure_lemmas_match_the_scan():
    for a in CORPUS:
        assert laws.closure_lemmas(a) is closure_lemmas_by_scan(a) is True, a.label


def test_the_hull_meet_base_is_checked(monkeypatch):
    """hull(F n G) = hull(F) u hull(G) holds for filters only: offered the
    non-filters {c,1} and {a,1} of A6, whose meet {1} lies under every
    prime, the base check refuses."""
    a = catalog.get("A6")
    c1, a1 = (core.mask_of((a.names.index(x), a.one)) for x in "ca")
    family = flt.all_filters(a) + (c1, a1)
    broken = types.SimpleNamespace(**{**vars(flt), "all_filters": lambda alg: family})
    monkeypatch.setattr(laws, "flt", broken)
    with pytest.raises(EquivalenceViolation, match="closure lemmas fail"):
        laws.closure_lemmas(a)


def test_patch_stability_criterion_matches_the_scan():
    for a in CORPUS:
        assert laws.patch_stability_criterion(a) is patch_stability_by_scan(a) is True, a.label


def test_a_patch_space_that_is_not_discrete_is_caught(monkeypatch):
    """With the hull space standing in for the patch space the per-set scan
    still agrees, since hull-closed sets are stable; the criterion reads the
    patch space's point closures and refuses, in the library and the CLI."""
    a = catalog.get("A6")
    real = top.spec_space

    def hull_for_patch(alg, kind):
        return real(alg, "hull" if kind == "patch" else kind)

    monkeypatch.setattr(top, "spec_space", hull_for_patch)
    assert patch_stability_by_scan(a) is True
    with pytest.raises(EquivalenceViolation, match="patch topology is not discrete"):
        laws.run_laws(a)
    code, out, err = run_cli(["report", "A6"])
    assert code == cli.EX_VIOLATION
    assert out == ""
    assert "patch topology is not discrete" in err


def test_stable_sets_match_the_scan():
    for a in CORPUS:
        points = flt.prime_filters(a)
        assert laws.hull_closed_family_facts(a)
        assert top.closed_sets(top.spec_space(a, "hull")) == stable_sets_by_scan(points), a.label


def test_a_broken_stable_family_raises_quickly(monkeypatch):
    """With every point its own specialization set the stable sets would be
    all 2^63 point sets of Goedel-64; the family stops growing past the 64
    filter hulls and the check raises at once."""
    a = goedel(64)
    monkeypatch.setattr(
        top, "specialization", lambda a: tuple(1 << i for i in range(len(flt.prime_filters(a))))
    )
    t0 = time.perf_counter()
    with pytest.raises(EquivalenceViolation, match="closed-set descriptions"):
        laws.hull_closed_family_facts(a)
    assert time.perf_counter() - t0 < 5.0


def test_retractions_match_the_map_search():
    seen = set()
    for a in CORPUS:
        primes = flt.prime_filters(a)
        maxima = flt.maximal_filters(a)
        mspace = pr.max_subspace(a)
        images = list(retraction_images(top.spec_space(a, "hull"), primes, mspace, maxima))
        assert gf.retractions(a) == (len(images), images[0] if images else None), a.label
        seen.add(len(images))

        hrad_mask = top.hull_in(primes, flt.radical_total(a, 1 << a.one))
        hrad = top.subspace(top.spec_space(a, "hull"), hrad_mask)
        hrad_points = tuple(primes[i] for i in core.bits(hrad_mask))
        found = any(True for _ in retraction_images(hrad, hrad_points, mspace, maxima))
        assert gf.hausdorff_battery(a)["max_retract_of_radical_hull"] is found, a.label
    assert seen == {0, 1}


def test_a_retraction_target_is_checked():
    """The target must be T1, and every prime lies under a maximal filter:
    a target that breaks either is refused, not read as no retraction."""
    a = catalog.get("A6")
    hull, maxima = top.spec_space(a, "hull"), flt.maximal_filters(a)
    primes = flt.prime_filters(a)
    with pytest.raises(EquivalenceViolation, match="not T1") as refused:
        gf._retraction(a, hull, primes, hull, maxima)
    assert refused.value.detail == "A6"
    with pytest.raises(EquivalenceViolation, match="under no maximal") as refused:
        gf._retraction(a, hull, primes, pr.max_subspace(a), maxima[:1])
    assert refused.value.detail == "A6"


# The catalog, every structure with at most six elements and A6xA6.
SMALL = (
    [catalog.get(name) for name in catalog.catalog_names()]
    + [a for n in range(1, 7) for a in modelgen.residuated_structures(n)]
    + [core.direct_product(catalog.get("A6"), catalog.get("A6"))]
)


def test_filter_joins_match_the_generated_filter():
    """join_family of two filters, a fold over the join table, is the filter
    the product route generates from their union."""
    pairs = 0
    for a in SMALL:
        fs = flt.all_filters(a)
        for f in fs:
            for g in fs:
                assert flt.join_family(a, (f, g)) == flt.generated_filter(a, f | g), a.label
        pairs += len(fs) ** 2
    assert pairs == 2822


def test_big_gamma_matches_the_fixpoint():
    baer = 0
    for a in SMALL:
        assert flt.big_gamma(a) == big_gamma_by_fixpoint(a), a.label
        baer += flt.is_baer(a)
    assert (len(SMALL), baer) == (178, 173)


def test_spec_dot_edges_match_the_between_scan():
    for a in SMALL:
        ids = {a.set_repr(p): p for p in flt.prime_filters(a)}
        edges = [
            tuple(ids[x.strip(' "')] for x in line.rstrip(";").split("->"))
            for line in ff.export_dot(a, "spec").splitlines()
            if "->" in line
        ]
        assert edges == spec_edges_by_scan(a), a.label
