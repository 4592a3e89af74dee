"""Pure filters, sigma and rho operators, the pure spectrum, and their law
suites."""

import types

import pytest

from reslat import catalog, cli, core, fileformat as ff, filters as flt, laws
from reslat import pure as pr, report, topology as top
from reslat.errors import EquivalenceViolation

from oracles import join_table_of, run_cli


def reprs(a, masks):
    return [a.set_repr(m) for m in masks]


def test_pure_filters_of_the_flagships():
    a6, a8 = catalog.get("A6"), catalog.get("A8")
    assert reprs(a6, pr.pure_filters(a6)) == ["{1}", "{0,a,b,c,d,1}"]
    assert reprs(a8, pr.pure_filters(a8)) == ["{1}", "{0,a,b,c,d,e,f,1}"]
    assert reprs(a6, pr.purely_prime(a6)) == ["{1}"]
    assert reprs(a8, pr.purely_maximal(a8)) == ["{1}"]


def test_every_filter_of_a_cube_is_pure():
    c2 = catalog.get("cube2")
    assert pr.pure_filters(c2) == flt.all_filters(c2)
    assert reprs(c2, pr.purely_prime(c2)) == ["{01,11}", "{10,11}"]
    assert pr.purely_prime(c2) == pr.purely_maximal(c2)


def test_sigma_values():
    a6, a8 = catalog.get("A6"), catalog.get("A8")
    for p in flt.prime_filters(a6):
        assert a6.set_repr(pr.sigma(a6, p)) == "{1}"
    for p in flt.prime_filters(a8):
        assert a8.set_repr(pr.sigma(a8, p)) == "{1}"


def test_sigma_can_sit_strictly_below_the_d_part():
    a = catalog.get("A8")
    p = next(q for q in flt.prime_filters(a) if a.set_repr(q) == "{c,e,1}")
    sig, d = pr.sigma(a, p), flt.d_part(a, p)
    assert a.set_repr(sig) == "{1}"
    assert a.set_repr(d) == "{c,e,1}"
    assert sig & d == sig and sig != d


def test_rho_is_the_largest_pure_filter_below():
    for name in ("A6", "A8", "cube2", "chain4"):
        a = catalog.get(name)
        pures = set(pr.pure_filters(a))
        for f in flt.all_filters(a):
            r = pr.rho(a, f)
            assert r in pures and r & f == r
            for g in pures:
                if g & f == g:
                    assert g & r == g


def test_rho_values_on_a6():
    a = catalog.get("A6")
    got = {a.set_repr(f): a.set_repr(pr.rho(a, f)) for f in flt.all_filters(a)}
    assert got == {
        "{1}": "{1}", "{d,1}": "{1}", "{c,d,1}": "{1}",
        "{a,b,d,1}": "{1}", "{0,a,b,c,d,1}": "{0,a,b,c,d,1}",
    }


def test_pure_spectrum_versus_maximal_spectrum():
    assert not pr.spp_max_homeo(catalog.get("A6"))
    assert pr.spp_max_homeo(catalog.get("A8"))
    assert pr.spp_max_homeo(catalog.get("cube2"))
    assert pr.spp_max_homeo(catalog.get("cube3"))


def test_pure_spectrum_space_points():
    a = catalog.get("cube2")
    space, spp = pr.pure_spectrum_space(a), pr.purely_prime(a)
    assert len(space) == len(spp)
    pure_hulls = {top.hull_in(spp, f) for f in pr.pure_filters(a)}
    assert top.closed_sets(space) == pure_hulls | {0, (1 << len(spp)) - 1}
    assert top.is_hausdorff(space)


def test_d_topology_coincidence_flags():
    assert not pr.d_topology_coincidence(catalog.get("A6"))
    assert pr.d_topology_coincidence(catalog.get("A8"))


def test_rho_rad_adjunction_flags():
    assert not pr.rho_rad_adjunction(catalog.get("A6"))
    assert pr.rho_rad_adjunction(catalog.get("A8"))


def test_sigma_battery_values():
    a6, a8 = catalog.get("A6"), catalog.get("A8")
    keys = {"max_inclusion_reflects", "same_maximals", "same_radical",
            "preserves_comaximal", "join_homomorphism"}
    b6, b8 = pr.sigma_battery(a6), pr.sigma_battery(a8)
    assert set(b6) == keys and set(b6.values()) == {False}
    assert set(b8) == keys and set(b8.values()) == {True}


def test_rho_battery_values():
    a6, a8 = catalog.get("A6"), catalog.get("A8")
    b6, b8 = pr.rho_battery(a6), pr.rho_battery(a8)
    assert set(b6.values()) == {False}
    assert set(b8.values()) == {True}
    assert "maximal_parts_comaximal" in b8


def test_pure_characterization_family_on_gelfand_algebras():
    """In a Gelfand algebra the pure filters are exactly the intersections of
    the d-parts of the maximals inside a closed set of the spectrum."""
    for name in ("A8", "chain3", "chain6", "cube2", "cube3", "MV3"):
        a = catalog.get(name)
        assert pr.pure_characterization_family(a) == pr.pure_filters(a)


@pytest.mark.parametrize("name", ("A6", "A8", "chain5", "cube3", "MV3"))
def test_pure_law_suites_hold(name):
    a = catalog.get(name)
    for suite in (laws.sigma_laws, laws.sigma_frame_laws, laws.pure_intersection_law,
                  laws.rho_laws, laws.purely_prime_laws, laws.continuity_law,
                  laws.stable_open_law):
        result = suite(a)
        assert result and all(result.values()), (suite.__name__, result)


@pytest.mark.parametrize("name", ("A8", "chain3", "cube2", "cube3", "MV3"))
def test_gelfand_pure_laws_on_gelfand_algebras(name):
    result = pr.gelfand_pure_laws(catalog.get(name))
    assert result and all(result.values())


def test_a_failing_law_is_named_and_exits_2(monkeypatch):
    """With no open stable under specialization but the empty one, the
    stable-open law fails, and the failure names the law."""
    stable_nowhere = {**vars(top), "specialization": lambda a: (0,) * len(top.specialization(a))}
    monkeypatch.setattr(laws, "top", types.SimpleNamespace(**stable_nowhere))
    with pytest.raises(EquivalenceViolation, match="stable open laws fail") as exc:
        laws.stable_open_law(catalog.get("A8"))
    assert exc.value.detail == ("A8", ("stable_opens_are_pure_duals",))
    code, _, err = run_cli(["report", "A8"])
    assert code == cli.EX_VIOLATION
    assert "detail: ('A8', ('stable_opens_are_pure_duals',))" in err


def _break_join(monkeypatch, f0, g0):
    """Give the law suites a join table whose cell at the one ordered pair
    (f0, g0) holds f0."""
    real = flt.join_table

    def cell(a, f, g):
        return f if (f, g) == (f0, g0) else real(a)[f][g]

    broken = {**vars(flt), "join_table": join_table_of(cell)}
    monkeypatch.setattr(laws, "flt", types.SimpleNamespace(**broken))


def test_sigma_join_law_is_checked_past_twelve_filters(monkeypatch, tmp_path):
    """A join that is wrong only on a pair of filters outside the first 12
    breaks the sigma join inequality, and the report says so. The join is
    broken while the sigma suite runs, since the suites before it read the
    same filters namespace and would name the broken join first."""
    a = core.direct_product(catalog.get("A6"), catalog.get("cube2"))
    fs = flt.all_filters(a)
    assert len(fs) == 20
    sigma_laws = laws.sigma_laws

    def sigma_laws_with_broken_join(alg):
        with monkeypatch.context() as inner:
            _break_join(inner, fs[12], fs[13])
            return sigma_laws(alg)

    monkeypatch.setattr(laws, "sigma_laws", sigma_laws_with_broken_join)
    with pytest.raises(EquivalenceViolation, match="sigma laws fail") as exc:
        laws.sigma_laws(a)
    assert exc.value.detail == (a.label, ("family_join_inequality",))
    path = tmp_path / "A6xcube2.json"
    path.write_text(ff.to_json(a))
    code, _, err = run_cli(["report", str(path)])
    assert code == cli.EX_VIOLATION
    assert "detail: ('A6xcube2', ('family_join_inequality',))" in err


def test_frame_law_is_checked_past_twelve_pure_filters(monkeypatch):
    a = core.direct_product(catalog.get("cube3"), catalog.get("chain4"))
    pure = pr.pure_filters(a)
    assert len(pure) == 16
    _break_join(monkeypatch, pure[12], pure[13])
    with pytest.raises(EquivalenceViolation, match="sigma frame laws fail") as exc:
        laws.sigma_frame_laws(a)
    assert exc.value.detail == (a.label, ("frame_distributivity",))


def test_sigma_and_rho_are_computed_once_per_filter(monkeypatch):
    """sigma runs its kernel route, and rho its family join, once for each
    filter of the algebra in a whole report."""
    a = core.direct_product(catalog.get("A8"), catalog.get("chain3"))
    calls = {"kernel_of": 0, "join_family": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return types.SimpleNamespace(**{**vars(module), name: wrapper})

    monkeypatch.setattr(pr, "top", counting(top, "kernel_of"))
    monkeypatch.setattr(pr, "flt", counting(flt, "join_family"))
    report.build_report(a)
    n = len(flt.all_filters(a))
    assert calls == {"kernel_of": n, "join_family": n}


def test_rho_battery_reads_rho_and_sigma_battery_does_not(monkeypatch):
    """The five shared conditions are quantified over the operator each
    battery passes in: perturbing rho alone moves only the rho battery."""
    before_sigma = pr.sigma_battery(catalog.get("A8"))
    before_rho = pr.rho_battery(catalog.get("A8"))
    a = ff.parse(ff.serialize(catalog.get("A8")))
    monkeypatch.setattr(pr, "rho", lambda a, f: a.full)
    assert pr.sigma_battery(a) == before_sigma
    after_rho = pr.rho_battery(a)
    assert list(after_rho) == list(before_rho)
    assert after_rho != before_rho
