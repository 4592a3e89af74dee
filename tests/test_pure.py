"""Pure filters, sigma and rho operators, the pure spectrum, and their law
suites."""

import contextlib
import io
import types

import pytest

from reslat import catalog, cli, filters as flt, pure as pr, topology as top
from reslat.errors import EquivalenceViolation


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
    space = pr.pure_spectrum_space(a)
    assert set(space.keys) == set(pr.purely_prime(a))
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
    for suite in (pr.sigma_laws, pr.sigma_frame_laws, pr.pure_intersection_law,
                  pr.rho_laws, pr.purely_prime_laws, pr.continuity_law,
                  pr.stable_open_law):
        result = suite(a)
        assert result and all(result.values()), (suite.__name__, result)


@pytest.mark.parametrize("name", ("A8", "chain3", "cube2", "cube3", "MV3"))
def test_gelfand_pure_laws_on_gelfand_algebras(name):
    result = pr.gelfand_pure_laws(catalog.get(name))
    assert result and all(result.values())


def test_a_failing_law_is_named_and_exits_2(monkeypatch):
    """With no open stable under specialization but the empty one, the
    stable-open law fails, and the failure names the law."""
    stable_nowhere = {**vars(top), "specialization_mask": lambda points, mask: 0}
    monkeypatch.setattr(pr, "top", types.SimpleNamespace(**stable_nowhere))
    with pytest.raises(EquivalenceViolation, match="stable open laws fail") as exc:
        pr.stable_open_law(catalog.get("A8"))
    assert exc.value.detail == ("A8", ("stable_opens_are_pure_duals",))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["report", "A8"])
    assert code == cli.EX_VIOLATION
    assert "detail: ('A8', ('stable_opens_are_pure_duals',))" in err.getvalue()
