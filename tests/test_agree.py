"""The shared agreement check: `agree` and `hold` themselves, and single
routes knocked out at the sites that compare routes through `agree`."""

import re

import pytest

from reslat import catalog, core, filters as flt, gelfand as gf, laws, pure as pr
from reslat import topology as top
from reslat.errors import EquivalenceViolation, agree, hold

from oracles import fresh, join_table_of


class Unprintable:
    """An algebra stand-in whose subsets cannot be formatted."""

    label = "U"

    def set_repr(self, mask):
        raise AssertionError("formatted a subset while the routes agree")


def test_agree_returns_the_common_value_and_formats_nothing():
    routes = {"left": 6, "middle": 6, "right": 6}
    assert agree(Unprintable(), "unused", routes, 1, 2) == 6
    assert agree(Unprintable(), "unused", {"only": False}) is False


def test_agree_names_the_subsets_and_every_route():
    a = catalog.get("A6")
    routes = {"left": 1, "right": 2}
    with pytest.raises(EquivalenceViolation, match="^sides differ$") as exc:
        agree(a, "sides differ", routes, 1 << a.one, a.full)
    assert exc.value.detail == ("A6", "{1}", "{0,a,b,c,d,1}", routes)


def test_hold_names_the_failing_laws():
    a = catalog.get("A6")
    laws = {"first": True, "second": False, "third": False}
    assert hold(a, "demo", {"first": True}) == {"first": True}
    with pytest.raises(EquivalenceViolation, match="^demo laws fail$") as exc:
        hold(a, "demo", laws)
    assert exc.value.detail == ("A6", ("second", "third"))


def _negated(real):
    return lambda *args: not real(*args)


# Routes of the agree sites knocked out, keyed "site.route": the algebra, the
# module (or class) and name of a function only that route calls, its
# replacement given the real one, the call of the site, the site's message
# and the route.
KNOCKOUTS = {
    "comaximality.join": (
        "A6", flt, "join_table", lambda real: join_table_of(lambda a, f, g: 1 << a.one),
        lambda a: flt.is_comaximal(a, *flt.maximal_filters(a)),
        "comaximality routes disagree", "join",
    ),
    "comaximality.zero_product": (
        "A6", flt, "zero_divisors", lambda real: lambda a: (0,) * a.n,
        lambda a: flt.is_comaximal(a, *flt.maximal_filters(a)),
        "comaximality routes disagree", "zero_product",
    ),
    # the co-join rows are read by complements_join_to_one alone, which the
    # separating-join leaf of the maximal battery reads
    "gelfand.maximal_battery.separating_join": (
        "cube2", flt, "co_join_rows", lambda real: lambda a: (0,) * a.n,
        gf.gelfand_verdict, "Gelfand criteria disagree", "maximal_battery.separating_join",
    ),
    "comaximality.negation": (
        "A6", core.ResiduatedLattice, "neg", lambda real: lambda a, x: a.zero,
        lambda a: flt.is_comaximal(a, *flt.maximal_filters(a)),
        "comaximality routes disagree", "negation",
    ),
    "coannihilator.joins": (
        "A8", flt, "join_to_one", lambda real: lambda a: (0,) * a.n,
        lambda a: flt.coannihilator(a, 1 << a.names.index("c")),
        "coannihilator routes disagree", "joins",
    ),
    "coannihilator.primes": (
        "A8", flt, "prime_filters", lambda real: lambda a: (),
        lambda a: flt.coannihilator(a, 1 << a.names.index("c")),
        "coannihilator routes disagree", "primes",
    ),
    "d_part.omega": (
        "A8", flt, "omega_filter", lambda real: lambda a, ideal: a.full,
        lambda a: flt.d_part(a, flt.maximal_filters(a)[0]),
        "d_part routes disagree", "omega",
    ),
    "sigma.kernel": (
        "A8", top, "kernel_of", lambda real: lambda a, points, mask: 0,
        lambda a: pr.sigma(a, flt.maximal_filters(a)[0]),
        "sigma routes disagree", "kernel",
    ),
    "sigma.joins": (
        "A8", flt, "element_coannihilators", lambda real: lambda a: (a.full,) * a.n,
        lambda a: pr.sigma(a, flt.maximal_filters(a)[0]),
        "sigma routes disagree", "joins",
    ),
    "sigma.join_table": (
        "A8", flt, "join_table", lambda real: join_table_of(lambda a, f, g: f & g),
        lambda a: pr.sigma(a, flt.maximal_filters(a)[0]),
        "sigma routes disagree", "joins",
    ),
    "generator.product": (
        "A6", flt, "generated_filter", lambda real: lambda a, subset: a.full,
        flt.filter_generators,
        "principal generator does not regenerate its filter", "product",
    ),
    "softness.definition": (
        "cube2", flt, "is_semisimple", _negated, gf.is_soft,
        "softness routes disagree", "semisimple_with_unique_maximals_over_radical",
    ),
    "softness.gelfand": (
        "cube2", gf, "gelfand_verdict",
        lambda real: lambda a: real(a)._replace(verdict=False),
        gf.is_soft, "softness routes disagree", "gelfand_and_trivial_radical",
    ),
    "hausdorff.normal": (
        "A8", top, "is_normal", _negated, gf.hausdorff_battery,
        "Hausdorff battery disagrees", "radical_hull_normal",
    ),
    "hausdorff.max": (
        "A8", top, "is_hausdorff", _negated, gf.hausdorff_battery,
        "Hausdorff battery disagrees", "max_hausdorff",
    ),
    "density.semisimple": (
        "A6", flt, "is_semisimple", _negated, laws.max_dense_iff_semisimple,
        "density of maximals disagrees with semisimplicity", "semisimple",
    ),
    "density.max_dense": (
        "cube2", flt, "max_mask", lambda real: lambda a: 0,
        laws.max_dense_iff_semisimple,
        "density of maximals disagrees with semisimplicity", "max_dense",
    ),
    "closure_lemmas.hull_of_kernel": (
        "A8", top, "kernel_of", lambda real: lambda a, points, mask: a.full,
        laws.closure_lemmas, "closure lemmas fail", "hull_of_kernel",
    ),
    "closure_lemmas.specialization": (
        "A8", top, "specialization_mask", lambda real: lambda points, mask: 0,
        laws.closure_lemmas, "closure lemmas fail", "specialization",
    ),
    "closure_lemmas.generalization": (
        "A8", top, "generalization_mask", lambda real: lambda points, mask: 0,
        laws.closure_lemmas, "closure lemmas fail", "generalization",
    ),
    "clopen.clopen": (
        "A8", top, "spec_space", lambda real: lambda a, kind: real(a, "patch"),
        top.clopen_check, "clopen sets differ from Boolean-center hulls", "clopen",
    ),
    "clopen.beta_hulls": (
        "cube2", top, "classify_elements",
        lambda real: lambda a: real(a)._replace(boolean_center=1 << a.one),
        top.clopen_check, "clopen sets differ from Boolean-center hulls", "beta_hulls",
    ),
    "local.zero_products_have_nilpotent_factor": (
        "A6", flt, "classify_elements", lambda real: lambda a: real(a)._replace(nilpotents=0),
        flt.local_battery, "local characterizations disagree",
        "zero_products_have_nilpotent_factor",
    ),
    "closed_sets.stable": (
        "A6", top, "specialization_mask", lambda real: lambda points, mask: 0,
        laws.hull_closed_family_facts,
        "closed-set descriptions of the spectrum disagree", "stable",
    ),
    # Without the improper filter the filter hulls miss the empty set, and
    # the bound of the stable walk drops by one; the walk reaches that bound
    # only once it holds every closed set, so its route still agrees.
    "closed_sets.filter_hulls": (
        "A6", flt, "all_filters",
        lambda real: lambda a: tuple(f for f in real(a) if f != a.full),
        laws.hull_closed_family_facts,
        "closed-set descriptions of the spectrum disagree", "filter_hulls",
    ),
    "retraction.retraction": (
        "cube2", gf, "retractions",
        lambda real: lambda a: (lambda count, image: (count, (0,) * len(image)))(*real(a)),
        gf.gelfand_verdict, "unique retraction is not the unique-maximal map", "retraction",
    ),
}


@pytest.mark.parametrize("site", sorted(KNOCKOUTS))
def test_a_knocked_out_route_is_named(monkeypatch, site):
    """On a fresh algebra, the site raises its own message, and the last item
    of the detail is the route dict, in which the knocked-out route alone
    differs from the others."""
    name, module, attr, replace, call, message, route = KNOCKOUTS[site]
    a = fresh(catalog.get(name))
    monkeypatch.setattr(module, attr, replace(getattr(module, attr)))
    with pytest.raises(EquivalenceViolation, match=f"^{re.escape(message)}$") as exc:
        call(a)
    routes = exc.value.detail[-1]
    assert exc.value.detail[0] == name and route in routes
    others = [value for key, value in routes.items() if key != route]
    assert all(value == others[0] for value in others)
    assert routes[route] != others[0]
