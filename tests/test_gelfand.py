"""The Gelfand criteria engine: fourteen independently computed
characterizations that must agree, plus the soft/Hausdorff batteries."""

import copy
import sys
from collections import Counter

import pytest

from reslat import catalog, core, filters as flt, gelfand as gf, modelgen, report
from reslat import topology as top
from reslat.errors import EquivalenceViolation

from oracles import fresh, join_table_of

CRITERIA = (
    "unique_maximal",
    "contessa",
    "maximal_battery",
    "normal_filter_lattice",
    "spectral_separation",
    "max_retract",
    "spectrum_normal",
    "comaximal_classes",
    "dpart_classes",
    "topologies_match_on_max",
    "pure_spectrum_homeo",
    "sigma_battery",
    "rho_battery",
    "rho_rad_adjoint",
)

BATTERY_KEYS = (
    "separating_join",
    "dpart_comaximal",
    "dpart_negation_witness",
    "dpart_prime_inclusion",
    "dpart_proper_inclusion",
    "comaximal_transfer",
    "dpart_unique_maximal",
    "generalization_is_hull",
    "dpart_quotient_local",
    "power_negation_join",
)

# name -> (gelfand, soft, local, semisimple, rickart, baer)
CLASSIFICATION = {
    "A6": (False, False, False, False, True, True),
    "A8": (True, False, True, False, False, False),
    "chain2": (True, True, True, True, True, True),
    "chain3": (True, False, True, False, True, True),
    "chain4": (True, False, True, False, True, True),
    "chain5": (True, False, True, False, True, True),
    "chain6": (True, False, True, False, True, True),
    "cube1": (True, True, True, True, True, True),
    "cube2": (True, True, False, True, True, True),
    "cube3": (True, True, False, True, True, True),
    "MV3": (True, True, True, True, True, True),
}


def test_a6_fails_every_criterion():
    v = gf.gelfand_verdict(catalog.get("A6"))
    assert v.verdict is False
    assert set(v.criteria) == set(CRITERIA)
    assert set(v.criteria.values()) == {False}


def test_a6_witnesses():
    v = gf.gelfand_verdict(catalog.get("A6"))
    assert v.witnesses["unique_maximal"] == (
        "prime {1} lies under {c,d,1} and {a,b,d,1}"
    )
    assert v.witnesses["contessa"] == (
        "a*c = 0 but no powers have negations joining to 1"
    )


def test_a8_satisfies_every_criterion():
    v = gf.gelfand_verdict(catalog.get("A8"))
    assert v.verdict is True
    assert set(v.criteria.values()) == {True}
    assert v.witnesses == {}


@pytest.mark.parametrize("name", sorted(CLASSIFICATION))
def test_verdicts_are_unanimous_across_the_catalog(name):
    v = gf.gelfand_verdict(catalog.get(name))
    assert set(v.criteria) == set(CRITERIA)
    assert set(v.criteria.values()) == {v.verdict}


def test_unique_maximal_over_primes():
    ok6, wit6 = gf.unique_maximal_over_primes(catalog.get("A6"))
    ok8, wit8 = gf.unique_maximal_over_primes(catalog.get("A8"))
    assert not ok6 and wit6
    assert ok8 and wit8 is None


def test_contessa_check():
    ok6, pair6 = gf.contessa_check(catalog.get("A6"))
    ok8, pair8 = gf.contessa_check(catalog.get("A8"))
    assert not ok6 and pair6 is not None
    a6 = catalog.get("A6")
    x, y = pair6
    assert a6.mul[x][y] == a6.zero
    assert ok8 and pair8 is None


def test_maximal_battery_values():
    b6 = gf.maximal_battery(catalog.get("A6"))
    b8 = gf.maximal_battery(catalog.get("A8"))
    assert tuple(b6) == BATTERY_KEYS and set(b6.values()) == {False}
    assert tuple(b8) == BATTERY_KEYS and set(b8.values()) == {True}


def test_normality_and_separation_leaves():
    a6, a8 = catalog.get("A6"), catalog.get("A8")
    assert gf.normal_filter_lattice(a6) == {
        "all_filters": False, "principal_filters": False,
    }
    assert gf.normal_filter_lattice(a8) == {
        "all_filters": True, "principal_filters": True,
    }
    assert gf.spectral_separation(a6) == {
        "maximal_pairs_separated": False, "generalizations_closed": False,
    }
    assert gf.spectral_separation(a8) == {
        "maximal_pairs_separated": True, "generalizations_closed": True,
    }


def _normal_by_search(a, family):
    """Reference for gf._normal_over: search every (u, v) for each comaximal
    pair (f, g), up to F^4 filter joins. Each join is the filter generated by
    the union, so nothing is read from the join table."""
    one = 1 << a.one
    join = {(f, g): flt.generated_filter(a, f | g) for f in family for g in family}
    for f in family:
        for g in family:
            if join[f, g] != a.full:
                continue
            if not any(
                join[u, f] == a.full
                and join[v, g] == a.full
                and u & v == one
                for u in family
                for v in family
            ):
                return False
    return True


def test_normal_over_matches_the_quadruple_search():
    algebras = [catalog.get(name) for name in catalog.catalog_names()]
    algebras += [a for n in range(1, 6) for a in modelgen.residuated_structures(n)]
    algebras.append(core.direct_product(catalog.get("A6"), catalog.get("cube2")))
    chain3 = catalog.get("chain3")
    algebras.append(core.direct_product(core.direct_product(chain3, chain3), chain3))
    seen = set()
    for a in algebras:
        got = gf.normal_filter_lattice(a)
        assert got == {
            "all_filters": _normal_by_search(a, flt.all_filters(a)),
            "principal_filters": _normal_by_search(
                a, flt.canonical_sort(flt.principal_filters(a))
            ),
        }, a.label
        seen.update(got.values())
    assert seen == {True, False}


def test_idempotent_cones_are_the_principal_filters():
    """The two families normal_filter_lattice votes over, the up-sets of the
    idempotents and the principal filters of all elements, are the same
    filters, on the catalog, every structure with at most six elements and
    A6 x A6."""
    algebras = [catalog.get(name) for name in catalog.catalog_names()]
    algebras += [a for n in range(1, 7) for a in modelgen.residuated_structures(n)]
    algebras.append(core.direct_product(catalog.get("A6"), catalog.get("A6")))
    assert len(algebras) == 178
    for a in algebras:
        idempotents = core.classify_elements(a).idempotents
        cones = flt.canonical_sort(a.up[e] for e in core.bits(idempotents))
        principal = flt.canonical_sort(flt.principal_filters(a))
        assert cones == principal == flt.all_filters(a), a.label


def test_retractions():
    assert gf.retractions(catalog.get("A6")) == (0, None)
    assert gf.retractions(catalog.get("A8")) == (1, (0, 0, 0))
    assert gf.retractions(catalog.get("cube2")) == (1, (0, 1))


def test_a_report_runs_each_battery_once():
    """The report's soft routes, retraction count and clopen count read the
    batteries that its classification, verdict and law suites ran."""
    batteries = (gf.is_soft, gf.retractions, top.clopen_check)
    codes = {f.__wrapped__.__code__: f.__name__ for f in batteries}
    runs = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            runs[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        report.build_report(fresh(catalog.get("A8")))
    finally:
        sys.setprofile(previous)
    assert runs == {name: 1 for name in codes.values()}


def _deface(node):
    """Overwrite every leaf below node and add a key to every dict."""
    keys = list(node) if isinstance(node, dict) else range(len(node))
    for key in keys:
        if isinstance(node[key], (dict, list)):
            _deface(node[key])
        else:
            node[key] = "X"
    if isinstance(node, dict):
        node["added"] = "X"


@pytest.mark.parametrize("name", ("A6", "A8", "cube2", "A6xcube2"))
def test_an_edited_report_changes_no_later_answer(name):
    """A report is its caller's: defacing all of it leaves the memoized
    verdict, the soft routes and the next report's bytes as they were."""
    if name == "A6xcube2":
        a = core.direct_product(catalog.get("A6"), catalog.get("cube2"))
    else:
        a = fresh(catalog.get(name))
    rep = report.build_report(a)
    text = report.render_json(rep)
    verdict, soft = copy.deepcopy(gf.gelfand_verdict(a)), copy.deepcopy(gf.is_soft(a))
    _deface(rep)
    assert rep["gelfand"]["details"] and rep["gelfand"]["criteria"]["added"] == "X"
    assert gf.gelfand_verdict(a) == verdict
    assert gf.is_soft(a) == soft
    assert report.render_json(report.build_report(a)) == text


def test_relation_closures_merge_inseparable_primes():
    a6, a8 = catalog.get("A6"), catalog.get("A8")
    for kind in ("comaximal", "dpart"):
        assert gf.relation_closure(a6, kind) == (0b111,)
        assert gf.relation_closure(a8, kind) == (0b111,)
    assert not gf.relation_class_condition(a6, "comaximal")
    assert gf.relation_class_condition(a8, "comaximal")
    assert not gf.quotient_space_homeo(a6, "dpart")
    assert gf.quotient_space_homeo(a8, "dpart")


@pytest.mark.parametrize("name", ("chain2", "A6"))
def test_relation_closure_rejects_an_unknown_kind(name):
    """The kind is checked before any pair of primes is compared, so it is
    refused also with a single prime."""
    with pytest.raises(ValueError, match="unknown relation kind 'bogus'"):
        gf.relation_closure(catalog.get(name), "bogus")


@pytest.mark.parametrize("name", sorted(CLASSIFICATION))
def test_hausdorff_battery_is_unanimous(name):
    battery = gf.hausdorff_battery(catalog.get(name))
    assert set(battery) == {
        "max_hausdorff", "radical_hull_unique_maximal",
        "max_retract_of_radical_hull", "radical_hull_normal",
        "generalizations_closed_in_radical_hull", "negation_joins_in_radical",
    }
    assert len(set(battery.values())) == 1


def test_hausdorff_battery_holds_on_both_flagships():
    """A6 fails Gelfand yet its maximal spectrum is still Hausdorff."""
    assert set(gf.hausdorff_battery(catalog.get("A6")).values()) == {True}
    assert set(gf.hausdorff_battery(catalog.get("A8")).values()) == {True}


@pytest.mark.parametrize("name", sorted(CLASSIFICATION))
def test_softness_routes_agree(name):
    soft, routes = gf.is_soft(catalog.get(name))
    assert set(routes) == {
        "semisimple_with_unique_maximals_over_radical",
        "max_hausdorff_and_dense",
        "gelfand_and_trivial_radical",
    }
    assert set(routes.values()) == {soft}
    assert soft is CLASSIFICATION[name][1]


@pytest.mark.parametrize("name", sorted(CLASSIFICATION))
def test_classification_flags(name):
    flags = gf.classification(catalog.get(name))
    assert (
        flags["gelfand"], flags["soft"], flags["local"],
        flags["semisimple"], flags["rickart"], flags["baer"],
    ) == CLASSIFICATION[name]


def test_forced_disagreement_raises(monkeypatch):
    """Sabotage one route; the engine must refuse to pick a side."""
    monkeypatch.setattr(gf, "contessa_check", lambda a: (False, (0, 0)))
    with pytest.raises(EquivalenceViolation, match="criteria disagree"):
        gf.gelfand_verdict(fresh(catalog.get("A8")))


PART_KEYS = (
    "max_inclusion_reflects",
    "same_maximals",
    "same_radical",
    "preserves_comaximal",
    "join_homomorphism",
)

# Every function whose result gelfand_verdict records, as (module, attribute,
# the kind argument it is flipped for or None, criterion, leaves): a battery
# is flipped one leaf at a time; a function voting through a two-leaf class
# pair names its leaf; a single criterion has the leaf None.
VOTERS = (
    (gf, "unique_maximal_over_primes", None, "unique_maximal", (None,)),
    (gf, "contessa_check", None, "contessa", (None,)),
    (gf, "maximal_battery", None, "maximal_battery", BATTERY_KEYS),
    (gf, "normal_filter_lattice", None, "normal_filter_lattice",
     ("all_filters", "principal_filters")),
    (gf, "spectral_separation", None, "spectral_separation",
     ("maximal_pairs_separated", "generalizations_closed")),
    (gf, "retractions", None, "max_retract", (None,)),
    (gf.top, "is_normal", None, "spectrum_normal", (None,)),
    (gf, "relation_class_condition", "comaximal", "comaximal_classes",
     ("classes_match_generalizations",)),
    (gf, "quotient_space_homeo", "comaximal", "comaximal_classes",
     ("quotient_homeomorphic_to_max",)),
    (gf, "relation_class_condition", "dpart", "dpart_classes",
     ("classes_match_generalizations",)),
    (gf, "quotient_space_homeo", "dpart", "dpart_classes",
     ("quotient_homeomorphic_to_max",)),
    (gf.pr, "d_topology_coincidence", None, "topologies_match_on_max", (None,)),
    (gf.pr, "spp_max_homeo", None, "pure_spectrum_homeo", (None,)),
    (gf.pr, "sigma_battery", None, "sigma_battery", PART_KEYS),
    (gf.pr, "rho_battery", None, "rho_battery",
     PART_KEYS + ("maximal_parts_comaximal",)),
    (gf.pr, "rho_rad_adjunction", None, "rho_rad_adjoint", (None,)),
)


def _flipped(real, kind, battery_leaf):
    """real with its vote flipped (only for calls with the given kind): one
    leaf of a battery, the count of a retraction search, the value of a
    (value, witness) pair, or a bool."""

    def wrapper(a, *args):
        out = real(a, *args)
        if kind is not None and args != (kind,):
            return out
        if battery_leaf is not None:
            out = dict(out)
            out[battery_leaf] = not out[battery_leaf]
            return out
        if real is gf.retractions:
            return (0, None) if out[0] else (1, None)
        if isinstance(out, tuple):
            return (not out[0], out[1])
        return not out

    return wrapper


KNOCKOUTS = [
    pytest.param(
        module, attr, kind, criterion, leaf,
        id=f"{attr}[{kind}]" if kind else f"{attr}:{leaf}" if leaf else attr,
    )
    for module, attr, kind, criterion, leaves in VOTERS
    for leaf in leaves
]


def test_knockouts_cover_every_criterion():
    assert {p.values[3] for p in KNOCKOUTS} == set(CRITERIA)


@pytest.mark.parametrize("name", ("A8", "A6"))
@pytest.mark.parametrize("module, attr, kind, criterion, leaf", KNOCKOUTS)
def test_each_criterion_feeds_the_vote(
    monkeypatch, name, module, attr, kind, criterion, leaf
):
    """Flip one voter (or one battery leaf); the verdict must refuse, and its
    detail must show exactly that leaf disagreeing with every other. On A6
    a battery leaf flipped to true is visible only in the leaves, since
    all() of the battery stays false."""
    a = catalog.get(name)
    verdict = gf.gelfand_verdict(a).verdict
    battery_leaf = leaf if kind is None else None
    monkeypatch.setattr(
        module, attr, _flipped(getattr(module, attr), kind, battery_leaf)
    )
    with pytest.raises(EquivalenceViolation, match="Gelfand criteria disagree") as exc:
        gf.gelfand_verdict(fresh(a))
    _, leaves = exc.value.detail
    assert tuple(dict.fromkeys(key.split(".")[0] for key in leaves)) == CRITERIA
    dissent = [key for key, value in leaves.items() if value is not verdict]
    assert dissent == [criterion if leaf is None else f"{criterion}.{leaf}"]


def _relation_classes(a):
    return {kind: gf.relation_class_condition(a, kind) for kind in ("comaximal", "dpart")}


_meets = join_table_of(lambda a, f, g: f & g)


# Inputs that the batteries read once per battery (the filter joins through
# flt.join_table, the d-parts, sigma), replaced on a fresh algebra: the
# algebra, the module and name replaced, the replacement, the battery, and
# the leaves that must then change.
HOISTED_READS = {
    "join_table/maximal_battery": (
        "cube2", flt, "join_table", _meets, gf.maximal_battery, ["dpart_comaximal"],
    ),
    "join_table/normal_filter_lattice": (
        "cube2", flt, "join_table", _meets, gf.normal_filter_lattice,
        ["all_filters", "principal_filters"],
    ),
    "join_table/relation_classes": (
        "cube2", flt, "join_table", _meets, _relation_classes, ["comaximal", "dpart"],
    ),
    "d_part/maximal_battery": (
        "A8", flt, "d_part", lambda a, prime: a.full, gf.maximal_battery,
        ["dpart_unique_maximal", "generalization_is_hull", "dpart_quotient_local"],
    ),
    "d_part/relation_classes": (
        "A8", flt, "d_part", lambda a, prime: a.full, _relation_classes, ["dpart"],
    ),
    "sigma/sigma_battery": (
        "A8", gf.pr, "sigma", lambda a, f: a.full, gf.pr.sigma_battery,
        ["same_maximals", "same_radical", "join_homomorphism"],
    ),
}


@pytest.mark.parametrize("case", sorted(HOISTED_READS))
def test_a_replaced_input_reaches_the_reads_a_battery_hoists(monkeypatch, case):
    """A battery looks each input up through its module when it runs, so on
    a fresh algebra the replacement moves exactly the leaves that read it."""
    name, module, attr, replacement, battery, moved = HOISTED_READS[case]
    before = battery(fresh(catalog.get(name)))
    monkeypatch.setattr(module, attr, replacement)
    after = battery(fresh(catalog.get(name)))
    assert list(after) == list(before)
    assert [leaf for leaf in before if after[leaf] != before[leaf]] == moved
