"""Cross-module law suites. Each suite raises EquivalenceViolation on any
failure, so a clean return already certifies the algebra; the assertions
below pin the shape of the results."""

import re
import types

import pytest

from reslat import catalog, cli, core, filters as flt, laws, modelgen, pure as pr
from reslat.errors import EquivalenceViolation

from oracles import fresh, join_table_of, run_cli

SUITES = (
    "boolean_center",
    "coannihilator",
    "comaximality",
    "continuity",
    "dpart_meet",
    "filter_lattice",
    "generated_filter",
    "local_quotient",
    "maximality_power",
    "nilpotent_ideal",
    "omega",
    "pure_intersection",
    "purely_prime",
    "quotient_maximals",
    "rho",
    "sigma",
    "sigma_frame",
    "stable_open",
    "topology",
)

CATALOG = (
    "A6", "A8", "chain2", "chain3", "chain4", "chain5", "chain6",
    "cube1", "cube2", "cube3", "MV3",
)


@pytest.mark.parametrize("name", CATALOG)
def test_run_all_passes_and_covers_every_suite(name):
    results = laws.run_laws(catalog.get(name))
    assert tuple(sorted(results)) == SUITES
    for suite, checks in results.items():
        assert checks, suite
        assert all(checks.values()), (suite, checks)


def test_dpart_comaximality_is_one_directional():
    """The filter join of two d-parts being improper forces a join witness in
    the complements, but not conversely: on A8 the primes {f,1} and {c,e,1}
    have c v f = 1 while D({f,1}) veebar D({c,e,1}) is still proper. The
    two-way law holds only for the omega filter of the ideal join."""
    a = catalog.get("A8")
    p = next(q for q in flt.prime_filters(a) if a.set_repr(q) == "{f,1}")
    q = next(r for r in flt.prime_filters(a) if a.set_repr(r) == "{c,e,1}")
    dp, dq = flt.d_part(a, p), flt.d_part(a, q)
    c, f = a.names.index("c"), a.names.index("f")
    assert a.join[c][f] == a.one  # witness exists
    assert flt.join_table(a)[dp][dq] != a.full  # yet the join stays proper
    checks = laws.beta_radical_laws(a)
    assert checks["dpart_comaximal_implies_witness"]
    assert checks["complement_ideal_join_iff_witness"]


def test_boolean_center_meets_radical_trivially():
    for name in CATALOG:
        a = catalog.get(name)
        checks = laws.beta_radical_laws(a)
        assert checks["center_meets_radical_trivially"]


def test_filter_lattice_laws_values():
    checks = laws.filter_lattice_laws(catalog.get("A6"))
    assert checks["distributive"]
    assert checks["empty_join_is_bottom"]
    assert checks["total_join_is_top"]


def test_quotient_maximals_law_runs_every_filter():
    checks = laws.quotient_maximals_law(catalog.get("A8"))
    assert all(checks.values())


def test_coannihilator_laws_cover_the_powerset_for_small_algebras():
    checks = laws.coannihilator_laws(catalog.get("A6"))
    assert checks["always_a_filter"]
    assert checks["subset_of_double"]
    assert checks["triple_equals_single"]
    assert checks["antitone"]


def test_principal_ideals_are_all_the_ideals():
    """omega_monotone_law quantifies over the down-sets of single elements;
    in a finite lattice these are all the non-empty ideals."""
    algebras = [catalog.get(name) for name in CATALOG]
    algebras += [a for n in range(1, 6) for a in modelgen.residuated_structures(n)]
    for a in algebras:
        principal = {core.mask_of(y for y in range(a.n) if a.leq(y, x))
                     for x in range(a.n)}
        brute = {s for s in range(1 << a.n) if flt.is_ideal(a, s)}
        assert principal == brute, a.label


def _ideal_closure_by_scan(a, subset):
    """Reference for laws._ideal_closure: the downward step scans n^2 leq."""
    cur = subset
    while True:
        nxt = cur
        for x in core.bits(cur):
            for y in core.bits(cur):
                nxt |= 1 << a.join[x][y]
        for x in core.bits(nxt):
            for y in range(a.n):
                if a.leq(y, x):
                    nxt |= 1 << y
        if nxt == cur:
            return cur
        cur = nxt


def test_ideal_closure_matches_the_leq_scan():
    algebras = [catalog.get(name) for name in CATALOG]
    algebras += [a for n in range(1, 6) for a in modelgen.residuated_structures(n)]
    for a in algebras:
        assert a.n <= 10
        for s in range(1 << a.n):
            assert laws._ideal_closure(a, s) == _ideal_closure_by_scan(a, s), (a.label, s)


def _break_omega(monkeypatch):
    """Give the law module an omega that is not monotone: everything on the
    bottom ideal, the top alone on any other."""
    def omega(a, ideal):
        return a.full if ideal == 1 << a.zero else 1 << a.one

    broken = types.SimpleNamespace(**{**vars(flt), "omega_filter": omega})
    monkeypatch.setattr(laws, "flt", broken)


def test_omega_law_is_checked_above_ten_elements(monkeypatch):
    a = core.direct_product(catalog.get("A8"), catalog.get("cube1"))
    assert a.n == 16
    assert laws.omega_monotone_law(a) == {"monotone_on_ideals": True}
    _break_omega(monkeypatch)
    with pytest.raises(EquivalenceViolation) as exc:
        laws.omega_monotone_law(a)
    assert exc.value.detail == (a.label, ("monotone_on_ideals",))


def test_a_failing_law_is_named_and_exits_2(monkeypatch):
    _break_omega(monkeypatch)
    with pytest.raises(EquivalenceViolation, match="omega laws fail") as exc:
        laws.run_laws(catalog.get("A8"))
    assert exc.value.detail == ("A8", ("monotone_on_ideals",))
    code, _, err = run_cli(["report", "A8"])
    assert code == cli.EX_VIOLATION
    assert "detail: ('A8', ('monotone_on_ideals',))" in err


# Law leaves knocked out, keyed "suite.leaf": the module whose input is
# replaced, the input ("flt.<name>" in the module's own filters namespace,
# otherwise the module's attribute), its replacement, the suite and its tag.
LEAF_KNOCKOUTS = {
    "generated_filter.join_is_power_cone": (
        laws, "flt.join_table", join_table_of(lambda a, f, g: f & g),
        laws.generated_filter_laws, "generated filter",
    ),
    "filter_lattice.distributive": (
        laws, "flt.join_table", join_table_of(lambda a, f, g: a.full),
        laws.filter_lattice_laws, "filter lattice",
    ),
    "boolean_center.dpart_comaximal_implies_witness": (
        laws, "flt.join_table", join_table_of(lambda a, f, g: a.full),
        laws.beta_radical_laws, "boolean center",
    ),
    "quotient_maximals.maximals_project": (
        laws, "flt.maximals_over", lambda a, subset: (),
        laws.quotient_maximals_law, "quotient maximals",
    ),
    "local_quotient.dpart_quotient_local_iff": (
        laws, "flt.power_negations_join_outside",
        lambda a, m: not flt.power_negations_join_outside(a, m),
        laws.local_quotient_law, "local quotient",
    ),
    "coannihilator.always_a_filter": (
        laws, "flt.coannihilator", lambda a, subset: 0,
        laws.coannihilator_laws, "coannihilator",
    ),
    "coannihilator.subset_of_double": (
        laws, "flt.coannihilator", lambda a, subset: 1 << a.one,
        laws.coannihilator_laws, "coannihilator",
    ),
    "coannihilator.triple_equals_single": (
        laws, "flt.coannihilator",
        lambda a, subset: a.full if subset == 0 else 1 << a.one,
        laws.coannihilator_laws, "coannihilator",
    ),
    "coannihilator.antitone": (
        laws, "flt.coannihilator", flt.generated_filter,
        laws.coannihilator_laws, "coannihilator",
    ),
    "pure_intersection.pure_is_meet_of_d_parts": (
        laws, "flt.d_part", lambda a, prime: a.full,
        laws.pure_intersection_law, "pure intersection",
    ),
    "purely_prime.pure_is_meet_of_purely_primes_above": (
        pr, "purely_prime", lambda a: (),
        laws.purely_prime_laws, "purely prime",
    ),
    "rho.pure_is_meet_of_maximal_parts": (
        laws, "flt.maximals_over", lambda a, subset: (),
        laws.rho_laws, "rho",
    ),
}


@pytest.mark.parametrize("leaf", sorted(LEAF_KNOCKOUTS))
def test_a_knocked_out_law_leaf_is_named(monkeypatch, leaf):
    """On a fresh A8, the suite raises its own message and names the leaf
    among its failing laws."""
    module, target, replacement, suite, tag = LEAF_KNOCKOUTS[leaf]
    a = fresh(catalog.get("A8"))
    if target.startswith("flt."):
        broken = {**vars(module.flt), target[len("flt."):]: replacement}
        monkeypatch.setattr(module, "flt", types.SimpleNamespace(**broken))
    else:
        monkeypatch.setattr(module, target, replacement)
    with pytest.raises(EquivalenceViolation, match=f"^{re.escape(tag)} laws fail$") as exc:
        suite(a)
    label, failing = exc.value.detail
    assert label == "A8" and leaf.split(".")[1] in failing
