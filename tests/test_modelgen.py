"""Exhaustive enumeration up to isomorphism, cross-checked against naive
brute-force routes, plus the classification sweep."""

import pytest

from reslat import catalog, cli, core, fileformat as ff, gelfand as gf, modelgen as mg
from reslat.errors import CarrierTooLarge, EquivalenceViolation, NotResiduated

from oracles import (
    find_isomorphism,
    is_isomorphic,
    lattice_automorphisms,
    lattices_by_full_tuples,
    lattices_by_full_walk,
    naive_lattices,
    naive_structures,
    run_cli,
    structures_by_complete_check,
)

LATTICE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}
STRUCTURE_COUNTS = {1: 1, 2: 1, 3: 2, 4: 7, 5: 26, 6: 129}
CHAIN_STRUCTURE_COUNTS = {2: 1, 3: 2, 4: 6, 5: 22, 6: 94}

# size -> (gelfand, soft, local, semisimple, rickart, baer, prelinear)
SWEEP = {
    1: (1, 1, 0, 1, 1, 1, 1),
    2: (1, 1, 1, 1, 1, 1, 1),
    3: (2, 1, 2, 1, 2, 2, 2),
    4: (7, 3, 6, 3, 7, 7, 7),
    5: (25, 7, 25, 7, 25, 25, 23),
    6: (125, 34, 123, 34, 126, 126, 99),
}


def test_element_names():
    """One derivation names the search's models and the catalog's chains."""
    assert core.element_names(1) == ("1",)
    assert core.element_names(2) == ("0", "1")
    assert core.element_names(4) == ("0", "a", "b", "1")
    assert mg.element_names is core.element_names
    assert catalog.get("chain5").names == core.element_names(5)


@pytest.mark.parametrize("n", sorted(LATTICE_COUNTS))
def test_lattice_counts(n):
    assert sum(1 for _ in mg.enumerate_lattices(n)) == LATTICE_COUNTS[n]


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_lattice_counts_match_naive_enumeration(n):
    assert len(naive_lattices(n)) == LATTICE_COUNTS[n]


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_enumeration_matches_the_full_walk(n):
    """Walking only the orders that can be canonical, with an early-exit
    canonical test, yields the same lattices in the same order as walking
    every order with three states per pair and taking the minimum over all
    relabellings; the order fixes the structure labels."""
    assert list(mg.enumerate_lattices(n)) == lattices_by_full_walk(n)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_table_search_matches_the_complete_check(n):
    """Pruning on associativity and distributivity as cells are set yields
    the same tables, in the same order, as pruning on monotonicity and
    checking the laws on each full table."""
    for lattice, _ in mg._lattices(n):
        up = lattice.up
        assert list(mg._structures_on(lattice)) == structures_by_complete_check(n, up), up


@pytest.mark.parametrize("n", sorted(STRUCTURE_COUNTS))
def test_structure_counts(n):
    models = list(mg.residuated_structures(n))
    assert len(models) == STRUCTURE_COUNTS[n]
    assert [a.label for a in models] == [f"n{n}.{i}" for i in range(1, len(models) + 1)]


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_structure_counts_match_naive_enumeration(n):
    assert len(naive_structures(n)) == STRUCTURE_COUNTS[n]


@pytest.mark.parametrize("n", sorted(CHAIN_STRUCTURE_COUNTS))
def test_chain_structure_counts(n):
    count = sum(1 for _ in mg.residuated_structures(n, chains_only=True))
    assert count == CHAIN_STRUCTURE_COUNTS[n]


@pytest.mark.parametrize("chains_only", (False, True))
@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7))
def test_the_structure_walk_returns_its_lattice_count(n, chains_only):
    """The count of the lattices walked, M3 and N5 included though they
    carry no structure, comes back from the same pass as the structures."""
    walk = mg.residuated_structures(n, chains_only)
    labels = []
    while True:
        try:
            labels.append(next(walk).label)
        except StopIteration as done:
            walked = done.value
            break
    assert walked == sum(1 for _ in mg.enumerate_lattices(n, chains_only))
    assert labels == [f"n{n}.{i}" for i in range(1, len(labels) + 1)]


def test_two_element_chain_has_one_structure():
    (model,) = mg.residuated_structures(2)
    assert is_isomorphic(model, catalog.get("chain2"))


def test_enumerated_models_are_pairwise_non_isomorphic():
    models = list(mg.residuated_structures(4))
    for i, a in enumerate(models):
        for b in models[i + 1:]:
            assert find_isomorphism(a, b) is None


def test_six_element_stream_contains_the_first_flagship_exactly_once():
    a6 = catalog.get("A6")
    hits = [a.label for a in mg.residuated_structures(6) if is_isomorphic(a, a6)]
    assert hits == ["n6.8"]


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6, 7))
def test_automorphism_groups_match_the_oracle(n):
    """The groups the search deduplicates by, read off the canonical test's
    walk, are the relabellings that fix each lattice, in the same order."""
    for chains_only in (False, True):
        for lattice, autos in mg._lattices(n, chains_only):
            assert autos == lattice_automorphisms(n, lattice.up), lattice.up


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7))
def test_canonical_test_matches_the_full_tuple_comparison(n):
    """Comparing the relabelled up masks index by index, up to the first
    that differs, keeps the same lattices with the same automorphisms as
    building each relabelled tuple in full and comparing the tuples."""
    got = [(lattice.up, autos) for lattice, autos in mg._lattices(n)]
    assert got == lattices_by_full_tuples(n)


def test_the_search_yields_only_what_core_accepts(monkeypatch):
    """Every table the search finds goes through core's operation laws."""

    def knocked_out(names, up, join, mul):
        raise NotResiduated("operation laws knocked out")

    monkeypatch.setattr(core, "_operation_laws", knocked_out)
    with pytest.raises(NotResiduated, match="knocked out"):
        list(mg.residuated_structures(4))


def test_enumeration_respects_size_bound(monkeypatch):
    monkeypatch.setenv("RESLAT_MAX_SIZE", "5")
    with pytest.raises(CarrierTooLarge):
        list(mg.enumerate_lattices(6))


def test_enumeration_needs_a_positive_size():
    with pytest.raises(ValueError, match="carrier size must be positive"):
        list(mg.enumerate_lattices(0))


@pytest.mark.parametrize("n", sorted(SWEEP))
def test_classification_sweep(n):
    rep = mg.classify_all(n)
    assert rep.lattice_count == LATTICE_COUNTS[n]
    assert rep.structure_count == STRUCTURE_COUNTS[n]
    assert (
        rep.gelfand_count, rep.soft_count, rep.local_count,
        rep.semisimple_count, rep.rickart_count, rep.baer_count,
        rep.prelinear_count,
    ) == SWEEP[n]
    assert len(rep.labels) == rep.structure_count


def test_every_small_algebra_is_gelfand():
    for n in (1, 2):
        rep = mg.classify_all(n)
        assert rep.gelfand_count == rep.structure_count


def test_non_gelfand_labels_at_size_six():
    bad = []
    from reslat import gelfand as gf
    for a in mg.residuated_structures(6):
        if not gf.gelfand_verdict(a).verdict:
            bad.append(a.label)
    assert bad == ["n6.8", "n6.12", "n6.27", "n6.32"]


def test_deep_sweep_at_small_size_runs_the_law_suites():
    rep = mg.classify_all(3, deep=True)
    assert rep.structure_count == 2


def test_a_sweep_violation_keeps_its_cause(monkeypatch):
    """An aborted sweep names the inner message after the model's label and
    keeps the inner detail next to the serialized model, which parses back
    to the same tables; the CLI prints both and exits 2."""
    monkeypatch.setattr(gf, "contessa_check", lambda a: (False, (0, 0)))
    with pytest.raises(EquivalenceViolation) as exc:
        mg.classify_all(3)
    assert str(exc.value) == "sweep aborted on n3.1: Gelfand criteria disagree"
    text, inner = exc.value.detail
    assert ff.parse_text(text) == next(mg.residuated_structures(3))
    assert inner[0] == "n3.1" and inner[-1]["contessa"] is False
    code, _, err = run_cli(["search", "3"])
    assert code == cli.EX_VIOLATION
    lines = err.splitlines()
    assert lines[0] == "equivalence violation: sweep aborted on n1.1: Gelfand criteria disagree"
    assert "'contessa': False" in lines[1]


def test_a_failing_lattice_table_build_is_not_read_as_a_non_lattice(monkeypatch):
    """Only NotALattice rejects an order; any other error stops the
    enumeration instead of silently shrinking it."""

    def broken(n, up):
        raise ValueError("table bug")

    monkeypatch.setattr(core, "_lattice_tables", broken)
    with pytest.raises(ValueError, match="table bug"):
        list(mg.enumerate_lattices(4))
