"""Reach: the lattice enumeration at eight elements; the topology facts,
the coannihilator laws, the Hausdorff battery, the Gelfand verdict and the
full report on chains and products whose spectra have 31 to 63 points; all
with fact oracles and generous wall-clock bounds; and the traced memory of
the coannihilator laws on the longest chains."""

import json
import time
import tracemalloc

import pytest

from reslat import catalog, cli, core, fileformat, filters as flt, gelfand as gf
from reslat import laws, modelgen as mg, topology as top

from oracles import goedel, refuse_closed_sets_of, run_cli


def _chain2_goedel32():
    return core.direct_product(catalog.get("chain2"), goedel(32))


# name -> (builder, primes, maximals, retraction count)
REACH = {
    "goedel32": (lambda: goedel(32), 31, 1, 1),
    "goedel64": (lambda: goedel(64), 63, 1, 1),
    "chain2xgoedel32": (_chain2_goedel32, 32, 2, 1),
}


@pytest.mark.parametrize("name", sorted(REACH))
def test_reach_of_the_polynomial_routes(name):
    """A chain of k elements has k-1 primes and one maximal filter;
    chain2 x Goedel32 has 32 primes and 2 maximals. All are Gelfand on all
    fourteen criteria, with one retraction, and every fact holds; each
    algebra takes well under a minute."""
    build, primes, maximals, retractions = REACH[name]
    t0 = time.perf_counter()
    a = build()
    assert len(flt.prime_filters(a)) == primes
    assert len(flt.maximal_filters(a)) == maximals
    assert laws.closure_lemmas(a)
    assert laws.hull_closed_family_facts(a)
    assert set(laws.coannihilator_laws(a).values()) == {True}
    assert set(gf.hausdorff_battery(a).values()) == {True}
    verdict = gf.gelfand_verdict(a)
    assert verdict.verdict is True
    assert len(verdict.criteria) == 14
    assert set(verdict.criteria.values()) == {True}
    assert gf.retractions(a)[0] == retractions
    assert time.perf_counter() - t0 < 60.0


def test_reach_of_the_gelfand_command(tmp_path):
    """`reslat gelfand` on a chain2 x Goedel32 file says yes and exits 0."""
    path = tmp_path / "c2g32.txt"
    path.write_text(fileformat.serialize(_chain2_goedel32()))
    t0 = time.perf_counter()
    code, out, err = run_cli(["gelfand", str(path)])
    assert (code, err) == (cli.EX_OK, "")
    assert out == "Gelfand: yes (14/14 criteria)\n"
    assert time.perf_counter() - t0 < 60.0


def _leaves(tree):
    for value in tree.values():
        yield from _leaves(value) if isinstance(value, dict) else [value]


# name -> (builder, writer, filters, primes, maximals)
REPORTS = {
    "goedel32": (lambda: goedel(32), fileformat.to_json, 32, 31, 1),
    "goedel64": (lambda: goedel(64), fileformat.to_json, 64, 63, 1),
    "chain2xgoedel32": (_chain2_goedel32, fileformat.serialize, 64, 32, 2),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reach_of_the_report_command(tmp_path, name):
    """`reslat report` decides the patch/stability criterion once per
    spectrum, so a 32-prime spectrum reports in seconds: a k-chain has k
    filters, k-1 primes and one maximal filter, chain2 x Goedel32 has 2 x 32
    filters, 32 primes and 2 maximals; both are Gelfand and every law
    holds."""
    build, write, filters, primes, maximals = REPORTS[name]
    path = tmp_path / f"{name}.alg"
    path.write_text(write(build()))
    t0 = time.perf_counter()
    code, out, err = run_cli(["report", str(path)])
    assert (code, err) == (cli.EX_OK, "")
    doc = json.loads(out)
    assert doc["filters"]["count"] == filters
    assert len(doc["prime_filters"]) == primes
    assert len(doc["maximal_filters"]) == maximals
    assert doc["gelfand"]["verdict"] is True
    assert set(doc["gelfand"]["criteria"].values()) == {True}
    assert doc["laws"]["topology"]["patch_stability_criterion"] is True
    assert set(_leaves(doc["laws"])) == {True}
    assert time.perf_counter() - t0 < 60.0


# name -> bound in bytes on the traced peak of the coannihilator laws
LAW_MEMORY = {"goedel32": 256 * 1024, "goedel64": 1024 * 1024}


@pytest.mark.parametrize("name", sorted(LAW_MEMORY))
def test_the_coannihilator_laws_keep_quadratically_many_perps(name):
    """The suite keeps the perps of the sets of at most two elements, of A
    and of their first and second perps, and drops each three-element set's
    once it is checked: about 67 KiB traced on a fresh Goedel-32 and 266 KiB
    on Goedel-64, where keeping every perp took 794 KiB and 6.9 MiB."""
    a = REACH[name][0]()
    tracemalloc.start()
    try:
        assert set(laws.coannihilator_laws(a).values()) == {True}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < LAW_MEMORY[name]


def test_patch_count_on_goedel64_builds_no_family(tmp_path, monkeypatch):
    """The patch space of a finite spectrum is discrete, so its closed sets
    are counted as 2^63 without enumerating them."""
    path = tmp_path / "goedel64.json"
    path.write_text(fileformat.to_json(goedel(64)))
    patch = top.spec_space(goedel(64), "patch")
    monkeypatch.setattr(top, "closed_sets", refuse_closed_sets_of(patch))
    t0 = time.perf_counter()
    code, out, _ = run_cli(["spectrum", "--kind", "patch", str(path)])
    assert code == cli.EX_OK
    assert "63 points, 9223372036854775808 closed sets\n" in out
    assert "discrete=yes" in out
    assert time.perf_counter() - t0 < 60.0


def test_reach_of_the_lattice_enumeration():
    """There are 222 lattices on eight elements up to isomorphism (OEIS
    A006966); walking only the orders that can be canonical finds them in
    seconds."""
    t0 = time.perf_counter()
    assert sum(1 for _ in mg.enumerate_lattices(8)) == 222
    assert time.perf_counter() - t0 < 60.0
