"""Expected values recorded in the design worksheets that recomputation
contradicts. Each test asserts the recorded value verbatim and is marked
xfail(strict=True): the suite stays green exactly as long as the
implementation keeps disagreeing with the recorded figure, and starts
failing the moment behavior drifts toward it. The corrected values are
asserted by the ordinary tests next to each topic."""

import pytest

from reslat import catalog, fileformat as ff, filters as flt, gelfand as gf
from reslat import modelgen as mg, topology as top

from oracles import primes_over

xfail = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="recorded value; recomputation disagrees"
)


@xfail
def test_recorded_a6_prime_table_includes_dee_one():
    """Recorded prime list for A6 contains {d,1}; d fails the prime property
    because a v c = d with neither a nor c above d."""
    a = catalog.get("A6")
    assert "{d,1}" in {a.set_repr(p) for p in flt.prime_filters(a)}


@xfail
def test_recorded_a6_witness_names_dee_one():
    """Recorded non-Gelfand witness for A6 points at {d,1}; the actual
    offending prime is {1}."""
    v = gf.gelfand_verdict(catalog.get("A6"))
    assert "{d,1}" in v.witnesses["unique_maximal"]


@xfail
def test_recorded_hull_of_dee_has_three_points():
    """Recorded hull of the filter generated by d lists three primes; only
    the two maximals contain {d,1}."""
    a = catalog.get("A6")
    fd = flt.principal_filters(a)[a.names.index("d")]
    assert len(primes_over(a, fd)) == 3


@xfail
def test_recorded_a6_patch_space_has_four_points():
    """Recorded patch space of Spec(A6) is discrete on four points; the
    spectrum only has three primes."""
    psp = top.spec_space(catalog.get("A6"), "patch")
    assert len(psp) == 4


@xfail
def test_recorded_generalizations_include_dee_one():
    """Recorded generalization set of {a,b,d,1} contains {d,1}, which is not
    prime and so not a point of the spectrum at all."""
    a = catalog.get("A6")
    primes = flt.prime_filters(a)
    m2 = next(p for p in primes if a.set_repr(p) == "{a,b,d,1}")
    gen = top.generalization(a)[primes.index(m2)]
    names = {a.set_repr(primes[i]) for i in range(len(primes)) if gen >> i & 1}
    assert "{d,1}" in names


@xfail
def test_recorded_a8_spectrum_has_eight_closed_sets():
    """Recorded count of closed sets of Spec(A8) is eight; generating the
    hull-kernel family gives five."""
    assert len(top.closed_sets(top.spec_space(catalog.get("A8"), "hull"))) == 8


@xfail
def test_recorded_a6_hasse_diagram_has_seven_edges():
    """Recorded edge count for the A6 Hasse diagram is seven; the cover
    relation it lists has six pairs."""
    assert len(ff.cover_pairs(catalog.get("A6"))) == 7


@xfail
def test_recorded_a6_maximal_spectrum_fails_hausdorff_battery():
    """Recorded battery outcome for A6 is all-false; the two maximals are
    separated (c v a = d is not 1, but c*a = 0 gives disjoint hulls), so all
    six statements actually hold."""
    battery = gf.hausdorff_battery(catalog.get("A6"))
    assert set(battery.values()) == {False}
