"""Hull-kernel spaces over prime collections: closed families, separation
predicates, subspaces, quotients, continuity."""

import random
from collections import Counter

import pytest

from reslat import catalog, core, filters as flt, gelfand as gf, modelgen
from reslat import laws, pure as pr, report
from reslat import topology as top
from reslat.errors import EquivalenceViolation

from oracles import goedel as _goedel, patch_stability_by_scan, refuse_closed_sets_of


def test_spec_space_a6():
    a = catalog.get("A6")
    sp = top.spec_space(a, "hull")
    assert [a.set_repr(p) for p in flt.prime_filters(a)] == ["{1}", "{c,d,1}", "{a,b,d,1}"]
    assert len(sp) == 3
    assert sorted(top.closed_sets(sp)) == [0b000, 0b010, 0b100, 0b110, 0b111]
    assert top.space_predicates(sp) == {
        "normal": False, "hausdorff": False, "t1": False,
        "discrete": False, "compact": True,
    }


def test_spec_space_a8():
    a = catalog.get("A8")
    sp = top.spec_space(a, "hull")
    assert [a.set_repr(p) for p in flt.prime_filters(a)] == ["{f,1}", "{c,e,1}", "{a,c,d,e,f,1}"]
    assert len(sp) == 3
    assert sorted(top.closed_sets(sp)) == [0b000, 0b100, 0b101, 0b110, 0b111]
    assert len(top.closed_sets(sp)) == 5
    assert top.space_predicates(sp) == {
        "normal": True, "hausdorff": False, "t1": False,
        "discrete": False, "compact": True,
    }


def test_dual_spaces():
    a6, a8 = catalog.get("A6"), catalog.get("A8")
    assert sorted(top.closed_sets(top.spec_space(a6, "dual"))) == [0, 1, 3, 5, 7]
    assert sorted(top.closed_sets(top.spec_space(a8, "dual"))) == [0, 1, 2, 3, 7]


@pytest.mark.parametrize("name", ("A6", "A8"))
def test_patch_space_is_discrete_on_three_points(name):
    a = catalog.get(name)
    psp = top.spec_space(a, "patch")
    assert len(psp) == 3
    assert len(top.closed_sets(psp)) == 8
    assert top.is_discrete(psp)
    assert top.is_hausdorff(psp)


def test_opens_complement_closeds():
    sp = top.spec_space(catalog.get("A6"), "hull")
    assert sorted(top.opens(sp)) == sorted(0b111 ^ c for c in top.closed_sets(sp))


def test_closure_is_smallest_closed_superset():
    sp = top.spec_space(catalog.get("A6"), "hull")
    assert top.closure(sp, 0b001) == 0b111  # the minimal prime is dense
    assert top.closure(sp, 0b010) == 0b010
    assert top.closure(sp, 0b100) == 0b100


def test_hull_and_kernel_on_a6():
    a = catalog.get("A6")
    primes = flt.prime_filters(a)
    fd = flt.principal_filters(a)[a.names.index("d")]
    hull = core.mask_of([i for i, p in enumerate(primes) if p & fd == fd])
    assert [a.set_repr(primes[i]) for i in core.bits(hull)] == ["{c,d,1}", "{a,b,d,1}"]
    # the kernel of those two points is the radical
    assert a.set_repr(top.kernel_of(a, primes, hull)) == "{d,1}"


def test_generalizations_of_a_maximal_on_a6():
    a = catalog.get("A6")
    primes = flt.prime_filters(a)
    m2 = next(p for p in primes if a.set_repr(p) == "{a,b,d,1}")
    gen = top.generalization(a)[primes.index(m2)]
    assert [a.set_repr(primes[i]) for i in core.bits(gen)] == ["{1}", "{a,b,d,1}"]
    spec = top.specialization(a)[0]
    assert spec == 0b111  # everything specializes the minimal prime


def test_maximal_subspace_predicates():
    a6, a8 = catalog.get("A6"), catalog.get("A8")
    m6, m8 = pr.max_subspace(a6), pr.max_subspace(a8)
    assert len(m6) == 2 and sorted(top.closed_sets(m6)) == [0, 1, 2, 3]
    assert len(m8) == 1 and sorted(top.closed_sets(m8)) == [0, 1]
    for space in (m6, m8):
        assert top.is_discrete(space)
        assert top.is_hausdorff(space)
        assert top.is_normal(space)


def test_subspace_construction_matches_max_subspace():
    a = catalog.get("A6")
    sp = top.spec_space(a, "hull")
    maximals = set(flt.maximal_filters(a))
    mask = core.mask_of([i for i, p in enumerate(flt.prime_filters(a)) if p in maximals])
    sub = top.subspace(sp, mask)
    assert len(sub) == len(maximals) and sub == pr.max_subspace(a)
    assert len(top.closed_sets(sub)) == 4


def test_quotient_space_collapsing_the_maximals():
    sp = top.spec_space(catalog.get("A6"), "hull")
    qs = top.quotient_space(sp, (0b001, 0b110))
    assert len(qs) == 2
    assert sorted(top.closed_sets(qs)) == [0b00, 0b10, 0b11]


def test_quotient_space_needs_a_partition():
    sp = top.spec_space(catalog.get("A6"), "hull")
    with pytest.raises(ValueError, match="classes overlap"):
        top.quotient_space(sp, (0b011, 0b110))
    with pytest.raises(ValueError, match="classes do not cover the space"):
        top.quotient_space(sp, (0b001, 0b010))


def test_spaces_are_immutable_and_kinds_are_checked():
    sp = top.spec_space(catalog.get("A6"), "hull")
    with pytest.raises(TypeError, match="does not support item assignment"):
        sp[0] = 0
    with pytest.raises(ValueError, match="unknown space kind 'zariski'"):
        top.spec_space(catalog.get("A6"), "zariski")


def test_continuity_and_homeomorphism():
    a = catalog.get("A6")
    sp = top.spec_space(a, "hull")
    assert top.is_continuous(lambda i: i, sp, sp)
    assert top.is_homeomorphism(lambda i: i, sp, sp)
    msp = pr.max_subspace(a)
    # constants are continuous but collapse the discrete pair
    assert top.is_continuous(lambda i: 0, msp, msp)
    assert not top.is_homeomorphism(lambda i: 0, msp, msp)
    # swapping a closed point with the dense point breaks continuity
    swap = {0: 1, 1: 0, 2: 2}
    assert not top.is_continuous(lambda i: swap[i], sp, sp)


def test_checked_space_rejects_improper_families():
    with pytest.raises(EquivalenceViolation, match="bad: family misses empty or full"):
        top.checked_space("bad", 2, frozenset({0b01}))
    with pytest.raises(EquivalenceViolation, match="bad: closed family not stable"):
        top.checked_space("bad", 3, frozenset({0b000, 0b001, 0b010, 0b111}))


def test_generate_closes_the_basis():
    closed = top.closed_sets(top.generate(3, [0b001, 0b010]))
    assert 0b011 in closed
    assert 0b000 in closed and 0b111 in closed


@pytest.mark.parametrize("name", ("A6", "A8", "chain4", "cube2", "cube3", "MV3"))
def test_structural_space_facts(name):
    """These checkers raise EquivalenceViolation if their internal routes
    split, and return True otherwise."""
    a = catalog.get(name)
    assert laws.closure_lemmas(a)
    assert laws.hull_closed_family_facts(a)
    assert laws.max_dense_iff_semisimple(a) is True
    assert laws.patch_stability_criterion(a) is patch_stability_by_scan(a) is True


def test_spectrum_is_connected_for_the_flagship_algebras():
    for name in ("A6", "A8"):
        a = catalog.get(name)
        assert top.clopen_check(a) == (0, (1 << len(flt.prime_filters(a))) - 1)


def _normal_by_opens(space):
    """Reference: every pair of disjoint closed sets has disjoint open
    neighbourhoods, searched over all pairs of opens."""
    opens, closed = tuple(top.opens(space)), top.closed_sets(space)
    for c in closed:
        for d in closed:
            if c & d:
                continue
            if not any(
                c & u == c and d & v == d and not u & v
                for u in opens
                for v in opens
            ):
                return False
    return True


def _hausdorff_by_opens(space):
    """Reference: every pair of distinct points has disjoint open
    neighbourhoods, searched over all pairs of opens."""
    opens = tuple(top.opens(space))
    for i in range(len(space)):
        for j in range(i + 1, len(space)):
            if not any(
                (u >> i) & 1 and (v >> j) & 1 and not u & v
                for u in opens
                for v in opens
            ):
                return False
    return True


def _corpus(largest_chain):
    """The catalog, the Goedel chains of 2 to largest_chain elements and
    every structure with at most five elements."""
    algebras = [catalog.get(name) for name in catalog.catalog_names()]
    algebras += [_goedel(k) for k in range(2, largest_chain + 1)]
    for n in range(1, 6):
        algebras += list(modelgen.residuated_structures(n))
    return algebras


def test_point_predicates_match_the_opens_search():
    algebras = _corpus(8)
    seen = {"normal": set(), "hausdorff": set()}
    for a in algebras:
        spaces = [top.spec_space(a, kind) for kind in ("hull", "dual", "patch")]
        spaces += [pr.pure_spectrum_space(a), pr.d_topology_space(a),
                   pr.max_subspace(a)]
        for k, space in enumerate(spaces):
            normal, hausdorff = top.is_normal(space), top.is_hausdorff(space)
            assert normal is _normal_by_opens(space), (a.label, k)
            assert hausdorff is _hausdorff_by_opens(space), (a.label, k)
            seen["normal"].add(normal)
            seen["hausdorff"].add(hausdorff)
    assert seen == {"normal": {True, False}, "hausdorff": {True, False}}


def _maximal_pairs_separated_by_opens(a):
    """Reference: distinct maximal points of the hull space have disjoint
    open sets around them, searched over all pairs of opens."""
    primes = flt.prime_filters(a)
    maxima = flt.maximal_filters(a)
    opens = tuple(top.opens(top.spec_space(a, "hull")))
    return all(
        any((u >> primes.index(m)) & 1 and (v >> primes.index(n)) & 1 and not u & v
            for u in opens for v in opens)
        for i, m in enumerate(maxima)
        for n in maxima[i + 1:]
    )


def test_maximal_separation_matches_the_opens_search():
    a6, cube2 = catalog.get("A6"), catalog.get("cube2")
    algebras = [catalog.get(name) for name in catalog.catalog_names()]
    for n in range(1, 7):
        algebras += list(modelgen.residuated_structures(n))
    algebras += [core.direct_product(a6, a6), core.direct_product(a6, cube2),
                 core.direct_product(catalog.get("A8"), catalog.get("cube3"))]
    seen = set()
    for a in algebras:
        separated = gf.spectral_separation(a)["maximal_pairs_separated"]
        assert separated is _maximal_pairs_separated_by_opens(a), a.label
        seen.add(separated)
    assert seen == {True, False}


def test_point_closures_and_neighbourhoods():
    sp = top.spec_space(catalog.get("A6"), "hull")
    assert sp == (0b111, 0b010, 0b100)
    assert core.down_masks(sp) == (0b001, 0b011, 0b101)


def test_spaces_are_built_once_per_algebra(monkeypatch):
    a = _goedel(8)
    assert top.spec_space(a, "patch") is top.spec_space(a, "patch")

    b = _goedel(8)
    built = Counter()
    checks = Counter()
    build = top.spec_space.__wrapped__

    def counting_build(alg, kind):
        built[alg.label, kind] += 1
        return build(alg, kind)

    def counting(name):
        check = getattr(laws, name)

        def counted(alg):
            checks[name] += 1
            return check(alg)
        return counted

    monkeypatch.setattr(top, "spec_space", core.memo(counting_build))
    for name in ("patch_stability_criterion", "hull_closed_family_facts"):
        monkeypatch.setattr(laws, name, counting(name))
    report.build_report(b)
    assert built == {("goedel8", "dual"): 1, ("goedel8", "hull"): 1, ("goedel8", "patch"): 1}
    assert checks == {"patch_stability_criterion": 1, "hull_closed_family_facts": 1}


def test_patch_family_is_never_built_by_a_report(monkeypatch):
    a = _goedel(10)
    pspace = top.spec_space(a, "patch")
    monkeypatch.setattr(top, "closed_sets", refuse_closed_sets_of(pspace))
    report.build_report(a)
    assert top.is_discrete(pspace) and top.is_t1(pspace)


# Reference algorithms that work on explicit closed families; the
# point-closure code in topology.py is checked against them.


def _family_fixpoint(npoints, basis):
    """Close the basis plus the empty and full sets under union and
    intersection."""
    family = {0, (1 << npoints) - 1} | set(basis)
    frontier = list(family)
    while frontier:
        c = frontier.pop()
        for d in list(family):
            for e in (c | d, c & d):
                if e not in family:
                    family.add(e)
                    frontier.append(e)
    return frozenset(family)


def _cut_family(family, point_mask):
    out = set()
    for c in family:
        cut = 0
        for new, old in enumerate(core.bits(point_mask)):
            if (c >> old) & 1:
                cut |= 1 << new
        out.add(cut)
    return frozenset(out)


def _quotient_by_subsets(family, classes):
    """The class sets whose union of classes is closed, over all 2^k sets."""
    closed = set()
    for s in range(1 << len(classes)):
        pre = 0
        for i in core.bits(s):
            pre |= classes[i]
        if pre in family:
            closed.add(s)
    return frozenset(closed)


def _continuous_by_preimages(func, source, target):
    source_closed = top.closed_sets(source)
    for c in top.closed_sets(target):
        pre = core.mask_of(i for i in range(len(source)) if (c >> func(i)) & 1)
        if pre not in source_closed:
            return False
    return True


def _homeomorphic_by_family_image(func, source, target):
    if len(source) != len(target):
        return False
    image = [func(i) for i in range(len(source))]
    if len(set(image)) != len(source):
        return False
    mapped = {core.mask_of(image[i] for i in core.bits(c)) for c in top.closed_sets(source)}
    return mapped == set(top.closed_sets(target))


def _assert_matches_family(space, family, what):
    """The space's closures, neighbourhoods, closedness and point
    predicates are those the family defines."""
    assert top.closed_sets(space) == family, what
    full = (1 << len(space)) - 1
    nb = core.down_masks(space)
    for i in range(len(space)):
        meet, missing = full, 0
        for c in family:
            if (c >> i) & 1:
                meet &= c
            else:
                missing |= c
        assert space[i] == meet, what
        assert nb[i] == full ^ missing, what
    if len(space) <= 10:
        for m in range(1 << len(space)):
            assert top.is_closed(space, m) is (m in family), what
    assert top.is_t1(space) is all(1 << i in family for i in range(len(space)))
    assert top.is_discrete(space) is (len(family) == 1 << len(space))


def _spec_basis(a, kind, points):
    basis = []
    if kind in ("hull", "patch"):
        basis += [top.hull_in(points, 1 << x) for x in range(a.n)]
    if kind in ("dual", "patch"):
        full = (1 << len(points)) - 1
        basis += [full ^ top.hull_in(points, 1 << x) for x in range(a.n)]
    return basis


def _pure_family(a, points):
    family = {top.hull_in(points, f) for f in pr.pure_filters(a)}
    return frozenset(family | {0, (1 << len(points)) - 1})


def test_point_closures_match_the_family_algorithms():
    rng = random.Random(5)
    quotients = 0
    seen = {"continuous": set(), "homeomorphism": set()}
    for a in _corpus(10):
        primes = flt.prime_filters(a)
        spaces = {}
        for kind in ("hull", "dual", "patch"):
            space = spaces[kind] = top.spec_space(a, kind)
            _assert_matches_family(
                space, _family_fixpoint(len(primes), _spec_basis(a, kind, primes)),
                (a.label, kind))
        hull = spaces["hull"]
        hull_closed = top.closed_sets(hull)
        spp = pr.purely_prime(a)
        _assert_matches_family(
            pr.pure_spectrum_space(a), _pure_family(a, spp), (a.label, "pure"))
        _assert_matches_family(
            pr.d_topology_space(a), _pure_family(a, primes), (a.label, "d"))

        max_mask = core.mask_of(primes.index(m) for m in flt.maximal_filters(a))
        hrad_mask = top.hull_in(primes, flt.radical_total(a, 1 << a.one))
        spaces["max"] = pr.max_subspace(a)
        for sub, mask in ((spaces["max"], max_mask),
                          (top.subspace(hull, hrad_mask), hrad_mask)):
            _assert_matches_family(sub, _cut_family(hull_closed, mask), (a.label, mask))

        for kind in ("comaximal", "dpart"):
            classes = gf.relation_closure(a, kind)
            quotient = top.quotient_space(hull, classes)
            _assert_matches_family(
                quotient, _quotient_by_subsets(hull_closed, classes), (a.label, kind))
            quotients += len(classes) < len(primes)
            img = {i: next(ci for ci, c in enumerate(classes) if (c >> i) & 1)
                   for i in range(len(hull))}
            assert top.is_continuous(img.get, hull, quotient)
            to_class = [img[primes.index(m)] for m in flt.maximal_filters(a)]
            assert (top.is_homeomorphism(to_class.__getitem__, spaces["max"], quotient)
                    is _homeomorphic_by_family_image(
                        to_class.__getitem__, spaces["max"], quotient))

        for space in (hull, spaces["dual"]):
            blocks = [rng.randrange(len(space)) for _ in range(len(space))]
            classes = tuple(c for c in (
                core.mask_of(i for i, b in enumerate(blocks) if b == block)
                for block in range(len(space))) if c)
            quotient = top.quotient_space(space, classes)
            _assert_matches_family(
                quotient, _quotient_by_subsets(top.closed_sets(space), classes),
                (a.label, classes))

        for source in spaces.values():
            for target in spaces.values():
                if not (source and target):
                    continue
                for _ in range(3):
                    f = [rng.randrange(len(target)) for _ in range(len(source))]
                    continuous = top.is_continuous(f.__getitem__, source, target)
                    assert continuous is _continuous_by_preimages(
                        f.__getitem__, source, target)
                    seen["continuous"].add(continuous)
                if len(source) == len(target):
                    for _ in range(3):
                        f = rng.sample(range(len(source)), len(source))
                        homeo = top.is_homeomorphism(f.__getitem__, source, target)
                        assert homeo is _homeomorphic_by_family_image(
                            f.__getitem__, source, target)
                        seen["homeomorphism"].add(homeo)
    assert quotients
    assert seen == {"continuous": {True, False}, "homeomorphism": {True, False}}

