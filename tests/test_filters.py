"""Filter lattice machinery: generation, maximal/prime collections, radicals,
comaximality, coannihilators, d-parts, local batteries."""

import sys

import pytest

from reslat import catalog, cli, core, filters as flt, modelgen, pure as pr, report
from reslat.errors import (
    EquivalenceViolation,
    ImproperInput,
    NotAFilter,
    NotAnIdeal,
)

from oracles import Unsatisfiable, comaximal_witness, fresh, prime_extension, primes_over, run_cli

# name -> (filters, maximals, primes, radical), all as set_repr strings
TABLES = {
    "A6": (
        ["{1}", "{d,1}", "{c,d,1}", "{a,b,d,1}", "{0,a,b,c,d,1}"],
        ["{c,d,1}", "{a,b,d,1}"],
        ["{1}", "{c,d,1}", "{a,b,d,1}"],
        "{d,1}",
    ),
    "A8": (
        ["{1}", "{f,1}", "{c,e,1}", "{a,c,d,e,f,1}", "{0,a,b,c,d,e,f,1}"],
        ["{a,c,d,e,f,1}"],
        ["{f,1}", "{c,e,1}", "{a,c,d,e,f,1}"],
        "{a,c,d,e,f,1}",
    ),
    "chain2": (["{1}", "{0,1}"], ["{1}"], ["{1}"], "{1}"),
    "chain3": (["{1}", "{a,1}", "{0,a,1}"], ["{a,1}"], ["{1}", "{a,1}"], "{a,1}"),
    "chain4": (
        ["{1}", "{b,1}", "{a,b,1}", "{0,a,b,1}"],
        ["{a,b,1}"],
        ["{1}", "{b,1}", "{a,b,1}"],
        "{a,b,1}",
    ),
    "chain5": (
        ["{1}", "{c,1}", "{b,c,1}", "{a,b,c,1}", "{0,a,b,c,1}"],
        ["{a,b,c,1}"],
        ["{1}", "{c,1}", "{b,c,1}", "{a,b,c,1}"],
        "{a,b,c,1}",
    ),
    "chain6": (
        ["{1}", "{d,1}", "{c,d,1}", "{b,c,d,1}", "{a,b,c,d,1}", "{0,a,b,c,d,1}"],
        ["{a,b,c,d,1}"],
        ["{1}", "{d,1}", "{c,d,1}", "{b,c,d,1}", "{a,b,c,d,1}"],
        "{a,b,c,d,1}",
    ),
    "cube1": (["{1}", "{0,1}"], ["{1}"], ["{1}"], "{1}"),
    "cube2": (
        ["{11}", "{01,11}", "{10,11}", "{00,01,10,11}"],
        ["{01,11}", "{10,11}"],
        ["{01,11}", "{10,11}"],
        "{11}",
    ),
    "cube3": (
        ["{111}", "{011,111}", "{101,111}", "{110,111}",
         "{001,011,101,111}", "{010,011,110,111}", "{100,101,110,111}",
         "{000,001,010,011,100,101,110,111}"],
        ["{001,011,101,111}", "{010,011,110,111}", "{100,101,110,111}"],
        ["{001,011,101,111}", "{010,011,110,111}", "{100,101,110,111}"],
        "{111}",
    ),
    "MV3": (["{1}", "{0,h,1}"], ["{1}"], ["{1}"], "{1}"),
}

LOCAL = {
    "A6": False, "A8": True, "chain2": True, "chain3": True, "chain4": True,
    "chain5": True, "chain6": True, "cube1": True, "cube2": False,
    "cube3": False, "MV3": True,
}

SEMISIMPLE = {
    "A6": False, "A8": False, "chain2": True, "chain3": False, "chain4": False,
    "chain5": False, "chain6": False, "cube1": True, "cube2": True,
    "cube3": True, "MV3": True,
}

RICKART = {
    "A6": True, "A8": False, "chain2": True, "chain3": True, "chain4": True,
    "chain5": True, "chain6": True, "cube1": True, "cube2": True,
    "cube3": True, "MV3": True,
}


def reprs(a, masks):
    return [a.set_repr(m) for m in masks]


@pytest.mark.parametrize("name", sorted(TABLES))
def test_filter_tables(name):
    a = catalog.get(name)
    filters, maximals, primes, rad = TABLES[name]
    assert reprs(a, flt.all_filters(a)) == filters
    assert reprs(a, flt.maximal_filters(a)) == maximals
    assert reprs(a, flt.prime_filters(a)) == primes
    assert a.set_repr(flt.radical_total(a, flt.all_filters(a)[0])) == rad


@pytest.mark.parametrize("name", ("A6", "A8", "cube3", "MV3"))
def test_filters_against_brute_force(name):
    """Every filter is principal; cross-check against a raw subset scan."""
    a = catalog.get(name)
    found = []
    for s in range(1 << a.n):
        if not s >> a.one & 1:
            continue
        up_closed = all(
            s >> y & 1 for x in core.bits(s) for y in core.bits(a.up[x])
        )
        mul_closed = all(
            s >> a.mul[x][y] & 1 for x in core.bits(s) for y in core.bits(s)
        )
        if up_closed and mul_closed:
            found.append(s)
    assert flt.canonical_sort(found) == flt.all_filters(a)


def test_principal_generation_identities():
    a = catalog.get("A8")
    principal, joins = flt.principal_filters(a), flt.join_table(a)
    for x in range(a.n):
        for y in range(a.n):
            fx, fy = principal[x], principal[y]
            assert principal[a.join[x][y]] == fx & fy
            assert principal[a.mul[x][y]] == joins[fx][fy]


def test_a_generator_the_product_route_does_not_regenerate_is_caught(monkeypatch):
    """Each filter's generator is read off the power limits; the product of
    its members must generate the same filter, or the derivation refuses."""
    a = fresh(catalog.get("A6"))
    monkeypatch.setattr(flt, "generated_filter", lambda alg, subset: alg.full)
    with pytest.raises(EquivalenceViolation, match="principal generator does not regenerate"):
        flt.filter_generators(a)


def test_generated_filter_of_empty_set_is_trivial():
    a = catalog.get("A6")
    assert a.set_repr(flt.generated_filter(a, 0)) == "{1}"


def test_primes_over_principal_filter():
    a = catalog.get("A6")
    fd = flt.principal_filters(a)[a.names.index("d")]
    assert reprs(a, primes_over(a, fd)) == ["{c,d,1}", "{a,b,d,1}"]
    assert reprs(a, flt.maximals_over(a, fd)) == ["{c,d,1}", "{a,b,d,1}"]


def test_radical_of_maximal_is_itself():
    a = catalog.get("A6")
    for m in flt.maximal_filters(a):
        assert flt.radical(a, m) == m


def test_radical_rejects_improper_filter():
    a = catalog.get("A6")
    with pytest.raises(ImproperInput):
        flt.radical(a, a.full)


# Masks of A6 that are no filters, with the names the refusals give them:
# {a,1}, and two masks outside the carrier, one with a bit past the top and
# one with every bit set, which are named by their bits.
A6_NON_FILTERS = (
    (0b100010, r"\{a,1\}"), (0b10000100000, "mask 0b10000100000"), (-1, "mask -0b1"),
)


# Masks outside the six elements of A6, and how a refusal names them.
A6_NON_SUBSETS = ((1 << 6, "mask 0b1000000"), *A6_NON_FILTERS[1:])


def test_generated_filter_rejects_a_mask_outside_the_carrier():
    """Unchecked, the product would index past the end of the mul table."""
    a = catalog.get("A6")
    for s, name in A6_NON_SUBSETS:
        with pytest.raises(ImproperInput, match=rf"^{name} is not a subset of A6$"):
            flt.generated_filter(a, s)


def test_coannihilator_rejects_a_mask_outside_the_carrier():
    """Unchecked, the joins route would index past the end of its rows."""
    a = catalog.get("A6")
    for s, name in A6_NON_SUBSETS:
        with pytest.raises(ImproperInput, match=rf"^{name} is not a subset of A6$"):
            flt.coannihilator(a, s)


def test_radical_rejects_a_non_filter():
    a = catalog.get("A6")
    for s, name in A6_NON_FILTERS:
        for radical in (flt.radical, flt.radical_total):
            with pytest.raises(NotAFilter, match=rf"^{name} is not a filter of A6$"):
                radical(a, s)


def test_maximality_by_powers_rejects_a_non_filter():
    """Unchecked, the power test would answer False for {a,1}."""
    a = catalog.get("A6")
    for s, name in A6_NON_FILTERS:
        with pytest.raises(NotAFilter, match=rf"^{name} is not a filter of A6$"):
            flt.is_maximal_by_powers(a, s)


def test_comaximal_routes_reject_a_non_filter():
    """Unchecked, the join route would look {a,1} up in the join table,
    which holds only filters, and fail with a KeyError."""
    a = catalog.get("A6")
    m = flt.maximal_filters(a)[0]
    for s, name in A6_NON_FILTERS:
        for f, g in ((s, s), (m, s), (s, m)):
            with pytest.raises(NotAFilter, match=rf"^{name} is not a filter of A6$"):
                flt.comaximal_routes(a, f, g)


def test_comaximality_sigma_and_rho_reject_a_non_filter():
    """{a,1} is not a filter of A6; sigma and rho store nothing when they
    refuse, so a second call is refused again."""
    a = catalog.get("A6")
    m = flt.maximal_filters(a)[0]
    for s, name in A6_NON_FILTERS:
        calls = [
            lambda: flt.is_comaximal(a, s, m), lambda: flt.is_comaximal(a, m, s),
            lambda: pr.sigma(a, s), lambda: pr.sigma(a, s),
            lambda: pr.rho(a, s), lambda: pr.rho(a, s),
        ]
        for call in calls:
            with pytest.raises(NotAFilter, match=rf"^{name} is not a filter of A6$"):
                call()


def test_proper_filter_tests_reject_the_improper_filter():
    a = catalog.get("A6")
    m = flt.maximal_filters(a)[0]
    for f, g in ((a.full, m), (m, a.full)):
        with pytest.raises(ImproperInput, match="comaximality is about proper filters"):
            flt.is_comaximal(a, f, g)
    with pytest.raises(ImproperInput, match="maximality test is about proper filters"):
        flt.is_maximal_by_powers(a, a.full)


def test_comaximality_routes_and_witness():
    a = catalog.get("A6")
    m1 = flt.generated_filter(a, 1 << a.names.index("c"))
    m2 = flt.generated_filter(a, 1 << a.names.index("a"))
    assert flt.is_comaximal(a, m1, m2)
    assert flt.comaximal_routes(a, m1, m2) == {
        "join": True, "zero_product": True, "negation": True
    }
    x, y = comaximal_witness(a, m1, m2)
    assert (a.names[x], a.names[y]) == ("c", "a")
    assert a.mul[x][y] == a.zero
    # the trivial filter is comaximal with no proper filter
    f1 = flt.principal_filters(a)[a.one]
    assert not flt.is_comaximal(a, f1, m1)
    assert comaximal_witness(a, f1, m1) is None


def test_maximality_by_powers_agrees_with_enumeration():
    for name in sorted(TABLES):
        a = catalog.get(name)
        maximals = set(flt.maximal_filters(a))
        for f in flt.proper_filters(a):
            assert flt.is_maximal_by_powers(a, f) == (f in maximals)


def test_prime_extension_avoiding_a_cone():
    a = catalog.get("A6")
    one_f = flt.principal_filters(a)[a.one]
    c = 1 << a.names.index("c")
    ext = prime_extension(a, one_f, c)
    assert a.set_repr(ext) == "{a,b,d,1}"
    assert ext in flt.prime_filters(a)


def test_prime_extension_unsatisfiable_when_cone_meets_filter():
    a = catalog.get("A6")
    fc = flt.generated_filter(a, 1 << a.names.index("c"))
    with pytest.raises(Unsatisfiable, match="already meets"):
        prime_extension(a, fc, 1 << a.names.index("c"))


def test_element_coannihilators_a8():
    a = catalog.get("A8")
    got = {a.names[x]: a.set_repr(c) for x, c in enumerate(flt.element_coannihilators(a))}
    assert got == {
        "0": "{1}", "a": "{1}", "b": "{1}", "c": "{f,1}", "d": "{1}",
        "e": "{f,1}", "f": "{c,e,1}", "1": "{0,a,b,c,d,e,f,1}",
    }
    assert flt.element_coannihilators(a) == tuple(
        flt.coannihilator(a, 1 << x) for x in range(a.n)
    )


def test_the_join_table_holds_every_filter_join():
    """On the catalog, every structure with at most six elements, A6xA6 and
    A6xcube2, the table has a row and a column for each filter, in canonical
    order, and each cell is the filter the product route generates from the
    union of its row and column."""
    algebras = [catalog.get(name) for name in catalog.catalog_names()]
    algebras += [a for n in range(1, 7) for a in modelgen.residuated_structures(n)]
    a6 = catalog.get("A6")
    algebras += [core.direct_product(a6, a6), core.direct_product(a6, catalog.get("cube2"))]
    pairs = 0
    for a in algebras:
        fs = flt.all_filters(a)
        table = flt.join_table(a)
        assert tuple(table) == fs, a.label
        for f in fs:
            assert tuple(table[f]) == fs, a.label
            for g in fs:
                assert table[f][g] == flt.generated_filter(a, f | g), (a.label, f, g)
        pairs += len(fs) ** 2
    assert pairs == 3222


def test_coannihilator_is_a_filter_and_antitone():
    a = catalog.get("A8")
    filters = set(flt.all_filters(a))
    for s in range(1 << a.n):
        co = flt.coannihilator(a, s)
        assert co in filters
        assert flt.coannihilator(a, s | 1 << a.zero) & co == flt.coannihilator(a, s | 1 << a.zero)


def test_gamma_families():
    a6, a8 = catalog.get("A6"), catalog.get("A8")
    assert reprs(a6, flt.gamma(a6)) == ["{1}", "{0,a,b,c,d,1}"]
    assert reprs(a8, flt.gamma(a8)) == ["{1}", "{f,1}", "{c,e,1}", "{0,a,b,c,d,e,f,1}"]
    assert flt.big_gamma(a6) == flt.gamma(a6)
    assert flt.big_gamma(a8) == flt.gamma(a8)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_rickart_baer_semisimple_flags(name):
    a = catalog.get(name)
    assert flt.is_rickart(a) is RICKART[name]
    assert flt.is_baer(a) is RICKART[name]  # the two agree on the catalog
    assert flt.is_semisimple(a) is SEMISIMPLE[name]


def test_ideals_and_omega():
    a = catalog.get("A6")
    assert flt.is_ideal(a, core.mask_of([0, 1, 2]))      # {0,a,b}
    assert flt.is_ideal(a, core.mask_of([0, 3]))         # {0,c}
    assert not flt.is_ideal(a, core.mask_of([0, 1, 3]))  # {0,a,c} misses a v c
    assert not flt.is_ideal(a, core.mask_of([1]))        # not down-closed
    assert a.set_repr(flt.omega_filter(a, core.mask_of([0, 1, 2]))) == "{1}"
    with pytest.raises(NotAnIdeal):
        flt.omega_filter(a, core.mask_of([1]))
    for mask, name in A6_NON_FILTERS[1:]:
        assert not flt.is_ideal(a, mask)
        with pytest.raises(NotAnIdeal, match=f"^{name} is not an ideal of A6$"):
            flt.omega_filter(a, mask)


def test_omega_of_complement_of_prime_is_the_d_part():
    a = catalog.get("A8")
    for p in flt.prime_filters(a):
        assert flt.omega_filter(a, a.full ^ p) == flt.d_part(a, p)


def test_d_parts():
    a6, a8 = catalog.get("A6"), catalog.get("A8")
    assert {a6.set_repr(p): a6.set_repr(flt.d_part(a6, p)) for p in flt.prime_filters(a6)} == {
        "{1}": "{1}", "{c,d,1}": "{1}", "{a,b,d,1}": "{1}",
    }
    assert {a8.set_repr(p): a8.set_repr(flt.d_part(a8, p)) for p in flt.prime_filters(a8)} == {
        "{f,1}": "{f,1}", "{c,e,1}": "{c,e,1}", "{a,c,d,e,f,1}": "{1}",
    }


def test_d_part_rejects_non_prime():
    """Refused on every call: a call that raises stores no result."""
    a = fresh(catalog.get("A6"))
    for _ in range(2):
        with pytest.raises(ImproperInput, match="not a prime filter"):
            flt.d_part(a, 1 << a.names.index("d"))
    for mask, name in A6_NON_FILTERS[1:]:
        with pytest.raises(ImproperInput, match=f"^{name} is not a prime filter$"):
            flt.d_part(a, mask)


@pytest.mark.parametrize("name", sorted(LOCAL))
def test_local_battery_is_unanimous_on_catalog(name):
    a = catalog.get(name)
    battery = flt.local_battery(a)
    assert set(battery.values()) == {LOCAL[name]}
    assert flt.is_local(a) is LOCAL[name]


def test_local_battery_on_trivial_algebra():
    a = core.validate(("1",), ((0,),), covers=())
    battery = flt.local_battery(a)
    # no proper filters at all, but zero products vacuously have nilpotent factors
    assert battery == {
        "unique_maximal_filter": False,
        "interior_is_filter": False,
        "interior_is_proper_filter": False,
        "interior_is_the_maximal_filter": False,
        "zero_products_have_nilpotent_factor": True,
    }
    assert not flt.is_local(a)


def test_a_quotient_is_local_without_primes_or_element_classes(monkeypatch):
    """is_local reads the filter lattice alone: on the quotients by d-parts
    (the Gelfand leaf dpart_quotient_local) and by every filter (the law
    suites), it derives no prime filters and no element classes."""
    quotients = []
    for name in ("A6", "A8", "cube2"):
        a = catalog.get(name)
        quotients += [core.quotient(a, flt.d_part(a, m))[0] for m in flt.maximal_filters(a)]
        quotients += [core.quotient(a, f)[0] for f in flt.all_filters(a)]
    calls = []

    def counting(attr):
        real = getattr(flt, attr)

        def counted(alg):
            calls.append(attr)
            return real(alg)
        return counted

    for attr in ("prime_filters", "classify_elements"):
        monkeypatch.setattr(flt, attr, counting(attr))
    assert {flt.is_local(q) for q in quotients} == {True, False}
    assert calls == []


def _coannihilator_by_scan(a, subset):
    """Reference for the join route: scan every y against every x."""
    return core.mask_of(
        y
        for y in range(a.n)
        if all(a.join[y][x] == a.one for x in core.bits(subset))
    )


def _omega_by_scan(a, ideal):
    """Reference for omega: scan every x against every y of the ideal."""
    return core.mask_of(
        x
        for x in range(a.n)
        if any(a.join[x][y] == a.one for y in core.bits(ideal))
    )


def _mask_test_algebras():
    """(algebra, subsets to try): every subset of the catalog, the Goedel
    chains 2-10 and every structure with n <= 5, and the empty set, the
    singletons and the pairs of A6 x A6."""
    out = [
        (catalog.get(name), range(1 << catalog.get(name).n))
        for name in catalog.catalog_names()
    ]
    out += [(catalog._chain(k), range(1 << k)) for k in range(2, 11)]
    out += [
        (a, range(1 << a.n))
        for n in range(1, 6)
        for a in modelgen.residuated_structures(n)
    ]
    big = core.direct_product(catalog.get("A6"), catalog.get("A6"))
    small = [0] + [1 << x | 1 << y for x in range(big.n) for y in range(x + 1)]
    out.append((big, small))
    return out


def test_join_masks_match_the_elementwise_scans():
    for a, subsets in _mask_test_algebras():
        rows = flt.join_to_one(a)
        assert rows == tuple(_coannihilator_by_scan(a, 1 << x) for x in range(a.n))
        assert flt.coannihilator(a, 0) == a.full
        for s in subsets:
            assert flt.coannihilator(a, s) == _coannihilator_by_scan(a, s), (a.label, s)
        for ideal in flt.down_sets(a):
            assert flt.omega_filter(a, ideal) == _omega_by_scan(a, ideal), (a.label, ideal)


def test_join_masks_are_built_once_per_algebra():
    a = fresh(catalog.get("A8"))
    build = flt.join_to_one.__wrapped__.__code__
    builds = 0

    def count(frame, event, arg):
        nonlocal builds
        if event == "call" and frame.f_code is build:
            builds += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        report.build_report(a)
    finally:
        sys.setprofile(previous)
    assert builds == 1
    assert flt.join_to_one(a) is flt.join_to_one(a)
    assert flt.join_to_one(fresh(a)) is not flt.join_to_one(a)


def test_a_broken_join_mask_is_caught_by_the_prime_route(monkeypatch):
    """Drop f from the row of c in A8 (c v f = 1): the prime-kernel route of
    the coannihilator still holds f, so the two routes disagree, in a direct
    call and in a CLI report on a freshly built A8."""
    a = catalog.get("A8")
    c, f = a.names.index("c"), a.names.index("f")
    rows = list(flt.join_to_one(a))
    assert (rows[c] >> f) & 1
    rows[c] ^= 1 << f
    monkeypatch.setattr(flt, "join_to_one", lambda alg: tuple(rows))
    with pytest.raises(EquivalenceViolation, match="coannihilator routes disagree"):
        flt.coannihilator(a, 1 << c)
    monkeypatch.setattr(catalog, "_built", {})
    code, _, err = run_cli(["report", "A8"])
    assert code == cli.EX_VIOLATION
    assert "coannihilator routes disagree" in err
    routes = {"primes": rows[c] | 1 << f, "joins": rows[c]}
    assert f"detail: ('A8', '{{c}}', {routes})" in err


def test_coannihilator_calls_per_report(monkeypatch):
    """The masks change how a coannihilator is computed, not how many are
    checked: A6 x cube1 (12 elements) asks for 12 element coannihilators,
    and the law suite asks once for each of the 301 distinct subsets it
    meets from the 80 subsets of size <= 2 or full (1 200 lookups)."""
    a = core.direct_product(catalog.get("A6"), catalog.get("cube1"))
    real = flt.coannihilator
    asked = []

    def counting(alg, subset):
        asked.append(subset)
        return real(alg, subset)

    monkeypatch.setattr(flt, "coannihilator", counting)
    report.build_report(a)
    assert (len(asked), len(set(asked))) == (12 + 301, 301)


def test_coannihilator_calls_per_small_report(monkeypatch):
    """Small algebras take the same path: A8 asks for 8 element
    coannihilators and the law suite for 94 distinct subsets, from the 38
    subsets of size <= 2 or full (418 lookups), where a walk over all 256
    subsets would make 2824. A fresh instance shares no memoized result
    with the catalog's."""
    a = fresh(catalog.get("A8"))
    real = flt.coannihilator
    asked = []

    def counting(alg, subset):
        asked.append(subset)
        return real(alg, subset)

    monkeypatch.setattr(flt, "coannihilator", counting)
    report.build_report(a)
    assert (len(asked), len(set(asked))) == (8 + 94, 94)


def test_a_report_computes_each_radical_once(monkeypatch):
    """radical is memoized: a whole report looks up the maximals over each
    filter at most once on its behalf."""
    a = core.direct_product(catalog.get("A8"), catalog.get("chain3"))
    real = flt.maximals_over
    calls = {}

    def counting(a, subset):
        if sys._getframe(1).f_code is flt.radical.__wrapped__.__code__:
            calls[subset] = calls.get(subset, 0) + 1
        return real(a, subset)

    monkeypatch.setattr(flt, "maximals_over", counting)
    report.build_report(a)
    assert calls
    assert set(calls.values()) == {1}
    assert set(calls) <= set(flt.all_filters(a))


def test_a_rejected_radical_is_rejected_again():
    """A call that raises stores nothing, so the memo never answers for the
    improper filter."""
    a = catalog.get("A6")
    for _ in range(2):
        with pytest.raises(ImproperInput):
            flt.radical(a, a.full)
