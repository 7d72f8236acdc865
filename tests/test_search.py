from __future__ import annotations

import gc
import tracemalloc
from collections import Counter
from functools import lru_cache
from math import comb, gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cwmat import (
    CirculantRow,
    EquivalenceClass,
    EquivalenceWitness,
    Olp,
    OlpPair,
    SearchReport,
    SearchSpec,
    are_equivalent,
    base_orders,
    canonical_form,
    classification_rule,
    describing_sets,
    exhaustive_search,
    feasible_pairs,
    from_sets,
    full_classification,
    lift,
    multiplier_shift,
    olp_of_set,
    prune,
    verify_cw,
)
from cwmat.pruning import _pair_lengths, cross_pairs
from cwmat.rows import _shifts, _weighing, apply_transform
from cwmat.orbits import ModulusContext, divisors, orbit_count, orbits_of_length, units
from cwmat.search import (
    MAX_ASSIGNMENTS,
    MAX_MASK_BITS,
    _assignments,
    _class_representatives,
    _hits,
    _host_modulus,
    _hosted_pairs,
    _levels,
    _orbits,
    _rule_bases,
    _rule_pairs,
    _search_all_pairs,
    classify,
)
from child_process import run_python
from golden import (
    BASE_ORDER_CASES,
    BASE_SEARCH_COUNTS,
    KNOWN_CW_7_4,
    W0_21_N,
    W0_21_P,
    W1_31_N,
    W1_31_P,
    W1_63_N,
    W1_63_P,
    W2_31_N,
    W2_31_P,
)
from orbit_lister import orbit_lengths
from row_reference import class_contractible, negate, normalize_sign, periodic_autocorrelation
import search_oracle

W1 = from_sets(31, W1_31_P, W1_31_N)
W2 = from_sets(31, W2_31_P, W2_31_N)
W0_21 = from_sets(21, W0_21_P, W0_21_N)
W1_63 = from_sets(63, W1_63_P, W1_63_N)


def _pair(p: str, n: str) -> OlpPair:
    return OlpPair(Olp.from_string(p), Olp.from_string(n))


def _spec(n: int, p: str, np_: str) -> SearchSpec:
    return SearchSpec(n, 16, 2, _pair(p, np_))


def _mask(indices) -> int:
    return sum(1 << x for x in indices)


def _bits(mask: int, n: int) -> list[int]:
    return [x for x in range(n) if mask >> x & 1]


def _oracle(spec: SearchSpec) -> search_oracle.OracleReport:
    return search_oracle.search(spec.n, spec.t, spec.pair.p.parts, spec.pair.n.parts)


def _filtered(spec: SearchSpec):
    """The library's assignments of the spec: one per unit class."""
    return _assignments(_levels(spec.n, spec.t, spec.pair))


def test_search_spec_validates():
    with pytest.raises(ValueError, match="not a unit"):
        SearchSpec(6, 16, 2, _pair("5^2", "1^1 5^1"))
    with pytest.raises(ValueError, match="order must be positive"):
        SearchSpec(0, 16, 2, _pair("5^2", "1^1 5^1"))
    with pytest.raises(ValueError, match="olp sums must be"):
        SearchSpec(31, 16, 2, _pair("5^2", "6^1 1^1"))
    with pytest.raises(ValueError, match="perfect square"):
        SearchSpec(31, 15, 2, _pair("5^2", "1^1 5^1"))
    for t in (1, 0, -1):
        with pytest.raises(ValueError, match="multiplier base must be at least 2"):
            SearchSpec(31, 16, t, _pair("5^2", "1^1 5^1"))


def test_search_spec_bounds_the_assignment_count():
    # t = 64 fixes every residue mod 63: 63 orbits of length 1
    too_many = comb(63, 16) * comb(16, 10)
    with pytest.raises(ValueError, match=f"{too_many} orbit assignments exceed .* {MAX_ASSIGNMENTS}"):
        SearchSpec(63, 16, 64, _pair("1^10", "1^6"))
    # t = 62 = -1 (mod 63): 31 orbits {a, -a} of length 2
    with pytest.raises(ValueError, match=f"{comb(31, 8) * comb(8, 5)} orbit assignments"):
        SearchSpec(63, 16, 62, _pair("2^5", "2^3"))
    # either side of the bound, at weight 4
    assert comb(63, 4) * 4 > MAX_ASSIGNMENTS >= comb(41, 4) * 4
    assert SearchSpec(41, 4, 42, _pair("1^3", "1^1")).assignment_count == comb(41, 4) * 4
    with pytest.raises(ValueError, match="orbit assignments exceed"):
        SearchSpec(63, 4, 64, _pair("1^3", "1^1"))


def test_search_spec_bounds_the_orbit_masks():
    """942786 assignments, under MAX_ASSIGNMENTS, but one mask of 2^20 - 1
    bits per orbit of lengths 1, 2, 4, 5 and 20: about 6.4 GiB, refused
    before any orbit is listed."""
    n = 2**20 - 1
    pair = _pair("1^1 20^1", "2^1 4^2 5^1")
    counts = {ell: orbit_count(n, ell) for ell, _ in pair.demand}
    assert comb(counts[20], 1) * comb(counts[4], 2) * counts[5] * counts[2] == 942786
    orbits = sum(counts.values())
    assert orbits == 52388
    with pytest.raises(
        ValueError,
        match=f"^{orbits} orbit masks of {n} bits, {orbits * n} bits in all, "
        f"exceed the search bound of {MAX_MASK_BITS}$",
    ):
        SearchSpec(n, 36, 2, pair)
    # a pair that Z_n cannot host lists no orbit, so it holds no mask
    unhosted = SearchSpec(n, 36, 2, _pair("1^1 20^1", "3^1 12^1"))
    assert unhosted.assignment_count == 0
    assert exhaustive_search(unhosted).candidates_tested == 0


def test_assignment_count_is_computed_once(monkeypatch):
    """Each length's count is found once, at g = gcd(n, t^ell - 1), however
    often the spec and the search read assignment_count."""
    calls = []

    def counting(n, ell, t=2):
        calls.append((n, ell))
        return orbit_count(n, ell, t)

    # a cache of its own, empty: no count found by an earlier test is read
    monkeypatch.setattr("cwmat.orbits._gcd_orbit_count", lru_cache(maxsize=None)(counting))
    spec = _spec(63, "1^1 3^1 6^1", "6^1")
    assert exhaustive_search(spec).candidates_tested == spec.assignment_count
    assert sorted(calls) == [(1, 1), (7, 3), (63, 6)]


@pytest.mark.parametrize(
    "n,p,np_",
    [
        (31, "5^2", "1^1 5^1"),
        (63, "1^1 3^1 6^1", "6^1"),
        (21, "1^1 3^1 6^1", "6^1"),
        (315, "4^1 6^1", "2^1 4^1"),
    ],
)
def test_search_counts_match_table(n, p, np_):
    report = exhaustive_search(_spec(n, p, np_))
    assert (
        report.candidates_tested,
        len(report.solutions),
        len(report.classes),
    ) == BASE_SEARCH_COUNTS[n]


def test_search_at_31():
    report = exhaustive_search(_spec(31, "5^2", "1^1 5^1"))
    assert report.candidates_tested == 60
    assert len(report.solutions) == 12
    assert len(report.classes) == 2
    for row in report.solutions:
        assert verify_cw(row) == 16
        assert multiplier_shift(row, 2) == 0
        sets = row.support
        assert olp_of_set(set(sets), ModulusContext(31, 2)) == Olp.from_string("1^1 5^1 5^2")
    reps = [c.representative for c in report.classes]
    assert are_equivalent(reps[0], reps[1]) is None
    matches = {i for r in (W1, W2) for i, rep in enumerate(reps) if are_equivalent(rep, r)}
    assert matches == {0, 1}


def test_search_at_31_solutions_include_known_rows():
    report = exhaustive_search(_spec(31, "5^2", "1^1 5^1"))
    assert W1 in report.solutions
    assert W2 in report.solutions


def test_search_class_members_partition_solutions():
    report = exhaustive_search(_spec(31, "5^2", "1^1 5^1"))
    members = [m for c in report.classes for m in c.members]
    assert sorted(members, key=lambda r: r.coeffs) == sorted(
        report.solutions, key=lambda r: r.coeffs
    )
    for c in report.classes:
        assert c.representative == canonical_form(c.members[0])
        assert c.size == len(c.members)
        for m in c.members:
            assert are_equivalent(c.representative, m) is not None


def test_search_at_63():
    report = exhaustive_search(_spec(63, "1^1 3^1 6^1", "6^1"))
    assert report.candidates_tested == 144
    assert len(report.solutions) == 8
    assert len(report.classes) == 2


def test_search_at_21():
    report = exhaustive_search(_spec(21, "1^1 3^1 6^1", "6^1"))
    assert report.candidates_tested == 4
    assert len(report.solutions) == 2
    assert len(report.classes) == 1
    assert are_equivalent(report.classes[0].representative, W0_21) is not None


def test_search_builds_rows_only_for_hits(monkeypatch):
    built = []

    def record(n, P, N):
        built.append(from_sets(n, P, N))
        return built[-1]

    monkeypatch.setattr("cwmat.search.from_sets", record)
    report = exhaustive_search(_spec(63, "1^1 3^1 6^1", "6^1"))
    # each solution is built once: the first hit of each class by the scan,
    # which the derivation reuses, the other solutions by the derivation
    assert sorted(built) == sorted(report.solutions)
    assert report.candidates_tested > len(built) > 0


def test_search_confirms_each_hit_by_the_difference_multiset_equation(monkeypatch):
    monkeypatch.setattr("cwmat.search.cw_equation_holds", lambda P, N, n: False)
    _hits.cache_clear()  # hits that earlier searches cached would skip the check
    with pytest.raises(RuntimeError, match=r"disagree at n=31 on [-+0]{31}$"):
        exhaustive_search(_spec(31, "5^2", "1^1 5^1"))


def test_weight_zero_search_finds_the_zero_row():
    # |P| = |N| = 0: the one assignment is empty
    report = exhaustive_search(SearchSpec(7, 0, 2, _pair("", "")))
    zero = CirculantRow(7, (0,) * 7)
    assert (report.candidates_tested, report.solutions) == (1, (zero,))
    assert [c.representative for c in report.classes] == [zero]


def test_search_infeasible_order_returns_empty():
    # 35 has no orbits of length 5 or 6 under doubling
    report = exhaustive_search(_spec(35, "5^2", "1^1 5^1"))
    assert report.candidates_tested == 0
    assert report.solutions == ()


@pytest.mark.parametrize(
    "n,p,np_",
    [
        (31, "5^2", "1^1 5^1"),
        (21, "1^1 3^1 6^1", "6^1"),
        (63, "1^1 3^1 6^1", "6^1"),
        (45, "4^1 6^1", "2^1 4^1"),
        (105, "4^1 6^1", "2^1 4^1"),
        (315, "4^1 6^1", "2^1 4^1"),
    ],
)
def test_search_solutions_sorted_by_canonical_form(n, p, np_):
    spec = _spec(n, p, np_)
    distinct = {}
    for P, N in search_oracle.assignments(n, 2, spec.pair.p.parts, spec.pair.n.parts):
        row = from_sets(n, P, N)
        if verify_cw(row) == 16:
            row = normalize_sign(row)
            distinct.setdefault(row.coeffs, row)
    expected = sorted(distinct.values(), key=canonical_form)
    assert exhaustive_search(spec).solutions == tuple(expected)


def _per_row_report(spec: SearchSpec) -> SearchReport:
    """The search with every distinct hit canonicalized, classes keyed
    and members sorted as rows: the path before per-class reuse."""
    tested, distinct = 0, {}
    for P, N in search_oracle.assignments(spec.n, spec.t, spec.pair.p.parts, spec.pair.n.parts):
        tested += 1
        row = from_sets(spec.n, P, N)
        if verify_cw(row) == spec.weight:
            row = normalize_sign(row)
            distinct.setdefault(row.coeffs, row)
    groups = {}
    for row in distinct.values():
        rep = canonical_form(row, multiplier=spec.t)
        groups.setdefault(rep, (rep, []))[1].append(row)
    classes = tuple(
        EquivalenceClass(rep, tuple(sorted(rows)))
        for _, (rep, rows) in sorted(groups.items())
    )
    class_of = {m.coeffs: k for k, c in enumerate(classes) for m in c.members}
    solutions = sorted(distinct.values(), key=lambda r: class_of[r.coeffs])
    return SearchReport(spec, tested, tuple(solutions), classes)


@pytest.mark.parametrize(
    "spec",
    [
        _spec(63, "1^1 3^1 6^1", "6^1"),
        _spec(315, "1^1 3^1 6^1", "6^1"),
        _spec(341, "5^2", "1^1 5^1"),
        SearchSpec(13, 9, 3, _pair("3^2", "3^1")),
        SearchSpec(21, 4, 2, _pair("3^1", "1^1")),
    ],
)
def test_search_canonicalizes_once_per_class(monkeypatch, spec):
    expected = _per_row_report(spec)
    calls = []

    def counted(row, multiplier=None):
        calls.append(row)
        return canonical_form(row, multiplier=multiplier)

    monkeypatch.setattr("cwmat.search.canonical_form", counted)
    report = exhaustive_search(spec)
    assert report == expected
    assert len(report.solutions) > len(report.classes) > 0
    assert len(calls) <= len(report.classes)


@pytest.mark.parametrize(
    "n,weight,t,pairs",
    [(n, 16, 2, None) for n in (31, 63, 93)]
    + [(341, 16, 2, [_pair("5^2", "1^1 5^1")])]
    + [(n, 9, 3, None) for n in (13, 26)]
    + [(n, 4, 2, None) for n in (7, 21)],
)
def test_search_verdicts_match_every_lag(monkeypatch, n, weight, t, pairs):
    """Every candidate the search tests (each cross pair, or the listed
    ones) gets the verdict of the autocorrelation at every nonzero lag of
    the order the kernel was given, the pair's contraction order, which
    divides n. The kernel sees one assignment per unit class, so at most
    every assignment and at most every solution."""
    verdicts = []

    def recorded(n_, support, pm, nm, t_):
        verdict = _weighing(n_, support, pm, nm, t_)
        verdicts.append((n_, pm, nm, verdict))
        return verdict

    monkeypatch.setattr("cwmat.search._weighing", recorded)
    _hits.cache_clear()  # hits that earlier searches cached would skip the kernel
    tested = hits = 0
    for pair in pairs or cross_pairs(weight, t):
        report = exhaustive_search(SearchSpec(n, weight, t, pair))
        tested += report.candidates_tested
        hits += len(report.solutions)
    assert 0 < len(verdicts) <= tested
    assert 0 < sum(v for _, _, _, v in verdicts) <= hits
    for n_, pm, nm, verdict in verdicts:
        assert n % n_ == 0
        row = from_sets(n_, _bits(pm, n_), _bits(nm, n_))
        expected = all(periodic_autocorrelation(row, s) == 0 for s in range(1, n_))
        assert verdict == expected, row.to_string()


def test_a_search_without_hits_canonicalizes_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a search without hits must not canonicalize")

    for name in ("canonical_form", "_coset_leaders"):
        monkeypatch.setattr(f"cwmat.search.{name}", refuse)
    monkeypatch.setattr("cwmat.rows.units", refuse)
    hosted = _hosted_pairs(16, 2, gcd(45, _host_modulus(16, 2)))
    assert hosted
    for pair in hosted:
        report = exhaustive_search(SearchSpec(45, 16, 2, pair))
        assert report.candidates_tested > 0
        assert report.classes == ()


@pytest.mark.parametrize(
    "n,p,np_", [(n, p, np_) for (p, np_), orders in BASE_ORDER_CASES for n in orders]
)
def test_candidates_tested_counts_every_assignment(n, p, np_):
    spec = _spec(n, p, np_)
    tested = exhaustive_search(spec).candidates_tested
    assert tested == _oracle(spec).candidates_tested == spec.assignment_count


def _lead_filtered_oracle_assignments(spec: SearchSpec):
    """The oracle's assignments whose P side, at the P length with the most
    orbits, takes an orbit whose least element is 0 or divides n."""
    lengths = orbit_lengths(spec.n, spec.t)
    p_mults = spec.pair.p.multiplicities
    pinned = max(p_mults, key=lambda ell: lengths.count(ell) // ell, default=None)
    for P, N in search_oracle.assignments(spec.n, spec.t, spec.pair.p.parts, spec.pair.n.parts):
        if pinned is None or any(lengths[x] == pinned and (x == 0 or spec.n % x == 0) for x in P):
            yield tuple(P), tuple(N)


@pytest.mark.parametrize(
    "n,p,np_", [(n, p, np_) for (p, np_), orders in BASE_ORDER_CASES for n in orders]
)
def test_assignments_follow_the_product_order(n, p, np_):
    """The library lists the oracle's full product, in its order, less the
    assignments whose P side holds no lead orbit at the pinned length."""
    spec = _spec(n, p, np_)
    listed = list(_filtered(spec))
    assert [(P, N) for _, _, P, N in listed] == list(_lead_filtered_oracle_assignments(spec))
    assert 0 < len(listed) < spec.assignment_count
    for pm, nm, P, N in listed:
        assert (pm, nm) == (_mask(P), _mask(N))
        assert len(P) == len(set(P)) and len(N) == len(set(N))


def test_assignments_are_lazy_across_lengths():
    # t = 42 fixes every residue mod 41: C(41, 4) * 4 = 405080 assignments
    spec = SearchSpec(41, 4, 42, _pair("1^3", "1^1"))
    assert spec.assignment_count == 405080
    tracemalloc.start()
    try:
        first = next(_filtered(spec))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == (0b111, 0b1000, (0, 1, 2), (3,))
    assert peak < 5 * 2**20


@pytest.mark.parametrize("n", [35, 45, 63, 77, 93, 99, 135, 155, 189, 315, 341])
def test_merged_pair_classes_equal_classify_of_all_solutions(n):
    reports = [exhaustive_search(SearchSpec(n, 16, 2, pair)) for pair in cross_pairs(16, 2)]
    solutions = [row for report in reports for row in report.solutions]
    merged = _search_all_pairs(n, 16)
    classes = classify(solutions)
    assert merged == [c.representative for c in classes]
    # no class spans two pairs, which the derived rule relies on
    assert sum(len(report.classes) for report in reports) == len(merged)
    assert merged == sorted(set(merged))
    for c in classes:
        assert list(c.members) == sorted(c.members)
        assert all(canonical_form(m) == c.representative for m in c.members)
    assert sorted(m.coeffs for c in classes for m in c.members) == sorted(r.coeffs for r in solutions)


def test_cross_check_searches_exactly_the_pairs_z_n_hosts(monkeypatch):
    """Oracle: orbits listed one by one, not the closed-form counts."""
    real_search = exhaustive_search
    searched = []

    def record(spec):
        searched.append(spec.pair)
        return []

    monkeypatch.setattr("cwmat.search._class_representatives", record)
    for n in range(1, 342, 2):
        ctx = ModulusContext(n, 2)
        listed = {ell: len(orbits_of_length(ctx, ell)) for ell in range(1, 11)}
        hosted = [
            pair
            for pair in cross_pairs(16, 2)
            if all(
                listed[ell] >= need
                for ell, need in (Counter(pair.p.parts) + Counter(pair.n.parts)).items()
            )
        ]
        searched.clear()
        _search_all_pairs(n, 16)
        assert searched == hosted, f"n={n}"
        for pair in cross_pairs(16, 2):
            if pair not in hosted:
                assert real_search(SearchSpec(n, 16, 2, pair)).candidates_tested == 0


def _hosted_specs(weight: int, t: int, orders) -> list[SearchSpec]:
    """A spec for every pair that Z_n hosts, at every order n prime to t."""
    m = _host_modulus(weight, t)
    return [
        SearchSpec(n, weight, t, pair)
        for n in orders
        if gcd(n, t) == 1
        for pair in _hosted_pairs(weight, t, gcd(n, m))
    ]


@pytest.mark.parametrize(
    "weight,t,orders",
    [
        (16, 2, range(1, 700, 2)),
        (4, 2, range(1, 200, 2)),
        (4, 3, range(1, 60)),
        (9, 3, (13, 26, 39, 52, 65, 91, 104)),
    ],
)
def test_one_assignment_per_unit_class_keeps_every_class(weight, t, orders):
    """The search lists a subset of the assignments, yet finds the canonical
    representatives of every class of the oracle's full enumeration, and
    derives its candidates_tested, solutions and classes, order included:
    at every odd n < 700, the W = 16 base orders 21, 31, 45, 63, 105 and
    315 among them, at even orders and at t = 3."""
    specs = _hosted_specs(weight, t, orders)
    found = 0
    for spec in specs:
        oracle = _oracle(spec)
        expected = [CirculantRow(spec.n, rep) for rep, _ in oracle.classes]
        assert _class_representatives(spec) == expected, f"n={spec.n} {spec.pair}"
        assert search_oracle.report_of(exhaustive_search(spec)) == oracle, f"n={spec.n} {spec.pair}"
        found += len(oracle.solutions)
    assert found > 0



def _contraction_order(spec: SearchSpec) -> int:
    """G = lcm(gcd(n, t^ell - 1)) over the lengths ell the pair uses."""
    n, _, t, pair = spec
    return lcm(*(gcd(n, t**ell - 1) for ell, _, _ in _pair_lengths(pair)))


@pytest.mark.parametrize(
    "specs,least",
    [(_hosted_specs(16, 2, [n]), g) for n, g in ((155, 31), (341, 31), (405, 45), (765, 45), (1309, 77))]
    + [
        ([SearchSpec(35, 4, 2, _pair("3^1", "1^1"))], 7),
        ([SearchSpec(52, 9, 3, _pair("3^2", "3^1"))], 26),
    ],
)
def test_a_search_lifted_from_its_contraction_order_matches_the_oracle(specs, least):
    """The search enumerates each pair at its contraction order G and lifts
    the hits to n; its report equals the oracle's full enumeration at n
    for every pair hosted at orders where some G is below n."""
    assert min(_contraction_order(spec) for spec in specs) == least < specs[0].n
    for spec in specs:
        assert search_oracle.report_of(exhaustive_search(spec)) == _oracle(spec), str(spec.pair)


def test_classifications_enumerate_a_pair_once_per_contraction_order(monkeypatch):
    """(5^2, 1^1 5^1) has contraction order 31 at every order below, so the
    rule and the cross-checks of all five enumerate its assignments once."""
    pair = _pair("5^2", "1^1 5^1")
    enumerated = []

    def recorded(n, t, searched):
        enumerated.append((n, searched))
        return _levels(n, t, searched)

    monkeypatch.setattr("cwmat.search._levels", recorded)
    _hits.cache_clear()
    for n in (31, 93, 155, 279, 341):
        result = full_classification(16, n, cross_check=True)
        assert (result.count, result.cross_checked) == (2, True)
    assert [n for n, searched in enumerated if searched == pair] == [31]


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(31, 1, 32, _pair("1^1", "")),
        SearchSpec(7, 4, 8, _pair("1^3", "1^1")),
        SearchSpec(8, 4, 9, _pair("1^3", "1^1")),
    ],
)
def test_search_at_t_one_mod_n_matches_the_oracle(spec):
    """t = 1 (mod n) fixes every residue, so each unit image of a solution
    has n shifts that t fixes, and many units give one image."""
    oracle = _oracle(spec)
    assert search_oracle.report_of(exhaustive_search(spec)) == oracle
    assert len(oracle.solutions) > len(oracle.classes) > 0


def _t_fixed_images(rep: CirculantRow, spec: SearchSpec) -> int:
    """The number of (u, s), u a unit and s a shift, for which u*rep + s is
    fixed by t and has the pair's olp. t*(u*rep) + b = u*rep for the shifts
    b that _shifts finds, so u*rep + s is fixed by t exactly when
    (t - 1)*s is one of them; every s is tried."""
    n, t = spec.n, spec.t
    lengths = orbit_lengths(n, t)
    olp = [Counter({ell: ell * m for ell, m in side.multiplicities.items()}) for side in spec.pair]
    count = 0
    for u in units(n):
        image = apply_transform(rep, EquivalenceWitness(0, u))
        fixing = set(_shifts(image, t, image))
        sets = describing_sets(image)
        for s in range(n):
            if (t - 1) * s % n in fixing:
                count += [
                    Counter(lengths[(x + s) % n] for x in side) for side in sets
                ] == olp
    return count


@pytest.mark.parametrize(
    "spec",
    [_spec(n, p, np_) for (p, np_), orders in BASE_ORDER_CASES for n in orders]
    + [SearchSpec(26, 9, 3, _pair("3^2", "3^1"))],
)
def test_orbit_stabilizer_counts_each_class_as_the_oracle_does(spec):
    """Counted a second way, a class has (number of (u, s) whose image of its
    representative is a solution) / (number of (u, s) that fix it)
    solutions, the oracle's count, at every W = 16 base order and at
    (9, 3), n = 26, where gcd(t - 1, n) = 2."""
    oracle = _oracle(spec)
    reps = _class_representatives(spec)
    assert reps == [CirculantRow(spec.n, rep) for rep, _ in oracle.classes]
    for rep, (_, members) in zip(reps, oracle.classes):
        stabilizer = sum(len(_shifts(rep, u, rep)) for u in units(spec.n))
        assert _t_fixed_images(rep, spec) == len(members) * stabilizer


def test_a_search_leaves_no_garbage_for_the_collector():
    """The assignment generator holds no reference cycle, so with the cyclic
    collector off a search leaves nothing that only gc.collect() frees."""
    gc.collect()
    gc.disable()
    try:
        report = exhaustive_search(_spec(63, "1^1 3^1 6^1", "6^1"))
        assert len(report.classes) == 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_one_assignment_per_unit_class_tests_fewer_assignments(monkeypatch):
    tested = []

    def counted(*args):
        tested.append(args)
        return _weighing(*args)

    monkeypatch.setattr("cwmat.search._weighing", counted)
    _hits.cache_clear()
    specs = _hosted_specs(16, 2, [315])
    assert sum(spec.assignment_count for spec in specs) == 666
    assert len(_search_all_pairs(315, 16)) == 2
    assert 0 < len(tested) < 666


@pytest.mark.parametrize("weight,t", [(16, 2), (4, 3)])
def test_hosted_pairs_at_every_divisor_of_m_match_a_direct_filter(weight, t):
    pairs = feasible_pairs(weight, t)
    lengths = {ell for pair in pairs for ell, _ in pair.demand}
    for g in divisors(_host_modulus(weight, t)):
        counts = {ell: orbit_count(g, ell, t) for ell in lengths}
        expected = tuple(
            pair for pair in pairs if all(counts[ell] >= need for ell, need in pair.demand)
        )
        assert _hosted_pairs(weight, t, g) == expected, f"g={g}"


@pytest.mark.parametrize(
    "weight,t,orders",
    [
        (16, 2, range(1, 4002, 2)),
        (4, 3, [n for n in range(1, 1001) if n % 3]),
        (9, 3, [n for n in range(1, 1001) if n % 3]),
    ],
)
def test_hosted_pairs_keyed_on_gcd_with_m_match_the_per_order_counts(weight, t, orders):
    """Oracle: the closed-form counts at n itself, not at gcd(n, M)."""
    pairs = cross_pairs(weight, t)
    lengths = {ell for pair in pairs for ell, _ in pair.demand}
    m = _host_modulus(weight, t)
    _hosted_pairs.cache_clear()
    for n in orders:
        counts = {ell: orbit_count(n, ell, t) for ell in lengths}
        expected = tuple(
            pair for pair in pairs if all(counts[ell] >= need for ell, need in pair.demand)
        )
        assert _hosted_pairs(weight, t, gcd(n, m)) == expected, f"n={n}"
    assert _hosted_pairs.cache_info().currsize == len({gcd(n, m) for n in orders})
    assert _hosted_pairs.cache_info().currsize <= len(divisors(m))


@pytest.mark.parametrize("weight,t,base", [(4, 2, 7), (9, 3, 13)])
def test_derived_rule_matches_the_search_beyond_weight_16(weight, t, base):
    """Classes exist exactly when 7 | n (W = 4, Eades-Hain) or, among n
    prime to 3, 13 | n (W = 9, Ang-Arasu-Ma-Strassler)."""
    m = _host_modulus(weight, t)
    for n in range(1, 400, 2):
        if gcd(n, t) != 1:
            continue
        reps = [lift(r, n // r.n) for r in _rule_bases(weight, t, gcd(n, m))]
        found = _search_all_pairs(n, weight, t)
        assert (len(reps) > 0) == (n % base == 0), f"n={n}"
        # the lifts are canonical as they stand: equal rows, not equal forms
        assert sorted(reps) == found, f"n={n}"


@pytest.mark.parametrize(
    "weight,t,orders,base", [(4, 3, range(1, 61), 4), (9, 3, (13, 26, 52, 65, 91, 104), 13)]
)
def test_derived_rule_matches_the_search_at_t_3_at_every_order(weight, t, orders, base):
    """At t = 3 two points of equal orbit length can differ by a nonzero
    fixed point, at even orders too: W = 4 has a class exactly when 4 | n
    (n < 60 prime to 3), which pruning once lost."""
    m = _host_modulus(weight, t)
    for n in orders:
        if gcd(n, t) != 1:
            continue
        reps = [lift(r, n // r.n) for r in _rule_bases(weight, t, gcd(n, m))]
        found = _search_all_pairs(n, weight, t)
        assert (len(found) > 0) == (n % base == 0), f"n={n}"
        assert sorted(reps) == found, f"n={n}"


@pytest.mark.parametrize(
    "weight,t,terms",
    [
        (16, 2, {21: 1, 31: 2, 63: 1}),
        (4, 2, {7: 1}),
        (4, 3, {4: 1}),
        (9, 3, {13: 2, 26: 2}),
        (9, 2, {}),
    ],
)
def test_classification_rule_is_the_moebius_inversion_of_the_class_counts(weight, t, terms):
    """Oracle: with f(d) the classes at every n with gcd(n, M) = d, the
    terms are the nonzero sums of mu(b/e) f(e) over e | b, for b | M."""
    assert classification_rule(weight, t) == sorted(terms.items())
    divs = divisors(_host_modulus(weight, t))
    primes: list[int] = []
    for d in divs[1:]:  # the least divisor that no earlier prime divides is prime
        if all(d % p for p in primes):
            primes.append(d)

    def mu(k: int) -> int:
        if any(k % (p * p) == 0 for p in primes):
            return 0
        return (-1) ** sum(k % p == 0 for p in primes)

    count = {d: len(_rule_bases(weight, t, d)) for d in divs}
    inverted = {b: sum(mu(b // e) * count[e] for e in divs if b % e == 0) for b in divs}
    assert {b: c for b, c in inverted.items() if c} == terms



def _classes_up_to_negation(rows) -> dict[CirculantRow, tuple[CirculantRow, ...]]:
    """Sorted members by the lesser canonical form of row and -row: the
    rows grouped up to sign as well as shift and substitution."""
    groups: dict[CirculantRow, list[CirculantRow]] = {}
    for row in rows:
        groups.setdefault(min(canonical_form(row), canonical_form(negate(row))), []).append(row)
    return {rep: tuple(sorted(members)) for rep, members in groups.items()}


@pytest.mark.parametrize(
    "weight,t,n",
    [(16, 2, n) for n in (21, 31, 63, 93)] + [(4, 2, 7), (4, 2, 21), (9, 3, 13), (9, 3, 26)],
)
def test_classes_up_to_negation_are_the_same_classes(weight, t, n):
    """Equivalence keeps |P| and |N|, which differ at a square weight, so no
    row is equivalent to its negation: grouping up to sign as well keeps the
    search's classes and changes only the representative, to its negation's
    canonical form (more -1 than +1)."""
    classes = 0
    for pair in _hosted_pairs(weight, t, gcd(n, _host_modulus(weight, t))):
        report = exhaustive_search(SearchSpec(n, weight, t, pair))
        rep_of = {c.members: c.representative for c in report.classes}
        negated = _classes_up_to_negation(report.solutions)
        assert sorted(negated.values()) == sorted(rep_of), f"n={n} {pair}"
        for rep, members in negated.items():
            assert rep == canonical_form(negate(rep_of[members]))
            assert rep.coeffs.count(-1) > rep.coeffs.count(1)
        classes += len(negated)
    assert classes > 0


@pytest.mark.parametrize("n,weight,t", [(9, 16, 3), (15, 16, 3), (21, 4, 3), (6, 16, 2)])
def test_search_all_pairs_refuses_a_multiplier_that_is_not_a_unit(n, weight, t):
    # gcd(n, M) is always a unit, so this is checked on n itself
    with pytest.raises(ValueError, match=f"t={t} is not a unit mod {n}"):
        _search_all_pairs(n, weight, t)


def test_search_all_pairs_builds_a_context_only_to_refuse(monkeypatch):
    """No order is validated by building its context; only the orbit lister
    builds one, once per (G, t, ell), so the first search warms it."""
    assert len(_search_all_pairs(63, 16)) == 2

    def refuse(n, t):
        raise AssertionError(f"built ModulusContext({n}, {t})")

    monkeypatch.setattr("cwmat.search.ModulusContext", refuse)
    assert len(_search_all_pairs(63, 16)) == 2
    with pytest.raises(AssertionError, match="built"):
        _search_all_pairs(9, 16, 3)


def test_an_order_with_no_class_and_no_hosted_pair_searches_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("searched")

    monkeypatch.setattr("cwmat.search._search_all_pairs", refuse)
    # Z_3, Z_5 and Z_2001 host no feasible pair, and 21, 31 divide none of them
    for n in (3, 5, 2001):
        assert not _hosted_pairs(16, 2, gcd(n, _host_modulus(16, 2)))
        assert full_classification(16, n, cross_check=True) == (n, 16, (), True)


def test_the_cross_check_searches_the_hosted_pairs_when_the_rule_predicts_none(monkeypatch):
    """A rule that predicts no class skips no search that Z_n hosts: the
    two classes at 31 are found and named."""
    monkeypatch.setattr("cwmat.search._rule_bases", lambda weight, t, g: ())
    with pytest.raises(RuntimeError, match="rule predicts 0 classes at n=31, search found 2"):
        full_classification(16, 31, cross_check=True)


def test_assignments_list_no_orbit_for_a_pair_z_n_cannot_host(monkeypatch):
    def refuse(ctx, ell):
        raise AssertionError(f"listed orbits of length {ell} at n={ctx.n}")

    monkeypatch.setattr("cwmat.search.orbits_of_length", refuse)
    _orbits.cache_clear()
    # 35 has no orbits of length 5 under doubling
    report = exhaustive_search(_spec(35, "5^2", "1^1 5^1"))
    assert (report.candidates_tested, report.solutions) == (0, ())
    with pytest.raises(AssertionError, match="listed orbits"):
        exhaustive_search(_spec(31, "5^2", "1^1 5^1"))


def _record_listings(monkeypatch) -> list[tuple[int, int]]:
    """(n, ell) of each orbit list that the search lists through
    cwmat.search.orbits_of_length, the binding the benchmark's tracer wraps,
    from empty orbit and hit caches."""
    listed = []

    def record(ctx, ell):
        listed.append((ctx.n, ell))
        return orbits_of_length(ctx, ell)

    monkeypatch.setattr("cwmat.search.orbits_of_length", record)
    _orbits.cache_clear()
    _hits.cache_clear()
    return listed


def test_the_search_builds_orbit_masks_only_at_the_contraction_order(monkeypatch):
    """At n = 93 the pair's contraction order is 31: the assignments read
    the orbits and their masks there, and exhaustive_search lists the orbits
    at 93 without masks."""
    listed = _record_listings(monkeypatch)
    masked = []

    def levels(n, t, pair):
        masked.append(n)
        return _levels(n, t, pair)

    monkeypatch.setattr("cwmat.search._levels", levels)
    assert len(exhaustive_search(_spec(93, "5^2", "1^1 5^1")).classes) == 2
    assert masked == [31]
    assert listed == [(31, 1), (31, 5), (93, 1), (93, 5)]


def test_a_cross_check_lists_its_orbits_through_the_traced_binding(monkeypatch):
    """A cross-checked classification lists the orbits of each length a
    searched pair uses once, through cwmat.search.orbits_of_length, at the
    pair's contraction order: that of every pair Z_n hosts, and those of
    the rule's searches at the base orders when they are not yet cached."""
    n = 93
    cross = {
        (_contraction_order(spec), ell)
        for spec in _hosted_specs(16, 2, [n])
        if spec.assignment_count
        for ell, _, _ in _pair_lengths(spec.pair)
    }
    rule = {
        (_contraction_order(SearchSpec(lcm(*dividing), 16, 2, pair)), ell)
        for pair, orders in _rule_pairs(16, 2)
        if (dividing := [b for b in orders if n % b == 0])
        for ell, _, _ in _pair_lengths(pair)
    }
    listed = _record_listings(monkeypatch)
    assert full_classification(16, n, cross_check=True).count == 2
    assert listed and len(listed) == len(set(listed))
    assert cross <= set(listed) <= cross | rule
    assert any(G < n for G, _ in cross)


def test_the_orbit_lists_requested_fit_their_cache(monkeypatch):
    """Over the cross-check of every odd n <= 2001, _orbits at its maxsize
    lists no orbit list twice: it misses once per distinct (G, t, ell), as
    an unbounded cache would."""
    requests = []

    def record(n, t, ell):
        requests.append((n, t, ell))
        return _orbits(n, t, ell)

    monkeypatch.setattr("cwmat.search._orbits", record)
    _orbits.cache_clear()
    _hits.cache_clear()
    for n in range(1, 2002, 2):
        full_classification(16, n, cross_check=True)
    info = _orbits.cache_info()
    assert info.maxsize is not None
    assert info.misses == len(set(requests)) > 0


def test_classify_groups_by_equivalence():
    rows = [W1, W2, canonical_form(W1)]
    classes = classify(rows)
    assert len(classes) == 2
    sizes = sorted(c.size for c in classes)
    assert sizes == [1, 2]
    assert classify([]) == ()
    with pytest.raises(ValueError, match="mixed orders"):
        classify([W1, W0_21])


def test_classify_up_to_negation():
    # negation is no equivalence: classify keeps a row and its negation apart
    assert len(classify([W1, negate(W1)])) == 2
    assert len(_classes_up_to_negation([W1, negate(W1)])) == 1


def test_base_orders_examples():
    for (p, n), expected in BASE_ORDER_CASES:
        assert base_orders(_pair(p, n)) == list(expected)


def test_base_orders_agree_with_enumerated_counts(monkeypatch):
    def enumerated_count(n, ell, t):
        return len(orbits_of_length(ModulusContext(n, t), ell))

    pairs = feasible_pairs(16)
    expected = [base_orders(q) for q in pairs]
    # base_orders counts through hosting_divisors, which calls orbit_count
    monkeypatch.setattr("cwmat.orbits.orbit_count", enumerated_count)
    assert [base_orders(q) for q in pairs] == expected


def test_base_orders_rejects_large_lengths():
    with pytest.raises(ValueError, match="above 10"):
        base_orders(OlpPair(Olp((11,)), Olp((6,))))


def test_lift_examples():
    r = CirculantRow.from_string(KNOWN_CW_7_4)
    lifted = lift(r, 5)
    assert lifted.n == 35
    assert verify_cw(lifted) == 4
    assert set(lifted.support) == {5 * s for s in r.support}
    assert lift(r, 1) == r
    with pytest.raises(ValueError, match="positive"):
        lift(r, 0)


def test_lift_of_21_class_lands_in_63_search():
    report = exhaustive_search(_spec(63, "1^1 3^1 6^1", "6^1"))
    lifted = lift(W0_21, 3)
    assert lifted in report.solutions
    # and the final class at 63 is genuinely new
    assert are_equivalent(W1_63, lifted) is None


@given(
    st.integers(min_value=1, max_value=15).flatmap(
        lambda n: st.lists(
            st.sampled_from((-1, 0, 1)), min_size=n, max_size=n
        ).map(lambda cs: CirculantRow(n, tuple(cs)))
    ),
    st.integers(min_value=1, max_value=5),
)
def test_lift_preserves_weight_and_contracts_back(r, m):
    lifted = lift(r, m)
    assert verify_cw(lifted) == verify_cw(r)
    assert CirculantRow(r.n, lifted.coeffs[::m]) == r


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(st.sampled_from((-1, 0, 1)), min_size=n - 1, max_size=n - 1).flatmap(
            lambda cs: st.permutations([-1] + cs).map(lambda p: CirculantRow(n, p))
        )
    ),
    st.integers(min_value=1, max_value=5),
)
def test_lift_of_a_canonical_row_with_a_minus_one_is_canonical(r, m):
    """What lets the cross-check compare the rule's lifts with the search's
    forms as rows: a least equivalent of the lift has -1 at index 0, so its
    support lies on the multiples of m, where it is the lift of a least
    equivalent of the row."""
    lifted = lift(canonical_form(r), m)
    assert canonical_form(lifted) == lifted


def test_lift_of_a_canonical_row_without_a_minus_one_need_not_be_canonical():
    plus = CirculantRow.from_string("+")
    assert canonical_form(plus) == plus
    assert lift(plus, 3) == CirculantRow.from_string("+00")
    assert canonical_form(lift(plus, 3)) == CirculantRow.from_string("00+")


def test_class_contractible_examples():
    assert class_contractible(lift(W0_21, 3), 3)
    assert class_contractible(canonical_form(lift(W0_21, 3)), 3)
    assert not class_contractible(W1_63, 3)
    assert class_contractible(W1, 1)
    with pytest.raises(ValueError, match="divide"):
        class_contractible(W1, 2)


def test_full_classification_counts():
    assert full_classification(16, 35).count == 0
    res = full_classification(16, 21)
    assert res.count == 1
    assert res.cross_checked
    assert are_equivalent(res.classes[0], W0_21) is not None


def test_full_classification_by_rule_only():
    res = full_classification(16, 651)  # 651 = 3 * 7 * 31 = lcm(21, 93)
    assert res.count == 3
    assert not res.cross_checked
    assert full_classification(16, 1953).count == 4
    reps = list(res.classes)
    assert all(verify_cw(r) == 16 for r in reps)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert are_equivalent(reps[i], reps[j]) is None


def test_full_classification_lifts_the_base_classes_in_pair_order():
    def reps(d, p, np_):
        return [c.representative for c in exhaustive_search(_spec(d, p, np_)).classes]

    at_31 = reps(31, "5^2", "1^1 5^1")
    at_63 = reps(63, "1^1 3^1 6^1", "6^1")
    at_21 = reps(21, "1^1 3^1 6^1", "6^1")
    # 651 = 21 * 31 and 1953 = 63 * 31; at 63 the class of 21 is a lift
    assert full_classification(16, 651).classes == tuple(
        [lift(r, 21) for r in at_31] + [lift(r, 31) for r in at_21]
    )
    assert full_classification(16, 1953).classes == tuple(
        [lift(r, 63) for r in at_31] + [lift(r, 31) for r in at_63]
    )
    assert not class_contractible(at_63[0], 3)
    assert canonical_form(lift(at_21[0], 3), multiplier=2) == at_63[1]


@pytest.mark.parametrize("wrong", [(W1, W1), (W1, W2, W1)])
def test_cross_check_failure_names_both_sides(monkeypatch, wrong):
    monkeypatch.setattr("cwmat.search._rule_bases", lambda weight, t, g: wrong)
    with pytest.raises(RuntimeError) as exc:
        full_classification(16, 31)
    rule_side, search_side = str(exc.value).split("search class representatives")
    assert all(row.to_string() in rule_side for row in wrong)
    assert all(canonical_form(row).to_string() in search_side for row in (W1, W2))


def test_cross_check_failure_names_a_class_the_rule_lacks(monkeypatch):
    monkeypatch.setattr("cwmat.search._rule_bases", lambda weight, t, g: (canonical_form(W1),))
    with pytest.raises(RuntimeError) as exc:
        full_classification(16, 31)
    message = str(exc.value)
    assert "rule representatives with no search class: [none]" in message
    missing = canonical_form(W2).to_string()
    assert f"search classes with no rule representative: [{missing}]" in message
    assert message.count("search class representatives") == 1


def test_cross_check_refuses_an_equivalent_rule_row_that_is_not_canonical(monkeypatch):
    """The cross-check compares rows, not their forms: W1 is equivalent to
    a class found at 31 but is not its canonical form, so it is named."""
    assert canonical_form(W1) != W1 and canonical_form(W2) == W2
    monkeypatch.setattr("cwmat.search._rule_bases", lambda weight, t, g: (W1, W2))
    with pytest.raises(RuntimeError) as exc:
        full_classification(16, 31)
    message = str(exc.value)
    assert f"rule representatives with no search class: [{W1.to_string()}]" in message
    missing = canonical_form(W1).to_string()
    assert f"search classes with no rule representative: [{missing}]" in message


@pytest.fixture
def fresh_rule():
    """The rule's caches, empty before and after the test."""
    _rule_bases.cache_clear()
    _rule_pairs.cache_clear()
    yield
    _rule_bases.cache_clear()
    _rule_pairs.cache_clear()


def test_the_rule_prunes_once_and_finds_base_orders_once_per_survivor(monkeypatch, fresh_rule):
    calls = Counter()

    def counted(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    monkeypatch.setattr("cwmat.search.prune", counted("prune", prune))
    monkeypatch.setattr("cwmat.search.base_orders", counted("base_orders", base_orders))
    counts = [full_classification(16, n, cross_check=False).count for n in range(1, 2002, 2)]
    assert sum(counts) > 0
    assert calls == {"prune": 1, "base_orders": 3}


def test_a_hosting_fault_does_not_reach_the_rule(monkeypatch, fresh_rule):
    """The rule does not read the cross-check's hosting: when that drops
    the pair of both classes at 31, the rule still predicts them and the
    cross-check fails instead of agreeing on none."""
    dropped = _pair("5^2", "1^1 5^1")
    real = _hosted_pairs
    monkeypatch.setattr(
        "cwmat.search._hosted_pairs",
        lambda weight, t, g: tuple(p for p in real(weight, t, g) if p != dropped),
    )
    with pytest.raises(RuntimeError) as exc:
        full_classification(16, 31, cross_check=True)
    reps = [c.representative for c in exhaustive_search(_spec(31, "5^2", "1^1 5^1")).classes]
    assert len(reps) == 2
    named = ", ".join(r.to_string() for r in reps)
    assert f"rule representatives with no search class: [{named}]" in str(exc.value)
    assert "search classes with no rule representative: [none]" in str(exc.value)


def test_full_classification_refuses_classes_over_its_character_bound(monkeypatch):
    """The classes are bounded before any is lifted: at n = 420000021
    (63 | n) two classes would hold 840000042 sign characters."""

    def refuse(row, m):
        raise AssertionError("lifted a class over the bound")

    monkeypatch.setattr("cwmat.search.lift", refuse)
    with pytest.raises(
        ValueError,
        match="^the 2 classes at n=420000021 hold 840000042 sign characters, "
        "over the bound of 33554432$",
    ):
        full_classification(16, 420000021, cross_check=False)
    monkeypatch.undo()
    # and in a child under a 1.5 GB address-space cap (ulimit -v 1500000):
    # the refusal, not a MemoryError
    code = (
        "from cwmat import full_classification\n"
        "try: full_classification(16, 420000021, cross_check=False)\n"
        "except ValueError as e: print(e)"
    )
    proc = run_python("-c", code, cap_kib=1_500_000, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "the 2 classes at n=420000021 hold 840000042 sign characters, "
        "over the bound of 33554432\n"
    )
    # two classes of 31 entries fit a bound of 62, those of 93 do not
    monkeypatch.setattr("cwmat.search.MAX_CLASSIFY_CHARS", 62)
    assert full_classification(16, 31).count == 2
    with pytest.raises(ValueError, match="the 2 classes at n=93 hold 186 sign characters"):
        full_classification(16, 93)


def test_full_classification_validates():
    with pytest.raises(ValueError, match="weight 16"):
        full_classification(9, 21)
    with pytest.raises(ValueError, match="odd"):
        full_classification(16, 14)
