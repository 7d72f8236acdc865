"""End-to-end checks for the weight-16 classification pipeline.

One test per headline claim, each with an explicit wall-clock budget.
The five property blocks in criterion 9 count their cases and insist on
at least 200 apiece.
"""
from __future__ import annotations

import random
import time
from math import gcd, lcm

from cwmat import (
    CirculantRow,
    EquivalenceWitness,
    Olp,
    OlpPair,
    SearchSpec,
    are_equivalent,
    canonical_form,
    classification_rule,
    cw_equation_holds,
    describing_sets,
    diff_length_candidates,
    exhaustive_search,
    feasible_pairs,
    from_sets,
    full_classification,
    lift,
    multiplier_shift,
    prune,
    survivors,
    units,
    verify_cw,
)
from cwmat.pruning import cross_pairs
from cwmat.rows import apply_transform
from cwmat.search import _rule_pairs, classify
from golden import (
    CLASS_COUNTS_UPTO_105,
    COUNTING_SURVIVOR_INDICES,
    EXISTENCE_SURVIVOR_INDICES,
    FEASIBLE_PAIRS_16,
    KNOWN_COUNTING_WITNESSES,
    KNOWN_CW_7_4,
    KNOWN_CW_31_16,
    KNOWN_REJECTION_WITNESSES,
    RULE_TERMS,
    W0_21_N,
    W0_21_P,
    W1_63_N,
    W1_63_P,
    W1_31_N,
    W1_31_P,
    W2_31_N,
    W2_31_P,
)
from kronecker_oracle import conjugate_to_circulant, crt_product, weighing_weight
from orbit_lister import orbit_lengths, t_orbits
from row_reference import class_contractible, normalize_sign
import search_oracle

W1 = from_sets(31, W1_31_P, W1_31_N)
W2 = from_sets(31, W2_31_P, W2_31_N)
W0_21 = from_sets(21, W0_21_P, W0_21_N)


def _oracle_matches(report) -> bool:
    """Whether the library's report is the oracle's full enumeration of
    the same spec, order included."""
    spec = report.spec
    oracle = search_oracle.search(spec.n, spec.t, spec.pair.p.parts, spec.pair.n.parts)
    return search_oracle.report_of(report) == oracle


class _budget:
    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeds budget {self.limit:.0f}s"
            )


def _spec(n: int, p: str, np_: str) -> SearchSpec:
    return SearchSpec(n, 16, 2, OlpPair(Olp.from_string(p), Olp.from_string(np_)))


def test_criterion_01_verification_of_known_rows():
    """Known rows verify with the right weight; a broken row does not."""
    with _budget(1.0):
        assert verify_cw(CirculantRow.from_string(KNOWN_CW_7_4)) == 4
        row31 = CirculantRow.from_string(KNOWN_CW_31_16)
        assert verify_cw(row31) == 16
        assert multiplier_shift(row31, 2) == 0
        assert verify_cw(CirculantRow.from_string("++00000")) is None


def test_criterion_02_feasible_pair_table():
    """Exactly the 41 cap-feasible olp pairs, in table order."""
    with _budget(1.0):
        pairs = feasible_pairs(16)
        assert tuple((str(q.p), str(q.n)) for q in pairs) == FEASIBLE_PAIRS_16


def test_criterion_03_existence_prune():
    """Existence pruning leaves the known 11 pairs; every cited cross
    witness fires with its cited forced lengths."""
    with _budget(1.0):
        reports = prune(feasible_pairs(16), level="existence")
        accepted = {i for i, r in enumerate(reports, 1) if r.verdict == "accepted"}
        assert accepted == EXISTENCE_SURVIVOR_INDICES
        for idx, ((k, l), lengths) in KNOWN_REJECTION_WITNESSES.items():
            fired = {(w.k, w.l): frozenset(w.lengths) for w in reports[idx - 1].witnesses}
            assert fired.get((k, l)) == lengths, f"pair {idx}"
        # headline cases: first pair forces length 10, last pair 15 or 30
        assert KNOWN_REJECTION_WITNESSES[1] == ((5, 2), frozenset({10}))
        assert KNOWN_REJECTION_WITNESSES[41] == ((10, 6), frozenset({15, 30}))


def test_criterion_04_counting_prune():
    """Counting bounds cut the survivors to 3, via 48 > 24 forced
    length-12 differences and 30 > 12 forced length-3 differences."""
    with _budget(1.0):
        reports = prune(feasible_pairs(16))
        accepted = tuple(i for i, r in enumerate(reports, 1) if r.verdict == "accepted")
        assert accepted == COUNTING_SURVIVOR_INDICES
        assert [str(p) for p in survivors(reports)] == [
            "(4^1 6^1, 2^1 4^1)",
            "(5^2, 1^1 5^1)",
            "(1^1 3^1 6^1, 6^1)",
        ]
        for idx, (length, lo, hi) in KNOWN_COUNTING_WITNESSES.items():
            counting = {
                (w.length, w.min_count, w.max_count)
                for w in reports[idx - 1].witnesses
                if getattr(w, "direction", "") == "delta>delta_bar"
            }
            assert (length, lo, hi) in counting, f"pair {idx}"


def test_criterion_05_search_at_31():
    """60 candidates, 12 solutions, exactly the two known classes, as the
    oracle's full enumeration finds them."""
    with _budget(10.0):
        report = exhaustive_search(_spec(31, "5^2", "1^1 5^1"))
        assert _oracle_matches(report)
        assert report.candidates_tested == 60
        assert len(report.solutions) == 12
        assert len(report.classes) == 2
        reps = [c.representative for c in report.classes]
        hits = []
        for rep in reps:
            matched = [w for w in (W1, W2) if are_equivalent(rep, w) is not None]
            assert len(matched) == 1
            hits.append(matched[0])
        assert {id(h) for h in hits} == {id(W1), id(W2)}
        assert are_equivalent(W1, W2) is None


def test_criterion_06_search_at_63():
    """8 solutions in 2 classes; exactly one class contracts by 3 onto
    the unique order-21 class."""
    with _budget(30.0):
        report = exhaustive_search(_spec(63, "1^1 3^1 6^1", "6^1"))
        assert _oracle_matches(report)
        assert report.candidates_tested == 144
        assert len(report.solutions) == 8
        assert len(report.classes) == 2
        contractible = [
            c for c in report.classes if class_contractible(c.representative, 3)
        ]
        assert len(contractible) == 1
        aligned = [
            m for m in contractible[0].members if all(s % 3 == 0 for s in m.support)
        ]
        # the support spans 3Z_63 exactly, and the row is the lift of its
        # every third entry
        assert gcd(63, *aligned[0].support) == 3
        base = CirculantRow(21, aligned[0].coeffs[::3])
        assert lift(base, 3) == aligned[0]
        assert verify_cw(base) == 16
        assert are_equivalent(base, W0_21) is not None
        other = next(
            c for c in report.classes if not class_contractible(c.representative, 3)
        )
        assert are_equivalent(other.representative, lift(W0_21, 3)) is None


def test_criterion_07_search_at_315():
    """The remaining candidate order admits no solution at all: none of the
    oracle's 54 assignments is a weighing row."""
    with _budget(120.0):
        report = exhaustive_search(_spec(315, "4^1 6^1", "2^1 4^1"))
        assert _oracle_matches(report)
        assert report.candidates_tested == 54
        assert report.solutions == ()
        assert report.classes == ()


def test_criterion_08_classification_matches_exhaustive_search():
    """Rule-based classification equals a from-scratch search over every
    feasible olp pair, for every odd order up to 105: the oracle's full
    enumeration, which the library's search must also reproduce; beyond
    that the divisor counting rule alone gives 651 -> 3 and 1953 -> 4."""
    with _budget(300.0):
        for n in range(1, 106, 2):
            res = full_classification(16, n)
            expected = CLASS_COUNTS_UPTO_105.get(n, 0)
            assert res.count == expected, f"n={n}"
            assert res.cross_checked
            rows = []
            for pair in cross_pairs(16):
                report = exhaustive_search(SearchSpec(n, 16, 2, pair))
                assert _oracle_matches(report), f"n={n} {pair}"
                rows.extend(report.solutions)
            independent = classify(rows)
            assert len(independent) == res.count, f"n={n}"
            for rep in res.classes:
                matches = [
                    c for c in independent if are_equivalent(rep, c.representative)
                ]
                assert len(matches) == 1, f"n={n}"
        assert full_classification(16, 651).count == 3
        assert full_classification(16, 1953).count == 4


def test_criterion_08b_cross_check_every_odd_order_up_to_1001():
    """The rule and the from-scratch search agree on every odd n <= 1001."""
    with _budget(300.0):
        for n in range(1, 1002, 2):
            res = full_classification(16, n, cross_check=True)
            expected = 2 * (n % 31 == 0) + (n % 63 == 0) + (n % 21 == 0)
            assert res.count == expected, f"n={n}"
            assert res.cross_checked


def test_criterion_08c_cross_check_multiples_of_21_and_31_up_to_4000():
    """The rule and the from-scratch search agree on every odd n <= 4000
    that has classes, that is every odd multiple of 21 or 31."""
    with _budget(300.0):
        for n in range(1, 4001, 2):
            if n % 21 and n % 31:
                continue
            res = full_classification(16, n, cross_check=True)
            expected = 2 * (n % 31 == 0) + (n % 63 == 0) + (n % 21 == 0)
            assert res.count == expected, f"n={n}"
            assert res.cross_checked


def _transformed_solutions(seed: int = 9):
    """Every base-search solution under ten seeded equivalence moves."""
    rng = random.Random(seed)
    rows = []
    for n, p, np_ in ((31, "5^2", "1^1 5^1"), (63, "1^1 3^1 6^1", "6^1"), (21, "1^1 3^1 6^1", "6^1")):
        rows.extend(exhaustive_search(_spec(n, p, np_)).solutions)
    assert len(rows) == 22
    cases = []
    for row in rows:
        us = units(row.n)
        for _ in range(10):
            w = EquivalenceWitness(rng.randrange(row.n), rng.choice(us))
            cases.append(apply_transform(row, w))
    return cases


def test_criterion_09a_multiplier_presence():
    """Every transform of every found solution still admits multiplier 2."""
    cases = _transformed_solutions()
    assert len(cases) >= 200
    for row in cases:
        assert multiplier_shift(row, 2) is not None


def test_criterion_09b_difference_multiset_equation():
    """The difference multiset equation holds on every transformed solution."""
    cases = _transformed_solutions()
    assert len(cases) >= 200
    for row in cases:
        sets = describing_sets(row)
        assert cw_equation_holds(sets.P, sets.N, row.n)
        assert verify_cw(row) == 16


def test_criterion_09c_difference_length_candidates_sound():
    """For every odd order below 1000, every length realized by an
    inter-orbit difference is among the predicted candidates."""
    checked = 0
    for n in range(3, 1000, 2):
        table = orbit_lengths(n, 2)
        orbits = t_orbits(n, 2)
        for A in orbits:
            for B in orbits:
                realized = {table[(x - B[0]) % n] for x in A if (x - B[0]) % n}
                cand = diff_length_candidates(len(A), len(B))
                assert realized <= cand, (n, A[0], B[0])
                checked += 1
    assert checked >= 200


def test_criterion_09d_conjugation_equals_lift():
    """Interleaving a block diagonal of circulants is the lifted circulant."""
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        n = rng.randrange(1, 32)
        m = rng.randrange(1, 8)
        row = CirculantRow(n, tuple(rng.choice((-1, 0, 1)) for _ in range(n)))
        assert conjugate_to_circulant(row.coeffs, m) == lift(row, m).coeffs
        assert verify_cw(lift(row, m)) == verify_cw(row)
        checked += 1
    assert checked >= 200


def test_criterion_09e_describing_set_sizes():
    """Transformed solutions keep |P| = 10 and |N| = 6 after sign
    normalization."""
    cases = _transformed_solutions()
    assert len(cases) >= 200
    for row in cases:
        sets = describing_sets(normalize_sign(row))
        assert len(sets.P) == 10
        assert len(sets.N) == 6


def test_criterion_10_lifts_stay_inequivalent():
    """The two order-31 classes remain inequivalent after lifting by
    3, 5, and 7."""
    r1, r2 = full_classification(16, 31).classes
    for m in (3, 5, 7):
        with _budget(120.0):
            l1, l2 = lift(r1, m), lift(r2, m)
            assert verify_cw(l1) == 16
            assert verify_cw(l2) == 16
            assert are_equivalent(l1, l2) is None


def test_criterion_11_kronecker_products_are_classified():
    """Each class at 21, 31 and 63 times a CW(m, 1), for every odd m
    coprime to its order with mn <= 2000, is a CW(mn, 16) that the
    classification holds: no Kronecker product escapes it."""
    w21 = W0_21.coeffs
    classes = (w21, W1.coeffs, W2.coeffs, conjugate_to_circulant(w21, 3),
               from_sets(63, W1_63_P, W1_63_N).coeffs)
    forms = {}
    products = 0
    with _budget(60.0):
        for a in classes:
            n = len(a)
            for m in range(1, 2000 // n + 1, 2):
                if gcd(m, n) != 1:
                    continue
                w = crt_product(a, (1,) + (0,) * (m - 1))
                assert weighing_weight(w) == 16, (n, m)
                if m * n not in forms:
                    res = full_classification(16, m * n)
                    forms[m * n] = {canonical_form(c) for c in res.classes}
                assert canonical_form(CirculantRow(m * n, w)) in forms[m * n], (n, m)
                products += 1
    assert products == 109


def test_criterion_12_the_rule_counts_the_classes_at_every_odd_order():
    """The terms 2*[31|n] + [63|n] + [21|n]: each b is an lcm of base
    orders of one surviving pair, and the c_b of the b dividing n sum to
    the classes at every odd n <= 2001."""
    with _budget(60.0):
        terms = classification_rule(16, 2)
        assert dict(terms) == RULE_TERMS
        for b, _ in terms:
            assert any(
                lcm(*(d for d in orders if b % d == 0)) == b for _, orders in _rule_pairs(16, 2)
            ), b
        for n in range(1, 2002, 2):
            expected = full_classification(16, n).count
            assert sum(c for b, c in terms if n % b == 0) == expected, f"n={n}"
