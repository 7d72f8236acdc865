from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cwmat import (
    CirculantRow,
    EquivalenceWitness,
    ResidueMultiset,
    adjoin,
    apply_transform,
    cw_equation_holds,
    delta,
    delta_bar,
    describing_sets,
    from_sets,
    units,
    verify_cw,
)
from golden import (
    KNOWN_CW_7_4_N,
    KNOWN_CW_7_4_P,
    KNOWN_CW_13_9_N,
    KNOWN_CW_13_9_P,
    W0_21_N,
    W0_21_P,
    W1_31_N,
    W1_31_P,
    W2_31_N,
    W2_31_P,
)

small_sets = st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1), max_size=6))
)

ternary_rows = st.integers(min_value=1, max_value=20).flatmap(
    lambda n: st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n).map(
        lambda cs: CirculantRow(n, tuple(cs))
    )
)


def test_multiset_construction_validates():
    with pytest.raises(ValueError, match="modulus must be positive"):
        ResidueMultiset.from_elements(0, [])
    # from_elements reduces mod n; only raw counts can be out of range
    assert ResidueMultiset.from_elements(5, [5]) == ResidueMultiset.from_elements(5, [0])
    with pytest.raises(ValueError, match="out of range"):
        ResidueMultiset(5, ((5, 1),))
    with pytest.raises(ValueError, match="negative multiplicity"):
        ResidueMultiset.from_counter(5, Counter({1: -1}))


def test_multiset_count_and_total():
    m = ResidueMultiset.from_elements(7, [1, 1, 6, 3])
    assert m.count(1) == 2
    assert m.count(6) == 1
    assert m.count(0) == 0
    assert m.total == 4
    assert m.negated() == ResidueMultiset.from_elements(7, [6, 6, 1, 4])


def test_delta_examples():
    assert delta({0}, 7).total == 0
    assert delta({0, 1}, 7) == ResidueMultiset.from_elements(7, [1, 6])
    d = delta({1, 2, 4, 8, 16}, 31)
    assert d.total == 20
    assert d.negated() == d


@given(small_sets)
def test_delta_counts_ordered_difference_pairs(case):
    n, X = case
    d = delta(X, n)
    assert d.total == len(X) * (len(X) - 1)
    assert d.negated() == d
    assert d.count(0) == 0


def test_delta_bar_examples():
    assert delta_bar(set(), set(), 7).total == 0
    assert delta_bar({0}, {1}, 7) == ResidueMultiset.from_elements(7, [1, 6])
    cross = delta_bar(KNOWN_CW_7_4_P, KNOWN_CW_7_4_N, 7)
    assert cross.total == 2 * len(KNOWN_CW_7_4_P) * len(KNOWN_CW_7_4_N)


@given(small_sets, small_sets)
def test_delta_bar_is_symmetric_and_negation_closed(a, b):
    n, P = a
    _, N = b
    N = {x % n for x in N}
    N = N - P
    d = delta_bar(P, N, n)
    assert d == delta_bar(N, P, n)
    assert d.negated() == d
    assert d.total == 2 * len(P) * len(N)


def test_adjoin_examples():
    a = ResidueMultiset.from_elements(10, [1, 1, 1, 2, 2])
    b = ResidueMultiset.from_elements(10, [2, 2, 2, 2, 3])
    joined = adjoin(a, b)
    assert joined.count(1) == 3
    assert joined.count(2) == 6
    assert joined.count(3) == 1
    assert joined.total == a.total + b.total
    assert adjoin(a, ResidueMultiset.from_elements(10, [])) == a
    with pytest.raises(ValueError, match="modulus mismatch"):
        adjoin(a, ResidueMultiset.from_elements(7, []))


@given(small_sets, small_sets)
def test_adjoin_commutes(a, b):
    n, X = a
    _, Y = b
    Y = {x % n for x in Y}
    assert adjoin(delta(X, n), delta(Y, n)) == adjoin(delta(Y, n), delta(X, n))


def test_cw_equation_examples():
    assert cw_equation_holds(KNOWN_CW_7_4_P, KNOWN_CW_7_4_N, 7)
    assert cw_equation_holds(W1_31_P, W1_31_N, 31)
    assert cw_equation_holds({0}, set(), 5)
    assert not cw_equation_holds({0, 1}, set(), 7)
    with pytest.raises(ValueError, match="overlap"):
        cw_equation_holds({1}, {1}, 7)


@given(ternary_rows)
def test_cw_equation_matches_autocorrelation_vanishing(r):
    """Equality of the three difference multisets is exactly the weighing
    condition: no ternary row separates the two checks."""
    sets = describing_sets(r)
    assert cw_equation_holds(sets.P, sets.N, r.n) == (verify_cw(r) is not None)


def _disjoint_sets(n: int):
    sets = st.sets(st.integers(0, n - 1), max_size=12)
    return st.tuples(st.just(n), sets, sets).map(lambda c: (n, c[1], c[2] - c[1]))


CW_ROWS = [
    from_sets(7, KNOWN_CW_7_4_P, KNOWN_CW_7_4_N),
    from_sets(13, KNOWN_CW_13_9_P, KNOWN_CW_13_9_N),
    from_sets(21, W0_21_P, W0_21_N),
    from_sets(31, W1_31_P, W1_31_N),
    from_sets(31, W2_31_P, W2_31_N),
]


def _image_sets(r: CirculantRow):
    """Describing sets of x^s * (+-r)(x^u): weighing rows again."""

    def image(c):
        s, u, negate = c
        sets = describing_sets(apply_transform(-r if negate else r, EquivalenceWitness(s, u)))
        return r.n, set(sets.P), set(sets.N)

    return st.tuples(st.integers(0, r.n - 1), st.sampled_from(units(r.n)), st.booleans()).map(image)


disjoint_sets = st.integers(min_value=1, max_value=40).flatmap(_disjoint_sets)
cw_sets = st.sampled_from(CW_ROWS).flatmap(_image_sets)


@given(st.one_of(disjoint_sets, cw_sets))
def test_cw_equation_holds_matches_the_multiset_reference(case):
    n, P, N = case
    assert cw_equation_holds(P, N, n) == (adjoin(delta(P, n), delta(N, n)) == delta_bar(P, N, n))


@given(cw_sets)
def test_cw_equation_holds_on_images_of_weighing_rows(case):
    n, P, N = case
    assert cw_equation_holds(P, N, n)


@given(small_sets)
def test_cw_equation_invariant_under_swap_and_shift(case):
    n, P = case
    N = {(x + 1) % n for x in P} - P
    P = P - N
    holds = cw_equation_holds(P, N, n)
    assert holds == cw_equation_holds(N, P, n)
    P2 = {(x + 3) % n for x in P}
    N2 = {(x + 3) % n for x in N}
    assert holds == cw_equation_holds(P2, N2, n)
