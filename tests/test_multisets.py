from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cwmat import (
    CirculantRow,
    EquivalenceWitness,
    cw_equation_holds,
    describing_sets,
    from_sets,
    units,
    verify_cw,
    verify_sets,
)
from cwmat.rows import apply_transform
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
from row_reference import negate, periodic_autocorrelation

small_sets = st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, n - 1), max_size=6))
)

ternary_rows = st.integers(min_value=1, max_value=20).flatmap(
    lambda n: st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n).map(
        lambda cs: CirculantRow(n, tuple(cs))
    )
)


def test_cw_equation_examples():
    assert cw_equation_holds(KNOWN_CW_7_4_P, KNOWN_CW_7_4_N, 7)
    assert cw_equation_holds(W1_31_P, W1_31_N, 31)
    assert cw_equation_holds({0}, set(), 5)
    assert not cw_equation_holds({0, 1}, set(), 7)
    with pytest.raises(ValueError, match="overlap"):
        cw_equation_holds({1}, {1}, 7)


@pytest.mark.parametrize(
    "P, N, error, match",
    [
        ({0.5}, set(), TypeError, "integer"),
        ({5}, {36}, ValueError, "index 36 out of range for order 31"),
        ({0, 31}, set(), ValueError, "index 31 out of range for order 31"),
    ],
    ids=["float-index", "congruent-overlap", "index-equal-to-order"],
)
def test_cw_equation_rejects_what_verify_sets_rejects(P, N, error, match):
    """The sets are checked as verify_sets checks them, before any counting."""
    for check in (cw_equation_holds, lambda P, N, n: verify_sets(n, P, N)):
        with pytest.raises(error, match=match):
            check(P, N, 31)


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
        s, u, negated = c
        row = negate(r) if negated else r
        sets = describing_sets(apply_transform(row, EquivalenceWitness(s, u)))
        return r.n, set(sets.P), set(sets.N)

    return st.tuples(st.integers(0, r.n - 1), st.sampled_from(units(r.n)), st.booleans()).map(image)


disjoint_sets = st.integers(min_value=1, max_value=40).flatmap(_disjoint_sets)
cw_sets = st.sampled_from(CW_ROWS).flatmap(_image_sets)


@given(st.one_of(disjoint_sets, cw_sets))
def test_cw_equation_holds_matches_all_lag_autocorrelation(case):
    n, P, N = case
    row = from_sets(n, P, N)
    vanishes = all(periodic_autocorrelation(row, lag) == 0 for lag in range(1, n))
    assert cw_equation_holds(P, N, n) == vanishes


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


def test_cw_equation_memory_is_one_count_per_lag():
    """A dense order-2001 row holds about 1.8 million differences; the
    check keeps n counts, not lists of them, so it stays well under 1 MiB."""
    n = 2001
    rng = random.Random(2001)
    coeffs = [rng.choice((-1, 0, 1)) for _ in range(n)]
    P = {i for i, c in enumerate(coeffs) if c == 1}
    N = {i for i, c in enumerate(coeffs) if c == -1}
    tracemalloc.start()
    try:
        holds = cw_equation_holds(P, N, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not holds
    assert peak < 2**20, peak
