"""The Kronecker oracle's constructions (tests/kronecker_oracle.py),
checked against numpy's matrix products and the library's lift, and the
CW(91, 36) products it builds."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cwmat import CirculantRow, lift, multiplier_shift
from golden import CW_13_9_CLASSES, KNOWN_CW_7_4, KNOWN_CW_13_9
from kronecker_oracle import conjugate_to_circulant, crt_product, weighing_weight

CW74 = CirculantRow.from_string(KNOWN_CW_7_4).coeffs


def signs(text: str) -> tuple[int, ...]:
    return CirculantRow.from_string(text).coeffs


def circulant(w) -> np.ndarray:
    """Entry (i, j) is w[(j - i) mod n]."""
    return np.array([np.roll(w, i) for i in range(len(w))], dtype=int)


def rows(max_n: int = 16):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n).map(tuple)
    )


def test_conjugate_to_circulant_examples():
    out = conjugate_to_circulant(CW74, 3)
    assert out == lift(CirculantRow(7, CW74), 3).coeffs
    assert weighing_weight(out) == 4
    assert conjugate_to_circulant(CW74, 1) == CW74
    assert conjugate_to_circulant((1,), 5) == (1, 0, 0, 0, 0)


def test_conjugate_matches_permutation_matrix_conjugation():
    m, w = 3, CW74
    n = len(w)
    A = np.kron(np.eye(m, dtype=int), circulant(w))
    # P[i, sigma(i)] = 1 for the interleave sigma(r*n + s) = s*m + r
    P = np.zeros((m * n, m * n), dtype=int)
    for r in range(m):
        for s in range(n):
            P[r * n + s, s * m + r] = 1
    assert np.array_equal(P.T @ A @ P, circulant(conjugate_to_circulant(w, m)))


@given(rows(), st.integers(1, 5))
def test_conjugate_always_equals_lift(w, m):
    assert conjugate_to_circulant(w, m) == lift(CirculantRow(len(w), w), m).coeffs


@given(rows(12))
def test_weighing_weight_matches_numpy_gram(w):
    """A weight exactly when numpy's C C^T is a multiple of the identity."""
    gram = circulant(w) @ circulant(w).T
    k = gram[0, 0]
    expected = k if np.array_equal(gram, k * np.eye(len(w), dtype=int)) else None
    assert weighing_weight(w) == expected


def test_kronecker_multiplies_order_and_weight():
    cases = [(KNOWN_CW_7_4, "+0"), (KNOWN_CW_7_4, CW_13_9_CLASSES[0]), ("0+0", KNOWN_CW_13_9)]
    for a, b in cases:
        a, b = signs(a), signs(b)
        m, n = len(a), len(b)
        w = crt_product(a, b)
        assert len(w) == m * n
        assert weighing_weight(w) == weighing_weight(a) * weighing_weight(b)
        # the CRT index i -> (i mod m, i mod n) carries C(a) ⊗ C(b) to C(w)
        crt = [i % m * n + i % n for i in range(m * n)]
        K = np.kron(circulant(a), circulant(b))
        assert np.array_equal(K[np.ix_(crt, crt)], circulant(w))


def test_crt_product_needs_coprime_orders():
    with pytest.raises(ValueError, match="orders 7 and 14 are not coprime"):
        crt_product(CW74, CW74 + CW74)


def _unions_of_orbits(w, t: int) -> list[int]:
    """Shifts s for which P + s and N + s are both closed under x -> t*x."""
    n = len(w)
    found = []
    for s in range(n):
        for sign in (1, -1):
            side = {(i + s) % n for i in range(n) if w[i] == sign}
            if side != {t * x % n for x in side}:
                break
        else:
            found.append(s)
    return found


@pytest.mark.parametrize("b", CW_13_9_CLASSES)
def test_cw_91_36_products_have_neither_multiplier_2_nor_3(b):
    """CW(7, 4) times either CW(13, 9) class is a CW(91, 36) that no shift
    makes a union of 2-orbits or of 3-orbits: neither t is a multiplier
    of every CW(n, 36) at odd n."""
    assert weighing_weight(signs(b)) == 9
    w = crt_product(CW74, signs(b))
    assert weighing_weight(w) == 36
    for t in (2, 3):
        assert _unions_of_orbits(w, t) == []
        assert multiplier_shift(CirculantRow(91, w), t) is None
