"""Test-only Kronecker oracle: CRT products, the interleave conjugation
and the weighing test, on plain sign tuples.

It uses no library code, so tests can check the library's lift and
classification against two matrix facts: the CRT product of a CW(m, k)
and a CW(n, l) with gcd(m, n) = 1 is a CW(mn, kl), and conjugating the
block diagonal I_m ⊗ C(w) by the interleave permutation gives the
circulant of w spread to every m-th index.
"""
from __future__ import annotations

from collections import Counter
from math import gcd


def crt_product(a, b) -> tuple[int, ...]:
    """w_i = a_{i mod m} * b_{i mod n}: by the CRT, its circulant is
    C(a) ⊗ C(b) with rows and columns permuted alike."""
    m, n = len(a), len(b)
    if gcd(m, n) != 1:
        raise ValueError(f"orders {m} and {n} are not coprime")
    return tuple(a[i % m] * b[i % n] for i in range(m * n))


def conjugate_to_circulant(w, m: int) -> tuple[int, ...]:
    """First row of B, where B[s*m + r][s'*m + r'] is entry
    (r*n + s, r'*n + s') of I_m ⊗ C(w), n = len(w).

    Row r*n + s of the block diagonal holds w_d at column r*n + (s + d)
    mod n; the interleave r*n + s -> s*m + r moves both indices. Each
    row of B, held as {column: sign}, must be its first row shifted, or
    AssertionError.
    """
    n = len(w)
    size = m * n
    support = [d for d in range(n) if w[d]]
    rows = {
        s * m + r: {(s + d) % n * m + r: w[d] for d in support}
        for r in range(m)
        for s in range(n)
    }
    first = rows[0]
    for i, row in rows.items():
        if row != {(j + i) % size: c for j, c in first.items()}:
            raise AssertionError(f"row {i} of the conjugate is not a shift of row 0")
    return tuple(first.get(j, 0) for j in range(size))


def weighing_weight(w) -> int | None:
    """k when C(w) C(w)^T = k I, else None.

    Entry (0, d) of C(w) C(w)^T is the sum of w_i * w_j over support
    pairs with j - i = d mod n, so only those pairs are summed.
    """
    n = len(w)
    support = [i for i in range(n) if w[i]]
    lags = Counter()
    for i in support:
        for j in support:
            lags[(j - i) % n] += w[i] * w[j]
    if any(total for lag, total in lags.items() if lag):
        return None
    return lags[0]
