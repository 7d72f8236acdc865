"""The weighing-row equation over Z_n, in difference-multiset form.

For describing sets P and N, the within-side differences are x - y over
ordered pairs of distinct x, y in P, and likewise in N; the cross
differences are +-(p - q) over p in P, q in N, counted with
repetitions. For every lag c != 0 the periodic autocorrelation of the
row (+1 on P, -1 on N) equals the count of c among the within-side
differences minus its count among the cross differences: equal-sign
pairs add 1 and unequal-sign pairs subtract 1. So the two multisets are
equal exactly when the row verifies. The check keeps one count per lag,
n in all, whatever the weight: no list of the k^2 differences is built.
Search code nevertheless treats autocorrelation as the authoritative
test and this equation as a cross-check.
"""
from __future__ import annotations

from .rows import _checked_sets


def cw_equation_holds(P, N, n: int) -> bool:
    """Whether the within-side differences of P and N equal the cross
    differences +-(p - q) as multisets; sets checked as in verify_sets.

    A table of n counts, one per lag, takes +1 for each within-side pair
    and -1 for each cross difference; every lag but 0 (where the pairs
    x = y land) must end at 0. A difference d of two indices lies in
    (-n, n), so counts[d], a negative d counting from the end, is the count
    of lag d mod n.
    """
    P, N = _checked_sets(n, P, N)
    counts = [0] * n
    for X in (P, N):
        for x in X:
            for y in X:
                counts[x - y] += 1
    for p in P:
        for q in N:
            counts[p - q] -= 1
            counts[q - p] -= 1
    return not any(counts[1:])
