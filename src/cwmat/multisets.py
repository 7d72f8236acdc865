"""The weighing-row equation over Z_n, in difference-multiset form.

For describing sets P and N, the within-side differences are x - y over
ordered pairs of distinct x, y in P, and likewise in N; the cross
differences are +-(p - q) over p in P, q in N, counted with
repetitions. For every lag c != 0 the periodic autocorrelation of the
row (+1 on P, -1 on N) equals the count of c among the within-side
differences minus its count among the cross differences: equal-sign
pairs add 1 and unequal-sign pairs subtract 1. So the two multisets are
equal exactly when the row verifies. Search code nevertheless treats
autocorrelation as the authoritative test and this equation as a
cross-check.
"""
from __future__ import annotations

from collections import Counter

from .rows import _checked_sets


def cw_equation_holds(P, N, n: int) -> bool:
    """Whether the within-side differences of P and N equal the cross
    differences +-(p - q), one Counter per side; sets checked as in verify_sets."""
    P, N = _checked_sets(n, P, N)
    within = Counter((x - y) % n for X in (P, N) for x in X for y in X if x != y)
    cross = Counter((d * (p - q)) % n for p in P for q in N for d in (1, -1))
    return within == cross
