"""Test-only row references: the autocorrelation by its definition,
negation, the sign choice of a square-weight row, and whether a row's
class holds a row on a subgroup.

They use no library code beyond the row record, so tests can check the
library's weighing kernel and the search's sign normalization against
them.
"""
from __future__ import annotations

from math import gcd


def periodic_autocorrelation(row, lag: int) -> int:
    """sum_i w_i * w_{i+lag mod n}, over every index."""
    c, n = row.coeffs, row.n
    return sum(c[i] * c[(i + lag) % n] for i in range(n))


def negate(row):
    """The row with every coefficient negated, of the same record type."""
    return type(row)(row.n, tuple(-c for c in row.coeffs))


def normalize_sign(row):
    """The one of row, -row with more +1 than -1 entries; a square
    weight forces |P| != |N|, so a tie is an input error."""
    pos, neg = row.coeffs.count(1), row.coeffs.count(-1)
    if pos == neg:
        raise ValueError(f"row has |P| = |N| = {pos}")
    return row if pos > neg else negate(row)


def class_contractible(row, d: int) -> bool:
    """Whether some row equivalent to row has every support index divisible by d.

    The images of the support are {u*i + s}; a suitable s exists exactly
    when all u*i agree mod d, so only the units u are scanned.
    """
    n = row.n
    if d < 1 or n % d != 0:
        raise ValueError(f"d must divide the order, got d={d}, n={n}")
    support = [i for i, c in enumerate(row.coeffs) if c]
    return any(len({u * i % d for i in support}) <= 1 for u in range(n) if gcd(u, n) == 1)
