"""Circulant rows over {-1, 0, +1} and their symmetry machinery.

A length-n row w stands for the circulant matrix whose (i, j) entry is
w[(j - i) mod n], equivalently the polynomial sum_i w_i x^i in
Z[x]/(x^n - 1). The row is a weighing row of weight k when every
nonzero-lag periodic autocorrelation vanishes; k is then the number of
nonzero entries. Checking lags 1..n//2 suffices, the rest are mirror
images.

Equivalence is generated by cyclic shifts and the substitutions
x -> x^t with gcd(t, n) = 1: the witness (s, t) sends the coefficient
at index i to index t*i + s (mod n). Negation is deliberately NOT part
of equivalence. A row of weight k is read through its k support indices
wherever the work allows: the shifts that carry one row onto another are
read off the supports, in O(k) per candidate shift and unit rather than
O(n), with gcd(r, n) candidates for r entries of one sign.

Conventions:
  sign strings: '-', '0', '+' read left to right as w_0 .. w_{n-1},
  single spaces between characters allowed.
  witness order: (s, t) compared lexicographically, s first.
  row order: the only one, coefficientwise with -1 < 0 < +1, index 0
  first; rows of one order compare so as tuples, and sort as rows.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property, lru_cache
from math import gcd
from operator import index
from typing import NamedTuple

from .orbits import units

_CHAR_TO_COEFF = {"-": -1, "0": 0, "+": 1}
_COEFF_TO_CHAR = {-1: "-", 0: "0", 1: "+"}


class CirculantRow(namedtuple("CirculantRow", "n coeffs")):
    """First row of a circulant {-1,0,+1} matrix of order n."""

    def __new__(cls, n: int, coeffs):
        if n < 1:
            raise ValueError(f"order must be positive, got {n}")
        # index, not int: a float or a string is an error, not a coefficient
        coeffs = tuple(map(index, coeffs))
        if len(coeffs) != n:
            raise ValueError(f"expected {n} coefficients, got {len(coeffs)}")
        if not set(coeffs) <= {-1, 0, 1}:
            raise ValueError("coefficients must lie in {-1, 0, +1}")
        return tuple.__new__(cls, (n, coeffs))

    @classmethod
    def from_string(cls, text: str) -> "CirculantRow":
        """Parse a sign string like '-++0+00' (single spaces allowed)."""
        stripped = text.replace(" ", "")
        if not stripped:
            raise ValueError("empty sign string")
        try:
            coeffs = tuple(_CHAR_TO_COEFF[ch] for ch in stripped)
        except KeyError as exc:
            raise ValueError(f"bad sign character {exc.args[0]!r}") from None
        return cls(len(coeffs), coeffs)

    def to_string(self) -> str:
        return "".join(_COEFF_TO_CHAR[c] for c in self.coeffs)

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c)

    @cached_property
    def _signs(self) -> dict[int, tuple[int, ...]]:
        """The support indices of each sign, ascending: {1: ..., -1: ...}."""
        return {sign: tuple(i for i in self.support if self.coeffs[i] == sign) for sign in (1, -1)}


class DescribingSets(NamedTuple):
    """Index sets of the +1 entries (P) and the -1 entries (N)."""

    P: frozenset[int]
    N: frozenset[int]


class EquivalenceWitness(NamedTuple):
    """Shift s and unit t realizing row2 = x^s * row1(x^t)."""

    s: int
    t: int


def describing_sets(row: CirculantRow) -> DescribingSets:
    return DescribingSets(P=frozenset(row._signs[1]), N=frozenset(row._signs[-1]))


def from_sets(n: int, P, N) -> CirculantRow:
    """Row with +1 on P, -1 on N, 0 elsewhere. Inverse of describing_sets."""
    P, N = _checked_sets(n, P, N)
    coeffs = [0] * n
    for i in P:
        coeffs[i] = 1
    for i in N:
        coeffs[i] = -1
    return _checked_row(n, coeffs, sorted(P | N))


def _checked_row(n: int, coeffs: list[int], support) -> CirculantRow:
    """The row of n coefficients over {-1, 0, +1} that a caller has already
    checked, with its support (its nonzero indices, ascending), built
    without validating them again."""
    row = tuple.__new__(CirculantRow, (n, tuple(coeffs)))
    row.__dict__["support"] = tuple(support)
    return row


def _checked_sets(n: int, P, N) -> tuple[frozenset[int], frozenset[int]]:
    """P and N as disjoint frozensets of ints in range(n), by operator.index."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    P, N = frozenset(map(index, P)), frozenset(map(index, N))
    if P & N:
        raise ValueError(f"P and N overlap: {sorted(P & N)}")
    for i in (*P, *N):
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for order {n}")
    return P, N


def _weighing(n: int, support, pm: int, nm: int, t: int) -> bool:
    """Whether +1 on the bits of pm and -1 on those of nm (bit i is index
    i of Z_n) have periodic autocorrelation 0 at every nonzero lag.

    support lists the set bits of pm | nm. A lag that is no difference
    j - i of two support indices has autocorrelation 0, so only those are
    tried, and the first nonzero one ends the test. Rotating the masks by
    a lag s lines w_{x+s} up with w_x: the sum at s is the number of
    equal-sign pairs minus the number of nonzero pairs that differ, so it
    vanishes iff 2 * |(P & P_s) | (N & N_s)| = |(P | N) & (P_s | N_s)|.
    The sum at -s is the same, and so is the sum at t*s when P and N are
    unions of t-orbits (x -> t*x permutes the pairs), so a lag that
    passes marks its whole orbit {+-t^j s} as tried. t = 1 marks s and
    n - s only, which holds for any P and N.
    """
    sm = pm | nm
    tried = {0}
    for i in support:
        for j in support:
            s = (j - i) % n
            if s in tried:
                continue
            r = n - s
            ps = (pm >> s) | (pm << r)
            ns = (nm >> s) | (nm << r)
            if 2 * ((pm & ps) | (nm & ns)).bit_count() != (sm & (ps | ns)).bit_count():
                return False
            while s not in tried:
                tried.add(s)
                tried.add(n - s)
                s = s * t % n
    return True


def verify_sets(n: int, P, N) -> int | None:
    """Weight |P| + |N| if +1 on P and -1 on N is a circulant weighing row
    of order n, else None.

    The describing sets become two n-bit masks and are tested by lag
    rotation (_weighing with t = 1), so no row is built. Each of the at
    most k(k - 1)/2 lag pairs {s, n - s} that differences of the k
    support indices reach costs a few shifts and popcounts of n-bit
    integers, O(n / word size) each; the first nonzero lag ends the test.
    Invalid sets raise ValueError, as in from_sets (see _checked_sets).
    """
    # Python ints: a fixed-width integer (numpy's) would wrap in the masks.
    P, N = _checked_sets(n, P, N)
    support = (*P, *N)
    pm = sum(1 << i for i in P)
    nm = sum(1 << i for i in N)
    return len(support) if _weighing(n, support, pm, nm, 1) else None


def verify_cw(row: CirculantRow) -> int | None:
    """Weight k if the row is a circulant weighing row, else None."""
    sets = describing_sets(row)
    return verify_sets(row.n, sets.P, sets.N)


def apply_transform(row: CirculantRow, witness: EquivalenceWitness) -> CirculantRow:
    """x^s * row(x^t): coefficient at i moves to (t*i + s) mod n."""
    n = row.n
    s, t = witness.s % n, witness.t % n
    if gcd(t, n) != 1:
        raise ValueError(f"t={witness.t} is not a unit mod {n}")
    return from_sets(n, *([(t * i + s) % n for i in side] for side in describing_sets(row)))


def _shifts(row: CirculantRow, t: int, target: CirculantRow) -> list[int]:
    """All s with x^s * row(x^t) = target, ascending, for a unit t, read off
    the supports.

    A matching s sends the r indices R of row with an anchor sign onto the
    indices T of target with that sign, so it solves
    r*s = sum(T) - t*sum(R) (mod n), which leaves gcd(r, n) candidates;
    the anchor is the sign of target whose count has the least gcd with n.
    Each candidate is checked on the k (index, sign) pairs of row, so a
    unit t costs O(k), not O(n). A zero row matches the zero row at every
    shift.
    """
    n, c, tc = row.n, row.coeffs, target.coeffs
    support = row.support
    if len(support) != len(target.support):
        return []
    if not support:
        return list(range(n))
    sign = min((s for s in (1, -1) if target._signs[s]), key=lambda s: gcd(len(target._signs[s]), n))
    R, T = row._signs[sign], target._signs[sign]
    r = len(T)
    if len(R) != r:
        return []
    d = gcd(r, n)
    rhs = (sum(T) - t * sum(R)) % n
    if rhs % d:
        return []
    step = n // d
    last = support[-1]  # tried first, inline: most candidates fail on it
    return [
        s
        for s in range(rhs // d * pow(r // d, -1, step) % step, n, step)
        if tc[(t * last + s) % n] == c[last] and all(tc[(t * m + s) % n] == c[m] for m in support)
    ]


def multiplier_shift(row: CirculantRow, t: int) -> int | None:
    """Least s with row = x^s * row(x^t), or None. s = 0 means t fixes row.
    The shifts are read off the support (see _shifts)."""
    n = row.n
    if gcd(t % n, n) != 1:
        raise ValueError(f"t={t} is not a unit mod {n}")
    shifts = _shifts(row, t, row)
    return shifts[0] if shifts else None


def are_equivalent(r1: CirculantRow, r2: CirculantRow) -> EquivalenceWitness | None:
    """Lexicographically least witness (s, t) with r2 = x^s * r1(x^t), or None.

    Every unit t is tried, and for each every matching shift is read off
    the supports (see _shifts), so the search is exhaustive.
    """
    if r1.n != r2.n:
        raise ValueError(f"order mismatch: {r1.n} vs {r2.n}")
    found = [(s, t) for t in units(r1.n) for s in _shifts(r1, t, r2)]
    return EquivalenceWitness(*min(found)) if found else None


@lru_cache(maxsize=None)
def _coset_leaders(n: int, t: int) -> tuple[int, ...]:
    """Least unit of each coset u<t> of U(n), ascending; computed once per (n, t).

    The coset of u is its cycle u, u*t, u*t^2, ... (mod n).
    """
    covered = bytearray(n)
    leaders = []
    for u in units(n):
        if not covered[u]:
            leaders.append(u)
            while not covered[u]:
                covered[u] = 1
                u = u * t % n
    return tuple(leaders)


def canonical_form(row: CirculantRow, multiplier: int | None = None) -> CirculantRow:
    """Lexicographically least row over the full (s, t) orbit.

    Two rows are equivalent iff their canonical forms are identical.

    For each unit t the shifts of row(x^t) are the windows of its image
    doubled, one byte c + 1 per entry c, so bytes order like rows. A
    least window starts with the least entry, and every other start
    loses at its first byte. row(x^t) has the same entries as row, so
    the only starts worth trying are the images t*i of the positions i
    holding the least coefficient of the row: its -1 entries if it has
    any (read off the signed support), else its 0 entries, else every
    entry. Equal windows are equal rows, so the order in which starts are
    tried does not matter. The least window, at start p of the image by
    t, is the form: index i of row moves to t*i - p, so the form is
    rebuilt from the support.

    multiplier is a unit m that may fix the row up to a shift. If it
    does, row(x^m) = x^s * row, then row(x^(u*m)) = x^(s*u) * row(x^u):
    all units of one coset u<m> of U(n) give the same set of rotations,
    so only the least unit of each coset is scanned. If it does not (one
    multiplier_shift check), every unit is scanned. The result is the
    same either way; a multiplier that is not a unit raises ValueError.
    """
    n, coeffs, support = row.n, row.coeffs, row.support
    fixed = multiplier is not None and multiplier_shift(row, multiplier) is not None
    scanned = _coset_leaders(n, multiplier) if fixed else units(n)
    starts = row._signs[-1]
    if not starts:
        least = min(coeffs)
        starts = [i for i, c in enumerate(coeffs) if c == least]
    best: bytes | None = None
    for t in scanned:
        image = bytearray(b"\1") * n
        for i in support:
            image[t * i % n] = coeffs[i] + 1
        doubled = bytes(image) * 2
        for i in starts:
            p = t * i % n
            cand = doubled[p : p + n]
            if best is None or cand < best:
                best, best_t, best_p = cand, t, p
    # the least window, rebuilt from the support: index i moves to t*i - p
    form = [0] * n
    for i in support:
        form[(best_t * i - best_p) % n] = coeffs[i]
    return _checked_row(n, form, sorted((best_t * i - best_p) % n for i in support))
