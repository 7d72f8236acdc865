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
of equivalence; sign is handled by normalize_sign alone.

Conventions:
  sign strings: '-', '0', '+' read left to right as w_0 .. w_{n-1},
  single spaces between characters allowed.
  witness order: (s, t) compared lexicographically, s first.
  row order: coefficientwise with -1 < 0 < +1, index 0 first.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .orbits import units

_CHAR_TO_COEFF = {"-": -1, "0": 0, "+": 1}
_COEFF_TO_CHAR = {-1: "-", 0: "0", 1: "+"}

# Internal comparison alphabet: must be ordered like the coefficients.
_COEFF_TO_KEY = {-1: "a", 0: "b", 1: "c"}


@dataclass(frozen=True)
class CirculantRow:
    """First row of a circulant {-1,0,+1} matrix of order n."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"order must be positive, got {self.n}")
        coeffs = tuple(map(int, self.coeffs))
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        if not set(coeffs) <= {-1, 0, 1}:
            raise ValueError("coefficients must lie in {-1, 0, +1}")
        object.__setattr__(self, "coeffs", coeffs)

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

    def to_string(self, spaced: bool = False) -> str:
        chars = [_COEFF_TO_CHAR[c] for c in self.coeffs]
        return (" " if spaced else "").join(chars)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c)

    def __neg__(self) -> "CirculantRow":
        return CirculantRow(self.n, tuple(-c for c in self.coeffs))


@dataclass(frozen=True)
class DescribingSets:
    """Index sets of the +1 entries (P) and the -1 entries (N)."""

    P: frozenset[int]
    N: frozenset[int]


@dataclass(frozen=True)
class EquivalenceWitness:
    """Shift s and unit t realizing row2 = x^s * row1(x^t)."""

    s: int
    t: int


def describing_sets(row: CirculantRow) -> DescribingSets:
    return DescribingSets(
        P=frozenset(i for i, c in enumerate(row.coeffs) if c == 1),
        N=frozenset(i for i, c in enumerate(row.coeffs) if c == -1),
    )


def from_sets(n: int, P, N) -> CirculantRow:
    """Row with +1 on P, -1 on N, 0 elsewhere. Inverse of describing_sets."""
    P, N = set(P), set(N)
    if P & N:
        raise ValueError(f"P and N overlap: {sorted(P & N)}")
    coeffs = [0] * n
    for i in P:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for order {n}")
        coeffs[i] = 1
    for i in N:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for order {n}")
        coeffs[i] = -1
    return CirculantRow(n, tuple(coeffs))


def periodic_autocorrelation(row: CirculantRow, lag: int) -> int:
    """sum_i w_i * w_{i+lag mod n}. Only support indices contribute."""
    if not 0 <= lag < row.n:
        raise ValueError(f"lag {lag} out of range for order {row.n}")
    c, n = row.coeffs, row.n
    return sum(c[i] * c[(i + lag) % n] for i in row.support)


def verify_sets(n: int, P, N) -> int | None:
    """Weight |P| + |N| if +1 on P and -1 on N is a circulant weighing row
    of order n, else None.

    The periodic autocorrelation, summed over the sign map of the support
    only, so no row is built. A lag that is no difference j - i of two
    support indices has autocorrelation 0, so only those lags are tried,
    each once together with its mirror n - lag, and the first nonzero one
    ends the test: O(k^2) work for k support entries, whatever n is.
    Overlapping or out-of-range indices raise ValueError, as in from_sets.
    """
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    P, N = frozenset(P), frozenset(N)
    sign = dict.fromkeys(P, 1)
    sign.update(dict.fromkeys(N, -1))
    if len(sign) != len(P) + len(N):
        raise ValueError(f"P and N overlap: {sorted(P & N)}")
    for i in sign:
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for order {n}")
    items = sign.items()
    tried = {0}
    for i in sign:
        for j in sign:
            lag = (j - i) % n
            if lag not in tried:
                tried.update((lag, n - lag))
                if sum(c * sign.get((x + lag) % n, 0) for x, c in items) != 0:
                    return None
    return len(sign)


def verify_cw(row: CirculantRow) -> int | None:
    """Weight k if the row is a circulant weighing row, else None."""
    sets = describing_sets(row)
    return verify_sets(row.n, sets.P, sets.N)


def normalize_sign(row: CirculantRow) -> CirculantRow:
    """The one of row, -row with more +1 entries.

    Callers are expected to pass weighing rows; a square weight forces
    |P| != |N|, so a tie is an input error, as is an all-zero row.
    """
    pos = sum(1 for c in row.coeffs if c == 1)
    neg = sum(1 for c in row.coeffs if c == -1)
    if pos + neg == 0:
        raise ValueError("cannot sign-normalize an all-zero row")
    if pos == neg:
        raise ValueError("row has |P| = |N|; not a square-weight weighing row")
    return row if pos > neg else -row


def apply_transform(row: CirculantRow, witness: EquivalenceWitness) -> CirculantRow:
    """x^s * row(x^t): coefficient at i moves to (t*i + s) mod n."""
    n = row.n
    s, t = witness.s % n, witness.t % n
    if gcd(t, n) != 1:
        raise ValueError(f"t={witness.t} is not a unit mod {n}")
    out = [0] * n
    for i, c in enumerate(row.coeffs):
        out[(t * i + s) % n] = c
    return CirculantRow(n, tuple(out))


def sort_key(row: CirculantRow) -> str:
    """String whose lexicographic order matches the row order.

    ASCII order of '-', '0', '+' does not match -1 < 0 < +1, so sorting
    must go through this key, not to_string().
    """
    return "".join(_COEFF_TO_KEY[c] for c in row.coeffs)


def _image_key(row: CirculantRow, t: int, support: tuple[int, ...]) -> str:
    """sort_key(row(x^t)), written from the support: entry i goes to t*i mod n."""
    n = row.n
    out = [_COEFF_TO_KEY[0]] * n
    for i in support:
        out[t * i % n] = _COEFF_TO_KEY[row.coeffs[i]]
    return "".join(out)


def _shift_matches(base_key: str, target_key: str) -> list[int]:
    """All s with rotate(base, s) == target, ascending.

    rotate(base, s)[j] = base[(j - s) mod n], i.e. window n-s of the
    doubled string; found with str.find so the scan stays in C.
    """
    n = len(base_key)
    doubled = base_key + base_key
    shifts = []
    p = doubled.find(target_key)
    while 0 <= p < n:
        shifts.append((n - p) % n)
        p = doubled.find(target_key, p + 1)
    shifts.sort()
    return shifts


def multiplier_shift(row: CirculantRow, t: int) -> int | None:
    """Least s with row = x^s * row(x^t), or None. s = 0 means t fixes row."""
    n = row.n
    if gcd(t % n, n) != 1:
        raise ValueError(f"t={t} is not a unit mod {n}")
    matches = _shift_matches(_image_key(row, t, row.support), sort_key(row))
    return matches[0] if matches else None


def are_equivalent(r1: CirculantRow, r2: CirculantRow) -> EquivalenceWitness | None:
    """Lexicographically least witness (s, t) with r2 = x^s * r1(x^t), or None.

    Brute force over every unit t; for each t all matching shifts are
    read off by rotation matching, so the search is exhaustive.
    """
    if r1.n != r2.n:
        raise ValueError(f"order mismatch: {r1.n} vs {r2.n}")
    n = r1.n
    target = sort_key(r2)
    support = r1.support
    found: list[tuple[int, int]] = []
    for t in units(n):
        for s in _shift_matches(_image_key(r1, t, support), target):
            found.append((s, t))
    if not found:
        return None
    s, t = min(found)
    return EquivalenceWitness(s, t)


def _coset_leaders(n: int, t: int) -> list[int]:
    """Least unit of each coset u<t> of U(n), ascending.

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
    return leaders


def canonical_form(row: CirculantRow, multiplier: int | None = None) -> CirculantRow:
    """Lexicographically least row over the full (s, t) orbit.

    Two rows are equivalent iff their canonical forms are identical.

    For each unit t the shifts of row(x^t) are the rotations of its key.
    A least rotation starts with the least letter of the key, and every
    other start loses at the first letter. row(x^t) has the same letters
    as row, so the only starts worth trying are the images t*i of the
    positions i holding the least coefficient of the row: its -1 entries
    if it has any, else its 0 entries, else every entry. Equal keys are
    equal rows, so the order in which starts are tried does not matter.

    multiplier is a unit m that may fix the row up to a shift. If it
    does, row(x^m) = x^s * row, then row(x^(u*m)) = x^(s*u) * row(x^u):
    all units of one coset u<m> of U(n) give the same set of rotations,
    so only the least unit of each coset is scanned. If it does not (one
    multiplier_shift check), every unit is scanned. The result is the
    same either way; a multiplier that is not a unit raises ValueError.
    """
    n = row.n
    fixed = multiplier is not None and multiplier_shift(row, multiplier) is not None
    scanned = _coset_leaders(n, multiplier) if fixed else units(n)
    support = row.support
    least = min(row.coeffs)
    starts = [i for i, c in enumerate(row.coeffs) if c == least]
    best: tuple[str, int, int] | None = None
    for t in scanned:
        base = _image_key(row, t, support)
        doubled = base + base
        for i in starts:
            p = t * i % n
            cand = doubled[p : p + n]
            if best is None or cand < best[0]:
                best = (cand, p, t)
    assert best is not None
    # window p of the doubled key is x^(n-p) * row(x^t)
    _, p, t = best
    return apply_transform(row, EquivalenceWitness((n - p) % n, t))


def canonical_form_up_to_negation(row: CirculantRow) -> CirculantRow:
    """Least canonical form of row and -row; convenience for sign-blind grouping."""
    a = canonical_form(row)
    b = canonical_form(-row)
    return a if sort_key(a) <= sort_key(b) else b
