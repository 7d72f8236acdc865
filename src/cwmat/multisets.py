"""Difference multisets over Z_n.

delta(X) collects all ordered differences of distinct elements of X;
delta_bar(P, N) collects +-(p - q) over p in P, q in N; adjoin adds
counts. A circulant weighing row with describing sets (P, N) satisfies
delta(P) & delta(N) = delta_bar(P, N): for every lag c != 0 the
autocorrelation equals the count of c in the left side minus the count
in the right side, so the equation holds exactly when the row verifies.
Search code nevertheless treats autocorrelation as the authoritative
test and this equation as a cross-check.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class ResidueMultiset:
    """Multiset over Z_n; counts stored as sorted (residue, multiplicity) pairs."""

    n: int
    counts: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"modulus must be positive, got {self.n}")
        items = []
        for r, c in self.counts:
            if not 0 <= r < self.n:
                raise ValueError(f"residue {r} out of range for modulus {self.n}")
            if c < 0:
                raise ValueError(f"negative multiplicity {c} for residue {r}")
            if c:
                items.append((int(r), int(c)))
        items.sort()
        object.__setattr__(self, "counts", tuple(items))

    @classmethod
    def from_elements(cls, n: int, elements) -> "ResidueMultiset":
        return cls(n, tuple(Counter(x % n for x in elements).items()))

    @classmethod
    def from_counter(cls, n: int, counter: Counter) -> "ResidueMultiset":
        return cls(n, tuple(counter.items()))

    @cached_property
    def _map(self) -> dict[int, int]:
        return dict(self.counts)

    def count(self, residue: int) -> int:
        return self._map.get(residue % self.n, 0)

    @property
    def total(self) -> int:
        return sum(c for _, c in self.counts)

    def negated(self) -> "ResidueMultiset":
        """The multiset of -x over this one; equal to self when symmetric."""
        return ResidueMultiset(
            self.n, tuple(((-r) % self.n, c) for r, c in self.counts)
        )


def delta(X, n: int) -> ResidueMultiset:
    """[x1 - x2 : x1, x2 in X distinct], counted with repetitions."""
    X = sorted(set(X))
    cnt: Counter = Counter()
    for x1 in X:
        for x2 in X:
            if x1 != x2:
                cnt[(x1 - x2) % n] += 1
    return ResidueMultiset.from_counter(n, cnt)


def delta_bar(P, N, n: int) -> ResidueMultiset:
    """[+-(p - q) : p in P, q in N], counted with repetitions."""
    cnt: Counter = Counter()
    for p in set(P):
        for q in set(N):
            d = (p - q) % n
            cnt[d] += 1
            cnt[(-d) % n] += 1
    return ResidueMultiset.from_counter(n, cnt)


def adjoin(a: ResidueMultiset, b: ResidueMultiset) -> ResidueMultiset:
    """Multiset union with counts added."""
    if a.n != b.n:
        raise ValueError(f"modulus mismatch: {a.n} vs {b.n}")
    cnt = Counter(dict(a.counts))
    cnt.update(dict(b.counts))
    return ResidueMultiset.from_counter(a.n, cnt)


def cw_equation_holds(P, N, n: int) -> bool:
    """Whether delta(P) & delta(N) equals delta_bar(P, N), one Counter per side."""
    P, N = set(P), set(N)
    if P & N:
        raise ValueError(f"P and N overlap: {sorted(P & N)}")
    within = Counter((x - y) % n for X in (P, N) for x in X for y in X if x != y)
    cross = Counter((d * (p - q)) % n for p in P for q in N for d in (1, -1))
    return within == cross
