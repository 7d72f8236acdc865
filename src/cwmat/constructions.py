"""Dense weighing matrices and the block-diagonal-to-circulant conjugation.

The dense side exists to make two matrix facts executable: the
Kronecker product of weighing matrices is a weighing matrix of product
order and weight, and conjugating a block diagonal of m equal circulant
blocks by the interleave permutation yields a single circulant, namely
the circulant of the lifted row. A matrix is a tuple of row tuples of
Python ints. Nothing here is a performance surface.
"""
from __future__ import annotations

from collections import namedtuple
from operator import index, mul

from .rows import CirculantRow
from .search import lift


class DenseWeighingMatrix:
    """Square matrix over {-1, 0, +1} with A A^T = weight * I.

    Entries are taken by operator.index, so a float or a string is a
    TypeError. The weight is read off the Gram matrix, so construction
    fails on anything that is not a weighing matrix.
    """

    def __init__(self, entries):
        a = tuple(tuple(map(index, row)) for row in entries)
        v = len(a)
        widths = {len(row) for row in a}
        if widths - {v}:
            width = widths.pop() if len(widths) == 1 else sorted(widths)
            raise ValueError(f"expected a square matrix, got shape {(v, width)}")
        if not {c for row in a for c in row} <= {-1, 0, 1}:
            raise ValueError("entries must lie in {-1, 0, +1}")
        k = sum(map(abs, a[0])) if v else 0
        # A A^T is symmetric: pairs i <= j suffice.
        if any(sum(map(mul, a[i], a[j])) != k * (i == j) for i in range(v) for j in range(i, v)):
            raise ValueError("A A^T is not a multiple of the identity")
        self.entries = a
        self.order = v
        self.weight = k

    @classmethod
    def identity(cls, v: int) -> "DenseWeighingMatrix":
        if v < 0:
            raise ValueError(f"order must be non-negative, got {v}")
        return cls(_eye(v))

    @classmethod
    def from_circulant_row(cls, row: CirculantRow) -> "DenseWeighingMatrix":
        return cls(circulant(row))


def _eye(v: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(i == j) for j in range(v)) for i in range(v))


def _kron(a, b) -> tuple[tuple[int, ...], ...]:
    """Entry (i q + r, j q + s) is a[i][j] * b[r][s], for b of order q."""
    return tuple(tuple(x * y for x in ra for y in rb) for ra in a for rb in b)


def circulant(row: CirculantRow) -> tuple[tuple[int, ...], ...]:
    """Dense circulant: entry (i, j) is row[(j - i) mod n]."""
    n, c = row.n, row.coeffs
    return tuple(c[n - i :] + c[: n - i] for i in range(n))


def kronecker(A: DenseWeighingMatrix, B: DenseWeighingMatrix) -> DenseWeighingMatrix:
    """Kronecker product; order and weight multiply."""
    return DenseWeighingMatrix(_kron(A.entries, B.entries))


class InterleavePermutation(namedtuple("InterleavePermutation", "k m")):
    """Index map r*m + s -> s*k + r over k blocks of size m."""

    __slots__ = ()

    def __new__(cls, k: int, m: int):
        if k < 1 or m < 1:
            raise ValueError(f"block count and size must be positive, got {k}, {m}")
        return tuple.__new__(cls, (k, m))

    @property
    def size(self) -> int:
        return self.k * self.m

    def apply(self, i: int) -> int:
        if not 0 <= i < self.size:
            raise ValueError(f"index {i} out of range for size {self.size}")
        r, s = divmod(i, self.m)
        return s * self.k + r

    def as_array(self) -> tuple[int, ...]:
        """apply(i) for every index i, in order."""
        return tuple(s * self.k + r for r in range(self.k) for s in range(self.m))

    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """Permutation matrix P with P[i, j] = 1 iff j = apply(i)."""
        eye = _eye(self.size)
        return tuple(eye[j] for j in self.as_array())

    @property
    def inverse(self) -> "InterleavePermutation":
        return InterleavePermutation(self.m, self.k)


def conjugate_to_circulant(W: CirculantRow, m: int) -> CirculantRow:
    """First row of P^-1 A P for A = m equal circulant blocks of W.

    The result is checked to be circulant and entrywise equal to
    lift(W, m); either failing would falsify the construction, so both
    raise AssertionError rather than returning bad data.
    """
    if m < 1:
        raise ValueError(f"block count must be positive, got {m}")
    A = _kron(_eye(m), circulant(W))
    # B[sigma(i)][sigma(j)] = A[i][j], read through the inverse interleave
    tau = InterleavePermutation(m, W.n).inverse.as_array()
    B = tuple(tuple(map(A[i].__getitem__, tau)) for i in tau)
    first = CirculantRow(len(B), B[0])
    if B != circulant(first):
        raise AssertionError("conjugated block diagonal is not circulant")
    if first.coeffs != lift(W, m).coeffs:
        raise AssertionError("conjugated circulant differs from the lifted row")
    return first
