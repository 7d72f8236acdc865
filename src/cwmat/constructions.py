"""Dense weighing matrices and the block-diagonal-to-circulant conjugation.

The dense side exists to make two matrix facts executable: the
Kronecker product of weighing matrices is a weighing matrix of product
order and weight, and conjugating a block diagonal of m equal circulant
blocks by the interleave permutation yields a single circulant, namely
the circulant of the lifted row. Nothing here is a performance surface.
"""
from __future__ import annotations

from collections import namedtuple

import numpy as np

from .rows import CirculantRow
from .search import lift


class DenseWeighingMatrix:
    """Square matrix over {-1, 0, +1} with A A^T = weight * I.

    The weight is read off the Gram matrix, so construction fails on
    anything that is not a weighing matrix.
    """

    def __init__(self, entries):
        a = np.asarray(entries, dtype=int)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isin(a, (-1, 0, 1)).all():
            raise ValueError("entries must lie in {-1, 0, +1}")
        gram = a @ a.T
        k = int(gram[0, 0]) if a.shape[0] else 0
        if not np.array_equal(gram, k * np.eye(a.shape[0], dtype=int)):
            raise ValueError("A A^T is not a multiple of the identity")
        self.entries = a
        self.order = int(a.shape[0])
        self.weight = k

    @classmethod
    def identity(cls, v: int) -> "DenseWeighingMatrix":
        return cls(np.eye(v, dtype=int))

    @classmethod
    def from_circulant_row(cls, row: CirculantRow) -> "DenseWeighingMatrix":
        return cls(circulant(row))


def circulant(row: CirculantRow) -> np.ndarray:
    """Dense circulant: entry (i, j) is row[(j - i) mod n]."""
    n = row.n
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return np.asarray(row.coeffs, dtype=int)[idx]


def kronecker(A: DenseWeighingMatrix, B: DenseWeighingMatrix) -> DenseWeighingMatrix:
    """Kronecker product; order and weight multiply."""
    return DenseWeighingMatrix(np.kron(A.entries, B.entries))


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

    def as_array(self) -> np.ndarray:
        i = np.arange(self.size)
        return (i % self.m) * self.k + i // self.m

    def matrix(self) -> np.ndarray:
        """Permutation matrix P with P[i, j] = 1 iff j = apply(i)."""
        p = np.zeros((self.size, self.size), dtype=int)
        p[np.arange(self.size), self.as_array()] = 1
        return p

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
    n = W.n
    A = np.kron(np.eye(m, dtype=int), circulant(W))
    sigma = InterleavePermutation(m, n).as_array()
    B = np.empty_like(A)
    B[sigma[:, None], sigma[None, :]] = A
    first = CirculantRow(n * m, tuple(int(c) for c in B[0]))
    if not np.array_equal(B, circulant(first)):
        raise AssertionError("conjugated block diagonal is not circulant")
    if first.coeffs != lift(W, m).coeffs:
        raise AssertionError("conjugated circulant differs from the lifted row")
    return first
