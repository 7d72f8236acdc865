from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cwmat import (
    CirculantRow,
    DenseWeighingMatrix,
    InterleavePermutation,
    circulant,
    conjugate_to_circulant,
    kronecker,
    lift,
    verify_cw,
)
from golden import KNOWN_CW_7_4

CW74 = CirculantRow.from_string(KNOWN_CW_7_4)
SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_cwmat_and_every_construction_leave_numpy_unloaded():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cwmat\n"
        # the records are tuples: no dataclasses machinery and what it imports
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & (set(sys.modules) - before)\n"
        "assert not heavy, f'import cwmat loaded {sorted(heavy)}'\n"
        "row = cwmat.CirculantRow.from_string('-++0+00')\n"
        "W = cwmat.DenseWeighingMatrix.from_circulant_row(row)\n"
        "assert cwmat.kronecker(W, W).weight == 16\n"
        "assert cwmat.circulant(row) == W.entries\n"
        "assert cwmat.InterleavePermutation(3, 7).matrix()\n"
        "assert cwmat.conjugate_to_circulant(row, 3) == cwmat.lift(row, 3)\n"
        "assert 'numpy' not in sys.modules, 'a construction loaded numpy'\n"
        "assert cwmat.kronecker is cwmat.constructions.kronecker\n"
        "namespace = {}\n"
        "exec('from cwmat import *', namespace)\n"
        "assert namespace['circulant'] is cwmat.constructions.circulant\n"
        "assert not hasattr(cwmat, 'no_such_name')\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def rows(max_n: int = 16):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.sampled_from((-1, 0, 1)), min_size=n, max_size=n
        ).map(lambda cs: CirculantRow(n, tuple(cs)))
    )


def square_ternary(max_v: int = 4):
    return st.integers(min_value=1, max_value=max_v).flatmap(
        lambda v: st.lists(
            st.lists(st.sampled_from((-1, 0, 1)), min_size=v, max_size=v), min_size=v, max_size=v
        )
    )


def test_circulant_layout():
    C = circulant(CirculantRow.from_string("+-0"))
    assert C == ((1, -1, 0), (0, 1, -1), (-1, 0, 1))
    assert all(type(c) is int for row in C for c in row)


def test_dense_matrix_validates():
    with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
        DenseWeighingMatrix([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError, match="square matrix"):
        DenseWeighingMatrix([[1, 0], [1]])
    with pytest.raises(ValueError, match="lie in"):
        DenseWeighingMatrix([[2]])
    with pytest.raises(ValueError, match="not a multiple of the identity"):
        DenseWeighingMatrix([[1, 1], [0, 1]])


def test_dense_matrix_examples():
    eye = DenseWeighingMatrix.identity(4)
    assert eye.order == 4
    assert eye.weight == 1
    W = DenseWeighingMatrix.from_circulant_row(CW74)
    assert (W.order, W.weight) == (7, 4)
    assert W.entries == circulant(CW74)
    # numpy integers are ints; the entries become Python ints
    N = DenseWeighingMatrix(np.array(W.entries, dtype=np.int64))
    assert N.entries == W.entries and type(N.entries[0][0]) is int
    assert DenseWeighingMatrix.identity(0).order == 0
    with pytest.raises(ValueError, match="non-negative"):
        DenseWeighingMatrix.identity(-1)


@pytest.mark.parametrize(
    "entries",
    [[[1.9, 0], [0, -1.2]], [[1.0, 0], [0, 1.0]], [["1"]], [[1, "0"], [0, 1]]],
    ids=["truncated-floats", "integral-floats", "string", "mixed"],
)
def test_dense_matrix_rejects_non_integer_entries(entries):
    with pytest.raises(TypeError):
        DenseWeighingMatrix(entries)


@given(square_ternary())
def test_dense_matrix_gram_check_matches_numpy(entries):
    """Accepted exactly when numpy's A A^T is a multiple of the identity."""
    a = np.array(entries)
    gram = a @ a.T
    expected = np.array_equal(gram, gram[0, 0] * np.eye(len(a), dtype=int))
    try:
        weight = DenseWeighingMatrix(entries).weight
    except ValueError:
        assert not expected
    else:
        assert expected and weight == gram[0, 0]


def test_kronecker_multiplies_order_and_weight():
    W = DenseWeighingMatrix.from_circulant_row(CW74)
    K = kronecker(W, W)
    assert (K.order, K.weight) == (49, 16)
    assert kronecker(DenseWeighingMatrix.identity(1), W).entries == W.entries
    assert K.entries == tuple(map(tuple, np.kron(W.entries, W.entries).tolist()))
    K2 = kronecker(DenseWeighingMatrix.identity(3), W)
    assert (K2.order, K2.weight) == (21, 4)
    # block diagonal: off-diagonal blocks vanish
    assert not any(c for row in K2.entries[:7] for c in row[7:])


def test_interleave_permutation_examples():
    p = InterleavePermutation(3, 7)
    assert p.size == 21
    assert p.apply(0) == 0
    assert p.apply(1) == 3  # (r, s) = (0, 1) -> s*k + r
    assert p.apply(7) == 1  # (r, s) = (1, 0)
    assert p.inverse == InterleavePermutation(7, 3)
    with pytest.raises(ValueError, match="out of range"):
        p.apply(21)
    with pytest.raises(ValueError, match="positive"):
        InterleavePermutation(0, 3)


@given(st.integers(1, 12), st.integers(1, 12))
def test_interleave_permutation_bijective(k, m):
    p = InterleavePermutation(k, m)
    arr = p.as_array()
    assert sorted(arr) == list(range(k * m))
    assert tuple(p.apply(i) for i in range(k * m)) == arr
    inv = p.inverse
    assert [inv.apply(p.apply(i)) for i in range(k * m)] == list(range(k * m))


def test_interleave_matrix_is_permutation_matrix():
    p = InterleavePermutation(3, 5)
    M = np.array(p.matrix())
    assert np.array_equal(M @ M.T, np.eye(15, dtype=int))
    assert np.array_equal(M.sum(axis=0), np.ones(15, dtype=int))


def test_conjugate_to_circulant_examples():
    out = conjugate_to_circulant(CW74, 3)
    assert out == lift(CW74, 3)
    assert verify_cw(out) == 4
    assert conjugate_to_circulant(CW74, 1) == CW74
    one = CirculantRow.from_string("+")
    assert conjugate_to_circulant(one, 5) == CirculantRow.from_string("+0000")
    with pytest.raises(ValueError, match="positive"):
        conjugate_to_circulant(CW74, 0)


def test_conjugate_matches_permutation_matrix_conjugation():
    m, row = 3, CW74
    A = np.kron(np.eye(m, dtype=int), circulant(row))
    P = np.array(InterleavePermutation(m, row.n).matrix())
    B = P.T @ A @ P
    assert np.array_equal(B, circulant(conjugate_to_circulant(row, m)))


@given(rows(), st.integers(1, 5))
def test_conjugate_always_equals_lift(r, m):
    assert conjugate_to_circulant(r, m) == lift(r, m)
