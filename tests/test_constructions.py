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


def test_import_cwmat_leaves_numpy_unloaded_until_a_construction_is_used():
    code = (
        "import sys, cwmat\n"
        "assert 'numpy' not in sys.modules, 'import cwmat loaded numpy'\n"
        "from cwmat import kronecker\n"
        "assert 'numpy' in sys.modules and kronecker is cwmat.constructions.kronecker\n"
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


def test_circulant_layout():
    C = circulant(CirculantRow.from_string("+-0"))
    assert C.tolist() == [[1, -1, 0], [0, 1, -1], [-1, 0, 1]]


def test_dense_matrix_validates():
    with pytest.raises(ValueError, match="square matrix"):
        DenseWeighingMatrix([[1, 0, 0], [0, 1, 0]])
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
    assert np.array_equal(W.entries, circulant(CW74))


def test_kronecker_multiplies_order_and_weight():
    W = DenseWeighingMatrix.from_circulant_row(CW74)
    K = kronecker(W, W)
    assert (K.order, K.weight) == (49, 16)
    assert kronecker(DenseWeighingMatrix.identity(1), W).entries.tolist() == W.entries.tolist()
    K2 = kronecker(DenseWeighingMatrix.identity(3), W)
    assert (K2.order, K2.weight) == (21, 4)
    # block diagonal: off-diagonal blocks vanish
    assert not K2.entries[:7, 7:].any()


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
    assert sorted(arr.tolist()) == list(range(k * m))
    assert [p.apply(i) for i in range(k * m)] == arr.tolist()
    inv = p.inverse
    assert [inv.apply(p.apply(i)) for i in range(k * m)] == list(range(k * m))


def test_interleave_matrix_is_permutation_matrix():
    p = InterleavePermutation(3, 5)
    M = p.matrix()
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
    P = InterleavePermutation(m, row.n).matrix()
    B = P.T @ A @ P
    assert np.array_equal(B, circulant(conjugate_to_circulant(row, m)))


@given(rows(), st.integers(1, 5))
def test_conjugate_always_equals_lift(r, m):
    assert conjugate_to_circulant(r, m) == lift(r, m)
