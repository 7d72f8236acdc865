"""The contract every public record keeps: it is a tuple of its fields.

Each record reads as before (repr), survives pickling, refuses field
assignment, and hashes and compares as the plain tuple of its fields.
The validated records also keep their error messages.
"""
from __future__ import annotations

import pickle
import re
from math import comb

import pytest

from cwmat import (
    CirculantRow,
    ClassificationResult,
    DescribingSets,
    EquivalenceClass,
    EquivalenceWitness,
    ExistenceWitness,
    ModulusContext,
    Olp,
    OlpPair,
    SearchReport,
    SearchSpec,
)

ROW = CirculantRow(3, (1, -1, 0))
PAIR = OlpPair(Olp((5, 5)), Olp((5, 1)))
SPEC = SearchSpec(31, 16, 2, PAIR)
SPEC_REPR = "SearchSpec(n=31, weight=16, t=2, pair=OlpPair(p=Olp(parts=(5, 5)), n=Olp(parts=(1, 5))))"
ROW_REPR = "CirculantRow(n=3, coeffs=(1, -1, 0))"

RECORDS = [
    (ModulusContext(33, 35), "ModulusContext(n=33, t=2)"),
    (Olp((5, 1)), "Olp(parts=(1, 5))"),
    (ExistenceWitness(5, 2, (10,)), "ExistenceWitness(k=5, l=2, lengths=(10,))"),
    (ROW, ROW_REPR),
    (
        DescribingSets(frozenset({0}), frozenset({1})),
        "DescribingSets(P=frozenset({0}), N=frozenset({1}))",
    ),
    (EquivalenceWitness(1, 2), "EquivalenceWitness(s=1, t=2)"),
    (SPEC, SPEC_REPR),
    (
        EquivalenceClass(ROW, (ROW,)),
        f"EquivalenceClass(representative={ROW_REPR}, members=({ROW_REPR},))",
    ),
    (
        SearchReport(SPEC, 0, (), ()),
        f"SearchReport(spec={SPEC_REPR}, candidates_tested=0, solutions=(), classes=())",
    ),
    (
        ClassificationResult(3, 2, (ROW,), False),
        f"ClassificationResult(n=3, weight=2, classes=({ROW_REPR},), cross_checked=False)",
    ),
]


@pytest.mark.parametrize("record,text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_contract(record, text):
    assert repr(record) == text
    twin = pickle.loads(pickle.dumps(record))
    assert twin == record and type(twin) is type(record)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == tuple(record)
    assert hash(twin) == hash(record) == hash(tuple(record))


@pytest.mark.parametrize(
    "make,args,error,message",
    [
        (ModulusContext, (0,), ValueError, "modulus must be positive, got 0"),
        (ModulusContext, (9, 3), ValueError, "t=3 is not a unit mod 9"),
        (ModulusContext, (9, 12), ValueError, "t=12 is not a unit mod 9"),
        (Olp, ((0, 1),), ValueError, "parts must be positive, got (0, 1)"),
        (Olp, ((1.5,),), TypeError, "'float' object cannot be interpreted as an integer"),
        (CirculantRow, (0, ()), ValueError, "order must be positive, got 0"),
        (CirculantRow, (3, (1, 0)), ValueError, "expected 3 coefficients, got 2"),
        (CirculantRow, (2, (2, 0)), ValueError, "coefficients must lie in {-1, 0, +1}"),
        (SearchSpec, (0, 16, 2, PAIR), ValueError, "order must be positive, got 0"),
        (SearchSpec, (31, 16, 1, PAIR), ValueError, "multiplier base must be at least 2, got 1"),
        (SearchSpec, (9, 16, 3, PAIR), ValueError, "t=3 is not a unit mod 9"),
        (
            SearchSpec,
            (31, 9, 2, PAIR),
            ValueError,
            "olp sums must be (6, 3) for weight 9, got (10, 6)",
        ),
        (
            SearchSpec,
            (63, 16, 64, OlpPair(Olp((1,) * 10), Olp((1,) * 6))),
            ValueError,
            f"{comb(63, 16) * comb(16, 10)} orbit assignments exceed the search bound of 1000000",
        ),
    ],
)
def test_validated_records_keep_their_error_messages(make, args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make(*args)
