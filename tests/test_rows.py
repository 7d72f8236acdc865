from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwmat import (
    CirculantRow,
    EquivalenceWitness,
    are_equivalent,
    canonical_form,
    describing_sets,
    from_sets,
    lift,
    multiplier_shift,
    verify_cw,
    verify_sets,
)
from cwmat.rows import _shifts, _weighing, apply_transform
from golden import (
    KNOWN_CW_7_4,
    KNOWN_CW_13_9,
    KNOWN_CW_13_9_N,
    KNOWN_CW_13_9_P,
    KNOWN_CW_31_16,
    KNOWN_CW_31_16_N,
    KNOWN_CW_31_16_P,
    W0_21_N,
    W0_21_P,
    W1_31_N,
    W1_31_P,
    W1_63_N,
    W1_63_P,
    W2_31_N,
    W2_31_P,
)
from orbit_lister import t_orbits
from row_reference import periodic_autocorrelation


def rows(max_n: int = 24, coeffs=(-1, 0, 1)):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.sampled_from(coeffs), min_size=n, max_size=n
        ).map(lambda cs: CirculantRow(n, tuple(cs)))
    )


def witnesses_for(n: int):
    ts = [t for t in range(1, n + 1) if math.gcd(t, n) == 1]
    return st.tuples(st.integers(0, n - 1), st.sampled_from(ts)).map(
        lambda p: EquivalenceWitness(*p)
    )


def transformed(max_n: int = 24):
    return rows(max_n).flatmap(
        lambda r: st.tuples(st.just(r), witnesses_for(r.n))
    )


W1 = from_sets(31, W1_31_P, W1_31_N)
W2 = from_sets(31, W2_31_P, W2_31_N)


def test_row_construction_validates():
    with pytest.raises(ValueError, match="order must be positive"):
        CirculantRow(0, ())
    with pytest.raises(ValueError, match="expected 3 coefficients"):
        CirculantRow(3, (1, 0))
    with pytest.raises(ValueError, match="lie in"):
        CirculantRow(2, (2, 0))


def test_row_construction_normalizes_to_ints():
    r = CirculantRow(3, (True, False, np.int64(-1)))
    assert r.coeffs == (1, 0, -1)
    assert all(type(c) is int for c in r.coeffs)
    assert CirculantRow(3, np.array([1, 0, -1])).coeffs == (1, 0, -1)
    with pytest.raises(ValueError, match="lie in"):
        CirculantRow(2, (True, 2))
    with pytest.raises(ValueError, match="expected 2 coefficients, got 3"):
        CirculantRow(2, (True, 0, 0))


@pytest.mark.parametrize(
    "n,coeffs", [(3, (0.7, 1.2, -1.9)), (3, (1.0, 0, -1)), (2, ("1", "-1")), (1, (np.float64(1),))]
)
def test_row_construction_rejects_non_integer_coefficients(n, coeffs):
    # rounding or parsing them would invent a row the caller never gave
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        CirculantRow(n, coeffs)


def test_string_round_trip():
    r = CirculantRow.from_string(KNOWN_CW_7_4)
    assert r.coeffs == (-1, 1, 1, 0, 1, 0, 0)
    assert r.to_string() == KNOWN_CW_7_4
    assert CirculantRow.from_string(" ".join(KNOWN_CW_7_4)) == r
    with pytest.raises(ValueError, match="bad sign character"):
        CirculantRow.from_string("+0x")
    with pytest.raises(ValueError, match="empty"):
        CirculantRow.from_string("  ")


@given(rows())
def test_to_string_from_string_inverse(r):
    assert CirculantRow.from_string(r.to_string()) == r
    assert CirculantRow.from_string(" ".join(r.to_string())) == r


def test_support_and_describing_sets():
    r = CirculantRow.from_string(KNOWN_CW_31_16)
    sets = describing_sets(r)
    assert set(sets.P) == KNOWN_CW_31_16_P
    assert set(sets.N) == KNOWN_CW_31_16_N
    assert set(r.support) == KNOWN_CW_31_16_P | KNOWN_CW_31_16_N
    assert from_sets(31, sets.P, sets.N) == r
    sets9 = describing_sets(CirculantRow.from_string(KNOWN_CW_13_9))
    assert set(sets9.P) == KNOWN_CW_13_9_P
    assert set(sets9.N) == KNOWN_CW_13_9_N


def test_from_sets_validates():
    with pytest.raises(ValueError, match="overlap"):
        from_sets(7, {1, 2}, {2})
    with pytest.raises(ValueError, match="out of range"):
        from_sets(7, {7}, set())


def test_verify_sets_examples():
    assert verify_sets(31, KNOWN_CW_31_16_P, KNOWN_CW_31_16_N) == 16
    assert verify_sets(13, KNOWN_CW_13_9_P, KNOWN_CW_13_9_N) == 9
    assert verify_sets(13, sorted(KNOWN_CW_13_9_P), list(KNOWN_CW_13_9_N)) == 9
    assert verify_sets(7, {0, 1}, ()) is None
    assert verify_sets(7, (), ()) == 0
    assert verify_sets(1, {0}, ()) == 1
    # fixed-width indices past the word size
    assert verify_sets(200, np.array([3, 150]), np.array([199])) is None
    assert verify_sets(200, np.array([70]), np.array([], dtype=np.int64)) == 1


@pytest.mark.parametrize(
    "n,P,N",
    [(7, {1, 2}, {2}), (7, {3, 2}, {2, 3}), (7, {7}, set()), (7, set(), {-1}), (7, {0}, {9})],
)
def test_verify_sets_rejects_like_from_sets(n, P, N):
    with pytest.raises(ValueError) as built:
        from_sets(n, P, N)
    with pytest.raises(ValueError, match=re.escape(str(built.value))):
        verify_sets(n, P, N)


@given(rows())
def test_verify_sets_matches_verify_cw_and_autocorrelation(r):
    sets = describing_sets(r)
    zero = all(periodic_autocorrelation(r, lag) == 0 for lag in range(1, r.n))
    expected = len(r.support) if zero else None
    assert verify_sets(r.n, sets.P, sets.N) == verify_cw(from_sets(r.n, sets.P, sets.N)) == expected


def test_autocorrelation_examples():
    r = CirculantRow.from_string(KNOWN_CW_7_4)
    assert periodic_autocorrelation(r, 0) == 4
    assert all(periodic_autocorrelation(r, lag) == 0 for lag in range(1, 7))
    plus = CirculantRow.from_string("++00000")
    assert periodic_autocorrelation(plus, 1) == 1


def test_verify_cw_examples():
    assert verify_cw(CirculantRow.from_string(KNOWN_CW_7_4)) == 4
    assert verify_cw(CirculantRow.from_string(KNOWN_CW_31_16)) == 16
    assert verify_cw(CirculantRow.from_string(KNOWN_CW_13_9)) == 9
    assert verify_cw(CirculantRow.from_string("+")) == 1
    assert verify_cw(CirculantRow.from_string("+000000")) == 1
    assert verify_cw(CirculantRow.from_string("++00000")) is None
    assert verify_cw(CirculantRow.from_string("0000000")) == 0


@given(rows())
def test_verify_cw_weight_is_support_size(r):
    k = verify_cw(r)
    if k is not None:
        assert k == len(r.support)


def test_apply_transform_examples():
    assert apply_transform(W1, EquivalenceWitness(0, 1)) == W1
    # multiplier 2 fixes w_1 without any shift
    assert apply_transform(W1, EquivalenceWitness(0, 2)) == W1
    shifted = apply_transform(W1, EquivalenceWitness(1, 1))
    assert set(describing_sets(shifted).P) == {(p + 1) % 31 for p in W1_31_P}
    with pytest.raises(ValueError, match="not a unit"):
        apply_transform(W1, EquivalenceWitness(0, 0))


@given(transformed())
def test_apply_transform_is_a_group_action(pair):
    r, w1 = pair
    n = r.n
    for w2 in (EquivalenceWitness(1 % n, 1), EquivalenceWitness(0, n - 1 if n > 1 else 1)):
        combined = EquivalenceWitness((w2.t * w1.s + w2.s) % n, (w2.t * w1.t) % n)
        assert apply_transform(apply_transform(r, w1), w2) == apply_transform(r, combined)


@given(transformed())
def test_apply_transform_invertible(pair):
    r, w = pair
    n = r.n
    t_inv = pow(w.t, -1, n)
    back = EquivalenceWitness((-t_inv * w.s) % n, t_inv)
    assert apply_transform(apply_transform(r, w), back) == r


def test_multiplier_shift_examples():
    assert multiplier_shift(W1, 2) == 0
    assert multiplier_shift(CirculantRow.from_string(KNOWN_CW_13_9), 3) == 0
    # t=1 fixes everything with shift 0
    assert multiplier_shift(W1, 1) == 0
    # shifting w_1 moves the stabilizing shift: 2(S+1) - 1 = S + 1 mod 31
    shifted = apply_transform(W1, EquivalenceWitness(1, 1))
    s = multiplier_shift(shifted, 2)
    assert s == 30
    assert apply_transform(shifted, EquivalenceWitness(s, 2)) == shifted
    # support {0, 2} mod 7 doubles to a gap-4 pair; no shift recovers a gap of 2
    assert multiplier_shift(CirculantRow.from_string("+0+0000"), 2) is None
    with pytest.raises(ValueError, match="not a unit"):
        multiplier_shift(W1, 0)


def test_are_equivalent_examples():
    assert are_equivalent(W1, W1) is not None
    assert are_equivalent(W1, W2) is None
    moved = apply_transform(W1, EquivalenceWitness(5, 4))
    w = are_equivalent(W1, moved)
    assert w is not None
    assert apply_transform(W1, w) == moved
    with pytest.raises(ValueError, match="order mismatch"):
        are_equivalent(W1, CirculantRow.from_string("+00"))
    # every entry of +00 lands on a + of ++0, which still has one more
    assert are_equivalent(CirculantRow.from_string("+00"), CirculantRow.from_string("++0")) is None


def test_are_equivalent_prefers_smallest_shift():
    assert are_equivalent(W1, W1) == EquivalenceWitness(0, 1)


@given(transformed())
def test_are_equivalent_finds_valid_witness(pair):
    r, w = pair
    moved = apply_transform(r, w)
    found = are_equivalent(r, moved)
    assert found is not None
    assert apply_transform(r, found) == moved


def test_canonical_form_examples():
    assert canonical_form(W1) == canonical_form(apply_transform(W1, EquivalenceWitness(7, 8)))
    assert canonical_form(W1) != canonical_form(W2)
    assert canonical_form(canonical_form(W1)) == canonical_form(W1)


@given(transformed())
def test_canonical_form_is_an_orbit_invariant(pair):
    r, w = pair
    assert canonical_form(r) == canonical_form(apply_transform(r, w))


@given(rows())
def test_canonical_form_is_least_in_its_orbit(r):
    c = canonical_form(r)
    assert are_equivalent(r, c) is not None
    assert c <= r


def _units(n: int) -> list[int]:
    return [t for t in range(n) if math.gcd(t, n) == 1]


def _brute_force_canonical(r: CirculantRow) -> CirculantRow:
    images = (
        apply_transform(r, EquivalenceWitness(s, t)) for s in range(r.n) for t in _units(r.n)
    )
    return min(images)


@given(rows(max_n=12))
def test_canonical_form_matches_brute_force(r):
    assert canonical_form(r) == _brute_force_canonical(r)


@given(rows(max_n=12), st.sampled_from((None, 2, 3)))
def test_rows_built_from_checked_sets_know_their_support(r, multiplier):
    """from_sets and canonical_form skip re-validating the coefficients
    and carry the support they know: both equal a row built and read
    from its coefficients alone."""
    built = [from_sets(r.n, *describing_sets(r))]
    if multiplier is None or math.gcd(multiplier, r.n) == 1:
        built.append(canonical_form(r, multiplier=multiplier))
    for row in built:
        fresh = CirculantRow(row.n, list(row.coeffs))
        assert (row, type(row.coeffs), row.support, row._signs) == (
            fresh, tuple, fresh.support, fresh._signs
        )


# Rows without a -1 entry: the least rotation then starts at a 0, or anywhere.
@given(rows(max_n=12, coeffs=(0, 1)))
def test_canonical_form_matches_brute_force_without_minus(r):
    assert canonical_form(r) == _brute_force_canonical(r)


# All-zero, all-+ and all-- rows, down to order 1.
@pytest.mark.parametrize("n", [1, 2, 7, 9, 12])
@pytest.mark.parametrize("c", [-1, 0, 1])
def test_canonical_form_of_constant_rows(n, c):
    r = CirculantRow(n, (c,) * n)
    assert canonical_form(r) == r == _brute_force_canonical(r)


@st.composite
def fixed_orbit_unions(draw, max_n: int = 60):
    """(row, t): one sign per t-orbit of Z_n, for odd n <= max_n and t in
    {2, 3, 5} prime to n, so t fixes the row."""
    n = draw(st.integers(1, max_n).filter(lambda m: m % 2 == 1))
    t = draw(st.sampled_from([t for t in (2, 3, 5) if math.gcd(t, n) == 1]))
    orbits = t_orbits(n, t)
    signs = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=len(orbits), max_size=len(orbits)))
    coeffs = [0] * n
    for orb, c in zip(orbits, signs):
        for x in orb:
            coeffs[x] = c
    return CirculantRow(n, tuple(coeffs)), t


@st.composite
def orbit_unions(draw, max_n: int = 60):
    """(row, t): a fixed_orbit_unions row, then rotated, so t fixes the
    row up to a shift."""
    r, t = draw(fixed_orbit_unions(max_n))
    shift = EquivalenceWitness(draw(st.integers(0, r.n - 1)), 1)
    return apply_transform(r, shift), t


# Random orbit signs almost never give a weighing row of weight > 1, so
# the accept path is pinned by known rows that their multiplier fixes.
@given(fixed_orbit_unions())
@example((W1, 2))
@example((W2, 2))
@example((CirculantRow.from_string(KNOWN_CW_13_9), 3))
@example((CirculantRow.from_string(KNOWN_CW_7_4), 2))
def test_weighing_with_orbit_folding_matches_every_lag(case):
    """_weighing tries one lag per orbit {+-t^j s}, exact when t fixes P and N."""
    r, t = case
    sets = describing_sets(r)
    pm = sum(1 << i for i in sets.P)
    nm = sum(1 << i for i in sets.N)
    expected = all(periodic_autocorrelation(r, lag) == 0 for lag in range(1, r.n))
    assert _weighing(r.n, r.support, pm, nm, t) == expected
    assert _weighing(r.n, r.support, pm, nm, 1) == expected


@given(orbit_unions())
def test_canonical_form_with_a_fixing_multiplier_matches_brute_force(case):
    r, t = case
    assert multiplier_shift(r, t) is not None
    assert canonical_form(r, multiplier=t) == canonical_form(r) == _brute_force_canonical(r)


# Mostly rows that the multiplier does not fix: every unit is scanned.
@given(rows(max_n=12).flatmap(lambda r: st.tuples(st.just(r), st.sampled_from(_units(r.n)))))
def test_canonical_form_with_any_multiplier_matches_brute_force(case):
    r, t = case
    assert canonical_form(r, multiplier=t) == canonical_form(r) == _brute_force_canonical(r)


def test_canonical_form_rejects_a_non_unit_multiplier():
    with pytest.raises(ValueError, match="not a unit"):
        canonical_form(W1, multiplier=31)
    with pytest.raises(ValueError, match="not a unit"):
        canonical_form(CirculantRow.from_string("+00+00000"), multiplier=3)


@given(transformed(max_n=12))
def test_are_equivalent_and_multiplier_shift_match_brute_force(pair):
    r, w = pair
    moved = apply_transform(r, w)
    n = r.n
    witnesses = [
        EquivalenceWitness(s, t)
        for s in range(n)
        for t in _units(n)
        if apply_transform(r, EquivalenceWitness(s, t)) == moved
    ]
    assert are_equivalent(r, moved) == witnesses[0]
    for t in _units(n):
        fixing = [s for s in range(n) if apply_transform(r, EquivalenceWitness(s, t)) == r]
        assert multiplier_shift(r, t) == (fixing[0] if fixing else None)


def _brute_force_witnesses(r: CirculantRow, target: CirculantRow) -> list[tuple[int, int]]:
    """Every (s, t) with x^s * r(x^t) = target, ascending, by trying every
    unit t and every rotation s of r(x^t)."""
    n = r.n
    found = []
    for t in _units(n):
        image = apply_transform(r, EquivalenceWitness(0, t)).coeffs
        for s in range(n):
            if image[n - s :] + image[: n - s] == target.coeffs:
                found.append((s, t))
    return sorted(found)


def _assert_shifts_match_brute_force(r: CirculantRow, moved: CirculantRow) -> None:
    assert are_equivalent(r, moved) == EquivalenceWitness(*_brute_force_witnesses(r, moved)[0])
    least_fixing = {}
    for s, t in _brute_force_witnesses(r, r):
        least_fixing.setdefault(t, s)
    for t in _units(r.n):
        assert multiplier_shift(r, t) == least_fixing.get(t), (r.to_string(), t)


# Sparse rows: unions of t-orbits, rotated, and moved by a random witness.
@given(orbit_unions().flatmap(lambda case: st.tuples(st.just(case[0]), witnesses_for(case[0].n))))
def test_shifts_of_orbit_unions_match_brute_force(pair):
    r, w = pair
    _assert_shifts_match_brute_force(r, apply_transform(r, w))


def rows_of(n: int):
    return st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n).map(
        lambda cs: CirculantRow(n, tuple(cs))
    )


def sparse_rows_of(n: int, max_weight: int = 6):
    """Rows of order n with at most max_weight nonzero entries."""
    return st.dictionaries(st.integers(0, n - 1), st.sampled_from((-1, 1)), max_size=max_weight).map(
        lambda signs: CirculantRow(n, tuple(signs.get(i, 0) for i in range(n)))
    )


@st.composite
def shift_cases(draw, max_n: int = 40):
    """(row, unit, target): a dense or sparse row, any unit, and as target
    an image of the row, the row itself, or any dense or sparse row."""
    n = draw(st.integers(1, max_n))
    r = draw(st.one_of(rows_of(n), sparse_rows_of(n)))
    t = draw(st.sampled_from(_units(n)))
    images = witnesses_for(n).map(lambda w: apply_transform(r, w))
    return r, t, draw(st.one_of(images, st.just(r), rows_of(n), sparse_rows_of(n)))


@given(shift_cases())
def test_shifts_match_a_scan_over_every_shift(case):
    r, t, target = case
    expected = [s for s in range(r.n) if apply_transform(r, EquivalenceWitness(s, t)) == target]
    assert _shifts(r, t, target) == expected



@pytest.mark.parametrize("n", range(1, 7))
def test_shifts_of_every_row_match_a_scan_over_every_shift(n):
    """Every row of order n <= 6, every unit t, and as target every image
    of the row under a witness: among them periodic rows, whose sign
    counts share a factor with n, so several candidate shifts solve the
    index-sum congruence and each must be checked."""
    for coeffs in itertools.product((-1, 0, 1), repeat=n):
        r = CirculantRow(n, coeffs)
        images = {
            t: [apply_transform(r, EquivalenceWitness(s, t)) for s in range(n)] for t in _units(n)
        }
        for target in {image for moved in images.values() for image in moved}:
            for t, moved in images.items():
                expected = [s for s in range(n) if moved[s] == target]
                assert _shifts(r, t, target) == expected, (r.to_string(), t, target.to_string())


# The weight-16 class representatives at n = 31, 63 and 93.
WEIGHT_16_CLASSES = {
    31: (W1, W2),
    63: (from_sets(63, W1_63_P, W1_63_N), lift(from_sets(21, W0_21_P, W0_21_N), 3)),
    93: (lift(W1, 3), lift(W2, 3)),
}


@pytest.mark.parametrize("n", sorted(WEIGHT_16_CLASSES))
@settings(max_examples=10)
@given(data=st.data())
def test_shifts_of_weight_16_classes_match_brute_force(n, data):
    for r in WEIGHT_16_CLASSES[n]:
        assert verify_cw(r) == 16
        _assert_shifts_match_brute_force(r, apply_transform(r, data.draw(witnesses_for(n))))
