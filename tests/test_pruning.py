from __future__ import annotations

import math
import os
import pickle
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cwmat import (
    CirculantRow,
    CountingWitness,
    ExistenceWitness,
    ModulusContext,
    Olp,
    OlpPair,
    PruneReport,
    describing_set_sizes,
    describing_sets,
    diff_length_candidates,
    divisors,
    feasible_pairs,
    olp_of_set,
    orbit_count_cap,
    prune,
    survivors,
    verify_cw,
)
from cwmat.pruning import (
    MAX_CROSS_PAIRS,
    MAX_OLP_PARTS,
    _bounds,
    _capped_partition_count,
    _capped_partitions,
    _cross_bounds,
    _cross_row,
    _existence_table,
    _field,
    _length_at,
    _mask,
    _olp_facts,
    _side_bounds,
    _width,
    cross_pairs,
)
from cwmat.search import MAX_MASK_BITS
from golden import (
    COUNTING_SURVIVOR_INDICES,
    EXISTENCE_SURVIVOR_INDICES,
    FEASIBLE_PAIRS_16,
    KNOWN_COUNTING_WITNESSES,
    KNOWN_REJECTION_WITNESSES,
    PARTITIONS_OF_6,
)
from orbit_lister import orbit_lengths, t_orbits

SRC = Path(__file__).resolve().parent.parent / "src"


def _caps(size: int, t: int) -> list[int]:
    return [0] + [orbit_count_cap(ell, t) for ell in range(1, size + 1)]


# p(0)..p(12)
PARTITION_NUMBERS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77)


def _pair(p: str, n: str) -> OlpPair:
    return OlpPair(Olp.from_string(p), Olp.from_string(n))


def _uncapped_partitions(total: int) -> list[Olp]:
    """Every partition of total, by the capped generator with no cap binding."""
    return _capped_partitions(total, [total] * (total + 1))


def _cap_feasible(pair: OlpPair, t: int = 2) -> bool:
    """The demand test: the orbits of each length that both sides use fit its cap."""
    return all(need <= orbit_count_cap(ell, t) for ell, need in pair.demand)


def _length_count_bounds(pair: OlpPair, t: int = 2):
    """(delta, delta_bar) of the packed tables prune reads: length ->
    (min, max) for the lengths with max > 0; delta sums the P and N tables."""
    width = _width(pair)
    p_lo, p_hi = _side_bounds(pair.p, t, width)
    n_lo, n_hi = _side_bounds(pair.n, t, width)

    def unpack(lo: int, hi: int) -> dict[int, tuple[int, int]]:
        mins = _packed_fields(lo, width)
        return {m: (mins.get(m, 0), top) for m, top in _packed_fields(hi, width).items()}

    return unpack(p_lo + n_lo, p_hi + n_hi), unpack(*_cross_bounds(pair, t, width))


def _own_lengths(olp: Olp, t: int = 2) -> frozenset[int]:
    """pol(Delta) of one describing set: the lengths of its own differences,
    read off the bitmask the existence level builds."""
    mask = _olp_facts(olp, t)[1]
    return frozenset(_length_at[i] for i in range(mask.bit_length()) if mask >> i & 1)


def test_olp_parse_and_format():
    assert Olp.from_string("1^1 5^1").parts == (1, 5)
    assert Olp.from_string("5^2").parts == (5, 5)
    assert Olp.from_string("10").parts == (10,)
    assert str(Olp.from_string("3^1 1^1 3^1")) == "1^1 3^2"
    assert str(Olp((6, 4))) == "4^1 6^1"
    for bad in ("0^1", "2^", "x", "-3", "1^-1"):
        with pytest.raises(ValueError, match="bad olp token|parts must be positive"):
            Olp.from_string(bad)


def test_olp_from_string_refuses_more_parts_than_its_bound():
    """A side with p parts holds at least p^2 bits of orbit masks, so the
    part bound is the square root of the search's mask bound."""
    assert MAX_OLP_PARTS**2 == MAX_MASK_BITS
    assert len(Olp.from_string(f"1^{MAX_OLP_PARTS}").parts) == MAX_OLP_PARTS
    with pytest.raises(ValueError, match=f"^32769 olp parts exceed the bound of {MAX_OLP_PARTS}$"):
        Olp.from_string(f"1^{MAX_OLP_PARTS - 1} 3^2")


def test_olp_from_string_refuses_before_expanding_under_an_address_space_cap():
    """'1^100000000' stands for 10^8 parts, more than 500 MB can hold: under
    that cap (ulimit -v 500000) it is refused at once, not a MemoryError."""
    cap = 500_000 * 1024
    code = "from cwmat import Olp\ntry: Olp.from_string('1^100000000')\nexcept ValueError as e: print(e)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert time.perf_counter() - start < 5.0
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"100000000 olp parts exceed the bound of {MAX_OLP_PARTS}\n"


def test_olp_takes_numpy_integer_parts():
    olp = Olp((np.int64(3), np.int32(1), np.uint8(3)))
    assert olp.parts == (1, 3, 3)
    assert all(type(p) is int for p in olp.parts)
    assert str(olp) == "1^1 3^2"


@pytest.mark.parametrize("parts", [(2.5, 3.9), (3.0,), ("3",), (1, "2")])
def test_olp_rejects_parts_that_are_not_integers(parts):
    with pytest.raises(TypeError):
        Olp(parts)


def test_olp_total_and_multiplicities():
    olp = Olp.from_string("1^1 2^1 3^1 4^1")
    assert olp.total == 10
    assert olp.multiplicities == {1: 1, 2: 1, 3: 1, 4: 1}
    assert Olp.from_string("3^2").multiplicities == {3: 2}


@given(st.integers(min_value=0, max_value=11))
def test_olp_string_round_trip(total):
    for olp in _reference_partitions(total):
        assert Olp.from_string(str(olp)) == olp


def test_olp_of_set_examples():
    ctx = ModulusContext(31, 2)
    assert str(olp_of_set({0, 1, 2, 4, 8, 16}, ctx)) == "1^1 5^1"
    with pytest.raises(ValueError, match="union of t-orbits"):
        olp_of_set({1, 2}, ctx)


def test_enumerate_partitions_of_6_in_order():
    assert tuple(str(o) for o in _uncapped_partitions(6)) == PARTITIONS_OF_6


def test_enumerate_partitions_counts():
    for total, expected in enumerate(PARTITION_NUMBERS):
        assert len(_uncapped_partitions(total)) == expected
    assert _uncapped_partitions(0) == [Olp(())]


@given(st.integers(min_value=0, max_value=12))
def test_enumerate_partitions_are_sorted_distinct_sums(total):
    seen = set()
    for olp in _uncapped_partitions(total):
        assert olp.total == total
        assert tuple(sorted(olp.parts)) == olp.parts
        assert olp.parts not in seen
        seen.add(olp.parts)


def _reference_partitions(total: int):
    """Partitions of total in the documented order, by the plain recursion:
    ascending largest part, then the same order on the remainder."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for m in range(1, min(remaining, cap) + 1):
            for rest in rec(remaining - m, m):
                yield rest + (m,)

    return [Olp(parts) for parts in rec(total, total)]


@pytest.mark.parametrize("t", [2, 3, 5])
def test_feasible_partitions_are_the_capped_enumeration(t):
    """The capped generator lists exactly the partitions that fit the
    caps, in the order of the full enumeration."""
    for size in range(26):
        everything = _reference_partitions(size)
        if size <= 20:
            assert _uncapped_partitions(size) == everything, size
        caps = _caps(size, t)
        fitting = [
            olp
            for olp in everything
            if all(m <= caps[ell] for ell, m in olp.multiplicities.items())
        ]
        assert _capped_partitions(size, _caps(size, t)) == fitting, (size, t)


def test_describing_set_sizes():
    assert describing_set_sizes(16) == (10, 6)
    assert describing_set_sizes(4) == (3, 1)
    assert describing_set_sizes(9) == (6, 3)
    assert describing_set_sizes(1) == (1, 0)
    assert describing_set_sizes(0) == (0, 0)
    with pytest.raises(ValueError, match="perfect square"):
        describing_set_sizes(15)
    with pytest.raises(ValueError, match="weight -4 .* nonnegative perfect square"):
        describing_set_sizes(-4)


def test_feasible_partitions_for_weight_16():
    assert [str(o) for o in _capped_partitions(6, _caps(6, 2))] == [
        "1^1 2^1 3^1",
        "3^2",
        "2^1 4^1",
        "1^1 5^1",
        "6^1",
    ]
    assert [str(o) for o in _capped_partitions(10, _caps(10, 2))] == [
        "1^1 2^1 3^1 4^1",
        "3^2 4^1",
        "2^1 4^2",
        "2^1 3^1 5^1",
        "1^1 4^1 5^1",
        "5^2",
        "1^1 3^1 6^1",
        "4^1 6^1",
        "1^1 2^1 7^1",
        "3^1 7^1",
        "2^1 8^1",
        "1^1 9^1",
        "10^1",
    ]


def test_cross_and_feasible_pairs_for_weight_16():
    assert len(cross_pairs(16)) == 65
    pairs = feasible_pairs(16)
    assert len(pairs) == 41
    assert tuple((str(q.p), str(q.n)) for q in pairs) == FEASIBLE_PAIRS_16


def test_cap_feasible_checks_combined_multiplicities():
    cross, feasible = cross_pairs(16), feasible_pairs(16)
    # both sides fit alone; four 3-orbits together exceed the cap of 3
    assert _pair("3^2 4^1", "3^2") in cross
    assert _pair("3^2 4^1", "3^2") not in feasible
    assert _pair("10^1", "6^1") in feasible
    # a side that exceeds a cap on its own is in no cross pair
    assert _pair("1^6 4^1", "6^1") not in cross
    assert _pair("10^1", "1^6") not in cross


def test_diff_length_candidates_examples():
    assert diff_length_candidates(5, 2) == frozenset({10})
    assert diff_length_candidates(10, 6) == frozenset({15, 30})
    assert diff_length_candidates(4, 6) == frozenset({12})
    assert diff_length_candidates(9, 3) == frozenset({9})
    assert diff_length_candidates(6, 2) == frozenset({3, 6})
    assert diff_length_candidates(1, 1) == frozenset()
    for k in range(2, 13):
        assert diff_length_candidates(1, k) == frozenset({k})
    with pytest.raises(ValueError, match="positive"):
        diff_length_candidates(0, 3)
    # other t fix a nonzero difference of two points of equal length
    assert diff_length_candidates(1, 1, 3) == frozenset({1})
    assert diff_length_candidates(2, 2, 3) == frozenset({1, 2})
    assert diff_length_candidates(1, 2, 3) == frozenset({2})
    assert diff_length_candidates(6, 2, 1) == frozenset({3, 6})


def _divisor_filter_candidates(k: int, l: int, t: int) -> frozenset[int]:
    """The definition the closed form must equal: the divisors m of
    lcm(k, l) with k | lcm(l, m) and l | lcm(m, k), and m > 1 at t = 2."""
    return frozenset(
        m
        for m in divisors(math.lcm(k, l))
        if (m > 1 or t != 2) and math.lcm(l, m) % k == 0 and math.lcm(m, k) % l == 0
    )


def test_diff_length_candidates_match_the_divisor_filter():
    for t in (1, 2, 3):
        for k in range(1, 61):
            for l in range(1, 61):
                assert diff_length_candidates(k, l, t) == _divisor_filter_candidates(k, l, t), (k, l, t)


@given(st.integers(1, 30), st.integers(1, 30))
def test_diff_length_candidates_symmetric(k, l):
    assert diff_length_candidates(k, l) == diff_length_candidates(l, k)


@given(st.integers(1, 30))
def test_diff_length_candidates_equal_lengths(k):
    assert diff_length_candidates(k, k) == frozenset(d for d in divisors(k) if d > 1)
    assert diff_length_candidates(k, k, 3) == frozenset(divisors(k))


def test_candidates_sharp_for_coprime_lengths():
    for k in range(1, 13):
        for l in range(1, 13):
            if math.gcd(k, l) == 1 and (k, l) != (1, 1):
                assert diff_length_candidates(k, l) == frozenset({k * l})


def test_candidates_for_prime_ratio():
    # l prime dividing k: only k*l, k, or k/l can appear
    for l in (2, 3, 5, 7):
        for k in range(l, 40, l):
            assert diff_length_candidates(k, l) <= frozenset({k * l, k, k // l})


def test_candidates_for_shared_prime_factor():
    # k = k'u, l = m'u with u prime and gcd(k', m') = 1
    for u in (2, 3, 5):
        for kp in range(1, 7):
            for mp in range(1, 7):
                if math.gcd(kp, mp) != 1:
                    continue
                cand = diff_length_candidates(kp * u, mp * u)
                assert cand <= frozenset({kp * mp, u * kp * mp})
                if kp * mp % u == 0:
                    assert cand == frozenset({u * kp * mp})


def _brute_candidates(k: int, l: int, t: int, max_order: int = 250) -> frozenset[int]:
    """Orbit-difference lengths actually realized at every order up to
    max_order prime to t (the odd orders, at t = 2)."""
    out = set()
    for n in range(2, max_order + 1):
        if math.gcd(n, t) != 1:
            continue
        table = orbit_lengths(n, t)
        reps = [orb[0] for orb in t_orbits(n, t)]
        a_reps = [a for a in reps if table[a] == k]
        b_reps = [b for b in reps if table[b] == l]
        for a in a_reps:
            for b in b_reps:
                for e in range(k):
                    d = (pow(t, e, n) * a - b) % n
                    if d:
                        out.add(table[d])
    return frozenset(out)


def test_candidates_sound_for_small_pairs():
    """Every length realized by an actual orbit difference is predicted."""
    for k, l in [(5, 2), (6, 2), (4, 6), (3, 3), (6, 6), (5, 5)]:
        assert _brute_candidates(k, l, 2) <= diff_length_candidates(k, l)


def test_candidates_sound_for_small_pairs_at_t_3():
    """As above, at every order up to 250 prime to 3, even ones included.
    Length 1 occurs: two fixed points of x -> 3x (Z_4: 0 and 2), or two
    2-orbits (Z_8: {1, 3} and {5, 7}), differ by a nonzero fixed point."""
    for k, l in [(1, 1), (1, 2), (2, 2), (2, 4), (4, 4), (3, 3), (5, 5), (1, 4), (6, 2)]:
        realized = _brute_candidates(k, l, 3)
        assert realized <= diff_length_candidates(k, l, 3), (k, l)
        assert (1 in realized) == (k == l), (k, l)


def test_pol_delta_examples():
    assert _own_lengths(Olp.from_string("4^1 6^1")) == frozenset({2, 3, 4, 6, 12})
    assert _own_lengths(Olp.from_string("1^1 2^1 3^1")) == frozenset({2, 3, 6})
    assert _own_lengths(Olp.from_string("5^2")) == frozenset({5})
    assert _own_lengths(Olp.from_string("1^1")) == frozenset()
    # at t = 3 two fixed points differ by a fixed point
    assert _own_lengths(Olp.from_string("1^2")) == frozenset()
    assert _own_lengths(Olp.from_string("1^2"), 3) == frozenset({1})


def test_pol_delta_bar_examples():
    assert _length_count_bounds(_pair("5^2", "1^1 5^1"))[1].keys() == {5}
    assert _length_count_bounds(_pair("4^1 6^1", "2^1 4^1"))[1].keys() == {2, 3, 4, 6, 12}


def test_length_count_bounds_detects_forced_excess():
    delta, delta_bar = _length_count_bounds(_pair("4^1 6^1", "1^1 2^1 3^1"))
    assert delta[12] == (48, 48)
    assert delta_bar[12] == (24, 24)

    delta, delta_bar = _length_count_bounds(_pair("1^1 9^1", "3^2"))
    assert delta[3] == (30, 102)
    assert delta_bar[3] == (12, 12)


def test_length_count_bounds_intra_orbit_floor():
    # doubling maps each 4-orbit into itself, forcing 8 internal differences
    delta, delta_bar = _length_count_bounds(_pair("4^1 6^1", "6^1"))
    assert delta[4] == (8, 12)
    assert 4 not in delta_bar
    # with t such that the floor does not apply, only the upper bound remains
    delta1, _ = _length_count_bounds(_pair("4^1 6^1", "6^1"), t=1)
    assert delta1[4][0] == 0


def test_length_count_bounds_totals():
    _, delta_bar = _length_count_bounds(_pair("5^2", "1^1 5^1"))
    assert delta_bar[5] == (120, 120)
    # every cross candidate set is a singleton, so maxima sum to 2|P||N|
    assert sum(hi for _, hi in delta_bar.values()) == 2 * 10 * 6


def _reference_tables(pair: OlpPair, t: int):
    """Per-length (min, max) tables, length by length over every contribution.

    The definition the library's one-pass tables must equal: a
    contribution of size s counts toward the max wherever its candidate
    set allows the length, and toward the min by the larger of its
    forced part (s, if the candidate set is exactly that length) and,
    for t = 2, the intra-orbit floor min(2k, s) at its own length k.
    """

    def side(parts):
        intra = [(k, k, k * (k - 1), True) for k in parts if k >= 2]
        pairs = [
            (parts[i], parts[j], 2 * parts[i] * parts[j], False)
            for i in range(len(parts))
            for j in range(i + 1, len(parts))
        ]
        return intra + pairs

    within = side(pair.p.parts) + side(pair.n.parts)
    across = [(k, l, 2 * k * l, False) for k in pair.p.parts for l in pair.n.parts]
    lengths = set()
    for k, l, _, _ in within + across:
        lengths |= diff_length_candidates(k, l, t)

    def table(contributions, floor):
        cands = [diff_length_candidates(k, l, t) for k, l, _, _ in contributions]
        out = {}
        for ell in sorted(lengths):
            lo = hi = 0
            for (k, l, size, intra), cand in zip(contributions, cands):
                if ell in cand:
                    hi += size
                forced = size if cand == {ell} else 0
                lo += max(forced, min(2 * k, size) if floor and intra and ell == k else 0)
            if lo or hi:
                out[ell] = (lo, hi)
        return out

    return table(within, t == 2), table(across, False)


def _assert_bounds_match_the_reference(pairs):
    for pair in pairs:
        for t in (2, 1):
            assert _length_count_bounds(pair, t) == _reference_tables(pair, t), (str(pair), t)
        for olp in (pair.p, pair.n):
            own, _ = _reference_tables(OlpPair(olp, Olp(())), 2)
            assert _own_lengths(olp) == frozenset(own), str(olp)


@pytest.mark.parametrize("weight", [4, 9, 16, 25])
def test_one_pass_bounds_match_the_reference(weight):
    _assert_bounds_match_the_reference(feasible_pairs(weight))


def test_one_pass_bounds_with_repeated_parts():
    """The tables weight each distinct (k, l) by its multiplicities; these
    pairs repeat parts often: the W = 36 pairs the counting level reads,
    and the t = 3 grids, whose caps allow more orbits of each length."""
    existence_36 = survivors(prune(feasible_pairs(36), level="existence"))
    assert len(existence_36) == 542
    t3 = feasible_pairs(16, 3) + feasible_pairs(25, 3)
    for pairs in (existence_36, t3):
        assert any(
            max(olp.multiplicities.values(), default=0) > 1
            for pair in pairs
            for olp in (pair.p, pair.n)
        )
        _assert_bounds_match_the_reference(pairs)


def _packed_fields(packed: int, width: int) -> dict[int, int]:
    """The nonzero width-bit fields of a packed table, by the length each holds."""
    field = (1 << width) - 1
    at = (i for i in range(0, packed.bit_length(), width) if packed >> i & field)
    return {_length_at[i // width]: packed >> i & field for i in at}


def test_existence_masks_and_cross_rows_match_the_tables():
    """The existence level's pol_delta bitmask, ORed from the candidate
    masks of an olp's own (k, l), is the key set of its bound table; the
    delta_bar table, summed from rows cached per (olp(N), k) and weighted
    by the multiplicity of k, is the table of one contribution per
    (P part, N part) and the reference table."""
    for weight in (0, 4, 9, 16, 25, 36):
        for t in (2, 3):
            for size in describing_set_sizes(weight):
                for olp in _capped_partitions(size, _caps(size, t)):
                    parts, mask, _ = _olp_facts(olp, t)
                    assert parts == tuple(sorted(set(olp.parts))), str(olp)
                    own, _ = _reference_tables(OlpPair(olp, Olp(())), t)
                    assert mask == _mask(map(_field, own)), (weight, t, str(olp))
    for weight in (25, 36):
        for t in (2, 3):
            existence = survivors(prune(feasible_pairs(weight, t), level="existence", t=t))
            assert existence
            for pair in existence:
                width = _width(pair)
                lo = hi = 0
                p_mults, n_mults = pair.p.multiplicities, pair.n.multiplicities
                for k, c in p_mults.items():
                    row_lo, row_hi = _cross_row(pair.n, k, t, width)
                    lo, hi = lo + c * row_lo, hi + c * row_hi
                crosses = [
                    (k, l, 2 * k * l * c * d, 0)
                    for k, c in p_mults.items()
                    for l, d in n_mults.items()
                ]
                assert (lo, hi) == _bounds(crosses, t, width), str(pair)
                _, expected = _reference_tables(pair, t)
                assert _packed_fields(hi, width) == {m: b[1] for m, b in expected.items()}
                assert _packed_fields(lo, width) == {m: b[0] for m, b in expected.items() if b[0]}


def test_bounds_with_long_orbits():
    """The packed tables hold one field per length that occurs, not one
    per length value: differences of orbits near 4000 long reach lengths
    near 1.6e7, yet the tables stay small and match the reference."""
    pairs = [_pair("3999^1", "4001^1"), _pair("2^1 3997^1", "4001^1")]
    start = time.perf_counter()
    _assert_bounds_match_the_reference(pairs)
    assert prune(pairs) == [_reference_report(pair, "counting", 2) for pair in pairs]
    assert time.perf_counter() - start < 30.0


def test_prune_existence_level():
    reports = prune(feasible_pairs(16), level="existence")
    assert len(reports) == 41
    accepted = {i for i, r in enumerate(reports, 1) if r.verdict == "accepted"}
    assert accepted == EXISTENCE_SURVIVOR_INDICES
    assert len(survivors(reports)) == 11


def test_prune_counting_level():
    reports = prune(feasible_pairs(16))
    accepted = [i for i, r in enumerate(reports, 1) if r.verdict == "accepted"]
    assert tuple(accepted) == COUNTING_SURVIVOR_INDICES
    assert [str(r.pair) for r in reports if r.verdict == "accepted"] == [
        "(4^1 6^1, 2^1 4^1)",
        "(5^2, 1^1 5^1)",
        "(1^1 3^1 6^1, 6^1)",
    ]


def test_prune_cited_witnesses_fire():
    reports = prune(feasible_pairs(16), level="existence")
    for idx, ((k, l), lengths) in KNOWN_REJECTION_WITNESSES.items():
        report = reports[idx - 1]
        assert report.verdict == "rejected"
        fired = {(w.k, w.l): frozenset(w.lengths) for w in report.witnesses}
        assert fired.get((k, l)) == lengths


def test_prune_counting_witnesses():
    reports = prune(feasible_pairs(16))
    for idx, (length, lo, hi) in KNOWN_COUNTING_WITNESSES.items():
        report = reports[idx - 1]
        assert report.verdict == "rejected"
        found = {
            (w.length, w.min_count, w.max_count)
            for w in report.witnesses
            if hasattr(w, "direction") and w.direction == "delta>delta_bar"
        }
        assert (length, lo, hi) in found


def _reference_existence_witnesses(pair: OlpPair, t: int) -> list[ExistenceWitness]:
    """The set formulation the bitmask test must equal: a cross (k, l),
    over the sorted distinct (k, l), fires when its candidate lengths
    are disjoint from the candidates of every within-side difference:
    within one orbit of length k >= 2, or between two orbits of a side."""
    possible = frozenset().union(
        *(
            diff_length_candidates(parts[i], parts[j], t)
            for parts in (pair.p.parts, pair.n.parts)
            for i in range(len(parts))
            for j in range(i, len(parts))
            if i < j or parts[i] >= 2
        )
    )
    out = []
    for k, l in sorted({(k, l) for k in pair.p.parts for l in pair.n.parts}):
        cand = diff_length_candidates(k, l, t)
        if not cand & possible:
            out.append(ExistenceWitness(k, l, tuple(sorted(cand))))
    return out


def _reference_counting_witnesses(pair: OlpPair, t: int) -> list[CountingWitness]:
    """The counting level on the reference tables: by length, a forced
    count on one side above the other side's maximum, delta first."""
    delta, delta_bar = _reference_tables(pair, t)
    out = []
    for ell in sorted(delta.keys() | delta_bar.keys()):
        d_lo, d_hi = delta.get(ell, (0, 0))
        b_lo, b_hi = delta_bar.get(ell, (0, 0))
        if d_lo > b_hi:
            out.append(CountingWitness(ell, d_lo, b_hi, "delta>delta_bar"))
        if b_lo > d_hi:
            out.append(CountingWitness(ell, b_lo, d_hi, "delta_bar>delta"))
    return out


def _reference_report(pair: OlpPair, level: str, t: int) -> PruneReport:
    witnesses = _reference_existence_witnesses(pair, t)
    if not witnesses and level == "counting":
        witnesses = _reference_counting_witnesses(pair, t)
    return PruneReport(pair, "rejected" if witnesses else "accepted", tuple(witnesses))


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("weight", [0, 4, 9, 16, 25, 36])
def test_prune_matches_the_set_formulation(weight, t):
    pairs = feasible_pairs(weight, t)
    for level in ("existence", "counting"):
        expected = [_reference_report(pair, level, t) for pair in pairs]
        assert prune(pairs, level=level, t=t) == expected, (weight, t, level)


def test_counting_reuses_the_existence_verdicts():
    """Each pair's existence report is decided once per (olp(N), t): counting
    first, then existence, then counting again all equal the reference, and
    a pair rejected at existence gets the same report object at counting."""
    pairs = feasible_pairs(25)
    _existence_table.cache_clear()
    expected = {
        level: [_reference_report(pair, level, 2) for pair in pairs]
        for level in ("existence", "counting")
    }
    first = prune(pairs)
    assert first == expected["counting"]
    existence = prune(pairs, level="existence")
    assert existence == expected["existence"]
    again = prune(pairs)
    assert again == expected["counting"]
    rejected = [i for i, r in enumerate(existence) if r.verdict == "rejected"]
    assert rejected
    for i in rejected:
        assert again[i] is existence[i] is first[i]


def test_existence_verdicts_do_not_leak_across_t():
    """The same pairs pruned at t = 2 and t = 3, in both orders, each match
    the reference at their own t; some verdicts differ between the two."""
    pairs = feasible_pairs(16) + feasible_pairs(16, 3)
    verdicts = {}
    for ts in ((2, 3), (3, 2)):
        _existence_table.cache_clear()
        for t in ts:
            for level in ("counting", "existence"):
                reports = prune(pairs, level=level, t=t)
                assert reports == [_reference_report(pair, level, t) for pair in pairs], (ts, t, level)
                verdicts[t, level] = [r.verdict for r in reports]
    for level in ("existence", "counting"):
        assert verdicts[2, level] != verdicts[3, level]


def test_value_equal_olps_share_their_verdicts():
    """Pairs rebuilt from distinct but equal Olp objects get reports equal to
    the reference and to those of the first objects; their existence
    reports are the ones decided for the first objects."""
    pairs = feasible_pairs(36)
    copies = [OlpPair(Olp(list(pair.p.parts)), Olp(list(pair.n.parts))) for pair in pairs]
    assert copies == pairs and all(c.p is not p.p for c, p in zip(copies, pairs))
    for level in ("existence", "counting"):
        reports = prune(pairs, level=level)
        shared = prune(copies, level=level)
        assert shared == reports == [_reference_report(pair, level, 2) for pair in copies]
        if level == "existence":
            assert all(s is r for s, r in zip(shared, reports))


def test_existence_witnesses_are_shared_between_reports():
    reports = prune(feasible_pairs(25), level="existence")
    by_cross = {}
    for report in reports:
        for w in report.witnesses:
            assert by_cross.setdefault((w.k, w.l), w) is w


@pytest.mark.parametrize(
    "weight, t", [(w, t) for w in (0, 4, 9, 16, 25, 36) for t in (2, 3)] + [(49, 2)]
)
def test_feasible_pairs_are_the_cap_feasible_cross_pairs(weight, t):
    cross = cross_pairs(weight, t)
    assert feasible_pairs(weight, t) == [p for p in cross if _cap_feasible(p, t)]


@pytest.mark.parametrize("t", [2, 3, 5])
def test_capped_partition_count_matches_enumeration(t):
    for size in range(26):
        caps = _caps(size, t)
        assert _capped_partition_count(size, caps) == len(_capped_partitions(size, caps)), (size, t)
    # partitions into distinct parts: q(10) = 10, q(50) = 3658
    assert _capped_partition_count(10, [1] * 11) == 10
    assert _capped_partition_count(50, [1] * 51) == 3658


def test_pair_grid_counts_at_t_2():
    """The number of cap-fitting partitions of |P| times that of |N|, by the count alone."""
    expected = {16: 65, 49: 87626, 64: 1254076, 81: 19470136, 100: 322184814}
    for weight, count in expected.items():
        p_size, n_size = describing_set_sizes(weight)
        caps = _caps(p_size, 2)
        got = _capped_partition_count(p_size, caps) * _capped_partition_count(n_size, caps)
        assert got == count, weight
    assert expected[64] <= MAX_CROSS_PAIRS < expected[81]


@pytest.mark.parametrize("weight", [81, 100, 400, 10**12])
def test_pair_grid_bound_refuses_before_listing(weight):
    for build in (cross_pairs, feasible_pairs):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceed the pair-grid bound of {MAX_CROSS_PAIRS}"):
            build(weight)
        assert time.perf_counter() - start < 1.0


def test_pair_grid_refusal_names_the_count():
    with pytest.raises(ValueError, match="weight 81: 19470136 olp pairs exceed"):
        feasible_pairs(81)
    # beyond the distinct-parts floor only a lower bound is named
    with pytest.raises(ValueError, match="weight 10000: at least [0-9]+ olp pairs exceed"):
        cross_pairs(10000)


# Regression reference, not an independent result: the counts the
# pipeline gave for W = 49 once the orbit caps stopped enumerating.
W49_REGRESSION_COUNTS = (47286, 4551, 399)


def test_prune_weight_49_completes():
    """The 60 s budget catches hangs and blow-ups; it is not a performance gate."""
    start = time.perf_counter()
    pairs = feasible_pairs(49)
    existence = survivors(prune(pairs, level="existence"))
    counting = survivors(prune(pairs))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"W = 49 prune took {elapsed:.1f}s, budget 60s"
    assert set(counting) <= set(existence) <= set(pairs)
    assert (len(pairs), len(existence), len(counting)) == W49_REGRESSION_COUNTS


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs Linux VmHWM")
def test_prune_of_long_orbits_runs_in_bounded_memory():
    """Existence masks hold one bit per length seen, at its table field, so
    one cross of a 40000- and a 39999-orbit needs no 1.6e9-bit mask."""
    # VmHWM, not ru_maxrss: Linux carries ru_maxrss across fork and exec,
    # so the child would report this test process's own peak.
    code = (
        "from cwmat import Olp, OlpPair, prune\n"
        "(report,) = prune([OlpPair(Olp((40000,)), Olp((39999,)))])\n"
        "print(report.verdict, report.reason)\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    verdict, peak_kib = proc.stdout.splitlines()
    assert verdict == "rejected cross (40000,39999) forces length in {1599960000}"
    assert int(peak_kib) < 64 * 1024, f"peak RSS {int(peak_kib) / 1024:.0f} MiB"


def test_prune_weight_4_pair_survives():
    reports = prune(feasible_pairs(4))
    assert [str(r.pair) for r in reports] == ["(3^1, 1^1)"]
    assert reports[0].verdict == "accepted"


def test_cw_4_4_pair_survives_at_t_3():
    """++-+ is a CW(4, 4) whose P = {0, 1, 3} and N = {2} are unions of
    3-orbits of Z_4 ({0}, {1, 3}, {2}), so its pair must survive: the
    cross (1, 1) of 0 in P and 2 in N forces length 1, and the fixed
    points 0 and 2 differ by the fixed point 2."""
    row = CirculantRow.from_string("++-+")
    assert verify_cw(row) == 4
    sets, ctx = describing_sets(row), ModulusContext(4, 3)
    pair = OlpPair(olp_of_set(sets.P, ctx), olp_of_set(sets.N, ctx))
    assert pair == _pair("1^1 2^1", "1^1")
    assert pair in feasible_pairs(4, 3)
    for level in ("existence", "counting"):
        assert prune([pair], level=level, t=3)[0].verdict == "accepted"


def test_prune_rejects_unknown_level():
    with pytest.raises(ValueError, match="unknown prune level"):
        prune([], level="strict")


def test_records_are_immutable_and_compare_by_fields():
    pair = _pair("1^1 5^1", "2^1 4^1")
    reports = prune([pair, _pair("4^1 6^1", "2^1 4^1")], level="existence")
    rejected = prune([_pair("4^1 6^1", "1^1 2^1 3^1")])[0]
    down, counting = rejected.witnesses
    assert isinstance(counting, CountingWitness)
    for record, field in [
        (pair, "p"),
        (reports[0], "verdict"),
        (counting, "min_count"),
        (pair.p, "parts"),
    ]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        twin = pickle.loads(pickle.dumps(record))
        assert twin == record and hash(twin) == hash(record)
    # equal fields, equal records; one field apart, unequal
    assert OlpPair(Olp((5, 1)), Olp((4, 2))) == pair
    assert hash(OlpPair(Olp((5, 1)), Olp((4, 2)))) == hash(pair)
    assert OlpPair(pair.n, pair.p) != pair
    assert PruneReport(pair, "accepted") == PruneReport(pair, "accepted", ())
    assert PruneReport(pair, "accepted") != PruneReport(pair, "rejected")
    assert CountingWitness(12, 48, 24, "delta>delta_bar") == counting
    assert hash(CountingWitness(12, 48, 24, "delta>delta_bar")) == hash(counting)
    # the tuple-based records also equal the plain tuple of their fields
    assert pair == (pair.p, pair.n)
    assert counting == (12, 48, 24, "delta>delta_bar")
    # reason, demand and str() read as before
    assert str(pair) == "(1^1 5^1, 2^1 4^1)"
    assert pair.demand == ((1, 1), (2, 1), (4, 1), (5, 1))
    assert [r.verdict for r in reports] == ["rejected", "accepted"]
    assert reports[0].reason == "cross (5,2) forces length in {10}"
    assert reports[1].reason == ""
    assert str(counting) == "at length 12: min delta = 48 > max delta_bar = 24"
    assert down == (4, 24, 12, "delta_bar>delta")
    assert rejected.reason == "at length 4: min delta_bar = 24 > max delta = 12"
    assert repr(counting) == (
        "CountingWitness(length=12, min_count=48, max_count=24, direction='delta>delta_bar')"
    )
    # an olp hashes by its sorted parts, whatever their input order
    olps = [Olp(parts) for parts in ((3, 1, 3, 2), (1, 2, 3, 3), (3, 3, 2, 1))]
    assert len({hash(olp) for olp in olps}) == 1 and len(set(olps)) == 1
    assert hash(pickle.loads(pickle.dumps(olps[0]))) == hash(olps[2])


def test_prune_report_reason_strings():
    reports = prune(feasible_pairs(16), level="existence")
    assert reports[0].reason == "cross (5,2) forces length in {10}"
    accepted = [r for r in reports if r.verdict == "accepted"]
    assert all(r.reason == "" for r in accepted)


def _is_prime(x: int) -> bool:
    return x > 1 and all(x % d for d in range(2, int(x**0.5) + 1))


def _coprime_splits(m: int):
    for mp in divisors(m):
        ms = m // mp
        if math.gcd(mp, ms) == 1:
            yield mp, ms


def _composite_rejectable(pair: OlpPair) -> bool:
    """Prime k on one side, coprime m on the other, with no product
    decomposition of m landing inside the first side's lengths."""
    for k in pair.p.parts:
        if not _is_prime(k):
            continue
        for m in pair.n.parts:
            if m == 1 or math.gcd(k, m) != 1:
                continue
            if any(y % k == 0 for y in pair.n.parts):
                continue
            blocked = all(
                not any(
                    kp % mp == 0 and ks % ms == 0
                    for kp in pair.p.parts
                    for ks in pair.p.parts
                )
                for mp, ms in _coprime_splits(m)
            )
            if blocked:
                return True
    return False


def test_composite_obstruction_implies_existence_rejection():
    reports = prune(feasible_pairs(16), level="existence")
    for report in reports:
        p = OlpPair(report.pair.p, report.pair.n)
        for candidate in (p, OlpPair(p.n, p.p)):
            if _composite_rejectable(candidate):
                assert report.verdict == "rejected", str(report.pair)
