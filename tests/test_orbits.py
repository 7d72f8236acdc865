from __future__ import annotations

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cwmat import (
    ModulusContext,
    Olp,
    OlpPair,
    base_orders,
    divisors,
    orbit_count,
    orbit_count_cap,
    orbit_of,
    orbits_of_length,
    units,
)
from cwmat.orbits import hosting_divisors
from golden import ORBIT_CAPS_T2, ORBITS_LEN5_MOD31, REQUIRED_DIVISOR_CASES
from orbit_lister import orbit_lengths, t_orbits

odd_orders = st.integers(min_value=0, max_value=250).map(lambda k: 2 * k + 1)


def _mult_order(t: int, m: int) -> int:
    if m == 1:
        return 1
    order, x = 1, t % m
    while x != 1:
        x = x * t % m
        order += 1
    return order


def test_units_examples():
    assert units(7) == [1, 2, 3, 4, 5, 6]
    assert units(12) == [1, 5, 7, 11]
    assert units(1) == [0]


def test_divisors_examples():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(31) == [1, 31]
    assert divisors(1) == [1]
    with pytest.raises(ValueError, match="positive"):
        divisors(0)


def test_context_rejects_non_unit_multiplier():
    with pytest.raises(ValueError, match="not a unit"):
        ModulusContext(6, 2)
    with pytest.raises(ValueError, match="positive"):
        ModulusContext(0, 2)
    ModulusContext(9, 2)  # gcd(2, 9) = 1, fine


def test_orbit_of_examples():
    ctx = ModulusContext(31, 2)
    assert orbit_of(1, ctx) == (1, 2, 4, 8, 16)
    assert orbit_of(3, ctx) == (3, 6, 12, 24, 17)
    assert orbit_of(0, ctx) == (0,)
    # same orbit regardless of which element names it
    assert orbit_of(17, ctx) == orbit_of(3, ctx)
    assert 24 in orbit_of(3, ctx)
    assert orbit_of(3, ctx)[0] == 3
    with pytest.raises(ValueError, match="out of range"):
        orbit_of(31, ctx)


def _listed_orbits(ctx: ModulusContext):
    """Every orbit, from orbits_of_length over the divisors of ord_n(t)."""
    order = _mult_order(ctx.t, ctx.n)
    orbits = [o for ell in divisors(order) for o in orbits_of_length(ctx, ell)]
    return sorted(orbits)


def test_orbit_listing_starts_at_minimum_and_cycles():
    ctx = ModulusContext(63, 2)
    for orbit in _listed_orbits(ctx):
        assert orbit[0] == min(orbit)
        for a, b in zip(orbit, orbit[1:]):
            assert b == 2 * a % 63
        assert 2 * orbit[-1] % 63 == orbit[0]


@given(odd_orders, st.sampled_from(range(251)))
def test_orbit_length_is_multiplicative_order(n, seed):
    ctx = ModulusContext(n, 2)
    a = seed % n
    assert len(orbit_of(a, ctx)) == _mult_order(2, n // math.gcd(n, a))


@given(odd_orders)
def test_all_orbits_partition_the_residues(n):
    ctx = ModulusContext(n, 2)
    orbits = _listed_orbits(ctx)
    seen = [x for o in orbits for x in o]
    assert sorted(seen) == list(range(n))
    assert orbits == t_orbits(n, 2)
    table = orbit_lengths(n, 2)
    for o in orbits:
        for x in o:
            assert table[x] == len(o)
            assert orbit_of(x, ctx) == o


def test_length_table_example():
    ctx = ModulusContext(7, 2)
    lengths = [len(orbit_of(a, ctx)) for a in range(7)]
    assert lengths == orbit_lengths(7, 2) == [1, 3, 3, 3, 3, 3, 3]


def test_orbits_of_length_examples():
    assert tuple(orbits_of_length(ModulusContext(31, 2), 5)) == ORBITS_LEN5_MOD31
    assert len(orbits_of_length(ModulusContext(63, 2), 6)) == 9
    assert len(orbits_of_length(ModulusContext(21, 2), 6)) == 2
    assert orbits_of_length(ModulusContext(7, 2), 2) == []
    with pytest.raises(ValueError, match="positive"):
        orbits_of_length(ModulusContext(7, 2), 0)


def _enumerated_count(n: int, ell: int, t: int) -> int:
    """The oracle for orbit_count: list the orbits and count them."""
    return len(orbits_of_length(ModulusContext(n, t), ell))


@pytest.mark.parametrize("t, max_ell", [(2, 12), (3, 6), (5, 4)])
def test_orbit_count_matches_enumeration_on_divisors(t, max_ell):
    for ell in range(1, max_ell + 1):
        for d in divisors(t**ell - 1):
            for length in range(1, max_ell + 1):
                expected = _enumerated_count(d, length, t)
                assert orbit_count(d, length, t) == expected, (d, length, t)


@given(
    st.integers(min_value=0, max_value=1000).map(lambda k: 2 * k + 1),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([2, 3, 5]),
)
def test_orbit_count_matches_enumeration(n, ell, t):
    assume(math.gcd(n, t) == 1)
    assert orbit_count(n, ell, t) == _enumerated_count(n, ell, t)


def test_orbit_count_rejects_bad_arguments():
    with pytest.raises(ValueError, match="positive"):
        orbit_count(7, 0)
    with pytest.raises(ValueError, match="not a unit"):
        orbit_count(9, 2, 3)


def test_orbit_count_caps_for_doubling():
    lengths = range(1, len(ORBIT_CAPS_T2) + 1)
    assert tuple(orbit_count_cap(i, 2) for i in lengths) == ORBIT_CAPS_T2


def test_orbit_count_cap_other_base():
    # Z_8 under t=3 splits as {0},{4},{2,6},{1,3},{5,7}: three 2-orbits.
    assert orbit_count_cap(2, 3) == 3
    with pytest.raises(ValueError, match="at least 2"):
        orbit_count_cap(3, 1)


@given(odd_orders, st.integers(min_value=1, max_value=6))
def test_cap_bounds_every_modulus(n, i):
    ctx = ModulusContext(n, 2)
    assert len(orbits_of_length(ctx, i)) <= orbit_count_cap(i, 2)


def _required(divs: list[int]) -> list[int]:
    """The members of divs that no smaller member divides."""
    return [d for d in divs if all(d % e for e in divs if e < d)]


def test_required_divisors_examples():
    # the required divisors are the hosting divisors minimal under
    # divisibility, and every multiple of one (dividing t^i - 1) hosts
    for (i, t, count), expected in REQUIRED_DIVISOR_CASES:
        hosts = hosting_divisors(i, t, count)
        assert _required(hosts) == list(expected)
        assert hosts == [d for d in divisors(t**i - 1) if any(d % e == 0 for e in expected)]


def test_required_divisors_agree_with_enumerated_counts(monkeypatch):
    expected = {
        (i, count): hosting_divisors(i, 2, count)
        for i in range(1, 9)
        for count in range(1, orbit_count_cap(i, 2) + 1)
    }
    monkeypatch.setattr("cwmat.orbits.orbit_count", _enumerated_count)
    for (i, count), divs in expected.items():
        assert hosting_divisors(i, 2, count) == divs


def test_required_divisors_rejects_impossible_count():
    # only one length-2 orbit exists under doubling (in Z_3), so no
    # modulus hosts two, and a pair that needs two has no base order
    assert hosting_divisors(2, 2, 2) == []
    with pytest.raises(ValueError, match="no modulus hosts 2 orbits of length 2"):
        base_orders(OlpPair(Olp((2, 2)), Olp(())))


@given(odd_orders, st.integers(min_value=1, max_value=6))
def test_required_divisors_are_necessary(n, i):
    """If Z_n holds c orbits of length i, gcd(n, 2^i - 1) hosts them, so
    some required divisor divides n."""
    ctx = ModulusContext(n, 2)
    count = len(orbits_of_length(ctx, i))
    if count == 0:
        return
    hosts = hosting_divisors(i, 2, count)
    assert math.gcd(n, 2**i - 1) in hosts
    assert any(n % d == 0 for d in _required(hosts))
