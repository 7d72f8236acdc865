"""Test-only orbit lister: the t-orbits of Z_n by walking each cycle.

It uses no library code, so tests can check the library's orbit
machinery against it and build t-invariant rows from it.
"""
from __future__ import annotations


def t_orbits(n: int, t: int) -> list[tuple[int, ...]]:
    """Every t-orbit of Z_n (gcd(t, n) = 1), each listed from its least
    element around the cycle x -> t*x, sorted by that element."""
    seen = bytearray(n)
    out = []
    for a in range(n):
        if seen[a]:
            continue
        cycle, x = [], a
        while not seen[x]:
            seen[x] = 1
            cycle.append(x)
            x = x * t % n
        out.append(tuple(cycle))
    return out


def orbit_lengths(n: int, t: int) -> list[int]:
    """The length of the t-orbit through each a in Z_n."""
    table = [0] * n
    for orb in t_orbits(n, t):
        for x in orb:
            table[x] = len(orb)
    return table
