"""Multiplicative t-orbits in Z_n.

An orbit is the cycle a, t*a, t^2*a, ... (mod n); gcd(t, n) = 1 so
multiplication by t permutes Z_n. Orbit lengths drive the classification
machinery: which orbit length partitions are feasible at a given order,
and which orders admit them at all.

Two facts carry most of the weight here:

  * the elements whose orbit length divides e are exactly the solutions
    of (t^e - 1)*a = 0 (mod n), i.e. the multiples of n/gcd(n, t^e - 1),
    so there are gcd(n, t^e - 1) of them;
  * Moebius inversion over the divisors of l then counts the length-l
    orbits without listing them:

        #orbits of length l in Z_n = (1/l) * sum_{e | l} mu(l/e) * gcd(n, t^e - 1).

    The count depends on n only through gcd(n, t^l - 1) and is maximal
    at n = t^l - 1 itself, where it is the necklace (Lyndon word) count.

Orbits are listed only where the orbits themselves are needed; every
count goes through orbit_count.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd


def units(n: int) -> list[int]:
    """Residues coprime to n, ascending. For n = 1 this is [0]."""
    return [u for u in range(n) if gcd(u, n) == 1]


def divisors(m: int) -> list[int]:
    """Positive divisors of m, ascending."""
    if m < 1:
        raise ValueError(f"need a positive integer, got {m}")
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


class ModulusContext(namedtuple("ModulusContext", "n t")):
    """Ambient modulus n with multiplier base t, stored reduced mod n."""

    __slots__ = ()

    def __new__(cls, n: int, t: int = 2):
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        if gcd(t % n, n) != 1:
            raise ValueError(f"t={t} is not a unit mod {n}")
        return tuple.__new__(cls, (n, t % n))


def orbit_of(a: int, ctx: ModulusContext) -> tuple[int, ...]:
    """The t-orbit through a, listed once around the cycle from its
    smallest element."""
    if not 0 <= a < ctx.n:
        raise ValueError(f"residue {a} out of range for modulus {ctx.n}")
    cycle = [a]
    x = a * ctx.t % ctx.n
    while x != a:
        cycle.append(x)
        x = x * ctx.t % ctx.n
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def orbits_of_length(ctx: ModulusContext, i: int) -> list[tuple[int, ...]]:
    """All orbits of length exactly i, sorted.

    Candidates are the multiples of n/gcd(n, t^i - 1) (orbit length
    divides i), a t-invariant subgroup. Walked upward, it meets each orbit
    first at its least element, so the cycle from there is the orbit as
    orbit_of lists it, and the orbits come sorted; the ones with a
    properly dividing length are dropped.
    """
    if i < 1:
        raise ValueError(f"orbit length must be positive, got {i}")
    n, t = ctx
    out = []
    seen: set[int] = set()
    for a in range(0, n, n // gcd(n, pow(t, i, n) - 1)):
        if a in seen:
            continue
        cycle = [a]
        x = a * t % n
        while x != a:
            cycle.append(x)
            x = x * t % n
        seen.update(cycle)
        if len(cycle) == i:
            out.append(tuple(cycle))
    return out


# orbits_of_length once per (Z_g, ell); read only. Over every order, the
# weight-16, t = 2 cross-check and rule request 19 distinct lists.
_orbits_at = lru_cache(maxsize=64)(orbits_of_length)


def _orbit_table(n: int, t: int, ell: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """(the orbits of length ell in Z_n as orbits_of_length lists them, and
    their masks, bit x for residue x).

    With g = gcd(n, t^ell - 1), x -> (n/g)*x maps Z_g onto the residues of
    Z_n whose orbit length divides ell and commutes with x -> t*x, so the
    orbits of length ell in Z_n are n/g times those in Z_g, in the same
    order, each still listed from its least element.
    """
    g = gcd(n, pow(t, ell, n) - 1)
    orbits = _orbits_at(ModulusContext(g, t), ell)
    if g < n:
        m = n // g
        orbits = [tuple([m * x for x in o]) for o in orbits]
    masks = []
    for o in orbits:
        mask = 0
        for x in o:
            mask |= 1 << x
        masks.append(mask)
    return orbits, masks


@lru_cache(maxsize=None)
def _mobius_terms(ell: int) -> tuple[tuple[int, int], ...]:
    """(e, mu(ell/e)) for each divisor e of ell with mu(ell/e) != 0, by e,
    once per ell: ell/e runs over the squarefree divisors of ell, and mu is
    -1 to the number of their prime factors, found by trial division."""
    terms, m, p = [(ell, 1)], ell, 2
    while m > 1:
        if p * p > m:
            p = m
        if m % p == 0:
            terms += [(e // p, -mu) for e, mu in terms]
            while m % p == 0:
                m //= p
        p += 1
    return tuple(sorted(terms))


def orbit_count(n: int, ell: int, t: int = 2) -> int:
    """Number of t-orbits of length exactly ell in Z_n, by Moebius inversion.

    gcd(n, t^e - 1) residues have an orbit length dividing e; inverting
    over the divisors e of ell leaves the ell * count residues whose
    length is exactly ell.
    """
    if ell < 1:
        raise ValueError(f"orbit length must be positive, got {ell}")
    n, t = ModulusContext(n, t)
    return sum(mu * gcd(n, pow(t, e, n) - 1) for e, mu in _mobius_terms(ell)) // ell


_gcd_orbit_count = lru_cache(maxsize=None)(orbit_count)


def _orbit_count(n: int, ell: int, t: int) -> int:
    """orbit_count(n, ell, t), read off g = gcd(n, t^ell - 1), the only part
    of n it depends on (see orbit_count_cap); found once per g."""
    return _gcd_orbit_count(gcd(n, pow(t, ell, n) - 1), ell, t)


@lru_cache(maxsize=None)
def orbit_count_cap(i: int, t: int) -> int:
    """n-independent upper bound on the number of length-i orbits in Z_n.

    By the Moebius formula the count in Z_n depends on n only through
    g = gcd(n, t^i - 1), because t^e - 1 divides t^i - 1 for every e | i.
    Z_g sits inside Z_{t^i - 1} as the t-invariant subgroup of multiples
    of (t^i - 1)/g, with the same orbit lengths, so the count is largest,
    and the bound attained, at n = t^i - 1. For i >= 2 that count is the
    number of aperiodic necklaces of length i over t letters; for i = 1
    it is t - 1, since Z_{t-1} holds only fixed points.
    """
    if i < 1:
        raise ValueError(f"orbit length must be positive, got {i}")
    if t < 2:
        raise ValueError(f"multiplier base must be at least 2, got {t}")
    return orbit_count(t**i - 1, i, t)


def hosting_divisors(ell: int, t: int, need: int) -> list[int]:
    """The divisors d of t^ell - 1 (the only part of n the count can see),
    ascending, where Z_d has at least need orbits of length ell."""
    return [d for d in divisors(t**ell - 1) if orbit_count(d, ell, t) >= need]
