"""Test-only search oracle: every orbit assignment of an olp pair, each
tested by its autocorrelation at every lag, and the classes of the hits.

It uses no library code (the orbits come from tests/orbit_lister.py), so
tests can check the library's search, which tests one assignment per
unit class and derives the other solutions, against the full
enumeration. Rows are coefficient tuples w_0 .. w_{n-1}; they order as
the library's rows of one order do (-1 < 0 < +1, index 0 first).
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations, product
from math import gcd
from typing import NamedTuple

from orbit_lister import t_orbits


class OracleReport(NamedTuple):
    """candidates_tested, solutions and (representative, sorted members)
    per class, as the library's SearchReport orders them."""

    candidates_tested: int
    solutions: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]


def assignments(n: int, t: int, p_parts, n_parts):
    """Every (P, N) choice of distinct t-orbits of Z_n with these part
    lengths, as residue lists. The order is that of the key: per length,
    ascending, the P orbit indices, then the N orbit indices, with the
    orbits of one length indexed by their least element."""
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for orb in t_orbits(n, t):
        by_length.setdefault(len(orb), []).append(orb)
    p_mults, n_mults = Counter(p_parts), Counter(n_parts)
    per_length = []
    for ell in sorted(p_mults | n_mults):
        orbs = by_length.get(ell, [])
        choices = []
        for p_sel in combinations(range(len(orbs)), p_mults[ell]):
            others = [i for i in range(len(orbs)) if i not in p_sel]
            for n_sel in combinations(others, n_mults[ell]):
                choices.append(([orbs[i] for i in p_sel], [orbs[i] for i in n_sel]))
        per_length.append(choices)
    for combo in product(*per_length):
        P = [x for p_orbs, _ in combo for orb in p_orbs for x in orb]
        N = [x for _, n_orbs in combo for orb in n_orbs for x in orb]
        yield P, N


def is_weighing(w) -> bool:
    """Whether the periodic autocorrelation of w is 0 at every lag 1 .. n - 1."""
    n = len(w)
    support = [i for i in range(n) if w[i]]
    return all(not sum(w[i] * w[(i + lag) % n] for i in support) for lag in range(1, n))


def canonical(w) -> tuple[int, ...]:
    """The least row over every x -> u*x + s, u a unit: a least rotation
    starts at an entry equal to the least coefficient."""
    n = len(w)
    least = min(w)
    support = [i for i in range(n) if w[i]]
    starts = [i for i in range(n) if w[i] == least]
    best = None
    for u in range(n):
        if gcd(u, n) != 1:
            continue
        image = [0] * n
        for i in support:
            image[u * i % n] = w[i]
        doubled = image * 2
        for i in starts:
            p = u * i % n
            cand = tuple(doubled[p : p + n])
            if best is None or cand < best:
                best = cand
    return best


def search(n: int, t: int, p_parts, n_parts) -> OracleReport:
    """Test every assignment; the distinct hits, ordered by their canonical
    form and then as listed, and their classes sorted by representative."""
    tested, hits = 0, []
    for P, N in assignments(n, t, p_parts, n_parts):
        tested += 1
        w = [0] * n
        for x in P:
            w[x] = 1
        for x in N:
            w[x] = -1
        if is_weighing(w):
            hits.append(tuple(w))
    form = {w: canonical(w) for w in hits}
    classes = tuple(
        (rep, tuple(sorted(w for w in hits if form[w] == rep))) for rep in sorted(set(form.values()))
    )
    return OracleReport(tested, tuple(sorted(hits, key=form.__getitem__)), classes)


def report_of(report) -> OracleReport:
    """A library SearchReport in the oracle's terms: rows as coefficient tuples."""
    return OracleReport(
        report.candidates_tested,
        tuple(row.coeffs for row in report.solutions),
        tuple(
            (c.representative.coeffs, tuple(m.coeffs for m in c.members)) for c in report.classes
        ),
    )
