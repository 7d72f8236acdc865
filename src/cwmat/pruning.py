"""Orbit-length-partition enumeration and pruning.

A normalized weighing row of square weight s^2 whose describing sets are
unions of t-orbits induces a pair of orbit length partitions
(olp(P), olp(N)) with |P| = s(s+1)/2 and |N| = s(s-1)/2. This module
enumerates the partition pairs compatible with the orbit-count caps and
prunes them with a single divisibility calculus:

  diff_length_candidates(k, l) = { m > 1 : m | lcm(k,l),
                                   k | lcm(l,m), l | lcm(m,k) }

is a sound superset of the possible orbit lengths of a difference a - b
with ol(a) = k, ol(b) = l; the test suite checks it collapses to the
expected exact sets in the coprime and shared-prime-factor cases.
Pruning then runs at two levels:

  existence  a cross pair (k in olp(P), l in olp(N)) forces difference
             lengths that no same-side pair can produce;
  counting   for some length, the number of differences forced onto it
             on one side strictly exceeds the number the other side can
             possibly place there.

Counting uses per-contribution sizes k(k-1) (within one orbit) and 2kl
(between two orbits), a lower bound only for contributions whose
candidate set is a singleton, plus one t=2 special: an orbit of length
k >= 2 always contains the differences +-t^i(t*a - a) = +-t^i*a, which
lie in the orbit itself, so at least min(2k, k(k-1)) differences of
length exactly k are forced.

The per-length (min, max) tables are built in one pass over the
contributions. Each adds its size to the max at every candidate length;
to the min it adds its size at its candidate if that is the only one,
and otherwise, if it is intra-orbit and t = 2, the floor at length k.
An intra-orbit candidate set is a singleton only as {k}, so no
contribution adds both. Same-side contributions never mix P and N, so
the within-side table of a pair is the sum of one table per describing
set; those are built once per olp, which thousands of pairs share.
Their lengths are pol_delta, the set the existence level reads.

Per pair, each level does only the work that depends on the pair.
Partitions come from one recursion that drops a subtree as soon as a
run of equal parts m exceeds caps[m]. feasible_pairs checks the
combined caps only at the tight lengths ell, those with
floor(|P|/ell) + floor(|N|/ell) > caps[ell]; at any other length the
caps each side already meets imply the combined one. A tight length
keeps one bitmask over the P olps per count of N parts of that
length, so an N olp finds the P olps it fits with one AND per tight
length. Each olp keeps, once, its sorted distinct parts and its
pol_delta as an int bitmask (bit m for length m). Each N olp keeps,
per P part k, the crosses (k, l) over its own distinct parts l whose
candidate lengths miss its pol_delta, each with its candidate bitmask
and the ExistenceWitness it fires; witnesses are frozen and built once
per (k, l), so every report that cites one shares it. The existence
test of a pair is then one lookup per distinct P part and one AND per
cross listed. The bound tables take one contribution per distinct
(k, l), weighted by the multiplicities. That is exact because every
term of the one-pass rule is a fixed amount per orbit or per pair of
orbits, the t = 2 floor min(2k, k(k-1)) included, so c orbits add c
times what one adds. The pair grid is counted, by a generating
function, before any partition is listed: a weight with more than
MAX_CROSS_PAIRS cross pairs is refused.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt, lcm, prod
from operator import index
from types import MappingProxyType

from .orbits import ModulusContext, divisors, orbit_count_cap, orbit_of


@dataclass(frozen=True)
class Olp:
    """Orbit length partition: a multiset of positive part lengths."""

    parts: tuple[int, ...]

    def __post_init__(self):
        # index, not int: a float or a string is an error, not a part
        parts = tuple(sorted(map(index, self.parts)))
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive, got {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def from_string(cls, text: str) -> "Olp":
        """Parse space-separated 'length^multiplicity' tokens, e.g. '1^1 5^1'."""
        parts: list[int] = []
        for token in text.split():
            length_s, sep, mult_s = token.partition("^")
            try:
                length = int(length_s)
                mult = int(mult_s) if mult_s else 1
            except ValueError:
                raise ValueError(f"bad olp token {token!r}") from None
            if length < 1 or mult < 1 or (sep and not mult_s):
                raise ValueError(f"bad olp token {token!r}")
            parts.extend([length] * mult)
        return cls(tuple(parts))

    def __str__(self) -> str:
        mults = self.multiplicities
        return " ".join(f"{length}^{mults[length]}" for length in sorted(mults))

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def multiplicities(self) -> dict[int, int]:
        return dict(Counter(self.parts))


Demand = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class OlpPair:
    """(olp(P), olp(N)); p sums to |P|, n sums to |N|."""

    p: Olp
    n: Olp

    def __str__(self) -> str:
        return f"({self.p}, {self.n})"

    @property
    def demand(self) -> Demand:
        """(length, orbits of that length used by P and N together), by length.

        Parts of both sides take distinct orbits, so this is what the
        orbit-count caps and the orbit counts of Z_n must cover.
        """
        return tuple(sorted(Counter(self.p.parts + self.n.parts).items()))


def olp_of_set(X, ctx: ModulusContext) -> Olp:
    """Orbit length partition of a union of t-orbits.

    Rejects sets that are not unions of orbits; the partition would be
    meaningless for them.
    """
    remaining = set(x % ctx.n for x in X)
    parts = []
    while remaining:
        orb = orbit_of(min(remaining), ctx)
        if not remaining.issuperset(orb.elements):
            raise ValueError("set is not a union of t-orbits")
        remaining.difference_update(orb.elements)
        parts.append(orb.length)
    return Olp(tuple(parts))


def enumerate_partitions(total: int, max_part: int | None = None) -> list[Olp]:
    """All partitions of total with parts <= max_part.

    Deterministic order: ascending largest part, then recursively the
    same order on the remainder. total = 0 gives the empty partition.
    """
    if total < 0:
        raise ValueError(f"total must be nonnegative, got {total}")
    if max_part is None:
        max_part = total
    return _capped_partitions(total, max_part, [total] * (total + 1))


def _capped_partitions(total: int, max_part: int, caps) -> list[Olp]:
    """Partitions of total with parts <= max_part and at most caps[m]
    parts equal to m, in the order of enumerate_partitions.

    Parts are placed from the largest down; a run of equal parts that
    exceeds its cap ends its subtree at once, and only the partitions
    kept become Olps.
    """
    kept: list[tuple[int, ...]] = []

    def rec(remaining, top, run, parts):
        # top is the last part placed and run the number of parts equal to it
        if remaining == 0:
            kept.append(parts)
            return
        for m in range(1, min(remaining, top) + 1):
            used = run + 1 if m == top else 1
            if used <= caps[m]:
                rec(remaining - m, m, used, (m,) + parts)

    rec(total, max_part, 0, ())
    return [Olp(parts) for parts in kept]


@lru_cache(maxsize=None)
def _multiplicities(olp: Olp) -> dict[int, int]:
    """Olp.multiplicities, built once per olp; callers must not mutate it."""
    return olp.multiplicities


def cap_feasible(pair: OlpPair, t: int = 2) -> bool:
    """Whether the combined partition respects every orbit-count cap;
    parts of both sides take distinct orbits."""
    p_mults, n_mults = _multiplicities(pair.p), _multiplicities(pair.n)
    return all(
        p_mults.get(ell, 0) + n_mults.get(ell, 0) <= orbit_count_cap(ell, t)
        for ell in p_mults.keys() | n_mults.keys()
    )


def describing_set_sizes(weight: int) -> tuple[int, int]:
    """(|P|, |N|) for a normalized weighing row of the given square weight."""
    if weight < 0:
        raise ValueError(
            f"weight {weight} is negative; it must be a nonnegative perfect square"
        )
    s = isqrt(weight)
    if s * s != weight:
        raise ValueError(
            f"weight {weight} is not a perfect square; odd-order circulant "
            "weighing matrices only exist for square weights"
        )
    return s * (s + 1) // 2, s * (s - 1) // 2


def _caps(size: int, t: int) -> list[int]:
    """orbit_count_cap by length, 1..size; index 0 is unused."""
    return [0] + [orbit_count_cap(ell, t) for ell in range(1, size + 1)]


def feasible_partitions(size: int, t: int = 2) -> list[Olp]:
    """Partitions of size whose own multiplicities fit the orbit caps."""
    if size < 0:
        raise ValueError(f"total must be nonnegative, got {size}")
    return _capped_partitions(size, size, _caps(size, t))


# The most (olp(P), olp(N)) combinations cross_pairs and feasible_pairs
# will list; W = 64 at t = 2 has 1254076, W = 81 has 19470136.
MAX_CROSS_PAIRS = 2 * 10**6


def _capped_partition_count(size: int, caps) -> int:
    """Partitions of size with at most caps[ell] parts of each length ell.

    The coefficient of x^size in prod_ell sum_{m <= caps[ell]} x^(ell*m),
    multiplied in one factor at a time by window sums of stride ell.
    """
    ways = [1] + [0] * size
    for ell in range(1, size + 1):
        stop = ell * (caps[ell] + 1)
        new = ways[:]
        for s in range(ell, size + 1):
            new[s] += new[s - ell]
            if s >= stop:
                new[s] -= ways[s - stop]
        ways = new
    return ways[size]


def _olp_grid(weight: int, t: int) -> tuple[list[Olp], list[Olp], list[int]]:
    """(feasible olps of P, feasible olps of N, caps by length), refused
    before any olp is listed if there are more than MAX_CROSS_PAIRS pairs."""
    sizes = describing_set_sizes(weight)
    # Every length has an orbit, so the partitions into distinct parts
    # bound the count from below; they do not get fewer as the size grows,
    # and two sides of 100 (444793 such partitions each) are far too many.
    floor = prod(_capped_partition_count(min(s, 100), [1] * 101) for s in sizes)
    if floor > MAX_CROSS_PAIRS:
        raise ValueError(
            f"weight {weight}: at least {floor} olp pairs exceed the "
            f"pair-grid bound of {MAX_CROSS_PAIRS}"
        )
    caps = _caps(sizes[0], t)
    count = prod(_capped_partition_count(s, caps) for s in sizes)
    if count > MAX_CROSS_PAIRS:
        raise ValueError(
            f"weight {weight}: {count} olp pairs exceed the "
            f"pair-grid bound of {MAX_CROSS_PAIRS}"
        )
    p_olps, n_olps = (_capped_partitions(s, s, caps) for s in sizes)
    return p_olps, n_olps, caps


def cross_pairs(weight: int, t: int = 2) -> list[OlpPair]:
    """All (olp(P), olp(N)) combinations of individually feasible partitions.

    Outer loop over olp(N), inner over olp(P), both in enumeration
    order; weight 16, t = 2 gives 5 x 13 = 65 pairs. More than
    MAX_CROSS_PAIRS of them raise ValueError.
    """
    p_olps, n_olps, _ = _olp_grid(weight, t)
    return [OlpPair(olp_p, olp_n) for olp_n in n_olps for olp_p in p_olps]


def feasible_pairs(weight: int, t: int = 2) -> list[OlpPair]:
    """Cross pairs whose combined multiplicities also fit the caps.

    For weight 16 and t = 2 this leaves 41 pairs, in the conventional
    numbering (same order as cross_pairs). Only the pairs that fit are
    built, and only the tight lengths of the module docstring are
    checked: room[ell][j] has bit i set when the i-th P olp leaves room
    for j more orbits of length ell.
    """
    p_olps, n_olps, caps = _olp_grid(weight, t)
    p_size, n_size = describing_set_sizes(weight)
    p_mults = [_multiplicities(olp) for olp in p_olps]
    room = {
        ell: [
            _mask(i for i, mults in enumerate(p_mults) if mults.get(ell, 0) + j <= caps[ell])
            for j in range(n_size // ell + 1)
        ]
        for ell in range(1, n_size + 1)
        if p_size // ell + n_size // ell > caps[ell]
    }
    out = []
    for olp_n in n_olps:
        n_mults = _multiplicities(olp_n)
        fits = (1 << len(p_olps)) - 1
        for ell, masks in room.items():
            fits &= masks[n_mults.get(ell, 0)]
        bits = bin(fits)[:1:-1]  # bits[i] is bit i of fits
        out.extend(OlpPair(olp_p, olp_n) for olp_p, bit in zip(p_olps, bits) if bit == "1")
    return out


@lru_cache(maxsize=None)
def diff_length_candidates(k: int, l: int) -> frozenset[int]:
    """Possible values of ol(a - b) for distinct a, b with ol(a)=k, ol(b)=l.

    Difference length 1 would force a = b, hence the m > 1 cut.
    """
    if k < 1 or l < 1:
        raise ValueError(f"orbit lengths must be positive, got ({k}, {l})")
    L = lcm(k, l)
    return frozenset(
        m
        for m in divisors(L)
        if m > 1 and lcm(l, m) % k == 0 and lcm(m, k) % l == 0
    )


@lru_cache(maxsize=None)
def _candidates(k: int, l: int) -> tuple[int, ...]:
    """diff_length_candidates(k, l), sorted."""
    return tuple(sorted(diff_length_candidates(k, l)))


def _side_contributions(olp: Olp) -> list[tuple[int, int, int, int]]:
    """(k, l, size, floor) per distinct (k, l), k <= l, of one describing set.

    One orbit of length k contributes k(k-1) ordered differences, of
    which the t = 2 floor min(2k, k(k-1)) stays in the orbit; two
    distinct orbits of lengths k, l on the same side contribute 2kl.
    With c orbits of length k, (k, k) sums c orbits and c(c-1)/2 pairs
    of them, and (k, l) sums c * d pairs for d orbits of length l.
    """
    mults = list(_multiplicities(olp).items())
    out = []
    for i, (k, c) in enumerate(mults):
        out.append((k, k, c * k * (k - 1) + c * (c - 1) * k * k, c * min(2 * k, k * (k - 1))))
        out.extend((k, l, 2 * k * l * c * d, 0) for l, d in mults[i + 1 :])
    return out


def _cross_contributions(pair: OlpPair) -> list[tuple[int, int, int, int]]:
    """(k, l, size, 0) per distinct (P part k, N part l) on the delta_bar
    side: 2kl for each of the c * d such pairs of orbits."""
    n_mults = _multiplicities(pair.n).items()
    return [
        (k, l, 2 * k * l * c * d, 0)
        for k, c in _multiplicities(pair.p).items()
        for l, d in n_mults
    ]


def _bounds(contributions, intra_floor: bool) -> dict[int, tuple[int, int]]:
    """Per-length (min, max) counts by the one-pass rule of the module
    docstring; only lengths some contribution can reach appear."""
    lo: dict[int, int] = {}
    hi: dict[int, int] = {}
    for k, l, size, floor in contributions:
        cand = _candidates(k, l)
        for m in cand:
            hi[m] = hi.get(m, 0) + size
        if len(cand) == 1:
            lo[m] = lo.get(m, 0) + size  # m is the only candidate
        elif intra_floor and floor:
            # +-t^i(t*a - a) = +-t^i*a stays in the orbit (t = 2 only)
            lo[k] = lo.get(k, 0) + floor
    return {m: (lo.get(m, 0), hi[m]) for m in hi}


@lru_cache(maxsize=None)
def _side_bounds(olp: Olp, intra_floor: bool) -> Mapping[int, tuple[int, int]]:
    """Bounds of one describing set's own differences, built once per olp."""
    return MappingProxyType(_bounds(_side_contributions(olp), intra_floor))


def pol_delta(olp: Olp) -> frozenset[int]:
    """Possible orbit lengths of differences within one describing set."""
    # the lengths are those of the max table, so the floor does not matter
    return frozenset(_side_bounds(olp, True))


def pol_delta_bar(pair: OlpPair) -> frozenset[int]:
    """Possible orbit lengths of differences across the two describing sets."""
    return frozenset(_bounds(_cross_contributions(pair), False))


@dataclass(frozen=True)
class LengthCountBounds:
    """Per-length (min, max) difference counts for both sides of the
    multiset equation: delta = within-side differences, delta_bar =
    cross differences. Lengths absent from a table have (0, 0)."""

    delta: Mapping[int, tuple[int, int]]
    delta_bar: Mapping[int, tuple[int, int]]

    def delta_bounds(self, length: int) -> tuple[int, int]:
        return self.delta.get(length, (0, 0))

    def delta_bar_bounds(self, length: int) -> tuple[int, int]:
        return self.delta_bar.get(length, (0, 0))

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(sorted(self.delta.keys() | self.delta_bar.keys()))


def length_count_bounds(pair: OlpPair, t: int = 2) -> LengthCountBounds:
    """Min/max number of differences of each orbit length on both sides.

    max counts a contribution wherever its candidate set allows it; min
    counts it only where it is forced (singleton candidate set, or else
    the t=2 intra-orbit floor). The delta table sums the P and N tables.
    """
    delta = dict(_side_bounds(pair.p, t == 2))
    for m, (lo, hi) in _side_bounds(pair.n, t == 2).items():
        d_lo, d_hi = delta.get(m, (0, 0))
        delta[m] = (d_lo + lo, d_hi + hi)
    return LengthCountBounds(delta, _bounds(_cross_contributions(pair), False))


@dataclass(frozen=True)
class ExistenceWitness:
    """Cross pair (k in olp(P), l in olp(N)) whose forced difference
    lengths are impossible within either describing set."""

    k: int
    l: int
    lengths: tuple[int, ...]

    def __str__(self) -> str:
        forced = ",".join(str(m) for m in self.lengths)
        return f"cross ({self.k},{self.l}) forces length in {{{forced}}}"


@dataclass(frozen=True)
class CountingWitness:
    """Length whose forced count on one side exceeds the other side's cap."""

    length: int
    min_count: int
    max_count: int
    direction: str  # "delta>delta_bar" or "delta_bar>delta"

    def __str__(self) -> str:
        lhs, rhs = self.direction.split(">")
        return (
            f"at length {self.length}: min {lhs} = {self.min_count} "
            f"> max {rhs} = {self.max_count}"
        )


@dataclass(frozen=True)
class PruneReport:
    pair: OlpPair
    verdict: str  # "accepted" | "rejected"
    witnesses: tuple = ()

    @property
    def reason(self) -> str:
        return str(self.witnesses[0]) if self.witnesses else ""


def _mask(lengths) -> int:
    """Bitmask with bit m set for each length m."""
    return sum(1 << m for m in lengths)


@lru_cache(maxsize=None)
def _existence_profile(olp: Olp) -> tuple[tuple[int, ...], int]:
    """(sorted distinct parts, pol_delta as a bitmask), built once per olp."""
    return tuple(_multiplicities(olp)), _mask(_side_bounds(olp, True))


@lru_cache(maxsize=None)
def _cross_witness(k: int, l: int) -> tuple[int, ExistenceWitness]:
    """The candidate lengths of a cross (k, l) as a bitmask, and the
    witness they give when none is possible within a side."""
    cand = _candidates(k, l)
    return _mask(cand), ExistenceWitness(k, l, cand)


@lru_cache(maxsize=None)
def _existence_table(olp_n: Olp) -> dict[int, tuple[tuple[int, ExistenceWitness], ...]]:
    """k -> _open_crosses(olp_n, k), filled in by prune per k on first use."""
    return {}


def _open_crosses(olp_n: Olp, k: int) -> tuple[tuple[int, ExistenceWitness], ...]:
    """The crosses (k, l), l over the distinct parts of olp(N) in order,
    whose candidate lengths miss pol_delta(N): only they can fire."""
    n_parts, n_mask = _existence_profile(olp_n)
    crosses = (_cross_witness(k, l) for l in n_parts)
    return tuple(cross for cross in crosses if not cross[0] & n_mask)


def _counting_witnesses(pair: OlpPair, t: int) -> list[CountingWitness]:
    p_side = _side_bounds(pair.p, t == 2)
    n_side = _side_bounds(pair.n, t == 2)
    cross = _bounds(_cross_contributions(pair), False)
    out = []
    for ell in sorted(p_side.keys() | n_side.keys() | cross.keys()):
        p_lo, p_hi = p_side.get(ell, (0, 0))
        n_lo, n_hi = n_side.get(ell, (0, 0))
        b_lo, b_hi = cross.get(ell, (0, 0))
        d_lo, d_hi = p_lo + n_lo, p_hi + n_hi
        if d_lo > b_hi:
            out.append(CountingWitness(ell, d_lo, b_hi, "delta>delta_bar"))
        if b_lo > d_hi:
            out.append(CountingWitness(ell, b_lo, d_hi, "delta_bar>delta"))
    return out


def prune(pairs, level: str = "counting", t: int = 2) -> list[PruneReport]:
    """One report per pair; rejected reports carry every firing witness.

    existence: cross-pair impossibility only. counting: additionally the
    per-length bound comparison, strict in both directions.
    """
    if level not in ("existence", "counting"):
        raise ValueError(f"unknown prune level {level!r}")
    reports = []
    for pair in pairs:
        p_parts, p_mask = _existence_profile(pair.p)
        crosses = _existence_table(pair.n)
        witnesses: list = []
        for k in p_parts:
            row = crosses.get(k)
            if row is None:
                row = crosses[k] = _open_crosses(pair.n, k)
            for cand, witness in row:
                if not cand & p_mask:
                    witnesses.append(witness)
        if not witnesses and level == "counting":
            witnesses = _counting_witnesses(pair, t)
        verdict = "rejected" if witnesses else "accepted"
        reports.append(PruneReport(pair, verdict, tuple(witnesses)))
    return reports


def survivors(reports) -> list[OlpPair]:
    return [r.pair for r in reports if r.verdict == "accepted"]
