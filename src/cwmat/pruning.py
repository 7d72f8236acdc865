"""Orbit-length-partition enumeration and pruning.

A normalized weighing row of square weight s^2 whose describing sets are
unions of t-orbits induces a pair of orbit length partitions
(olp(P), olp(N)) with |P| = s(s+1)/2 and |N| = s(s-1)/2. This module
enumerates the partition pairs compatible with the orbit-count caps and
prunes them with a single divisibility calculus:

  diff_length_candidates(k, l, t) = { m : m | lcm(k,l), k | lcm(l,m),
                                       l | lcm(m,k), m > 1 if t = 2 }

is a sound superset of the possible orbit lengths of a difference a - b
of distinct a, b with ol(a) = k, ol(b) = l (doubling fixes no nonzero
a - b); the test suite checks it collapses to the expected exact sets
in the coprime and shared-prime-factor cases. It is computed in closed
form, one prime at a time (see diff_length_candidates), and the tests
check that against the divisor filter above.
Pruning then runs at two levels:

  existence  a cross pair (k in olp(P), l in olp(N)) forces difference
             lengths that no same-side pair can produce;
  counting   for some length, the number of differences forced onto it
             on one side strictly exceeds the number the other side can
             possibly place there.

Counting sizes a contribution k(k-1) within one orbit and 2kl between
two, and forces it onto a length only when its candidate set is that
length alone, plus one t = 2 special: an orbit of length k >= 2 holds
the differences +-t^i(t*a - a) = +-t^i*a, so at least min(2k, k(k-1))
differences of length k are forced. The (min, max) tables are packed,
one int per bound with the count at each length in a width-bit field
of its own, and built in one pass: a contribution adds its size
times a unit table (max 1 at each candidate, min 1 at a lone one), or
else, within an orbit at t = 2, its floor at length k. Every term is a
fixed amount per orbit or pair of orbits, so one contribution per
distinct (k, l), weighted by the multiplicities, is exact: a pair's
within-side table sums one table per describing set, packed once per
olp and width from the contributions its facts hold, and its delta_bar
table sums, times the multiplicity of each P part k, the table of one
length-k orbit against olp(N), built once per (olp(N), k).

Each pair's existence verdict is found once per (olp(N), t) and each
olp's facts are built in one pass, then both are reused by every later
call, at either level. Partitions come from one recursion that drops a
subtree once a run of equal parts m exceeds caps[m]. feasible_pairs
checks the combined caps only at the tight lengths ell,
floor(|P|/ell) + floor(|N|/ell) > caps[ell], by one AND per tight
length and N olp over bitmasks of the P olps. An olp's facts are its
distinct parts, its contributions, and the lengths of its own
differences as a bitmask over the table fields, the OR of the candidate
bitmasks of its own (k, l). Once per run of pairs sharing olp(N),
existence reads that olp's table: k -> the crosses (k, l) whose
candidates miss the lengths of N, with the ExistenceWitness each fires
(built once per (k, l) and shared), and olp(P) -> the pair's existence
report. A pair decided before costs one lookup; otherwise one lookup
per distinct P part and one AND per listed cross. The counting level
returns the existence report itself for every pair but those that pass
existence and fail counting; only the pairs that pass existence reach
the bound tables, where a field of 2^(width-1) - 1 + min - max keeps
its top bit exactly where min > max. A counting witness is one record
per distinct value, shared like the existence witnesses.
Pair grids with more than MAX_CROSS_PAIRS pairs, counted by a
generating function, are refused before any partition is listed.
"""
from __future__ import annotations

from collections import defaultdict, namedtuple
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, prod
from operator import index
from typing import NamedTuple

from .orbits import ModulusContext, divisors, orbit_count_cap, orbit_of


# Most parts Olp.from_string expands. Parts take distinct orbits of Z_n, so
# n >= parts and a search holds at least parts^2 bits of orbit masks: a pair
# with more parts on a side is refused by search.MAX_MASK_BITS = MAX_OLP_PARTS^2,
# or no Z_n hosts it, and the pair grid refuses sides of over 100.
MAX_OLP_PARTS = 2**15


class Olp(namedtuple("Olp", "parts")):
    """Orbit length partition: a multiset of positive part lengths."""

    __slots__ = ()

    def __new__(cls, parts):
        # index, not int: a float or a string is an error, not a part
        parts = tuple(sorted(map(index, parts)))
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive, got {parts}")
        return tuple.__new__(cls, (parts,))

    @classmethod
    def from_string(cls, text: str) -> "Olp":
        """Parse space-separated 'length^multiplicity' tokens, e.g. '1^1 5^1';
        more than MAX_OLP_PARTS parts are refused before any is listed."""
        tokens = olp_tokens(text)
        count = sum(mult for _, mult in tokens)
        if count > MAX_OLP_PARTS:
            raise ValueError(f"{count} olp parts exceed the bound of {MAX_OLP_PARTS}")
        parts: list[int] = []
        for length, mult in tokens:
            parts.extend([length] * mult)
        return cls(parts)

    def __str__(self) -> str:
        mults = self.multiplicities
        return " ".join(f"{length}^{mults[length]}" for length in sorted(mults))

    @property
    def total(self) -> int:
        return sum(self.parts)

    @property
    def multiplicities(self) -> dict[int, int]:
        mults: dict[int, int] = {}
        for part in self.parts:
            mults[part] = mults.get(part, 0) + 1
        return mults


def olp_tokens(text: str) -> list[tuple[int, int]]:
    """(length, multiplicity) of each token of an olp string, in order; a
    bare length has multiplicity 1. Nothing is expanded, so the sum of
    length * multiplicity is known before any part is listed."""
    tokens = []
    for token in text.split():
        length_s, sep, mult_s = token.partition("^")
        try:
            length = int(length_s)
            mult = int(mult_s) if mult_s else 1
        except ValueError:
            raise ValueError(f"bad olp token {token!r}") from None
        if length < 1 or mult < 1 or (sep and not mult_s):
            raise ValueError(f"bad olp token {token!r}")
        tokens.append((length, mult))
    return tokens


Demand = tuple[tuple[int, int], ...]

# A tuple-based record from its fields, skipping its Python-level __new__
_record = tuple.__new__


class OlpPair(NamedTuple):
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
        return tuple([(ell, p + q) for ell, p, q in _pair_lengths(self)])


def olp_of_set(X, ctx: ModulusContext) -> Olp:
    """Orbit length partition of a union of t-orbits.

    Rejects sets that are not unions of orbits; the partition would be
    meaningless for them.
    """
    remaining = set(x % ctx.n for x in X)
    parts = []
    while remaining:
        o = orbit_of(min(remaining), ctx)
        if not remaining.issuperset(o):
            raise ValueError("set is not a union of t-orbits")
        remaining.difference_update(o)
        parts.append(len(o))
    return Olp(tuple(parts))


def _capped_partitions(total: int, caps) -> list[Olp]:
    """Partitions of total with at most caps[m] parts equal to m, in
    ascending order of the largest part, then recursively the same order
    on the remainder; total = 0 gives the empty partition.

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

    rec(total, total, 0, ())
    return [Olp(parts) for parts in kept]


@lru_cache(maxsize=None)
def _multiplicities(olp: Olp) -> dict[int, int]:
    """Olp.multiplicities, built once per olp; callers must not mutate it."""
    return olp.multiplicities


@lru_cache(maxsize=None)
def _pair_lengths(pair: OlpPair) -> tuple[tuple[int, int, int], ...]:
    """(length, parts of that length in P, parts in N) for each length the
    pair uses, ascending: its demand, split by side, once per pair."""
    p, n = pair.p.parts, pair.n.parts
    return tuple([(ell, p.count(ell), n.count(ell)) for ell in sorted(set(p + n))])


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
    p_olps, n_olps = (_capped_partitions(s, caps) for s in sizes)
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
        out += [_record(OlpPair, (olp_p, olp_n)) for olp_p, bit in zip(p_olps, bits) if bit == "1"]
    return out


@lru_cache(maxsize=None)
def diff_length_candidates(k: int, l: int, t: int = 2) -> frozenset[int]:
    """Possible values of ol(a - b) under x -> t*x for distinct a, b with
    ol(a)=k, ol(b)=l.

    Length 1 means t(a - b) = a - b, so k = l. At t = 2 it forces a = b,
    hence the m > 1 cut there; other t fix a nonzero a - b whenever
    gcd(n, t - 1) > 1.

    The divisor conditions of the module docstring, read one prime at a
    time: m carries max(v_p(k), v_p(l)) where the two exponents differ,
    and any exponent up to theirs where they agree. So m = f * d with e
    the part of gcd(k, l) at the primes where they agree, f = lcm(k, l)/e
    and d | e.
    """
    if k < 1 or l < 1:
        raise ValueError(f"orbit lengths must be positive, got ({k}, {l})")
    g = gcd(k, l)
    apart = k // g * (l // g)  # lcm/gcd: its primes are those where the exponents differ
    e = g
    while (shared := gcd(e, apart)) > 1:
        e //= shared
    f = k // g * l // e
    return frozenset(f * d for d in divisors(e) if f * d > 1 or t != 2)


# The field of each length in the packed tables, handed out on first use
# (one C-level defaultdict step, so no length gets two), and the length
# in each field: tables are as wide as the lengths seen, not as long.
_field_of: defaultdict[int, int] = defaultdict(count().__next__)
_length_at: dict[int, int] = {}


def _field(m: int) -> int:
    """The field of length m in every packed table."""
    field = _field_of[m]
    _length_at[field] = m
    return field


def _width(pair: OlpPair) -> int:
    """Field width for the pair: no count reaches (|P| + |N|)^2."""
    return ((pair.p.total + pair.n.total) ** 2).bit_length() + 1


@lru_cache(maxsize=None)
def _comparison(width: int, fields: int) -> tuple[int, int]:
    """(high, bias): the top bit, and 2^(width-1) - 1, in each of fields."""
    ones = ((1 << width * fields) - 1) // ((1 << width) - 1)
    return ones << width - 1, (ones << width - 1) - ones


@lru_cache(maxsize=None)
def _unit(k: int, l: int, t: int, width: int) -> tuple[int, int]:
    """Packed (min, max) tables of one difference of a (k, l) contribution."""
    cand = diff_length_candidates(k, l, t)
    hi = sum(1 << _field(m) * width for m in cand)
    return (hi if len(cand) == 1 else 0), hi


def _bounds(contributions, t: int, width: int) -> tuple[int, int]:
    """Packed per-length (min, max) counts by the one-pass rule."""
    lo = hi = 0
    for k, l, size, floor in contributions:
        u_lo, u_hi = _unit(k, l, t, width)
        lo += size * u_lo
        hi += size * u_hi
        if not u_lo and t == 2 and floor:
            # +-t^i(t*a - a) = +-t^i*a stays in the orbit (t = 2 only)
            lo += floor << _field(k) * width
    return lo, hi


@lru_cache(maxsize=None)
def _side_bounds(olp: Olp, t: int, width: int) -> tuple[int, int]:
    """Packed bounds of one describing set's own differences, from its
    contributions, once per olp and width."""
    return _bounds(_olp_facts(olp, t)[2], t, width)


@lru_cache(maxsize=None)
def _cross_row(olp_n: Olp, k: int, t: int, width: int) -> tuple[int, int]:
    """Packed bounds of one orbit of length k against olp(N): 2kl per orbit."""
    n_mults = _multiplicities(olp_n).items()
    return _bounds([(k, l, 2 * k * l * d, 0) for l, d in n_mults], t, width)


def _cross_bounds(pair: OlpPair, t: int, width: int) -> tuple[int, int]:
    """Packed delta_bar bounds: each P part k's row times its multiplicity."""
    b_lo = b_hi = 0
    for k, c in _multiplicities(pair.p).items():
        lo, hi = _cross_row(pair.n, k, t, width)
        b_lo, b_hi = b_lo + c * lo, b_hi + c * hi
    return b_lo, b_hi


class ExistenceWitness(NamedTuple):
    """Cross pair (k in olp(P), l in olp(N)) whose forced difference
    lengths are impossible within either describing set."""

    k: int
    l: int
    lengths: tuple[int, ...]

    def __str__(self) -> str:
        forced = ",".join(str(m) for m in self.lengths)
        return f"cross ({self.k},{self.l}) forces length in {{{forced}}}"


class CountingWitness(NamedTuple):
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


class PruneReport(NamedTuple):
    pair: OlpPair
    verdict: str  # "accepted" | "rejected"
    witnesses: tuple = ()

    @property
    def reason(self) -> str:
        return str(self.witnesses[0]) if self.witnesses else ""


def _mask(lengths) -> int:
    """Bitmask with bit m set for each m."""
    return sum(1 << m for m in lengths)


@lru_cache(maxsize=None)
def _olp_facts(
    olp: Olp, t: int
) -> tuple[tuple[int, ...], int, tuple[tuple[int, int, int, int], ...]]:
    """(sorted distinct parts, the lengths of its own differences as a
    bitmask, its contributions), from one pass over the olp.

    A contribution (k, l, size, floor) stands for every difference of one
    distinct (k, l), k <= l, within the describing set. One orbit of
    length k contributes k(k-1) ordered differences, of which the t = 2
    floor min(2k, k(k-1)) stays in the orbit; two distinct orbits of
    lengths k, l on the same side contribute 2kl. With c orbits of length
    k, (k, k) sums c orbits and c(c-1)/2 pairs of them, and (k, l) sums
    c * d pairs for d orbits of length l. A lone orbit of length 1 has no
    differences, so it adds no length to the mask.
    """
    mults = list(_multiplicities(olp).items())
    contributions = []
    mask = 0
    for i, (k, c) in enumerate(mults):
        contributions.append((k, k, c * k * (k - 1) + c * (c - 1) * k * k, c * min(2 * k, k * (k - 1))))
        contributions.extend((k, l, 2 * k * l * c * d, 0) for l, d in mults[i + 1 :])
    for k, l, size, _ in contributions:
        if size:
            mask |= _cross_witness(k, l, t)[0]
    return tuple(k for k, _ in mults), mask, tuple(contributions)


@lru_cache(maxsize=None)
def _cross_witness(k: int, l: int, t: int) -> tuple[int, ExistenceWitness]:
    """The candidate lengths of a cross (k, l) as a bitmask over their
    fields, and the witness they give when none is possible within a side."""
    cand = tuple(sorted(diff_length_candidates(k, l, t)))
    return _mask(map(_field, cand)), _record(ExistenceWitness, (k, l, cand))


@lru_cache(maxsize=None)
def _existence_table(olp_n: Olp, t: int) -> tuple[dict, dict]:
    """(k -> the crosses (k, l) that miss the lengths of olp_n's own
    differences, olp(P) -> the existence-level report of (olp(P), olp_n)),
    each entry decided once; prune fills them."""
    return {}, {}


@lru_cache(maxsize=None)
def _counting_witness(
    length: int, min_count: int, max_count: int, direction: str
) -> CountingWitness:
    """One record per distinct witness, shared by every report that fires it:
    at W = 64 the counting level fires 183991 witnesses, 2790 of them distinct."""
    return _record(CountingWitness, (length, min_count, max_count, direction))


def _counting_witnesses(pair: OlpPair, t: int) -> list[CountingWitness]:
    """The fields where a min exceeds the other side's max, by length."""
    p, n = pair
    width = _width(pair)
    p_lo, p_hi = _side_bounds(p, t, width)
    n_lo, n_hi = _side_bounds(n, t, width)
    d_lo, d_hi = p_lo + n_lo, p_hi + n_hi
    b_lo, b_hi = _cross_bounds(pair, t, width)
    high, bias = _comparison(width, max(d_hi, b_hi).bit_length() // width + 1)
    field = (1 << width) - 1
    out = []
    for lo, hi, way in ((d_lo, b_hi, "delta>delta_bar"), (b_lo, d_hi, "delta_bar>delta")):
        fired = (lo + bias - hi) & high
        while fired:
            bit = fired & -fired
            fired ^= bit
            at = bit.bit_length() - width
            ell = _length_at[at // width]
            out.append(_counting_witness(ell, lo >> at & field, hi >> at & field, way))
    return sorted(out)  # by length: no length fires both ways, as min <= max


def prune(pairs, level: str = "counting", t: int = 2) -> list[PruneReport]:
    """One report per pair; rejected reports carry every firing witness.

    existence: cross-pair impossibility only. counting: additionally the
    per-length bound comparison, strict in both directions. A pair's
    existence report is decided once per (olp(N), t) and shared by every
    later call; at the counting level it is the pair's report too, unless
    the pair passes existence and fails counting.
    """
    if level not in ("existence", "counting"):
        raise ValueError(f"unknown prune level {level!r}")
    counting = level == "counting"
    reports = []
    olp_n = None
    for pair in pairs:
        p, n = pair
        if n is not olp_n:  # pairs usually come in runs sharing olp(N)
            olp_n, (crosses, decided) = n, _existence_table(n, t)
            n_parts, n_mask, _ = _olp_facts(n, t)
        report = decided.get(p)
        if report is None:
            p_parts, p_mask, _ = _olp_facts(p, t)
            witnesses: list = []
            for k in p_parts:
                row = crosses.get(k)
                if row is None:
                    row = crosses[k] = tuple(
                        [c for l in n_parts if not (c := _cross_witness(k, l, t))[0] & n_mask]
                    )
                for cand, witness in row:
                    if not cand & p_mask:
                        witnesses.append(witness)
            verdict = "rejected" if witnesses else "accepted"
            report = decided[p] = _record(PruneReport, (pair, verdict, tuple(witnesses)))
        if counting and not report.witnesses and (witnesses := _counting_witnesses(pair, t)):
            report = _record(PruneReport, (pair, "rejected", tuple(witnesses)))
        reports.append(report)
    return reports


def survivors(reports) -> list[OlpPair]:
    return [r.pair for r in reports if r.verdict == "accepted"]
