"""Exhaustive orbit-assignment search and equivalence classification.

A normalized weighing row fixed by multiplier t has describing sets that
are unions of t-orbits, so for a given (olp(P), olp(N)) pair the search
space is the set of assignments of distinct orbits to parts. Orbits of
equal length within one side are interchangeable (combinations, not
permutations); the two sides are ordered. Each assignment is carried as
two bitmasks, the ORs of one mask per chosen orbit, and checked by the
autocorrelation kernel of rows (_weighing), with no row built, at the
pair's contraction order (see below). As t fixes P and N, the
autocorrelation is constant on each orbit {+-t^j s} of lags, so one lag
per orbit is tested. A hit is built into a row only when it opens a new
class of unit images, and each hit is also checked against the
difference-multiset equation, an independent formulation, so a
disagreement between the two fails loudly.

A pair's demand is the number of orbits of each length it uses, P and
N sides together. Z_n can host the pair only if, for every length, the
closed-form orbit_count is at least the demand; otherwise, by
pigeonhole, the pair has no assignment at all. The search and the
cross-check both decide this before listing a single orbit, so skipping
such a pair loses no solution. The count of length-ell orbits depends on
n only through gcd(n, t^e - 1) for e | ell, and every such t^e - 1
divides M, the lcm of t^ell - 1 over the lengths the feasible pairs use; so
the cross-check decides hosting once per g = gcd(n, M), not once per n.
The orbits themselves depend on n the same way: with g = gcd(n, t^ell - 1),
x -> (n/g)*x maps Z_g one to one onto the residues of Z_n whose orbit
length divides ell (those with (t^ell - 1)*x = 0) and commutes with
x -> t*x, so Z_n and Z_g have the same orbits of length ell, up to the
factor n/g, which keeps their order. A count is thus found once per
(g, ell), and the orbits are listed, with their masks, at the pair's
contraction order G (below). An order at which no pair is hosted and the
rule predicts no class builds no search at all.

A pair is searched once per contraction order G, the lcm of
g_ell = gcd(n, t^ell - 1) over the lengths ell it uses, which divides n.
Every orbit the pair can use lies in H = (n/G)*Z_n, a copy of Z_G, so the
assignments, the kernel on G-bit masks, the equation check and the
unit-image bookkeeping run once per (pair, weight, t, G), and the search
at n lifts the hits by n/G and canonicalizes them at n. This is exact:
(a) gcd(G, t^ell - 1) = g_ell, which divides G, so x -> (n/G)*x carries
the orbits of Z_G, their order and the lead orbits of Z_G (see below)
onto those of Z_n: a lead's least element e divides G exactly when
(n/G)*e divides n. The tested assignments are thus the same, scaled.
(b) A row supported in H has autocorrelation 0 at every lag outside H,
which no two support indices differ by; at a lag (n/G)*s in H it equals
the autocorrelation of its contraction to Z_G at s. The difference
multiset behaves the same way, so the kernel and the equation check give
at G the verdicts they would give at n. (c) U(n) -> U(G) is onto (CRT),
and a unit u acts on H as u mod G acts on Z_G, so the unit-image dedup
at G skips exactly the hits that the dedup at n would skip.

base_orders computes, per part length with multiplicity, which moduli
can host enough orbits of that length; the lcms of one choice per length
are the orders worth searching. full_classification derives its rule
from them and from pruning, not from the cross-check's hosting test: the
feasible pairs are pruned once, each survivor's base orders are found
once, and a survivor is taken at n exactly when one of its base orders
divides n. A solution at n realizing such a pair is a lift of one at d,
the lcm of the pair's base orders dividing n. Lifts of inequivalent rows
stay inequivalent: an equivalence restricts to their subgroup. At odd n,
equivalent rows fixed by t = 2 differ by a unit alone (a shift would be
a period of the support, and no odd-order subgroup tiles 16 points),
which keeps the olp, so classes of different pairs never merge. The
classes at n are thus, pair by pair, the lifts of the classes at d; as
base orders divide M, the rule too is found once per g. For small orders
the cross-check re-derives the answer: it searches every pair that Z_n
can host, not only the pairs that survive pruning, and canonicalizes
every class it finds at n itself; only each pair's enumeration at its
contraction order is shared with the rule and with other orders. It
canonicalizes once per class of unit images, not per row: a hit (a union
of t-orbits, so one unit per coset of <t> in U(G) is scanned) is kept
only if no image x -> u*x, u a coset leader, of an earlier kept hit
holds it, and only kept hits are lifted and canonicalized. The
cross-check merges the per-pair classes by their canonical
representatives and compares them, sorted, with the sorted rule
representatives in one step, as rows. The rule's lifts need no
canonicalizing of their own: a lift L = lift(r, m) of a canonical row r
with a -1 entry is canonical. Every row equivalent to L has its support
in one coset s + mZ_n; a least one has -1 at index 0, so that coset is
mZ_n, and rows on mZ_n compare as their contractions. Those
contractions are the rows equivalent to r, as U(n) maps onto U(n/m), so
the least is r and the least row equivalent to L is L.

Every search tests one assignment per unit class, not every
assignment. A unit u commutes with x -> t*x, so x -> u*x maps a union of
t-orbits onto one with the same olp pair, and a solution onto an
equivalent solution. The length of the orbit through x depends on
e = gcd(x, n) alone, and U(n) is transitive on {x : gcd(x, n) = e}, so
the orbits of one length with one e form a single unit class; its lead
is the orbit through e, whose least element is e ({0} for e = n). Pin
the P length with the most orbits at n: a unit sends an orbit that a
solution's P side takes there onto its lead, so the P choices at that
length that hold a lead keep a member of every class. The argument uses
units only, never shifts, so it holds for any weight, t and n, and it
covers every assignment: exhaustive_search reports assignment_count as
tested. Its solutions are derived from the classes: they are the images
x -> u*x + s of one solution per class that t fixes, the first hit, whose
row the scan built and the derivation reuses. Every tested
assignment goes through the kernel, and every hit through the equation
check; the derived solutions, images of checked rows, need neither.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from math import comb, gcd, lcm
from typing import NamedTuple

from .multisets import cw_equation_holds
# cross_pairs, apply_transform, verify_cw and are_equivalent are not called
# here but stay bound: the benchmark's tracer (perfbench/tracer.py) wraps them
# in this module, and tests/test_trace_bindings.py requires them. The
# candidate test, _weighing, is not a traced layer: its time is the search's.
from .orbits import ModulusContext, _orbit_count, hosting_divisors, orbits_of_length
from .pruning import (
    OlpPair, _pair_lengths, _record, cross_pairs, describing_set_sizes, feasible_pairs, prune,
    survivors,
)
from .rows import (
    CirculantRow,
    _coset_leaders,
    _weighing,
    apply_transform,
    are_equivalent,
    canonical_form,
    describing_sets,
    from_sets,
    verify_cw,
)


# Most orbit assignments one search may cover: the full count, assignment_count,
# of which the kernel tests only the share that holds a lead orbit (see the module
# docstring). Weight-16, t = 2 pairs need at most 891; t = +-1 (mod n) needs up to
# about 2.9e18 (1^10, 1^6 at n = 63).
MAX_ASSIGNMENTS = 10**6
# Most bits of orbit masks one search may hold, counted at n: one n-bit integer
# per orbit of each length the pair uses, 128 MiB in all. The search holds masks
# of G bits, G the pair's contraction order, a divisor of n (see the module
# docstring), so the count bounds them. The weight-16 base searches hold at most
# 4095 bits (n = G = 315), the cross-check's at odd n <= 10001 at most 737583
# (n = G = 7161; at n = 9207, 975942 bits counted at n, G = 1023);
# (1^1 20^1, 2^1 4^2 5^1) at n = G = 2^20 - 1 would hold 52388 masks, about
# 6.4 GiB.
MAX_MASK_BITS = 2**30
# Most sign characters the classes of one classification, or of all those
# that cwmat classify lists, may hold, one per entry of each class row; each
# entry is held as a coefficient before any is printed. The first --max-n
# over it at weight 16 is 32395.
MAX_CLASSIFY_CHARS = 2**25


def check_olp_sums(weight: int, sums: tuple[int, int]) -> None:
    """Raise ValueError unless the olp sums are (|P|, |N|) for the weight."""
    sizes = describing_set_sizes(weight)
    if sums != sizes:
        raise ValueError(f"olp sums must be {sizes} for weight {weight}, got {sums}")


class SearchSpec(namedtuple("SearchSpec", "n weight t pair")):
    """Order, weight, multiplier, and orbit length partition pair, with
    at most MAX_ASSIGNMENTS orbit assignments and MAX_MASK_BITS bits of
    orbit masks."""

    __slots__ = ()

    def __new__(cls, n: int, weight: int, t: int, pair: OlpPair):
        if n < 1:
            raise ValueError(f"order must be positive, got {n}")
        if t < 2:
            raise ValueError(f"multiplier base must be at least 2, got {t}")
        if gcd(t, n) != 1:
            raise ValueError(f"t={t} is not a unit mod {n}")
        check_olp_sums(weight, (pair.p.total, pair.n.total))
        self = tuple.__new__(cls, (n, weight, t, pair))
        count = self.assignment_count
        if count > MAX_ASSIGNMENTS:
            raise ValueError(
                f"{count} orbit assignments exceed the search bound of {MAX_ASSIGNMENTS}"
            )
        # no orbit is listed when Z_n cannot host the pair
        orbits = sum(_orbit_count(n, ell, t) for ell, _, _ in _pair_lengths(pair)) if count else 0
        if orbits * n > MAX_MASK_BITS:
            raise ValueError(
                f"{orbits} orbit masks of {n} bits, {orbits * n} bits in all, "
                f"exceed the search bound of {MAX_MASK_BITS}"
            )
        return self

    @property
    def assignment_count(self) -> int:
        """Number of (P, N) orbit assignments: the product over lengths ell
        of C(c, p) * C(c - p, q) = C(c, p + q) * C(p + q, p), with c orbits
        of length ell in Z_n and p, q parts of that length in P and N.
        It is 0 exactly when Z_n cannot host the pair."""
        n, _, t, pair = self
        count = 1
        for ell, p, q in _pair_lengths(pair):
            count *= comb(_orbit_count(n, ell, t), p + q) * comb(p + q, p)
        return count


class EquivalenceClass(NamedTuple):
    """representative is the canonical form; members are found rows."""

    representative: CirculantRow
    members: tuple[CirculantRow, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class SearchReport(NamedTuple):
    spec: SearchSpec
    candidates_tested: int
    solutions: tuple[CirculantRow, ...]
    classes: tuple[EquivalenceClass, ...]


# One entry per (order, t, ell) the search reads: G in _levels, n in
# exhaustive_search; read only.
@lru_cache(maxsize=64)
def _orbits(n: int, t: int, ell: int) -> list[tuple[int, ...]]:
    """The orbits of length ell in Z_n, listed once per (n, t, ell)."""
    return orbits_of_length(ModulusContext(n, t), ell)


def _levels(n: int, t: int, pair: OlpPair) -> list:
    """Per length the pair uses, ascending: [the orbits of that length in
    Z_n, their masks, parts of that length in P, parts in N, the indices of
    the lead orbits or None].

    Only the P length with the most orbits has leads, the orbits whose
    least element divides n ({0} stands for n); every U(n)-orbit of
    assignments keeps a member that holds one (see the module docstring).
    """
    levels = []
    for ell, p, q in _pair_lengths(pair):
        orbits = _orbits(n, t, ell)
        levels.append([orbits, [sum(1 << x for x in o) for o in orbits], p, q, None])
    # P holds parts whenever the pair uses a length, so a P length is pinned
    pinned = max(levels, key=lambda level: (level[2] > 0, len(level[0])), default=None)
    if pinned:
        pinned[4] = {i for i, o in enumerate(pinned[0]) if not o[0] or n % o[0] == 0}
    return levels


def _assignments(
    levels: list, pm: int = 0, nm: int = 0, P: tuple = (), N: tuple = ()
) -> Iterator[tuple[int, int, tuple, tuple]]:
    """Every (P, N) choice of distinct orbits that the levels (see _levels)
    allow, lazily, as (P mask, N mask, P, N), each extending the given one:
    P and N list their residues orbit by orbit.

    The choices are nested one length at a time, the first length
    outermost, so memory stays bounded by the orbit lists whatever the
    number of assignments. At a length with leads, a P choice that holds
    none is skipped.
    """
    if not levels:
        yield pm, nm, P, N
        return
    (orbits, masks, p, q, lead), rest = levels[0], levels[1:]
    for p_sel in itertools.combinations(range(len(orbits)), p):
        if lead is not None and lead.isdisjoint(p_sel):
            continue
        others = [i for i in range(len(orbits)) if i not in p_sel]
        more_pm, more_p = pm, P
        for i in p_sel:
            more_pm |= masks[i]
            more_p += orbits[i]
        for n_sel in itertools.combinations(others, q):
            more_nm, more_n = nm, N
            for i in n_sel:
                more_nm |= masks[i]
                more_n += orbits[i]
            yield from _assignments(rest, more_pm, more_nm, more_p, more_n)


def _scan(spec: SearchSpec) -> dict[CirculantRow, tuple]:
    """The first hit (P, N, its row) of each class by its canonical
    representative, from one assignment per unit class (see _levels).

    Orbits are listed only when the closed-form counts show that Z_n
    hosts the pair. The hits are enumerated once per contraction order
    G = lcm(gcd(n, t^ell - 1)) over the pair's lengths ell (see _hits and
    the module docstring); each is lifted by n/G, built into a row at n
    and canonicalized there.
    """
    n, _, t, pair = spec
    if spec.assignment_count == 0:
        return {}
    G = lcm(*(gcd(n, pow(t, ell, n) - 1) for ell, _, _ in _pair_lengths(pair)))
    m = n // G
    first: dict[CirculantRow, tuple] = {}
    for P, N in _hits(pair, t, G):
        if m > 1:
            P, N = tuple([m * x for x in P]), tuple([m * x for x in N])
        row = from_sets(n, P, N)
        first.setdefault(canonical_form(row, multiplier=t), (P, N, row))
    return first


# One entry per (pair, t, G): G divides the lcm of t^ell - 1 over the pair's
# lengths, so a pair has finitely many; an entry holds only its hits. The
# pair's sums fix the weight.
@lru_cache(maxsize=None)
def _hits(pair: OlpPair, t: int, G: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """The first hit (P, N) of each unit-image class, in the order of the
    assignments, of a pair that Z_G hosts, G the pair's contraction order;
    found once per (pair, t, G).

    Every tested assignment goes through the kernel, and every hit through
    the difference-multiset equation: RuntimeError, naming G, if the two
    disagree. A hit is kept only if no earlier kept hit's unit images hold
    it.
    """
    images: set[tuple[int, int]] = set()  # masks of each row(x^u) of a kept hit
    hits = []
    for pm, nm, P, N in _assignments(_levels(G, t, pair)):
        if not _weighing(G, P + N, pm, nm, t):
            continue
        if not cw_equation_holds(P, N, G):
            raise RuntimeError(
                f"autocorrelation and the difference-multiset equation disagree "
                f"at n={G} on {from_sets(G, P, N).to_string()}"
            )
        if (pm, nm) not in images:
            hits.append((P, N))
            for u in _coset_leaders(G, t):
                images.add((sum(1 << (u * i % G) for i in P), sum(1 << (u * i % G) for i in N)))
    return tuple(hits)


def _class_representatives(spec: SearchSpec) -> list[CirculantRow]:
    """The sorted canonical representatives of the pair's classes at spec.n."""
    return sorted(_scan(spec))


def exhaustive_search(spec: SearchSpec) -> SearchReport:
    """Every solution of the pair at spec.n and their classes, derived from
    one assignment per unit class (see _scan).

    candidates_tested is assignment_count: the unit argument covers every
    assignment (see the module docstring). A class's solutions are the
    images x -> u*x + s of its first hit that t fixes (see _images).
    solutions lists them class by class, in the order of classes, each
    class's in the order of the assignments: per length, the indices of
    the P orbits, then of the N orbits. Raises RuntimeError if a hit fails
    the difference-multiset equation.
    """
    n, _, t, pair = spec
    first = _scan(spec)
    # the orbits in Z_n of each length the pair uses; with no hit (so
    # whenever Z_n cannot host the pair) none is listed
    orbits = [_orbits(n, t, ell) for ell, _, _ in _pair_lengths(pair)] if first else []
    # residue -> (position of its orbit's length in the demand, the orbit's index)
    place = {x: (k, i) for k, orbs in enumerate(orbits) for i, o in enumerate(orbs) for x in o}
    classes = []
    for rep in sorted(first):
        P, N, row = first[rep]
        hit = frozenset(P), frozenset(N)  # the image u = 1, s = 0: the scan built its row
        images = sorted(_images(spec, P, N), key=lambda im: _key(im, place, len(orbits)))
        classes.append((rep, [row if im == hit else from_sets(n, *im) for im in images]))
    return SearchReport(
        spec,
        spec.assignment_count,
        tuple(row for _, rows in classes for row in rows),
        tuple(EquivalenceClass(rep, tuple(sorted(rows))) for rep, rows in classes),
    )


def _images(spec: SearchSpec, P, N) -> set[tuple[frozenset[int], frozenset[int]]]:
    """The images x -> u*x + s that t fixes of a solution (P, N) that t
    fixes, as (P, N).

    A unit u commutes with x -> t*x, so t fixes u*(P, N); it fixes
    u*(P, N) + s when (t - 1)*s = 0 (mod n), and only then, as a weighing
    row of positive weight has no period (its autocorrelation there would
    be its weight). x -> u*x + s then carries t-orbits onto t-orbits of
    the same length, so each image is a union of t-orbits with the pair's
    olp. u*t gives the images of u, so one unit per coset of <t> is
    scanned, and units with equal images u*(P, N) are shifted once.
    """
    n, t = spec.n, spec.t
    step = n // gcd(t - 1, n)
    scaled = {
        (frozenset(u * x % n for x in P), frozenset(u * x % n for x in N))
        for u in _coset_leaders(n, t)
    }
    return {
        (frozenset((x + s) % n for x in uP), frozenset((x + s) % n for x in uN))
        for uP, uN in scaled
        for s in range(0, n, step)
    }


def _key(image: tuple, place: dict[int, tuple[int, int]], lengths: int) -> tuple:
    """The place of a union of orbits (P, N) in the order of the
    assignments: per length, the indices of its P orbits, then of its N
    orbits. place maps a residue to (the position of its orbit's length
    in the demand, the orbit's index)."""
    taken = [sorted({place[x] for x in side}) for side in image]
    return tuple(
        tuple(tuple(i for j, i in side if j == k) for side in taken) for k in range(lengths)
    )


def classify(rows) -> tuple[EquivalenceClass, ...]:
    """Partition rows into equivalence classes, deterministically ordered.

    Grouping is by canonical form, so cost is linear in the number of
    rows; classes are sorted by their canonical representative.
    """
    orders = {row.n for row in rows}
    if len(orders) > 1:
        raise ValueError(f"rows have mixed orders {sorted(orders)}")
    groups: dict[CirculantRow, list[CirculantRow]] = {}
    for row in rows:
        groups.setdefault(canonical_form(row), []).append(row)
    # members and classes sorted as rows: within one order, by coefficients
    return tuple(EquivalenceClass(rep, tuple(sorted(groups[rep]))) for rep in sorted(groups))


def base_orders(pair: OlpPair, t: int = 2) -> list[int]:
    """Orders at which every class with this olp pair has a base solution.

    For each length ell with combined multiplicity c, the admissible
    moduli are the divisors d of t^ell - 1 hosting at least c orbits of
    length ell; the returned orders are the lcms of one admissible
    modulus per length. Any CW of odd order whose normalized row
    realizes this pair is a lift of a solution at one of these orders.
    """
    if any(ell > 10 for ell, _ in pair.demand):
        raise ValueError("orbit lengths above 10 are outside the implemented analysis")
    per_length = []
    for ell, need in pair.demand:
        choices = hosting_divisors(ell, t, need)
        if not choices:
            raise ValueError(f"no modulus hosts {need} orbits of length {ell}")
        per_length.append(choices)
    return sorted({lcm(*combo) for combo in itertools.product(*per_length)})


def lift(row: CirculantRow, m: int) -> CirculantRow:
    """Spread the row to order n*m: coefficient i moves to index i*m."""
    if m < 1:
        raise ValueError(f"lift factor must be positive, got {m}")
    return from_sets(row.n * m, *([i * m for i in side] for side in describing_sets(row)))


class ClassificationResult(NamedTuple):
    n: int
    weight: int
    classes: tuple[CirculantRow, ...]
    cross_checked: bool

    @property
    def count(self) -> int:
        return len(self.classes)


def _cross_check_error(n: int, reps, found) -> RuntimeError:
    """A cross-check failure naming, as sign strings, the rule
    representatives that are no search class representative, the search
    class representatives that are no rule representative, then both sides."""

    def listed(rows) -> str:
        return ", ".join(r.to_string() for r in rows) or "none"

    no_class = [r for r in reps if r not in found]
    no_rule = [c for c in found if c not in reps]
    return RuntimeError(
        f"rule predicts {len(reps)} classes at n={n}, search found {len(found)}; "
        f"rule representatives with no search class: [{listed(no_class)}]; "
        f"search classes with no rule representative: [{listed(no_rule)}]; "
        f"rule representatives: [{listed(reps)}]; search class representatives: [{listed(found)}]"
    )


@lru_cache(maxsize=None)
def _host_tests(weight: int, t: int) -> tuple[list[tuple[int, int]], tuple]:
    """The hosting tests, found once per (weight, t): each distinct
    (ell, need) of the feasible pairs' demands, and each feasible pair, in
    order, with the bitmask of the tests it must pass. No Z_n hosts any
    other cross pair."""
    demands = {pair: pair.demand for pair in feasible_pairs(weight, t)}
    tests = sorted({test for demand in demands.values() for test in demand})
    bit = {test: 1 << k for k, test in enumerate(tests)}
    return tests, tuple((pair, sum(bit[test] for test in demand)) for pair, demand in demands.items())


@lru_cache(maxsize=None)
def _host_modulus(weight: int, t: int) -> int:
    """M: the lcm of t^ell - 1 over every length the feasible pairs use."""
    return lcm(*(t**ell - 1 for ell in dict(_host_tests(weight, t)[0])))


@lru_cache(maxsize=None)
def _hosted_pairs(weight: int, t: int, g: int) -> tuple[OlpPair, ...]:
    """The feasible pairs, in order, whose demand Z_g can host, for g dividing M:
    each hosting test is decided once, and a pair is hosted if it passes all of
    its own. The count of length-ell orbits, a function of gcd(g, t^ell - 1), is
    found once per gcd and read once per length."""
    tests, masks = _host_tests(weight, t)
    counts = {ell: _orbit_count(g, ell, t) for ell in dict(tests)}
    passed = sum(1 << k for k, (ell, need) in enumerate(tests) if counts[ell] >= need)
    return tuple(pair for pair, mask in masks if mask & passed == mask)


@lru_cache(maxsize=None)
def _base_representatives(pair: OlpPair, weight: int, t: int, d: int) -> tuple[CirculantRow, ...]:
    """The canonical representatives of the pair's classes at order d, searched once."""
    return tuple(_class_representatives(SearchSpec(d, weight, t, pair)))


@lru_cache(maxsize=None)
def _rule_pairs(weight: int, t: int) -> tuple[tuple[OlpPair, tuple[int, ...]], ...]:
    """Each pair that survives counting-level pruning, in order, with its base orders."""
    pairs = [pair for pair, _ in _host_tests(weight, t)[1]]
    return tuple((pair, tuple(base_orders(pair, t))) for pair in survivors(prune(pairs, t=t)))


@lru_cache(maxsize=None)
def _rule_bases(weight: int, t: int, g: int) -> tuple[CirculantRow, ...]:
    """Base representatives of the classes at every odd n with gcd(n, M) = g.

    For each pair that survives pruning and has a base order dividing g,
    in order, the class representatives at d, the lcm of the pair's base
    orders that divide g (those that divide n, as base orders divide M).
    The classes at n are their lifts (see the module docstring).
    """
    reps = []
    for pair, orders in _rule_pairs(weight, t):
        dividing = [b for b in orders if g % b == 0]
        if dividing:
            reps.extend(_base_representatives(pair, weight, t, lcm(*dividing)))
    return tuple(reps)


def classification_rule(weight: int, t: int) -> list[tuple[int, int]]:
    """The terms (b, c_b), c_b != 0, sorted by b: the classes with multiplier
    t at n number the sum of c_b over the b dividing n.

    Per surviving pair, the classes at n are those at the lcm of its base
    orders dividing n, itself a base order: a base order is the lcm of
    one divisor of t^ell - 1 per length ell that hosts enough orbits of
    that length, and if d | d', Z_d is a t-invariant subgroup of Z_d', so
    d' hosts them too. So with c_b = classes(b) minus the c_b' of the
    pair's base orders b' properly dividing b, the classes at n number
    the sum of c_b over the b dividing n, summed over the pairs. Raises
    RuntimeError if a pair's base orders are not closed under lcm.
    """
    terms: dict[int, int] = {}
    for pair, orders in _rule_pairs(weight, t):
        if {lcm(a, b) for a in orders for b in orders} - set(orders):
            raise RuntimeError(f"base orders {list(orders)} are not closed under lcm")
        pair_terms: dict[int, int] = {}  # base orders ascend, so divisors come first
        for b in orders:
            classes = len(_base_representatives(pair, weight, t, b))
            pair_terms[b] = classes - sum(c for d, c in pair_terms.items() if b % d == 0)
            terms[b] = terms.get(b, 0) + pair_terms[b]
    return sorted((b, c) for b, c in terms.items() if c)


def _search_all_pairs(n: int, weight: int, t: int = 2) -> list[CirculantRow]:
    """Canonical representatives of the classes of every cross pair's
    solutions at order n, sorted.

    Only the pairs that Z_n can host are searched: a pair demanding more
    orbits of some length than orbit_count gives has no assignment, so
    skipping it is exact. That count at n equals the count at
    g = gcd(n, M) (see _host_modulus), so the hosted pairs are computed
    once per g, one entry per divisor of M. Rows of different pairs are
    never equivalent (see the module docstring), but the per-pair classes
    are merged by their canonical representative all the same, so the
    cross-check does not rest on that argument.
    """
    if n < 1 or gcd(n, t) != 1:
        ModulusContext(n, t)  # raises: g = gcd(n, M) is always a unit
    hosted = _hosted_pairs(weight, t, gcd(n, _host_modulus(weight, t)))
    return sorted({
        rep for pair in hosted for rep in _class_representatives(SearchSpec(n, weight, t, pair))
    })


# The multiplier premise of full_classification: for weight 16 and odd n,
# 2 is a multiplier.
CLASSIFIED_MULTIPLIER = 2


def check_classified_weight(weight: int) -> None:
    """Raise ValueError unless full_classification covers this weight."""
    if weight != 16:
        raise ValueError(f"only weight 16 is classified, got {weight}")


def full_classification(
    weight: int, n: int, cross_check: bool | None = None
) -> ClassificationResult:
    """Equivalence classes of CW(n, 16) for odd n, derived from the pipeline.

    For each olp pair that survives pruning and has a base order dividing
    n, in order, the classes are the lifts of the classes found at the
    lcm of the pair's base orders that divide n; this reproduces the
    paper's count of classes. cross_check (default: on for n <= 105)
    re-derives the answer by searching, one assignment per unit class,
    every olp pair that Z_n can host, merges the per-pair classes by
    their canonical representative, and requires those representatives
    to be exactly the sorted rule representatives, which are canonical
    (see the module docstring). On any mismatch it raises RuntimeError
    naming the representatives that match nothing on the other side,
    then both sides. Before any lift, it raises ValueError if the classes
    would hold more than MAX_CLASSIFY_CHARS sign characters.
    """
    check_classified_weight(weight)
    if n < 1 or n % 2 == 0:
        raise ValueError(f"order must be odd and positive, got {n}")
    t = CLASSIFIED_MULTIPLIER
    g = gcd(n, _host_modulus(weight, t))
    bases = _rule_bases(weight, t, g)
    if len(bases) * n > MAX_CLASSIFY_CHARS:
        raise ValueError(
            f"the {len(bases)} classes at n={n} hold {len(bases) * n} sign characters, "
            f"over the bound of {MAX_CLASSIFY_CHARS}"
        )
    reps = [lift(r, n // r.n) for r in bases]
    if cross_check is None:
        cross_check = n <= 105
    # with no class predicted and no pair hosted, the search would find none
    if cross_check and (reps or _hosted_pairs(weight, t, g)):
        found = _search_all_pairs(n, weight, t)
        if sorted(reps) != found:
            raise _cross_check_error(n, reps, found)
    return _record(ClassificationResult, (n, weight, tuple(reps), cross_check))
