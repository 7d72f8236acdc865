"""Exhaustive orbit-assignment search and equivalence classification.

A normalized weighing row fixed by multiplier t has describing sets that
are unions of t-orbits, so for a given (olp(P), olp(N)) pair the search
space is the set of assignments of distinct orbits to parts. Orbits of
equal length within one side are interchangeable (combinations, not
permutations); the two sides are ordered. Each assignment is carried as
two bitmasks, the ORs of one mask per chosen orbit, and checked by the
autocorrelation kernel of rows (_weighing), with no row built. As t
fixes P and N, the autocorrelation is constant on each orbit {+-t^j s}
of lags, so one lag per orbit is tested. A hit is built into a row only
when it opens a new class, and each hit is also checked against the
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
(g, ell), an orbit list is listed once per (g, ell) and scaled to each n,
and the orbit masks are built once per (n, ell), shared by the pairs
searched at n. An order at which no pair is hosted and the rule predicts
no class builds no search at all.

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
the answer is re-derived by searching every pair that Z_n can host from
scratch. It canonicalizes once per class, not per row: a new hit (a
union of t-orbits, so one unit per coset of <t> in U(n) is scanned)
records its images row(x^u), u a coset leader, under its form, and a
later hit among them needs no call. The cross-check merges the per-pair
classes by their canonical representatives and compares them, sorted,
with the sorted rule representatives in one step, as rows. The rule's
lifts need no canonicalizing of their own: a lift L = lift(r, m) of a
canonical row r with a -1 entry is canonical. Every row equivalent to L
has its support in one coset s + mZ_n; a least one has -1 at index 0,
so that coset is mZ_n, and rows on mZ_n compare as their contractions.
Those contractions are the rows equivalent to r, as U(n) maps onto
U(n/m), so the least is r and the least row equivalent to L is L.

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
assignment goes through the kernel and the equation check; the derived
solutions, images of checked rows, need neither.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache
from math import comb, gcd, lcm
from typing import NamedTuple

from .multisets import cw_equation_holds
# orbits_of_length, cross_pairs, apply_transform, verify_cw and are_equivalent
# are not called here but stay bound: the benchmark's tracer
# (perfbench/tracer.py) wraps them in this module, and
# tests/test_trace_bindings.py requires them. The candidate test, _weighing,
# is not a traced layer: its time is the search's.
from .orbits import (
    ModulusContext, _orbit_count, _orbit_table, hosting_divisors, orbits_of_length,
)
from .pruning import (
    OlpPair, _record, cross_pairs, describing_set_sizes, feasible_pairs, prune, survivors,
)
from .rows import (
    CirculantRow,
    _coset_leaders,
    _weighing,
    apply_transform,
    are_equivalent,
    canonical_form,
    from_sets,
    verify_cw,
)


# Most orbit assignments one search may cover: the full count, assignment_count,
# of which the kernel tests only the share that holds a lead orbit (see the module
# docstring). Weight-16, t = 2 pairs need at most 891; t = +-1 (mod n) needs up to
# about 2.9e18 (1^10, 1^6 at n = 63).
MAX_ASSIGNMENTS = 10**6
# Most bits of orbit masks one search may hold: one n-bit integer per orbit of
# each length the pair uses, 128 MiB in all. The weight-16 base searches hold at
# most 4095 bits (n = 315), the cross-check's at odd n <= 10001 at most 975942
# (n = 9207); (1^1 20^1, 2^1 4^2 5^1) at n = 2^20 - 1 would hold 52388 masks,
# about 6.4 GiB.
MAX_MASK_BITS = 2**30


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


@lru_cache(maxsize=None)
def _pair_lengths(pair: OlpPair) -> tuple[tuple[int, int, int], ...]:
    """(length, parts of that length in P, parts in N) for each length the
    pair uses, ascending: its demand, split by side, once per pair."""
    p, n = pair.p.parts, pair.n.parts
    return tuple([(ell, p.count(ell), n.count(ell)) for ell in sorted(set(p + n))])


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


def _levels(spec: SearchSpec) -> list:
    """Per length the pair uses, ascending: [the orbits of that length, their
    masks, parts of that length in P, parts in N, the indices of the lead
    orbits or None].

    Only the P length with the most orbits has leads, the orbits whose
    least element divides n ({0} stands for n); every U(n)-orbit of
    assignments keeps a member that holds one (see the module docstring).
    """
    n, _, t, pair = spec
    levels = [[*_orbit_table(n, t, ell), p, q, None] for ell, p, q in _pair_lengths(pair)]
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


def _scan(spec: SearchSpec) -> tuple[dict[CirculantRow, tuple], list[list[tuple[int, ...]]]]:
    """(the first hit (P, N, its row) of each class by its canonical
    representative, the orbits of each length the pair uses, ascending,
    as orbits_of_length lists them), from one assignment per unit class
    (see _levels).

    Orbits are listed only when the closed-form counts show that Z_n
    hosts the pair. Every tested assignment goes through the kernel, and
    every hit through the difference-multiset equation: RuntimeError if
    the two disagree. A hit is built into a row and canonicalized only
    if no earlier hit's unit images hold it.
    """
    n, t = spec.n, spec.t
    if spec.assignment_count == 0:
        return {}, []
    levels = _levels(spec)
    canon: dict[tuple[int, int], CirculantRow] = {}  # masks of a row(x^u) -> its canonical form
    first: dict[CirculantRow, tuple] = {}
    for pm, nm, P, N in _assignments(levels):
        if not _weighing(n, P + N, pm, nm, t):
            continue
        if not cw_equation_holds(P, N, n):
            raise RuntimeError(
                f"autocorrelation and the difference-multiset equation disagree "
                f"at n={n} on {from_sets(n, P, N).to_string()}"
            )
        if (pm, nm) not in canon:
            row = from_sets(n, P, N)
            rep = canonical_form(row, multiplier=t)
            first.setdefault(rep, (P, N, row))
            for u in _coset_leaders(n, t):
                image = sum(1 << (u * i % n) for i in P), sum(1 << (u * i % n) for i in N)
                canon[image] = rep
    return first, [level[0] for level in levels]


def _class_representatives(spec: SearchSpec) -> list[CirculantRow]:
    """The sorted canonical representatives of the pair's classes at spec.n."""
    return sorted(_scan(spec)[0])


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
    first, orbits = _scan(spec)
    # residue -> (position of its orbit's length in the demand, the orbit's index)
    place = {x: (k, i) for k, orbs in enumerate(orbits) for i, o in enumerate(orbs) for x in o}
    classes = []
    for rep in sorted(first):
        P, N, row = first[rep]
        hit = frozenset(P), frozenset(N)  # the image u = 1, s = 0: the scan built its row
        images = sorted(_images(spec, P, N), key=lambda im: _key(im, place, len(orbits)))
        classes.append((rep, [row if im == hit else from_sets(spec.n, *im) for im in images]))
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
    parts = pair.p.parts + pair.n.parts
    if any(p > 10 for p in parts):
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
    coeffs = [0] * (row.n * m)
    for i, c in enumerate(row.coeffs):
        coeffs[i * m] = c
    return CirculantRow(row.n * m, tuple(coeffs))


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
    then both sides.
    """
    check_classified_weight(weight)
    if n < 1 or n % 2 == 0:
        raise ValueError(f"order must be odd and positive, got {n}")
    # The multiplier premise: for weight 16 and odd n, 2 is a multiplier.
    t = 2
    g = gcd(n, _host_modulus(weight, t))
    reps = [lift(r, n // r.n) for r in _rule_bases(weight, t, g)]
    if cross_check is None:
        cross_check = n <= 105
    # with no class predicted and no pair hosted, the search would find none
    if cross_check and (reps or _hosted_pairs(weight, t, g)):
        found = _search_all_pairs(n, weight, t)
        if sorted(reps) != found:
            raise _cross_check_error(n, reps, found)
    return _record(ClassificationResult, (n, weight, tuple(reps), cross_check))
