"""Exhaustive orbit-assignment search and equivalence classification.

A normalized weighing row fixed by multiplier t has describing sets that
are unions of t-orbits, so for a given (olp(P), olp(N)) pair the search
space is the set of assignments of distinct orbits to parts. Orbits of
equal length within one side are interchangeable (combinations, not
permutations); the two sides are ordered. Each assignment is carried as
two bitmasks, the ORs of one mask per chosen orbit, and checked by the
autocorrelation kernel of rows (_weighing), with no row built. As t
fixes P and N, the autocorrelation is constant on each orbit {+-t^j s}
of lags, so one lag per orbit is tested. Only distinct hits are built
into rows, and each hit is also checked against the difference-multiset
equation, an independent formulation, so a disagreement between the two
fails loudly.

A pair's demand is the number of orbits of each length it uses, P and
N sides together. Z_n can host the pair only if, for every length, the
closed-form orbit_count is at least the demand; otherwise, by
pigeonhole, the pair has no assignment at all. The search and the
cross-check both decide this before listing a single orbit, so skipping
such a pair loses no solution. The count of length-ell orbits depends on
n only through gcd(n, t^e - 1) for e | ell, and every such t^e - 1
divides M, the lcm of t^ell - 1 over the lengths the feasible pairs use; so
the cross-check decides hosting once per g = gcd(n, M), not once per n.

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
classes by their canonical representatives, which come out sorted, and
compares them with the sorted canonical forms of the rule's
representatives in one step.
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cached_property, lru_cache
from math import comb, gcd, lcm
from typing import NamedTuple

from .multisets import cw_equation_holds
from .orbits import ModulusContext, hosting_divisors, orbit_count, orbits_of_length, units
from .pruning import (
    Demand, OlpPair, cross_pairs, describing_set_sizes, feasible_pairs, prune, survivors,
)
# cross_pairs, apply_transform, verify_cw and are_equivalent are not called
# here but stay bound: the benchmark's tracer (perfbench/tracer.py) wraps
# them in this module, and tests/test_trace_bindings.py requires them. The
# candidate test, _weighing, is not a traced layer: its time is the search's.
from .rows import (
    CirculantRow,
    _coset_leaders,
    _weighing,
    apply_transform,
    are_equivalent,
    canonical_form,
    canonical_form_up_to_negation,
    from_sets,
    verify_cw,
)


# Most orbit assignments one search may enumerate: about 20 s (15-22 us per candidate, whole
# searches of (1^1 3^1 6^1, 6^1) at n = 63 and 315, best of 5, 2-core x86, CPython 3.11).
# Weight-16, t = 2 pairs need at most 891; t = +-1 (mod n) needs up to
# about 2.9e18 (1^10, 1^6 at n = 63).
MAX_ASSIGNMENTS = 10**6


class SearchSpec(namedtuple("SearchSpec", "n weight t pair")):
    """Order, weight, multiplier, and orbit length partition pair, with
    at most MAX_ASSIGNMENTS orbit assignments."""

    def __new__(cls, n: int, weight: int, t: int, pair: OlpPair):
        if n < 1:
            raise ValueError(f"order must be positive, got {n}")
        if t < 2:
            raise ValueError(f"multiplier base must be at least 2, got {t}")
        if gcd(t, n) != 1:
            raise ValueError(f"t={t} is not a unit mod {n}")
        p_size, n_size = describing_set_sizes(weight)
        if (pair.p.total, pair.n.total) != (p_size, n_size):
            raise ValueError(
                f"olp sums must be ({p_size}, {n_size}) for weight "
                f"{weight}, got ({pair.p.total}, {pair.n.total})"
            )
        self = tuple.__new__(cls, (n, weight, t, pair))
        count = self.assignment_count
        if count > MAX_ASSIGNMENTS:
            raise ValueError(
                f"{count} orbit assignments exceed the search bound of {MAX_ASSIGNMENTS}"
            )
        return self

    @cached_property
    def assignment_count(self) -> int:
        """Number of (P, N) orbit assignments: the product over lengths ell
        of C(c, p) * C(c - p, q) = C(c, p + q) * C(p + q, p), with c orbits
        of length ell in Z_n and p, q parts of that length in P and N.
        It is 0 exactly when Z_n cannot host the pair."""
        p_mults = self.pair.p.multiplicities
        count = 1
        for ell, need in self.pair.demand:
            c = orbit_count(self.n, ell, self.t)
            count *= comb(c, need) * comb(need, p_mults.get(ell, 0))
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


def _assignments(spec: SearchSpec) -> Iterator[tuple[int, int, tuple, tuple]]:
    """Every (P, N) choice of distinct orbits matching the olp pair, lazily,
    as (P mask, N mask, P, N): bit x of a mask stands for residue x, and
    P and N list their residues orbit by orbit.

    Orbits are listed only when the closed-form counts show that Z_n
    hosts the pair, each once with its mask. The choices are nested one
    length at a time, the first length outermost, so memory stays bounded
    by the orbit lists whatever the number of assignments.
    """
    if spec.assignment_count == 0:
        return
    ctx = ModulusContext(spec.n, spec.t)
    p_mults = spec.pair.p.multiplicities
    n_mults = spec.pair.n.multiplicities
    lengths = [ell for ell, _ in spec.pair.demand]
    available = {
        ell: [(sum(1 << x for x in o.elements), o.elements) for o in orbits_of_length(ctx, ell)]
        for ell in lengths
    }

    def extend(k: int, pm: int, nm: int, P: tuple, N: tuple) -> Iterator[tuple]:
        if k == len(lengths):
            yield pm, nm, P, N
            return
        ell = lengths[k]
        orbs = available[ell]
        for p_sel in itertools.combinations(range(len(orbs)), p_mults.get(ell, 0)):
            rest = [i for i in range(len(orbs)) if i not in p_sel]
            more_pm, more_p = pm, P
            for i in p_sel:
                more_pm |= orbs[i][0]
                more_p += orbs[i][1]
            for n_sel in itertools.combinations(rest, n_mults.get(ell, 0)):
                more_nm, more_n = nm, N
                for i in n_sel:
                    more_nm |= orbs[i][0]
                    more_n += orbs[i][1]
                yield from extend(k + 1, more_pm, more_nm, more_p, more_n)

    yield from extend(0, 0, 0, (), ())


def exhaustive_search(spec: SearchSpec) -> SearchReport:
    """Test every orbit assignment; report solutions and their classes.

    solutions are the distinct sign-normalized hits, ordered by their
    canonical form (so class by class, in the order of classes), ties
    in enumeration order. Raises RuntimeError if a hit fails the
    difference-multiset equation.
    """
    n, t = spec.n, spec.t
    tested = 0
    seen: dict[tuple[int, int], CirculantRow] = {}
    canon: dict[tuple[int, int], CirculantRow] = {}  # masks of a row(x^u) -> its canonical form
    for pm, nm, P, N in _assignments(spec):
        tested += 1
        if not _weighing(n, P + N, pm, nm, t):
            continue
        if not cw_equation_holds(P, N, n):
            raise RuntimeError(
                f"autocorrelation and the difference-multiset equation disagree "
                f"at n={n} on {from_sets(n, P, N).to_string()}"
            )
        if pm.bit_count() < nm.bit_count():  # sign-normalize: more +1 than -1 entries
            pm, nm, P, N = nm, pm, N, P
        row = seen[pm, nm] = from_sets(n, P, N)  # distinct assignments, distinct hits
        if (pm, nm) not in canon:
            rep = canonical_form(row, multiplier=t)
            for u in _coset_leaders(n, t):
                image = sum(1 << (u * i % n) for i in P), sum(1 << (u * i % n) for i in N)
                canon[image] = rep
    classes = _group((canon[key], row) for key, row in seen.items())
    solutions = tuple(seen[key] for key in sorted(seen, key=canon.__getitem__))
    return SearchReport(spec, tested, solutions, classes)


def classify(rows, up_to_negation: bool = False) -> tuple[EquivalenceClass, ...]:
    """Partition rows into equivalence classes, deterministically ordered.

    Grouping is by canonical form, so cost is linear in the number of
    rows; classes are sorted by their canonical representative.
    """
    orders = {row.n for row in rows}
    if len(orders) > 1:
        raise ValueError(f"rows have mixed orders {sorted(orders)}")
    canon = canonical_form_up_to_negation if up_to_negation else canonical_form
    return _group((canon(row), row) for row in rows)


def _group(pairs: Iterable[tuple[CirculantRow, CirculantRow]]) -> tuple[EquivalenceClass, ...]:
    """Classes from (canonical representative, row) pairs.

    Equal representatives mean one class; members and classes are
    sorted as rows, which within one order is by coefficients (-1 < 0 < +1).
    """
    groups: dict[CirculantRow, list[CirculantRow]] = {}
    for rep, row in pairs:
        groups.setdefault(rep, []).append(row)
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


def contract(row: CirculantRow) -> tuple[CirculantRow, int]:
    """Maximal inverse of lift: (base, m) with lift(base, m) == row.

    m is the gcd of the order and all support indices; m == 1 means the
    row is incompressible.
    """
    support = row.support
    if not support:
        raise ValueError("cannot contract the zero row")
    m = gcd(row.n, *support)
    base = CirculantRow(row.n // m, tuple(row.coeffs[i * m] for i in range(row.n // m)))
    return base, m


def class_contractible(row: CirculantRow, d: int) -> bool:
    """Whether some equivalent row has all support indices divisible by d.

    The image support is {u*i + s}; a suitable s exists exactly when all
    u*i agree mod d, so only units u are scanned.
    """
    if d < 1 or row.n % d != 0:
        raise ValueError(f"d must divide the order, got d={d}, n={row.n}")
    support = row.support
    return any(len({(u * i) % d for i in support}) <= 1 for u in units(row.n))


class ClassificationResult(NamedTuple):
    n: int
    weight: int
    classes: tuple[CirculantRow, ...]
    cross_checked: bool

    @property
    def count(self) -> int:
        return len(self.classes)


def _cross_check_error(n: int, reps, forms, found) -> RuntimeError:
    """A cross-check failure naming, as sign strings, the rule
    representatives whose canonical form is no search class, the search
    class representatives found that are no such form, then both sides."""

    def listed(rows) -> str:
        return ", ".join(r.to_string() for r in rows) or "none"

    no_class = [r for r, form in zip(reps, forms) if form not in found]
    no_rule = [c for c in found if c not in forms]
    return RuntimeError(
        f"rule predicts {len(reps)} classes at n={n}, search found {len(found)}; "
        f"rule representatives with no search class: [{listed(no_class)}]; "
        f"search classes with no rule representative: [{listed(no_rule)}]; "
        f"rule representatives: [{listed(reps)}]; search class representatives: [{listed(found)}]"
    )


@lru_cache(maxsize=None)
def _feasible_pair_demands(weight: int, t: int) -> tuple[tuple[OlpPair, Demand], ...]:
    """Every feasible pair with its demand; no Z_n hosts any other cross pair."""
    return tuple((pair, pair.demand) for pair in feasible_pairs(weight, t))


@lru_cache(maxsize=None)
def _host_modulus(weight: int, t: int) -> int:
    """M: the lcm of t^ell - 1 over every length the feasible pairs use."""
    pairs = _feasible_pair_demands(weight, t)
    return lcm(*(t**ell - 1 for _, demand in pairs for ell, _ in demand))


_orbit_count = lru_cache(maxsize=None)(orbit_count)


@lru_cache(maxsize=None)
def _hosted_pairs(weight: int, t: int, g: int) -> tuple[OlpPair, ...]:
    """The feasible pairs, in order, whose demand Z_g can host, for g dividing M;
    the count of length-ell orbits, a function of gcd(g, t^ell - 1), is found once per gcd."""
    pairs = _feasible_pair_demands(weight, t)
    lengths = {ell for _, demand in pairs for ell, _ in demand}
    counts = {ell: _orbit_count(gcd(g, t**ell - 1), ell, t) for ell in lengths}
    return tuple(
        pair for pair, demand in pairs if all(counts[ell] >= need for ell, need in demand)
    )


@lru_cache(maxsize=None)
def _base_classes(pair: OlpPair, weight: int, t: int, d: int) -> tuple[EquivalenceClass, ...]:
    """The pair's classes at order d, searched once."""
    return exhaustive_search(SearchSpec(d, weight, t, pair)).classes


@lru_cache(maxsize=None)
def _rule_pairs(weight: int, t: int) -> tuple[tuple[OlpPair, tuple[int, ...]], ...]:
    """Each pair that survives counting-level pruning, in order, with its base orders."""
    pairs = [pair for pair, _ in _feasible_pair_demands(weight, t)]
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
            reps.extend(c.representative for c in _base_classes(pair, weight, t, lcm(*dividing)))
    return tuple(reps)


def _search_all_pairs(n: int, weight: int, t: int = 2) -> tuple[EquivalenceClass, ...]:
    """Classes of the solutions of every cross pair at order n.

    Only the pairs that Z_n can host are searched: a pair demanding more
    orbits of some length than orbit_count gives has no assignment, so
    skipping it is exact. That count at n equals the count at
    g = gcd(n, M) (see _host_modulus), so the hosted pairs are computed
    once per g, one entry per divisor of M. Rows of different pairs are
    never equivalent (see the module docstring), but the per-pair classes
    are merged by their canonical representative all the same, so the
    cross-check does not rest on that argument.
    """
    ModulusContext(n, t)  # raises unless n >= 1 and t is a unit mod n; g always is one
    hosted = _hosted_pairs(weight, t, gcd(n, _host_modulus(weight, t)))
    return _group(
        (c.representative, row)
        for pair in hosted
        for c in exhaustive_search(SearchSpec(n, weight, t, pair)).classes
        for row in c.members
    )


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
    re-derives the answer by exhaustive search over every olp pair that
    Z_n can host, merges the per-pair classes by their canonical
    representative, and requires those representatives to be exactly
    the sorted canonical forms of the rule's representatives. On any
    mismatch it raises RuntimeError naming the representatives that
    match nothing on the other side, then both sides.
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
    if cross_check:
        found = [c.representative for c in _search_all_pairs(n, weight, t)]
        forms = [canonical_form(rep, multiplier=t) for rep in reps]
        if sorted(forms) != found:
            raise _cross_check_error(n, reps, forms, found)
    return ClassificationResult(n, weight, tuple(reps), cross_check)
