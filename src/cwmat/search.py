"""Exhaustive orbit-assignment search and equivalence classification.

A normalized weighing row fixed by multiplier t has describing sets that
are unions of t-orbits, so for a given (olp(P), olp(N)) pair the search
space is the set of assignments of distinct orbits to parts. Orbits of
equal length within one side are interchangeable (combinations, not
permutations); the two sides are ordered. Every assignment is checked
on its describing sets by verify_sets (the autocorrelation test, with no
row built); only the hits are built into rows, and each hit is also
checked against the difference-multiset equation, an independent
formulation, so a disagreement between the two fails loudly.

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
can host enough orbits of that length; the lcms of one choice per
length are the orders worth searching. full_classification derives its
rule from them. A solution at n realizing a pair that survives pruning
is a lift of one at d, the lcm of the pair's base orders dividing n.
Lifts of inequivalent rows stay inequivalent: an equivalence restricts
to their subgroup. At odd n, equivalent rows fixed by t = 2 differ by a
unit alone (a shift would be a period of the support, and no odd-order
subgroup tiles 16 points), which keeps the olp, so classes of different
pairs never merge. The classes at n are thus, pair by pair, the lifts
of the classes at d; as base orders divide M, the rule too is found
once per g. For small orders the answer is re-derived by searching
every pair that Z_n can host from scratch. Every solution is a union of
t-orbits, so its canonical form needs one unit per coset of <t> in
U(n). The cross-check merges the per-pair classes by their canonical
representatives and matches each rule representative to a class by
equal canonical forms.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb, gcd, lcm

from .multisets import cw_equation_holds
from .orbits import ModulusContext, divisors, orbit_count, orbits_of_length, units
from .pruning import (
    Demand, OlpPair, cross_pairs, describing_set_sizes, feasible_pairs, prune, survivors,
)
# cross_pairs, apply_transform, verify_cw and are_equivalent are not called
# here but stay bound: the benchmark's tracer (perfbench/tracer.py) wraps
# them in this module, and tests/test_trace_bindings.py requires them.
from .rows import (
    CirculantRow,
    apply_transform,
    are_equivalent,
    canonical_form,
    canonical_form_up_to_negation,
    from_sets,
    normalize_sign,
    sort_key,
    verify_cw,
    verify_sets,
)


# Most orbit assignments one search may enumerate: about a minute (60 us
# per candidate at n = 315, 2-core x86, CPython 3.11).
# Weight-16, t = 2 pairs need at most 891; t = +-1 (mod n) needs up to
# about 2.9e18 (1^10, 1^6 at n = 63).
MAX_ASSIGNMENTS = 10**6


@dataclass(frozen=True)
class SearchSpec:
    """Order, weight, multiplier, and orbit length partition pair, with
    at most MAX_ASSIGNMENTS orbit assignments."""

    n: int
    weight: int
    t: int
    pair: OlpPair

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"order must be positive, got {self.n}")
        if self.t < 2:
            raise ValueError(f"multiplier base must be at least 2, got {self.t}")
        if gcd(self.t, self.n) != 1:
            raise ValueError(f"t={self.t} is not a unit mod {self.n}")
        p_size, n_size = describing_set_sizes(self.weight)
        if (self.pair.p.total, self.pair.n.total) != (p_size, n_size):
            raise ValueError(
                f"olp sums must be ({p_size}, {n_size}) for weight "
                f"{self.weight}, got ({self.pair.p.total}, {self.pair.n.total})"
            )
        count = self.assignment_count
        if count > MAX_ASSIGNMENTS:
            raise ValueError(
                f"{count} orbit assignments exceed the search bound of {MAX_ASSIGNMENTS}"
            )

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


@dataclass(frozen=True)
class EquivalenceClass:
    """representative is the canonical form; members are found rows."""

    representative: CirculantRow
    members: tuple[CirculantRow, ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SearchReport:
    spec: SearchSpec
    candidates_tested: int
    solutions: tuple[CirculantRow, ...]
    classes: tuple[EquivalenceClass, ...]


def _assignments(spec: SearchSpec) -> Iterator[tuple[frozenset, frozenset]]:
    """Every (P, N) choice of distinct orbits matching the olp pair, lazily.

    Orbits are listed only when the closed-form counts show that Z_n
    hosts the pair. The choices are nested one length at a time, the
    first length outermost, so memory stays bounded by the orbit lists
    whatever the number of assignments.
    """
    if spec.assignment_count == 0:
        return
    ctx = ModulusContext(spec.n, spec.t)
    p_mults = spec.pair.p.multiplicities
    n_mults = spec.pair.n.multiplicities
    lengths = [ell for ell, _ in spec.pair.demand]
    available = {ell: orbits_of_length(ctx, ell) for ell in lengths}

    def extend(k: int, P: tuple, N: tuple) -> Iterator[tuple[frozenset, frozenset]]:
        if k == len(lengths):
            yield frozenset(P), frozenset(N)
            return
        ell = lengths[k]
        for p_sel in itertools.combinations(available[ell], p_mults.get(ell, 0)):
            rest = [o for o in available[ell] if o not in p_sel]
            more_p = P + tuple(x for orb in p_sel for x in orb.elements)
            for n_sel in itertools.combinations(rest, n_mults.get(ell, 0)):
                yield from extend(k + 1, more_p, N + tuple(x for orb in n_sel for x in orb.elements))

    yield from extend(0, (), ())


def exhaustive_search(spec: SearchSpec) -> SearchReport:
    """Test every orbit assignment; report solutions and their classes.

    solutions are the distinct sign-normalized hits, ordered by their
    canonical form (so class by class, in the order of classes), ties
    in enumeration order. Raises RuntimeError if a hit fails the
    difference-multiset equation.
    """
    n = spec.n
    tested = 0
    seen: dict[tuple, CirculantRow] = {}
    for P, N in _assignments(spec):
        tested += 1
        if verify_sets(n, P, N) != spec.weight:
            continue
        row = from_sets(n, P, N)
        if not cw_equation_holds(P, N, n):
            raise RuntimeError(
                f"autocorrelation and the difference-multiset equation disagree "
                f"at n={n} on {row.to_string()}"
            )
        row = normalize_sign(row)
        seen.setdefault(row.coeffs, row)
    classes = _group((canonical_form(row, multiplier=spec.t), row) for row in seen.values())
    class_of = {m.coeffs: k for k, c in enumerate(classes) for m in c.members}
    solutions = sorted(seen.values(), key=lambda r: class_of[r.coeffs])
    return SearchReport(spec, tested, tuple(solutions), classes)


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

    Equal representatives mean one class; members are sorted by
    sort_key and classes by their representative.
    """
    groups: dict[str, list[CirculantRow]] = {}
    reps: dict[str, CirculantRow] = {}
    for rep, row in pairs:
        key = sort_key(rep)
        groups.setdefault(key, []).append(row)
        reps.setdefault(key, rep)
    return tuple(
        EquivalenceClass(reps[key], tuple(sorted(groups[key], key=sort_key)))
        for key in sorted(groups)
    )


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
        choices = [d for d in divisors(t**ell - 1) if orbit_count(d, ell, t) >= need]
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


@dataclass(frozen=True)
class ClassificationResult:
    n: int
    weight: int
    classes: tuple[CirculantRow, ...]
    cross_checked: bool

    @property
    def count(self) -> int:
        return len(self.classes)


def _cross_check_error(what: str, reps, classes) -> RuntimeError:
    """A cross-check failure naming both sides as sign strings."""
    rule = ", ".join(r.to_string() for r in reps) or "none"
    search = ", ".join(c.representative.to_string() for c in classes) or "none"
    return RuntimeError(
        f"{what}; rule representatives: [{rule}]; search class representatives: [{search}]"
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


@lru_cache(maxsize=None)
def _hosted_pairs(weight: int, t: int, g: int) -> tuple[OlpPair, ...]:
    """The feasible pairs, in order, whose demand Z_g can host, for g dividing M."""
    pairs = _feasible_pair_demands(weight, t)
    lengths = {ell for _, demand in pairs for ell, _ in demand}
    counts = {ell: orbit_count(g, ell, t) for ell in lengths}
    return tuple(
        pair for pair, demand in pairs if all(counts[ell] >= need for ell, need in demand)
    )


@lru_cache(maxsize=None)
def _survives(pair: OlpPair, t: int) -> bool:
    """Whether the pair survives counting-level pruning, pruned once."""
    return bool(survivors(prune([pair], t=t)))


@lru_cache(maxsize=None)
def _base_classes(pair: OlpPair, weight: int, t: int, d: int) -> tuple[EquivalenceClass, ...]:
    """The pair's classes at order d, searched once."""
    return exhaustive_search(SearchSpec(d, weight, t, pair)).classes


@lru_cache(maxsize=None)
def _rule_bases(weight: int, t: int, g: int) -> tuple[CirculantRow, ...]:
    """Base representatives of the classes at every odd n with gcd(n, M) = g.

    For each pair that Z_g hosts and that survives pruning, in order, the
    class representatives at d, the lcm of the pair's base orders that
    divide g (those that divide n, as base orders divide M). The classes
    at n are their lifts (see the module docstring).
    """
    reps = []
    for pair in _hosted_pairs(weight, t, g):
        if _survives(pair, t):
            d = lcm(*(b for b in base_orders(pair, t) if g % b == 0))
            reps.extend(c.representative for c in _base_classes(pair, weight, t, d))
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

    For each olp pair that survives pruning, in order, the classes are
    the lifts of the classes found at the lcm of the pair's base orders
    that divide n; this reproduces the paper's count of classes.
    cross_check (default: on for n <= 105) re-derives the answer by
    exhaustive search over every candidate olp pair, merges the per-pair
    classes by their canonical representative, finds each rule
    representative's class by equal canonical forms, and fails loudly on
    any mismatch.
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
        classes = _search_all_pairs(n, weight, t)
        if len(classes) != len(reps):
            raise _cross_check_error(
                f"rule predicts {len(reps)} classes at n={n}, search found {len(classes)}",
                reps,
                classes,
            )
        # Each class representative is already canonical, so class
        # identity is equality of canonical forms.
        remaining = list(classes)
        for rep in reps:
            canon = canonical_form(rep, multiplier=t)
            matches = [c for c in remaining if c.representative == canon]
            if len(matches) != 1:
                raise _cross_check_error(
                    f"rule representative {rep.to_string()} at n={n} matches "
                    f"{len(matches)} search classes",
                    reps,
                    classes,
                )
            remaining.remove(matches[0])
    return ClassificationResult(n, weight, tuple(reps), cross_check)
