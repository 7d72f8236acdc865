"""Circulant weighing matrices: verification, pruning, search, classification."""

from .multisets import ResidueMultiset, adjoin, cw_equation_holds, delta, delta_bar
from .orbits import (
    ModulusContext,
    Orbit,
    all_orbits,
    divisors,
    length_table,
    orbit_count,
    orbit_count_cap,
    orbit_length,
    orbit_of,
    orbits_of_length,
    required_divisors,
    units,
)
from .pruning import (
    CountingWitness,
    ExistenceWitness,
    LengthCountBounds,
    Olp,
    OlpPair,
    PruneReport,
    cap_feasible,
    cross_pairs,
    describing_set_sizes,
    diff_length_candidates,
    enumerate_partitions,
    feasible_pairs,
    feasible_partitions,
    length_count_bounds,
    olp_of_set,
    pol_delta,
    pol_delta_bar,
    prune,
    survivors,
)
from .rows import (
    CirculantRow,
    DescribingSets,
    EquivalenceWitness,
    apply_transform,
    are_equivalent,
    canonical_form,
    canonical_form_up_to_negation,
    describing_sets,
    from_sets,
    multiplier_shift,
    normalize_sign,
    periodic_autocorrelation,
    sort_key,
    verify_cw,
    verify_sets,
)
from .search import (
    ClassificationResult,
    EquivalenceClass,
    SearchReport,
    SearchSpec,
    base_orders,
    class_contractible,
    classify,
    contract,
    exhaustive_search,
    full_classification,
    lift,
)

__version__ = "0.1.0"

# The dense constructions need numpy, which nothing else here uses; they
# are imported on first access, so `import cwmat` does not load numpy.
_CONSTRUCTIONS = frozenset(
    {"DenseWeighingMatrix", "InterleavePermutation", "circulant", "conjugate_to_circulant", "kronecker"}
)


def __getattr__(name: str):
    if name in _CONSTRUCTIONS:
        from . import constructions

        return getattr(constructions, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CirculantRow",
    "ClassificationResult",
    "CountingWitness",
    "DenseWeighingMatrix",
    "DescribingSets",
    "EquivalenceClass",
    "EquivalenceWitness",
    "ExistenceWitness",
    "InterleavePermutation",
    "LengthCountBounds",
    "ModulusContext",
    "Olp",
    "OlpPair",
    "Orbit",
    "PruneReport",
    "ResidueMultiset",
    "SearchReport",
    "SearchSpec",
    "adjoin",
    "all_orbits",
    "apply_transform",
    "are_equivalent",
    "base_orders",
    "canonical_form",
    "canonical_form_up_to_negation",
    "cap_feasible",
    "circulant",
    "class_contractible",
    "classify",
    "conjugate_to_circulant",
    "contract",
    "cross_pairs",
    "cw_equation_holds",
    "delta",
    "delta_bar",
    "describing_set_sizes",
    "describing_sets",
    "diff_length_candidates",
    "divisors",
    "enumerate_partitions",
    "exhaustive_search",
    "feasible_pairs",
    "feasible_partitions",
    "from_sets",
    "full_classification",
    "kronecker",
    "length_count_bounds",
    "length_table",
    "lift",
    "multiplier_shift",
    "normalize_sign",
    "olp_of_set",
    "orbit_count",
    "orbit_count_cap",
    "orbit_length",
    "orbit_of",
    "orbits_of_length",
    "periodic_autocorrelation",
    "pol_delta",
    "pol_delta_bar",
    "prune",
    "required_divisors",
    "sort_key",
    "survivors",
    "units",
    "verify_cw",
    "verify_sets",
]
