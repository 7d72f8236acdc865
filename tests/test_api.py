"""The public names of cwmat: what the pipeline, the CLI and the scripts call."""
from __future__ import annotations

import cwmat

# Names that only their own tests called; tests that need one as a
# reference define it locally.
REMOVED = (
    "normalize_sign",
    "periodic_autocorrelation",
    "canonical_form_up_to_negation",
    "contract",
    "enumerate_partitions",
    "cap_feasible",
    "pol_delta",
    "pol_delta_bar",
    "LengthCountBounds",
    "length_count_bounds",
    "required_divisors",
)


def test_every_exported_name_resolves():
    assert len(cwmat.__all__) == len(set(cwmat.__all__)) == 48
    for name in cwmat.__all__:
        assert getattr(cwmat, name) is not None, name


def test_removed_names_are_gone():
    assert not set(REMOVED) & set(cwmat.__all__)
    for name in REMOVED:
        assert not hasattr(cwmat, name), name
