"""The public names of cwmat: what the pipeline and the CLI call; and the
test references that must not use them."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import cwmat
from child_process import run_python

TESTS = Path(__file__).resolve().parent

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
    # the dense constructions; tests/kronecker_oracle.py checks their facts
    "DenseWeighingMatrix",
    "InterleavePermutation",
    "circulant",
    "conjugate_to_circulant",
    "kronecker",
    # a test-only enumeration; tests read pruning._capped_partitions
    "feasible_partitions",
    # orbits are plain tuples of residues
    "Orbit",
    # a test-only reference in tests/row_reference.py
    "class_contractible",
    # called only by tests, which import them from their modules; the
    # benchmark's tracer wraps module bindings, never the package's
    "classify",
    "cross_pairs",
    "apply_transform",
)


def test_every_exported_name_resolves():
    assert len(cwmat.__all__) == len(set(cwmat.__all__)) == 38
    for name in cwmat.__all__:
        assert getattr(cwmat, name) is not None, name


def test_removed_names_are_gone():
    assert not set(REMOVED) & set(cwmat.__all__)
    for name in REMOVED:
        assert not hasattr(cwmat, name), name


def test_import_cwmat_loads_no_heavy_module():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import cwmat\n"
        # the records are tuples: no dataclasses machinery and what it
        # imports; numpy is a test input and reference only
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'numpy'}\n"
        "loaded = heavy & (set(sys.modules) - before)\n"
        "assert not loaded, f'import cwmat loaded {sorted(loaded)}'\n"
        "namespace = {}\n"
        "exec('from cwmat import *', namespace)\n"
        "assert namespace['lift'] is cwmat.search.lift\n"
        "assert not hasattr(cwmat, 'constructions')\n"
        "assert not hasattr(cwmat, 'no_such_name')\n"
    )
    proc = run_python("-c", code, timeout=60)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "name",
    ["golden.py", "orbit_lister.py", "row_reference.py", "kronecker_oracle.py", "search_oracle.py"],
)
def test_reference_modules_import_nothing_from_cwmat(name):
    """The references the library is checked against stay independent of it."""
    tree = ast.parse((TESTS / name).read_text(), name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        assert not any(m.split(".")[0] == "cwmat" for m in modules), (name, node.lineno)
