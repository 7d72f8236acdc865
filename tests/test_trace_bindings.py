"""The benchmark's traced pass wraps library functions at the module
bindings listed in perfbench/tracer.py; each must still resolve."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _layers() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize(
    "module_name,attr",
    [
        (module_name, layer.rsplit(".", 1)[1])
        for layer, modules in _layers().items()
        for module_name in modules
    ],
)
def test_traced_binding_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
