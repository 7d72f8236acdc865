"""In-memory span tracer for the benchmark's traced pass.

Spans are recorded at layer boundaries by wrapping library functions at
the names their callers look up, so the library itself is not edited.
A span is (name, parent, start, end); spans stay in flat arrays until
the run ends, and a layer's self time is the summed duration of its
spans minus the durations of their direct child spans.
"""
from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter


def _count_search(counts: Counter, report) -> None:
    counts["search.candidates"] += report.candidates_tested
    counts["search.solutions"] += len(report.solutions)


# Layer name -> modules whose binding of the function is wrapped. The
# function name is the last part of the layer name. Calls made inside a
# module through a binding that is not listed count as the caller's self
# time: orbit_count_cap keeps its own enumeration (its call to
# orbits_of_length inside cwmat.orbits is not wrapped), while the
# searches' calls to orbits_of_length are their own layer.
LAYERS: dict[str, tuple[str, ...]] = {
    "orbits.orbit_count_cap": ("cwmat.pruning",),
    "orbits.orbits_of_length": ("cwmat.search",),
    "pruning.feasible_pairs": ("cwmat",),
    "pruning.cross_pairs": ("cwmat.pruning", "cwmat.search"),
    "pruning.prune": ("cwmat",),
    "search.full_classification": ("cwmat",),
    "search.exhaustive_search": ("cwmat.search",),
    "search.classify": ("cwmat.search",),
    "rows.verify_cw": ("cwmat.search",),
    "rows.from_sets": ("cwmat.search",),
    "rows.canonical_form": ("cwmat.search",),
    "rows.apply_transform": ("cwmat.rows", "cwmat.search"),
    "rows.are_equivalent": ("cwmat.search",),
}

# Counters read off return values at the same boundaries.
OBSERVERS = {"search.exhaustive_search": _count_search}


def self_times(names, name_id, parent, start, end) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per span name.

    parent[i] is the index of span i's enclosing span, or -1 for a root.
    """
    child_time = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += end[i] - start[i]
    calls = [0] * len(names)
    own = [0.0] * len(names)
    for i, nid in enumerate(name_id):
        calls[nid] += 1
        own[nid] += end[i] - start[i] - child_time[i]
    return {name: (calls[k], own[k]) for k, name in enumerate(names)}


class Tracer:
    """Records nested spans and boundary counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, observe=None):
        nid = self.name_index(name)
        begin, finish, counts = self.begin, self.finish, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(idx)
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding listed in LAYERS by a traced wrapper of the original."""
        for layer, modules in LAYERS.items():
            attr = layer.rsplit(".", 1)[1]
            for module_name in modules:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                setattr(module, attr, self.wrap(layer, original, OBSERVERS.get(layer)))
                self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def layer_stats(self) -> dict[str, tuple[int, float]]:
        return self_times(self.names, self.name_id, self.parent, self.start, self.end)
