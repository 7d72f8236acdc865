"""The cwmat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cwmat checkout. Every sample is a fresh Python
process (perfbench/child.py) that imports cwmat from src/ and solves
the workload's inputs once, so each starts with the library's caches
empty, as every `cwmat` CLI call does. Samples run one at a time, one
thread each, until S seconds have passed (at least MIN_SAMPLES).

--trace 0 reports the end-to-end metrics as medians over the samples.
--trace 1 alternates untraced and traced samples, reports per-layer
self times and counts from the traced ones, then makes one attempt at
the W = 49 prune in a child with its own memory and time limits.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import REFERENCE, WORKLOADS, draw_items

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60
W49_MEMORY_MIB = 512
W49_TIMEOUT_S = 30

# End-to-end metric -> (unit, value of one sample). wall_s and cpu_s
# cover solving the inputs after import; setup_s runs from the start of
# the process to `import cwmat` done.
END_TO_END = {
    "wall_s": ("s", lambda s: s.payload["wall_s"]),
    "cpu_s": ("s", lambda s: s.payload["cpu_s"]),
    "setup_s": ("s", lambda s: s.setup_s),
    "peak_rss_mb": ("MiB", lambda s: s.payload["rss_kib"] / 1024),
}


@dataclass
class Sample:
    """One child process: its parsed JSON line, or why it produced none."""

    items: list[int]
    payload: dict | None
    error: str | None
    setup_s: float | None

    @property
    def failures(self) -> list[str]:
        if self.payload is None:
            return [f"child process failed: {self.error}"] * len(self.items)
        return self.payload["failures"]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # One thread per sample: numpy is imported by cwmat but not used on these paths.
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(root: Path, workload: str, items: list[int], trace: bool, timeout: float,
              memory_mib: int | None = None) -> Sample:
    """Run one sample, pinned to one CPU and optionally capped in address space."""
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--items", ",".join(map(str, items))]
    if trace:
        cmd.append("--trace")
    cpu = max(os.sched_getaffinity(0))

    def limit_child():
        # Pinning cut the spread between samples on a shared 2-core machine.
        os.sched_setaffinity(0, {cpu})
        if memory_mib is not None:
            resource.setrlimit(resource.RLIMIT_AS, (memory_mib << 20, memory_mib << 20))

    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
                              timeout=timeout, preexec_fn=limit_child)
    except subprocess.TimeoutExpired:
        return Sample(items, None, f"timed out after {timeout} s", None)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return Sample(items, None, tail[0], None)
    payload = json.loads(lines[-1])
    return Sample(items, payload, None, payload["imported"] - started)


def sample_until(root, workload, items, seconds, kinds) -> dict[bool, list[Sample]]:
    """Run samples, cycling through kinds (trace off/on), until time is up."""
    out: dict[bool, list[Sample]] = {kind: [] for kind in kinds}
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or min(len(v) for v in out.values()) < MIN_SAMPLES:
        for kind in kinds:
            out[kind].append(run_child(root, workload, items, kind, CHILD_TIMEOUT_S))
    return out


def values_of(samples: list[Sample], key) -> list[float]:
    return [key(s) for s in samples if s.payload is not None]


def end_to_end(samples: list[Sample]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics (name -> (value, unit)), medians over the samples."""
    return {name: (statistics.median(values_of(samples, key)), unit) for name, (unit, key) in END_TO_END.items()}


def w49_attempt(root: Path) -> tuple[int, float]:
    """(1 if feasible_pairs(49) plus prune finished, seconds until the attempt ended)."""
    started = time.monotonic()
    sample = run_child(root, "prune-wide", [49], False, W49_TIMEOUT_S, memory_mib=W49_MEMORY_MIB)
    completed = sample.payload is not None and not sample.payload["failures"]
    return int(completed), time.monotonic() - started


def per_layer(untraced: list[Sample], traced: list[Sample], w49: tuple[int, float]) -> dict:
    """Per-layer metrics (name -> (value, unit)), medians over the traced samples."""
    ok = [s.payload for s in traced if s.payload is not None]
    layer_names = ok[0]["trace"]["layers"].keys()

    def med(fn):
        return statistics.median(fn(p) for p in ok)

    def count(fn):
        # Counts repeat exactly; median_low keeps them whole numbers.
        return statistics.median_low(fn(p) for p in ok)

    metrics = {}
    for layer in layer_names:
        metrics[f"{layer}.calls"] = (count(lambda p: p["trace"]["layers"][layer][0]), "count")
        metrics[f"{layer}.self_s"] = (med(lambda p: p["trace"]["layers"][layer][1]), "s")
    pairs_in, existence_out, counting_out = (count(lambda p: p["prune_counts"][i]) for i in range(3))
    candidates = count(lambda p: p["trace"]["counts"].get("search.candidates", 0))
    solutions = count(lambda p: p["trace"]["counts"].get("search.solutions", 0))
    traced_wall = med(lambda p: p["wall_s"])
    untraced_wall = statistics.median(values_of(untraced, END_TO_END["wall_s"][1]))
    metrics.update({
        "pruning.pairs_in": (pairs_in, "count"),
        "pruning.existence_out": (existence_out, "count"),
        "pruning.counting_out": (counting_out, "count"),
        "pruning.survival_ratio": (counting_out / pairs_in if pairs_in else 0.0, "ratio"),
        "pruning.w49_completed": (w49[0], "flag"),
        "pruning.w49_s": (w49[1], "s"),
        "search.candidates": (candidates, "count"),
        "search.solutions": (solutions, "count"),
        "search.hit_ratio": (solutions / candidates if candidates else 0.0, "ratio"),
        "rows.verify_cw.share": (med(lambda p: p["trace"]["layers"]["rows.verify_cw"][1] / p["wall_s"]), "ratio"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.spans": (count(lambda p: p["trace"]["spans"]), "count"),
        "trace.residual_frac": (med(lambda p: p["trace"]["residual_s"] / p["wall_s"]), "ratio"),
        "trace.overhead_frac": (traced_wall / untraced_wall - 1, "ratio"),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="cwmat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE["default_seed"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "cwmat" / "__init__.py").is_file():
        print("perfbench: src/cwmat not found; run from the root of a cwmat checkout", file=sys.stderr)
        return 2

    items = draw_items(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, {len(items)} inputs: {items}")
    # Compile the bytecode once, so no sample pays for it.
    warm = run_child(root, args.workload, [], False, CHILD_TIMEOUT_S)
    if warm.payload is None:
        print(f"perfbench: cannot import cwmat: {warm.error}", file=sys.stderr)
        return 1

    kinds = (False, True) if args.trace else (False,)
    runs = sample_until(root, args.workload, items, args.seconds, kinds)
    every = [s for group in runs.values() for s in group]
    failures = [f for s in every for f in s.failures]
    attempted = sum(len(s.items) for s in every)
    for failure in dict.fromkeys(failures):
        print(f"FAILED {failure}")
    if any(all(s.payload is None for s in group) for group in runs.values()):
        print("perfbench: no sample finished, so there is nothing to measure", file=sys.stderr)
        return 1

    counts = ", ".join(f"{len(v)} {'traced' if k else 'untraced'}" for k, v in runs.items())
    print(f"samples: {counts}")
    print(f"failed_frac: {len(failures) / attempted} ({len(failures)} of {attempted} inputs)")
    for name, (unit, key) in END_TO_END.items():
        values = sorted(values_of(runs[False], key))
        print(f"{name}: median {statistics.median(values):.6g} {unit}, "
              f"min {values[0]:.6g}, max {values[-1]:.6g} over {len(values)} untraced samples")
    if args.trace:
        metrics = per_layer(runs[False], runs[True], w49_attempt(root))
        for name, (value, unit) in metrics.items():
            print(f"{name}: {value:.6g} {unit}")
    else:
        metrics = end_to_end(runs[False])
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
