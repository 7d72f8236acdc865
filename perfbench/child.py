"""One cold benchmark process: import cwmat, run the given inputs, print one JSON line.

    python3 perfbench/child.py --workload NAME --items 16,25,36 [--trace]

cwmat must be importable (run.py puts src/ on PYTHONPATH). The line
carries the monotonic time at which `import cwmat` finished, so the
parent, which knows when it started this process, can derive set-up
time. Every call goes through the public names on the cwmat package
with default arguments, the default jobs among them, looked up at call
time so the traced pass can wrap them.
"""
import time

import cwmat

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import check_classification, check_prune  # noqa: E402


def run_item(workload: str, item: int):
    """Run one input; (mismatch or None, prune counts or None)."""
    if workload == "prune-wide":
        pairs = cwmat.feasible_pairs(item)
        existence = cwmat.survivors(cwmat.prune(pairs, level="existence"))
        counting = cwmat.survivors(cwmat.prune(pairs, level="counting"))
        counts = (len(pairs), len(existence), len(counting))
        return check_prune(item, counts), counts
    result = cwmat.full_classification(16, item, cross_check=True)
    return check_classification(item, result), None


def cpu_seconds() -> float:
    """CPU time of this process and of any children it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run(workload: str, items: list[int], tracer: Tracer | None) -> dict:
    """Run every item, timing the whole loop; failures are collected, not raised."""
    failures = []
    prune_counts = [0, 0, 0]
    item_span = tracer.name_index("item") if tracer else None
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    for item in items:
        span = tracer.begin(item_span) if tracer else None
        try:
            error, counts = run_item(workload, item)
        except Exception as exc:  # any exception, a failed cross-check included, fails the item
            error, counts = f"{item}: {type(exc).__name__}: {exc}", None
        finally:
            if tracer:
                tracer.finish(span)
        if error:
            failures.append(error)
        if counts:
            prune_counts = [a + b for a, b in zip(prune_counts, counts)]
    wall = time.perf_counter() - t0
    return {
        "imported": IMPORTED,
        "wall_s": wall,
        "cpu_s": cpu_seconds() - cpu0,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "failures": failures,
        "prune_counts": prune_counts,
        "trace": trace_summary(tracer, wall) if tracer else None,
    }


def trace_summary(tracer: Tracer, wall: float) -> dict:
    layers = {name: stats for name, stats in tracer.layer_stats().items() if name != "item"}
    return {
        "layers": layers,
        "counts": dict(tracer.counts),
        "spans": len(tracer.start),
        "residual_s": wall - sum(self_s for _, self_s in layers.values()),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--items", required=True, help="comma-separated weights or orders")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    items = [int(x) for x in args.items.split(",") if x]
    print(json.dumps(run(args.workload, items, tracer)))


if __name__ == "__main__":
    main()
