#!/usr/bin/env python3
"""Run the exhaustive search at every base order of every pair that
survives counting-level pruning, and report the classes found."""
import argparse
import sys
import time

from cwmat import (
    SearchSpec,
    base_orders,
    class_contractible,
    divisors,
    exhaustive_search,
    feasible_pairs,
    prune,
    survivors,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--weight", type=int, default=16)
    args = ap.parse_args()
    try:  # every spec before any search, so a bad weight prints nothing else
        specs = [
            SearchSpec(n, args.weight, 2, pair)
            for pair in survivors(prune(feasible_pairs(args.weight)))
            for n in base_orders(pair)
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for spec in specs:
        pair, n = spec.pair, spec.n
        start = time.perf_counter()
        report = exhaustive_search(spec)
        elapsed = time.perf_counter() - start
        print(
            f"n={n:4d} ({pair.p}, {pair.n}): "
            f"{report.candidates_tested} candidates, "
            f"{len(report.solutions)} solutions, "
            f"{len(report.classes)} classes  [{elapsed:.2f}s]"
        )
        primes = [d for d in divisors(n) if divisors(d) == [1, d]]
        for c in report.classes:
            tags = [
                f"contracts by {d}" for d in primes if class_contractible(c.representative, d)
            ]
            note = f"  ({', '.join(tags)})" if tags else ""
            print(f"      size {c.size}  {c.representative.to_string()}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
