#!/usr/bin/env python3
"""Run the exhaustive search at every base order of every pair that
survives counting-level pruning, and report the classes found."""
import argparse
import time

from cwmat import (
    SearchSpec,
    base_orders,
    class_contractible,
    exhaustive_search,
    feasible_pairs,
    prune,
    survivors,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--weight", type=int, default=16)
    args = ap.parse_args()

    for pair in survivors(prune(feasible_pairs(args.weight))):
        for n in base_orders(pair):
            spec = SearchSpec(n, args.weight, 2, pair)
            start = time.perf_counter()
            report = exhaustive_search(spec)
            elapsed = time.perf_counter() - start
            print(
                f"n={n:4d} ({pair.p}, {pair.n}): "
                f"{report.candidates_tested} candidates, "
                f"{len(report.solutions)} solutions, "
                f"{len(report.classes)} classes  [{elapsed:.2f}s]"
            )
            for c in report.classes:
                tags = [
                    f"contracts by {d}"
                    for d in (3, 5, 7)
                    if n % d == 0 and class_contractible(c.representative, d)
                ]
                note = f"  ({', '.join(tags)})" if tags else ""
                print(f"      size {c.size}  {c.representative.to_string()}{note}")


if __name__ == "__main__":
    main()
