#!/usr/bin/env python3
"""Tabulate equivalence class counts of CW(n, 16) over a range of odd
orders, cross-checking against exhaustive search where that is cheap."""
import argparse
import time

from cwmat import full_classification


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=105)
    ap.add_argument("--weight", type=int, default=16)
    ap.add_argument("--zeros", action="store_true",
                    help="also print orders with no classes")
    args = ap.parse_args()

    start = time.perf_counter()
    total = 0
    for n in range(1, args.max_n + 1, 2):
        res = full_classification(args.weight, n)
        total += res.count
        if res.count or args.zeros:
            tag = "  (cross-checked)" if res.cross_checked else ""
            print(f"n={n}: {res.count}{tag}")
            for row in res.classes:
                print(f"  {row.to_string()}")
    print(f"total classes up to {args.max_n}: {total}  "
          f"[{time.perf_counter() - start:.2f}s]")


if __name__ == "__main__":
    main()
