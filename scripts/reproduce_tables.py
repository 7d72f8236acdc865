#!/usr/bin/env python3
"""Print the cap-feasible olp pair table for a square weight, with the
prune verdict and firing witnesses for each pair."""
import argparse
import sys

from cwmat import feasible_pairs, prune


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--weight", type=int, default=16)
    ap.add_argument("--multiplier", type=int, default=2)
    ap.add_argument("--level", choices=("existence", "counting"), default="counting")
    ap.add_argument("--witnesses", action="store_true",
                    help="print every firing witness, not just the first")
    args = ap.parse_args()

    try:
        pairs = feasible_pairs(args.weight, args.multiplier)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports = prune(pairs, level=args.level, t=args.multiplier)
    for i, r in enumerate(reports, 1):
        mark = "." if r.verdict == "accepted" else "x"
        print(f"{i:3d} {mark} ({r.pair.p}, {r.pair.n})"
              + (f"  {r.reason}" if r.witnesses and not args.witnesses else ""))
        if args.witnesses:
            for w in r.witnesses:
                print(f"       {w}")
    kept = sum(1 for r in reports if r.verdict == "accepted")
    print(f"{len(reports)} pairs -> {kept} survive at level {args.level}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
