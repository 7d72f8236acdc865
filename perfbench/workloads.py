"""Workload inputs drawn from a seed, and the reference checks on their outputs."""
from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = ("prune-wide", "crosscheck-classes", "crosscheck-empty")

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

PRUNE_WEIGHTS = (16, 25, 36)

# The odd orders in [63, 341] that have classes (odd multiples of 21 or
# 31), grouped so that the orders of one group cost about the same to
# cross-check at the seed commit; a draw takes one order per group, so
# every seed asks for about the same work.
CLASS_STRATA = ((341,), (279,), (217, 315), (155, 189), (93, 273), (63, 231), (105, 147))


def empty_pool() -> list[int]:
    """Odd 3 <= n <= 2001 with 21 and 31 not dividing n: zero classes each."""
    return [n for n in range(3, 2002, 2) if n % 21 and n % 31]


def draw_items(workload: str, seed: int) -> list[int]:
    """The workload's inputs for this seed: weights or orders, in run order.

    prune-wide always prunes the same three weights; the seed only
    orders them. crosscheck-empty takes one order from each consecutive
    pair of its pool, whose orders all cost about the same.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "prune-wide":
        items = list(PRUNE_WEIGHTS)
    elif workload == "crosscheck-classes":
        items = [rng.choice(group) for group in CLASS_STRATA]
    elif workload == "crosscheck-empty":
        pool = empty_pool()
        return [rng.choice(pool[i : i + 2]) for i in range(0, len(pool), 2)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def expected_classes(n: int) -> int:
    """2*[31|n] + [63|n] + [21|n], the paper's count for odd n."""
    return 2 * (n % 31 == 0) + (n % 63 == 0) + (n % 21 == 0)


def check_classification(n: int, result) -> str | None:
    """None if the result matches the rule and was cross-checked, else why not."""
    if result.count != expected_classes(n):
        return f"n={n}: {result.count} classes, expected {expected_classes(n)}"
    if not result.cross_checked:
        return f"n={n}: result was not cross-checked"
    return None


def check_prune(weight: int, counts: tuple[int, int, int]) -> str | None:
    """None if (pairs, existence survivors, counting survivors) match the reference.

    Weights without a reference (the W = 49 attempt) only have to finish.
    """
    expected = REFERENCE["prune"].get(str(weight))
    if expected is None or tuple(expected["counts"]) == counts:
        return None
    return f"W={weight}: counts {counts}, expected {tuple(expected['counts'])}"

