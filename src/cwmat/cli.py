"""Command-line interface.

Five subcommands mirror the library pipeline: verify a single row,
prune orbit-length-partition pairs for a weight, search one pair at one
order, print the rule of a weight (the search at every base order of
every pair that survives pruning, and the class-count terms they give),
and classify all odd orders up to a bound. Text output is for
reading; --format json (or --out FILE) emits a stable payload whose row
objects always carry the same fields in the same order: n, weight, row,
P, N, olpP, olpN.

Exit codes: 0 success, 1 the verified row is not a weighing row,
2 usage or parse error, an --out FILE that cannot be written (found
before any work; FILE is replaced only by a complete payload), or a
standard output closed by its reader (--out FILE, written first, is
then complete). A command refuses its input, or a cost bound, by
raising ValueError, as the library does; _run turns it into one
"error:" line on stderr and exit 2.
"""
from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import tempfile
from functools import lru_cache

from .multisets import cw_equation_holds
from .orbits import ModulusContext, units
from .pruning import (
    ExistenceWitness,
    Olp,
    OlpPair,
    feasible_pairs,
    olp_of_set,
    olp_tokens,
    prune,
)
from .rows import CirculantRow, describing_sets, multiplier_shift, verify_cw
from .search import (
    CLASSIFIED_MULTIPLIER,
    MAX_CLASSIFY_CHARS,
    SearchReport,
    SearchSpec,
    _rule_pairs,
    check_classified_weight,
    check_olp_sums,
    classification_rule,
    exhaustive_search,
    full_classification,
)


def _olp_json(olp: Olp) -> list[list[int]]:
    return [[length, mult] for length, mult in sorted(olp.multiplicities.items())]


def _set_olp(indices, ctx: ModulusContext) -> Olp | None:
    """olp of an index set, or None when it is not a union of t-orbits."""
    try:
        return olp_of_set(indices, ctx)
    except ValueError:
        return None


def _row_payload(
    row: CirculantRow, ctx: ModulusContext | None
) -> tuple[dict, Olp | None, Olp | None]:
    """The row's payload, with olp(P) and olp(N) for the text output;
    without a ctx both are None."""
    sets = describing_sets(row)
    olp_p, olp_n = (None if ctx is None else _set_olp(s, ctx) for s in sets)
    payload = {
        "n": row.n,
        "weight": verify_cw(row),
        "row": row.to_string(),
        "P": sorted(sets.P),
        "N": sorted(sets.N),
        "olpP": None if olp_p is None else _olp_json(olp_p),
        "olpN": None if olp_n is None else _olp_json(olp_n),
    }
    return payload, olp_p, olp_n


def _emit(args, payload: dict | None, lines: list[str] | None, code: int = 0) -> int:
    """Write --out through its staged file, then print; the exit code, or
    2 if --out cannot be written (an old --out then stays intact). payload
    may be None unless it is written (--out or JSON), lines unless printed."""
    if args.out:
        try:
            with open(args.staged_out, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(args.staged_out, args.out)
        except OSError as exc:
            return _out_error(args.out, exc)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)
    return code


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _out_error(path: str, exc: OSError) -> int:
    return _usage_error(f"cannot write {path}: {exc.strerror or exc}")


def _stage(path: str) -> str:
    """An empty file beside path, with the mode open(path, "w") would
    give, that _emit renames over path once the payload is written."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    fd, staged = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", dir=os.path.dirname(path) or "."
    )
    os.close(fd)
    umask = os.umask(0)
    os.umask(umask)
    os.chmod(staged, 0o666 & ~umask)
    return staged


def cmd_verify(args) -> int:
    row = CirculantRow.from_string(args.row)
    t = 2 if args.multiplier is None else args.multiplier
    if t < 2:  # as prune and search refuse it
        raise ValueError(f"multiplier base must be at least 2, got {t}")
    try:  # x -> t*x permutes Z_n only for a unit t
        ctx = ModulusContext(row.n, t)
        no_olp = f"none (not a union of {t}-orbits)"
    except ValueError as exc:
        if args.multiplier is not None:
            raise
        ctx, no_olp = None, f"none ({exc})"  # the default t = 2 at an even order
    payload, olp_p, olp_n = _row_payload(row, ctx)
    mults = []
    # units(1) is [0]; the identity substitution is t=1 at every order
    for u in units(row.n) if row.n > 1 else [1]:
        s = multiplier_shift(row, u)
        if s is not None:
            mults.append([u, s])
    payload["multipliers"] = mults
    payload["cwEquation"] = cw_equation_holds(payload["P"], payload["N"], row.n)

    weight = payload["weight"]
    lines = [
        f"n: {row.n}",
        f"weight: {weight if weight is not None else 'not a weighing row'}",
        f"row: {row.to_string()}",
        f"P: {' '.join(map(str, payload['P'])) or '-'}",
        f"N: {' '.join(map(str, payload['N'])) or '-'}",
        f"olp(P): {no_olp if olp_p is None else olp_p}",
        f"olp(N): {no_olp if olp_n is None else olp_n}",
        "multipliers: " + (", ".join(f"t={u} s={s}" for u, s in mults) or "none"),
        f"cw equation: {'holds' if payload['cwEquation'] else 'fails'}",
    ]
    return _emit(args, payload, lines, 0 if weight is not None else 1)


def _witness_json(w) -> dict:
    if isinstance(w, ExistenceWitness):
        return {"kind": "existence", "k": w.k, "l": w.l, "lengths": list(w.lengths)}
    return {
        "kind": "counting",
        "length": w.length,
        "minCount": w.min_count,
        "maxCount": w.max_count,
        "direction": w.direction,
    }


def cmd_prune(args) -> int:
    pairs = feasible_pairs(args.weight, args.multiplier)
    reports = prune(pairs, level=args.level, t=args.multiplier)

    total = len(reports)
    existence_survivors = sum(
        1
        for r in reports
        if not any(isinstance(w, ExistenceWitness) for w in r.witnesses)
    )
    summary = f"{total} -> {existence_survivors} (existence)"
    payload_summary = {"pairs": total, "existenceSurvivors": existence_survivors}
    if args.level == "counting":
        counting_survivors = sum(1 for r in reports if r.verdict == "accepted")
        summary += f" -> {counting_survivors} (counting)"
        payload_summary["countingSurvivors"] = counting_survivors

    # Each form is built only if it is written: at W = 64 the payload of
    # 646225 pairs alone holds more than a gigabyte.
    payload = lines = None
    if args.out or args.format == "json":
        payload = {
            "weight": args.weight,
            "t": args.multiplier,
            "level": args.level,
            "pairs": [
                {
                    "index": i,
                    "olpP": _olp_json(r.pair.p),
                    "olpN": _olp_json(r.pair.n),
                    "verdict": r.verdict,
                    "witnesses": [_witness_json(w) for w in r.witnesses],
                }
                for i, r in enumerate(reports, 1)
            ],
            "summary": payload_summary,
        }
    if args.format != "json":
        text = lru_cache(maxsize=None)(str)  # each distinct olp and witness rendered once
        lines = [f"weight {args.weight}, t={args.multiplier}, level {args.level}"]
        for i, r in enumerate(reports, 1):
            head = f"{i:3d}  {r.verdict:8s}  ({text(r.pair.p)}, {text(r.pair.n)})"
            lines.append(head + (f"  {text(r.witnesses[0])}" if r.witnesses else ""))
        lines.append(summary)
    return _emit(args, payload, lines)


def _search_output(report: SearchReport) -> tuple[dict, list[str]]:
    """The payload and text lines of one search report."""
    spec = report.spec
    pair = spec.pair
    ctx = ModulusContext(spec.n, spec.t)
    payload = {
        "n": spec.n,
        "weight": spec.weight,
        "t": spec.t,
        "olpP": _olp_json(pair.p),
        "olpN": _olp_json(pair.n),
        "candidatesTested": report.candidates_tested,
        "solutions": [_row_payload(row, ctx)[0] for row in report.solutions],
        "classes": [
            {
                "representative": c.representative.to_string(),
                "size": c.size,
                "members": [m.to_string() for m in c.members],
            }
            for c in report.classes
        ],
    }

    lines = [
        f"n={spec.n} weight={spec.weight} t={spec.t} "
        f"olp(P)={pair.p} olp(N)={pair.n}",
        f"candidates tested: {report.candidates_tested}",
        f"solutions: {len(report.solutions)}",
    ]
    lines.extend(f"  {row.to_string()}" for row in report.solutions)
    lines.append(f"classes: {len(report.classes)}")
    for i, c in enumerate(report.classes, 1):
        lines.append(f"  {i}. size {c.size}  representative {c.representative.to_string()}")
    return payload, lines


def cmd_search(args) -> int:
    texts = (args.olpP, args.olpN)
    # the sums from the tokens first: a part list is as long as its sum
    sums = tuple(sum(ell * m for ell, m in olp_tokens(text)) for text in texts)
    check_olp_sums(args.weight, sums)
    pair = OlpPair(*map(Olp.from_string, texts))
    spec = SearchSpec(args.n, args.weight, args.multiplier, pair)
    payload, lines = _search_output(exhaustive_search(spec))
    return _emit(args, payload, lines)


def cmd_rule(args) -> int:
    """The searches behind classification_rule, and its terms."""
    t = CLASSIFIED_MULTIPLIER
    terms = classification_rule(args.weight, t)  # first: a refused weight runs no search

    pairs, lines = [], [f"weight {args.weight}, t={t}"]
    for pair, orders in _rule_pairs(args.weight, t):
        lines.append(f"pair {pair}, base orders {' '.join(map(str, orders))}")
        searches = []
        for b in orders:
            report = exhaustive_search(SearchSpec(b, args.weight, t, pair))
            payload, search_lines = _search_output(report)
            searches.append(payload)
            lines.extend(search_lines)
        pairs.append(
            {"olpP": _olp_json(pair.p), "olpN": _olp_json(pair.n), "baseOrders": list(orders),
             "searches": searches}
        )

    rule = " + ".join(f"[{b}|n]" if c == 1 else f"{c}*[{b}|n]" for b, c in terms)
    lines.append(f"classes with multiplier {t} at odd n: {rule or 0}")
    payload = {
        "weight": args.weight,
        "t": t,
        "pairs": pairs,
        "terms": [[b, c] for b, c in terms],
    }
    return _emit(args, payload, lines)


def cmd_classify(args) -> int:
    check_classified_weight(args.weight)
    if args.max_n < 1:
        raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
    # the classes at n number the sum of the rule's c_b over the b dividing n,
    # so their sign characters are counted before any order is classified
    terms = classification_rule(args.weight, CLASSIFIED_MULTIPLIER)
    chars = 0
    for n in range(1, args.max_n + 1, 2):
        chars += n * sum(c for b, c in terms if n % b == 0)
        if chars > MAX_CLASSIFY_CHARS:
            raise ValueError(
                f"the classes at odd n <= {n} hold {chars} sign characters, "
                f"over the bound of {MAX_CLASSIFY_CHARS}"
            )
    results = [
        res for n in range(1, args.max_n + 1, 2) if (res := full_classification(args.weight, n)).count
    ]

    payload = {
        "weight": args.weight,
        "maxN": args.max_n,
        "orders": [
            {
                "n": r.n,
                "count": r.count,
                "crossChecked": r.cross_checked,
                "classes": [row.to_string() for row in r.classes],
            }
            for r in results
        ],
    }

    lines = [f"weight {args.weight}, odd orders up to {args.max_n}"]
    for r in results:
        word = "class" if r.count == 1 else "classes"
        suffix = " (cross-checked)" if r.cross_checked else ""
        lines.append(f"n={r.n}: {r.count} {word}{suffix}")
        lines.extend(f"  {row.to_string()}" for row in r.classes)
    return _emit(args, payload, lines)


def _output_flags(sub) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--out", metavar="FILE", default=None,
                     help="also write the JSON payload to FILE")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwmat",
        description="Verify, prune, search, and classify circulant weighing matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check one sign-string row")
    p.add_argument("row", help="sign string, e.g. '-++0+00' (spaces allowed)")
    p.add_argument("--multiplier", type=int, default=None,
                   help="t used for the olp readout, a unit mod n "
                        "(default 2, read only at odd n)")
    _output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("prune", help="enumerate and prune olp pairs for a weight")
    p.add_argument("weight", type=int)
    p.add_argument("--level", choices=("existence", "counting"), default="counting")
    p.add_argument("--multiplier", type=int, default=2)
    _output_flags(p)
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("search", help="exhaustive orbit-assignment search at one order")
    p.add_argument("n", type=int)
    p.add_argument("weight", type=int)
    p.add_argument("olpP", help="olp of P, e.g. '5^2'")
    p.add_argument("olpN", help="olp of N, e.g. '1^1 5^1'")
    p.add_argument("--multiplier", type=int, default=2)
    _output_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("rule", help="the base searches and the class-count rule for a weight")
    p.add_argument("weight", type=int)
    _output_flags(p)
    p.set_defaults(func=cmd_rule)

    p = sub.add_parser("classify", help="class counts for all odd orders up to a bound")
    p.add_argument("weight", type=int)
    p.add_argument("--max-n", type=int, required=True)
    _output_flags(p)
    p.set_defaults(func=cmd_classify)

    return parser


def _escape_sign_row(argv: list[str]) -> list[str]:
    """Keep argparse from eating a leading-dash sign string as options.

    A row like '-++0+00' looks like a flag cluster; tokens made only of
    '-', '+', '0', and spaces can never be real options, so the first
    one is moved to the end behind a '--' separator.
    """
    if not argv or argv[0] != "verify" or "--" in argv:
        return argv
    for i, tok in enumerate(argv[1:], 1):
        if tok.startswith("-") and len(tok) > 1 and set(tok) <= set("-+0 "):
            return argv[:i] + argv[i + 1 :] + ["--", tok]
    return argv


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_escape_sign_row(list(argv)))
    try:
        return _run(args)
    except BrokenPipeError:
        # The reader of stdout is gone; the interpreter's final flush of
        # what is still buffered goes to devnull rather than failing again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _usage_error("cannot write standard output: broken pipe")


def _run(args) -> int:
    """args.func(args), the one place a refused input becomes exit 2; with
    --out, its staged file is made first and removed after."""
    if args.out:
        try:  # before any work, so an unwritable --out fails at once
            args.staged_out = _stage(args.out)
        except OSError as exc:
            return _out_error(args.out, exc)
    try:
        return args.func(args)
    except ValueError as exc:  # a command's refusal of its input
        return _usage_error(str(exc))
    finally:
        if args.out and os.path.exists(args.staged_out):
            os.unlink(args.staged_out)


if __name__ == "__main__":
    raise SystemExit(main())
