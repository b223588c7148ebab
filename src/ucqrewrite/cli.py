"""Command line front end: rewrite, verify and compare workflows.

Exit codes: 0 success, 1 parse/validation error, 2 guard fired (partial
output), 3 verification or cross-operator check failure.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .chase import verify_rewriting_set
from .dlgp import DlgpError, parse_document, serialize
from .kb import FreshCounter, attach_answer_atom, decompose_atomic_head
from .rewriting import Limits, OPERATOR_KINDS, make_operator, rewrite


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rules", required=True, help="dlgp file with the rule base")
    p.add_argument("--query", required=True, help="dlgp file with the query")
    p.add_argument("--facts", help="dlgp file with fact bases (verify only)")
    p.add_argument("--operator", choices=OPERATOR_KINDS, default="aggregated")
    p.add_argument("--no-core-reduce", action="store_true",
                   help="do not core-reduce generated queries")
    p.add_argument("--no-decompose", action="store_true",
                   help="keep non-atomic heads (full-piece operator only)")
    p.add_argument("--max-depth", type=int)
    p.add_argument("--max-generated", type=int, default=100_000)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--json", action="store_true", help="emit JSON instead of dlgp")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--debug-invariants", action="store_true")


def _operators(args) -> list[str]:
    """The operators the subcommand runs: --operators for compare, else --operator."""
    if not hasattr(args, "operators"):
        return [args.operator]
    operators = [o.strip() for o in args.operators.split(",") if o.strip()]
    for o in operators:
        if o not in OPERATOR_KINDS:
            raise DlgpError(f"unknown operator {o!r}")
    return operators


def _load(args):
    with open(args.rules, encoding="utf-8") as fh:
        rules_doc = parse_document(fh.read())
    with open(args.query, encoding="utf-8") as fh:
        query_doc = parse_document(fh.read())
    if not query_doc.queries:
        raise DlgpError("query file contains no query statement")
    query = query_doc.queries[0]
    rules = list(rules_doc.rules)
    counter = FreshCounter()
    if not args.no_decompose:
        rules = [d for r in rules for d in decompose_atomic_head(r, counter)]
    elif (any(o != "full-piece" for o in _operators(args))
          and any(not r.has_atomic_head for r in rules)):
        raise DlgpError(
            "non-atomic heads require the full-piece operator when --no-decompose is set"
        )
    return rules, query


def _run(args, rules, query, operator: Optional[str] = None):
    bcq = attach_answer_atom(query)
    limits = Limits(max_depth=args.max_depth, max_generated=args.max_generated,
                    timeout=args.timeout)
    op = make_operator(operator or args.operator)
    return rewrite(bcq, rules, op, limits,
                   core_reduce=not args.no_core_reduce,
                   debug_invariants=args.debug_invariants)


def cmd_rewrite(args) -> int:
    rules, query = _load(args)
    result = _run(args, rules, query)
    sys.stdout.write(serialize(result, "json" if args.json else "dlgp"))
    return 0 if result.terminated else 2


def cmd_verify(args) -> int:
    rules, query = _load(args)
    result = _run(args, rules, query)
    extra = None
    if args.facts:
        with open(args.facts, encoding="utf-8") as fh:
            extra = parse_document(fh.read()).facts
    bcq = attach_answer_atom(query)
    report = verify_rewriting_set(bcq, rules, result, samples=args.samples,
                                  seed=args.seed, extra_facts=extra)
    print(json.dumps(report, indent=2))
    ok = report["sound"] and report["minimal"] and report["complete_sampled"] is not False
    return 0 if ok else 3


def cmd_compare(args) -> int:
    rules, query = _load(args)
    rows = []
    for o in _operators(args):
        t0 = time.monotonic()
        try:
            result = _run(args, rules, query, operator=o)
        except ValueError as e:  # e.g. oracle size-cap refusal
            rows.append({"operator": o, "refused": str(e)})
            continue
        rows.append({
            "operator": o,
            "output": len(result.cover),
            "generated": result.generated_count,
            "depth": result.depth_reached,
            "terminated": result.terminated,
            "time": round(time.monotonic() - t0, 3),
        })
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(f"{'operator':<14}{'output':>8}{'generated':>11}{'depth':>7}"
              f"{'time':>8}  note")
        for row in rows:
            if "refused" in row:
                print(f"{row['operator']:<14}{'-':>8}{'-':>11}{'-':>7}{'-':>8}"
                      f"  refused: {row['refused']}")
            else:
                note = "" if row["terminated"] else "guard fired"
                print(f"{row['operator']:<14}{row['output']:>8}{row['generated']:>11}"
                      f"{row['depth']:>7}{row['time']:>8}  {note}")
    # sound+complete operators must agree on the cover cardinality
    complete = [r for r in rows
                if r.get("terminated") and r["operator"] in ("full-piece", "aggregated")]
    sizes = {r["output"] for r in complete}
    if len(sizes) > 1:
        print("cover cardinality mismatch across sound+complete operators",
              file=sys.stderr)
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucqrewrite",
        description="Rewrite conjunctive queries over existential rules into "
                    "minimal unions of conjunctive queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rewrite", help="compute the rewriting cover")
    _add_common(p)
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("verify", help="chase-based verification of a rewriting run")
    _add_common(p)
    p.add_argument("--samples", type=int, default=30,
                   help="random fact bases for the completeness check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="run several operators side by side")
    _add_common(p)
    p.add_argument("--operators", default="single-piece,aggregated",
                   help="comma-separated operator list")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DlgpError, FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
