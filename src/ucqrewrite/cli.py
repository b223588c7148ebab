"""Command line front end: rewrite, verify and compare workflows.

Exit codes: 0 success, 1 usage, parse, validation or file error, 2 a guard
left queries unexplored (partial output), 3 a verification or cross-operator
check failed, whether or not a guard fired, 141 standard output closed before
the output was written (the status a shell reports when SIGPIPE ends a process).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from .chase import verify_rewriting_set
from .dlgp import DlgpError, parse_document, printed_cover, serialize
from .kb import attach_answer_atom
from .rewriting import Limits, OPERATOR_KINDS, RuleBase, make_operator, rewrite


BROKEN_PIPE = 141


def _non_negative(kind):
    """An argparse type: kind(text), refused when negative (or NaN)."""
    def parse(text: str):
        value = kind(text)
        if not value >= 0:
            raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in its "invalid" message
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    defaults = Limits()
    p.add_argument("--rules", required=True, help="dlgp file with the rule base")
    p.add_argument("--query", required=True, help="dlgp file with the query")
    p.add_argument("--max-depth", type=_non_negative(int))
    p.add_argument("--max-generated", type=_non_negative(int), default=defaults.max_generated)
    p.add_argument("--timeout", type=_non_negative(float), default=defaults.timeout)
    p.add_argument("--debug-invariants", action="store_true")


def _operators(text: str) -> list[str]:
    """compare's comma-separated --operators list."""
    operators = [o.strip() for o in text.split(",") if o.strip()]
    if not operators:
        raise DlgpError("no operator given")
    for o in operators:
        if o not in OPERATOR_KINDS:
            raise DlgpError(f"unknown operator {o!r}")
    return operators


def _load(args):
    """The rules, as parsed, and the query file's one query."""
    with open(args.rules, encoding="utf-8") as fh:
        rules_doc = parse_document(fh.read())
    with open(args.query, encoding="utf-8") as fh:
        query_doc = parse_document(fh.read())
    if not query_doc.queries:
        raise DlgpError("query file contains no query statement")
    if len(query_doc.queries) > 1:
        raise DlgpError(f"query file contains {len(query_doc.queries)} query statements; "
                        "give one query per file")
    return list(rules_doc.rules), query_doc.queries[0]


def _run(args, rules, query, operator: str):
    limits = Limits(max_depth=args.max_depth, max_generated=args.max_generated,
                    timeout=args.timeout)
    return rewrite(query, rules, make_operator(operator), limits,
                   debug_invariants=args.debug_invariants)


def cmd_rewrite(args) -> tuple[bool, list[bool]]:
    rules, query = _load(args)
    result = _run(args, rules, query, args.operator)
    sys.stdout.write(serialize(result, "json" if args.json else "dlgp"))
    return False, [result.terminated]


def cmd_verify(args) -> tuple[bool, list[bool]]:
    rules, query = _load(args)
    result = _run(args, rules, query, args.operator)
    extra = None
    if args.facts:
        with open(args.facts, encoding="utf-8") as fh:
            extra = parse_document(fh.read()).facts
    bcq = attach_answer_atom(query)
    report = verify_rewriting_set(bcq, rules, result, samples=args.samples,
                                  seed=args.seed, extra_facts=extra)
    print(json.dumps(report, indent=2))
    ok = report["sound"] and report["minimal"] and report["complete_sampled"] is not False
    return not ok, [result.terminated]


def cmd_compare(args) -> tuple[bool, list[bool]]:
    operators = _operators(args.operators)
    rules, query = _load(args)
    rows = []
    for o in operators:
        t0 = time.monotonic()
        try:
            # a rule base of its own, so no operator's time gains from another's
            result = _run(args, RuleBase(rules), query, o)
        except ValueError as e:  # e.g. oracle size-cap refusal
            rows.append({"operator": o, "refused": str(e)})
            continue
        rows.append({
            "operator": o,
            "output": len(printed_cover(result)),
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
    mismatch = len({r["output"] for r in rows if r.get("terminated")
                    and r["operator"] in ("full-piece", "aggregated")}) > 1
    if mismatch:
        print("cover cardinality mismatch across sound+complete operators",
              file=sys.stderr)
    return mismatch, [r["terminated"] for r in rows if "terminated" in r]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucqrewrite",
        description="Rewrite conjunctive queries over existential rules into "
                    "minimal unions of conjunctive queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes exactly its own flags: no prefix of one is accepted,
    # so compare's --operators does not take rewrite's --operator
    p = sub.add_parser("rewrite", allow_abbrev=False, help="compute the rewriting cover")
    _add_common(p)
    p.add_argument("--operator", choices=OPERATOR_KINDS, default="aggregated")
    p.add_argument("--json", action="store_true", help="emit JSON instead of dlgp")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("verify", allow_abbrev=False,
                       help="chase-based verification of a rewriting run")
    _add_common(p)
    p.add_argument("--operator", choices=OPERATOR_KINDS, default="aggregated")
    p.add_argument("--facts", help="dlgp file with fact bases")
    p.add_argument("--samples", type=_non_negative(int), default=30,
                   help="random fact bases for the completeness check")
    p.add_argument("--seed", type=int, default=0, help="seed of the sampled fact bases")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", allow_abbrev=False, help="run several operators side by side")
    _add_common(p)
    p.add_argument("--json", action="store_true", help="print the rows as JSON")
    p.add_argument("--operators", default="single-piece,aggregated",
                   help="comma-separated operator list")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # a usage error exits 1, not 2 (a guard fired)
        return 1 if e.code else 0
    try:
        # each command returns whether a check failed, and whether each rewrite terminated
        failed, terminated = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return 3 if failed else 0 if all(terminated) else 2
    except BrokenPipeError:  # the reader left, e.g. `ucqrewrite verify ... | head`
        _discard_stdout()
        return BROKEN_PIPE
    except (DlgpError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _discard_stdout() -> None:
    """Point standard output's file descriptor at the null device, so the
    flush at interpreter exit writes what is left in the buffer there and
    reports no second broken pipe."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
