"""Print one sha256 over what the program outputs on the benchmark's workloads
and on the CLI examples, so that two checkouts can be compared byte for byte.

    python3 scripts/behaviour_digest.py [WORKLOAD ...]

WORKLOAD is a workload of ``bench/workloads.py``: ontology, diamond or
random-linear; the default is all three.  The digest covers, in this order:

- each workload input rewritten under every operator: the cover and counts
  as ``ucqrewrite rewrite --json`` prints them, or the message of the
  ValueError that refuses it (the full-piece oracle's size caps);
- on random-linear, each instance's bounded-chase verdict, ranks used and
  witness, at the rank the benchmark decides it at, and the atoms of
  ``chase(facts, rules, 3)`` with their ranks;
- ``rewrite``, ``rewrite --json`` and ``compare --json`` without its times,
  under every operator, on each query file in ``tests/data``, with the same
  file given as ``--rules``: exit status, standard output and standard error.

The package is imported from the ``src/`` beside this script, and the
workloads from the ``bench/`` beside it, so a copy of the script in another
checkout digests that checkout.  Every guard but the CLI's wall-clock one is
count-based, so equal programs print equal digests under any
``PYTHONHASHSEED``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402  (bench/, on the path above)

# the modules the workloads and the CLI records read
MODULES = ("kb", "homomorphism", "rewriting", "chase", "dlgp", "cli")
# the seed of random-linear's renaming, as in the benchmark's traced runs
SEED = 1


def import_modules() -> SimpleNamespace:
    """The package under ``src/``, never an installed copy."""
    pkg = importlib.import_module("ucqrewrite")
    if Path(pkg.__file__).resolve().parent != ROOT / "src" / "ucqrewrite":
        raise ImportError(f"ucqrewrite imported from {pkg.__file__}, not from {ROOT / 'src'}")
    return SimpleNamespace(**{n: importlib.import_module(f"ucqrewrite.{n}") for n in MODULES})


def rewritten(m, query, rules, kind: str, limits: dict):
    """(the result, or None when refused; its record for the digest)."""
    try:
        res = m.rewriting.rewrite(m.kb.attach_answer_atom(query), rules,
                                  m.rewriting.make_operator(kind), m.rewriting.Limits(**limits))
    except ValueError as e:
        return None, ["refused", kind, str(e)]
    return res, ["rewrite", kind, m.dlgp.serialize(res, "json")]


def workload_inputs(m, workload: str) -> list[tuple]:
    """Each input of the workload's operations: (label, query, rules, limits,
    the facts a random-linear instance is decided on, else None)."""
    if workload == "ontology":
        data = Path(m.kb.__file__).parent / "data"
        parse = m.dlgp.parse_document
        rules = workloads._decomposed(m, parse((data / "ontology.dlgp").read_text()).rules)
        queries = parse((data / "queries.dlgp").read_text()).queries
        return [(f"q{i}", q, rules, workloads.LIMITS, None) for i, q in enumerate(queries, 1)]
    if workload == "diamond":
        out = []
        for n in sorted({n for n, _ in workloads.DIAMOND_OPS}):
            doc = m.dlgp.parse_document(workloads.diamond_text(n))
            out.append((f"n={n}", doc.queries[0], workloads._decomposed(m, doc.rules),
                        workloads.LIMITS, None))
        return out
    return [(f"#{i}", query, rules, workloads.RANDOM_LIMITS, facts) for i, (rules, query, facts)
            in enumerate(workloads.random_linear_instances(m, SEED))]


def workload_records(m, workload: str):
    for label, query, rules, limits, facts in workload_inputs(m, workload):
        for kind in m.rewriting.OPERATOR_KINDS:
            res, record = rewritten(m, query, rules, kind, limits)
            yield [workload, label] + record
            if facts is not None and kind == "aggregated":
                verdict = m.chase.entails(facts, rules, query, 2 * res.depth_reached + 2,
                                          max_atoms=500)
                witness = sorted([str(k), str(v)] for k, v in (verdict.witness or {}).items())
                yield [workload, label, "entails", verdict.value, verdict.ranks_used, witness]
                ranks = m.chase.chase(facts, rules, 3).rank
                yield [workload, label, "chase", sorted([str(a), r] for a, r in ranks.items())]


def cli_records(m):
    kinds = m.rewriting.OPERATOR_KINDS
    for path in sorted((ROOT / "tests" / "data").glob("*.dlgp")):
        files = ["--rules", str(path), "--query", str(path)]
        runs = [["rewrite", *files, "--operator", k, *fmt] for k in kinds
                for fmt in ([], ["--json"])]
        runs.append(["compare", *files, "--json", "--operators", ",".join(kinds)])
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = m.cli.main(argv)
            text = out.getvalue()
            if argv[0] == "compare" and status != 1:
                rows = json.loads(text)
                for row in rows:
                    row.pop("time", None)
                text = json.dumps(rows)
            yield ["cli", path.name, argv[0], argv[5:], status, text, err.getvalue()]


def digest(names: list[str]) -> str:
    m = import_modules()
    h = hashlib.sha256()
    records = [r for name in names for r in workload_records(m, name)] + list(cli_records(m))
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                   help=f"one of {', '.join(workloads.WORKLOADS)}; default: all three")
    args = p.parse_args(argv)
    for name in args.workloads:
        if name not in workloads.WORKLOADS:
            p.error(f"unknown workload {name!r}")
    print(digest(args.workloads or list(workloads.WORKLOADS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
