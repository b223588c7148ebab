"""Command line interface: subcommands, flags, output formats, exit codes."""
import json

import pytest

from ucqrewrite import (
    FreshCounter,
    Limits,
    attach_answer_atom,
    decompose_atomic_head,
    make_operator,
    parse_document,
    rewrite,
    serialize,
)
from ucqrewrite.cli import main

from conftest import DATA


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


RULES = str(DATA / "two_rule_loop.dlgp")


def test_rewrite_dlgp_output(capsys):
    code, out, err = run(capsys, "rewrite", "--rules", RULES, "--query", RULES)
    assert code == 0
    assert out.splitlines() == ["? :- p(X0,X1), r(X0).", "? :- t(X0)."]


def test_rewrite_json_output(capsys):
    code, out, _ = run(capsys, "rewrite", "--rules", RULES, "--query", RULES,
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cover"] == ["? :- p(X0,X1), r(X0).", "? :- t(X0)."]
    assert payload["stats"]["terminated"] is True
    assert payload["stats"]["depth"] == 1
    assert payload["stats"]["generated"] >= payload["stats"]["output"] - 1


def test_rewrite_all_operators_agree(capsys):
    outs = set()
    for op in ("full-piece", "single-piece", "aggregated"):
        code, out, _ = run(capsys, "rewrite", "--rules", RULES, "--query", RULES,
                           "--operator", op)
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_rewrite_with_answer_variables(capsys, tmp_path):
    rules = write(tmp_path, "r.dlgp", "[r1] p(X,Y) :- q(X).\n")
    query = write(tmp_path, "q.dlgp", "?(U) :- p(U,V).\n")
    code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", query)
    assert code == 0
    assert out.splitlines() == ["?(X0) :- p(X0,X1).", "?(X0) :- q(X0)."]


def test_parse_error_exit_code(capsys, tmp_path):
    bad = write(tmp_path, "bad.dlgp", "p(X :- q(X).\n")
    code, _, err = run(capsys, "rewrite", "--rules", bad, "--query", RULES)
    assert code == 1
    assert "error:" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "rewrite", "--rules", "/nonexistent.dlgp",
                       "--query", RULES)
    assert code == 1


def test_query_file_without_query(capsys, tmp_path):
    noq = write(tmp_path, "noq.dlgp", "p(a).\n")
    code, _, err = run(capsys, "rewrite", "--rules", RULES, "--query", noq)
    assert code == 1


def test_guard_exit_code(capsys, tmp_path):
    rules = write(tmp_path, "tc.dlgp",
                  "[r1] t(X,Y) :- e(X,Y).\n[r2] t(X,Z) :- e(X,Y), t(Y,Z).\n")
    query = write(tmp_path, "q.dlgp", "?(U,V) :- t(U,V).\n")
    code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", query,
                       "--max-depth", "2", "--json")
    assert code == 2
    assert json.loads(out)["stats"]["terminated"] is False


def test_multi_atom_head_decomposition(capsys, tmp_path):
    rules = write(tmp_path, "m.dlgp", "[r1] p(X,Y), s(Y) :- q(X).\n")
    query = write(tmp_path, "q.dlgp", "? :- p(U,V), s(V).\n")
    code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", query)
    assert code == 0
    assert "q(X0)" in out
    # aux predicates never leak into the output
    assert "__aux" not in out
    # and stats.output counts the printed queries, not the aux one
    code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", query, "--json")
    payload = json.loads(out)
    assert payload["cover"] == ["? :- p(X0,X1), s(X1).", "? :- q(X0)."]
    assert payload["stats"]["output"] == 2


def test_no_decompose_requires_full_piece(capsys, tmp_path):
    rules = write(tmp_path, "m.dlgp", "[r1] p(X,Y), s(Y) :- q(X).\n")
    query = write(tmp_path, "q.dlgp", "? :- p(U,V), s(V).\n")
    code, _, err = run(capsys, "rewrite", "--rules", rules, "--query", query,
                       "--no-decompose")
    assert code == 1
    code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", query,
                       "--no-decompose", "--operator", "full-piece")
    assert code == 0
    assert "q(X0)" in out


def test_compare_no_decompose_checks_the_compared_operators(capsys, tmp_path):
    rules = write(tmp_path, "m.dlgp", "[r1] p(X,Y), s(Y) :- q(X).\n")
    query = write(tmp_path, "q.dlgp", "? :- p(U,V), s(V).\n")
    code, out, _ = run(capsys, "compare", "--rules", rules, "--query", query,
                       "--no-decompose", "--operators", "full-piece", "--json")
    assert code == 0
    assert [r["operator"] for r in json.loads(out)] == ["full-piece"]
    code, _, err = run(capsys, "compare", "--rules", rules, "--query", query,
                       "--no-decompose", "--operators", "full-piece,aggregated")
    assert code == 1 and "full-piece" in err


def test_rewrite_prints_what_serialize_returns(capsys, tmp_path):
    rules = write(tmp_path, "m.dlgp", "[r1] p(X,Y), s(Y) :- q(X).\n")
    query = write(tmp_path, "q.dlgp", "?(U) :- p(U,V), s(V).\n")
    counter = FreshCounter()
    decomposed = [d for r in parse_document(open(rules).read()).rules
                  for d in decompose_atomic_head(r, counter)]
    q = parse_document(open(query).read()).queries[0]
    res = rewrite(attach_answer_atom(q), decomposed, make_operator("aggregated"), Limits())
    for fmt, flags in (("dlgp", ()), ("json", ("--json",))):
        code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", query, *flags)
        assert code == 0
        assert out == serialize(res, fmt)


def test_verify_subcommand_clean(capsys):
    code, out, _ = run(capsys, "verify", "--rules", RULES, "--query", RULES,
                       "--samples", "10")
    assert code == 0
    report = json.loads(out)
    assert report["sound"] and report["minimal"]


def test_verify_with_facts_file(capsys, tmp_path):
    facts = write(tmp_path, "f.dlgp", "r(a). p(a,b).\n")
    code, out, _ = run(capsys, "verify", "--rules", RULES, "--query", RULES,
                       "--samples", "5", "--facts", facts)
    assert code == 0


def test_compare_table_and_exit(capsys):
    code, out, _ = run(capsys, "compare", "--rules", RULES, "--query", RULES,
                       "--operators", "single-piece,aggregated,full-piece")
    assert code == 0
    assert "operator" in out and "aggregated" in out


def test_compare_json(capsys):
    code, out, _ = run(capsys, "compare", "--rules", RULES, "--query", RULES,
                       "--json")
    rows = json.loads(out)
    assert {r["operator"] for r in rows} == {"single-piece", "aggregated"}
    assert code == 0


def test_compare_unknown_operator(capsys):
    code, _, err = run(capsys, "compare", "--rules", RULES, "--query", RULES,
                       "--operators", "bogus")
    assert code == 1


def test_debug_invariants_flag(capsys):
    code, _, _ = run(capsys, "rewrite", "--rules", RULES, "--query", RULES,
                     "--debug-invariants")
    assert code == 0


def test_bundled_data_files_load(capsys):
    from importlib import resources

    data = resources.files("ucqrewrite") / "data"
    rules = str(data / "ontology.dlgp")
    queries = str(data / "queries.dlgp")
    code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", queries,
                       "--json")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["generated"] >= stats["output"]
