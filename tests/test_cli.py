"""Command line interface: subcommands, flags, output formats, exit codes."""
import argparse
import json
import os
import re
import subprocess
import sys

import pytest

from ucqrewrite import (
    FreshCounter,
    Limits,
    attach_answer_atom,
    decompose_atomic_head,
    entails,
    make_operator,
    parse_document,
    rewrite,
    serialize,
)
import ucqrewrite
from ucqrewrite.cli import build_parser, main

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
PACKAGE_ROOT = os.path.dirname(os.path.dirname(ucqrewrite.__file__))  # the tested copy


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


def test_usage_error_exit_code(capsys):
    # 2 would read as "a guard fired"
    for argv, flag in ((("--query", RULES), "--rules"),
                       (("--rules", RULES, "--query", RULES, "--no-core-reduce"),
                        "--no-core-reduce")):
        code, _, err = run(capsys, "rewrite", *argv)
        assert code == 1
        assert flag in err


def test_directory_as_input_file(capsys, tmp_path):
    code, out, err = run(capsys, "rewrite", "--rules", str(tmp_path), "--query", RULES)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_verify_only_flags_are_usage_errors_elsewhere(capsys):
    for command, flags in (("rewrite", ("--seed", "1")), ("rewrite", ("--facts", RULES)),
                           ("compare", ("--operator", "aggregated")), ("verify", ("--json",))):
        code, _, err = run(capsys, command, "--rules", RULES, "--query", RULES, *flags)
        assert code == 1
        assert flags[0] in err


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


@pytest.mark.parametrize("command", ["verify", "compare"])
def test_verify_and_compare_exit_2_on_a_partial_run(capsys, tmp_path, command):
    rules = write(tmp_path, "tc.dlgp",
                  "[r1] t(X,Y) :- e(X,Y).\n[r2] t(X,Z) :- e(X,Y), t(Y,Z).\n")
    query = write(tmp_path, "q.dlgp", "?(U,V) :- t(U,V).\n")
    code, out, _ = run(capsys, command, "--rules", rules, "--query", query,
                       "--max-depth", "2", *(("--json",) if command == "compare" else ()))
    assert code == 2
    if command == "compare":
        assert [row["terminated"] for row in json.loads(out)] == [False, False]
    else:
        report = json.loads(out)
        assert report["sound"] and report["minimal"]


def test_a_guard_crossed_on_the_last_level_is_not_a_partial_run(capsys, tmp_path):
    # p <- q <- p: the level that generates the 2nd raw rewriting empties the frontier
    rules = write(tmp_path, "loop.dlgp", "[r1] p(X) :- q(X).\n[r2] q(X) :- p(X).\n")
    query = write(tmp_path, "q.dlgp", "? :- p(U).\n")
    code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", query, "--json")
    assert code == 0
    full = json.loads(out)
    code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", query,
                       "--max-generated", "1", "--json")
    assert code == 0 and json.loads(out) == full
    assert full["stats"]["generated"] == 2 and full["stats"]["terminated"] is True
    code, out, _ = run(capsys, "verify", "--rules", rules, "--query", query,
                       "--max-generated", "1", "--samples", "5")
    assert code == 0 and json.loads(out)["complete_sampled"] is not None


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


def test_rules_that_share_a_label_do_not_share_an_aux_predicate(capsys, tmp_path):
    rules = write(tmp_path, "m.dlgp",
                  "[r] p(X,Y), q(Y) :- a(X).\n[r] s(X,Y), t(Y) :- b(X).\n")
    query = write(tmp_path, "q.dlgp", "? :- p(U,V), t(V).\n")
    code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", query)
    assert code == 0
    code, oracle, _ = run(capsys, "rewrite", "--rules", rules, "--query", query,
                          "--operator", "full-piece")
    assert out == oracle == "? :- p(X0,X1), t(X1).\n"
    counter = FreshCounter()
    decomposed = [d for r in parse_document(open(rules).read()).rules
                  for d in decompose_atomic_head(r, counter)]
    q = parse_document(open(query).read()).queries[0]
    for text in ("a(c).", "b(c)."):
        facts = frozenset().union(*parse_document(text).facts)
        assert entails(facts, decomposed, q, 5).value == "no"


def test_compare_output_counts_the_printed_queries(capsys, tmp_path):
    rules = write(tmp_path, "m.dlgp", "[r1] p(X,Y), s(Y) :- q(X).\n")
    query = write(tmp_path, "q.dlgp", "? :- p(U,V), s(V).\n")
    code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", query, "--json")
    printed = len(json.loads(out)["cover"])
    code, out, _ = run(capsys, "compare", "--rules", rules, "--query", query,
                       "--operators", "aggregated,full-piece", "--json")
    assert code == 0
    assert [row["output"] for row in json.loads(out)] == [printed, printed] == [2, 2]


def test_compare_refuses_complete_operators_that_disagree(capsys, monkeypatch):
    # a full-piece operator that finds no unifier keeps only the query itself
    monkeypatch.setitem(ucqrewrite.rewriting.UNIFIERS, "full-piece", lambda q, r: [])
    code, out, err = run(capsys, "compare", "--rules", RULES, "--query", RULES,
                         "--operators", "full-piece,aggregated", "--json")
    assert [row["output"] for row in json.loads(out)] == [1, 2]
    assert code == 3
    assert err == "cover cardinality mismatch across sound+complete operators\n"


def test_rewrite_prints_what_serialize_returns(capsys, tmp_path):
    rules = write(tmp_path, "m.dlgp", "[r1] p(X,Y), s(Y) :- q(X).\n")
    query = write(tmp_path, "q.dlgp", "?(U) :- p(U,V), s(V).\n")
    rules_as_written = parse_document(open(rules).read()).rules
    q = parse_document(open(query).read()).queries[0]
    res = rewrite(attach_answer_atom(q), rules_as_written, make_operator("aggregated"), Limits())
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


def test_verify_names_rewritings_as_rewrite_prints_them(capsys, tmp_path):
    # on the second input the rewriting ?(a) :- s(X0). is printed second
    for rules_text, query_text in [("[r1] p(X,Y), s(Y) :- q(X).\n", "?(U) :- p(U,V), s(V).\n"),
                                   ("[r1] p(a) :- s(X).\n", "?(U) :- p(U).\n")]:
        rules = write(tmp_path, "m.dlgp", rules_text)
        query = write(tmp_path, "q.dlgp", query_text)
        code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", query)
        assert code == 0
        printed = out.splitlines()
        code, out, _ = run(capsys, "verify", "--rules", rules, "--query", query,
                           "--samples", "5")
        assert code == 0
        names = [e["query"] for e in json.loads(out)["rewritings"]]
        assert names == printed


def test_verify_chases_the_rules_as_parsed(capsys, monkeypatch, tmp_path):
    rules = write(tmp_path, "m.dlgp", "[r1] p(X,Y), s(Y) :- q(X).\n")
    query = write(tmp_path, "q.dlgp", "? :- p(U,V), s(V).\n")
    chased = []
    check = ucqrewrite.cli.verify_rewriting_set

    def capture(q, rules, *args, **kwargs):
        chased.extend(rules)
        return check(q, rules, *args, **kwargs)

    monkeypatch.setattr(ucqrewrite.cli, "verify_rewriting_set", capture)
    code, _, _ = run(capsys, "verify", "--rules", rules, "--query", query, "--samples", "5")
    assert code == 0
    assert any(len(r.head) == 2 for r in chased)
    assert not any(a.predicate.startswith("__aux_") for r in chased for a in r.head | r.body)


def test_the_oracle_refuses_a_five_atom_head(capsys, tmp_path):
    rules = write(tmp_path, "m.dlgp", "[r1] p(X,Y), s(Y), t(Y), u(Y), w(Y) :- q(X).\n")
    query = write(tmp_path, "q.dlgp", "? :- p(U,V), s(V).\n")
    code, out, err = run(capsys, "rewrite", "--rules", rules, "--query", query,
                         "--operator", "full-piece")
    assert (code, out) == (1, "")
    assert "size caps" in err
    code, out, _ = run(capsys, "compare", "--rules", rules, "--query", query,
                       "--operators", "aggregated,full-piece", "--json")
    assert code == 0
    aggregated, oracle = json.loads(out)
    assert aggregated["output"] == 2 and "size caps" in oracle["refused"]


def test_compare_table_and_exit(capsys):
    code, out, _ = run(capsys, "compare", "--rules", RULES, "--query", RULES,
                       "--operators", "single-piece,aggregated,full-piece")
    assert code == 0
    assert "operator" in out and "aggregated" in out


def test_compare_gives_each_operator_a_rule_base_of_its_own(capsys, monkeypatch):
    # each operator makes its own rule copies, so its time does not depend on
    # the operators before it in the row
    made = []
    found = ucqrewrite.kb.freshen_rule
    monkeypatch.setattr(ucqrewrite.kb, "freshen_rule",
                        lambda r, counter: made.append(r) or found(r, counter))
    alone = 0
    for kind in ("single-piece", "aggregated"):
        run(capsys, "compare", "--rules", RULES, "--query", RULES, "--operators", kind)
        alone += len(made)
        made.clear()
    code, _, _ = run(capsys, "compare", "--rules", RULES, "--query", RULES,
                     "--operators", "single-piece,aggregated")
    assert code == 0 and len(made) == alone > 0


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


@pytest.mark.parametrize("operators", [",", "", " , "])
def test_compare_refuses_an_operator_list_that_names_none(capsys, operators):
    code, out, err = run(capsys, "compare", "--rules", RULES, "--query", RULES,
                         "--operators", operators)
    assert code == 1 and out == ""
    assert err == "error: no operator given\n"


def test_compare_table_prints_a_refused_row(capsys, tmp_path):
    # a five-atom head is beyond the full-piece oracle's size caps
    rules = write(tmp_path, "m.dlgp", "[r1] p(X,Y), s(Y), t(Y), u(Y), w(Y) :- q(X).\n")
    query = write(tmp_path, "q.dlgp", "? :- p(U,V), s(V).\n")
    code, out, _ = run(capsys, "compare", "--rules", rules, "--query", query,
                       "--operators", "aggregated,full-piece")
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("full-piece"))
    assert re.match(r"full-piece +- +- +- +-  refused: .*size caps", row)


def test_debug_invariants_flag(capsys):
    code, _, _ = run(capsys, "rewrite", "--rules", RULES, "--query", RULES,
                     "--debug-invariants")
    assert code == 0


def test_bundled_data_files_load(capsys, tmp_path):
    from importlib import resources

    data = resources.files("ucqrewrite") / "data"
    rules = str(data / "ontology.dlgp")
    lines = [line for line in (data / "queries.dlgp").read_text().splitlines()
             if line.startswith("?")]
    assert len(lines) == 4
    for i, line in enumerate(lines):
        query = write(tmp_path, f"q{i}.dlgp", line + "\n")
        code, out, _ = run(capsys, "rewrite", "--rules", rules, "--query", query, "--json")
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["generated"] >= stats["output"]


@pytest.mark.parametrize("command", ["rewrite", "verify", "compare"])
def test_a_query_file_with_several_queries_is_refused(capsys, tmp_path, command):
    from importlib import resources

    data = resources.files("ucqrewrite") / "data"
    code, out, err = run(capsys, command, "--rules", str(data / "ontology.dlgp"),
                         "--query", str(data / "queries.dlgp"))
    assert (code, out) == (1, "")
    assert err == "error: query file contains 4 query statements; give one query per file\n"


def test_readme_names_the_parser_flags():
    readme = (DATA.parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    flags = {o for name in ("rewrite", "verify", "compare")
             for a in subparsers.choices[name]._actions
             for o in a.option_strings if o.startswith("--")} - {"--help"}
    assert named == flags


class ClosedStdout:
    """A standard output whose reader has gone, as behind `| head`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize("command", ["rewrite", "verify"])
def test_closed_stdout_is_not_a_file_error(capsys, monkeypatch, command):
    monkeypatch.setattr("sys.stdout", ClosedStdout())
    code = main([command, "--rules", RULES, "--query", RULES])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_closed_pipe_exits_quietly():
    # no reader ever opens the pipe, so every write to it fails, including the
    # flush at interpreter exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "ucqrewrite.cli", "verify",
                               "--rules", RULES, "--query", RULES],
                              stdout=write_end, stderr=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
                              timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("command, flag, value", [
    ("rewrite", "--max-depth", "-1"),
    ("rewrite", "--max-generated", "-5"),
    ("rewrite", "--timeout", "-1"),
    ("verify", "--samples", "-3"),
])
def test_negative_numeric_flags_are_usage_errors(capsys, command, flag, value):
    # each used to run: the guards fired at once (exit 2), or verify sampled
    # nothing and still reported "complete_sampled": true
    code, out, err = run(capsys, command, "--rules", RULES, "--query", RULES, flag, value)
    assert code == 1
    assert out == ""
    assert flag in err and ">= 0" in err


def test_zero_keeps_its_meaning(capsys):
    code, out, _ = run(capsys, "rewrite", "--rules", RULES, "--query", RULES,
                       "--max-depth", "0", "--json")
    assert code == 2 and json.loads(out)["stats"]["depth"] == 0
    code, out, _ = run(capsys, "verify", "--rules", RULES, "--query", RULES, "--samples", "0")
    assert code == 0 and json.loads(out)["complete_sampled"] is True
