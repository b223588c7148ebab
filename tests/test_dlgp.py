"""Text format: parsing, error reporting, serialization round trips."""
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from ucqrewrite import (
    DlgpError,
    Limits,
    atom,
    attach_answer_atom,
    const,
    cq,
    make_operator,
    parse_document,
    query_to_dlgp,
    rewrite,
    var,
)
from ucqrewrite.dlgp import document_to_dlgp, serialize

from conftest import load


def test_parse_rule_head_first():
    doc = parse_document("[r1] p(X,Y) :- q(X).\n")
    (r,) = doc.rules
    assert r.label == "r1"
    assert r.body == {atom("q", var("X"))}
    assert r.head == {atom("p", var("X"), var("Y"))}
    assert r.existentials == {var("Y")}


def test_parse_auto_labels_and_comments():
    doc = parse_document("% intro\np(X) :- q(X).\nr(X) :- s(X). % trailing\n")
    assert [r.label for r in doc.rules] == ["r1", "r2"]


def test_parse_facts_and_queries():
    doc = parse_document(load("simple_existential_facts.dlgp"))
    assert doc.fact_atoms() == {
        atom("q", const("a")),
        atom("p", const("b"), const("c")),
        atom("r", const("a"), const("b")),
    }
    doc2 = parse_document("?(X) :- p(X,Y).\n? :- q(Z).\n")
    assert len(doc2.queries) == 2
    assert doc2.queries[0].answer_vars == (var("X"),)
    assert doc2.queries[1].is_boolean


def test_parse_constant_answer_term():
    doc = parse_document("?(a,X) :- p(a,X).\n")
    assert doc.queries[0].answer_vars == (const("a"), var("X"))


def test_answer_variable_must_occur():
    with pytest.raises(DlgpError):
        parse_document("?(Z) :- p(X,Y).\n")


def test_reserved_names_rejected():
    with pytest.raises(DlgpError):
        parse_document("__p(X) :- q(X).\n")
    with pytest.raises(DlgpError):
        parse_document("p(_X) :- q(_X).\n")


def test_arity_conflict_reported_with_position():
    with pytest.raises(DlgpError) as e:
        parse_document("p(X) :- q(X).\np(X,Y) :- q(X).\n")
    assert "arities" in str(e.value)
    assert e.value.span is not None and e.value.span.line == 2


def test_facts_cannot_carry_label():
    with pytest.raises(DlgpError):
        parse_document("[f] p(a).\n")


def test_syntax_error_position():
    with pytest.raises(DlgpError) as e:
        parse_document("p(X) :- q(X)\n")
    assert e.value.span is not None


@pytest.mark.parametrize("text, message", [
    ("p(,X) :- q(X).", "expected a term, found ',' at 1:3"),
    ("X(a).", "expected a predicate, found 'X' at 1:1"),
    ("[?] p(X) :- q(X).", "expected a rule label, found '?' at 1:2"),
    ("p(X) q(X).", "expected '.' or ':-', found 'q' at 1:6"),
    # a ',' must be followed by another item in each comma-separated list
    ("p(X,) :- q(X).", "expected a term, found ')' at 1:5"),
    ("p(X), :- q(X).", "expected a predicate, found ':-' at 1:7"),
    ("?(X,) :- p(X).", "expected a term, found ')' at 1:5"),
    ("? :- p(X),", "unexpected end of input at 1:10"),
])
def test_parse_error_message_and_position(text, message):
    with pytest.raises(DlgpError) as e:
        parse_document(text)
    assert str(e.value) == message


def test_unexpected_character():
    with pytest.raises(DlgpError):
        parse_document("p(X) := q(X).\n")


def test_query_serialization_is_canonical():
    q1 = cq(atom("p", var("U"), var("V")), atom("r", var("U")))
    q2 = cq(atom("p", var("A"), var("B")), atom("r", var("A")))
    assert query_to_dlgp(q1) == query_to_dlgp(q2)
    assert query_to_dlgp(q1) == "? :- p(X0,X1), r(X0)."
    vs = [var(f"V{i}") for i in range(11)]
    chain = cq(*(atom("r", vs[i], vs[i + 1]) for i in range(10)),
               answer_vars=(vs[10], const("a")))
    assert query_to_dlgp(chain) == (
        "?(X00,a) :- r(X01,X02), r(X02,X04), r(X03,X00), r(X04,X06), r(X05,X03), "
        "r(X06,X08), r(X07,X05), r(X08,X10), r(X09,X07), r(X10,X09).")


def test_round_trip_document():
    for name in ("simple_existential.dlgp", "two_rule_loop.dlgp",
                 "diamond_chain.dlgp", "simple_existential_facts.dlgp"):
        doc = parse_document(load(name))
        text = document_to_dlgp(doc)
        doc2 = parse_document(text)
        assert {r.label for r in doc2.rules} == {r.label for r in doc.rules}
        assert doc2.fact_atoms() == doc.fact_atoms()
        assert len(doc2.queries) == len(doc.queries)
        # serialization is a fixpoint after one pass
        assert document_to_dlgp(doc2) == text


def test_json_rules_parse_back():
    multi_head = "[m] p(X,Y), s(Y,c) :- q(X), r(X,d).\n"
    for text in (load("two_rule_loop.dlgp"), load("ternary_fold.dlgp"), multi_head):
        doc = parse_document(text)
        rules = json.loads(serialize(doc, "json"))["rules"]
        assert rules == document_to_dlgp(doc).splitlines()[:len(doc.rules)]
        assert parse_document("\n".join(rules)).rules == doc.rules


def test_round_trip_mixed_case_variable():
    doc = parse_document("p(Xab,Y) :- q(Xab).\n")
    text = document_to_dlgp(doc)
    doc2 = parse_document(text)
    assert doc2.rules[0].body == doc.rules[0].body


def test_serialize_result_json_schema():
    from ucqrewrite.rewriting import RewritingResult

    q = cq(atom("p", var("U")))
    res = RewritingResult(cover={q}, generated_count=3, explored_count=2,
                          depth_reached=1, terminated=True)
    payload = json.loads(serialize(res, "json"))
    assert payload["cover"] == ["? :- p(X0)."]
    assert payload["stats"] == {"generated": 3, "output": 1, "depth": 1,
                                "terminated": True}
    with pytest.raises(ValueError):
        serialize(res, "xml")


ARITY = {"p": 1, "r": 2, "s": 3}


@st.composite
def wide_queries(draw):
    """Queries with 11-14 variables, constants and answer terms."""
    vs = [var(f"V{i}") for i in range(draw(st.integers(11, 14)))]
    terms = st.sampled_from(vs + [const("a"), const("b")])
    atoms = {atom("r", v, draw(terms)) for v in vs}  # every variable occurs
    for _ in range(draw(st.integers(0, 6))):
        pred = draw(st.sampled_from(sorted(ARITY)))
        atoms.add(atom(pred, *(draw(terms) for _ in range(ARITY[pred]))))
    answer = draw(st.lists(st.sampled_from(vs + [const("a")]), max_size=3))
    return cq(*atoms, answer_vars=tuple(answer))


@settings(max_examples=100, deadline=None)
@given(wide_queries(), st.lists(st.integers(0, 10**6), min_size=14, max_size=14, unique=True))
def test_query_serialization_ignores_names_and_is_a_fixpoint(q, indices):
    text = query_to_dlgp(q)
    vs = sorted(q.variables())
    rename = {v: var("Z", i) for v, i in zip(vs, indices)}
    renamed = cq(*(atom(a.predicate, *(rename.get(t, t) for t in a.args)) for a in q.atoms),
                 answer_vars=tuple(rename.get(t, t) for t in q.answer_vars))
    assert query_to_dlgp(renamed) == text
    assert query_to_dlgp(parse_document(text).queries[0]) == text
    assert {len(i) for i in re.findall(r"\bX(\d+)", text)} == {2}


def _multi_head_result():
    """A run with answer variables and a two-atom head, as written."""
    doc = parse_document("[r1] p(X,Y), s(Y) :- q(X).\n?(U) :- p(U,V), s(V).\n")
    return rewrite(attach_answer_atom(doc.queries[0]), doc.rules,
                   make_operator("aggregated"), Limits())


def test_serialized_result_parses_back_without_internal_atoms():
    res = _multi_head_result()
    text = serialize(res, "dlgp")
    assert "__aux_" not in text and "__ans" not in text
    assert text.splitlines() == ["?(X0) :- p(X0,X1), s(X1).", "?(X0) :- q(X0)."]
    assert [query_to_dlgp(q) for q in parse_document(text).queries] == text.splitlines()
    payload = json.loads(serialize(res, "json"))
    assert payload["cover"] == text.splitlines()
    assert payload["stats"]["output"] == len(payload["cover"]) == 2
