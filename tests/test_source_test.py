"""The loop's source test: a fresh rewriting that its explored query maps into
is dropped before the cover, which would drop it too.  So the operator that
gives the loop its unifiers rewrites exactly as the same operator wrapped as a
plain function, whose rewritings skip the test."""
import random
from pathlib import Path

import pytest

from ucqrewrite import Limits, kb, make_operator, more_general, parse_document, rewrite
from ucqrewrite.kb import attach_answer_atom
from ucqrewrite.rewriting import OPERATOR_KINDS, maps_into_rewriting

from conftest import DATA, random_linear_rules, random_multi_head_instance, random_query

BUNDLED = Path(kb.__file__).parent / "data"
LIMITS = Limits(max_depth=6, max_generated=3000, timeout=None)


def bundled_inputs():
    rules = parse_document((BUNDLED / "ontology.dlgp").read_text()).rules
    queries = parse_document((BUNDLED / "queries.dlgp").read_text()).queries
    return [(f"bundled q{i}", rules, q) for i, q in enumerate(queries, 1)]


def data_inputs():
    out = []
    for path in sorted(DATA.glob("*.dlgp")):
        doc = parse_document(path.read_text())
        out += [(path.name, doc.rules, q) for q in doc.queries]
    return out


def random_inputs():
    rng = random.Random(3301)
    out = []
    for i in range(100):
        rules, q = random_multi_head_instance(rng)
        out.append((f"multi-head #{i}", rules, q))
    for i in range(100):
        rules = random_linear_rules(rng, rng.randint(1, 5), n_preds=4, max_arity=3)
        out.append((f"linear #{i}", rules, random_query(rng, rules, max_atoms=4)))
    return out


def outcome(rules, q, op):
    try:
        res = rewrite(attach_answer_atom(q), rules, op, LIMITS)
    except ValueError as e:  # the full-piece oracle's size caps refuse both alike
        return str(e)
    return (list(res.cover), res.generated_count, res.explored_count, res.depth_reached,
            res.terminated)


def plain(op):
    return lambda q, rules: op(q, rules)


@pytest.mark.parametrize("inputs", [bundled_inputs, data_inputs, random_inputs])
@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_the_source_test_leaves_every_cover_and_count_as_the_plain_operator_gives(inputs, kind):
    op = make_operator(kind)
    for label, rules, q in inputs():
        assert outcome(rules, q, op) == outcome(rules, q, plain(op)), label


def test_every_rewriting_the_source_test_drops_is_one_its_source_maps_into():
    dropped = 0
    for label, rules, q in data_inputs() + random_inputs():
        op = make_operator("aggregated")
        frontier = [attach_answer_atom(q)]
        for _ in range(3):  # three levels of un-pruned one-step rewriting
            nxt = []
            for cur in frontier:
                source, steps = op.steps(cur, rules)
                for mu, x in steps:
                    if maps_into_rewriting(source, mu, x):
                        dropped += 1
                        assert more_general(source, x), (label, str(x))
                    nxt.append(x)
            frontier = nxt[:20]
    assert dropped > 0


def test_the_operator_call_is_its_steps_rewritings():
    doc = parse_document((DATA / "diamond_chain.dlgp").read_text())
    op = make_operator("aggregated")
    q = attach_answer_atom(doc.queries[0])
    source, steps = op.steps(q, doc.rules)
    assert source == q
    assert op(q, doc.rules) == [x for _, x in steps]
    assert all(mu is not None for mu, _ in steps)


@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_the_loop_invariants_hold_with_the_source_test(kind):
    doc = parse_document((DATA / "diamond_chain.dlgp").read_text())
    rewrite(doc.queries[0], doc.rules, make_operator(kind), debug_invariants=True)
    if kind == "aggregated":
        for _, rules, q in bundled_inputs():
            rewrite(q, rules, make_operator(kind), debug_invariants=True)
