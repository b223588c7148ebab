"""Acceptance gate: nine end-to-end criteria, one pass/fail line each.

Each test prints "ACCEPTANCE <n> (<name>): PASS" on success; a failure
raises with the usual pytest diagnostics.
"""
import json
import random
import time
from importlib import resources

import pytest

from ucqrewrite import (
    ConjunctiveQuery,
    Limits,
    PieceUnifier,
    TermPartition,
    atom,
    attach_answer_atom,
    canonicalize,
    check_one_step_soundness,
    const,
    cq,
    entails,
    equivalent,
    find_homomorphism,
    general_piece_unifiers,
    isomorphic,
    make_operator,
    more_general,
    parse_document,
    rewrite,
    rule,
    saturate,
    single_piece_unifiers,
    var,
)
from ucqrewrite.rewriting import beta
from ucqrewrite.unification import enumerate_aggregated

from conftest import load, random_facts, random_linear_rules, random_query

x, y, z, t, u, v, w = (var(n) for n in "xyztuvw")


def report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def fingerprint(mus):
    return {(m.q_part, m.h_part, m.partition.classes) for m in mus}


def covers_of(res):
    return {canonicalize(q) for q in res.cover}


ALL_EMITTED = []  # (original query, rules, emitted query) for criterion 8


def run_and_record(q, rules, kind, limits=None, **kw):
    res = rewrite(q, rules, make_operator(kind), limits, **kw)
    if res.terminated:
        for out in res.cover:
            ALL_EMITTED.append((q, tuple(rules), out))
    return res


def test_acceptance_1_worked_examples():
    start = time.monotonic()

    # single existential rule: the glued pair unifies as one piece
    doc = parse_document(load("simple_existential.dlgp"))
    (r1,) = doc.rules
    q1 = doc.queries[0]
    mus = general_piece_unifiers(q1, r1)
    pair = [m for m in mus if len(m.q_part) == 2]
    assert len(pair) == 1
    assert pair[0].partition.classes == {
        frozenset({var("U"), var("W"), var("X")}),
        frozenset({var("V"), var("Y")}),
    }
    assert canonicalize(beta(q1, pair[0])) == canonicalize(cq(atom("q", x), atom("r", x, x)))
    # the stated fact base does not entail the query
    facts = frozenset().union(*parse_document(load("simple_existential_facts.dlgp")).facts)
    assert not entails(facts, [r1], q1, 4).is_yes

    # two-rule loop: infinitely many rewritings, cover of cardinality 2
    doc = parse_document(load("two_rule_loop.dlgp"))
    res = run_and_record(doc.queries[0], doc.rules, "aggregated")
    assert res.terminated
    assert covers_of(res) == {
        canonicalize(cq(atom("t", u))),
        canonicalize(cq(atom("r", x), atom("p", x, y))),
    }

    # shared witness query: exactly three piece-unifiers
    doc = parse_document(load("shared_witness.dlgp"))
    (r5,) = doc.rules
    q5 = doc.queries[0]
    U, V, W, T, X, Y = (var(n) for n in "UVWTXY")
    assert fingerprint(general_piece_unifiers(q5, r5)) == {
        (frozenset({atom("p", U, V), atom("p", W, V)}),
         frozenset({atom("p", X, Y)}),
         frozenset({frozenset({U, W, X}), frozenset({V, Y})})),
        (frozenset({atom("p", W, T)}),
         frozenset({atom("p", X, Y)}),
         frozenset({frozenset({W, X}), frozenset({T, Y})})),
        (frozenset({atom("p", U, V), atom("p", W, V), atom("p", W, T)}),
         frozenset({atom("p", X, Y)}),
         frozenset({frozenset({U, W, X}), frozenset({T, V, Y})})),
    }

    # aggregation example: the two one-atom unifiers merge over rule copies
    doc = parse_document(load("pair_merge.dlgp"))
    (ra,) = doc.rules
    qa = doc.queries[0]
    aggs = enumerate_aggregated(qa, ra)
    assert sorted(len(a.members) for a in aggs) == [1, 1, 2]
    two = next(a for a in aggs if len(a.members) == 2)
    got = beta(qa, two)
    want = canonicalize(cq(atom("p", x, y), atom("p", var("x2"), var("y2")),
                           atom("r", var("y2"), y)))
    assert equivalent(got, want) and len(got.atoms) == 3

    # atomic-head algorithm: chained pair admits exactly one unifier
    doc = parse_document(load("chained_pair.dlgp"))
    (rc,) = doc.rules
    qc = doc.queries[0]
    mus = single_piece_unifiers(qc, rc)
    assert fingerprint(mus) == {
        (frozenset({atom("p", V, T)}),
         frozenset({atom("p", X, Y)}),
         frozenset({frozenset({V, X}), frozenset({T, Y})})),
    }

    assert time.monotonic() - start < 1.0
    report(1, "worked-example golden suite")


def test_acceptance_2_non_prunability_regressions():
    start = time.monotonic()

    def compare_ops(name, target):
        doc = parse_document(load(name))
        q = doc.queries[0]
        sp = run_and_record(q, doc.rules, "single-piece")
        ag = run_and_record(q, doc.rules, "aggregated")
        assert sp.terminated and ag.terminated
        tgt = canonicalize(target)
        assert not any(equivalent(c, tgt) for c in sp.cover), name
        assert any(equivalent(c, tgt) for c in ag.cover), name

    compare_ops("loop_self.dlgp", cq(atom("r", x, x)))
    compare_ops("ternary_fold.dlgp", cq(atom("p", x, y)))
    compare_ops("diamond_chain.dlgp",
                cq(atom("r", x, x), atom("p1", x), atom("p2", x), atom("b", x)))

    assert time.monotonic() - start < 1.0
    report(2, "single-piece pruning misses, aggregation recovers")


def test_acceptance_3_rewriting_vs_chase_on_random_instances():
    start = time.monotonic()
    rng = random.Random(42)
    discrepancies = 0
    checked = 0
    # the chase's own verdicts: an unknown is agreement without a decision
    verdicts = {"yes": 0, "no": 0, "unknown_at_bound": 0}
    for i in range(500):
        rules = random_linear_rules(rng, rng.randint(1, 6), n_preds=4, max_arity=3)
        q = random_query(rng, rules, max_atoms=5, n_vars=4)
        facts = random_facts(rng, rules, max_atoms=12, n_consts=4)
        res = rewrite(q, rules, make_operator("aggregated"),
                      Limits(max_generated=4000, timeout=5))
        if not res.terminated:
            continue
        checked += 1
        match = next(
            (c for c in res.cover if find_homomorphism(c.atoms, facts) is not None),
            None,
        )
        by_rewriting = match is not None
        rank = 2 * res.depth_reached + 2
        verdict = entails(facts, rules, q, rank, max_atoms=500)
        verdicts[verdict.value] += 1
        by_chase = verdict.is_yes
        if by_rewriting and verdict.value == "unknown_at_bound":
            # the direct chase hit its bound; a sound matching cover element
            # certifies the positive answer through a much smaller chase
            by_chase = check_one_step_soundness(q, match, rules, max_rank=rank)
        if by_rewriting != by_chase:
            discrepancies += 1
        if i % 20 == 0:
            for c in res.cover:
                ALL_EMITTED.append((q, tuple(rules), c))
    assert discrepancies == 0
    assert checked >= 400
    assert sum(verdicts.values()) == checked
    assert time.monotonic() - start < 60
    report(3, f"rewriting vs chase agreement on {checked} random instances; chase "
              f"yes/no/unknown_at_bound {'/'.join(map(str, verdicts.values()))}")


def test_acceptance_4_aggregated_operator_is_prunable():
    start = time.monotonic()
    rng = random.Random(7)
    violations = 0
    pairs = 0
    while pairs < 1000:
        rules = random_linear_rules(rng, rng.randint(1, 3), n_preds=3, max_arity=2)
        q2 = random_query(rng, rules, max_atoms=4, n_vars=3)
        # build Q1 >= Q2 by removing atoms or merging variables in reverse
        q1_atoms = {a for a in q2.atoms if rng.random() < 0.7} or set(q2.atoms)
        q1 = ConjunctiveQuery(frozenset(q1_atoms), ())
        if not more_general(q1, q2):
            continue
        pairs += 1
        op = make_operator("aggregated")
        cover1 = [canonicalize(q1)] + [canonicalize(r) for r in op(q1, rules)]
        for r2 in op(q2, rules):
            rq = canonicalize(r2)
            if not any(more_general(c, rq) for c in cover1):
                violations += 1
    assert violations == 0
    assert time.monotonic() - start < 60
    report(4, "aggregated one-step rewritings of the less general query stay covered")


def test_acceptance_5_minimality_and_determinism():
    rng = random.Random(19)
    checked = 0
    while checked < 100:
        rules = random_linear_rules(rng, rng.randint(1, 4), n_preds=3, max_arity=2)
        q = random_query(rng, rules, max_atoms=3, n_vars=3)
        limits = Limits(max_generated=2000, timeout=5)
        ra = rewrite(q, rules, make_operator("aggregated"), limits)
        rf = rewrite(q, rules, make_operator("full-piece"), limits)
        if not (ra.terminated and rf.terminated):
            continue
        checked += 1
        # equal cardinality, pairwise-equivalent elements
        assert len(ra.cover) == len(rf.cover)
        for qa in ra.cover:
            assert sum(1 for qf in rf.cover if equivalent(qa, qf)) == 1
        if checked % 5 == 0:
            # run-order determinism: shuffled rule order, same core-reduced output
            shuffled = rules[:]
            rng.shuffle(shuffled)
            rb = rewrite(q, shuffled, make_operator("aggregated"), limits)
            assert len(rb.cover) == len(ra.cover)
            for qa in ra.cover:
                assert any(isomorphic(canonicalize(qa), canonicalize(qb))
                           for qb in rb.cover)
            for c in ra.cover:
                ALL_EMITTED.append((q, tuple(rules), c))
    report(5, "full-piece and aggregated covers agree on 100 instances")


def test_acceptance_6_loop_invariants_hold():
    # golden suite
    for name in ("simple_existential.dlgp", "two_rule_loop.dlgp",
                 "shared_witness.dlgp", "loop_self.dlgp", "ternary_fold.dlgp",
                 "diamond_chain.dlgp", "pair_merge.dlgp", "chained_pair.dlgp"):
        doc = parse_document(load(name))
        for kind in ("single-piece", "aggregated"):
            rewrite(doc.queries[0], doc.rules, make_operator(kind),
                    debug_invariants=True)
    # random suite
    rng = random.Random(23)
    done = 0
    while done < 25:
        rules = random_linear_rules(rng, rng.randint(1, 4), n_preds=3, max_arity=2)
        q = random_query(rng, rules, max_atoms=3, n_vars=3)
        res = rewrite(q, rules, make_operator("aggregated"),
                      Limits(max_generated=1500, timeout=5),
                      debug_invariants=True)
        done += res.terminated
    report(6, "breadth-first loop invariants clean under --debug-invariants")


def test_acceptance_7_single_piece_closure_covers_bounded_depth():
    # a unifier with k pieces unfolds into at most k single-piece steps, so
    # depth-d rewritings are covered by the closure at depth d * max_pieces
    rng = random.Random(31)
    checked = 0
    violations = 0
    while checked < 100:
        rules = random_linear_rules(rng, rng.randint(1, 3), n_preds=3, max_arity=2)
        q = random_query(rng, rules, max_atoms=3, n_vars=3)
        d = rng.randint(1, 3)
        full = saturate(q, rules, make_operator("full-piece"), d)
        max_atoms = max(len(fq.atoms) for fq in full) if full else 1
        sp = saturate(q, rules, make_operator("single-piece"),
                      d * max(max_atoms, len(q.atoms)))
        checked += 1
        for fq in full:
            if not any(more_general(s, fq) for s in sp):
                violations += 1
    assert violations == 0
    report(7, "un-pruned single-piece closure covers full-piece rewritings to depth 3")


def test_acceptance_8_every_emitted_query_is_sound():
    assert ALL_EMITTED, "earlier acceptance tests must record emitted queries"
    failures = 0
    for original, rules, out in ALL_EMITTED:
        if not check_one_step_soundness(original, out, list(rules), max_rank=4):
            failures += 1
    assert failures == 0
    report(8, f"freeze-and-chase soundness of all {len(ALL_EMITTED)} emitted queries")


def test_acceptance_9_bundled_ontology_statistics_match_baselines():
    data = resources.files("ucqrewrite") / "data"
    rules = parse_document((data / "ontology.dlgp").read_text()).rules
    queries = parse_document((data / "queries.dlgp").read_text()).queries
    baselines = json.loads((data / "baselines.json").read_text())
    assert len(rules) == 50
    hierarchy = [r for r in rules if len(r.body) == 1 and len(r.head) == 1
                 and not r.existentials
                 and next(iter(r.head)).arity == next(iter(r.body)).arity]
    assert len(hierarchy) >= 30
    assert len(queries) == len(baselines) == 4
    for q, base in zip(queries, baselines):
        for op in ("single-piece", "aggregated"):
            res = rewrite(attach_answer_atom(q), rules, make_operator(op), Limits())
            assert res.terminated
            got = {"generated": res.generated_count, "output": len(res.cover),
                   "depth": res.depth_reached}
            assert got == base[op], (base["query"], op)
            assert got["generated"] >= got["output"]
    report(9, "bundled ontology statistics reproduce the recorded baselines")
