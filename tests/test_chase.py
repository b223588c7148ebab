"""Bounded restricted chase and the freeze-and-chase verification harness."""
import random

import pytest

from ucqrewrite import (
    Limits,
    atom,
    attach_answer_atom,
    chase,
    check_one_step_soundness,
    const,
    cq,
    entails,
    freeze_query,
    make_operator,
    rewrite,
    rule,
    var,
    verify_rewriting_set,
)
from ucqrewrite.chase import random_ground_atoms

x, y, z, u, v, w = (var(n) for n in "xyzuvw")
a, b, c = const("a"), const("b"), const("c")


def test_chase_fires_rule_once():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    st = chase([atom("q", a)], [r], max_rank=3)
    p_atoms = [at for at in st.atoms if at.predicate == "p"]
    assert len(p_atoms) == 1
    assert p_atoms[0].args[0] == a
    assert p_atoms[0].args[1].name.startswith("__n")


def test_restricted_chase_reuses_existing_witness():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    st = chase([atom("q", a), atom("p", a, b)], [r], max_rank=3)
    # p(a,b) already satisfies the head: no null introduced
    assert st.null_count == 0


def test_partly_present_head_keeps_the_old_atom_rank():
    r = rule("r", [atom("q", x)], [atom("p", x), atom("s", x, y)])
    st = chase([atom("q", a), atom("p", a)], [r], max_rank=3)
    (s_atom,) = [at for at in st.atoms if at.predicate == "s"]
    assert st.rank[atom("p", a)] == 0
    assert st.rank[s_atom] == 1
    assert len(st.atoms) == 3


def test_chase_respects_rank_bound():
    r = rule("r", [atom("p", x, y)], [atom("p", y, z)])
    st = chase([atom("p", a, b)], [r], max_rank=2)
    assert max(st.rank.values()) <= 2
    assert len(st.atoms) == 3


def test_chase_rejects_negative_rank():
    with pytest.raises(ValueError):
        chase([], [], max_rank=-1)


def test_entailment_positive_and_unknown():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    q = cq(atom("p", u, v), atom("p", w, v), atom("r", u, w))
    # q(a), p(b,c), r(a,b): the fresh witness cannot merge with p(b,c)
    facts = [atom("q", a), atom("p", b, c), atom("r", a, b)]
    # the chase reaches a fixpoint here, so the negative answer is definitive
    assert entails(facts, [r], q, 4).value == "no"
    assert entails(facts, [r], q, 0).value == "unknown_at_bound"
    # q(a), r(a,a): p(a,w) witnesses both query atoms
    assert entails([atom("q", a), atom("r", a, a)], [r], q, 4).is_yes


def test_entailment_on_fact_variables():
    # fact existentials are frozen to nulls and can witness the query
    q = cq(atom("p", u, v))
    verdict = entails([atom("p", x, y)], [], q, 0)
    assert verdict.is_yes


def test_freeze_query_is_deterministic_and_ground():
    q = cq(atom("p", u, v), atom("r", u, a))
    f1, f2 = freeze_query(q), freeze_query(q)
    assert f1 == f2
    assert all(t.is_constant for at in f1 for t in at.args)


def test_one_step_soundness_accepts_true_rewriting():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    q = cq(atom("p", u, v), atom("p", w, v), atom("r", u, w))
    rw = cq(atom("q", x), atom("r", x, x))
    assert check_one_step_soundness(q, rw, [r])


def test_one_step_soundness_rejects_bogus_rewriting():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    q = cq(atom("p", u, v), atom("p", w, v), atom("r", u, w))
    bogus = cq(atom("q", x))  # drops the r-atom: not sound
    assert not check_one_step_soundness(q, bogus, [r])


def test_random_ground_atoms_shape():
    rng = random.Random(0)
    facts = random_ground_atoms({"p": 2, "q": 1}, 8, 3, rng)
    assert 0 < len(facts) <= 8
    for at in facts:
        assert all(t.is_constant for t in at.args)


def test_verify_rewriting_set_clean_run():
    r1 = rule("r1", [atom("t", x), atom("p", x, y)], [atom("r", y)])
    r2 = rule("r2", [atom("r", x), atom("p", x, y)], [atom("t", y)])
    q = cq(atom("t", u))
    res = rewrite(q, [r1, r2], make_operator("aggregated"))
    report = verify_rewriting_set(q, [r1, r2], res, samples=15, seed=1)
    assert report["sound"] and report["minimal"]
    assert report["complete_sampled"] is True
    assert report["counterexamples"] == []


def test_verify_detects_missing_rewriting():
    from ucqrewrite.rewriting import RewritingResult

    r1 = rule("r1", [atom("t", x), atom("p", x, y)], [atom("r", y)])
    r2 = rule("r2", [atom("r", x), atom("p", x, y)], [atom("t", y)])
    q = cq(atom("t", u))
    incomplete = RewritingResult(cover={q}, depth_reached=1, terminated=True)
    report = verify_rewriting_set(
        q, [r1, r2], incomplete, samples=0, seed=1,
        extra_facts=[frozenset({atom("r", a), atom("p", a, b)})],
    )
    assert report["complete_sampled"] is False
    assert report["counterexamples"]


def test_verify_skips_completeness_when_guard_fired():
    from ucqrewrite.rewriting import RewritingResult

    q = cq(atom("t", u))
    res = RewritingResult(cover={q}, terminated=False)
    report = verify_rewriting_set(q, [], res, samples=3)
    assert report["complete_sampled"] is None
