"""Bounded restricted chase and the freeze-and-chase verification harness."""
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ucqrewrite
from ucqrewrite import (
    ChaseState,
    Limits,
    atom,
    attach_answer_atom,
    chase,
    check_one_step_soundness,
    const,
    cq,
    entails,
    make_operator,
    rewrite,
    rule,
    var,
    verify_rewriting_set,
)
from ucqrewrite.chase import random_ground_atoms
from ucqrewrite.kb import ANS_PREDICATE, NULL_PREFIX, Atom, ConjunctiveQuery, apply_to_atom, vars_of

from conftest import reference_homomorphisms

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


def test_entails_rejects_negative_rank():
    with pytest.raises(ValueError, match="max_rank"):
        entails([atom("p", a)], [], cq(atom("p", u)), -1)


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


def test_fresh_nulls_do_not_collide_with_the_nulls_of_the_facts():
    n0, n4 = const(f"{NULL_PREFIX}0"), const(f"{NULL_PREFIX}4")
    r = rule("r", [atom("p", x)], [atom("r", x, y)])
    facts = [atom("p", a), atom("r", a, n0), atom("p", b)]
    # r(b,V) needs a null of its own: were it __n0, r(a,__n0) would meet it
    assert entails(facts, [r], cq(atom("r", a, v), atom("r", b, v)), 3).value == "no"
    assert ChaseState([atom("r", a, n4), atom("p", x)]).fresh_null() == const(f"{NULL_PREFIX}6")
    # a fact base that verify samples is a chase prefix, and holds such nulls
    s_rule = rule("s", [atom("s", x)], [atom("p", x)])
    q = cq(atom("r", const("c0"), v), atom("r", const("c1"), v))
    res = rewrite(q, [r, s_rule], make_operator("aggregated"))
    for seed in (0, 2, 3):
        report = verify_rewriting_set(q, [r, s_rule], res, seed=seed)
        assert report["complete_sampled"] is True, report["counterexamples"]


def test_verify_checks_the_answers_of_a_non_boolean_query():
    from ucqrewrite.rewriting import RewritingResult

    r = rule("r1", [atom("q", x)], [atom("p", x, y)])
    q = attach_answer_atom(cq(atom("p", u, v), answer_vars=(u,)))
    full = rewrite(q, [r], make_operator("aggregated"))
    assert len(full.cover) == 2
    facts = [frozenset({atom("q", a)})]
    report = verify_rewriting_set(q, [r], full, samples=0, extra_facts=facts)
    assert report["complete_sampled"] is True
    # the cover without ?(X0) :- q(X0) misses the answer a on q(a)
    partial = RewritingResult(cover={q}, depth_reached=1, terminated=True)
    report = verify_rewriting_set(q, [r], partial, samples=0, extra_facts=facts)
    assert report["complete_sampled"] is False
    assert report["counterexamples"] == [["q(a)"]]
    # an answer that holds a null the chase made is not a certain answer
    r_null = rule("r2", [atom("q", x)], [atom("p", y, x)])
    q_null = attach_answer_atom(cq(atom("p", u, v), answer_vars=(u,)))
    report = verify_rewriting_set(q_null, [r_null], RewritingResult(
        cover={q_null}, depth_reached=1, terminated=True), samples=0, extra_facts=facts)
    assert report["complete_sampled"] is True


def test_verify_samples_no_answer_facts(monkeypatch):
    from ucqrewrite.rewriting import RewritingResult

    module = sys.modules["ucqrewrite.chase"]
    drawn = []
    draw = module.random_ground_atoms

    def recording(predicates, *args):
        drawn.append((predicates, draw(predicates, *args)))
        return drawn[-1][1]

    monkeypatch.setattr(module, "random_ground_atoms", recording)
    r = rule("r1", [atom("q", x)], [atom("p", x, y)])
    q = attach_answer_atom(cq(atom("p", u, v), answer_vars=(u,)))
    verify_rewriting_set(q, [r], RewritingResult(cover={q}, depth_reached=1, terminated=True),
                         samples=30, seed=0)
    # the predicates are the rules' and the query body's, never the answer atom's
    assert len(drawn) == 30
    assert all(set(preds) == {"p", "q"} for preds, _ in drawn)
    assert not any(at.predicate == ANS_PREDICATE for _, facts in drawn for at in facts)


def test_verify_matches_a_cover_query_only_against_the_answer_under_test():
    from ucqrewrite.rewriting import RewritingResult

    r = rule("r1", [atom("q", x)], [atom("p", x, y)])
    q = attach_answer_atom(cq(atom("p", u, v), answer_vars=(u,)))
    # the cover without ?(X0) :- q(X0): the answer a on q(a) is missed, and
    # the answer fact __ans(b) of the fact base must not stand in for it
    partial = RewritingResult(cover={q}, depth_reached=1, terminated=True)
    facts = frozenset({atom("q", a), atom(ANS_PREDICATE, b), atom("p", b, c)})
    report = verify_rewriting_set(q, [r], partial, samples=0, extra_facts=[facts])
    assert report["complete_sampled"] is False
    assert report["counterexamples"] == [["__ans(b)", "p(b,c)", "q(a)"]]


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


def test_verify_marks_an_unentailed_rewriting_unsound():
    from ucqrewrite.rewriting import RewritingResult

    r = rule("r", [atom("s", x)], [atom("t", x)])
    q = cq(atom("t", u))
    res = RewritingResult(cover={q, cq(atom("p", u))}, terminated=True)
    report = verify_rewriting_set(q, [r], res, samples=0)
    assert report["sound"] is False
    assert [e["sound"] for e in report["rewritings"]] == [False, True]
    assert report["rewritings"][0]["query"] == "? :- p(X0)."


def test_verify_skips_completeness_when_guard_fired():
    from ucqrewrite.rewriting import RewritingResult

    q = cq(atom("t", u))
    res = RewritingResult(cover={q}, terminated=False)
    report = verify_rewriting_set(q, [], res, samples=3)
    assert report["complete_sampled"] is None


def test_verify_reports_comparable_cover_as_not_minimal():
    from ucqrewrite.rewriting import RewritingResult

    q = cq(atom("t", u))
    res = RewritingResult(cover={q, cq(atom("t", u), atom("p", u, u))}, terminated=False)
    assert verify_rewriting_set(q, [], res, samples=0)["minimal"] is False


def test_join_trigger_with_a_late_atom_fires_in_the_next_round():
    join = rule("join", [atom("p", x, y), atom("q", y)], [atom("r", x)])
    up = rule("up", [atom("t", x)], [atom("u", x)])
    down = rule("down", [atom("u", x)], [atom("q", x)])
    facts = [atom("p", a, b), atom("t", b)]
    st2 = chase(facts, [join, up, down], max_rank=2)
    assert st2.rank[atom("q", b)] == 2
    assert atom("r", a) not in st2.atoms
    st3 = chase(facts, [join, up, down], max_rank=3)
    assert st3.rank[atom("r", a)] == 3


HASH_PROBE = """
from ucqrewrite import atom, chase, const, rule, var
a, b, c, d = (const(n) for n in "abcd")
rules = [rule(f"r{i}", [atom("p", var(f"X{i}"), var(f"Y{i}")), atom("q", var(f"Y{i}"))],
              [atom(f"s{i}", var(f"X{i}"), var(f"E{i}"), var(f"F{i}"))]) for i in range(4)]
st = chase([atom("p", a, d), atom("p", c, b), atom("q", b), atom("q", d)], rules, 2)
print(sorted(f"{at}@{st.rank[at]}" for at in st.atoms))
"""


def test_null_numbering_does_not_follow_the_hash_seed():
    # Two existentials per head, and two-atom bodies whose atoms tie on
    # candidates: the order of either set decides which trigger gets which nulls.
    src = str(Path(ucqrewrite.__file__).resolve().parent.parent)
    printed = []
    for seed in ("0", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", HASH_PROBE], env=env,
                              capture_output=True, text=True, check=True)
        printed.append(proc.stdout)
    assert printed[0] == printed[1]
    assert "__n5" in printed[0]


SEED_PROBE = """
from ucqrewrite import atom, chase, const, rule, var
X, Y, E = var("X"), var("Y"), var("E")
rules = [rule("up", [atom("p", X, Y)], [atom("s", Y, E)]),
         rule("back", [atom("s", X, Y)], [atom("p", Y, X)])]
facts = [atom("p", const(f"a{i}"), const(f"b{i % 3}")) for i in range(12)]
print(hash(X), hash(atom("p", X, const("a"))))
print([f"{at}@{r}" for at, r in chase(facts, rules, 3).rank.items()])
"""


def test_a_fixed_hash_seed_fixes_hashes_and_chase_order():
    # Unsorted on purpose: the facts enter the chase through a set, so the
    # instance's insertion order follows the atoms' hashes.
    src = str(Path(ucqrewrite.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    printed = [subprocess.run([sys.executable, "-c", SEED_PROBE], env=env, capture_output=True,
                              text=True, check=True).stdout for _ in range(2)]
    assert printed[0] == printed[1]
    assert "__n" in printed[0]


def reference_find(source, target):
    return next(reference_homomorphisms(source, target), None)


# The oracle: a chase round with no index and no skipped triggers.  Every
# trigger of the round-start instance gets a restricted check against the
# whole instance.  Triggers and nulls come in the same order as in ``chase``.
# It matches with the reference matcher, not the package's own.
def naive_round(atoms, rank_of, rules, rank, nulls):
    added = False
    snapshot = frozenset(atoms)
    for r in rules:
        for h in reference_homomorphisms(sorted(r.body), snapshot):
            trigger = sorted(apply_to_atom(h, at) for at in r.head)
            if reference_find(trigger, atoms) is not None:
                continue
            ex_map = {}
            for e in sorted(r.existentials):
                ex_map[e] = const(f"{NULL_PREFIX}{len(nulls)}")
                nulls.append(ex_map[e])
            for at in trigger:
                grounded = Atom(at.predicate, tuple(ex_map.get(t, t) for t in at.args))
                if grounded not in atoms:
                    atoms.add(grounded)
                    rank_of[grounded] = rank
                    added = True
    return added


def naive_chase(facts, rules, max_rank):
    atoms, nulls = set(facts), []
    rank_of = {at: 0 for at in atoms}
    for r in range(1, max_rank + 1):
        if not naive_round(atoms, rank_of, rules, r, nulls):
            break
    return rank_of, len(nulls)


def naive_entails(facts, rules, q, max_rank, max_atoms):
    atoms, nulls = set(facts), []
    rank_of = {at: 0 for at in atoms}
    for r in range(max_rank + 1):
        if reference_find(q.atoms, atoms) is not None:
            return "yes", r
        if len(atoms) > max_atoms or r == max_rank:
            return "unknown_at_bound", r
        if not naive_round(atoms, rank_of, rules, r + 1, nulls):
            return "no", r


ARITY = {"p": 2, "q": 1, "r": 2}
E, F = var("E"), var("F")


def atom_over(draw, terms):
    pred = draw(st.sampled_from(sorted(ARITY)))
    return atom(pred, *(draw(st.sampled_from(terms)) for _ in range(ARITY[pred])))


@st.composite
def rule_strategy(draw, label):
    """Mostly two-atom bodies joined on a variable, constants in bodies and
    heads, and one or two existentials in the head."""
    body = [atom_over(draw, [x, x, y, a])]
    if draw(st.integers(0, 3)):
        second = atom_over(draw, [x, y, z, b])
        joined = draw(st.sampled_from(sorted(body[0].variables()) or [x]))
        body.append(Atom(second.predicate, (joined,) + second.args[1:]))
    body_vars = sorted(vars_of(body)) or [a]
    args = [draw(st.sampled_from(body_vars)), E]
    head = [atom(draw(st.sampled_from(["p", "r"])), *(args[::-1] if draw(st.booleans()) else args))]
    if draw(st.integers(0, 2)):
        second = atom_over(draw, body_vars + [F, F, b])
        head.append(Atom(second.predicate, (E,) + second.args[1:]))
    return rule(label, body, head)


@st.composite
def chase_case(draw):
    rules = [draw(rule_strategy(f"r{i}")) for i in range(draw(st.integers(1, 4)))]
    facts = {atom_over(draw, [a, b]) for _ in range(draw(st.integers(1, 6)))}
    # a ground copy of some rule's body, so that at least one trigger exists
    seeded = draw(st.sampled_from(rules))
    ground = {t: draw(st.sampled_from([a, b])) for t in sorted(vars_of(seeded.body))}
    facts |= {Atom(at.predicate, tuple(ground.get(t, t) for t in at.args)) for at in seeded.body}
    return rules, facts


# a snapshot taken when the first two-atom body is matched, not at the round's
# start, would let the r-atom the first rule adds feed the last rule's trigger
SNAPSHOT_AT_ROUND_START = (
    [rule("r0", [atom("p", x, x)], [atom("r", E, x)]),
     rule("r1", [atom("q", x)], [atom("p", x, E)]),
     rule("r2", [atom("p", x, x)], [atom("p", x, E)]),
     rule("r3", [atom("q", a), atom("r", x, y)], [atom("p", x, E)])],
    {atom("p", a, a), atom("q", a)},
)


@settings(max_examples=100, deadline=None)
@given(chase_case(), st.integers(0, 4))
@example(SNAPSHOT_AT_ROUND_START, 1)
def test_indexed_chase_matches_the_naive_chase(case, max_rank):
    rules, facts = case
    state = chase(facts, rules, max_rank)
    rank_of, null_count = naive_chase(facts, rules, max_rank)
    # same trigger order, so the same nulls, not only the same up to renaming
    assert state.rank == rank_of
    assert state.atoms == set(rank_of)
    assert state.null_count == null_count


@st.composite
def query_strategy(draw):
    return ConjunctiveQuery(frozenset(
        atom_over(draw, [u, v, w, a]) for _ in range(draw(st.integers(1, 3)))))


@settings(max_examples=100, deadline=None)
@given(chase_case(), query_strategy(), st.integers(0, 4))
def test_indexed_entails_matches_the_naive_chase(case, q, max_rank):
    rules, facts = case
    verdict = entails(facts, rules, q, max_rank, max_atoms=60)
    assert (verdict.value, verdict.ranks_used) == naive_entails(facts, rules, q, max_rank, 60)


@settings(max_examples=150, deadline=None)
@given(chase_case(), st.integers(0, 5))
def test_entails_and_chase_stop_at_the_same_rank(case, max_rank):
    rules, facts = case
    # no fact or rule has the predicate s, so only where the chase stops decides
    verdict = entails(facts, rules, cq(atom("s", u)), max_rank)
    last = max(chase(facts, rules, max_rank).rank.values(), default=0)
    assert verdict.value == ("no" if last < max_rank else "unknown_at_bound")
    assert verdict.ranks_used == last
