"""Piece-unifiers: validity conditions, pieces, the single-piece algorithm,
aggregation, and agreement with the exhaustive enumeration."""
import importlib.util
import json
import random
import sys
from dataclasses import FrozenInstanceError, fields
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from ucqrewrite import (
    Limits,
    PieceUnifier,
    TermPartition,
    aggregate_rules,
    atom,
    const,
    cq,
    enumerate_aggregated,
    general_piece_unifiers,
    make_operator,
    parse_document,
    pieces,
    rewrite,
    rule,
    single_piece_unifiers,
    unification,
    validate_piece_unifier,
    var,
)
from ucqrewrite.kb import (
    Atom, FreshCounter, apply_to_atoms, attach_answer_atom, freshen_rule, memo, terms_of,
    vars_of)
from ucqrewrite.unification import CompiledRule, RuleBase, RuleCopy
from conftest import (
    components, random_linear_rules, random_multi_head_instance, random_query,
    reference_aggregate)

BENCH = Path(__file__).resolve().parents[1] / "bench"
# the benchmark's diamond chains; its dataclasses need the module registered
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

x, y, z, t, u, v, w = (var(n) for n in "xyztuvw")
a, b = const("a"), const("b")


def unifier_set(mus):
    """Comparable fingerprint: (q_part, h_part, partition classes)."""
    return {
        (mu.q_part, mu.h_part, mu.partition.classes)
        for mu in mus
    }


def test_pieces_glued_by_non_cutpoints():
    atoms = {atom("p", u, v), atom("p", w, v), atom("p", w, t)}
    # v,w are glue when not cutpoints: one piece
    assert pieces(atoms, {u, t}) == [frozenset(atoms)]
    # all variables cut: each atom is its own piece
    assert len(pieces(atoms, {u, v, w, t})) == 3


piece_terms = [u, v, w, t, a, b]
piece_atoms = st.lists(st.builds(
    lambda p, args: Atom(p, tuple(args)), st.sampled_from("pqs"),
    st.lists(st.sampled_from(piece_terms), max_size=3)), max_size=7)


@given(piece_atoms, st.sets(st.sampled_from([u, v, w, t])))
def test_pieces_are_the_components_of_the_atom_graph(atoms, cut):
    # each glue variable links the atoms it occurs in; each atom is a node
    glue = {s for at in atoms for s in at.args if s.is_variable and s not in cut}
    graph = [[at] for at in atoms] + [[at for at in atoms if s in at.args] for s in glue]
    got = pieces(atoms, cut)
    assert set(got) == components(graph)
    assert got == sorted(got, key=min) and len(got) == len(set(got))


def test_single_unifier_merging_two_atoms():
    # glued pair must unify together because v meets the existential
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    q = cq(atom("p", u, v), atom("p", w, v), atom("r", u, w))
    mus = single_piece_unifiers(q, r)
    assert unifier_set(mus) == {
        (
            frozenset({atom("p", u, v), atom("p", w, v)}),
            frozenset({atom("p", x, y)}),
            frozenset({frozenset({u, w, x}), frozenset({v, y})}),
        )
    }


def test_three_unifiers_on_shared_witness_query():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    q = cq(atom("p", u, v), atom("p", w, v), atom("p", w, t), atom("r", u, w))
    mus = general_piece_unifiers(q, r)
    assert unifier_set(mus) == {
        (
            frozenset({atom("p", u, v), atom("p", w, v)}),
            frozenset({atom("p", x, y)}),
            frozenset({frozenset({u, w, x}), frozenset({v, y})}),
        ),
        (
            frozenset({atom("p", w, t)}),
            frozenset({atom("p", x, y)}),
            frozenset({frozenset({w, x}), frozenset({t, y})}),
        ),
        (
            frozenset({atom("p", u, v), atom("p", w, v), atom("p", w, t)}),
            frozenset({atom("p", x, y)}),
            frozenset({frozenset({u, w, x}), frozenset({t, v, y})}),
        ),
    }


def test_multi_atom_head_unifier_validity():
    # R: q(x) -> p(x,y), p(y,z), p(z,t), r(y)
    r = rule("r", [atom("q", x)],
             [atom("p", x, y), atom("p", y, z), atom("p", z, t), atom("r", y)])
    q = cq(atom("p", u, v), atom("p", v, w), atom("r", u))
    # unifying p(u,v) alone with p(x,y) is invalid: v is separating and meets y
    bad = PieceUnifier(
        frozenset({atom("p", u, v)}),
        frozenset({atom("p", x, y)}),
        TermPartition([{u, x}, {v, y}]),
        r,
    )
    assert validate_piece_unifier(q, bad)
    # unifying both p-atoms with p(x,y), p(y,z) is valid
    good = PieceUnifier(
        frozenset({atom("p", u, v), atom("p", v, w)}),
        frozenset({atom("p", x, y), atom("p", y, z)}),
        TermPartition([{u, x}, {v, y}, {w, z}]),
        r,
    )
    assert validate_piece_unifier(q, good) == []
    # unifying r(u) with r(y): u is an answer-free separating var meeting y
    bad2 = PieceUnifier(
        frozenset({atom("r", u)}),
        frozenset({atom("r", y)}),
        TermPartition([{u, y}]),
        r,
    )
    assert validate_piece_unifier(q, bad2)


def test_validate_rejects_inadmissible_and_mismatch():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    q = cq(atom("p", a, b))
    mu = PieceUnifier(
        frozenset({atom("p", a, b)}),
        frozenset({atom("p", x, y)}),
        TermPartition([{a, x}, {b, y}]),
        r,
    )
    # b lands in y's class but y is existential: constant forbidden there
    assert validate_piece_unifier(q, mu)


def reference_problems(q, mu):
    """The validity conditions as plain set algebra over whole atom sets."""
    problems = []
    if not mu.q_part or not mu.q_part <= q.atoms:
        problems.append("q_part must be a non-empty subset of the query")
    if not mu.h_part <= mu.rule.head:
        problems.append("h_part must be a subset of the rule head")
    if set(mu.partition.carrier) != terms_of(mu.q_part) | terms_of(mu.h_part):
        problems.append("partition carrier must be terms(q_part) + terms(h_part)")
    if not mu.partition.admissible:
        problems.append("partition not admissible")
        return problems
    sep = vars_of(mu.q_part) & vars_of(q.atoms - mu.q_part)
    nonsep = vars_of(mu.q_part) - sep
    for cls in mu.partition.classes:
        existentials = cls & mu.rule.existentials
        if len(existentials) > 1 or (existentials and not cls - existentials <= nonsep):
            problems.append("class with an existential variable contains a term other than "
                            "a non-separating query variable")
            break
    s = mu.partition.substitution

    def image(atoms):
        return {Atom(at.predicate, tuple(s.get(t, t) for t in at.args)) for at in atoms}

    if image(mu.h_part) != image(mu.q_part):
        problems.append("u(h_part) != u(q_part)")
    return problems


VALIDITY_HEAD = [atom("p", x, y), atom("p", y, z), atom("r", y), atom("p", x, x), atom("r", a)]


@st.composite
def unifier_case(draw):
    """A query, and a unifier over a part that may reach outside the query, a
    head part that may reach outside the head, and a partition that pairs the
    parts positionwise or at random."""
    terms = [u, v, w, a, b]
    pool = [atom("p", s, o) for s in terms for o in terms] + [atom("r", s) for s in terms]
    q = cq(*draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)))
    r = rule("r", [atom("q", x)], draw(st.lists(st.sampled_from(VALIDITY_HEAD), min_size=1)))
    q_part = draw(st.sets(st.sampled_from(sorted(q.atoms)), max_size=3))
    h_part = draw(st.sets(st.sampled_from(sorted(r.head)), min_size=1, max_size=3))
    if draw(st.integers(0, 3)) == 0:
        q_part.add(draw(st.sampled_from(pool)))
    if draw(st.integers(0, 3)) == 0:
        h_part.add(draw(st.sampled_from(VALIDITY_HEAD)))
    q_part, h_part = sorted(q_part), sorted(h_part)
    groups = [[t] for at in q_part + h_part for t in at.args]
    if draw(st.integers(0, 3)):  # positionwise pairs, as the operators build them
        for qa in q_part:
            same = [ha for ha in h_part if (ha.predicate, ha.arity) == (qa.predicate, qa.arity)]
            if same:
                groups += [list(pair) for pair in zip(qa.args, draw(st.sampled_from(same)).args)]
    else:
        groups += draw(st.lists(st.lists(st.sampled_from(terms + [x, y, z]), max_size=3)))
    return q, PieceUnifier(frozenset(q_part), frozenset(h_part), TermPartition(groups), r)


@settings(max_examples=300, deadline=None)
@given(unifier_case())
def test_validity_check_returns_the_problems_of_the_plain_set_check(case):
    q, mu = case
    assert validate_piece_unifier(q, mu) == reference_problems(q, mu)


EXISTENTIAL_CLASS = ("class with an existential variable contains a term other than "
                     "a non-separating query variable")


@st.composite
def one_unifier_many_queries(draw):
    """A rule copy's unifier of one choice, with an existential-class query
    variable, and 2-4 queries around its atoms: one where that class's
    variables occur nowhere else, one where all of them also occur in an atom
    outside the piece, and up to two drawn ones, in a drawn order."""
    terms = [u, v, w, a]
    pool = [atom("p", s, o) for s in terms for o in terms] + [atom("r", s) for s in terms]
    first = draw(st.sampled_from(VALIDITY_HEAD[:3]))  # with an existential variable
    r = rule("r", [atom("q", x)], [first] + draw(st.lists(st.sampled_from(VALIDITY_HEAD))))
    copy = RuleCopy(r)
    # the first query atom, over distinct variables, meets the first head atom
    part = [Atom(first.predicate, tuple(draw(st.permutations([u, v, w]))[:first.arity]))]
    picks = [copy.head.index(first)]
    if draw(st.booleans()):
        j = draw(st.integers(0, len(copy.head) - 1))
        h = copy.head[j]
        part.append(Atom(h.predicate, tuple(draw(st.sampled_from(terms)) for _ in h.args)))
        picks.append(j)
    mu = copy.unifier(tuple(zip(part, picks)))
    assume(mu is not None)
    outside = [atom("s", e) for e in sorted(mu.ex_vars)]
    drawn = draw(st.lists(st.lists(st.sampled_from(pool), max_size=3), max_size=2))
    queries = [cq(*part), cq(*part, *outside)] + [cq(*part, *extra) for extra in drawn]
    return copy, mu, draw(st.permutations(queries))


@settings(max_examples=150, deadline=None)
@given(one_unifier_many_queries())
def test_a_unifier_s_memos_hold_for_every_query_it_is_checked_against(case):
    copy, mu, queries = case
    separating = []
    for q in queries:
        assert copy.unifier(mu.choice) is mu
        problems = validate_piece_unifier(q, mu)
        assert problems == reference_problems(q, mu)
        separating.append(EXISTENTIAL_CLASS in problems)
        # the sticky test reads the memoized classes: the same unifiers as a fresh copy
        assert unifier_set(single_piece_unifiers(q, copy)) == unifier_set(
            single_piece_unifiers(q, RuleCopy(copy.rule)))
    assert any(separating)
    assert mu.body_image == apply_to_atoms(mu.partition.substitution, copy.rule.body)


def test_a_copy_s_memoized_unifier_is_immutable_and_computes_each_view_once():
    copy = RuleCopy(rule("r", [atom("q", x)], [atom("p", x, y), atom("s", y)]))
    q = cq(atom("p", u, v), atom("s", v))
    found = single_piece_unifiers(q, copy)
    (mu,) = found
    # the copy keeps each atom set's search, as a tuple no caller can change
    assert isinstance(found, tuple) and single_piece_unifiers(cq(*q.atoms), copy) is found
    assert copy.unifier(mu.choice) is mu
    for f in fields(PieceUnifier):
        with pytest.raises(FrozenInstanceError):
            setattr(mu, f.name, getattr(mu, f.name))
    fresh = RuleCopy(copy.rule).unifier(mu.choice)
    views = sorted(n for n, attr in vars(PieceUnifier).items() if isinstance(attr, memo))
    assert views == ["body_image", "checks", "ex_vars", "part_query", "part_signature", "part_vars",
                     "shaped"]
    for name in views:
        first = getattr(fresh, name)
        assert getattr(fresh, name) is first and vars(fresh)[name] is first
    # the associated substitution is the partition's, computed and stored once
    sub = fresh.partition.substitution
    assert fresh.partition.substitution is sub and vars(fresh.partition)["substitution"] is sub
    assert not set(views) & {f.name for f in fields(PieceUnifier)}
    assert repr(fresh) == repr(mu) and fresh != mu and validate_piece_unifier(q, fresh) == []


# head terms: frontier variables x and z, existential variables y and t, a constant
SHAPE_HEAD = [atom("p", s, o) for s in (x, y, z, t, a) for o in (x, y, z, t, a)] + [
    atom("r", s) for s in (x, y, t, a)]
# query terms: variables, which an atom may repeat, and constants
SHAPE_QUERY = [atom("p", s, o) for s in (u, v, w, a, b) for o in (u, v, w, a, b)] + [
    atom("r", s) for s in (u, v, a, b)]


@st.composite
def copy_and_choice(draw):
    """A rule copy, with existential, frontier and constant head positions,
    and a choice on it: query atoms, each with a head position it may take."""
    r = rule("r", [atom("q", x, z)], draw(st.lists(st.sampled_from(SHAPE_HEAD), min_size=1,
                                                       max_size=3)))
    copy = RuleCopy(r)
    atoms = draw(st.lists(st.sampled_from(SHAPE_QUERY), min_size=1, max_size=3, unique=True))
    atoms = [q for q in atoms if (q.predicate, q.arity) in copy.positions]
    assume(atoms)
    return copy, tuple((q, draw(st.sampled_from(copy.positions[q.predicate, q.arity])))
                       for q in atoms)


@settings(max_examples=300, deadline=None)
@given(copy_and_choice())
def test_a_copy_keeps_a_choice_s_unifier_exactly_when_the_plain_set_check_finds_it_valid(case):
    # in a query that is only the piece no variable is separating, so only the
    # shape of the partition can make the unifier invalid there
    copy, choice = case
    pairs = [pair for q, j in choice for pair in zip(q.args, copy.head[j].args)]
    mu = PieceUnifier(frozenset(q for q, _ in choice), frozenset(copy.head[j] for _, j in choice),
                      TermPartition(pairs), copy.rule)
    assert (copy.unifier(choice) is not None) == (reference_problems(cq(*mu.q_part), mu) == [])


def test_unifiable_rejects_existential_frontier_merge():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    # p(u,u) forces x and y together: frontier meets existential
    assert single_piece_unifiers(cq(atom("p", u, u)), r) == ()
    (mu,) = single_piece_unifiers(cq(atom("p", u, v)), r)
    assert mu.q_part == {atom("p", u, v)}
    # constant in the existential position
    assert single_piece_unifiers(cq(atom("p", u, a)), r) == ()


def test_sticky_variables():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    q = cq(atom("p", u, v), atom("p", w, v), atom("r", u, w))
    # v is sticky in p(u,v), so the piece grows by p(w,v), where nothing is sticky
    (mu,) = single_piece_unifiers(q, r)
    assert mu.q_part == {atom("p", u, v), atom("p", w, v)}
    # v is sticky and reaches s(v), which the head cannot unify: no piece
    assert single_piece_unifiers(cq(atom("p", u, v), atom("s", v)), r) == ()
    # u is separating but meets only the frontier: not sticky
    (mu,) = single_piece_unifiers(cq(atom("p", u, v), atom("s", u)), r)
    assert mu.q_part == {atom("p", u, v)}


def test_atomic_algorithm_single_result_on_chained_pair():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    q = cq(atom("p", u, v), atom("p", v, t))
    mus = single_piece_unifiers(q, r)
    assert unifier_set(mus) == {
        (
            frozenset({atom("p", v, t)}),
            frozenset({atom("p", x, y)}),
            frozenset({frozenset({v, x}), frozenset({t, y})}),
        )
    }


def test_aggregate_rules_requires_disjoint_variables():
    r1 = rule("r1", [atom("q", x)], [atom("p", x, y)])
    with pytest.raises(ValueError):
        aggregate_rules([r1, r1])
    c = FreshCounter()
    agg = aggregate_rules([freshen_rule(r1, c), freshen_rule(r1, c)])
    assert len(agg.body) == 2 and len(agg.head) == 2


def test_aggregation_on_pair_merge_query():
    r = rule("r", [atom("p", x, y)], [atom("q", x, y)])
    q = cq(atom("q", u, v), atom("r", v, w), atom("q", t, w))
    aggs = enumerate_aggregated(q, r)
    sizes = sorted(len(ag.members) for ag in aggs)
    assert sizes == [1, 1, 2]
    two = next(ag for ag in aggs if len(ag.members) == 2)
    assert two.q_part == {atom("q", u, v), atom("q", t, w)}
    assert len(two.rule.body) == 2


def two_constant_cases(count):
    """(query, rule) pairs over the constants a and b, in the head and the
    query, so that some joins put both in one class and are not admissible."""
    rng = random.Random(5)
    pool = [var("U0"), var("U1"), a, b]
    for _ in range(count):
        head = atom("p", *(rng.choice([var("X0"), var("X0"), var("Y"), a]) for _ in range(2)))
        r = rule("r", [atom("q", var("X0"), var("X1"))], [head])
        q = cq(*(atom(rng.choice("pps"), rng.choice(pool), rng.choice(pool))
                 for _ in range(rng.randint(1, 5))))
        yield q, r


def test_aggregations_are_every_compatible_subset_of_the_base_parts():
    for q, r in two_constant_cases(400):
        got = [tuple(m.q_part for m in ag.members) for ag in enumerate_aggregated(q, r)]
        c = FreshCounter()
        base = single_piece_unifiers(q, freshen_rule(r, c))
        slots = [{m.q_part: m for m in base}] + [
            {m.q_part: m for m in single_piece_unifiers(q, freshen_rule(r, c))}
            for _ in base[1:]]
        parts = sorted(slots[0], key=min)
        want = set()
        for mask in range(1, 1 << len(parts)):
            subset = tuple(p for i, p in enumerate(parts) if mask >> i & 1)
            if reference_aggregate([slots[i][p] for i, p in enumerate(subset)]) is not None:
                want.add(subset)
        assert len(got) == len(set(got)) and set(got) == want


def test_aggregation_searches_the_pieces_once(monkeypatch):
    r = rule("r", [atom("p", x, y)], [atom("q", x, y)])
    q = cq(atom("q", u, v), atom("q", v, w), atom("q", w, t))
    calls = []
    search = unification.single_piece_unifiers

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(unification, "single_piece_unifiers", counting)
    aggs = enumerate_aggregated(q, r)
    assert len(calls) == 1
    assert sorted(len(ag.members) for ag in aggs) == [1, 1, 1, 2, 2, 2, 3]
    # member k is over copy k of the rule
    three = aggs[2]
    assert [m.q_part for m in three.members] == [frozenset({at}) for at in sorted(q.atoms)]
    copies = [m.rule.variables() for m in three.members]
    assert len(frozenset().union(*copies)) == sum(map(len, copies))


def test_aggregations_memoized_on_a_compiled_rule_are_those_of_a_fresh_one():
    rng = random.Random(19)
    pool = [var("U0"), var("U1"), var("U2"), a]
    for _ in range(60):
        head = atom("p", *(rng.choice([var("X0"), var("Y"), var("Y"), a]) for _ in range(2)))
        compiled = CompiledRule(rule("r", [atom("q", var("X0"))], [head]))
        queries = [cq(*(atom(rng.choice("pps"), rng.choice(pool), rng.choice(pool))
                        for _ in range(rng.randint(1, 5)))) for _ in range(4)]
        for q in queries + queries:
            got = enumerate_aggregated(q, compiled)
            fresh = enumerate_aggregated(q, CompiledRule(compiled.rule))
            assert ([tuple(m.q_part for m in ag.members) for ag in got]
                    == [tuple(m.q_part for m in ag.members) for ag in fresh])
            assert [ag.partition for ag in got] == [ag.partition for ag in fresh]
            # a second call shares the first call's aggregations, which cannot change
            again = enumerate_aggregated(q, compiled)
            assert len(again) == len(got) and all(x is y for x, y in zip(again, got))
    agg = next(ag for q in queries for ag in enumerate_aggregated(q, compiled))
    assert isinstance(agg.members, tuple)
    with pytest.raises(FrozenInstanceError):
        agg.members = ()


def test_aggregate_rejects_overlapping_parts():
    r = rule("r", [atom("p", x, y)], [atom("q", x, y)])
    q = cq(atom("q", u, v))
    compiled = CompiledRule(r)
    c = single_piece_unifiers(q, compiled.copy(0))[0].choice
    assert compiled.aggregation((c,)) is not None
    # the same piece chosen twice: its parts on copies 0 and 1 overlap
    assert compiled.aggregation((c, c)) is None
    assert reference_aggregate([compiled.copy(0).unifier(c), compiled.copy(1).unifier(c)]) is None


def aggregation_inputs():
    """(query, rule) pairs: the 4-, 5- and 6-link diamond chains, the
    two-constant cases, and for seeds 0-299 of random_multi_head_instance the
    query and up to five queries of its depth-2 cover, each with each rule."""
    yield from two_constant_cases(400)
    for n in (4, 5, 6):
        doc = parse_document(workloads.diamond_text(n))
        yield attach_answer_atom(doc.queries[0]), doc.rules[0]
    for seed in range(300):
        rules, q = random_multi_head_instance(random.Random(seed))
        res = rewrite(q, rules, make_operator("aggregated"),
                      Limits(max_depth=2, max_generated=100, timeout=None))
        queries = [q] + sorted(res.cover, key=lambda c: sorted(c.atoms))[:5]
        for qq in queries:
            for r in rules:
                yield attach_answer_atom(qq), r


def test_each_aggregation_extending_its_prefix_equals_the_from_scratch_merge():
    seen = {1: 0, 2: 0, 3: 0}
    clashes = 0
    for q, r in aggregation_inputs():
        compiled = CompiledRule(r)
        found = enumerate_aggregated(q, compiled)
        base = sorted(single_piece_unifiers(q, compiled.copy(0)), key=lambda m: min(m.q_part))
        assert len(base) <= 8
        built = []
        # every subset of the pieces, in piece order: the compatible ones are
        # the ones enumerate_aggregated found, and a failed prefix fails too
        for mask in range(1, 1 << len(base)):
            choices = tuple(m.choice for i, m in enumerate(base) if mask >> i & 1)
            members = [compiled.copy(k).unifier(c) for k, c in enumerate(choices)]
            agg, ref = compiled.aggregation(choices), reference_aggregate(members)
            assert (agg is None) == (ref is None)
            if agg is None:
                overlap = len(frozenset().union(*(m.q_part for m in members))) < sum(
                    len(m.q_part) for m in members)
                clashes += not overlap
                continue
            built.append(agg)
            assert agg.members == ref.members and len(agg.members) == len(choices)
            assert agg.q_part == ref.q_part and agg.h_part == ref.h_part
            assert agg.partition.classes == ref.partition.classes
            assert agg.rule == ref.rule
            assert agg.checks == ref.checks
            assert agg.partition.substitution == ref.partition.substitution
            assert agg.body_image == ref.body_image
            seen[min(len(choices), 3)] += 1
        assert sorted(map(id, found)) == sorted(map(id, built))
    # aggregations of 2 and of 3+ members, and joins refused for two constants
    assert seen[2] > 500 and seen[3] > 150 and clashes > 30


def test_single_piece_unifiers_come_by_least_atom():
    # enumerate_aggregated tries the pieces in this order without sorting them
    ties = 0
    for seed in range(300):
        rules, q = random_multi_head_instance(random.Random(seed))
        instances = [(attach_answer_atom(q), rules)]
        rng = random.Random(seed)
        rules = random_linear_rules(rng, rng.randint(1, 6))
        instances.append((random_query(rng, rules), rules))
        for q, rules in instances:
            for r in rules:
                least = [min(m.q_part) for m in single_piece_unifiers(q, CompiledRule(r).copy(0))]
                assert least == sorted(least)
                ties += len(least) - len(set(least))
    # several unifiers grown from one seed share their least atom
    assert ties > 0


def test_the_six_link_diamond_joins_once_per_multi_member_aggregation(monkeypatch):
    calls = []
    join = unification.join
    monkeypatch.setattr(unification, "join", lambda p1, p2: calls.append(1) or join(p1, p2))
    doc = parse_document(workloads.diamond_text(6))
    res = rewrite(attach_answer_atom(doc.queries[0]), doc.rules, make_operator("aggregated"),
                  Limits(max_generated=100_000, timeout=None))
    # 2^6 - 1 aggregations of the 6 link pieces, 6 of them with one member;
    # joining each from scratch made 129
    assert len(calls) == 2 ** 6 - 1 - 6 == 57
    reference = json.loads((BENCH / "reference.json").read_text())["diamond"]["n=6 aggregated"]
    assert reference == {"generated": 63, "output": 2, "depth": 1}
    assert {"generated": res.generated_count, "output": len(res.cover),
            "depth": res.depth_reached} == reference


def test_single_piece_results_are_valid_and_agree_with_oracle():
    rng = random.Random(11)
    c = FreshCounter()
    for _ in range(80):
        # random atomic-head rule and query over a tiny signature
        arity = {"p": 2, "q": rng.randint(1, 2)}
        bvars = [var("X0"), var("X1")]
        head_args = tuple(
            rng.choice(bvars) if rng.random() < 0.6 else var(f"Y{j}")
            for j in range(arity["p"])
        )
        r0 = rule("r", [atom("q", *bvars[: arity["q"]])], [atom("p", *head_args)])
        pool = [var(f"U{i}") for i in range(3)] + [a]
        atoms = {
            atom(rng.choice(["p", "q"]), *(rng.choice(pool) for _ in range(arity[rng.choice(["p"])])))
            for _ in range(rng.randint(1, 4))
        }
        atoms = {at for at in atoms if at.arity == arity[at.predicate]}
        if not atoms:
            continue
        q = cq(*atoms)
        r = freshen_rule(r0, c)
        sp = single_piece_unifiers(q, r)
        for mu in sp:
            assert validate_piece_unifier(q, mu) == []
        # every single-piece unifier appears in the exhaustive enumeration
        oracle = unifier_set(general_piece_unifiers(q, r))
        assert unifier_set(sp) <= oracle
        # and conversely every one-piece oracle unifier is found
        for qp, hp, part in oracle:
            cut = PieceUnifier(qp, hp, TermPartition(part), r).cutpoints()
            if len(pieces(qp, cut)) == 1:
                assert (qp, hp, part) in unifier_set(sp)


def _at_least_as_general(p1, p2):
    """Every two terms of p2's carrier that p1 merges, p2 merges too."""
    carrier = p2.carrier
    return all(len({p2.class_of(t) for t in c & carrier}) <= 1 for c in p1.classes)


def test_multi_atom_head_single_piece_unifiers_agree_with_oracle():
    rng = random.Random(18)
    arity = {"p": 2, "s": 1, "q": 2}
    checked = 0
    for _ in range(150):
        xs, ys = [var("X0"), var("X1")], [var("Y0"), var("Y1")]
        head = set()
        while len(head) < rng.randint(2, 3):
            p = rng.choice("pps")
            head.add(atom(p, *(rng.choice(xs + ys + ys + [a]) for _ in range(arity[p]))))
        r = freshen_rule(rule("r", [atom("q", *xs)], head), FreshCounter())
        pool = [var(f"U{i}") for i in range(4)] + [a]
        q = cq(*(atom(p, *(rng.choice(pool) for _ in range(arity[p])))
                 for p in (rng.choice("pps") for _ in range(rng.randint(1, 4)))))
        sp = single_piece_unifiers(q, r)
        oracle = general_piece_unifiers(q, r)
        for mu in sp:
            assert validate_piece_unifier(q, mu) == []
        assert unifier_set(sp) <= unifier_set(oracle)
        # the oracle also lists coarser unifiers that map one query atom onto
        # two head atoms: a result with the same q_part is at least as general
        for o in oracle:
            if len(pieces(o.q_part, o.cutpoints())) == 1:
                checked += 1
                assert any(mu.q_part == o.q_part and _at_least_as_general(mu.partition, o.partition)
                           for mu in sp)
    assert checked >= 200
    # the valid unifier of test_multi_atom_head_unifier_validity is found
    r = rule("r", [atom("q", x)],
             [atom("p", x, y), atom("p", y, z), atom("p", z, t), atom("r", y)])
    q = cq(atom("p", u, v), atom("p", v, w), atom("r", u))
    good = (frozenset({atom("p", u, v), atom("p", v, w)}),
            frozenset({atom("p", x, y), atom("p", y, z)}),
            frozenset({frozenset({u, x}), frozenset({v, y}), frozenset({w, z})}))
    assert good in unifier_set(single_piece_unifiers(q, r))


def test_oracle_refuses_oversized_input():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    big = cq(*(atom("p", var(f"U{i}"), var(f"V{i}")) for i in range(11)))
    with pytest.raises(ValueError):
        general_piece_unifiers(big, r)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_rule_base_selects_the_rules_a_scan_of_the_heads_selects(rng):
    rules = random_linear_rules(rng, rng.randint(1, 6))
    rules += rng.sample(rules, rng.randint(0, len(rules)))  # repeated rules
    # a query over another draw uses the same predicate names with other arities
    q = random_query(rng, random_linear_rules(rng, rng.randint(1, 3)) + rules)
    want = [r for r in rules if any((h.predicate, h.arity) in q.signature for h in r.head)]
    assert [c.rule for c in RuleBase(rules).unifiable(q)] == want


def test_a_one_member_aggregation_is_the_single_piece_unifier_on_copy_0():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    compiled = CompiledRule(r)
    q = cq(atom("p", u, v))
    (agg,) = enumerate_aggregated(q, compiled)
    (mu,) = single_piece_unifiers(q, compiled.copy(0))
    assert agg is mu and agg.members == (agg,)
    assert agg.rule is compiled.copy(0).rule


def test_each_piece_is_one_unifier_under_both_operators():
    data = resources.files("ucqrewrite") / "data"
    rules = parse_document((data / "ontology.dlgp").read_text()).rules
    inputs = [(attach_answer_atom(q), r)
              for q in parse_document((data / "queries.dlgp").read_text()).queries
              for r in rules]
    for n in (4, 5, 6):
        doc = parse_document(workloads.diamond_text(n))
        inputs.append((attach_answer_atom(doc.queries[0]), doc.rules[0]))
    singles = merged = 0
    for q, r in inputs:
        compiled = CompiledRule(r)
        aggs = enumerate_aggregated(q, compiled)
        base = single_piece_unifiers(q, compiled.copy(0))
        for agg in aggs:
            if len(agg.members) == 1:
                assert any(agg is mu for mu in base) and agg.members == (agg,)
                singles += 1
                continue
            choices = tuple(m.choice for m in agg.members)
            prefix = compiled.aggregation(choices[:-1])
            last = compiled.copy(len(choices) - 1).unifier(choices[-1])
            assert agg.members == prefix.members + (last,)
            merged += 1
    assert singles > 0 and merged > 0
