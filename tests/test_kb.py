"""Terms, atoms, queries, rules, freshening and canonical forms."""
import copy
import pickle
import random
import time
from dataclasses import dataclass, fields
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ucqrewrite import (
    Atom,
    ConjunctiveQuery,
    DlgpError,
    FreshCounter,
    Term,
    atom,
    attach_answer_atom,
    canonicalize,
    const,
    cq,
    decompose_atomic_head,
    freshen_rule,
    parse_document,
    rule,
    strip_answer_atom,
    var,
)
from ucqrewrite.dlgp import SourceSpan
from ucqrewrite.kb import ANS_PREDICATE, CONSTANT, VARIABLE, memo, vars_of
from conftest import random_linear_rules, random_query

x, y, z = var("x"), var("y"), var("z")
a, b = const("a"), const("b")


def test_term_order_constants_first():
    assert a < x
    assert const("z") < var("a")
    assert var("a") < var("b")
    assert var("a") < var("a", 0)  # unindexed before indexed


def test_term_str():
    assert str(var("x")) == "x"
    assert str(var("x", 3)) == "x3"


def test_negative_fresh_index_and_unknown_kind_are_rejected():
    # index -1 stands for "unindexed": var("x", -1) must not pass for var("x")
    for bad in (lambda: var("x", -1), lambda: const("a", -2)):
        with pytest.raises(ValueError):
            bad()
    with pytest.raises(KeyError):
        Term("null", "x")
    assert var("x", 0).fresh_index == 0 and var("x").fresh_index is None


def _kinds(obj):
    """The (kind, name, fresh_index) of every term in obj, in a fixed order."""
    if isinstance(obj, Term):
        return [(obj.kind, obj.name, obj.fresh_index)]
    if isinstance(obj, Atom):
        return [k for t in obj.args for k in _kinds(t)]
    if isinstance(obj, ConjunctiveQuery):
        return [k for part in (*sorted(obj.atoms), *obj.answer_vars) for k in _kinds(part)]
    return [k for part in (*sorted(obj.body), *sorted(obj.head)) for k in _kinds(part)]


def test_copy_and_pickle_keep_every_term_kind():
    terms = [const("a"), var("a"), var("x", 3), const("__n", 0), var("__X", 7)]
    objects = terms + [
        atom("p", const("a"), var("a"), var("x", 3)),
        atom("r"),
        ConjunctiveQuery(frozenset({atom("p", x, a), atom("q", x, var("x", 2))}), (x, b)),
        rule("r", [atom("q", x, a)], [atom("p", x, y, var("y", 1))]),
    ]
    round_trips = [copy.copy, copy.deepcopy] + [
        lambda o, k=k: pickle.loads(pickle.dumps(o, protocol=k))
        for k in range(pickle.HIGHEST_PROTOCOL + 1)]
    for obj in objects:
        for trip in round_trips:
            back = trip(obj)
            assert back == obj and type(back) is type(obj)
            assert _kinds(back) == _kinds(obj)


def old_term_key(t):
    return (0 if t.kind == CONSTANT else 1, t.name, -1 if t.fresh_index is None else t.fresh_index)


def old_atom_key(at):
    return (at.predicate, at.arity, tuple(old_term_key(t) for t in at.args))


order_terms = st.builds(
    Term, st.sampled_from([VARIABLE, CONSTANT]),
    st.sampled_from(["a", "X", "v", "x1", "__", "__n", "__n1", "__X", "__aux_r"]),
    st.one_of(st.none(), st.integers(0, 12)))
order_atoms = st.builds(
    lambda p, ts: atom(p, *ts),
    st.sampled_from(["p", "q", "p1", ANS_PREDICATE, "__aux_r", "__"]),
    st.lists(order_terms, max_size=3))


@settings(max_examples=300, deadline=None)
@given(st.lists(order_terms, max_size=8), st.lists(order_atoms, max_size=8))
def test_tuple_order_and_equality_are_the_documented_sort_keys(ts, ats):
    assert sorted(ts) == sorted(ts, key=old_term_key)
    assert sorted(ats) == sorted(ats, key=old_atom_key)
    for objs, key in ((ts, old_term_key), (ats, old_atom_key)):
        for o1 in objs:
            for o2 in objs:
                assert (o1 < o2) == (key(o1) < key(o2))
                assert (o1 == o2) == (key(o1) == key(o2))
                assert o1 != o2 or hash(o1) == hash(o2)
    for t in ts:
        assert var(t.name, t.fresh_index) != const(t.name, t.fresh_index)
        assert all(t != at and at != t for at in ats)


def test_atom_accessors():
    at = atom("p", x, a)
    assert at.arity == 2
    assert at.variables() == {x}
    assert str(at) == "p(x,a)"


def test_query_rejects_unknown_answer_variable():
    with pytest.raises(ValueError):
        ConjunctiveQuery(frozenset({atom("p", x)}), (y,))


def test_query_allows_constant_answer_binding():
    q = ConjunctiveQuery(frozenset({atom("p", x)}), (a,))
    assert q.answer_vars == (a,)


def test_rule_existentials_are_the_head_only_variables():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    assert r.existentials == {y}


def test_a_predicate_with_two_arities_is_rejected_at_the_second_atom():
    with pytest.raises(ValueError) as e:
        parse_document("p(a). p(a,b).")
    assert isinstance(e.value, DlgpError)
    assert e.value.span == SourceSpan(1, 7)
    assert str(e.value) == "predicate 'p' used with arities 1 and 2 at 1:7"


def test_parser_rejects_two_arities_in_one_rule_body():
    # two arities of one predicate inside a single rule body
    with pytest.raises(DlgpError) as e:
        parse_document("q(X) :- p(X), p(X,Y).")
    assert str(e.value) == "predicate 'p' used with arities 1 and 2 at 1:15"


def test_parser_rejects_a_head_and_body_arity_conflict():
    # the head of a rule and its body disagree on the arity of q
    with pytest.raises(DlgpError) as e:
        parse_document("[r] q(X,Y) :- q(X).")
    assert str(e.value) == "predicate 'q' used with arities 2 and 1 at 1:15"


def test_freshen_rule_disjoint_and_structure_preserving():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    c = FreshCounter()
    f1, f2 = freshen_rule(r, c), freshen_rule(r, c)
    assert not f1.variables() & r.variables()
    assert not f1.variables() & f2.variables()
    assert len(f1.existentials) == 1


def test_freshen_rule_name_collision():
    # x at index 1 and a variable named x1 both print as x1; their copies stay apart
    x_1, x1 = var("x", 1), var("x1")
    assert str(x_1) == str(x1) == "x1"
    r = rule("r", [atom("p", x_1, x1)], [atom("q", x_1)])
    f = freshen_rule(r, FreshCounter(1))
    assert len(set(next(iter(f.body)).args)) == 2
    assert len(f.variables()) == 2


def test_decompose_atomic_head():
    r = rule("r", [atom("q", x)], [atom("p", x, y), atom("s", y, z)])
    out = decompose_atomic_head(r, FreshCounter())
    assert len(out) == 3
    aux_rule = out[0]
    (aux,) = aux_rule.head
    assert aux.predicate.startswith("__aux_")
    assert all(len(rr.head) == 1 for rr in out)
    # aux atom carries every head variable
    assert set(aux.args) == {x, y, z}


def test_answer_atom_round_trip():
    q = cq(atom("p", x, y), answer_vars=(x,))
    bcq = attach_answer_atom(q)
    assert bcq.is_boolean
    assert strip_answer_atom(bcq) == q


def test_answer_atom_is_refused_where_it_would_be_ambiguous():
    with pytest.raises(ValueError, match="already present"):
        attach_answer_atom(cq(atom("p", x), atom(ANS_PREDICATE, x), answer_vars=(x,)))
    with pytest.raises(ValueError, match="multiple"):
        strip_answer_atom(cq(atom(ANS_PREDICATE, x), atom(ANS_PREDICATE, y)))


def test_canonicalize_idempotent_and_invariant():
    u, v, w = var("u"), var("v"), var("w")
    q1 = cq(atom("p", x, y), atom("p", y, z))
    q2 = cq(atom("p", u, v), atom("p", v, w))  # renaming of q1
    c1, c2 = canonicalize(q1), canonicalize(q2)
    assert c1 == c2
    assert canonicalize(c1) == c1


names = st.sampled_from(["u", "v", "w", "t"])
terms = st.one_of(names.map(var), st.sampled_from(["a", "b"]).map(const))
atoms = st.builds(
    lambda p, ts: atom(p, *ts),
    st.sampled_from(["p", "q"]),
    st.lists(terms, min_size=2, max_size=2),
)


@given(st.sets(atoms, min_size=1, max_size=4))
def test_canonicalize_idempotent_property(atom_set):
    q = ConjunctiveQuery(frozenset(atom_set), ())
    c = canonicalize(q)
    assert canonicalize(c) == c


def renamed(q, mapping):
    def sub(t):
        return mapping.get(t, t)
    return cq(*(atom(at.predicate, *map(sub, at.args)) for at in q.atoms),
              answer_vars=tuple(map(sub, q.answer_vars)))


def brute_force_isomorphic(q1, q2):
    """Try every bijection between the two queries' variables."""
    v1, v2 = sorted(q1.variables()), sorted(q2.variables())
    if len(v1) != len(v2):
        return False
    return any(renamed(q1, dict(zip(v1, perm))) == q2 for perm in permutations(v2))


def test_canonical_form_ignores_the_order_of_names():
    u, v = var("A"), var("B")
    q1 = cq(atom("r", u, u), atom("r", v, u))
    q2 = cq(atom("r", v, v), atom("r", u, v))
    assert canonicalize(q1) == canonicalize(q2)


ARITY = {"p": 1, "r": 2, "s": 3}


@st.composite
def small_queries(draw):
    """Queries with at most 5 variables, constants and answer terms."""
    vs = [var(f"V{i}") for i in range(draw(st.integers(1, 5)))]
    terms = st.sampled_from(vs + [a, b])
    atoms_ = set()
    for _ in range(draw(st.integers(1, 6))):
        pred = draw(st.sampled_from(sorted(ARITY)))
        atoms_.add(atom(pred, *(draw(terms) for _ in range(ARITY[pred]))))
    used = sorted(vars_of(atoms_))
    answer = draw(st.lists(st.sampled_from(used + [a]), max_size=2))
    return cq(*atoms_, answer_vars=tuple(answer))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_form_decides_isomorphism(data):
    q1 = data.draw(small_queries())
    q2 = data.draw(small_queries())
    if data.draw(st.booleans()):  # an arbitrary renaming of q1
        vs = sorted(q1.variables())
        names = data.draw(st.permutations([var(f"W{i}") for i in range(len(vs))]))
        q2 = renamed(q1, dict(zip(vs, names)))
    assert (canonicalize(q1) == canonicalize(q2)) == brute_force_isomorphic(q1, q2)


def _cycles(lengths, both_ways=False):
    """Disjoint r-cycles: colour refinement alone cannot tell their variables apart."""
    out = []
    for i, n in enumerate(lengths):
        c = [var(f"C{i}_{j}") for j in range(n)]
        out += [atom("r", c[j], c[(j + 1) % n]) for j in range(n)]
        if both_ways:
            out += [atom("r", c[(j + 1) % n], c[j]) for j in range(n)]
    return out


def _shuffled(q, rnd):
    vs = sorted(q.variables())
    shuffled = list(vs)
    rnd.shuffle(shuffled)
    return renamed(q, dict(zip(vs, shuffled)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=1, max_size=4),
       st.lists(st.integers(2, 5), min_size=1, max_size=4), st.booleans(), st.randoms())
def test_canonical_form_decides_isomorphism_of_cycle_unions(lengths1, lengths2, both_ways, rnd):
    q1 = cq(*_cycles(lengths1, both_ways))
    q2 = _shuffled(cq(*_cycles(lengths2, both_ways)), rnd)
    assert (canonicalize(q1) == canonicalize(q2)) == (sorted(lengths1) == sorted(lengths2))


SYMMETRIC = {
    "14 r(Vi,a)": [atom("r", var(f"V{i}"), a) for i in range(14)],
    "7 disjoint 2-cycles": _cycles([2] * 7),
    "5 disjoint 3-cycles": _cycles([3] * 5),
    "complete digraph on 6": [atom("r", var(f"V{i}"), var(f"V{j}"))
                              for i in range(6) for j in range(6) if i != j],
    "hub with 6 s-2-cycle spokes": [
        at for i in range(6) for at in (
            atom("r", var("H"), var(f"A{i}")),
            atom("s", var(f"A{i}"), var(f"B{i}")),
            atom("s", var(f"B{i}"), var(f"A{i}")))],
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_canonical_form_of_symmetric_queries_is_fast_and_invariant(name):
    q = cq(*SYMMETRIC[name])
    start = time.monotonic()
    c = canonicalize(q)
    assert time.monotonic() - start < 2.0
    assert canonicalize(_shuffled(q, random.Random(7))) == c


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_cached_views_match_a_fresh_computation(seed, n_answers):
    rng = random.Random(seed)
    atoms = random_query(rng, random_linear_rules(rng, 3)).atoms
    answers = tuple(rng.choice(sorted(vars_of(atoms)) + [a]) for _ in range(n_answers))
    q = ConjunctiveQuery(atoms, answers)
    twin = ConjunctiveQuery(frozenset(list(atoms)[::-1]), answers)
    assert q == twin and hash(q) == hash(twin)
    pairs = {(at.predicate, at.arity) for at in atoms}
    assert q.index.buckets == {
        k: sorted(at for at in atoms if (at.predicate, at.arity) == k)
        for k in pairs}
    assert q.signature == pairs | ({(ANS_PREDICATE, n_answers)} if answers else set())
    # views computed on one side only, then on both, never change equality or hash
    assert q == twin and twin == q and hash(q) == hash(twin) and {q, twin} == {q}
    assert (twin.index.buckets, twin.signature) == (q.index.buckets, q.signature)
    assert q == twin and hash(q) == hash(twin)


def memo_views(cls) -> list[str]:
    return sorted(name for name, attr in vars(cls).items() if isinstance(attr, memo))


def test_a_memo_view_is_computed_once_and_kept_out_of_equality_and_hashing():
    calls = []

    @dataclass(frozen=True)
    class Probe:
        n: int

        @memo
        def view(self):
            calls.append(self.n)
            return [self.n]

    p, twin = Probe(1), Probe(1)
    assert p.view is p.view and calls == [1]
    assert vars(p)["view"] == [1] and "view" not in vars(twin)
    assert p == twin and hash(p) == hash(twin) and repr(p) == repr(twin)
    # each view of a query is computed on first use and then read from the instance
    q = cq(atom("p", x, y), atom("r", y, a), answer_vars=(x,))
    views = memo_views(ConjunctiveQuery)
    assert views == ["_answer_atom_form", "index", "occurrences", "plan", "signature"]
    assert not set(views) & {f.name for f in fields(ConjunctiveQuery)}
    for name in views:
        first = getattr(q, name)
        assert getattr(q, name) is first and vars(q)[name] is first
