"""Homomorphism search checked against a brute-force oracle; cores and covers."""
import random
import time
import tracemalloc
from itertools import product
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from ucqrewrite import (
    ConjunctiveQuery,
    Limits,
    atom,
    attach_answer_atom,
    const,
    core,
    cover,
    cq,
    equivalent,
    find_homomorphism,
    homomorphisms,
    isomorphic,
    make_operator,
    more_general,
    rewrite,
    var,
)
from ucqrewrite import homomorphism, kb
from ucqrewrite.homomorphism import AtomIndex, apply_to_atoms
from ucqrewrite.kb import MatchPlan, terms_of, vars_of

from conftest import reference_core, reference_homomorphisms

x, y, z, u, w = var("x"), var("y"), var("z"), var("u"), var("w")
a, b, c = const("a"), const("b"), const("c")


def brute_force_hom_exists(source, target):
    """Try every assignment of source variables to target terms."""
    src_vars = sorted(vars_of(source))
    tgt_terms = sorted(terms_of(target)) or [a]
    target = frozenset(target)
    for combo in product(tgt_terms, repeat=len(src_vars)):
        sub = dict(zip(src_vars, combo))
        if apply_to_atoms(sub, source) <= target:
            return True
    return False


def brute_force_core(q):
    """Smallest subset equivalent to q, by exhaustive retract search."""
    atoms = sorted(q.atoms)
    best = frozenset(atoms)
    n = len(atoms)
    for mask in range(1, 1 << n):
        sub = frozenset(at for i, at in enumerate(atoms) if mask >> i & 1)
        if len(sub) >= len(best):
            continue
        if brute_force_hom_exists(q.atoms, sub):
            best = sub
    return best


def test_find_homomorphism_simple():
    src = {atom("p", x, y)}
    tgt = {atom("p", a, b)}
    h = find_homomorphism(src, tgt)
    assert h == {x: a, y: b}


def test_constants_must_match():
    assert find_homomorphism({atom("p", a)}, {atom("p", b)}) is None
    assert find_homomorphism({atom("p", a)}, {atom("p", a)}) == {}


def test_variable_consistency():
    src = {atom("p", x, x)}
    assert find_homomorphism(src, {atom("p", a, b)}) is None
    assert find_homomorphism(src, {atom("p", a, a)}) is not None


def test_homomorphisms_enumerates_all():
    src = {atom("p", x)}
    tgt = {atom("p", a), atom("p", b)}
    images = {h[x] for h in homomorphisms(src, tgt)}
    assert images == {a, b}


def test_initial_binding_respected():
    src = {atom("p", x, y)}
    tgt = {atom("p", a, b), atom("p", b, c)}
    hs = list(homomorphisms(src, tgt, binding={x: b}))
    assert len(hs) == 1 and hs[0][y] == c


def test_more_general_respects_answer_variables():
    q1 = cq(atom("p", x, y), answer_vars=(x,))
    q2 = cq(atom("p", x, y), answer_vars=(y,))
    assert more_general(q1, q1)
    assert not more_general(q1, q2)


def test_equivalence_and_isomorphism():
    q1 = cq(atom("p", x, y))
    q2 = cq(atom("p", y, z))
    q3 = cq(atom("p", x, y), atom("p", y, z))
    assert equivalent(q1, q2)
    assert isomorphic(q1, q2)
    assert more_general(q1, q3) and not more_general(q3, q1)
    assert not isomorphic(q1, q3)
    # equal size and equivalent, but not isomorphic
    q4, q5 = cq(atom("r", x, y), atom("r", z, z)), cq(atom("r", x, x), atom("r", x, y))
    assert equivalent(q4, q5) and not isomorphic(q4, q5)


def test_core_removes_redundant_atom():
    q = cq(atom("p", x, y), atom("p", x, z))
    k = core(q)
    assert len(k.atoms) == 1
    assert equivalent(k, q)


def test_core_keeps_rigid_query():
    q = cq(atom("p", x, y), atom("p", y, x))
    assert core(q).atoms == q.atoms


def test_core_keeps_answer_variables():
    q = cq(atom("p", x, y), atom("p", x, z), answer_vars=(y,))
    assert core(q) == cq(atom("p", x, y), answer_vars=(y,))
    res = rewrite(q, [], make_operator("aggregated"), Limits())
    assert len(res.cover) == 1


def test_cover_keeps_most_general_and_prefers_explored():
    q1 = cq(atom("p", x, y))           # most general
    q2 = cq(atom("p", y, z))           # isomorphic copy of q1
    q3 = cq(atom("q", x, y))
    q4 = cq(atom("p", a, b), atom("q", a, b))
    q5 = cq(atom("p", x, x))
    q6 = cq(atom("p", c, c))
    got = cover(explored=[q2, q3], fresh=[q1, q4, q5, q6])
    # p-class collapses to the explored copy q2; q4/q5/q6 are below p or q
    assert got == {q2, q3}
    # with no explored copy, the first fresh one given is kept
    assert cover(explored=[], fresh=[q2, q1]) == reference_cover([], [q2, q1]) == {q2}


def test_cover_of_disjoint_queries_keeps_all():
    qs = [cq(atom("p", x)), cq(atom("q", x)), cq(atom("r", x))]
    assert cover(explored=[], fresh=qs) == set(qs)


def test_cover_never_compares_two_explored_queries():
    # pairwise incomparable, and equal signatures, so only the search tells them apart
    explored = [cq(atom("p", x, a)), cq(atom("p", a, x)), cq(atom("p", x, b))]
    fresh = [cq(atom("p", a, b)), cq(atom("p", x, y))]
    calls = []

    def spy(q1, q2):
        calls.append((q1, q2))
        return more_general(q1, q2)

    with patch.object(homomorphism, "more_general", spy):
        got = cover(explored=explored, fresh=fresh)
    assert got == {fresh[1]}
    assert calls
    assert not [c for c in calls if c[0] in explored and c[1] in explored]


atoms_strategy = st.builds(
    lambda p, ts: atom(p, *ts),
    st.sampled_from(["p", "q"]),
    st.lists(st.sampled_from([x, y, z, a, b]), min_size=2, max_size=2),
)
query_strategy = st.sets(atoms_strategy, min_size=1, max_size=4).map(
    lambda s: ConjunctiveQuery(frozenset(s), ())
)


@settings(max_examples=60, deadline=None)
@given(query_strategy, query_strategy)
def test_hom_search_matches_brute_force(q1, q2):
    fast = find_homomorphism(q1.atoms, q2.atoms) is not None
    assert fast == brute_force_hom_exists(q1.atoms, q2.atoms)


@settings(max_examples=60, deadline=None)
@given(query_strategy)
def test_core_matches_brute_force_cardinality(q):
    k = core(q)
    assert len(k.atoms) == len(brute_force_core(q))
    assert equivalent(k, q)


@settings(max_examples=40, deadline=None)
@given(st.lists(query_strategy, min_size=1, max_size=5))
def test_cover_is_minimal_and_covering(qs):
    got = cover(explored=[], fresh=qs)
    # every input is below some kept element
    for q in qs:
        assert any(more_general(k, q) for k in got)
    # kept elements are pairwise incomparable
    got = list(got)
    for i, q1 in enumerate(got):
        for q2 in got[i + 1:]:
            assert not more_general(q1, q2)
            assert not more_general(q2, q1)


def test_cover_cardinality_independent_of_order():
    rng = random.Random(7)
    pool = [
        cq(atom("p", x, y)), cq(atom("p", y, z)), cq(atom("p", x, x)),
        cq(atom("q", x, y)), cq(atom("p", a, b), atom("q", a, b)),
        cq(atom("q", x, x), atom("p", x, y)),
    ]
    sizes = set()
    for _ in range(10):
        shuffled = pool[:]
        rng.shuffle(shuffled)
        cut = rng.randint(0, len(shuffled))
        explored = reference_cover([], shuffled[:cut])
        sizes.add(len(cover(explored=explored, fresh=shuffled[cut:])))
    assert len(sizes) == 1


def reference_cover(explored, fresh):
    """Cover by brute force: the maximal >=-classes of explored + fresh, each
    represented by its first given member, explored queries first."""
    items = list(dict.fromkeys([*explored, *fresh]))
    kept = set()
    for q in items:
        if any(more_general(r, q) and not more_general(q, r) for r in items):
            continue
        kept.add(next(r for r in items if more_general(r, q) and more_general(q, r)))
    return kept


def with_answers(atoms, answer):
    """A query over atoms whose answer tuple keeps the constants of answer
    and those of its variables that occur in atoms."""
    vs = vars_of(atoms)
    return ConjunctiveQuery(frozenset(atoms),
                            tuple(t for t in answer if t.is_constant or t in vs))


answer_query_strategy = st.builds(
    with_answers,
    st.sets(atoms_strategy, min_size=1, max_size=3),
    st.lists(st.sampled_from([x, y, z, a]), max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(answer_query_strategy, max_size=5),
       st.lists(answer_query_strategy, max_size=5))
def test_cover_matches_reference(drawn, fresh):
    # cover requires explored to be pairwise incomparable, as the loop keeps it
    explored = reference_cover([], drawn)
    assert cover(explored=explored, fresh=fresh) == reference_cover(explored, fresh)


def test_cover_matches_reference_on_comparable_explored():
    # the queries comparable to each other arrive fresh; explored is one query
    p_xy = cq(atom("p", x, y))
    explored = [cq(atom("p", x, y), atom("q", y, z))]
    fresh = [p_xy, cq(atom("p", y, z)), cq(atom("p", x, x), answer_vars=(x,)),
             cq(atom("p", z, x)), cq(atom("q", x, y), answer_vars=(x,))]
    got = cover(explored=explored, fresh=fresh)
    assert got == reference_cover(explored, fresh) == {p_xy, fresh[-1]}


@settings(max_examples=150, deadline=None)
@given(answer_query_strategy)
def test_core_matches_brute_force_with_answer_variables(q):
    k = core(q)
    assert k.answer_vars == q.answer_vars
    assert len(attach_answer_atom(k).atoms) == len(brute_force_core(attach_answer_atom(q)))
    assert equivalent(k, q)


def test_boolean_query_covers_non_boolean_one():
    # p(x,y) maps into ?(x) :- p(x,y); equal answer arities are not necessary
    boolean = cq(atom("p", x, y))
    answered = cq(atom("p", x, y), answer_vars=(x,))
    assert more_general(boolean, answered) and not more_general(answered, boolean)
    assert cover(explored=[answered], fresh=[boolean]) == {boolean}
    assert reference_cover([answered], [boolean]) == {boolean}


@settings(max_examples=150, deadline=None)
@given(answer_query_strategy, answer_query_strategy)
def test_signature_filter_never_rejects_a_more_general_pair(q1, q2):
    if more_general(q1, q2):
        assert q1.signature <= q2.signature


# ground and non-ground atoms over two predicates at two arities each
index_atom_strategy = st.builds(
    lambda p, args: atom(p, *args),
    st.sampled_from(["p", "q"]),
    st.lists(st.sampled_from([x, y, a, b, c]), min_size=1, max_size=2),
)


@given(st.lists(index_atom_strategy, max_size=12, unique=True))
def test_atom_index_buckets_stay_sorted(adds):
    index = AtomIndex()
    for at in adds:
        index.add(at)
    for (pred, arity), bucket in index.buckets.items():
        assert bucket == sorted(bucket)
        assert all(at.predicate == pred and at.arity == arity for at in bucket)
    held = [at for bucket in index.buckets.values() for at in bucket]
    assert len(held) == len(adds) and set(held) == set(adds)


@given(st.sets(index_atom_strategy, min_size=1, max_size=3),
       st.lists(index_atom_strategy, max_size=10))
def test_index_target_enumerates_like_a_plain_target(src, target):
    expected = list(homomorphisms(src, target))
    assert list(homomorphisms(src, AtomIndex(target))) == expected
    grown = AtomIndex()
    for at in reversed(list(dict.fromkeys(target))):
        grown.add(at)
    assert list(homomorphisms(src, grown)) == expected


def test_atom_index_snapshot_ignores_later_adds():
    index = AtomIndex([atom("p", a)])
    snap = index.snapshot()
    index.add(atom("p", b))
    assert [h[x] for h in homomorphisms([atom("p", x)], snap)] == [a]
    assert [h[x] for h in homomorphisms([atom("p", x)], index)] == [a, b]


def test_search_keeps_only_the_chosen_atoms_candidates_alive():
    # a suspended level once held every remaining atom's candidate bindings:
    # O(n^2) dicts alive at once, about 94 MB on this 60-atom path
    path = [atom("r", var(f"V{i}"), var(f"V{i + 1}")) for i in range(60)]
    tracemalloc.start()
    try:
        assert find_homomorphism(path, path) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# source atoms with constants and repeated variables, over two predicates at two
# arities; targets are drawn from every such atom over a, b and x, so that
# sources of several atoms can have several images
match_atom_strategy = st.builds(
    lambda p, args: atom(p, *args),
    st.sampled_from(["p", "q"]),
    st.lists(st.sampled_from([x, y, z, a]), min_size=1, max_size=2),
)
MATCH_TARGETS = [atom(p, *args) for p in "pq" for n in (1, 2) for args in product([a, b, x], repeat=n)]


@settings(max_examples=300, deadline=None)
@given(st.lists(match_atom_strategy, max_size=4),
       st.lists(st.sampled_from(MATCH_TARGETS), max_size=18),
       st.dictionaries(st.sampled_from([x, y, z]), st.sampled_from([x, a, b]), max_size=2))
# a tie: the first atom in source order is matched first, its candidates in sort order
@example([atom("p", x), atom("p", y)], [atom("p", b), atom("p", a)], {})
# q(y) has the fewest candidates, so y varies slowest
@example([atom("p", x), atom("q", y)],
         [atom("p", a), atom("p", b), atom("p", x), atom("q", a), atom("q", b)], {})
# q(x,y) is narrowed twice by one candidate, and must get its whole domain back
@example([atom("p", x, y), atom("q", x, y)],
         [atom("p", a, a), atom("p", b, b), atom("q", a, a), atom("q", b, b)], {})
# one source atom: its domain is yielded as it is, after the binding's keys
@example([atom("p", y, x)], [atom("p", a, b), atom("p", b, a), atom("p", b, b), atom("p", a, a)],
         {x: a})
@example([atom("p", x, x)], [atom("p", b, b), atom("p", a, b), atom("p", a, a)], {})
@example([atom("p", a, y)], [atom("p", b, a), atom("p", a, b), atom("p", a, a), atom("q", a)], {})
def test_search_yields_what_the_reference_matcher_yields_in_its_order(src, target, binding):
    # the order fixes the chase's trigger order, and so its null numbering; the
    # key order is entails' witness order
    expected = [list(h.items()) for h in reference_homomorphisms(src, set(target), binding)]
    assert [list(h.items()) for h in homomorphisms(src, set(target), binding)] == expected
    assert [list(h.items()) for h in homomorphisms(src, AtomIndex(target), binding)] == expected


@pytest.mark.parametrize("src, target, binding, found", [
    # every source atom has one candidate, and they disagree on y
    ([atom("p", x, y), atom("q", y, z)], [atom("p", a, b), atom("q", a, c)], {}, 0),
    ([atom("q", y, z), atom("p", x, y)], [atom("p", a, b), atom("q", a, c)], {}, 0),
    # the binding leaves one candidate of p's two, and it disagrees with q's
    ([atom("p", x, y), atom("q", y, z)],
     [atom("p", a, b), atom("p", b, a), atom("q", a, c)], {x: a}, 0),
    # a third atom agrees with the first on x and with the second on z, not on u
    ([atom("p", x, y), atom("q", y, z), atom("r", x, z, u), atom("s", u)],
     [atom("p", a, b), atom("q", b, c), atom("r", a, c, a), atom("s", b)], {}, 0),
    # the one map, without and with a binding of a variable it also binds
    ([atom("p", x, y), atom("q", y, z)], [atom("p", a, b), atom("q", b, c)], {}, 1),
    ([atom("q", y, z), atom("p", x, y)],
     [atom("p", a, b), atom("p", b, b), atom("q", b, c)], {x: a, w: c}, 1),
])
def test_a_forced_match_yields_what_the_reference_matcher_yields(src, target, binding, found):
    expected = [list(h.items()) for h in reference_homomorphisms(src, target, binding)]
    assert len(expected) == found
    assert [list(h.items()) for h in homomorphisms(src, target, binding)] == expected
    assert [list(h.items()) for h in homomorphisms(MatchPlan(src), AtomIndex(target),
                                                   binding)] == expected


def test_atom_index_without_leaves_the_index_and_other_buckets_alone():
    index = AtomIndex([atom("p", a), atom("p", b), atom("q", a)])
    masked = index.without(atom("p", a))
    assert masked.buckets[("p", 1)] == [atom("p", b)]
    assert masked.buckets[("q", 1)] is index.buckets[("q", 1)]
    assert index.buckets[("p", 1)] == [atom("p", a), atom("p", b)]


def test_long_chain_maps_without_recursion():
    # distinct predicates: one candidate per atom, but 1,200 atoms to bind in turn
    chain = cq(*[atom(f"p{i}", var(f"V{i}"), var(f"V{i + 1}")) for i in range(1200)])
    start = time.perf_counter()
    assert find_homomorphism(chain.atoms, chain.index) is not None
    assert more_general(chain, chain)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("n, name, bound", [
    (30, lambda i: var(f"V{i}"), 5),
    (100, lambda i: var(f"V{i}"), 1),
    (100, lambda i: var("V", i), 1),
], ids=["30-atoms-Vi", "100-atoms-Vi", "100-atoms-V-index"])
def test_core_of_a_path_is_quick(n, name, bound):
    # a path is its own core, and every atom shares the one bucket; forward
    # checking alone backtracks here, more the more atoms there are
    path = cq(*[atom("r", name(i), name(i + 1)) for i in range(n)])
    start = time.perf_counter()
    assert core(path).atoms == path.atoms
    assert time.perf_counter() - start < bound


core_atom_strategy = st.builds(
    lambda p, ts: atom(p, *ts[:len(p)]),  # arity: p/1, qq/2, rrr/3
    st.sampled_from(["p", "qq", "qq", "rrr"]),
    st.lists(st.sampled_from([x, y, z, u, w, a, b]), min_size=3, max_size=3),
)
core_query_strategy = st.builds(
    with_answers,
    st.sets(core_atom_strategy, min_size=1, max_size=8),
    st.lists(st.sampled_from([x, y, z, u, a]), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(core_query_strategy)
@example(cq(atom("qq", x, y), atom("qq", y, z), atom("qq", z, u), atom("qq", u, w)))
@example(cq(atom("qq", x, y), atom("qq", y, x), atom("qq", x, z), answer_vars=(z,)))
@example(cq(atom("qq", x, y), atom("qq", x, z), atom("p", y), atom("p", z), atom("p", w)))
def test_core_is_the_reference_retraction(q):
    # the arc-consistency pass only skips tests that fail, so the retract is
    # the one the plain loop reaches, atom for atom
    got = core(q)
    want = reference_core(q)
    assert (got.atoms, got.answer_vars) == (want.atoms, want.answer_vars)
    if len(q.variables()) <= 4:
        fixed = {v: v for v in q.answer_vars if v.is_variable}
        whole = attach_answer_atom(q).atoms
        for at in homomorphism.fixed_atoms(q.plan, q.index, fixed):
            assert not brute_force_hom_exists(whole, whole - {at}), at


def plan_state(plan):
    """Everything a plan holds, as plain values."""
    return (plan.atoms, repr(plan.keys), repr(plan.consts), repr(plan.repeats),
            repr(plan.slots))


@settings(max_examples=200, deadline=None)
@given(st.lists(match_atom_strategy, max_size=4),
       st.lists(st.tuples(st.lists(st.sampled_from(MATCH_TARGETS), max_size=18),
                          st.dictionaries(st.sampled_from([x, y, z]),
                                          st.sampled_from([x, a, b]), max_size=2)),
                min_size=2, max_size=4))
def test_one_plan_serves_every_target_and_binding_in_turn(src, runs):
    plan = MatchPlan(src)
    before = plan_state(plan)
    for target, binding in runs:
        expected = [list(h.items()) for h in reference_homomorphisms(src, set(target), binding)]
        assert [list(h.items()) for h in homomorphisms(plan, AtomIndex(target), binding)] == expected
        assert plan_state(plan) == before


def test_a_cached_plan_stays_out_of_equality_and_hash():
    q1 = cq(atom("p", x, y), atom("q", y, a), answer_vars=(x,))
    q2 = cq(atom("p", x, y), atom("q", y, a), answer_vars=(x,))
    expected = hash(q2)
    assert q1.plan is q1.plan
    assert "plan" in vars(q1) and "plan" not in vars(q2)
    assert q1 == q2 and hash(q1) == hash(q2) == expected


def unbuilt(q):
    """An equal query with none of its views computed yet."""
    return ConjunctiveQuery(q.atoms, q.answer_vars)


@settings(max_examples=150, deadline=None)
@given(answer_query_strategy, answer_query_strategy)
def test_more_general_and_core_do_not_depend_on_an_earlier_plan(q1, q2):
    a2 = attach_answer_atom(q2)
    for q in (attach_answer_atom(q1), q1):  # core fixes q1's answer variables
        cold = more_general(unbuilt(q), unbuilt(a2)), core(unbuilt(q))
        warm = unbuilt(q)
        before = plan_state(warm.plan)
        for _ in range(2):  # the plan built beforehand, then the one the first call used
            assert (more_general(warm, a2), core(warm)) == cold
            assert plan_state(warm.plan) == before


def test_more_general_builds_one_plan_per_non_boolean_query(monkeypatch):
    built = []

    class CountingPlan(MatchPlan):
        __slots__ = ()

        def __init__(self, atoms):
            built.append(self)
            super().__init__(atoms)

    monkeypatch.setattr(kb, "MatchPlan", CountingPlan)
    qs = [cq(atom("p", x, y), answer_vars=(x,)),
          cq(atom("p", x, y), atom("q", y), answer_vars=(x,)),
          cq(atom("p", x, a), answer_vars=(x,))]
    verdicts = [more_general(q1, q2) for _ in range(3) for q1 in qs for q2 in qs]
    assert len(verdicts) == 27 and verdicts[:9] == verdicts[9:18] == verdicts[18:]
    assert verdicts[:9] == [True, True, True, False, True, False, False, False, True]
    assert len(built) == 3
    assert attach_answer_atom(qs[0]) is attach_answer_atom(qs[0])


@pytest.mark.parametrize("named", [lambda i: var(f"V{i}"), lambda i: var("V", i)])
def test_a_query_maps_into_itself_and_an_equal_copy_by_the_identity_without_a_search(named):
    vs = [named(i) for i in range(401)]
    q = ConjunctiveQuery(frozenset(atom("r", vs[i], vs[i + 1]) for i in range(400)))
    copy = ConjunctiveQuery(frozenset(atom("r", vs[i], vs[i + 1]) for i in range(400)))
    for target in (q, copy):
        start = time.perf_counter()
        assert more_general(q, target)
        assert time.perf_counter() - start < 0.05
