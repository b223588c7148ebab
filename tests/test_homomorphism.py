"""Homomorphism search checked against a brute-force oracle; cores and covers."""
import random
from itertools import product

from hypothesis import given, settings, strategies as st

from ucqrewrite import (
    ConjunctiveQuery,
    atom,
    canonicalize,
    const,
    core,
    cover,
    cq,
    equivalent,
    find_homomorphism,
    homomorphisms,
    isomorphic,
    more_general,
    var,
)
from ucqrewrite.homomorphism import apply_to_atoms
from ucqrewrite.kb import signature, terms_of, vars_of

x, y, z = var("x"), var("y"), var("z")
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
    atoms = sorted(q.atoms, key=lambda at: at.sort_key())
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


def test_core_removes_redundant_atom():
    q = cq(atom("p", x, y), atom("p", x, z))
    k = core(q)
    assert len(k.atoms) == 1
    assert equivalent(k, q)


def test_core_keeps_rigid_query():
    q = cq(atom("p", x, y), atom("p", y, x))
    assert core(q).atoms == q.atoms


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


def test_cover_of_disjoint_queries_keeps_all():
    qs = [cq(atom("p", x)), cq(atom("q", x)), cq(atom("r", x))]
    assert cover(explored=[], fresh=qs) == set(qs)


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
    got = sorted(got, key=ConjunctiveQuery.sort_key)
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
        sizes.add(len(cover(explored=shuffled[:cut], fresh=shuffled[cut:])))
    assert len(sizes) == 1


def reference_cover(explored, fresh):
    """Cover by brute force: the maximal >=-classes of explored + fresh, each
    represented by its least (explored first, canonical form, form) member."""
    explored = list(explored)
    items = list(dict.fromkeys(explored + list(fresh)))

    def pref_key(q):
        return (0 if q in explored else 1, canonicalize(q).sort_key(), q.sort_key())

    kept = set()
    for q in items:
        if any(more_general(r, q) and not more_general(q, r) for r in items):
            continue
        cls = [r for r in items if more_general(r, q) and more_general(q, r)]
        kept.add(min(cls, key=pref_key))
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
def test_cover_matches_reference(explored, fresh):
    # explored is drawn freely, so it is often not pairwise incomparable
    assert cover(explored=explored, fresh=fresh) == reference_cover(explored, fresh)


def test_cover_matches_reference_on_comparable_explored():
    p_xy = cq(atom("p", x, y))
    explored = [cq(atom("p", x, y), atom("q", y, z)), p_xy, cq(atom("p", y, z)),
                cq(atom("p", x, x), answer_vars=(x,))]
    fresh = [cq(atom("p", z, x)), cq(atom("q", x, y), answer_vars=(x,))]
    got = cover(explored=explored, fresh=fresh)
    assert got == reference_cover(explored, fresh) == {p_xy, fresh[1]}


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
        assert signature(q1) <= signature(q2)
