"""Term partitions, joins, admissibility and the associated substitution."""
import pytest
from hypothesis import given, strategies as st

from ucqrewrite import (
    TermPartition,
    finer_than,
    join,
    const,
    var,
)
from conftest import components

x, y, z, w = var("x"), var("y"), var("z"), var("w")
a, b = const("a"), const("b")


def test_partition_from_term_groups():
    p = TermPartition([(x, y), (z,)])
    assert x in p.class_of(y)
    assert x not in p.class_of(z)
    assert p.class_of(x) == {x, y}
    assert p.classes == {frozenset({x, y}), frozenset({z})}


def test_constructor_from_classes():
    p = TermPartition([{x, y}, {z}])
    assert x in p.class_of(y)
    assert p.carrier == {x, y, z}


def test_join_merges_overlapping_classes():
    p1 = TermPartition([{x, y}, {z}])
    p2 = TermPartition([{y, z}, {w}])
    j = join(p1, p2)
    assert j.class_of(x) == {x, y, z}
    assert j.carrier == {x, y, z, w}


def test_admissibility():
    assert TermPartition([{x, a}, {y, b}]).admissible
    assert not TermPartition([{x, a, b}]).admissible


def test_finer_than():
    fine = TermPartition([{x}, {y}, {z}])
    coarse = TermPartition([{x, y}, {z}])
    assert finer_than(fine, coarse)
    assert not finer_than(coarse, fine)
    with pytest.raises(ValueError):
        finer_than(fine, TermPartition([{x, y}]))


def test_associated_substitution_prefers_constants():
    p = TermPartition([{x, y, a}, {z, w}])
    u = p.substitution
    assert u[x] == a and u[y] == a
    # variable class: the smallest variable represents, itself unmapped
    rep = min({z, w})
    assert u.get(z, z) == rep and u.get(w, w) == rep
    assert rep not in u


def test_a_class_with_a_constant_is_represented_by_it():
    u = TermPartition([{var("__x", 0), var("v", 1), a}]).substitution
    assert u == {var("__x", 0): a, var("v", 1): a}


def test_a_class_with_query_variables_is_represented_by_its_least_one():
    # rule copies' variables take the reserved prefix "__", which sorts before
    # "v", a canonical query's name, and after "X", a parsed one's
    mixed = {var("__x", 0), var("__y", 1), var("v", 3), var("v", 1)}
    u = TermPartition([mixed]).substitution
    assert set(u) == mixed - {var("v", 1)}
    assert set(u.values()) == {var("v", 1)}
    u = TermPartition([{var("__x", 0), var("v", 0), var("X")}]).substitution
    assert u == {var("__x", 0): var("X"), var("v", 0): var("X")}


def test_a_class_of_rule_copy_variables_is_represented_by_its_least_member():
    u = TermPartition([{var("__y", 0), var("__x", 1), var("__x", 0)}]).substitution
    assert u == {var("__y", 0): var("__x", 0), var("__x", 1): var("__x", 0)}


def test_associated_substitution_rejects_inadmissible():
    with pytest.raises(ValueError):
        TermPartition([{a, b}]).substitution


def test_factorization_through_substitution():
    # u(s) == u(t) exactly when s and t share a class
    p = TermPartition([{x, y}, {z, a}, {w}])
    u = p.substitution
    terms = [x, y, z, w, a]
    for s in terms:
        for t in terms:
            assert (u.get(s, s) == u.get(t, t)) == (s in p.class_of(t))


term_pool = [x, y, z, w, a, b]
pairs = st.lists(
    st.tuples(st.sampled_from(term_pool), st.sampled_from(term_pool)),
    min_size=0, max_size=8,
)


@given(pairs, pairs)
def test_join_is_least_upper_bound(us1, us2):
    p1, p2 = TermPartition(us1), TermPartition(us2)
    j = join(p1, p2)
    # join is coarser than both on the shared carrier
    for p in (p1, p2):
        for c in p.classes:
            c = list(c)
            for t in c[1:]:
                assert c[0] in j.class_of(t)


@given(pairs)
def test_substitution_idempotent(unions):
    p = TermPartition(unions)
    if not p.admissible:
        return
    u = p.substitution
    for t in p.carrier:
        image = u.get(t, t)
        assert u.get(image, image) == image


groups = st.lists(st.lists(st.sampled_from(term_pool), max_size=4), max_size=6)


def substitution_or_error(p):
    try:
        return p.substitution
    except ValueError as e:
        return str(e)


def assert_stored_facts_hold(p):
    """carrier, admissibility and the associated substitution, as stored on
    p, against their recomputation from p's classes."""
    classes = p.classes
    assert p.carrier == frozenset().union(*classes)
    admissible = all(sum(1 for t in c if t.is_constant) <= 1 for c in classes)
    assert p.admissible == admissible
    if not admissible:
        assert substitution_or_error(p) == "partition is not admissible"
        return
    sub = p.substitution
    assert sub == {t: min(c) for c in classes for t in c if t != min(c) and t.is_variable}
    assert p.substitution is sub


@given(groups, groups)
def test_partition_is_the_components_of_its_groups(g1, g2):
    p1, p2 = TermPartition(g1), TermPartition(g2)
    assert p1.classes == components(g1)
    assert p1.carrier == {t for g in g1 for t in g}
    for t in p1.carrier:
        assert p1.class_of(t) == next(c for c in components(g1) if t in c)
    assert_stored_facts_hold(p1)
    j = join(p1, p2)
    assert j.classes == components(p1.classes | p2.classes) == components(g1 + g2)
    assert_stored_facts_hold(j)
    # the join merged into p1's classes is the partition of both groups built at once
    whole = TermPartition(g1 + g2)
    assert j.classes == whole.classes
    assert all(j.class_of(t) == whole.class_of(t) for t in whole.carrier)
    assert j.admissible == whole.admissible
    assert substitution_or_error(j) == substitution_or_error(whole)
