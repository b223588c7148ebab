"""One-step rewriting, the breadth-first loop, guards, and saturation."""
import gc
import json
import random
from importlib import resources

import pytest

from ucqrewrite import (
    Atom,
    ConjunctiveQuery,
    Limits,
    atom,
    canonicalize,
    compile_rules,
    core,
    cq,
    equivalent,
    general_piece_unifiers,
    kb,
    make_operator,
    more_general,
    parse_document,
    rewrite,
    rewriting,
    rule,
    saturate,
    single_piece_unifiers,
    var,
)
from ucqrewrite.dlgp import printed_cover
from ucqrewrite.kb import (
    ANS_PREDICATE,
    AUX_PREFIX,
    FreshCounter,
    attach_answer_atom,
    decompose_atomic_head,
    freshen_rule,
)
from ucqrewrite.homomorphism import cover
from ucqrewrite.rewriting import OPERATOR_KINDS, InvariantViolation, beta
from ucqrewrite.unification import RuleBase
from conftest import DATA, load, random_linear_rules, random_multi_head_instance, random_query

x, y, z, t, u, v, w = (var(n) for n in "xyztuvw")


def covers_of(res):
    return {canonicalize(q) for q in res.cover}


def test_beta_on_glued_pair():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    q = cq(atom("p", u, v), atom("p", w, v), atom("r", u, w))
    (mu,) = [m for m in general_piece_unifiers(q, r) if len(m.q_part) == 2]
    got = canonicalize(beta(q, mu))
    want = canonicalize(cq(atom("q", x), atom("r", x, x)))
    assert got == want


def test_beta_rejects_invalid_unifier():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    q = cq(atom("p", u, v), atom("p", v, t))
    mus = general_piece_unifiers(q, r)
    # a unifier of p(u,v) alone is invalid here (v meets the existential)
    from ucqrewrite import PieceUnifier, TermPartition

    bad = PieceUnifier(
        frozenset({atom("p", u, v)}),
        frozenset({atom("p", x, y)}),
        TermPartition([{u, x}, {v, y}]),
        r,
    )
    with pytest.raises(ValueError):
        beta(q, bad)
    assert len(mus) == 1  # only the tail atom unifies


def test_beta_folds_the_answer_variables_into_the_rewriting():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    (mu,) = single_piece_unifiers(cq(atom("p", u, v)), r)
    # v would be bound to the existential y, but an answer variable separates
    with pytest.raises(ValueError):
        beta(cq(atom("p", u, v), answer_vars=(v,)), mu)
    got = beta(cq(atom("p", u, v), answer_vars=(u,)), mu)
    assert got == attach_answer_atom(cq(atom("q", u), answer_vars=(u,)))


@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_operators_keep_the_answer_variables_of_a_non_boolean_query(kind):
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    op = make_operator(kind)
    # the answer variable v would bind the existential y: no rewriting
    assert op(cq(atom("p", u, v), answer_vars=(v,)), [r]) == []
    (got,) = op(cq(atom("p", u, v), answer_vars=(u,)), [r])
    assert canonicalize(got) == canonicalize(
        attach_answer_atom(cq(atom("q", u), answer_vars=(u,))))


def test_an_unknown_operator_kind_is_refused():
    with pytest.raises(ValueError, match="^unknown operator kind 'bogus'$"):
        make_operator("bogus")


UNIFIER_FUNCTIONS = {"full-piece": "general_piece_unifiers",
                     "single-piece": "single_piece_unifiers",
                     "aggregated": "enumerate_aggregated"}


@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_operators_call_their_unifier_function_through_the_module(kind, monkeypatch):
    # a wrapper installed on the module attribute after the operator is made
    # must see its calls, as the per-layer tracer does
    op = make_operator(kind)
    name = UNIFIER_FUNCTIONS[kind]
    found = getattr(rewriting, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return found(*args)

    monkeypatch.setattr(rewriting, name, counting)
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    assert [canonicalize(g) for g in op(cq(atom("p", u, v)), [r])] == [
        canonicalize(cq(atom("q", u)))]
    assert calls


def test_two_rule_loop_terminates_with_two_element_cover():
    r1 = rule("r1", [atom("t", x), atom("p", x, y)], [atom("r", y)])
    r2 = rule("r2", [atom("r", x), atom("p", x, y)], [atom("t", y)])
    q = cq(atom("t", u))
    for kind in ("full-piece", "single-piece", "aggregated"):
        res = rewrite(q, [r1, r2], make_operator(kind))
        assert res.terminated
        assert covers_of(res) == {
            canonicalize(cq(atom("t", u))),
            canonicalize(cq(atom("r", x), atom("p", x, y))),
        }


def test_rewrite_keeps_answer_variables_of_non_boolean_query():
    r = rule("r", [atom("q", x)], [atom("p", x, y)])
    q = cq(atom("p", u, v), answer_vars=(u,))
    answered = canonicalize(attach_answer_atom(cq(atom("q", u), answer_vars=(u,))))
    for kind in OPERATOR_KINDS:
        cover = rewrite(q, [r], make_operator(kind)).cover
        saturated = saturate(q, [r], make_operator(kind), 1)
        for queries in (cover, saturated):
            assert all(any(a.predicate == ANS_PREDICATE for a in c.atoms) for c in queries)
            assert answered in queries
            assert canonicalize(cq(atom("q", u))) not in queries


def cover_instances():
    """The golden files with a query, then random linear instances."""
    for path in sorted(DATA.glob("*.dlgp")):
        doc = parse_document(path.read_text())
        if doc.queries:
            yield path.name, doc.queries[0], doc.rules
    rng = random.Random(29)
    for i in range(25):
        rules = random_linear_rules(rng, rng.randint(1, 4), n_preds=3, max_arity=2)
        yield f"random #{i}", random_query(rng, rules, max_atoms=3, n_vars=3), rules


@pytest.mark.parametrize("kind", ("single-piece", "aggregated"))
def test_cover_holds_canonical_cores(kind):
    for name, q, rules in cover_instances():
        res = rewrite(q, rules, make_operator(kind), Limits(max_generated=1500, timeout=5))
        for c in res.cover:
            assert c == canonicalize(core(c)), (name, str(c))


def test_empty_rule_set_returns_query_at_depth_zero():
    q = cq(atom("p", u, v))
    res = rewrite(q, [], make_operator("aggregated"))
    assert res.terminated and res.depth_reached == 0
    assert covers_of(res) == {canonicalize(q)}


def divergent_instance():
    """Transitive closure with answer variables: no finite cover exists."""
    from ucqrewrite import attach_answer_atom

    r1 = rule("r1", [atom("e", x, y)], [atom("t", x, y)])
    r2 = rule("r2", [atom("e", x, y), atom("t", y, z)], [atom("t", x, z)])
    q = attach_answer_atom(cq(atom("t", u, v), answer_vars=(u, v)))
    return q, [r1, r2]


def test_max_depth_guard():
    q, rules = divergent_instance()
    res = rewrite(q, rules, make_operator("aggregated"),
                  Limits(max_depth=2, max_generated=None, timeout=None))
    assert not res.terminated
    assert res.depth_reached <= 2
    # depth 0 means: report the processed input without exploring
    res0 = rewrite(q, rules, make_operator("aggregated"),
                   Limits(max_depth=0))
    assert not res0.terminated and res0.depth_reached == 0


def test_max_generated_guard_fires_on_divergent_instance():
    q, rules = divergent_instance()
    res = rewrite(q, rules, make_operator("aggregated"),
                  Limits(max_generated=20, timeout=None))
    assert not res.terminated
    assert res.generated_count > 20


def test_timeout_guard():
    q, rules = divergent_instance()
    res = rewrite(q, rules, make_operator("aggregated"),
                  Limits(max_generated=None, timeout=0.0))
    assert not res.terminated


def test_a_guard_crossed_on_the_level_that_empties_the_frontier_reports_termination():
    # p <- q <- p: two raw rewritings, after which no query is left to explore
    rules = [rule("r1", [atom("q", x)], [atom("p", x)]),
             rule("r2", [atom("p", x)], [atom("q", x)])]
    q = cq(atom("p", u))
    full = rewrite(q, rules, make_operator("aggregated"))
    bounded = rewrite(q, rules, make_operator("aggregated"),
                      Limits(max_generated=1, timeout=None))
    assert full.terminated and full.generated_count == 2
    assert bounded.terminated and bounded.generated_count == 2 > 1
    assert bounded.cover == full.cover


def test_reflexive_specialization_needs_multi_piece():
    r = rule("r", [atom("r", x, x)], [atom("p", x, x)])
    q = cq(atom("p", y, z), atom("p", z, y))
    full = rewrite(q, [r], make_operator("full-piece"))
    sp = rewrite(q, [r], make_operator("single-piece"))
    target = canonicalize(cq(atom("r", x, x)))
    assert target in covers_of(full)
    assert target not in covers_of(sp)


def test_debug_invariants_clean_on_terminating_instance():
    r1 = rule("r1", [atom("t", x), atom("p", x, y)], [atom("r", y)])
    r2 = rule("r2", [atom("r", x), atom("p", x, y)], [atom("t", y)])
    rewrite(cq(atom("t", u)), [r1, r2], make_operator("aggregated"),
            debug_invariants=True)


def test_debug_invariants_detects_bad_operator():
    r = rule("r", [atom("q", x)], [atom("p", x)])
    from ucqrewrite.rewriting import _check_invariants

    q0 = canonicalize(cq(atom("p", u)))
    qf = {q0}
    with pytest.raises(InvariantViolation, match="uncovered"):
        # q0 explored but its rewriting q(x) is not covered
        _check_invariants(qf, set(), make_operator("aggregated"), [r])


def test_debug_invariants_detects_a_frontier_outside_the_result_set():
    from ucqrewrite.rewriting import _check_invariants

    q0 = canonicalize(cq(atom("p", u)))
    with pytest.raises(InvariantViolation, match="frontier not contained in result set"):
        _check_invariants(set(), {q0}, make_operator("aggregated"), [])


def test_debug_invariants_detects_comparable_result_set():
    from ucqrewrite.rewriting import _check_invariants

    general, special = canonicalize(cq(atom("p", u, v))), canonicalize(cq(atom("p", u, u)))
    with pytest.raises(InvariantViolation, match="comparable"):
        _check_invariants({general, special}, set(), make_operator("aggregated"), [])


def test_saturate_reaches_all_depths():
    r1 = rule("r1", [atom("t", x), atom("p", x, y)], [atom("r", y)])
    r2 = rule("r2", [atom("r", x), atom("p", x, y)], [atom("t", y)])
    q = cq(atom("t", u))
    s0 = saturate(q, [r1, r2], make_operator("single-piece"), 0)
    s2 = saturate(q, [r1, r2], make_operator("single-piece"), 2)
    assert len(s0) == 1
    assert len(s2) > len(s0)
    assert s0 <= s2


def test_operator_determinism():
    rng = random.Random(3)
    rules = random_linear_rules(rng, 5)
    q = random_query(rng, rules)
    results = [
        sorted(covers_of(rewrite(q, rules, make_operator("aggregated"),
                                 Limits(max_generated=3000, timeout=10))),
               key=ConjunctiveQuery.sort_key)
        for _ in range(3)
    ]
    assert results[0] == results[1] == results[2]


def test_full_and_aggregated_equivalent_covers_on_random_instances():
    rng = random.Random(5)
    checked = 0
    for _ in range(15):
        rules = random_linear_rules(rng, rng.randint(1, 4), n_preds=3, max_arity=2)
        q = random_query(rng, rules, max_atoms=3, n_vars=3)
        ra = rewrite(q, rules, make_operator("aggregated"),
                     Limits(max_generated=2000, timeout=10))
        rf = rewrite(q, rules, make_operator("full-piece"),
                     Limits(max_generated=2000, timeout=10))
        if not (ra.terminated and rf.terminated):
            continue
        checked += 1
        assert len(ra.cover) == len(rf.cover)
        for qa in ra.cover:
            assert any(equivalent(qa, qf) for qf in rf.cover)
    assert checked >= 5


def test_multi_atom_heads_as_written_agree_with_the_oracle_and_decomposition():
    # the cover of the rules as written equals full-piece's and, without its
    # aux queries, that of the heads split by decompose_atomic_head
    rng = random.Random(18)
    limits = Limits(max_generated=300, max_depth=10, timeout=None)
    terminated = skipped = 0
    for _ in range(150):
        rules, q = random_multi_head_instance(rng)
        counter = FreshCounter()
        decomposed = [d for r in rules for d in decompose_atomic_head(r, counter)]
        runs = []
        for kind, rs in (("aggregated", rules), ("aggregated", decomposed), ("full-piece", rules)):
            try:
                res = rewrite(q, rs, make_operator(kind), limits)
            except ValueError:  # a query beyond the oracle's size caps
                break
            if not res.terminated:
                break
            runs.append(res)
        if len(runs) < 3:
            skipped += 1
            continue
        terminated += 1
        written, split, oracle = (list(res.cover) for res in runs)
        split = [c for c in split if not any(a.predicate.startswith(AUX_PREFIX) for a in c.atoms)]
        assert len(written) == len(oracle) == len(split)
        for other in (oracle, split):
            assert all(any(equivalent(c, d) for d in other) for c in written)
    assert terminated >= 0.9 * (terminated + skipped)


@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_rules_with_heads_absent_from_query_change_no_rewriting(kind):
    rng = random.Random(11)
    for _ in range(30):
        rules = random_linear_rules(rng, rng.randint(1, 4))
        q = random_query(rng, rules)
        preds = sorted({(at.predicate, at.arity) for at in q.atoms})
        # heads over new predicates, and over a query predicate with another arity
        extra = [rule(f"e{i}", [Atom(p, tuple(var(f"X{j}") for j in range(n)))],
                      [Atom(f"e{i}", (var("X0"), var("Y")))])
                 for i, (p, n) in enumerate(preds)]
        p, n = preds[0]
        extra.append(rule("e_arity", [Atom(p, tuple(var(f"X{j}") for j in range(n)))],
                          [Atom(p, tuple(var(f"X{j}") for j in range(n + 1)))]))
        plain = make_operator(kind)(q, rules)
        padded = make_operator(kind)(q, extra[:1] + rules + extra[1:])
        assert sorted(map(canonicalize, plain), key=ConjunctiveQuery.sort_key) == \
            sorted(map(canonicalize, padded), key=ConjunctiveQuery.sort_key)


@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_rule_copies_share_no_variable_with_the_query(kind):
    # a rule copy once named its variable v at index k v<k>, as canonicalize
    # names query variable k, so unifying p(Y,Y) with p(w,w) also merged X and Y
    q = cq(atom("p", var("Y"), var("Y")), atom("t", var("X"), var("X"), var("Y")))

    def printed(first, second):
        r = rule("r", [atom("q", first, second)], [atom("p", second, second)])
        return printed_cover(rewrite(q, [r], make_operator(kind)))

    got = printed(var("v"), var("w"))
    assert "? :- q(X0,X1), t(X2,X2,X1)." in got
    assert got == printed(var("A"), var("B"))


@pytest.mark.parametrize("kind", ("single-piece", "aggregated"))
def test_rules_with_equal_head_copies_keep_their_own_existentials(kind):
    # both heads copy to p(__x0,__y0), but only r1's second position is existential
    r1 = rule("r1", [atom("q", x)], [atom("p", x, y)])
    r2 = rule("r2", [atom("s", x, y)], [atom("p", x, y)])
    for rules in ([r1, r2], [r2, r1]):
        res = rewrite(cq(atom("p", u, u)), rules, make_operator(kind))
        assert printed_cover(res) == ["? :- p(X0,X0).", "? :- s(X0,X0)."]


@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_a_raw_rewriting_is_rewritten_like_its_canonical_form(kind):
    # the raw rewriting q(__x0,u) holds copy 0's variables
    r = rule("r", [atom("q", x, y)], [atom("q", y, z)])
    op = make_operator(kind)
    (raw,) = op(cq(atom("q", u, v)), [r])
    assert {canonicalize(q) for q in op(raw, [r])} == \
        {canonicalize(q) for q in op(canonicalize(raw), [r])} == {canonicalize(cq(atom("q", u, v)))}


@pytest.mark.parametrize("kind", ("single-piece", "aggregated"))
def test_no_raw_rewriting_reaches_the_cover_twice(kind, monkeypatch):
    # a raw rewriting an earlier level gave to cover is still covered by the
    # result set, so the loop drops it before cover; the counts must not move
    data = resources.files("ucqrewrite") / "data"
    rules = parse_document((data / "ontology.dlgp").read_text()).rules
    queries = parse_document((data / "queries.dlgp").read_text()).queries
    baselines = json.loads((data / "baselines.json").read_text())
    given = []

    def recording_cover(explored, fresh):
        fresh = list(fresh)
        if explored:  # the loop's calls; the invariant check passes no explored query
            given.extend(fresh)
        return cover(explored, fresh)

    monkeypatch.setattr(rewriting, "cover", recording_cover)
    for q, base in zip(queries, baselines):
        given.clear()
        res = rewrite(attach_answer_atom(q), rules, make_operator(kind), Limits(),
                      debug_invariants=True)
        assert len(given) == len(set(given)), base["query"]
        got = {"generated": res.generated_count, "output": len(res.cover),
               "depth": res.depth_reached}
        assert res.terminated and got == base[kind], base["query"]


def test_aggregated_rewriting_leaves_no_cyclic_garbage():
    # a reference cycle would keep a compiled rule, and its memos, alive until
    # the cycle collector runs; with DEBUG_SAVEALL the collector keeps what it
    # would free in gc.garbage
    data = resources.files("ucqrewrite") / "data"
    rules = parse_document((data / "ontology.dlgp").read_text()).rules
    queries = parse_document((data / "queries.dlgp").read_text()).queries
    flags = gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for q in queries:
            res = rewrite(attach_answer_atom(q), rules, make_operator("aggregated"), Limits())
            assert res.terminated
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()


def summary(res):
    return printed_cover(res), res.generated_count, res.depth_reached, res.terminated


def canonical(q):
    """q as rewrite explores it: the form compile_rules is asked about."""
    return canonicalize(attach_answer_atom(q))


def memo_entries(base):
    """The unifiers and aggregations a RuleBase holds."""
    return sum(len(c._unifiers) for r in base.rules for c in r._copies) + \
        sum(len(r._aggregations) for r in base.rules)


def counting_rule_copies(monkeypatch):
    """The rules kb.freshen_rule is called on from now on."""
    calls = []
    found = kb.freshen_rule

    def counting(r, counter):
        calls.append(r)
        return found(r, counter)

    monkeypatch.setattr(kb, "freshen_rule", counting)
    return calls


@pytest.mark.parametrize("kind", OPERATOR_KINDS)
def test_rewrite_and_saturate_take_a_compiled_rule_base(kind):
    text = load("two_rule_loop.dlgp")
    doc = parse_document(text)
    base = RuleBase(doc.rules)
    assert compile_rules(base, canonical(doc.queries[0])) is base
    op = make_operator(kind)
    fresh = parse_document(text).rules
    assert summary(rewrite(doc.queries[0], base, op)) == \
        summary(rewrite(doc.queries[0], fresh, op))
    assert saturate(doc.queries[0], base, op, 3) == \
        saturate(doc.queries[0], parse_document(text).rules, op, 3)


def test_rewriting_the_same_rule_objects_again_makes_no_rule_copy(monkeypatch):
    text = load("two_rule_loop.dlgp")
    doc = parse_document(text)
    rules, q = doc.rules, doc.queries[0]
    op = make_operator("aggregated")
    copies = counting_rule_copies(monkeypatch)
    first = summary(rewrite(q, rules, op))
    assert copies
    copies.clear()
    assert summary(rewrite(q, rules, op)) == first
    assert summary(rewrite(q, list(rules), op)) == first  # a new list of the same rules
    assert not copies
    base = compile_rules(rules, canonical(q))
    assert compile_rules(tuple(rules), canonical(q)) is base
    # equal rules parsed anew are other objects: they are compiled anew
    equal = parse_document(text).rules
    assert equal == rules
    assert compile_rules(equal, canonical(q)) is not base
    assert summary(rewrite(q, equal, op)) == first
    assert copies


def test_a_rule_list_changed_between_calls_is_compiled_anew():
    text = load("two_rule_loop.dlgp")
    extra = "[r3] r(Y) :- s(Y)."
    q = parse_document(text).queries[0]
    op = make_operator("aggregated")
    want_swapped = summary(rewrite(q, parse_document(text).rules[::-1], op))
    want_grown = summary(rewrite(
        q, parse_document(text).rules[::-1] + parse_document(extra).rules, op))
    assert want_grown != want_swapped

    rules = parse_document(text).rules
    base = compile_rules(rules, canonical(q))
    rules.reverse()
    swapped = compile_rules(rules, canonical(q))
    assert swapped is not base and [c.rule for c in swapped.rules] == rules
    assert summary(rewrite(q, rules, op)) == want_swapped

    rules.append(parse_document(extra).rules[0])
    grown = compile_rules(rules, canonical(q))
    assert grown is not swapped and [c.rule for c in grown.rules] == rules
    assert summary(rewrite(q, rules, op)) == want_grown


def test_a_query_with_a_data_constant_gets_a_rule_base_of_its_own(monkeypatch):
    # its memos would serve only queries with that constant: the kept rule
    # base neither serves nor keeps them, so new constants leave it as it is
    text = load("shared_witness.dlgp")
    doc = parse_document(text)
    rules, q = doc.rules, doc.queries[0]
    op = make_operator("aggregated")
    rewrite(q, rules, op)
    base = compile_rules(rules, canonical(q))
    kept = memo_entries(base)
    assert kept
    assert compile_rules(rules, attach_answer_atom(q)) is not base  # variables as parsed
    copies = counting_rule_copies(monkeypatch)
    for name in ("a", "b", "c"):
        with_constant = parse_document(
            f"? :- p({name},V), p(W,V), p(W,T), r({name},W).").queries[0]
        assert compile_rules(rules, canonical(with_constant)) is not base
        assert summary(rewrite(with_constant, rules, op)) == \
            summary(rewrite(with_constant, parse_document(text).rules, op))
    assert copies
    assert compile_rules(rules, canonical(q)) is base and memo_entries(base) == kept
    # a constant of the rules is in their vocabulary
    ruled = parse_document(text + "[r2] q(X) :- r(a,X).\n").rules
    shared = compile_rules(ruled, canonical(q))
    assert compile_rules(ruled, canonical(parse_document("? :- q(a).").queries[0])) is shared


# two_rule_loop's rules grow t(U0) by one atom a level, so the full-piece
# operator refuses this query at its second level, past the size caps
GROWING = "? :- t(U0), s(U0,U1), s(U1,U2), s(U2,U3), s(U3,U4), s(U4,U5), " \
          "s(U5,U6), s(U6,U7), s(U7,U8)."
# a constant of no rule: each operator rewrites it over a rule base of its own
WITH_CONSTANT = "? :- p(U,a), p(a,T), r(T)."


def test_interleaved_queries_and_operators_over_one_rule_list_match_fresh_rules(monkeypatch):
    # every golden file's rules in one list, and its queries in turn under
    # each operator; a run the full-piece operator refuses partway through
    # must leave the shared memos as a fresh rule list has them
    texts = [path.read_text() for path in sorted(DATA.glob("*.dlgp"))] + \
        [GROWING, WITH_CONSTANT]

    def parsed():
        docs = [parse_document(text) for text in texts]
        return [r for d in docs for r in d.rules], [q for d in docs for q in d.queries]

    n = len(parsed()[1]) - 1  # the golden queries and GROWING
    golden = [(i, OPERATOR_KINDS[(i + j) % len(OPERATOR_KINDS)])
              for j in range(len(OPERATOR_KINDS)) for i in range(n - 1)]
    refused = [(n - 1, "full-piece"), (n - 1, "aggregated"), (n - 1, "single-piece")]
    with_constant = [(n, kind) for kind in OPERATOR_KINDS]
    sequence = golden[:n] + refused + with_constant + golden[n:]
    limits = Limits(max_generated=300, timeout=None)

    def run(rules, q, kind):
        explored = []
        op = make_operator(kind)

        def counted(cur, base):
            explored.append(cur)
            return op(cur, base)

        try:
            return summary(rewrite(q, rules, counted, limits)), len(explored)
        except ValueError as e:
            return ("refused", str(e)), len(explored)

    copies = counting_rule_copies(monkeypatch)
    want = []
    for i, kind in sequence:
        rules, queries = parsed()
        want.append(run(rules, queries[i], kind))
    fresh_copies = len(copies)
    copies.clear()

    rules, queries = parsed()
    base = compile_rules(rules, canonical(queries[0]))
    got = [run(rules, queries[i], kind) for i, kind in sequence]
    assert compile_rules(rules, canonical(queries[0])) is base
    assert got == want
    (refusal, _), (after, _) = want[n:n + 2]
    assert refusal[0] == "refused" and after[0] != "refused"
    assert want[n][1] > 1  # refused at the second level, not the first
    assert 0 < len(copies) < fresh_copies
