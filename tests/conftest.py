"""Shared helpers: random instance generators and data-file access."""
from __future__ import annotations

import random
from pathlib import Path

import pytest

from ucqrewrite import (
    Atom, ConjunctiveQuery, ExistentialRule, PieceUnifier, TermPartition, aggregate_rules, atom,
    const, cq, rule, var)
from ucqrewrite.homomorphism import find_homomorphism
from ucqrewrite.kb import AtomIndex, MatchPlan, apply_to_atoms

DATA = Path(__file__).parent / "data"


def load(name: str) -> str:
    return (DATA / name).read_text()


def reference_homomorphisms(source, target, binding=None):
    """A plain recursive backtracking matcher, kept as an oracle for the
    package's ``homomorphisms``: the same substitutions in the same order.

    At every step it rescans each remaining atom's candidate bindings and
    matches the atom with the fewest, the first in source order on a tie;
    candidates come in the target buckets' order.
    """
    buckets = (target if isinstance(target, AtomIndex) else AtomIndex(target)).buckets

    def extend(src, tgt, b):
        b = dict(b)
        for s, t in zip(src.args, tgt.args):
            if s.is_constant:
                if s != t:
                    return None
            elif b.setdefault(s, t) != t:
                return None
        return b

    def candidates(a, b):
        out = (extend(a, t, b) for t in buckets.get((a.predicate, a.arity), ()))
        return [nb for nb in out if nb is not None]

    def search(remaining, b):
        if not remaining:
            yield dict(b)
            return
        cands, best = min(((candidates(a, b), a) for a in remaining), key=lambda p: len(p[0]))
        rest = [a for a in remaining if a is not best]
        for nb in cands:
            yield from search(rest, nb)

    yield from search(list(source), dict(binding or {}))


def reference_core(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """``homomorphism.core``'s retraction loop without its arc-consistency
    pass, kept as an oracle for it: each atom left that shares its bucket is
    tested, in sorted order, and the atoms become the first map's image."""
    atoms, index, plan = q.atoms, q.index, q.plan
    fixed = {v: v for v in q.answer_vars if v.is_variable}
    for a in sorted(q.atoms):
        if a not in atoms or len(index.buckets[(a.predicate, a.arity)]) == 1:
            continue
        h = find_homomorphism(plan, index.without(a), fixed)
        if h is not None:
            atoms = apply_to_atoms(h, atoms)
            index, plan = AtomIndex(atoms), MatchPlan(atoms)
    return ConjunctiveQuery(atoms, q.answer_vars)


def components(groups):
    """Connected components of the graph linking each term to its group's
    other terms, found by flooding an adjacency list.  Any hashable items
    will do as the terms."""
    adj = {}
    for g in groups:
        for s in g:
            adj.setdefault(s, set()).update(g)
    out, seen = set(), set()
    for t in adj:
        if t in seen:
            continue
        comp, todo = set(), [t]
        while todo:
            s = todo.pop()
            if s not in comp:
                comp.add(s)
                todo.extend(adj[s] - comp)
        seen |= comp
        out.add(frozenset(comp))
    return frozenset(out)


def reference_aggregate(members: list[PieceUnifier]) -> PieceUnifier | None:
    """The from-scratch merge of the members, kept as an oracle for
    ``CompiledRule.aggregation``, which extends each aggregation's prefix:
    the parts must be disjoint, the joined partition's classes are the
    flooded components of all the members' classes, the join must hold at
    most one constant a class, and the rule is aggregate_rules over the
    members' rules."""
    taken: set[Atom] = set()
    for m in members:
        if m.q_part & taken:
            return None
        taken |= m.q_part
    classes = components(c for m in members for c in m.partition.classes)
    if any(sum(1 for t in c if t.is_constant) > 1 for c in classes):
        return None
    joined = TermPartition(classes)
    return PieceUnifier(frozenset(taken), frozenset(a for m in members for a in m.h_part),
                        joined, aggregate_rules([m.rule for m in members]),
                        merged=tuple(members))


def random_linear_rules(
    rng: random.Random,
    n_rules: int,
    n_preds: int = 5,
    max_arity: int = 3,
) -> list[ExistentialRule]:
    """Linear rules (one body atom, one head atom) over a small signature."""
    arity = {f"p{i}": rng.randint(1, max_arity) for i in range(n_preds)}
    names = sorted(arity)
    rules = []
    for i in range(n_rules):
        bp, hp = rng.choice(names), rng.choice(names)
        body_vars = [var(f"X{j}") for j in range(arity[bp])]
        # each head position is a body variable or a fresh existential
        head_args = []
        for j in range(arity[hp]):
            if body_vars and rng.random() < 0.7:
                head_args.append(rng.choice(body_vars))
            else:
                head_args.append(var(f"Y{j}"))
        rules.append(rule(f"r{i}", [Atom(bp, tuple(body_vars))],
                          [Atom(hp, tuple(head_args))]))
    return rules


def random_query(
    rng: random.Random,
    rules: list[ExistentialRule],
    max_atoms: int = 5,
    n_vars: int = 4,
) -> ConjunctiveQuery:
    arity = {}
    for r in rules:
        for a in list(r.body) + list(r.head):
            arity.setdefault(a.predicate, a.arity)
    names = sorted(arity)
    pool = [var(f"U{i}") for i in range(n_vars)]
    atoms = set()
    for _ in range(rng.randint(1, max_atoms)):
        p = rng.choice(names)
        atoms.add(Atom(p, tuple(rng.choice(pool) for _ in range(arity[p]))))
    return ConjunctiveQuery(frozenset(atoms), ())


def random_facts(
    rng: random.Random,
    rules: list[ExistentialRule],
    max_atoms: int = 12,
    n_consts: int = 5,
) -> frozenset[Atom]:
    arity = {}
    for r in rules:
        for a in list(r.body) + list(r.head):
            arity.setdefault(a.predicate, a.arity)
    names = sorted(arity)
    consts = [const(f"a{i}") for i in range(n_consts)]
    atoms = set()
    for _ in range(rng.randint(1, max_atoms)):
        p = rng.choice(names)
        atoms.add(Atom(p, tuple(rng.choice(consts) for _ in range(arity[p]))))
    return frozenset(atoms)


def random_multi_head_instance(rng: random.Random) -> tuple[list[ExistentialRule], ConjunctiveQuery]:
    """1-3 rules with 1-2 joined body atoms and 1-2 head atoms (two in the
    first rule) with existentials and constants, labels drawn from a few so
    that some repeat, and a 1-4 atom query with 0-1 answer variables."""
    arity = {"a": 1, "b": 2, "p": 2, "s": 1, "t": 2}
    c = const("c")
    rules = []
    for i in range(rng.randint(1, 3)):
        xs = [var(f"X{j}") for j in range(3)]
        first = rng.choice("abpst")
        body = [Atom(first, tuple(rng.choice(xs[:2]) for _ in range(arity[first])))]
        if rng.random() < 0.5:  # a second atom joined to the first on one of its variables
            second = rng.choice("abpst")
            args = [rng.choice(xs) if rng.random() < 0.8 else c for _ in range(arity[second])]
            args[0] = rng.choice(body[0].args)
            body.append(Atom(second, tuple(args)))
        frontier = sorted({t for a in body for t in a.args})
        terms = frontier + [var("Y0"), var("Y1"), c]
        weights = [2] * len(frontier) + [2, 1, 1]
        head = set()
        while len(head) < (2 if i == 0 else rng.randint(1, 2)):
            p = rng.choice("pst")
            head.add(Atom(p, tuple(rng.choices(terms, weights)[0] for _ in range(arity[p]))))
        rules.append(rule(rng.choice(["r", "r", f"r{i}"]), body, head))
    pool = [var(f"U{j}") for j in range(4)] + [c]
    atoms = set()
    for _ in range(rng.randint(1, 4)):
        p = rng.choice("psstt")
        atoms.add(Atom(p, tuple(rng.choices(pool, [3, 3, 3, 3, 1])[0] for _ in range(arity[p]))))
    variables = sorted({t for a in atoms for t in a.args if t.is_variable})
    answer = tuple(rng.sample(variables, 1)) if variables and rng.random() < 0.4 else ()
    return rules, ConjunctiveQuery(frozenset(atoms), answer)
