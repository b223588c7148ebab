"""Homomorphism search, the generality preorder, cores and covers."""
from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from .kb import (
    Atom,
    AtomIndex,
    ConjunctiveQuery,
    MatchPlan,
    Substitution,
    apply_to_atoms,
    attach_answer_atom,
    canonicalize,
)


def homomorphisms(
    source: Union[MatchPlan, Iterable[Atom]],
    target: Union[AtomIndex, Iterable[Atom]],
    binding: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """All substitutions h with h(source) a subset of target, extending binding.

    source is a MatchPlan, or atoms that are compiled into one here, and a
    plain iterable target is indexed once, here.  The plan holds what the
    search needs from the source alone: its atoms in order, each atom's
    bucket key, constant checks, repeated-variable checks and first-occurrence
    slots, and the map from each variable to its occurrences (see
    kb.MatchPlan).  A binding never changes the plan: it only filters this
    call's domains and leaves its variables' slots unbound.

    Forward checking (Haralick and Elliott, AIJ 1980) over an explicit stack.
    Each source atom has one domain: the target atoms of its bucket, in
    sorted order, that it still maps onto under the current binding.
    Binding a candidate narrows only the domains of unbound atoms that share
    a variable it newly binds, and drops the candidate at once if one of them
    empties; moving on restores them.  The next atom to match is the unbound
    one with the smallest domain, the first in source order on a tie, and its
    candidates are tried in domain order, so a lone source atom yields its
    domain in order, without the search.
    """
    plan = source if isinstance(source, MatchPlan) else MatchPlan(source)
    buckets = (target if isinstance(target, AtomIndex) else AtomIndex(target)).buckets
    b = dict(binding or {})
    domains = []
    for key, consts, repeats, slots in zip(plan.keys, plan.consts, plan.repeats, plan.slots):
        d = buckets.get(key, ())
        for k, c in consts:
            d = [u for u in d if u[2][k] == c]
        for k, k0 in repeats:
            d = [u for u in d if u[2][k] == u[2][k0]]
        if b:
            for s, k, _ in slots:
                if s in b:
                    val = b[s]
                    d = [u for u in d if u[2][k] == val]
        if not d:
            return
        domains.append(d)
    slots = plan.slots
    if len(domains) == 1:  # every atom of the one domain is a match, in order
        new = [(s, k) for s, k, _ in slots[0] if s not in b]
        for t in domains[0]:
            h = dict(b)
            for s, k in new:
                h[s] = t[2][k]
            yield h
        return
    free = list(range(len(domains)))
    # one frame per matched atom: [atom, iterator over its candidates, the slots
    # its candidates bind, the (atom, position, slot position) domain checks
    # those bindings make, the (atom, domain) pairs the current candidate
    # narrowed (None before the first), atoms left free]
    # plain loops below, not comprehensions: on lists of a few items, as here,
    # a comprehension's own call costs more than its work
    stack = []
    while True:
        if free:
            i = free[0]
            size = len(domains[i])
            for j in free:
                if len(domains[j]) < size:
                    i, size = j, len(domains[j])
            new, checks = [], []
            for slot in slots[i]:
                if slot[0] not in b:
                    new.append(slot)
                    for j, kj in slot[2]:
                        if j != i:
                            checks.append((j, kj, slot[1]))
            below = free.copy()
            below.remove(i)
            stack.append([i, iter(domains[i]), new, checks, None, below])
        else:
            yield dict(b)
        while stack:  # move the top frame on to its next candidate that empties no domain
            frame = stack[-1]
            i, cands, new, checks, narrowed, below = frame
            if narrowed is not None:
                for s, _, _ in new:
                    del b[s]
                for j, d in reversed(narrowed):
                    domains[j] = d
            for t in cands:
                args, narrowed = t[2], []
                for j, kj, k in checks:
                    val = args[k]
                    narrowed.append((j, domains[j]))
                    d = []
                    for u in domains[j]:
                        if u[2][kj] == val:
                            d.append(u)
                    if not d:
                        break
                    domains[j] = d
                else:
                    break
                for j, d in reversed(narrowed):
                    domains[j] = d
            else:
                stack.pop()
                continue
            for s, k, _ in new:
                b[s] = args[k]
            frame[4] = narrowed
            free = below
            break
        else:
            return


def find_homomorphism(
    source: Union[MatchPlan, Iterable[Atom]],
    target: Union[AtomIndex, Iterable[Atom]],
    binding: Optional[Substitution] = None,
) -> Optional[Substitution]:
    return next(homomorphisms(source, target, binding), None)


def more_general(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """q1 >= q2: q1 maps homomorphically into q2 (on ans-augmented forms)."""
    return find_homomorphism(attach_answer_atom(q1).plan,
                             attach_answer_atom(q2).index) is not None


def equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return more_general(q1, q2) and more_general(q2, q1)


def isomorphic(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return canonicalize(q1) == canonicalize(q2)


def fixed_atoms(plan: MatchPlan, index: AtomIndex, fixed: Substitution) -> set[Atom]:
    """Atoms of plan that every self-map extending fixed sends to themselves,
    as far as arc consistency (Mackworth, AIJ 1977) shows.

    index holds plan's atoms, and fixed maps variables to themselves.  An
    atom alone in its bucket is its only image, so its variables are fixed
    too.  Each other atom's domain starts as its bucket under the plan's
    constant and repeat checks and the fixed variables.  A variable's values
    are those that every one of its occurrences allows, and an atom keeps
    the candidates whose arguments are allowed, until nothing changes.  The
    identity is a self-map, so no domain empties; an atom whose domain ends
    as itself alone is returned.  A pass only drops candidates that no
    self-map uses, so it may return fewer atoms than are fixed, never more.
    """
    buckets, keys, slots = index.buckets, plan.keys, plan.slots
    bound = set(fixed)
    shared = []
    for j, key in enumerate(keys):
        if len(buckets[key]) == 1:
            for s, _, _ in slots[j]:
                bound.add(s)
        else:
            shared.append(j)
    domains = [None] * len(keys)
    joins = {}  # atom -> its slots of free variables that occur in another atom
    for j in shared:
        d = buckets[keys[j]]
        for k, c in plan.consts[j]:
            d = [u for u in d if u[2][k] == c]
        for k, k0 in plan.repeats[j]:
            d = [u for u in d if u[2][k] == u[2][k0]]
        js = []
        for slot in slots[j]:
            s, k, occ = slot
            if s in bound:
                d = [u for u in d if u[2][k] == s]
            elif len(occ) > 1:
                js.append(slot)
        domains[j] = d
        if js:
            joins[j] = js
    # the values of each free variable; every domain's projection on it is a
    # subset, so an atom narrows it exactly when its projection is smaller.
    # The smallest domains are taken first, as they narrow the most.
    values = {}
    queue = sorted(joins, key=lambda j: len(domains[j]), reverse=True)
    queued = set(queue)
    while queue:
        j = queue.pop()
        queued.remove(j)
        d = domains[j]
        for s, k, occ in joins[j]:
            allowed = {u[2][k] for u in d}
            old = values.get(s)
            if old is not None and len(allowed) == len(old):
                continue
            values[s] = allowed
            for i, ki in occ:
                di = domains[i]
                if i != j and len(di) > 1:
                    narrowed = [u for u in di if u[2][ki] in allowed]
                    if len(narrowed) < len(di):
                        domains[i] = narrowed
                        if i in joins and i not in queued:
                            queue.append(i)
                            queued.add(i)
    atoms = plan.atoms
    return {atoms[j] for j in shared if len(domains[j]) == 1}


def core(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Retract q onto its core in one pass: each atom a left is tested once.

    If h maps the atoms into the atoms minus a, they become their image.  A
    test that fails on a set fails on every retract of it, as the set maps
    onto the retract, so every atom left has failed and no retract remains.
    h maps each answer variable to itself.  The atoms are indexed and
    compiled into a match plan once, q's own, and again after each
    retraction; an atom alone in its bucket is never tested, as nothing else
    can be its image.  Nor is an atom that fixed_atoms finds on q: every
    self-map of q sends it to itself, so its test fails, and fails on every
    retract too, as a map of a retract that avoided it, composed with the
    retraction, would be a self-map of q that avoids it.
    """
    atoms, index, plan = q.atoms, q.index, q.plan
    fixed = {v: v for v in q.answer_vars if v.is_variable}
    skip = fixed_atoms(plan, index, fixed) if len(index.buckets) < len(atoms) else ()
    for a in sorted(q.atoms):
        if a not in atoms or a in skip or len(index.buckets[(a.predicate, a.arity)]) == 1:
            continue
        h = find_homomorphism(plan, index.without(a), fixed)
        if h is not None:
            atoms = apply_to_atoms(h, atoms)
            index, plan = AtomIndex(atoms), MatchPlan(atoms)
    return ConjunctiveQuery(atoms, q.answer_vars)


def cover(
    explored: Iterable[ConjunctiveQuery],
    fresh: Iterable[ConjunctiveQuery],
) -> set[ConjunctiveQuery]:
    """Minimal subset covering explored + fresh under >=.

    explored must be pairwise incomparable, as the rewriting loop's result set
    is, so no two explored queries are compared.  Each fresh query, in the
    order given, is dropped if a kept query is >= it, and otherwise evicts
    every kept query it is >= and is kept.  So within an equivalence class
    the explored query is kept, and otherwise the first fresh one.
    """
    kept = list(explored)
    # a >= b needs a.signature <= b.signature, tested first and inline
    for x in fresh:
        sig = x.signature
        for k in kept:
            if k.signature <= sig and more_general(k, x):
                break
        else:
            kept = [k for k in kept if not (sig <= k.signature and more_general(x, k))]
            kept.append(x)
    return set(kept)
