"""Homomorphism search, the generality preorder, cores and covers."""
from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from .kb import (
    Atom,
    AtomIndex,
    ConjunctiveQuery,
    Substitution,
    apply_to_atoms,
    attach_answer_atom,
    canonicalize,
)


def _narrow(domains, occurs, b, bound, chosen, narrowed) -> bool:
    """Keep in each domain the targets that agree with the newly bound
    variables, saving the old domains in narrowed; False once one empties."""
    for s in bound:
        val = b[s]
        for j, k in occurs[s]:
            if j != chosen:
                narrowed.append((j, domains[j]))
                d = domains[j] = [u for u in domains[j] if u.args[k] == val]
                if not d:
                    return False
    return True


def _undo(b, domains, bound, narrowed) -> None:
    for s in bound:
        del b[s]
    for j, d in reversed(narrowed):
        domains[j] = d


def homomorphisms(
    source: Iterable[Atom],
    target: Union[AtomIndex, Iterable[Atom]],
    binding: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """All substitutions h with h(source) a subset of target, extending binding.

    Forward checking (Haralick and Elliott, AIJ 1980) over an explicit stack.
    Each source atom has one domain: the target atoms of its bucket, in
    sorted order, that it still maps onto under the current binding.
    Binding a candidate narrows only the domains of unbound atoms that share
    a variable it newly binds, and drops the candidate at once if one of them
    empties; moving on restores them.  The next atom to match is the unbound
    one with the smallest domain, the first in source order on a tie, and its
    candidates are tried in domain order, so a lone source atom yields its
    domain in order, without the search.  A plain iterable target is indexed
    once, here.
    """
    src = list(source)
    buckets = (target if isinstance(target, AtomIndex) else AtomIndex(target)).buckets
    b = dict(binding or {})
    domains = []
    slots = []  # per source atom: (variable, position) where each variable free in b first occurs
    for a in src:
        d = buckets.get((a.predicate, a.arity), ())
        first = {}
        for k, s in enumerate(a.args):
            val = b.get(s) if s.is_variable else s
            if val is not None:
                d = [u for u in d if u.args[k] == val]
            elif (k0 := first.setdefault(s, k)) != k:
                d = [u for u in d if u.args[k] == u.args[k0]]
        if not d:
            return
        domains.append(d)
        slots.append(list(first.items()))
    if len(src) == 1:  # every atom of the one domain is a match, in order
        for t in domains[0]:
            h = dict(b)
            for s, k in slots[0]:
                h[s] = t.args[k]
            yield h
        return
    occurs = None  # variable -> [(source atom, position)], built when first needed
    free = list(range(len(src)))
    # one frame per matched atom: [atom, iterator over its candidates, variables
    # the current candidate bound, (atom, domain) pairs it narrowed, atoms left free]
    stack = []
    while True:
        if free:
            best = free[0]
            size = len(domains[best])
            for i in free:
                if len(domains[i]) < size:
                    best, size = i, len(domains[i])
            stack.append([best, iter(domains[best]), (), (), [i for i in free if i != best]])
        else:
            yield dict(b)
        while stack:  # move the top frame on to its next candidate that empties no domain
            frame = stack[-1]
            i, cands, bound, narrowed, below = frame
            _undo(b, domains, bound, narrowed)
            for t in cands:
                bound, narrowed = [], []
                for s, k in slots[i]:
                    if s not in b:
                        b[s] = t.args[k]
                        bound.append(s)
                if not (bound and below):
                    break
                if occurs is None:
                    occurs = {}
                    for j, sl in enumerate(slots):
                        for s, k in sl:
                            occurs.setdefault(s, []).append((j, k))
                if _narrow(domains, occurs, b, bound, i, narrowed):
                    break
                _undo(b, domains, bound, narrowed)
            else:
                stack.pop()
                continue
            frame[2:4] = bound, narrowed
            free = below
            break
        else:
            return


def find_homomorphism(
    source: Iterable[Atom],
    target: Union[AtomIndex, Iterable[Atom]],
    binding: Optional[Substitution] = None,
) -> Optional[Substitution]:
    for h in homomorphisms(source, target, binding):
        return h
    return None


def more_general(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """q1 >= q2: q1 maps homomorphically into q2 (on ans-augmented forms)."""
    a1, a2 = attach_answer_atom(q1), attach_answer_atom(q2)
    return find_homomorphism(a1.atoms, a2.index) is not None


def equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return more_general(q1, q2) and more_general(q2, q1)


def isomorphic(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return canonicalize(q1) == canonicalize(q2)


def core(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Retract q onto its core in one pass: each atom a left is tested once.

    If h maps the atoms into the atoms minus a, they become their image.  A
    test that fails on a set fails on every retract of it, as the set maps
    onto the retract, so every atom left has failed and no retract remains.
    h maps each answer variable to itself.  The atoms are indexed once, and
    again after each retraction; an atom alone in its bucket is never tested,
    as nothing else can be its image.
    """
    atoms, index = q.atoms, q.index
    fixed = {v: v for v in q.answer_vars if v.is_variable}
    for a in sorted(q.atoms):
        if a not in atoms or len(index.buckets[(a.predicate, a.arity)]) == 1:
            continue
        h = find_homomorphism(atoms, index.without(a), fixed)
        if h is not None:
            atoms = apply_to_atoms(h, atoms)
            index = AtomIndex(atoms)
    return ConjunctiveQuery(atoms, q.answer_vars)


def cover(
    explored: Iterable[ConjunctiveQuery],
    fresh: Iterable[ConjunctiveQuery],
) -> set[ConjunctiveQuery]:
    """Minimal subset covering explored + fresh under >=.

    explored must be pairwise incomparable, as the rewriting loop's result set
    is, so no two explored queries are compared.  Each fresh query, in
    ConjunctiveQuery.sort_key order, is dropped if a kept query is >= it, and
    otherwise evicts every kept query it is >= and is kept.  So within an
    equivalence class an explored query is preferred, then the least sort key.
    """
    kept = list(explored)
    fresh = sorted(fresh, key=ConjunctiveQuery.sort_key)

    def ge(a: ConjunctiveQuery, b: ConjunctiveQuery) -> bool:
        return a.signature <= b.signature and more_general(a, b)

    for x in fresh:
        if not any(ge(k, x) for k in kept):
            kept = [k for k in kept if not ge(x, k)]
            kept.append(x)
    return set(kept)
