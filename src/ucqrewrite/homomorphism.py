"""Homomorphism search, the generality preorder, cores and covers."""
from __future__ import annotations

from typing import Iterable, Iterator, Optional

from .kb import (
    Atom,
    ConjunctiveQuery,
    Term,
    attach_answer_atom,
    canonicalize,
    signature,
    sorted_atoms,
)

# A substitution maps variables to terms; constants are implicitly fixed.
Substitution = dict[Term, Term]


def apply_to_term(s: Substitution, t: Term) -> Term:
    return s.get(t, t)


def apply_to_atom(s: Substitution, a: Atom) -> Atom:
    return Atom(a.predicate, tuple(s.get(t, t) for t in a.args))


def apply_to_atoms(s: Substitution, atoms: Iterable[Atom]) -> frozenset[Atom]:
    return frozenset(apply_to_atom(s, a) for a in atoms)


def _try_match(src: Atom, tgt: Atom, binding: Substitution) -> Optional[Substitution]:
    b = binding
    extended = False
    for s, t in zip(src.args, tgt.args):
        if s.is_constant:
            if s != t:
                return None
        else:
            cur = b.get(s)
            if cur is None:
                if not extended:
                    b = dict(b)
                    extended = True
                b[s] = t
            elif cur != t:
                return None
    return b


def homomorphisms(
    source: Iterable[Atom],
    target: Iterable[Atom],
    binding: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """All substitutions h with h(source) a subset of target, extending binding.

    Backtracking search; the next atom to match is always the one with the
    fewest remaining candidate target atoms.
    """
    src = list(source)
    tgt_by_pred: dict[tuple[str, int], list[Atom]] = {}
    for a in set(target):
        tgt_by_pred.setdefault((a.predicate, a.arity), []).append(a)
    for key in tgt_by_pred:
        tgt_by_pred[key].sort(key=Atom.sort_key)

    def candidates(a: Atom, b: Substitution) -> list[Substitution]:
        out = []
        for t in tgt_by_pred.get((a.predicate, a.arity), ()):
            nb = _try_match(a, t, b)
            if nb is not None:
                out.append(nb)
        return out

    def search(remaining: list[Atom], b: Substitution) -> Iterator[Substitution]:
        if not remaining:
            yield dict(b)
            return
        scored = [(candidates(a, b), a) for a in remaining]
        cands, best = min(scored, key=lambda p: len(p[0]))
        rest = [a for a in remaining if a is not best]
        for nb in cands:
            yield from search(rest, nb)

    yield from search(src, dict(binding or {}))


def find_homomorphism(
    source: Iterable[Atom],
    target: Iterable[Atom],
    binding: Optional[Substitution] = None,
) -> Optional[Substitution]:
    for h in homomorphisms(source, target, binding):
        return h
    return None


def more_general(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """q1 >= q2: q1 maps homomorphically into q2 (on ans-augmented forms)."""
    a1, a2 = attach_answer_atom(q1), attach_answer_atom(q2)
    return find_homomorphism(a1.atoms, a2.atoms) is not None


def equivalent(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return more_general(q1, q2) and more_general(q2, q1)


def isomorphic(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    return len(q1.atoms) == len(q2.atoms) and equivalent(q1, q2)


def core(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Remove redundant atoms until no single-atom retract remains."""
    atoms = set(q.atoms)
    changed = True
    while changed and len(atoms) > 1:
        changed = False
        for a in sorted_atoms(atoms):
            rest = atoms - {a}
            if find_homomorphism(atoms, rest) is not None:
                atoms = rest
                changed = True
                break
    return ConjunctiveQuery(frozenset(atoms), q.answer_vars)


def cover(
    explored: Iterable[ConjunctiveQuery],
    fresh: Iterable[ConjunctiveQuery],
) -> set[ConjunctiveQuery]:
    """Minimal subset covering explored + fresh under >=.

    Within an equivalence class an explored element is always preferred to a
    fresh one; remaining ties go to the smallest canonical form.  One pass
    inserts each query, explored first, into a pairwise-incomparable kept
    list, so each ordered pair is decided at most once.
    """
    explored = list(explored)
    explored_set = set(explored)
    items = list(dict.fromkeys(explored + list(fresh)))
    sigs = {q: signature(q) for q in items}

    def ge(a: ConjunctiveQuery, b: ConjunctiveQuery) -> bool:
        return sigs[a] <= sigs[b] and more_general(a, b)

    def pref_key(q: ConjunctiveQuery):
        return (0 if q in explored_set else 1, canonicalize(q).sort_key(), q.sort_key())

    kept: list[ConjunctiveQuery] = []
    for x in items:
        above = next((i for i, k in enumerate(kept) if ge(k, x)), None)
        if above is None:
            kept = [k for k in kept if not ge(x, k)]
            kept.append(x)
        elif ge(x, kept[above]) and pref_key(x) < pref_key(kept[above]):
            kept[above] = x
    return set(kept)
