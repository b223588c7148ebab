"""Homomorphism search, the generality preorder, cores and covers."""
from __future__ import annotations

from typing import Iterable, Iterator, Optional, Union

from .kb import (
    Atom,
    AtomIndex,
    ConjunctiveQuery,
    Term,
    attach_answer_atom,
    canonicalize,
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
    target: Union[AtomIndex, Iterable[Atom]],
    binding: Optional[Substitution] = None,
) -> Iterator[Substitution]:
    """All substitutions h with h(source) a subset of target, extending binding.

    Backtracking search; the next atom to match is always the one with the
    fewest remaining candidate target atoms.  Candidates are tried in
    Atom.sort_key order; a plain iterable target is indexed once, here.
    """
    src = list(source)
    tgt_by_pred = (target if isinstance(target, AtomIndex) else AtomIndex(target)).buckets

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
        # only the chosen atom's candidates stay alive while this level is suspended
        cands, best = min(((candidates(a, b), a) for a in remaining), key=lambda p: len(p[0]))
        rest = [a for a in remaining if a is not best]
        for nb in cands:
            yield from search(rest, nb)

    yield from search(src, dict(binding or {}))


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
    h maps each answer variable to itself.
    """
    atoms = q.atoms
    fixed = {v: v for v in q.answer_vars if v.is_variable}
    for a in sorted_atoms(q.atoms):
        h = find_homomorphism(atoms, atoms - {a}, fixed) if a in atoms and len(atoms) > 1 else None
        if h is not None:
            atoms = apply_to_atoms(h, atoms)
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
