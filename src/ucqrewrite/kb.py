"""Core syntactic objects: terms, atoms, queries, rules and substitutions.

Queries and facts are plain sets of atoms; a non-Boolean query carries an
ordered tuple of answer terms that can be folded into a reserved ``__ans``
atom so the whole engine only ever deals with Boolean queries.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from itertools import count
from operator import itemgetter
from typing import Iterable, Iterator, Optional

VARIABLE = "variable"
CONSTANT = "constant"

ANS_PREDICATE = "__ans"
AUX_PREFIX = "__aux_"
NULL_PREFIX = "__n"
RESERVED_PREFIX = "__"
CANONICAL_NAME = "v"  # the name of canonicalize's variables, told apart by index


_RANKS = {CONSTANT: False, VARIABLE: True}


class Term(tuple):
    """A variable or constant.  Machine-generated terms carry a fresh_index.

    The tuple (rank, name, index) is the sort key, so hash, equality and order
    are the tuple's: rank is False (0) for a constant and True (1) for a
    variable, and index is fresh_index, or -1 for an unindexed term.  The hash
    holds only strings and ints, so a fixed hash seed fixes it.
    """

    __slots__ = ()

    def __new__(cls, kind: str, name: str, fresh_index: Optional[int] = None):
        if fresh_index is None:
            fresh_index = -1
        elif fresh_index < 0:  # -1 stands for "unindexed"
            raise ValueError(f"negative fresh_index {fresh_index}")
        return tuple.__new__(cls, (_RANKS[kind], name, fresh_index))

    def __getnewargs__(self):  # what copy and pickle pass back to __new__
        return self.kind, self.name, self.fresh_index

    is_variable = property(itemgetter(0))
    is_constant = property(lambda self: not self[0])
    kind = property(lambda self: VARIABLE if self[0] else CONSTANT)
    name = property(itemgetter(1))
    fresh_index = property(lambda self: None if self[2] < 0 else self[2])

    def __repr__(self) -> str:
        return f"Term{self.__getnewargs__()!r}"

    def __str__(self) -> str:
        return self[1] if self[2] < 0 else f"{self[1]}{self[2]}"


def var(name: str, fresh_index: Optional[int] = None) -> Term:
    return Term(VARIABLE, name, fresh_index)


def const(name: str, fresh_index: Optional[int] = None) -> Term:
    return Term(CONSTANT, name, fresh_index)


class Atom(tuple):
    """predicate(args) as the tuple (predicate, arity, args), its sort key:
    hash, equality and order are the tuple's."""

    __slots__ = ()

    def __new__(cls, predicate: str, args: tuple[Term, ...]):
        return tuple.__new__(cls, (predicate, len(args), args))

    def __getnewargs__(self):
        return self[0], self[2]

    predicate = property(itemgetter(0))
    arity = property(itemgetter(1))
    args = property(itemgetter(2))

    def variables(self) -> frozenset[Term]:
        return frozenset(t for t in self[2] if t.is_variable)

    def __repr__(self) -> str:
        return f"Atom{self.__getnewargs__()!r}"

    def __str__(self) -> str:
        return f"{self[0]}({','.join(str(t) for t in self[2])})"


def atom(predicate: str, *args: Term) -> Atom:
    return Atom(predicate, tuple(args))


# A substitution maps variables to terms; constants are implicitly fixed.
Substitution = dict[Term, Term]


def apply_to_atom(s: Substitution, a: Atom) -> Atom:
    """s(a); a itself when s leaves every argument as it is."""
    args = tuple([s.get(t, t) for t in a.args])
    return a if args == a.args else Atom(a.predicate, args)


def apply_to_atoms(s: Substitution, atoms: Iterable[Atom]) -> frozenset[Atom]:
    return frozenset(apply_to_atom(s, a) for a in atoms)


def vars_of(atoms: Iterable[Atom]) -> frozenset[Term]:
    return frozenset(t for a in atoms for t in a.args if t.is_variable)


def terms_of(atoms: Iterable[Atom]) -> frozenset[Term]:
    return frozenset(t for a in atoms for t in a.args)


class AtomIndex:
    """Distinct atoms grouped by (predicate, arity), each bucket in sorted order.

    The one place atoms are grouped by (predicate, arity): homomorphism
    targets, a query's views and the chase instance all read these buckets.
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        self.buckets: dict[tuple[str, int], list[Atom]] = {}
        for a in set(atoms):
            self.buckets.setdefault((a.predicate, a.arity), []).append(a)
        for bucket in self.buckets.values():
            bucket.sort()

    def add(self, a: Atom) -> None:
        """Insert a, which must not be in the index yet, in order."""
        insort(self.buckets.setdefault((a.predicate, a.arity), []), a)

    def snapshot(self) -> "AtomIndex":
        """A copy that later adds to this index do not change."""
        out = AtomIndex()
        out.buckets = {k: list(v) for k, v in self.buckets.items()}
        return out

    def without(self, a: Atom) -> "AtomIndex":
        """A copy without a, which must be in the index; it shares every bucket but a's."""
        out = AtomIndex()
        out.buckets = dict(self.buckets)
        key = (a.predicate, a.arity)
        out.buckets[key] = [x for x in self.buckets[key] if x != a]
        return out


class MatchPlan:
    """A homomorphism source compiled once for ``homomorphism.homomorphisms``.

    ``atoms`` are the source's atoms in the caller's order, which is the
    search's order on ties.  For atom j, ``keys[j]`` is its (predicate, arity)
    bucket key, ``consts[j]`` the (position, constant) pairs and ``repeats[j]``
    the (position, earlier position) pairs of a repeated variable that every
    image must agree with, and ``slots[j]`` a (variable, position,
    occurrences) triple for each variable's first occurrence in it.  A
    variable's slots share one occurrences list, its slots' (atom, position)
    pairs in atom order, so the lists are the map from each variable to its
    occurrences.  Nothing in a plan depends on a target or a binding, so one
    plan serves every search from its source.
    """

    __slots__ = ("atoms", "keys", "consts", "repeats", "slots")

    def __init__(self, atoms: Iterable[Atom]):
        self.atoms = tuple(atoms)
        self.keys, self.consts, self.repeats, self.slots = [], [], [], []
        occurrences: dict[Term, list[tuple[int, int]]] = {}
        for j, (p, n, args) in enumerate(self.atoms):
            consts, repeats, slots, first = [], [], [], {}
            for k, t in enumerate(args):
                if not t[0]:  # a term's first field is its rank, False for a constant
                    consts.append((k, t))
                elif t in first:
                    repeats.append((k, first[t]))
                else:
                    first[t] = k
                    occ = occurrences.setdefault(t, [])
                    occ.append((j, k))
                    slots.append((t, k, occ))
            self.keys.append((p, n))
            self.consts.append(consts)
            self.repeats.append(repeats)
            self.slots.append(slots)


class memo:
    """A view computed on first use and kept in the instance __dict__, where
    later reads find it first: functools.cached_property without its lock on
    Python 3.11.  Not a field, so equality, hashing and repr never see it."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A CQ as a set of atoms.  answer_vars is empty for Boolean queries.

    answer_vars may contain constants after rewriting steps bind an answer
    position; variable entries must occur in the atom set.  The views index,
    plan, occurrences, signature and the answer-atom form (see
    attach_answer_atom) are memo views.
    """

    atoms: frozenset[Atom]
    answer_vars: tuple[Term, ...] = ()

    def __post_init__(self):
        if not self.answer_vars:
            return
        qvars = vars_of(self.atoms)
        for t in self.answer_vars:
            if t.is_variable and t not in qvars:
                raise ValueError(f"answer variable {t} does not occur in the query")

    @property
    def is_boolean(self) -> bool:
        return not self.answer_vars

    def variables(self) -> frozenset[Term]:
        return vars_of(self.atoms)

    @memo
    def index(self) -> AtomIndex:
        """The atoms (not the answer tuple) as an AtomIndex."""
        return AtomIndex(self.atoms)

    @memo
    def plan(self) -> MatchPlan:
        """The atoms (not the answer tuple) as a MatchPlan, in the set's order."""
        return MatchPlan(self.atoms)

    @memo
    def occurrences(self) -> dict[Term, frozenset[Atom]]:
        """Each variable of the atoms -> the atoms it occurs in."""
        out: dict[Term, set[Atom]] = {}
        for a in self.atoms:
            for t in a.args:
                if t.is_variable:
                    out.setdefault(t, set()).add(a)
        return {t: frozenset(atoms) for t, atoms in out.items()}

    @memo
    def _answer_atom_form(self) -> "ConjunctiveQuery":
        """attach_answer_atom's result for a non-Boolean query."""
        if any(a.predicate == ANS_PREDICATE for a in self.atoms):
            raise ValueError(f"{ANS_PREDICATE} atom already present")
        return ConjunctiveQuery(self.atoms | {Atom(ANS_PREDICATE, self.answer_vars)}, ())

    @memo
    def signature(self) -> frozenset[tuple[str, int]]:
        """(predicate, arity) pairs of the ans-augmented form.

        q1 >= q2 needs q1.signature <= q2.signature (Chandra and Merlin, 1977),
        and a rule has a piece-unifier with q only if a head atom's pair is in it.
        """
        if self.is_boolean:
            return frozenset(self.index.buckets)
        return frozenset(self.index.buckets) | {(ANS_PREDICATE, len(self.answer_vars))}

    def __str__(self) -> str:
        body = " & ".join(str(a) for a in sorted(self.atoms))
        if self.answer_vars:
            head = ",".join(str(t) for t in self.answer_vars)
            return f"?({head}) :- {body}"
        return body


def cq(*atoms_: Atom, answer_vars: tuple[Term, ...] = ()) -> ConjunctiveQuery:
    return ConjunctiveQuery(frozenset(atoms_), answer_vars)


@dataclass(frozen=True)
class ExistentialRule:
    """body -> head; head-only variables are existentially quantified."""

    label: str
    body: frozenset[Atom]
    head: frozenset[Atom]
    existentials: frozenset[Term] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "existentials", vars_of(self.head) - vars_of(self.body))

    def variables(self) -> frozenset[Term]:
        return vars_of(self.body) | vars_of(self.head)

    def __str__(self) -> str:
        b = " & ".join(str(a) for a in sorted(self.body))
        h = " & ".join(str(a) for a in sorted(self.head))
        return f"[{self.label}] {b} -> {h}"


def rule(label: str, body: Iterable[Atom], head: Iterable[Atom]) -> ExistentialRule:
    return ExistentialRule(label, frozenset(body), frozenset(head))


# a source of fresh indices, increasing from start; the benchmark builds its
# counters by this name
FreshCounter = count


def freshen_rule(r: ExistentialRule, counter: Iterator[int]) -> ExistentialRule:
    """Rename all rule variables to fresh ones (one index per call).

    The names take the reserved prefix, which neither ``canonicalize`` (``v<i>``)
    nor the DLGP parser produces, so a copy shares no variable with a query
    that does not use the prefix, and copies with distinct indices share none.
    """
    k = next(counter)
    mapping: Substitution = {}
    used: set[str] = set()
    for v in sorted(r.variables()):
        name = str(v)
        while name in used:  # x at index 1 must not clash with a variable named x1
            name += "_"
        used.add(name)
        mapping[v] = Term(VARIABLE, RESERVED_PREFIX + name, k)
    return ExistentialRule(r.label, apply_to_atoms(mapping, r.body),
                           apply_to_atoms(mapping, r.head))


def decompose_atomic_head(r: ExistentialRule, counter: Iterator[int]) -> list[ExistentialRule]:
    """Split a multi-atom-head rule into atomic-head rules via an aux predicate.

    The rewriter unifies multi-atom heads as written and never calls this;
    it stays as the standard reduction (Calì, Gottlob and Kifer, KR 2008)
    that tests compare the rewriter against.  The aux predicate takes the next index of counter, so rules that share a
    label, as DLGP allows, do not share it.
    """
    if len(r.head) <= 1:
        return [r]
    aux_name = f"{AUX_PREFIX}{r.label}_{next(counter)}"
    head_vars = tuple(sorted(vars_of(r.head)))
    aux = Atom(aux_name, head_vars)
    out = [ExistentialRule(f"{r.label}_aux", r.body, frozenset({aux}))]
    for i, h in enumerate(sorted(r.head)):
        out.append(ExistentialRule(f"{r.label}_h{i}", frozenset({aux}), frozenset({h})))
    return out


def attach_answer_atom(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Fold answer variables into a reserved __ans atom, yielding a BCQ.

    The BCQ is q's own, built once, so its index and plan are too."""
    return q if q.is_boolean else q._answer_atom_form


def strip_answer_atom(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Inverse of attach_answer_atom; constants stay as answer bindings."""
    ans_atoms = [a for a in q.atoms if a.predicate == ANS_PREDICATE]
    if not ans_atoms:
        return q
    if len(ans_atoms) > 1:
        raise ValueError(f"multiple {ANS_PREDICATE} atoms")
    ans = ans_atoms[0]
    return ConjunctiveQuery(q.atoms - {ans}, ans.args)


def _codes(rows: list, col: list[int]) -> list[tuple]:
    """Each row's sort key with every variable i renamed v<col[i]>."""
    return [(p, len(args), tuple([(1, CANONICAL_NAME, col[t]) if t.__class__ is int else t
                                  for t in args])) for p, args in rows]


def _refine(col: list[int], rows: list, occ: list) -> list[int]:
    """Split cells by (row code, position) occurrences; a colour is a cell's start."""
    while True:
        cells: dict[int, list[int]] = {}
        for i, c in enumerate(col):
            cells.setdefault(c, []).append(i)
        if len(cells) == len(col):
            return col
        codes, new = _codes(rows, col), list(col)
        for c, members in [(c, m) for c, m in cells.items() if len(m) > 1]:
            sig = {i: sorted([(codes[r], pos) for r, pos in occ[i]]) for i in members}
            members.sort(key=sig.__getitem__)
            for k in range(1, len(members)):
                if sig[members[k]] != sig[members[k - 1]]:
                    c = col[members[0]] + k
                new[members[k]] = c
        if new == col:
            return col
        col = new


def canonicalize(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """q with its variables renamed v0, v1, ...: equal exactly for isomorphic q.

    Colour refinement, then individualization-refinement (McKay and Piperno,
    J. Symb. Comput. 2014), constants and answer positions fixed: the least
    leaf by (sorted atoms, answer keys), skipping branches automorphic to one seen.
    """
    vs = sorted(q.variables())
    n, index = len(vs), {v: i for i, v in enumerate(vs)}
    # the atoms, then the answer tuple; variables as indices, constants as themselves
    rows = [(p, tuple([index.get(t, t) for t in args])) for p, args
            in [(a.predicate, a.args) for a in q.atoms] + [(ANS_PREDICATE, q.answer_vars)]]
    row_set, occ = set(rows[:-1]), [[] for _ in vs]
    for r, (_, args) in enumerate(rows):
        for pos, t in enumerate(args):
            if t.__class__ is int:
                occ[t].append((r, pos))

    def swap_is_automorphism(u, w):
        # members of one cell never occur in the answer tuple: positions differ
        return all((p, tuple([w if t == u else u if t == w else t for t in args])) in row_set
                   for p, args in (rows[r] for r, _ in occ[u] + occ[w]))

    best = _refine([0] * n, rows, occ)
    stack = [(best, (), [])] if len(set(best)) < n else []
    best_key, best_path, automorphisms = None, None, []
    while stack:
        col, prefix, covered = stack[-1]
        c = next(x for k, x in enumerate(sorted(col)) if x != k)  # first non-singleton cell
        gens = [g for g in automorphisms if all(g[i] == i for i in prefix)]
        orbit = set(covered)
        while not orbit >= (grown := {g[i] for g in gens for i in orbit}):
            orbit |= grown
        for w in [i for i in range(n) if col[i] == c and i not in covered]:
            covered.append(w)
            if w not in orbit and not any(swap_is_automorphism(t, w) for t in covered[:-1]):
                break
        else:
            stack.pop()
            continue
        child = _refine([x + (i != w) if x == c else x for i, x in enumerate(col)], rows, occ)
        path = prefix + (w,)
        if len(set(child)) < n:
            stack.append((child, path, []))
            continue
        codes = _codes(rows, child)
        key = tuple(sorted(codes[:-1])), codes[-1][2]
        if best_key is None or key < best_key:
            best, best_key, best_path = child, key, path
        elif key == best_key:
            # the leaves differ by an automorphism, and so do the subtrees below
            # the node where their paths part: leave the newer subtree
            inverse = sorted(range(n), key=best.__getitem__)
            automorphisms.append([inverse[c] for c in child])
            del stack[next(k for k, (a, b) in enumerate(zip(path, best_path)) if a != b) + 1:]
    names = {v: Term(VARIABLE, CANONICAL_NAME, best[i]) for i, v in enumerate(vs)}
    return ConjunctiveQuery(apply_to_atoms(names, q.atoms),
                            tuple(names.get(t, t) for t in q.answer_vars))
