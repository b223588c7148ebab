"""Core syntactic objects: terms, atoms, queries, rules, knowledge bases.

Queries and facts are plain sets of atoms; a non-Boolean query carries an
ordered tuple of answer terms that can be folded into a reserved ``__ans``
atom so the whole engine only ever deals with Boolean queries.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, Iterator, Optional

VARIABLE = "variable"
CONSTANT = "constant"

ANS_PREDICATE = "__ans"
AUX_PREFIX = "__aux_"
NULL_PREFIX = "__n"
RESERVED_PREFIX = "__"


@dataclass(frozen=True)
class Term:
    """A variable or constant.  Machine-generated terms carry a fresh_index."""

    kind: str
    name: str
    fresh_index: Optional[int] = None

    @property
    def is_variable(self) -> bool:
        return self.kind == VARIABLE

    @property
    def is_constant(self) -> bool:
        return self.kind == CONSTANT

    def sort_key(self):
        # constants precede variables; within a kind lexicographic on
        # (name, fresh_index), unindexed terms first
        return (
            0 if self.kind == CONSTANT else 1,
            self.name,
            -1 if self.fresh_index is None else self.fresh_index,
        )

    def __lt__(self, other: "Term") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        if self.fresh_index is None:
            return self.name
        return f"{self.name}{self.fresh_index}"


def var(name: str, fresh_index: Optional[int] = None) -> Term:
    return Term(VARIABLE, name, fresh_index)


def const(name: str, fresh_index: Optional[int] = None) -> Term:
    return Term(CONSTANT, name, fresh_index)


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[Term, ...]

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> frozenset[Term]:
        return frozenset(t for t in self.args if t.is_variable)

    def constants(self) -> frozenset[Term]:
        return frozenset(t for t in self.args if t.is_constant)

    def sort_key(self):
        return (self.predicate, len(self.args), tuple(t.sort_key() for t in self.args))

    def __str__(self) -> str:
        return f"{self.predicate}({','.join(str(t) for t in self.args)})"


def atom(predicate: str, *args: Term) -> Atom:
    return Atom(predicate, tuple(args))


def vars_of(atoms: Iterable[Atom]) -> frozenset[Term]:
    return frozenset(t for a in atoms for t in a.args if t.is_variable)


def terms_of(atoms: Iterable[Atom]) -> frozenset[Term]:
    return frozenset(t for a in atoms for t in a.args)


def sorted_atoms(atoms: Iterable[Atom]) -> list[Atom]:
    return sorted(atoms, key=Atom.sort_key)


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A CQ as a set of atoms.  answer_vars is empty for Boolean queries.

    answer_vars may contain constants after rewriting steps bind an answer
    position; variable entries must occur in the atom set.
    """

    atoms: frozenset[Atom]
    answer_vars: tuple[Term, ...] = ()

    def __post_init__(self):
        qvars = vars_of(self.atoms)
        for t in self.answer_vars:
            if t.is_variable and t not in qvars:
                raise ValueError(f"answer variable {t} does not occur in the query")

    @property
    def is_boolean(self) -> bool:
        return not self.answer_vars

    def variables(self) -> frozenset[Term]:
        return vars_of(self.atoms)

    def sort_key(self):
        return tuple(a.sort_key() for a in sorted_atoms(self.atoms))

    def __str__(self) -> str:
        body = " & ".join(str(a) for a in sorted_atoms(self.atoms))
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
    frontier: frozenset[Term] = field(init=False, compare=False, repr=False)
    existentials: frozenset[Term] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        bv, hv = vars_of(self.body), vars_of(self.head)
        object.__setattr__(self, "frontier", bv & hv)
        object.__setattr__(self, "existentials", hv - bv)

    @property
    def has_atomic_head(self) -> bool:
        return len(self.head) == 1

    @property
    def head_atom(self) -> Atom:
        (h,) = self.head
        return h

    def variables(self) -> frozenset[Term]:
        return vars_of(self.body) | vars_of(self.head)

    def __str__(self) -> str:
        b = " & ".join(str(a) for a in sorted_atoms(self.body))
        h = " & ".join(str(a) for a in sorted_atoms(self.head))
        return f"[{self.label}] {b} -> {h}"


def rule(label: str, body: Iterable[Atom], head: Iterable[Atom]) -> ExistentialRule:
    return ExistentialRule(label, frozenset(body), frozenset(head))


class FreshCounter:
    """Source of fresh indices, increasing from start."""

    def __init__(self, start: int = 0):
        self._count = count(start)

    def next(self) -> int:
        return next(self._count)


@dataclass
class KnowledgeBase:
    rules: list[ExistentialRule]
    facts: frozenset[Atom] = frozenset()

    def __post_init__(self):
        check_arities(self.all_atoms())

    def all_atoms(self) -> Iterator[Atom]:
        for r in self.rules:
            yield from r.body
            yield from r.head
        yield from self.facts


def check_arities(atoms: Iterable[Atom], known: Optional[dict[str, int]] = None) -> dict[str, int]:
    """Ensure each predicate is used with a single arity."""
    arities: dict[str, int] = dict(known or {})
    for a in atoms:
        prev = arities.setdefault(a.predicate, a.arity)
        if prev != a.arity:
            raise ValueError(
                f"predicate {a.predicate!r} used with arities {prev} and {a.arity}"
            )
    return arities


def freshen_rule(r: ExistentialRule, counter: FreshCounter) -> ExistentialRule:
    """Rename all rule variables to globally fresh ones (one index per call)."""
    k = counter.next()
    mapping: dict[Term, Term] = {}
    used: set[str] = set()
    for v in sorted(r.variables()):
        name = v.name if v.fresh_index is None else f"{v.name}{v.fresh_index}"
        while name in used:
            name += "_"
        used.add(name)
        mapping[v] = Term(VARIABLE, name, k)

    def sub(a: Atom) -> Atom:
        return Atom(a.predicate, tuple(mapping.get(t, t) for t in a.args))

    return ExistentialRule(r.label, frozenset(map(sub, r.body)), frozenset(map(sub, r.head)))


def decompose_atomic_head(r: ExistentialRule, counter: FreshCounter) -> list[ExistentialRule]:
    """Split a multi-atom-head rule into atomic-head rules via an aux predicate."""
    if len(r.head) <= 1:
        return [r]
    aux_name = AUX_PREFIX + (r.label if r.label else f"r{counter.next()}")
    head_vars = tuple(sorted(vars_of(r.head)))
    aux = Atom(aux_name, head_vars)
    out = [ExistentialRule(f"{r.label}_aux", r.body, frozenset({aux}))]
    for i, h in enumerate(sorted_atoms(r.head)):
        out.append(ExistentialRule(f"{r.label}_h{i}", frozenset({aux}), frozenset({h})))
    return out


def attach_answer_atom(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Fold answer variables into a reserved __ans atom, yielding a BCQ."""
    if q.is_boolean:
        return q
    if any(a.predicate == ANS_PREDICATE for a in q.atoms):
        raise ValueError(f"{ANS_PREDICATE} atom already present")
    ans = Atom(ANS_PREDICATE, q.answer_vars)
    return ConjunctiveQuery(q.atoms | {ans}, ())


def strip_answer_atom(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Inverse of attach_answer_atom; constants stay as answer bindings."""
    ans_atoms = [a for a in q.atoms if a.predicate == ANS_PREDICATE]
    if not ans_atoms:
        return q
    if len(ans_atoms) > 1:
        raise ValueError(f"multiple {ANS_PREDICATE} atoms")
    ans = ans_atoms[0]
    return ConjunctiveQuery(q.atoms - {ans}, ans.args)


def signature(q: ConjunctiveQuery) -> frozenset[tuple[str, int]]:
    """(predicate, arity) pairs of q's ans-augmented form.

    q1 >= q2 needs signature(q1) <= signature(q2) (Chandra and Merlin, 1977),
    and a rule has a piece-unifier with q only if a head atom's pair is in it.
    """
    sig = {(a.predicate, a.arity) for a in q.atoms}
    if not q.is_boolean:
        sig.add((ANS_PREDICATE, len(q.answer_vars)))
    return frozenset(sig)


def _canonical_step(q: ConjunctiveQuery) -> ConjunctiveQuery:
    ordered = sorted_atoms(q.atoms)
    mapping: dict[Term, Term] = {}
    for a in ordered:
        for t in a.args:
            if t.is_variable and t not in mapping:
                mapping[t] = Term(VARIABLE, "v", len(mapping))
    atoms = frozenset(
        Atom(a.predicate, tuple(mapping.get(t, t) for t in a.args)) for a in ordered
    )
    answer = tuple(mapping.get(t, t) for t in q.answer_vars)
    return ConjunctiveQuery(atoms, answer)


def canonicalize(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """Deterministic syntactic canonical form (dedup key, not iso-complete).

    Renaming by first occurrence can reorder atoms, so the step function is
    iterated until it cycles; the smallest element of the cycle is returned,
    which makes the whole map idempotent.
    """
    seen: dict[ConjunctiveQuery, int] = {}
    seq: list[ConjunctiveQuery] = []
    cur = q
    while cur not in seen:
        seen[cur] = len(seq)
        seq.append(cur)
        cur = _canonical_step(cur)
    cycle = seq[seen[cur]:]
    return min(cycle, key=lambda c: (c.sort_key(), c.answer_vars))
