"""Immutable term partitions: the carrier of unification state."""
from __future__ import annotations

from bisect import insort
from typing import Iterable, Optional

from .kb import Substitution, Term


def _admissible(cls: frozenset[Term]) -> bool:
    return sum(1 for t in cls if t.is_constant) <= 1


class TermPartition:
    """Partition of a finite term set: term groups that share a term are merged.

    The partition never changes after construction, so its classes, sorted
    by their least term, its carrier and whether it is admissible are
    computed once, when it is built, and its associated substitution on
    first use.
    """

    def __init__(self, groups: Iterable[Iterable[Term]] = ()):
        parent: dict[Term, Term] = {}

        def find(t: Term) -> Term:
            while parent[t] != t:
                parent[t] = t = parent[parent[t]]  # path halving
            return t

        for group in groups:
            group = list(group)
            for t in group:
                parent.setdefault(t, t)
            for t in group[1:]:
                ra, rb = find(group[0]), find(t)
                if ra != rb:
                    parent[rb] = ra
        by_root: dict[Term, set[Term]] = {}
        for t in parent:
            by_root.setdefault(find(t), set()).add(t)
        classes = sorted((frozenset(c) for c in by_root.values()), key=min)
        self._set(classes, {t: c for c in classes for t in c},
                  all(_admissible(c) for c in classes))

    def _set(self, classes: list[frozenset[Term]], class_of: dict[Term, frozenset[Term]],
             admissible: bool) -> None:
        self._classes = tuple(classes)
        self._class_of = class_of
        self.carrier: frozenset[Term] = frozenset(class_of)
        self.admissible = admissible
        self._substitution: Optional[Substitution] = None

    def same_class(self, a: Term, b: Term) -> bool:
        return a in self._class_of and b in self._class_of[a]

    def class_of(self, t: Term) -> frozenset[Term]:
        return self._class_of[t]

    def classes(self) -> list[frozenset[Term]]:
        return list(self._classes)

    def as_sets(self) -> frozenset[frozenset[Term]]:
        return frozenset(self._classes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TermPartition):
            return NotImplemented
        return self.as_sets() == other.as_sets()

    def __repr__(self) -> str:
        cls = ", ".join("{" + ",".join(str(t) for t in sorted(c)) + "}" for c in self._classes)
        return "{" + cls + "}"


def join(p1: TermPartition, p2: TermPartition) -> TermPartition:
    """Union of non-disjoint classes until stability; carrier is the union.

    p2's classes are merged into a copy of p1's class map, one at a time, so
    only the classes they touch are rebuilt.  The join is admissible exactly
    when p1 and p2 are and each merged class holds at most one constant."""
    class_of = dict(p1._class_of)
    classes = list(p1._classes)
    admissible = p1.admissible and p2.admissible
    for c in p2._classes:
        touched = {class_of[t] for t in c if t in class_of}
        if len(touched) == 1 and c <= next(iter(touched)):
            continue  # already inside one class
        merged = c.union(*touched)
        for old in touched:
            classes.remove(old)
        insort(classes, merged, key=min)
        for t in merged:
            class_of[t] = merged
        admissible = admissible and _admissible(merged)
    out = TermPartition.__new__(TermPartition)
    out._set(classes, class_of, admissible)
    return out


def is_admissible(p: TermPartition) -> bool:
    """No class holds two distinct constants: read off p, where it is stored."""
    return p.admissible


def finer_than(p1: TermPartition, p2: TermPartition) -> bool:
    """Every class of p1 is included in a class of p2 (same carrier)."""
    if p1.carrier != p2.carrier:
        raise ValueError("finer_than requires identical carriers")
    return all(c <= p2.class_of(min(c)) for c in p1.classes())


def associated_substitution(p: TermPartition) -> Substitution:
    """Map each term to its class minimum (constants win by the term order).

    The mapping is computed on p's first call and stored on p: every later
    call, for p or for any unifier over it, returns the same dict, so no
    caller may change it."""
    if not p.admissible:
        raise ValueError("partition is not admissible")
    sub = p._substitution
    if sub is None:
        sub = p._substitution = {}
        for cls in p._classes:
            rep = min(cls)
            for t in cls:
                if t != rep and t.is_variable:
                    sub[t] = rep
    return sub
