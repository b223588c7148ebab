"""Immutable term partitions: the carrier of unification state."""
from __future__ import annotations

from typing import Iterable, Optional

from .kb import Substitution, Term


def _admissible(cls: frozenset[Term]) -> bool:
    return sum(1 for t in cls if t.is_constant) <= 1


def _merge(class_of: dict[Term, frozenset[Term]], group: Iterable[Term]) -> None:
    """Replace every class of class_of, a map from each term to its class,
    that the group touches by their union with the group."""
    group = frozenset(group)
    touched = {class_of[t] for t in group if t in class_of}
    if len(touched) == 1 and group <= next(iter(touched)):
        return  # already inside one class
    merged = group.union(*touched)
    for t in merged:
        class_of[t] = merged


class TermPartition:
    """Partition of a finite term set: term groups that share a term are merged.

    The partition never changes after construction, so its classes, sorted
    by their least term, its carrier and whether it is admissible are
    computed once, when it is built, and its associated substitution on
    first use.
    """

    def __init__(self, groups: Iterable[Iterable[Term]] = ()):
        class_of: dict[Term, frozenset[Term]] = {}
        for group in groups:
            _merge(class_of, group)
        self._set(class_of)

    def _set(self, class_of: dict[Term, frozenset[Term]]) -> None:
        classes = sorted(set(class_of.values()), key=min)
        self._classes = tuple(classes)
        self._class_of = class_of
        self.carrier: frozenset[Term] = frozenset(class_of)
        self.admissible = all(_admissible(c) for c in classes)
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
    only the classes they touch are rebuilt."""
    class_of = dict(p1._class_of)
    for c in p2._classes:
        _merge(class_of, c)
    out = TermPartition.__new__(TermPartition)
    out._set(class_of)
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
