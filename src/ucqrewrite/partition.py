"""Immutable term partitions: the carrier of unification state."""
from __future__ import annotations

from typing import Iterable

from .kb import Substitution, Term, memo


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

    The partition never changes after construction, so its classes (an
    unordered set), its carrier and whether it is admissible (no class holds
    two constants) are computed once, when it is built, and its associated
    substitution on first use.
    """

    def __init__(self, groups: Iterable[Iterable[Term]] = ()):
        class_of: dict[Term, frozenset[Term]] = {}
        for group in groups:
            _merge(class_of, group)
        self._set(class_of)

    def _set(self, class_of: dict[Term, frozenset[Term]]) -> None:
        self._class_of = class_of
        self.classes: frozenset[frozenset[Term]] = frozenset(class_of.values())
        self.carrier: frozenset[Term] = frozenset(class_of)
        self.admissible = all(_admissible(c) for c in self.classes)

    @memo
    def substitution(self) -> Substitution:
        """Map each term to its class minimum (constants win by the term order);
        raises on an inadmissible partition.  Every unifier over the partition
        shares the one mapping, so no caller may change it."""
        if not self.admissible:
            raise ValueError("partition is not admissible")
        sub = {}
        for cls in self.classes:
            rep = min(cls)
            for t in cls:
                if t != rep and t.is_variable:
                    sub[t] = rep
        return sub

    def class_of(self, t: Term) -> frozenset[Term]:
        return self._class_of[t]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TermPartition):
            return NotImplemented
        return self.classes == other.classes

    def __repr__(self) -> str:
        cls = ", ".join("{" + ",".join(str(t) for t in sorted(c)) + "}"
                        for c in sorted(self.classes, key=min))
        return "{" + cls + "}"


def join(p1: TermPartition, p2: TermPartition) -> TermPartition:
    """Union of non-disjoint classes until stability; carrier is the union.

    p2's classes are merged into a copy of p1's class map, one at a time, so
    only the classes they touch are rebuilt."""
    class_of = dict(p1._class_of)
    for c in p2.classes:
        _merge(class_of, c)
    out = TermPartition.__new__(TermPartition)
    out._set(class_of)
    return out


def finer_than(p1: TermPartition, p2: TermPartition) -> bool:
    """Every class of p1 is included in a class of p2 (same carrier)."""
    if p1.carrier != p2.carrier:
        raise ValueError("finer_than requires identical carriers")
    return all(c <= p2.class_of(min(c)) for c in p1.classes)
