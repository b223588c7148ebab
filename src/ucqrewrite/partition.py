"""Immutable term partitions: the carrier of unification state."""
from __future__ import annotations

from typing import Iterable

from .kb import Substitution, Term


class TermPartition:
    """Partition of a finite term set: term groups that share a term are merged.

    The partition never changes after construction, so its classes are
    computed once, sorted by their least term.
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
        self._classes = tuple(sorted((frozenset(c) for c in by_root.values()), key=min))
        self._class_of = {t: c for c in self._classes for t in c}

    @property
    def carrier(self) -> frozenset[Term]:
        return frozenset(self._class_of)

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
    """Union of non-disjoint classes until stability; carrier is the union."""
    return TermPartition(p1.classes() + p2.classes())


def is_admissible(p: TermPartition) -> bool:
    """No class holds two distinct constants."""
    return all(sum(1 for t in c if t.is_constant) <= 1 for c in p.classes())


def finer_than(p1: TermPartition, p2: TermPartition) -> bool:
    """Every class of p1 is included in a class of p2 (same carrier)."""
    if p1.carrier != p2.carrier:
        raise ValueError("finer_than requires identical carriers")
    return all(c <= p2.class_of(min(c)) for c in p1.classes())


def associated_substitution(p: TermPartition) -> Substitution:
    """Map each term to its class minimum (constants win by the term order)."""
    if not is_admissible(p):
        raise ValueError("partition is not admissible")
    sub: Substitution = {}
    for cls in p.classes():
        rep = min(cls)
        for t in cls:
            if t != rep and t.is_variable:
                sub[t] = rep
    return sub
