"""Immutable term partitions: the carrier of unification state."""
from __future__ import annotations

from typing import Iterable

from .kb import RESERVED_PREFIX, Substitution, Term, memo, var

# the rule copies' variables, named with kb's RESERVED_PREFIX, run from the first to the second
_RESERVED = var(RESERVED_PREFIX), var(RESERVED_PREFIX[:-1] + chr(ord(RESERVED_PREFIX[-1]) + 1))


def _admissible(cls: frozenset[Term]) -> bool:
    return sum(1 for t in cls if t.is_constant) <= 1


def _merge(class_of: dict[Term, frozenset[Term]], group: Iterable[Term]) -> frozenset[Term]:
    """Replace every class of class_of, a map from each term to its class,
    that the group touches by their union with the group; return the class
    that holds the group."""
    group = frozenset(group)
    touched = {class_of[t] for t in group if t in class_of}
    if len(touched) == 1 and group <= next(iter(touched)):
        return next(iter(touched))  # already inside one class
    merged = group.union(*touched)
    for t in merged:
        class_of[t] = merged
    return merged


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
        self.admissible = all(_admissible(c) for c in self.classes)

    def _set(self, class_of: dict[Term, frozenset[Term]]) -> None:
        self._class_of = class_of
        self.classes: frozenset[frozenset[Term]] = frozenset(class_of.values())
        self.carrier: frozenset[Term] = frozenset(class_of)

    @memo
    def substitution(self) -> Substitution:
        """Map each variable to its class's representative: the constant, else
        the least variable outside ``RESERVED_PREFIX``, else the least one.  As a
        rewriting is defined up to renaming (Baget et al., AIJ 2011), it may keep
        the query's names, and equal rewritings reached apart then coincide.
        Raises on an inadmissible partition; no caller may change the shared mapping."""
        if not self.admissible:
            raise ValueError("partition is not admissible")
        sub = {}
        for cls in self.classes:
            rep = min(cls)  # a constant sorts first
            if _RESERVED[0] <= rep < _RESERVED[1]:  # any other variable sorts after them
                rep = min([t for t in cls if t >= _RESERVED[1]] or cls)
            for t in cls:
                if t != rep:  # a variable: the class's one constant, if any, is rep
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
    only the classes they touch are rebuilt.  A merge only grows classes, so
    the join is admissible exactly when p1 is and every class a merge
    returns is: those are the only classes checked."""
    class_of = dict(p1._class_of)
    admissible = p1.admissible
    for c in p2.classes:
        merged = _merge(class_of, c)
        admissible = admissible and _admissible(merged)
    out = TermPartition.__new__(TermPartition)
    out._set(class_of)
    out.admissible = admissible
    return out


def finer_than(p1: TermPartition, p2: TermPartition) -> bool:
    """Every class of p1 is included in a class of p2 (same carrier)."""
    if p1.carrier != p2.carrier:
        raise ValueError("finer_than requires identical carriers")
    return all(c <= p2.class_of(min(c)) for c in p1.classes)
