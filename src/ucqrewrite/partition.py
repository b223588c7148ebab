"""Immutable term partitions: the carrier of unification state."""
from __future__ import annotations

from typing import Iterable, KeysView

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

    The partition never changes after construction.  It stores its class map
    (each term to its class) and whether it is admissible (no class holds two
    constants), both from one fold over its groups (``_fold``).  Its carrier
    is the map's live key view, which compares as a set; its classes (an
    unordered set) and its associated substitution are computed on first use.
    """

    def __init__(self, groups: Iterable[Iterable[Term]] = ()):
        self._fold({}, True, groups)

    def _fold(self, class_of: dict[Term, frozenset[Term]], admissible: bool,
              groups: Iterable[Iterable[Term]]) -> None:
        """Merge each group into class_of, which becomes this partition's map.
        A merge only grows classes, and every class of the map is one a merge
        returned, so the partition is admissible exactly when admissible holds
        for the map given and every class a merge returns is: those are the
        only classes checked."""
        for group in groups:
            merged = _merge(class_of, group)
            admissible = admissible and _admissible(merged)
        self._class_of = class_of
        self.admissible = admissible
        self.carrier: KeysView[Term] = class_of.keys()

    @memo
    def classes(self) -> frozenset[frozenset[Term]]:
        return frozenset(self._class_of.values())

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

    p2's classes are folded into a copy of p1's class map, starting from
    p1's admissibility, so only the classes they touch are rebuilt or checked."""
    out = TermPartition.__new__(TermPartition)
    out._fold(dict(p1._class_of), p1.admissible, p2.classes)
    return out


def finer_than(p1: TermPartition, p2: TermPartition) -> bool:
    """Every class of p1 is included in a class of p2 (same carrier)."""
    if p1.carrier != p2.carrier:
        raise ValueError("finer_than requires identical carriers")
    return all(c <= p2.class_of(min(c)) for c in p1.classes)
