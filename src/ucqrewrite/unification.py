"""Piece-unifiers: pieces, validity, the single-piece algorithm for rules
with any head, aggregation of compatible unifiers, and an exhaustive oracle."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional, Union

from . import kb
from .kb import (
    Atom,
    ConjunctiveQuery,
    ExistentialRule,
    FreshCounter,
    Term,
    apply_to_atoms,
    memo,
    terms_of,
    vars_of,
)
from .partition import TermPartition, finer_than, join


@dataclass(frozen=True, eq=False)
class PieceUnifier:
    """Unifies a query subset with a rule-head subset through a term partition.

    An aggregation of two or more unifiers over renamed rule copies is one
    too, over their aggregated rule, with them in ``merged``; ``members`` is
    ``merged``, or the unifier alone, the aggregation of one piece.  What
    does not depend on the query is a memo view, computed once, on first
    use: the variables that must be non-separating (``ex_vars``), whether
    the partition has the piece-unifier shape (``shaped``), the checks that
    do not read the query (``checks``), u(rule.body) (``body_image``) and
    q_part's variables, signature and query (``part_vars``,
    ``part_signature``, ``part_query``).  The substitution is the partition's.
    Copies and compiled rules share a unifier among queries, so it is
    immutable."""

    q_part: frozenset[Atom]
    h_part: frozenset[Atom]
    partition: TermPartition
    rule: ExistentialRule
    # the (query atom, head position) pairs, when built by a RuleCopy
    choice: tuple = ()
    # the merged unifiers, in copy order, when built by CompiledRule.aggregation
    merged: tuple[PieceUnifier, ...] = ()

    @property
    def members(self) -> tuple[PieceUnifier, ...]:
        return self.merged or (self,)

    @memo
    def ex_vars(self) -> frozenset[Term]:
        """The terms other than existential variables in the classes with an
        existential variable: the query variables that may not be separating."""
        ex = self.rule.existentials
        out: set[Term] = set()
        if ex:
            for cls in self.partition.classes:
                if not ex.isdisjoint(cls):
                    out |= cls - ex
        return frozenset(out)

    @memo
    def shaped(self) -> bool:
        """The partition is admissible, and each class with an existential
        variable holds exactly one, its other members all variables of q_part.
        With the rule variable-disjoint from the query, such a class holds no
        constant and no frontier variable."""
        if not self.partition.admissible:
            return False
        ex = self.rule.existentials
        if ex.isdisjoint(self.partition.carrier):
            return True
        return self.ex_vars <= self.part_vars and all(
            len(cls & ex) < 2 for cls in self.partition.classes)

    @memo
    def checks(self) -> tuple[tuple[str, ...], Optional[tuple[str, ...]]]:
        """The query-independent part of validate_piece_unifier: the problems
        found before the existential-class condition, and the problems after
        it, None when the partition is not admissible and the checks stop."""
        before = []
        if not self.h_part <= self.rule.head:
            before.append("h_part must be a subset of the rule head")
        if self.partition.carrier != terms_of(self.q_part) | terms_of(self.h_part):
            before.append("partition carrier must be terms(q_part) + terms(h_part)")
        if not self.partition.admissible:
            before.append("partition not admissible")
            return tuple(before), None
        u = self.partition.substitution
        after = []
        if apply_to_atoms(u, self.h_part) != apply_to_atoms(u, self.q_part):
            after.append("u(h_part) != u(q_part)")
        return tuple(before), tuple(after)

    @memo
    def body_image(self) -> frozenset[Atom]:
        """u(rule.body), the query-independent half of a one-step rewriting."""
        return apply_to_atoms(self.partition.substitution, self.rule.body)

    @memo
    def part_vars(self) -> frozenset[Term]:
        """The variables of q_part."""
        return vars_of(self.q_part)

    @memo
    def part_signature(self) -> frozenset[tuple[str, int]]:
        """The (predicate, arity) pairs of q_part, which q_part maps into a
        query only if its signature holds (``ConjunctiveQuery.signature``)."""
        return frozenset([(a[0], a[1]) for a in self.q_part])

    @memo
    def part_query(self) -> ConjunctiveQuery:
        """q_part as a Boolean query, whose match plan serves every test of
        q_part against a rewriting (``rewriting.maps_into_rewriting``)."""
        return ConjunctiveQuery(self.q_part)

    def cutpoints(self) -> frozenset[Term]:
        """Unified query variables not merged with an existential variable."""
        ex = self.rule.existentials
        out = set()
        for v in self.part_vars:
            if not any(t in ex for t in self.partition.class_of(v)):
                out.add(v)
        return frozenset(out)

    def __repr__(self) -> str:
        qp = ",".join(str(a) for a in sorted(self.q_part))
        hp = ",".join(str(a) for a in sorted(self.h_part))
        return f"PieceUnifier([{qp}], [{hp}], {self.partition})"


def separating(q: ConjunctiveQuery, part: frozenset[Atom],
               variables: Iterable[Term]) -> list[Term]:
    """The variables that also occur in an atom of q outside part."""
    if not variables:  # q's occurrences are then not built
        return []
    occurrences = q.occurrences
    return [v for v in variables if not occurrences.get(v, frozenset()) <= part]


def validate_piece_unifier(q: ConjunctiveQuery, mu: PieceUnifier) -> list[str]:
    """Return the list of violated piece-unifier conditions (empty if valid).

    Only q_part <= q and the non-separating variables read q; the rest is
    mu.checks, computed once per unifier."""
    problems = [] if mu.q_part and mu.q_part <= q.atoms else [
        "q_part must be a non-empty subset of the query"]
    before, after = mu.checks
    problems += before
    if after is None:
        return problems
    if not mu.shaped or separating(q, mu.q_part, mu.ex_vars):
        problems.append(
            "class with an existential variable contains a term other than "
            "a non-separating query variable"
        )
    problems += after
    return problems


def pieces(atoms: Iterable[Atom], cutpoint_set: Iterable[Term]) -> list[frozenset[Atom]]:
    """Connected components of atoms glued by variables outside cutpoint_set:
    the atoms whose glue variables share a class of the partition those
    variables make.  An atom with no glue variable is a piece on its own."""
    cut = frozenset(cutpoint_set)
    glued = [(a, a.variables() - cut) for a in atoms]
    classes = TermPartition(g for _, g in glued)
    by_class: dict = {}
    for a, g in glued:
        by_class.setdefault(classes.class_of(min(g)) if g else a, set()).add(a)
    return sorted((frozenset(c) for c in by_class.values()), key=min)


class RuleCopy:
    """A rule renamed apart by ``kb.freshen_rule``, with its sorted head, the
    positions of its head atoms by (predicate, arity), the candidate unifier
    of each choice it has been tried on, and the single-piece unifiers of
    each query's atoms it has been searched with.

    A choice is a tuple of (query atom, head position) pairs, in the order
    the atoms joined the piece; a renamed copy sorts its head alike, so every
    copy of a rule reads a choice alike."""

    def __init__(self, rule: ExistentialRule):
        self.rule = rule
        self.head = sorted(rule.head)
        self.positions: dict[tuple[str, int], list[int]] = {}
        for j, h in enumerate(self.head):
            self.positions.setdefault((h.predicate, h.arity), []).append(j)
        self._unifiers: dict[tuple, Optional[PieceUnifier]] = {}
        self._pieces: dict[frozenset[Atom], tuple[PieceUnifier, ...]] = {}

    def unifier(self, choice: tuple) -> Optional[PieceUnifier]:
        """The choice's atoms unified position by position; None when the
        unifier is not ``shaped``.  Whether its q_part is a piece of a query
        is the caller's to decide."""
        try:
            return self._unifiers[choice]
        except KeyError:
            head = self.head
            pp = TermPartition(st for a, j in choice for st in zip(a.args, head[j].args))
            mu = PieceUnifier(frozenset(a for a, _ in choice),
                              frozenset(head[j] for _, j in choice), pp, self.rule, choice)
            if not mu.shaped:
                mu = None
            self._unifiers[choice] = mu
            return mu


class CompiledRule:
    """One rule's copies, copy k built on first use, and for m >= 2 members
    the conjunction of copies 0..m-1 and each aggregation tried."""

    def __init__(self, rule: ExistentialRule):
        self.rule = rule
        self._counter = FreshCounter()
        self._copies: list[RuleCopy] = []
        self._aggregated: dict[int, ExistentialRule] = {}
        self._aggregations: dict[tuple, Optional[PieceUnifier]] = {}

    def copy(self, k: int) -> RuleCopy:
        """Copy k: its variables carry index k, so distinct copies are disjoint."""
        while len(self._copies) <= k:
            # called through its module, so a wrapper installed on kb's attribute sees it
            self._copies.append(RuleCopy(kb.freshen_rule(self.rule, self._counter)))
        return self._copies[k]

    def aggregated(self, m: int) -> ExistentialRule:
        """aggregate_rules over copies 0..m-1."""
        agg = self._aggregated.get(m)
        if agg is None:
            agg = self._aggregated[m] = aggregate_rules([self.copy(k).rule for k in range(m)])
        return agg

    def aggregation(self, choices: tuple) -> Optional[PieceUnifier]:
        """The unifiers of choices[k] on copy k, for each k, merged into one
        over the aggregated rule, with them as its members; None when their
        query parts overlap or the joined partition is not admissible.  One
        choice is its unifier on copy 0 itself.  Memoized by the choices, a
        failure too.  Nothing here reads a query: whether the result is valid
        for one is beta's to check.

        An aggregation of m >= 2 members extends the aggregation of its first
        m - 1 choices by its last member: one overlap test and one join.  A
        failed prefix fails every extension, as its parts overlap or its
        partition is not admissible, and a join only merges more classes."""
        m = len(choices)
        if m == 1:
            return self.copy(0).unifier(choices[0])
        try:
            return self._aggregations[choices]
        except KeyError:
            agg = None
            member = self.copy(m - 1).unifier(choices[-1])
            prefix = self.aggregation(choices[:-1])
            if prefix is not None and prefix.q_part.isdisjoint(member.q_part):
                joined = join(prefix.partition, member.partition)
                if joined.admissible:
                    agg = PieceUnifier(prefix.q_part | member.q_part,
                                       prefix.h_part | member.h_part, joined,
                                       self.aggregated(m), merged=prefix.members + (member,))
            self._aggregations[choices] = agg
            return agg


class RuleBase:
    """A rule set, compiled once: each rule's copies and memos, an index of
    the rules by the (predicate, arity) of their heads, the rules' constants,
    and ``processed``, which maps each raw rewriting ``rewrite`` kept over
    this RuleBase, by its fields, to its processed form.  Nothing here reads
    a query, but the memos are keyed by query atoms: they serve every query
    rewritten over this RuleBase that makes the same choices or the same
    rewritings, and they grow with the distinct ones made.
    ``compile_rules`` keeps the last one built for queries whose memos stay
    bounded."""

    def __init__(self, rules: Iterable[ExistentialRule]):
        self.rules = [CompiledRule(r) for r in rules]
        self._by_head: dict[tuple[str, int], list[int]] = {}
        for i, c in enumerate(self.rules):
            for key in {(h.predicate, h.arity) for h in c.rule.head}:
                self._by_head.setdefault(key, []).append(i)
        self.constants = frozenset(t for c in self.rules
                                   for t in terms_of(c.rule.body | c.rule.head) if t.is_constant)
        self.processed: dict[tuple, ConjunctiveQuery] = {}

    def unifiable(self, q: ConjunctiveQuery) -> list[CompiledRule]:
        """The rules, in input order, with a head atom whose (predicate, arity)
        occurs in q.  No other rule has a piece-unifier with q (Baget et al.,
        AIJ 2011)."""
        hits = {i for key in q.signature for i in self._by_head.get(key, ())}
        return [self.rules[i] for i in sorted(hits)]

    def in_vocabulary(self, q: ConjunctiveQuery) -> bool:
        """Whether each term of q is a canonical variable (``kb.CANONICAL_NAME``
        with an index, as canonicalize names them) or a constant of the rules.

        A rewriting's constants are its query's and the rules', so the
        canonical rewritings of such a query are in the vocabulary too, and
        the choices they make are bounded by the rules and the query sizes."""
        return all(t in self.constants if t.is_constant
                   else t.name == kb.CANONICAL_NAME and t.fresh_index is not None
                   for a in q.atoms for t in a.args)


# the rule tuple compile_rules compiled last, and its RuleBase; the tuple
# holds the rules, so no id in it is recycled while it is kept
_last_compiled: tuple[tuple[ExistentialRule, ...], RuleBase] = ((), RuleBase(()))


def compile_rules(rules: Union[RuleBase, Iterable[ExistentialRule]],
                  q: ConjunctiveQuery) -> RuleBase:
    """The RuleBase to rewrite q over: a RuleBase as it is; otherwise the last
    one built, while the rules are the same objects in the same order and q
    is in its vocabulary, or a new one.

    Rules are compared by identity, not equality: equal rules parsed anew get
    their own RuleBase.  A query out of the vocabulary, as one with a
    constant of the data, gets a RuleBase for itself and leaves the entry as
    it is: the memos it makes serve no query without that constant, and
    would grow with every new one.  A new RuleBase built for a query in the
    vocabulary replaces the entry; only one is kept, so interleaving two
    rule sets compiles each call."""
    global _last_compiled
    if isinstance(rules, RuleBase):
        return rules
    rules = tuple(rules)
    last, base = _last_compiled
    if len(last) != len(rules) or any(a is not b for a, b in zip(last, rules)):
        base = RuleBase(rules)
        if base.in_vocabulary(q):
            _last_compiled = rules, base
    elif not base.in_vocabulary(q):
        base = RuleBase(rules)
    return base


def single_piece_unifiers(
    q: ConjunctiveQuery, rule: Union[ExistentialRule, RuleCopy]
) -> tuple[PieceUnifier, ...]:
    """All most general single-piece unifiers of q with the rule.

    Grows candidate pieces from each seed, in atom order, by sticky-variable
    closure; each query atom that joins a piece picks a head atom of its
    (predicate, arity), and the search branches over the picks.  A seed is
    left out of later pieces; with a one-atom head, so is an accepted piece,
    as no other piece can share its atoms.  The unifiers come by least atom,
    their seed, as a piece grows only into atoms still in the pool.  The
    rule is assumed variable-disjoint from q.  A plain rule gets a RuleCopy
    of its own; a RuleCopy keeps its unifiers and the result for each q.atoms,
    which the search alone reads, so every query with those atoms shares one
    search.  The result is a tuple, as the memo hands it to every caller.
    """
    copy = rule if isinstance(rule, RuleCopy) else RuleCopy(rule)
    found = copy._pieces.get(q.atoms)
    if found is not None:
        return found
    positions = copy.positions
    buckets = q.index.buckets
    pool = set()
    for key in positions:
        pool.update(buckets.get(key, ()))
    atomic = len(copy.head) == 1
    out = []
    while pool:
        seed = min(pool)
        todo = [((seed, j),) for j in positions[seed.predicate, seed.arity]]
        while todo:
            mu = copy.unifier(todo.pop())
            if mu is None:
                continue
            part = mu.q_part
            # sticky: separating and in a class with an existential variable
            sticky = separating(q, part, mu.ex_vars)
            if not sticky:
                out.append(mu)
                if atomic:
                    pool -= part
                continue
            # a sticky variable is separating, so it reaches an atom outside part
            grown = sorted({a for v in sticky for a in q.occurrences[v]} - part)
            if pool.issuperset(grown):
                for picks in product(*(positions[a.predicate, a.arity] for a in grown)):
                    todo.append(mu.choice + tuple(zip(grown, picks)))
        pool.discard(seed)  # already gone if its piece was accepted
    # a piece that several choices reach keeps its finest partitions
    found = copy._pieces[q.atoms] = tuple(out if atomic else _finest(out))
    return found


def aggregate_rules(rules: list[ExistentialRule]) -> ExistentialRule:
    """Conjoin variable-disjoint rules into one rule."""
    seen: set[Term] = set()
    for r in rules:
        rv = r.variables()
        if rv & seen:
            raise ValueError("aggregated rules must have disjoint variables")
        seen |= rv
    label = "+".join(r.label for r in rules)
    body = frozenset(a for r in rules for a in r.body)
    head = frozenset(a for r in rules for a in r.head)
    return ExistentialRule(label, body, head)


def enumerate_aggregated(
    q: ConjunctiveQuery, rule: Union[ExistentialRule, CompiledRule]
) -> list[PieceUnifier]:
    """Every compatible aggregation of single-piece unifiers, depth first.

    The pieces are searched once, on copy 0, by least atom; a renamed copy
    has the same.  Member slot k is its unifier's choice over copy k,
    memoized there, so the members are pairwise variable-disjoint; copy k is
    built when a (k+1)-member candidate is first tried.  A one-member
    aggregation is the piece's unifier on copy 0, which
    ``single_piece_unifiers`` returns, and one of m >= 2 members is over the
    aggregated rule of copies 0..m-1, built once per CompiledRule and shared
    by every query that reaches it.  A plain rule is compiled here.  Each
    subset of the pieces is tried once, in preorder, from an explicit stack:
    a nested recursive function would refer to itself through its closure,
    a cycle that keeps the compiled rule alive until the cycle collector
    runs."""
    compiled = rule if isinstance(rule, CompiledRule) else CompiledRule(rule)
    base = single_piece_unifiers(q, compiled.copy(0))
    out: list[PieceUnifier] = []
    # (members' choices, next piece to try); a failed aggregation stays failed
    # under more members: parts overlap or the joined partition only merges
    # more classes, so only a found one is extended
    stack = [((), 0)]
    while stack:
        choices, j = stack.pop()
        if j == len(base):
            continue
        stack.append((choices, j + 1))
        cand = choices + (base[j].choice,)
        agg = compiled.aggregation(cand)
        if agg is not None:
            out.append(agg)
            stack.append((cand, j + 1))
    return out


def _finest(mus: list[PieceUnifier]) -> list[PieceUnifier]:
    """For each (q_part, h_part), the first unifier of each finest partition, in order."""
    return [mu for i, mu in enumerate(mus) if not any(
        o.q_part == mu.q_part and o.h_part == mu.h_part and finer_than(o.partition, mu.partition)
        and (k < i or o.partition != mu.partition) for k, o in enumerate(mus) if k != i)]


# size caps of the exhaustive enumeration
MAX_QUERY_ATOMS = 10
MAX_HEAD_ATOMS = 4


def general_piece_unifiers(q: ConjunctiveQuery, rule: ExistentialRule) -> list[PieceUnifier]:
    """Exhaustive enumeration of most general piece-unifiers (oracle-grade).

    Exponential by design; refuses inputs beyond the size caps.
    """
    if len(q.atoms) > MAX_QUERY_ATOMS or len(rule.head) > MAX_HEAD_ATOMS:
        raise ValueError("input beyond oracle size caps")

    out: list[PieceUnifier] = []
    head_atoms = sorted(rule.head)
    head_preds = {a.predicate for a in head_atoms}
    cands = [a for a in sorted(q.atoms) if a.predicate in head_preds]
    for qmask in range(1, 1 << len(cands)):
        q_sel = [a for i, a in enumerate(cands) if qmask >> i & 1]
        q_part = frozenset(q_sel)
        for hmask in range(1, 1 << len(head_atoms)):
            h_sel = [a for i, a in enumerate(head_atoms) if hmask >> i & 1]
            h_part = frozenset(h_sel)
            if {a.predicate for a in q_sel} != {a.predicate for a in h_sel}:
                continue
            f_choices = [[h for h in h_sel if h.predicate == a.predicate
                          and h.arity == a.arity] for a in q_sel]
            g_choices = [[a for a in q_sel if a.predicate == h.predicate
                          and a.arity == h.arity] for h in h_sel]
            if any(not c for c in f_choices) or any(not c for c in g_choices):
                continue
            partitions = []
            for f in product(*f_choices):
                for g in product(*g_choices):
                    pairs = list(zip(q_sel, f)) + [(qa, ha) for ha, qa in zip(h_sel, g)]
                    partitions.append(TermPartition(
                        st for qa, ha in pairs for st in zip(qa.args, ha.args)))
            mus = (PieceUnifier(q_part, h_part, p, rule) for p in partitions)
            out.extend(_finest([mu for mu in mus if not validate_piece_unifier(q, mu)]))
    return out
