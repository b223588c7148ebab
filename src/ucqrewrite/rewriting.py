"""One-step rewriting and the generic breadth-first rewriting loop."""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, KeysView, Optional, Union

from .kb import (
    RESERVED_PREFIX,
    ConjunctiveQuery,
    ExistentialRule,
    apply_to_atoms,
    attach_answer_atom,
    canonicalize,
)
from .homomorphism import core, cover, more_general
from .unification import (
    PieceUnifier,
    RuleBase,
    compile_rules,
    enumerate_aggregated,
    general_piece_unifiers,
    separating,
    single_piece_unifiers,
    validate_piece_unifier,
)


def beta(q: ConjunctiveQuery, mu: PieceUnifier) -> ConjunctiveQuery:
    """One-step rewriting u(body) + u(q minus unified part) with mu's rule,
    not canonicalized.  q's answer variables are folded into an answer atom
    first, so mu may not merge one with an existential variable, and the
    rewriting keeps them.  u(body) and the checks that do not read q are
    mu's, computed once.  u keeps q's names (``TermPartition.substitution``):
    only the atoms with a variable u renames, found through ``q.occurrences``,
    are rebuilt, and the others are q's own."""
    q = attach_answer_atom(q)
    problems = validate_piece_unifier(q, mu)
    if problems:
        raise ValueError("invalid piece-unifier: " + "; ".join(problems))
    u = mu.partition.substitution
    rest = q.atoms - mu.q_part
    # a query variable u renames is in the partition's carrier, so in q_part;
    # without one, q.occurrences is not read
    renamed = {t for a in mu.q_part for t in a.args if t in u}
    touched = [a for v in renamed for a in q.occurrences[v] if a in rest]
    if touched:
        rest = rest.difference(touched).union(apply_to_atoms(u, touched))
    return ConjunctiveQuery(mu.body_image | rest, ())


Operator = Callable[[ConjunctiveQuery, Union[RuleBase, Iterable[ExistentialRule]]],
                    list[ConjunctiveQuery]]

# kind -> unifiers of a query with one CompiledRule; each looks its function up
# here at call time, so a wrapper installed on this module sees the calls
UNIFIERS = {
    "full-piece": lambda q, r: general_piece_unifiers(q, r.copy(0).rule),
    "single-piece": lambda q, r: single_piece_unifiers(q, r.copy(0)),
    "aggregated": lambda q, r: enumerate_aggregated(q, r),
}
OPERATOR_KINDS = tuple(UNIFIERS)


class RewritingOperator:
    """One-step rewriting: beta over each unifier of kind, each with its rule copy.

    Called on a query and the rules, it returns the rewritings; ``steps``
    gives the unifier each one comes from too.  The operator takes the rules
    as a RuleBase, or as rules, which go through ``compile_rules``, as its
    docstring says.  A query's answer variables are folded into an answer
    atom first, as ``rewrite`` does, so every rewriting keeps them.  A query
    with variables in the reserved namespace, such as a raw rewriting, is
    rewritten in its canonical form, as it may share variables with the rule
    copies.
    """

    def __init__(self, kind: str):
        unifiers = UNIFIERS.get(kind)
        if unifiers is None:
            raise ValueError(f"unknown operator kind {kind!r}")
        self._unifiers = unifiers

    def steps(self, q: ConjunctiveQuery, rules: Union[RuleBase, Iterable[ExistentialRule]]
              ) -> tuple[ConjunctiveQuery, list[tuple[PieceUnifier, ConjunctiveQuery]]]:
        """(the form of q that beta receives, each (unifier, rewriting) pair
        in the order the rewritings are made)."""
        q = attach_answer_atom(q)
        if any(v.name.startswith(RESERVED_PREFIX) for v in q.variables()):
            q = canonicalize(q)
        base = compile_rules(rules, q)
        unifiers = self._unifiers
        return q, [(mu, beta(q, mu)) for r in base.unifiable(q) for mu in unifiers(q, r)]

    def __call__(self, q, rules) -> list[ConjunctiveQuery]:
        return [x for _, x in self.steps(q, rules)[1]]


# the one-step rewriting operator of kind, one of OPERATOR_KINDS
make_operator = RewritingOperator


def maps_into_rewriting(q: ConjunctiveQuery, mu: PieceUnifier, x: ConjunctiveQuery) -> bool:
    """Whether q >= x = beta(q, mu) is shown by a map that is mu's substitution
    u on q minus q_part: q_part maps into x by a map that extends u on the
    variables q_part shares with the rest of q.  beta puts u(q minus q_part)
    in x, so the two maps together send q into x.  q is the form beta
    received; only q_part is searched, and not even that when u fixes the
    map on every variable of q_part."""
    if not mu.part_signature <= x.signature:
        return False
    u = mu.partition.substitution
    binding = {v: u.get(v, v) for v in separating(q, mu.q_part, mu.part_vars)}
    if len(binding) == len(mu.part_vars):
        return apply_to_atoms(binding, mu.q_part) <= x.atoms
    return more_general(mu.part_query, x, binding=binding)


@dataclass
class Limits:
    """Termination guards; None means unbounded."""

    max_depth: Optional[int] = None
    max_generated: Optional[int] = 100_000
    timeout: Optional[float] = 60.0


@dataclass
class RewritingResult:
    """What ``rewrite`` returns.  ``cover`` is a set-like view of the result
    set in the order ``rewrite`` kept its queries."""

    cover: KeysView[ConjunctiveQuery]
    generated_count: int = 0
    explored_count: int = 0
    depth_reached: int = 0
    terminated: bool = True  # no query is left to explore


class InvariantViolation(AssertionError):
    pass


def process(q: ConjunctiveQuery) -> ConjunctiveQuery:
    """The form a query is kept in: its core, canonicalized."""
    return canonicalize(core(q))


def _check_invariants(qf, qe, op, rules):
    # invariant 1: frontier within result set
    if not qe <= qf:
        raise InvariantViolation("frontier not contained in result set")
    # invariant 4: pairwise incomparable, i.e. the cover of qf keeps all of it
    dropped = qf - cover(explored=[], fresh=qf)
    if dropped:
        raise InvariantViolation(
            "comparable queries in result set: " + ", ".join(sorted(map(str, dropped))))
    # invariant 2: result set covers one-step rewritings of explored queries
    for q in qf - qe:
        for r in op(q, rules):
            if not any(more_general(c, r) for c in qf):
                raise InvariantViolation(f"uncovered rewriting of explored query: {r}")


def rewrite(
    q: ConjunctiveQuery,
    rules: Union[RuleBase, Iterable[ExistentialRule]],
    op: Operator,
    limits: Optional[Limits] = None,
    debug_invariants: bool = False,
) -> RewritingResult:
    """Breadth-first cover maintenance over the one-step rewriting operator.

    Keeps a cover of everything generated so far, explored queries preferred,
    and explores only the queries that survived the cover step, in the order
    the operator made them: the result set and frontier keep insertion order,
    so no step sorts and the work done repeats under any hash seed.  The rules
    are a RuleBase, or rules that go through ``compile_rules``, as its
    docstring says.  The cover sees each distinct raw rewriting once per
    call, at the first level that makes it: a query leaves the result set
    only for one that is >= it, so the result set still covers each raw
    rewriting decided before, and the cover would drop it again.  A fresh
    raw rewriting x of an operator with ``steps`` is dropped before the cover
    when ``maps_into_rewriting`` shows that its explored query is >= it: that
    query is in the result set the cover starts from, so the cover would
    drop x too, and x changes none of its other decisions.  Each raw
    rewriting the cover keeps is processed as it enters the result set, once
    per RuleBase: its processed form is kept in ``rules.processed`` and
    shared by every later rewrite over that RuleBase that keeps it.  Answer
    variables are folded into an answer atom first, so every rewriting keeps
    them.  The rewriting starts from a copy of q, so q itself keeps no view
    (``index``, ``plan`` and the others) that the call would build: a caller
    that holds many queries holds no engine state on them.
    """
    limits = limits or Limits()
    start = time.monotonic()
    q0 = process(attach_answer_atom(ConjunctiveQuery(q.atoms, q.answer_vars)))
    rules = compile_rules(rules, q0)
    qf: dict[ConjunctiveQuery, None] = {q0: None}  # the result set, in insertion order
    qe: list[ConjunctiveQuery] = [q0]
    generated = 0
    explored = 0
    depth = 0
    # the raw rewritings given to cover so far, as fields only: a query would
    # keep its cached views alive; rules.processed is keyed alike
    seen: set[tuple] = set()
    processed = rules.processed
    steps = getattr(op, "steps", None)

    while qe:
        if limits.max_depth is not None and depth >= limits.max_depth:
            break
        fresh = []
        for cur in qe:
            if steps is None:
                source, made = None, [(None, x) for x in op(cur, rules)]
            else:
                source, made = steps(cur, rules)
            generated += len(made)
            for mu, x in made:
                # copies are fixed per rule, so equal raw rewritings coincide here
                key = x.atoms, x.answer_vars
                if key not in seen:
                    seen.add(key)
                    if mu is None or not maps_into_rewriting(source, mu, x):
                        fresh.append(x)
        explored += len(qe)
        qc = cover(explored=qf, fresh=fresh)
        qe = []
        for x in fresh:
            if x in qc and x not in qf:
                key = x.atoms, x.answer_vars
                kept = processed.get(key)
                if kept is None:
                    kept = processed[key] = process(x)
                qe.append(kept)
        qf = dict.fromkeys([k for k in qf if k in qc] + qe)
        if qe:
            depth += 1
        if debug_invariants:
            _check_invariants(set(qf), set(qe), op, rules)
        if limits.max_generated is not None and generated > limits.max_generated:
            break
        if limits.timeout is not None and time.monotonic() - start > limits.timeout:
            break

    return RewritingResult(
        cover=qf.keys(),
        generated_count=generated,
        explored_count=explored,
        depth_reached=depth,
        terminated=not qe,
    )


def saturate(
    q: ConjunctiveQuery,
    rules: Union[RuleBase, Iterable[ExistentialRule]],
    op: Operator,
    depth: int,
) -> set[ConjunctiveQuery]:
    """Un-pruned k-saturation: every rewriting reachable in at most depth steps.

    Deduplicates by canonical form only; no cores, no cover maintenance.
    The rules are taken as ``rewrite`` takes them, and q is copied first, as
    there.
    """
    q0 = canonicalize(attach_answer_atom(ConjunctiveQuery(q.atoms, q.answer_vars)))
    rules = compile_rules(rules, q0)
    seen: set[ConjunctiveQuery] = {q0}
    frontier = [q0]
    for _ in range(depth):
        nxt = []
        for cur in frontier:
            for r in op(cur, rules):
                rq = canonicalize(r)
                if rq not in seen:
                    seen.add(rq)
                    nxt.append(rq)
        frontier = nxt
        if not frontier:
            break
    return seen
