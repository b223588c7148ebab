"""One-step rewriting and the generic breadth-first rewriting loop."""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .kb import (
    ConjunctiveQuery,
    ExistentialRule,
    FreshCounter,
    canonicalize,
    freshen_rule,
    signature,
)
from .homomorphism import apply_to_atoms, core, cover, more_general
from .unification import (
    PieceUnifier,
    enumerate_aggregated,
    general_piece_unifiers,
    single_piece_unifiers,
    validate_piece_unifier,
)

OPERATOR_KINDS = ("full-piece", "single-piece", "aggregated")


def beta(q: ConjunctiveQuery, rule: ExistentialRule, mu: PieceUnifier) -> ConjunctiveQuery:
    """One-step rewriting u(body) + u(q minus unified part), canonicalized."""
    problems = validate_piece_unifier(q, mu)
    if problems:
        raise ValueError("invalid piece-unifier: " + "; ".join(problems))
    u = mu.substitution()
    atoms = apply_to_atoms(u, rule.body) | apply_to_atoms(u, q.atoms - mu.q_part)
    return canonicalize(ConjunctiveQuery(atoms, ()))


@dataclass
class RewritingOperator:
    name: str
    generator: Callable[[ConjunctiveQuery, Iterable[ExistentialRule]], list[ConjunctiveQuery]]

    def __call__(self, q, rules):
        return self.generator(q, rules)


def _unifiable_rules(q: ConjunctiveQuery,
                     rules: Iterable[ExistentialRule]) -> list[ExistentialRule]:
    """Rules with a head atom whose (predicate, arity) occurs in q.

    No other rule has a piece-unifier with q (Baget et al., AIJ 2011).
    """
    sig = signature(q)
    return [r for r in rules if any((h.predicate, h.arity) in sig for h in r.head)]


def make_operator(kind: str, counter: Optional[FreshCounter] = None) -> RewritingOperator:
    """One-step rewriting: beta over each (rule copy, unifier) pair of kind."""
    counter = counter or FreshCounter()

    if kind == "aggregated":

        def pairs(q, r):
            return ((agg.rule, agg.merged) for agg in enumerate_aggregated(q, r, counter))

    elif kind in ("single-piece", "full-piece"):
        unifiers = single_piece_unifiers if kind == "single-piece" else general_piece_unifiers

        def pairs(q, r):
            fr = freshen_rule(r, counter)
            return ((fr, mu) for mu in unifiers(q, fr))

    else:
        raise ValueError(f"unknown operator kind {kind!r}")

    def gen(q, rules):
        return [beta(q, fr, mu) for r in _unifiable_rules(q, rules) for fr, mu in pairs(q, r)]

    return RewritingOperator(kind, gen)


@dataclass
class Limits:
    """Termination guards; None means unbounded."""

    max_depth: Optional[int] = None
    max_generated: Optional[int] = 100_000
    timeout: Optional[float] = 60.0


@dataclass
class RewritingResult:
    cover: set[ConjunctiveQuery]
    generated_count: int = 0
    explored_count: int = 0
    depth_reached: int = 0
    terminated: bool = True


class InvariantViolation(AssertionError):
    pass


def process(q: ConjunctiveQuery, core_reduce: bool) -> ConjunctiveQuery:
    """The form a generated query is kept in: its core if asked, canonicalized."""
    return canonicalize(core(q) if core_reduce else q)


def _check_invariants(qf, qe, op, rules, core_reduce):
    # invariant 1: frontier within result set
    if not qe <= qf:
        raise InvariantViolation("frontier not contained in result set")
    # invariant 4: pairwise incomparable, i.e. the cover of qf keeps all of it
    dropped = qf - cover(explored=qf, fresh=[])
    if dropped:
        raise InvariantViolation(
            "comparable queries in result set: " + ", ".join(sorted(map(str, dropped))))
    # invariant 2: result set covers one-step rewritings of explored queries
    for q in qf - qe:
        for r in op(q, rules):
            rq = process(r, core_reduce)
            if not any(more_general(c, rq) for c in qf):
                raise InvariantViolation(f"uncovered rewriting of explored query: {rq}")


def rewrite(
    q: ConjunctiveQuery,
    rules: Iterable[ExistentialRule],
    op: RewritingOperator,
    limits: Optional[Limits] = None,
    core_reduce: bool = True,
    debug_invariants: bool = False,
) -> RewritingResult:
    """Breadth-first cover maintenance over the one-step rewriting operator.

    Keeps a cover of everything generated so far, explored queries preferred,
    and explores only the queries that survived the cover step.
    """
    rules = list(rules)
    limits = limits or Limits()
    start = time.monotonic()
    q0 = process(q, core_reduce)
    qf: set[ConjunctiveQuery] = {q0}
    qe: set[ConjunctiveQuery] = {q0}
    generated = 0
    explored = 0
    depth = 0
    terminated = True

    while qe:
        if limits.max_depth is not None and depth >= limits.max_depth:
            terminated = False
            break
        raw: list[ConjunctiveQuery] = []
        for cur in sorted(qe, key=ConjunctiveQuery.sort_key):
            raw.extend(op(cur, rules))
        generated += len(raw)
        explored += len(qe)
        fresh = sorted({process(x, core_reduce) for x in raw} - qf,
                       key=ConjunctiveQuery.sort_key)
        qc = cover(explored=qf, fresh=fresh)
        qe = qc - qf
        qf = qc
        if qe:
            depth += 1
        if debug_invariants:
            _check_invariants(qf, qe, op, rules, core_reduce)
        if limits.max_generated is not None and generated > limits.max_generated:
            terminated = False
            break
        if limits.timeout is not None and time.monotonic() - start > limits.timeout:
            terminated = False
            break

    return RewritingResult(
        cover=qf,
        generated_count=generated,
        explored_count=explored,
        depth_reached=depth,
        terminated=terminated,
    )


def saturate(
    q: ConjunctiveQuery,
    rules: Iterable[ExistentialRule],
    op: RewritingOperator,
    depth: int,
    core_reduce: bool = False,
) -> set[ConjunctiveQuery]:
    """Un-pruned k-saturation: every rewriting reachable in at most depth steps.

    Deduplicates by canonical form only; no cover maintenance.
    """
    rules = list(rules)
    q0 = process(q, core_reduce)
    seen: set[ConjunctiveQuery] = {q0}
    frontier = [q0]
    for _ in range(depth):
        nxt = []
        for cur in frontier:
            for r in op(cur, rules):
                rq = process(r, core_reduce)
                if rq not in seen:
                    seen.add(rq)
                    nxt.append(rq)
        frontier = nxt
        if not frontier:
            break
    return seen
