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
    sig = {(a.predicate, a.arity) for a in q.atoms}
    return [r for r in rules if any((h.predicate, h.arity) in sig for h in r.head)]


def make_operator(kind: str, counter: Optional[FreshCounter] = None) -> RewritingOperator:
    counter = counter or FreshCounter()

    if kind == "full-piece":

        def gen(q, rules):
            out = []
            for r in _unifiable_rules(q, rules):
                fr = freshen_rule(r, counter)
                for mu in general_piece_unifiers(q, fr):
                    out.append(beta(q, fr, mu))
            return out

    elif kind == "single-piece":

        def gen(q, rules):
            out = []
            for r in _unifiable_rules(q, rules):
                fr = freshen_rule(r, counter)
                for mu in single_piece_unifiers(q, fr):
                    out.append(beta(q, fr, mu))
            return out

    elif kind == "aggregated":

        def gen(q, rules):
            out = []
            for r in _unifiable_rules(q, rules):
                for agg in enumerate_aggregated(q, r, counter):
                    out.append(beta(q, agg.rule, agg.merged))
            return out

    else:
        raise ValueError(f"unknown operator kind {kind!r}")

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


def _check_invariants(qf, qe, op, rules, process):
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
            rq = process(r)
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

    def process(x: ConjunctiveQuery) -> ConjunctiveQuery:
        return canonicalize(core(x) if core_reduce else x)

    q0 = process(q)
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
        fresh = sorted({process(x) for x in raw} - qf,
                       key=ConjunctiveQuery.sort_key)
        qc = cover(explored=qf, fresh=fresh)
        qe = qc - qf
        qf = qc
        if qe:
            depth += 1
        if debug_invariants:
            _check_invariants(qf, qe, op, rules, process)
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

    def process(x: ConjunctiveQuery) -> ConjunctiveQuery:
        return canonicalize(core(x) if core_reduce else x)

    q0 = process(q)
    seen: set[ConjunctiveQuery] = {q0}
    frontier = [q0]
    for _ in range(depth):
        nxt = []
        for cur in frontier:
            for r in op(cur, rules):
                rq = process(r)
                if rq not in seen:
                    seen.add(rq)
                    nxt.append(rq)
        frontier = nxt
        if not frontier:
            break
    return seen
