"""Bounded restricted chase and the verification harness built on it."""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, KeysView, Optional

from .kb import (
    ANS_PREDICATE,
    Atom,
    AtomIndex,
    ConjunctiveQuery,
    ExistentialRule,
    MatchPlan,
    NULL_PREFIX,
    Substitution,
    Term,
    apply_to_atom,
    apply_to_atoms,
    const,
    strip_answer_atom,
    terms_of,
)
from .dlgp import query_to_dlgp
from .homomorphism import cover, find_homomorphism, homomorphisms


class ChaseState:
    """A chase instance: the rank of each of its atoms, an index over them, and
    in ``added`` an index over the atoms of the round being filled, or the
    facts before round 1.

    The facts get rank 0, with their variables frozen to labelled nulls in
    order of first occurrence in the sorted facts.  Nulls are numbered past
    every null ``__n<i>`` the facts hold, such as a chase prefix's.
    Every later atom goes into ``rank``, ``index`` and ``added`` together
    through ``add``.  A round swaps ``added`` out as the atoms it reads
    (``_apply_round``), so the chase keeps two indexes of new atoms, however
    many rounds it makes.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        facts = sorted(facts)
        self.null_count = 1 + max(map(_null_number, terms_of(facts)), default=-1)
        firsts = dict.fromkeys(t for a in facts for t in a.args if t.is_variable)
        frozen = apply_to_atoms({v: self.fresh_null() for v in firsts}, facts)
        self.rank: dict[Atom, int] = dict.fromkeys(frozen, 0)
        self.index = AtomIndex(self.rank)
        self.added = self.index.snapshot()

    @property
    def atoms(self) -> KeysView[Atom]:
        """The instance's atoms: a read-only view of rank's keys."""
        return self.rank.keys()

    def fresh_null(self) -> Term:
        t = const(f"{NULL_PREFIX}{self.null_count}")
        self.null_count += 1
        return t

    def add(self, a: Atom, rank: int) -> None:
        """Add a with the given rank, unless it is already present."""
        if a not in self.rank:
            self.rank[a] = rank
            self.index.add(a)
            self.added.add(a)


@dataclass
class EntailmentVerdict:
    value: str  # "yes" | "no" | "unknown_at_bound"
    witness: Optional[Substitution] = None
    ranks_used: int = 0

    @property
    def is_yes(self) -> bool:
        return self.value == "yes"


def _null_number(t: Term) -> int:
    """i for the labelled null __n<i>, else -1."""
    digits = t.name[len(NULL_PREFIX):]
    if t.is_constant and t.name.startswith(NULL_PREFIX) and digits.isdecimal():
        return int(digits)
    return -1


def _compile(rules: Iterable[ExistentialRule]) -> list[tuple]:
    """Each rule as (its body's match plan, its sorted existentials, its
    head's match plan), each plan over the sorted atoms: what every round
    reads of it."""
    return [(MatchPlan(sorted(r.body)), sorted(r.existentials), MatchPlan(sorted(r.head)))
            for r in rules]


def _apply_round(state: ChaseState, rules: list[tuple], rank: int) -> bool:
    """Fire all unsatisfied triggers once; returns True if anything was added.

    Triggers come from the instance at the round's start.  A trigger whose
    body image lies wholly in atoms older than the previous round was seen
    by that round and left satisfied, and stays so as the instance grows, so
    it is skipped without a restricted check.  So a one-atom body is matched
    against the previous round's atoms only (semi-naive evaluation), which
    this round does not add to; a longer body is matched against a snapshot
    of the round's start, taken before any rule fires, and its old triggers
    are skipped.  rules come from _compile, once per chase.
    """
    delta, state.added = state.added, AtomIndex()
    snapshot = state.index.snapshot() if any(len(body.atoms) != 1 for body, *_ in rules) else None
    for body, existentials, head_plan in rules:
        if len(body.atoms) == 1:
            triggers = homomorphisms(body, delta)
        else:
            triggers = (h for h in homomorphisms(body, snapshot) if max(
                (state.rank[apply_to_atom(h, a)] for a in body.atoms), default=0) >= rank - 1)
        for h in triggers:
            # restricted check: skip if an extension of the trigger, its
            # existentials free, already satisfies the head
            if find_homomorphism(head_plan, state.index, h) is not None:
                continue
            trigger = sorted(apply_to_atom(h, a) for a in head_plan.atoms)
            ex_map = {e: state.fresh_null() for e in existentials}
            for a in trigger:
                state.add(apply_to_atom(ex_map, a), rank)
    return bool(state.added.buckets)


def _rounds(facts: Iterable[Atom], rules: Iterable[ExistentialRule],
            max_rank: int) -> Iterator[ChaseState]:
    """The one chase loop: the instance after rank 0, 1, ..., each yield the
    same ChaseState, grown in place.  It stops at max_rank or after a round
    that adds nothing, a fixpoint.  The rules are compiled once."""
    if max_rank < 0:
        raise ValueError("max_rank must be >= 0")
    state = ChaseState(facts)
    rules = _compile(rules)
    yield state
    for r in range(1, max_rank + 1):
        if not _apply_round(state, rules, r):
            return
        yield state


def chase(facts: Iterable[Atom], rules: Iterable[ExistentialRule], max_rank: int) -> ChaseState:
    """Breadth-first restricted chase up to max_rank (or fixpoint)."""
    *_, state = _rounds(facts, rules, max_rank)
    return state


def entails(
    facts: Iterable[Atom],
    rules: Iterable[ExistentialRule],
    q: ConjunctiveQuery,
    max_rank: int,
    max_atoms: Optional[int] = None,
) -> EntailmentVerdict:
    """Bounded entailment: "yes" and "no" are certain; "unknown_at_bound" is
    returned when the rank bound or the optional atom budget is exhausted
    before the chase reaches a fixpoint.  The query is compiled into a match
    plan once, for every round."""
    query = MatchPlan(sorted(q.atoms))
    for r, state in enumerate(_rounds(facts, rules, max_rank)):
        h = find_homomorphism(query, state.index)
        if h is not None:
            return EntailmentVerdict("yes", witness=h, ranks_used=r)
        if max_atoms is not None and len(state.atoms) > max_atoms:
            return EntailmentVerdict("unknown_at_bound", ranks_used=r)
    # stopped below max_rank: a fixpoint, a universal model, so absence is definitive
    return EntailmentVerdict("no" if r < max_rank else "unknown_at_bound", ranks_used=r)


def check_one_step_soundness(
    original: ConjunctiveQuery,
    rewriting: ConjunctiveQuery,
    rules: Iterable[ExistentialRule],
    max_rank: int = 2,
) -> bool:
    """Freeze-and-chase: the chase of a rewriting, its variables frozen to
    nulls, must re-entail the query."""
    return entails(rewriting.atoms, rules, original, max_rank).is_yes


def random_ground_atoms(
    predicates: dict[str, int], n_atoms: int, n_consts: int, rng: random.Random
) -> frozenset[Atom]:
    names = sorted(predicates)
    consts = [const(f"c{i}") for i in range(n_consts)]
    out = set()
    for _ in range(n_atoms):
        p = rng.choice(names)
        out.add(Atom(p, tuple(rng.choice(consts) for _ in range(predicates[p]))))
    return frozenset(out)


def verify_rewriting_set(
    q: ConjunctiveQuery,
    rules: Iterable[ExistentialRule],
    result,
    samples: int = 30,
    seed: int = 0,
    extra_facts: Optional[Iterable[frozenset[Atom]]] = None,
) -> dict:
    """Soundness, sampled completeness and minimality report for a cover.

    Completeness sampling draws fact bases from chase prefixes of random
    ground seeds so the ground truth stays decidable at the chosen rank.  A
    fact base is a counterexample when an answer of q on its bounded chase,
    free of the chase's nulls, is an answer of no cover query on it; a
    Boolean q has the one answer ().  The rewritings are listed in the order
    ``ucqrewrite rewrite`` prints them.
    """
    rules = list(rules)
    printed = sorted(((query_to_dlgp(strip_answer_atom(qi)), qi) for qi in result.cover),
                     key=lambda e: e[0])
    ucq = [qi for _, qi in printed]
    depth = result.depth_reached
    base_rank = 2 * depth + 2

    report: dict = {"sound": True, "rewritings": [], "minimal": True,
                    "complete_sampled": True, "counterexamples": []}

    for text, qi in printed:
        verdict = entails(qi.atoms, rules, q, 2 * base_rank)
        entry = {"query": text, "sound": verdict.is_yes,
                 "ranks_used": verdict.ranks_used}
        report["rewritings"].append(entry)
        if not verdict.is_yes:
            report["sound"] = False

    # pairwise incomparable iff its own cover keeps every query
    report["minimal"] = len(cover(explored=[], fresh=ucq)) == len(ucq)

    if result.terminated:
        rng = random.Random(seed)
        body = strip_answer_atom(q)
        preds: dict[str, int] = {}
        for r in rules:
            for a in list(r.body) + list(r.head):
                preds.setdefault(a.predicate, a.arity)
        for a in body.atoms:
            preds.setdefault(a.predicate, a.arity)
        fact_bases = [
            frozenset(chase(
                random_ground_atoms(preds, rng.randint(1, 6), rng.randint(1, 4), rng),
                rules, rng.randint(0, 2)).atoms)
            for _ in range(samples)
        ]
        if extra_facts is not None:
            fact_bases.extend(frozenset(f) for f in extra_facts)
        for f in fact_bases:
            known = terms_of(f)
            # a cover query's answer atom may match only the answer under test
            data = frozenset(a for a in f if a.predicate != ANS_PREDICATE)
            # the certain answers: body matches into the chase, with no null it made
            answers = {tuple(h.get(t, t) for t in body.answer_vars)
                       for h in homomorphisms(body.plan, chase(f, rules, base_rank).index)}
            for ans in sorted(answers):
                if any(_null_number(t) >= 0 and t not in known for t in ans):
                    continue
                index = AtomIndex(data | {Atom(ANS_PREDICATE, ans)})
                if not any(find_homomorphism(qi.plan, index) is not None for qi in ucq):
                    report["complete_sampled"] = False
                    report["counterexamples"].append(sorted(str(a) for a in f))
                    break
    else:
        report["complete_sampled"] = None  # guard fired; skipped

    return report
