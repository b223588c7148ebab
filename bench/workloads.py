"""The benchmark's workloads: each builds a list of operations from a seed.

An operation runs the program on one input and checks its output against a
reference.  Every guard is count-based (``timeout=None``), so counts and
verdicts repeat exactly however loaded the machine is.

- ``ontology``: the bundled 50-rule ontology x its 4 queries x
  {single-piece, aggregated}, rewritten and serialized as the CLI does.  Deep,
  many-rule and cover-bound.  Reference: ``data/baselines.json``.
- ``diamond``: ``tests/data/diamond_chain.dlgp`` scaled to an r-chain of n
  links (3n+2 atoms) over the single rule ``p(X,Y) :- b(X)``.  One rule, large
  queries with equal predicate sets: time goes to homomorphism search and
  aggregation, not to rule or signature filtering.  Reference: counts recorded
  at the seed commit in ``reference.json``.
- ``random-linear``: the 500 instances of acceptance test 3 (1-6 linear rules
  over 4 predicates, 1-5 atom queries, up to 12 random facts), rewritten with
  the aggregated operator and then decided by the bounded chase.  Chase-bound
  with tiny covers.  Reference: rewriting and chase agree.

The seed never changes how much work a pass does.  On ``ontology`` and
``diamond`` it orders the operations; on ``random-linear`` it also renames the
predicates and constants of every instance.  Drawing a fresh sample of
instances per seed instead spread the per-operation percentiles by 17-22%
(interquartile range over median, five seeds of 1,000 instances), which leaves
no room under the 0.25 bounds once the machine's own 10-15% run-to-run noise
is added.
"""
from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent

# the CLI's default generation guard, with the wall-clock guard off
LIMITS = {"max_generated": 100_000, "timeout": None}
# acceptance test 3's generation guard, with the wall-clock guard off
RANDOM_LIMITS = {"max_generated": 4000, "timeout": None}

OPERATORS = ("single-piece", "aggregated")
# (links, operator): aggregated doubles its unifiers with each link
DIAMOND_OPS = [(n, "single-piece") for n in (4, 5, 6, 7, 8)] + \
              [(n, "aggregated") for n in (4, 5, 6)]

RANDOM_FAMILY_SEED = 42  # acceptance test 3's stream
RANDOM_INSTANCES = 500


@dataclass
class Outcome:
    rewrite_s: float
    entails_s: Optional[float] = None
    counts: Optional[dict] = None
    problem: Optional[str] = None  # why the output disagrees with its reference


@dataclass
class Op:
    label: str
    run: Callable[[], Outcome]


def _rewrite_and_print(m, query, rules, kind, reference) -> Outcome:
    """Rewrite like ``ucqrewrite rewrite``: answer atom in, aux queries and
    answer atom out, each cover query serialized."""
    t0 = time.perf_counter()
    res = m.rewriting.rewrite(m.kb.attach_answer_atom(query), rules,
                              m.rewriting.make_operator(kind),
                              m.rewriting.Limits(**LIMITS))
    rewrite_s = time.perf_counter() - t0
    public = [q for q in res.cover
              if not any(a.predicate.startswith(m.kb.AUX_PREFIX) for a in q.atoms)]
    lines = sorted(m.dlgp.query_to_dlgp(m.kb.strip_answer_atom(q)) for q in public)
    counts = {"generated": res.generated_count, "output": len(res.cover),
              "depth": res.depth_reached}
    problem = None
    if not res.terminated:
        problem = "guard fired"
    elif counts != reference:
        problem = f"counts {counts} != reference {reference}"
    elif len(set(lines)) != len(public):
        problem = "serialized cover has duplicate lines"
    return Outcome(rewrite_s, counts=counts, problem=problem)


def _decomposed(m, rules) -> list:
    counter = m.kb.FreshCounter()
    return [d for r in rules for d in m.kb.decompose_atomic_head(r, counter)]


def build_ontology(m, seed: int) -> list[Op]:
    data = Path(m.kb.__file__).parent / "data"
    rules = _decomposed(m, m.dlgp.parse_document((data / "ontology.dlgp").read_text()).rules)
    queries = m.dlgp.parse_document((data / "queries.dlgp").read_text()).queries
    baselines = json.loads((data / "baselines.json").read_text())
    ops = [Op(f"q{i} {kind}",
              lambda q=q, kind=kind, ref=base[kind]: _rewrite_and_print(m, q, rules, kind, ref))
           for i, (q, base) in enumerate(zip(queries, baselines), 1) for kind in OPERATORS]
    random.Random(seed).shuffle(ops)
    return ops


def diamond_text(n: int) -> str:
    """diamond_chain.dlgp with n r-links: each link's ends share a p-witness."""
    v = [f"V{i}" for i in range(n + 1)]
    atoms = [f"r({v[i]},{v[i + 1]})" for i in range(n)]
    for i in range(n):
        atoms += [f"p({v[i]},Z{i})", f"p({v[i + 1]},Z{i})"]
    atoms += [f"p1({v[0]})", f"p2({v[n]})"]
    return "[r1] p(X,Y) :- b(X).\n? :- " + ", ".join(atoms) + ".\n"


def build_diamond(m, seed: int) -> list[Op]:
    reference = json.loads((HERE / "reference.json").read_text())["diamond"]
    ops = []
    for n, kind in DIAMOND_OPS:
        doc = m.dlgp.parse_document(diamond_text(n))
        label = f"n={n} {kind}"
        ops.append(Op(label, lambda q=doc.queries[0], rules=_decomposed(m, doc.rules),
                      kind=kind, ref=reference[label]:
                      _rewrite_and_print(m, q, rules, kind, ref)))
    random.Random(seed).shuffle(ops)
    return ops


def random_linear_instance(m, rng: random.Random):
    """One instance in the shape of acceptance test 3: (rules, query, facts)."""
    kb = m.kb
    n_rules = rng.randint(1, 6)
    arity = {f"p{i}": rng.randint(1, 3) for i in range(4)}
    preds = sorted(arity)
    rules = []
    for i in range(n_rules):
        bp, hp = rng.choice(preds), rng.choice(preds)
        body = [kb.var(f"X{j}") for j in range(arity[bp])]
        # each head position is a body variable or a fresh existential
        head = [rng.choice(body) if rng.random() < 0.7 else kb.var(f"Y{j}")
                for j in range(arity[hp])]
        rules.append(kb.rule(f"r{i}", [kb.Atom(bp, tuple(body))], [kb.Atom(hp, tuple(head))]))
    used = sorted({a.predicate for r in rules for a in r.body | r.head})

    def atoms(n, terms):
        out = set()
        for _ in range(n):
            p = rng.choice(used)
            out.add(kb.Atom(p, tuple(rng.choice(terms) for _ in range(arity[p]))))
        return frozenset(out)

    query = kb.ConjunctiveQuery(atoms(rng.randint(1, 5), [kb.var(f"U{i}") for i in range(4)]))
    facts = atoms(rng.randint(1, 12), [kb.const(f"a{i}") for i in range(4)])
    return rules, query, facts


def renamed(m, instance, seed: int):
    """The instance with its predicates and constants permuted by the seed."""
    kb = m.kb
    rng = random.Random(seed)
    preds, consts = [f"p{i}" for i in range(4)], [f"a{i}" for i in range(4)]
    pmap = dict(zip(preds, rng.sample(preds, len(preds))))
    cmap = {kb.const(c): kb.const(d) for c, d in zip(consts, rng.sample(consts, len(consts)))}

    def sub(atoms):
        return frozenset(kb.Atom(pmap[a.predicate], tuple(cmap.get(t, t) for t in a.args))
                         for a in atoms)

    rules, query, facts = instance
    return ([kb.ExistentialRule(r.label, sub(r.body), sub(r.head)) for r in rules],
            kb.ConjunctiveQuery(sub(query.atoms)), sub(facts))


def random_linear_instances(m, seed: int, count: int = RANDOM_INSTANCES) -> list:
    rng = random.Random(RANDOM_FAMILY_SEED)
    return [renamed(m, random_linear_instance(m, rng), seed) for _ in range(count)]


def _rewrite_then_chase(m, rules, query, facts) -> Outcome:
    """Acceptance test 3's agreement check on one instance."""
    t0 = time.perf_counter()
    res = m.rewriting.rewrite(query, rules, m.rewriting.make_operator("aggregated"),
                              m.rewriting.Limits(**RANDOM_LIMITS))
    rewrite_s = time.perf_counter() - t0
    counts = {"generated": res.generated_count, "output": len(res.cover),
              "depth": res.depth_reached}
    if not res.terminated:
        return Outcome(rewrite_s, counts=counts, problem="guard fired")
    match = next((c for c in res.cover
                  if m.homomorphism.find_homomorphism(c.atoms, facts) is not None), None)
    rank = 2 * res.depth_reached + 2
    t0 = time.perf_counter()
    verdict = m.chase.entails(facts, rules, query, rank, max_atoms=500)
    entails_s = time.perf_counter() - t0
    by_chase = verdict.is_yes
    if match is not None and verdict.value == "unknown_at_bound":
        # a sound matching cover element certifies the answer by a smaller chase
        by_chase = m.chase.check_one_step_soundness(query, match, rules, max_rank=rank)
    counts["verdict"] = verdict.value
    problem = None
    if (match is not None) != by_chase:
        problem = f"rewriting says {match is not None}, chase says {by_chase}"
    return Outcome(rewrite_s, entails_s, counts, problem)


def build_random_linear(m, seed: int) -> list[Op]:
    ops = [Op(f"#{i}", lambda inst=inst: _rewrite_then_chase(m, *inst))
           for i, inst in enumerate(random_linear_instances(m, seed))]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "ontology": build_ontology,
    "diamond": build_diamond,
    "random-linear": build_random_linear,
}

# per-layer records that must see calls in a traced run of each workload
EXPECTED_CALLS = {
    "ontology": ["rewriting.rewrite", "rewriting.beta", "homomorphism.cover",
                 "homomorphism.more_general", "homomorphism.core",
                 "homomorphism.find_homomorphism", "unification.single_piece_unifiers",
                 "unification.enumerate_aggregated", "partition.join", "kb.freshen_rule",
                 "kb.canonicalize", "dlgp.parse_document", "dlgp.query_to_dlgp"],
    "random-linear": ["rewriting.rewrite", "rewriting.beta", "homomorphism.cover",
                      "homomorphism.more_general", "homomorphism.core",
                      "homomorphism.find_homomorphism",
                      "unification.single_piece_unifiers",
                      "unification.enumerate_aggregated", "partition.join",
                      "kb.freshen_rule", "kb.canonicalize", "chase.entails",
                      "chase.homomorphisms", "chase.find_homomorphism"],
}
EXPECTED_CALLS["diamond"] = EXPECTED_CALLS["ontology"]
