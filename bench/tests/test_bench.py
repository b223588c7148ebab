"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench/tests
"""
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        # a [0, 20] holds b [1, 9] and c [10, 14]; b holds d [2, 5]
        tr = tracer.Tracer(clock=FakeClock([0, 1, 2, 5, 9, 10, 14, 20]))
        tr.enter("a")
        tr.enter("b")
        tr.enter("d")
        tr.exit()
        tr.exit()
        tr.enter("c")
        tr.exit()
        tr.exit()
        got = {name: (rec["total_s"], rec["self_s"]) for name, rec in tr.spans.items()}
        self.assertEqual(got, {"a": (20, 8), "b": (8, 5), "c": (4, 4), "d": (3, 3)})
        self.assertEqual(tr.spans["d"]["parents"], {"b": 1})
        self.assertEqual(tr.spans["a"]["parents"], {None: 1})

    def test_untimed_work_is_charged_to_no_span(self):
        tr = tracer.Tracer(clock=FakeClock([0, 2, 7, 10]))
        tr.enter("a")
        tr.untimed(lambda: None)
        tr.exit()
        self.assertEqual(tr.spans["a"]["self_s"], 5)

    def test_metric_key_separates_chase_calls(self):
        self.assertEqual(tracer.metric_key("chase.find_homomorphism"),
                         "chase.find_homomorphism")
        self.assertEqual(tracer.metric_key("homomorphism.find_homomorphism"),
                         "homomorphism.find_homomorphism")
        self.assertEqual(tracer.metric_key("rewriting.canonicalize"), "kb.canonicalize")


class TracedRunTest(unittest.TestCase):
    def test_wrappers_restored_after_a_traced_run(self):
        m = run.import_modules()
        mods = {n: getattr(m, n) for n in run.MODULES}
        before = {(ns, name): getattr(mod, name) for ns, mod in mods.items()
                  for name in dir(mod) if callable(getattr(mod, name))}
        tr = tracer.Tracer()
        restore = tracer.install(tr, mods)
        try:
            self.assertIsNot(m.kb.canonicalize, before[("kb", "canonicalize")])
            self.assertIsNot(m.rewriting.canonicalize, before[("rewriting", "canonicalize")])
            self.assertIs(m.homomorphism.homomorphisms,
                          before[("homomorphism", "homomorphisms")])
            for instance in workloads.random_linear_instances(m, seed=0, count=10):
                workloads._rewrite_then_chase(m, *instance)
        finally:
            restore()
        after = {(ns, name): getattr(mod, name) for ns, mod in mods.items()
                 for name in dir(mod) if callable(getattr(mod, name))}
        self.assertEqual(before.keys(), after.keys())
        self.assertTrue(all(after[k] is v for k, v in before.items()))
        layers = tracer.layers(tr)
        self.assertEqual(layers["rewriting.rewrite"]["calls"], 10)
        self.assertGreater(layers["chase.entails"]["calls"], 0)
        self.assertGreater(layers["chase.homomorphisms"]["yields"], 0)


class GeneratorTest(unittest.TestCase):
    def test_seed_fixes_the_instances(self):
        m = run.import_modules()
        same = [workloads.random_linear_instances(m, seed=5, count=40) for _ in range(2)]
        self.assertEqual(same[0], same[1])
        other = workloads.random_linear_instances(m, seed=6, count=40)
        self.assertNotEqual(same[0], other)

    def test_renaming_keeps_the_shape(self):
        m = run.import_modules()
        for a, b in zip(workloads.random_linear_instances(m, seed=5, count=40),
                        workloads.random_linear_instances(m, seed=6, count=40)):
            self.assertEqual([len(r.body | r.head) for r in a[0]],
                             [len(r.body | r.head) for r in b[0]])
            self.assertEqual(len(a[1].atoms), len(b[1].atoms))
            self.assertEqual(len(a[2]), len(b[2]))


class CompareTest(unittest.TestCase):
    parent = {s: 100.0 + s for s in range(10)}

    def test_a_clear_win_is_better(self):
        change = {s: 80.0 + s for s in range(10)}
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "better")

    def test_a_worsening_beyond_the_bound_is_flagged(self):
        change = {s: 120.0 + s for s in range(10)}
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "WORSE")
        self.assertEqual(compare.verdict(self.parent, change, "higher", 0.1), "better")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        change = {s: 80.0 + 45 * (s % 2) for s in range(10)}
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "unresolved")

    def test_a_small_gap_is_the_same(self):
        change = {s: 101.0 + s for s in range(10)}
        self.assertEqual(compare.verdict(self.parent, change, "lower", 0.1), "same")


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_names_every_reported_metric(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        per_layer = run.per_layer({}, 1.0)
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(per_layer))
        self.assertEqual([m["unit"] for m in spec["per_layer"]],
                         [v["unit"] for v in per_layer.values()])
        e2e = run.end_to_end([1.0], [1.0], {"x": {"op_s": [1.0], "rewrite_s": [1.0],
                                                  "entails_s": []}})
        self.assertEqual(sorted(m["name"] for m in spec["end_to_end"]), sorted(e2e))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         {k: v["unit"] for k, v in e2e.items()})


if __name__ == "__main__":
    unittest.main()
