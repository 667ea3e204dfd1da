"""Self-tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import arith  # noqa: E402
import coldstart  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


class TailPercentile(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond(self):
        values = list(range(1, 101))
        self.assertEqual(arith.samples_beyond(100, 0.9), 10)
        self.assertEqual(arith.p90(values), 90)
        self.assertEqual(sum(v > arith.p90(values) for v in values), 10)
        with self.assertRaises(ValueError):
            arith.p90(values[:99])

    def test_nearest_rank_is_order_free(self):
        self.assertEqual(arith.nearest_rank([5, 1, 4, 2, 3], 0.5), 3)
        self.assertEqual(arith.nearest_rank([7.0], 0.9), 7.0)


class PassCount(unittest.TestCase):
    def test_seconds_at_the_nominal_pass_time(self):
        self.assertEqual(arith.planned_passes(30, 2.0, 13, 100, False), 15)
        self.assertEqual(arith.planned_passes(30, 1.3, 9, 100, False), 23)

    def test_enough_commands_for_the_p90_rule(self):
        self.assertEqual(arith.planned_passes(5, 2.0, 13, 100, False), 8)
        self.assertEqual(arith.planned_passes(1, 60.0, 200, 100, False), 1)

    def test_traced_runs_make_an_odd_number_of_at_least_three(self):
        self.assertEqual(arith.planned_passes(1, 60.0, 200, 100, True), 3)
        self.assertEqual(arith.planned_passes(30, 2.0, 13, 100, True), 15)
        self.assertEqual(arith.planned_passes(32, 2.0, 13, 100, True), 17)


class Intervals(unittest.TestCase):
    def test_union_merges_and_clips(self):
        self.assertEqual(arith.union_length([(10, 50), (30, 70)], 0, 100), 60)
        self.assertEqual(arith.union_length([(10, 20), (30, 40)], 0, 100), 20)
        self.assertEqual(arith.union_length([(-5, 5), (95, 120)], 0, 100), 10)
        self.assertEqual(arith.union_length([(200, 300)], 0, 100), 0)
        self.assertEqual(arith.union_length([], 0, 100), 0)


class SelfTime(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = layers.Tracer(clock=self.clock)
        self.tracer.begin_command()

    def at(self, t: int) -> None:
        self.clock.now = t

    def test_nested_children_on_one_thread(self):
        tr = self.tracer
        self.at(0)
        cli = tr.open("cli", "cli.main")
        self.at(10)
        lin = tr.open("linmap", "linmap.kernel")
        self.at(12)
        sub = tr.open("subspace", "subspace.null_space")
        self.at(20)
        tr.close(sub)
        self.assertIsNone(tr.open("linmap", "linmap.image"), "calls inside a layer open no span")
        self.at(30)
        tr.close(lin)
        self.at(100)
        tr.close(cli)
        self.assertEqual(tr.layer_self_ns["subspace"], 8)
        self.assertEqual(tr.layer_self_ns["linmap"], 12)
        self.assertEqual(tr.layer_self_ns["cli"], 80)
        self.assertEqual(tr.layer_calls["linmap"], 1)
        self.assertEqual(tr.root_ns, 100)

    def test_children_on_other_threads(self):
        tr = self.tracer
        self.at(0)
        cli = tr.open("cli", "cli.run_suite")

        def worker(start: int, end: int) -> None:
            self.at(start)
            frame = tr.open("randgen", "randgen.random_map")
            self.at(end)
            tr.close(frame)

        for start, end in ((10, 50), (30, 70)):
            t = threading.Thread(target=worker, args=(start, end))
            t.start()
            t.join(timeout=10)
            self.assertFalse(t.is_alive())
        self.at(100)
        tr.close(cli)
        # The waiting thread's self time loses the union [10, 70].
        self.assertEqual(tr.layer_self_ns["cli"], 40)
        self.assertEqual(tr.layer_self_ns["randgen"], 80)
        self.assertEqual(tr.root_ns, 100)

    def test_linalg_is_a_leaf_and_excluded_from_self_time(self):
        import numpy as np

        tr = self.tracer

        def fake_svd(a, *args, **kwargs):
            self.clock.now += 5
            return a

        svd = tr.wrap_linalg("svd", fake_svd)
        qr = tr.wrap_linalg("qr", fake_svd)
        self.at(0)
        lin = tr.open("linmap", "linmap.kernel")
        stack = np.zeros((3, 4, 5))
        svd(stack)
        svd(stack.copy())
        svd(np.ones((2, 2)))
        qr(np.ones((2, 2)))
        self.clock.now += 7
        tr.close(lin)
        self.assertEqual(tr.svd_calls, 3)
        self.assertEqual(tr.svd_matrices, 3 + 3 + 1)
        self.assertEqual(tr.svd_elements, 60 + 60 + 4)
        self.assertEqual(tr.svd_self_ns, 15)
        self.assertEqual(len(tr.svd_keys), 2, "equal contents hash alike")
        self.assertEqual((tr.other_calls, tr.other_self_ns), (1, 5))
        self.assertEqual(tr.layer_self_ns["linmap"], 7)

    def test_nothing_records_outside_a_command(self):
        tr = self.tracer
        tr.end_command()
        traced = tr.wrap("linmap", "linmap.f", lambda x: x + 1)
        self.assertEqual(traced(1), 2)
        self.assertEqual(sum(tr.layer_calls.values()), 0)


class UnitCounting(unittest.TestCase):
    def verify_cmd(self) -> workloads.Command:
        return workloads.Command(
            "verify browder", [], workloads.check_verify("browder", 20, 7), units=20, verify=True
        )

    def test_verify_counts_instances(self):
        payload = {
            "suite": "browder",
            "config": {"seed": 7},
            "passes": 18,
            "failures": [{"instance": 3, "error": "x"}, {"instance": 9, "error": "y"}],
        }
        out = workloads.evaluate(self.verify_cmd(), 1, json.dumps(payload), "")
        self.assertEqual((out.attempted, out.failed), (20, 2))
        self.assertEqual(len(out.problems), 2)

    def test_verify_that_cannot_be_read_fails_every_instance(self):
        out = workloads.evaluate(self.verify_cmd(), 2, "", "error: bad")
        self.assertEqual((out.attempted, out.failed), (20, 20))

    def test_verify_with_wrong_echo_fails_every_instance(self):
        payload = {"suite": "browder", "config": {"seed": 8}, "passes": 20, "failures": []}
        out = workloads.evaluate(self.verify_cmd(), 0, json.dumps(payload), "")
        self.assertEqual(out.failed, 20)

    def test_other_commands_are_one_unit(self):
        cmd = workloads.Command("drazin", [], workloads.check_drazin(3))
        ok = workloads.evaluate(cmd, 0, json.dumps({"p": 3, "ascent": 3}), "")
        wrong = workloads.evaluate(cmd, 0, json.dumps({"p": 14, "ascent": 14}), "")
        crashed = workloads.evaluate(cmd, 1, "", "UnmetHypothesisError: x")
        self.assertEqual([(o.attempted, o.failed) for o in (ok, wrong, crashed)], [(1, 0), (1, 1), (1, 1)])
        self.assertEqual(len(wrong.problems), 2)

    def test_arith_rules(self):
        self.assertEqual(arith.verify_units(20, 1, 2, True), 2)
        self.assertEqual(arith.verify_units(20, 0, 0, False), 20)
        self.assertEqual(arith.verify_units(20, 2, None, True), 20)
        self.assertEqual(arith.single_unit(0, True), 0)
        self.assertEqual(arith.single_unit(0, False), 1)
        self.assertEqual(arith.single_unit(1, True), 1)


class ImportTime(unittest.TestCase):
    def test_parse(self):
        text = (
            "import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        120 |   _io\n"
            "import time:      3001 |      65000 | numpy\n"
            "garbage line\n"
        )
        self.assertEqual(
            coldstart.parse_importtime(text), {"_io": (120, 120), "numpy": (3001, 65000)}
        )


class Contract(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        # ladder-flat runs by hand and in --workload all, not in the
        # benchmark's timed set.
        self.assertEqual(
            [w["name"] for w in spec["workloads"]], ["verify-small", "ladder-blockwise"]
        )
        self.assertEqual(set(run.WORKLOAD_NAMES), set(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.E2E_METRICS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.per_layer_metrics())


class Determinism(unittest.TestCase):
    """The same seed gives the same inputs and the same output bytes."""

    def test_inputs_and_first_output_repeat(self):
        from modop import cli

        base = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
        try:
            for name, cls in workloads.WORKLOADS.items():
                dirs = [base / f"{name}-{i}" for i in range(2)]
                passes = [cls(5, str(d)).make_pass(0) for d in dirs]
                argvs = [[a.replace(str(d), "") for c in p for a in c.argv] for d, p in zip(dirs, passes)]
                self.assertEqual(argvs[0], argvs[1], name)
                for rel in sorted(os.listdir(dirs[0] / "p0")) if (dirs[0] / "p0").exists() else []:
                    self.assertEqual(
                        (dirs[0] / "p0" / rel).read_bytes(), (dirs[1] / "p0" / rel).read_bytes()
                    )
                first = passes[0][0]
                self.assertEqual(run.invoke(cli.main, first.argv), run.invoke(cli.main, first.argv))
        finally:
            shutil.rmtree(base, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
