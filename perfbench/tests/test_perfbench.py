"""Self-tests for the edsim benchmark driver.

    python3 -m unittest discover -s perfbench/tests

Builds the driver through perfbench/run.py (incrementally) and runs short
idle_decode runs and one traced design_sweep run, so the suite takes two
to three minutes.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOAD = "idle_decode"
SEED = 1
# Per-layer metrics of layers a workload never calls (they read 0).
BYPASSED = {
    "idle_decode": {"snapshot.save_ms", "snapshot.restore_ms",
                    "snapshot.bytes", "core.warmup_checkpoint_ms",
                    "core.evaluate_ms", "core.sweep_ms", "core.wcet_ms",
                    "core.pareto_ms", "core.cost_ms", "service.store_put_ms",
                    "service.store_find_ms", "service.store_hits",
                    "service.store_bytes", "parallel.cpu_per_wall"},
    "design_sweep": {"mpeg.compile_ms"},
}
# Counts that are legitimately 0 on a workload that does load the layer:
# idle_decode's maintenance is self-managed, so the controller issues no
# REF; the Evaluator's channels have no power-down and no maintenance.
ZERO_COUNTS = {
    "idle_decode": {"dram.refreshes"},
    "design_sweep": {"dram.powerdown_fraction", "dram.maintenance_ops"},
}


def bench_run(trace, extra=(), workload=WORKLOAD):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         *extra],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_layers(test, workload, result, lines):
    """Layers the workload loads read non-zero; bypassed ones read 0 and
    are reported as bypassed."""
    for name, m in result["metrics"].items():
        if name in BYPASSED[workload]:
            test.assertEqual(m["value"], 0, name)
            test.assertTrue(any(l.split() == [name, "bypassed"]
                                for l in lines), name)
        elif name not in ZERO_COUNTS[workload] and name != "trace.overhead_pct":
            test.assertGreater(m["value"], 0, f"{workload} {name}")


class ContractTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        seen = set()
        for group in ("workloads", "end_to_end", "per_layer"):
            for entry in spec[group]:
                self.assertRegex(entry["name"], NAME)
                self.assertNotIn(entry["name"], seen)
                seen.add(entry["name"])
                if group == "workloads":
                    self.assertLessEqual(len(entry["why"]), 200)
                else:
                    self.assertRegex(entry["unit"], UNIT)
                    self.assertIn(entry["better"], ("lower", "higher"))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue({w["name"] for w in spec["workloads"]}
                        <= set(run.WORKLOADS))

    def test_golden_digests_cover_two_seeds(self):
        with open(os.path.join(BENCH, "golden.json")) as f:
            digests = json.load(f)["digests"]
        for w in run.WORKLOADS:
            self.assertGreaterEqual(len(digests[w]), 2, w)


class DriverTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()
        cls.lines, cls.result = bench_run(0)
        cls.traced_lines, cls.traced = bench_run(1)

    def check_metrics(self, result, specs):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(result["metrics"]), [m["name"] for m in specs])
        for m in specs:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end_names_units_and_values(self):
        self.check_metrics(self.result, self.spec["end_to_end"])
        self.assertTrue(self.result["correct"])
        self.assertEqual(self.result["failed"], 0)
        for m in self.spec["end_to_end"]:
            self.assertGreater(self.result["metrics"][m["name"]]["value"], 0)

    def test_setup_is_the_median_of_separate_processes(self):
        line = next(l for l in self.lines if l.startswith("setup_s samples"))
        samples = [float(v) for v in line.split(":")[1].split("median")[0]
                   .split()]
        self.assertEqual(len(samples), run.SETUP_SAMPLES)
        self.assertAlmostEqual(self.result["metrics"]["setup_s"]["value"],
                               sorted(samples)[len(samples) // 2], places=4)

    def test_per_layer_names_and_units(self):
        self.check_metrics(self.traced, self.spec["per_layer"])
        self.assertTrue(self.traced["correct"])
        check_layers(self, WORKLOAD, self.traced, self.traced_lines)
        values = {k: v["value"] for k, v in self.traced["metrics"].items()}
        # Logical cache hits repeat exactly: every lookup of a unit hits.
        self.assertEqual(values["clients.arena_logical_hits"],
                         values["clients.arena_lookups"])

    def test_tail_rule_holds_even_on_a_short_run(self):
        line = next(l for l in self.lines if l.startswith("unit samples"))
        n, above = map(int, re.match(r"unit samples (\d+), above p90 (\d+)",
                                     line).groups())
        self.assertGreaterEqual(above, 10)
        self.assertEqual(above, n - math.ceil(0.9 * n))
        self.assertGreaterEqual(n, 100)

    def test_corrupted_golden_digest_fails_units(self):
        line = next(l for l in self.lines if l.startswith("digest "))
        good = line.split()[1]
        bad = good[:-1] + ("0" if good[-1] != "0" else "1")
        _, result = bench_run(0, ["--golden", bad])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_traced_run_writes_valid_chrome_json(self):
        path = os.path.join(run.build_dir(), "traces",
                            f"{WORKLOAD}-seed{SEED}.json")
        with open(path) as f:
            trace = json.load(f)
        events = trace["traceEvents"]
        self.assertTrue(events)
        names = set()
        for i, e in enumerate(events):
            self.assertEqual(e["ph"], "X")
            self.assertGreaterEqual(e["dur"], 0)
            self.assertEqual(e["args"]["id"], i)
            parent = e["args"]["parent"]
            self.assertLess(parent, i)
            if parent >= 0:
                p = events[parent]
                self.assertLessEqual(p["ts"], e["ts"])
            names.add(e["name"])
        self.assertTrue({"unit", "clients.run", "dram.replay"} <= names)
        self.assertTrue(any(l.startswith("tracing overhead")
                            for l in self.traced_lines))



class DesignSweepLayersTest(unittest.TestCase):
    def test_every_layer_the_sweep_loads_is_measured(self):
        lines, result = bench_run(1, workload="design_sweep")
        self.assertTrue(result["correct"])
        check_layers(self, "design_sweep", result, lines)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertEqual(values["service.store_hits"], 15)


if __name__ == "__main__":
    unittest.main()
