"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload at the tiny scale, untraced and traced, and checks that
each metric of BENCHMARK.json is printed by name with its unit and appears in
the final JSON line; that a corrupted golden value shows up as a failed
operation and a non-zero exit; that traced counts repeat and the polygon and
radius-search counters read 0 where no workload path reaches them; and that
run.py refuses to run without the package source.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out" / "selftest"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_command(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600,
                          check=False)


class WorkloadOutput(unittest.TestCase):
    def check_run(self, workload: str, trace: int) -> dict:
        done = bench_command(workload, trace)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        section = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in section})
        table = lines[:-1]
        for m in section:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIsInstance(result["metrics"][m["name"]]["value"], (int, float))
            printed = [line.split() for line in table if line.split()[:1] == [m["name"]]]
            self.assertEqual(len(printed), 1, f"{m['name']} not printed once")
            self.assertEqual(printed[0][2], m["unit"])
        self.assertTrue(any(line.split()[:1] == ["failed_ops"] for line in table))
        return result["metrics"]

    def test_end_to_end_metrics_print_with_units(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check_run(w["name"], 0)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(metrics[m["name"]]["value"], 0)

    def test_per_layer_metrics_print_with_units(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                metrics = self.check_run(w["name"], 1)
                record = json.loads((ROOT / ".bench_out" / "results"
                                     / f"{w['name']}-seed0-trace1.json").read_text())
                self.assertTrue(record["counts_repeat"])
                value = {k: v["value"] for k, v in metrics.items()}
                if w["name"] == "paper-check":
                    self.assertGreater(value["domains.polygon.points"], 0)
                    self.assertGreater(value["cli.bytes_out"], 0)
                else:
                    self.assertEqual(value["domains.polygon.points"], 0)
                    self.assertEqual(value["domains.polygon.self_s"], 0)
                if w["name"] == "series-membership":
                    self.assertEqual(value["verify.radius_probes"], 0)
                    self.assertEqual(value["verify.containment_evals"], 0)
                    self.assertGreater(value["cardioid.scalar_calls"], 0)
                else:
                    self.assertGreater(value["verify.radius_probes"], 0)


class GoldenCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cs = run.load_package()
        with open(workloads.golden_path(256), encoding="utf-8") as fh:
            cls.golden = json.load(fh)

    def corrupted(self, command: str, index: int, edit) -> dict:
        golden = json.loads(json.dumps(self.golden))
        line = golden[command]["ops"][index]["lines"][0]
        line["text"] = edit(line["text"])
        return golden

    def failed_ops(self, golden: dict) -> list[str]:
        result = workloads.PaperCheck(self.cs, 0, "tiny", golden=golden).run_pass()
        return [op.name for op in result.ops if not op.ok]

    def test_golden_run_passes(self):
        self.assertEqual(self.failed_ops(self.golden), [])

    def test_corrupted_constant_value_is_a_failed_operation(self):
        def bump(text):
            key, value, *rest = text.split()
            return " ".join([key, repr(float(value) + 1e-3)] + rest)

        golden = self.corrupted("constants", 2, bump)
        label = golden["constants"]["ops"][2]["label"]
        self.assertEqual(self.failed_ops(golden), [f"constants:{label}"])

    def test_dropped_flag_is_a_failed_operation(self):
        index = next(i for i, op in enumerate(self.golden["verify"]["ops"])
                     if "[published-decimal-mismatch]" in op["lines"][0]["text"])
        golden = self.corrupted(
            "verify", index, lambda t: t.replace("  [published-decimal-mismatch]", ""))
        label = golden["verify"]["ops"][index]["label"]
        self.assertEqual(self.failed_ops(golden), [f"verify:{label}"])

    def test_corrupted_golden_makes_the_command_fail(self):
        golden = self.corrupted("constants", 0, lambda t: t.replace("0.25", "0.26", 1))
        SCRATCH.mkdir(parents=True, exist_ok=True)
        (SCRATCH / "paper_check_256.json").write_text(json.dumps(golden), encoding="utf-8")
        saved = workloads.GOLDEN_DIR
        workloads.GOLDEN_DIR = SCRATCH
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                status = run.main(["--workload", "paper-check", "--seed", "0",
                                   "--seconds", "1", "--scale", "tiny"])
        finally:
            workloads.GOLDEN_DIR = saved
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(status, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)


class MissingSource(unittest.TestCase):
    def test_refuses_without_package_source(self):
        empty = SCRATCH / "empty"
        shutil.rmtree(empty, ignore_errors=True)
        empty.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", empty / "BENCHMARK.json")
        shutil.copytree(BENCH, empty / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench_command("paper-check", 0, cwd=empty)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)
        shutil.rmtree(empty)


if __name__ == "__main__":
    unittest.main()
