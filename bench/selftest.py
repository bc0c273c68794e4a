"""Self-tests of the benchmark harness (not of the program).

    python3 bench/selftest.py

They check that the referee rejects tampered answers and counts them as
failed, that the generator is deterministic per seed, that every metric
a run reports is declared in BENCHMARK.json, and that the benchmark
refuses to run without the program's sources. About half a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from referee import GOLDEN_SWEEP, Referee, load_golden  # noqa: E402
from trbroadcast.cli import main  # noqa: E402

WORK = HERE / "_work"


def cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def scratch_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))


class RefereeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        golden, sweep = load_golden()
        cls.referee = Referee(golden, sweep)
        cls.solve_job = workloads.build_plan("grid-search", 0, WORK, 0).jobs[0]
        cls.solve_rc, cls.solve_out = cli(cls.solve_job.argv)
        cls.sweep_job = workloads.build_plan("sweep", 0, WORK, len(sweep)).jobs[0]
        cls.sweep_text = GOLDEN_SWEEP.read_text(encoding="utf-8")

    def test_accepts_the_real_answers(self):
        self.assertIsNone(self.referee.check(self.solve_job.check, self.solve_rc, self.solve_out))
        self.assertIsNone(self.referee.check(self.sweep_job.check, 1, self.sweep_text))

    def test_rejects_a_witness_with_one_tower_removed(self):
        payload = json.loads(self.solve_out)
        for i in range(len(payload["witness"]["towers"])):
            tampered = json.loads(self.solve_out)
            del tampered["witness"]["towers"][i]
            reason = self.referee.check(self.solve_job.check, 0, json.dumps(tampered))
            self.assertIsNotNone(reason)
            self.assertIn("collects", reason)

    def test_rejects_a_mutated_sweep_row(self):
        lines = self.sweep_text.splitlines(keepends=True)
        for column, value in ((6, "99"), (8, "true" if "false" in lines[100] else "false")):
            row = lines[100].rstrip("\r\n").split(",")
            row[column] = value
            mutated = lines[:100] + [",".join(row) + "\r\n"] + lines[101:]
            self.assertIsNotNone(self.referee.check(self.sweep_job.check, 1, "".join(mutated)))
        self.assertIsNotNone(self.referee.check(self.sweep_job.check, 0, self.sweep_text))

    def test_a_tampered_answer_counts_as_failed(self):
        plan = workloads.Plan("grid-search", 0, [self.solve_job])
        tampered = json.loads(self.solve_out)
        tampered["gamma"] += 1
        result = {
            "runs": [[0, 0, 0.1, 0, "good", None], [0, 1, 0.1, 0, "bad", None],
                     [0, 2, 0.1, 0, "good", None], [0, 3, 0.1, None, "", "Traceback"]],
            "outputs": {"good": self.solve_out, "bad": json.dumps(tampered), "": ""},
        }
        failed, reasons = run.referee_verdicts(plan, result, self.referee)
        self.assertEqual(failed, 2)
        self.assertEqual(len(reasons), 2)


class GeneratorTest(unittest.TestCase):
    def snapshot(self, workload: str, seed: int) -> tuple:
        workdir = scratch_dir()
        try:
            plan = workloads.build_plan(workload, seed, workdir, 1)
            argv = [[a.replace(str(workdir), "DIR") for a in job.argv] for job in plan.jobs]
            files = [Path(p).read_text(encoding="utf-8") for p in plan.files]
            return argv, files
        finally:
            shutil.rmtree(workdir)

    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.snapshot(workload, 7), self.snapshot(workload, 7))

    def test_seeded_workloads_move_with_the_seed(self):
        for workload in ("audit-large", "lattice"):
            with self.subTest(workload=workload):
                self.assertNotEqual(self.snapshot(workload, 7), self.snapshot(workload, 8))


class RunTest(unittest.TestCase):
    def bench(self, script: Path, trace: int) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(script), "--workload", "lattice", "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            cwd=script.parent.parent, capture_output=True, text=True, timeout=170)

    def test_every_reported_metric_is_declared(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                done = self.bench(HERE / "run.py", trace)
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                units = {m["name"]: m["unit"] for m in declared[section]}
                self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, units)

    def test_refuses_to_run_without_the_sources(self):
        bare = scratch_dir()
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("_*"))
            done = self.bench(bare / HERE.name / "run.py", 0)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
