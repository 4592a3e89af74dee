"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench

They check that wrong outputs, wrong exit codes and hung children are
counted as failures, that the inputs follow the seed, and that the tracer
attributes time and counts without changing what reslat computes.
"""
from __future__ import annotations

import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

import run
import workloads
from tracer import MODULES as tracer_modules, Tracer

reslat = run.import_program()


def report_of(algebra) -> str:
    return reslat.render_json(reslat.build_report(algebra))


class OracleAccounting(unittest.TestCase):
    def setUp(self):
        self.tally = run.Tally()
        ops = workloads.build_ops("report-chains", reslat)
        self.report_op = next(op for op in ops if op.name == "report goedel5")
        self.report = json.loads(report_of(self.report_op.source))

    def judge_report(self, report: dict, code: int = 0) -> bool:
        return self.tally.judge(self.report_op, code, json.dumps(report), "")

    def test_true_report_passes(self):
        self.assertTrue(self.judge_report(self.report))
        self.assertEqual((self.tally.attempted, self.tally.failed), (1, 0))

    def test_added_fields_still_pass(self):
        self.report["laws"]["coannihilator"]["coverage"] = {"checked": 25, "of": 25}
        self.report["timing"] = {"total_s": 0.5}
        self.assertTrue(self.judge_report(self.report))

    def test_corrupted_reports_count_as_failed(self):
        corruptions = [
            lambda r: r["filters"].update(count=4),
            lambda r: r["prime_filters"].pop(),
            lambda r: r["maximal_filters"].append(["1"]),
            lambda r: r["gelfand"].update(verdict=False),
            lambda r: r["classification"].update(local=False),
            lambda r: r["laws"]["sigma"].update(monotone=False),
            lambda r: r.pop("laws"),
        ]
        for corrupt in corruptions:
            report = json.loads(json.dumps(self.report))
            corrupt(report)
            self.assertFalse(self.judge_report(report))
        self.assertFalse(self.tally.judge(self.report_op, 0, "{not json", ""))
        self.assertEqual(self.tally.failed, len(corruptions) + 1)
        self.assertEqual(self.tally.failed_ratio, 1.0)

    def test_wrong_sweep_count_counts_as_failed(self):
        op = workloads.build_ops("sweep", reslat)[0]
        good = "\n".join(workloads.SEARCH6_LINES) + "\n"
        self.assertTrue(self.tally.judge(op, 0, good, ""))
        self.assertFalse(self.tally.judge(op, 0, good.replace("structures=129", "structures=128"), ""))
        self.assertFalse(self.tally.judge(op, 0, good.replace("lattices=15", "lattices=16"), ""))
        self.assertFalse(self.tally.judge(op, 0, "\n".join(workloads.SEARCH6_LINES[:5]), ""))
        self.assertEqual((self.tally.attempted, self.tally.failed), (4, 3))

    def test_unexpected_exit_codes_count_as_failed(self):
        report = json.dumps(self.report)
        self.assertFalse(self.tally.judge(self.report_op, 1, report, ""))
        self.assertFalse(self.tally.judge(self.report_op, 2, report, ""))
        self.assertFalse(self.tally.judge(self.report_op, None, report, ""))
        rejected = [op for op in workloads.build_ops("products-cli", reslat)
                    if op.expect_code == 64][0]
        self.assertTrue(self.tally.judge(rejected, 64, "", "usage error: RESLAT_MAX_SIZE x"))
        self.assertFalse(self.tally.judge(rejected, 0, "", "usage error: RESLAT_MAX_SIZE x"))
        self.assertFalse(self.tally.judge(rejected, 1, "", "usage error: RESLAT_MAX_SIZE x"))
        self.assertEqual((self.tally.attempted, self.tally.failed), (6, 5))


class Launching(unittest.TestCase):
    def test_exit_code_output_and_rss(self):
        with tempfile.TemporaryDirectory() as tmp, run.Launcher(Path(tmp)) as launcher:
            code = "import sys; print('out'); print('err', file=sys.stderr); sys.exit(3)"
            seconds, rss_kb, exit_code, out, err = launcher.run(
                [sys.executable, "-c", code], run.child_env())
        self.assertEqual((exit_code, out, err), (3, "out\n", "err\n"))
        self.assertGreater(seconds, 0)
        self.assertGreater(rss_kb, 1024)

    def test_hung_child_is_killed_and_failed(self):
        saved = run.OP_TIMEOUT_S
        run.OP_TIMEOUT_S = 0.5
        try:
            with tempfile.TemporaryDirectory() as tmp, run.Launcher(Path(tmp)) as launcher:
                seconds, _, code, _, _ = launcher.run(
                    [sys.executable, "-c", "import time; time.sleep(30)"], run.child_env())
        finally:
            run.OP_TIMEOUT_S = saved
        self.assertIsNone(code)
        self.assertLess(seconds, 10)
        tally = run.Tally()
        op = workloads.build_ops("sweep", reslat)[0]
        self.assertFalse(tally.judge(op, code, "\n".join(workloads.SEARCH6_LINES), ""))

    def test_every_workload_passes_one_round(self):
        """Each operation of every workload, run once through the CLI."""
        for workload in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp, run.Launcher(Path(tmp)) as launcher:
                tally = run.Tally()
                ops = workloads.write_inputs(
                    workloads.build_ops(workload, reslat), reslat, tmp, random.Random(0))
                for op in ops:
                    if op.name == "report goedel8" or (
                            workload == "products-cli" and op.name.startswith("report ")):
                        continue  # these take seconds each; run.py covers them
                    sample = run.run_op(op, tally, launcher)
                    self.assertTrue(sample.ok, (workload, op.name, sample.code))


class Statistics(unittest.TestCase):
    def test_tail_stays_on_one_kind_of_operation(self):
        # A round of eight cheap operations and one dear one: the p90 is a
        # dear sample for any number of rounds.
        for rounds in range(1, 21):
            values = [1.0] * (8 * rounds) + [10.0 + i for i in range(rounds)]
            self.assertGreaterEqual(run.tail(values)[0], 10.0)
        self.assertEqual(run.tail([float(v) for v in range(1, 201)]), (180.0, 20))


class Inputs(unittest.TestCase):
    def written(self, seed: int):
        with tempfile.TemporaryDirectory() as tmp:
            ops = workloads.write_inputs(
                workloads.build_ops("products-cli", reslat), reslat, tmp, random.Random(seed))
            return [(Path(op.path).name, Path(op.path).read_text() if Path(op.path).exists()
                     else None) for op in ops if op.path]

    def test_same_seed_same_inputs(self):
        self.assertEqual(self.written(7), self.written(7))

    def test_seed_picks_formats(self):
        names = {tuple(name for name, _ in self.written(seed)) for seed in range(6)}
        self.assertGreater(len(names), 1)

    def test_inputs_parse_back_to_the_algebra(self):
        with tempfile.TemporaryDirectory() as tmp:
            ops = workloads.write_inputs(
                workloads.build_ops("products-cli", reslat), reslat, tmp, random.Random(3))
            for op in ops:
                if not op.name.startswith("report "):
                    continue
                again = reslat.load(op.path)
                self.assertEqual(again.mul, op.source.mul)
                self.assertEqual(again.label, op.source.label)


class Tracing(unittest.TestCase):
    def test_traced_replay_matches_plain_and_restores(self):
        from reslat import cli, filters, report

        original = (cli.build_report, filters.analysis, report.flt)
        with tempfile.TemporaryDirectory() as tmp:
            ops = workloads.write_inputs(
                workloads.build_ops("report-chains", reslat)[:3], reslat, tmp, random.Random(1))
            tally = run.Tally()
            tracer = Tracer()
            tracer.install()
            try:
                self.assertIsNot(report.flt, filters)
                run.replay(ops, tally, tracer)
            finally:
                tracer.uninstall()
        self.assertEqual((cli.build_report, filters.analysis, report.flt), original)
        self.assertEqual((tally.attempted, tally.failed), (3, 0))

        # Chains of 4, 5, 6 have 3, 4, 5 primes: 2^3 + 2^4 + 2^5 patch checks.
        metrics = tracer.layer_metrics(1.0, 1.0)
        self.assertEqual(metrics["topology.patch_rebuilds"][0], 8 + 16 + 32)
        self.assertEqual(metrics["cli.calls"][0], 3)
        roots = [i for i, p in enumerate(tracer.parent) if p == -1]
        self.assertEqual(len(roots), 3)
        self.assertEqual([tracer.op[i] for i in roots], [0, 1, 2])
        root_ns = sum(tracer.end[i] - tracer.start[i] for i in roots)
        self.assertEqual(sum(tracer.self_times()), root_ns)
        shares = sum(metrics[f"{m}.share"][0] for m in tracer_modules)
        self.assertAlmostEqual(shares, 1.0)
        self.assertGreater(metrics["topology.share"][0], 0.3)

        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
        emitted = set(metrics) | {"cli.interp_s", "cli.import_s"}  # added by run.traced
        self.assertEqual({m["name"] for m in declared}, emitted)


if __name__ == "__main__":
    unittest.main()
