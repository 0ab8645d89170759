"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py        # from the repository root

Covers the tail-percentile rule, the calibration ratio, failure counting
(a wrong output or an exception counts toward the error rate and never
aborts the loop or the report; each workload's output check rejects a
wrong answer),
span accounting (self times add up to the op time minus
``trace.unaccounted_s``), the input generator, and that
``BENCHMARK.json`` lists exactly the metrics the harness reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
# Keep the C kernel the store test builds inside the checkout.
os.environ.setdefault(
    "REPRO_NATIVE_CACHE", os.path.join(ROOT, ".perfbench_work", "selftest-kernel")
)

import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        for n in (11, 12, 20, 57, 1000):
            values = [float(i) for i in range(n)][::-1]
            value, pct = stats.tail(values)
            beyond = sum(1 for v in values if v > value)
            self.assertEqual(beyond, stats.TAIL_BEYOND, n)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_percentile_and_count(self):
        value, pct = stats.tail([float(i) for i in range(1, 101)])
        self.assertEqual(value, 90.0)
        self.assertEqual(pct, 90.0)
        value, pct = stats.tail([float(i) for i in range(1, 12)])
        self.assertEqual(value, 1.0)
        self.assertAlmostEqual(pct, 100.0 / 11)

    def test_tail_reaches_the_median_from_21_samples(self):
        for n in (stats.TAIL_MIN_SAMPLES - 1, stats.TAIL_MIN_SAMPLES):
            values = [float(i) for i in range(n)]
            value, _pct = stats.tail(values)
            self.assertEqual(
                value >= statistics.median(values),
                n >= stats.TAIL_MIN_SAMPLES, n,
            )

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 10)

    def test_loop_runs_until_the_tail_exists(self):
        tally = run.Tally()
        ops = run.loop(tally, lambda: {"seconds": 0.0, "ok": True}, 0.0,
                       stats.MIN_SAMPLES)
        self.assertEqual(len(ops), stats.MIN_SAMPLES)
        stats.tail([r["seconds"] for r in ops])


class Calibration(unittest.TestCase):
    def test_each_op_is_divided_by_the_passes_around_it(self):
        passes = iter([9.0, 1.0, 3.0, 5.0])  # the first is a discarded warm-up
        durations = iter([4.0, 16.0])
        real = run.calibration.loop_seconds
        run.calibration.loop_seconds = lambda: next(passes)
        try:
            ops = run.loop(
                run.Tally(), lambda: {"seconds": next(durations), "ok": True},
                0.0, 2, calibrate=True,
            )
        finally:
            run.calibration.loop_seconds = real
        self.assertEqual([r["cal_s"] for r in ops], [2.0, 4.0])
        self.assertEqual(run.end_to_end([0.5], ops, 1.0)["op_p50_cal"], 3.0)

    def test_an_op_that_timed_its_own_passes_keeps_them(self):
        results = iter([{"seconds": 1.0, "ok": False},
                        {"seconds": 1.0, "ok": True, "cal_s": 5.0}])
        real = run.calibration.loop_seconds
        run.calibration.loop_seconds = lambda: 2.0
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                ops = run.loop(run.Tally(), lambda: next(results), 0.0, 2,
                               calibrate=True)
        finally:
            run.calibration.loop_seconds = real
        self.assertEqual([r["cal_s"] for r in ops], [2.0, 5.0])

    def test_cli_child_passes_leave_the_op_time(self):
        res = {"seconds": 1.0,
               "stderr": "notice\nperfbench-calibration 0.01 0.03\n"}
        workloads.child_calibration(res)
        self.assertAlmostEqual(res["seconds"], 0.96)
        self.assertAlmostEqual(res["cal_s"], 0.02)
        res = {"seconds": 1.0, "stderr": "Traceback (most recent call)\n"}
        workloads.child_calibration(res)
        self.assertEqual(res, {"seconds": 1.0, "stderr": res["stderr"]})

    def test_clicall_passes_the_cli_through(self):
        with tempfile.TemporaryDirectory() as tmp:
            ctx = workloads.Context(ROOT, tmp, os.environ["REPRO_NATIVE_CACHE"])
            cmd = [sys.executable, ctx.clicall, "verify", "--width"]
            res = workloads.run_child(ctx, cmd + ["2"], ctx.child_env())
            self.assertTrue(
                workloads.check_cli_output(2, res["code"], res["stdout"])
            )
            workloads.child_calibration(res)
            self.assertIn("cal_s", res)
            res = workloads.run_child(ctx, cmd + ["99"], ctx.child_env())
            self.assertEqual((res["code"], res["stdout"]), (2, ""))

    def test_loop_takes_milliseconds(self):
        seconds = min(run.calibration.loop_seconds() for _ in range(3))
        self.assertTrue(0.0 < seconds < 0.1, seconds)


class FailureCounting(unittest.TestCase):
    def test_wrong_output_and_exception_count_as_failed(self):
        outcomes = iter(["ok", "wrong", "raise", "ok"])

        def op():
            kind = next(outcomes)
            if kind == "raise":
                raise RuntimeError("deliberate")
            return {"seconds": 0.01, "ok": kind == "ok"}

        tally = run.Tally()
        devnull = open(os.devnull, "w")
        old, sys.stderr = sys.stderr, devnull
        try:
            results = [tally.run(op) for _ in range(4)]
        finally:
            sys.stderr = old
            devnull.close()
        self.assertEqual(len(results), 4)
        self.assertEqual((tally.attempted, tally.failed), (4, 2))
        self.assertEqual(tally.error_rate, 0.5)

    def test_store_report_survives_a_raised_op(self):
        wl = workloads.StoreEdit()
        phases = {"cold_s": 1.25, "warm_s": 0.03, "edit_s": 0.2}

        def good():
            return dict(phases, seconds=1.5, ok=True)

        def boom():
            raise RuntimeError("deliberate")

        def report(ops_fns):
            tally = run.Tally()
            with contextlib.redirect_stderr(io.StringIO()):
                ops = [dict(tally.run(fn), cal_s=0.01) for fn in ops_fns]
            metrics = run.end_to_end([0.7], ops, 60.0)
            info = {
                "workload": wl.name, "seed": 1, "trace": 0, "why": "",
                "auto_backend": "native", "fallback_reason": None,
                "compiler": "cc", "nproc": 2, "python": "3",
                "rss_floor_mb": 50.0,
            }
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                run.report_end_to_end(info, wl, metrics, [0.7], ops, tally)
            lines = out.getvalue().splitlines()
            return tally, {line.split()[0]: line.split()[1:] for line in lines}

        tally, rows = report([good, boom] * 6)
        self.assertEqual((tally.attempted, tally.failed), (12, 6))
        self.assertEqual(rows["cold_sweep_p50_s"][:2], ["1.25", "s"])
        self.assertIn("n=6", rows["edit_sweep_p50_s"])
        self.assertEqual(rows["error_rate"][0], "0.5")
        _tally, rows = report([boom] * 12)
        self.assertEqual(rows["warm_sweep_p50_s"][0], "n/a")

    def test_cli_check_rejects_wrong_output(self):
        good = workloads.expected_cli_line(8)
        self.assertEqual(
            good, "2-sort(8) vs closure spec: 261121 cases checked: OK\n"
        )
        self.assertTrue(workloads.check_cli_output(8, 0, good))
        self.assertFalse(workloads.check_cli_output(8, 1, good))
        self.assertFalse(workloads.check_cli_output(
            8, 0, good.replace("261121", "261120")
        ))
        self.assertFalse(workloads.check_cli_output(8, 0, good + "extra\n"))

    def test_sort_check_rejects_a_wrong_word(self):
        wl = workloads.SortBatch()
        wl.reference = [["0001", "0011"], ["0M10", "0110"]]
        out = [["0001", "0011"], ["0M10", "0110"]]
        self.assertTrue(wl.check(out))
        out[1][0] = "0010"
        self.assertFalse(wl.check(out))

    def test_store_cycle_check_rejects_a_wrong_report(self):
        os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
        with tempfile.TemporaryDirectory(
            dir=os.path.join(ROOT, ".perfbench_work")
        ) as workdir:
            wl = workloads.StoreEdit()
            wl.prepare(workloads.Context(ROOT, workdir, ""), seed=0)
            self.assertTrue(wl.op()["ok"])
            wrong = wl.reference_edit.replace('"ok": true', '"ok": false')
            self.assertNotEqual(wrong, wl.reference_edit)
            wl.reference_edit = wrong
            self.assertFalse(wl.op()["ok"])


class SpanAccounting(unittest.TestCase):
    def test_self_times_add_up_to_top_level(self):
        tracer = tracing.Tracer()

        def leaf():
            time.sleep(0.002)

        def middle():
            leaf()
            time.sleep(0.001)
            leaf()

        leaf = tracer.wrap("leaf", leaf)
        middle = tracer.wrap("middle", middle)
        start = time.perf_counter()
        with tracer.span("top"):
            middle()
            leaf()
        time.sleep(0.001)  # inside the op, outside every span
        op_seconds = time.perf_counter() - start
        rows, top = tracing.layer_totals(tracer.export())
        self.assertEqual(rows["leaf"]["count"], 3)
        self.assertAlmostEqual(sum(r["self"] for r in rows.values()), top, places=9)
        metrics = run.span_metrics([tracer.export()], [op_seconds])
        unaccounted = metrics["trace.unaccounted_s"]
        self.assertGreater(unaccounted, 0.0)
        self.assertAlmostEqual(
            sum(r["self"] for r in rows.values()), op_seconds - unaccounted,
            places=9,
        )

    def test_real_program_spans_nest(self):
        from repro import SORT10_SIZE, Word, sort_words, sort_words_batch

        batch = [[Word(s) for s in vec] for vec in workloads.make_batch(3)[:16]]
        tracer = tracing.Tracer()
        tracing.install_program_wrappers(tracer)
        try:
            start = time.perf_counter()
            with tracer.span("networks.sort_batch"):
                out = sort_words_batch(SORT10_SIZE, batch, backend="bigint")
            op_seconds = time.perf_counter() - start
        finally:
            tracer.uninstall()
        self.assertEqual(
            out, [sort_words(SORT10_SIZE, v, engine="rank") for v in batch]
        )
        rows, top = tracing.layer_totals(tracer.export())
        self.assertEqual(rows["networks.run_tritvecs"]["count"], 29)
        metrics = run.span_metrics([tracer.export()], [op_seconds])
        self.assertAlmostEqual(
            sum(r["self"] for r in rows.values()),
            op_seconds - metrics["trace.unaccounted_s"], places=9,
        )

    def test_store_hits_come_from_the_store_counters(self):
        setup_spans = [
            (name, 0.0, 0.1, -1, 0) for name in (
                "backends.load_kernel", "backends.resolve",
                "core.build_two_sort", "circuits.compile",
            )
        ]
        setup_info = {
            "spans": setup_spans, "import_s": 0.2, "modules": 10,
            "numpy": False, "auto": "native", "program_ops": 5,
        }
        # Two traced ops with four store gets each; the failed one is
        # left out of every per-op mean.
        spans = []
        for op in (1, 2):
            spans.append(("parallel.sweep", 0.0, 1.0, -1, op))
            top = len(spans) - 1
            spans += [("store.get", 0.1, 0.2, top, op)] * 4
        tracer = tracing.Tracer()
        tracer.spans = [list(sp) for sp in spans]
        untraced = [{"seconds": 1.0, "ok": True, "executed": 9, "keys": 4,
                     "cold_s": 0.6, "warm_s": 0.1, "edit_s": 0.3}]
        traced = [
            {"seconds": 1.0, "ok": True, "op": 1, "hits": 3},
            {"seconds": 1.0, "ok": False, "op": 2},
        ]
        metrics = run.per_layer(
            workloads.StoreEdit(), setup_info, untraced, traced, tracer
        )
        self.assertEqual(metrics["store.gets"], 4)
        self.assertEqual(metrics["store.hits"], 3)
        self.assertEqual(metrics["store.hit_ratio"], 0.75)
        self.assertEqual(metrics["store.warm_sweep_p50_s"], 0.1)

    def test_uninstall_restores_the_program(self):
        import repro
        import repro.verify.exhaustive as exhaustive
        from repro.circuits.compiled import TritVec

        before = (repro.all_valid_strings, exhaustive.all_valid_strings,
                  TritVec.__dict__["from_trits"])
        tracer = tracing.Tracer()
        tracing.install_program_wrappers(tracer)
        self.assertIsNot(exhaustive.all_valid_strings, before[1])
        tracer.uninstall()
        after = (repro.all_valid_strings, exhaustive.all_valid_strings,
                 TritVec.__dict__["from_trits"])
        self.assertEqual(before, after)


class Inputs(unittest.TestCase):
    def test_readings_match_the_program_encoder(self):
        from repro.graycode import make_valid

        for value in (0, 1, 2, 7, 1000, 65533, 65534):
            for meta in (False, True):
                self.assertEqual(
                    workloads.reading(value, meta),
                    str(make_valid(value, 16, metastable=meta)),
                )

    def test_batch_is_seeded(self):
        a, b = workloads.make_batch(5), workloads.make_batch(5)
        self.assertEqual(a, b)
        self.assertNotEqual(a, workloads.make_batch(6))
        self.assertEqual(len(a), workloads.SORT_VECTORS)
        self.assertTrue(all(len(v) == workloads.SORT_CHANNELS for v in a))
        share = sum("M" in r for v in a for r in v) / (len(a) * 10)
        self.assertAlmostEqual(share, workloads.METASTABLE_SHARE, delta=0.02)


class BenchmarkFile(unittest.TestCase):
    def test_metric_lists_match_the_harness(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["end_to_end"]], run.END_TO_END
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in bench["per_layer"]], run.PER_LAYER
        )
        self.assertEqual(
            [w["name"] for w in bench["workloads"]], list(workloads.WHY)
        )
        self.assertTrue(set(run.SPAN_METRICS) <= set(dict(run.PER_LAYER)))


if __name__ == "__main__":
    unittest.main()
