"""Tests of the benchmark itself, on small inputs.

    python3 bench/selftest.py

They check that the report checks catch a doctored report, that tracing
changes no report, that exact counts repeat between traced runs, that the
tracer finds, skips and restores the names it wraps, that latencies are
scaled by the speed samples around them, and that the reported percentile
is one of the measured latencies.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import joblist  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "survey-odd": {"n_max": 40, "leg": 20},
    "survey-two": {"n_max": 60, "leg": 30},
    "pade-audit": {"j_max": 4, "abc_max": 2, "levels": (16, 31)},
    "certify-sweep": {"p_max": 110, "d_max": 100},
}

CLI, _ = joblist.setup("survey-odd", 0)


def small_inputs(name: str, seed: int = 7):
    return workloads.make_inputs(name, seed, joblist.OUT_DIR, **SMALL[name])


def tamper(rep: dict) -> None:
    """Make one report wrong in the way its check is meant to notice."""
    schema = rep.get("schema")
    if schema == "rnlab.survey/1":
        rep["exceptions"][0]["m"] = str(int(rep["exceptions"][0]["m"]) + 1)
    elif schema == "rnlab.pade-verify/1":
        rep["diagonal"][-1]["starred_identity"] = False  # all_ok left true
    elif schema == "rnlab.audit/1":
        rep["audits"][-1]["iii_ok"] = False
    elif schema == "rnlab.max-sigma/1" and not rep["empty"]:
        shift = Fraction(1, 100)
        for key in ("lo", "hi"):
            fr = Fraction(rep[key]) + shift
            rep[key] = f"{fr.numerator}/{fr.denominator}"
    elif schema == "rnlab.certificate/1":
        flip = {"certified": "condition_fails", "condition_fails": "certified"}
        rep["status"] = flip.get(rep["status"], rep["status"])
        rep["certified"] = rep["status"] == "certified"


class DoctoringRunner(joblist.Runner):
    def invoke(self, argv):
        rc, text = super().invoke(argv)
        rep = json.loads(text)
        tamper(rep)
        return rc, json.dumps(rep)


class RecordingRunner(joblist.Runner):
    def __init__(self, cli):
        super().__init__(cli)
        self.outputs = []

    def invoke(self, argv):
        rc, text = super().invoke(argv)
        self.outputs.append((argv, rc, text))
        return rc, text


def traced_run(name: str, runner: joblist.Runner) -> dict:
    t = tracer.Tracer()
    runner.tracer = t
    with t:
        workloads.run_jobs(name, small_inputs(name), runner.call)
    return t.layer_metrics()


class ReportChecks(unittest.TestCase):
    def test_clean_reports_pass(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                runner = joblist.Runner(CLI)
                workloads.run_jobs(name, small_inputs(name), runner.call)
                self.assertGreater(runner.attempted, 0)
                self.assertEqual(runner.failed, 0, runner.reasons)

    def test_doctored_report_counts_as_failure(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                runner = DoctoringRunner(CLI)
                workloads.run_jobs(name, small_inputs(name), runner.call)
                if name == "certify-sweep":
                    # every anchor check and every certify at an enclosure
                    # end sees a flipped status or a shifted enclosure
                    self.assertGreaterEqual(runner.failed, 5)
                else:
                    self.assertEqual(runner.failed, runner.attempted)

    def test_exit_code_and_exception_count_as_failures(self):
        runner = joblist.Runner(CLI)
        with contextlib.redirect_stderr(io.StringIO()):  # argparse usage
            self.assertIsNone(runner.call(["survey", "--D", "76"],
                                          lambda rc, r: None))
        self.assertIsNone(runner.call(
            ["hensel", "--D", "7", "--p", "2", "--n", "3", "--format", "json"],
            lambda rc, r: "wrong" if rc == 0 else None))
        self.assertEqual((runner.attempted, runner.failed), (2, 2))


class Percentile(unittest.TestCase):
    def test_p98_is_a_measured_value(self):
        # a short list has no value past its 98th percentile but its largest
        for n in (1, 2, 7, 9, 49, 50, 303):
            values = [1.0 + i * i for i in range(n)]
            with self.subTest(n=n):
                self.assertIn(run.p98(values), values)
                self.assertLessEqual(run.p98(values), max(values))
        self.assertEqual(run.p98([3.0, 1.0, 2.0]), 3.0)
        self.assertEqual(run.p98([float(i) for i in range(1, 101)]), 98.0)


class SpeedReference(unittest.TestCase):
    def test_latencies_scale_by_the_samples_around_them(self):
        nominal = joblist.REF_NOMINAL_S
        # samples before invocations 0 and 2 and after the last one
        refs = [(0, nominal), (2, 2 * nominal), (3, 4 * nominal)]
        got = joblist.at_reference_speed([1.0, 1.0, 6.0], refs)
        self.assertEqual(got, [2 / 3, 2 / 3, 2.0])


class Declaration(unittest.TestCase):
    def test_benchmark_json_lists_what_the_runs_report(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.NAMES))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {**tracer.UNITS, run.OVERHEAD[0]: run.OVERHEAD[1]})


class Tracing(unittest.TestCase):
    def test_traced_reports_are_byte_identical(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                plain = RecordingRunner(CLI)
                workloads.run_jobs(name, small_inputs(name), plain.call)
                traced = RecordingRunner(CLI)
                traced_run(name, traced)
                self.assertEqual(plain.outputs, traced.outputs)
                self.assertEqual(traced.failed, 0, traced.reasons)

    def test_exact_counts_repeat(self):
        for name in workloads.NAMES:
            with self.subTest(workload=name):
                first = traced_run(name, joblist.Runner(CLI))
                second = traced_run(name, joblist.Runner(CLI))
                self.assertEqual({k: first[k] for k in tracer.EXACT},
                                 {k: second[k] for k in tracer.EXACT})
                self.assertEqual(first["cli.calls"], second["cli.calls"])

    def test_counts_match_the_inputs(self):
        n_max, leg = SMALL["survey-odd"]["n_max"], SMALL["survey-odd"]["leg"]
        odd = traced_run("survey-odd", joblist.Runner(CLI))
        self.assertEqual(odd["hensel.lift_levels"], n_max - 1)
        # every resumed leg surveys its starting level again
        records = 2 * (n_max + n_max // leg - 1)
        self.assertEqual(odd["survey.records"], records)
        self.assertEqual(odd["survey.power_compare_calls"], records)
        self.assertGreater(odd["survey.checkpoint_bytes"], 0)
        pade = traced_run("pade-audit", joblist.Runner(CLI))
        self.assertGreater(pade["pade.mul_calls"], 0)
        self.assertGreater(pade["pade.mul_operand_bits"], 0)
        self.assertGreater(pade["quadring.pow_calls"], 0)
        self.assertEqual(pade["hensel.calls"], 0)
        sweep = traced_run("certify-sweep", joblist.Runner(CLI))
        self.assertGreater(sweep["rigor.decide_calls"], 0)
        self.assertGreaterEqual(sweep["rigor.rounds_per_decide"], 1.0)
        self.assertTrue(0 <= sweep["rigor.exact_ratio"] < 1)
        self.assertEqual(sweep["cli.calls"], sweep["certifier.calls"])

    def test_rebinds_imported_names_and_restores_them(self):
        import rnlab
        from rnlab import certifier, decomposer, hensel, rigor, survey

        def snapshot():
            spaces = [m for n, m in sys.modules.items()
                      if n == "rnlab" or n.startswith("rnlab.")]
            spaces += [rnlab.IntPolynomial, rnlab.QuadInt, rnlab.PadeSystem]
            return [(ns, dict(vars(ns))) for ns in spaces]

        before = snapshot()
        original = hensel.lift_step_odd
        with tracer.Tracer() as t:
            self.assertEqual(t.absent, [])
            for ns in (hensel, survey, rnlab):
                self.assertIsNot(ns.lift_step_odd, original)
            self.assertIs(survey.lift_step_odd, hensel.lift_step_odd)
            self.assertTrue(hasattr(certifier.rigorous_compare, "__wrapped__"))
            self.assertIs(certifier.rigorous_compare, rigor.rigorous_compare)
            self.assertTrue(hasattr(decomposer.build_diagonal, "__wrapped__"))
            self.assertTrue(hasattr(decomposer.eval_at_z0, "__wrapped__"))
            self.assertIs(rnlab.QuadInt.__rmul__, rnlab.QuadInt.__mul__)
        for ns, saved in before:
            self.assertEqual(saved.keys(), vars(ns).keys())
            for key, value in saved.items():
                self.assertIs(vars(ns)[key], value, f"{ns}.{key}")
        self.assertIs(hensel.lift_step_odd, original)

    def test_missing_names_are_reported_absent(self):
        from rnlab import hensel
        original = hensel.lift_step_odd
        del hensel.lift_step_odd
        try:
            with tracer.Tracer() as t:
                self.assertEqual(t.absent, ["rnlab.hensel.lift_step_odd"])
                self.assertTrue(hasattr(hensel.roots_mod_pn, "__wrapped__"))
        finally:
            hensel.lift_step_odd = original


if __name__ == "__main__":
    unittest.main()
