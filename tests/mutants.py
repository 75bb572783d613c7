"""Mutation runner: each row breaks the verdict code and names the tests
that must notice.

Usage, from the repository root:

    python tests/mutants.py            # every row
    python tests/mutants.py ladder     # the rows whose name contains "ladder"

Each row of MUTANTS is (name, file under src/rnlab, exact source fragment,
replacement, pytest selectors).  The selectors first run once against an
unchanged copy of src/, where they must pass.  Then, for each row, a fresh
temporary copy of src/ gets the one occurrence of the fragment replaced,
and the row's selectors run against it with ``pytest -x``.  The run fails
if a fragment does not occur exactly once in its file (the code moved on
and the row must follow it), or if the selected tests pass on a mutant (it
survived).  A row whose tests do not finish within TIMEOUT_S counts as
killed, and is reported as such.

Standard library only; pytest does not collect this file, whose name does
not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TIMEOUT_S = 120

_RIGOR = "tests/test_rigor.py"
_PADE = "tests/test_pade.py"
_SURVEY = "tests/test_survey.py"
_WALK = "tests/test_survey_two.py::test_jumps_decide_the_walked_records"

MUTANTS = (
    # the precision ladder of rigor and the verdicts on it
    ("ladder: caller's precision not restored", "rigor.py",
     "    finally:\n        iv.dps = saved\n",
     "    finally:\n        pass\n",
     [f"{_RIGOR}::test_every_verdict_climbs_the_one_ladder",
      f"{_RIGOR}::test_ladder_restores_precision_when_a_builder_raises"]),
    ("ladder: the cap itself never tried", "rigor.py",
     "    while dps < cap:\n",
     "    while 2 * dps <= cap:\n",
     [f"{_RIGOR}::test_every_verdict_climbs_the_one_ladder"]),
    ("ladder: report enclosed at the second precision", "rigor.py",
     "x = _ladder(pp.enclosure)",
     "x = _ladder(lambda: pp.enclosure() if iv.dps > 30 else None)",
     [f"{_RIGOR}::test_enclosure_str_encloses_at_the_ladders_first_precision",
      "tests/test_certifier.py::test_certify_logs_once_per_base"]),
    ("ladder: the log-1 skip applied to every coefficient", "rigor.py",
     "        if self.coeff != 1:\n",
     "        if False:\n",
     [f"{_RIGOR}::test_log_enclosure_computes_each_log_once_per_precision"]),
    ("ladder: affine sign positive at an exact zero", "rigor.py",
     "if a_lo * v + g_lo * u > 0:",
     "if a_lo * v + g_lo * u >= 0:",
     [f"{_RIGOR}::test_every_verdict_climbs_the_one_ladder"]),
    ("ladder: touching enclosures separate", "rigor.py",
     "    if l_hi < r_lo:\n",
     "    if l_hi <= r_lo:\n",
     [f"{_RIGOR}::test_every_verdict_climbs_the_one_ladder"]),
    ("ladder: one rounding for an integer wider than the precision",
     "rigor.py",
     "lo if k.bit_length() <= prec else",
     "lo if k.bit_length() <= 2 * prec else",
     [f"{_RIGOR}::test_iv_fraction_matches_quotient_of_iv_mpf"]),
    ("ladder: the log memo keyed without the precision", "rigor.py",
     "_iv_log(base.numerator, base.denominator, prec)",
     "_iv_log(base.numerator, base.denominator, 0)",
     [f"{_RIGOR}::test_log_enclosure_computes_each_log_once_per_precision",
      f"{_RIGOR}::test_tight_but_unequal_separates_with_escalation"]),
    ("ladder: a term's integer lower end rounded up", "rigor.py",
     "return lo * u // v, -(-hi * u // v)",
     "return -(-lo * u // v), -(-hi * u // v)",
     [f"{_RIGOR}::test_times_matches_fraction_floor_and_ceil"]),
    ("max-sigma: the upper numerator not doubled with q", "certifier.py",
     "            a, b = mid, 2 * b\n",
     "            a, b = mid, b\n",
     ["tests/test_certifier.py::test_max_sigma_anchor_enclosure_exact",
      "tests/test_certifier.py::test_integer_bisection_matches_fraction_loop"]),
    ("certify: an undecidable comparison certifies", "certifier.py",
     "if verdict is Comparison.GREATER:",
     "if verdict is not Comparison.LESS:",
     ["tests/test_cli.py::test_certify_undecidable_at_the_cap_exit_3"]),
    # the exact identity checks of the Pade systems
    ("identity: PadeSystem._identity always holds", "pade.py",
     "        return t is not None and one_minus_z_pow(self.k) * q == t\n",
     "        return True\n",
     ["tests/test_pade.py::test_identity_check_sees_every_coefficient"]),
    ("identity: divisibility of T by content(Q) not checked", "pade.py",
     "T.exact_scalar_div(c)",
     "IntPolynomial._of([t // c for t in T.coeffs])",
     [f"{_PADE}::test_identity_check_on_content_divided_operands"]),
    ("identity: lambda halved in eval_at_z0", "pade.py",
     "_power_table((0, 2 * beta.v), D)",
     "_power_table((0, beta.v), D)",
     [f"{_PADE}::test_eval_matches_horner_oracle"]),
    ("identity: starred_at_z0 always holds", "pade.py",
     "return ev_p, ev_q, assembled, assembled == remainder",
     "return ev_p, ev_q, assembled, True",
     ["tests/test_decomposer.py::"
      "test_z0_check_catches_every_single_coefficient_fault"]),
    # the four-point Kronecker product
    ("product: the quarter shift one byte short", "pade.py",
     "    q = 2 * width  # x = 2^q",
     "    q = 2 * width - 8  # x = 2^q",
     [f"{_PADE}::test_mul_every_length_mod_4",
      f"{_PADE}::test_mul_diagonal_identity_products_match_one_point"]),
    ("product: the Gaussian cross term without its - ii", "pade.py",
     "(ar + ai) * (br + bi) - rr - ii",
     "(ar + ai) * (br + bi) - rr",
     [f"{_PADE}::test_mul_every_length_mod_4",
      f"{_PADE}::test_mul_diagonal_identity_products_match_one_point"]),
    # the boundaries of the survey's verdict and of its resume checks
    ("power_compare: the first shortcut one bit wide", "survey.py",
     "if b * (blm - 1) >= a * blx:",
     "if b * blm >= a * blx:",
     [f"{_SURVEY}::test_power_compare_examples"]),
    ("power_compare: the second shortcut one bit wide", "survey.py",
     "if b * blm <= a * (blx - 1):",
     "if b * blm <= a * blx:",
     [f"{_SURVEY}::test_power_compare_matches_exact_on_a_small_grid"]),
    ("restore: a root's complement passes check_ladder", "hensel.py",
     "if not 0 < r <= self.pn - r:",
     "if not 0 < r < self.pn:",
     [f"{_SURVEY}::test_restore_rejects_repeated_or_complement_roots"]),
    ("restore: too few roots pass the count test", "survey.py",
     "    if len(roots) != want:\n",
     "    if len(roots) > want:\n",
     [f"{_SURVEY}::test_restore_rejects_wrong_root_count_quickly"]),
    # the p = 2 survey's jump between long runs of equal bits
    ("p = 2: g + 1 equal bits", "survey.py",
     "bits.find(c * g, lo, stop - 1)",
     "bits.find(c * (g + 1), lo, stop - 1)",
     [_WALK]),
    ("p = 2: rounding guard dropped", "survey.py",
     "(least + 2 * slack)",
     "(least + slack)",
     ["tests/test_survey_two.py::test_run_bound_guards_rounding"]),
    ("p = 2: no checkpoint cap", "survey.py",
     "                if checkpoint_cb is not None:\n"
     "                    stop = min(",
     "                if False:\n"
     "                    stop = min(",
     [_WALK]),
    ("p = 2: skipped levels not counted", "survey.py",
     "records += 4 * (nxt - n - 1)",
     "records += 0 * (nxt - n - 1)",
     [_WALK]),
    ("p = 2: a jump while least is infinite", "survey.py",
     "    if least == math.inf:\n        return 1\n",
     "    if least == math.inf:\n        pass\n",
     ["tests/test_survey_two.py::"
      "test_run_bound_spares_no_level_while_least_is_infinite"]),
    ("p = 2: built < 3", "survey.py",
     "            if not built:\n                width = 1\n",
     "            if built < 3:\n                width = 1\n",
     [_WALK]),
)


def _copy_src(dest: str) -> str:
    out = os.path.join(dest, "src")
    shutil.copytree(SRC, out, ignore=shutil.ignore_patterns("__pycache__",
                                                            "*.egg-info"))
    return out


def _pytest(src: str, selectors: list) -> tuple[int | None, str]:
    """pytest's exit code on the selectors against src (None on timeout)
    and the last line of its output."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    probe = subprocess.run(
        [sys.executable, "-c", "import rnlab; print(rnlab.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not probe.stdout.startswith(src):
        raise SystemExit(f"rnlab imports from {probe.stdout.strip()}, "
                         f"not from the copy in {src}")
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *selectors],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"no result within {TIMEOUT_S} s"
    lines = run.stdout.strip().splitlines() or [run.stderr.strip()]
    return run.returncode, lines[-1]


def _apply(src: str, file: str, fragment: str, replacement: str) -> str | None:
    """Patch the copy; a reason string if the fragment is not found once."""
    path = os.path.join(src, "rnlab", file)
    with open(path) as fh:
        text = fh.read()
    count = text.count(fragment)
    if count != 1:
        return f"fragment occurs {count} times in {file}"
    with open(path, "w") as fh:
        fh.write(text.replace(fragment, replacement))
    return None


def main(argv: list) -> int:
    rows = [row for row in MUTANTS
            if not argv or any(word in row[0] for word in argv)]
    if not rows:
        print(f"no row matches {argv}")
        return 2
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(os.path.join(tmp, "clean"))
        selectors = list(dict.fromkeys(s for row in rows for s in row[4]))
        code, last = _pytest(src, selectors)
        print(f"unchanged src/: {last}", flush=True)
        if code != 0:
            print("the selected tests fail without any mutant")
            return 1
        for i, (name, file, fragment, replacement, sel) in enumerate(rows):
            start = time.perf_counter()
            src = _copy_src(os.path.join(tmp, f"mutant{i}"))
            reason, last = _apply(src, file, fragment, replacement), ""
            if reason is None:
                code, last = _pytest(src, sel)
                if code == 0:
                    reason = "survived"
                elif code not in (1, None):  # 1: tests failed
                    reason = f"pytest exited {code}: {last}"
            verdict = "killed" if reason is None else f"FAILED ({reason})"
            print(f"{verdict:10} {time.perf_counter() - start:5.1f} s  "
                  f"{name}: {last}", flush=True)
            if reason is not None:
                failures.append(name)
    print(f"{len(rows) - len(failures)} of {len(rows)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
