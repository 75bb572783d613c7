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
killed, and is reported as such.  Each row of EQUIVALENT is a mutant that
no input can tell from the code, listed with the reason in place of
selectors: its fragment must occur once, and no test runs on it.

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
_HENSEL = "tests/test_hensel.py"
_DECOMPOSER = "tests/test_decomposer.py"
_CERTIFIER = "tests/test_certifier.py"
_WALK = "tests/test_survey_two.py::test_jumps_decide_the_walked_records"

MUTANTS = (
    # the precision ladder of rigor and the verdicts on it
    ("ladder: caller's precision not restored", "rigor.py",
     "    finally:\n        _prec = saved\n",
     "    finally:\n        pass\n",
     [f"{_RIGOR}::test_every_verdict_climbs_the_one_ladder",
      f"{_RIGOR}::test_ladder_restores_precision_when_a_builder_raises"]),
    ("ladder: the cap itself never tried", "rigor.py",
     "    while dps < cap:\n",
     "    while 2 * dps <= cap:\n",
     [f"{_RIGOR}::test_every_verdict_climbs_the_one_ladder"]),
    ("ladder: report enclosed at the second precision", "rigor.py",
     "_ladder(lambda: (_prec, pp.log_enclosure()))",
     "_ladder(lambda: (_prec, pp.log_enclosure()) if _prec > _bits(30) "
     "else None)",
     [f"{_RIGOR}::test_enclosure_str_encloses_at_the_ladders_first_precision",
      f"{_CERTIFIER}::test_certify_logs_once_per_base"]),
    ("report: a printed lower end rounded up", "rigor.py",
     "return _decimal(*lo, False), _decimal(*hi, True)",
     "return _decimal(*lo, True), _decimal(*hi, True)",
     [f"{_RIGOR}::test_enclosure_str_rounds_each_end_outward",
      f"{_CERTIFIER}::test_printed_ends_bracket_their_values"]),
    ("report: the lower exp end rounded up", "rigor.py",
     "zip(ends, (False, True))",
     "zip(ends, (True, True))",
     [f"{_RIGOR}::test_enclosure_str_rounds_each_end_outward"]),
    ("report: max-sigma's lo_decimal rounded up", "cli.py",
     "_decimal_9(res.lo, False)",
     "_decimal_9(res.lo, True)",
     [f"{_CERTIFIER}::test_printed_ends_bracket_their_values"]),
    ("ladder: the log-1 skip applied to every coefficient", "rigor.py",
     "        if self.coeff != 1:\n",
     "        if False:\n",
     [f"{_RIGOR}::test_log_enclosure_computes_each_log_once_per_precision"]),
    ("ladder: touching enclosures separate", "rigor.py",
     "    if l_hi < r_lo:\n",
     "    if l_hi <= r_lo:\n",
     [f"{_RIGOR}::test_every_verdict_climbs_the_one_ladder"]),
    ("ladder: no rounding for an integer wider than the precision",
     "rigor.py",
     "    if shift <= 0:\n        return k, 0\n",
     "    if shift <= prec:\n        return k, 0\n",
     [f"{_RIGOR}::test_integer_log_matches_the_interval_log"]),
    ("pi: the upper end rounded down", "rigor.py",
     "-(-(16 * b - 4 * c) >> 20)",
     "(16 * b - 4 * c) >> 20",
     [f"{_RIGOR}::test_pi_ends_enclose_pi"]),
    ("atan: the alternating series' error term dropped from its lower end",
     "rigor.py",
     "else (s - i - 1, s + i + 1)",
     "else (s, s + i + 1)",
     [f"{_RIGOR}::test_acoth_series_encloses_atanh_and_atan"]),
    ("bounds: pi**2 compared as pi in the three-argument form", "bounds.py",
     "return lo ** k, hi ** k",
     "return lo, hi",
     [f"{_PADE}::test_pi_power_compares_one_unit_either_side"]),
    ("bounds: the target of pi**2 scaled as pi's", "bounds.py",
     "target * 2 ** (k * rigor.working_prec())",
     "target * 2 ** rigor.working_prec()",
     [f"{_PADE}::test_pi_power_compares_one_unit_either_side"]),
    ("ladder: the quotient n/d rounded inward", "rigor.py",
     "lo, g_lo = _quotient(n_lo, d_hi, prec, False)",
     "lo, g_lo = _quotient(n_lo, d_hi, prec, True)",
     [f"{_RIGOR}::test_integer_log_matches_the_interval_log",
      f"{_RIGOR}::test_log_memo_ends_round_its_interval_outward"]),
    ("log: the series' error term dropped from the upper end", "rigor.py",
     "lo, hi = 2 * s, 2 * s + 4 * i + 6",
     "lo, hi = 2 * s, 2 * s",
     [f"{_RIGOR}::test_log_fixed_encloses_the_log"]),
    ("log: ln 2's lower end used for k < 0", "rigor.py",
     "    if k < 0:\n        l_lo, l_hi = l_hi, l_lo\n",
     "    if False:\n        l_lo, l_hi = l_hi, l_lo\n",
     [f"{_RIGOR}::test_log_fixed_encloses_the_log"]),
    ("exp: the Taylor error term dropped from the upper end", "rigor.py",
     "lo, hi = s, s + 2 * i + 4",
     "lo, hi = s, s",
     [f"{_RIGOR}::test_exp_fixed_encloses_the_exp"]),
    ("rounding: the Ziv agreement test skipped", "rigor.py",
     "        if all(a == b for a, b in ends):\n",
     "        if True:\n",
     [f"{_RIGOR}::"
      "test_rounding_retries_while_the_ends_of_an_enclosure_differ"]),
    ("ladder: the log memo keyed without the precision", "rigor.py",
     "_iv_log(base.numerator, base.denominator, prec)",
     "_iv_log(base.numerator, base.denominator, 0)",
     [f"{_RIGOR}::test_log_enclosure_computes_each_log_once_per_precision",
      f"{_RIGOR}::test_tight_but_unequal_separates_with_escalation"]),
    ("ladder: a term's integer lower end rounded up", "rigor.py",
     "return lo * u // v, -(-hi * u // v)",
     "return -(-lo * u // v), -(-hi * u // v)",
     [f"{_RIGOR}::test_times_matches_fraction_floor_and_ceil"]),
    ("max-sigma: the proven-holds index one too high", "rigor.py",
     "bounds = ((lo0 - 1) // (-g_lo * step),",
     "bounds = ((lo0 - 1) // (-g_lo * step) + 1,",
     [f"{_RIGOR}::test_sign_change_exact_at_rationals",
      f"{_CERTIFIER}::test_max_sigma_anchor_enclosure_exact"]),
    ("max-sigma: the proven-fails index one too low", "rigor.py",
     "hi0 // (-g_hi * step) + 1)",
     "hi0 // (-g_hi * step))",
     [f"{_RIGOR}::test_sign_change_exact_at_rationals",
      f"{_CERTIFIER}::test_max_sigma_anchor_enclosure_exact"]),
    ("max-sigma: negative at s_0 includes a zero", "rigor.py",
     "        if hi0 < 0:\n",
     "        if hi0 <= 0:\n",
     [f"{_RIGOR}::test_sign_change_exact_at_rationals"]),
    ("max-sigma: undecided at s_0 excludes a zero", "rigor.py",
     "        elif lo0 <= 0:\n",
     "        elif lo0 < 0:\n",
     [f"{_RIGOR}::test_sign_change_exact_at_rationals"]),
    ("max-sigma: positive at s_n includes a zero", "rigor.py",
     "        elif a_lo * den + g_lo * last > 0:\n",
     "        elif a_lo * den + g_lo * last >= 0:\n",
     [f"{_RIGOR}::test_sign_change_exact_at_rationals"]),
    ("max-sigma: undecided at s_n excludes a zero", "rigor.py",
     "        elif a_hi * den + g_hi * last >= 0:\n",
     "        elif a_hi * den + g_hi * last > 0:\n",
     [f"{_RIGOR}::test_sign_change_exact_at_rationals"]),
    ("max-sigma: the cap names hi, not the coarsest undecided point",
     "certifier.py",
     "t = 0 if i < 0 else (j - 1) >> shift << shift",
     "t = 0 if i < 0 else j - 1",
     [f"{_CERTIFIER}::"
      "test_undecidable_at_the_cap_names_the_bisections_point"]),
    ("certify: an undecidable comparison certifies", "certifier.py",
     "if verdict is Comparison.GREATER:",
     "if verdict is not Comparison.LESS:",
     ["tests/test_cli.py::test_certify_undecidable_at_the_cap_exit_3"]),
    # the exact identity checks of the Pade systems
    ("identity: PadeSystem._identity always holds", "pade.py",
     "        return one_minus_z_pow(self.k) * self.Q == self._t()\n",
     "        return True\n",
     ["tests/test_pade.py::test_identity_check_sees_every_coefficient"]),
    ("content: a starred step's remainder not checked", "pade.py",
     "        t, rem = divmod(t * num, den)\n",
     "        t, rem = t * num // den, 0\n",
     [f"{_PADE}::test_doctored_content_raises_naming_p_or_e"]),
    ("content: cross constant not scaled by the contents", "pade.py",
     "    scale = sys_r.content * sys_r1.content\n",
     "    scale = 1\n",
     [f"{_PADE}::test_cross_constant_monomial"]),
    ("cross: the second product taken from the wrong pair", "pade.py",
     "sys_r.Q * sys_r1.P\n",
     "sys_r1.Q * sys_r.P\n",
     [f"{_PADE}::test_cross_constant_matches_direct_residual_on_general_pairs",
      f"{_PADE}::"
      "test_cross_constant_matches_direct_residual_on_synthetic_pairs"]),
    ("identity: lambda halved in eval_at_z0", "pade.py",
     "_power_table((0, 2 * beta.v), D)",
     "_power_table((0, beta.v), D)",
     [f"{_PADE}::test_eval_matches_horner_oracle"]),
    ("identity: starred_at_z0 always holds", "pade.py",
     "return ev_p, ev_q, assembled, assembled == remainder",
     "return ev_p, ev_q, assembled, True",
     ["tests/test_decomposer.py::"
      "test_z0_check_catches_every_single_coefficient_fault"]),
    # the audit's one inexact verdict
    ("q-lambda: a zero a takes a log", "decomposer.py",
     "q_lambda_ok = a == 0 or ",
     "q_lambda_ok = ",
     [f"{_DECOMPOSER}::test_q_lambda_holds_when_q_star_vanishes"]),
    ("q-lambda: GREATER passes", "decomposer.py",
     "is rigor.Comparison.LESS",
     "is rigor.Comparison.GREATER",
     [f"{_DECOMPOSER}::test_q_lambda_matches_interval_builders"]),
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
    ("power_compare: an enclosure's upper end rounded down", "survey.py",
     "        v += 1\n",
     "        v += 0\n",
     [f"{_SURVEY}::test_power_ends_enclose_the_power",
      f"{_SURVEY}::test_power_compare_near_equal_powers_matches_exact"]),
    ("power_compare: the equality test skipped", "survey.py",
     "    if _equal_powers(m, a, x, b):\n",
     "    if False:\n",
     [f"{_SURVEY}::test_power_compare_near_equal_powers_matches_exact"]),
    # the odd ladder, checked once at its end
    ("odd ladder: the final verify() skipped", "survey.py",
     "            check_state(state)\n    if p == 2",
     "            pass\n    if p == 2",
     [f"{_HENSEL}::test_tampered_cofactor_fails_the_final_check",
      "tests/test_cli.py::test_tampered_cofactor_exit_4"]),
    ("odd ladder: a checkpoint written unchecked", "survey.py",
     "                check_state(state)\n",
     "                pass\n",
     [f"{_HENSEL}::test_tampered_run_keeps_its_last_good_blob"]),
    ("odd ladder: verify() does not test pn = p^n", "hensel.py",
     "        if self.pn != self.p ** self.n:\n",
     "        if False:\n",
     [f"{_HENSEL}::test_wrong_pn_fails_the_final_check"]),
    ("odd ladder: the flip keeps the unflipped cofactor", "hensel.py",
     "        r, m = y, y - r + m\n",
     "        r, m = y, m\n",
     [f"{_SURVEY}::test_survey_sigma_09_finds_small_n_exceptions"]),
    ("roots_mod_pn: the complement's cofactor p^n - R + m", "hensel.py",
     "pn - 2 * R + m",
     "pn - R + m",
     [f"{_HENSEL}::test_roots_mod_pn_matches_ladder_to_level_600"]),
    ("LiftState: a bare root's remainder not tested", "hensel.py",
     "                if rem:\n",
     "                if False:\n",
     [f"{_HENSEL}::test_cofactors_derived_from_bare_roots",
      f"{_SURVEY}::test_restore_rejects_garbage"]),
    ("padic_root: the 2-adic mask one bit short", "hensel.py",
     "x & ((1 << N) - 1)",
     "x & ((1 << (N - 1)) - 1)",
     [f"{_HENSEL}::test_tampered_newton_root_raises",
      "tests/test_survey_two.py::test_tampered_two_adic_root_raises"]),
    ("restore: a root's complement passes check_ladder", "hensel.py",
     "if not 0 < r <= self.pn - r:",
     "if not 0 < r < self.pn:",
     [f"{_SURVEY}::test_restore_rejects_repeated_or_complement_roots"]),
    ("restore: a level at its roots' size bound passes", "survey.py",
     "if n * (p.bit_length() - 1) >= (max(roots) ** 2 + D).bit_length():",
     "if n * (p.bit_length() - 1) > (max(roots) ** 2 + D).bit_length():",
     [f"{_SURVEY}::test_restore_level_bound_is_exact"]),
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
    ("p = 2: the highest one bit read where the highest zero bit is due",
     "survey.py",
     '"1" if bits[n - 2] == "0" else "0"',
     '"1"',
     [_WALK, "tests/test_survey_two.py::test_bit_walk_matches_ladder"]),
    ("p = 2: e = 2L - 1 - n", "survey.py",
     "e = 2 * L - 2 - n",
     "e = 2 * L - 1 - n",
     [_WALK, "tests/test_survey_two.py::test_bit_walk_matches_ladder"]),
    ("p = 2: built < 3", "survey.py",
     "            if not built:\n                width = 1\n",
     "            if built < 3:\n                width = 1\n",
     [_WALK]),
)


EQUIVALENT = (
    ("padic_root: R = top passes the range test", "hensel.py",
     "not 0 < R < top",
     "not 0 < R <= top",
     "R = p^(N-e) is 0 mod p, so R^2 + D = D mod p, which check_instance "
     "proves nonzero: the rest test rejects it first"),
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
    rows, equivalent = ([row for row in table
                         if not argv or any(word in row[0] for word in argv)]
                        for table in (MUTANTS, EQUIVALENT))
    if not rows and not equivalent:
        print(f"no row matches {argv}")
        return 2
    failures = []
    for name, file, fragment, _, reason in equivalent:
        with open(os.path.join(SRC, "rnlab", file)) as fh:
            count = fh.read().count(fragment)
        if count != 1:
            print(f"FAILED (fragment occurs {count} times in {file}) {name}")
            failures.append(name)
        else:
            print(f"{'equivalent':10} {name}: {reason}", flush=True)
    if not rows:
        return 1 if failures else 0
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
    print(f"{len(rows) - len(failures)} of {len(rows)} mutants killed, "
          f"{len(equivalent)} listed as equivalent")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
