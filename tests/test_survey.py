import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import rnlab
from rnlab import survey
from rnlab.cli import main
from rnlab.hensel import (CompositeModulusError, LiftState, PrimeBoundError,
                          roots_mod_pn)
from rnlab.rigor import Comparison, PowProd, rigorous_compare
from rnlab.survey import (CorruptBlobError, InvalidSigmaError, _equal_powers,
                          _power_ends, checkpoint, power_compare, restore,
                          run_survey)

F = Fraction


# ---------------------------------------------------------------------------
# power_compare


def test_power_compare_examples():
    assert power_compare(1, 5, 7, 50) is False
    assert power_compare(92, 96, 7, 50) is True
    assert power_compare(101, 1015, 7, 50) is True


def test_power_compare_validation():
    with pytest.raises(ValueError):
        power_compare(0, 5, 7, 50)
    with pytest.raises(ValueError):
        power_compare(4, 5, 50, 7)


@given(st.integers(1, 10 ** 12), st.integers(1, 10 ** 12),
       st.integers(1, 59), st.integers(1, 59))
@settings(max_examples=300)
def test_power_compare_matches_exact(m, x, lo, delta):
    a, b = lo, lo + delta
    assert power_compare(m, x, a, b) == (m ** b > x ** a)


def test_power_compare_huge_shortcut_consistency():
    m = 10 ** 600 + 7
    x = 10 ** 620 + 9
    assert power_compare(m, x, 9, 10) == (m ** 10 > x ** 9)


@pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (9, 10), (7, 50)])
def test_power_compare_matches_exact_on_a_small_grid(a, b):
    # every m, x <= 300 crosses both bit-length shortcuts at their
    # boundaries, such as 15^2 = 225 > 128 with x one bit longer than m
    for m in range(1, 301):
        for x in range(1, 301):
            assert power_compare(m, x, a, b) == (m ** b > x ** a), (m, x)


def _child(code, *args, timeout=30):
    """The stdout of code run by a child python on args, which fails the
    test by name if it runs past timeout seconds: an alarm cannot stop a
    big-integer power inside this process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rnlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        pytest.fail(f"{args or 'the child'} ran past {timeout} s")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _grid():
    """(m, x, a, b) near m^b = x^a, equal ones included: m = t^a + i and
    x = t^b + j for |i|, |j| <= 1, and a gcd(a, b) > 1 for some."""
    for b in range(2, 14):
        for a in range(1, b):
            for t in range(1, 12):
                for i in (-1, 0, 1):
                    for j in (-1, 0, 1):
                        if t ** a + i >= 1 and t ** b + j >= 1:
                            yield t ** a + i, t ** b + j, a, b


def test_power_compare_near_equal_powers_matches_exact(monkeypatch):
    # every case past the bit-length tests takes the equality test and the
    # enclosures.  No power here reaches 600 bits, so no end rounds at
    # k = 1024 and unequal powers separate there: a wider k means that an
    # equal pair, which never separates, got past the equality test
    real = survey._power_ends

    def bounded(x, e, k):
        assert k <= 1024, (x, e, k)
        return real(x, e, k)

    monkeypatch.setattr(survey, "_power_ends", bounded)
    cases = list(_grid())
    assert sum(m ** b == x ** a for m, x, a, b in cases) > 500
    for m, x, a, b in cases:
        assert power_compare(m, x, a, b) == (m ** b > x ** a), (m, x, a, b)


def test_equal_powers_matches_exact():
    for m, x, a, b in _grid():
        g = math.gcd(a, b)
        assert _equal_powers(m, a // g, x, b // g) == (m ** b == x ** a), \
            (m, x, a, b)


@pytest.mark.parametrize("k", [1, 2, 3, 64, 200])
def test_power_ends_enclose_the_power(k):
    for x in (1, 2, 3, 7, 2 ** 64 - 1, 2 ** 64, 10 ** 30 + 7, 3 ** 200):
        for e in (1, 2, 3, 10, 63, 64, 99):
            ends = _power_ends(x, e, k)
            for s, u in ends:
                assert 2 ** (k - 1) <= u < 2 ** k
            (s_lo, lo), (s_hi, hi) = ends
            lo, hi = F(lo) * F(2) ** s_lo, F(hi) * F(2) ** s_hi
            assert lo <= x ** e <= hi, (x, e, k)
            # each end is off by less than 3e roundings of 2^(1-k) each
            assert k < 16 or hi - lo < lo * F(6 * e, 2 ** (k - 1)), (x, e, k)


# sigma = a/b with a big b: the exact powers m^b, x^a once took hours
_HANGING = [(76, 101, "999999/1000000", 50), (7, 2, "999999/1000000", 200),
            (76, 101, f"{10 ** 20 - 1}/{10 ** 20}", 50),
            (7, 2, f"{10 ** 20 - 1}/{10 ** 20}", 200)]

_SURVEY_IN_CHILD = """
import sys
from rnlab.cli import main
main(["survey", "--D", sys.argv[1], "--p", sys.argv[2], "--sigma",
      sys.argv[3], "--n-max", sys.argv[4], "--format", "json"])
"""


@pytest.mark.parametrize("D,p,sigma,n_max", _HANGING)
def test_survey_with_a_long_sigma_finishes(D, p, sigma, n_max):
    report = json.loads(_child(_SURVEY_IN_CHILD, D, p, sigma, n_max))
    got = {(r["n"], int(r["x"]), int(r["m"])) for r in report["exceptions"]}
    # the oracle: every record, m against x^sigma by rigor's log enclosures
    sigma, want, records = F(sigma), set(), 0
    for n in range(1, n_max + 1):
        for x in roots_mod_pn(D, p, n).all_roots():
            m = (x * x + D) // p ** n
            records += 1
            if x == 1:
                passed = m > 1
            else:
                verdict = rigorous_compare(PowProd.of(m),
                                           PowProd.of(1, (x, sigma)))
                assert verdict in (Comparison.GREATER, Comparison.LESS)
                passed = verdict is Comparison.GREATER
            if not passed:
                want.add((n, x, m))
    assert report["counts"]["records"] == records
    assert got == want and len(got) == report["counts"]["exceptions"]


# ---------------------------------------------------------------------------
# run_survey


def test_survey_small_reproduces_exceptions():
    rep = run_survey(76, 101, F(7, 50), 10)
    pairs = [(rec.n, rec.x, rec.m) for rec in rep.exceptions]
    assert pairs == [(1, 5, 1), (3, 1015, 1)]
    assert rep.exception_x_values() == {5, 1015}
    assert rep.records_checked == 20


def test_survey_companion_root_passes():
    rep = run_survey(76, 101, F(7, 50), 1)
    assert rep.records_checked == 2
    # x = 96 has m = 9292/101 = 92 > 96^0.14
    assert (1, 96) not in {(r.n, r.x) for r in rep.exceptions}
    assert 9292 // 101 == 92


def test_survey_sigma_09_finds_small_n_exceptions():
    # exact verification of every exception record below n = 6
    rep = run_survey(76, 101, F(9, 10), 6)
    got = [(rec.n, rec.x, rec.m) for rec in rep.exceptions]
    assert got == [
        (1, 5, 1),
        (2, 1015, 101),
        (3, 1015, 1),
        (4, 10304025, 1020301),
        (5, 1030299985, 100999801),
    ]
    for n, x, m in got:
        assert x * x + 76 == 101 ** n * m
        assert m ** 10 <= x ** 9  # m <= x^0.9 exactly


def test_survey_record_reconstruction():
    rep = run_survey(76, 101, F(1, 2), 25)
    assert rep.records_checked == 50
    for n in (1, 10, 25):
        pn = 101 ** n
        for x in roots_mod_pn(76, 101, n).all_roots():
            assert (x * x + 76) % pn == 0


def test_survey_exceptions_monotone_in_sigma():
    small = run_survey(76, 101, F(7, 50), 40)
    big = run_survey(76, 101, F(9, 10), 40)
    assert {(r.n, r.x) for r in small.exceptions} <= \
           {(r.n, r.x) for r in big.exceptions}


def test_survey_oracle_small_moduli():
    # per-n exception sets at sigma = 1/2 match brute force over [1, p^n)
    import numpy as np
    for D, p in ((76, 101), (7, 2), (23, 3)):
        n_top = 1
        while p ** (n_top + 1) <= 10 ** 6:
            n_top += 1
        rep = run_survey(D, p, F(1, 2), n_top)
        got = {(r.n, r.x, r.m) for r in rep.exceptions}
        expected = set()
        for n in range(1, n_top + 1):
            pn = p ** n
            xs = np.arange(pn, dtype=np.int64)
            for x in (int(v) for v in xs[(xs * xs + D) % pn == 0] if v > 0):
                m = (x * x + D) // pn
                if m * m <= x:  # m <= x^(1/2)
                    expected.add((n, x, m))
        assert got == expected, (D, p)


def test_survey_no_split_report():
    rep = run_survey(76, 103, F(1, 2), 50)
    assert rep.no_split
    assert rep.records_checked == 0
    assert rep.exceptions == ()
    assert "does not split" in rep.method_note


def test_survey_p2_ladder():
    rep = run_survey(7, 2, F(1, 2), 20)
    # classic solutions x in {1, 3, 5, 11, 181} have m = 1
    ones = {rec.x for rec in rep.exceptions if rec.m == 1}
    assert {1, 3, 5, 11, 181} <= ones


def test_survey_p2_short_ladder():
    # D = 1 (mod 8): ladder stops at n = 2
    rep = run_survey(3, 2, F(1, 2), 10)
    assert "ladder ends" in rep.method_note
    assert all(rec.n <= 2 for rec in rep.exceptions)


def test_survey_rejects_bad_inputs():
    with pytest.raises(InvalidSigmaError):
        run_survey(76, 101, F(3, 2), 5)
    with pytest.raises(ValueError):
        run_survey(76, 4, F(1, 2), 5)
    with pytest.raises(ValueError):
        run_survey(202, 101, F(1, 2), 5)


def test_survey_refuses_unproven_primes():
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to bases 2..37
    with pytest.raises(CompositeModulusError):
        run_survey(7, 318665857834031151167461, F(1, 2), 3)
    with pytest.raises(PrimeBoundError):
        run_survey(7, 2 ** 89 - 1, F(1, 2), 3)


def test_survey_min_margin_tracked():
    rep = run_survey(76, 101, F(7, 50), 10)
    assert rep.min_margin is not None
    assert rep.min_margin["n"] == 3 and rep.min_margin["x"] == "1015"
    # m = 1 against 1015^0.14: log10 margin = -0.14*log10(1015)
    expected = -0.14 * math.log10(1015)
    assert abs(rep.min_margin["log10_ratio"] - expected) < 1e-9


# ---------------------------------------------------------------------------
# checkpoint / restore


def test_checkpoint_roundtrip():
    state = roots_mod_pn(76, 101, 100)
    blob = checkpoint(state)
    assert restore(blob) == state


def test_checkpoint_resume_equals_straight_run():
    state100 = roots_mod_pn(76, 101, 100)
    resumed = run_survey(76, 101, F(7, 50), 150,
                         resume=restore(checkpoint(state100)))
    straight = run_survey(76, 101, F(7, 50), 150)
    # records over the shared range agree
    assert resumed.n_from == 100
    tail = [(r.n, r.x, r.m) for r in straight.exceptions if r.n >= 100]
    assert [(r.n, r.x, r.m) for r in resumed.exceptions] == tail
    assert resumed.records_checked == 2 * (150 - 100 + 1)


def test_restore_rejects_mismatch():
    # restore reads the blob alone; run_survey rejects a state of another
    # instance, here two that do not split
    state = restore(checkpoint(roots_mod_pn(76, 101, 5)))
    for D, p in ((7, 101), (76, 103)):
        with pytest.raises(CorruptBlobError, match="resume state is for"):
            run_survey(D, p, F(7, 50), 20, resume=state)


def test_resume_checked_before_no_split_report():
    # a no-split instance once returned a clean no_split report with 0
    # records for any resume state
    with pytest.raises(CorruptBlobError):
        run_survey(7, 101, F(7, 50), 20, resume=roots_mod_pn(76, 101, 10))
    # without a resume state the instance still reports no_split
    rep = run_survey(7, 101, F(7, 50), 20)
    assert rep.no_split and rep.records_checked == 0


@pytest.mark.parametrize("key, value", [
    ("version", True), ("version", 1.0), ("D", 76.9), ("D", "76"),
    ("p", 101.2), ("p", "101"), ("n", 5.0), ("n", "5"),
])
def test_restore_accepts_only_integer_fields(key, value):
    # each once restored quietly as its integer value
    data = json.loads(checkpoint(roots_mod_pn(76, 101, 5)))
    data[key] = value
    with pytest.raises(CorruptBlobError, match="not an integer"):
        restore(json.dumps(data))


@pytest.mark.parametrize("roots", [
    [5], [5.0], ["+5"], [" 5"], ["5 "], ["0_5"], ["\u0665"], ["\uff15"], "5",
])
def test_restore_accepts_only_decimal_digit_roots(roots):
    # int() reads each as the root 5 of x^2 + 76 (mod 101)
    blob = json.dumps({"version": 1, "D": 76, "p": 101, "n": 1,
                       "roots": roots})
    with pytest.raises(CorruptBlobError, match="decimal digits"):
        restore(blob)


@pytest.mark.parametrize("resume_at", [1, 2, 3, 100])
def test_two_adic_resume_equals_straight_run(resume_at):
    # the 2-adic ladder widens at n = 2 and n = 3
    straight = run_survey(7, 2, F(1, 2), 200)
    blob = checkpoint(roots_mod_pn(7, 2, resume_at))
    resumed = run_survey(7, 2, F(1, 2), 200, resume=restore(blob))
    assert resumed.n_from == resume_at
    assert [(r.n, r.x, r.m) for r in resumed.exceptions] == \
        [(r.n, r.x, r.m) for r in straight.exceptions if r.n >= resume_at]
    assert resumed.method_note == straight.method_note


def test_two_adic_resume_where_the_ladder_ends():
    # D = 3: roots mod 4 but none mod 8, so the ladder ends at n = 2
    straight = run_survey(3, 2, F(1, 2), 50)
    assert "ladder ends at n = 2" in straight.method_note
    for resume_at in (1, 2):
        blob = checkpoint(roots_mod_pn(3, 2, resume_at))
        resumed = run_survey(3, 2, F(1, 2), 50, resume=restore(blob))
        assert resumed.method_note == straight.method_note
        assert [(r.n, r.x, r.m) for r in resumed.exceptions] == \
            [(r.n, r.x, r.m) for r in straight.exceptions if r.n >= resume_at]


def test_restore_rejects_garbage():
    with pytest.raises(CorruptBlobError):
        restore("not json at all")
    with pytest.raises(CorruptBlobError):
        restore('{"version": 99, "D": 76, "p": 101, "n": 1, "roots": ["5"]}')
    with pytest.raises(CorruptBlobError):
        restore('{"version": 1, "D": 76, "p": 101, "n": 1, "roots": ["6"]}')


def test_checkpoint_blob_size_at_750():
    state = roots_mod_pn(76, 101, 750)
    blob = checkpoint(state)
    # one stored root of ~1500 digits (the complement is derived)
    data_digits = sum(len(r) for r in __import__("json").loads(blob)["roots"])
    assert 1400 < data_digits < 1600


def test_survey_checkpoint_callback_cadence():
    seen = []
    run_survey(76, 101, F(7, 50), 30,
               checkpoint_cb=lambda s: seen.append(s.n), checkpoint_every=10)
    assert seen == [11, 21, 30]


def test_survey_deterministic_reports():
    a = run_survey(76, 101, F(7, 50), 60).to_json_dict()
    b = run_survey(76, 101, F(7, 50), 60).to_json_dict()
    assert a == b


def _blob(D, p, n, roots):
    return json.dumps({"version": 1, "D": D, "p": p, "n": n,
                       "roots": [str(r) for r in roots]})


def test_restore_rejects_empty_root_list():
    with pytest.raises(CorruptBlobError):
        restore(_blob(76, 101, 5, []))


def test_restore_rejects_missing_p2_root():
    state = roots_mod_pn(7, 2, 40)
    assert len(state.min_roots) == 2
    for kept in state.min_roots:
        with pytest.raises(CorruptBlobError):
            restore(_blob(7, 2, 40, [kept]))
    for n, count in ((1, 1), (2, 1), (3, 2)):
        assert len(restore(checkpoint(roots_mod_pn(7, 2, n))).min_roots) == count


def test_restore_rejects_repeated_or_complement_roots():
    r, s = roots_mod_pn(7, 2, 40).min_roots
    with pytest.raises(CorruptBlobError):
        restore(_blob(7, 2, 40, [r, r]))
    # both members of one +/- pair: valid roots, but half the set is missing
    with pytest.raises(CorruptBlobError):
        restore(_blob(7, 2, 40, [r, 2 ** 40 - r]))
    (r,) = roots_mod_pn(76, 101, 7).min_roots
    with pytest.raises(CorruptBlobError):
        restore(_blob(76, 101, 7, [101 ** 7 - r]))


def test_restore_rejects_level_below_one():
    for n in (0, -3):
        with pytest.raises(CorruptBlobError):
            restore(_blob(76, 101, n, [5]))
    with pytest.raises(CorruptBlobError):
        restore(_blob(76, 0, 3, [5]))


# A hostile blob is rejected in a child process: if its guard regresses,
# restore forms p^n, which no in-process alarm can interrupt, and the
# timeout then fails the test by name instead of stalling the suite.
_REJECT_IN_CHILD = """
import json, sys, time
from rnlab.cli import main
from rnlab.survey import CorruptBlobError, restore
path, argv = sys.argv[1], sys.argv[2:]
with open(path) as f:
    blob = f.read()
started = time.perf_counter()
try:
    restore(blob)
    raised = None
except CorruptBlobError as exc:
    raised = str(exc)
code = main(argv + ["--resume", path, "--format", "json"])
print(json.dumps({"raised": raised, "code": code,
                  "seconds": time.perf_counter() - started}))
"""


def _reject_in_child(tmp_path, blob, D, p, timeout=30):
    """restore(blob), then the CLI survey resumed from it, in a child
    python: (restore's CorruptBlobError message or None, the CLI's exit
    code, its JSON report, the seconds both took)."""
    path = tmp_path / "survey.ckpt"
    path.write_text(blob)
    argv = ["survey", "--D", D, "--p", p, "--sigma", "1/2", "--n-max", 20]
    report, result = _child(_REJECT_IN_CHILD, path, *argv,
                            timeout=timeout).splitlines()
    got = json.loads(result)
    return got["raised"], got["code"], json.loads(report), got["seconds"]


def test_restore_rejects_level_beyond_its_roots_quickly(tmp_path):
    # forming 101^n first would take minutes for this 80-byte blob
    raised, code, report, _ = _reject_in_child(
        tmp_path, _blob(76, 101, 10 ** 9, [5]), 76, 101)
    assert raised is not None
    assert code == 2 and report["error"] == "invalid_input"
    for p, D in ((101, 76), (2, 7), (3, 23)):
        for n in (1, 2, 3, 50, 400):
            state = roots_mod_pn(D, p, n)
            assert restore(checkpoint(state)) == state


def test_restore_level_bound_is_exact():
    # 3072^2 + 76 has 24 bits and 101^n >= 2^(6n): at n = 4 the bit-length
    # test itself rejects the level, at n = 3 it passes, and 3072 then
    # fails as a root of level 3
    with pytest.raises(CorruptBlobError, match="exceeds its roots' size"):
        restore(_blob(76, 101, 4, [3072]))
    with pytest.raises(CorruptBlobError, match="blob roots are invalid"):
        restore(_blob(76, 101, 3, [3072]))


@pytest.mark.parametrize("p, D", [(101, 76), (2, 7)])
def test_restore_rejects_wrong_root_count_quickly(tmp_path, p, D):
    # the root count is checked before p^n is formed: 101^(10^7) alone once
    # took 43 s to form for this 70-byte blob
    raised, code, report, seconds = _reject_in_child(
        tmp_path, _blob(D, p, 10 ** 9, []), D, p)
    assert raised is not None and re.search("0 roots at level", raised)
    assert seconds < 1
    assert code == 2
    assert report["error"] == "invalid_input"


def test_resume_past_n_max_rejected():
    blob = checkpoint(roots_mod_pn(76, 101, 50))
    with pytest.raises(CorruptBlobError):
        run_survey(76, 101, F(7, 50), 10, resume=restore(blob))
    # resuming exactly at n_max surveys that one level
    rep = run_survey(76, 101, F(7, 50), 50, resume=restore(blob))
    assert (rep.n_from, rep.records_checked) == (50, 2)


def test_resume_state_with_wrong_cofactor_rejected():
    # the survey takes a resume state's cofactor (r^2 + D) // p^n; the
    # level-20 root at level 21 has none, and verify() refuses it first
    state = roots_mod_pn(76, 101, 20)
    bad = LiftState(p=101, D=76, n=21, min_roots=state.min_roots)
    with pytest.raises(CorruptBlobError):
        run_survey(76, 101, F(7, 50), 30, resume=bad)
