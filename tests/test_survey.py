import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rnlab.hensel import (CompositeModulusError, LiftState, PrimeBoundError,
                          roots_mod_pn)
from rnlab.survey import (CorruptBlobError, InvalidSigmaError, checkpoint,
                          power_compare, restore, run_survey)

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
    blob = checkpoint(roots_mod_pn(76, 101, 5))
    with pytest.raises(CorruptBlobError):
        restore(blob, expect_D=7, expect_p=101)
    with pytest.raises(CorruptBlobError):
        restore(blob, expect_D=76, expect_p=103)


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


def test_restore_rejects_level_beyond_its_roots_quickly():
    # forming 101^n first would take minutes for this 80-byte blob
    with pytest.raises(CorruptBlobError):
        restore(_blob(76, 101, 10 ** 9, [5]))
    for p, D in ((101, 76), (2, 7), (3, 23)):
        for n in (1, 2, 3, 50, 400):
            state = roots_mod_pn(D, p, n)
            assert restore(checkpoint(state)) == state


def test_resume_past_n_max_rejected():
    blob = checkpoint(roots_mod_pn(76, 101, 50))
    with pytest.raises(CorruptBlobError):
        run_survey(76, 101, F(7, 50), 10, resume=restore(blob))
    # resuming exactly at n_max surveys that one level
    rep = run_survey(76, 101, F(7, 50), 50, resume=restore(blob))
    assert (rep.n_from, rep.records_checked) == (50, 2)


def test_resume_state_with_wrong_cofactor_rejected():
    state = roots_mod_pn(76, 101, 20)
    bad = LiftState(p=101, D=76, n=20, min_roots=state.min_roots,
                    cofactors=(state.cofactors[0] + 1,))
    with pytest.raises(CorruptBlobError):
        run_survey(76, 101, F(7, 50), 30, resume=bad)
