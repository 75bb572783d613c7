"""The p = 2 survey reads its records from the bits of one 2-adic root.

Two oracles.  The survey loop that walks the 2-adic ladder of
two_adic_ladder.py level by level and decides every record by power_compare:
the survey must give byte-identical reports and checkpoint blobs.  And the
walk of two_adic_walk.py, which visits every level of the bits: the survey,
which jumps between long runs of equal bits, must decide exactly the same
records in the same order.
"""

import functools
import json
import math
from fractions import Fraction

import pytest

from rnlab import hensel, survey
from rnlab.cli import main
from rnlab.hensel import LiftInvariantError, padic_root, roots_mod_pn
from rnlab.survey import (METHOD_NOTE, SurveyRecord, SurveyReport, checkpoint,
                          power_compare, restore, run_survey)
from two_adic_ladder import two_ladder
from two_adic_walk import LOG10_2, walk_decisions

F = Fraction

D_GRID = tuple(range(7, 80, 8))  # every D = 7 (mod 8) below 80
SIGMAS = (F(1, 100), F(7, 50), F(1, 3), F(1, 2), F(9, 10), F(99, 100))
TOP = 3000


@functools.lru_cache(maxsize=1)
def ladder(D):
    """The 2-adic ladder (state, cofactors) at levels 1..TOP, index
    n - 1."""
    return two_ladder(D, TOP)


# the oracle and the walk decide the same records many times, with exact
# powers of up to 300 000 bits at sigma = 99/100; power_compare is a pure
# function, so both share one memo of it
decide = functools.lru_cache(maxsize=None)(power_compare)


def ladder_survey(D, sigma, n_max, n_from=1, every=200):
    """run_survey's loop as it walked the ladder: every record built from
    the lifted state and decided by power_compare.  Returns the report's
    JSON, the checkpoint blobs and the levels at which min_margin moved."""
    a, b = sigma.numerator, sigma.denominator
    rungs = ladder(D)
    exceptions, blobs, changes = [], [], []
    records, min_margin, least = 0, None, math.inf
    for state, cofactors in rungs[n_from - 1:n_max]:
        n, pn = state.n, 1 << state.n
        for r, mr in zip(state.min_roots, cofactors, strict=True):
            y = pn - r
            for x, m in ((r, mr), (y, y - r + mr)) if y != r else ((r, mr),):
                records += 1
                if not decide(m, x, a, b):
                    exceptions.append(SurveyRecord(n=n, x=x, m=m, passed=False))
                margin = math.log10(m) - math.log10(x) * (a / b)
                if margin < least:
                    least = margin
                    min_margin = {"n": n, "x": str(x), "log10_ratio": margin}
                    changes.append(n)
        if (n - n_from) % every == 0 and n > n_from:
            blobs.append(checkpoint(state))
    blobs.append(checkpoint(rungs[n_max - 1][0]))
    report = SurveyReport(
        D=D, p=2, sigma=sigma, n_from=n_from, n_max=n_max, no_split=False,
        records_checked=records, exceptions=tuple(exceptions),
        min_margin=min_margin, method_note=METHOD_NOTE, wall_time=0.0)
    return json.dumps(report.to_json_dict()), blobs, sorted(set(changes))


def bit_survey(D, sigma, n_max, n_from=1, every=200):
    blobs = []
    resume = restore(checkpoint(ladder(D)[n_from - 1][0])) if n_from > 1 \
        else None
    report = run_survey(D, 2, sigma, n_max, resume=resume,
                        checkpoint_cb=lambda s: blobs.append(checkpoint(s)),
                        checkpoint_every=every)
    return json.dumps(report.to_json_dict()), blobs


@pytest.mark.parametrize("D", D_GRID)
def test_bit_walk_matches_ladder(monkeypatch, D):
    decide.cache_clear()
    monkeypatch.setattr(survey, "power_compare", decide)
    # the report at n_max = n can differ from the oracle's only in
    # min_margin, and first at a level where the oracle's minimum moves: a
    # record the walk skipped set it; so every n <= 1000 is covered by the
    # runs to those levels and to 1000
    for sigma in SIGMAS:
        want, want_blobs, changes = ladder_survey(D, sigma, TOP, every=50)
        assert bit_survey(D, sigma, TOP, every=50) == (want, want_blobs)
        for n in [n for n in changes if n <= 1000] + [1000]:
            assert bit_survey(D, sigma, n, every=50) == \
                ladder_survey(D, sigma, n, every=50)[:2], (sigma, n)
    # fresh and resumed at each cadence, each at one sigma (the blobs do
    # not depend on sigma)
    for j, n_from in enumerate((1, 3, 4, 5, 17, 500)):
        for k, every in enumerate((1, 7, 50)):
            sigma = SIGMAS[(j + 2 * k) % len(SIGMAS)]
            assert bit_survey(D, sigma, 1000, n_from, every) == \
                ladder_survey(D, sigma, 1000, n_from, every)[:2], \
                (sigma, n_from, every)


@pytest.mark.parametrize("D", (7, 15, 39, 71))
def test_walked_bit_lengths_match_ladder_records(D):
    rungs = ladder(D)
    S = padic_root(D, 2, 2000)
    bits = format(S, "b").zfill(1999)[::-1]
    for n_lo in (3, 4, 17, 500):
        for n in range(n_lo, 2001):
            state, _ = rungs[n - 1]
            want = [x.bit_length() for r in state.min_roots
                    for x in (r, (1 << n) - r)]
            assert list(survey._level_lengths(bits, n)) == want, (n_lo, n)


def survey_decisions(monkeypatch, D, sigma, n_max, n_from=1, every=200):
    """The (n, x) of each record that run_survey decides by power_compare,
    the report's record count and the levels of the checkpoint states."""
    calls, levels = [], []
    monkeypatch.setattr(survey, "power_compare", lambda m, x, a, b: (
        calls.append((((x * x + D) // m).bit_length() - 1, x)) or True))
    resume = roots_mod_pn(D, 2, n_from) if n_from > 1 else None
    report = run_survey(D, 2, sigma, n_max, resume=resume,
                        checkpoint_cb=lambda s: levels.append(s.n),
                        checkpoint_every=every)
    return calls, report.records_checked, levels


def cadence(n_from, n_max, every):
    return [n for n in range(n_from + 1, n_max + 1)
            if (n - n_from) % every == 0] + [n_max]


@pytest.mark.parametrize("D", D_GRID)
def test_jumps_decide_the_walked_records(monkeypatch, D):
    # the decisions do not depend on the checkpoint cadence, so one walk
    # serves every cadence; a state at every level costs about 20 us, so
    # cadence 1 runs at one sigma per n_from, which rotates with D
    for i, sigma in enumerate(SIGMAS):
        for j, n_from in enumerate((1, 3, 17, 500, 2500)):
            calls, records = walk_decisions(D, sigma, TOP, n_from)
            cadences = (1, 7, 50) if (D // 8 + j) % len(SIGMAS) == i \
                else (7, 50)
            for every in cadences:
                assert survey_decisions(monkeypatch, D, sigma, TOP, n_from,
                                        every) == \
                    (calls, records, cadence(n_from, TOP, every)), \
                    (sigma, n_from, every)


def test_jumps_decide_the_walked_records_to_20000(monkeypatch):
    sigma = F(1, 100)
    calls, records = walk_decisions(7, sigma, 20000)
    assert survey_decisions(monkeypatch, 7, sigma, 20000) == \
        (calls, records, cadence(1, 20000, 200))


def skips(n, L, least, a, b, slack):
    """run_survey's two skip tests of a record of bit length L at level n."""
    e = 2 * L - 2 - n
    return b * e >= a * L and (e - a / b * L) * LOG10_2 - slack > least


SLACK = (3 * TOP + 3 + 4) * 2.0 ** -45  # run_survey's, for D = 7 to TOP


@pytest.mark.parametrize("sigma", SIGMAS)
def test_run_bound_is_sound_and_tight(sigma):
    a, b = sigma.numerator, sigma.denominator
    for n in (3, 4, 9, 40, 300, 301, 302, 1000, 2999):
        for least in (-700.0, -3.7, -0.2, 0.0, 0.05, 1.3, 80.0):
            g = survey._run_bound(n, least, a, b, SLACK)
            assert g >= 1
            # every run shorter than g passes here and at later levels ...
            for t in range(1, min(g, n - 1)):
                for later in (n, n + 1, n + 50, TOP):
                    assert skips(later, later - 1 - t, least, a, b, SLACK), \
                        (n, least, t, later)
            # ... and a run of g can fail, so no level is spared in vain
            if g < n - 1:
                assert not skips(n, n - 1 - g, least, a, b, SLACK), \
                    (n, least, g)


@pytest.mark.parametrize("sigma", SIGMAS)
def test_run_bound_guards_rounding(sigma):
    # least just at the computed margin bound of a run t, so that run fails
    # the skip test by a tie; the bound must then exclude t
    a, b = sigma.numerator, sigma.denominator
    for n in range(60, TOP, 97):
        for t in range(1, 40):
            e, L = n - 4 - 2 * t, n - 1 - t
            least = (e - a / b * L) * LOG10_2 - SLACK
            assert not skips(n, L, least, a, b, SLACK)
            assert survey._run_bound(n, least, a, b, SLACK) <= t, (n, t)


def test_run_bound_spares_no_level_while_least_is_infinite():
    for n in (3, 100, 3000):
        assert survey._run_bound(n, math.inf, 1, 2, SLACK) == 1


@pytest.mark.parametrize("tamper", [lambda S, N: S + 2 ** (N - 2),
                                    lambda S, N: S ^ 2],
                         ids=["top_bit", "bit_1"])
@pytest.mark.parametrize("n_max", [12, 500, 3000])
def test_tampered_two_adic_root_raises(monkeypatch, capsys, tamper, n_max):
    # the Newton loop is tampered, not padic_root's check; the survey's
    # level-1 state is left alone
    real = hensel._newton_root
    monkeypatch.setattr(hensel, "_newton_root", lambda D, p, N: tamper(
        real(D, p, N), N) if N == n_max else real(D, p, N))
    with pytest.raises(LiftInvariantError):
        run_survey(7, 2, F(1, 2), n_max)
    code = main(["survey", "--D", "7", "--p", "2", "--sigma", "1/2",
                 "--n-max", str(n_max), "--format", "json"])
    assert code == 4
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "internal_invariant_violation"
    # the root is named by its bit length, not by its decimal digits
    assert f"mod 2^{n_max}" in error["message"] and \
        len(error["message"]) < 100
