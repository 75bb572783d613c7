"""The p = 2 survey reads its records from the bits of one 2-adic root.

The oracle is the survey loop that walks the 2-adic ladder of
two_adic_ladder.py level by level and decides every record by
power_compare; the walk of the bits must give byte-identical reports and
checkpoint blobs.
"""

import functools
import json
import math
from fractions import Fraction

import pytest

from rnlab import hensel, survey
from rnlab.cli import main
from rnlab.hensel import LiftInvariantError, padic_root
from rnlab.survey import (METHOD_NOTE, SurveyRecord, SurveyReport, checkpoint,
                          power_compare, restore, run_survey)
from two_adic_ladder import two_ladder

F = Fraction

D_GRID = tuple(range(7, 80, 8))  # every D = 7 (mod 8) below 80
SIGMAS = (F(1, 100), F(7, 50), F(1, 3), F(1, 2), F(9, 10), F(99, 100))
TOP = 3000


@functools.lru_cache(maxsize=1)
def ladder(D):
    """The 2-adic ladder states at levels 1..TOP, index n - 1."""
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
    states = ladder(D)
    exceptions, blobs, changes = [], [], []
    records, min_margin, least = 0, None, math.inf
    for state in states[n_from - 1:n_max]:
        n, pn = state.n, state.pn
        for r, mr in zip(state.min_roots, state.cofactors, strict=True):
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
    blobs.append(checkpoint(states[n_max - 1]))
    report = SurveyReport(
        D=D, p=2, sigma=sigma, n_from=n_from, n_max=n_max, no_split=False,
        records_checked=records, exceptions=tuple(exceptions),
        min_margin=min_margin, method_note=METHOD_NOTE, wall_time=0.0)
    return json.dumps(report.to_json_dict()), blobs, sorted(set(changes))


def bit_survey(D, sigma, n_max, n_from=1, every=200):
    blobs = []
    resume = restore(checkpoint(ladder(D)[n_from - 1])) if n_from > 1 else None
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
    states = ladder(D)
    S, _ = padic_root(D, 2, 2000)
    for n_lo in (3, 4, 17, 500):
        for n, lengths in survey._record_lengths(S, n_lo, 2000):
            state = states[n - 1]
            want = [x.bit_length() for r in state.min_roots
                    for x in (r, state.pn - r)]
            assert list(lengths) == want, (n_lo, n)


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
    assert json.loads(capsys.readouterr().out)["error"] == \
        "internal_invariant_violation"
