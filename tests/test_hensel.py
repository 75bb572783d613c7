import json
from fractions import Fraction as F

import numpy as np
import pytest

from rnlab import hensel, survey
from rnlab.cli import main
from rnlab.hensel import (PRIME_BOUND, CompositeModulusError, HenselError,
                          LiftInvariantError, LiftState, NoRootError,
                          NoSplitError, PrimeBoundError, is_probable_prime,
                          legendre, lift_step_odd, lift_two,
                          roots_mod_pn, sqrt_mod_p)
from rnlab.survey import CorruptBlobError, checkpoint, run_survey
from two_adic_ladder import two_ladder_step

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 101, 103]

# psi_12: the least strong pseudoprime to the 12 prime bases 2..37
PSI12 = 318665857834031151167461


def brute_roots(D, p, n):
    pn = p ** n
    xs = np.arange(pn, dtype=np.int64)
    hits = xs[(xs * xs + D) % pn == 0]
    return tuple(int(x) for x in hits if x > 0)


def test_sqrt_mod_p_examples():
    assert sqrt_mod_p(-76 % 101, 101) == (5, 96)
    assert sqrt_mod_p(-1 % 7, 7) is None
    assert sqrt_mod_p(2, 7) == (3, 4)


def test_sqrt_mod_p_tonelli_branch():
    # p = 1 (mod 4) forces the full Tonelli-Shanks loop
    r = sqrt_mod_p(10, 13)
    assert r == (6, 7) and all(x * x % 13 == 10 for x in r)
    assert sqrt_mod_p(2, 73) is not None


def test_sqrt_mod_p_rejects_composite():
    with pytest.raises(CompositeModulusError):
        sqrt_mod_p(2, 15)
    with pytest.raises(ValueError):
        sqrt_mod_p(2, 2)


def test_is_probable_prime():
    assert is_probable_prime(101)
    assert is_probable_prime(2 ** 61 - 1)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(PSI12)  # 399165290221 * 798330580441


def test_primality_gate_refuses_beyond_proof_range():
    with pytest.raises(CompositeModulusError):
        roots_mod_pn(7, PSI12, 3)
    for p in (PRIME_BOUND, 2 ** 89 - 1):  # 2^89 - 1 is prime
        with pytest.raises(PrimeBoundError):
            roots_mod_pn(7, p, 3)
    below = 3317044064679887385961813  # the largest prime below the bound
    try:
        roots_mod_pn(7, below, 2)
    except NoSplitError:
        pass


def test_lift_5_to_1015():
    state = roots_mod_pn(76, 101, 1)
    assert state.all_roots() == (5, 96)
    # 5^2 + 76 = 101 * 1 and 1015^2 + 76 = 101^2 * 101
    assert lift_step_odd(101, 5, 1, 101) == (1015, 101, 101 ** 2)
    assert 1015 in LiftState(101, 76, 2, (1015,)).all_roots()


def test_exact_solution_stays_fixed():
    state = roots_mod_pn(76, 101, 3)
    assert state.all_roots() == (1015, 1029286)
    assert roots_mod_pn(76, 101, 2).all_roots() == (1015, 9186)


def test_roots_come_in_pairs():
    for n in range(1, 8):
        state = roots_mod_pn(76, 101, n)
        mod = 101 ** n
        roots = set(state.all_roots())
        assert roots == {mod - r for r in roots}


def test_lift_two_examples():
    assert 181 in lift_two(7, 15).all_roots()
    assert lift_two(7, 3).all_roots() == (1, 3, 5, 7)
    with pytest.raises(NoRootError):
        lift_two(5, 3)  # 5 != 7 (mod 8)
    with pytest.raises(NoRootError):
        lift_two(1, 2)  # 1 != 3 (mod 4)


def test_lift_two_counts():
    assert len(lift_two(7, 1).all_roots()) == 1
    assert len(lift_two(7, 2).all_roots()) == 2
    for n in range(3, 10):
        assert len(lift_two(7, n).all_roots()) == 4


def test_roots_mod_pn_no_split():
    with pytest.raises(NoSplitError):
        roots_mod_pn(76, 103, 1)
    assert legendre(-76 % 103, 103) == -1


def test_roots_mod_pn_rejects_shared_factor():
    with pytest.raises(ValueError):
        roots_mod_pn(76, 2, 3)


@pytest.mark.parametrize("D", [-7, -1, 0])
def test_nonpositive_D_rejected(D):
    # x^2 - 7 has roots mod 3^n, and -7 = 1 (mod 4) once gave NoRootError
    for p in (3, 2):
        with pytest.raises(ValueError, match="D must be positive"):
            roots_mod_pn(D, p, 4)
    with pytest.raises(ValueError, match="D must be positive"):
        lift_two(D, 4)


def test_state_verify_rejects_bad_root():
    with pytest.raises(Exception):
        LiftState(p=101, D=76, n=1, min_roots=(6,)).verify()


@pytest.mark.parametrize("D", [7, 76, 23, 47])
def test_oracle_equivalence_small_moduli(D):
    for p in SMALL_PRIMES:
        if D % p == 0:
            continue
        n = 1
        while p ** n <= 10 ** 6:
            expected = brute_roots(D, p, n)
            try:
                got = roots_mod_pn(D, p, n).all_roots()
            except (NoSplitError, NoRootError):
                got = ()
            assert got == expected, (D, p, n)
            n += 1


@pytest.mark.parametrize("D,p", [(76, 101), (7, 2), (23, 3), (47, 19)])
def test_lift_compatibility(D, p):
    # roots mod p^(n+1) reduce to roots mod p^n
    try:
        hi = roots_mod_pn(D, p, 6)
        lo = roots_mod_pn(D, p, 5)
    except (NoSplitError, NoRootError):
        return
    lo_roots = set(lo.all_roots())
    for r in hi.all_roots():
        assert r % p ** 5 in lo_roots


def test_congruence_asserted_after_every_lift():
    state = roots_mod_pn(76, 101, 40)
    mod = 101 ** 40
    for r in state.all_roots():
        assert (r * r + 76) % mod == 0


# ---------------------------------------------------------------------------
# the digit recurrence against the lifts it replaced


def newton_step_reference(p, D, n, min_roots):
    """Level n -> n+1 by r - (r^2 + D) (2r)^-1 (mod p^(n+1)) for odd p, or
    by keeping whichever of r, r + 2^(n-1) is a root mod 2^(n+1) for p = 2
    (n >= 3)."""
    mod = p ** (n + 1)
    out = []
    for r in min_roots:
        if p == 2:
            r2 = r if (r * r + D) % mod == 0 else r + 2 ** (n - 1)
        else:
            r2 = (r - (r * r + D) * pow(2 * r, -1, mod)) % mod
        out.append(min(r2, mod - r2))
    return tuple(sorted(out))


def ladder_step(state, cofactors):
    """One level of the digit ladder, each cofactor carried: lift_step_odd
    at odd p, two_ladder_step at p = 2.  The (state, cofactors) of level
    n + 1."""
    if state.p == 2:
        return two_ladder_step(state, cofactors)
    p, pn = state.p, state.p ** state.n
    (r,), (m,) = state.min_roots, cofactors
    r, m, pn = lift_step_odd(p, r, m, pn)
    assert pn == p ** (state.n + 1)
    return LiftState(p, state.D, state.n + 1, (r,)), (m,)


DIFFERENTIAL_CASES = [(D, p) for p in (3, 5, 19, 101) for D in (7, 23, 47, 76)
                      if D % p and legendre(-D % p, p) == 1]
DIFFERENTIAL_CASES += [(7, 2), (15, 2), (23, 2)]


@pytest.mark.parametrize("D,p", DIFFERENTIAL_CASES)
def test_digit_recurrence_matches_newton_to_level_300(D, p):
    # below n = 3 the 2-adic ladder is a table, checked by the oracle tests
    n0 = 3 if p == 2 else 1
    state = roots_mod_pn(D, p, n0)
    ref, cofactors = state.min_roots, state.verify()
    flips = 0  # levels whose lifted root is replaced by its complement
    for n in range(n0, 300):
        assert state.min_roots == ref, (D, p, n)
        assert cofactors == state.verify(), (D, p, n)
        ref = newton_step_reference(p, D, n, ref)
        nxt, cofactors = ladder_step(state, cofactors)
        flips += nxt.min_roots[0] % p ** n != state.min_roots[0]
        state = nxt
    assert state.n == 300 and state.min_roots == ref
    assert flips > 0 or p == 2


# level 12, and two deeper levels of (76, 101)
TAMPER_LEVELS = {(76, 101): (12, 300, 600), (23, 3): (12,)}

# one corruption of each part of the pair (r, m, p^n) the odd ladder carries
TAMPERS = {
    "cofactor": lambda p, r, m, pn: (r, m + 1, pn),
    "root": lambda p, r, m, pn: (r + pn, m, pn),
    "pn": lambda p, r, m, pn: (r, m * p, pn // p),
}


def _carried(D, p, n):
    """The (r, m, p^n) that the odd ladder carries at level n."""
    (r,), pn = roots_mod_pn(D, p, n).min_roots, p ** n
    return r, (r * r + D) // pn, pn


def _error(D, r, m, pn):
    """e = r^2 + D - p^n m of a carried pair, p^n as carried: each odd lift
    keeps it."""
    return r * r + D - pn * m


def _inject(monkeypatch, good, bad):
    """The survey's odd ladder carries bad where it would carry good."""
    def step(p, r, m, pn):
        lifted = lift_step_odd(p, r, m, pn)
        return bad if lifted == good else lifted
    monkeypatch.setattr(survey, "lift_step_odd", step)


def _fails_the_final_check(monkeypatch, D, p, n, bad, e):
    """Lifting bad 50 levels keeps its error e, and run_survey raises
    LiftInvariantError where its report would be when the ladder carries
    bad in place of its own level-n pair."""
    pair = bad
    assert _error(D, *pair) == e
    for _ in range(50):
        pair = lift_step_odd(p, *pair)
        assert _error(D, *pair) == e
    _inject(monkeypatch, _carried(D, p, n), bad)
    with pytest.raises(LiftInvariantError):
        run_survey(D, p, F(1, 2), n + 50)
    monkeypatch.undo()


@pytest.mark.parametrize("D,p", list(TAMPER_LEVELS))
def test_tampered_cofactor_fails_the_final_check(monkeypatch, D, p):
    for n in TAMPER_LEVELS[D, p]:
        r, m, pn = _carried(D, p, n)
        for delta in (1, -1, 2, p ** n):
            _fails_the_final_check(monkeypatch, D, p, n, (r, m + delta, pn),
                                   -delta * pn)


def test_tampered_root_fails_the_final_check(monkeypatch):
    # at (23, 3, 12) the pair lifted from r + 3^12 has a cofactor below 1,
    # which power_compare refuses before the walk ends: the final check
    # still reports the corruption.  As a resume state, r + p^n is refused
    # by verify() before the walk starts
    for (D, p), levels in TAMPER_LEVELS.items():
        for n in levels:
            r, m, pn = good = _carried(D, p, n)
            bad = TAMPERS["root"](p, *good)
            _fails_the_final_check(monkeypatch, D, p, n, bad,
                                   2 * r * pn + pn * pn)
            state = LiftState(p, D, n, bad[:1])
            with pytest.raises(HenselError):
                state.verify()
            with pytest.raises(CorruptBlobError):
                run_survey(D, p, F(1, 2), n + 50, resume=state)


@pytest.mark.parametrize("D,p,n", [(76, 101, 12), (76, 101, 400)])
def test_wrong_pn_fails_the_final_check(monkeypatch, D, p, n):
    # pn = p^(n-1) with the cofactor times p has e = 0: only the survey's
    # test of pn = p^n sees it, on bad and on every pair lifted from it
    bad = TAMPERS["pn"](p, *_carried(D, p, n))
    _fails_the_final_check(monkeypatch, D, p, n, bad, 0)


@pytest.mark.parametrize("kind", list(TAMPERS))
def test_tampered_run_keeps_its_last_good_blob(monkeypatch, capsys, tmp_path,
                                               kind):
    # the tampered run checkpoints levels 11, 21 and 31; the check before
    # the one at 21 ends it in exit 4, so the blob of 11 stays on disk and
    # resumes to the report of a clean run.  The blob it would have written
    # at 31, of the root lifted from the tampered pair, is refused
    good = _carried(76, 101, 12)
    bad = TAMPERS[kind](101, *good)
    path = tmp_path / "survey.ckpt"
    argv = ["survey", "--D", "76", "--p", "101", "--sigma", "1/2",
            "--n-max", "40", "--checkpoint-every", "10", "--resume",
            str(path), "--format", "json"]
    _inject(monkeypatch, good, bad)
    assert main(argv) == 4
    assert json.loads(capsys.readouterr().out)["error"] == \
        "internal_invariant_violation"
    assert path.read_text() == checkpoint(roots_mod_pn(76, 101, 11))
    monkeypatch.undo()
    assert main(argv) == 0
    resumed = capsys.readouterr().out
    path.write_text(checkpoint(roots_mod_pn(76, 101, 11)))
    assert main(argv) == 0 and capsys.readouterr().out == resumed
    pair = bad
    for _ in range(12, 31):
        pair = lift_step_odd(101, *pair)
    path.write_text(checkpoint(LiftState(101, 76, 31, pair[:1])))
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"


@pytest.mark.parametrize("D,p", DIFFERENTIAL_CASES)
def test_lifted_state_equals_state_from_bare_roots(D, p):
    # the ladder carries each cofactor unchecked; verify() derives it again
    # from the bare roots, by exact division
    state = roots_mod_pn(D, p, 1)
    cofactors = state.verify()
    while state.n < 4000:
        if state.n <= 300 or state.n == 2000:
            assert cofactors == state.verify(), (D, p, state.n)
        state, cofactors = ladder_step(state, cofactors)
    assert state.n == 4000 and cofactors == state.verify()


@pytest.mark.parametrize("D,p", DIFFERENTIAL_CASES + [(2 ** 61 - 1, 2)])
def test_roots_mod_pn_matches_ladder_to_level_600(D, p):
    # the ladder starts from its own level-1 state and lifts a digit a level
    start = (1,) if p == 2 else sqrt_mod_p(-D % p, p)[:1]
    state = LiftState(p, D, 1, start)
    cofactors = state.verify()
    for n in range(1, 601):
        assert roots_mod_pn(D, p, n) == state, (D, p, n)
        state, cofactors = ladder_step(state, cofactors)


@pytest.mark.parametrize("D,p", [(76, 101), (23, 3), (7, 2),
                                 (2 ** 61 - 1, 2)])
@pytest.mark.parametrize("low", [0, 1], ids=["past_range", "no_root"])
def test_tampered_newton_root_raises(monkeypatch, capsys, D, p, low):
    # with e = 1 for p = 2, else 0: R + p^(N-e) is a root past the range
    # 0 < R < p^(N-e), and R + p^(N-e-1) is no root
    e = int(p == 2)
    real = hensel._newton_root
    monkeypatch.setattr(hensel, "_newton_root",
                        lambda D, p, N: real(D, p, N) + p ** (N - e - low))
    argv = ["--D", str(D), "--p", str(p), "--format", "json"]
    for N in (4, 12, 500, 3000):
        with pytest.raises(LiftInvariantError):
            roots_mod_pn(D, p, N)
        assert main(["hensel", "--n", str(N)] + argv) == 4
        assert json.loads(capsys.readouterr().out)["error"] == \
            "internal_invariant_violation"
    # an odd-p survey takes its level-1 state from padic_root, where R + 1
    # may be the other root; tests/test_survey_two.py tampers p = 2's root
    if p != 2 and low == 0:
        assert main(["survey", "--sigma", "1/2", "--n-max", "12"] + argv) == 4
        assert json.loads(capsys.readouterr().out)["error"] == \
            "internal_invariant_violation"


def test_verify_tests_the_remainder_of_each_root():
    # a minimal residue that is no root passes check_ladder, not verify():
    # at odd p by %, at p = 2 by a mask
    for state in (roots_mod_pn(76, 101, 30), lift_two(7, 30)):
        state.verify()
        r = state.min_roots[0]
        for bad in (state._replace(min_roots=(r + 2,) + state.min_roots[1:]),
                    state._replace(n=31)):
            bad.check_ladder()
            with pytest.raises(HenselError, match="is invalid at level"):
                bad.verify()


def test_equality_reads_p_d_n_and_roots_only():
    # LiftState is a plain named tuple of the four fields a blob holds
    assert LiftState._fields == ("p", "D", "n", "min_roots")
    for name in ("__new__", "__eq__", "__ne__", "__hash__", "__repr__"):
        code = getattr(getattr(LiftState, name), "__code__", None)
        assert code is None or code.co_filename != hensel.__file__, name
    state = roots_mod_pn(76, 101, 30)
    assert state == (101, 76, 30, state.min_roots) == tuple(state)
    assert repr(state) == (f"LiftState(p=101, D=76, n=30, "
                           f"min_roots={state.min_roots!r})")
    for other in (state._replace(n=31), state._replace(D=77),
                  state._replace(min_roots=(state.min_roots[0] + 1,))):
        assert other != state and not other == state


def test_replace_keeps_given_fields():
    # nothing is derived or checked on construction: verify() is the check
    state = roots_mod_pn(76, 101, 30)
    bad = state._replace(min_roots=(state.min_roots[0] + 1,))
    assert type(bad) is LiftState and bad[:3] == state[:3]
    assert bad.min_roots == (state.min_roots[0] + 1,)
    with pytest.raises(HenselError):
        bad.verify()


def test_lift_two_is_the_ladder_at_p_2():
    # the ladder from level 1, ending where the table finds no root
    for D in range(1, 64, 2):
        state, ended = LiftState(p=2, D=D, n=1, min_roots=(1,)), None
        cofactors = ((1 + D) >> 1,)
        for n in range(1, 41):
            if ended is not None:
                with pytest.raises(NoRootError) as info:
                    lift_two(D, n)
                assert str(info.value) == ended, (D, n)
                continue
            assert lift_two(D, n) == state, (D, n)
            try:
                state, cofactors = two_ladder_step(state, cofactors)
            except NoRootError as exc:
                ended = str(exc)


def test_roots_mod_pn_proves_the_instance_once(monkeypatch):
    # check_instance proves p prime and (-D|p) = 1; the level-1 root does
    # not prove them again (the non-residue search of Tonelli-Shanks stays)
    primes, symbols = [], []
    real_prime, real_legendre = hensel.is_probable_prime, hensel.legendre
    monkeypatch.setattr(hensel, "is_probable_prime",
                        lambda n: primes.append(n) or real_prime(n))
    monkeypatch.setattr(hensel, "legendre",
                        lambda a, p: symbols.append((a, p)) or
                        real_legendre(a, p))
    state = roots_mod_pn(76, 101, 5)
    state.verify()
    assert state.min_roots[0] % 101 in (5, 96)
    assert primes == [101]
    assert symbols.count((-76 % 101, 101)) == 1
