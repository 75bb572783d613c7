import json
from fractions import Fraction as F

import numpy as np
import pytest

from rnlab import hensel, survey
from rnlab.cli import main
from rnlab.hensel import (PRIME_BOUND, CompositeModulusError, HenselError,
                          LiftInvariantError, LiftState, NoRootError,
                          NoSplitError, PrimeBoundError, is_probable_prime,
                          legendre, lift_step, lift_step_odd, lift_two,
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
    state = lift_step_odd(state)
    assert 1015 in state.all_roots()


def test_exact_solution_stays_fixed():
    state = roots_mod_pn(76, 101, 3)
    assert state.all_roots() == (1015, 1029286)
    assert roots_mod_pn(76, 101, 2).all_roots() == (1015, 9186)


def test_roots_come_in_pairs():
    for n in range(1, 8):
        state = roots_mod_pn(76, 101, n)
        mod = state.pn
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


DIFFERENTIAL_CASES = [(D, p) for p in (3, 5, 19, 101) for D in (7, 23, 47, 76)
                      if D % p and legendre(-D % p, p) == 1]
DIFFERENTIAL_CASES += [(7, 2), (15, 2), (23, 2)]


@pytest.mark.parametrize("D,p", DIFFERENTIAL_CASES)
def test_digit_recurrence_matches_newton_to_level_300(D, p):
    # below n = 3 the 2-adic ladder is a table, checked by the oracle tests
    n0 = 3 if p == 2 else 1
    state = roots_mod_pn(D, p, n0)
    ref = state.min_roots
    step = two_ladder_step if p == 2 else lift_step_odd
    flips = 0  # levels whose lifted root is replaced by its complement
    for n in range(n0, 300):
        assert state.min_roots == ref, (D, p, n)
        for r, m in zip(state.min_roots, state.cofactors, strict=True):
            assert r * r + D == p ** n * m
        assert state.pn == p ** n
        ref = newton_step_reference(p, D, n, ref)
        nxt = step(state)
        flips += nxt.min_roots[0] % state.pn != state.min_roots[0]
        state = nxt
    assert state.n == 300 and state.min_roots == ref
    assert flips > 0 or p == 2


# level 12, and two deeper levels of (76, 101)
TAMPER_LEVELS = {(76, 101): (12, 300, 600), (23, 3): (12,)}

# one corruption of each field of an odd state
TAMPERS = {
    "cofactor": lambda s: s._replace(cofactors=(s.cofactors[0] + 1,)),
    "root": lambda s: s._replace(min_roots=(s.min_roots[0] + s.pn,)),
    "pn": lambda s: s._replace(pn=s.pn // s.p,
                               cofactors=(s.cofactors[0] * s.p,)),
}


def _error(state):
    """e = r^2 + D - p^n m of the one stored pair, p^n as the state carries
    it: each odd lift keeps it."""
    (r,), (m,) = state.min_roots, state.cofactors
    return r * r + state.D - state.pn * m


def _fails_the_final_check(monkeypatch, good, bad, e):
    """Lifting bad 50 levels keeps its error e, verify() refuses bad and the
    state lifted from it, and run_survey raises where its report would be:
    CorruptBlobError with bad as the resume state, and LiftInvariantError
    when the ladder lifts bad in place of its own level good.n state."""
    D, p, n = good.D, good.p, good.n
    state = bad
    assert _error(state) == e
    for _ in range(50):
        state = lift_step_odd(state)
        assert _error(state) == e
    for tampered in (bad, state):
        with pytest.raises(HenselError):
            tampered.verify()
    with pytest.raises(CorruptBlobError):
        run_survey(D, p, F(1, 2), n + 50, resume=bad)
    monkeypatch.setattr(survey, "lift_step",
                        lambda s: lift_step(bad if s == good else s))
    with pytest.raises(LiftInvariantError):
        run_survey(D, p, F(1, 2), n + 50)
    monkeypatch.undo()


@pytest.mark.parametrize("D,p", list(TAMPER_LEVELS))
def test_tampered_cofactor_fails_the_final_check(monkeypatch, D, p):
    for n in TAMPER_LEVELS[D, p]:
        state = roots_mod_pn(D, p, n)
        for delta in (1, -1, 2, p ** n):
            bad = state._replace(cofactors=(state.cofactors[0] + delta,))
            _fails_the_final_check(monkeypatch, state, bad, -delta * p ** n)


def test_tampered_root_fails_the_final_check(monkeypatch):
    # at (23, 3, 12) the state lifted from r + 3^12 has a cofactor below 1,
    # which power_compare refuses before the walk ends: the final check
    # still reports the corruption
    for (D, p), levels in TAMPER_LEVELS.items():
        for n in levels:
            state = roots_mod_pn(D, p, n)
            (r,), pn = state.min_roots, state.pn
            _fails_the_final_check(monkeypatch, state, TAMPERS["root"](state),
                                   2 * r * pn + pn * pn)


@pytest.mark.parametrize("D,p,n", [(76, 101, 12), (76, 101, 400)])
def test_wrong_pn_fails_the_final_check(monkeypatch, D, p, n):
    # pn = p^(n-1) with every cofactor times p has e = 0: only verify()'s
    # test of pn = p^n sees it, on bad and on every state lifted from it
    state = roots_mod_pn(D, p, n)
    _fails_the_final_check(monkeypatch, state, TAMPERS["pn"](state), 0)


@pytest.mark.parametrize("kind", list(TAMPERS))
def test_tampered_run_keeps_its_last_good_blob(monkeypatch, capsys, tmp_path,
                                               kind):
    # the tampered run checkpoints levels 11, 21 and 31; the check before
    # the one at 21 ends it in exit 4, so the blob of 11 stays on disk and
    # resumes to the report of a clean run.  The blob it would have written
    # at 31, of the state lifted from the tampered one, is refused
    good = roots_mod_pn(76, 101, 12)
    bad = TAMPERS[kind](good)
    path = tmp_path / "survey.ckpt"
    argv = ["survey", "--D", "76", "--p", "101", "--sigma", "1/2",
            "--n-max", "40", "--checkpoint-every", "10", "--resume",
            str(path), "--format", "json"]
    monkeypatch.setattr(survey, "lift_step",
                        lambda s: lift_step(bad if s == good else s))
    assert main(argv) == 4
    assert json.loads(capsys.readouterr().out)["error"] == \
        "internal_invariant_violation"
    assert path.read_text() == checkpoint(roots_mod_pn(76, 101, 11))
    monkeypatch.undo()
    assert main(argv) == 0
    resumed = capsys.readouterr().out
    path.write_text(checkpoint(roots_mod_pn(76, 101, 11)))
    assert main(argv) == 0 and capsys.readouterr().out == resumed
    state = bad
    while state.n < 31:
        state = lift_step_odd(state)
    path.write_text(checkpoint(state))
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "invalid_input"


def _fields(state):
    return (state.p, state.D, state.n, state.min_roots, state.cofactors,
            state.pn)


@pytest.mark.parametrize("D,p", DIFFERENTIAL_CASES)
def test_lifted_state_equals_state_from_bare_roots(D, p):
    # each lifted state skips the constructor's derivation; the public
    # constructor derives pn and every cofactor again, by exact division
    state = roots_mod_pn(D, p, 1)
    step = two_ladder_step if p == 2 else lift_step
    while state.n < 4000:
        if state.n <= 300 or state.n in (2000, 4000):
            bare = LiftState(p, D, state.n, state.min_roots)
            assert _fields(state) == _fields(bare), (D, p, state.n)
            assert state == bare and hash(state) == hash(bare)
            assert repr(state) == repr(bare)
            copy = state._replace()
            assert copy == state and _fields(copy) == _fields(state)
            state.verify()
        state = step(state)
    assert state.n == 4000 and _fields(state) == _fields(
        LiftState(p, D, 4000, state.min_roots))


@pytest.mark.parametrize("D,p", DIFFERENTIAL_CASES + [(2 ** 61 - 1, 2)])
def test_roots_mod_pn_matches_ladder_to_level_600(D, p):
    # the ladder starts from its own level-1 state and lifts a digit a level
    start = (1,) if p == 2 else sqrt_mod_p(-D % p, p)[:1]
    state = LiftState(p, D, 1, start)
    step = two_ladder_step if p == 2 else lift_step_odd
    for n in range(1, 601):
        assert _fields(roots_mod_pn(D, p, n)) == _fields(state), (D, p, n)
        state = step(state)


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


def test_cofactors_derived_from_bare_roots():
    state = roots_mod_pn(76, 101, 30)
    bare = LiftState(p=101, D=76, n=30, min_roots=state.min_roots)
    assert bare.cofactors == state.cofactors and bare.pn == 101 ** 30
    with pytest.raises(HenselError):
        LiftState(p=101, D=76, n=30, min_roots=(state.min_roots[0] + 1,))


def test_equality_reads_p_d_n_and_roots_only():
    state = roots_mod_pn(76, 101, 30)
    (m,), pn = state.cofactors, state.pn
    for other in (state._replace(cofactors=(m + 1,)),
                  state._replace(pn=pn * 101),
                  state._replace(cofactors=None, pn=0)):
        assert other == state and not other != state
        assert hash(other) == hash(state) and repr(other) == repr(state)
    assert repr(state) == (f"LiftState(p=101, D=76, n=30, "
                           f"min_roots={state.min_roots!r})")
    for other in (state._replace(n=31), state._replace(D=77),
                  state._replace(min_roots=(state.min_roots[0] + pn,)),
                  tuple(state)):
        assert other != state and not other == state


def test_replace_keeps_given_fields():
    # the tamper tests rely on this: nothing is derived or checked again
    state = roots_mod_pn(76, 101, 30)
    bad = state._replace(cofactors=(state.cofactors[0] + 1,))
    assert type(bad) is LiftState and bad.pn == state.pn
    assert bad.cofactors == (state.cofactors[0] + 1,)
    assert state._replace(pn=7).pn == 7
    with pytest.raises(HenselError):
        bad.verify()


def test_lift_two_is_the_ladder_at_p_2():
    # the ladder from level 1, ending where the table finds no root
    for D in range(1, 64, 2):
        state, ended = LiftState(p=2, D=D, n=1, min_roots=(1,)), None
        for n in range(1, 41):
            if ended is not None:
                with pytest.raises(NoRootError) as info:
                    lift_two(D, n)
                assert str(info.value) == ended, (D, n)
                continue
            assert _fields(lift_two(D, n)) == _fields(state), (D, n)
            try:
                state = two_ladder_step(state)
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
