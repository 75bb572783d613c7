from dataclasses import replace

import numpy as np
import pytest

from rnlab.hensel import (PRIME_BOUND, CompositeModulusError, HenselError,
                          LiftInvariantError, LiftState, NoRootError,
                          NoSplitError, PrimeBoundError, is_probable_prime,
                          legendre, lift_step_odd, lift_two, lift_two_step,
                          roots_mod_pn, sqrt_mod_p)

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
        mod = state.modulus
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
    assert lift_two(7, 1).root_count() == 1
    assert lift_two(7, 2).root_count() == 2
    for n in range(3, 10):
        assert lift_two(7, n).root_count() == 4


def test_roots_mod_pn_no_split():
    with pytest.raises(NoSplitError):
        roots_mod_pn(76, 103, 1)
    assert legendre(-76 % 103, 103) == -1


def test_roots_mod_pn_rejects_shared_factor():
    with pytest.raises(ValueError):
        roots_mod_pn(76, 2, 3)


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
    step = lift_two_step if p == 2 else lift_step_odd
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


@pytest.mark.parametrize("D,p,step", [(76, 101, lift_step_odd),
                                      (23, 3, lift_step_odd),
                                      (7, 2, lift_two_step)])
def test_tampered_cofactor_makes_next_lift_raise(D, p, step):
    state = roots_mod_pn(D, p, 12)
    step(state)  # the untouched state lifts
    for delta in (1, -1, 2, p ** 12):
        cofs = (state.cofactors[0] + delta,) + state.cofactors[1:]
        with pytest.raises(LiftInvariantError):
            step(replace(state, cofactors=cofs))


def test_tampered_root_makes_next_lift_raise():
    state = roots_mod_pn(76, 101, 12)
    bad = replace(state, min_roots=(state.min_roots[0] + 101 ** 12,))
    with pytest.raises(LiftInvariantError):
        lift_step_odd(bad)


def test_cofactors_derived_from_bare_roots():
    state = roots_mod_pn(76, 101, 30)
    bare = LiftState(p=101, D=76, n=30, min_roots=state.min_roots)
    assert bare.cofactors == state.cofactors and bare.pn == 101 ** 30
    with pytest.raises(HenselError):
        LiftState(p=101, D=76, n=30, min_roots=(state.min_roots[0] + 1,))
