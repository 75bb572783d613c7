"""Roots of x^2 + D = 0 (mod p^n): one Newton p-adic root, and the odd ladder.

check_instance gates each instance (D, p).  padic_root lifts one root of -D
to level N by Newton with a coupled inverse (von zur Gathen & Gerhard,
Modern Computer Algebra, ch. 15) for every prime, and checks it once,
exactly.  With e = 1 for p = 2 and 0 for odd p, a root u mod p^k fixes the
root mod p^(k-e); one step goes to k2 = min(2(k-e), N) by

    t = ((u^2 + D)/p^k) w mod p^(k2-k),   u <- u - p^(k-e) t mod p^(k2-e)

with w = (2u/p^e)^-1 carried by w <- w (2 - (2u/p^e) w), so the only
inverse taken is one mod p.  It starts from the Tonelli-Shanks root mod p,
or from the 2-adic table (one root mod 2, two mod 4 when D = 3 mod 4, four
mod 8 when D = 7 mod 8), and reduces by shifts and masks for p = 2.

A LiftState stores one minimal representative r per +/- pair with its exact
cofactor m, r^2 + D = p^n m, and p^n; callers expand the complements with
(p^n - r)^2 + D = p^n (p^n - 2r + m).  roots_mod_pn builds its state from
padic_root's root in one step.  At odd p the cofactor is the quotient of
padic_root's exact check; at p = 2 each cofactor is a shift, exact, which
verifies it.

The odd ladder, which the odd-p survey walks, adds the next p-adic digit d
of its stored root per level, in a few linear big-int operations:

    d  = -m (2r)^-1 mod p          (an inverse mod p only)
    m' = (m + 2dr + d^2 p^n) / p   (exact by choice of d)
    r' = r + d p^n

It keeps e = r^2 + D - p^n m, as (r + d p^n)^2 + D - p^n (m + 2dr +
d^2 p^n) = e, and so does the flip to y = p^n - r with cofactor y - r + m.
An exact start stays exact, a corrupted root or cofactor keeps its e != 0,
and LiftState.verify of a state, which checks p^n too, proves every level
up to it.  For p = 2, lift_two_step walks the table from level 1 to level 3.
"""

from __future__ import annotations

import functools
import operator
from typing import NamedTuple


class HenselError(Exception):
    pass


class CompositeModulusError(HenselError, ValueError):
    """The modulus failed a primality test."""


class PrimeBoundError(HenselError, ValueError):
    """The modulus is too large for the deterministic primality test."""


class NoRootError(HenselError):
    """x^2 + D = 0 is unsolvable at the requested level."""


class NoSplitError(HenselError):
    """-D is a quadratic non-residue: the odd prime does not split."""


class LiftInvariantError(RuntimeError):
    """A lifted root or cofactor broke its defining identity (internal bug
    or corrupted state)."""


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13: the least strong pseudoprime to all of _MR_WITNESSES (Sorenson &
# Webster, Math. Comp. 86 (2017)); below it the test above is a proof
PRIME_BOUND = 3317044064679887385961981


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: deterministic for
    n < PRIME_BOUND = psi_13 ~ 3.317e24, probable above."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """Raise unless p is proven prime by the deterministic test."""
    if p >= PRIME_BOUND:
        raise PrimeBoundError(
            f"p = {p} >= {PRIME_BOUND}: primality cannot be proven here")
    if not is_probable_prime(p):
        raise CompositeModulusError(f"p = {p} is not prime")


def legendre(a: int, p: int) -> int:
    ls = pow(a % p, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def sqrt_mod_p(a: int, p: int) -> tuple[int, int] | None:
    """The two square roots of a modulo an odd prime p, or None.

    Uses the p = 3 (mod 4) shortcut when available, else Tonelli-Shanks
    with the smallest non-residue as witness (deterministic, so certified
    paths are reproducible).
    """
    if p == 2 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    require_prime(p)
    a %= p
    if a == 0:
        raise ValueError("a must be coprime to p")
    if legendre(a, p) != 1:
        return None
    return _sqrt_mod_prime(a, p)


def _sqrt_mod_prime(a: int, p: int) -> tuple[int, int]:
    """sqrt_mod_p past its gates: p an odd prime, 0 < a < p a residue."""
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while legendre(z, p) != -1:
            z += 1
        c = pow(z, q, p)
        r = pow(a, (q + 1) // 2, p)
        t = pow(a, q, p)
        m = s
        while t != 1:
            t2i, i = t, 0
            for i in range(1, m):
                t2i = t2i * t2i % p
                if t2i == 1:
                    break
            bmul = pow(c, 1 << (m - i - 1), p)
            r = r * bmul % p
            c = bmul * bmul % p
            t = t * c % p
            m = i
    if r * r % p != a:
        raise LiftInvariantError(
            f"Tonelli-Shanks gave {r}, not a square root of {a} mod {p}")
    return (r, p - r) if r <= p - r else (p - r, r)


def _stored(i: int, r: int) -> str:
    """Stored root i named by its bit length: an error message never holds
    a root in decimal, which may run to thousands of digits."""
    return f"stored root {i} ({r.bit_length()} bits)"


class _LiftFields(NamedTuple):
    p: int
    D: int
    n: int
    min_roots: tuple[int, ...]
    cofactors: tuple[int, ...] | None = None
    pn: int = 0


class LiftState(_LiftFields):
    """Roots of x^2 + D = 0 (mod p^n), one stored per +/- pair.

    cofactors[i] is the exact m with min_roots[i]^2 + D = p^n m and pn is
    p^n.  Each is derived when not given; deriving a cofactor is an exact
    division that raises HenselError if the root is not one.  Given ones are
    not checked: verify() is the check, and _replace derives nothing.
    Equality, hash and repr read (p, D, n, min_roots) only.
    """

    __slots__ = ()

    def __new__(cls, p: int, D: int, n: int, min_roots: tuple[int, ...],
                cofactors: tuple[int, ...] | None = None, pn: int = 0):
        pn = pn or p ** n
        if cofactors is None:
            cofs = []
            for i, r in enumerate(min_roots):
                x = r * r + D
                # divmod does not shift for a power of two
                m, rem = (x >> n, x & (pn - 1)) if p == 2 else divmod(x, pn)
                if rem:
                    raise HenselError(f"{_stored(i, r)} is invalid at level "
                                      f"{n}")
                cofs.append(m)
            cofactors = tuple(cofs)
        return tuple.__new__(cls, (p, D, n, min_roots, cofactors, pn))

    # tuple's own __eq__, __ne__ and __hash__ read all six fields, and its
    # __eq__ equates a plain tuple of the same items
    def __eq__(self, other):
        return other.__class__ is self.__class__ and self[:4] == other[:4]

    def __ne__(self, other):
        return not self.__eq__(other)

    def __hash__(self):
        return hash(self[:4])

    def __repr__(self):
        return (f"LiftState(p={self.p!r}, D={self.D!r}, n={self.n!r}, "
                f"min_roots={self.min_roots!r})")

    def all_roots(self) -> tuple[int, ...]:
        mod = self.pn
        roots = set(self.min_roots)
        roots.update(mod - r for r in self.min_roots)
        return tuple(sorted(roots))

    def check_ladder(self) -> None:
        """Raise unless the stored roots are a complete set of distinct
        minimal representatives for level n (the cofactors are not read)."""
        if self.n < 1:
            raise HenselError(f"level n = {self.n} < 1")
        want = self.pair_count(self.p, self.n)
        if len(self.min_roots) != want:
            raise HenselError(f"{len(self.min_roots)} stored roots at level "
                              f"{self.n}, the ladder has {want}")
        if len(set(self.min_roots)) != want:
            raise HenselError(f"repeated root at level {self.n}")
        for i, r in enumerate(self.min_roots):
            if not 0 < r <= self.pn - r:
                raise HenselError(f"{_stored(i, r)} is not a minimal residue "
                                  f"mod {self.p}^{self.n}")

    @staticmethod
    def pair_count(p: int, n: int) -> int:
        """The number of stored pairs at level n: one for an odd prime not
        dividing D; for p = 2 one up to n = 2 and two from n = 3 on."""
        return 2 if p == 2 and n >= 3 else 1

    def verify(self) -> None:
        """check_ladder, plus pn = p^n and r^2 + D = p^n m exactly for every
        stored pair."""
        self.check_ladder()
        if self.pn != self.p ** self.n:
            raise HenselError(f"pn is not {self.p}^{self.n}")
        for i, (r, m) in enumerate(zip(self.min_roots, self.cofactors,
                                       strict=True)):
            if r * r + self.D != self.pn * m:
                raise HenselError(f"{_stored(i, r)} is invalid at level "
                                  f"{self.n}")

    @classmethod
    def _of(cls, *fields) -> LiftState:
        """From all six fields: nothing is derived or checked."""
        return tuple.__new__(cls, fields)


def lift_step_odd(state: LiftState) -> LiftState:
    """Lift the one stored root a level by its next p-adic digit
    d = -m (2r)^-1 mod p, carrying the cofactor exactly, and flip it to its
    minimal representative.  Nothing is checked here: the step keeps
    r^2 + D - p^n m, and LiftState.verify is the check."""
    p, pn = state.p, state.pn
    (r,), (m,) = state.min_roots, state.cofactors
    d = -(m % p) * pow(2 * r % p, -1, p) % p
    m = (m + 2 * d * r + d * d * pn) // p
    r, pn = r + d * pn, pn * p
    if r > pn >> 1:
        y = pn - r
        r, m = y, y - r + m
    return LiftState._of(p, state.D, state.n + 1, (r,), (m,), pn)


def _two_initial(D: int, n: int) -> LiftState:
    for q in (4, 8)[:n - 1]:  # roots mod 4 need D = 3, mod 8 need D = 7
        if D % q != q - 1:
            raise NoRootError(f"x^2 = -{D} (mod {q}) unsolvable "
                              f"(D = {D % q} mod {q})")
    return LiftState(p=2, D=D, n=n, min_roots=(1, 3) if n == 3 else (1,))


def lift_two_step(state: LiftState) -> LiftState:
    """One 2-adic lift below level 3, where the ladder widens: the table
    state of level n + 1.  padic_root gives every later level."""
    if state.n >= 3:
        raise ValueError(f"the 2-adic ladder stops at level 3, not "
                         f"{state.n}: padic_root lifts past it")
    return _two_initial(state.D, state.n + 1)


def lift_step(state: LiftState) -> LiftState:
    """One level up: the one place that picks the 2-adic or odd-prime lift."""
    return lift_two_step(state) if state.p == 2 else lift_step_odd(state)


def check_instance(D: int, p: int) -> None:
    """Raise unless D >= 1, p is proven prime and p does not divide D, in
    that order, and an odd p splits (NoSplitError)."""
    if D < 1:
        raise ValueError(f"D must be positive, got {D}")
    require_prime(p)
    if D % p == 0:
        raise ValueError(f"p = {p} divides D = {D}")
    if p != 2 and legendre(-D % p, p) != 1:
        raise NoSplitError(f"(-{D}|{p}) = -1: no roots at any level")


def _newton_root(D: int, p: int, N: int) -> int:
    """padic_root's Newton loop, unchecked, for an instance that passed
    check_instance."""
    if p == 2:  # // and % do not shift for a power of two
        e, k = 1, min(N, 3)
        u = _two_initial(D, k).min_roots[0]
        mod, div, scale = (lambda x, j: x & ((1 << j) - 1),
                           operator.rshift, operator.lshift)
    else:
        e, k = 0, 1
        # check_instance has proven p prime and -D a residue mod p
        u = _sqrt_mod_prime(-D % p, p)[0]
        power = functools.cache(p.__pow__)
        mod, div, scale = (lambda x, j: x % power(j),
                           lambda x, j: x // power(j),
                           lambda x, j: x * power(j))
    w = pow(u << (1 - e), -1, p)
    while k < N:
        k2 = min(2 * (k - e), N)
        t = mod(div(u * u + D, k) * w, k2 - k)
        u = mod(u - scale(t, k - e), k2 - e)
        w = mod(w * (2 - (u << (1 - e)) * w), k2 - 2 * e)
        k = k2
    return mod(u, max(N - e, 1))


def padic_root(D: int, p: int, N: int) -> tuple[int, int]:
    """(R, m) with R^2 + D = p^N m and 0 < R < p^max(N - e, 1), where e is 1
    for p = 2 and 0 for odd p: the root is fixed mod p^(N-e).  Gated by
    check_instance; raises NoRootError when p = 2 has no root mod 2^N.
    R is checked here, once, exactly, so no caller can skip the check; m is
    the quotient of that one exact division."""
    if N < 1:
        raise ValueError(f"n must be >= 1, got {N}")
    check_instance(D, p)
    R, two = _newton_root(D, p, N), p == 2
    top = 1 << max(N - 1, 1) if two else p ** N
    x = R * R + D
    # divmod does not shift for a power of two
    m, rest = (x >> N, x & ((1 << N) - 1)) if two else divmod(x, top)
    if rest or not 0 < R < top:
        raise LiftInvariantError(
            f"p-adic root of {R.bit_length()} bits breaks R^2 + D = 0 "
            f"mod {p}^{N}")
    return R, m


def least_root(S: int, n: int) -> int:
    """The least root r of x^2 + D = 0 (mod 2^n), n >= 3, for a 2-adic root
    S of -D: the smaller of S and -S mod 2^(n-1).  The other minimal root
    is 2^(n-1) - r."""
    half = 1 << (n - 1)
    return min(S & (half - 1), half - (S & (half - 1)))


def two_adic_state(D: int, n: int, S: int) -> LiftState:
    """The level-n state of a 2-adic root S that padic_root gave at a level
    N >= n, its cofactors by exact division."""
    if n < 3:
        roots = (1,)
    else:
        r = least_root(S, n)
        roots = (r, (1 << (n - 1)) - r)
    state = LiftState(p=2, D=D, n=n, min_roots=roots, pn=1 << n)
    state.check_ladder()
    return state


def roots_mod_pn(D: int, p: int, n: int) -> LiftState:
    """Full root set of x^2 + D = 0 (mod p^n) for a prime p not dividing D:
    the level-n state of padic_root, at odd p with padic_root's cofactor."""
    R, m = padic_root(D, p, n)
    if p == 2:
        return two_adic_state(D, n, R)
    pn = p ** n
    if R > pn - R:  # (pn - R)^2 + D = pn (pn - 2R + m)
        R, m = pn - R, pn - 2 * R + m
    state = LiftState(p=p, D=D, n=n, min_roots=(R,), cofactors=(m,), pn=pn)
    state.check_ladder()
    return state


def lift_two(D: int, n: int) -> LiftState:
    """All roots of x^2 + D = 0 (mod 2^n)."""
    return roots_mod_pn(D, 2, n)
