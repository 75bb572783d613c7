"""Roots of x^2 + D = 0 (mod p^n): Tonelli-Shanks plus digit-by-digit lifting.

A LiftState stores one minimal representative r per +/- pair together with
its exact cofactor m, r^2 + D = p^n m, and the modulus p^n itself; callers
expand the complements with (p^n - r)^2 + D = p^n (p^n - 2r + m).

Odd split primes carry two roots at every level.  One level adds the next
p-adic digit d of the root (p-adic Newton/Hensel lifting, von zur Gathen &
Gerhard, Modern Computer Algebra, ch. 15):

    d  = -m (2r)^-1 mod p          (an inverse mod p only)
    m' = (m + 2dr + d^2 p^n) / p   (exact; the remainder is checked)
    r' = r + d p^n

The p = 2 ladder has one root mod 2, two mod 4 (D = 3 mod 4) and four mod
2^n for n >= 3 (D = 7 mod 8); a level keeps r with m' = m/2 when m is even,
else takes r + 2^(n-1) with m' = (m + r + 2^(n-2))/2.

Every level costs a few linear big-int operations.  The recurrence keeps
r^2 + D = p^n m exactly; after each level that identity is also checked
modulo the Mersenne prime 2^127 - 1, which catches a corrupted root or
cofactor (the divmod remainder cannot: d is chosen to make it zero).
Initial states, and states built from bare roots, get their cofactors by
exact division, which verifies them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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

# prime modulus of the per-level residue check; it exceeds PRIME_BOUND, so
# it never divides p^n
_CHECK_Q = 2 ** 127 - 1


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


@dataclass(frozen=True)
class LiftState:
    """Roots of x^2 + D = 0 (mod p^n), one stored per +/- pair.

    cofactors[i] is the exact m with min_roots[i]^2 + D = p^n m, and pn is
    p^n.  Both are derived when not given; deriving a cofactor is an exact
    division that raises HenselError if the root is not one.  Equality
    compares (p, D, n, min_roots) only.
    """

    p: int
    D: int
    n: int
    min_roots: tuple[int, ...]
    cofactors: tuple[int, ...] | None = field(default=None, compare=False,
                                              repr=False)
    pn: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        if not self.pn:
            object.__setattr__(self, "pn", self.p ** self.n)
        if self.cofactors is None:
            cofs = []
            for r in self.min_roots:
                m, rem = divmod(r * r + self.D, self.pn)
                if rem:
                    raise HenselError(f"invalid root {r} at level {self.n}")
                cofs.append(m)
            object.__setattr__(self, "cofactors", tuple(cofs))

    @property
    def modulus(self) -> int:
        return self.pn

    def all_roots(self) -> tuple[int, ...]:
        mod = self.pn
        roots = set(self.min_roots)
        roots.update(mod - r for r in self.min_roots)
        return tuple(sorted(roots))

    def root_count(self) -> int:
        return len(self.all_roots())

    def check_ladder(self) -> None:
        """Raise unless the stored roots are a complete set of distinct
        minimal representatives for level n (the cofactors are not read)."""
        if self.n < 1:
            raise HenselError(f"level n = {self.n} < 1")
        # one pair for an odd prime not dividing D; for p = 2 one pair up
        # to n = 2 and two from n = 3 on
        want = 2 if self.p == 2 and self.n >= 3 else 1
        if len(self.min_roots) != want:
            raise HenselError(f"{len(self.min_roots)} stored roots at level "
                              f"{self.n}, the ladder has {want}")
        if len(set(self.min_roots)) != want:
            raise HenselError(f"repeated root at level {self.n}")
        for r in self.min_roots:
            if not 0 < r <= self.pn - r:
                raise HenselError(f"root {r} is not a minimal residue mod "
                                  f"{self.p}^{self.n}")

    def verify(self) -> None:
        """check_ladder, plus r^2 + D = p^n m exactly for every stored pair."""
        self.check_ladder()
        for r, m in zip(self.min_roots, self.cofactors, strict=True):
            if r * r + self.D != self.pn * m:
                raise HenselError(f"invalid root {r} at level {self.n}")


def _next_state(state: LiftState, pairs: list[tuple[int, int]],
                pn: int) -> LiftState:
    """The level-(n+1) state from lifted (r, m) pairs modulo pn = p^(n+1):
    flip each to its minimal representative, check the identity modulo
    _CHECK_Q, and sort."""
    D, q = state.D, _CHECK_Q
    pq = pn % q
    out = []
    for r, m in pairs:
        if 2 * r > pn:
            r, m = pn - r, pn - 2 * r + m
        rq = r % q
        if (rq * rq + D - pq * (m % q)) % q:
            raise LiftInvariantError(
                f"root {r} breaks r^2 + D = p^n m at level {state.n + 1}")
        out.append((r, m))
    roots, cofactors = zip(*sorted(out))
    return LiftState(p=state.p, D=D, n=state.n + 1, min_roots=roots,
                     cofactors=cofactors, pn=pn)


def lift_step_odd(state: LiftState) -> LiftState:
    """Lift every root one level by its next p-adic digit
    d = -m (2r)^-1 mod p, carrying the cofactor exactly."""
    p, pn = state.p, state.pn
    pairs = []
    for r, m in zip(state.min_roots, state.cofactors, strict=True):
        d = -(m % p) * pow(2 * r % p, -1, p) % p
        m2, rem = divmod(m + 2 * d * r + d * d * pn, p)
        if rem:
            raise LiftInvariantError(
                f"digit {d} leaves remainder {rem} at level {state.n + 1}")
        pairs.append((r + d * pn, m2))
    return _next_state(state, pairs, pn * p)


def _two_initial(D: int, n: int) -> LiftState:
    if D % 2 == 0:
        raise ValueError("p = 2 requires odd D")
    if n == 1:
        return LiftState(p=2, D=D, n=1, min_roots=(1,))
    if D % 4 != 3:
        raise NoRootError(f"x^2 = -{D} (mod 4) unsolvable (D = {D % 4} mod 4)")
    if n == 2:
        return LiftState(p=2, D=D, n=2, min_roots=(1,))
    if D % 8 != 7:
        raise NoRootError(f"x^2 = -{D} (mod 8) unsolvable (D = {D % 8} mod 8)")
    return LiftState(p=2, D=D, n=3, min_roots=(1, 3))


def lift_two_step(state: LiftState) -> LiftState:
    """One 2-adic lift; the ladder widens at levels 2 and 3.  From n >= 3
    exactly one of r, r + 2^(n-1) survives mod 2^(n+1): r when m is even."""
    n, pn = state.n, state.pn
    if n < 3:
        return _two_initial(state.D, n + 1)
    half = pn >> 1
    pairs = []
    for r, m in zip(state.min_roots, state.cofactors, strict=True):
        # r is odd, and in the else branch so is m, so both halvings are
        # exact (_next_state's residue check would catch a corrupt one)
        if m % 2 == 0:
            pairs.append((r, m >> 1))
        else:
            pairs.append((r + half, (m + r + (half >> 1)) >> 1))
    return _next_state(state, pairs, pn << 1)


def lift_two(D: int, n: int) -> LiftState:
    """All roots of x^2 + D = 0 (mod 2^n)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    state = _two_initial(D, min(n, 3))
    state.verify()
    while state.n < n:
        state = lift_two_step(state)
    return state


def roots_mod_pn(D: int, p: int, n: int) -> LiftState:
    """Full root set of x^2 + D = 0 (mod p^n) for a prime p not dividing D."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    require_prime(p)
    if D % p == 0:
        raise ValueError(f"p = {p} divides D = {D}")
    if p == 2:
        return lift_two(D, n)
    if legendre(-D % p, p) != 1:
        raise NoSplitError(f"(-{D}|{p}) = -1: no roots at any level")
    pair = sqrt_mod_p(-D % p, p)
    state = LiftState(p=p, D=D, n=1, min_roots=(pair[0],))
    state.verify()
    while state.n < n:
        state = lift_step_odd(state)
    return state
