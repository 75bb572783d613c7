"""Roots of x^2 + D = 0 (mod p^n): Tonelli-Shanks plus digit-by-digit lifting.

check_instance gates each instance (D, p); roots_mod_pn and run_survey walk
lift_step, the one place that picks the odd-prime or the 2-adic lift.

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
once, on the first stored pair, modulo the Mersenne prime q = 2^127 - 1,
which catches a corrupted root or cofactor (the divmod remainder cannot: d
is chosen to make it zero).  r and m are reduced by folding (q divides
2^t - 1 when 127 | t), and p^n mod q is carried from level to level, not
read from the state's pn.  The second 2-adic pair is tied to the first
exactly, (2^(n-1) - r, 2^(n-2) - r + m), which implies its identity.
Initial states, and states built from bare roots, get their cofactors by
exact division, which verifies them.  two_adic_root lifts one 2-adic root of
-D by Newton with a coupled inverse, for the survey to read bit by bit.
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


def _mod_check_q(x: int) -> int:
    """x mod _CHECK_Q: fold x = hi 2^t + lo into hi + lo, with 127 | t,
    while x is long (2^t = 1 mod q), then one % on a short x."""
    while x.bit_length() > 1536:
        t = x.bit_length() // 254 * 127
        x = (x >> t) + (x & ((1 << t) - 1))
    return x % _CHECK_Q


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


@dataclass(frozen=True)
class LiftState:
    """Roots of x^2 + D = 0 (mod p^n), one stored per +/- pair.

    cofactors[i] is the exact m with min_roots[i]^2 + D = p^n m, pn is p^n
    and pq is p^n mod _CHECK_Q.  Each is derived when not given; deriving a
    cofactor is an exact division that raises HenselError if the root is not
    one.  Equality compares (p, D, n, min_roots) only.
    """

    p: int
    D: int
    n: int
    min_roots: tuple[int, ...]
    cofactors: tuple[int, ...] | None = field(default=None, compare=False,
                                              repr=False)
    pn: int = field(default=0, compare=False, repr=False)
    pq: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        if not self.pn:
            object.__setattr__(self, "pn", self.p ** self.n)
        if not self.pq:
            object.__setattr__(self, "pq", pow(self.p, self.n, _CHECK_Q))
        if self.cofactors is None:
            cofs = []
            for r in self.min_roots:
                x = r * r + self.D
                # divmod does not shift for a power of two
                m, rem = ((x >> self.n, x & (self.pn - 1)) if self.p == 2
                          else divmod(x, self.pn))
                if rem:
                    raise HenselError(f"invalid root {r} at level {self.n}")
                cofs.append(m)
            object.__setattr__(self, "cofactors", tuple(cofs))

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

    @classmethod
    def _of(cls, p: int, D: int, n: int, min_roots: tuple[int, ...],
            cofactors: tuple[int, ...], pn: int, pq: int) -> LiftState:
        """From all seven fields, already checked: nothing is derived."""
        state = object.__new__(cls)
        state.__dict__.update(p=p, D=D, n=n, min_roots=min_roots,
                              cofactors=cofactors, pn=pn, pq=pq)
        return state


def _next_state(state: LiftState, pairs: list[tuple[int, int]],
                pn: int) -> LiftState:
    """The level-(n+1) state from lifted (r, m) pairs modulo pn = p^(n+1):
    flip each to its minimal representative and sort.  The first pair's
    identity is checked modulo _CHECK_Q against the carried p^(n+1) mod
    _CHECK_Q; a 2-adic second pair must be (pn/2 - r, pn/4 - r + m)."""
    D, p, q = state.D, state.p, _CHECK_Q
    pq = state.pq * p % q
    half = pn >> 1
    out = []
    for r, m in pairs:
        if r > half:
            y = pn - r
            r, m = y, y - r + m
        out.append((r, m))
    out.sort()
    r, m = out[0]
    rq = _mod_check_q(r)
    if (rq * rq + D - pq * _mod_check_q(m)) % q:
        raise LiftInvariantError(
            f"root {r} breaks r^2 + D = p^n m at level {state.n + 1}")
    for r2, m2 in out[1:]:
        if p != 2 or r + r2 != half or m2 - m != (half >> 1) - r:
            raise LiftInvariantError(
                f"root {r2} is not tied to root {r} at level {state.n + 1}")
    roots, cofactors = zip(*out)
    return LiftState._of(p, D, state.n + 1, roots, cofactors, pn, pq)


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
    for q in (4, 8)[:n - 1]:  # roots mod 4 need D = 3, mod 8 need D = 7
        if D % q != q - 1:
            raise NoRootError(f"x^2 = -{D} (mod {q}) unsolvable "
                              f"(D = {D % q} mod {q})")
    return LiftState(p=2, D=D, n=n, min_roots=(1, 3) if n == 3 else (1,))


def lift_two_step(state: LiftState) -> LiftState:
    """One 2-adic lift; the ladder widens at levels 2 and 3.  From n >= 3
    exactly one of r, r + 2^(n-1) survives mod 2^(n+1): r when m is even."""
    n, pn = state.n, state.pn
    if n < 3:
        return _two_initial(state.D, n + 1)
    half = pn >> 1
    quarter = half >> 1
    pairs = []
    for r, m in zip(state.min_roots, state.cofactors, strict=True):
        # r is odd, and in the first branch so is m, so both halvings are
        # exact (_next_state's checks would catch a corrupt one)
        if m & 1:
            pairs.append((r + half, (m + r + quarter) >> 1))
        else:
            pairs.append((r, m >> 1))
    return _next_state(state, pairs, pn << 1)


def two_adic_root(state: LiftState, N: int) -> int:
    """S with 0 < S < 2^(N-1) and S^2 + D = 0 (mod 2^N), for N >= n, by
    Newton from the first root r of a level-n >= 3 state, so S = r mod
    2^(n-1).  A root u mod 2^k becomes u - 2^(k-1) t mod 2^(2k-2) with
    t = ((u^2 + D)/2^k) / u mod 2^(k-2), and 1/u is carried alongside by
    w <- w (2 - u w): no modular inverse.  S is not checked here; the
    caller checks S^2 + D = 0 (mod 2^N) once."""
    D, k, u = state.D, state.n, state.min_roots[0]
    w, j = u & 7, 3  # odd u is its own inverse mod 8
    while j < k - 2:
        j *= 2
        w = w * (2 - u * w) & ((1 << j) - 1)
    while k < N:
        k2 = min(2 * k - 2, N)
        t = ((u * u + D) >> k) * w & ((1 << (k2 - k)) - 1)
        u = (u - (t << (k - 1))) & ((1 << (k2 - 1)) - 1)
        w = w * (2 - u * w) & ((1 << (k2 - 2)) - 1)
        k = k2
    return u & ((1 << (N - 1)) - 1)


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


def roots_mod_pn(D: int, p: int, n: int) -> LiftState:
    """Full root set of x^2 + D = 0 (mod p^n) for a prime p not dividing D."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_instance(D, p)
    # check_instance has proven p prime and -D a residue mod an odd p
    state = (_two_initial(D, 1) if p == 2 else LiftState(
        p=p, D=D, n=1, min_roots=(_sqrt_mod_prime(-D % p, p)[0],)))
    state.verify()
    while state.n < n:
        state = lift_step(state)
    return state


def lift_two(D: int, n: int) -> LiftState:
    """All roots of x^2 + D = 0 (mod 2^n)."""
    return roots_mod_pn(D, 2, n)
