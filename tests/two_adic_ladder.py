"""The 2-adic digit ladder past level 3: the test oracle for padic_root.

From level n >= 3, D = 7 (mod 8), exactly one of r, r + 2^(n-1) is a root
mod 2^(n+1) for each stored root r: r when its cofactor m is even, else
r + 2^(n-1) with cofactor (m + r + 2^(n-2))/2.  Each lifted root is flipped
to its minimal representative and the pairs are sorted, so the states
compare equal, cofactors included, to those of hensel.roots_mod_pn.
Below level 3 the ladder is hensel's table (hensel.lift_step).
"""

from rnlab.hensel import LiftState, lift_step


def two_ladder_step(state: LiftState) -> LiftState:
    """One level of the 2-adic ladder, carrying each cofactor exactly."""
    n, pn = state.n, state.pn
    if n < 3:
        return lift_step(state)
    half, quarter = pn >> 1, pn >> 2
    pairs = []
    for r, m in zip(state.min_roots, state.cofactors, strict=True):
        r, m = (r + half, (m + r + quarter) >> 1) if m & 1 else (r, m >> 1)
        if r > pn:  # pn is half the new modulus
            y = 2 * pn - r
            r, m = y, y - r + m
        pairs.append((r, m))
    roots, cofactors = zip(*sorted(pairs))
    return LiftState(p=2, D=state.D, n=n + 1, min_roots=roots,
                     cofactors=cofactors, pn=pn << 1)


def two_ladder(D: int, top: int) -> list[LiftState]:
    """The ladder states of x^2 + D at levels 1..top, index n - 1."""
    states = [LiftState(p=2, D=D, n=1, min_roots=(1,))]
    while len(states) < top:
        states.append(two_ladder_step(states[-1]))
    return states
