"""The 2-adic digit ladder past level 3: the test oracle for padic_root.

A rung is a LiftState with the exact cofactor m of each stored root r,
r^2 + D = 2^n m, carried from rung to rung.  From level n >= 3, D = 7
(mod 8), exactly one of r, r + 2^(n-1) is a root mod 2^(n+1) for each
stored root r: r when its cofactor m is even, else r + 2^(n-1) with
cofactor (m + r + 2^(n-2))/2.  Each lifted root is flipped to its minimal
representative and the pairs are sorted, so the states equal those of
hensel.roots_mod_pn.  Below level 3 the ladder is hensel's table
(hensel.lift_two_step), each cofactor a shift.
"""

from rnlab.hensel import LiftState, lift_two_step


def two_ladder_step(state: LiftState, cofactors: tuple[int, ...]
                    ) -> tuple[LiftState, tuple[int, ...]]:
    """One level of the 2-adic ladder, carrying each cofactor exactly: the
    (state, cofactors) of level n + 1."""
    n, pn = state.n, 1 << state.n
    if n < 3:
        state = lift_two_step(state)
        return state, tuple((r * r + state.D) >> state.n
                            for r in state.min_roots)
    half, quarter = pn >> 1, pn >> 2
    pairs = []
    for r, m in zip(state.min_roots, cofactors, strict=True):
        r, m = (r + half, (m + r + quarter) >> 1) if m & 1 else (r, m >> 1)
        if r > pn:  # pn is half the new modulus
            y = 2 * pn - r
            r, m = y, y - r + m
        pairs.append((r, m))
    roots, cofactors = zip(*sorted(pairs))
    return LiftState(p=2, D=state.D, n=n + 1, min_roots=roots), cofactors


def two_ladder(D: int, top: int) -> list[tuple[LiftState, tuple[int, ...]]]:
    """The ladder (state, cofactors) of x^2 + D at levels 1..top, index
    n - 1."""
    rungs = [(LiftState(p=2, D=D, n=1, min_roots=(1,)), ((1 + D) >> 1,))]
    while len(rungs) < top:
        rungs.append(two_ladder_step(*rungs[-1]))
    return rungs
