"""The p = 2 survey loop that visits every level: the test oracle for
run_survey, which jumps between long runs of equal bits of the 2-adic root.

walk_decisions repeats run_survey's p = 2 loop as it walked the bits of S
level by level: levels 1 and 2 from the ladder, then at each level the same
bit-length tests against the running minimum margin, the same rounding
slack and the same rule that drops to the first record.  It returns the
(n, x) of every record that the loop decides by power_compare, in order,
and the number of records.
"""

import math

from rnlab.hensel import least_root, padic_root
from two_adic_ladder import two_ladder

LOG10_2 = math.log10(2)


def record_lengths(S, n_lo, n_hi):
    """Yield (n, the bit lengths of the four records at level n), in
    run_survey's order (r, 2^n - r, 2^(n-1) - r, 2^(n-1) + r), for
    3 <= n_lo <= n <= n_hi, where 0 < S < 2^(n_hi - 1) is a 2-adic root of
    -D and r = least_root(S, n): kept with one look at two bits a level."""
    bits = format(S, "b").zfill(n_hi - 1)[::-1]  # bits[k] is bit k of S
    ell = least_root(S, n_lo).bit_length()
    for n in range(n_lo, n_hi + 1):
        if n > n_lo and bits[n - 2] != bits[n - 3]:
            ell = n - 2
        yield n, (ell, n, n - 1, n)


def walk_decisions(D, sigma, n_max, n_from=1):
    """The (n, x) of each record decided, and the record count, of a p = 2
    survey of D from level n_from to n_max that visits every level."""
    a, b = sigma.numerator, sigma.denominator
    sigma_float = a / b
    calls, records, least = [], 0, math.inf

    def decide(n, x, m):
        nonlocal least
        calls.append((n, x))
        least = min(least, math.log10(m) - math.log10(x) * sigma_float)

    for state, cofactors in two_ladder(D, 2)[n_from - 1:n_max]:
        for r, mr in zip(state.min_roots, cofactors, strict=True):
            y = (1 << state.n) - r
            for x, m in ((r, mr), (y, y - r + mr)) if y != r else ((r, mr),):
                records += 1
                decide(state.n, x, m)
    if n_max < 3:
        return calls, records
    S = padic_root(D, 2, n_max)
    slack = (3 * n_max + D.bit_length() + 4) * 2.0 ** -45
    width = 4
    for n, lengths in record_lengths(S, max(n_from, 3), n_max):
        xs, built = None, 0
        for i in range(width):
            L = lengths[i]
            e = 2 * L - 2 - n
            if b * e >= a * L and \
                    (e - sigma_float * L) * LOG10_2 - slack > least:
                continue
            if xs is None:
                half, r = 1 << (n - 1), least_root(S, n)
                xs = (r, 2 * half - r, half - r, half + r)
            x, built = xs[i], i
            decide(n, x, (x * x + D) >> n)
        if not built:
            width = 1
        records += 4
    return calls, records
