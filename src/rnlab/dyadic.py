"""Directed rounding to k bits: the one kernel under every certified verdict.

A k-bit dyadic is (m, e), of value m * 2**e with 2**(k-1) <= |m| < 2**k,
so two are equal exactly when their values are.  round_bits rounds an
integer and round_quotient a positive quotient toward -inf, or +inf if
up, each correctly (Brent and Zimmermann, Modern Computer Arithmetic,
section 3.1).  survey and rigor both read it; it imports nothing, so
survey need not import rigor.
"""


def round_bits(v: int, k: int, up: bool) -> tuple[int, int]:
    """v rounded down, or up if up, to k bits as (m, e); m = 0 for v = 0."""
    if v < 0:
        m, e = round_bits(-v, k, not up)
        return -m, e
    shift = v.bit_length() - k
    if shift <= 0:
        return v << -shift, shift
    m = v >> shift
    if up and m << shift != v:
        m += 1
        if m >> k:  # 2**k: one bit more
            return m >> 1, shift + 1
    return m, shift


def round_quotient(a: int, b: int, k: int, up: bool) -> tuple[int, int]:
    """a/b > 0 rounded down, or up if up, to k bits as (m, e)."""
    # a * 2**s / b lies in (2**(k - 1), 2**(k + 1))
    s = k + b.bit_length() - a.bit_length()
    q, rem = divmod(a << s, b) if s >= 0 else divmod(a, b << -s)
    if q >> k:
        q, rem, s = q >> 1, rem or q & 1, s - 1
    if up and rem:
        q += 1
        if q >> k:  # 2**k: one bit more
            q, s = q >> 1, s - 1
    return q, -s
