"""Per-exponent survey of m = (x^2 + D)/p^n against m > x^sigma.

For each n up to n_max the Hensel roots are enumerated (two per level for
an odd split prime, up to four for p = 2) with their exact cofactors m
(the complement p^n - r has cofactor p^n - 2r + m), and power_compare
decides m > x^(a/b) exactly.  Only residues 0 < x < p^n are tested: any
larger x in the class has m > x^2/p^n >= x > x^sigma automatically.

run_survey gates (D, p) by hensel.check_instance.  For odd p it walks the
odd ladder, hensel.lift_step, which carries each cofactor unchecked, and
verifies exactly each state it checkpoints and the last before the report.
For p = 2 it walks the ladder to level 3, then reads every later level
from the bits of the 2-adic root S of hensel.padic_root(D, 2, n_max),
checked there exactly.  A record of bit length L at level n has
m > 2^(2L-2-n); only records this bound cannot settle, or that could
lower the minimum margin, are built and decided exactly.  Once the three
wide records of a level settle, later levels test only the least root,
whose length is n - 1 - t for the run t of equal bits of S ending at bit
n - 2.  The minimum margin gives a run length g below which every later
level settles, so the survey jumps by str.find to the next run of g equal
bits, stopping at checkpoints and n_max: a linear scan of S's bits plus
one visit per long run, not one per level.  A checkpoint stores the lift
state's roots as a small versioned JSON blob; restore recomputes, and so
verifies, the cofactors.  A resumed state must be of (D, p), at
n <= n_max and pass LiftState.verify, which run_survey checks before any
other outcome.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from typing import NamedTuple

# lift_step_odd is not called here: the benchmark self-test traces it here
from .hensel import (HenselError, LiftInvariantError, LiftState, NoRootError,
                     NoSplitError, check_instance, least_root, lift_step,
                     lift_step_odd, padic_root, roots_mod_pn,
                     two_adic_state)

BLOB_VERSION = 1

_LOG10_2 = math.log10(2)

METHOD_NOTE = ("minimal residues 0 < x < p^n only; for x >= p^n the cofactor "
               "m = (x^2+D)/p^n > x^2/p^n >= x > x^sigma holds automatically")


class InvalidSigmaError(ValueError):
    pass


class CorruptBlobError(ValueError):
    pass


def power_compare(m: int, x: int, a: int, b: int) -> bool:
    """Decide m > x^(a/b) exactly, i.e. m^b > x^a.

    A bit-length pre-check settles almost every case without forming the
    big powers.  Past it, with a/b in lowest terms, equal powers are found
    by _equal_powers, and unequal ones separate as enclosures of k bits
    (_power_ends), k doubled from 64: at the latest when k reaches the
    powers' length, where nothing rounds.
    """
    if m < 1 or x < 1:
        raise ValueError("m and x must be >= 1")
    if not 0 < a < b:
        raise ValueError(f"need 0 < a < b, got a={a}, b={b}")
    blm, blx = m.bit_length(), x.bit_length()
    if b * (blm - 1) >= a * blx:
        return True  # m^b >= 2^(b(blm-1)) >= 2^(a blx) > x^a
    if b * blm <= a * (blx - 1):
        return False  # m^b < 2^(b blm) <= 2^(a(blx-1)) <= x^a
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if _equal_powers(m, a, x, b):
        return False
    k = 64
    while True:
        m_lo, m_hi = _power_ends(m, b, k)
        x_lo, x_hi = _power_ends(x, a, k)
        if m_lo > x_hi:
            return True
        if m_hi < x_lo:
            return False
        k *= 2


def _equal_powers(m: int, a: int, x: int, b: int) -> bool:
    """m^b = x^a for coprime 0 < a < b, which holds exactly when m = t^a and
    x = t^b for an integer t.  Euclid's algorithm on (a, b) finds t: with
    b = qa + r, x = m^q t^r, so m^q must divide x, and then x / m^q and m
    are t^r and t^a for the coprime pair r < a.  At r = 0, t^0 must be 1.
    No power formed exceeds x."""
    while a:
        q, r = divmod(b, a)
        if q * (m.bit_length() - 1) >= x.bit_length():
            return False  # m^q >= 2^(q(bitlen(m)-1)) > x
        x, rest = divmod(x, m ** q)
        if rest:
            return False
        m, a, x, b = x, r, m, a
    return m == 1


def _power_ends(x: int, e: int, k: int) -> tuple[tuple[int, int], ...]:
    """Ends lo <= x^e <= hi, each an (exponent s, mantissa u) pair of value
    u 2^s with 2^(k-1) <= u < 2^k, so that two ends compare as tuples as
    their values do.  Square and multiply, each product rounded down for
    lo and up for hi."""
    ends = []
    for up in (False, True):
        base = acc = _round(x, 0, k, up)
        for bit in bin(e)[3:]:
            acc = _round(acc[1] * acc[1], 2 * acc[0], k, up)
            if bit == "1":
                acc = _round(acc[1] * base[1], acc[0] + base[0], k, up)
        ends.append(acc)
    return tuple(ends)


def _round(u: int, s: int, k: int, up: bool) -> tuple[int, int]:
    """u 2^s, u >= 1, as (exponent, mantissa of k bits), rounded down, or
    up if up."""
    shift = u.bit_length() - k
    if shift <= 0:
        return s + shift, u << -shift
    v = u >> shift
    if up and u & ((1 << shift) - 1):
        v += 1
        if v >> k:  # 2^k: one bit more
            v >>= 1
            shift += 1
    return s + shift, v


class SurveyRecord(NamedTuple):
    n: int
    x: int
    m: int
    passed: bool

    def to_json_dict(self) -> dict:
        x = str(self.x)  # decimal conversion is quadratic in CPython
        return {"n": self.n, "x": x, "m": str(self.m),
                "digits_x": len(x), "passed": self.passed}


class SurveyReport(NamedTuple):
    D: int
    p: int
    sigma: Fraction
    n_from: int
    n_max: int
    no_split: bool
    records_checked: int
    exceptions: tuple[SurveyRecord, ...]
    min_margin: dict | None
    method_note: str
    wall_time: float  # informational; excluded from canonical serialization

    def exception_x_values(self) -> set[int]:
        return {rec.x for rec in self.exceptions}

    def to_json_dict(self) -> dict:
        # deterministic payload: wall time deliberately left out so repeated
        # runs serialize byte-identically
        return {
            "schema": "rnlab.survey/1",
            "D": self.D,
            "p": self.p,
            "sigma": f"{self.sigma.numerator}/{self.sigma.denominator}",
            "n_from": self.n_from,
            "n_max": self.n_max,
            "no_split": self.no_split,
            "counts": {"records": self.records_checked,
                       "exceptions": len(self.exceptions)},
            "exceptions": [rec.to_json_dict() for rec in self.exceptions],
            "min_margin": self.min_margin,
            "method_note": self.method_note,
        }


def run_survey(D: int, p: int, sigma: Fraction, n_max: int,
               resume: LiftState | None = None,
               checkpoint_cb=None, checkpoint_every: int = 200) -> SurveyReport:
    """Survey all factorizations x^2 + D = p^n m for n up to n_max.

    resume continues from a previously checkpointed lift state (the report
    then covers the continued range only).  checkpoint_cb, when given,
    receives the current LiftState every checkpoint_every levels and once
    at the end.
    """
    sigma = Fraction(sigma)
    if not 0 < sigma < 1:
        raise InvalidSigmaError(f"sigma must lie in (0, 1), got {sigma}")
    try:
        check_instance(D, p)
        split = True
    except NoSplitError:
        split = False
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1: {checkpoint_every}")

    started = time.perf_counter()
    a, b = sigma.numerator, sigma.denominator
    sigma_float = a / b

    if resume is not None:
        if resume.D != D or resume.p != p:
            raise CorruptBlobError(
                f"resume state is for (D={resume.D}, p={resume.p}), "
                f"requested (D={D}, p={p})")
        if resume.n > n_max:
            raise CorruptBlobError(
                f"resume state is at n = {resume.n}, past n_max = {n_max}")
        try:
            resume.verify()
        except HenselError as exc:
            raise CorruptBlobError(f"resume state is invalid: {exc}") from exc

    if not split:
        return SurveyReport(
            D=D, p=p, sigma=sigma, n_from=1, n_max=n_max, no_split=True,
            records_checked=0, exceptions=(), min_margin=None,
            method_note=METHOD_NOTE + "; prime does not split: nothing to survey",
            wall_time=time.perf_counter() - started)

    state = resume if resume is not None else roots_mod_pn(D, p, 1)
    n_from = state.n

    exceptions: list[SurveyRecord] = []
    records = 0
    least, least_at = math.inf, None  # the minimum margin and its (n, x)
    ladder_end_note = ""

    def decide(n: int, x: int, m: int) -> None:
        nonlocal least, least_at
        if not power_compare(m, x, a, b):
            exceptions.append(SurveyRecord(n=n, x=x, m=m, passed=False))
        margin = math.log10(m) - math.log10(x) * sigma_float
        if margin < least:
            least, least_at = margin, (n, x)

    def checkpoint_due(n: int) -> bool:
        return checkpoint_cb is not None and n > n_from and \
            (n - n_from) % checkpoint_every == 0

    def check_state(state: LiftState) -> None:
        # one exact check of a ladder state proves every level before it
        # (hensel), so no corrupted state reaches a checkpoint or the report
        try:
            state.verify()
        except HenselError as exc:
            raise LiftInvariantError(
                f"ladder at level {state.n}: {exc}") from exc

    try:
        while True:
            n, pn = state.n, state.pn
            if p == 2 and n >= 3:
                break  # the bits of one 2-adic root give every later level
            for r, mr in zip(state.min_roots, state.cofactors, strict=True):
                y = pn - r  # y^2 + D = p^n (y - r + m_r)
                pairs = ((r, mr), (y, y - r + mr)) if y != r else ((r, mr),)
                for x, m in pairs:
                    records += 1
                    decide(n, x, m)
            if checkpoint_due(n):
                check_state(state)
                checkpoint_cb(state)
            if n >= n_max:
                break
            try:
                state = lift_step(state)
            except NoRootError as exc:
                ladder_end_note = f"; ladder ends at n = {n}: {exc}"
                break
    finally:  # also a corrupted state that stopped the walk is reported
        if state is not resume:  # which passed verify above
            check_state(state)
    if p == 2 and state.n >= 3:
        S, _ = padic_root(D, 2, n_max)
        bits = format(S, "b").zfill(n_max - 1)[::-1]  # bits[k] is bit k of S
        # at a level n <= n_max, x < 2^n and m < 2^n + D, so rounding moves
        # a computed margin and its computed bound below by less than
        # 2^-48 (n + len(D) + 1) together; the slack is 8 times that
        slack = (3 * n_max + D.bit_length() + 4) * 2.0 ** -45
        # records of lengths n, n - 1, n that pass both tests at one level
        # pass them at every later one: b e - a L and the exact bound grow
        # with n, least only falls, and the slack covers two roundings
        n, width = state.n, 4
        while True:
            lengths, xs, built = _level_lengths(bits, n), None, 0
            for i in range(width):
                L = lengths[i]
                # x >= 2^(L-1), so m > 2^e: power_compare's first test
                # passes when b e >= a L, and the margin exceeds
                # (e - sigma L) log10(2)
                e = 2 * L - 2 - n
                if b * e >= a * L and \
                        (e - sigma_float * L) * _LOG10_2 - slack > least:
                    continue
                if xs is None:
                    half, r = 1 << (n - 1), least_root(S, n)
                    xs = (r, 2 * half - r, half - r, half + r)
                x, built = xs[i], i
                m = x * x + D
                if m & (2 * half - 1):
                    raise LiftInvariantError(
                        f"record {i} ({x.bit_length()} bits) is no root at "
                        f"level {n}")
                decide(n, x, m >> n)
            if not built:
                width = 1
            records += 4
            if checkpoint_due(n):
                checkpoint_cb(two_adic_state(D, n, S))
            if n == n_max:
                break
            nxt = n + 1
            if width == 1:
                # a later level n' can fail only if bits n' - 1 - g to n' - 2
                # of S are equal: jump to the first such level, or to the
                # next checkpoint or n_max if that comes first
                stop = n_max
                if checkpoint_cb is not None:
                    stop = min(stop, n + checkpoint_every
                               - (n - n_from) % checkpoint_every)
                g = _run_bound(nxt, least, a, b, slack)
                # bits L - 1 and L differ unless L = 1, so a run that
                # reaches bit n - 1 starts no lower than bit L - 1
                lo = max(nxt - 1 - g, lengths[0] - 1)
                nxt = min([stop] + [k + g + 1 for k in (
                    bits.find(c * g, lo, stop - 1) for c in "01") if k >= 0])
            records += 4 * (nxt - n - 1)
            n = nxt
        if checkpoint_cb is not None:
            state = two_adic_state(D, n_max, S)
    if checkpoint_cb is not None:
        checkpoint_cb(state)
    min_margin = None if least_at is None else {
        "n": least_at[0], "x": str(least_at[1]), "log10_ratio": least}

    return SurveyReport(
        D=D, p=p, sigma=sigma, n_from=n_from, n_max=n_max, no_split=False,
        records_checked=records, exceptions=tuple(exceptions),
        min_margin=min_margin, method_note=METHOD_NOTE + ladder_end_note,
        wall_time=time.perf_counter() - started)


def _level_lengths(bits: str, n: int) -> tuple[int, int, int, int]:
    """The bit lengths of the four records at level n >= 3, in run_survey's
    order (r, 2^n - r, 2^(n-1) - r, 2^(n-1) + r), where bits[k] is bit k of
    a 2-adic root S of -D and r = least_root(S, n).  The length of r is 1
    plus the index of the highest bit below n - 2 that differs from bit
    n - 2, or 1 if none does."""
    k = bits.rfind("1" if bits[n - 2] == "0" else "0", 0, n - 2)
    return k + 1 or 1, n, n - 1, n


def _run_bound(n: int, least: float, a: int, b: int, slack: float) -> int:
    """A run length g >= 1 such that each level n' from n to n_max passes
    both of run_survey's skip tests for its least root against least when
    the run of equal bits of S from bit n' - 2 down is shorter than g; 1,
    which spares no level, while least is infinite."""
    if least == math.inf:
        return 1
    # the root has length L >= n' - 1 - t for the run t, and with
    # e = 2L - 2 - n' both b e - a L and (e - sigma L) log10(2) grow with L
    # and with n' (a < b), so it passes if L = n - 1 - t passes at n.  There
    # b e >= a L reads (2b - a) t <= (b - a) n - 4b + a, and the margin test
    # holds before rounding for t < T, T as below with least + slack.  As
    # |least| < n_max + len(D), its roundings and those of T move a margin
    # by under (n_max + len(D) + 3) 2^-49, a sixteenth of slack: the second
    # slack in T guards them
    sigma = a / b
    T = ((1 - sigma) * n - 4 + sigma - (least + 2 * slack) / _LOG10_2) \
        / (2 - sigma)
    return max(1, min(((b - a) * n - 4 * b + a) // (2 * b - a) + 1,
                      math.ceil(T)))


def checkpoint(state: LiftState) -> str:
    """Serialize a lift state as a versioned JSON blob."""
    return json.dumps({
        "version": BLOB_VERSION,
        "D": state.D,
        "p": state.p,
        "n": state.n,
        "roots": [str(r) for r in state.min_roots],
    }, sort_keys=True, separators=(",", ":"))


def restore(blob: str) -> LiftState:
    """Rebuild a lift state from a blob, validating every stored root.

    version, D, p and n must be JSON integers and the roots strings of ASCII
    digits, as checkpoint writes them.  The stored roots must be the complete
    minimal set for level n; each cofactor is recomputed by one exact
    division, which verifies its root.  run_survey checks the instance.
    """
    try:
        data = json.loads(blob)
        version, D, p, n, roots = (data[key] for key in
                                   ("version", "D", "p", "n", "roots"))
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptBlobError(f"unreadable resume blob: {exc}") from exc
    for key, value in (("version", version), ("D", D), ("p", p), ("n", n)):
        if type(value) is not int:  # not bool either: JSON true reads as 1
            raise CorruptBlobError(f"blob {key} is not an integer")
    if type(roots) is not list or not all(
            type(r) is str and r.isascii() and r.isdigit() for r in roots):
        raise CorruptBlobError("blob roots are not strings of decimal digits")
    roots = tuple(map(int, roots))
    if version != BLOB_VERSION:
        raise CorruptBlobError(f"unsupported blob version {version}")
    if n < 1 or p < 2:
        raise CorruptBlobError(f"blob has level n = {n}, p = {p}")
    # the root count and, as a root r at level n has r^2 + D >= p^n, n
    # against the stored digits, are checked before p^n is formed
    want = LiftState.pair_count(p, n)
    if len(roots) != want:
        raise CorruptBlobError(f"blob has {len(roots)} roots at level {n}, "
                               f"the ladder has {want}")
    if n * (p.bit_length() - 1) >= (max(roots) ** 2 + D).bit_length():
        raise CorruptBlobError(f"blob level n = {n} exceeds its roots' size")
    try:
        state = LiftState(p=p, D=D, n=n, min_roots=roots)
        state.check_ladder()
    except HenselError as exc:
        raise CorruptBlobError(f"blob roots are invalid: {exc}") from exc
    return state
