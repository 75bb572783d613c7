"""Per-exponent survey of m = (x^2 + D)/p^n against m > x^sigma.

For each n up to n_max the Hensel roots are enumerated (two per level for
an odd split prime, up to four for p = 2) with their exact cofactors m,
which the lift carries from level to level (the complement p^n - r has
cofactor p^n - 2r + m), and the test m > x^(a/b) is decided by exact
integer powers with a bit-length shortcut.  Only residues 0 < x < p^n are
tested: any larger x in the class has m > x^2/p^n >= x > x^sigma
automatically.

Long runs checkpoint the lift state as a small versioned JSON blob; the
cofactors are not stored but recomputed, and thereby verified, on restore.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .hensel import (HenselError, LiftState, NoRootError, legendre,
                     lift_step_odd, lift_two_step, require_prime,
                     roots_mod_pn)

BLOB_VERSION = 1

METHOD_NOTE = ("minimal residues 0 < x < p^n only; for x >= p^n the cofactor "
               "m = (x^2+D)/p^n > x^2/p^n >= x > x^sigma holds automatically")


class InvalidSigmaError(ValueError):
    pass


class CorruptBlobError(ValueError):
    pass


def power_compare(m: int, x: int, a: int, b: int) -> bool:
    """Decide m > x^(a/b) exactly, i.e. m^b > x^a.

    A bit-length pre-check settles almost every case without forming the
    big powers; the fallback is the exact integer comparison, so the
    result always equals the exact one.
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
    return m ** b > x ** a


@dataclass(frozen=True)
class SurveyRecord:
    n: int
    x: int
    m: int
    passed: bool

    @property
    def digits_x(self) -> int:
        return len(str(self.x))

    def to_json_dict(self) -> dict:
        x = str(self.x)  # decimal conversion is quadratic in CPython
        return {"n": self.n, "x": x, "m": str(self.m),
                "digits_x": len(x), "passed": self.passed}


@dataclass(frozen=True)
class SurveyReport:
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
    require_prime(p)
    if D < 1:
        raise ValueError(f"D must be positive, got {D}")
    if D % p == 0:
        raise ValueError(f"p = {p} divides D = {D}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")

    started = time.perf_counter()
    a, b = sigma.numerator, sigma.denominator

    if p != 2 and legendre(-D % p, p) != 1:
        return SurveyReport(
            D=D, p=p, sigma=sigma, n_from=1, n_max=n_max, no_split=True,
            records_checked=0, exceptions=(), min_margin=None,
            method_note=METHOD_NOTE + "; prime does not split: nothing to survey",
            wall_time=time.perf_counter() - started)

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
        state = resume
    else:
        state = roots_mod_pn(D, p, 1)
    n_from = state.n

    exceptions: list[SurveyRecord] = []
    records = 0
    min_margin: dict | None = None
    ladder_end_note = ""
    while True:
        n, pn = state.n, state.pn
        for r, mr in zip(state.min_roots, state.cofactors, strict=True):
            pair = [(r, mr)]
            if 2 * r != pn:  # (p^n - r)^2 + D = p^n (p^n - 2r + m_r)
                pair.append((pn - r, pn - 2 * r + mr))
            for x, m in pair:
                records += 1
                passed = power_compare(m, x, a, b)
                if not passed:
                    exceptions.append(SurveyRecord(n=n, x=x, m=m, passed=False))
                margin = math.log10(m) - math.log10(x) * (a / b)
                if min_margin is None or margin < min_margin["log10_ratio"]:
                    min_margin = {"n": n, "x": str(x), "log10_ratio": margin}
        if checkpoint_cb is not None and (n - n_from) % checkpoint_every == 0 \
                and n > n_from:
            checkpoint_cb(state)
        if n >= n_max:
            break
        try:
            state = lift_step_odd(state) if p != 2 else lift_two_step(state)
        except NoRootError as exc:
            ladder_end_note = f"; ladder ends at n = {n}: {exc}"
            break
    if checkpoint_cb is not None:
        checkpoint_cb(state)

    return SurveyReport(
        D=D, p=p, sigma=sigma, n_from=n_from, n_max=n_max, no_split=False,
        records_checked=records, exceptions=tuple(exceptions),
        min_margin=min_margin, method_note=METHOD_NOTE + ladder_end_note,
        wall_time=time.perf_counter() - started)


def checkpoint(state: LiftState) -> str:
    """Serialize a lift state as a versioned JSON blob."""
    return json.dumps({
        "version": BLOB_VERSION,
        "D": state.D,
        "p": state.p,
        "n": state.n,
        "roots": [str(r) for r in state.min_roots],
    }, sort_keys=True, separators=(",", ":"))


def restore(blob: str, expect_D: int | None = None,
            expect_p: int | None = None) -> LiftState:
    """Rebuild a lift state from a blob, validating every stored root.

    The stored roots must be the complete minimal set for level n; each
    cofactor is recomputed by one exact division, which verifies its root.
    """
    try:
        data = json.loads(blob)
        version = data["version"]
        D, p, n = int(data["D"]), int(data["p"]), int(data["n"])
        roots = tuple(int(r) for r in data["roots"])
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CorruptBlobError(f"unreadable resume blob: {exc}") from exc
    if version != BLOB_VERSION:
        raise CorruptBlobError(f"unsupported blob version {version}")
    if expect_D is not None and D != expect_D:
        raise CorruptBlobError(f"blob D = {D}, expected {expect_D}")
    if expect_p is not None and p != expect_p:
        raise CorruptBlobError(f"blob p = {p}, expected {expect_p}")
    if n < 1 or p < 2:
        raise CorruptBlobError(f"blob has level n = {n}, p = {p}")
    # a root r at level n has r^2 + D >= p^n: bound n by the stored digits
    # before p^n is formed
    if roots and n * (p.bit_length() - 1) >= \
            (max(roots) ** 2 + D).bit_length():
        raise CorruptBlobError(f"blob level n = {n} exceeds its roots' size")
    try:
        state = LiftState(p=p, D=D, n=n, min_roots=roots)
        state.check_ladder()
    except HenselError as exc:
        raise CorruptBlobError(f"blob roots are invalid: {exc}") from exc
    return state
