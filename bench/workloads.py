"""The four benchmark workloads: seeded inputs, job lists and report checks.

A workload's job list is a sequence of CLI invocations.  Each invocation
goes through ``call(argv, check)``, which runs ``rnlab.cli.main`` and hands
the exit code and parsed JSON report to ``check``; ``check`` returns None
when the report is right and a reason string when it is not.  Follow-up
invocations that depend on an earlier report (certify at the ends of a
max-sigma enclosure) run only when that report passed its check.

Only ``certify-sweep`` depends on the seed: it picks the instance order and
the sigma of each instance's ``certify`` call.  The other three workloads
run the same inputs for every seed.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

NAMES = ("survey-odd", "survey-two", "pade-audit", "certify-sweep")

# job sizes; the self-test passes smaller ones
SURVEY_ODD_N_MAX = 900
SURVEY_ODD_LEG = 100
SURVEY_TWO_N_MAX = 6000
SURVEY_TWO_LEG = 500
PADE_J_MAX = 32
PADE_ABC_MAX = 6
AUDIT_LEVELS = (300, 600, 900)
SWEEP_P_MAX = 400
SWEEP_D_MAX = 500
SWEEP_N0_MAX = 40

ANCHOR = (76, 101, 1015, 3)  # (D, p, x0, n0): 1015^2 + 76 = 101^3
ANCHOR_5J = (Fraction("0.1078208"), Fraction("0.1078218"))
SIGMA_MAX = Fraction("0.847")

# (n, x, m) of every survey record with m <= x^sigma
SURVEY_ODD_EXCEPTIONS = ((1, 5, 1), (2, 1015, 101), (3, 1015, 1),
                         (4, 10304025, 1020301), (5, 1030299985, 100999801))
SURVEY_TWO_EXCEPTIONS = ((3, 1, 1), (4, 3, 1), (4, 5, 2), (5, 5, 1),
                         (6, 11, 2), (7, 11, 1), (12, 181, 8), (13, 181, 4),
                         (14, 181, 2), (15, 181, 1))
# c_0(j) for j = 1, 2, 3, as stated in the README
KNOWN_CONTENTS = {1: 1, 2: 9, 3: 13}

Check = Callable[[int, dict], "str | None"]
Call = Callable[[list, Check], "dict | None"]


@dataclass(frozen=True)
class Survey:
    """A survey up to n_max run as legs of ``leg`` levels: each leg resumes
    from the checkpoint blob the previous one left, as a long survey does.
    A checkpoint interval of n_max, longer than any leg, makes each leg
    write only its final blob."""

    D: int
    p: int
    sigma: str
    n_max: int
    leg: int
    exceptions: tuple
    blob_path: str

    def argv(self, n_to: int) -> list:
        return ["survey", "--D", str(self.D), "--p", str(self.p),
                "--sigma", self.sigma, "--n-max", str(n_to),
                "--resume", self.blob_path,
                "--checkpoint-every", str(self.n_max), "--format", "json"]

    def records(self, n_from: int, n_to: int) -> int:
        """Records of levels n_from..n_to: 2 a level for odd p; for p = 2,
        1, 2 and then 4 a level (4 n_to - 5 from level 1)."""
        if self.p != 2:
            return 2 * (n_to - n_from + 1)
        return 4 * n_to - 5 if n_from == 1 else 4 * (n_to - n_from + 1)


@dataclass(frozen=True)
class PadeAudit:
    j_max: int
    abc_max: int
    roots: tuple  # (n, x) pairs with x^2 + 76 = 0 (mod 101^n)


@dataclass(frozen=True)
class Sweep:
    instances: tuple  # (D, p, x0, n0) in seeded order
    sigmas: tuple  # one seeded sigma per instance


# ---------------------------------------------------------------------------
# input generation


def make_inputs(name: str, seed: int, out_dir: str, **sizes):
    """Inputs of one workload; ``out_dir`` is a directory for checkpoints."""
    if name == "survey-odd":
        return Survey(76, 101, "9/10", sizes.get("n_max", SURVEY_ODD_N_MAX),
                      sizes.get("leg", SURVEY_ODD_LEG), SURVEY_ODD_EXCEPTIONS,
                      os.path.join(out_dir, "survey-odd.ckpt"))
    if name == "survey-two":
        return Survey(7, 2, "1/2", sizes.get("n_max", SURVEY_TWO_N_MAX),
                      sizes.get("leg", SURVEY_TWO_LEG), SURVEY_TWO_EXCEPTIONS,
                      os.path.join(out_dir, "survey-two.ckpt"))
    if name == "pade-audit":
        levels = sizes.get("levels", AUDIT_LEVELS)
        D, p = ANCHOR[0], ANCHOR[1]
        roots = []
        for n in levels:
            r = padic_sqrt_neg(D, p, n)
            roots += [(n, r), (n, p ** n - r)]
        return PadeAudit(sizes.get("j_max", PADE_J_MAX),
                         sizes.get("abc_max", PADE_ABC_MAX), tuple(roots))
    if name == "certify-sweep":
        instances = base_solutions(sizes.get("p_max", SWEEP_P_MAX),
                                   sizes.get("d_max", SWEEP_D_MAX),
                                   sizes.get("n0_max", SWEEP_N0_MAX))
        rng = random.Random(seed)
        rng.shuffle(instances)
        sigmas = tuple(Fraction(rng.randrange(1, 847), 1000) for _ in instances)
        return Sweep(tuple(instances), sigmas)
    raise ValueError(f"unknown workload {name!r}")


def padic_sqrt_neg(D: int, p: int, n: int) -> int:
    """The smaller root of x^2 + D = 0 (mod p^n) for an odd prime p.

    A root mod p by search, then Newton's iteration with doubling precision;
    independent of ``rnlab.hensel`` so that the workload's set-up does not
    run the layer it measures.
    """
    r = next(x for x in range(1, p) if (x * x + D) % p == 0)
    k = 1
    while k < n:
        k = min(2 * k, n)
        mod = p ** k
        r = (r - (r * r + D) * pow(2 * r, -1, mod)) % mod
    mod = p ** n
    r = min(r, mod - r)
    if (r * r + D) % mod != 0 or ((mod - r) ** 2 + D) % mod != 0:
        raise AssertionError(f"p-adic root of x^2 + {D} wrong at {p}^{n}")
    return r


def _primes_below(n: int) -> list:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(range(i * i, n, i)))
    return [i for i in range(n) if sieve[i]]


def base_solutions(p_max: int, d_max: int, n0_max: int) -> list:
    """Every (D, p, x0, n0) with x0^2 + D = p^n0, 12 < D <= d_max, p < p_max
    prime, 3 <= n0 <= n0_max, x0 within 3 of isqrt(p^n0), p not dividing D
    and D not a square: the inputs on which certify and max-sigma answer
    without an input error."""
    out = []
    for p in _primes_below(p_max):
        for n0 in range(3, n0_max + 1):
            pn = p ** n0
            r = math.isqrt(pn)
            for x0 in range(max(1, r - 3), r + 4):
                D = pn - x0 * x0
                if 12 < D <= d_max and D % p and math.isqrt(D) ** 2 != D:
                    out.append((D, p, x0, n0))
    return out


# ---------------------------------------------------------------------------
# job lists


def run_jobs(name: str, inputs, call: Call) -> None:
    """Run the workload's whole job list through ``call``."""
    if name in ("survey-odd", "survey-two"):
        _run_survey(inputs, call)
    elif name == "pade-audit":
        _run_pade_audit(inputs, call)
    elif name == "certify-sweep":
        _run_sweep(inputs, call)
    else:
        raise ValueError(f"unknown workload {name!r}")


def _expect_ok(rc: int, rep: dict, schema: str) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    if rep.get("schema") != schema:
        return f"schema {rep.get('schema')!r}, expected {schema!r}"
    return None


def _run_survey(s: Survey, call: Call) -> None:
    # a blob left by the previous job list would resume this one
    if os.path.exists(s.blob_path):
        os.remove(s.blob_path)
    n_prev = 1
    for n_to in range(s.leg, s.n_max + 1, s.leg):
        # a resumed leg surveys its starting level again
        n_from = n_prev

        def check(rc, rep, n_from=n_from, n_to=n_to):
            bad = _expect_ok(rc, rep, "rnlab.survey/1")
            if bad:
                return bad
            want = tuple(e for e in s.exceptions if n_from <= e[0] <= n_to)
            got = tuple((e["n"], int(e["x"]), int(e["m"]))
                        for e in rep["exceptions"])
            if got != want:
                return f"exceptions {got}"
            if any(e["passed"] for e in rep["exceptions"]):
                return "an exception is marked passed"
            if rep["counts"] != {"records": s.records(n_from, n_to),
                                 "exceptions": len(want)}:
                return f"counts {rep['counts']}"
            if (rep["n_from"], rep["n_max"], rep["no_split"]) \
                    != (n_from, n_to, False):
                return "range or split flag wrong"
            return _check_blob(s, n_to)

        call(s.argv(n_to), check)
        n_prev = n_to


def _check_blob(s: Survey, n: int) -> str | None:
    """The checkpoint holds a valid root set at level n."""
    try:
        with open(s.blob_path) as fh:
            blob = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"checkpoint unreadable: {exc}"
    if (blob.get("D"), blob.get("p"), blob.get("n")) != (s.D, s.p, n):
        return "checkpoint is for another instance or level"
    mod = s.p ** n
    roots = [int(r) for r in blob.get("roots", ())]
    want = 2 if s.p == 2 else 1  # one stored root per +/- pair
    if len(roots) != want or any((r * r + s.D) % mod for r in roots):
        return "checkpoint roots wrong"
    return None


def _run_pade_audit(pa: PadeAudit, call: Call) -> None:
    def check_pade(rc, rep):
        bad = _expect_ok(rc, rep, "rnlab.pade-verify/1")
        if bad:
            return bad
        if rep["all_ok"] is not True:
            return "all_ok is not true"
        diag, gen = rep["diagonal"], rep["general"]
        if len(diag) != 2 * pa.j_max or len(gen) != pa.abc_max ** 3 \
                or len(rep["cross"]) != pa.j_max:
            return "sweep incomplete"
        if not all(d["identity"] and d["starred_identity"] for d in diag) \
                or not all(g["identity"] for g in gen):
            return "an identity failed"
        contents = {d["j"]: d["content"] for d in diag if d["g"] == 0}
        if any(contents.get(j, c) != c for j, c in KNOWN_CONTENTS.items()):
            return "known content values differ"
        return None

    call(["pade", "verify", "--j-max", str(pa.j_max),
          "--abc-max", str(pa.abc_max), "--format", "json"], check_pade)

    D, p, x0, n0 = ANCHOR
    for n, x in pa.roots:
        def check_audit(rc, rep, n=n, x=x):
            bad = _expect_ok(rc, rep, "rnlab.audit/1")
            if bad:
                return bad
            if rep["certificate_status"] != "certified":
                return f"certificate {rep['certificate_status']}"
            audits = rep["audits"]
            if [a["g"] for a in audits] != [0, 1]:
                return "audit entries missing"
            for a in audits:
                if a["x"] != str(x) or a["j"] != n // (5 * n0):
                    return "audit is for another root"
                if a["backbone_exact"] is not True or a["iii_ok"] is not True:
                    return f"chain fails at n={n} g={a['g']}"
            return None

        call(["audit", "--D", str(D), "--p", str(p), "--x0", str(x0),
              "--n0", str(n0), "--n", str(n), "--x", str(x),
              "--format", "json"], check_audit)


def _enclosure(rep: dict):
    if rep["empty"]:
        return None
    return Fraction(rep["lo"]), Fraction(rep["hi"])


def _run_sweep(sw: Sweep, call: Call) -> None:
    for inst, sigma in zip(sw.instances, sw.sigmas):
        D, p, x0, n0 = inst
        base = ["--D", str(D), "--p", str(p), "--x0", str(x0), "--n0", str(n0)]
        enclosures = {}
        for variant in ("5j", "7j"):
            def check_ms(rc, rep, variant=variant):
                bad = _expect_ok(rc, rep, "rnlab.max-sigma/1")
                if bad:
                    return bad
                enc = _enclosure(rep)
                if enc is not None and not (0 < enc[0] < enc[1] <= SIGMA_MAX):
                    return f"enclosure {enc} out of order"
                if enc is not None and enc[1] < SIGMA_MAX \
                        and enc[1] - enc[0] > Fraction(1, 10 ** 6):
                    return "enclosure wider than 1e-6"
                if inst == ANCHOR and variant == "5j" and (
                        enc is None or enc[0] < ANCHOR_5J[0]
                        or enc[1] > ANCHOR_5J[1]):
                    return f"anchor enclosure {enc}"
                return None

            rep = call(["max-sigma", *base, "--variant", variant,
                        "--format", "json"], check_ms)
            if rep is not None:
                enclosures[variant] = _enclosure(rep)

        certify = ["certify", *base, "--format", "json", "--sigma"]
        if "5j" in enclosures:
            call(certify + [_frac(sigma)],
                 _consistent_with(enclosures["5j"], sigma))
        for variant, enc in enclosures.items():
            if enc is None:
                continue
            lo, hi = enc
            call(certify + [_frac(lo), "--variant", variant],
                 _status_is_not("condition_fails"))
            if hi < SIGMA_MAX:
                call(certify + [_frac(hi), "--variant", variant],
                     _status_is_not("certified"))
        if inst == ANCHOR:
            call(certify + ["1/10"], _status_is("certified"))
            call(certify + ["7/50"], _status_is("condition_fails"))


def _frac(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _status_check(ok: Callable[[str], bool]) -> Check:
    def check(rc, rep):
        bad = _expect_ok(rc, rep, "rnlab.certificate/1")
        if bad:
            return bad
        if rep["certified"] != (rep["status"] == "certified"):
            return "certified flag disagrees with status"
        return None if ok(rep["status"]) else f"status {rep['status']}"
    return check


def _status_is(status: str) -> Check:
    return _status_check(lambda s: s == status)


def _status_is_not(status: str) -> Check:
    return _status_check(lambda s: s != status)


def _consistent_with(enc, sigma: Fraction) -> Check:
    """certify at sigma agrees with the 5j max-sigma enclosure."""
    if enc is None:
        return _status_is_not("certified")
    lo, hi = enc
    if sigma <= lo:
        return _status_is_not("condition_fails")
    if sigma >= hi:
        return _status_is_not("certified")
    return _status_check(lambda s: True)
