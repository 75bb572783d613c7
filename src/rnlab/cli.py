"""Command-line surface: certify, survey, hensel, pade, decompose,
max-sigma, audit, scan-huge.

Exit codes: 0 success, 1 stdout closed by its reader, 2 invalid input,
3 undecidable rigorous comparison at the precision cap, 4 internal
invariant violation.  Machine-readable output is canonical JSON (sorted
keys, no whitespace), so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from fractions import Fraction
from itertools import product

from . import certifier, decomposer, hensel, pade, survey

EXIT_OK = 0
EXIT_STDOUT_CLOSED = 1
EXIT_INVALID = 2
EXIT_UNDECIDABLE = 3
EXIT_INTERNAL = 4


def _parse_sigma(text: str) -> Fraction:
    parts = text.split("/")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"sigma must be a rational 'a/b', got {text!r}")
    try:
        return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}: {exc}")


def _parse_bigint(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(payload: dict, fmt: str, human_lines, out_path: str | None) -> None:
    if fmt == "json":
        text = _canonical_json(payload)
    elif fmt == "tsv":
        text = payload_to_tsv(payload)
    else:
        text = "\n".join(human_lines)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        # flushed here, so that a closed pipe fails inside main, not at exit
        print(text, flush=True)


def payload_to_tsv(payload: dict) -> str:
    """The TSV form of a survey or a hensel report, the two that have one."""
    if payload["schema"] == "rnlab.survey/1":
        lines = ["n\tx\tm\tdigits_x\tpassed"]
        for rec in payload["exceptions"]:
            lines.append(f"{rec['n']}\t{rec['x']}\t{rec['m']}"
                         f"\t{rec['digits_x']}\t{rec['passed']}")
        return "\n".join(lines)
    return "\n".join(["root"] + list(payload["roots"]))


def _write_atomic(path: str, text: str) -> None:
    """Replace path with text so that a crash leaves the old file or the
    new one, never a truncated one."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _fraction_str(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _decimal_digits(n: int) -> int:
    """len(str(n)) for n >= 0, without CPython's quadratic decimal
    conversion: as 0.3010299956 < log10 2, the first guess is at most the
    count, and the loop runs at most twice below 10^10 bits."""
    count = max(0, (n.bit_length() - 1) * 3010299956 // 10 ** 10) + 1
    power = 10 ** count
    while n >= power:
        count, power = count + 1, power * 10
    return count


# ---------------------------------------------------------------------------
# subcommands


def _cmd_certify(args) -> int:
    cert = certifier.certify(args.D, args.p, args.x0, args.n0, args.sigma,
                             args.variant)
    # decimal conversion is quadratic in CPython: only JSON prints X* itself
    x_star = str(cert.X_star) if args.format == "json" else None
    payload = {
        "schema": "rnlab.certificate/1",
        "D": cert.D, "p": cert.p, "x0": cert.x0, "n0": cert.n0,
        "sigma": _fraction_str(cert.sigma),
        "variant": cert.variant,
        "status": cert.status,
        "certified": cert.certified,
        "eta": _fraction_str(cert.eta),
        "exponent": _fraction_str(cert.exponent),
        "beta_enclosure": list(cert.beta_enclosure),
        "threshold_enclosure": list(cert.threshold_enclosure),
        "margin_log10": cert.margin_log10,
        "b_value": _fraction_str(cert.b_value),
        "b_ok": cert.b_ok,
        "M": cert.M,
        "X_star": x_star,
        "X_star_digits": len(x_star) if x_star else _decimal_digits(cert.X_star),
        "x_min_inference_digits": _decimal_digits(cert.x_min_inference),
        "meaning": cert.meaning(),
        "notes": list(cert.notes),
    }
    human = [
        f"status      : {cert.status}",
        f"|beta|      : {_enclosure_text(cert.beta_enclosure)}",
        f"threshold   : {_enclosure_text(cert.threshold_enclosure)}",
        f"M = 250*n0  : {cert.M}",
        f"X* = p^M    : {payload['X_star_digits']} digits",
        f"meaning     : {cert.meaning()}",
    ]
    _emit(payload, args.format, human, args.out)
    if cert.status in (certifier.STATUS_NOT_EXACT_POWER,
                       certifier.STATUS_SHARED_FACTOR,
                       certifier.STATUS_SQUARE_D,
                       certifier.STATUS_SMALL_D):
        return EXIT_INVALID
    if cert.status == certifier.STATUS_UNDECIDABLE:
        return EXIT_UNDECIDABLE
    return EXIT_OK


def _enclosure_text(ends: tuple[str, str]) -> str:
    # a gate that stops before the size condition leaves both ends empty
    if ends == ("", ""):
        return "no enclosure made (a gate stopped before the size condition)"
    return f"[{ends[0]}, {ends[1]}]"


def _cmd_survey(args) -> int:
    resume_state = None
    checkpoint_cb = None
    if args.resume:
        try:
            with open(args.resume) as fh:
                resume_state = survey.restore(fh.read())
        except FileNotFoundError:
            resume_state = None

        def checkpoint_cb(state):
            _write_atomic(args.resume, survey.checkpoint(state))

    rep = survey.run_survey(args.D, args.p, args.sigma, args.n_max,
                            resume=resume_state,
                            checkpoint_cb=checkpoint_cb,
                            checkpoint_every=args.checkpoint_every)
    payload = rep.to_json_dict()
    human = [
        f"survey D={rep.D} p={rep.p} sigma={_fraction_str(rep.sigma)} "
        f"n in [{rep.n_from}, {rep.n_max}]",
        f"records checked : {rep.records_checked}",
        f"exceptions      : {len(rep.exceptions)}",
    ]
    for rec in rep.exceptions:
        human.append(f"  n={rec.n} x={rec.x} m={rec.m}")
    human.append(f"wall time       : {rep.wall_time:.2f}s")
    _emit(payload, args.format, human, args.out)
    return EXIT_OK


def _cmd_hensel(args) -> int:
    try:
        state = hensel.roots_mod_pn(args.D, args.p, args.n)
        roots = [str(r) for r in state.all_roots()]
        payload = {"schema": "rnlab.hensel/1", "D": args.D, "p": args.p,
                   "n": args.n, "roots": roots, "count": len(roots),
                   "reason": ""}
        human = [f"roots of x^2 + {args.D} = 0 (mod {args.p}^{args.n}):"]
        human += [f"  {r}" for r in roots]
    except (hensel.NoSplitError, hensel.NoRootError) as exc:
        reason = ("no_split" if isinstance(exc, hensel.NoSplitError)
                  else "no_root")
        payload = {"schema": "rnlab.hensel/1", "D": args.D, "p": args.p,
                   "n": args.n, "roots": [], "count": 0, "reason": reason}
        human = [f"no roots: {exc}"]
    _emit(payload, args.format, human, args.out)
    return EXIT_OK


# build_diagonal and build_general check each identity before they return a
# system and raise IdentityViolationError (exit 4) when one fails, so every
# system that reaches these reports has "identity": true.  normalize divides
# P, Q and E by the content exactly, so the starred defect is the raw one
# divided by c and "starred_identity" is true by the same argument.


def _verify_one_diagonal(sys_jg: pade.PadeSystem) -> dict:
    starred = pade.normalize(sys_jg)
    return {"j": sys_jg.j, "g": sys_jg.g, "identity": True,
            "starred_identity": True, "content": starred.content}


def _cmd_pade(args) -> int:
    if args.pade_cmd != "verify":
        raise ValueError(f"unknown pade subcommand {args.pade_cmd!r}")
    if args.j_max < 1 or args.abc_max < 1:
        raise ValueError("j_max and abc_max must be >= 1")
    abc = range(1, args.abc_max + 1)
    diag, crosses = [], []
    for j in range(1, args.j_max + 1):
        # each diagonal system is built once, for its own checks and its cross
        sys0, sys1 = pade.build_diagonal(j, 0), pade.build_diagonal(j, 1)
        diag += [_verify_one_diagonal(sys0), _verify_one_diagonal(sys1)]
        c = pade.cross_constant(sys1, sys0)
        crosses.append({"j": j, "degree": sys1.remainder_degree(),
                        "c": str(c)})
    gen = []
    for a, b, c in product(abc, repeat=3):
        pade.build_general(a, b, c)
        gen.append({"A": a, "B": b, "C": c, "identity": True})
    payload = {"schema": "rnlab.pade-verify/1", "j_max": args.j_max,
               "abc_max": args.abc_max, "diagonal": diag, "general": gen,
               "cross": crosses, "all_ok": True}
    human = [f"diagonal identities j <= {args.j_max}: ok",
             "starred identities: ok",
             f"general identities A,B,C <= {args.abc_max}: ok",
             f"cross residuals: {len(crosses)} monomials"]
    _emit(payload, args.format, human, args.out)
    return EXIT_OK


def _decompose_payload(dec) -> dict:
    return {
        "n": dec.n, "x": str(dec.x), "j": dec.j, "k": dec.k, "l": dec.l,
        "branch": dec.branch, "sign": dec.sign,
        "mu": {"u": str(dec.mu.u), "v": str(dec.mu.v), "D": dec.mu.D},
        "m": str(dec.m),
        "norm_exponent": dec.norm_exponent,
        "norm_mu_digits": _decimal_digits(dec.mu.norm()),
    }


def _cmd_decompose(args) -> int:
    xs = ([args.x] if args.x is not None
          else list(hensel.roots_mod_pn(args.D, args.p, args.n).all_roots()))
    decs = [decomposer.decompose(args.D, args.p, args.x0, args.n0, x, args.n)
            for x in xs]
    payload = {"schema": "rnlab.decompose/1", "D": args.D, "p": args.p,
               "x0": args.x0, "n0": args.n0, "n": args.n,
               "decompositions": [_decompose_payload(d) for d in decs]}
    human = []
    for d in decs:
        human.append(f"x={d.x}: j={d.j} k={d.k} l={d.l} branch={d.branch} "
                     f"sign={d.sign:+d} m has {_decimal_digits(d.m)} digits")
    _emit(payload, args.format, human, args.out)
    return EXIT_OK


def _cmd_audit(args) -> int:
    cert = certifier.certify(args.D, args.p, args.x0, args.n0, args.sigma,
                             args.variant)
    xs = ([args.x] if args.x is not None
          else list(hensel.roots_mod_pn(args.D, args.p, args.n).all_roots()))
    audits = []
    systems = {}  # starred systems by (j, g), built once per invocation
    for x in xs:
        dec = decomposer.decompose(args.D, args.p, args.x0, args.n0, x, args.n)
        for rep in decomposer.audit_theorem1_chain(dec, systems):
            audits.append({
                "x": str(x), "g": rep.g, "j": rep.j, "k": rep.k, "r": rep.r,
                "branch": dec.branch,
                "nonzero_this_g": rep.nonzero_this_g,
                "nonzero_other_g": rep.nonzero_other_g,
                "backbone_exact": rep.backbone_exact,
                "ii_ok": rep.ii_ok, "iii_ok": rep.iii_ok,
                "nine_tenths_ok": rep.nine_tenths_ok,
                "q_lambda_ok": rep.q_lambda_ok,
                "margins": rep.margins,
            })
    payload = {"schema": "rnlab.audit/1", "D": args.D, "p": args.p,
               "x0": args.x0, "n0": args.n0, "n": args.n,
               "certificate_status": cert.status, "audits": audits}
    human = [f"certificate: {cert.status}"]
    for a in audits:
        human.append(f"x={a['x'][:16]}... g={a['g']}: nonzero={a['nonzero_this_g']} "
                     f"backbone={a['backbone_exact']} ii={a['ii_ok']} iii={a['iii_ok']}")
    _emit(payload, args.format, human, args.out)
    return EXIT_OK


def _cmd_max_sigma(args) -> int:
    res = certifier.max_sigma(args.D, args.p, args.x0, args.n0, args.variant)
    payload = {
        "schema": "rnlab.max-sigma/1",
        "D": args.D, "p": args.p, "x0": args.x0, "n0": args.n0,
        "variant": args.variant,
        "empty": res.empty,
        "lo": _fraction_str(res.lo) if res.lo is not None else None,
        "hi": _fraction_str(res.hi) if res.hi is not None else None,
        "lo_decimal": f"{float(res.lo):.9f}" if res.lo is not None else None,
        "hi_decimal": f"{float(res.hi):.9f}" if res.hi is not None else None,
        "beta_floor_ok": res.beta_floor_ok,
        "monotone_checked": res.monotone_checked,
        "reason": res.reason,
    }
    human = [f"max sigma in [{payload['lo_decimal']}, {payload['hi_decimal']}]"
             if not res.empty else f"empty: {res.reason}",
             f"beta floor ({args.variant}) satisfied: {res.beta_floor_ok}"]
    _emit(payload, args.format, human, args.out)
    return EXIT_OK


def _cmd_scan_huge(args) -> int:
    if args.D < 1:  # D first, as hensel.check_instance gates it
        raise ValueError(f"D must be positive, got {args.D}")
    hensel.require_prime(args.p)
    if args.n0_max < 1:
        raise ValueError(f"n0_max must be >= 1, got {args.n0_max}")
    solutions = []
    for n0 in range(1, args.n0_max + 1):
        rest = args.p ** n0 - args.D
        if rest <= 0:
            continue
        x0 = math.isqrt(rest)
        if x0 * x0 == rest and x0 >= 1:
            solutions.append({"x0": str(x0), "n0": n0})
    payload = {"schema": "rnlab.scan-huge/1", "D": args.D, "p": args.p,
               "n0_max": args.n0_max, "solutions": solutions}
    human = [f"base solutions of x^2 + {args.D} = {args.p}^n0, n0 <= {args.n0_max}:"]
    human += [f"  x0={s['x0']} n0={s['n0']}" for s in solutions] or ["  none"]
    _emit(payload, args.format, human, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------


# the instance options: each is required and has the same type wherever it
# appears
_INSTANCE_TYPES = {"D": int, "p": int, "x0": _parse_bigint, "n0": int,
                   "n": int}


def _instance(p, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", type=_INSTANCE_TYPES[name], required=True)


def _common(p, formats=("json", "human")) -> None:
    p.add_argument("--format", choices=formats, default="human")
    p.add_argument("--out", default=None, help="write output to a file")


def _add_certify(sub) -> argparse.ArgumentParser:
    c = sub.add_parser("certify", help="evaluate the huge-solution condition")
    _instance(c, "D", "p", "x0", "n0")
    c.add_argument("--sigma", type=_parse_sigma, required=True)
    c.add_argument("--variant", choices=tuple(certifier.VARIANTS), default="5j")
    _common(c)
    c.set_defaults(func=_cmd_certify)
    return c


def _add_survey(sub) -> argparse.ArgumentParser:
    s = sub.add_parser("survey", help="survey m = (x^2+D)/p^n against x^sigma")
    _instance(s, "D", "p")
    s.add_argument("--sigma", type=_parse_sigma, required=True)
    s.add_argument("--n-max", dest="n_max", type=int, required=True)
    s.add_argument("--resume", default=None,
                   help="checkpoint blob path (read if present, updated)")
    s.add_argument("--checkpoint-every", type=int, default=200)
    _common(s, ("json", "tsv", "human"))
    s.set_defaults(func=_cmd_survey)
    return s


def _add_hensel(sub) -> argparse.ArgumentParser:
    h = sub.add_parser("hensel", help="roots of x^2 + D = 0 (mod p^n)")
    _instance(h, "D", "p", "n")
    _common(h, ("json", "tsv", "human"))
    h.set_defaults(func=_cmd_hensel)
    return h


def _add_pade(sub) -> argparse.ArgumentParser:
    pv = sub.add_parser("pade", help="polynomial identity sweeps")
    pv.add_argument("pade_cmd", choices=("verify",))
    pv.add_argument("--j-max", dest="j_max", type=int, default=8)
    pv.add_argument("--abc-max", dest="abc_max", type=int, default=4)
    _common(pv)
    pv.set_defaults(func=_cmd_pade)
    return pv


def _add_decompose(sub) -> argparse.ArgumentParser:
    d = sub.add_parser("decompose", help="factor gamma over the base solution")
    _instance(d, "D", "p", "x0", "n0", "n")
    d.add_argument("--x", type=_parse_bigint, default=None,
                   help="specific root (default: all roots at level n)")
    _common(d)
    d.set_defaults(func=_cmd_decompose)
    return d


def _add_audit(sub) -> argparse.ArgumentParser:
    a = sub.add_parser("audit", help="decompose + inequality-chain audit")
    _instance(a, "D", "p", "x0", "n0", "n")
    a.add_argument("--x", type=_parse_bigint, default=None)
    a.add_argument("--sigma", type=_parse_sigma, default=Fraction(1, 10))
    a.add_argument("--variant", choices=tuple(certifier.VARIANTS), default="5j")
    _common(a)
    a.set_defaults(func=_cmd_audit)
    return a


def _add_max_sigma(sub) -> argparse.ArgumentParser:
    ms = sub.add_parser("max-sigma", help="largest certifiable sigma")
    _instance(ms, "D", "p", "x0", "n0")
    ms.add_argument("--variant", choices=tuple(certifier.VARIANTS), default="5j")
    _common(ms)
    ms.set_defaults(func=_cmd_max_sigma)
    return ms


def _add_scan_huge(sub) -> argparse.ArgumentParser:
    sc = sub.add_parser("scan-huge", help="brute-force base solutions")
    _instance(sc, "D", "p")
    sc.add_argument("--n0-max", dest="n0_max", type=int, required=True)
    _common(sc)
    sc.set_defaults(func=_cmd_scan_huge)
    return sc


# subcommand name -> the function adding its subparser, in help order
_SUBCOMMANDS = {
    "certify": _add_certify, "survey": _add_survey, "hensel": _add_hensel,
    "pade": _add_pade, "decompose": _add_decompose, "audit": _add_audit,
    "max-sigma": _add_max_sigma, "scan-huge": _add_scan_huge,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The rnlab parser with every subcommand.

    It is built once per process, on first use, and shared by every later
    call, as is each _command_parser: callers must not mutate them.  Their
    `choices`, such as those of --variant (the keys of certifier.VARIANTS),
    are read at that first build.
    """
    ap = argparse.ArgumentParser(
        prog="rnlab",
        description="exact tools for factorizations x^2 + D = p^n * m")
    sub = ap.add_subparsers(dest="command", required=True)
    for add in _SUBCOMMANDS.values():
        add(sub)
    return ap


@functools.cache
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one subcommand, with the prog ("rnlab certify") and
    usage that build_parser() gives it."""
    sub = argparse.ArgumentParser(prog="rnlab").add_subparsers()
    return _SUBCOMMANDS[command](sub)


def _parse(argv: list) -> argparse.Namespace:
    # argv[1:] goes straight to its subcommand's parser, as build_parser()
    # would hand it on, so that a call builds none of the other seven and
    # is not first scanned by the top-level parser.  Leftover arguments are
    # reported by the full parser, so that the usage line of the error
    # lists every subcommand.
    if argv and argv[0] in _SUBCOMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except BrokenPipeError:
        return _stdout_closed()
    except (certifier.UndecidableError,) as exc:
        return _print_error("undecidable", exc, args, EXIT_UNDECIDABLE)
    except (ValueError, hensel.HenselError, OSError) as exc:
        return _print_error("invalid_input", exc, args, EXIT_INVALID)
    except RuntimeError as exc:
        # PadeError, NeitherBranch, BothBranchesVanish, NotMonotone, ...
        return _print_error("internal_invariant_violation", exc, args,
                            EXIT_INTERNAL)


def _stdout_closed() -> int:
    # as in the Python docs' note on SIGPIPE: point stdout at devnull, so
    # that the flush at exit cannot fail again, and say nothing more
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_STDOUT_CLOSED


def _print_error(kind: str, exc: Exception, args, code: int) -> int:
    """Report exc as kind and return code; a JSON error line that cannot
    be written, because stdout is closed, ends the call as the report's
    own write does."""
    if getattr(args, "format", "human") == "json":
        try:
            print(_canonical_json({"schema": "rnlab.error/1", "error": kind,
                                   "message": str(exc)}), flush=True)
        except BrokenPipeError:
            return _stdout_closed()
    else:
        print(f"error ({kind}): {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
