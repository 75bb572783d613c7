import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import Phase, given, seed, settings, strategies as st

import rnlab
from rnlab.cli import main

PSI12 = "318665857834031151167461"  # 399165290221 * 798330580441


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_survey_json(capsys):
    code, payload = run_json(capsys, "survey", "--D", "76", "--p", "101",
                             "--sigma", "7/50", "--n-max", "10")
    assert code == 0
    assert payload["schema"] == "rnlab.survey/1"
    assert [(e["n"], e["x"], e["m"]) for e in payload["exceptions"]] == \
        [(1, "5", "1"), (3, "1015", "1")]
    assert "wall_time" not in payload


def test_survey_tsv(capsys):
    code, out = run_cli(capsys, "survey", "--D", "76", "--p", "101",
                        "--sigma", "7/50", "--n-max", "5", "--format", "tsv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n\tx\tm\tdigits_x\tpassed"
    assert lines[1].startswith("1\t5\t1")


def test_hensel_roots(capsys):
    code, payload = run_json(capsys, "hensel", "--D", "76", "--p", "101",
                             "--n", "2")
    assert code == 0
    assert payload["roots"] == ["1015", "9186"]


def test_hensel_no_split_is_structured(capsys):
    code, payload = run_json(capsys, "hensel", "--D", "76", "--p", "103",
                             "--n", "2")
    assert code == 0
    assert payload["roots"] == [] and payload["reason"] == "no_split"


def test_certify_not_exact_power_exit_2(capsys):
    code, payload = run_json(capsys, "certify", "--D", "76", "--p", "101",
                             "--x0", "1014", "--n0", "3", "--sigma", "1/10")
    assert code == 2
    assert payload["status"] == "not_exact_power"


def test_certify_ok(capsys):
    code, payload = run_json(capsys, "certify", "--D", "76", "--p", "101",
                             "--x0", "1015", "--n0", "3", "--sigma", "1/10")
    assert code == 0
    assert payload["status"] == "certified"
    assert payload["M"] == 750
    assert payload["X_star_digits"] == 1504


def test_certify_beta_too_small_exit_0(capsys):
    code, payload = run_json(capsys, "certify", "--D", "7", "--p", "2",
                             "--x0", "181", "--n0", "15", "--sigma", "1/10")
    assert code == 0
    assert payload["status"] == "beta_too_small"
    assert payload["beta_enclosure"] == payload["threshold_enclosure"] == ["", ""]


def test_certify_human_says_when_no_enclosure_was_made(capsys):
    # a gate that stops before the size condition makes no enclosure
    code, text = run_cli(capsys, "certify", "--D", "7", "--p", "2", "--x0",
                         "181", "--n0", "15", "--sigma", "1/10")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "status      : beta_too_small"
    for line, name in zip(lines[1:3], ("|beta|      ", "threshold   ")):
        assert line == (f"{name}: no enclosure made "
                        "(a gate stopped before the size condition)")
    code, text = run_cli(capsys, "certify", *_ANCHOR, "--sigma", "1/10")
    assert text.splitlines()[1] == (
        "|beta|      : [1015.0374377332099172, 1015.0374377332099173]")


# the lower end of max_sigma(76, 101, 1015, 3, "5j", width=10^-40): there
# |beta| and the threshold agree to more than 30 digits
SIGMA_STAR = ("146759116967824405641020779119970489403876582693/"
              "1361129467683753853853498429727072845824000000000")


def test_certify_undecidable_at_the_cap_exit_3(capsys, monkeypatch):
    from fractions import Fraction

    from rnlab.certifier import certify, max_sigma
    sigma = Fraction(SIGMA_STAR)
    assert max_sigma(76, 101, 1015, 3, "5j",
                     width=Fraction(1, 10 ** 40)).lo == sigma
    argv = ("certify", "--D", "76", "--p", "101", "--x0", "1015",
            "--n0", "3", "--sigma", SIGMA_STAR)
    code, payload = run_json(capsys, *argv)
    assert (code, payload["status"]) == (0, "certified")
    monkeypatch.setenv("RNLAB_PRECISION_CAP", "30")
    assert certify(76, 101, 1015, 3, sigma).status == "undecidable"
    code, payload = run_json(capsys, *argv)
    assert (code, payload["status"]) == (3, "undecidable")


def test_sigma_must_be_rational_string(capsys):
    with pytest.raises(SystemExit) as err:
        main(["certify", "--D", "76", "--p", "101", "--x0", "1015",
              "--n0", "3", "--sigma", "0.1"])
    assert err.value.code == 2


def test_pade_verify(capsys):
    code, payload = run_json(capsys, "pade", "verify", "--j-max", "3",
                             "--abc-max", "2")
    assert code == 0
    assert payload["all_ok"]
    assert len(payload["diagonal"]) == 6
    assert len(payload["general"]) == 8
    assert payload["cross"][0]["degree"] == 7


def test_pade_verify_products(capsys, monkeypatch):
    # one (1-z)^k Q/c product per system, c = content(Q), and no other
    # product: each cross constant is read off the two verified identities
    # with no E.Q product, and nothing is multiplied on a starred P or E.
    # At j = 16 the identity products are made at four points
    from rnlab import pade
    from rnlab.pade import (IntPolynomial, build_diagonal, build_general,
                            one_minus_z_pow)
    systems = [build_diagonal(j, g) for j in range(1, 17) for g in (0, 1)]
    systems += [build_general(a, b, c) for a in (1, 2) for b in (1, 2)
                for c in (1, 2)]
    starred = {coeffs for sys in systems[:32] for poly in (sys.P, sys.E)
               for coeffs in (poly.coeffs, (-poly).coeffs)}
    products, four_point = [], []
    real, real_four_point = IntPolynomial.__mul__, pade._four_point

    def counting(self, other):
        if isinstance(other, IntPolynomial):
            products.append((self, other))
        return real(self, other)

    def counting_four_point(*args):
        four_point.append(args)
        return real_four_point(*args)

    monkeypatch.setattr(IntPolynomial, "__mul__", counting)
    monkeypatch.setattr(pade, "_four_point", counting_four_point)
    code, _ = run_cli(capsys, "pade", "verify", "--j-max", "16",
                      "--abc-max", "2")
    assert code == 0

    def is_identity(a):  # (1-z)^k, k >= 1; an E can be the constant 1
        return a.degree > 0 and a == one_minus_z_pow(a.degree)

    identity = [(a.degree, b) for a, b in products if is_identity(a)]
    assert sorted(identity, key=repr) == sorted(
        ((sys.k, sys.Q) for sys in systems),
        key=repr)
    assert [(a, b) for a, b in products if not is_identity(a)] == []
    assert not any(poly.coeffs in starred
                   for pair in products for poly in pair)
    assert len(four_point) == 2  # (j, g) = (16, 0) and (16, 1)


def test_certify_rejects_tsv(capsys):
    # only survey and hensel have a TSV form
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--D", "76", "--p", "101", "--x0", "1015",
              "--n0", "3", "--sigma", "1/10", "--format", "tsv"])
    assert exc.value.code == 2
    assert "tsv" in capsys.readouterr().err


def test_pade_verify_rejects_threads(capsys):
    # the option was removed with the process pool: argparse refuses it
    with pytest.raises(SystemExit) as exc:
        main(["pade", "verify", "--j-max", "2", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_decompose(capsys):
    code, payload = run_json(capsys, "decompose", "--D", "76", "--p", "101",
                             "--x0", "1015", "--n0", "3", "--n", "16")
    assert code == 0
    decs = payload["decompositions"]
    assert len(decs) == 2
    assert {d["branch"] for d in decs} == {"plus", "minus"}
    assert all(d["j"] == 1 and d["k"] == 5 and d["l"] == 1 for d in decs)


def test_decompose_precondition_exit_2(capsys):
    code, payload = run_json(capsys, "decompose", "--D", "76", "--p", "101",
                             "--x0", "1015", "--n0", "3", "--n", "15",
                             "--x", "1015")
    assert code == 2
    assert payload["error"] == "invalid_input"


def test_decompose_composite_p_exit_2(capsys):
    # with and without --x: the same refusal, not an internal error
    base = ("decompose", "--D", "7", "--p", "4", "--x0", "3", "--n0", "2",
            "--n", "11")
    for extra in ((), ("--x", "474955")):
        code, payload = run_json(capsys, *base, *extra)
        assert code == 2
        assert payload["error"] == "invalid_input"
        assert payload["message"] == "p = 4 is not prime"


def test_audit(capsys):
    code, payload = run_json(capsys, "audit", "--D", "76", "--p", "101",
                             "--x0", "1015", "--n0", "3", "--n", "16")
    assert code == 0
    assert payload["certificate_status"] == "certified"
    assert len(payload["audits"]) == 4  # two roots x two g values
    assert all(a["backbone_exact"] for a in payload["audits"])
    assert all(a["nonzero_this_g"] or a["nonzero_other_g"]
               for a in payload["audits"])


def test_max_sigma(capsys):
    code, payload = run_json(capsys, "max-sigma", "--D", "76", "--p", "101",
                             "--x0", "1015", "--n0", "3")
    assert code == 0
    assert payload["lo_decimal"].startswith("0.1078")
    assert payload["beta_floor_ok"] is True


@pytest.mark.parametrize("argv", [
    ["--D", "7", "--p", "4", "--x0", "3", "--n0", "2"],        # p composite
    ["--D", "0", "--p", "101", "--x0", "101", "--n0", "2"],    # D = 0
    ["--D", "76", "--p", "101", "--x0", "-1015", "--n0", "3"],
])
def test_max_sigma_input_gates_exit_2(capsys, argv):
    code, payload = run_json(capsys, "max-sigma", *argv)
    assert code == 2
    assert payload["error"] == "invalid_input"


def test_max_sigma_not_monotone_exit_4(capsys, monkeypatch):
    from fractions import Fraction
    from rnlab import certifier
    monkeypatch.setitem(certifier.VARIANTS, "5j",
                        certifier.VARIANTS["5j"]._replace(
                            exp_const=Fraction(1, 2)))
    code, payload = run_json(capsys, "max-sigma", "--D", "76", "--p", "101",
                             "--x0", "1015", "--n0", "3")
    assert code == 4
    assert payload["error"] == "internal_invariant_violation"


def test_pade_verify_builds_each_diagonal_once(capsys, monkeypatch):
    from rnlab import cli
    built = []
    real = cli.pade.build_diagonal

    def counting(j, g):
        built.append((j, g))
        return real(j, g)

    monkeypatch.setattr(cli.pade, "build_diagonal", counting)
    code, payload = run_json(capsys, "pade", "verify", "--j-max", "3",
                             "--abc-max", "1")
    assert code == 0 and payload["all_ok"]
    assert sorted(built) == [(j, g) for j in (1, 2, 3) for g in (0, 1)]
    assert [(d["j"], d["g"]) for d in payload["diagonal"]] == sorted(built)


@pytest.mark.parametrize("builder,doctored_at", [
    ("diagonal", (4, 0, 4)), ("general", (1, 2, 1))],
    ids=["diagonal", "general"])
def test_pade_verify_broken_system_exit_4(capsys, monkeypatch, builder,
                                          doctored_at):
    # pade verify relies on the builders' own identity check: one
    # coefficient of P off by one must end the run there, before a report.
    # Both builders take their triples from _general_triple; (4, 0, 4) is
    # the diagonal system at j = 1, g = 0.
    from rnlab import pade
    real = pade._general_triple

    def doctored(*params):  # (A, B, C, c)
        P, *rest = real(*params)
        if params[:3] == doctored_at:
            P = P + pade.IntPolynomial.monomial(1, 0)
        return (P, *rest)

    monkeypatch.setattr(pade, "_general_triple", doctored)
    code, text = run_cli(capsys, "pade", "verify", "--j-max", "3",
                         "--abc-max", "2", "--format", "json")
    payload = json.loads(text)
    assert code == 4
    assert payload["error"] == "internal_invariant_violation"
    assert payload["message"].startswith(f"{builder} identity failed")
    assert '"identity":true' not in text


_ANCHOR = ["--D", "76", "--p", "101", "--x0", "1015", "--n0", "3"]


# sha256 of canonical JSON reports.  Their bytes are part of the contract,
# so a refactor that moves any byte fails here; only a deliberate change of
# a report format may update a digest.
_PINNED_REPORTS = {
    "pade-verify": (
        ["pade", "verify", "--j-max", "32", "--abc-max", "6"],
        "010d67a106bc9a609b27b22d785c5fa139a2d83d0f400541817430f67a8f7e09"),
    "audit-300": (
        ["audit", *_ANCHOR, "--n", "300"],
        "1016957c7b0cc8583ecd34562e225baf8a7d139858dfa8c22a42f63762b52156"),
    "audit-900": (
        ["audit", *_ANCHOR, "--n", "900"],
        "3e301a3354a5dad60dfa3d11c4635e0851eece6b2d2ed1800bd48c3d0ee63e8d"),
    "audit-1800": (
        ["audit", *_ANCHOR, "--n", "1800"],
        "6b81ab41594f9660505906d1d2b0b519586c01eddeff99014b13fc74339e9618"),
    "decompose-16": (
        ["decompose", *_ANCHOR, "--n", "16"],
        "2ad39519f72703633b44d7d65fa3e3b5a0b2788336eb44b6da17814740cb77a2"),
    "certify-anchor": (
        ["certify", *_ANCHOR, "--sigma", "1/10"],
        "b637d4865afc64649e98d470f51612edd9dcec29e3a56cbd355260e039dd0df7"),
    "survey-odd": (
        ["survey", "--D", "76", "--p", "101", "--sigma", "9/10",
         "--n-max", "3000"],
        "277f005ce7829fff30ee6b8dc0a4ee335696424513d61543d174a6216bd39b28"),
    "survey-two": (
        ["survey", "--D", "7", "--p", "2", "--sigma", "1/2", "--n-max", "6000"],
        "64269ca3fdf6006305ab33c9d0d41710c0835b0e8870b07f2b7b3d3d445c0001"),
    "max-sigma-anchor": (
        ["max-sigma", *_ANCHOR],
        "72ab6a445b6a03a843830b5578c6864b89419d86c9d9651003f745b6097a68c1"),
    "max-sigma-7j": (
        ["max-sigma", "--D", "7", "--p", "2", "--x0", "181", "--n0", "15",
         "--variant", "7j"],
        "556ec6a397621f2c5c710342ca37dcbbeeaad2ec0d5bdb433a4a40c4710612e5"),
    "certify-beta-too-small": (
        ["certify", *_ANCHOR, "--sigma", "1/10", "--variant", "7j"],
        "85ec0f3de70a1b46474972ba37db88a7d49ef79bd8539b18fb5efcecc4e8d9b9"),
    "hensel": (
        ["hensel", "--D", "7", "--p", "2", "--n", "15"],
        "fc553d540e43e6ee929683f91fe96f6c04b9c21e796c3ae0250999db2f617c45"),
}


@pytest.mark.parametrize("argv,digest", list(_PINNED_REPORTS.values()),
                         ids=list(_PINNED_REPORTS))
def test_canonical_reports_pinned(capsys, argv, digest):
    code, text = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_decimal_digits_matches_str():
    from rnlab.cli import _decimal_digits
    cases = [n for k in (*range(40), 300, 1234, 5000)
             for n in (10 ** k - 1, 10 ** k, 10 ** k + 1)]
    cases += [2 ** b + d for b in range(1, 200) for d in (-1, 0, 1)]
    # log10(2^183593) = 55267.999994: a first guess from any constant above
    # log10 2 by 4e-11 or more overshoots the count here
    cases += [101 ** (125 * 40), 397 ** 5000, 2 ** 183593]
    for n in cases:
        assert _decimal_digits(n) == len(str(n)), n


@pytest.mark.parametrize("argv", [
    [], ["--help"], ["-h"], ["bogus"], ["bogus", "--D", "3"],
    *([cmd, "--help"] for cmd in ("certify", "survey", "hensel", "pade",
                                  "decompose", "audit", "max-sigma",
                                  "scan-huge")),
    ["certify", "--D", "76"], ["certify", "-h", "extra"],
    ["pade", "bogus"], ["max-sigma", *_ANCHOR, "--threads", "2"],
    ["certify", *_ANCHOR, "--sigma", "1/10", "extra"],
    ["max-sigma", *_ANCHOR, "--variant", "9j"],
])
def test_help_and_usage_errors_match_full_parser(capsys, argv):
    from rnlab.cli import build_parser

    def outcome(fn):
        with pytest.raises(SystemExit) as exc:
            fn(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    assert outcome(main) == outcome(build_parser().parse_args)


# one valid call of each subcommand, the seed of the parse and fuzz cases
_VALID_ARGV = {
    "certify": ["certify", *_ANCHOR, "--sigma", "1/10"],
    "survey": ["survey", "--D", "7", "--p", "2", "--sigma", "1/2",
               "--n-max", "20"],
    "hensel": ["hensel", "--D", "76", "--p", "101", "--n", "6"],
    "pade": ["pade", "verify", "--j-max", "2", "--abc-max", "2"],
    "decompose": ["decompose", *_ANCHOR, "--n", "16"],
    "audit": ["audit", *_ANCHOR, "--n", "16", "--variant", "7j"],
    "max-sigma": ["max-sigma", *_ANCHOR, "--variant", "5j"],
    "scan-huge": ["scan-huge", "--D", "7", "--p", "2", "--n0-max", "15"],
}


def _parse_cases(seed: int) -> list[list[str]]:
    rng = random.Random(seed)
    cases = [[], ["--help"], ["-h"], ["bogus"], ["--D", "3"], ["certi"],
             ["--", "hensel"], ["-h", "hensel"]]
    for cmd, *rest in _VALID_ARGV.values():
        opts = [i for i, arg in enumerate(rest) if arg.startswith("--")]
        i, j, k = (rng.choice(opts) for _ in range(3))
        at = rng.randrange(len(rest) + 1)
        shuffled = rng.sample(rest, len(rest))
        cases += [
            [cmd, *rest], [cmd, "--help"], [cmd, *rest[:at], "-h"],
            [cmd, *rest[:i], "--bogus", "1", *rest[i:]],  # unknown option
            [cmd, *rest[:j + 1], "x", *rest[j + 2:]],  # bad type or choice
            [cmd, *rest[:k], *rest[k + 2:]],  # a required option missing
            [cmd, *rest[:at], "extra", *rest[at:]],  # extra positional
            [cmd, *shuffled],
            [cmd, *(f"{arg}={rest[n + 1]}" if n in opts else arg
                    for n, arg in enumerate(rest) if n - 1 not in opts)],
            [cmd, *(arg[:rng.randrange(3, len(arg) + 1)] if n in opts else arg
                    for n, arg in enumerate(rest))],  # abbreviations
            [cmd, "--", *rest],
        ]
    return cases


@pytest.mark.parametrize("argv", _parse_cases(19), ids=repr)
def test_parse_matches_full_parser(capsys, monkeypatch, argv):
    # _parse hands argv[1:] to the subcommand's own parser; build_parser()
    # parses all of argv.  Both must agree in result, exit code and output
    from rnlab.cli import _parse, build_parser
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(fn):
        try:
            result, code = vars(fn(list(argv))), None
        except SystemExit as exc:
            result, code = None, exc.code
        captured = capsys.readouterr()
        return result, code, captured.out, captured.err

    assert outcome(_parse) == outcome(build_parser().parse_args)


# values for the table parse's differential test: negative, non-numeric,
# malformed and empty ones, valid and invalid choices, and ones that
# int() reads in spite of their spelling
_TABLE_VALUES = st.sampled_from(
    ["-1", "-76", "0", "3", "16", "x", "12x", "1/0", "a/b", "7/50", "1.5", "",
     " 7 ", "1_000", "+5", "5j", "7j", "9j", "json", "tsv", "human", "xml",
     "-", "--", "verify", "extra"])
_TABLE_INSERTS = st.sampled_from(["extra", "--", "-h", "--help", "-", "-1"])


@st.composite
def _table_argv(draw) -> list:
    """A _VALID_ARGV entry with --format, changed a few times over: flags
    reordered, repeated, joined to their value by "=" or abbreviated, a
    value replaced, a flag dropped, or a word inserted."""
    cmd, *rest = draw(st.sampled_from(list(_VALID_ARGV.values())))
    head = rest[:1] if cmd == "pade" else []
    pairs = [rest[n:n + 2] for n in range(len(head), len(rest), 2)]
    pairs.append(["--format", draw(st.sampled_from(["json", "human", "tsv"]))])
    inserts = []
    for change in draw(st.lists(st.sampled_from(
            ["reorder", "repeat", "value", "drop", "equals", "abbreviate",
             "insert", "positional"]), max_size=3)):
        n = draw(st.integers(0, len(pairs) - 1)) if pairs else None
        if change == "reorder":
            pairs = draw(st.permutations(pairs))
        elif change == "insert":
            inserts.append(draw(_TABLE_INSERTS))
        elif change == "positional":
            head = [draw(st.sampled_from(["verify", "check"]))] if head else []
        elif n is None or len(pairs[n]) != 2:
            continue
        elif change == "repeat":
            pairs.append([pairs[n][0], draw(_TABLE_VALUES)])
        elif change == "value":
            pairs[n] = [pairs[n][0], draw(_TABLE_VALUES)]
        elif change == "drop":
            del pairs[n]
        elif change == "equals":
            pairs[n] = ["=".join(pairs[n])]
        else:
            flag = pairs[n][0]
            pairs[n] = [flag[:draw(st.integers(3, len(flag)))], pairs[n][1]]
    words = [word for pair in pairs for word in pair]
    for word in inserts:
        words.insert(draw(st.integers(0, len(words))), word)
    return [cmd, *head, *words]


@seed(40)
@settings(max_examples=600, deadline=None, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(_table_argv())
def test_table_parse_declines_or_matches_argparse(argv):
    # the table parse takes argv only when argparse reads it to the same
    # namespace: anything else it must leave to argparse, whose usage
    # error would fail this test
    from rnlab.cli import _table_parse, build_parser
    args = _table_parse(argv)
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv)), argv


def _workload_argv(tmp_path) -> list:
    """Every argv of the four benchmark job lists at small sizes, each run
    in-process so that its follow-up calls are made too."""
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    small = {"survey-odd": {"n_max": 40, "leg": 20},
             "survey-two": {"n_max": 60, "leg": 30},
             "pade-audit": {"j_max": 4, "abc_max": 2, "levels": (16, 31)},
             "certify-sweep": {"p_max": 110, "d_max": 100}}
    seen = []

    def call(argv, check):
        seen.append(list(argv))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
        report = json.loads(out.getvalue())
        return report if check(code, report) is None else None

    for name, sizes in small.items():
        workloads.run_jobs(name, workloads.make_inputs(
            name, 7, str(tmp_path), **sizes), call)
    return seen


def test_table_takes_every_well_formed_call(tmp_path):
    # the benchmark's calls and each valid call with --format json are
    # read off the table, to the namespace argparse reads; a fast path that
    # stops applying fails here by name
    from rnlab.cli import _table_parse, build_parser
    calls = [argv + ["--format", "json"] for argv in _VALID_ARGV.values()]
    calls += _workload_argv(tmp_path)
    assert {argv[0] for argv in calls} == set(_VALID_ARGV)
    for argv in calls:
        args = _table_parse(argv)
        assert args is not None, argv
        assert vars(args) == vars(build_parser().parse_args(argv)), argv


def test_well_formed_call_builds_no_parser(capsys, monkeypatch):
    from rnlab.cli import _command_parser, build_parser
    monkeypatch.setenv("COLUMNS", "80")
    _command_parser.cache_clear()
    build_parser.cache_clear()
    for argv in (_VALID_ARGV["hensel"], _VALID_ARGV["max-sigma"]):
        assert run_cli(capsys, *argv, "--format", "json")[0] == 0
    assert _command_parser.cache_info().currsize == 0
    assert build_parser.cache_info().currsize == 0
    with pytest.raises(SystemExit) as exc:
        main(["hensel", "--help"])
    assert exc.value.code == 0
    assert _command_parser.cache_info().currsize == 1
    assert build_parser.cache_info().currsize == 0
    with pytest.raises(SystemExit) as exc:
        main([*_VALID_ARGV["hensel"], "extra"])
    assert exc.value.code == 2
    assert "unrecognized arguments: extra" in capsys.readouterr().err
    assert build_parser.cache_info().currsize == 1


_FUZZ_VALUES = {
    "--D": ["-1", "0", "1", "3", "7", "15", "76", "x"],
    "--p": ["0", "1", "2", "4", "5", "101", "103", PSI12],
    "--x0": ["-1", "0", "1", "5", "181", "1015"],
    "--n0": ["0", "1", "3", "5", "15"],
    "--n": ["0", "1", "6", "16", "30"],
    "--x": ["-5", "0", "5", "1015"],
    "--sigma": ["1/2", "9/10", "1/10", "0/1", "1/0", "3/2", "-1/2", "a/b", "1"],
    "--n-max": ["-1", "0", "1", "5", "20"],
    "--checkpoint-every": ["-1", "0", "1", "3"],
    "--variant": ["5j", "7j", "9j"],
    "--j-max": ["-1", "0", "1", "2"],
    "--abc-max": ["0", "1", "2"],
    "--n0-max": ["0", "1", "5", "15"],
    "--format": ["json", "json", "human", "tsv", "xml"],
}

_SCHEMAS = {"certify": "rnlab.certificate/1", "survey": "rnlab.survey/1",
            "hensel": "rnlab.hensel/1", "pade": "rnlab.pade-verify/1",
            "decompose": "rnlab.decompose/1", "audit": "rnlab.audit/1",
            "max-sigma": "rnlab.max-sigma/1",
            "scan-huge": "rnlab.scan-huge/1"}


def _fuzz_argv(rng: random.Random, tmp_path) -> list[str]:
    cmd, *rest = rng.choice(list(_VALID_ARGV.values()))
    argv = [cmd]
    for n, arg in enumerate(rest):
        if not arg.startswith("--"):
            if n == 0 or not rest[n - 1].startswith("--"):
                argv.append(arg)  # pade's positional
            continue
        roll = rng.random()
        if roll < 0.02:
            continue  # a required option missing
        value = rest[n + 1]
        if roll < 0.25:
            value = rng.choice(_FUZZ_VALUES[arg])
        argv += [arg, value]
    paths = [str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt"),
             str(tmp_path)]  # the directory itself cannot be opened
    if cmd == "survey" and rng.random() < 0.5:
        argv += ["--resume", rng.choice(paths)]
        if rng.random() < 0.5:
            argv += ["--checkpoint-every",
                     rng.choice(_FUZZ_VALUES["--checkpoint-every"])]
    if rng.random() < 0.2:
        argv += ["--out", rng.choice([str(tmp_path / "out.txt"), paths[2]])]
    if rng.random() < 0.9:
        argv += ["--format", rng.choice(_FUZZ_VALUES["--format"])]
    return argv


def test_cli_fuzz_exits_cleanly(capsys, tmp_path):
    # seeded random calls with small and invalid values of every option:
    # each exits 0, 2 or 3 with no traceback, and JSON carries its schema
    rng = random.Random(20)
    outcomes = set()
    for _ in range(200):
        argv = _fuzz_argv(rng, tmp_path)
        out_file = tmp_path / "out.txt"
        out_file.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: a usage error
            code = exc.code
            assert code == 2, argv
        captured = capsys.readouterr()
        assert code in (0, 2, 3), argv
        assert "Traceback" not in captured.err, argv
        outcomes.add(code)
        text = captured.out
        if out_file.exists():
            assert not text, argv
            text = out_file.read_text()
        if argv[-2:] != ["--format", "json"] or not text:
            continue
        payload = json.loads(text)
        if code == 0:
            assert payload["schema"] == _SCHEMAS[argv[0]], argv
        elif "error" in payload:
            assert payload["schema"] == "rnlab.error/1", argv
            assert payload["error"] == {2: "invalid_input",
                                        3: "undecidable"}[code], argv
        else:  # certify reports a status it refuses with exit 2
            assert (argv[0], code) == ("certify", 2), argv
            assert payload["schema"] == "rnlab.certificate/1"
    assert outcomes == {0, 2}


def test_build_parser_builds_each_parser_once():
    from rnlab.cli import _command_parser, build_parser
    assert _command_parser("certify") is _command_parser("certify")
    assert build_parser() is build_parser()
    assert _command_parser("certify") is not _command_parser("audit")


def test_cached_parser_keeps_nothing_between_calls(capsys, monkeypatch):
    # a call with every default overridden, then one with none: the second
    # gets the defaults, and prints what a fresh process prints
    from fractions import Fraction
    from rnlab.cli import _parse
    monkeypatch.setenv("COLUMNS", "80")
    audit = ["audit", *_ANCHOR, "--n", "16"]
    # --flag=value is read by argparse alone, so this call fills the cached
    # parser; the table parse and argparse then both read the defaults
    code, _ = run_cli(capsys, *audit, "--sigma=1/5", "--variant=7j",
                      "--format=json")
    assert code == 0
    for argv in (audit, [*audit[:-2], "--n=16"]):
        args = _parse(argv)
        assert (args.sigma, args.variant, args.format) \
            == (Fraction(1, 10), "5j", "human")
    code = main(audit)
    captured = capsys.readouterr()
    fresh = subprocess.run([sys.executable, "-m", "rnlab", *audit],
                           env=_subprocess_env(), capture_output=True,
                           text=True, timeout=300)
    assert (code, captured.out, captured.err) \
        == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert captured.out.startswith("certificate: certified\n")


def test_usage_error_after_a_call_lists_every_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli(capsys, "certify", *_ANCHOR, "--sigma", "1/10")[0] == 0
    argv = ["certify", *_ANCHOR, "--sigma", "1/10", "extra"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    fresh = subprocess.run([sys.executable, "-m", "rnlab", *argv],
                           env=_subprocess_env(), capture_output=True,
                           text=True, timeout=300)
    assert (exc.value.code, err) == (fresh.returncode, fresh.stderr)
    assert "{certify,survey,hensel,pade,decompose,audit,max-sigma,scan-huge}" \
        in err
    assert "unrecognized arguments: extra" in err


# sha256 of each --help text at 80 columns; the text is part of the
# interface, so only a deliberate change of an option may update a digest
_PINNED_HELP = {
    "rnlab": "86a7548e06a79d15e26e8dca5060833e2720abd1d2c2fb846b8f57a23717924e",
    "certify": "959bbb5b086e859f8c3dcb903e1faed78853017dbeb59c1e1add5cd1f9e51132",
    "survey": "05565161f1e09cdec8c711098633e24824872136702ea0861fe21852c336a68e",
    "hensel": "006aef85e5b3396b045c740dd6e9a36428c19e1ba2f592ea6b5f80e8e6921d0c",
    "pade": "6bd15e61ed0d0bd44769346811e7819ed4ede7e65e39a5defd15209b28cd0e56",
    "decompose":
        "b4b9f00234dbe837bb6e0d0af04b224f1a1cec79946dbb24c35a6e9c48eb5542",
    "audit": "54fd2b847049de498d4111cd76acd5b37730f924c114972b303261b1d38add7a",
    "max-sigma":
        "e48727ee1cb19177766885133f8c215b986760f025c697a3d8dd244f08d6dcb7",
    "scan-huge":
        "403414505ee9bcf0447ea5e7f8115973999f12aa5074b1f12d7d229c61d912c7",
}


@pytest.mark.parametrize("command,digest", list(_PINNED_HELP.items()),
                         ids=list(_PINNED_HELP))
def test_help_text_pinned(capsys, monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "rnlab" else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_scan_huge(capsys):
    code, payload = run_json(capsys, "scan-huge", "--D", "76", "--p", "101",
                             "--n0-max", "5")
    assert code == 0
    assert payload["solutions"] == [{"x0": "5", "n0": 1},
                                    {"x0": "1015", "n0": 3}]


@pytest.mark.parametrize("argv", [
    ["pade", "verify", "--j-max", "-3", "--abc-max", "-1"],
    ["pade", "verify", "--j-max", "0"],
    ["pade", "verify", "--abc-max", "0"],
    ["scan-huge", "--D", "76", "--p", "100", "--n0-max", "5"],
    ["scan-huge", "--D", "-5", "--p", "101", "--n0-max", "5"],
    ["scan-huge", "--D", "76", "--p", "101", "--n0-max", "0"],
    ["hensel", "--D", "-7", "--p", "3", "--n", "4"],
    ["hensel", "--D", "-7", "--p", "2", "--n", "5"],
])
def test_bad_sizes_exit_2(capsys, argv):
    # each once gave a clean-looking report with exit 0
    code, payload = run_json(capsys, *argv)
    assert code == 2 and payload["error"] == "invalid_input"


@pytest.mark.parametrize("every", ["0", "-5"])
def test_checkpoint_every_below_one_exit_2(tmp_path, capsys, every):
    blob_path = tmp_path / "survey.ckpt"
    code, payload = run_json(capsys, "survey", "--D", "76", "--p", "101",
                             "--sigma", "7/50", "--n-max", "20",
                             "--resume", str(blob_path),
                             "--checkpoint-every", every)
    assert code == 2 and payload["error"] == "invalid_input"
    assert not blob_path.exists()


def test_reports_byte_identical(capsys):
    _, out1 = run_cli(capsys, "survey", "--D", "76", "--p", "101",
                      "--sigma", "7/50", "--n-max", "20", "--format", "json")
    _, out2 = run_cli(capsys, "survey", "--D", "76", "--p", "101",
                      "--sigma", "7/50", "--n-max", "20", "--format", "json")
    assert out1 == out2


def test_resume_checkpoint_file(tmp_path, capsys):
    blob_path = tmp_path / "survey.ckpt"
    code, payload1 = run_json(capsys, "survey", "--D", "76", "--p", "101",
                              "--sigma", "7/50", "--n-max", "40",
                              "--resume", str(blob_path),
                              "--checkpoint-every", "10")
    assert code == 0 and blob_path.exists()
    saved = json.loads(blob_path.read_text())
    assert saved["n"] == 40
    # resuming continues from the stored level
    code, payload2 = run_json(capsys, "survey", "--D", "76", "--p", "101",
                              "--sigma", "7/50", "--n-max", "60",
                              "--resume", str(blob_path))
    assert code == 0
    assert payload2["n_from"] == 40
    assert json.loads(blob_path.read_text())["n"] == 60


def test_resume_mismatch_exit_2(tmp_path, capsys):
    blob_path = tmp_path / "survey.ckpt"
    run_json(capsys, "survey", "--D", "76", "--p", "101", "--sigma", "7/50",
             "--n-max", "10", "--resume", str(blob_path))
    code, payload = run_json(capsys, "survey", "--D", "7", "--p", "101",
                             "--sigma", "7/50", "--n-max", "20",
                             "--resume", str(blob_path))
    assert code == 2
    assert payload["error"] == "invalid_input"


def test_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "hensel", "--D", "76", "--p", "101", "--n", "1",
                      "--format", "json", "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["roots"] == ["5", "96"]


def test_internal_invariant_violation_exit_4(monkeypatch, capsys):
    from rnlab import cli
    from rnlab.pade import NotMonomialError

    def broken(*args, **kwargs):
        raise NotMonomialError("forced for the exit-code contract")

    monkeypatch.setattr(cli.pade, "cross_constant", broken)
    code, payload = run_json(capsys, "pade", "verify", "--j-max", "1",
                             "--abc-max", "1")
    assert code == 4
    assert payload["error"] == "internal_invariant_violation"


def test_psi12_refused_exit_2(capsys):
    for argv in (["survey", "--sigma", "1/2", "--n-max", "3"],
                 ["hensel", "--n", "3"],
                 ["certify", "--x0", "1", "--n0", "1", "--sigma", "1/10"]):
        code, payload = run_json(capsys, argv[0], "--D", "7", "--p", PSI12,
                                 *argv[1:])
        assert code == 2, argv
        assert payload["error"] == "invalid_input"
        assert "not prime" in payload["message"]
    code, payload = run_json(capsys, "survey", "--D", "7", "--p",
                             str(2 ** 89 - 1), "--sigma", "1/2", "--n-max", "3")
    assert code == 2 and "cannot be proven" in payload["message"]


@pytest.mark.parametrize("D, p, message", [
    ("0", "4", "D must be positive, got 0"),
    ("76", "2", "p = 2 divides D = 76"),
    ("0", str(2 ** 89 - 1), "D must be positive, got 0"),
])
def test_survey_and_hensel_gate_in_one_order(capsys, D, p, message):
    # D >= 1, then p proven prime, then p not dividing D, for both
    code, hensel = run_json(capsys, "hensel", "--D", D, "--p", p, "--n", "3")
    assert code == 2 and hensel["error"] == "invalid_input"
    assert hensel["message"] == message
    code, survey = run_json(capsys, "survey", "--D", D, "--p", p,
                            "--sigma", "1/2", "--n-max", "3")
    assert code == 2 and survey == hensel
    if D != "0":
        return  # scan-huge accepts p | D, and decompose reads x0 first
    for argv in (["scan-huge", "--n0-max", "3"],
                 ["decompose", "--x0", "5", "--n0", "1", "--n", "6",
                  "--x", "5"]):
        code, payload = run_json(capsys, argv[0], "--D", D, "--p", p,
                                 *argv[1:])
        assert code == 2 and payload == hensel, argv


def test_resume_incomplete_blob_exit_2(tmp_path, capsys):
    blob_path = tmp_path / "survey.ckpt"
    blob_path.write_text('{"version":1,"D":76,"p":101,"n":5,"roots":[]}')
    code, payload = run_json(capsys, "survey", "--D", "76", "--p", "101",
                             "--sigma", "7/50", "--n-max", "750",
                             "--resume", str(blob_path))
    assert code == 2 and payload["error"] == "invalid_input"


def test_resume_past_n_max_exit_2(tmp_path, capsys):
    blob_path = tmp_path / "survey.ckpt"
    run_json(capsys, "survey", "--D", "76", "--p", "101", "--sigma", "7/50",
             "--n-max", "50", "--resume", str(blob_path))
    code, payload = run_json(capsys, "survey", "--D", "76", "--p", "101",
                             "--sigma", "7/50", "--n-max", "10",
                             "--resume", str(blob_path))
    assert code == 2 and payload["error"] == "invalid_input"


def test_checkpoint_write_is_atomic(tmp_path, capsys, monkeypatch):
    blob_path = tmp_path / "survey.ckpt"
    run_json(capsys, "survey", "--D", "76", "--p", "101", "--sigma", "7/50",
             "--n-max", "10", "--resume", str(blob_path))
    before = blob_path.read_text()

    def crash(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    code, _ = run_json(capsys, "survey", "--D", "76", "--p", "101",
                       "--sigma", "7/50", "--n-max", "20",
                       "--resume", str(blob_path))
    assert code == 2
    assert blob_path.read_text() == before
    assert os.listdir(tmp_path) == ["survey.ckpt"]


def _tamper_first_lift(monkeypatch):
    """The survey's odd ladder lifts its level-1 root with cofactor m + 1."""
    from rnlab import survey
    real = survey.lift_step_odd

    def tampered(p, r, m, pn):
        return real(p, r, m + (pn == p), pn)

    monkeypatch.setattr(survey, "lift_step_odd", tampered)


def test_tampered_cofactor_exit_4(capsys, monkeypatch):
    _tamper_first_lift(monkeypatch)
    code, payload = run_json(capsys, "survey", "--D", "76", "--p", "101",
                             "--sigma", "7/50", "--n-max", "5")
    assert code == 4
    assert payload["error"] == "internal_invariant_violation"


def test_tampered_survey_error_line_is_short(capsys, monkeypatch):
    # the final check names the level, the stored index and the bit length
    # of a 33 289-bit root, not its 10 021 decimal digits
    _tamper_first_lift(monkeypatch)
    code, out = run_cli(capsys, "survey", "--D", "76", "--p", "101",
                        "--sigma", "1/2", "--n-max", "5000", "--format",
                        "json")
    assert code == 4
    assert len(out.encode()) < 300
    assert json.loads(out)["message"] == (
        "ladder at level 5000: stored root 0 (33289 bits) is invalid at "
        "level 5000")


def _subprocess_env() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(rnlab.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))


def test_audit_same_under_python_O():
    # the invariant checks must not be asserts that -O strips
    argv = ["-m", "rnlab", "audit", "--D", "76", "--p", "101", "--x0", "1015",
            "--n0", "3", "--n", "16", "--format", "json"]
    outs = [subprocess.run([sys.executable, *flags, *argv],
                           env=_subprocess_env(), capture_output=True,
                           text=True, check=True, timeout=300).stdout
            for flags in ([], ["-O"])]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["certificate_status"] == "certified"


def test_max_sigma_same_under_python_O():
    # the grid cell is read off integer log ends by tests, not asserts;
    # (7, 2, 181, 15) is a p = 2 instance with a non-empty enclosure
    outs = {}
    for flags in ([], ["-O"]):
        outs[tuple(flags)] = [subprocess.run(
            [sys.executable, *flags, "-m", "rnlab", "max-sigma", "--D", D,
             "--p", p, "--x0", x0, "--n0", n0, "--format", "json"],
            env=_subprocess_env(), capture_output=True, text=True, check=True,
            timeout=300).stdout
            for D, p, x0, n0 in (("76", "101", "1015", "3"),
                                 ("7", "2", "181", "15"))]
    assert outs[()] == outs[("-O",)]
    for out in outs[()]:
        assert not json.loads(out)["empty"]


# the reader is gone before the report is written, as with `| head -c 0`;
# at n = 1 the report is shorter than a pipe buffer, at n = 3000 longer, and
# a JSON error line goes to the closed stdout too
_CLOSED_STDOUT_CASES = {
    f"{n}-{fmt}": ["hensel", "--D", "76", "--p", "101", "--n", str(n),
                   "--format", fmt]
    for n in (1, 3000) for fmt in ("human", "json")}
_CLOSED_STDOUT_CASES["invalid_input-json"] = [
    "decompose", *_ANCHOR, "--n", "15", "--x", "1015", "--format", "json"]


@pytest.mark.parametrize("argv", list(_CLOSED_STDOUT_CASES.values()),
                         ids=list(_CLOSED_STDOUT_CASES))
def test_closed_stdout_exits_1_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "rnlab", *argv],
                              env=_subprocess_env(), stdout=write_end,
                              stderr=subprocess.PIPE, timeout=300)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""


# the exit-code contract on drawn argv: every subcommand with zero,
# negative and huge integers, composite and even p, square D, malformed and
# extreme sigma, tiny --n-max, and corrupt or foreign resume blobs
_INTS = st.sampled_from(
    ["0", "-1", "-76", "1", "2", "4", "7", "9", "36", "76", "101", "221",
     "1000000007", "2305843009213693951", str(10 ** 30), str(-10 ** 30),
     str(2 ** 127 - 1), "12x", ""])
_LEVELS = st.sampled_from(["-3", "0", "1", "2", "3", "3", "5", "15", "40",
                           "40"])
_SIGMAS = st.sampled_from(
    ["1/2", "7/50", "9/10", "0/1", "1/1", "2/1", "-1/2", "1/0", "3", "a/b",
     "1.5/2", "847/1000", "1/" + "9" * 25,
     "9" * 20 + "/1" + "0" * 20])
# base solutions x0^2 + D = p^n0 half the time, so that valid runs are drawn
_INSTANCES = st.one_of(
    st.sampled_from([("76", "101", "1015", "3"), ("7", "2", "181", "15"),
                     ("28", "37", "225", "3"), ("39", "2", "5", "6")]),
    st.tuples(_INTS, _INTS, _INTS, _LEVELS))
_BLOBS = st.sampled_from([
    None, "", "{", "\x00\xff garbage", '{"version": 1}',
    '{"version": 1, "D": 7, "p": 2, "n": 5, "roots": ["3", "13"]}',
    '{"version": 1, "D": 76, "p": 101, "n": 2, "roots": ["5"]}',
    '{"version": 2, "D": 76, "p": 101, "n": 1, "roots": ["5"]}',
    '{"version": 1, "D": 76, "p": 101, "n": 1000000000, "roots": ["5"]}',
    '[1, 2, 3]'])


def _options(names, values):
    return [a for name, value in zip(names, values) for a in (name, value)]


_INSTANCE_OPTIONS = ("--D", "--p", "--x0", "--n0")


@st.composite
def _argv(draw) -> tuple[list, str | None]:
    """One drawn command line and the text of its resume blob (or None)."""
    command = draw(st.sampled_from(
        ["certify", "survey", "hensel", "pade", "decompose", "audit",
         "max-sigma", "scan-huge"]))
    inst = draw(_INSTANCES)
    blob = None
    if command in ("certify", "max-sigma", "decompose", "audit"):
        argv = [command, *_options(_INSTANCE_OPTIONS, inst)]
        if command in ("decompose", "audit"):
            argv += ["--n", draw(_LEVELS)]
        if command in ("certify", "audit") and (
                command == "certify" or draw(st.booleans())):
            argv += ["--sigma", draw(_SIGMAS)]
        if command != "decompose" and draw(st.booleans()):
            argv += ["--variant", draw(st.sampled_from(["5j", "7j", "9j"]))]
    elif command == "survey":
        argv = [command, *_options(("--D", "--p"), inst[:2]), "--sigma",
                draw(_SIGMAS), "--n-max", draw(_LEVELS)]
        if draw(st.booleans()):
            argv += ["--checkpoint-every", draw(_LEVELS)]
        blob = draw(_BLOBS)
    elif command == "hensel":
        argv = [command, *_options(("--D", "--p"), inst[:2]), "--n",
                draw(_LEVELS)]
    elif command == "scan-huge":
        argv = [command, *_options(("--D", "--p"), inst[:2]), "--n0-max",
                draw(_LEVELS)]
    else:
        small = st.sampled_from(["-1", "0", "1", "2", "4"])
        argv = [command, draw(st.sampled_from(["verify", "check"])),
                "--j-max", draw(small), "--abc-max", draw(small)]
    return argv + ["--format", "json"], blob


@seed(1015)
@settings(max_examples=40, deadline=None, database=None,
          phases=(Phase.explicit, Phase.generate))
@given(_argv())
def test_every_argv_keeps_the_exit_code_contract(drawn):
    # each draw runs in a child process: exit 0, 2, 3 or 4, no traceback,
    # and a report with its schema on exit 0
    argv, blob = drawn
    with tempfile.TemporaryDirectory() as tmp:
        if blob is not None:
            path = os.path.join(tmp, "survey.ckpt")
            if blob:
                with open(path, "w") as fh:
                    fh.write(blob)
            argv = argv + ["--resume", path]
        run = subprocess.run([sys.executable, "-m", "rnlab", *argv],
                             env=_subprocess_env(), cwd=tmp,
                             capture_output=True, text=True, timeout=60)
    assert run.returncode in (0, 2, 3, 4), (argv, run.stderr)
    assert "Traceback" not in run.stderr, (argv, run.stderr)
    if run.returncode == 0:
        schema = json.loads(run.stdout)["schema"]
        assert schema.startswith("rnlab.") and schema != "rnlab.error/1"
