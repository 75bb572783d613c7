import json
from fractions import Fraction

import pytest
from mpmath import iv

from iv_oracle import built, iv_fraction
from rnlab import rigor
from rnlab.decomposer import (AUDIT_CONSTANTS, PreconditionFailError,
                              audit_theorem1_chain, decompose)
from rnlab.hensel import CompositeModulusError, roots_mod_pn
from rnlab.pade import (BOUNDS, IntPolynomial, _unverified_diagonal,
                        build_diagonal, starred_at_z0)
from rnlab.quadring import QuadInt
from rnlab.survey import run_survey

F = Fraction


def test_decompose_n16():
    state = roots_mod_pn(76, 101, 16)
    for x in state.all_roots():
        dec = decompose(76, 101, 1015, 3, x, 16)
        assert (dec.j, dec.k, dec.l) == (1, 5, 1)
        lam = QuadInt.of(0, 2, 76)
        lhs = dec.beta ** 5 * dec.mu - dec.beta.conj() ** 5 * dec.mu.conj()
        assert lhs == dec.sign * lam
        assert dec.mu.norm() == 101 * dec.m


def test_decompose_branches_are_conjugate():
    state = roots_mod_pn(76, 101, 16)
    decs = [decompose(76, 101, 1015, 3, x, 16) for x in state.all_roots()]
    assert {d.branch for d in decs} == {"plus", "minus"}
    assert {d.sign for d in decs} == {1, -1}


def test_decompose_boundary_n():
    x = roots_mod_pn(76, 101, 15).all_roots()[0]
    with pytest.raises(PreconditionFailError):
        decompose(76, 101, 1015, 3, x, 15)  # needs n > 5*n0 strictly


def test_decompose_rejects_bad_base():
    with pytest.raises(PreconditionFailError):
        decompose(76, 101, 1014, 3, 5, 16)
    with pytest.raises(PreconditionFailError):
        decompose(76, 101, 1015, 3, 7, 16)  # 101^16 does not divide 7^2+76


def test_decompose_rejects_composite_p():
    # 474955^2 + 7 = 4^11 * m, yet 4 is no prime: refused as bad input
    assert (474955 ** 2 + 7) % 4 ** 11 == 0
    with pytest.raises(CompositeModulusError, match="p = 4 is not prime"):
        decompose(7, 4, 3, 2, 474955, 11)


def test_lambda_is_beta_minus_conj_beta():
    # the paper's lambda: 2 sqrt(-D) for odd p, sqrt(-D) for p = 2
    odd = decompose(76, 101, 1015, 3, roots_mod_pn(76, 101, 16).all_roots()[0],
                    16)
    assert odd.lam == QuadInt.of(0, 2, 76) == odd.beta - odd.beta.conj()
    two = decompose(7, 2, 181, 15, roots_mod_pn(7, 2, 80).all_roots()[0], 80)
    assert two.lam == QuadInt.of(0, 1, 7) == two.beta - two.beta.conj()


def test_decompose_roundtrip_gamma():
    state = roots_mod_pn(76, 101, 31)
    for x in state.all_roots():
        dec = decompose(76, 101, 1015, 3, x, 31)
        assert (dec.j, dec.k, dec.l) == (2, 10, 1)
        if dec.branch == "plus":
            assert dec.beta ** dec.k * dec.mu == dec.gamma
        else:
            # gamma = conj(beta)^k conj(mu) on the minus branch
            assert dec.beta.conj() ** dec.k * dec.mu.conj() == dec.gamma
        assert dec.gamma.norm() == 101 ** 31 * dec.m
        assert dec.gamma.norm() == dec.beta.norm() ** dec.k * dec.mu.norm()


def test_decompose_norm_accounting_matches_survey():
    rep = run_survey(76, 101, F(1, 2), 20)
    state = roots_mod_pn(76, 101, 20)
    for x in state.all_roots():
        dec = decompose(76, 101, 1015, 3, x, 20)
        assert dec.m == (x * x + 76) // 101 ** 20
        assert dec.mu.norm() == 101 ** dec.l * dec.m


def test_decompose_p2_huge_base():
    # base (181, 15) for D = 7: gamma and beta are half-integral
    state = roots_mod_pn(7, 2, 80)
    for x in state.all_roots():
        dec = decompose(7, 2, 181, 15, x, 80)
        assert dec.j == 1 and dec.k == 5 and dec.l == 80 - 75
        lam = QuadInt.of(0, 1, 7)
        lhs = dec.beta ** 5 * dec.mu - dec.beta.conj() ** 5 * dec.mu.conj()
        assert lhs == dec.sign * lam
        # ring norm of the halved gamma carries 2^(n-2) m
        assert dec.mu.norm() == 2 ** dec.norm_exponent * dec.m
        assert dec.norm_exponent == dec.l + 2 * dec.k - 2


def test_audit_chain_n16():
    state = roots_mod_pn(76, 101, 16)
    for x in state.all_roots():
        dec = decompose(76, 101, 1015, 3, x, 16)
        reports = audit_theorem1_chain(dec)
        assert [rep.g for rep in reports] == [0, 1]
        for rep in reports:
            assert rep.nonzero_this_g or rep.nonzero_other_g
            assert rep.backbone_exact
            assert rep.ii_ok
            assert rep.iii_ok
            assert rep.combination_norm >= 1


def test_audit_iii_matches_survey_cofactor():
    state = roots_mod_pn(76, 101, 18)
    x = state.all_roots()[0]
    dec = decompose(76, 101, 1015, 3, x, 18)
    rep = audit_theorem1_chain(dec)[0]
    assert rep.iii_ok
    assert dec.m * 101 ** 14 >= dec.mu.norm()


def test_audit_verdicts_follow_their_constants(monkeypatch):
    from rnlab import decomposer
    dec = decompose(76, 101, 1015, 3, roots_mod_pn(76, 101, 16).all_roots()[0],
                    16)
    reports = audit_theorem1_chain(dec)
    assert [r.q_lambda_ok for r in reports] == [False, True]
    assert [r.nine_tenths_ok for r in reports] == [False, True]
    monkeypatch.setattr(decomposer, "BOUNDS",
                        decomposer.BOUNDS._replace(q_base=F(10 ** 6)))
    assert all(r.q_lambda_ok for r in audit_theorem1_chain(dec))
    monkeypatch.setattr(decomposer, "BOUNDS",
                        decomposer.BOUNDS._replace(q_base=F(1)))
    assert not any(r.q_lambda_ok for r in audit_theorem1_chain(dec))
    monkeypatch.setattr(decomposer, "AUDIT_CONSTANTS",
                        decomposer.AUDIT_CONSTANTS._replace(nine_tenths=F(2)))
    reports = audit_theorem1_chain(dec)
    assert all(r.nine_tenths_ok for r in reports)
    assert reports[0].margins["nine_tenths_log10_slack"] > 0


def _q_lambda_by_intervals(dec, sys):
    """The q-lambda verdict by mpmath interval builders, a against coeff *
    |beta|^(2(r + beta_exp)), each end compared by rigor.decide."""
    a = starred_at_z0(sys, dec.beta)[1].norm() * dec.lam.norm()
    coeff = (AUDIT_CONSTANTS.q_lambda_coeff ** 2
             * BOUNDS.q_base ** (2 * dec.j))

    def rhs():
        return iv_fraction(coeff) * iv.mpf(dec.beta.norm()) ** \
            iv_fraction(sys.r + AUDIT_CONSTANTS.beta_exp)

    return rigor.decide(built(iv_fraction, F(a)), built(rhs)) \
        is rigor.Comparison.LESS


def test_q_lambda_matches_interval_builders():
    # the integer log ends of rigorous_compare give the verdict of the
    # interval builders on both roots and both g: the anchor at n = 15j + 1,
    # j <= 60 (one level per j), and (7, 2, 181, 15) at five levels
    cases = [(76, 101, 1015, 3, 15 * j + 1) for j in range(1, 61)]
    cases += [(7, 2, 181, 15, n) for n in (80, 151, 301, 601, 1201)]
    verdicts = []
    for D, p, x0, n0, n in cases:
        systems = {}
        for x in roots_mod_pn(D, p, n).all_roots():
            dec = decompose(D, p, x0, n0, x, n)
            for rep in audit_theorem1_chain(dec, systems):
                want = _q_lambda_by_intervals(dec, systems[dec.j, rep.g])
                assert rep.q_lambda_ok == want, (D, p, n, x, rep.g)
                verdicts.append(want)
    assert len(verdicts) == 4 * 60 + 8 * 5
    assert False in verdicts and True in verdicts


def test_q_lambda_holds_when_q_star_vanishes(monkeypatch):
    # Q*(z0) = 0 gives a = 0 < coeff |beta|^(2r+0.9746): True, as the
    # interval [0, 0] of the builders above says, with no log of a taken
    from rnlab import decomposer
    real = decomposer.starred_at_z0

    def zero_q(sys, beta):
        ev_p, _, assembled, ok = real(sys, beta)
        return ev_p, QuadInt.from_int(0, beta.D), assembled, ok

    x = roots_mod_pn(76, 101, 16).all_roots()[0]
    dec = decompose(76, 101, 1015, 3, x, 16)
    assert [r.q_lambda_ok for r in audit_theorem1_chain(dec)] == [False, True]
    monkeypatch.setattr(decomposer, "starred_at_z0", zero_q)
    reports = audit_theorem1_chain(dec)
    assert all(r.nonzero_this_g for r in reports)
    assert all(r.q_lambda_ok for r in reports)


def test_audit_lambda_norm_enters_exactly():
    # |lambda|^2 = 4 * 76 for the odd-p instance
    assert QuadInt.of(0, 2, 76).norm() == 4 * 76


def _doctored(j, g):
    """The starred system at (j, g) with 1 added to one P* coefficient."""
    sys = build_diagonal(j, g)
    return sys._replace(P=sys.P + IntPolynomial.monomial(1, 0))


def test_audit_rejects_doctored_system():
    x = roots_mod_pn(76, 101, 16).all_roots()[0]
    dec = decompose(76, 101, 1015, 3, x, 16)
    for g in (0, 1):
        with pytest.raises(RuntimeError, match="assembled identity"):
            audit_theorem1_chain(dec, {(1, g): _doctored(1, g)})


def test_cli_audit_doctored_system_exit_4(capsys, monkeypatch):
    from rnlab import decomposer
    from rnlab.cli import main
    real = decomposer._unverified_diagonal

    def doctored(j, g):
        return _doctored(j, g) if g == 1 else real(j, g)

    monkeypatch.setattr(decomposer, "_unverified_diagonal", doctored)
    code = main(["audit", "--D", "76", "--p", "101", "--x0", "1015",
                 "--n0", "3", "--n", "16", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["error"] == "internal_invariant_violation"


def _mutants(sys):
    """Every copy of sys with one coefficient of P, Q or E moved by +-1."""
    for part in ("P", "Q", "E"):
        poly = getattr(sys, part)
        for i in range(poly.degree + 1):
            for delta in (1, -1):
                yield sys._replace(**{
                    part: poly + IntPolynomial.monomial(delta, i)})


@pytest.mark.parametrize("beta", [QuadInt.of(1015, 1, 76),
                                  QuadInt.half(181, 1, 7)],
                         ids=["anchor", "p2"])
def test_z0_check_catches_every_single_coefficient_fault(beta):
    # the audit verifies its systems only at z0 (see the decomposer
    # docstring): each of the 2880 mutants per beta must fail there
    for j in range(1, 13):
        for g in (0, 1):
            sys = _unverified_diagonal(j, g)
            assert starred_at_z0(sys, beta)[3]
            for mutant in _mutants(sys):
                assert not starred_at_z0(mutant, beta)[3], mutant


_ANCHOR16 = ["--D", "76", "--p", "101", "--x0", "1015", "--n0", "3",
             "--n", "16"]
_P2 = ["--D", "7", "--p", "2", "--x0", "181", "--n0", "15", "--n", "80"]


@pytest.mark.parametrize("instance,g,part,i,delta", [
    (_ANCHOR16, 0, "P", 0, 1),
    (_ANCHOR16, 0, "Q", 4, 1),
    (_ANCHOR16, 1, "E", 1, 1),
    (_P2, 0, "E", 0, 1),
    (_P2, 1, "Q", 2, -1),
], ids=["anchor-P", "anchor-Q", "anchor-E", "p2-E", "p2-Q"])
def test_cli_audit_mutant_system_exit_4(capsys, monkeypatch, instance, g,
                                        part, i, delta):
    # the mutant enters through the audit's own builder, whose system is
    # already starred: it is off by delta z^i
    from rnlab import decomposer
    from rnlab.cli import main

    def mutated(j, g_):
        sys = _unverified_diagonal(j, g_)
        if g_ != g:
            return sys
        fault = IntPolynomial.monomial(delta, i)
        return sys._replace(**{part: getattr(sys, part) + fault})

    monkeypatch.setattr(decomposer, "_unverified_diagonal", mutated)
    code = main(["audit", *instance, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 4
    assert payload["error"] == "internal_invariant_violation"
    assert payload["message"].startswith("assembled identity failed")


def test_cli_audit_multiplies_no_polynomials(capsys, monkeypatch):
    # the audit path builds its systems without the identity product:
    # no polynomial x polynomial product at all (scalar ones are allowed)
    from rnlab.cli import main
    products = []
    real = IntPolynomial.__mul__

    def counting(self, other):
        if isinstance(other, IntPolynomial):
            products.append((self.degree, other.degree))
        return real(self, other)

    monkeypatch.setattr(IntPolynomial, "__mul__", counting)
    code = main(["audit", "--D", "76", "--p", "101", "--x0", "1015",
                 "--n0", "3", "--n", "900", "--format", "json"])
    assert code == 0 and len(json.loads(capsys.readouterr().out)["audits"]) == 4
    assert products == []
    build_diagonal(1, 0)  # the counter sees the verified builder's product
    assert products


def test_cli_audit_evaluates_each_system_once(capsys, monkeypatch):
    from rnlab import decomposer, pade
    from rnlab.cli import main
    calls = []
    real = pade.eval_at_z0

    def counting(*args):
        calls.append(args)
        return real(*args)

    for module in (pade, decomposer):
        monkeypatch.setattr(module, "eval_at_z0", counting)
    x = roots_mod_pn(76, 101, 300).all_roots()[0]
    code = main(["audit", "--D", "76", "--p", "101", "--x0", "1015",
                 "--n0", "3", "--n", "300", "--x", str(x), "--format", "json"])
    assert code == 0 and json.loads(capsys.readouterr().out)["audits"]
    # P*, Q* and E* at g = 0 and at g = 1
    assert len(calls) == 6
