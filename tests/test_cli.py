import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

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


def test_scan_huge(capsys):
    code, payload = run_json(capsys, "scan-huge", "--D", "76", "--p", "101",
                             "--n0-max", "5")
    assert code == 0
    assert payload["solutions"] == [{"x0": "5", "n0": 1},
                                    {"x0": "1015", "n0": 3}]


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


def test_tampered_cofactor_exit_4(capsys, monkeypatch):
    from rnlab import survey
    real = survey.roots_mod_pn

    def tampered(D, p, n):
        state = real(D, p, n)
        return replace(state, cofactors=(state.cofactors[0] + 1,))

    monkeypatch.setattr(survey, "roots_mod_pn", tampered)
    code, payload = run_json(capsys, "survey", "--D", "76", "--p", "101",
                             "--sigma", "7/50", "--n-max", "5")
    assert code == 4
    assert payload["error"] == "internal_invariant_violation"


def test_audit_same_under_python_O():
    # the invariant checks must not be asserts that -O strips
    argv = ["-m", "rnlab", "audit", "--D", "76", "--p", "101", "--x0", "1015",
            "--n0", "3", "--n", "16", "--format", "json"]
    src = os.path.dirname(os.path.dirname(os.path.abspath(rnlab.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outs = [subprocess.run([sys.executable, *flags, *argv], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=300).stdout
            for flags in ([], ["-O"])]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["certificate_status"] == "certified"
