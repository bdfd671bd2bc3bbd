import json

import numpy as np
import pytest

from grflab.cli import run

FIELD_AFFINE = json.dumps({
    "m": 1, "k": 1,
    "basis": [
        {"type": "monomial", "exponents": [0], "amplitude": [1.0]},
        {"type": "monomial", "exponents": [1], "amplitude": [1.0]},
    ],
})
FIELD_EMPTY = json.dumps({"m": 1, "k": 1, "basis": []})
FIELD_T = json.dumps({
    "m": 1, "k": 1,
    "basis": [{"type": "monomial", "exponents": [1], "amplitude": [1.0]}],
})
EVENT_SUP = json.dumps({
    "type": "sup_norm_below",
    "box": {"lower": [0.0], "upper": [1.0]},
    "order": 0, "threshold": 1.0,
})


def test_counterexample_reports_are_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["counterexample", "--n", "2", "--samples", "500", "--seed", "0"]
    assert run(args + ["--output", str(out1)]) == 0
    assert run(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    row = report["results"][0]
    assert row["exact_prob"] == 0.5 ** 4
    assert "ci95_low" in row and "kernel_sup" in row


def test_jet_scan_exit_codes(capsys):
    assert run(["jet-scan", "--field", FIELD_AFFINE, "--order", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is True
    assert run(["jet-scan", "--field", FIELD_T, "--order", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is False
    assert run(["jet-scan", "--field", FIELD_T, "--order", "1",
                "--require-pass"]) == 2


def test_estimate_empty_field(capsys):
    assert run(["estimate", "--field", FIELD_EMPTY, "--event", EVENT_SUP,
                "--samples", "200"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["p_hat"] == 1.0


def test_estimate_csv_output(capsys):
    assert run(["estimate", "--field", FIELD_AFFINE, "--event", EVENT_SUP,
                "--samples", "200", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("p_hat,")
    assert len(lines) == 2


def test_seminorm_command(capsys):
    assert run(["seminorm", "--field", FIELD_T, "--order", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seminorm"] == 1.0


def test_covariance_command(capsys):
    kernel = json.dumps({"type": "closed_form", "tag": "affine_dot"})
    assert run(["covariance", "--kernel", kernel,
                "--points", "[[[2.0], [3.0]]]"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"][0]["K"] == [[7.0]]


def test_sample_command(tmp_path):
    out = tmp_path / "paths.csv"
    assert run(["sample", "--field", FIELD_AFFINE, "--samples", "2",
                "--box", json.dumps({"lower": [0.0], "upper": [1.0],
                                     "resolution": [4]}),
                "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample,x0,value0"
    assert len(lines) == 1 + 2 * 5


def test_validate_command(capsys):
    assert run(["validate", "--field", FIELD_AFFINE]) == 0
    json.loads(capsys.readouterr().out)
    # an impossible tolerance flips the verdict: exit code 2 means failure
    assert run(["validate", "--field", FIELD_AFFINE, "--tol", "-1.0"]) == 2


def test_schema_error_exit_and_pointer(capsys):
    bad = json.dumps({"m": 1, "k": 1, "basis": [], "bogus": True})
    assert run(["estimate", "--field", bad, "--event", EVENT_SUP]) == 1
    err = capsys.readouterr().err
    assert "schema error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        run(["no-such-command"])
    assert info.value.code == 1


def test_every_subcommand_has_help(capsys):
    commands = ["sample", "covariance", "seminorm", "jet-scan", "estimate",
                "gauss-ratio", "limit-study", "counterexample", "validate"]
    for cmd in commands:
        with pytest.raises(SystemExit) as info:
            run([cmd, "--help"])
        assert info.value.code == 0
        assert len(capsys.readouterr().out) > 50


def test_threads_flag(capsys):
    assert run(["seminorm", "--field", FIELD_T, "--order", "0",
                "--threads", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["seminorm"] == 1.0


def test_gauss_ratio_command(capsys):
    const = json.dumps({"m": 1, "k": 1, "basis": [
        {"type": "monomial", "exponents": [0], "amplitude": [1.0]}]})
    assert run(["gauss-ratio", "--field", const, "--order", "1",
                "--samples", "2000"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["ratio"] - np.sqrt(2 / np.pi)) < 0.05


def test_limit_study_command(tmp_path, capsys):
    cfg = {
        "fields": [json.loads(FIELD_AFFINE)],
        "limit_field": json.loads(json.dumps({"m": 1, "k": 1, "basis": [
            {"type": "monomial", "exponents": [0], "amplitude": [1.0]}]})),
        "event": json.loads(EVENT_SUP),
        "box": {"lower": [0.0], "upper": [1.0]},
        "r": 0,
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    assert run(["limit-study", "--config", str(path), "--samples", "200"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["distance_order"] == 2
    assert len(report["results"]) == 2
    assert report["results"][-1]["is_limit"] is True


def test_file_inputs(tmp_path, capsys):
    fpath = tmp_path / "field.json"
    fpath.write_text(FIELD_AFFINE)
    epath = tmp_path / "event.json"
    epath.write_text(EVENT_SUP)
    assert run(["estimate", "--field", str(fpath), "--event", str(epath),
                "--samples", "200"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 <= report["p_hat"] <= 1.0


def test_oversized_dense_design_is_an_error_line(capsys):
    basis = [{"type": "harmonic", "frequency": [1.0 + i, 0.5 * i], "phase": 0.1 * i,
              "amplitude": [1.0]} for i in range(10)]
    field = json.dumps({"m": 2, "k": 1, "basis": basis})
    b = json.dumps({"lower": [0.0, 0.0], "upper": [1.0, 1.0], "resolution": [700, 700]})
    assert run(["seminorm", "--field", field, "--order", "1", "--box", b]) == 1
    err = capsys.readouterr().err
    assert err.startswith("grflab: error: ")
    assert "4914010 entries" in err and "Traceback" not in err
