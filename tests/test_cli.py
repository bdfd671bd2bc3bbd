import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from grflab import cli
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
    # integer coordinates are numbers too, not a failure to write the report
    assert run(["covariance", "--kernel", kernel, "--points", "[[2, [3]]]"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"][0] == {"p": [2], "q": [3], "K": [[7.0]]}


def test_sample_csv_matches_the_json_report(tmp_path):
    # the CSV rows are the JSON report's grid and values, as csv.DictWriter
    # writes one dict per row
    box_doc = json.dumps({"lower": [0.0, -1.0], "upper": [1.0, 1.0], "resolution": [3, 2]})
    field = json.dumps({"m": 2, "k": 2, "basis": [
        {"type": "harmonic", "frequency": [1.0, 2.0], "phase": 0.3, "amplitude": [1.0, -0.5]},
        {"type": "monomial", "exponents": [1, 2], "amplitude": [2.0, 1e-30]}]})
    argv = ["sample", "--field", field, "--box", box_doc, "--samples", "3", "--seed", "4"]
    assert run(argv + ["--output", str(tmp_path / "r.json")]) == 0
    assert run(argv + ["--format", "csv", "--output", str(tmp_path / "r.csv")]) == 0
    report = json.loads((tmp_path / "r.json").read_text())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["sample", "x0", "x1", "value0", "value1"])
    writer.writeheader()
    for s, path in enumerate(report["samples"]):
        for x, v in zip(report["grid"], path):
            writer.writerow({"sample": s, "x0": x[0], "x1": x[1], "value0": v[0],
                             "value1": v[1]})
    assert (tmp_path / "r.csv").read_bytes() == buf.getvalue().encode()
    assert run(argv[:-3] + ["0", "--format", "csv", "--output", str(tmp_path / "e.csv")]) == 0
    assert (tmp_path / "e.csv").read_bytes() == b""


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


FIELD_HARMONIC_2D = json.dumps({
    "m": 2, "k": 1,
    "basis": [{"type": "harmonic", "frequency": [1.0, 2.0], "phase": 0.3,
               "amplitude": [1.0]}],
})


def test_validate_refuses_points_of_the_wrong_dimension(capsys):
    # four 1-D points on a 2-D field must not be read as two 2-D points
    argv = ["validate", "--field", FIELD_HARMONIC_2D, "--points", "[[0.1],[0.2],[0.3],[0.4]]"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("grflab: error: points of shape (4, 1) "
                            "do not match dimension 2\n")
    # m = 1 still takes a flat list of scalars, like the same points as rows
    assert run(["validate", "--field", FIELD_AFFINE, "--points", "[0.1, 0.5, 0.9]"]) == 0
    flat = json.loads(capsys.readouterr().out)
    assert run(["validate", "--field", FIELD_AFFINE, "--points", "[[0.1], [0.5], [0.9]]"]) == 0
    assert json.loads(capsys.readouterr().out) == flat and flat["n_points"] == 3


def test_validate_refuses_an_empty_point_list(capsys):
    assert run(["validate", "--field", FIELD_AFFINE, "--points", "[]"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "grflab: error: --points must hold at least one point\n"


@pytest.mark.parametrize("argv", [
    ["validate", "--field", FIELD_AFFINE, "--max-points", "0"],
    ["validate", "--field", FIELD_AFFINE, "--max-points", "-3"],
    ["sample", "--field", FIELD_AFFINE, "--samples", "-2"],
    ["covariance", "--field", FIELD_AFFINE, "--points", "5"],
    ["covariance", "--field", FIELD_AFFINE, "--points", "[1, 2]"],
    ["covariance", "--field", FIELD_AFFINE, "--points", "[[null, 0.5]]"],
    ["covariance", "--field", FIELD_AFFINE, "--points", "[[{}, 0.5]]"],
])
def test_malformed_arguments_are_one_error_line(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("grflab: error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_schema_error_exit_and_pointer(capsys):
    bad = json.dumps({"m": 1, "k": 1, "basis": [], "bogus": True})
    assert run(["estimate", "--field", bad, "--event", EVENT_SUP]) == 1
    err = capsys.readouterr().err
    assert "schema error" in err


@pytest.mark.parametrize("basis, line", [
    ({"type": "monomial", "exponents": [-1], "amplitude": [1.0]},
     "grflab: schema error at /basis/1/exponents/0: "
     "/basis/1/exponents/0: -1 is less than the minimum of 0"),
    ({"type": "bump", "center": [0.5], "radius": 0, "amplitude": [1.0]},
     "grflab: schema error at /basis/1/radius: "
     "/basis/1/radius: 0 is less than or equal to the minimum of 0"),
])
def test_schema_error_text_is_pinned(capsys, basis, line):
    doc = json.loads(FIELD_T)
    doc["basis"].append(basis)
    assert run(["seminorm", "--field", json.dumps(doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


FIELD_NAN_SIGMA = ('{"m": 1, "k": 1, "basis": [{"type": "monomial", "exponents": [0], '
                   '"amplitude": [1.0]}, {"type": "monomial", "exponents": [1], '
                   '"amplitude": [1.0]}], "sigmas": [NaN, 1]}')
FIELD_NAN_RADIUS = ('{"m": 1, "k": 1, "basis": [{"type": "bump", "center": [0.5], '
                    '"radius": NaN, "amplitude": [1.0]}]}')
HUGE = "1" + "0" * 400  # a JSON integer beyond a double's range
FIELD_HUGE_SIGMA = FIELD_NAN_SIGMA.replace("NaN", HUGE)
FIELD_HUGE_EXPONENT = FIELD_T.replace('"exponents": [1]', f'"exponents": [{HUGE}]')


@pytest.mark.parametrize("argv, constant", [
    (["seminorm", "--field", FIELD_NAN_SIGMA], "NaN"),
    (["jet-scan", "--field", FIELD_NAN_RADIUS], "NaN"),
    (["seminorm", "--field", FIELD_T, "--box", '{"lower": [0], "upper": [Infinity]}'],
     "Infinity"),
    (["validate", "--field", FIELD_T, "--points", "[[0.1], [-Infinity]]"], "-Infinity"),
    (["seminorm", "--field", FIELD_T, "--box", '{"lower": [0], "upper": [1e999]}'], "1e999"),
    (["validate", "--field", FIELD_T, "--points", "[[0.1], [-1.5e400]]"], "-1.5e400"),
    pytest.param(["seminorm", "--field", FIELD_HUGE_SIGMA], HUGE, id="huge-sigma"),
    pytest.param(["jet-scan", "--field", FIELD_HUGE_EXPONENT], HUGE, id="huge-exponent"),
])
def test_non_finite_json_numbers_are_schema_errors(capsys, argv, constant):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("grflab: schema error at /: "
                            f"not valid JSON (non-finite number {constant})\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_overflowed_result_is_one_error_line_and_no_file(tmp_path, capsys, fmt):
    # K = (1e200 t)^2 overflows
    field = FIELD_T.replace('"amplitude": [1.0]', '"amplitude": [1e200]')
    out = tmp_path / "report"
    assert run(["seminorm", "--field", field, "--format", fmt, "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "grflab: error: overflow encountered in multiply\n"
    assert list(tmp_path.iterdir()) == []


def test_a_json_report_refuses_non_finite_numbers(tmp_path):
    args = argparse.Namespace(format="json", output=str(tmp_path / "report.json"))
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_report({"seminorm": value}, [], args)
    assert list(tmp_path.iterdir()) == []


def test_invalid_json_argument_is_a_schema_error(capsys):
    assert run(["seminorm", "--field", '{"m": 1,']) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("grflab: schema error at /: not valid JSON (")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("name, reason", [("missing.json", "No such file or directory"),
                                          ("directory", "Is a directory"),
                                          ("", "No such file or directory")])
def test_unreadable_path_argument_is_an_error_naming_it(tmp_path, capsys, name, reason):
    (tmp_path / "directory").mkdir()
    path = str(tmp_path / name) if name else ""
    assert run(["seminorm", "--field", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("grflab: error: ") and captured.err.count("\n") == 1
    assert reason in captured.err and repr(path) in captured.err


@pytest.mark.parametrize("target", ["missing/report.json", "directory"])
def test_unwritable_output_is_one_error_line(tmp_path, capsys, target):
    # a missing directory fails to make the temporary file; a directory as
    # the target fails to replace it, which removes the temporary file
    (tmp_path / "directory").mkdir()
    assert run(["seminorm", "--field", FIELD_T, "--output", str(tmp_path / target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("grflab: error: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert list(tmp_path.rglob("*")) == [tmp_path / "directory"]


def test_a_deeply_nested_document_is_one_error_line(tmp_path):
    # 300 nested scaled terms exceed Python's recursion limit while the field is read
    term = {"type": "bump", "center": [0.5], "radius": 0.3, "amplitude": [1.0]}
    for _ in range(300):
        term = {"type": "scaled", "factor": 1.0, "inner": term}
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"m": 1, "k": 1, "basis": [term]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-m", "grflab.cli", "seminorm", "--field", str(path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("grflab: error: ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


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


TYPICAL_ARGV = {
    "sample": ["--field", FIELD_T, "--samples", "3", "--seed", "4"],
    "covariance": ["--kernel", FIELD_T, "--points", "[[0, 1]]", "--format", "csv"],
    "seminorm": ["--field", FIELD_T, "--order", "1", "--box", "{}"],
    "jet-scan": ["--field", FIELD_T, "--rel-tol", "1e-6", "--require-pass"],
    "estimate": ["--field", FIELD_T, "--event", EVENT_SUP, "--output", "out.json"],
    "gauss-ratio": ["--field", FIELD_T, "--order", "0", "--samples", "10"],
    "limit-study": ["--config", "study.json", "--seed", "2"],
    "counterexample": ["--n", "3", "5", "--resolution", "64"],
    "validate": ["--kernel", FIELD_T, "--tol", "1e-8", "--max-points", "4"],
}


def test_one_command_parser_parses_as_the_full_parser():
    assert list(TYPICAL_ARGV) == list(cli._SUBCOMMANDS)
    full = cli.build_parser()
    for command, rest in TYPICAL_ARGV.items():
        argv = [command, *rest]
        assert cli.build_parser(command).parse_args(argv) == full.parse_args(argv)


def _outcome(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["nope"], ["-h"], ["jet-scan"], ["jet-scan", "-h"],
    ["jet-scan", "--field", "{}", "--bogus"],
    ["seminorm", "--field", "x", "--order", "abc"], ["seminorm", "--field", FIELD_T, "extra"],
    ["validate", "--field", FIELD_T, "--kernel", FIELD_T], ["sample", "--field", FIELD_T],
])
def test_run_prints_the_same_with_the_full_parser(monkeypatch, capsys, argv):
    one_command = _outcome(argv, capsys)
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
    assert _outcome(argv, capsys) == one_command


def test_run_builds_only_the_named_subparser(monkeypatch, capsys):
    # all nine subparsers cost about 2 ms, paid by every command in a fresh process
    calls = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: calls.append(name) or add_parser(self, name, **kw))
    assert run(["seminorm", "--field", FIELD_T]) == 0
    assert calls == ["seminorm"]
    calls.clear()
    with pytest.raises(SystemExit):
        run(["-h"])
    assert calls == list(cli._SUBCOMMANDS) and len(calls) == 9


def test_import_loads_no_unused_scipy_subpackages(tmp_path):
    # every command pays for what `import grflab.cli` loads, and none uses
    # scipy; jsonschema is only imported to explain a rejected document.
    # A command's run imports nothing more (argparse's gettext wants locale,
    # which the import loads), and neither do the integrated ensemble's
    # designs, through order 4, nor a sampling command
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    script = (
        "import json, sys, grflab.cli\n"
        "from grflab import counterexample as cx\n"
        "from grflab.basis import grid_points\n"
        "from grflab.field import _design\n"
        "imported = sorted(sys.modules)\n"
        "code = grflab.cli.run(sys.argv[1:])\n"
        "after_run = sorted(sys.modules)\n"
        "cfg = cx.config(2, integration_order=2)\n"
        "Y = cx.build_Y_n(cfg)\n"
        "shapes = [_design(Y, grid_points(cx.grid_box(cfg)), (j,)).shape for j in range(5)]\n"
        "print(json.dumps([imported, after_run, sorted(sys.modules), code, shapes]))\n")
    runs = [subprocess.run(
        [sys.executable, "-c", script, *argv, "--output", str(tmp_path / "report.json")],
        env=env, capture_output=True, text=True, timeout=120, check=True)
        for argv in (["seminorm", "--field", FIELD_AFFINE],
                     ["counterexample", "--n", "2", "--samples", "200"])]
    for i, out in enumerate(runs):
        imported, after_run, after_designs, code, shapes = json.loads(out.stdout)
        assert "grflab.cli" in imported and code == 0
        assert shapes == [[4, 257]] * 5
        assert not [m for m in after_designs if m.split(".")[0] == "scipy"]
        if i == 0:
            assert after_run == imported
        for loaded in (imported, after_run):
            assert not [m for m in loaded
                        if m.split(".")[0] in ("jsonschema", "referencing", "attrs", "attr")]


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


def test_an_overflowed_kernel_weight_is_one_error_line_and_no_file(tmp_path, capsys):
    # the limit distance merges sigma^2 = (1e200)^2, which overflows
    field = json.loads(FIELD_AFFINE)
    field["sigmas"] = [1.0, 1e200]
    cfg = {"fields": [field], "limit_field": json.loads(FIELD_T),
           "event": json.loads(EVENT_SUP), "box": {"lower": [0.0], "upper": [1.0]}, "r": 0}
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert run(["limit-study", "--config", str(path), "--samples", "200",
                "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "grflab: error: a kernel weight sigma^2 overflowed\n"
    assert not out.exists()


def test_an_overflowed_lone_kernel_weight_is_one_error_line_and_no_file(tmp_path, capsys):
    # sigma^2 = (1e200)^2 of the one field a seminorm reads
    field = json.loads(FIELD_T)
    field["sigmas"] = [1e200]
    out = tmp_path / "report.json"
    assert run(["seminorm", "--field", json.dumps(field), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "grflab: error: a kernel weight sigma^2 overflowed\n"
    assert not out.exists()


def test_an_overflowed_windowed_path_sup_is_above_the_threshold(capsys):
    # coefficient 1e200 z times bump peak 1e200 is inf: no error line, no hit
    field = {"m": 1, "k": 1, "sigmas": [1e200],
             "basis": [{"type": "bump", "center": [0.5], "radius": 0.25, "amplitude": [1e200]}]}
    assert run(["estimate", "--field", json.dumps(field), "--event", EVENT_SUP,
                "--samples", "200"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["p_hat"] == 0.0


@pytest.mark.parametrize("integral_floats", [{"r": 0.0}, {"r": 1.0, "distance_order": 1.0}])
def test_limit_study_reads_integral_floats_as_integers(tmp_path, capsys, integral_floats):
    # the schema calls 0.0 an integer; the report must be that of the integer config
    reports = []
    for numbers in ({key: int(value) for key, value in integral_floats.items()},
                    integral_floats):
        cfg = {"fields": [json.loads(FIELD_AFFINE)], "limit_field": json.loads(FIELD_T),
               "event": json.loads(EVENT_SUP), "box": {"lower": [0.0], "upper": [1.0]},
               **numbers}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(cfg))
        assert run(["limit-study", "--config", str(path), "--samples", "200"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    report = json.loads(reports[0])
    assert report["distance_order"] == integral_floats.get("distance_order", 2)
    assert report["results"][0]["kernel_distance"] > 0.0


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


def _harmonic_doc(freqs):
    return {"m": 2, "k": 1, "basis": [
        {"type": "harmonic", "frequency": w, "phase": 0.3 * i, "amplitude": [1.0]}
        for i, w in enumerate(freqs)]}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs sched_getaffinity and sched_setaffinity")
def test_reports_do_not_depend_on_the_usable_cores(tmp_path):
    # Monte Carlo chunks and kernel-distance tiles have a fixed size, so a
    # run pinned to one CPU writes the same bytes as a run that may use
    # every core, and as a second run
    event = json.dumps({"type": "zero_count_equals", "count": 1,
                        "box": {"lower": [0.0], "upper": [1.0], "resolution": [2048]}})
    # 256 grid points: each pair block of the order-2 distance is two tiles
    freqs = [[1.0, 2.0], [-2.5, 0.5], [3.0, -1.5]]
    study = tmp_path / "study.json"
    study.write_text(json.dumps({
        "fields": [_harmonic_doc([[x + 0.1 * j, y] for x, y in freqs]) for j in (1, 2)],
        "limit_field": _harmonic_doc(freqs),
        "event": {"type": "sup_norm_below", "order": 0, "threshold": 2.0,
                  "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0], "resolution": [8, 8]}},
        "box": {"lower": [0.0, 0.0], "upper": [1.0, 1.0], "resolution": [15, 15]},
        "r": 0}))
    commands = {
        "estimate.json": ["estimate", "--field", FIELD_AFFINE, "--event", event,
                          "--samples", "20000", "--seed", "3"],
        "counterexample.json": ["counterexample", "--n", "5", "--samples", "20000",
                                "--seed", "3"],
        "limit-study.json": ["limit-study", "--config", str(study), "--samples", "500"],
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    one_cpu = {min(os.sched_getaffinity(0))}
    for name, argv in commands.items():
        outputs = []
        for pin in (None, lambda: os.sched_setaffinity(0, one_cpu), None):
            out = tmp_path / f"{len(outputs)}-{name}"
            proc = subprocess.run([sys.executable, "-m", "grflab.cli", *argv, "--output",
                                   str(out)], env=env, preexec_fn=pin, capture_output=True,
                                  timeout=120)
            assert proc.returncode == 0 and proc.stdout == b"" and proc.stderr == b""
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
