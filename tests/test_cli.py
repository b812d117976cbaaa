import io
import json
import os
import subprocess
import sys

import pytest

import singfol
from singfol.cli import EXIT_CERTIFICATE, EXIT_INPUT, EXIT_OK, build_frame, main
from singfol.demos import DEMOS, demo_names


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def frame_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DEMOS[name].to_spec()), encoding="utf-8")
    return str(path)


def test_demo_emits_valid_frame_documents(capsys):
    for name in demo_names():
        code, out, _ = run(capsys, "demo", name)
        assert code == EXIT_OK
        spec = json.loads(out)
        assert spec["name"] == name
        build_frame(spec)
    code, out, _ = run(capsys, "demo", "dim6-cubic")
    assert "positive measure" in json.loads(out)["caveat"]


def test_demo_pipes_into_certify(capsys, monkeypatch):
    code, out, _ = run(capsys, "demo", "dim4")
    stdin = io.StringIO(out)
    stdin.isatty = lambda: False
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, _ = run(capsys, "certify")
    assert code == EXIT_OK
    assert "all 1 certificates valid" in out


def test_goh_reports_reduced_matrix(capsys, tmp_path):
    code, out, _ = run(capsys, "goh", "--frame", frame_file(tmp_path, "martinet"))
    assert code == EXIT_OK
    assert "2*x1*p3" in out
    assert "reduced form" in out and "2*x1" in out


def test_pfaffian_minors(capsys, tmp_path):
    code, out, _ = run(capsys, "pfaffian", "--minors", "2",
                       "--frame", frame_file(tmp_path, "dim4-engel"))
    assert code == EXIT_OK
    assert "phi{1,2} = 1" in out
    assert "phi{1,3} = 0" in out


def test_generators_output(capsys, tmp_path):
    code, out, _ = run(capsys, "generators", "--frame", frame_file(tmp_path, "dim5"))
    assert code == EXIT_OK
    assert out.count("generator I=") == 4
    assert "Z = " in out


def test_certify_all_demos(capsys, tmp_path):
    for name in demo_names():
        code, out, _ = run(capsys, "certify", "--frame", frame_file(tmp_path, name))
        assert code == EXIT_OK, name
        assert "certificates valid" in out


def test_singular_set_martinet(capsys, tmp_path):
    code, out, _ = run(capsys, "singular-set", "--frame", frame_file(tmp_path, "martinet"))
    assert code == EXIT_OK
    assert "phi{1,2} = 2*x1" in out


def test_stratify_dim6(capsys, tmp_path):
    code, out, _ = run(capsys, "stratify", "--seed", "7", "--samples", "48",
                       "--frame", frame_file(tmp_path, "dim6-cubic"))
    assert code == EXIT_OK
    assert "{1, 3}" in out


def test_normalform_fixture_is_fixed_point(capsys, tmp_path):
    code, out, _ = run(capsys, "normalform", "--order", "3",
                       "--frame", frame_file(tmp_path, "dim4-engel"))
    assert code == EXIT_OK
    assert "X1 = (1, 0, 0, 0)" in out


def test_integrate_engel_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "integrate", "--from", "0,0,0,0", "--T", "0.02",
                       "--h", "0.01", "--frame", frame_file(tmp_path, "dim4-engel"))
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[1].startswith("# seed=none, h=0.01, T=0.02")
    assert lines[2] == "t,x1,x2,x3,x4,residual_b,residual_c"


def test_integrate_impossible_tolerance_fails_with_exit_2(capsys, tmp_path):
    # dim4 from a generic point has float-level residuals; tolerance 0 cannot hold
    code, out, err = run(capsys, "integrate", "--from", "0.3,0.2,0.1,0.4", "--T", "0.1",
                         "--h", "0.01", "--tolerance", "0",
                         "--frame", frame_file(tmp_path, "dim4"))
    assert code == EXIT_CERTIFICATE
    assert "certificate failure" in err


def test_scan_div(capsys, tmp_path):
    code, out, _ = run(capsys, "scan-div", "--seed", "5", "--samples", "64",
                       "--cutoff", "0.01", "--frame", frame_file(tmp_path, "dim4"))
    assert code == EXIT_OK
    assert "ratio_sup" in out


def test_negative_values_accepted_by_flags(capsys, tmp_path):
    code, _, _ = run(capsys, "scan-div", "--seed", "5", "--samples", "16",
                     "--cutoff", "0.01", "--box", "-0.5,0.5",
                     "--frame", frame_file(tmp_path, "dim4"))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "integrate", "--from", "-1,0,0,0", "--T", "0.01",
                       "--h", "0.01", "--frame", frame_file(tmp_path, "dim4-engel"))
    assert code == EXIT_OK
    assert out.splitlines()[-1].startswith("0.01,-0.99")


def test_bracket_check(capsys, tmp_path):
    code, out, _ = run(capsys, "bracket-check", "--frame", frame_file(tmp_path, "martinet"))
    assert code == EXIT_OK
    assert "span the tangent space at depth 3" in out
    # the default depth stays within the bracket budget on every demo
    for name in demo_names():
        code, out, _ = run(capsys, "bracket-check", "--frame", frame_file(tmp_path, name))
        assert code == EXIT_OK and "diagnostic only" in out, name


def test_malformed_expression_reports_offset(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 3, "rank": 2, "normal_form": ["0", "x1 +"]}),
                    encoding="utf-8")
    code, out, err = run(capsys, "goh", "--frame", str(path))
    assert code == EXIT_INPUT
    assert "offset" in err


def test_input_error_as_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, _ = run(capsys, "goh", "--frame", str(path), "--json")
    assert code == EXIT_INPUT
    assert "error" in json.loads(out)


def test_schema_validation_errors(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 4, "rank": 2, "normal_form": ["0", "0", "0"]}),
                    encoding="utf-8")
    code, _, err = run(capsys, "goh", "--frame", str(path))
    assert code == EXIT_INPUT
    assert "rank" in err
    # a bad dimension or a payload that is not a list of strings is refused
    # before anything is parsed, in text and under --json
    for doc, word in [({"dimension": 0, "rank": 2, "normal_form": []}, "dimension"),
                      ({"dimension": -3, "rank": 2, "fields": []}, "dimension"),
                      ({"dimension": 3, "rank": 2, "normal_form": [1, 2]}, "normal_form"),
                      ({"dimension": 3, "rank": 2, "normal_form": "x1"}, "normal_form"),
                      ({"dimension": 3, "rank": 2, "fields": [1, 2]}, "fields"),
                      ({"dimension": 3, "rank": 2, "fields": "ab"}, "fields"),
                      ({"dimension": 4, "rank": 3,
                        "normal_form": ["(x1+x2+x3+1)^60", "0", "0"]}, "limit")]:
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "goh", "--frame", str(path))
        assert code == EXIT_INPUT, doc
        assert out == "" and err.startswith("error: ") and word in err, doc
        code, out, _ = run(capsys, "goh", "--frame", str(path), "--json")
        assert code == EXIT_INPUT, doc
        assert word in json.loads(out)["error"], doc


@pytest.mark.parametrize("argv, flag", [
    (["stratify", "--seed", "1", "--samples", "0"], "--samples"),
    (["integrate", "--from", "0,0,0,0", "--T", "0.1", "--h", "0"], "--h"),
    (["integrate", "--from", "0,0,0,0", "--T", "nan", "--h", "0.01"], "--T"),
    (["normalform", "--order", "-1"], "--order"),
    (["scan-div", "--seed", "1", "--cutoff", "0"], "--cutoff"),
    (["generators", "--rank", "3"], "--rank"),
    (["singular-set", "--rank", "3"], "--rank"),
    (["integrate", "--from", "a,b,c,d", "--T", "0.1", "--h", "0.01"], "--from"),
    (["integrate", "--field", "a", "--from", "0,0,0,0", "--T", "0.1", "--h", "0.01"], "--field"),
    (["bracket-check", "--at", "a,b,c,d"], "--at"),
    (["integrate", "--from", "0,0,0,0", "--T", "1e9", "--h", "1e-9"], "--T"),
    (["integrate", "--from", "0,0,0,0", "--T", "1e300", "--h", "1e-300"], "--T"),
    (["scan-div", "--seed", "1", "--samples", "-1"], "--samples"),
    (["bracket-check", "--depth", "0"], "--depth"),
    (["bracket-check", "--depth", "-1"], "--depth"),
    (["stratify", "--seed", "1", "--tolerance", "nan"], "--tolerance"),
    (["stratify", "--seed", "1", "--tolerance", "-0.5"], "--tolerance"),
    (["integrate", "--from", "0,0,0,0", "--T", "0.1", "--h", "0.05", "--tolerance", "nan"],
     "--tolerance"),
    (["integrate", "--from", "0,0,0,0", "--T", "0.1", "--h", "0.05", "--tolerance", "-1"],
     "--tolerance"),
    (["integrate", "--from", "0,0,0,0", "--T", "0.1", "--h", "0.05", "--tolerance", "inf"],
     "--tolerance"),
    # 3^2 + ... + 3^9 brackets exceed the budget; so does a depth no loop
    # could reach, rejected before the first bracket is formed
    (["bracket-check", "--depth", "9"], "--depth"),
    (["bracket-check", "--depth", str(10 ** 30)], "--depth"),
])
def test_out_of_range_flags_are_input_errors(capsys, tmp_path, argv, flag):
    frame = frame_file(tmp_path, "dim4")
    code, out, err = run(capsys, *argv, "--frame", frame)
    assert code == EXIT_INPUT
    assert out == "" and err.startswith("error: ") and flag in err
    code, out, _ = run(capsys, *argv, "--frame", frame, "--json")
    assert code == EXIT_INPUT
    report = json.loads(out)
    assert report["command"] == argv[0] and flag in report["error"]


def test_scan_div_beyond_double_range_is_an_input_error(capsys, tmp_path):
    # a coefficient that no double holds, and a box whose powers overflow
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimension": 4, "rank": 3,
                                "normal_form": ["0", "x1", f"{10 ** 400}/3*x2^2"]}),
                    encoding="utf-8")
    for argv in (["--frame", str(path)],
                 ["--frame", frame_file(tmp_path, "dim4"), "--box=-1e200,1e200"]):
        code, out, err = run(capsys, "scan-div", "--seed", "1", "--samples", "4", *argv)
        assert code == EXIT_INPUT
        assert out == "" and err.startswith("error: ") and "double range" in err
        code, out, _ = run(capsys, "scan-div", "--seed", "1", "--samples", "4", *argv, "--json")
        assert code == EXIT_INPUT
        assert "double range" in json.loads(out)["error"]


def test_negative_numbers_in_exponent_notation_are_values(capsys, tmp_path):
    frame = frame_file(tmp_path, "dim4")
    scan = ["scan-div", "--seed", "1", "--samples", "8", "--frame", frame]
    for extra in ([], ["--json"]):
        want = run(capsys, *scan, "--box=-0.1,0.1", *extra)
        assert want[0] == EXIT_OK
        assert run(capsys, *scan, "--box", "-1e-1,1e-1", *extra) == want
    # the value reaches the handler's range check instead of being taken
    # for an option
    code, out, err = run(capsys, "stratify", "--seed", "1", "--tolerance", "-1e-8", "--frame", frame)
    assert code == EXIT_INPUT
    assert out == "" and err == "error: --tolerance must be a finite number >= 0\n"


def test_scan_div_zero_samples_is_valid(capsys, tmp_path):
    code, out, _ = run(capsys, "scan-div", "--seed", "1", "--samples", "0",
                       "--frame", frame_file(tmp_path, "dim4"))
    assert code == EXIT_OK
    assert "samples=0" in out


def test_integrate_below_generic_goh_rank_is_an_input_error(capsys, tmp_path):
    # martinet's generic Goh rank is m = 2: its rank-0 generators lie in the
    # kernel only on the singular set x1 = 0, so no flow off it can certify
    frame = frame_file(tmp_path, "martinet")
    argv = ["integrate", "--from", "0.1,0.1,0.1", "--T", "0.2", "--h", "0.05", "--frame", frame]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == "" and "singular set" in err and "generic Goh rank is 2" in err
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_INPUT
    report = json.loads(out)
    assert report["command"] == "integrate" and "singular set" in report["error"]


def test_symbolic_commands_start_without_numpy():
    # numpy is loaded only by the numeric commands (integrate, scan-div)
    # and by the locus projection of stratify
    script = (
        "import io, sys\n"
        "from singfol import cli\n"
        "sys.stdin = io.StringIO(sys.argv[1])\n"
        "code = cli.main(['certify'])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(singfol.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    doc = json.dumps(DEMOS["dim4"].to_spec())
    done = subprocess.run([sys.executable, "-c", script, doc], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["demo", "no-such-demo"])
    assert exc.value.code == EXIT_INPUT


def test_json_report_schema(capsys, tmp_path):
    code, out, _ = run(capsys, "certify", "--frame", frame_file(tmp_path, "dim4"), "--json")
    assert code == EXIT_OK
    report = json.loads(out)
    assert set(report) == {"command", "inputs", "results", "calibration", "seed"}
    assert report["command"] == "certify"
    assert report["calibration"]["recursion"]["2"] == "1"
    assert report["calibration"]["derivative"]["2"] == "1/2"
    assert report["results"]["certificates"][0]["base_constant"] == "2"


def test_byte_identical_reruns(capsys, tmp_path):
    frame = frame_file(tmp_path, "dim6-cubic")
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "stratify", "--seed", "11", "--samples", "32",
                           "--frame", frame)
        assert code == EXIT_OK
        outputs.add(out)
    assert len(outputs) == 1
    outputs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "scan-div", "--seed", "3", "--samples", "64",
                           "--frame", frame_file(tmp_path, "dim4"))
        outputs.add(out)
    assert len(outputs) == 1
