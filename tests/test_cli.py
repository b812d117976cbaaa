import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import singfol
from conftest import TWO_SPELLINGS, tampered_goh
from singfol import abnormal
from singfol.cli import EXIT_CERTIFICATE, EXIT_INPUT, EXIT_OK, InputError, build_frame, main
from singfol.demos import DEMOS, demo_names
from singfol.exactpoly import ParseError
from singfol.pfaffian import skew_rank


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


def test_integrate_engel_csv(capsys, tmp_path, monkeypatch):
    # the generic Goh rank gives the default rank and the bound it is
    # checked against: it is computed once
    calls = []

    def counted(A):
        calls.append(A)
        return skew_rank(A)

    monkeypatch.setattr("singfol.cli.skew_rank", counted)
    code, out, _ = run(capsys, "integrate", "--from", "0,0,0,0", "--T", "0.02",
                       "--h", "0.01", "--frame", frame_file(tmp_path, "dim4-engel"))
    assert code == EXIT_OK
    assert len(calls) == 1
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
    # arrays nested deeper than the JSON decoder recurses are invalid JSON too
    for text in ("{not json", "[" * 100000):
        path.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "goh", "--frame", str(path), "--json")
        assert code == EXIT_INPUT
        assert "invalid JSON frame document" in json.loads(out)["error"]


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
                        "normal_form": ["(x1+x2+x3+1)^60", "0", "0"]}, "limit"),
                      # two powers within the term limit, 5456^2 pairs apart
                      ({"dimension": 4, "rank": 3,
                        "normal_form": ["(x1+x2+x3+1)^30*(x1+x2+x3+x4)^30", "0", "0"]},
                       "29767936 term pairs"),
                      # within the pair budget, but 53361 terms
                      ({"dimension": 4, "rank": 3,
                        "normal_form": ["(x1+x2+1)^20*(x3+x4+1)^20", "0", "0"]},
                       "a product with 53361 terms"),
                      # nesting deeper than the parser recurses
                      ({"dimension": 3, "rank": 2,
                        "normal_form": ["0", "(" * 3000 + "x1" + ")" * 3000]}, "nested"),
                      ({"dimension": 3, "rank": 2, "normal_form": ["0", "-" * 5000 + "x1"]},
                       "nested"),
                      # only a JSON integer is an integer
                      ('{"dimension": 1e400, "rank": 2, "normal_form": ["0", "x1"]}', "integer"),
                      ({"dimension": 3.7, "rank": 2, "normal_form": ["0", "x1"]}, "integer"),
                      ({"dimension": 3, "rank": True, "fields": [["1", "0", "0"]]}, "integer")]:
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
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
    (["scan-div", "--seed", "1", "--box=-1e400,1"], "--box"),
    (["stratify", "--seed", "1", "--box=-1e400,1"], "--box"),
    # (0, 0.01) holds one value of the 1/64 sample grid, 0, so every sample
    # would be x = 0
    (["stratify", "--seed", "1", "--box", "0,0.01"], "box [0, 1/100] holds fewer than two"),
    # a zero denominator in a rational coordinate
    (["bracket-check", "--at", "1/0,0,0,0"], "--at"),
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
    # a coefficient that no double holds, and a box whose powers overflow,
    # in the float scan of scan-div and in the locus search of stratify
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimension": 4, "rank": 3,
                                "normal_form": ["0", "x1", f"{10 ** 400}/3*x2^2"]}),
                    encoding="utf-8")
    dim4 = frame_file(tmp_path, "dim4")
    for argv in (["scan-div", "--samples", "4", "--frame", str(path)],
                 ["scan-div", "--samples", "4", "--frame", dim4, "--box=-1e200,1e200"],
                 ["stratify", "--samples", "16", "--frame", str(path)],
                 ["stratify", "--samples", "16", "--frame", dim4, "--box", "1e200,1e201"]):
        code, out, err = run(capsys, *argv, "--seed", "1")
        assert code == EXIT_INPUT, argv
        assert out == "" and err.startswith("error: ") and "double range" in err, argv
        code, out, _ = run(capsys, *argv, "--seed", "1", "--json")
        assert code == EXIT_INPUT, argv
        assert "double range" in json.loads(out)["error"], argv


def test_samples_that_miss_the_open_stratum_are_an_input_error(capsys, tmp_path):
    # martinet's Goh matrix vanishes on x1 = 0: the one sample of seed 77
    # lies there
    frame = frame_file(tmp_path, "martinet")
    argv = ["--seed", "77", "--samples", "1"]
    code, out, err = run(capsys, "stratify", *argv, "--frame", frame)
    assert code == EXIT_INPUT
    assert out == "" and err.startswith("error: every sample has kernel dimension 2")
    assert "no sample reached the open stratum" in err
    code, out, _ = run(capsys, "stratify", *argv, "--frame", frame, "--json")
    assert code == EXIT_INPUT
    assert "open stratum" in json.loads(out)["error"]


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
    # a mantissa without digits after or before its point, as float reads it
    strat = ["stratify", "--seed", "1", "--samples", "8", "--frame", frame]
    integ = ["integrate", "--T", "0.02", "--h", "0.01", "--frame", frame]
    for argv, flag, value in ((strat, "--box", "-.5,.5"), (strat, "--box", "-1.,1."),
                              (integ, "--from", "-.1,0.1,0.1,0.1")):
        want = run(capsys, *argv, f"{flag}={value}")
        assert want[0] == EXIT_OK
        assert run(capsys, *argv, flag, value) == want


def test_integrate_prints_the_same_bytes_for_two_spellings_of_one_frame(capsys, tmp_path):
    paths = []
    for k, normal_form in enumerate(TWO_SPELLINGS):
        path = tmp_path / f"spelling{k}.json"
        path.write_text(json.dumps({"dimension": 4, "rank": 3, "normal_form": normal_form}),
                        encoding="utf-8")
        paths.append(str(path))
    argv = ["integrate", "--from", "0.1,0.05,-0.1,0.02", "--T", "0.5", "--h", "0.01"]
    first, second = (run(capsys, *argv, "--frame", path) for path in paths)
    assert first[0] == EXIT_OK and first == second


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
    script = (
        "import io, json, sys\n"
        "from singfol import cli\n"
        "sys.stdin = io.StringIO(sys.argv[1])\n"
        "code = cli.main(json.loads(sys.argv[2]))\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(singfol.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    # stratify on dim6-cubic moves samples onto its deeper locus
    for name, argv in (("dim4", ["certify"]),
                       ("dim6-cubic", ["stratify", "--seed", "7", "--samples", "16"])):
        doc = json.dumps(DEMOS[name].to_spec())
        done = subprocess.run([sys.executable, "-c", script, doc, json.dumps(argv)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False", argv


def test_early_closed_pipe_exits_1_without_traceback():
    # `integrate ... | head -1`: the output (about 114 KB) exceeds the 64 KiB
    # a pipe buffers, so a write fails once the reader has gone; the
    # interpreter's final flush runs too, in this child process, on a
    # block-buffered stdout as in a plain shell
    src = os.path.dirname(os.path.dirname(os.path.abspath(singfol.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, "-m", "singfol.cli", "integrate",
            "--from", "0.1,0.2,0.3,0.1", "--T", "1", "--h", "0.001"]
    with subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as child:
        child.stdin.write(json.dumps(DEMOS["dim4"].to_spec()))
        child.stdin.close()
        assert child.stdout.readline() == "# frame: dim4\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == EXIT_INPUT
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_failed_certificate_exits_2(capsys, tmp_path, monkeypatch):
    # certify the real generators against a Goh matrix that is no longer the
    # bracket matrix of its hamiltonians: the Jacobi identity of the triple
    # (1, 2, 3) breaks, and its cyclic sum is the residual
    certificate = abnormal.divergence_certificate
    monkeypatch.setattr(abnormal, "divergence_certificate",
                        lambda g, F, goh=None: certificate(g, F, tampered_goh(F)))
    frame = frame_file(tmp_path, "dim5")
    code, out, err = run(capsys, "certify", "--frame", frame)
    assert code == EXIT_CERTIFICATE
    assert out == "" and err.startswith("certificate failure: Jacobi identity fails for Y_(1, 2, 3)")
    code, out, _ = run(capsys, "certify", "--frame", frame, "--json")
    assert code == EXIT_CERTIFICATE
    report = json.loads(out)
    assert report["command"] == "certify" and "T=(1, 2, 3)" in report["error"]
    assert report["detail"] == {"I": [1, 2, 3], "residual": "x4"}


def test_every_reported_error_is_a_singfol_error():
    from singfol import dynamics

    reported = [ParseError, abnormal.AnnihilatorError, abnormal.NormalFormError,
                abnormal.SamplingError, abnormal.CertificateError, dynamics.BlowUpError,
                InputError]
    for cls in reported:
        assert issubclass(cls, singfol.SingfolError), cls
        assert cls.exit_code == (EXIT_CERTIFICATE if cls is abnormal.CertificateError
                                 else EXIT_INPUT), cls
    # library callers that caught the old bases still catch these
    assert issubclass(ParseError, ValueError) and issubclass(dynamics.BlowUpError, RuntimeError)
    assert issubclass(abnormal.CertificateError, RuntimeError)
    # a misuse of the API is not a reported error
    for cls in (singfol.SpaceMismatchError, singfol.NonUnitError):
        assert not issubclass(cls, singfol.SingfolError), cls


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


# -- fuzz of the whole command line -------------------------------------------------

INTS = ["0", "-1", "1", "2", "7"]
RANKS = ["2", "0", "-1", "1", "7"]
FLOATS = ["0.01", "nan", "inf", "1e400", "-1e400", "0", "-0.5"]
BOXES = ["-1,1", "0,0.5", "1e200,1e201", "-1e400,1", "nan,1", "1,-1", "1"]
POINTS = ["0.1,0.2,0.3,0.1", "0,0,0", "0,0,0,0,0", "0,0,0,0,0,0", "nan,0,0,0", "1e400,0,0,0", "x",
          "1/0,0,0,0"]
FIELDS = ["1,2,3", "1", "2,1", "a", "0,9"]
# flag -> value pool, per subcommand; each pool starts with a valid value
FLAGS = {
    "goh": {},
    "pfaffian": {"--minors": ["2", "4", "0", "-1", "3"]},
    "generators": {"--rank": RANKS},
    "certify": {"--rank": RANKS},
    "singular-set": {"--rank": RANKS},
    "stratify": {"--seed": INTS, "--samples": ["1", "7", "0", "-1"], "--box": BOXES,
                 "--tolerance": FLOATS},
    "normalform": {"--order": ["0", "1", "3", "-1"]},
    "integrate": {"--from": POINTS, "--T": ["0.05", "0", "-1", "nan", "1e400"],
                  "--h": ["0.01", "0", "-0.01", "nan", "1e400"], "--field": FIELDS,
                  "--rank": RANKS, "--tolerance": FLOATS},
    "scan-div": {"--seed": INTS, "--samples": ["0", "7", "-1"], "--box": BOXES,
                 "--cutoff": FLOATS, "--field": FIELDS, "--rank": RANKS},
    "bracket-check": {"--depth": ["1", "4", "0", "-1"], "--at": POINTS},
}
MALFORMED = [
    "{not json", "[]", '{"dimension": 3}', "[" * 100000,
    json.dumps({"dimension": 3, "rank": 2, "normal_form": ["0", "(" * 3000 + "x1" + ")" * 3000]}),
    json.dumps({"dimension": 3, "rank": 2, "normal_form": ["0", "-" * 5000 + "x1"]}),
    '{"dimension": 1e400, "rank": 2, "normal_form": ["0", "x1"]}',
    json.dumps({"dimension": 3.7, "rank": 2, "normal_form": ["0", "x1"]}),
    json.dumps({"dimension": 3, "rank": True, "fields": [["1", "0", "0"]]}),
    json.dumps({"dimension": 4, "rank": 3, "normal_form": ["0", "x1", f"{10 ** 400}/3*x2^2"]}),
    json.dumps({"dimension": 3, "rank": 2, "normal_form": ["(x1+x2+1)^139", "0"]}),
]


def _polynomials(n: int):
    """Expression strings with at most 3 terms and exponents at most 3."""
    term = st.tuples(st.sampled_from(["1", "-1", "2", "-3/2"]),
                     st.lists(st.integers(0, 3), min_size=n, max_size=n))

    def text(terms):
        return " + ".join(c + "".join(f"*x{k}^{e}" for k, e in enumerate(exps, 1) if e)
                          for c, exps in terms) or "0"

    return st.lists(term, max_size=3).map(text)


@st.composite
def _frame_documents(draw) -> str:
    kind = draw(st.sampled_from(["demo", "normal_form", "fields", "malformed"]))
    if kind == "demo":
        return json.dumps(DEMOS[draw(st.sampled_from(demo_names()))].to_spec())
    if kind == "malformed":
        return draw(st.sampled_from(MALFORMED))
    n = draw(st.integers(2, 4))
    if kind == "normal_form":
        coeffs = draw(st.lists(_polynomials(n), min_size=n - 1, max_size=n - 1))
        return json.dumps({"dimension": n, "rank": n - 1, "normal_form": coeffs})
    m = draw(st.integers(1, n - 1))
    # the unit vectors plus random terms, so most frames are independent at 0
    rows = [[draw(_polynomials(n)) + (" + 1" if i == j else "") for j in range(n)]
            for i in range(m)]
    return json.dumps({"dimension": n, "rank": m, "fields": rows})


REQUIRED = {"--minors", "--seed", "--from", "--T", "--h"}


@st.composite
def _argvs(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    for flag, pool in FLAGS[command].items():
        # a required flag is left out now and then (a usage error); a value
        # is the valid one about half the time
        if draw(st.sampled_from([True] * 7 + [False] if flag in REQUIRED else [True, False])):
            argv += [flag, draw(st.sampled_from([pool[0]] * len(pool) + pool))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _with_flag_examples(test):
    """Explicit examples that pair a demo frame with every POINTS and BOXES
    value: the derandomized draws need not make each such pair."""
    doc = json.dumps(DEMOS["dim4"].to_spec())
    argvs = ([["bracket-check", "--at", v] for v in POINTS]
             + [["integrate", "--from", v, "--T", "0.05", "--h", "0.01"] for v in POINTS]
             + [[command, "--seed", "1", "--samples", "7", "--box", v]
                for command in ("stratify", "scan-div") for v in BOXES])
    for argv in argvs:
        test = example(argv=argv, doc=doc)(test)
    return test


@settings(max_examples=300, deadline=5000, derandomize=True, database=None)
@given(argv=_argvs(), doc=_frame_documents())
@_with_flag_examples
def test_fuzzed_command_lines_exit_0_1_or_2(argv, doc):
    stdin = io.StringIO(doc)
    stdin.isatty = lambda: False
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                # argparse's usage errors, as input errors
                assert exc.code == EXIT_INPUT, (argv, err.getvalue())
                code = None
    finally:
        sys.stdin = saved
    assert code in (None, EXIT_OK, EXIT_INPUT, EXIT_CERTIFICATE), argv
    assert "Traceback" not in err.getvalue()
    if "--json" in argv:
        # one document, or nothing after a usage error
        assert json.loads(out.getvalue()) if code is not None else out.getvalue() == ""
