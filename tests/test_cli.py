import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import singfol
from conftest import TWO_SPELLINGS, tampered_goh
from singfol import abnormal
from singfol.cli import (EXIT_CERTIFICATE, EXIT_INPUT, EXIT_OK, MAX_JET_MONOMIALS, MAX_SAMPLES,
                         InputError, build_frame, main)
from singfol.demos import DEMOS, demo_names
from singfol.exactpoly import ParseError, Polynomial, Space, parse_expression
from singfol.pfaffian import skew_rank
from singfol.vectorfield import divergence


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def frame_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DEMOS[name].to_spec()), encoding="utf-8")
    return str(path)


# a general (not normal-form) frame whose normal form at a high jet order
# takes seconds to minutes
GENERAL = {"dimension": 3, "rank": 2,
           "fields": [["1+x1+x2+x3", "x2", "x3"], ["x3", "1+x1-x2", "x1*x3"]]}


def general_file(tmp_path):
    path = tmp_path / "general.json"
    path.write_text(json.dumps(GENERAL), encoding="utf-8")
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


def test_integrate_streams_its_csv(capsys, tmp_path, monkeypatch):
    # the rows are printed as the trajectory yields them, so at 20 001
    # states the traced peak stays near the 0.92 MiB of the flat states
    # (it was 3.45 MiB with every line held in one list); the stream is
    # to_csv byte for byte
    from singfol import dynamics

    frame = frame_file(tmp_path, "dim6-cubic")
    start = "0.1,0.1,0.1,0.1,0.1,0.1"
    argv = ["integrate", "--from", start, "--T", "20", "--h", "0.001", "--frame", frame]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    results = json.loads(out)["results"]

    class Sink:
        """A stdout that keeps a digest of what it is given, not the text."""

        def __init__(self):
            self.digest, self.size = hashlib.sha256(), 0

        def write(self, text):
            self.digest.update(text.encode())
            self.size += len(text)
            return len(text)

        def flush(self):
            pass

    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    assert code == EXIT_OK

    F = build_frame(DEMOS["dim6-cubic"].to_spec())
    goh = abnormal.goh_matrix(F)
    g = next(g for g in abnormal.abnormal_generators(F, results["rank"], goh)
             if list(g.I) == results["I"])
    traj = dynamics.abnormal_trajectory(F, g, [0.1] * 6, 20, 0.001, goh=goh)
    assert len(traj.flat) == 20001 * 6
    expected = f"# frame: {F.name}\n" + traj.to_csv()
    assert (sink.size, sink.digest.hexdigest()) == \
        (len(expected), hashlib.sha256(expected.encode()).hexdigest())
    assert peak < 2 * 2 ** 20, peak


def test_integrate_checks_the_kernel_exactly(capsys, tmp_path, monkeypatch):
    frame = frame_file(tmp_path, "dim4")
    argv = ["integrate", "--from", "0.3,0.2,0.1,0.4", "--T", "0.1", "--h", "0.01", "--frame", frame]
    # there is no float tolerance to set: a usage error
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tolerance", "0"])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments: --tolerance 0" in capsys.readouterr().err
    # large states round more, but the check is exact: exit 0, zero residuals
    code, out, err = run(capsys, *argv[:2], "1000,1000,1000,1000", "--T", "0.01", "--h", "0.001",
                         "--frame", frame)
    assert code == EXIT_OK and err == ""
    rows = [line for line in out.splitlines() if not line.startswith(("#", "t,"))]
    assert len(rows) == 11 and all(line.endswith(",0.0,0.0") for line in rows)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    assert sorted(json.loads(out)["results"]) == ["I", "T", "certified", "end_state", "h", "rank"]
    # a nonzero component of Ht.u is a certificate failure naming I, the
    # component and the residual
    zero = Polynomial.zero(Space(4))
    residual = parse_expression("x1*x4 - 2", Space(4))
    monkeypatch.setattr("singfol.dynamics.kernel_residual", lambda g, goh: (zero, zero, residual))
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CERTIFICATE and out == ""
    assert err.startswith("certificate failure: Z_(1, 2, 3) is not a Goh kernel section")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_CERTIFICATE
    assert json.loads(out)["detail"] == {"I": [1, 2, 3], "component": 3, "residual": "x1*x4 - 2"}


def test_scan_div(capsys, tmp_path, monkeypatch):
    # div Z is computed once, by the scan, and --json prints that one
    calls = []

    def counted(V):
        calls.append(V)
        return divergence(V)

    monkeypatch.setattr("singfol.dynamics.divergence", counted)
    monkeypatch.setattr("singfol.cli.divergence", counted, raising=False)
    argv = ["scan-div", "--seed", "5", "--samples", "64", "--cutoff", "0.01",
            "--frame", frame_file(tmp_path, "dim4")]
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert "ratio_sup" in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    assert len(calls) == 2
    assert json.loads(out)["results"]["div"] == str(divergence(calls[1]))


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


def test_bracket_check_reads_the_point_exactly(capsys, tmp_path):
    # martinet's brackets span at depth 2 off the plane x1 = 0 and at depth 3
    # on it; x1 = 10^-7 and 1/3000001 are off it, although a denominator
    # bounded by 10^6 would round both to 0; 10^-996 is off it too, and its
    # digits plus exponent, 1 + 3 + 996, stay within the digit bound
    frame = frame_file(tmp_path, "martinet")
    F = build_frame(DEMOS["martinet"].to_spec())
    for at, x1 in (("1e-7,0,0", Fraction(1, 10 ** 7)), ("1/3000001,0,0", Fraction(1, 3000001)),
                   ("1e-996,0,0", Fraction(1, 10 ** 996))):
        depth = F.bracket_generation_depth((x1, Fraction(0), Fraction(0)))
        assert depth == 2
        code, out, _ = run(capsys, "bracket-check", "--at", at, "--frame", frame)
        assert code == EXIT_OK and f"at depth {depth} " in out, at
        code, out, _ = run(capsys, "bracket-check", "--at", at, "--frame", frame, "--json")
        assert code == EXIT_OK and json.loads(out)["results"]["depth"] == depth, at


def test_hamiltonian_fields_are_built_only_when_read(capsys, tmp_path, monkeypatch):
    # only the Jacobi check and the generators read the Hamiltonian fields
    built = []
    field_of = abnormal.hamiltonian_vector_field

    def counted(h):
        built.append(h)
        return field_of(h)

    monkeypatch.setattr(abnormal, "hamiltonian_vector_field", counted)
    for name in ("dim5", "dim6-cubic"):
        frame = frame_file(tmp_path, name)
        for argv in (["goh"], ["pfaffian", "--minors", "2"], ["singular-set"],
                     ["stratify", "--seed", "7", "--samples", "16"]):
            built.clear()
            code, _, _ = run(capsys, *argv, "--frame", frame)
            assert code == EXIT_OK and built == [], (name, argv)
        built.clear()
        code, _, _ = run(capsys, "certify", "--frame", frame)
        assert code == EXIT_OK and len(built) == build_frame(DEMOS[name].to_spec()).m, name


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
    # --at is read exactly, so a value that is not a rational number is refused
    (["bracket-check", "--at", "nan,0,0,0"], "--at"),
    (["bracket-check", "--at", "0,inf,0,0"], "--at"),
    (["bracket-check", "--at", "0,0,0"], "--at"),
    (["stratify", "--seed", "1", "--box", "nan,1"], "--box"),
    (["stratify", "--seed", "1", "--box", "1"], "--box"),
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
    # the sample count is bounded, like the number of RK4 steps
    (["stratify", "--seed", "1", "--samples", "100001"], "--samples"),
    (["stratify", "--seed", "1", "--samples", "100000000"], "--samples"),
    (["scan-div", "--seed", "1", "--samples", "100001"], "--samples"),
    (["scan-div", "--seed", "1", "--samples", "1000000000"], "--samples"),
    # a start point that is not finite is refused before any step
    (["integrate", "--from", "nan,0,0,0", "--T", "0", "--h", "0.1"], "--from"),
    (["integrate", "--from", "0,inf,0,0", "--T", "0", "--h", "0.1"], "--from"),
    (["integrate", "--from", "0,0,0,-1e400", "--T", "0.1", "--h", "0.05"], "--from"),
    # order-13 jets in 4 variables hold up to C(17, 4) = 2380 monomials
    (["normalform", "--order", "13"], "--order"),
    # Fraction writes a decimal exponent out in full: 10^10000000 alone
    # took 13.5 s, so a coordinate past the digit bound is refused
    (["bracket-check", "--at", "1e10000000,0,0,0"], "--at"),
    (["bracket-check", "--at", "0,1e-1_000_000,0,0"], "--at"),
    (["bracket-check", "--at", "0,0,1e998,0"], "--at"),
    (["bracket-check", "--at", "0,0,0," + "7" * 1001], "--at"),
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


def test_normalform_order_beyond_the_jet_bound_exits_1_at_once(capsys, tmp_path, monkeypatch):
    # order 60 ran for more than 20 s on this frame; it is refused before
    # any jet is built
    def refuse(F, order):
        raise AssertionError("a jet was built")

    monkeypatch.setattr("singfol.normalform.JetFrame.from_frame", refuse)
    frame = general_file(tmp_path)
    code, out, err = run(capsys, "normalform", "--order", "60", "--frame", frame)
    assert code == EXIT_INPUT
    assert out == "" and err.startswith("error: --order 60 ") and str(MAX_JET_MONOMIALS) in err
    code, out, _ = run(capsys, "normalform", "--order", "60", "--frame", frame, "--json")
    assert code == EXIT_INPUT and "--order" in json.loads(out)["error"]


def test_scan_div_takes_samples_up_to_the_bound(capsys, tmp_path):
    code, out, err = run(capsys, "scan-div", "--seed", "1", "--samples", str(MAX_SAMPLES),
                         "--frame", frame_file(tmp_path, "dim4"))
    assert code == EXIT_OK and err == ""
    assert f"samples={MAX_SAMPLES} " in out


def test_scan_div_beyond_double_range_is_an_input_error(capsys, tmp_path):
    # a coefficient that no double holds, and a box whose powers overflow,
    # in the float scan of scan-div
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dimension": 4, "rank": 3,
                                "normal_form": ["0", "x1", f"{10 ** 400}/3*x2^2"]}),
                    encoding="utf-8")
    dim4 = frame_file(tmp_path, "dim4")
    # finite terms whose sum overflows: div Z = N*x2 + N*x3 near x = (1, 1, 1),
    # and near x = (2, 2, 2) the component N/2*(x3^2 + x2*x3) of Z too
    N = 10 ** 308
    sum_path, z_path = tmp_path / "sum.json", tmp_path / "z.json"
    for doc, A in ((sum_path, f"{N}/2*x3^2 + {N}*x2*x3"), (z_path, f"{N}/2*x3^2 + {N}/2*x2*x3")):
        doc.write_text(json.dumps({"dimension": 3, "rank": 2, "normal_form": [A, "0"]}),
                       encoding="utf-8")
    for argv in (["scan-div", "--samples", "4", "--frame", str(path)],
                 ["scan-div", "--samples", "4", "--frame", dim4, "--box=-1e200,1e200"],
                 ["scan-div", "--samples", "8", "--frame", str(sum_path), "--box", "0.9,1"],
                 ["scan-div", "--samples", "8", "--frame", str(z_path), "--box", "1.9,2"]):
        code, out, err = run(capsys, *argv, "--seed", "1")
        assert code == EXIT_INPUT, argv
        assert out == "" and err.startswith("error: ") and "double range" in err, argv
        code, out, _ = run(capsys, *argv, "--seed", "1", "--json")
        assert code == EXIT_INPUT, argv
        assert "double range" in json.loads(out)["error"], argv


def test_huge_boxes_and_coefficients_are_exact_stratify_inputs(capsys, tmp_path):
    # stratify evaluates no float: a coefficient that no double holds, and a
    # box whose powers overflow a double, are exact inputs, and every
    # witness is an exact annihilator point of its level's kernel dimension
    huge = {"dimension": 4, "rank": 3, "normal_form": ["0", "x1", f"{10 ** 400}/3*x2^2"]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(huge), encoding="utf-8")
    for spec, frame, box in ((huge, str(path), []),
                             (DEMOS["dim4"].to_spec(), frame_file(tmp_path, "dim4"),
                              ["--box", "1e200,1e201"])):
        argv = ["stratify", "--seed", "1", "--samples", "16", *box, "--frame", frame]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and err == "" and "    witness x = (" in out, argv
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK, argv
        F = build_frame(spec)
        levels = json.loads(out)["results"]["levels"]
        assert levels and all(level["witnesses"] for level in levels)
        for level in levels:
            for w in level["witnesses"]:
                x, p = [Fraction(v) for v in w["x"]], [Fraction(v) for v in w["p"]]
                assert w["exact"] and abnormal.kernel_dim_at(F, x, p) == level["dim"], argv


@pytest.mark.parametrize("box, shown", [
    ("0,0.0156249999", "[0, 156249999/10000000000]"),
    ("-0.0156249999,0", "[-156249999/10000000000, 0]"),
])
def test_stratify_reads_the_box_exactly(capsys, tmp_path, box, shown):
    # the box holds one value of the 1/64 grid, 0: an input error, naming
    # the box by the decimals typed (a rounded reading took it for
    # [0, 1/64] and sampled x = 1/64, outside the box)
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"dimension": 3, "rank": 2, "normal_form": ["0", "x1^2"]}),
                    encoding="utf-8")
    argv = ["stratify", "--seed", "3", "--samples", "8", f"--box={box}", "--frame", str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_INPUT, "")
    assert f"error: box {shown} holds fewer than two sample values k/64" in err
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_INPUT and f"box {shown} holds fewer" in json.loads(out)["error"]
    # a bound just past a grid value excludes that value
    lo = "0.0156250001"
    code, out, _ = run(capsys, *argv[:-3], f"--box={lo},0.05", "--frame", str(path), "--json")
    assert code == EXIT_OK
    level = json.loads(out)["results"]["levels"][0]
    assert level["has_interior"] and level["witnesses"]
    assert all(Fraction(float(lo)) <= Fraction(v) <= Fraction(0.05)
               for w in level["witnesses"] for v in w["x"])


@pytest.mark.parametrize("doc, box, dims", [
    # x2 + x3 = 0 has no point with x2, x3 in [0.5, 0.9]
    (DEMOS["dim6-cubic"].to_spec(), "0.5,0.9", [1]),
    (DEMOS["dim6-cubic"].to_spec(), "-0.5,0.5", [1, 3]),
    # martinet's locus x1 = 0 lies outside the box
    ({"dimension": 3, "rank": 2, "normal_form": ["0", "x1^2"]}, "0.0156250001,0.05", [0]),
])
def test_stratify_keeps_locus_witnesses_inside_the_box(capsys, tmp_path, doc, box, dims):
    # the walk moves a coordinate only to a root inside --box, so a level
    # whose locus misses the box is not reported
    path = tmp_path / "frame.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "stratify", "--seed", "7", "--samples", "16", f"--box={box}",
                       "--frame", str(path), "--json")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert results["dims"] == dims
    lo, hi = (Fraction(float(v)) for v in box.split(","))
    for level in results["levels"]:
        assert level["witnesses"]
        assert all(lo <= Fraction(v) <= hi for w in level["witnesses"] for v in w["x"]), level


def test_stratify_makes_no_float_decision(capsys, tmp_path):
    # there is no float screen, so no tolerance to set: a usage error
    with pytest.raises(SystemExit) as exc:
        main(["stratify", "--seed", "1", "--tolerance", "0", "--frame", frame_file(tmp_path, "dim4")])
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments: --tolerance 0" in capsys.readouterr().err
    # Ht[1,2] = 10^-9 * (x1^2 - 2) is below 10^-8 at every sample, but it
    # vanishes only at x1 = +-sqrt(2), outside the box: one level and no
    # candidate report
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"dimension": 3, "rank": 2, "normal_form": [
        "0", "1/3000000000*x1^3 - 2/1000000000*x1"]}), encoding="utf-8")
    argv = ["stratify", "--seed", "7", "--samples", "64", "--frame", str(path)]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    assert out.startswith("kernel-dimension levels: {0} ") and "unconfirmed" not in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    results = json.loads(out)["results"]
    assert results["dims"] == [0] and "unconfirmed" not in results


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
    code, out, err = run(capsys, "stratify", "--seed", "1", "--samples", "-5", "--frame", frame)
    assert code == EXIT_INPUT
    assert out == "" and err == "error: --samples must be >= 1\n"
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


@pytest.mark.parametrize("argv", [
    ["integrate", "--from", "0.1,0.1,0.1", "--T", "0.02", "--h", "0.01"],
    ["scan-div", "--seed", "5", "--samples", "8"],
], ids=lambda argv: argv[0])
def test_numeric_commands_name_the_normal_form_they_need(capsys, tmp_path, argv):
    # GENERAL has corank 1 but its fields do not read X^i = d_i + A_i d_n
    argv = [*argv, "--frame", general_file(tmp_path)]
    message = f"{argv[0]} needs the corank-1 normal form X^i = d_i + A_i d_n"
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n")
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_INPUT and json.loads(out)["error"] == message


def _fields_file(tmp_path, name):
    """The demo's frame written as a ``fields`` document, keeping its name."""
    F = DEMOS[name].build()
    path = tmp_path / f"{name}-fields.json"
    path.write_text(json.dumps({"dimension": F.n, "rank": F.m, "name": name, "fields": [
        [str(c) for c in X.components] for X in F.fields]}), encoding="utf-8")
    return str(path)


ONE_PATH = [["goh"], ["pfaffian", "--minors", "2"], ["generators"], ["certify"],
            ["singular-set"], ["stratify", "--seed", "7", "--samples", "16"],
            ["integrate", "--T", "0.05", "--h", "0.01"],
            ["scan-div", "--seed", "5", "--samples", "64"]]


@pytest.mark.parametrize("argv", ONE_PATH, ids=lambda argv: argv[0])
def test_a_fields_document_in_normal_form_is_its_normal_form_document(capsys, tmp_path, argv):
    # the normal form is read off the fields, so both spellings of a demo
    # take one path: the same text, and the same --json results
    for name in demo_names():
        command = argv
        if argv[0] == "integrate":
            if name == "martinet":
                continue  # its generators flow only on the singular set
            command = [*argv, "--from", ",".join(["0.1"] * DEMOS[name].dimension)]
        reports = []
        for frame in (frame_file(tmp_path, name), _fields_file(tmp_path, name)):
            code, text, err = run(capsys, *command, "--frame", frame)
            assert (code, err) == (EXIT_OK, ""), (name, err)
            code, out, _ = run(capsys, *command, "--frame", frame, "--json")
            assert code == EXIT_OK, name
            reports.append((text, json.loads(out)["results"]))
        assert reports[0] == reports[1], name


def test_integrate_evaluates_no_costate(capsys, tmp_path):
    # at 1e200 dim5's costate -(x2+x3)^2 overflows a double, but integrate
    # prints states only, so the costates are never evaluated: exit 0
    argv = ["integrate", "--from", "1e200,1e200,1e200,1e200,1e200", "--T", "0.01",
            "--h", "0.001", "--frame", frame_file(tmp_path, "dim5")]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK and err == ""
    rows = [line for line in out.splitlines() if not line.startswith(("#", "t,"))]
    assert len(rows) == 11 and all(line.endswith(",0.0,0.0") for line in rows)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == EXIT_OK
    assert json.loads(out)["results"]["end_state"] == [1e200] * 5


def test_cli_commands_start_without_numpy():
    # no command loads numpy: integrate prints the flat states of the RK4
    # loop, and scan-div evaluates one point at a time
    script = (
        "import io, json, sys\n"
        "from singfol import cli\n"
        "sys.stdin = io.StringIO(sys.argv[1])\n"
        "code = cli.main(json.loads(sys.argv[2]))\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(singfol.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    integrate = ["integrate", "--from", "0.1,0.2,0.3,0.1,0.2", "--T", "0.1", "--h", "0.01"]
    # stratify on dim6-cubic moves samples onto its deeper locus
    for name, argv in (("dim4", ["certify"]),
                       ("dim6-cubic", ["stratify", "--seed", "7", "--samples", "16"]),
                       ("dim5", integrate), ("dim5", integrate + ["--json"]),
                       ("dim4", ["scan-div", "--seed", "7", "--samples", "64"]),
                       ("dim4", ["scan-div", "--seed", "7", "--samples", "64", "--json"])):
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


def _polynomial_strings(command, results):
    """The strings of the polynomials in a command's --json results."""
    if command == "goh":
        return [v for key in ("H", "reduced") for row in results.get(key, []) for v in row]
    if command == "pfaffian":
        return list(results["minors"].values())
    if command == "generators":
        return [v for g in results["generators"] for v in g["Y"] + (g["Z"] or [])]
    if command == "certify":
        keys = ("phase_divergence", "jacobi_expansion", "base_residual")
        return [v for c in results["certificates"]
                for v in [c[k] for k in keys if k in c] + c.get("base_coefficients", [])]
    if command == "singular-set":
        return [e["phi"] for e in results["equations"]]
    assert command == "normalform"
    return [v for row in results["fields"] for v in row]


SYMBOLIC = [["goh"], ["pfaffian", "--minors", "2"], ["generators"], ["certify"],
            ["singular-set"], ["normalform"]]


@pytest.mark.parametrize("argv", SYMBOLIC, ids=lambda argv: argv[0])
def test_each_reported_polynomial_is_rendered_once(capsys, tmp_path, monkeypatch, argv):
    rendered = []
    to_str = Polynomial.__str__

    def counted(p):
        rendered.append(to_str(p))
        return rendered[-1]

    monkeypatch.setattr(Polynomial, "__str__", counted)
    code, out, _ = run(capsys, *argv, "--frame", frame_file(tmp_path, "dim5"), "--json")
    assert code == EXIT_OK
    want = _polynomial_strings(argv[0], json.loads(out)["results"])
    assert want and sorted(rendered) == sorted(want)


def _value_lines(command, results):
    """The indented text lines of a report, formed from its --json results."""
    def index_set(I):
        return "{" + ",".join(map(str, I)) + "}"

    def vector(strings):
        return "(" + ", ".join(strings) + ")"

    if command == "goh":
        return [f"  {name}[{i}] = [{', '.join(row)}]"
                for key, name in (("H", "H"), ("reduced", "Ht"))
                for i, row in enumerate(results.get(key, []), 1)]
    if command == "pfaffian":
        return [f"  phi{I} = {value}" for I, value in results["minors"].items()]
    if command == "generators":
        lines = []
        for g in results["generators"]:
            lines.append(f"  generator I={index_set(g['I'])}  "
                         f"p-degrees (x,p) = {tuple(g['p_degree'])}")
            lines.append(f"    Y = {vector(g['Y'])}")
            if g["Z"] is not None:
                lines.append(f"    Z = {vector(g['Z'])}")
        return lines
    if command == "certify":
        return [f"  I={index_set(c['I'])}: div(Y) = {c['phase_divergence']}, "
                f"jacobi sum = {c['jacobi_expansion']}"
                + (f", base constant = {c['base_constant']}" if "base_constant" in c else "")
                for c in results["certificates"]]
    if command == "singular-set":
        return [f"  phi{index_set(e['I'])} = {e['phi']}" for e in results["equations"]]
    if command == "normalform":
        return ([f"  X{k} = {vector(row)}" for k, row in enumerate(results["fields"], 1)]
                + ["  [" + ", ".join(row) + "]" for row in results["chart"]])
    assert command == "stratify"
    lines = []
    for level in results["levels"]:
        kind = "open stratum" if level["has_interior"] else "locus level"
        lines.append(f"  dim {level['dim']} (rank {level['rank']}, {kind}): "
                     f"{level['samples']} samples, "
                     f"parity/bound {'ok' if level['parity_ok'] else 'violated'}")
        lines += [f"    witness x = {vector(w['x'])}" for w in level["witnesses"][:2]]
    return lines


@pytest.mark.parametrize("argv", SYMBOLIC + [["stratify", "--seed", "7", "--samples", "16"]],
                         ids=lambda argv: argv[0])
def test_text_reports_print_the_strings_of_the_json_results(capsys, tmp_path, argv):
    frames = [frame_file(tmp_path, name) for name in demo_names()]
    if argv[0] != "singular-set":
        # the singular-set equations need the corank-1 normal form
        frames.append(general_file(tmp_path))
    for frame in frames:
        code, text, _ = run(capsys, *argv, "--frame", frame)
        assert code == EXIT_OK, frame
        code, out, _ = run(capsys, *argv, "--frame", frame, "--json")
        assert code == EXIT_OK, frame
        indented = [line for line in text.splitlines() if line.startswith("  ")]
        want = _value_lines(argv[0], json.loads(out)["results"])
        # the --json minors are keyed by index set, in sorted key order
        assert sorted(indented) == sorted(want) if argv[0] == "pfaffian" else indented == want


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
    "stratify": {"--seed": INTS, "--samples": ["1", "7", "0", "-1", "100001", "100000000"],
                 "--box": BOXES},
    "normalform": {"--order": ["0", "1", "3", "-1", "60"]},
    "integrate": {"--from": POINTS, "--T": ["0.05", "0", "-1", "nan", "1e400"],
                  "--h": ["0.01", "0", "-0.01", "nan", "1e400"], "--field": FIELDS,
                  "--rank": RANKS},
    "scan-div": {"--seed": INTS, "--samples": ["0", "7", "-1", "100001", "1000000000"],
                 "--box": BOXES, "--cutoff": FLOATS, "--field": FIELDS, "--rank": RANKS},
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


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


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
        # one strict JSON document (no NaN or Infinity), or nothing after a
        # usage error
        assert (json.loads(out.getvalue(), parse_constant=_reject_constant) if code is not None
                else out.getvalue() == "")
