"""Acceptance suite.

One test per acceptance criterion, each enforcing the stated exactness or
tolerance and its runtime target, and printing a PASS line (visible with
``pytest -s tests/test_acceptance.py``).
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np

from conftest import (
    matvec,
    random_corank1_frame,
    random_general_frame,
    random_scalar_skew_of_rank,
    random_skew,
    scalar_to_skew,
)
from singfol import _linalg
from singfol.abnormal import (
    SamplerConfig,
    abnormal_generators,
    divergence_certificate,
    goh_matrix,
    kernel_dim_at,
    kernel_residual,
    stratify,
)
from singfol.cli import main as cli_main
from singfol.demos import DEMOS, demo_frame, demo_names
from singfol.dynamics import (
    abnormal_trajectory,
    divergence_ratio_scan,
    integrate_field,
    sample_cloud,
    volume_distortion,
)
from singfol.exactpoly import Polynomial, Space, parse_expression
from singfol.normalform import JetFrame, normalize_frame
from singfol.pfaffian import (
    calibration_report,
    kernel_generators,
    minor_determinant,
    pfaffian_by_definition,
    pfaffian_by_recursion,
    pfaffian_derivative,
    skew_rank,
)
from singfol.pfaffian import _derivative_prefactors, _recursion_prefactors
from singfol.vectorfield import VectorField, divergence, lie_bracket


def _report(num, message):
    print(f"ACCEPTANCE {num:2d} PASS: {message}")


def _corpus(seed=42, count=200):
    """Deterministic matrix corpus shared by criteria 1 and 2."""
    rng = random.Random(seed)
    space = Space(3)
    out = []
    for k in range(count):
        size = 2 + (k % 7)
        max_terms = 2 if size <= 5 else 1
        out.append(random_skew(rng, space, size, max_terms))
    return out


def test_criterion_01_pfaffian_determinant_identity():
    start = time.time()
    for A in _corpus():
        I = tuple(range(1, A.size + 1))
        pf = pfaffian_by_definition(A, I)
        assert pf * pf == minor_determinant(A, I)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(1, f"phi^2 = Det exactly on 200 matrices sizes 2..8 ({elapsed:.1f}s)")


def test_criterion_02_calibrated_recursion_and_derivative():
    start = time.time()
    D_space = Space(3)
    D = VectorField.coordinate(D_space, 0)
    for A in _corpus():
        full = tuple(range(1, A.size + 1))
        I = full if A.size % 2 == 0 else full[1:]
        expected = pfaffian_by_definition(A, I)
        for pivot in I:
            assert pfaffian_by_recursion(A, I, pivot) == expected
        assert pfaffian_derivative(A, I, D) == D.apply(expected)
    # stability: wiping the caches and recalibrating lands on the same values
    first = calibration_report(8)
    _recursion_prefactors.clear()
    _derivative_prefactors.clear()
    assert calibration_report(8) == first
    assert first["recursion"] == {2: "1", 4: "1", 6: "1", 8: "1"}
    assert first["derivative"] == {2: "1/2", 4: "1/2", 6: "1/2", 8: "1/2"}
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(2, f"recursion/derivative match the wedge definition for all pivots; "
               f"prefactors {first['recursion'][4]} and {first['derivative'][4]} stable ({elapsed:.1f}s)")


def test_criterion_03_odd_minor_factorization():
    start = time.time()
    rng = random.Random(7)
    space = Space(3)
    for k in range(100):
        t_size = (3, 5, 7)[k % 3]
        size = t_size + rng.randint(0, 1)
        A = random_skew(rng, space, size, max_terms=2 if size <= 5 else 1)
        T = tuple(sorted(rng.sample(range(1, size + 1), t_size)))
        if t_size == 7:
            pairs = [(T[rng.randrange(7)], T[rng.randrange(7)]) for _ in range(4)]
        else:
            pairs = [(i, j) for i in T for j in T]
        for i, j in pairs:
            rows = tuple(t for t in T if t != i)
            cols = tuple(t for t in T if t != j)
            lhs = minor_determinant(A, rows, cols)
            rhs = pfaffian_by_definition(A, rows) * pfaffian_by_definition(A, cols)
            assert lhs == rhs
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(3, f"odd-minor factorization exact on 100 matrices, |T| in {{3,5,7}} ({elapsed:.1f}s)")


def test_criterion_04_kernel_basis():
    start = time.time()
    rng = random.Random(13)
    # scalar fixtures of forced rank
    for m, r in [(4, 2), (5, 2), (5, 4), (6, 2), (6, 4), (7, 4)]:
        for _ in range(3):
            rows = random_scalar_skew_of_rank(rng, m, r)
            gens = kernel_generators(scalar_to_skew(rows), r)
            vectors = []
            for g in gens:
                vec = [c.constant_term() for c in g.vector()]
                assert matvec(rows, vec) == [Fraction(0)] * m
                vectors.append(vec)
            assert _linalg.rank(vectors) == m - r
    # polynomial fixtures evaluated at 20 random rational points each
    fixtures = [("dim4-engel", 2), ("dim5", 2), ("dim6-cubic", 4)]
    for name, r in fixtures:
        F = demo_frame(name)
        goh = goh_matrix(F)
        A = goh.reduced
        gens = kernel_generators(A, r)
        done = 0
        while done < 20:
            point = [Fraction(rng.randint(-16, 16), 8) for _ in range(F.n)]
            values = A.evaluate(point)
            if _linalg.rank(values) != r:
                continue
            vectors = []
            for g in gens:
                vec = [c.eval_exact(point) for c in g.vector()]
                assert matvec(values, vec) == [Fraction(0)] * F.m
                vectors.append(vec)
            assert _linalg.rank(vectors) == F.m - r
            done += 1
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(4, f"kernel generators: M.Z = 0 and span dimension m-r at 20 points per fixture ({elapsed:.1f}s)")


def test_criterion_05_dim4_reproduction():
    start = time.time()
    F = demo_frame("dim4")
    g = abnormal_generators(F, 2)[0]
    nlast = F.n - 1

    def c(i, j):
        return lie_bracket(F.fields[i - 1], F.fields[j - 1]).components[nlast]

    display = c(1, 2) * F.fields[2] + c(3, 1) * F.fields[1] + c(2, 3) * F.fields[0]
    assert g.Z == display or g.Z == -display
    cert = divergence_certificate(g, F)
    assert cert.phase_divergence.is_zero()
    dA = [A.partial(nlast) for A in F.normal_form]
    lam = cert.base_constant
    assert list(cert.base_coefficients) == [lam * dA[j - 1] for j in g.I]
    combo = sum((cf * g.Z.components[j - 1] for cf, j in zip(cert.base_coefficients, g.I)),
                Polynomial.zero(Space(4)))
    assert divergence(g.Z) == combo
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(5, f"dimension-4 generator matches the display; certificate constant {lam} ({elapsed:.1f}s)")


def test_criterion_06_dim5_reproduction():
    start = time.time()
    F = demo_frame("dim5")
    X = F.fields
    nlast = F.n - 1

    def c(i, j):
        return lie_bracket(X[i - 1], X[j - 1]).components[nlast]

    displays = {
        (2, 3, 4): c(4, 2) * X[2] + c(3, 4) * X[1] + c(2, 3) * X[3],
        (1, 3, 4): c(1, 4) * X[2] + c(3, 1) * X[3] + c(4, 3) * X[0],
        (1, 2, 4): c(1, 2) * X[3] + c(4, 1) * X[1] + c(2, 4) * X[0],
        (1, 2, 3): c(1, 2) * X[2] + c(3, 1) * X[1] + c(2, 3) * X[0],
    }
    for g in abnormal_generators(F, 2):
        want = displays[g.I]
        assert g.Z == want or g.Z == -want
    goh = goh_matrix(F)
    assert pfaffian_by_definition(goh.reduced, (1, 2, 3, 4)).is_zero()
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(6, f"dimension-5 generators match the four displays; 4x4 Pfaffian vanishes ({elapsed:.1f}s)")


def test_criterion_07_dim6_reproduction():
    start = time.time()
    F = demo_frame("dim6-cubic")
    goh = goh_matrix(F)
    s = Space(6)
    rp = parse_expression("3*(x2+x3)^2", s)
    one = Polynomial.constant(s, 1)
    zero = Polynomial.zero(s)
    display = [
        [zero, one, -one, zero, zero],
        [-one, zero, zero, rp, zero],
        [one, zero, zero, rp, zero],
        [zero, -rp, -rp, zero, zero],
        [zero, zero, zero, zero, zero],
    ]
    for i in range(5):
        for j in range(5):
            assert goh.reduced.entry(i + 1, j + 1) == display[i][j]
    S = stratify(F, SamplerConfig(seed=7, count=128))
    assert S.dims == (1, 3)
    deep = next(st for st in S.strata if st.dim == 3)
    assert deep.witnesses
    for w in deep.witnesses:
        assert abs(float(w.x[1] + w.x[2])) <= 1e-8
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report(7, f"dimension-6 reduced matrix matches; levels {{1,3}} with witnesses on x2+x3=0 ({elapsed:.1f}s)")


def test_criterion_08_divergence_certificates():
    start = time.time()
    frames = [demo_frame(name) for name in demo_names()]
    rng = random.Random(2024)
    for k in range(10):
        frames.append(random_corank1_frame(rng, 4 + k % 2, max_terms=2, max_degree=2))
    checked = 0
    for F in frames:
        goh = goh_matrix(F)
        matrix = goh.reduced if goh.reduced is not None else goh.H
        r = skew_rank(matrix)
        top = F.m - 1 if F.m % 2 else F.m - 2
        r = min(r, max(top, 0))
        for g in abnormal_generators(F, r, goh):
            cert = divergence_certificate(g, F, goh)
            assert cert.phase_divergence.is_zero()
            assert cert.jacobi_expansion.is_zero()
            if cert.base_residual is not None:
                assert cert.base_residual.is_zero()
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(8, f"div(Y_I) and Jacobi expansion are the zero polynomial for {checked} generators ({elapsed:.1f}s)")


def test_criterion_09_normal_form_rank_preservation():
    start = time.time()
    agreements = inconclusive = 0
    produced = 0
    seed = 0
    while produced < 10:
        seed += 1
        rng = random.Random(5000 + seed)
        n = rng.choice([3, 4, 5])
        m = rng.randint(2, n - 1)
        F = random_general_frame(rng, n, m, max_terms=2, max_degree=2)
        produced += 1
        N = normalize_frame(JetFrame.from_frame(F, 3))
        NF = N.to_frame()
        G_in, G_out = goh_matrix(F), goh_matrix(NF)
        MT = [[N.chart[i][j] for i in range(n)] for j in range(n)]
        basis = F.annihilator_basis([Fraction(0)] * n)
        x0 = [Fraction(0)] * n
        points = 0
        while points < 5:
            coeffs = [Fraction(rng.randint(-5, 5)) for _ in basis]
            p = [sum((cf * vec[k] for cf, vec in zip(coeffs, basis)), Fraction(0))
                 for k in range(n)]
            if all(v == 0 for v in p):
                continue
            points += 1
            d_in = kernel_dim_at(F, x0, p, G_in)
            pt = matvec(MT, p)
            r_in = m - d_in
            # conclusive when the output matrix still certifies rank >= r_in
            out_vals = scalar_to_skew(G_out.H.evaluate(x0 + pt))
            if r_in > 0 and skew_rank(out_vals) < r_in:
                inconclusive += 1
                continue
            assert kernel_dim_at(NF, x0, pt, G_out) == d_in
            agreements += 1
    total = agreements + inconclusive
    assert inconclusive < 0.2 * total
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(9, f"kernel dimension preserved by normalization at {agreements}/{total} matched points, "
               f"{inconclusive} inconclusive ({elapsed:.1f}s)")


def test_criterion_10_abnormal_trajectory_certification():
    start = time.time()
    F = demo_frame("dim4-engel")
    goh = goh_matrix(F)
    g = abnormal_generators(F, 2, goh)[0]
    traj = abnormal_trajectory(F, g, [0, 0, 0, 0], 1.0, 1e-3, goh=goh)
    assert np.max(np.abs(traj.states[-1] - np.array([1.0, 0.0, 1.0, 0.0]))) <= 1e-10
    assert all(q.is_zero() for q in kernel_residual(g, goh))
    assert traj.certified
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(10, f"Engel trajectory ends at (1,0,1,0), Ht.u = 0 exactly ({elapsed:.1f}s)")


def test_criterion_11_volume_distortion():
    start = time.time()
    s = Space(4)
    div_free = VectorField([parse_expression(e, s) for e in ("1", "0", "1", "x2")])
    report = volume_distortion(div_free, sample_cloud((-0.5, 0.5), 16, 4, seed=2), 1.0, 1e-2)
    assert np.max(np.abs(report.weights - 1.0)) <= 1e-6

    s1 = Space(1)
    contraction = VectorField([-Polynomial.variable(s1, 0)])
    report = volume_distortion(contraction, [[0.5], [1.0], [-0.25]], 1.0, 1e-3)
    assert np.max(np.abs(report.weights[:, -1] - math.exp(-1.0))) <= 1e-6

    F = demo_frame("dim4")
    goh = goh_matrix(F)
    g = abnormal_generators(F, 2, goh)[0]
    cert = divergence_certificate(g, F, goh)
    cloud = sample_cloud((-0.25, 0.25), 24, 4, seed=8)
    T, h = 0.5, 1e-3
    report = volume_distortion(g.Z, cloud, T, h)
    K = divergence_ratio_scan(g.Z, (-1.5, 1.5), 400, seed=8, cutoff=1e-2).ratio_sup
    for x0 in cloud:
        traj = integrate_field(g.Z, x0, T, h)
        for state in traj.states[::25]:
            K = max(K, sum(abs(c.eval_float(state.tolist())) for c in cert.base_coefficients))
    C = float(report.lengths.max())
    assert report.min_final_weight() >= math.exp(-K * C) * (1 - 1e-3)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(11, f"volume weights: 1 for divergence-free, e^-1 for -x1 d1, "
                f"exp(-KC) bound holds with K={K:.3f}, C={C:.3f} ({elapsed:.1f}s)")


def test_criterion_12_cli_determinism(capsys, tmp_path):
    start = time.time()
    pipelines = []
    for name in demo_names():
        pipelines.append(["demo", name])
        frame = tmp_path / f"{name}.json"
        frame.write_text(json.dumps(DEMOS[name].to_spec()), encoding="utf-8")
        pipelines.append(["goh", "--frame", str(frame)])
        pipelines.append(["certify", "--frame", str(frame)])
        pipelines.append(["stratify", "--seed", "17", "--samples", "32", "--frame", str(frame)])
        pipelines.append(["scan-div", "--seed", "23", "--samples", "64", "--frame", str(frame)])
        pipelines.append(["generators", "--frame", str(frame), "--json"])
    for argv in pipelines:
        runs = set()
        for _ in range(2):
            code = cli_main(list(argv))
            assert code == 0, argv
            runs.add(capsys.readouterr().out.encode())
        assert len(runs) == 1, argv
    elapsed = time.time() - start
    _report(12, f"{len(pipelines)} CLI pipelines byte-identical across reruns ({elapsed:.1f}s)")
