import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import TWO_SPELLINGS, random_corank1_frame, random_polynomial
from singfol.abnormal import (_project_onto_locus, abnormal_generators, divergence_certificate,
                              goh_matrix, singular_set_equations)
from singfol import dynamics
from singfol.demos import demo_frame
from singfol.dynamics import (
    BlowUpError,
    _eval_rows,
    _field_forms,
    _point_rhs,
    _rows_rhs,
    abnormal_trajectory,
    divergence_ratio_scan,
    integrate_field,
    sample_cloud,
    volume_distortion,
)
from singfol.exactpoly import Polynomial, Space, parse_expression
from singfol.pfaffian import skew_rank
from singfol.vectorfield import Frame, VectorField, divergence


def base_field(space, *exprs):
    return VectorField([parse_expression(e, space) for e in exprs], "base")


# -- integrator -----------------------------------------------------------------


def test_constant_field_unit_time():
    s = Space(3)
    traj = integrate_field(base_field(s, "1", "0", "0"), [0, 0, 0], 1.0, 0.01)
    assert np.allclose(traj.states[-1], [1, 0, 0], atol=1e-14)


def test_zero_field_constant_trajectory():
    s = Space(2)
    traj = integrate_field(VectorField.zero(s), [0.3, -0.7], 0.5, 0.01)
    assert np.all(traj.states == traj.states[0])


def test_engel_flow_is_exact():
    s = Space(4)
    Z = base_field(s, "1", "0", "1", "x2")
    traj = integrate_field(Z, [0, 0, 0, 0], 1.0, 1e-3)
    assert np.max(np.abs(traj.states[-1] - np.array([1, 0, 1, 0]))) < 1e-12


def test_blow_up_raises():
    s = Space(1)
    quad = base_field(s, "x1^2")
    with pytest.raises(BlowUpError) as err:
        integrate_field(quad, [1.0], 2.0, 0.01)
    assert 0.9 < err.value.last_valid_time <= 2.0


def test_rk4_linear_field_accuracy():
    # global error of RK4 on xdot = -x over [0,1]; C pinned from measurement
    s = Space(1)
    Z = base_field(s, "-(x1)")
    C = 0.01
    for h in (0.1, 0.05, 0.025):
        traj = integrate_field(Z, [1.0], 1.0, h)
        rel = abs(traj.states[-1][0] - math.exp(-1.0)) / math.exp(-1.0)
        assert rel <= C * h ** 4


def test_bad_steps_rejected():
    s = Space(1)
    with pytest.raises(ValueError):
        integrate_field(base_field(s, "1"), [0.0], 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_field(base_field(s, "1"), [0.0], -1.0, 0.1)


# -- certified trajectories --------------------------------------------------------


def test_engel_certified_trajectory():
    F = demo_frame("dim4-engel")
    g = abnormal_generators(F, 2)[0]
    traj = abnormal_trajectory(F, g, [0, 0, 0, 0], 1.0, 1e-3, tolerance=1e-12)
    assert traj.certified
    assert traj.horizontal_by_construction
    assert float(traj.goh_residuals.max()) <= 1e-12
    assert float(traj.annihilation_residuals.max()) <= 1e-12
    assert np.max(np.abs(traj.states[-1] - np.array([1, 0, 1, 0]))) < 1e-10


def test_dim4_constant_trajectory_on_singular_set():
    # on sigma = {x1 = 0, x2 = 1} the generator vanishes: constant trajectory
    F = demo_frame("dim4")
    g = abnormal_generators(F, 2)[0]
    assert all(c.eval_float([0.0, 1.0, 0.3, -0.2]) == 0.0 for c in g.Z.components)
    traj = abnormal_trajectory(F, g, [0.0, 1.0, 0.3, -0.2], 0.5, 1e-2)
    assert np.all(traj.states == traj.states[0])
    assert traj.certified


def test_dim5_certified_trajectory():
    F = demo_frame("dim5")
    gens = abnormal_generators(F, 2)
    z1 = next(g for g in gens if g.I == (2, 3, 4))
    traj = abnormal_trajectory(F, z1, [0.2, 0.1, -0.3, 0.05, 0.0], 1.0, 1e-3)
    assert traj.certified
    assert float(traj.goh_residuals.max()) <= 1e-10


def test_goh_residual_scales_with_machine_epsilon():
    # residual (b) stays below 100 eps times the local magnitude of the
    # matrix-vector product, frame by frame
    eps = np.finfo(float).eps
    # martinet is excluded: with m = 2 the only generators live at rank 0 and
    # span the kernel on the singular surface only, not along a generic flow
    for name in ("dim4", "dim4-engel", "dim5", "dim6-cubic"):
        F = demo_frame(name)
        goh = goh_matrix(F)
        from singfol.pfaffian import skew_rank
        r = skew_rank(goh.reduced)
        g = abnormal_generators(F, r, goh)[0]
        x0 = [0.11, -0.23, 0.07, 0.19, -0.13, 0.29][: F.n]
        traj = abnormal_trajectory(F, g, x0, 0.2, 1e-2, tolerance=np.inf)
        coeff_by_index = {i: c for i, c in zip(g.I, g.reduced_coefficients)}
        for state, res in zip(traj.states, traj.goh_residuals):
            point = state.tolist()
            hmax = max(abs(goh.reduced.entry(i, j).eval_float(point))
                       for i in range(1, F.m + 1) for j in range(1, F.m + 1))
            umax = max(abs(coeff_by_index[i].eval_float(point)) for i in g.I)
            scale = max(1.0, F.m * hmax * umax)
            assert res <= 100 * eps * scale, (name, res, scale)


def test_trajectory_csv_layout():
    F = demo_frame("dim4-engel")
    g = abnormal_generators(F, 2)[0]
    traj = abnormal_trajectory(F, g, [0, 0, 0, 0], 0.01, 1e-2)
    lines = traj.to_csv(seed=5).splitlines()
    assert lines[0] == "# seed=5, h=0.01, T=0.01"
    assert lines[1] == "t,x1,x2,x3,x4,residual_b,residual_c"
    assert len(lines) == 4  # header, columns, two states


# -- divergence scan ----------------------------------------------------------------


def test_scan_divergence_free_field():
    s = Space(4)
    Z = base_field(s, "1", "0", "1", "x2")
    scan = divergence_ratio_scan(Z, (-1, 1), 200, seed=3, cutoff=1e-3)
    assert scan.ratio_sup == 0.0


def test_scan_linear_field_structural_bound():
    s = Space(1)
    Z = VectorField([Polynomial.variable(s, 0)], "base")
    scan = divergence_ratio_scan(Z, (-1, 1), 400, seed=9, cutoff=0.1)
    assert scan.ratio_sup <= 1.0 / 0.1 + 1e-9
    assert scan.ratio_sup > 1.0  # some sample lands near the cutoff


def test_scan_dim4_respects_certificate_bound():
    # |div Z| = |sum c_j Z(x_j)| <= (sum |c_j|) * |Z|_inf pointwise, so the
    # scan estimate cannot exceed the sample maximum of sum |c_j|
    F = demo_frame("dim4")
    goh = goh_matrix(F)
    g = abnormal_generators(F, 2, goh)[0]
    cert = divergence_certificate(g, F, goh)
    scan = divergence_ratio_scan(g.Z, (-1, 1), 300, seed=12, cutoff=1e-2)
    rng = random.Random(12)
    bound = 0.0
    for _ in range(300):
        x = [rng.uniform(-1, 1) for _ in range(4)]
        bound = max(bound, sum(abs(c.eval_float(x)) for c in cert.base_coefficients))
    assert scan.ratio_sup <= bound + 1e-9


def test_scan_requires_positive_cutoff():
    s = Space(1)
    with pytest.raises(ValueError):
        divergence_ratio_scan(base_field(s, "1"), (-1, 1), 10, 0, 0.0)


# -- volume distortion ----------------------------------------------------------------


def test_volume_weights_divergence_free():
    s = Space(4)
    Z = base_field(s, "1", "0", "1", "x2")
    cloud = sample_cloud((-0.5, 0.5), 16, 4, seed=4)
    report = volume_distortion(Z, cloud, 1.0, 1e-2)
    assert np.max(np.abs(report.weights - 1.0)) <= 1e-6


def test_volume_weights_linear_contraction():
    s = Space(1)
    Z = base_field(s, "-(x1)")
    cloud = [[0.5], [1.0], [-0.25]]
    report = volume_distortion(Z, cloud, 1.0, 1e-3)
    assert np.max(np.abs(report.weights[:, -1] - math.exp(-1.0))) <= 1e-6


def test_volume_dim4_exp_bound():
    # min weight >= exp(-K C)(1 - tol) with K covering the flow region and C
    # the observed sup-norm trajectory length
    F = demo_frame("dim4")
    goh = goh_matrix(F)
    g = abnormal_generators(F, 2, goh)[0]
    cert = divergence_certificate(g, F, goh)
    cloud = sample_cloud((-0.25, 0.25), 24, 4, seed=8)
    T, h = 0.5, 1e-3
    report = volume_distortion(g.Z, cloud, T, h)
    scan = divergence_ratio_scan(g.Z, (-1.5, 1.5), 400, seed=8, cutoff=1e-2)
    K = scan.ratio_sup
    for x0 in cloud:
        traj = integrate_field(g.Z, x0, T, h)
        for state in traj.states[:: 50]:
            K = max(K, sum(abs(c.eval_float(state.tolist())) for c in cert.base_coefficients))
    C = float(report.lengths.max())
    assert report.min_final_weight() >= math.exp(-K * C) * (1 - 1e-3)


# -- bit-for-bit references -------------------------------------------------------
#
# The numeric layer evaluates compiled float forms, on one point or on whole
# arrays of states.  The references below are the plain per-point loops it
# replaced: a term-by-term eval_float, a per-state RHS, the per-state residual
# loop and the per-point volume loop.  Every array must match them byte for
# byte (tobytes), not merely to a tolerance.


def _reference_eval(poly, point):
    """The term loop in the printing order, the one order the float layer
    sums in."""
    total = 0.0
    for exps, coeff in poly.sorted_terms():
        term = float(coeff)
        for e, v in zip(exps, point):
            if e:
                term *= v ** e
        total += term
    return total


def _reference_rhs(V):
    comps = V.components

    def f(state):
        point = state.tolist()
        try:
            return np.array([_reference_eval(c, point) for c in comps], dtype=float)
        except OverflowError:
            return np.full(len(comps), np.inf)

    return f


def _reference_integrate(V, x0, T, h):
    steps = int(round(T / h))
    f = _reference_rhs(V)
    x = np.array([float(v) for v in x0], dtype=float)
    states = [x.copy()]
    for i in range(steps):
        k1 = f(x)
        k2 = f(x + 0.5 * h * k1)
        k3 = f(x + 0.5 * h * k2)
        k4 = f(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise BlowUpError(i * h)
        states.append(x.copy())
    return np.array(states)


def _reference_residuals(F, g, goh, states):
    m = F.m
    coeff_by_index = {i: c for i, c in zip(g.I, g.reduced_coefficients)}
    costates, goh_res, anni_res = [], [], []
    for state in states:
        point = state.tolist()
        p = np.array([-_reference_eval(A, point) for A in F.normal_form] + [1.0])
        u = np.array([_reference_eval(coeff_by_index[i], point) if i in coeff_by_index else 0.0
                      for i in range(1, m + 1)])
        Ht = np.array([[_reference_eval(goh.reduced.entry(i, j), point)
                        for j in range(1, m + 1)] for i in range(1, m + 1)])
        goh_res.append(float(np.max(np.abs(Ht @ u))) if m else 0.0)
        anni_res.append(max(abs(float(np.dot(p, [_reference_eval(c, point) for c in X.components])))
                            for X in F.fields))
        costates.append(p)
    return np.array(costates), np.array(goh_res), np.array(anni_res)


def _reference_volume(Z, cloud, T, h):
    div = divergence(Z)
    all_weights, lengths = [], []
    for x0 in cloud:
        states = _reference_integrate(Z, x0, T, h)
        div_vals = np.array([_reference_eval(div, s.tolist()) for s in states])
        speed = np.array([max(abs(_reference_eval(c, s.tolist())) for c in Z.components)
                          for s in states])
        integral = np.concatenate([[0.0], np.cumsum((div_vals[1:] + div_vals[:-1]) * 0.5 * h)])
        length = np.concatenate([[0.0], np.cumsum((speed[1:] + speed[:-1]) * 0.5 * h)])
        all_weights.append(np.exp(integral))
        lengths.append(length[-1])
    weights = np.array(all_weights)
    return weights, np.array(lengths), np.min(weights, axis=0)


# every flow demo, and random frames whose generators have third and fourth
# powers in Z, as (seed, n) of random_corank1_frame
FLOW_CASES = ["dim4", "dim4-engel", "dim5", "dim6-cubic", (29, 5), (29, 6)]


def _flow_frame(case):
    if isinstance(case, str):
        return demo_frame(case)
    seed, n = case
    return random_corank1_frame(random.Random(seed), n, 3, 3)


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", FLOW_CASES,
                         ids=lambda c: c if isinstance(c, str) else "random-%d-n%d" % c)
def test_numeric_layer_bitwise_equal_to_per_point_loops(case):
    F = _flow_frame(case)
    goh = goh_matrix(F)
    r = min(skew_rank(goh.reduced), F.m - 1 if F.m % 2 else F.m - 2)
    g = abnormal_generators(F, r, goh)[0]
    # negative coordinates throughout, so odd powers of negative bases occur
    x0 = [-0.31, 0.27, -0.44, 0.18, -0.23, 0.39][: F.n]
    T, h = 0.2, 1e-3
    traj = abnormal_trajectory(F, g, x0, T, h, 1e-10, goh)
    assert _same(traj.states, _reference_integrate(g.Z, x0, T, h))
    costates, goh_res, anni_res = _reference_residuals(F, g, goh, traj.states)
    assert _same(traj.costates, costates)
    assert _same(traj.goh_residuals, goh_res)
    assert _same(traj.annihilation_residuals, anni_res)
    cloud = sample_cloud((-0.6, 0.6), 16, F.n, seed=F.n)
    report = volume_distortion(g.Z, cloud, 0.1, h)
    weights, lengths, min_weights = _reference_volume(g.Z, cloud, 0.1, h)
    assert _same(report.weights, weights)
    assert _same(report.lengths, lengths)
    assert _same(report.min_weights, min_weights)
    # the RHS and div Z on every state, directly: RK4 and the quadrature can
    # absorb a last-bit difference that these cannot
    rows = np.concatenate([traj.states, np.array(cloud)])
    ref = _reference_rhs(g.Z)
    assert _same(_rows_rhs(_field_forms(g.Z))(rows), np.array([ref(x) for x in rows]))
    div = divergence(g.Z)
    assert _same(_eval_rows(div._float_terms(), rows, {}),
                 np.array([_reference_eval(div, x.tolist()) for x in rows]))
    scan = divergence_ratio_scan(g.Z, (-1, 1), 200, seed=5, cutoff=1e-3)
    rng = random.Random(5)
    best = 0.0
    for _ in range(200):
        x = [rng.uniform(-1, 1) for _ in range(F.n)]
        znorm = max(abs(_reference_eval(c, x)) for c in g.Z.components)
        if znorm >= 1e-3:
            best = max(best, abs(_reference_eval(div, x)) / znorm)
    assert scan.ratio_sup == best


def test_volume_in_blocks_of_steps_is_bitwise_equal(monkeypatch):
    # blocks of one step (a block smaller than the cloud still takes one),
    # of three steps with a shorter last block, and one block for all
    F = _flow_frame((29, 6))
    goh = goh_matrix(F)
    g = abnormal_generators(F, skew_rank(goh.reduced), goh)[0]
    cloud = sample_cloud((-0.6, 0.6), 16, F.n, seed=F.n)
    weights, lengths, min_weights = _reference_volume(g.Z, cloud, 0.1, 1e-3)
    for rows in (1, 16, 50, dynamics.VOLUME_BLOCK_ROWS):
        monkeypatch.setattr(dynamics, "VOLUME_BLOCK_ROWS", rows)
        report = volume_distortion(g.Z, cloud, 0.1, 1e-3)
        assert _same(report.weights, weights), rows
        assert _same(report.lengths, lengths), rows
        assert _same(report.min_weights, min_weights), rows


def test_eval_float_matches_term_loop_on_random_polynomials():
    rng = random.Random(3)
    s = Space(3)
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            exps = tuple(rng.randint(0, 5) for _ in range(3))
            terms[exps] = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
        P = Polynomial(s, terms)
        point = [rng.uniform(-2, 2) for _ in range(3)]
        assert P.eval_float(point).hex() == _reference_eval(P, point).hex()


# -- output depends only on polynomial values ---------------------------------
#
# Two spellings of one frame give == polynomials whose terms were inserted in
# other orders; every float the numeric layer computes from them must agree
# bit for bit.


def _reversed(poly):
    return Polynomial(poly.space, dict(reversed(poly.terms.items())))


def _inserted_otherwise(a, b):
    """a == b, with the terms of at least one pair inserted in another order."""
    return a == b and any(list(p.terms) != list(q.terms) for p, q in zip(a, b))


def test_float_outputs_depend_only_on_polynomial_values():
    rng = random.Random(11)
    space = Space(3)
    for _ in range(100):
        P = random_polynomial(rng, space, 6, 4, (1, 2, 3, 7))
        Q = _reversed(P)
        assert P._float_terms() == Q._float_terms()
        point = [rng.uniform(-2, 2) for _ in range(3)]
        assert P.eval_float(point).hex() == Q.eval_float(point).hex()

    frames = [Frame.corank1(4, [parse_expression(t, Space(4)) for t in spelling])
              for spelling in TWO_SPELLINGS]
    assert _inserted_otherwise(frames[0].normal_form, frames[1].normal_form)
    gohs = [goh_matrix(F) for F in frames]
    gens = [abnormal_generators(F, 2, goh)[0] for F, goh in zip(frames, gohs)]
    Z1, Z2 = (g.Z for g in gens)
    assert _inserted_otherwise(Z1.components, Z2.components)
    for c1, c2 in zip(Z1.components + (divergence(Z1),), Z2.components + (divergence(Z2),)):
        assert c1._float_terms() == c2._float_terms()
    x0, T, h = [0.1, 0.05, -0.1, 0.02], 0.5, 0.01
    assert _same(integrate_field(Z1, x0, T, h).states, integrate_field(Z2, x0, T, h).states)
    t1, t2 = (abnormal_trajectory(F, g, x0, T, h, 1e-10, goh)
              for F, g, goh in zip(frames, gens, gohs))
    for name in ("states", "costates", "goh_residuals", "annihilation_residuals"):
        assert _same(getattr(t1, name), getattr(t2, name)), name
    cloud = sample_cloud((-0.5, 0.5), 8, 4, seed=3)
    v1, v2 = (volume_distortion(Z, cloud, 0.2, h) for Z in (Z1, Z2))
    for name in ("weights", "lengths", "min_weights"):
        assert _same(getattr(v1, name), getattr(v2, name)), name
    s1, s2 = (divergence_ratio_scan(Z, (-1, 1), 200, seed=5, cutoff=1e-3) for Z in (Z1, Z2))
    assert s1 == s2 and s1.ratio_sup.hex() == s2.ratio_sup.hex()

    # the locus search freezes its lead minor to exact coefficients; this
    # one has rational roots, so the projection reaches the locus
    minors = singular_set_equations(demo_frame("dim6-cubic"), 4)
    other = [_reversed(q) for q in minors]
    assert _inserted_otherwise(minors, other)
    rng = random.Random(1)
    reached = 0
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-64, 64), 64) for _ in range(6))
        point = _project_onto_locus(minors, x)
        assert point == _project_onto_locus(other, x), x
        reached += point is not None
    assert reached


def test_cloud_blow_up_reports_first_point_in_cloud_order():
    # x' = x^2 from x0 blows up near t = 1/x0: the point 2.0 blows up first
    # in time, but the point 1.0 comes first in the cloud
    quad = base_field(Space(1), "x1^2")
    for cloud in ([[1.0], [2.0]], [[2.0], [1.0]], [[-1.0], [1.0], [2.0]]):
        with pytest.raises(BlowUpError) as expected:
            for x0 in cloud:
                _reference_integrate(quad, x0, 2.0, 0.01)
        with pytest.raises(BlowUpError) as got:
            volume_distortion(quad, cloud, 2.0, 0.01)
        assert got.value.last_valid_time == expected.value.last_valid_time
    with pytest.raises(BlowUpError) as got:
        volume_distortion(quad, [[1.0], [2.0]], 2.0, 0.01)
    assert 0.9 < got.value.last_valid_time < 1.1


def test_power_overflow_turns_the_row_inf():
    # 10.0 ** 400 raises OverflowError: that state's whole RHS is inf, the
    # other rows keep their values
    Z = base_field(Space(2), "x1^400", "1 - x2^3")
    X = np.array([[0.5, -0.7], [10.0, 0.3], [-0.9, 0.2]])
    ref = _reference_rhs(Z)
    got = _rows_rhs(_field_forms(Z))(X)
    assert _same(got, np.array([ref(x) for x in X]))
    assert np.all(np.isinf(got[1]))
    assert _same(_point_rhs(_field_forms(Z))(X[1]), ref(X[1]))
    with pytest.raises(BlowUpError) as err:
        integrate_field(Z, [10.0, 0.3], 1.0, 0.1)
    assert err.value.last_valid_time == 0.0
    with pytest.raises(BlowUpError) as err:
        volume_distortion(Z, X.tolist(), 0.5, 0.1)
    assert err.value.last_valid_time == 0.0


def test_coefficient_overflow_blows_up_at_time_zero():
    s = Space(1)
    Z = VectorField([Polynomial(s, {(1,): Fraction(10 ** 400, 3)})], "base")
    with pytest.raises(BlowUpError) as expected:
        _reference_integrate(Z, [0.5], 1.0, 0.1)
    for run in (lambda: integrate_field(Z, [0.5], 1.0, 0.1),
                lambda: volume_distortion(Z, [[0.5], [0.25]], 1.0, 0.1)):
        with pytest.raises(BlowUpError) as got:
            run()
        assert got.value.last_valid_time == expected.value.last_valid_time == 0.0
