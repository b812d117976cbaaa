import math
import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import TWO_SPELLINGS, random_corank1_frame, random_polynomial
from singfol.abnormal import (CertificateError, _project_onto_locus, abnormal_generators,
                              divergence_certificate, goh_matrix, kernel_residual,
                              singular_set_equations)
from singfol import dynamics
from singfol.demos import demo_frame
from singfol.dynamics import (
    BlowUpError,
    _compiled_flow,
    _eval_states,
    _field_forms,
    abnormal_trajectory,
    divergence_ratio_scan,
    integrate_field,
    sample_cloud,
    volume_distortion,
)
from singfol.exactpoly import Polynomial, Space, _eval_float_form, parse_expression
from singfol.pfaffian import skew_rank
from singfol.vectorfield import Frame, VectorField, divergence


def base_field(space, *exprs):
    return VectorField([parse_expression(e, space) for e in exprs])


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
    traj = abnormal_trajectory(F, g, [0, 0, 0, 0], 1.0, 1e-3)
    assert traj.certified
    assert not integrate_field(g.Z, [0, 0, 0, 0], 1.0, 1e-3).certified
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


def test_kernel_check_is_exact_and_runs_before_the_first_step(monkeypatch):
    # at the generic rank Ht . u is the zero polynomial on every flow demo,
    # so any start point integrates, however large its coordinates
    for name in ("dim4", "dim4-engel", "dim5", "dim6-cubic"):
        F = demo_frame(name)
        goh = goh_matrix(F)
        for g in abnormal_generators(F, skew_rank(goh.reduced), goh):
            assert not any(kernel_residual(g, goh))
    F = demo_frame("dim4")
    goh = goh_matrix(F)
    g = abnormal_generators(F, 2, goh)[0]
    assert abnormal_trajectory(F, g, [1000.0] * 4, 0.01, 1e-3, goh=goh).certified
    # a nonzero component raises before any step, naming I, the component
    # and the residual
    runs = _recorded_runs(monkeypatch)
    residual = parse_expression("x1 - x3", F.space)
    zero = Polynomial.zero(F.space)
    monkeypatch.setattr(dynamics, "kernel_residual", lambda g, goh: (zero, residual, zero))
    with pytest.raises(CertificateError) as err:
        abnormal_trajectory(F, g, [0.1, 0.2, 0.3, 0.4], 0.1, 1e-2, goh=goh)
    assert err.value.detail == {"I": [1, 2, 3], "component": 2, "residual": "x1 - x3"}
    assert err.value.residual == residual and runs == []


def test_trajectory_csv_layout():
    F = demo_frame("dim4-engel")
    g = abnormal_generators(F, 2)[0]
    traj = abnormal_trajectory(F, g, [0, 0, 0, 0], 0.01, 1e-2)
    lines = traj.to_csv(seed=5).splitlines()
    assert lines[0] == "# seed=5, h=0.01, T=0.01"
    assert lines[1] == "t,x1,x2,x3,x4,residual_b,residual_c"
    assert len(lines) == 4  # header, columns, two states
    # the residual columns hold the exact residuals, which are zero
    assert all(line.endswith(",0.0,0.0") for line in lines[2:])


def test_csv_rows_are_the_states_and_times_bit_for_bit():
    F = demo_frame("dim5")
    g = abnormal_generators(F, 2)[0]
    traj = abnormal_trajectory(F, g, [0.2, 0.1, -0.3, 0.05, 0.0], 0.5, 0.007)
    lines = list(traj.csv_lines(seed=2))
    assert traj.to_csv(seed=2) == "\n".join(lines) + "\n"
    assert lines[0] == f"# seed=2, h=0.007, T={float(traj.times[-1])!r}"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert _same(rows[:, 0], traj.times)
    assert _same(np.ascontiguousarray(rows[:, 1:-2]), traj.states)


def test_costates_are_evaluated_when_read():
    # at 1e200 the costate -(x2+x3)^2 of dim5 overflows a double: the
    # trajectory integrates, and reading its costates raises
    F = demo_frame("dim5")
    goh = goh_matrix(F)
    g = abnormal_generators(F, skew_rank(goh.reduced), goh)[0]
    traj = abnormal_trajectory(F, g, [1e200] * 5, 0.01, 1e-3, goh=goh)
    assert traj.certified and "costates" not in vars(traj)
    assert traj.states.shape == (11, 5) and np.all(traj.states == 1e200)
    with pytest.raises(OverflowError):
        traj.costates
    assert integrate_field(g.Z, [1e200] * 5, 0.01, 1e-3).costates is None


# -- divergence scan ----------------------------------------------------------------


def test_scan_divergence_free_field():
    s = Space(4)
    Z = base_field(s, "1", "0", "1", "x2")
    scan = divergence_ratio_scan(Z, (-1, 1), 200, seed=3, cutoff=1e-3)
    assert scan.ratio_sup == 0.0


def test_scan_linear_field_structural_bound():
    s = Space(1)
    Z = VectorField([Polynomial.variable(s, 0)])
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
# replaced: a term-by-term eval_float, a per-state RHS, the per-state costate
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


def _reference_costates(F, states):
    return np.array([[_reference_eval(w, state.tolist()) for w in F.omega] for state in states])


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
    if r < skew_rank(goh.reduced):
        # (29, 5): m = 4 and generic rank 4, so the rank-2 generator is a
        # kernel section only on the singular set, and is refused
        with pytest.raises(CertificateError) as err:
            abnormal_trajectory(F, g, x0, T, h, goh=goh)
        assert err.value.detail["component"] == 4
        states = integrate_field(g.Z, x0, T, h).states
    else:
        traj = abnormal_trajectory(F, g, x0, T, h, goh=goh)
        states = traj.states
        assert _same(traj.costates, _reference_costates(F, states))
        # omega(x) is (-A(x), 1) read off the normal form, up to the sign of a zero
        assert np.array_equal(traj.costates, [[-_reference_eval(A, x) for A in F.normal_form]
                                              + [1.0] for x in states.tolist()])
    assert _same(states, _reference_integrate(g.Z, x0, T, h))
    cloud = sample_cloud((-0.6, 0.6), 16, F.n, seed=F.n)
    report = volume_distortion(g.Z, cloud, 0.1, h)
    weights, lengths, min_weights = _reference_volume(g.Z, cloud, 0.1, h)
    assert _same(report.weights, weights)
    assert _same(report.lengths, lengths)
    assert _same(report.min_weights, min_weights)
    # the RHS and div Z on every state, directly: RK4 and the quadrature can
    # absorb a last-bit difference that these cannot
    rows = np.concatenate([states, np.array(cloud)])
    ref = _reference_rhs(g.Z)
    rhs, _ = _compiled_flow(_field_forms(g.Z))
    assert _same(np.array([rhs(*x) for x in rows.tolist()]), np.array([ref(x) for x in rows]))
    div = divergence(g.Z)
    polys = [div, *g.Z.components]
    assert _same(_eval_states([p._float_terms() for p in polys], rows),
                 np.array([[_reference_eval(p, x.tolist()) for p in polys] for x in rows]))
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
    # stored states evaluated in blocks of one row, of 16 and 50 rows with a
    # shorter last block, and in one block: the volume cloud and a
    # trajectory's costates are the same bits either way
    F = _flow_frame((29, 6))
    goh = goh_matrix(F)
    g = abnormal_generators(F, skew_rank(goh.reduced), goh)[0]
    cloud = sample_cloud((-0.6, 0.6), 16, F.n, seed=F.n)
    weights, lengths, min_weights = _reference_volume(g.Z, cloud, 0.1, 1e-3)
    x0 = [-0.31, 0.27, -0.44, 0.18, -0.23, 0.39]
    states = _reference_integrate(g.Z, x0, 0.2, 1e-3)
    costates = _reference_costates(F, states)
    for rows in (1, 16, 50, dynamics.EVAL_BLOCK_ROWS):
        monkeypatch.setattr(dynamics, "EVAL_BLOCK_ROWS", rows)
        report = volume_distortion(g.Z, cloud, 0.1, 1e-3)
        assert _same(report.weights, weights), rows
        assert _same(report.lengths, lengths), rows
        assert _same(report.min_weights, min_weights), rows
        assert _same(abnormal_trajectory(F, g, x0, 0.2, 1e-3, goh=goh).costates, costates), rows


def test_eval_states_matches_reference_on_every_row(monkeypatch):
    # random polynomials with powers up to 5, the zero polynomial and a
    # constant, on rows with negative, zero and large coordinates, in blocks
    # of 7 rows with a shorter last block
    rng = random.Random(17)
    s = Space(3)
    polys = [random_polynomial(rng, s, 6, 5) for _ in range(6)]
    polys += [Polynomial.zero(s), Polynomial.constant(s, Fraction(-7, 3))]
    rows = np.array([[rng.uniform(-3, 3) for _ in range(3)] for _ in range(40)]
                    + [[0.0, -0.0, 1e60], [-1e-70, 2.5, -1.0]])
    want = np.array([[_reference_eval(p, x.tolist()) for p in polys] for x in rows])
    monkeypatch.setattr(dynamics, "EVAL_BLOCK_ROWS", 7)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _eval_states([p._float_terms() for p in polys], rows)
    assert _same(got, want)
    assert _eval_states([p._float_terms() for p in polys], rows[:0]).shape == (0, len(polys))
    # 1e150 ** 3 has no double: the power raises, as in eval_float
    cube = parse_expression("x1^3 + 1", s)
    with pytest.raises(OverflowError):
        cube.eval_float([1e150, 0.0, 0.0])
    with pytest.raises(OverflowError):
        _eval_states([cube._float_terms()], np.array([[1.0, 0.0, 0.0], [1e150, 0.0, 0.0]]))


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


def _hex_values(forms, point):
    return [_eval_float_form(form, point).hex() for form in forms]


def test_compiled_rhs_matches_eval_float_form():
    # negative bases, e = 1 factors, a constant-only and a zero component,
    # and a coefficient that rounds to -0.0
    rng = random.Random(7)
    s = Space(3)
    tiny = Polynomial(s, {(0, 0, 0): Fraction(-1, 10 ** 400), (1, 0, 0): Fraction(1, 3)})
    assert [c.hex() for c, _ in tiny._float_terms()] == [(1 / 3).hex(), "-0x0.0p+0"]
    for _ in range(200):
        comps = [random_polynomial(rng, s, 8, 7, (1, 2, 3, 7)) for _ in range(rng.randint(1, 4))]
        comps += [Polynomial.constant(s, Fraction(rng.randint(-9, 9), 7)), Polynomial.zero(s), tiny]
        rng.shuffle(comps)
        forms = [c._float_terms() for c in comps]
        f, _ = _compiled_flow(forms)
        # one argument per component; the components read the first three
        for _ in range(4):
            point = [rng.uniform(-2, 2) for _ in forms]
            assert [v.hex() for v in f(*point)] == _hex_values(forms, point)
    assert _compiled_flow([[]])[0](0.5)[0].hex() == "0x0.0p+0"
    # a power that overflows makes the whole RHS inf
    f, _ = _compiled_flow(_field_forms(base_field(Space(2), "x1^400", "1 - x2^3")))
    assert f(10.0, 0.3) == (math.inf, math.inf)


def test_compiled_rhs_of_ten_thousand_terms():
    # one statement per term: the syntax tree stays shallow, so a long
    # component compiles without RecursionError
    rng = random.Random(2)
    s = Space(4)
    terms = {(a, b, c, d): Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
             for a in range(10) for b in range(10) for c in range(10) for d in range(10)}
    forms = [Polynomial(s, terms)._float_terms(), [], [], []]
    assert len(forms[0]) == 10 ** 4
    f, _ = _compiled_flow(forms)
    for _ in range(3):
        point = [rng.uniform(-1.2, 1.2) for _ in range(4)]
        assert [v.hex() for v in f(*point)] == _hex_values(forms, point)


def test_integrate_field_matches_the_reference_on_random_fields():
    # a few large steps from zero coordinates: a state no larger than h * k
    # keeps a last-bit change of a stage or of the step's sum, which a
    # longer run from larger states absorbs
    rng = random.Random(13)
    s = Space(3)
    for _ in range(100):
        V = VectorField([random_polynomial(rng, s, 6, 4, (1, 3, 7)) for _ in range(3)])
        x0 = [0.0, rng.uniform(-0.5, 0.5), 0.0]
        try:
            expected = _reference_integrate(V, x0, 0.5, 0.1)
        except BlowUpError as err:
            with pytest.raises(BlowUpError) as got:
                integrate_field(V, x0, 0.5, 0.1)
            assert got.value.last_valid_time == err.last_valid_time
            continue
        assert _same(integrate_field(V, x0, 0.5, 0.1).states, expected)


def test_integrate_field_edge_cases_match_the_reference():
    # T < h/2 takes no step: the start state alone, shape (1, n)
    s = Space(2)
    Z = base_field(s, "x1*x2 - 1", "x2^2")
    traj = integrate_field(Z, [0.3, -0.7], 0.004, 0.01)
    assert _same(traj.states, _reference_integrate(Z, [0.3, -0.7], 0.004, 0.01))
    assert traj.states.shape == (1, 2)
    # halving is exact on normal floats, so only subnormal states tell the
    # stage (0.5 * h) * k from 0.5 * (h * k)
    lin = base_field(Space(1), "x1")
    x0 = [3 * 2.0 ** -1074]
    assert _same(integrate_field(lin, x0, 9.0, 0.9).states, _reference_integrate(lin, x0, 9.0, 0.9))
    # a blow-up after step 0 reports the reference's last valid time
    quad = base_field(Space(1), "x1^2")
    for x0, h in ((1.0, 0.01), (2.0, 0.003), (1.5, 0.02)):
        with pytest.raises(BlowUpError) as expected:
            _reference_integrate(quad, [x0], 2.0, h)
        with pytest.raises(BlowUpError) as got:
            integrate_field(quad, [x0], 2.0, h)
        assert got.value.last_valid_time > 0.0
        assert got.value.last_valid_time == expected.value.last_valid_time


# -- output depends only on polynomial values ---------------------------------
#
# Two spellings of one frame give == polynomials whose terms were inserted in
# other orders; every float the numeric layer computes from them must agree
# bit for bit.


def _reversed(poly):
    return Polynomial(poly.space, dict(reversed(list(poly.terms.items()))))


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
    t1, t2 = (abnormal_trajectory(F, g, x0, T, h, goh=goh)
              for F, g, goh in zip(frames, gens, gohs))
    for name in ("states", "costates"):
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
        box = (Fraction(-1), Fraction(1))
        point = _project_onto_locus(minors, x, box)
        assert point == _project_onto_locus(other, x, box), x
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


def _recorded_runs(monkeypatch):
    """The flat state arrays returned by every run of the compiled RK4 loop."""
    runs = []
    compiled = dynamics._compiled_flow

    def flow(forms):
        rhs, run = compiled(forms)

        def recorded(*args):
            runs.append(run(*args))
            return runs[-1]

        return rhs, recorded

    monkeypatch.setattr(dynamics, "_compiled_flow", flow)
    return runs


def test_volume_cloud_matches_per_point_reference(monkeypatch):
    # each cloud point's states, as volume_distortion stores them, are the
    # reference RK4 of that point bit for bit; a blow-up raises the last
    # valid time of the first point in cloud order that blows up
    runs = _recorded_runs(monkeypatch)

    def check(V, cloud, T, h):
        runs.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                expected = _reference_volume(V, cloud, T, h)
            except BlowUpError as err:
                expected = err
        if isinstance(expected, BlowUpError):
            with pytest.raises(BlowUpError) as got:
                volume_distortion(V, cloud, T, h)
            assert got.value.last_valid_time == expected.last_valid_time
        else:
            report = volume_distortion(V, cloud, T, h)
            for got, want in zip((report.weights, report.lengths, report.min_weights), expected):
                assert _same(got, want)
            assert len(runs) == len(cloud)
        # the points before a blow-up, or every point
        for states, x0 in zip(runs, cloud):
            assert _same(np.frombuffer(states).reshape(-1, len(x0)),
                         _reference_integrate(V, x0, T, h))
        return expected, len(runs)

    # x' = x^2: the middle point's power overflows after step 0
    quad = base_field(Space(1), "x1^2")
    err, done = check(quad, [[0.5], [1.0], [0.25]], 1.5, 0.01)
    assert isinstance(err, BlowUpError) and err.last_valid_time > 0.0 and done == 1
    # the finiteness test is per coordinate: a product that overflows (no
    # power raises) leaves the first coordinate finite, and two coordinates
    # near the largest double are finite though their sum is not
    prod = base_field(Space(3), "1", "x2*x3", "x2*x3")
    err, done = check(prod, [[0.0, 0.5, 0.5], [0.0, 1.0, 1.0], [0.0, 0.25, 0.25]], 1.5, 0.01)
    assert isinstance(err, BlowUpError) and err.last_valid_time > 0.0 and done == 1
    _, done = check(base_field(Space(2), "1", "-1"), [[0.5, 0.5], [1.7e308, 1.7e308]], 0.5, 0.1)
    assert done == 2
    # subnormal starts tell the stage (0.5 * h) * k from 0.5 * (h * k)
    lin = base_field(Space(1), "x1")
    _, done = check(lin, [[3 * 2.0 ** -1074], [0.5], [5 * 2.0 ** -1074]], 9.0, 0.9)
    assert done == 3
    # T < h/2 takes no step
    Z = base_field(Space(2), "x1*x2 - 1", "x2^2")
    report = volume_distortion(Z, [[0.3, -0.7], [0.1, 0.2]], 0.004, 0.01)
    assert report.weights.shape == (2, 1)
    check(Z, [[0.3, -0.7], [0.1, 0.2]], 0.004, 0.01)

    # random fields, a few large steps from mostly zero coordinates (see
    # test_integrate_field_matches_the_reference_on_random_fields), with a
    # subnormal start and a large middle point that may blow up
    rng = random.Random(19)
    outcomes = []
    for n in (1, 3, 13):
        s = Space(n)
        for _ in range(8):
            V = VectorField([random_polynomial(rng, s, 6, 4, (1, 3, 7)) for _ in range(n)])
            cloud = [[0.0] * n for _ in range(5)]
            cloud[0][0] = rng.uniform(-0.5, 0.5)
            cloud[1][-1] = 3 * 2.0 ** -1074
            scale = rng.choice((0.5, 40))
            cloud[2] = [rng.uniform(-scale, scale) for _ in range(n)]
            cloud[3] = [rng.uniform(-0.5, 0.5) if k % 2 else 0.0 for k in range(n)]
            result, done = check(V, cloud, 0.5, 0.1)
            blown = isinstance(result, BlowUpError)
            outcomes.append((n, done, blown and result.last_valid_time > 0.0))
    # each n has a cloud that runs to the end, and one whose middle point
    # blows up after step 0
    for n in (1, 3, 13):
        assert (n, 5, False) in outcomes
        assert (n, 2, True) in outcomes


def test_the_flow_is_compiled_once_per_call(monkeypatch):
    # one compile per integrate_field, abnormal_trajectory or
    # volume_distortion call, not one per stage, step or cloud point
    sources = []

    def counting(source, filename, mode):
        sources.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(dynamics, "compile", counting, raising=False)
    F = demo_frame("dim4")
    goh = goh_matrix(F)
    g = abnormal_generators(F, skew_rank(goh.reduced), goh)[0]
    integrate_field(g.Z, [0.1, 0.2, 0.3, 0.1], 0.1, 0.01)
    assert len(sources) == 1
    abnormal_trajectory(F, g, [0.1, 0.2, 0.3, 0.1], 0.1, 0.01, goh=goh)
    assert len(sources) == 2
    volume_distortion(g.Z, sample_cloud((-0.5, 0.5), 16, F.n, seed=1), 0.1, 0.01)
    assert sources == ["<singfol.dynamics flow>"] * 3


def test_power_overflow_turns_the_row_inf():
    # 10.0 ** 400 raises OverflowError: that state's whole RHS is inf, the
    # other rows keep their values
    Z = base_field(Space(2), "x1^400", "1 - x2^3")
    X = np.array([[0.5, -0.7], [10.0, 0.3], [-0.9, 0.2]])
    ref = _reference_rhs(Z)
    rhs, _ = _compiled_flow(_field_forms(Z))
    got = np.array([rhs(*x) for x in X.tolist()])
    assert _same(got, np.array([ref(x) for x in X]))
    assert np.all(np.isinf(got[1])) and np.all(np.isfinite(got[[0, 2]]))
    with pytest.raises(BlowUpError) as err:
        integrate_field(Z, [10.0, 0.3], 1.0, 0.1)
    assert err.value.last_valid_time == 0.0
    # in the cloud that point alone blows up, at the reference's time
    others = X[[0, 2]].tolist()
    for x0 in others:
        _reference_integrate(Z, x0, 0.5, 0.1)
    with pytest.raises(BlowUpError) as expected, np.errstate(invalid="ignore"):
        _reference_integrate(Z, X[1].tolist(), 0.5, 0.1)
    with pytest.raises(BlowUpError) as err:
        volume_distortion(Z, X.tolist(), 0.5, 0.1)
    assert err.value.last_valid_time == expected.value.last_valid_time == 0.0
    report = volume_distortion(Z, others, 0.5, 0.1)
    weights, lengths, min_weights = _reference_volume(Z, others, 0.5, 0.1)
    assert _same(report.weights, weights)
    assert _same(report.lengths, lengths)
    assert _same(report.min_weights, min_weights)


def test_coefficient_overflow_blows_up_at_time_zero():
    s = Space(1)
    Z = VectorField([Polynomial(s, {(1,): Fraction(10 ** 400, 3)})])
    with pytest.raises(BlowUpError) as expected:
        _reference_integrate(Z, [0.5], 1.0, 0.1)
    for run in (lambda: integrate_field(Z, [0.5], 1.0, 0.1),
                lambda: volume_distortion(Z, [[0.5], [0.25]], 1.0, 0.1)):
        with pytest.raises(BlowUpError) as got:
            run()
        assert got.value.last_valid_time == expected.value.last_valid_time == 0.0
