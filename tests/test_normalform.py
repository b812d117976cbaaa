import random
from fractions import Fraction

import pytest

from conftest import matvec, random_general_frame
from singfol.abnormal import kernel_dim_at, goh_matrix
from singfol.demos import demo_frame
from singfol.exactpoly import JetSeries, Polynomial, Space, parse_expression
from singfol.normalform import (
    JetFrame,
    StageError,
    normalize_frame,
    normalize_linear,
    phi_step,
    psi_step,
)
from singfol.pfaffian import skew_rank
from singfol.vectorfield import (
    Frame,
    VectorField,
    hamiltonian_lift,
    lie_bracket,
)


def base_field(space, *exprs):
    return VectorField([parse_expression(e, space) for e in exprs])


# -- linear normalization ---------------------------------------------------------


def test_already_normalized_frame_gets_identity_chart():
    F = demo_frame("dim4-engel")
    JF = JetFrame.from_frame(F, 3)
    out = normalize_linear(JF)
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4))
    assert out.chart == identity
    assert out.components == JF.components
    assert out.stage == "V(1)"


def test_linear_solve_mixes_fields():
    s = Space(3)
    F = Frame((base_field(s, "1", "1", "0"), base_field(s, "0", "1", "0")))
    out = normalize_linear(JetFrame.from_frame(F, 3))
    assert out.field(1) == base_field(s, "1", "0", "0")
    assert out.field(2) == base_field(s, "0", "1", "0")


def test_linear_rescale_single_field():
    s = Space(2)
    F = Frame((base_field(s, "2", "0"),))
    out = normalize_linear(JetFrame.from_frame(F, 2))
    assert out.field(1) == base_field(s, "1", "0")


def test_linear_completion_is_leftmost():
    # X^1(0) = e2: the completion must pick e1 (not e3) for the second column
    s = Space(3)
    F = Frame((base_field(s, "0", "1", "0"),))
    out = normalize_linear(JetFrame.from_frame(F, 3))
    assert out.chart == (
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )


def test_dependent_constants_rejected():
    s = Space(3)
    comps = tuple(
        tuple(JetSeries(c, 2) for c in X.components)
        for X in (base_field(s, "1", "0", "0"), base_field(s, "1", "x1", "0"))
    )
    JF = JetFrame(3, 2, 2, comps)
    with pytest.raises(ValueError):
        normalize_linear(JF)


# -- unit rescale -----------------------------------------------------------------


def test_phi_step_noop_when_diagonal_clean():
    F = demo_frame("dim4-engel")
    v1 = normalize_linear(JetFrame.from_frame(F, 3))
    z1 = phi_step(v1, 1)
    assert z1.components == v1.components
    assert z1.stage == "Z(1)"


def test_phi_step_geometric_series():
    s = Space(2)
    F = Frame((base_field(s, "1 + x1", "0"),))
    z1 = phi_step(normalize_linear(JetFrame.from_frame(F, 3)), 1)
    assert z1.field(1) == base_field(s, "1", "0")
    # with a second non-unit component the series shows up
    F2 = Frame((base_field(s, "1 + x1", "x2"),))
    z2 = phi_step(normalize_linear(JetFrame.from_frame(F2, 3)), 1)
    x1 = Polynomial.variable(s, 0)
    series = 1 - x1 + x1 ** 2 - x1 ** 3
    assert z2.coefficient(1, 2).body == (series * Polynomial.variable(s, 1)).truncate_total(3)


def test_phi_step_order_zero_is_constant_rescale():
    s = Space(2)
    F = Frame((base_field(s, "1 + x1", "0"),))
    z = phi_step(normalize_linear(JetFrame.from_frame(F, 0)), 1)
    assert z.field(1) == base_field(s, "1", "0")


def test_phi_step_stage_guard():
    F = demo_frame("dim4-engel")
    JF = JetFrame.from_frame(F, 2)
    with pytest.raises(StageError):
        phi_step(JF, 1)  # still raw


# -- elimination -------------------------------------------------------------------


def test_psi_step_noop_and_substitution():
    s = Space(3)
    # A^2_1 = x2: X^2 gets replaced by X^2 - x2 X^1
    f1 = base_field(s, "1", "0", "x3")
    f2 = base_field(s, "x2", "1", "0")
    JF = JetFrame.from_frame(Frame((f1, f2)), 3)
    z1 = phi_step(normalize_linear(JF), 1)
    v2 = psi_step(z1, 1)
    x2 = Polynomial.variable(s, 1)
    expected = tuple((b - x2 * a).truncate_total(3)
                     for a, b in zip(f1.components, f2.components))
    assert tuple(js.body for js in v2.components[1]) == expected
    # X^1 itself is untouched by its own elimination step
    assert v2.components[0] == z1.components[0]


def test_normalize_frame_reaches_normal_stage():
    for name in ("martinet", "dim4", "dim4-engel", "dim5", "dim6-cubic"):
        F = demo_frame(name)
        JF = JetFrame.from_frame(F, 3)
        N = normalize_frame(JF)
        assert N.stage == "normal"
        assert N.is_normal()
        # corank-1 fixtures are already in normal form: fixed points
        assert N.components == JF.components


def test_normalize_random_frames_stage_predicates():
    for seed in (1, 2, 3):
        F = random_general_frame(random.Random(seed), 4, 2, max_terms=2)
        N = normalize_frame(JetFrame.from_frame(F, 3))
        assert N.is_normal()
        for k in range(1, 3):
            for i in range(1, 3):
                want = Polynomial.constant(Space(4), 1 if i == k else 0)
                assert N.coefficient(k, i).body == want


# -- bracket identities behind the steps ----------------------------------------------


def test_phi_step_bracket_identity():
    # p.[U X^j, X^k] = U h^{jk} - X^k(U) h^j exactly, U any base polynomial
    rng = random.Random(17)
    F = random_general_frame(rng, 4, 3)
    s = Space(4)
    U = 1 + Polynomial.variable(s, 0) * Polynomial.variable(s, 2)
    Xj, Xk = F.fields[0], F.fields[1]
    lhs = hamiltonian_lift(lie_bracket(U * Xj, Xk))
    hjk = hamiltonian_lift(lie_bracket(Xj, Xk))
    hj = hamiltonian_lift(Xj)
    rhs = U.lift_to_phase() * hjk - Xk.apply(U).lift_to_phase() * hj
    assert lhs == rhs


def test_psi_step_goh_transform_identity():
    # p.[X^k - a X^j, X^l - b X^j]
    #   = h^{kl} - b h^{kj} - a h^{jl} + (X^l(a) - X^k(b) + a X^j(b) - b X^j(a)) h^j
    rng = random.Random(18)
    F = random_general_frame(rng, 4, 3)
    s = Space(4)
    a = Polynomial.variable(s, 1)
    b = Polynomial.variable(s, 0) ** 2
    Xj, Xk, Xl = F.fields[0], F.fields[1], F.fields[2]
    lift = lambda V: hamiltonian_lift(V)
    h = lambda A, B: hamiltonian_lift(lie_bracket(A, B))
    lhs = h(Xk - a * Xj, Xl - b * Xj)
    mu = Xl.apply(a) - Xk.apply(b) + a * Xj.apply(b) - b * Xj.apply(a)
    rhs = (h(Xk, Xl) - b.lift_to_phase() * h(Xk, Xj) - a.lift_to_phase() * h(Xj, Xl)
           + mu.lift_to_phase() * lift(Xj))
    assert lhs == rhs


# -- Goh rank preservation -------------------------------------------------------------


def _matched_fiber_points(F, chart, count, rng):
    """Annihilator points over the expansion point 0 and their transforms."""
    n = F.n
    MT = [[chart[i][j] for i in range(n)] for j in range(n)]
    basis = F.annihilator_basis([Fraction(0)] * n)
    points = []
    while len(points) < count:
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in basis]
        p = [sum((c * vec[k] for c, vec in zip(coeffs, basis)), Fraction(0))
             for k in range(n)]
        if all(v == 0 for v in p):
            continue
        points.append((p, matvec(MT, p)))
    return points


def _conclusive(goh_out, point, r_in):
    """Some r_in-minor of the output Goh matrix survives at the point."""
    if r_in == 0:
        return True
    vals = goh_out.H.evaluate(point)
    from conftest import scalar_to_skew
    A = scalar_to_skew(vals)
    return skew_rank(A) >= r_in


def test_goh_rank_preserved_at_expansion_point():
    agreements, inconclusive = 0, 0
    for seed in range(6):
        rng = random.Random(1000 + seed)
        n = rng.choice([4, 5])
        m = rng.randint(2, n - 1)
        F = random_general_frame(rng, n, m, max_terms=2)
        N = normalize_frame(JetFrame.from_frame(F, 3))
        G_in = goh_matrix(F)
        G_out = goh_matrix(N.to_frame())
        x0 = [Fraction(0)] * n
        for p, pt in _matched_fiber_points(F, N.chart, 5, rng):
            d_in = kernel_dim_at(F, x0, p, G_in)
            point_out = x0 + pt
            if not _conclusive(G_out, point_out, m - d_in):
                inconclusive += 1
                continue
            d_out = kernel_dim_at(N.to_frame(), x0, pt, G_out)
            assert d_out == d_in
            agreements += 1
    assert agreements >= 24
    assert inconclusive <= agreements * 0.2
