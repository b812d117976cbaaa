import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polynomial, random_corank1_frame, reference_lie_bracket, scale_fiber
from singfol.exactpoly import Polynomial, Space, _sum_products, parse_expression
from singfol.vectorfield import (
    Frame,
    VectorField,
    divergence,
    hamiltonian_lift,
    hamiltonian_vector_field,
    lie_bracket,
    poisson_bracket,
)


def base_field(space, *exprs):
    return VectorField([parse_expression(e, space) for e in exprs])


def random_base_field(rng, space):
    return VectorField([random_polynomial(rng, space) for _ in range(space.n)])


# -- Lie bracket -------------------------------------------------------------


def test_bracket_constant_coefficient():
    s = Space(3)
    X = base_field(s, "1", "0", "0")
    Y = base_field(s, "0", "1", "x1")
    assert lie_bracket(X, Y) == base_field(s, "0", "0", "1")


def test_bracket_antisymmetry_on_self():
    s = Space(3)
    rng = random.Random(5)
    X = random_base_field(rng, s)
    assert lie_bracket(X, X).is_zero()


def test_bracket_kind_mismatch():
    s = Space(2)
    X = base_field(s, "1", "0")
    H = hamiltonian_vector_field(hamiltonian_lift(X))
    with pytest.raises(ValueError):
        lie_bracket(X, H)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["base", "phase"]))
def test_bracket_matches_the_dense_loop(seed, kind):
    # the bracket reads only the supports of X and Y; fields with zero
    # components, some constant, must give the dense n^2 loop's value
    rng = random.Random(seed)
    base = Space(rng.randint(1, 4))
    space = base.phase if kind == "phase" else base

    def field():
        return VectorField([random_polynomial(rng, space, 3, 2) if rng.random() < 0.5
                            else Polynomial.zero(space) for _ in range(space.nvars)])

    X, Y = field(), field()
    assert lie_bracket(X, Y) == reference_lie_bracket(X, Y)


def test_corank1_bracket_formula():
    # the last component of [X^i, X^j] for X^i = d_i + A_i d_n equals
    # d_i(A_j) - d_j(A_i) + A_i d_n(A_j) - A_j d_n(A_i)
    rng = random.Random(11)
    n = 4
    F = random_corank1_frame(rng, n, max_terms=3)
    A = F.normal_form
    last = n - 1
    for i in range(3):
        for j in range(3):
            bracket = lie_bracket(F.fields[i], F.fields[j])
            display = (A[j].partial(i) - A[i].partial(j)
                       + A[i] * A[j].partial(last) - A[j] * A[i].partial(last))
            assert bracket.components[last] == display
            for k in range(n - 1):
                assert bracket.components[k].is_zero()


def test_jacobi_identity_random():
    s = Space(3)
    for seed in range(4):
        rng = random.Random(seed)
        X, Y, Z = (random_base_field(rng, s) for _ in range(3))
        total = (lie_bracket(X, lie_bracket(Y, Z))
                 + lie_bracket(Y, lie_bracket(Z, X))
                 + lie_bracket(Z, lie_bracket(X, Y)))
        assert total.is_zero()


# -- Hamiltonian machinery ----------------------------------------------------


def test_hamiltonian_lift_examples():
    s = Space(3)
    assert str(hamiltonian_lift(base_field(s, "1", "0", "0"))) == "p1"
    lift = hamiltonian_lift(base_field(s, "0", "1", "x1"))
    phase = s.phase
    assert lift == parse_expression("p2 + x1*p3", phase)
    assert hamiltonian_lift(VectorField.zero(s)).is_zero()
    assert lift.p_homogeneous_degree() == 1


def _lift_by_products(X):
    """p . X as the sum of the products comp_k * p_k, the lift's definition."""
    phase = X.space.phase
    return _sum_products(phase, (
        (comp.lift_to_phase(), Polynomial.variable(phase, phase.p(k + 1)))
        for k, comp in enumerate(X.components)
    ))


def test_hamiltonian_lift_matches_the_products_term_for_term():
    # the lift writes p_k into the terms of component k directly; keys and
    # values must be those of the sum of products
    for seed in range(30):
        rng = random.Random(300 + seed)
        s = Space(rng.randint(1, 5))
        X = VectorField([random_polynomial(rng, s, 4, 3, (1, 2, 3, 7))
                         if rng.random() < 0.6 else Polynomial.zero(s) for _ in range(s.n)])
        lift = hamiltonian_lift(X)
        assert lift == _lift_by_products(X), seed
        assert lift.space == s.phase


def test_hamiltonian_vector_field_examples():
    phase = Space(3, True)
    h = parse_expression("p1", phase)
    assert hamiltonian_vector_field(h).components[0] == Polynomial.constant(phase, 1)
    # hand differentiation: h = p2 + x1 p3 has x-block (0,1,x1), p-block (-p3,0,0)
    h2 = parse_expression("p2 + x1*p3", phase)
    v = hamiltonian_vector_field(h2)
    expected = [parse_expression(e, phase) for e in ("0", "1", "x1", "-(p3)", "0", "0")]
    assert list(v.components) == expected
    assert hamiltonian_vector_field(Polynomial.constant(phase, 7)).is_zero()


def test_poisson_sign_convention():
    # the convention is pinned once: {p1, x1} = 1
    phase = Space(2, True)
    p1 = Polynomial.variable(phase, phase.p(1))
    x1 = Polynomial.variable(phase, phase.x(1))
    assert poisson_bracket(p1, x1) == Polynomial.constant(phase, 1)


def test_poisson_examples():
    phase = Space(3, True)
    h = parse_expression("p1", phase)
    g = parse_expression("p2 + x1*p3", phase)
    assert poisson_bracket(h, g) == parse_expression("p3", phase)
    assert poisson_bracket(g, g).is_zero()


def test_poisson_lie_compatibility():
    # {lift X, lift Y} = lift [X, Y] for random base fields
    s = Space(3)
    for seed in range(5):
        rng = random.Random(100 + seed)
        X, Y = random_base_field(rng, s), random_base_field(rng, s)
        lhs = poisson_bracket(hamiltonian_lift(X), hamiltonian_lift(Y))
        assert lhs == hamiltonian_lift(lie_bracket(X, Y))


def test_poisson_jacobi_fiber_linear():
    s = Space(3)
    for seed in range(4):
        rng = random.Random(200 + seed)
        h, g, k = (hamiltonian_lift(random_base_field(rng, s)) for _ in range(3))
        total = (poisson_bracket(h, poisson_bracket(g, k))
                 + poisson_bracket(g, poisson_bracket(k, h))
                 + poisson_bracket(k, poisson_bracket(h, g)))
        assert total.is_zero()


# -- divergence ----------------------------------------------------------------


def test_divergence_examples():
    s4 = Space(4)
    engel = base_field(s4, "1", "0", "1", "x2")
    assert divergence(engel).is_zero()
    s1 = Space(1)
    assert divergence(VectorField([Polynomial.variable(s1, 0)])) == Polynomial.constant(s1, 1)


def test_divergence_of_hamiltonian_fields():
    phase = Space(3, True)
    rng = random.Random(31)
    for _ in range(5):
        h = random_polynomial(rng, phase, max_terms=4, max_degree=3)
        assert divergence(hamiltonian_vector_field(h)).is_zero()


def test_dilation_equivariance_of_lifted_fields():
    # for fiber-linear h, p -> lam p leaves the x-block fixed and scales the
    # p-block by lam
    s = Space(3)
    rng = random.Random(77)
    X = random_base_field(rng, s)
    v = hamiltonian_vector_field(hamiltonian_lift(X))
    for lam in (Fraction(2), Fraction(3), Fraction(-1, 2)):
        scaled = [scale_fiber(c, lam) for c in v.components]
        assert scaled[: s.n] == list(v.components[: s.n])
        assert scaled[s.n:] == [lam * c for c in v.components[s.n:]]
    assert v.p_homogeneity() == (0, 1)


# -- Frame --------------------------------------------------------------------


def test_frame_requires_m_less_than_n():
    s = Space(2)
    with pytest.raises(ValueError):
        Frame((base_field(s, "1", "0"), base_field(s, "0", "1")))


def test_frame_rejects_fields_of_two_dimensions_and_phase_fields():
    # n and m are read from the fields, so they must share one base space
    s2, s3 = Space(2), Space(3)
    X = base_field(s3, "1", "0", "0")
    phase = hamiltonian_vector_field(hamiltonian_lift(base_field(s3, "0", "1", "0")))
    for fields in ((X, base_field(s2, "0", "1")), (base_field(s2, "0", "1"), X),
                   (X, phase), (phase,)):
        with pytest.raises(ValueError, match="base fields in dimension n|1 <= m < n"):
            Frame(fields)
    assert (Frame((X,)).n, Frame((X,)).m) == (3, 1)


def test_frame_rejects_dependent_fields():
    s = Space(3)
    with pytest.raises(ValueError):
        Frame((base_field(s, "1", "0", "0"), base_field(s, "2", "0", "0")))


def test_frame_normal_form_consistency():
    s = Space(3)
    A = [parse_expression("0", s), parse_expression("x1", s)]
    F = Frame.corank1(3, A)
    assert F.fields[1] == base_field(s, "0", "1", "x1")
    assert F.normal_form == tuple(A)
    # the normal form is read off those fields, however they were built
    other = (base_field(s, "1", "0", "0"), base_field(s, "0", "1", "x2"))
    assert Frame(other).normal_form == (A[0], parse_expression("x2", s))
    assert Frame(F.fields, name="heisenberg").normal_form == F.normal_form
    # fields off the pattern X^i = d_i + A_i d_n have none, nor an omega
    off = [
        (base_field(s, "1", "x1", "0"), base_field(s, "0", "1", "x1")),
        (base_field(s, "0", "1", "x1"), base_field(s, "1", "0", "0")),
        (base_field(s, "2", "0", "0"), base_field(s, "0", "1", "x1")),
        (base_field(s, "1", "0", "0"),),
    ]
    for fields in off:
        assert Frame(fields).normal_form is None and Frame(fields).omega is None
    # a normal form is no argument: the name is keyword-only, so a stale
    # positional normal form cannot silently become the name
    with pytest.raises(TypeError):
        Frame(other, ("x1",))


def test_annihilator_basis():
    rng = random.Random(13)
    F = random_corank1_frame(rng, 4)
    x = [Fraction(1, 2), Fraction(-1, 4), Fraction(0), Fraction(1)]
    basis = F.annihilator_basis(x)
    assert len(basis) == 1
    p = basis[0]
    for X in F.fields:
        assert sum(pk * vk for pk, vk in zip(p, X.evaluate(x))) == 0


def test_bracket_generation_depth_diagnostic():
    s = Space(3)
    heisenberg = Frame((base_field(s, "1", "0", "0"), base_field(s, "0", "1", "x1")))
    assert heisenberg.bracket_generation_depth([Fraction(0)] * 3) == 2
    commuting = Frame((base_field(s, "1", "0", "0"), base_field(s, "0", "1", "0")))
    assert commuting.bracket_generation_depth([Fraction(0)] * 3, max_depth=3) is None
