import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polynomial, random_rational_point
from singfol import exactpoly
from singfol.exactpoly import (
    JetSeries,
    NonUnitError,
    ParseError,
    Polynomial,
    Space,
    SpaceMismatchError,
    parse_expression,
)
from singfol.vectorfield import VectorField, divergence, lie_bracket, poisson_bracket

PHASE3 = Space(3, True)
BASE2 = Space(2)


def var(space, name):
    kind, k = name[0], int(name[1:])
    pos = space.x(k) if kind == "x" else space.p(k)
    return Polynomial.variable(space, pos)


# -- arithmetic -------------------------------------------------------------


def test_difference_of_squares():
    x1, p3 = var(PHASE3, "x1"), var(PHASE3, "p3")
    assert (x1 + p3) * (x1 - p3) == x1 ** 2 - p3 ** 2


def test_zero_is_absorbing():
    f = var(PHASE3, "x1") + 2 * var(PHASE3, "p2")
    assert (f * Polynomial.zero(PHASE3)).is_zero()


def test_binomial_cube():
    # oracle: binomial coefficients of (x1 + x2)^3
    x1, x2 = var(BASE2, "x1"), var(BASE2, "x2")
    cube = (x1 + x2) ** 3
    expected = {}
    for k in range(4):
        expected[(3 - k, k)] = Fraction(math.comb(3, k))
    assert cube == Polynomial(BASE2, expected)
    assert len(cube.terms) == 4


def test_space_mismatch_raises():
    with pytest.raises(SpaceMismatchError):
        var(BASE2, "x1") + var(Space(3), "x1")


def test_public_constructor_validates_terms():
    with pytest.raises(SpaceMismatchError):
        Polynomial(BASE2, {(1,): Fraction(1)})
    with pytest.raises(TypeError):
        Polynomial(BASE2, {(1, 0): 0.5})
    assert Polynomial(BASE2, {(1, 0): 0, (0, 1): 2}).terms == {(0, 1): Fraction(2)}


# -- derivatives ------------------------------------------------------------


def test_partial_derivatives():
    s = Space(4, True)
    f = var(s, "x1") ** 2 * var(s, "p4")
    assert f.partial(s.x(1)) == 2 * var(s, "x1") * var(s, "p4")
    assert f.partial(s.p(4)) == var(s, "x1") ** 2
    assert var(s, "x1").partial(s.x(2)).is_zero()


def test_partial_out_of_range():
    with pytest.raises(IndexError):
        var(BASE2, "x1").partial(5)


# -- evaluation -------------------------------------------------------------


def test_evaluate_examples():
    s = PHASE3
    f = 2 * var(s, "x1") * var(s, "p3")
    assert f.evaluate([1, 0, 0, 0, 0, 5]) == 10
    assert Polynomial.constant(s, 1).evaluate([7, 1, 2, 3, 4, 5]) == 1
    g = var(BASE2, "x1") ** 2 + var(BASE2, "x2") ** 2
    assert g.evaluate([3, 4]) == 25
    assert g.evaluate([3.0, 4.0]) == pytest.approx(25.0)


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        var(BASE2, "x1").evaluate([1])


# -- fiber grading ----------------------------------------------------------


def test_p_homogeneous_degree():
    s = PHASE3
    assert (var(s, "p3") * var(s, "x1")).p_homogeneous_degree() == 1
    mixed = var(s, "p1") * var(s, "p2") + var(s, "x1") * var(s, "p3")
    assert mixed.p_homogeneous_degree() is None
    zero = Polynomial.zero(s)
    assert zero.p_homogeneous_degree() is None
    assert zero.is_zero()


# -- jets -------------------------------------------------------------------


def test_series_inversion_geometric():
    s = Space(1)
    u = JetSeries(Polynomial.constant(s, 1) + Polynomial.variable(s, 0), 3)
    x = Polynomial.variable(s, 0)
    # geometric series oracle: 1 - x + x^2 - x^3
    assert u.invert_unit().body == 1 - x + x ** 2 - x ** 3
    assert (u.invert_unit() * u).body == Polynomial.constant(s, 1)


def test_series_inversion_constant_and_nonunit():
    s = Space(2)
    two = JetSeries.constant(s, 2, 4)
    assert two.invert_unit().body == Polynomial.constant(s, Fraction(1, 2))
    with pytest.raises(NonUnitError):
        JetSeries(Polynomial.variable(s, 0), 4).invert_unit()


def test_jet_truncation_on_multiply():
    s = Space(1)
    x = Polynomial.variable(s, 0)
    a = JetSeries(1 + x, 2)
    b = JetSeries(1 + x + x ** 2, 2)
    assert (a * b).body == 1 + 2 * x + 2 * x ** 2  # x^3 dropped by the order cut


# -- parser -----------------------------------------------------------------


def test_parse_examples():
    s = Space(4, True)
    f = parse_expression("x1^2 - 3/2*p4", s)
    assert f == var(s, "x1") ** 2 - Fraction(3, 2) * var(s, "p4")
    assert parse_expression("0", s).is_zero()
    g = parse_expression("x1*(x2+x3)", s)
    assert g == var(s, "x1") * var(s, "x2") + var(s, "x1") * var(s, "x3")


def test_parse_unary_minus_and_rationals():
    s = Space(2)
    assert parse_expression("-3/2", s) == Polynomial.constant(s, Fraction(-3, 2))
    # unary minus binds to the atom, so -x1^2 means (-x1)^2
    assert parse_expression("-x1^2", s) == var(s, "x1") ** 2
    assert parse_expression("-(x1^2)", s) == -(var(s, "x1") ** 2)
    assert parse_expression("2 - - 1", s) == Polynomial.constant(s, 3)


def test_leading_negative_power_roundtrip():
    s = Space(2)
    f = -(var(s, "x1") ** 2) + var(s, "x2")
    assert parse_expression(str(f), s) == f


def test_parse_errors_carry_offsets():
    s = Space(2)
    with pytest.raises(ParseError) as err:
        parse_expression("x1 + ", s)
    assert err.value.offset == 5
    with pytest.raises(ParseError) as err:
        parse_expression("x7", s)
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_expression("p1", s)  # no fiber in this space
    assert err.value.offset == 0
    with pytest.raises(ParseError):
        parse_expression("x1^99999", s)
    with pytest.raises(ParseError) as err:
        parse_expression("x1 x2", s)  # implicit multiplication rejected
    assert err.value.offset == 3


def test_parse_power_term_budget():
    # (t terms)^k has at most C(k+t-1, t-1) terms; the bound is checked
    # before expanding, so the rejection comes at once
    s = Space(3)
    assert len(parse_expression("(x1+x2+x3+1)^16", s).terms) == 969
    assert len(parse_expression("(x1+x2+x3+1)^30", s).terms) == 5456
    assert len(parse_expression("(2*x1)^4096", s).terms) == 1
    assert parse_expression("0^4096", s).is_zero()
    with pytest.raises(ParseError, match="39711 terms") as err:
        parse_expression("(x1+x2+x3+1)^60", s)
    assert err.value.offset == 13
    assert math.comb(60 + 3, 3) == 39711 > exactpoly.MAX_TERMS


def test_parse_zero_denominator():
    with pytest.raises(ParseError):
        parse_expression("1/0", BASE2)


# -- randomized ring properties ----------------------------------------------

_spaces = st.sampled_from([Space(2), Space(2, True), Space(3, True)])


@st.composite
def poly_and_space(draw, count=1):
    space = draw(_spaces)
    seed = draw(st.integers(0, 10 ** 6))
    rng = random.Random(seed)
    polys = [random_polynomial(rng, space) for _ in range(count)]
    return space, polys


@settings(max_examples=60, deadline=None)
@given(poly_and_space(count=3))
def test_ring_axioms(data):
    _, (f, g, h) = data
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f * g == g * f


@settings(max_examples=60, deadline=None)
@given(poly_and_space(count=2), st.integers(0, 5))
def test_leibniz_rule(data, pos_seed):
    space, (f, g) = data
    pos = pos_seed % space.nvars
    product = (f * g).partial(pos)
    assert product == f * g.partial(pos) + g * f.partial(pos)


@settings(max_examples=60, deadline=None)
@given(poly_and_space(count=2), st.integers(0, 10 ** 6))
def test_evaluation_is_ring_homomorphism(data, seed):
    space, (f, g) = data
    point = random_rational_point(random.Random(seed), space.nvars)
    assert (f * g).eval_exact(point) == f.eval_exact(point) * g.eval_exact(point)
    assert (f + g).eval_exact(point) == f.eval_exact(point) + g.eval_exact(point)


@settings(max_examples=60, deadline=None)
@given(poly_and_space(count=1))
def test_print_parse_roundtrip(data):
    space, (f,) = data
    text = str(f)
    assert parse_expression(text, space) == f
    assert str(parse_expression(text, space)) == text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 4))
def test_series_inverse_property(seed, order):
    rng = random.Random(seed)
    space = Space(2)
    body = random_polynomial(rng, space)
    if body.constant_term() == 0:
        body = body + 1
    u = JetSeries(body, order)
    assert (u.invert_unit() * u) == JetSeries.constant(space, 1, order)


# -- kernels against the plain reference loops -------------------------------
#
# The product and sum kernels must fill each term dictionary in exactly the
# order of the plain loops below (eval_float sums in that order), so these
# tests compare list(terms.items()), not only the dictionaries.


def reference_product(f: Polynomial, g: Polynomial) -> Polynomial:
    """The plain Fraction double loop."""
    out: dict = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            acc = out.get(key, 0) + ca * cb
            if acc:
                out[key] = acc
            else:
                del out[key]
    return Polynomial(f.space, out)


def reference_power(f: Polynomial, k: int) -> Polynomial:
    """Square-and-multiply, as in Polynomial.__pow__, on the reference loop."""
    result, base = Polynomial.constant(f.space, 1), f
    while k:
        if k & 1:
            result = reference_product(result, base)
        base = reference_product(base, base) if k > 1 else base
        k >>= 1
    return result


def reference_add(f: Polynomial, g: Polynomial, sign: int = 1) -> Polynomial:
    """A fresh copy of f with the terms of sign*g added one by one."""
    out = dict(f.terms)
    for exps, coeff in g.terms.items():
        acc = out.get(exps, 0) + sign * coeff
        if acc:
            out[exps] = acc
        else:
            out.pop(exps, None)
    return Polynomial(f.space, out)


def reference_sum(space: Space, signed_terms) -> Polynomial:
    """acc = acc + term (or - term), copying the accumulator at every step."""
    acc = Polynomial.zero(space)
    for sign, term in signed_terms:
        acc = reference_add(acc, term, sign)
    return acc


def same_order(got: Polynomial, want: Polynomial) -> bool:
    return list(got.terms.items()) == list(want.terms.items())


_RATIONAL = (1, 2, 3, 7)


def _pair(seed: int, sizes: tuple[int, int], space: Space, max_degree: int = 3):
    rng = random.Random(seed)
    return [random_polynomial(rng, space, k, max_degree, _RATIONAL) for k in sizes]


def test_product_matches_reference_small_and_large():
    for seed in range(40):
        for sizes in [(1, 1), (3, 3), (12, 12), (1, 30)]:
            f, g = _pair(seed, sizes, Space(3))
            for a, b in [(f, g), (f + g, f - g)]:
                assert same_order(a * b, reference_product(a, b))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 3, 8, 16]),
       st.sampled_from([1, 2, 3, 8, 16]), _spaces)
def test_product_matches_reference_loop(seed, na, nb, space):
    f, g = _pair(seed, (na, nb), space)
    # (f+g)(f-g) and (f*g)*g force cancelling and re-inserted keys
    for a, b in [(f, g), (g, f), (f + g, f - g), (f * g, g)]:
        assert same_order(a * b, reference_product(a, b))
    for k in (2, 3, 5):
        assert same_order(f ** k, reference_power(f, k))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), _spaces)
def test_in_place_sums_match_reference(seed, space):
    rng = random.Random(seed)
    signed = [(rng.choice((1, -1)), random_polynomial(rng, space, rng.choice((1, 3, 8)), 2, _RATIONAL))
              for _ in range(6)]
    # cancel the first terms again, then bring one of them back
    signed += [(-sign, term) for sign, term in signed[:2]] + signed[:1]
    want = reference_sum(space, signed)
    acc: dict = {}
    for sign, term in signed:
        exactpoly._add_terms(acc, term.terms, sign)
    assert list(acc.items()) == list(want.terms.items())
    got = Polynomial.zero(space)
    for sign, term in signed:
        got = got + term if sign > 0 else got - term
    assert same_order(got, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), _spaces)
def test_sum_of_products_matches_reference(seed, space):
    # the operands callers pass: polynomials, empty polynomials and
    # Fractions (zero ones included), in either slot
    rng = random.Random(seed)

    def polynomial():
        if rng.random() < 0.3:
            return Polynomial.zero(space)
        return random_polynomial(rng, space, rng.choice((1, 3, 8)), 2, _RATIONAL)

    def operand():
        if rng.random() < 0.4:
            return Fraction(rng.randint(-2, 2), rng.choice(_RATIONAL))
        return polynomial()

    pairs = []
    for _ in range(8):
        pair = (operand(), polynomial())
        pairs.append(pair if rng.random() < 0.5 else pair[::-1])
    # cancel the first products again, then bring one of them back
    pairs += [(a, -b) for a, b in pairs[:2]] + pairs[:1]

    def as_poly(v):
        return v if isinstance(v, Polynomial) else Polynomial.constant(space, v)

    want = reference_sum(space, [(1, reference_product(as_poly(a), as_poly(b))) for a, b in pairs])
    assert same_order(exactpoly._sum_products(space, pairs), want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 4, 12]))
def test_substitute_matches_reference(seed, size):
    space = Space(3)
    rng = random.Random(seed)
    f = random_polynomial(rng, space, size, 4, _RATIONAL)
    reps = {pos: random_polynomial(rng, space, 3, 2, _RATIONAL)
            for pos in rng.sample(range(3), rng.randint(1, 2))}
    want = Polynomial.zero(space)
    for exps, coeff in f.terms.items():
        kept = list(exps)
        for pos in reps:
            kept[pos] = 0
        term = Polynomial.monomial(space, kept, coeff)
        for pos, rep in reps.items():
            for _ in range(exps[pos]):
                term = reference_product(term, rep)
        want = reference_add(want, term)
    assert same_order(f.substitute(reps), want)


def _poisson_matches_reference(h: Polynomial, g: Polynomial) -> bool:
    space = h.space
    signed = []
    for k in range(1, space.n + 1):
        xk, pk = space.x(k), space.p(k)
        signed.append((1, reference_product(h.partial(pk), g.partial(xk))))
        signed.append((-1, reference_product(h.partial(xk), g.partial(pk))))
    return same_order(poisson_bracket(h, g), reference_sum(space, signed))


def _lie_and_divergence_match_reference(X: VectorField, Y: VectorField) -> bool:
    base, n = X.space, len(X.components)
    bracket = lie_bracket(X, Y)
    for k in range(n):
        signed = []
        for j in range(n):
            signed.append((1, reference_product(X.components[j], Y.components[k].partial(j))))
            signed.append((-1, reference_product(Y.components[j], X.components[k].partial(j))))
        if not same_order(bracket.components[k], reference_sum(base, signed)):
            return False
    want = reference_sum(base, [(1, c.partial(pos)) for pos, c in enumerate(X.components)])
    return same_order(divergence(X), want)


def _polynomial_in(rng: random.Random, space: Space, positions, max_terms: int) -> Polynomial:
    """A random polynomial in the variables at ``positions`` only (zero
    when there are none), so most of its partials are empty."""
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms) if positions else 0):
        exps = [0] * space.nvars
        for _ in range(rng.randint(0, 3)):
            exps[rng.choice(positions)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + Fraction(rng.randint(-4, 4),
                                                                  rng.choice(_RATIONAL))
    return Polynomial(space, terms)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_brackets_and_divergence_match_reference_sums(seed):
    space = Space(2, True)
    rng = random.Random(seed)
    h, g = (random_polynomial(rng, space, 6, 3, _RATIONAL) for _ in range(2))
    assert _poisson_matches_reference(h, g)
    base = Space(3)
    X, Y = (VectorField([random_polynomial(rng, base, 4, 2, _RATIONAL) for _ in range(3)])
            for _ in range(2))
    assert _lie_and_divergence_match_reference(X, Y)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_brackets_match_reference_sums_on_zero_heavy_inputs(seed):
    # the brackets skip zero factors and empty partials; the skipped
    # products are empty, so the sums must still match term for term
    rng = random.Random(seed)
    space = Space(3, True)
    for _ in range(3):
        h, g = (_polynomial_in(rng, space, rng.sample(range(space.nvars), rng.randint(0, 3)), 5)
                for _ in range(2))
        assert _poisson_matches_reference(h, g)
    base = Space(4)
    for _ in range(3):
        X, Y = (VectorField([_polynomial_in(rng, base, rng.sample(range(4), rng.randint(1, 2)), 3)
                             if rng.random() < 0.5 else Polynomial.zero(base) for _ in range(4)])
                for _ in range(2))
        assert _lie_and_divergence_match_reference(X, Y)


def test_poisson_bracket_adds_then_subtracts():
    # a term of the k=2 step cancels on "+ X" and returns on "- Y", so it
    # moves to the end; summing (X - Y) instead would leave it in place
    space = Space(2, True)
    h = parse_expression("-3*x1*x2*p2 - x1*p1 - 4*p2", space)
    g = parse_expression("-4*x1^2*p1 + 3*x1*x2^2 - 4*x1*x2*p2 - 4*x2*p2", space)
    signed = []
    for k in (1, 2):
        xk, pk = space.x(k), space.p(k)
        signed.append((1, reference_product(h.partial(pk), g.partial(xk))))
        signed.append((-1, reference_product(h.partial(xk), g.partial(pk))))
    want = reference_sum(space, signed)
    assert same_order(poisson_bracket(h, g), want)
    merged = reference_sum(space, [(1, reference_add(x, y, -1))
                                   for (_, x), (_, y) in zip(signed[::2], signed[1::2])])
    assert merged == want and not same_order(merged, want)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 5), st.sampled_from([2, 4, 12]))
def test_truncated_jet_product_matches_truncated_full_product(seed, order, size):
    space = Space(2)
    f, g = _pair(seed, (size, size), space, max_degree=4)
    a, b = JetSeries(f, order), JetSeries(g, order)
    want = reference_product(a.body, b.body).truncate_total(order)
    assert same_order((a * b).body, want)
    assert same_order((a * b).body, (a.body * b.body).truncate_total(order))
