import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_polynomial,
    random_rational_point,
    reference_add,
    reference_eval_exact,
    reference_poisson,
    reference_power,
    reference_product,
    reference_sum,
)
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
from singfol.abnormal import goh_matrix
from singfol.vectorfield import Frame, VectorField, divergence, lie_bracket, poisson_bracket

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
    # the exact path refuses a short point (zip used to drop x2 and value
    # x2 + 5 at [3] as 6) and a long one, such as a phase point
    f = parse_expression("x2 + 5", BASE2)
    for point in ([3], [3, 4, 5, 6]):
        with pytest.raises(ValueError, match="point of length"):
            f.eval_exact(point)
        with pytest.raises(ValueError, match="point of length"):
            VectorField([f, f]).evaluate(point)


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
    # unary minus binds below '^', so -x1^2 means -(x1^2) and -2^2 is -4
    assert parse_expression("-x1^2", s) == -(var(s, "x1") ** 2)
    assert parse_expression("-2^2", s) == Polynomial.constant(s, -4)
    assert parse_expression("(-x1)^2", s) == var(s, "x1") ** 2
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
    # ... and each multiplication of its square-and-multiply schedule by
    # its term pairs: ^139 has 9870 terms, but squares a 2145-term power,
    # and ^120 multiplies the 1653-term ^56 by that power; the largest step
    # of (x1+x2+x3+1)^30 is 680 x 969 = 658920 pairs
    assert math.comb(139 + 2, 2) == 9870 <= exactpoly.MAX_TERMS
    for text, pairs in (("(x1+x2+1)^139", 2145 * 2145), ("(x1+x2+1)^120", 1653 * 2145)):
        with pytest.raises(ParseError, match=f"{pairs} term pairs") as err:
            parse_expression(text, s)
        assert err.value.offset == 10
    assert math.comb(64 + 2, 2) == 2145 and math.comb(56 + 2, 2) == 1653
    assert 680 * 969 == 658920 <= exactpoly.MAX_PRODUCT_PAIRS
    # a product is bounded by its term pairs, checked before multiplying
    s4 = Space(4)
    assert len(parse_expression("(x1+x2+x3+1)^30*x4", s4).terms) == 5456
    with pytest.raises(ParseError, match="29767936 term pairs") as err:
        parse_expression("(x1+x2+x3+1)^30*(x1+x2+x3+x4)^30", s4)
    assert err.value.offset == 16
    # ... and a product or sum by its terms, checked after each '*', '+'
    # or '-': powers in disjoint variables are within the pair budget and
    # have as many terms as pairs
    with pytest.raises(ParseError, match="a product with 53361 terms") as err:
        parse_expression("(x1+x2+1)^20*(x3+x4+1)^20", s4)
    assert err.value.offset == 13
    assert 231 * 231 == 53361 <= exactpoly.MAX_PRODUCT_PAIRS
    row = "+".join(f"x1^{k}" for k in range(100))
    text = f"({row}) * ({row.replace('x1', 'x2')})"
    assert len(parse_expression(text, s4).terms) == exactpoly.MAX_TERMS
    with pytest.raises(ParseError, match="a sum with 10001 terms") as err:
        parse_expression(text + " - x3", s4)
    assert err.value.offset == len(text) + 2


def test_parse_nesting_bound():
    # MAX_NESTING levels of '(' and unary '-' parse; one more is refused at
    # the offset of the first '(' or '-' too many, before Python's
    # recursion limit is near
    s = Space(2)
    k = exactpoly.MAX_NESTING
    assert parse_expression("(" * k + "x1" + ")" * k, s) == var(s, "x1")
    assert parse_expression("-(" * (k // 2) + "x1" + ")" * (k // 2), s) == var(s, "x1")
    assert parse_expression("(x1)*" * 3 * k + "1", s) == var(s, "x1") ** (3 * k)
    for text in ("(" * (k + 1) + "x1" + ")" * (k + 1), "-" * (k + 1) + "x1",
                 "x2 + " + "-(" * k + "x1" + ")" * k, "-" * 5000 + "x1"):
        with pytest.raises(ParseError, match="nested deeper than") as err:
            parse_expression(text, s)
        assert text[err.value.offset] in "(-", text


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


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), _spaces)
def test_shared_evaluator_matches_reference_loop(seed, space):
    # one evaluator values many polynomials through one power table, on ints
    # over the common denominators of the point and of each polynomial; its
    # ratio, and the Fraction of eval_exact, equal the value of the fresh
    # term-by-term loop, and the unreduced numerator is 0 exactly when the
    # value is
    rng = random.Random(seed)
    coords = [0, 0, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4),
              Fraction(-3, 64), Fraction(10, 9)]
    point = [rng.choice(coords) for _ in range(space.nvars)]
    pair = exactpoly._exact_pairs(point)
    polys = [Polynomial.zero(space), Polynomial.constant(space, Fraction(-7, 6)),
             Polynomial.constant(space, 3)]
    polys += [random_polynomial(rng, space, max_terms=6, max_degree=5,
                                denominators=(1, 2, 3, 5, 64)) for _ in range(8)]
    # a nonzero polynomial that vanishes at the point (no random term has
    # degree 7, so x1^7 stays)
    h = polys[-1] + Polynomial.monomial(space, (7,) + (0,) * (space.nvars - 1))
    polys.append(h - h.eval_exact(point))
    for f in polys:
        want = reference_eval_exact(f, point)
        got = f.eval_exact(point)
        assert type(got) is Fraction and got == want
        num, den = pair(f)
        assert den > 0 and Fraction(num, den) == want
        assert (num == 0) == (want == 0)
    assert pair(polys[-1])[0] == 0 and polys[-1]


def test_integer_form_is_cached_out_of_band():
    # valuing a polynomial stores its integer form in a slot that equality,
    # hashing and printing never read, and the polynomial stays immutable
    s = Space(2, True)
    text = "x1^3*p2^2 - 2/3*x2^2 + 1/5*x1 + p1 - 7"
    f, g = parse_expression(text, s), parse_expression(text, s)
    before = (hash(f), str(f), repr(f))
    assert exactpoly._exact_pairs([Fraction(1, 2), -1, 0, Fraction(3, 7)])(f)[0] != 0
    assert hasattr(f, "_exact") and not hasattr(g, "_exact")
    assert f == g and hash(f) == hash(g) and (hash(f), str(f), repr(f)) == before
    assert f.terms == g.terms and len({f, g}) == 1
    for name in ("_exact", "terms", "space", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
    # eval_exact on its own values a polynomial without keeping a form
    assert g.eval_exact([1, 2, 3, 4]) == f.eval_exact([1, 2, 3, 4])
    assert not hasattr(g, "_exact")


def test_evaluators_keep_their_own_power_tables():
    s = Space(2, True)
    f = parse_expression("x1^3*p2^2 - 2*x2^2 + 1/3*x1^3 + p1", s)
    g = parse_expression("x1^3 - x2^2*p2^2", s)
    a, b = [Fraction(1, 2), 2, -1, 3], [3, Fraction(-2, 5), 0, -1]
    va, vb = exactpoly._exact_pairs(a), exactpoly._exact_pairs(b)
    for h in (f, g, f, g):
        assert Fraction(*va(h)) == reference_eval_exact(h, a)
        assert Fraction(*vb(h)) == reference_eval_exact(h, b)
    assert Fraction(*va(f)) != Fraction(*vb(f))


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
# The product and sum kernels must equal the plain loops in conftest.


_RATIONAL = (1, 2, 3, 7)


def _pair(seed: int, sizes: tuple[int, int], space: Space, max_degree: int = 3):
    rng = random.Random(seed)
    return [random_polynomial(rng, space, k, max_degree, _RATIONAL) for k in sizes]


def test_product_matches_reference_small_and_large():
    for seed in range(40):
        for sizes in [(1, 1), (3, 3), (12, 12), (1, 30)]:
            f, g = _pair(seed, sizes, Space(3))
            for a, b in [(f, g), (f + g, f - g)]:
                assert a * b == reference_product(a, b)


def test_constant_operand_scales_the_other(monkeypatch):
    # a product with a constant polynomial, on either side, is the scalar
    # product, terms in the same order, and runs no loop over term pairs
    constant_operands = []
    multiply = exactpoly._Sum._multiply

    def counted(acc, an, bn, k, order):
        if exactpoly._is_constant(an) or exactpoly._is_constant(bn):
            constant_operands.append((an, bn))
        return multiply(acc, an, bn, k, order)

    monkeypatch.setattr(exactpoly._Sum, "_multiply", counted)
    rng = random.Random(8)
    space = Space(3)
    for _ in range(30):
        f = random_polynomial(rng, space, rng.choice((1, 4, 12)), 3, _RATIONAL)
        for value in (1, -1, Fraction(-7, 3), Fraction(5, 2), 0):
            want = f * value
            c = Polynomial.constant(space, value)
            for got in (f * c, c * f):
                assert got == want and list(got.terms) == list(want.terms)
    assert constant_operands == []
    # goh_matrix on a dense-4 frame like the dense-kernel workload's multiplies
    # by the constant component 1 of its fields through the scalar branch
    s4 = Space(4)
    F = Frame.corank1(4, [parse_expression(t, s4) for t in ("x2", "x4", "(2*x1 - x2 + x3 - 1)^16")])
    goh_matrix(F)
    assert constant_operands == []


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([1, 2, 3, 8, 16]),
       st.sampled_from([1, 2, 3, 8, 16]), _spaces)
def test_product_matches_reference_loop(seed, na, nb, space):
    f, g = _pair(seed, (na, nb), space)
    # (f+g)(f-g) and (f*g)*g force cancelling and re-inserted keys
    for a, b in [(f, g), (g, f), (f + g, f - g), (f * g, g)]:
        assert a * b == reference_product(a, b)
    for k in (2, 3, 5):
        assert f ** k == reference_power(f, k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), _spaces)
def test_in_place_sums_match_reference(seed, space):
    rng = random.Random(seed)
    signed = [(rng.choice((1, -1)), random_polynomial(rng, space, rng.choice((1, 3, 8)), 2, _RATIONAL))
              for _ in range(6)]
    # cancel the first terms again, then bring one of them back
    signed += [(-sign, term) for sign, term in signed[:2]] + signed[:1]
    want = reference_sum(space, signed)
    acc = exactpoly._Sum()
    for sign, term in signed:
        acc.add(term, sign)
    # a cancelled key is removed in place
    assert set(acc.num) == set(want.terms) and 0 not in acc.num.values()
    assert acc.polynomial(space) == want
    got = Polynomial.zero(space)
    for sign, term in signed:
        got = got + term if sign > 0 else got - term
    assert got == want


def _assert_canonical(f: Polynomial):
    """Int numerators, nonzero, over a denominator > 0 that shares no
    factor with all of them (1 for zero); the constructor's Fraction path
    gives the same polynomial, with the same hash."""
    num, den = f._num, f._den
    assert type(den) is int and den > 0 and math.gcd(den, *num.values()) == 1
    assert all(type(c) is int and c for c in num.values())
    assert all(type(e) is tuple and len(e) == f.space.nvars for e in num)
    twin = Polynomial(f.space, dict(f.terms))
    assert twin == f and hash(twin) == hash(f)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), _spaces)
def test_every_operation_keeps_the_canonical_form(seed, space):
    rng = random.Random(seed)
    f, g = (random_polynomial(rng, space, rng.choice((1, 3, 8)), 3, _RATIONAL) for _ in range(2))
    c = Fraction(rng.randint(-6, 6), rng.choice(_RATIONAL))
    constant = Polynomial(space, {(0,) * space.nvars: c})
    pos = rng.randrange(space.nvars)
    order = rng.randint(0, 3)
    reps = {p: random_polynomial(rng, space, 2, 1, _RATIONAL)
            for p in rng.sample(range(space.nvars), 2)}
    # substitution term by term on the reference product
    substituted = []
    for exps, coeff in f.terms.items():
        kept = [0 if p in reps else e for p, e in enumerate(exps)]
        term = Polynomial(space, {tuple(kept): coeff})
        for p, rep in reps.items():
            for _ in range(exps[p]):
                term = reference_product(term, rep)
        substituted.append((1, term))
    cases = [
        (f + g, reference_sum(space, [(1, f), (1, g)])),
        (f - g, reference_sum(space, [(1, f), (-1, g)])),
        (f - f, Polynomial.zero(space)),
        (f * g, reference_product(f, g)),
        (f * c, reference_product(f, constant)),
        (c * f, reference_product(constant, f)),
        (f * constant, reference_product(f, constant)),
        (f ** 3, reference_product(reference_product(f, f), f)),
        (f.partial(pos), Polynomial(space, {e[:pos] + (e[pos] - 1,) + e[pos + 1:]: v * e[pos]
                                            for e, v in f.terms.items() if e[pos]})),
        (f.substitute(reps), reference_sum(space, substituted)),
        (f.truncate_total(order), Polynomial(space, {e: v for e, v in f.terms.items()
                                                     if sum(e) <= order})),
    ]
    if not space.fiber:
        pad = (0,) * space.n
        product = reference_product(f, g)
        cases += [
            (f.lift_to_phase(), Polynomial(space.phase, {e + pad: v for e, v in f.terms.items()})),
            ((JetSeries(f, order) * JetSeries(g, order)).body,
             Polynomial(space, {e: v for e, v in product.terms.items() if sum(e) <= order})),
        ]
    for got, want in cases:
        _assert_canonical(got)
        assert got == want


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
    assert exactpoly._sum_products(space, pairs) == want


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
    assert f.substitute(reps) == want


def _poisson_matches_reference(h: Polynomial, g: Polynomial) -> bool:
    return poisson_bracket(h, g) == reference_poisson(h, g)


def _lie_and_divergence_match_reference(X: VectorField, Y: VectorField) -> bool:
    base, n = X.space, len(X.components)
    bracket = lie_bracket(X, Y)
    for k in range(n):
        signed = []
        for j in range(n):
            signed.append((1, reference_product(X.components[j], Y.components[k].partial(j))))
            signed.append((-1, reference_product(Y.components[j], X.components[k].partial(j))))
        if bracket.components[k] != reference_sum(base, signed):
            return False
    want = reference_sum(base, [(1, c.partial(pos)) for pos, c in enumerate(X.components)])
    return divergence(X) == want


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([Space(1, True), Space(2, True), Space(3, True)]))
def test_poisson_bracket_matches_reference_with_zero_operands(seed, space):
    # {h, g} is the Hamiltonian field of h applied to g; zero operands and
    # constants (all of whose partials vanish) included
    rng = random.Random(seed)

    def operand():
        kind = rng.random()
        if kind < 0.2:
            return Polynomial.zero(space)
        if kind < 0.3:
            return Polynomial.constant(space, Fraction(rng.randint(-3, 3), rng.choice(_RATIONAL)))
        return random_polynomial(rng, space, rng.choice((1, 3, 8)), 3, _RATIONAL)

    for _ in range(3):
        h, g = operand(), operand()
        assert _poisson_matches_reference(h, g)
        assert _poisson_matches_reference(h, h)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from(["base", "phase"]))
def test_divergence_matches_reference_sum_of_partials(seed, kind):
    # zero components, constant ones, and components whose own partial
    # vanishes although another does not
    rng = random.Random(seed)
    base = Space(rng.randint(1, 4))
    space = base.phase if kind == "phase" else base

    def component():
        if rng.random() < 0.3:
            return Polynomial.zero(space)
        positions = rng.sample(range(space.nvars), rng.randint(0, space.nvars))
        return _polynomial_in(rng, space, positions, 4)

    V = VectorField([component() for _ in range(space.nvars)])
    want = reference_sum(space, [(1, c.partial(pos)) for pos, c in enumerate(V.components)])
    assert divergence(V) == want


def test_poisson_bracket_adds_then_subtracts():
    # a term of the k=2 step cancels on "+ X" and returns on "- Y"; the
    # bracket equals the coordinate formula, and so does summing (X - Y)
    space = Space(2, True)
    h = parse_expression("-3*x1*x2*p2 - x1*p1 - 4*p2", space)
    g = parse_expression("-4*x1^2*p1 + 3*x1*x2^2 - 4*x1*x2*p2 - 4*x2*p2", space)
    signed = []
    for k in (1, 2):
        xk, pk = space.x(k), space.p(k)
        signed.append((1, reference_product(h.partial(pk), g.partial(xk))))
        signed.append((-1, reference_product(h.partial(xk), g.partial(pk))))
    want = reference_sum(space, signed)
    assert poisson_bracket(h, g) == want
    merged = reference_sum(space, [(1, reference_add(x, y, -1))
                                   for (_, x), (_, y) in zip(signed[::2], signed[1::2])])
    assert merged == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 5), st.sampled_from([2, 4, 12]))
def test_truncated_jet_product_matches_truncated_full_product(seed, order, size):
    space = Space(2)
    f, g = _pair(seed, (size, size), space, max_degree=4)
    a, b = JetSeries(f, order), JetSeries(g, order)
    want = reference_product(a.body, b.body).truncate_total(order)
    assert (a * b).body == want
    assert (a * b).body == (a.body * b.body).truncate_total(order)
