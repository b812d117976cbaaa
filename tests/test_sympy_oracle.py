"""Differential tests of the polynomial calculus against sympy.

sympy is an independent implementation of the same algebra, used here only
as a test oracle: the module is skipped when sympy is not installed, and
singfol itself never imports it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_polynomial, random_skew
from singfol.exactpoly import Polynomial, Space
from singfol.pfaffian import minor_determinant, pfaffian_by_recursion
from singfol.vectorfield import VectorField, divergence, lie_bracket, poisson_bracket

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

DENOMINATORS = (1, 2, 3, 7)


def symbols(space: Space) -> list:
    return [sympy.Symbol(space.var_name(pos)) for pos in range(space.nvars)]


def to_sympy(f: Polynomial, syms: list):
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*[s ** e for s, e in zip(syms, exps)])
        for exps, c in f.terms.items()
    ])


def assert_equal(f: Polynomial, expr, syms: list):
    want = sympy.Poly(sympy.expand(expr), *syms).as_dict()
    got = {exps: sympy.Rational(c.numerator, c.denominator) for exps, c in f.terms.items()}
    assert got == want


def polys(seed: int, space: Space, count: int, max_terms: int = 4, max_degree: int = 3):
    rng = random.Random(seed)
    return [random_polynomial(rng, space, max_terms, max_degree, DENOMINATORS)
            for _ in range(count)]


_spaces = st.sampled_from([Space(2), Space(3), Space(2, True)])
_seeds = st.integers(0, 10 ** 6)


@settings(max_examples=30, deadline=None)
@given(_seeds, _spaces, st.sampled_from([2, 6, 12]))
def test_product_and_power(seed, space, size):
    syms = symbols(space)
    f, g = polys(seed, space, 2, max_terms=size)
    F, G = to_sympy(f, syms), to_sympy(g, syms)
    assert_equal(f * g, F * G, syms)
    assert_equal((f + g) * (f - g), (F + G) * (F - G), syms)
    for k in range(4):
        assert_equal(f ** k, F ** k, syms)


@settings(max_examples=30, deadline=None)
@given(_seeds, _spaces)
def test_substitute(seed, space):
    syms = symbols(space)
    rng = random.Random(seed)
    f, *reps = polys(seed, space, 3)
    positions = rng.sample(range(space.nvars), 2)
    replacements = dict(zip(positions, reps))
    want = to_sympy(f, syms).subs(
        {syms[pos]: to_sympy(r, syms) for pos, r in replacements.items()}, simultaneous=True)
    assert_equal(f.substitute(replacements), want, syms)


@settings(max_examples=30, deadline=None)
@given(_seeds, _spaces)
def test_partial(seed, space):
    syms = symbols(space)
    (f,) = polys(seed, space, 1, max_terms=6)
    for pos in range(space.nvars):
        assert_equal(f.partial(pos), sympy.diff(to_sympy(f, syms), syms[pos]), syms)


@settings(max_examples=20, deadline=None)
@given(_seeds)
def test_lie_bracket_and_divergence(seed):
    space = Space(3)
    syms = symbols(space)
    comps = polys(seed, space, 6)
    X, Y = VectorField(comps[:3]), VectorField(comps[3:])
    XS = [to_sympy(c, syms) for c in X.components]
    YS = [to_sympy(c, syms) for c in Y.components]
    bracket = lie_bracket(X, Y)
    for k in range(3):
        want = sum(XS[j] * sympy.diff(YS[k], syms[j]) - YS[j] * sympy.diff(XS[k], syms[j])
                   for j in range(3))
        assert_equal(bracket.components[k], want, syms)
    assert_equal(divergence(X), sum(sympy.diff(XS[j], syms[j]) for j in range(3)), syms)


@settings(max_examples=20, deadline=None)
@given(_seeds)
def test_poisson_bracket(seed):
    space = Space(2, True)
    syms = symbols(space)
    h, g = polys(seed, space, 2, max_terms=5)
    H, G = to_sympy(h, syms), to_sympy(g, syms)
    want = 0
    for k in range(1, space.n + 1):
        x, p = syms[space.x(k)], syms[space.p(k)]
        want += sympy.diff(H, p) * sympy.diff(G, x) - sympy.diff(H, x) * sympy.diff(G, p)
    assert_equal(poisson_bracket(h, g), want, syms)


@settings(max_examples=20, deadline=None)
@given(_seeds, st.integers(1, 6))
def test_minor_determinant_and_pfaffian_square(seed, size):
    space = Space(2)
    syms = symbols(space)
    rng = random.Random(seed)
    A = random_skew(rng, space, 6)
    rows = tuple(sorted(rng.sample(range(1, 7), size)))
    cols = tuple(sorted(rng.sample(range(1, 7), size)))

    def det(R, C):
        # over the polynomial ring QQ[x1, x2]: Matrix.det on expressions is
        # orders of magnitude slower and gives the same value
        M = DomainMatrix.from_Matrix(
            sympy.Matrix([[to_sympy(A.entry(i, j), syms) for j in C] for i in R]))
        return M.domain.to_sympy(M.det())

    skew_det = det(rows, rows)
    assert_equal(minor_determinant(A, rows), skew_det, syms)
    assert_equal(minor_determinant(A, rows, cols), det(rows, cols), syms)
    if size % 2 == 0:
        pf = to_sympy(pfaffian_by_recursion(A, rows), syms)
        assert sympy.expand(pf ** 2 - skew_det) == 0
