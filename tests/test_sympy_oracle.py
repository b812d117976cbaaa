"""Differential tests of the polynomial calculus against sympy.

sympy is an independent implementation of the same algebra, used here only
as a test oracle: the module is skipped when sympy is not installed, and
singfol itself never imports it.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import POWER_CASES, POWERS, power_terms_bound, random_polynomial, random_skew
from singfol.abnormal import SamplerConfig, stratify
from singfol.cli import build_frame
from singfol.demos import demo_frame
from singfol.exactpoly import Polynomial, Space, parse_expression
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


def assert_power(f: Polynomial, k: int, syms: list):
    """f^k equals the power of f as a sympy Poly."""
    want = (sympy.Poly(to_sympy(f, syms), *syms) ** k).as_dict()
    got = {exps: sympy.Rational(c.numerator, c.denominator) for exps, c in (f ** k).terms.items()}
    assert got == {exps: c for exps, c in want.items() if c}


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
    # ... and every k of POWERS where the power stays small
    for k in POWERS:
        if power_terms_bound(f, k) <= 500:
            assert_power(f, k, syms)


@pytest.mark.parametrize("space, text", POWER_CASES)
def test_power_on_aimed_bases(space, text):
    syms = symbols(space)
    for k in POWERS:
        assert_power(parse_expression(text, space), k, syms)


# expression text in the parser's grammar: a power's base is a variable, an
# integer or a parenthesized expression, since "2/3^2" is (2/3)^2 here and
# 2/(3^2) in Python, and "x1^2^2" is no expression here
_leaves = st.one_of(st.sampled_from(["x1", "x2", "x3"]), st.integers(0, 9).map(str),
                    st.tuples(st.integers(0, 9), st.integers(1, 9)).map("{0[0]}/{0[1]}".format))
_bases = st.one_of(st.sampled_from(["x1", "x2", "x3"]), st.integers(0, 9).map(str))


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from([" + ", " - ", "*", " * -"]), children).map("".join),
        children.map("-{}".format),
        children.map("({})".format),
        st.tuples(st.one_of(_bases, children.map("({})".format)), st.integers(0, 3))
        .map("{0[0]}^{0[1]}".format),
    )


_texts = st.recursive(_leaves, _compound, max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_texts)
@example("-x1^2")
@example("-2^2 + x2")
@example("x1 * -x2^3 - -(x3 - 1)^2")
def test_parser_reads_expressions_as_python_does(text):
    # unary minus, powers, parentheses and rationals bind as in Python and
    # sympy: -x1^2 is -(x1^2)
    space = Space(3)
    syms = symbols(space)
    assert_equal(parse_expression(text, space), sympy.sympify(text.replace("^", "**")), syms)


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


@pytest.mark.parametrize("F", [
    build_frame({"dimension": 4, "rank": 2,
                 "fields": [["1", "0", "x2", "x3^2"], ["0", "1", "x1", "x1*x3"]]}),
    demo_frame("dim6-cubic"),
], ids=["fields", "dim6-cubic"])
def test_stratify_witnesses(F):
    # every witness (x, p) of every level, in sympy alone: p != 0 annihilates
    # each field at x, and the level's dim is m minus the rank of the
    # matrix p . [X^k, X^l](x), the brackets taken by sympy.diff
    syms = symbols(F.space)
    fields = [[to_sympy(c, syms) for c in X.components] for X in F.fields]

    def bracket(X, Y):
        return [sum(X[i] * sympy.diff(Y[j], syms[i]) - Y[i] * sympy.diff(X[j], syms[i])
                    for i in range(F.n)) for j in range(F.n)]

    brackets = {(k, l): bracket(fields[k], fields[l])
                for k in range(F.m) for l in range(k + 1, F.m)}
    witnesses = 0
    for level in stratify(F, SamplerConfig(seed=3, count=16)).strata:
        for w in level.witnesses:
            at = {s: sympy.Rational(v.numerator, v.denominator) for s, v in zip(syms, w.x)}
            p = [sympy.Rational(v.numerator, v.denominator) for v in w.p]

            def pairing(V):
                return sympy.expand(sum(pk * c.subs(at) for pk, c in zip(p, V)))

            assert any(p)
            assert all(pairing(X) == 0 for X in fields)
            H = sympy.zeros(F.m, F.m)
            for (k, l), V in brackets.items():
                H[k, l] = pairing(V)
                H[l, k] = -H[k, l]
            assert w.kernel_dim == level.dim == F.m - H.rank()
            witnesses += 1
    assert witnesses
