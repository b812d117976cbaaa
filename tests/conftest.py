"""Shared random generators and small helpers for the test suite.

Everything here is seeded by the caller, so tests are reproducible and any
failure can be replayed from its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from singfol import _linalg
from singfol.exactpoly import Polynomial, Space
from singfol.pfaffian import SkewMatrix
from singfol.vectorfield import Frame, VectorField


def random_polynomial(rng: random.Random, space: Space, max_terms: int = 3,
                      max_degree: int = 2, denominators=(1, 2, 3)) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * space.nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randint(0, space.nvars - 1)] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + Fraction(
            rng.randint(-4, 4), rng.choice(denominators)
        )
    return Polynomial(space, terms)


def random_skew(rng: random.Random, space: Space, size: int, max_terms: int = 2) -> SkewMatrix:
    upper = {
        (i, j): random_polynomial(rng, space, max_terms)
        for i in range(1, size + 1)
        for j in range(i + 1, size + 1)
    }
    return SkewMatrix(space, size, upper)


def random_scalar_skew_of_rank(rng: random.Random, m: int, r: int) -> list[list[Fraction]]:
    """Scalar skew matrix of exact rank r (sum of r/2 decomposable blocks)."""
    assert r % 2 == 0 and r <= m
    while True:
        rows = [[Fraction(0)] * m for _ in range(m)]
        for _ in range(r // 2):
            u = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
            v = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
            for i in range(m):
                for j in range(m):
                    rows[i][j] += u[i] * v[j] - u[j] * v[i]
        if _linalg.rank(rows) == r:
            return rows


def scalar_to_skew(rows) -> SkewMatrix:
    space = Space(1)
    m = len(rows)
    upper = {
        (i + 1, j + 1): Polynomial.constant(space, rows[i][j])
        for i in range(m)
        for j in range(i + 1, m)
    }
    return SkewMatrix(space, m, upper)


def random_corank1_frame(rng: random.Random, n: int, max_terms: int = 2,
                         max_degree: int = 2) -> Frame:
    space = Space(n)
    coeffs = [random_polynomial(rng, space, max_terms, max_degree) for _ in range(n - 1)]
    return Frame.corank1(n, coeffs, name=f"random-corank1-{n}")


def random_general_frame(rng: random.Random, n: int, m: int,
                         max_terms: int = 2, max_degree: int = 2) -> Frame:
    """A frame with random polynomial components, independent at the origin."""
    space = Space(n)
    while True:
        fields = []
        for _ in range(m):
            comps = [random_polynomial(rng, space, max_terms, max_degree) for _ in range(n)]
            fields.append(VectorField(comps, "base"))
        if _linalg.rank([X.constant_part() for X in fields]) == m:
            return Frame(n, m, tuple(fields))


def random_rational_point(rng: random.Random, count: int, den: int = 8,
                          span: int = 2) -> list[Fraction]:
    return [Fraction(rng.randint(-span * den, span * den), den) for _ in range(count)]


def skew_from_rows(rows) -> SkewMatrix:
    """A SkewMatrix from a full square array, checking antisymmetry exactly."""
    size = len(rows)
    space = rows[0][0].space
    upper = {}
    for i in range(size):
        if not rows[i][i].is_zero():
            raise ValueError(f"diagonal entry ({i + 1},{i + 1}) is nonzero")
        for j in range(i + 1, size):
            if rows[j][i] != -rows[i][j]:
                raise ValueError(f"entries ({i + 1},{j + 1}) / ({j + 1},{i + 1}) not antisymmetric")
            upper[(i + 1, j + 1)] = rows[i][j]
    return SkewMatrix(space, size, upper)


def matvec(matrix, vector) -> list[Fraction]:
    """Exact matrix-vector product over Q."""
    return [sum((Fraction(a) * Fraction(v) for a, v in zip(row, vector)), Fraction(0))
            for row in matrix]


def scale_fiber(f: Polynomial, lam: Fraction) -> Polynomial:
    """Substitute p -> lam * p (identity on base polynomials)."""
    if not f.space.fiber:
        return f
    n = f.space.n
    lam = Fraction(lam)
    out = {}
    for exps, coeff in f.terms.items():
        k = sum(exps[n:])
        out[exps] = coeff * lam ** k
    return Polynomial(f.space, out)
