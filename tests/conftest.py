"""Shared random generators and small helpers for the test suite.

Everything here is seeded by the caller, so tests are reproducible and any
failure can be replayed from its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from singfol import _linalg
from singfol.abnormal import (SAMPLE_DENOMINATOR, GohMatrix, SamplingError, _corank1_covector,
                              _grid_numerators, goh_matrix)
from singfol.exactpoly import Polynomial, Space
from singfol.pfaffian import SkewMatrix, index_sets, pfaffian_by_recursion
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


def random_low_rank_skew(rng: random.Random, space: Space, size: int, blocks: int) -> SkewMatrix:
    """Sum of ``blocks`` wedges u ^ v of random polynomial vectors, each
    component zero with probability 1/3: its generic rank is at most
    2 * blocks, and often less."""
    def vector():
        return [random_polynomial(rng, space, 2, 1) if rng.randrange(3) else Polynomial.zero(space)
                for _ in range(size)]

    upper = {(i, j): Polynomial.zero(space) for i in range(1, size + 1) for j in range(i + 1, size + 1)}
    for _ in range(blocks):
        u, v = vector(), vector()
        for i, j in upper:
            upper[(i, j)] = upper[(i, j)] + u[i - 1] * v[j - 1] - u[j - 1] * v[i - 1]
    return SkewMatrix(space, size, upper)


def top_down_skew_rank(A: SkewMatrix) -> int:
    """The generic rank by searching every even Pfaffian minor from the top
    size down until one is a nonzero polynomial.  It reads no point, so it
    checks ``skew_rank``'s route through a point and the minors above it."""
    top = A.size if A.size % 2 == 0 else A.size - 1
    for r in range(top, 0, -2):
        for I in index_sets(A.size, r):
            if not pfaffian_by_recursion(A, I).is_zero():
                return r
    return 0


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


# one corank-1 frame (n=4) in two spellings: the same polynomials, their
# terms written, and so inserted, in other orders
TWO_SPELLINGS = (["x2 + 1/3*x1^3 - 2/7*x3", "x4 - 3/5*x1*x2 + 1/9",
                  "x1^2 + 5/11*x2*x3 - 1/3*x4^2"],
                 ["0 - 2/7*x3 + 1/3*x1^3 + x2", "1/9 - 3/5*x1*x2 + x4",
                  "0 - 1/3*x4^2 + 5/11*x2*x3 + x1^2"])


def tampered_goh(F):
    """The Goh matrix of a corank-1 frame with E[k,l] added to every upper
    entry (k, l), where E[k,l] is the product of the x_i, i <= m, i not k, l.

    Its H is no longer the bracket matrix of its hamiltonians.  The bracket
    part of each cyclic Jacobi sum still cancels by the Jacobi identity, and
    each triple {a, b, c} leaves {h^a, E[b,c]} + {h^b, E[c,a]} + {h^c, E[a,b]},
    which is the product of the x_i outside the triple, up to sign: the p_a
    term of h^a = p_a + A_a p_n differentiates x_a out of E[b,c], whatever
    the coefficients A_a are.
    """
    goh = goh_matrix(F)
    phase = F.space.phase
    upper = {}
    for k in range(1, F.m + 1):
        for l in range(k + 1, F.m + 1):
            extra = Polynomial.constant(phase, 1)
            for i in range(1, F.m + 1):
                if i not in (k, l):
                    extra = extra * Polynomial.variable(phase, phase.x(i))
            upper[(k, l)] = goh.H.entry(k, l) + extra
    return GohMatrix(F, SkewMatrix(phase, F.m, upper), goh.hamiltonians, goh.ham_fields,
                     goh.reduced)


def reference_eval_exact(f: Polynomial, point) -> Fraction:
    """The term-by-term exact value with a fresh power per factor (the loop
    ``Polynomial.eval_exact`` ran before the shared evaluator)."""
    vals = [Fraction(v) for v in point]
    total = Fraction(0)
    for exps, coeff in f.terms.items():
        term = coeff
        for e, v in zip(exps, vals):
            if e:
                term *= v ** e
        total += term
    return total


def reference_offenders(F: Frame, x, p) -> list[tuple[int, Fraction]]:
    """The pairs (i, p . X^i(x)) with a nonzero pairing, each a Fraction sum
    over every component (the loop ``_annihilator_offenders`` ran before it
    summed over ints)."""
    offenders = []
    for i, X in enumerate(F.fields, start=1):
        pairing = sum((Fraction(pk) * reference_eval_exact(c, x)
                       for pk, c in zip(p, X.components)), Fraction(0))
        if pairing != 0:
            offenders.append((i, pairing))
    return offenders


# -- plain reference loops ---------------------------------------------------
#
# Value oracles for the exact kernels: each kernel must give a polynomial
# equal to the one these term-by-term loops give.


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


def reference_poisson(h: Polynomial, g: Polynomial) -> Polynomial:
    """{h, g} by the coordinate formula on the reference loops: for each k,
    + dh/dp_k dg/dx_k first, then - dh/dx_k dg/dp_k."""
    space = h.space
    signed = []
    for k in range(1, space.n + 1):
        xk, pk = space.x(k), space.p(k)
        signed.append((1, reference_product(h.partial(pk), g.partial(xk))))
        signed.append((-1, reference_product(h.partial(xk), g.partial(pk))))
    return reference_sum(space, signed)


def reference_lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] by the dense loop over all n^2 pairs (j, k) on the reference
    loops (the loop ``lie_bracket`` ran before it read the supports):
    component k is the sum over j of X_j dY_k/dx_j - Y_j dX_k/dx_j."""
    if X.kind != Y.kind or X.space != Y.space:
        raise ValueError("kind mismatch")
    n = len(X.components)
    comps = []
    for k in range(n):
        signed = []
        for j in range(n):
            signed.append((1, reference_product(X.components[j], Y.components[k].partial(j))))
            signed.append((-1, reference_product(Y.components[j], X.components[k].partial(j))))
        comps.append(reference_sum(X.space, signed))
    return VectorField(comps, X.kind)


def reference_annihilator_point(F: Frame, rng: random.Random, config):
    """One exact point (x, p) as ``sample_annihilator_point`` drew it before
    it read p off the integer echelon rows: on a general frame, p sums the
    vectors of ``Frame.annihilator_basis(x)`` in Fractions, with one
    coefficient ``randint(-9, 9)`` drawn per basis vector."""
    lo, hi = _grid_numerators(config.box)
    for _ in range(64):
        x = tuple(Fraction(rng.randint(lo, hi), SAMPLE_DENOMINATOR) for _ in range(F.n))
        if F.normal_form is not None:
            return x, _corank1_covector(F, x)
        basis = F.annihilator_basis(x)
        if not basis:
            continue
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in basis]
        p = tuple(sum((c * vec[k] for c, vec in zip(coeffs, basis)), Fraction(0))
                  for k in range(F.n))
        if any(v != 0 for v in p):
            return x, p
    raise SamplingError("could not draw a valid annihilator point (degenerate box?)")


def reference_row_echelon(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and pivot columns by Gauss-Jordan
    elimination over Fraction (the loop ``_linalg.row_echelon`` ran before it
    eliminated on integer rows)."""
    m = [[Fraction(v) for v in row] for row in matrix]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def reference_rank(matrix) -> int:
    """Pivots of forward elimination over Fraction (the loop
    ``_linalg.rank`` ran before its Bareiss elimination on ints)."""
    m = [[Fraction(v) for v in row] for row in matrix]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        head = m[r]
        for row in m[r + 1:]:
            if row[c]:
                f = row[c] / head[c]
                for k in range(c + 1, len(head)):
                    row[k] -= f * head[k]
        r += 1
        if r == len(m):
            break
    return r


def reference_nullspace(matrix) -> list[list[Fraction]]:
    """One kernel vector per free column of :func:`reference_row_echelon`."""
    if not matrix:
        return []
    cols = len(matrix[0])
    echelon, pivots = reference_row_echelon(matrix)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -echelon[r][fc]
        basis.append(vec)
    return basis
