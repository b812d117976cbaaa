import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    matvec,
    random_low_rank_skew,
    random_polynomial,
    random_rational_point,
    random_scalar_skew_of_rank,
    random_skew,
    scalar_to_skew,
    skew_from_rows,
    top_down_skew_rank,
)
from singfol import abnormal, cli
from singfol import _linalg
from singfol.exactpoly import Polynomial, Space
from singfol.pfaffian import (
    SkewMatrix,
    calibration_report,
    epsilon_sign,
    index_sets,
    kernel_generators,
    minor_determinant,
    pfaffian_by_definition,
    pfaffian_by_recursion,
    pfaffian_derivative,
    skew_rank,
)
from singfol.vectorfield import VectorField

S1 = Space(1)


def const_skew(size, entries):
    upper = {k: Polynomial.constant(S1, v) for k, v in entries.items()}
    return SkewMatrix(S1, size, upper)


def block(size):
    return const_skew(size, {(2 * k + 1, 2 * k + 2): 1 for k in range(size // 2)})


# -- epsilon -------------------------------------------------------------------


def test_epsilon_examples():
    assert epsilon_sign((1, 2, 3), 1) == 1
    assert epsilon_sign((1, 2, 3), 2) == -1  # one adjacent transposition
    assert epsilon_sign((1, 2, 3), 3) == 1   # two transpositions
    with pytest.raises(ValueError):
        epsilon_sign((1, 2, 3), 4)


def test_epsilon_matches_wedge_reordering():
    # oracle: sign of the permutation that moves j to the front
    def perm_sign(perm):
        sign = 1
        perm = list(perm)
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[i] > perm[j]:
                    sign = -sign
        return sign

    rng = random.Random(9)
    for _ in range(20):
        size = rng.randint(1, 6)
        I = tuple(sorted(rng.sample(range(1, 10), size)))
        j = rng.choice(I)
        moved = (j,) + tuple(i for i in I if i != j)
        assert epsilon_sign(I, j) == perm_sign(moved)


# -- definition ------------------------------------------------------------------


def test_pfaffian_conventions():
    A = block(4)
    assert pfaffian_by_definition(A, ()) == Polynomial.constant(S1, 1)
    assert pfaffian_by_definition(A, (1, 2, 3)).is_zero()
    assert pfaffian_by_definition(A, (1, 2, 3, 4)) == Polynomial.constant(S1, 1)


def test_pfaffian_2x2_and_4x4_formula():
    sp = Space(6)
    names = {}
    k = 0
    for i in range(1, 5):
        for j in range(i + 1, 5):
            names[(i, j)] = Polynomial.variable(sp, k)
            k += 1
    A = SkewMatrix(sp, 4, names)
    assert pfaffian_by_definition(A, (1, 2)) == names[(1, 2)]
    # classical expansion a12 a34 - a13 a24 + a14 a23
    expected = (names[(1, 2)] * names[(3, 4)]
                - names[(1, 3)] * names[(2, 4)]
                + names[(1, 4)] * names[(2, 3)])
    assert pfaffian_by_definition(A, (1, 2, 3, 4)) == expected


# -- recursion --------------------------------------------------------------------


def test_recursion_single_term_2x2():
    sp = Space(1)
    a = Polynomial.variable(sp, 0)
    A = SkewMatrix(sp, 2, {(1, 2): a})
    for pivot in (1, 2):
        assert pfaffian_by_recursion(A, (1, 2), pivot) == a


def test_recursion_block_calibration():
    # the block case forces the scalar prefactor: with c(4) = 1/2 the value
    # would be 1/2 instead of the wedge value 1, so calibration must land on 1
    A = block(4)
    assert pfaffian_by_recursion(A, (1, 2, 3, 4), 1) == Polynomial.constant(S1, 1)
    report = calibration_report(8)
    assert report["recursion"] == {2: "1", 4: "1", 6: "1", 8: "1"}
    assert report["derivative"] == {2: "1/2", 4: "1/2", 6: "1/2", 8: "1/2"}


def test_recursion_matches_definition_all_pivots():
    sp = Space(2)
    for seed in range(6):
        rng = random.Random(seed)
        A = random_skew(rng, sp, 6)
        I = (1, 2, 3, 4, 5, 6)
        expected = pfaffian_by_definition(A, I)
        for pivot in I:
            assert pfaffian_by_recursion(A, I, pivot) == expected


def test_recursion_rejects_odd_sets():
    with pytest.raises(ValueError):
        pfaffian_by_recursion(block(4), (1, 2, 3))
    with pytest.raises(ValueError):
        pfaffian_by_recursion(block(4), (1, 2), pivot=3)


def random_sparse_skew(rng, space, size):
    """A skew matrix with about half its entries missing, one row with no
    entry and one row with a single entry; an entry drawn with 0 terms is
    the zero polynomial, which the constructor drops."""
    empty, single = rng.sample(range(1, size + 1), 2)
    partner = rng.choice([k for k in range(1, size + 1) if k not in (empty, single)])
    upper = {}
    for i in range(1, size + 1):
        for j in range(i + 1, size + 1):
            if empty in (i, j) or (single in (i, j) and partner not in (i, j)):
                continue
            if (i, j) == tuple(sorted((single, partner))) or rng.random() < 0.5:
                terms = rng.randint(0, 3)
                upper[(i, j)] = (random_polynomial(rng, space, terms) if terms
                                 else Polynomial.zero(space))
    return SkewMatrix(space, size, upper)


def _sparse_cases():
    sp = Space(2)
    for seed in range(6):
        rng = random.Random(700 + seed)
        A = random_sparse_skew(rng, sp, 7 if seed % 2 else 8)
        evens = [I for k in range(2, A.size + 1, 2) for I in index_sets(A.size, k)]
        yield A, rng.sample(evens, 24)


def test_sparse_recursion_matches_definition_on_every_pivot():
    stored_counts = set()
    for A, minors in _sparse_cases():
        for I in minors:
            expected = pfaffian_by_definition(A, I)
            # a fresh matrix, so that its memo holds this minor's expansion only
            fresh = SkewMatrix(A.space, A.size, A.upper)
            value = pfaffian_by_recursion(fresh, I)
            assert value == expected, I
            assert value * value == minor_determinant(A, I), I
            counts = [sum((i, j) in A.upper or (j, i) in A.upper for j in I) for i in I]
            stored_counts.update(counts)
            if min(counts) == 0:
                # a row with no stored entry inside I: zero at once
                assert value.is_zero() and list(fresh._pfaffians) == [I], I
            elif len(I) > 2:
                # the expansion runs along a sparsest row, one sub-minor per entry
                top = [J for J in fresh._pfaffians if len(J) == len(I) - 2]
                assert len(top) == min(counts), I
            for pivot in I:
                assert pfaffian_by_recursion(A, I, pivot) == expected, (I, pivot)
    assert {0, 1} <= stored_counts and max(stored_counts) >= 3


def test_sparse_derivative_matches_the_differentiated_definition():
    for A, minors in _sparse_cases():
        x1, x2 = (Polynomial.variable(A.space, k) for k in range(2))
        fields = [VectorField.coordinate(A.space, 0), VectorField([x2, x1 * x1 - 1], "base")]
        for I in minors:
            definition = pfaffian_by_definition(A, I)
            for D in fields:
                assert pfaffian_derivative(A, I, D) == D.apply(definition), I


def test_skew_matrix_equality_compares_the_space():
    assert SkewMatrix(Space(2), 3, {}) != SkewMatrix(Space(5, True), 3, {})
    assert SkewMatrix(Space(2), 3, {}) == SkewMatrix(Space(2), 3, {})
    x = Polynomial.variable(Space(2), 0)
    assert SkewMatrix(Space(2), 3, {(1, 2): x}) == SkewMatrix(Space(2), 3, {(1, 2): x, (1, 3): 0 * x})
    assert SkewMatrix(Space(2), 3, {(1, 2): x}) != SkewMatrix(Space(2), 3, {(1, 3): x})


# -- derivative ---------------------------------------------------------------------


def test_derivative_of_constant_matrix_is_zero():
    D = VectorField.coordinate(S1, 0)
    assert pfaffian_derivative(block(4), (1, 2, 3, 4), D).is_zero()


def test_derivative_2x2():
    sp = Space(1)
    x = Polynomial.variable(sp, 0)
    A = SkewMatrix(sp, 2, {(1, 2): x * x})
    D = VectorField.coordinate(sp, 0)
    assert pfaffian_derivative(A, (1, 2), D) == 2 * x


def test_derivative_matches_direct_differentiation():
    sp = Space(3)
    for seed in range(5):
        rng = random.Random(50 + seed)
        A = random_skew(rng, sp, 4, max_terms=3)
        I = (1, 2, 3, 4)
        D = VectorField.coordinate(sp, 0)
        direct = pfaffian_by_definition(A, I).partial(0)
        assert pfaffian_derivative(A, I, D) == direct


def test_derivative_general_derivation():
    # D given by a non-coordinate field, against D applied to the definition
    sp = Space(2)
    rng = random.Random(123)
    A = random_skew(rng, sp, 4)
    D = VectorField([Polynomial.variable(sp, 1), Polynomial.variable(sp, 0) ** 2], "base")
    I = (1, 2, 3, 4)
    assert pfaffian_derivative(A, I, D) == D.apply(pfaffian_by_definition(A, I))


# -- determinant identities ------------------------------------------------------------


def test_pfaffian_squared_is_determinant():
    for seed in range(8):
        rng = random.Random(seed)
        size = rng.choice([2, 3, 4, 5, 6])
        sp = Space(2)
        A = random_skew(rng, sp, size)
        I = tuple(range(1, size + 1))
        pf = pfaffian_by_definition(A, I)
        assert pf * pf == minor_determinant(A, I)


def test_odd_minor_factorization():
    # |T| odd: Det(A, T-i, T-j) = phi(T-i) phi(T-j), any i, j in T
    sp = Space(2)
    for seed in range(5):
        rng = random.Random(400 + seed)
        A = random_skew(rng, sp, 5)
        T = (1, 2, 3, 4, 5)
        for i in T:
            for j in T:
                lhs = minor_determinant(A, tuple(t for t in T if t != i),
                                        tuple(t for t in T if t != j))
                rhs = (pfaffian_by_definition(A, tuple(t for t in T if t != i))
                       * pfaffian_by_definition(A, tuple(t for t in T if t != j)))
                assert lhs == rhs


# -- kernel generators --------------------------------------------------------------


def test_kernel_generator_m3_hand_expansion():
    sp = Space(3)
    a12, a13, a23 = (Polynomial.variable(sp, k) for k in range(3))
    A = SkewMatrix(sp, 3, {(1, 2): a12, (1, 3): a13, (2, 3): a23})
    gens = kernel_generators(A, 2)
    assert len(gens) == 1
    assert gens[0].I == (1, 2, 3)
    assert list(gens[0].coefficients) == [a23, -a13, a12]
    # symbolic kernel membership: rank <= 2 holds identically for m = 3
    Z = gens[0].vector()
    for i in range(1, 4):
        row = sum((A.entry(i, j) * Z[j - 1] for j in range(1, 4)), Polynomial.zero(sp))
        assert row.is_zero()


def test_kernel_generators_zero_matrix_rank0():
    A = const_skew(3, {})
    gens = kernel_generators(A, 0)
    assert [g.I for g in gens] == [(1,), (2,), (3,)]
    vectors = [[c.constant_term() for c in g.vector()] for g in gens]
    assert _linalg.rank(vectors) == 3


def test_kernel_membership_and_span_scalar():
    for m, r in [(4, 2), (5, 2), (5, 4), (6, 4)]:
        rng = random.Random(m * 10 + r)
        rows = random_scalar_skew_of_rank(rng, m, r)
        A = scalar_to_skew(rows)
        gens = kernel_generators(A, r)
        vectors = []
        for g in gens:
            vec = [c.constant_term() for c in g.vector()]
            assert matvec(rows, vec) == [Fraction(0)] * m
            vectors.append(vec)
        assert _linalg.rank(vectors) == m - r


def test_kernel_generators_validation():
    A = block(4)
    with pytest.raises(ValueError):
        kernel_generators(A, 3)
    with pytest.raises(ValueError):
        kernel_generators(A, 4)


# -- rank ---------------------------------------------------------------------------


def test_rank_examples():
    assert skew_rank(const_skew(3, {})) == 0
    assert skew_rank(block(5)) == 4
    sp = Space(2)
    x = Polynomial.variable(sp, 0)
    A = SkewMatrix(sp, 3, {(1, 2): x, (1, 3): x * x})
    assert skew_rank(A) == 2
    assert skew_rank(A, at=[Fraction(0), Fraction(5)]) == 0
    assert skew_rank(A, at=[Fraction(1, 2), Fraction(0)]) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 7), st.integers(0, 3), st.integers(1, 3))
def test_generic_rank_matches_top_down_search(seed, size, blocks, nvars):
    A = random_low_rank_skew(random.Random(seed), Space(nvars), size, blocks)
    assert skew_rank(A) == top_down_skew_rank(A)


def test_generic_rank_steps_up_from_an_unlucky_point():
    # every entry is divisible by x1 - 1, so the whole matrix vanishes at the
    # point (1, 2) where the generic rank is first read; the rank there is 0,
    # and the minors of sizes 4 and 6 must lift it to 4
    sp = Space(2)
    factor = Polynomial.variable(sp, 0) - Polynomial.constant(sp, 1)
    rows = random_scalar_skew_of_rank(random.Random(5), 6, 4)
    upper = {(i + 1, j + 1): factor * rows[i][j] for i in range(6) for j in range(i + 1, 6)}
    A = SkewMatrix(sp, 6, upper)
    assert skew_rank(A, at=[Fraction(1), Fraction(2)]) == 0
    assert skew_rank(A) == top_down_skew_rank(A) == 4


def test_generic_rank_of_the_general_10_8_frame(monkeypatch):
    # the n = 10, m = 8 general frame built the way the stratify-sample
    # workload builds its general-8-6 frame; the top-down search had no rank
    # after 100 s, the point proves rank 8 = m at once
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import StratifySample

    rows = StratifySample._general_fields(random.Random(1), 10, 8)
    goh = abnormal.goh_matrix(cli.build_frame({"dimension": 10, "rank": 8, "fields": rows}))
    start = time.perf_counter()
    assert skew_rank(goh.H) == 8
    assert time.perf_counter() - start < 10


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 7), st.integers(0, 7), st.integers(0, 4))
def test_forward_rank_matches_row_echelon(seed, rows, cols, rank_bound):
    # a product of random rows x k and k x cols factors, with some rows and
    # columns zeroed, so ranks below min(rows, cols) and zero lines are common
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.randrange(3) else Fraction(0)

    left = [[entry() for _ in range(rank_bound)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank_bound)]
    M = [[sum((left[i][k] * right[k][j] for k in range(rank_bound)), Fraction(0))
          for j in range(cols)] for i in range(rows)]
    for line in rng.sample(range(rows), rng.randint(0, rows)):
        M[line] = [Fraction(0)] * cols
    for col in rng.sample(range(cols), rng.randint(0, cols)):
        for line in M:
            line[col] = Fraction(0)
    assert _linalg.rank(M) == len(_linalg.row_echelon(M)[1])


def _rank_by_pfaffian_minors(values):
    """Largest even r with a nonzero scalar Pfaffian minor of size r, by the
    unscaled pivot recursion (its prefactor is 1, and only zero-ness counts)."""
    m = len(values)
    memo = {}

    def pf(I):
        if not I:
            return Fraction(1)
        if I in memo:
            return memo[I]
        i0 = I[0]
        rest = I[1:]
        acc = Fraction(0)
        for j in rest:
            a = values[i0 - 1][j - 1]
            if a == 0:
                continue
            sign = epsilon_sign(I, i0) * epsilon_sign(rest, j)
            acc += sign * a * pf(tuple(k for k in rest if k != j))
        memo[I] = acc
        return acc

    top = m if m % 2 == 0 else m - 1
    for r in range(top, 0, -2):
        for I in index_sets(m, r):
            if pf(I) != 0:
                return r
    return 0


def test_rank_at_matches_gaussian_elimination():
    # skew_rank(at=...) eliminates; the oracle searches Pfaffian minors
    for seed in range(10):
        rng = random.Random(700 + seed)
        sp = Space(2)
        size = rng.choice([3, 4, 5, 6])
        A = random_skew(rng, sp, size)
        point = random_rational_point(rng, 2)
        values = A.evaluate(point)
        assert skew_rank(A, at=point) == _rank_by_pfaffian_minors(values)
    # the wide stratify shape: size 12, rank 2
    rows = random_scalar_skew_of_rank(random.Random(712), 12, 2)
    assert skew_rank(scalar_to_skew(rows), at=[Fraction(0)]) == _rank_by_pfaffian_minors(rows) == 2


def test_from_rows_checks_antisymmetry():
    sp = Space(1)
    one = Polynomial.constant(sp, 1)
    zero = Polynomial.zero(sp)
    skew_from_rows([[zero, one], [-one, zero]])
    with pytest.raises(ValueError):
        skew_from_rows([[zero, one], [one, zero]])
    with pytest.raises(ValueError):
        skew_from_rows([[one, one], [-one, zero]])
