"""Exact linear algebra on integer rows against the Fraction elimination
loops of ``conftest``, and the exact point paths that feed it: skew ranks,
annihilator bases and bracket depths at rational points."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    random_corank1_frame,
    random_general_frame,
    reference_annihilator_point,
    reference_nullspace,
    reference_rank,
    reference_row_echelon,
)
from singfol import _linalg, cli
from singfol.abnormal import SamplerConfig, goh_matrix, kernel_dim_at, sample_annihilator_point
from singfol.demos import DEMOS, demo_frame
from singfol.exactpoly import _exact_evaluator
from singfol.pfaffian import skew_rank
from singfol.vectorfield import lie_bracket


def _matrix(seed: int, square: bool = False) -> list:
    """A rows x cols product of random rows x k and k x cols factors, with
    k at most 2 below min(rows, cols), so ranks below full are common; in a
    quarter of the draws some rows and columns are zeroed.  Half the factor
    entries are 0, which gives the zero multipliers and exact cancellations
    that a wrongly scaled elimination gets wrong.  The other entries are
    ints in half the draws and have denominators up to 10^6 in the others;
    in half the draws integral values become ints at random, so ints and
    Fractions mix.  A matrix with
    no columns is drawn too; the one with no rows has its own test."""
    rng = random.Random(seed)
    rows = rng.randint(1, 6)
    cols = rows if square else rng.randint(0, 6)
    k = max(min(rows, cols) - rng.randint(0, 2), 0)
    den = rng.choice((1, 10 ** 6))

    def entry():
        return Fraction(rng.randint(-50, 50), rng.randint(1, den)) if rng.randrange(2) else Fraction(0)

    left = [[entry() for _ in range(k)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(k)]
    M = [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
          for j in range(cols)] for i in range(rows)]
    if cols and not rng.randrange(4):
        for i in rng.sample(range(rows), rng.randint(0, rows)):
            M[i] = [Fraction(0)] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols)):
            for row in M:
                row[j] = Fraction(0)
    if rng.randrange(2):
        M = [[int(v) if v.denominator == 1 and rng.randrange(2) else v for v in row] for row in M]
    return M


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_integer_elimination_matches_the_fraction_loops(seed):
    M = _matrix(seed)
    before = [list(row) for row in M]
    assert _linalg.rank(M) == reference_rank(M)
    assert _linalg.row_echelon(M) == reference_row_echelon(M)
    assert _linalg.nullspace(M) == reference_nullspace(M)
    assert M == before


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_inverse_matches_the_fraction_loop(seed):
    M = _matrix(seed, square=True)
    n = len(M)
    if reference_rank(M) < n:
        with pytest.raises(ValueError):
            _linalg.invert(M)
        return
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    expected = [row[n:] for row in reference_row_echelon(augmented)[0]]
    assert _linalg.invert(M) == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_kernel_combination_is_the_basis_sum(seed):
    # one draw per free column, left to right, and the Fraction sum of the
    # basis vectors with those coefficients, equal in type as well as value
    M = _matrix(seed)
    rng = random.Random(seed)
    coeffs = []

    def draw():
        coeffs.append(rng.randint(-9, 9))
        return coeffs[-1]

    got = _linalg.kernel_combination(M, draw)
    basis = reference_nullspace(M)
    if not basis:
        assert got is None and coeffs == []
        return
    assert len(coeffs) == len(basis)
    want = [sum((c * vec[k] for c, vec in zip(coeffs, basis)), Fraction(0))
            for k in range(len(basis[0]))]
    assert repr(got) == repr(want)


def test_kernel_combination_without_a_kernel_draws_nothing():
    def draw():
        raise AssertionError("drew a coefficient for no free column")

    assert _linalg.kernel_combination([[1, 2], [3, 4]], draw) is None
    assert _linalg.kernel_combination([[2, 0, 1], [0, 0, 3], [1, 1, 1]], draw) is None


def test_elimination_of_empty_and_zero_matrices():
    assert _linalg.rank([]) == 0
    assert _linalg.row_echelon([]) == ([], [])
    assert _linalg.nullspace([]) == []
    assert _linalg.invert([]) == []
    assert _linalg.rank([[], []]) == 0
    assert _linalg.row_echelon([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
    assert _linalg.nullspace([[0, 0]]) == [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        _linalg.invert([[1, 2], [2, 4]])


def _frames(monkeypatch):
    """The demos, a random corank-1 frame and StratifySample's n = 8, m = 6
    general frame, which samples through the annihilator nullspace."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import StratifySample

    rows = StratifySample._general_fields(random.Random(1), 8, 6)
    general = cli.build_frame({"dimension": 8, "rank": 6, "fields": rows})
    return [demo_frame(name) for name in DEMOS] + [random_corank1_frame(random.Random(4), 6), general]


def _mixed_points(rng, count, k):
    """Points whose coordinates mix 0, negative ints and Fractions."""
    choices = (lambda: 0, lambda: -rng.randint(1, 5),
               lambda: Fraction(rng.randint(-99, 99), rng.randint(2, 10 ** 6)))
    return [[rng.choice(choices)() for _ in range(k)] for _ in range(count)]


def test_skew_rank_at_a_point_matches_the_fraction_rank(monkeypatch):
    rng = random.Random(18)
    for F in _frames(monkeypatch):
        goh = goh_matrix(F)
        # annihilator points (x, p), as stratify and kernel_dim_at read H
        sampled = [list(x) + list(p) for x, p in (
            sample_annihilator_point(F, rng, SamplerConfig(seed=0)) for _ in range(6))]
        for A in (goh.H, goh.reduced):
            if A is None:
                continue
            points = _mixed_points(rng, 6, A.space.nvars) + (sampled if A is goh.H else [])
            for point in points:
                assert skew_rank(A, at=point) == reference_rank(A.evaluate(point)), (F.name, point)


def test_kernel_dim_at_is_the_fraction_rank_at_every_multiple(monkeypatch):
    # the rank is read at the primitive integer multiple of p; it must be
    # the rank of H at (x, p) itself, and the same at every nonzero multiple
    # of p, negative or with a large denominator
    rng = random.Random(21)
    for F in _frames(monkeypatch) + [random_general_frame(random.Random(3), 5, 3)]:
        goh = goh_matrix(F)
        for _ in range(6):
            x, p = sample_annihilator_point(F, rng, SamplerConfig(seed=0))
            d = kernel_dim_at(F, x, p, goh)
            assert d == F.m - reference_rank(goh.H.evaluate(list(x) + list(p))), (F.name, x, p)
            lam = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
            assert kernel_dim_at(F, x, [lam * v for v in p], goh) == d, (F.name, x, p, lam)


def test_sampled_covector_matches_the_basis_sum(monkeypatch):
    # p is read off the integer echelon rows; the reduced echelon form is
    # unique, so the sample is the one the basis sum gives, printed alike,
    # and the rng makes the same draws
    frames = [F for F in _frames(monkeypatch) if F.normal_form is None]
    frames += [random_general_frame(random.Random(seed), n, m)
               for seed, n, m in ((1, 4, 2), (2, 5, 3), (3, 6, 2), (4, 6, 5))]
    for F in frames:
        for seed in (0, 1, 2):
            for box in ((-1, 1), (0, Fraction(1, 2)), (-3, 2)):
                config = SamplerConfig(seed=seed, box=box)
                rng, ref = random.Random(seed), random.Random(seed)
                for _ in range(4):
                    got = sample_annihilator_point(F, rng, config)
                    assert repr(got) == repr(reference_annihilator_point(F, ref, config)), (F.name, box)
                    assert rng.getstate() == ref.getstate()


def test_annihilator_basis_matches_the_fraction_nullspace(monkeypatch):
    # the sampled covector p is built from this basis and printed, so the
    # entries must match in type as well as value
    rng = random.Random(19)
    for F in _frames(monkeypatch):
        for x in _mixed_points(rng, 6, F.n):
            value = _exact_evaluator(x)
            rows = [[value(c) for c in X.components] for X in F.fields]
            assert repr(F.annihilator_basis(x)) == repr(reference_nullspace(rows)), (F.name, x)


def _reference_depth(F, x, max_depth):
    value = _exact_evaluator(x)
    layer, vectors = list(F.fields), []
    for depth in range(1, max_depth + 1):
        vectors.extend([value(c) for c in V.components] for V in layer)
        if reference_rank(vectors) == F.n:
            return depth
        layer = [lie_bracket(X, V) for V in layer for X in F.fields]
    return None


def test_bracket_generation_depth_matches_the_fraction_rank():
    rng = random.Random(20)
    for name in DEMOS:
        F = demo_frame(name)
        for x in [[0] * F.n] + _mixed_points(rng, 2, F.n):
            assert F.bracket_generation_depth(x, 3) == _reference_depth(F, x, 3), (name, x)
