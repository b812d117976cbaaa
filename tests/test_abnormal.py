import random
import re
import time
from dataclasses import fields
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations

import pytest

from conftest import (
    matvec,
    random_corank1_frame,
    random_general_frame,
    random_rational_point,
    reference_annihilator_point,
    reference_corank1_covector,
    reference_eval_exact,
    reference_offenders,
    reference_poisson,
    reference_product,
    reference_reduced,
    reference_sum,
    scale_fiber,
    tampered_goh,
)
from singfol.abnormal import (
    AbnormalGenerator,
    AnnihilatorError,
    CertificateError,
    GohMatrix,
    NormalFormError,
    SamplerConfig,
    SamplingError,
    _divisors,
    _project_onto_locus,
    _rational_roots,
    abnormal_generators,
    divergence_certificate,
    goh_matrix,
    kernel_dim_at,
    kernel_residual,
    project_corank1,
    sample_annihilator_point,
    singular_set_equations,
    stratify,
)
from singfol import abnormal, exactpoly, pfaffian, vectorfield
from singfol.demos import DEMOS, demo_frame
from singfol.exactpoly import Polynomial, Space, parse_expression
from singfol.pfaffian import (
    SkewMatrix,
    _derivative_prefactor,
    _recursion_prefactor,
    epsilon_sign,
    index_sets,
    minor_determinant,
    pfaffian_by_definition,
    pfaffian_by_recursion,
    pfaffian_derivative,
    skew_rank,
)
from singfol.vectorfield import (
    Frame,
    VectorField,
    divergence,
    lie_bracket,
    poisson_bracket,
)


def bracket_momentum(F, i, j):
    """[X^i, X^j](x_n): the last component of the bracket (corank-1 frames)."""
    return lie_bracket(F.fields[i - 1], F.fields[j - 1]).components[F.n - 1]


# -- Goh matrix ----------------------------------------------------------------


def test_goh_martinet():
    F = demo_frame("martinet")
    goh = goh_matrix(F)
    phase = Space(3, True)
    assert goh.H.entry(1, 2) == parse_expression("2*x1*p3", phase)
    assert goh.H.entry(2, 1) == parse_expression("-(2*x1*p3)", phase)
    assert goh.reduced.entry(1, 2) == parse_expression("2*x1", Space(3))


def test_goh_commuting_frame_is_zero():
    s = Space(3)
    F = Frame((
        VectorField([parse_expression(e, s) for e in ("1", "0", "0")]),
        VectorField([parse_expression(e, s) for e in ("0", "1", "0")]),
    ))
    goh = goh_matrix(F)
    assert all(goh.H.entry(i, j).is_zero() for i in (1, 2) for j in (1, 2))


def test_goh_dim6_reduced_matches_display():
    # reduced matrix of the cubic fixture with R'(u) = 3 u^2
    F = demo_frame("dim6-cubic")
    goh = goh_matrix(F)
    s = Space(6)
    rp = parse_expression("3*(x2+x3)^2", s)
    zero = Polynomial.zero(s)
    one = Polynomial.constant(s, 1)
    display = [
        [zero, one, -one, zero, zero],
        [-one, zero, zero, rp, zero],
        [one, zero, zero, rp, zero],
        [zero, -rp, -rp, zero, zero],
        [zero, zero, zero, zero, zero],
    ]
    for i in range(5):
        for j in range(5):
            assert goh.reduced.entry(i + 1, j + 1) == display[i][j]


def test_goh_reduced_factorization():
    rng = random.Random(2)
    F = random_corank1_frame(rng, 4, max_terms=3)
    goh = goh_matrix(F)
    phase = F.space.phase
    pn = Polynomial.variable(phase, phase.p(4))
    for i in range(1, 4):
        for j in range(1, 4):
            assert goh.H.entry(i, j) == pn * goh.reduced.entry(i, j).lift_to_phase()


# the two frame shapes of the benchmark's dense-kernel workload, whose
# coefficient has 969 terms
DENSE = "(-2*x1 + 1*x2 + -1*x3 + -1)^16"


def _omega_frames():
    """The demos, random corank-1 frames with n = 5, 7, 9, 13 and the two
    dense shapes."""
    frames = [demo_frame(name) for name in DEMOS]
    frames += [random_corank1_frame(random.Random(seed), n, 3, 3)
               for seed in (0, 1) for n in (5, 7, 9, 13)]
    for n, texts in ((3, [DENSE, "0"]), (4, ["x2", "x4", DENSE])):
        frames.append(Frame.corank1(n, [parse_expression(t, Space(n)) for t in texts],
                                    name=f"dense-{n}"))
    return frames


def test_omega_annihilates_every_normal_form_frame():
    for F in _omega_frames():
        assert F.omega == tuple(-A for A in F.normal_form) + (Polynomial.constant(F.space, 1),)
        for X in F.fields:
            assert sum((w * c for w, c in zip(F.omega, X.components)),
                       Polynomial.zero(F.space)).is_zero(), F.name
    for seed, n, m in ((1, 4, 2), (2, 5, 3), (3, 6, 5), (4, 3, 2)):
        assert random_general_frame(random.Random(seed), n, m).omega is None


def test_reduced_matrix_is_the_factored_goh_matrix():
    # Ht = omega . [X^i, X^j] is the x-only factor of H = p_n * Ht, entry by
    # entry, as p_n factored out of the phase entries gave it
    for F in _omega_frames():
        goh = goh_matrix(F)
        assert goh.reduced.upper == reference_reduced(goh).upper, F.name


def test_goh_matrix_checks_that_omega_annihilates_the_frame():
    F = demo_frame("dim4")
    wrong = list(F.omega)
    wrong[1] = -wrong[1]
    # stored where the cached property keeps its value
    F.__dict__["omega"] = tuple(wrong)
    with pytest.raises(AssertionError, match="annihilate"):
        goh_matrix(F)


def test_sampled_covectors_are_omega_at_x():
    # the sampler and the stratify walk read p = omega(x), the covector
    # (-A(x), 1) of the normal form, printed alike
    for F in _omega_frames()[:9]:
        config = SamplerConfig(seed=4)
        rng, ref = random.Random(4), random.Random(4)
        for _ in range(6):
            got = sample_annihilator_point(F, rng, config)
            assert repr(got) == repr(reference_annihilator_point(F, ref, config)), F.name
    deep = 0
    for name, seed in (("martinet", 1), ("dim6-cubic", 7)):
        F = demo_frame(name)
        for level in stratify(F, SamplerConfig(seed=seed, count=64)).strata:
            for w in level.witnesses:
                assert repr(w.p) == repr(reference_corank1_covector(F, w.x)), name
            deep += not level.has_interior
    assert deep == 2


def test_goh_entries_are_pair_brackets():
    # the Jacobi expansion reads {h^k, h^l} straight off H[k,l]
    frames = [demo_frame(name) for name in DEMOS]
    frames += [random_corank1_frame(random.Random(seed), n) for seed, n in ((91, 4), (92, 5), (93, 7))]
    frames.append(random_general_frame(random.Random(71), 4, 3))
    for F in frames:
        goh = goh_matrix(F)
        for k in range(1, F.m + 1):
            for l in range(1, F.m + 1):
                bracket = poisson_bracket(goh.hamiltonians[k - 1], goh.hamiltonians[l - 1])
                assert goh.H.entry(k, l) == bracket, (F.name, k, l)


def test_goh_evaluate_matches_entrywise_values():
    # SkewMatrix.evaluate values the stored upper entries once and negates
    # them for the lower triangle; every cell equals its entry's own value
    frames = [demo_frame(name) for name in DEMOS]
    frames.append(random_corank1_frame(random.Random(94), 6))
    rng = random.Random(95)
    for F in frames:
        goh = goh_matrix(F)
        for A in (goh.H, goh.reduced):
            point = random_rational_point(rng, A.space.nvars)
            values = A.evaluate(point)
            for i in range(A.size):
                assert values[i][i] == 0, (F.name, i)
                for j in range(A.size):
                    want = reference_eval_exact(A.entry(i + 1, j + 1), point)
                    assert values[i][j] == want == -values[j][i], (F.name, i, j)


# -- kernel dimension ------------------------------------------------------------


def test_kernel_dim_engel():
    F = demo_frame("dim4-engel")
    assert kernel_dim_at(F, [Fraction(0)] * 4, [0, 0, 0, 1]) == 1


def test_kernel_dim_rank2_fixture():
    # reduced matrix of the dim5 fixture has rank 2 everywhere: dimension 2
    F = demo_frame("dim5")
    rng = random.Random(8)
    config = SamplerConfig(seed=8, count=5)
    for _ in range(5):
        x, p = sample_annihilator_point(F, rng, config)
        assert kernel_dim_at(F, x, p) == 2


def test_kernel_dim_zero_at_full_rank():
    # cascade frame in R^5: the reduced matrix has Pfaffian 1, rank 4 everywhere
    s = Space(5)
    F = Frame.corank1(5, [parse_expression(e, s) for e in ("0", "x1", "x2", "x3")])
    goh = goh_matrix(F)
    assert skew_rank(goh.reduced) == 4
    rng = random.Random(21)
    config = SamplerConfig(seed=21, count=3)
    x, p = sample_annihilator_point(F, rng, config)
    assert kernel_dim_at(F, x, p, goh) == 0


def test_dim6_reduced_rank_dichotomy_at_points():
    # kernel dimension 1 where R' != 0, rank drops to 2 on x2 + x3 = 0
    F = demo_frame("dim6-cubic")
    goh = goh_matrix(F)
    off = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(0), Fraction(1), Fraction(0)]
    assert skew_rank(goh.reduced, at=off) == 4
    gens = abnormal_generators(F, 4, goh)
    assert len(gens) == 1  # single index set at rank 4, kernel dimension 1
    on = [Fraction(1, 2), Fraction(2, 7), Fraction(-2, 7), Fraction(0), Fraction(1), Fraction(0)]
    assert skew_rank(goh.reduced, at=on) == 2


def test_kernel_dim_rejects_bad_points():
    F = demo_frame("dim4-engel")
    with pytest.raises(AnnihilatorError) as err:
        kernel_dim_at(F, [Fraction(1)] * 4, [1, 0, 0, 1])
    assert err.value.offenders  # names the violated momenta
    with pytest.raises(AnnihilatorError):
        kernel_dim_at(F, [Fraction(0)] * 4, [0, 0, 0, 0])


@pytest.mark.parametrize("F", [demo_frame("dim4-engel"), random_general_frame(random.Random(8), 5, 3)],
                         ids=["corank1", "fields"])
def test_kernel_dim_refuses_inexact_and_zero_covectors(F):
    # p is read as exact ratios before any check: a float raises TypeError
    # wherever it sits, even where its value annihilates
    x, p = sample_annihilator_point(F, random.Random(1), SamplerConfig(seed=1))
    for k in range(F.n):
        q = list(p)
        q[k] = float(q[k])
        with pytest.raises(TypeError):
            kernel_dim_at(F, x, q)
    with pytest.raises(AnnihilatorError) as err:
        kernel_dim_at(F, x, [0] * F.n)
    assert err.value.offenders == []


@pytest.mark.parametrize("F", [demo_frame("dim6-cubic"), random_general_frame(random.Random(8), 5, 3)],
                         ids=["corank1", "fields"])
def test_annihilator_pairings_match_fraction_loop(F):
    # the pairings are read at the phase point (x, P/g) and scaled back;
    # the offenders of kernel_dim_at, their values and its error are those
    # of the Fraction loop, on the bundle and off it, for covectors with
    # zeros and mixed denominators
    rng = random.Random(5)
    config = SamplerConfig(seed=0)
    dens = (1, 2, 3, 7, 64)
    goh = goh_matrix(F)
    checked = 0
    for _ in range(24):
        x, p = sample_annihilator_point(F, rng, config)
        assert reference_offenders(F, x, p) == []
        kernel_dim_at(F, x, p, goh)
        for q in ([v + Fraction(rng.randint(-3, 3), rng.choice(dens)) for v in p],
                  [Fraction(rng.randint(-2, 2), rng.choice(dens)) for _ in p],
                  [0] * (F.n - 1) + [rng.randint(1, 3)]):
            want = reference_offenders(F, x, q)
            # a zero covector has no offenders, and is refused all the same
            if not want and any(q):
                kernel_dim_at(F, x, q, goh)
                continue
            checked += bool(want)
            with pytest.raises(AnnihilatorError) as err:
                kernel_dim_at(F, x, q, goh)
            got = err.value.offenders
            assert got == want and all(type(v) is Fraction for _, v in got)
            assert str(err.value) == str(AnnihilatorError(want))
    assert checked > 24


@pytest.mark.parametrize("F", [demo_frame("dim4-engel"), random_general_frame(random.Random(8), 5, 3)],
                         ids=["corank1", "fields"])
def test_kernel_dim_refuses_points_of_the_wrong_length(F):
    # x and p are read as one phase point, so a short p beside a long x
    # would fill it; every mismatch is refused before any value is taken
    x, p = sample_annihilator_point(F, random.Random(1), SamplerConfig(seed=1))
    x, p = list(x), list(p)
    for xs, ps in ((x + [Fraction(1)], p[:-1]), (x[:-1], p + [Fraction(0)]),
                   (x, p + [Fraction(0)]), (x, p[:-1])):
        with pytest.raises(ValueError) as err:
            kernel_dim_at(F, xs, ps)
        assert type(err.value) is ValueError
        assert f"need {F.n} coordinates each, got {len(xs)} and {len(ps)}" in str(err.value)


@pytest.mark.parametrize("F", [demo_frame("dim6-cubic"), random_general_frame(random.Random(8), 5, 3)],
                         ids=["corank1", "fields"])
def test_kernel_dim_at_values_one_phase_point(monkeypatch, F):
    # the annihilator check and the rank read one evaluator at (x, P/g)
    built = []
    original = exactpoly._exact_pairs

    def counted(point):
        built.append(tuple(point))
        return original(point)

    for module in (exactpoly, abnormal, pfaffian, vectorfield):
        monkeypatch.setattr(module, "_exact_pairs", counted)
    goh = goh_matrix(F)
    for seed in range(3):
        x, p = sample_annihilator_point(F, random.Random(seed), SamplerConfig(seed=seed))
        for args in ((F, x, p, goh), (F, x, p)):
            built.clear()
            kernel_dim_at(*args)
            assert len(built) == 1 and built[0][:F.n] == x and len(built[0]) == 2 * F.n


# -- generators --------------------------------------------------------------------


def test_dim4_generator_matches_display():
    # Z = [X1,X2](x4) X3 + [X3,X1](x4) X2 + [X2,X3](x4) X1
    for F in (demo_frame("dim4"), random_corank1_frame(random.Random(33), 4, max_terms=3)):
        g = abnormal_generators(F, 2)[0]
        display = (bracket_momentum(F, 1, 2) * F.fields[2]
                   + bracket_momentum(F, 3, 1) * F.fields[1]
                   + bracket_momentum(F, 2, 3) * F.fields[0])
        assert g.Z == display


def test_dim5_generators_match_display_up_to_sign():
    # the four displayed generators of a corank-1 frame in dimension 5
    for F in (demo_frame("dim5"), random_corank1_frame(random.Random(44), 5)):
        X = F.fields
        c = lambda i, j: bracket_momentum(F, i, j)
        displays = {
            (2, 3, 4): c(4, 2) * X[2] + c(3, 4) * X[1] + c(2, 3) * X[3],
            (1, 3, 4): c(1, 4) * X[2] + c(3, 1) * X[3] + c(4, 3) * X[0],
            (1, 2, 4): c(1, 2) * X[3] + c(4, 1) * X[1] + c(2, 4) * X[0],
            (1, 2, 3): c(1, 2) * X[2] + c(3, 1) * X[1] + c(2, 3) * X[0],
        }
        for g in abnormal_generators(F, 2):
            want = displays[g.I]
            assert g.Z == want or g.Z == -want


def test_engel_generator_is_x1_plus_x3():
    F = demo_frame("dim4-engel")
    g = abnormal_generators(F, 2)[0]
    assert g.Z == F.fields[0] + F.fields[2]
    assert g.Z == VectorField([parse_expression(e, Space(4)) for e in ("1", "0", "1", "x2")])


def test_generator_homogeneity():
    # p -> lam p scales the x-block by lam^(r/2), the p-block by lam^(r/2+1)
    for name, r in [("dim4", 2), ("dim5", 2), ("dim6-cubic", 4)]:
        F = demo_frame(name)
        degrees_seen = set()
        for g in abnormal_generators(F, r):
            if g.Y.is_zero():
                continue
            xd, pd = g.p_degree
            assert xd in (r // 2, None)   # None only for an all-zero block
            assert pd in (r // 2 + 1, None)
            degrees_seen.add((xd, pd))
            n = F.n
            for lam in (Fraction(2), Fraction(-3)):
                for k, comp in enumerate(g.Y.components):
                    expect = lam ** (r // 2 if k < n else r // 2 + 1)
                    assert scale_fiber(comp, lam) == expect * comp
        if name in ("dim4", "dim5"):
            assert (r // 2, r // 2 + 1) in degrees_seen
        else:
            assert degrees_seen


def test_generator_kernel_membership_at_annihilator_points():
    # H(point) . u(point) = 0 exactly, u the frame coefficients of Y_I
    cases = [("dim4", 2), ("dim5", 2), ("dim6-cubic", 4)]
    for name, r in cases:
        F = demo_frame(name)
        goh = goh_matrix(F)
        gens = abnormal_generators(F, r, goh)
        rng = random.Random(hash(name) % 1000)
        config = SamplerConfig(seed=1, count=1)
        for _ in range(6):
            x, p = sample_annihilator_point(F, rng, config)
            point = list(x) + list(p)
            H = goh.H.evaluate(point)
            for g in gens:
                u = [Fraction(0)] * F.m
                for i, cf in zip(g.I, g.coefficients):
                    u[i - 1] = cf.eval_exact(point)
                assert matvec(H, u) == [Fraction(0)] * F.m


def test_kernel_residual_matches_the_matvec_and_the_cofactor_identity():
    # at exact points (Ht . u)_i is the Fraction matvec of Ht(x) and u(x);
    # as a polynomial it is zero for i in I, and (-1)^k phi(Ht, J) for i
    # outside I, J = I + {i} and k the position of i in J, at every rank
    rng = random.Random(5)
    frames = [demo_frame(name) for name in ("dim4", "dim5", "dim6-cubic", "martinet")]
    frames += [random_corank1_frame(rng, n, 3, 3) for n in (4, 5, 5, 6)]
    nonzero = 0
    for F in frames:
        goh = goh_matrix(F)
        for r in range(0, F.m, 2):
            for g in abnormal_generators(F, r, goh):
                residual = kernel_residual(g, goh)
                assert len(residual) == F.m
                for _ in range(2):
                    x = random_rational_point(rng, F.n)
                    u = [Fraction(0)] * F.m
                    for i, c in zip(g.I, g.reduced_coefficients):
                        u[i - 1] = c.eval_exact(x)
                    assert [q.eval_exact(x) for q in residual] == matvec(goh.reduced.evaluate(x), u)
                for i, q in enumerate(residual, start=1):
                    if i in g.I:
                        assert q.is_zero()
                        continue
                    J = tuple(sorted(g.I + (i,)))
                    phi = pfaffian_by_definition(goh.reduced, J)
                    assert q == (-phi if J.index(i) % 2 else phi)
                    nonzero += bool(q)
    assert nonzero
    # a general frame has no reduced matrix and no projection
    G = random_general_frame(rng, 3, 2)
    goh = goh_matrix(G)
    with pytest.raises(NormalFormError):
        kernel_residual(abnormal_generators(G, 0, goh)[0], goh)


def test_kernel_residual_is_zero_at_the_certify_rank():
    # at the generic rank every generator is a Goh kernel section: the four
    # flow demos and a sparse frame (n = 13, generic rank 8, 220
    # generators); martinet's certify rank 0 is below its generic rank 2,
    # where the fields are kernel sections only where H = 0
    sparse = ["-3/2*x8*x9", "-2*x13", "-x2", "-3/2*x9", "-x10", "x10", "x1", "0", "0", "0",
              "-2*x4*x10", "0"]
    frames = [demo_frame(name) for name in ("dim4", "dim4-engel", "dim5", "dim6-cubic")]
    frames.append(Frame.corank1(13, [parse_expression(t, Space(13)) for t in sparse]))
    for F in frames:
        goh = goh_matrix(F)
        r = skew_rank(goh.reduced)
        gens = abnormal_generators(F, r, goh)
        assert all(not any(kernel_residual(g, goh)) for g in gens), F.name
    assert (F.n, r, len(gens)) == (13, 8, 220)
    F = demo_frame("martinet")
    goh = goh_matrix(F)
    assert skew_rank(goh.reduced) == 2
    assert all(any(kernel_residual(g, goh)) for g in abnormal_generators(F, 0, goh))


def test_corank1_coherence():
    # Z_I(x_j) = eps(I,j) phi_{I-j}(x) for j in I, and 0 for other j <= n-1
    for name in ("dim4", "dim5", "dim6-cubic"):
        F = demo_frame(name)
        goh = goh_matrix(F)
        r = skew_rank(goh.reduced)
        r = r if r < F.m else r - 2
        for g in abnormal_generators(F, r, goh):
            for j in range(1, F.n):
                if j in g.I:
                    k = g.I.index(j)
                    assert g.Z.components[j - 1] == g.reduced_coefficients[k]
                    assert epsilon_sign(g.I, j) * g.Z.components[j - 1] == \
                        epsilon_sign(g.I, j) * g.reduced_coefficients[k]
                else:
                    assert g.Z.components[j - 1].is_zero()


def test_zero_generator_projects_to_zero_field():
    # commuting corank-1 frame: every Pfaffian coefficient vanishes at r = 2
    s = Space(4)
    F = Frame.corank1(4, [Polynomial.zero(s)] * 3)
    for g in abnormal_generators(F, 2):
        assert g.Y.is_zero()
        assert g.Z.is_zero()


def test_projection_check_covers_zero_components_of_y():
    # a zero component of Y is checked without a substitution: it needs
    # the matching component of Z to be zero, and fails as before if not
    F = demo_frame("dim5")
    goh = goh_matrix(F)
    g = abnormal_generators(F, 2, goh)[0]
    k = next(k for k, c in enumerate(g.Z.components) if not c.is_zero())
    hollow = AbnormalGenerator(g.I, VectorField.zero(F.space.phase),
                               g.coefficients)
    with pytest.raises(NormalFormError, match=re.escape(f"component {k + 1} of Y_{g.I} ")):
        project_corank1(hollow, F, goh)
    assert project_corank1(g, F, goh) == g


def test_certify_path_forms_no_empty_product(monkeypatch):
    # brackets, Pfaffian expansions, generator sums and the projection
    # check test for zero before they multiply
    frames = [demo_frame(name) for name in DEMOS]
    rng = random.Random(3)
    frames += [random_corank1_frame(rng, 7), random_corank1_frame(rng, 9)]
    products = {"all": 0, "empty": 0}
    add_product = exactpoly._Sum.add_product

    def counting(acc, a, b, sign=1, order=None):
        products["all"] += 1
        products["empty"] += not a or not b
        return add_product(acc, a, b, sign, order)

    monkeypatch.setattr(exactpoly._Sum, "add_product", counting)
    for F in frames:
        goh = goh_matrix(F)
        for r in range(0, F.m, 2):
            for g in abnormal_generators(F, r, goh):
                divergence_certificate(g, F, goh)
    assert products["all"] > 1000
    assert products["empty"] == 0


def test_projection_requires_normal_form():
    rng = random.Random(3)
    F = random_general_frame(rng, 4, 3)
    g = abnormal_generators(F, 2)[0]
    assert g.Z is None
    with pytest.raises(NormalFormError):
        project_corank1(g, F)


# -- certificates --------------------------------------------------------------------


def test_certificate_dim4():
    F = demo_frame("dim4")
    g = abnormal_generators(F, 2)[0]
    cert = divergence_certificate(g, F)
    assert cert.ok()
    assert cert.base_constant == 2
    # coefficients proportional to d(A_j)/dx4 and div Z = sum c_j Z(x_j)
    dA = [A.partial(3) for A in F.normal_form]
    assert list(cert.base_coefficients) == [2 * dA[j - 1] for j in g.I]
    combo = sum((c * g.Z.components[j - 1] for c, j in zip(cert.base_coefficients, g.I)),
                Polynomial.zero(Space(4)))
    assert divergence(g.Z) == combo


def test_certificate_engel_trivial_combination():
    F = demo_frame("dim4-engel")
    g = abnormal_generators(F, 2)[0]
    cert = divergence_certificate(g, F)
    assert cert.ok()
    assert divergence(g.Z).is_zero()
    assert cert.base_constant == 0


def test_certificate_dim5_all_four():
    F = demo_frame("dim5")
    goh = goh_matrix(F)
    for g in abnormal_generators(F, 2, goh):
        assert divergence_certificate(g, F, goh).ok()


def test_certificates_of_a_frame_share_its_normal_form_partials(monkeypatch):
    # d(A_j)/dx_n is taken once per frame, not once per generator
    F = demo_frame("dim5")
    goh = goh_matrix(F)
    gens = abnormal_generators(F, 2, goh)
    calls = []
    original = GohMatrix.normal_partials.func

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GohMatrix, "normal_partials", cached_property(counted))
    GohMatrix.normal_partials.__set_name__(GohMatrix, "normal_partials")
    certs = [divergence_certificate(g, F, goh) for g in gens]
    assert len(gens) == 4 and calls == [goh]
    assert goh.normal_partials == tuple(A.partial(4) for A in F.normal_form)
    for g, cert in zip(gens, certs):
        assert cert.base_coefficients == tuple(goh.normal_partials[j - 1] * cert.base_constant
                                               for j in g.I)
    assert goh_matrix(random_general_frame(random.Random(71), 4, 3)).normal_partials is None


def test_certificate_dim6():
    F = demo_frame("dim6-cubic")
    goh = goh_matrix(F)
    for g in abnormal_generators(F, 4, goh):
        assert divergence_certificate(g, F, goh).ok()


def test_certificate_random_corank1_frames():
    for seed, n in [(61, 4), (62, 4), (63, 5)]:
        F = random_corank1_frame(random.Random(seed), n, max_terms=2)
        goh = goh_matrix(F)
        for g in abnormal_generators(F, 2, goh):
            assert divergence_certificate(g, F, goh).ok()


def test_certificate_constant_cross_check_second_frame():
    # a second frame with x4-dependent coefficients: the solved constant must
    # land on the same value as the dim4 fixture (r/2 + 1 = 2 at rank 2)
    s = Space(4)
    F = Frame.corank1(4, [parse_expression(e, s) for e in ("x4^2", "x1*x4", "x2 + x4")])
    g = abnormal_generators(F, 2)[0]
    cert = divergence_certificate(g, F)
    assert cert.ok()
    assert cert.base_constant == 2


def test_frames_generators_and_certificates_store_no_derived_value():
    # n, m, the rank and the certificate constants are read from the data
    F = demo_frame("dim5")
    goh = goh_matrix(F)
    g = abnormal_generators(F, 2, goh)[0]
    cert = divergence_certificate(g, F, goh)
    assert [f.name for f in fields(F)] == ["fields", "name"]
    assert [f.name for f in fields(F) if f.kw_only] == ["name"]
    assert [f.name for f in fields(g)] == ["I", "Y", "coefficients", "Z",
                                           "reduced_coefficients", "p_degree"]
    assert [f.name for f in fields(cert)] == ["subject", "phase_divergence", "base_constant",
                                              "base_coefficients", "base_residual"]
    assert (F.n, F.m, g.rank) == (5, 4, 2)
    assert cert.jacobi_expansion == Polynomial.zero(F.space.phase)
    assert cert.bracket_order == "{h^j,{h^k,h^l}}"


def test_certificate_general_frame_phase_parts():
    # no projection: only div(Y) = 0 and the Jacobi expansion are checked
    F = random_general_frame(random.Random(71), 4, 3)
    goh = goh_matrix(F)
    for g in abnormal_generators(F, 2, goh):
        cert = divergence_certificate(g, F, goh)
        assert cert.phase_divergence.is_zero()
        assert cert.jacobi_expansion.is_zero()
        assert cert.base_residual is None


def test_certificate_failure_carries_residual():
    # tampered generator: divergence is no longer zero
    F = demo_frame("dim4-engel")
    g = abnormal_generators(F, 2)[0]
    phase = Space(4, True)
    bogus_components = list(g.Y.components)
    bogus_components[0] = bogus_components[0] + Polynomial.variable(phase, 0)
    bogus = AbnormalGenerator(g.I, VectorField(bogus_components),
                              g.coefficients, g.Z, g.reduced_coefficients, g.p_degree)
    with pytest.raises(CertificateError) as err:
        divergence_certificate(bogus, F)
    assert not err.value.residual.is_zero()


def _reference_jacobi(I, goh):
    """The expansion by its definition: no memo, H.entry(k, l) in both orders."""
    acc = Polynomial.zero(goh.frame.space.phase)
    for j in I:
        rest_j = tuple(i for i in I if i != j)
        for k in rest_j:
            rest_jk = tuple(i for i in rest_j if i != k)
            for l in rest_jk:
                sign = epsilon_sign(I, j) * epsilon_sign(rest_j, k) * epsilon_sign(rest_jk, l)
                phi = pfaffian_by_definition(goh.H, tuple(i for i in rest_jk if i != l))
                triple = poisson_bracket(goh.hamiltonians[j - 1], goh.H.entry(k, l))
                acc = acc + phi * triple * sign
    return acc


def test_certificate_fails_off_the_bracket_matrix():
    # the Jacobi part of a certificate is one check per frame, so check that
    # it does not pass by construction: on a Goh matrix that is not the
    # bracket matrix, where the triple-bracket expansion of every generator
    # is nonzero, every certificate fails on the frame's first triple, and
    # carries its cyclic sum by the definition as the residual
    frames = [(demo_frame("dim4"), (2,)), (demo_frame("dim5"), (2,)),
              (demo_frame("dim6-cubic"), (2, 4)),
              (random_corank1_frame(random.Random(81), 7), (2, 4))]
    for F, ranks in frames:
        goh = goh_matrix(F)
        tampered = tampered_goh(F)
        residual = _cyclic_sum(tampered, (1, 2, 3), reference_poisson)
        assert not residual.is_zero()
        for r in ranks:
            for g in abnormal_generators(F, r, goh):
                assert not _reference_jacobi(g.I, tampered).is_zero(), (F.name, g.I)
                with pytest.raises(CertificateError) as err:
                    divergence_certificate(g, F, tampered)
                assert "T=(1, 2, 3)" in str(err.value), (F.name, g.I)
                assert err.value.residual == residual
                assert err.value.detail == {"I": list(g.I), "residual": str(residual)}
                assert divergence_certificate(g, F, goh).jacobi_expansion.is_zero()


def test_cyclic_jacobi_sums_vanish_on_the_bracket_matrix():
    # the Poisson Jacobi identity, checked on the library's own brackets:
    # J(T) = {h^a, H[b,c]} - {h^b, H[a,c]} + {h^c, H[a,b]} = 0 for every triple
    frames = [demo_frame(name) for name in DEMOS]
    frames += [random_corank1_frame(random.Random(seed), n) for seed, n in ((81, 7), (82, 8))]
    for F in frames:
        goh = goh_matrix(F)
        for T in combinations(range(1, F.m + 1), 3):
            assert goh._cyclic_sum(T, {}).is_zero(), (F.name, T)
        assert goh.jacobi_failure is None, F.name


def _goh_with_shifted_entry(F, k, l, shift="x1"):
    """The Goh matrix of F with ``shift`` added to the single entry H[k,l]."""
    goh = goh_matrix(F)
    phase = F.space.phase
    upper = dict(goh.H.upper)
    upper[(k, l)] = goh.H.entry(k, l) + parse_expression(shift, phase)
    return GohMatrix(F, SkewMatrix(phase, F.m, upper), goh.hamiltonians, goh.reduced)


def _cyclic_sum(goh, T, bracket):
    """J(T) by its definition on the reference sum, each Poisson bracket
    formed by ``bracket``."""
    a, b, c = T
    return reference_sum(goh.H.space, [
        (sign, bracket(goh.hamiltonians[j - 1], goh.H.entry(k, l)))
        for j, k, l, sign in ((a, b, c, 1), (b, a, c, -1), (c, a, b, 1))])


def _jacobi_test_frames():
    frames = [demo_frame(name) for name in DEMOS]
    return frames + [random_corank1_frame(random.Random(seed), n) for seed, n in ((81, 7), (82, 8))]


def test_jacobi_sums_match_the_coordinate_brackets():
    # a cyclic sum differentiates along the cached Hamiltonian fields; it
    # must equal the cyclic sum of coordinate-formula brackets, on bracket
    # and on tampered matrices; a shift that depends on p reaches the
    # p-block products, which the x-only shifts of the tampered matrices
    # leave out
    nonzero = 0
    cases = [(F, "x1") for F in _jacobi_test_frames()]
    cases += [(random_general_frame(random.Random(seed), 4, 3), "x2*p1 + x1*p3")
              for seed in (71, 72, 73, 74)]
    for F, shift in cases:
        gohs = [goh_matrix(F), tampered_goh(F)]
        if F.m >= 3:
            gohs.append(_goh_with_shifted_entry(F, F.m - 1, F.m, shift))
        for goh in gohs:
            for T in combinations(range(1, F.m + 1), 3):
                got = goh._cyclic_sum(T, {})
                assert got == _cyclic_sum(goh, T, reference_poisson), (F.name, T)
                assert got == _cyclic_sum(goh, T, poisson_bracket), (F.name, T)
                nonzero += bool(got)
    assert nonzero > 50


def _scaled(f, c):
    return Polynomial(f.space, {e: v * c for e, v in f.terms.items()})


def _reference_pfaffian(A, I, memo):
    """phi(A, I) by the calibrated pivot recursion on the reference loops:
    every product is formed, zero or not, and added to a fresh copy."""
    if I not in memo:
        if len(I) % 2:
            memo[I] = Polynomial.zero(A.space)
        elif len(I) <= 2:
            memo[I] = A.entry(*I) if I else Polynomial.constant(A.space, 1)
        else:
            rest = I[1:]
            raw = reference_sum(A.space, [
                (epsilon_sign(I, I[0]) * epsilon_sign(rest, j),
                 reference_product(A.entry(I[0], j),
                                   _reference_pfaffian(A, tuple(k for k in rest if k != j), memo)))
                for j in rest])
            memo[I] = _scaled(raw, _recursion_prefactor(len(I)))
    return memo[I]


def _reference_determinant(A, rows, cols):
    """The cofactor expansion along the first row, without a memo."""
    if not rows:
        return Polynomial.constant(A.space, 1)
    return reference_sum(A.space, [
        ((-1) ** pos, reference_product(A.entry(rows[0], j),
                                        _reference_determinant(A, rows[1:], cols[:pos] + cols[pos + 1:])))
        for pos, j in enumerate(cols)])


def _reference_derivative(A, I, D, memo):
    """The calibrated derivative formula over ordered pairs (i, j) of I."""
    def apply(f):
        return reference_sum(A.space, [(1, reference_product(c, f.partial(pos)))
                                       for pos, c in enumerate(D.components)])

    signed = []
    for i in I:
        rest = tuple(k for k in I if k != i)
        for j in rest:
            phi = _reference_pfaffian(A, tuple(k for k in rest if k != j), memo)
            signed.append((epsilon_sign(I, i) * epsilon_sign(rest, j),
                           reference_product(phi, apply(A.entry(i, j)))))
    return _scaled(reference_sum(A.space, signed), _derivative_prefactor(len(I)))


def test_pfaffian_sums_match_the_reference_loops():
    # the Pfaffian recursion, the determinant oracle and the derivative
    # formula are signed sums of products; each must equal the plain loops,
    # on bracket and on tampered matrices
    for F in (demo_frame("dim5"), demo_frame("dim6-cubic"),
              random_corank1_frame(random.Random(81), 7)):
        goh, tampered = goh_matrix(F), tampered_goh(F)
        fours = index_sets(F.m, 4)
        for A in (goh.H, tampered.H):
            memo = {}
            for I in chain.from_iterable(index_sets(F.m, k) for k in range(4, F.m + 1, 2)):
                pfaffian_by_recursion(A, I)
            for I, value in A._pfaffians.items():
                assert value == _reference_pfaffian(A, I, memo), (F.name, I)
            for I, J in zip(fours, fours[1:] + fours[:1]):
                assert minor_determinant(A, I) == _reference_determinant(A, I, I)
                assert minor_determinant(A, I, J) == _reference_determinant(A, I, J)
                D = goh.ham_fields[I[0] - 1]
                assert pfaffian_derivative(A, I, D) == _reference_derivative(A, I, D, memo)


def test_jacobi_identity_check_per_frame():
    for F in _jacobi_test_frames():
        goh = goh_matrix(F)
        assert goh.jacobi_failure is None and goh.jacobi_failure is None
        if F.m >= 3:
            assert tampered_goh(F).jacobi_failure is not None, F.name
            assert _goh_with_shifted_entry(F, F.m - 1, F.m).jacobi_failure is not None, F.name


def test_jacobi_check_memoizes_the_cyclic_sums_and_keeps_no_partials(monkeypatch):
    # the check shares one cache of partials across its triples, so it takes
    # each partial of a Goh entry once; the J(T) it keeps must be the cyclic
    # sum of coordinate brackets, every earlier triple's sum must be zero,
    # and the cache must be gone once the check ends
    kept = {"frame", "H", "hamiltonians", "ham_fields", "reduced", "jacobi_failure"}
    taken = []
    plain_partial = Polynomial.partial

    def counted_partial(f, pos):
        taken.append((id(f), pos))
        return plain_partial(f, pos)

    failures = 0
    for F in _jacobi_test_frames():
        gohs = [goh_matrix(F)]
        if F.m >= 3:
            gohs += [tampered_goh(F), _goh_with_shifted_entry(F, F.m - 1, F.m)]
        for goh in gohs:
            taken.clear()
            # the fields are built on first read, by partials of the h^i
            goh.ham_fields
            monkeypatch.setattr(Polynomial, "partial", counted_partial)
            failure = goh.jacobi_failure
            monkeypatch.setattr(Polynomial, "partial", plain_partial)
            assert len(taken) == len(set(taken)), F.name
            assert {f for f, _ in taken} <= {id(entry) for entry in goh.H.upper.values()}
            triples = list(combinations(range(1, F.m + 1), 3))
            if failure is not None:
                T, value = failure
                assert value and value == _cyclic_sum(goh, T, reference_poisson), (F.name, T)
                triples = triples[:triples.index(T)]
            for T in triples:
                assert _cyclic_sum(goh, T, reference_poisson).is_zero(), (F.name, T)
            assert set(vars(goh)) == kept, F.name
            failures += failure is not None
    assert failures == 2 * sum(F.m >= 3 for F in _jacobi_test_frames())


def test_jacobi_failure_names_the_first_nonzero_triple():
    # only the triples through {5, 6} break when H[5,6] alone is wrong, so
    # the frame's first failing triple is (1, 5, 6)
    F = random_corank1_frame(random.Random(81), 7)
    shifted = _goh_with_shifted_entry(F, 5, 6)
    residual = _cyclic_sum(shifted, (1, 5, 6), reference_poisson)
    assert shifted.jacobi_failure == ((1, 5, 6), residual)
    expanded = []
    for g in abnormal_generators(F, 4, goh_matrix(F)):
        with pytest.raises(CertificateError) as err:
            divergence_certificate(g, F, shifted)
        assert "T=(1, 5, 6)" in str(err.value), g.I
        assert err.value.residual == residual
        if not _reference_jacobi(g.I, shifted).is_zero():
            expanded.append(g.I)
    # the per-frame check is the stronger one: every rank-4 generator fails
    # it, while the triple-bracket expansion of its divergence is nonzero
    # for these two only
    assert expanded == [(1, 2, 4, 5, 6), (1, 3, 4, 5, 6)]


# -- singular set ------------------------------------------------------------------


def test_singular_set_martinet():
    F = demo_frame("martinet")
    eqs = singular_set_equations(F, 2)
    assert eqs == [parse_expression("2*x1", Space(3))]


def test_singular_set_engel_empty():
    F = demo_frame("dim4-engel")
    eqs = singular_set_equations(F, 2)
    values = [str(q) for q in eqs]
    assert values == ["1", "0", "1"]  # contains a unit: empty singular set


def test_singular_set_dim6_vanishes_on_hyperplane():
    F = demo_frame("dim6-cubic")
    eqs = singular_set_equations(F, 4)
    assert any(not q.is_zero() for q in eqs)
    s = Space(6)
    sub = {2: -Polynomial.variable(s, 1)}  # x3 -> -x2
    for q in eqs:
        assert q.substitute(sub).is_zero()


def test_singular_set_needs_normal_form():
    F = random_general_frame(random.Random(5), 4, 3)
    with pytest.raises(NormalFormError):
        singular_set_equations(F, 2)


# -- stratification ----------------------------------------------------------------


def test_stratify_engel_single_level():
    F = demo_frame("dim4-engel")
    S = stratify(F, SamplerConfig(seed=5, count=32))
    assert S.dims == (1,)
    assert S.strata[0].has_interior
    assert S.strata[0].parity_ok


def test_stratify_dim6_levels_and_witnesses():
    F = demo_frame("dim6-cubic")
    S = stratify(F, SamplerConfig(seed=7, count=64))
    assert S.dims == (1, 3)
    deep = S.strata[1]
    assert deep.dim == 3 and not deep.has_interior
    for w in deep.witnesses:
        assert w.exact
        assert w.x[1] + w.x[2] == 0  # exactly on the projected constraint
    assert all(st.parity_ok for st in S.strata)


def test_stratify_even_rank_generic_dimension_zero():
    F = random_corank1_frame(random.Random(91), 5, max_terms=3)
    S = stratify(F, SamplerConfig(seed=91, count=24))
    assert S.dims[0] == 0


def test_samples_stay_inside_the_box():
    # the grid numerators are rounded inwards: a box (0.01, 0.5) never
    # samples 0, and neither does (-1.01, -0.001)
    F = demo_frame("dim6-cubic")
    for box in ((Fraction(1, 100), Fraction(1, 2)), (Fraction(-101, 100), Fraction(-1, 1000))):
        rng = random.Random(4)
        config = SamplerConfig(seed=4, count=32, box=box)
        for _ in range(32):
            x, _ = sample_annihilator_point(F, rng, config)
            assert all(box[0] <= v <= box[1] for v in x), (box, x)


def test_box_with_fewer_than_two_grid_values_is_refused():
    for box in ((Fraction(0), Fraction(1, 100)), (Fraction(1, 100), Fraction(1, 64)),
                (Fraction(1, 100), Fraction(1, 50))):
        with pytest.raises(SamplingError, match="fewer than two sample values"):
            SamplerConfig(seed=1, box=box)
    # two grid values, 0 and 1/64, are enough
    SamplerConfig(seed=1, box=(Fraction(0), Fraction(1, 64)))


def test_stratify_deterministic():
    F = demo_frame("dim6-cubic")
    a = stratify(F, SamplerConfig(seed=3, count=32))
    b = stratify(F, SamplerConfig(seed=3, count=32))
    assert a.dims == b.dims
    assert [w.x for st in a.strata for w in st.witnesses] == \
        [w.x for st in b.strata for w in st.witnesses]


def test_stratify_builds_the_minors_of_each_rank_once(monkeypatch):
    # the walk down the loci and the strata read the minors of a rank from
    # the reduced matrix's Pfaffian memo, so each minor is expanded once and
    # each locus holds the memo's polynomials
    real = pfaffian._raw_recursion_sum
    expanded = []

    def counted(A, I, i0, sub):
        expanded.append((id(A), I))
        return real(A, I, i0, sub)

    monkeypatch.setattr(pfaffian, "_raw_recursion_sum", counted)
    F = demo_frame("dim6-cubic")
    goh = goh_matrix(F)
    S = stratify(F, SamplerConfig(seed=7, count=64), goh)
    assert S.dims == (1, 3)
    assert expanded and len(expanded) == len(set(expanded))
    for st in S.strata:
        memo = [goh.reduced._pfaffians[I] for I in index_sets(F.m, st.rank)]
        assert len(st.vanishing_locus) == len(memo) > 0
        assert all(q is phi for q, phi in zip(st.vanishing_locus, memo)), st.rank


def test_stratify_reaches_a_locus_root_with_a_large_denominator():
    # the Goh matrix vanishes on x1 = 1/1000003, a root whose denominator
    # is past 10^6
    space = Space(3)
    F = Frame.corank1(3, [parse_expression(t, space) for t in ("0", "(1000003*x1 - 1)^2")])
    S = stratify(F, SamplerConfig(seed=7, count=16))
    assert S.dims == (0, 2)
    assert S.strata[1].witnesses
    assert all(w.x[0] == Fraction(1, 1000003) for w in S.strata[1].witnesses)


def test_a_seed_the_locus_search_cannot_move_is_off_the_locus(monkeypatch):
    # each seed of the walk is an exact witness of the current rank r, so
    # some r-minor is exactly nonzero at it: a seed that no rational root
    # moves onto the locus is off the locus, however small its minors are
    calls = []
    search = abnormal._project_onto_locus

    def recorded(minors, x, box):
        calls.append((minors, x, search(minors, x, box)))
        return calls[-1][2]

    monkeypatch.setattr(abnormal, "_project_onto_locus", recorded)
    space = Space(3)
    # loci at x1 = +-1/sqrt(2) inside the box and +-sqrt(2) outside it, with
    # minors below 10^-8 at every sample in the second frame
    frames = [Frame.corank1(3, [parse_expression(t, space) for t in ("0", A)])
              for A in ("1/3*x1^3 - 1/2*x1", "1/3000000000*x1^3 - 2/1000000000*x1")]
    frames += [demo_frame(name) for name in DEMOS if demo_frame(name).omega is not None]
    frames += [random_corank1_frame(random.Random(k), n) for k, n in ((1, 3), (2, 4), (3, 5))]
    for F in frames:
        for seed in range(3):
            stratify(F, SamplerConfig(seed=seed, count=16))
    missed = [(minors, x) for minors, x, point in calls if point is None]
    assert missed and len(missed) < len(calls)
    for minors, x in missed:
        assert any(q.eval_exact(x) for q in minors), x


def _minors(*texts):
    return [parse_expression(t, Space(2)) for t in texts]


# the sampler's default box
BOX = (Fraction(-1), Fraction(1))


def test_locus_search_moves_onto_exact_rational_roots():
    x = (Fraction(0), Fraction(1, 2))
    # x1 reaches 1/1000003 before x2 is tried
    assert _project_onto_locus(_minors("(1000003*x1 - 1)*(x2 + 1)"), x, BOX) == \
        (Fraction(1, 1000003), Fraction(1, 2))
    # no rational root: no coordinate moves
    assert _project_onto_locus(_minors("x1^2 - 2"), x, BOX) is None
    # every returned point makes every minor vanish exactly
    rng = random.Random(2)
    reached = 0
    for _ in range(60):
        factors = [f"({rng.randint(-3, 3)}*x1 + {rng.randint(-3, 3)}*x2 + {rng.randint(-4, 4)}/"
                   f"{rng.randint(1, 5)})" for _ in range(3)]
        minors = _minors(f"{factors[0]}*{factors[1]}", f"{factors[0]}*{factors[2]}")
        start = tuple(Fraction(rng.randint(-64, 64), 64) for _ in range(2))
        # every root of these linear factors lies in [-8, 8]
        point = _project_onto_locus(minors, start, (Fraction(-8), Fraction(8)))
        if point is not None:
            reached += 1
            assert sum(a != b for a, b in zip(point, start)) <= 1
            assert all(q.eval_exact(point) == 0 for q in minors), (minors, start)
    assert reached > 30


def test_locus_search_tries_roots_in_the_documented_order():
    # 0 first when t divides, then by denominator, by numerator, p/q before -p/q
    def roots(text):
        q = parse_expression(text, Space(1))
        return list(_rational_roots([q.coefficient((i,)) for i in range(q.degree_in(0) + 1)]))

    half, third, two_sevenths = Fraction(1, 2), Fraction(1, 3), Fraction(2, 7)
    assert roots("(x1 - 1/3)^2*(x1 + 2/7)") == [third, -two_sevenths]
    assert roots("x1^2*(x1 + 2/7)*(x1 - 1/3)*(4*x1^2 - 1)") == \
        [0, half, -half, third, -two_sevenths]
    assert roots("x1^2 - 2") == roots("5") == roots("0") == []
    assert roots("3*x1^2") == [0]
    # the same order decides which root the projection moves to: x1 = 1/3,
    # unless another minor rules it out
    minor = "(x1 - 1/3)^2*(x1 + 2/7)*(x2 + 1)"
    x = (Fraction(0), Fraction(1, 2))
    assert _project_onto_locus(_minors(minor), x, BOX) == (third, Fraction(1, 2))
    assert _project_onto_locus(_minors(minor, "7*x1 + 2"), x, BOX) == \
        (-two_sevenths, Fraction(1, 2))
    # a minor x2 + 1 rules out every root in x1, so x2 moves instead
    assert _project_onto_locus(_minors(minor, "x2 + 1"), (Fraction(1), Fraction(1, 2)), BOX) == \
        (Fraction(1), Fraction(-1))


def test_locus_search_keeps_to_the_box():
    # a root outside the box is passed over for the next one inside it
    minors = _minors("(x1 - 1/3)^2*(x1 + 2/7)*(x2 + 1)")
    quarter, half, three_quarters = Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)
    assert _project_onto_locus(minors, (-quarter, -quarter), (-half, Fraction(0))) == \
        (Fraction(-2, 7), -quarter)
    # with no root of x1 inside, x2 moves, and with none of x2 either, nothing
    assert _project_onto_locus(minors, (-three_quarters,) * 2, (Fraction(-1), -half)) == \
        (-three_quarters, Fraction(-1))
    assert _project_onto_locus(minors, (three_quarters,) * 2, (half, Fraction(1))) is None
    # a box bound is inside the box
    assert _project_onto_locus(minors, (half, half), (Fraction(1, 3), Fraction(1))) == \
        (Fraction(1, 3), half)


def test_locus_search_work_is_bounded():
    assert _divisors(12) == [1, 2, 3, 4, 6, 12]
    assert _divisors(-1000003) == [1, 1000003]  # prime, certified below the bound
    assert _divisors(10007 * 10009) is None  # both prime factors past the bound
    # both end coefficients have 13860 divisors, more candidates than the
    # bound allows, so the search stops at once, as if no root existed
    a = 2 ** 10 * 3 ** 6 * 5 ** 4 * 7 ** 3 * 11 ** 2 * 13 ** 2
    assert a == 3272455105920000
    cubic = [parse_expression(f"{a} + x1^2 + {a}*x1^3", Space(1))]
    start = time.perf_counter()
    assert _project_onto_locus(cubic, (Fraction(0),), (Fraction(-a), Fraction(a))) is None
    assert time.perf_counter() - start < 1
    # the root of a linear polynomial is read off, whatever its coefficients
    for p, q in ((1, a), (10007 * 10009, a), (-a, 10007 * 10009)):
        assert list(_rational_roots([Fraction(-p), Fraction(q)])) == [Fraction(p, q)]
