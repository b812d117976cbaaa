import math
import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import matvec, random_corank1_frame, random_general_frame, scale_fiber
from singfol.abnormal import (
    AbnormalGenerator,
    AnnihilatorError,
    CertificateError,
    GohMatrix,
    NormalFormError,
    SamplerConfig,
    _jacobi_expansion,
    abnormal_generators,
    divergence_certificate,
    goh_matrix,
    kernel_dim_at,
    project_corank1,
    sample_annihilator_point,
    singular_set_equations,
    stratify,
)
from singfol import exactpoly
from singfol.demos import DEMOS, demo_frame
from singfol.exactpoly import Polynomial, Space, _add_terms, parse_expression
from singfol.pfaffian import SkewMatrix, epsilon_sign, pfaffian_by_definition, skew_rank
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
    F = Frame(3, 2, (
        VectorField([parse_expression(e, s) for e in ("1", "0", "0")], "base"),
        VectorField([parse_expression(e, s) for e in ("0", "1", "0")], "base"),
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
    assert g.Z == VectorField([parse_expression(e, Space(4)) for e in ("1", "0", "1", "x2")], "base")


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
    hollow = AbnormalGenerator(g.I, g.rank, VectorField.zero(F.space.phase, "phase"),
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
    mul_terms = exactpoly._mul_terms

    def counting(a, b, order=None):
        products["all"] += 1
        products["empty"] += not a or not b
        return mul_terms(a, b, order)

    monkeypatch.setattr(exactpoly, "_mul_terms", counting)
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
    bogus = AbnormalGenerator(g.I, g.rank, VectorField(bogus_components, "phase"),
                              g.coefficients, g.Z, g.reduced_coefficients, g.p_degree)
    with pytest.raises(CertificateError) as err:
        divergence_certificate(bogus, F)
    assert not err.value.residual.is_zero()


def _tampered_goh(F):
    """The Goh matrix of a corank-1 frame with E[k,l] added to every upper
    entry (k, l), where E[k,l] is the product of the x_i, i <= m, i not k, l.

    Its H is no longer the bracket matrix of its hamiltonians.  The bracket
    part of the expansion still cancels by the Jacobi identity, and each
    triple {a, b, c} leaves {h^a, E[b,c]} + {h^b, E[c,a]} + {h^c, E[a,b]},
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


def test_jacobi_expansion_nonzero_off_the_bracket_matrix():
    # a certificate passes on a zero expansion, so check that the expansion
    # is not zero by construction: on a Goh matrix that is not the bracket
    # matrix it must be nonzero and agree with the plain triple loop
    frames = [(demo_frame("dim4"), (2,)), (demo_frame("dim5"), (2,)),
              (demo_frame("dim6-cubic"), (2, 4)),
              (random_corank1_frame(random.Random(81), 7), (2, 4))]
    for F, ranks in frames:
        goh = goh_matrix(F)
        tampered = _tampered_goh(F)
        for r in ranks:
            for g in abnormal_generators(F, r, goh):
                expansion = _jacobi_expansion(g, tampered)
                assert not expansion.is_zero(), (F.name, g.I)
                assert expansion == _reference_jacobi(g.I, tampered), (F.name, g.I)
                assert _jacobi_expansion(g, goh).is_zero()


def test_cyclic_jacobi_sums_vanish_on_the_bracket_matrix():
    # the Poisson Jacobi identity, checked on the library's own brackets:
    # J(T) = {h^a, H[b,c]} - {h^b, H[a,c]} + {h^c, H[a,b]} = 0 for every triple
    frames = [demo_frame(name) for name in DEMOS]
    frames += [random_corank1_frame(random.Random(seed), n) for seed, n in ((81, 7), (82, 8))]
    for F in frames:
        goh = goh_matrix(F)
        triples = list(combinations(range(1, F.m + 1), 3))
        for T in triples:
            assert goh.jacobi_sum(T).is_zero(), (F.name, T)
        assert len(goh._jacobi) == len(triples)


def _goh_with_shifted_entry(F, k, l, shift="x1"):
    """The Goh matrix of F with ``shift`` added to the single entry H[k,l]."""
    goh = goh_matrix(F)
    phase = F.space.phase
    upper = dict(goh.H.upper)
    upper[(k, l)] = goh.H.entry(k, l) + parse_expression(shift, phase)
    return GohMatrix(F, SkewMatrix(phase, F.m, upper), goh.hamiltonians, goh.ham_fields,
                     goh.reduced)


def _coordinate_poisson(h, g):
    """{h, g} by the coordinate formula, in its loop order: for each k,
    + dh/dp_k dg/dx_k first, then - dh/dx_k dg/dp_k."""
    space = h.space
    out = {}
    for k in range(1, space.n + 1):
        xk, pk = space.x(k), space.p(k)
        if (dh := h.partial(pk)) and (dg := g.partial(xk)):
            _add_terms(out, (dh * dg).terms)
        if (dh := h.partial(xk)) and (dg := g.partial(pk)):
            _add_terms(out, (dh * dg).terms, -1)
    return Polynomial._trusted(space, out)


def _cyclic_sum(goh, T, bracket):
    """J(T) by its definition, each Poisson bracket formed by ``bracket``."""
    a, b, c = T
    acc = {}
    for j, k, l, sign in ((a, b, c, 1), (b, a, c, -1), (c, a, b, 1)):
        _add_terms(acc, bracket(goh.hamiltonians[j - 1], goh.H.entry(k, l)).terms, sign)
    return list(acc.items())


def _jacobi_test_frames():
    frames = [demo_frame(name) for name in DEMOS]
    return frames + [random_corank1_frame(random.Random(seed), n) for seed, n in ((81, 7), (82, 8))]


def test_jacobi_sums_keep_the_coordinate_bracket_order():
    # jacobi_sum differentiates along the cached Hamiltonian fields; its
    # keys, values and insertion order must be those of the cyclic sum of
    # coordinate-formula brackets, on bracket and on tampered matrices
    # a shift that depends on p reaches the p-block products, which the
    # x-only shifts of the tampered matrices leave out
    nonzero = 0
    cases = [(F, "x1") for F in _jacobi_test_frames()]
    cases += [(random_general_frame(random.Random(seed), 4, 3), "x2*p1 + x1*p3")
              for seed in (71, 72, 73, 74)]
    for F, shift in cases:
        gohs = [goh_matrix(F), _tampered_goh(F)]
        if F.m >= 3:
            gohs.append(_goh_with_shifted_entry(F, F.m - 1, F.m, shift))
        for goh in gohs:
            for T in combinations(range(1, F.m + 1), 3):
                got = list(goh.jacobi_sum(T).terms.items())
                assert got == _cyclic_sum(goh, T, _coordinate_poisson), (F.name, T)
                assert got == _cyclic_sum(goh, T, poisson_bracket), (F.name, T)
                nonzero += bool(got)
    assert nonzero > 50


def test_jacobi_identity_check_per_frame():
    for F in _jacobi_test_frames():
        goh = goh_matrix(F)
        assert goh.jacobi_identity_holds() and goh.jacobi_identity_holds()
        assert len(goh._jacobi) == math.comb(F.m, 3)
        if F.m >= 3:
            assert not _tampered_goh(F).jacobi_identity_holds(), F.name
            assert not _goh_with_shifted_entry(F, F.m - 1, F.m).jacobi_identity_holds(), F.name


def test_jacobi_failure_names_the_first_nonzero_triple():
    # every J(T) of the tampered matrix is nonzero: the first triple of I fails
    F = demo_frame("dim5")
    tampered = _tampered_goh(F)
    for g in abnormal_generators(F, 2, goh_matrix(F)):
        with pytest.raises(CertificateError) as err:
            divergence_certificate(g, F, tampered)
        assert f"T={g.I[:3]}" in str(err.value)
        assert err.value.residual == _reference_jacobi(g.I, tampered)
    # only the triples through {5, 6} break when H[5,6] alone is wrong, so
    # the first failing triple of I = (1, 2, 4, 5, 6) is (1, 5, 6)
    F = random_corank1_frame(random.Random(81), 7)
    shifted = _goh_with_shifted_entry(F, 5, 6)
    failing = []
    for g in abnormal_generators(F, 4, goh_matrix(F)):
        if _jacobi_expansion(g, shifted).is_zero():
            continue
        with pytest.raises(CertificateError) as err:
            divergence_certificate(g, F, shifted)
        assert f"T={(g.I[0], 5, 6)}" in str(err.value), g.I
        failing.append(g.I)
    assert failing == [(1, 2, 4, 5, 6), (1, 3, 4, 5, 6)]


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


def test_stratify_deterministic():
    F = demo_frame("dim6-cubic")
    a = stratify(F, SamplerConfig(seed=3, count=32))
    b = stratify(F, SamplerConfig(seed=3, count=32))
    assert a.dims == b.dims
    assert [w.x for st in a.strata for w in st.witnesses] == \
        [w.x for st in b.strata for w in st.witnesses]
