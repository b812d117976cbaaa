"""Goh matrix of a frame, kernel generators on phase space, corank-1
projections, divergence-control certificates and kernel-dimension
stratification.

Conventions used throughout:

* the Goh matrix H has entries h^{ij} = p . [X^i, X^j], fiber-linear;
* for a corank-1 frame X^i = d_i + A_i d_n the bracket points along d_n, so
  H = p_n * Ht with Ht carrying the x-only reduced entries, and every
  Pfaffian minor factors as phi(H, I) = p_n^(|I|/2) * phi(Ht, I);
* generators for the rank-r kernel are Y_I = sum over j in I of
  eps(I,j) phi(H, I minus j) hvec^j, one per index set I of cardinality r+1,
  and their base projections Z_I use the reduced Pfaffians.

The divergence certificate checks three exact identities: the Goh matrix
satisfies the Jacobi identity, the Euclidean phase-space divergence of Y_I
vanishes, and on the base div(Z_I) is an explicit combination of the
components of Z_I with coefficients proportional to d(A_j)/dx_n.  The
proportionality constant is solved from one linear equation over Q, never
assumed.  The Jacobi identity is that every cyclic Jacobi sum
J(T) = {h^a, H[b,c]} - {h^b, H[a,c]} + {h^c, H[a,b]} over a triple T of
{1..m} vanishes, as it does by the Poisson Jacobi identity whenever
H[k,l] = {h^k, h^l}.  The triple-bracket expansion of div(Y_I) is a sum of
Pfaffians times the J(T), so this one check per frame covers it for every
generator, and certifies the bracket code and the Goh entries; the
frame-specific claims are div(Y_I) = 0 and the base residual.

Kernel-membership checks on the annihilator bundle use exact evaluation at
random rational points rather than quotient-ring arithmetic; a polynomial
that vanishes at sufficiently many generic exact points of the sampled
family is reported with those witnesses, and every identity that can be
stated off the ideal is checked fully symbolically.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Sequence

from singfol import _linalg
from singfol.exactpoly import (Polynomial, SingfolError, Space, _add_terms, _as_fraction,
                               _exact_evaluator, _exact_pairs, _sum_products)
from singfol.pfaffian import (
    SkewMatrix,
    _cofactors,
    index_sets,
    kernel_generators,
    pfaffian_by_recursion,
    skew_rank,
)
from singfol.vectorfield import (
    Frame,
    VectorField,
    divergence,
    hamiltonian_lift,
    hamiltonian_vector_field,
    lie_bracket,
)

__all__ = [
    "GohMatrix",
    "AbnormalGenerator",
    "DivergenceCertificate",
    "SamplerConfig",
    "Witness",
    "Stratum",
    "Stratification",
    "AnnihilatorError",
    "CertificateError",
    "NormalFormError",
    "SamplingError",
    "goh_matrix",
    "kernel_dim_at",
    "abnormal_generators",
    "project_corank1",
    "divergence_certificate",
    "singular_set_equations",
    "sample_annihilator_point",
    "stratify",
]


class AnnihilatorError(SingfolError, ValueError):
    """A point fails the constraints p . X^i(x) = 0, p != 0."""

    def __init__(self, offenders: list[tuple[int, Fraction]]):
        self.offenders = offenders
        if offenders:
            detail = ", ".join(f"h^{i}={v}" for i, v in offenders)
            super().__init__(f"point is off the annihilator bundle: {detail}")
        else:
            super().__init__("covector p must be nonzero")


class CertificateError(SingfolError, RuntimeError):
    """A certificate does not hold.  A divergence certificate carries the
    nonzero ``residual`` of the identity that broke, and names I in ``detail``."""

    exit_code = 2

    def __init__(self, message: str, detail: dict, residual: Polynomial | None = None):
        super().__init__(message)
        self.detail = detail
        self.residual = residual


class NormalFormError(SingfolError, ValueError):
    """An operation needing the corank-1 normal form got a general frame."""


class SamplingError(SingfolError, RuntimeError):
    """No valid annihilator sample could be drawn."""


@dataclass(frozen=True)
class GohMatrix:
    """The skew matrix of pairwise bracket momenta of a frame.

    ``hamiltonians`` and ``ham_fields`` cache the momentum functions h^i and
    their Hamiltonian vector fields; ``reduced`` is the x-only matrix Ht with
    H = p_n * Ht, present exactly when the frame is in corank-1 normal form.
    The entry H[k,l] is the pair bracket {h^k, h^l}; ``_jacobi`` memoizes the
    cyclic Jacobi sums J(T), at most one per triple of {1..m}.  Every J(T)
    is zero when H is the bracket matrix of the hamiltonians, so a nonzero
    one shows that H or the bracket code is wrong.  :attr:`jacobi_failure`
    runs that check over all triples once, shared by all certificates.
    """

    frame: Frame
    H: SkewMatrix
    hamiltonians: tuple[Polynomial, ...]
    ham_fields: tuple[VectorField, ...]
    reduced: SkewMatrix | None = None
    _jacobi: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def m(self) -> int:
        return self.frame.m

    def jacobi_sum(self, T: tuple[int, int, int]) -> Polynomial:
        """J(T) = {h^a, H[b,c]} - {h^b, H[a,c]} + {h^c, H[a,b]} for
        T = (a, b, c), a < b < c, memoized.  Each bracket differentiates
        along the cached Hamiltonian field of its h^j."""
        value = self._jacobi.get(T)
        if value is None:
            value = self._jacobi[T] = self._cyclic_sum(T, {})
        return value

    def _cyclic_sum(self, T: tuple[int, int, int], partials: dict) -> Polynomial:
        """J(T), each product added straight into one dictionary.  The
        partial of a stored entry H[k,l] in the variable ``pos`` is taken
        only behind a nonzero component of the Hamiltonian field, and is
        read from or stored in ``partials`` under (k, l, pos)."""
        a, b, c = T
        acc: dict = {}
        for j, k, l, sign in ((a, b, c, 1), (b, a, c, -1), (c, a, b, 1)):
            entry = self.H.upper.get((k, l))
            if entry is None:
                continue
            for pos, comp in enumerate(self.ham_fields[j - 1].components):
                if comp:
                    dg = partials.get((k, l, pos))
                    if dg is None:
                        dg = partials[(k, l, pos)] = entry.partial(pos)
                    if dg:
                        _add_terms(acc, (comp * dg).terms, sign)
        return Polynomial._trusted(self.H.space, acc)

    @cached_property
    def jacobi_failure(self) -> tuple[int, int, int] | None:
        """The first triple T of {1..m}, in lexicographic order, with
        J(T) != 0, or None; computed once.

        The sums share one cache of partials, local to this check, so each
        partial of a Goh entry is taken once although the entry lies in
        m - 2 triples; the cache is dropped when the check ends.
        """
        partials: dict = {}
        for T in combinations(range(1, self.m + 1), 3):
            value = self._jacobi.get(T)
            if value is None:
                value = self._jacobi[T] = self._cyclic_sum(T, partials)
            if value:
                return T
        return None

    def jacobi_identity_holds(self) -> bool:
        """Whether J(T) = 0 for every triple T of {1..m}."""
        return self.jacobi_failure is None


def goh_matrix(F: Frame) -> GohMatrix:
    """Entries h^{ij} = lift of [X^i, X^j]; reduced form when corank-1."""
    phase = F.space.phase
    hams = tuple(hamiltonian_lift(X) for X in F.fields)
    hvfs = tuple(hamiltonian_vector_field(h) for h in hams)
    upper = {}
    for i in range(1, F.m + 1):
        for j in range(i + 1, F.m + 1):
            upper[(i, j)] = hamiltonian_lift(lie_bracket(F.fields[i - 1], F.fields[j - 1]))
    H = SkewMatrix(phase, F.m, upper)
    for entry in upper.values():
        if not entry.is_zero() and entry.p_homogeneous_degree() != 1:
            raise AssertionError("Goh entries must be fiber-linear")
    reduced = None
    if F.normal_form is not None:
        pn = phase.p(F.n)
        red_upper = {}
        for key, entry in upper.items():
            if entry.is_zero():
                continue
            k, quotient = entry.factor_out(pn)
            if k != 1:
                raise NormalFormError(f"entry {key} does not factor as p{F.n} * (x-only)")
            red_upper[key] = quotient.drop_fiber()
        reduced = SkewMatrix(F.space, F.m, red_upper)
    return GohMatrix(F, H, hams, hvfs, reduced)


def _annihilator_offenders(F: Frame, x: Sequence[Fraction], P: Sequence[int], E: int):
    """The pairs (i, p . X^i(x)) with a nonzero pairing, for p = P / E.

    Each pairing is summed over ints by cross-multiplying the components'
    unreduced values, skipping zero P_k and zero components; only an
    offender becomes a Fraction.
    """
    pair = _exact_pairs(x)
    scaled = [(k, a) for k, a in enumerate(P) if a]
    offenders = []
    for i, X in enumerate(F.fields, start=1):
        num, den = 0, 1
        for k, a in scaled:
            c = X.components[k]
            if c:
                cn, cd = pair(c)
                if cn:
                    if cd == den:
                        num += a * cn
                    else:
                        num, den = num * cd + a * cn * den, den * cd
        if num:
            offenders.append((i, Fraction(num, den * E)))
    return offenders


def kernel_dim_at(F: Frame, x: Sequence[Fraction], p: Sequence[Fraction],
                  goh: GohMatrix | None = None) -> int:
    """Kernel dimension m - rank(H) at an exact point of the annihilator.

    The point must satisfy p . X^i(x) = 0 for every frame field and p != 0;
    otherwise an :class:`AnnihilatorError` reports the offending momenta.
    Coordinates must be ints or Fractions; a float raises TypeError.

    p is written once as ints P over the lcm E of its denominators, read by
    the annihilator check and the rank.  The rank is taken at (x, P/g),
    g = gcd(P), which relies on H being fiber-linear (:func:`goh_matrix`
    asserts it): H(x, lam p) = lam H(x, p) has the same rank, and kernel
    dimension, for every lam != 0, here lam = E/g.
    """
    ratios = [_as_fraction(v).as_integer_ratio() for v in p]
    E = math.lcm(*(q for _, q in ratios))
    P = [a * (E // q) for a, q in ratios]
    if not (g := math.gcd(*P)):
        raise AnnihilatorError([])
    offenders = _annihilator_offenders(F, x, P, E)
    if offenders:
        raise AnnihilatorError(offenders)
    if goh is None:
        goh = goh_matrix(F)
    return F.m - skew_rank(goh.H, at=list(x) + [a // g for a in P])


def _combination(space: Space, kind: str, coeffs: Sequence[Polynomial],
                 fields: Sequence[VectorField]) -> VectorField:
    """The field sum over k of coeffs[k] * fields[k], summed componentwise."""
    if not any(coeffs):
        return VectorField.zero(space, kind)
    return VectorField([
        _sum_products(space, zip(coeffs, (field.components[k] for field in fields)))
        for k in range(len(fields[0].components))
    ], kind)


@dataclass(frozen=True)
class AbnormalGenerator:
    """A kernel generator realized as a phase-space vector field.

    ``coefficients`` are the frame coefficients eps(I,j) phi(H, I minus j)
    (phase polynomials, indexed along I).  ``Z`` and ``reduced_coefficients``
    carry the corank-1 base projection when the frame has a normal form.
    ``p_degree`` records the fiber homogeneity of the (x-block, p-block).
    """

    I: tuple[int, ...]
    rank: int
    Y: VectorField
    coefficients: tuple[Polynomial, ...]
    Z: VectorField | None = None
    reduced_coefficients: tuple[Polynomial, ...] | None = None
    p_degree: tuple[int | None, int | None] = (None, None)


def abnormal_generators(F: Frame, r: int, goh: GohMatrix | None = None) -> list[AbnormalGenerator]:
    """One generator Y_I per index set I of cardinality r+1 (lexicographic).

    The x-block of Y_I is fiber-homogeneous of degree r/2 and the p-block of
    degree r/2 + 1 (each Pfaffian coefficient has fiber degree |I minus j|/2
    since the Goh entries are fiber-linear).  For corank-1 frames the base
    projection is attached.
    """
    if r % 2:
        raise ValueError("rank parameter must be even")
    if not 0 <= r < F.m:
        raise ValueError(f"need 0 <= r < m={F.m}")
    if goh is None:
        goh = goh_matrix(F)
    if F.normal_form is not None:
        subs, scale = _projection_substitution(F, r)
    generators = []
    for gen in kernel_generators(goh.H, r):
        Y = _combination(F.space.phase, "phase", gen.coefficients,
                         [goh.ham_fields[i - 1] for i in gen.I])
        entry = AbnormalGenerator(gen.I, r, Y, gen.coefficients,
                                  p_degree=Y.p_homogeneity() if not Y.is_zero() else (None, None))
        if F.normal_form is not None:
            entry = _project(entry, F, goh, subs, scale)
        generators.append(entry)
    return generators


def project_corank1(g: AbnormalGenerator, F: Frame, goh: GohMatrix | None = None) -> AbnormalGenerator:
    """Attach the base projection Z_I = sum eps(I,i) phi_red(I minus i) X^i.

    Consistency is enforced exactly: substituting p_i -> -A_i p_n into the
    x-block of Y_I must recover p_n^(r/2) times the components of Z_I.  A
    frame without the corank-1 structure fails with NormalFormError.
    """
    if F.normal_form is None:
        raise NormalFormError("corank-1 normal form required for projection")
    if goh is None:
        goh = goh_matrix(F)
    return _project(g, F, goh, *_projection_substitution(F, g.rank))


def _projection_substitution(F: Frame, r: int) -> tuple[dict[int, Polynomial], Polynomial]:
    """The substitution p_i -> -A_i p_n and the factor p_n^(r/2) of the
    projection check, built once per rank and shared by its generators."""
    phase = F.space.phase
    pn = Polynomial.variable(phase, phase.p(F.n))
    subs = {phase.p(i + 1): -A.lift_to_phase() * pn if A else A.lift_to_phase()
            for i, A in enumerate(F.normal_form)}
    return subs, pn ** (r // 2)


def _project(g: AbnormalGenerator, F: Frame, goh: GohMatrix,
             subs: dict[int, Polynomial], scale: Polynomial) -> AbnormalGenerator:
    """:func:`project_corank1` with the substitution and factor given."""
    assert goh.reduced is not None
    red_coeffs = _cofactors(goh.reduced, g.I)
    Z = _combination(F.space, "base", red_coeffs, [F.fields[i - 1] for i in g.I])

    # exact consistency of the projection with the phase generator; a zero
    # component of Y needs no substitution, only a zero component of Z
    for k in range(F.n):
        restricted = g.Y.components[k]
        if restricted:
            restricted = restricted.substitute(subs)
        expected = Z.components[k].lift_to_phase()
        if expected:
            expected = scale * expected
        if restricted != expected:
            raise NormalFormError(
                f"x-block component {k + 1} of Y_{g.I} does not factor through p{F.n}^{g.rank // 2}"
            )
    return AbnormalGenerator(g.I, g.rank, g.Y, g.coefficients, Z, red_coeffs, g.p_degree)


@dataclass(frozen=True)
class DivergenceCertificate:
    """Exact residual data certifying controlled divergence of a generator.

    The certificate is valid iff every stored residual polynomial is zero:
    ``phase_divergence`` (the Euclidean divergence of Y_I over phase space)
    and, when a base projection exists, ``base_residual`` =
    div(Z_I) - sum c_j Z_I(x_j) with c_j = base_constant * d(A_j)/dx_n.
    ``jacobi_expansion`` is the zero polynomial: the triple-bracket
    expansion of the divergence vanishes because the Goh matrix satisfies
    the Jacobi identity, which :func:`divergence_certificate` checks once per
    frame before any generator (see the module docstring).
    """

    subject: tuple[int, ...]
    phase_divergence: Polynomial
    jacobi_expansion: Polynomial
    base_constant: Fraction | None = None
    base_coefficients: tuple[Polynomial, ...] | None = None
    base_residual: Polynomial | None = None
    bracket_order: str = "{h^j,{h^k,h^l}}"

    def ok(self) -> bool:
        residuals = [self.phase_divergence]
        if self.base_residual is not None:
            residuals.append(self.base_residual)
        return all(r.is_zero() for r in residuals)


def divergence_certificate(g: AbnormalGenerator, F: Frame,
                           goh: GohMatrix | None = None) -> DivergenceCertificate:
    """Build and validate the divergence certificate of a generator.

    Raises :class:`CertificateError` (carrying the residual) as soon as any
    of the exact identities fails; the Goh matrix's Jacobi identity is
    checked first, and its failure names the frame's first triple T with
    J(T) != 0, whose J(T) is the residual.
    """
    if goh is None:
        goh = goh_matrix(F)

    def failure(message: str, residual: Polynomial) -> CertificateError:
        return CertificateError(f"{message}: residual {residual}",
                                {"I": list(g.I), "residual": str(residual)}, residual)

    if not goh.jacobi_identity_holds():
        T = goh.jacobi_failure
        raise failure(f"Jacobi identity fails for Y_{g.I}: the cyclic Jacobi sum of the "
                      f"triple T={T} is nonzero", goh.jacobi_sum(T))
    phase_div = divergence(g.Y)
    base_constant = None
    base_coeffs = None
    base_residual = None
    if g.Z is not None:
        if F.normal_form is None:
            raise NormalFormError("generator carries a projection but frame has no normal form")
        space = F.space
        dA = [A.partial(F.n - 1) for A in F.normal_form]  # d(A_j)/dx_n
        combo = _sum_products(space, ((dA[j - 1], g.Z.components[j - 1]) for j in g.I))
        div_z = divergence(g.Z)
        if combo.is_zero():
            base_constant = Fraction(0)
            base_residual = div_z
        else:
            exps, coeff = combo.sorted_terms()[0]
            base_constant = div_z.coefficient(exps) / coeff
            base_residual = div_z - combo * base_constant
        base_coeffs = tuple(dA[j - 1] * base_constant for j in g.I)
    cert = DivergenceCertificate(g.I, phase_div, Polynomial.zero(goh.H.space), base_constant,
                                 base_coeffs, base_residual)
    if not phase_div.is_zero():
        raise failure(f"phase divergence of Y_{g.I} is nonzero", phase_div)
    if base_residual is not None and not base_residual.is_zero():
        raise failure(f"base divergence of Z_{g.I} is not a frame combination", base_residual)
    return cert


def singular_set_equations(F: Frame, r: int, goh: GohMatrix | None = None) -> list[Polynomial]:
    """The reduced Pfaffian minors phi_I(x), I of cardinality r, whose common
    zero set is the singular set of the rank-r level."""
    if F.normal_form is None:
        raise NormalFormError("singular-set equations need the corank-1 normal form")
    if r % 2 or not 0 < r <= F.m:
        raise ValueError("r must be even and in 1..m")
    if goh is None:
        goh = goh_matrix(F)
    return [pfaffian_by_recursion(goh.reduced, I) for I in index_sets(F.m, r)]


# ---------------------------------------------------------------------------
# Stratification by kernel dimension
# ---------------------------------------------------------------------------


# samples are exact rationals with this denominator
SAMPLE_DENOMINATOR = 64
# stratify searches at most this many loci below the open stratum
MAX_LEVELS = 4
# the locus search trial-divides by integers up to this bound, and tries at
# most this many rational roots per coordinate
ROOT_SEARCH_LIMIT = 10 ** 4


@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling plan for annihilator points.

    ``box`` bounds every base coordinate; samples are exact rationals on the
    grid with denominator ``SAMPLE_DENOMINATOR``, so every rank decision
    downstream stays in exact arithmetic.  A box that holds fewer than two
    grid values raises :class:`SamplingError`.  The locus search is exact;
    ``tolerance`` bounds only the float screen that fills
    ``Stratification.unconfirmed``: the largest |minor| of a seed reported
    there.
    """

    seed: int
    count: int = 256
    box: tuple[Fraction, Fraction] = (Fraction(-1), Fraction(1))
    tolerance: float = 1e-8

    def __post_init__(self):
        lo, hi = _grid_numerators(self.box)
        if hi - lo < 1:
            raise SamplingError(
                f"box [{self.box[0]}, {self.box[1]}] holds fewer than two sample values "
                f"k/{SAMPLE_DENOMINATOR}: every sample would be one point")


@dataclass(frozen=True)
class Witness:
    x: tuple[Fraction, ...]
    p: tuple[Fraction, ...]
    kernel_dim: int
    exact: bool


@dataclass(frozen=True)
class Stratum:
    dim: int
    rank: int
    has_interior: bool
    sample_count: int
    witnesses: tuple[Witness, ...]
    vanishing_locus: tuple[Polynomial, ...]
    parity_ok: bool


@dataclass(frozen=True)
class Stratification:
    """Observed kernel-dimension levels with loci and witnesses.

    Only the top level (minimal dimension) is an open stratum; for
    polynomial frames every deeper level sits inside the common zero set of
    the previous level's Pfaffian minors, which has empty interior, so the
    deeper levels are reported as locus levels rather than open strata.
    """

    frame_name: str
    m: int
    dims: tuple[int, ...]
    strata: tuple[Stratum, ...]
    config: SamplerConfig
    unconfirmed: tuple[tuple[float, ...], ...] = ()


def _grid_numerators(box) -> tuple[int, int]:
    """The least and greatest k with k/SAMPLE_DENOMINATOR inside the box."""
    return math.ceil(box[0] * SAMPLE_DENOMINATOR), math.floor(box[1] * SAMPLE_DENOMINATOR)


def _corank1_covector(F: Frame, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """(-A_1(x), ..., -A_{n-1}(x), 1), the covector annihilating a corank-1 frame."""
    value = _exact_evaluator(x)
    return tuple(-value(A) for A in F.normal_form) + (Fraction(1),)


def sample_annihilator_point(F: Frame, rng: random.Random, config: SamplerConfig
                             ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Draw one exact point (x, p) with p annihilating the frame at x."""
    lo, hi = _grid_numerators(config.box)
    for _ in range(64):
        x = tuple(Fraction(rng.randint(lo, hi), SAMPLE_DENOMINATOR) for _ in range(F.n))
        if F.normal_form is not None:
            return x, _corank1_covector(F, x)
        p = _linalg.kernel_combination(F._annihilator_rows(x), lambda: rng.randint(-9, 9))
        if p is not None and any(p):
            return x, tuple(p)
    raise SamplingError("could not draw a valid annihilator point (degenerate box?)")


def _divisors(N: int) -> list[int] | None:
    """The positive divisors of N != 0, ascending; None when trial division
    up to ROOT_SEARCH_LIMIT leaves a cofactor it cannot prove prime, or
    finds more than ROOT_SEARCH_LIMIT divisors."""
    N, divisors, d = abs(N), [1], 2
    while d * d <= N:
        if d > ROOT_SEARCH_LIMIT or len(divisors) > ROOT_SEARCH_LIMIT:
            return None
        layer = divisors
        while N % d == 0:
            N //= d
            layer = [a * d for a in layer]
            divisors = divisors + layer
        d += 1
    return sorted(divisors + [a * N for a in divisors] if N > 1 else divisors)


def _rational_roots(coeffs: Sequence[Fraction]):
    """The distinct rational roots of sum over i of coeffs[i] t^i, by the
    rational root theorem on its coefficients scaled to coprime ints.

    Order: 0 when t divides the polynomial; then each p/q in lowest terms,
    p dividing the lowest nonzero coefficient and q > 0 the top one, by
    increasing q, then increasing p > 0, p/q before -p/q, each tested by
    integer evaluation.  A constant has no roots, and a linear polynomial,
    once t is divided out, gives its root directly, so it never goes
    missing.  Otherwise an end coefficient that :func:`_divisors` cannot
    factor, or more than ROOT_SEARCH_LIMIT candidates, ends the search: the
    nonzero roots go missing.
    """
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    while ints and not ints[-1]:
        ints.pop()
    if len(ints) < 2:
        return
    low = next(i for i, a in enumerate(ints) if a)
    if low:
        yield Fraction(0)
    content = math.gcd(*ints)
    ints = [a // content for a in ints[low:]]
    deg = len(ints) - 1
    if deg == 1:
        yield Fraction(-ints[0], ints[1])
    if deg < 2:
        return
    P, Q = _divisors(ints[0]), _divisors(ints[-1])
    if P is None or Q is None or 2 * len(P) * len(Q) > ROOT_SEARCH_LIMIT:
        return
    for q in Q:
        for p in P:
            for s in ((p, -p) if math.gcd(p, q) == 1 else ()):
                if not sum(a * s ** i * q ** (deg - i) for i, a in enumerate(ints)):
                    yield Fraction(s, q)


def _project_onto_locus(minors: list[Polynomial], x: tuple[Fraction, ...]
                        ) -> tuple[Fraction, ...] | None:
    """Try to move one coordinate of x onto the common zero set of minors.

    For each coordinate k in turn, the first minor depending on x_k is
    frozen to a polynomial in x_k, the other coordinates at their exact
    values.  Its roots, in the order of :func:`_rational_roots`, are checked
    against ALL minors exactly, and the first at which all vanish gives the
    returned point.  None when no coordinate reaches the locus.
    """
    nonzero = [q for q in minors if not q.is_zero()]
    for k in range(len(x)):
        lead = next((q for q in nonzero if q.degree_in(k) > 0), None)
        if lead is None:
            continue
        coeffs = [Fraction(0)] * (lead.degree_in(k) + 1)
        for exps, c in lead.terms.items():
            coeffs[exps[k]] += c * math.prod(x[pos] ** e for pos, e in enumerate(exps)
                                             if e and pos != k)
        for root in _rational_roots(coeffs):
            point = x[:k] + (root,) + x[k + 1:]
            pair = _exact_pairs(point)
            if not any(pair(q)[0] for q in nonzero):
                return point
    return None


def stratify(F: Frame, config: SamplerConfig, goh: GohMatrix | None = None) -> Stratification:
    """Observe the kernel-dimension levels of the Goh matrix on the
    annihilator bundle.

    Level one comes from exact random sampling; deeper levels are searched
    on the symbolic vanishing loci (corank-1 reduced minors when available)
    by moving samples onto the locus one coordinate at a time, at exact
    rational roots of a frozen minor, keeping only witnesses where every
    minor vanishes exactly.  ``config.tolerance`` has one role: when no seed
    reaches the locus, those of the first four seeds at which every nonzero
    minor is below it in absolute value, in floats, are reported in
    ``unconfirmed`` and excluded from the dims.  A :class:`SamplingError`
    reports samples that all miss the open stratum of a bracket-generating
    frame.
    """
    if goh is None:
        goh = goh_matrix(F)
    rng = random.Random(config.seed)

    samples = [sample_annihilator_point(F, rng, config) for _ in range(config.count)]
    observed: dict[int, list[Witness]] = {}
    counts: dict[int, int] = {}
    for x, p in samples:
        d = kernel_dim_at(F, x, p, goh)
        counts[d] = counts.get(d, 0) + 1
        observed.setdefault(d, []).append(Witness(x, p, d, True))

    reduced = goh.reduced
    unconfirmed: list[tuple[float, ...]] = []
    # the minors of each rank the walk builds, reused by the strata
    equations: dict[int, list[Polynomial]] = {}

    if reduced is not None:
        # walk down the loci: minors of the current rank cut the next level
        current_dim = min(observed)
        seen_dims = set(observed)
        seeds = [w.x for w in observed[current_dim][:16]]
        for _ in range(MAX_LEVELS):
            rank_here = F.m - current_dim
            if rank_here <= 0:
                break
            minors = equations[rank_here] = singular_set_equations(F, rank_here, goh)
            if all(q.is_zero() for q in minors):
                break
            found = []
            for x in seeds:
                point = _project_onto_locus(minors, x)
                if point is None:
                    continue
                pt_p = _corank1_covector(F, point)
                d = kernel_dim_at(F, point, pt_p, goh)
                found.append(Witness(point, pt_p, d, True))
            if not found:
                # float screening: keep a record of near-locus candidates that
                # could not be certified exactly
                for x in seeds[:4]:
                    xf = [float(v) for v in x]
                    values = [q.eval_float(xf) for q in minors if not q.is_zero()]
                    if values and max(abs(v) for v in values) < config.tolerance:
                        unconfirmed.append(tuple(xf))
                break
            deeper = min(w.kernel_dim for w in found)
            if deeper <= current_dim or deeper in seen_dims:
                break
            for w in found:
                observed.setdefault(w.kernel_dim, []).append(w)
            seen_dims.add(deeper)
            current_dim = deeper
            seeds = [w.x for w in found if w.kernel_dim == deeper][:16]

    dims = tuple(sorted(observed))
    strata = []
    for level, d in enumerate(dims):
        rank_here = F.m - d
        parity_ok = (d % 2 == F.m % 2) and d <= F.m - 2
        locus: tuple[Polynomial, ...] = ()
        if reduced is not None and rank_here > 0:
            locus = tuple(equations.get(rank_here) or singular_set_equations(F, rank_here, goh))
        witnesses = tuple(observed[d][:4])
        strata.append(Stratum(d, rank_here, level == 0, counts.get(d, len(observed[d])),
                              witnesses, locus, parity_ok))
        if level == 0 and not parity_ok:
            # the Goh matrix vanishes at every sample, so the samples all lie
            # on a proper subset when the frame is bracket generating
            w = observed[d][0]
            if F.bracket_generation_depth(w.x) is not None:
                raise SamplingError(
                    f"every sample has kernel dimension {d}, against the parity/bound "
                    f"constraints, although the frame is bracket generating at "
                    f"x = ({', '.join(map(str, w.x))}): no sample reached the open stratum"
                )
    return Stratification(F.name, F.m, dims, tuple(strata), config, tuple(unconfirmed))
