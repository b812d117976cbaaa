"""Goh matrix of a frame, kernel generators on phase space, corank-1
projections, divergence-control certificates and kernel-dimension
stratification.

Conventions used throughout:

* the Goh matrix H has entries h^{ij} = p . [X^i, X^j], fiber-linear;
* a corank-1 frame X^i = d_i + A_i d_n has the annihilating form
  omega = (-A_1, ..., -A_{n-1}, 1) (``Frame.omega``), omega . X^i = 0, and
  the reduced matrix Ht has the x-only entries omega . [X^i, X^j]; so
  H(x, lam * omega) = lam * Ht, on a normal form H = p_n * Ht, and every
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

Every identity above is checked on polynomials, as an exact zero.  The
kernel dimension on the annihilator bundle is the exact rank of H at a
rational point (x, p) that satisfies p . X^i(x) = 0; no quotient-ring
arithmetic is done.  The stratification reports such points as witnesses
of each level it observes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Sequence

from singfol import _linalg
from singfol.exactpoly import (Polynomial, SingfolError, _as_fraction, _exact_pairs, _Record,
                               _Sum, _sum_products)
from singfol.pfaffian import (
    SkewMatrix,
    _cofactors,
    _integer_values,
    index_sets,
    kernel_generators,
    pfaffian_by_recursion,
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
    "kernel_residual",
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


class GohMatrix(_Record):
    """The skew matrix of pairwise bracket momenta of a frame.

    ``hamiltonians`` holds the momentum functions h^i, and ``ham_fields``
    their Hamiltonian vector fields, built on first read: only the Jacobi
    check and the generators read them.  ``reduced`` is the x-only matrix
    Ht of entries omega . [X^i, X^j], present exactly when the frame has an
    annihilating form omega (``Frame.omega``).
    The entry H[k,l] is the pair bracket {h^k, h^l}, so every cyclic Jacobi
    sum J(T) over a triple T of {1..m} is zero, and a nonzero one shows that
    H or the bracket code is wrong.  :attr:`jacobi_failure` runs that check
    over all triples once, shared by all certificates, and keeps only the
    first failing triple and its sum.
    """

    _fields = ("frame", "H", "hamiltonians", "reduced")

    def __init__(self, frame: Frame, H: SkewMatrix, hamiltonians: tuple[Polynomial, ...],
                 reduced: SkewMatrix | None = None):
        self.__dict__.update(frame=frame, H=H, hamiltonians=hamiltonians, reduced=reduced)

    @property
    def m(self) -> int:
        return self.frame.m

    @cached_property
    def ham_fields(self) -> tuple[VectorField, ...]:
        return tuple(hamiltonian_vector_field(h) for h in self.hamiltonians)

    def _cyclic_sum(self, T: tuple[int, int, int], partials: dict) -> Polynomial:
        """J(T) = {h^a, H[b,c]} - {h^b, H[a,c]} + {h^c, H[a,b]} for
        T = (a, b, c), a < b < c, each product added straight into one
        sum.  Each bracket differentiates along the Hamiltonian field
        of its h^j; the partial of a stored entry H[k,l] in the variable
        ``pos`` is taken only behind a nonzero component of that field, and
        is read from or stored in ``partials`` under (k, l, pos)."""
        a, b, c = T
        acc = _Sum()
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
                        acc.add_product(comp, dg, sign)
        return acc.polynomial(self.H.space)

    @cached_property
    def jacobi_failure(self) -> tuple[tuple[int, int, int], Polynomial] | None:
        """(T, J(T)) for the first triple T of {1..m}, in lexicographic
        order, with J(T) != 0, or None when the Jacobi identity holds;
        computed once.

        The sums share one cache of partials, local to this check, so each
        partial of a Goh entry is taken once although the entry lies in
        m - 2 triples; the cache is dropped when the check ends.
        """
        partials: dict = {}
        for T in combinations(range(1, self.m + 1), 3):
            if value := self._cyclic_sum(T, partials):
                return T, value
        return None

    @cached_property
    def normal_partials(self) -> tuple[Polynomial, ...] | None:
        """d(A_j)/dx_n for each coefficient A_j of a frame in normal form,
        None for any other frame; computed once, shared by all certificates."""
        A = self.frame.normal_form
        return None if A is None else tuple(a.partial(self.frame.n - 1) for a in A)


def goh_matrix(F: Frame) -> GohMatrix:
    """Entries h^{ij} = lift of B = [X^i, X^j]; when the frame has an
    annihilating form omega, the reduced entries omega . B."""
    hams = tuple(hamiltonian_lift(X) for X in F.fields)
    brackets = {(i, j): lie_bracket(F.fields[i - 1], F.fields[j - 1])
                for i in range(1, F.m + 1) for j in range(i + 1, F.m + 1)}
    upper = {key: hamiltonian_lift(B) for key, B in brackets.items()}
    H = SkewMatrix(F.space.phase, F.m, upper)
    for entry in upper.values():
        if not entry.is_zero() and entry.p_homogeneous_degree() != 1:
            raise AssertionError("Goh entries must be fiber-linear")
    reduced = None
    if (omega := F.omega) is not None:
        if any(_sum_products(F.space, zip(omega, X.components)) for X in F.fields):
            raise AssertionError("omega must annihilate every frame field")
        reduced = SkewMatrix(F.space, F.m, {key: _sum_products(F.space, zip(omega, B.components))
                                            for key, B in brackets.items()})
    return GohMatrix(F, H, hams, reduced)


def kernel_dim_at(F: Frame, x: Sequence[Fraction], p: Sequence[Fraction],
                  goh: GohMatrix | None = None) -> int:
    """Kernel dimension m - rank(H) at an exact point of the annihilator.

    The point must satisfy p . X^i(x) = 0 for every frame field and p != 0;
    otherwise an :class:`AnnihilatorError` reports the offending momenta.
    x and p must both have length n, or ``ValueError`` is raised before any
    value is taken.  Coordinates must be ints or Fractions; a float raises
    TypeError.

    p is written once as ints P over the lcm E of its denominators, and
    every value is read by one evaluator at the phase point (x, P/g),
    g = gcd(P).  The momenta h^i and the entries of H are fiber-linear
    (:func:`goh_matrix` asserts it for H), so h^i(x, P/g) = (E/g) p . X^i(x)
    gives each offender's value exactly, and H(x, lam p) = lam H(x, p) has
    the same rank, and kernel dimension, for every lam != 0, here lam = E/g.
    """
    if not len(x) == len(p) == F.n:
        raise ValueError(f"x and p need {F.n} coordinates each, got {len(x)} and {len(p)}")
    if goh is None:
        goh = goh_matrix(F)
    ratios = [_as_fraction(v).as_integer_ratio() for v in p]
    E = math.lcm(*(q for _, q in ratios))
    P = [a * (E // q) for a, q in ratios]
    if not (g := math.gcd(*P)):
        raise AnnihilatorError([])
    pair = _exact_pairs(list(x) + [a // g for a in P])
    offenders = []
    for i, h in enumerate(goh.hamiltonians, start=1):
        num, den = pair(h)
        if num:
            offenders.append((i, Fraction(num * g, den * E)))
    if offenders:
        raise AnnihilatorError(offenders)
    return F.m - _linalg.rank(_integer_values(goh.H, pair))


def _combination(coeffs: Sequence[Polynomial], fields: Sequence[VectorField]) -> VectorField:
    """The field sum over k of coeffs[k] * fields[k], summed componentwise."""
    space = fields[0].space
    if not any(coeffs):
        return VectorField.zero(space)
    return VectorField([
        _sum_products(space, zip(coeffs, (field.components[k] for field in fields)))
        for k in range(space.nvars)
    ])


class AbnormalGenerator(_Record):
    """A kernel generator realized as a phase-space vector field.

    ``coefficients`` are the frame coefficients eps(I,j) phi(H, I minus j)
    (phase polynomials, indexed along I).  ``Z`` and ``reduced_coefficients``
    carry the corank-1 base projection when the frame has an annihilating
    form omega.  ``p_degree`` records the fiber homogeneity of the
    (x-block, p-block).  The rank r is |I| - 1.
    """

    _fields = ("I", "Y", "coefficients", "Z", "reduced_coefficients", "p_degree")

    def __init__(self, I: tuple[int, ...], Y: VectorField, coefficients: tuple[Polynomial, ...],
                 Z: VectorField | None = None,
                 reduced_coefficients: tuple[Polynomial, ...] | None = None,
                 p_degree: tuple[int | None, int | None] = (None, None)):
        self.__dict__.update(I=I, Y=Y, coefficients=coefficients, Z=Z,
                             reduced_coefficients=reduced_coefficients, p_degree=p_degree)

    @property
    def rank(self) -> int:
        return len(self.I) - 1


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
    if F.omega is not None:
        subs, scale = _projection_substitution(F, r)
    generators = []
    for gen in kernel_generators(goh.H, r):
        Y = _combination(gen.coefficients, [goh.ham_fields[i - 1] for i in gen.I])
        projection = () if F.omega is None else _project(gen.I, Y, F, goh, subs, scale)
        generators.append(AbnormalGenerator(gen.I, Y, gen.coefficients, *projection,
                                            p_degree=Y.p_homogeneity()))
    return generators


def project_corank1(g: AbnormalGenerator, F: Frame, goh: GohMatrix | None = None) -> AbnormalGenerator:
    """Attach the base projection Z_I = sum eps(I,i) phi_red(I minus i) X^i.

    Consistency is enforced exactly: substituting p_k -> omega_k p_n, k < n,
    into the x-block of Y_I must recover p_n^(r/2) times the components of
    Z_I.  A frame without an annihilating form omega fails with
    NormalFormError.
    """
    if F.omega is None:
        raise NormalFormError("corank-1 normal form required for projection")
    if goh is None:
        goh = goh_matrix(F)
    Z, reduced = _project(g.I, g.Y, F, goh, *_projection_substitution(F, g.rank))
    return AbnormalGenerator(g.I, g.Y, g.coefficients, Z, reduced, g.p_degree)


def _projection_substitution(F: Frame, r: int) -> tuple[dict[int, Polynomial], Polynomial]:
    """The substitution p_k -> omega_k p_n, k < n, and the factor p_n^(r/2)
    of the projection check, built once per rank and shared by its
    generators."""
    phase = F.space.phase
    pn = Polynomial.variable(phase, phase.p(F.n))
    subs = {phase.p(k): w.lift_to_phase() * pn if w else w.lift_to_phase()
            for k, w in enumerate(F.omega[:-1], start=1)}
    return subs, pn ** (r // 2)


def _project(I: tuple[int, ...], Y: VectorField, F: Frame, goh: GohMatrix,
             subs: dict[int, Polynomial], scale: Polynomial
             ) -> tuple[VectorField, tuple[Polynomial, ...]]:
    """Z_I and its reduced cofactors, once Y_I is checked against them, for
    :func:`project_corank1` with the substitution and factor given."""
    assert goh.reduced is not None
    red_coeffs = _cofactors(goh.reduced, I)
    Z = _combination(red_coeffs, [F.fields[i - 1] for i in I])

    # exact consistency of the projection with the phase generator; a zero
    # component of Y needs no substitution, and a zero component of Z no
    # lift: there the restricted component must be the phase-space zero
    zero = Polynomial.zero(F.space.phase)
    for k in range(F.n):
        restricted = Y.components[k]
        if restricted:
            restricted = restricted.substitute(subs)
        component = Z.components[k]
        expected = scale * component.lift_to_phase() if component else zero
        if restricted != expected:
            raise NormalFormError(f"x-block component {k + 1} of Y_{I} does not factor "
                                  f"through p{F.n}^{(len(I) - 1) // 2}")
    return Z, red_coeffs


def kernel_residual(g: AbnormalGenerator, goh: GohMatrix) -> tuple[Polynomial, ...]:
    """The m polynomials (Ht . u)_i, u the reduced coefficients of g along I.

    Each is a sum of products over the stored entries of row i of Ht, so the
    check does not rest on the Pfaffian identities that make it zero: for i
    in I the expansion of a Pfaffian with a repeated row, and for i outside
    I (-1)^k phi(Ht, J), J = I + {i} and k the position of i in J, which
    vanishes at r >= the generic rank.  All zero means that Z_I is a section
    of the Goh kernel everywhere.
    """
    if goh.reduced is None or g.reduced_coefficients is None:
        raise NormalFormError("the kernel residual needs the reduced Goh matrix and a projection")
    Ht = goh.reduced
    u = dict(zip(g.I, g.reduced_coefficients))
    neg = {j: -c for j, c in u.items()}
    return tuple(_sum_products(Ht.space, ((a, u[j] if sign > 0 else neg[j])
                                          for j, (a, sign) in Ht._rows[i].items() if j in u))
                 for i in range(1, Ht.size + 1))


class DivergenceCertificate(_Record):
    """Exact residual data certifying controlled divergence of a generator.

    The certificate is valid iff every stored residual polynomial is zero:
    ``phase_divergence`` (the Euclidean divergence of Y_I over phase space)
    and, when a base projection exists, ``base_residual`` =
    div(Z_I) - sum c_j Z_I(x_j) with c_j = base_constant * d(A_j)/dx_n.
    :attr:`jacobi_expansion` is the zero polynomial: the triple-bracket
    expansion of the divergence, in the bracket order ``bracket_order``,
    vanishes because the Goh matrix satisfies the Jacobi identity, which
    :func:`divergence_certificate` checks once per frame before any
    generator (see the module docstring).
    """

    bracket_order = "{h^j,{h^k,h^l}}"
    _fields = ("subject", "phase_divergence", "base_constant", "base_coefficients",
               "base_residual")

    def __init__(self, subject: tuple[int, ...], phase_divergence: Polynomial,
                 base_constant: Fraction | None = None,
                 base_coefficients: tuple[Polynomial, ...] | None = None,
                 base_residual: Polynomial | None = None):
        self.__dict__.update(subject=subject, phase_divergence=phase_divergence,
                             base_constant=base_constant, base_coefficients=base_coefficients,
                             base_residual=base_residual)

    @property
    def jacobi_expansion(self) -> Polynomial:
        return Polynomial.zero(self.phase_divergence.space)

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

    if (broken := goh.jacobi_failure) is not None:
        T, value = broken
        raise failure(f"Jacobi identity fails for Y_{g.I}: the cyclic Jacobi sum of the "
                      f"triple T={T} is nonzero", value)
    phase_div = divergence(g.Y)
    base_constant = None
    base_coeffs = None
    base_residual = None
    if g.Z is not None:
        if (dA := goh.normal_partials) is None:
            raise NormalFormError("generator carries a projection but frame has no normal form")
        combo = _sum_products(F.space, ((dA[j - 1], g.Z.components[j - 1]) for j in g.I))
        div_z = divergence(g.Z)
        if combo.is_zero():
            base_constant = Fraction(0)
            base_residual = div_z
            base_coeffs = (Polynomial.zero(F.space),) * len(g.I)
        else:
            exps, coeff = combo.leading_term()
            base_constant = div_z.coefficient(exps) / coeff
            base_residual = div_z - combo * base_constant
            base_coeffs = tuple(dA[j - 1] * base_constant for j in g.I)
    cert = DivergenceCertificate(g.I, phase_div, base_constant, base_coeffs, base_residual)
    if not phase_div.is_zero():
        raise failure(f"phase divergence of Y_{g.I} is nonzero", phase_div)
    if base_residual is not None and not base_residual.is_zero():
        raise failure(f"base divergence of Z_{g.I} is not a frame combination", base_residual)
    return cert


def singular_set_equations(F: Frame, r: int, goh: GohMatrix | None = None) -> list[Polynomial]:
    """The reduced Pfaffian minors phi_I(x), I of cardinality r, whose common
    zero set is the singular set of the rank-r level."""
    if F.omega is None:
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


class SamplerConfig(_Record):
    """Reproducible sampling plan for annihilator points.

    ``box`` bounds every base coordinate; samples are exact rationals on the
    grid with denominator ``SAMPLE_DENOMINATOR``, so every rank decision
    downstream stays in exact arithmetic.  A box that holds fewer than two
    grid values raises :class:`SamplingError`.
    """

    _fields = ("seed", "count", "box")

    def __init__(self, seed: int, count: int = 256,
                 box: tuple[Fraction, Fraction] = (Fraction(-1), Fraction(1))):
        lo, hi = _grid_numerators(box)
        if hi - lo < 1:
            lo, hi = map(_decimal_name, box)
            raise SamplingError(
                f"box [{lo}, {hi}] holds fewer than two sample values "
                f"k/{SAMPLE_DENOMINATOR}: every sample would be one point")
        self.__dict__.update(seed=seed, count=count, box=box)


def _decimal_name(v: Fraction) -> Fraction:
    """A box bound as a message names it: a bound that is exactly a double,
    as the CLI reads --box, by the shortest decimal that names the double
    (1/100 for the double 0.01), any other bound as it is."""
    try:
        return Fraction(repr(double)) if Fraction(double := float(v)) == v else v
    except OverflowError:
        return v


class Witness(_Record):
    _fields = ("x", "p", "kernel_dim", "exact")

    def __init__(self, x: tuple[Fraction, ...], p: tuple[Fraction, ...], kernel_dim: int,
                 exact: bool):
        self.__dict__.update(x=x, p=p, kernel_dim=kernel_dim, exact=exact)


class Stratum(_Record):
    _fields = ("dim", "rank", "has_interior", "sample_count", "witnesses", "vanishing_locus",
               "parity_ok")

    def __init__(self, dim: int, rank: int, has_interior: bool, sample_count: int,
                 witnesses: tuple[Witness, ...], vanishing_locus: tuple[Polynomial, ...],
                 parity_ok: bool):
        self.__dict__.update(dim=dim, rank=rank, has_interior=has_interior,
                             sample_count=sample_count, witnesses=witnesses,
                             vanishing_locus=vanishing_locus, parity_ok=parity_ok)


class Stratification(_Record):
    """Observed kernel-dimension levels with loci and witnesses.

    Only the top level (minimal dimension) is an open stratum; for
    polynomial frames every deeper level sits inside the common zero set of
    the previous level's Pfaffian minors, which has empty interior, so the
    deeper levels are reported as locus levels rather than open strata.

    ``unconfirmed`` is always empty: no float decides a level.  The
    benchmark still reads it; ROADMAP item 27 deletes it together with the
    ``abnormal.unconfirmed`` bench counter.
    """

    _fields = ("frame_name", "m", "dims", "strata", "config", "unconfirmed")

    def __init__(self, frame_name: str, m: int, dims: tuple[int, ...],
                 strata: tuple[Stratum, ...], config: SamplerConfig,
                 unconfirmed: tuple[tuple[float, ...], ...] = ()):
        self.__dict__.update(frame_name=frame_name, m=m, dims=dims, strata=strata, config=config,
                             unconfirmed=unconfirmed)


def _grid_numerators(box) -> tuple[int, int]:
    """The least and greatest k with k/SAMPLE_DENOMINATOR inside the box."""
    return math.ceil(box[0] * SAMPLE_DENOMINATOR), math.floor(box[1] * SAMPLE_DENOMINATOR)


def sample_annihilator_point(F: Frame, rng: random.Random, config: SamplerConfig
                             ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Draw one exact point (x, p) with p annihilating the frame at x: the
    covector omega(x) when the frame has an annihilating form omega."""
    lo, hi = _grid_numerators(config.box)
    for _ in range(64):
        x = tuple(Fraction(rng.randint(lo, hi), SAMPLE_DENOMINATOR) for _ in range(F.n))
        if F.omega is not None:
            pair = _exact_pairs(x)
            return x, tuple(Fraction(*pair(w)) for w in F.omega)
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


def _project_onto_locus(minors: list[Polynomial], x: tuple[Fraction, ...],
                        box: tuple[Fraction, Fraction]) -> tuple[Fraction, ...] | None:
    """Try to move one coordinate of x onto the common zero set of minors,
    inside the box.

    For each coordinate k in turn, the first minor depending on x_k is
    frozen to a polynomial in x_k, the other coordinates at their exact
    values.  Its roots inside the box, in the order of
    :func:`_rational_roots`, are checked against ALL minors exactly, and the
    first at which all vanish gives the returned point.  None when no
    coordinate reaches the locus inside the box.
    """
    nonzero = [q for q in minors if not q.is_zero()]
    for k in range(len(x)):
        lead = next((q for q in nonzero if q.degree_in(k) > 0), None)
        if lead is None:
            continue
        coeffs = [Fraction(0)] * (lead.degree_in(k) + 1)
        for exps, c in lead.sorted_terms():
            coeffs[exps[k]] += c * math.prod(x[pos] ** e for pos, e in enumerate(exps)
                                             if e and pos != k)
        for root in _rational_roots(coeffs):
            if not box[0] <= root <= box[1]:
                continue
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
    rational roots of a frozen minor inside ``config.box``, keeping only
    witnesses where every minor vanishes exactly, so every witness lies in
    the box.  The walk stops at the first level that no seed
    reaches.  Each seed is an exact witness of the current rank, so some
    minor of that rank is exactly nonzero there: a seed never lies on the
    locus, however small its minors are.  A :class:`SamplingError`
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
    if reduced is not None:
        # walk down the loci: minors of the current rank cut the next level
        current_dim = min(observed)
        seen_dims = set(observed)
        seeds = [w.x for w in observed[current_dim][:16]]
        for _ in range(MAX_LEVELS):
            rank_here = F.m - current_dim
            if rank_here <= 0:
                break
            minors = singular_set_equations(F, rank_here, goh)
            if all(q.is_zero() for q in minors):
                break
            found = []
            for x in seeds:
                point = _project_onto_locus(minors, x, config.box)
                if point is None:
                    continue
                pair = _exact_pairs(point)
                pt_p = tuple(Fraction(*pair(w)) for w in F.omega)
                d = kernel_dim_at(F, point, pt_p, goh)
                found.append(Witness(point, pt_p, d, True))
            if not found:
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
            # the minors the walk built are read from the matrix's memo
            locus = tuple(singular_set_equations(F, rank_here, goh))
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
    return Stratification(F.name, F.m, dims, tuple(strata), config)
