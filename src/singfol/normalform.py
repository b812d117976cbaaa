"""Jet-level frame normalization.

A :class:`JetFrame` holds the order-d jets of m vector fields in dimension
n.  Normalization is the composition of three kinds of moves:

* :func:`normalize_linear` pulls the frame back by a linear change of
  coordinates so that X^k(0) = d_k for k = 1..m.  The change matrix is
  chosen deterministically: its first m columns are the frame vectors at
  the origin and the remaining columns are filled with the leftmost
  standard basis vectors that keep the matrix invertible.
* :func:`phi_step` rescales X^j by the truncated inverse of its own j-th
  component, making that component exactly 1.
* :func:`psi_step` subtracts multiples of X^j from the other fields to
  clear their j-th components.

After the full sweep the frame reads X^k = d_k + sum_{i>m} A^k_i d_i with
A^k_i(0) = 0, the unique representative used by the rank-genericity
analysis.  All steps truncate at the input jet order; none of them moves
the kernel dimension of the Goh matrix on the annihilator at the expansion
point, which the test suite checks through exact matched-point sampling.

Stage bookkeeping: "raw" (anything), "V(j)" (components below j cleared),
"Z(j)" (additionally the j-th diagonal is exactly 1), "normal" = V(m+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from singfol import _linalg
from singfol.exactpoly import JetSeries, NonUnitError, Polynomial, Space, _sum_products
from singfol.vectorfield import Frame, VectorField

__all__ = [
    "JetFrame",
    "StageError",
    "normalize_linear",
    "phi_step",
    "psi_step",
    "normalize_frame",
]


class StageError(ValueError):
    """A normalization step was applied to a frame in the wrong stage."""


@dataclass(frozen=True)
class JetFrame:
    """Order-d jets of an m-field frame in dimension n.

    ``components[k][i]`` is the coefficient of d_{i+1} in the (k+1)-th
    field.  ``chart`` is the accumulated linear change: a point y in the
    normalized coordinates corresponds to x = chart . y in the original
    ones (identity until :func:`normalize_linear` runs).
    """

    n: int
    m: int
    order: int
    components: tuple[tuple[JetSeries, ...], ...]
    stage: str = "raw"
    chart: tuple[tuple[Fraction, ...], ...] | None = None

    def __post_init__(self):
        if not 1 <= self.m < self.n:
            raise ValueError("need 1 <= m < n")
        if len(self.components) != self.m or any(len(row) != self.n for row in self.components):
            raise ValueError("component array must be m x n")

    @property
    def space(self) -> Space:
        return Space(self.n)

    @classmethod
    def from_frame(cls, F: Frame, order: int) -> "JetFrame":
        comps = tuple(
            tuple(JetSeries(c, order) for c in X.components) for X in F.fields
        )
        return cls(F.n, F.m, order, comps)

    def to_frame(self, name: str = "") -> Frame:
        return Frame(tuple(VectorField([js.body for js in row]) for row in self.components),
                     name=name)

    def field(self, k: int) -> VectorField:
        """The k-th field (1-based) as a polynomial vector field."""
        return VectorField([js.body for js in self.components[k - 1]])

    def coefficient(self, k: int, i: int) -> JetSeries:
        """Coefficient of d_i in X^k (both 1-based)."""
        return self.components[k - 1][i - 1]

    def constant_matrix(self) -> list[list[Fraction]]:
        return [[js.body.constant_term() for js in row] for row in self.components]

    # -- stage predicates ---------------------------------------------------

    def satisfies_v(self, j: int) -> bool:
        """X^k = d_k + corrections vanishing at 0, none below column j."""
        for k in range(1, self.m + 1):
            for i in range(1, self.n + 1):
                c = self.coefficient(k, i)
                delta = Fraction(1 if i == k else 0)
                if c.body.constant_term() != delta:
                    return False
                if i < j and c.body != Polynomial.constant(self.space, delta):
                    return False
        return True

    def satisfies_z(self, j: int) -> bool:
        one = Polynomial.constant(self.space, 1)
        return self.satisfies_v(j) and self.coefficient(j, j).body == one

    def is_normal(self) -> bool:
        return self.satisfies_v(self.m + 1)


def _linear_change_matrix(constants: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """Columns 1..m are the frame vectors at 0; completion is the leftmost
    run of standard basis vectors keeping full rank."""
    m = len(constants)
    columns = [list(row) for row in constants]  # column k = X^k(0)
    for i in range(n):
        if len(columns) == n:
            break
        candidate = [Fraction(int(k == i)) for k in range(n)]
        if _linalg.rank(columns + [candidate]) > len(columns):
            columns.append(candidate)
    if len(columns) < n:
        raise ValueError("could not complete the frame to a basis")
    return [[columns[j][i] for j in range(n)] for i in range(n)]  # column-major -> matrix


def normalize_linear(F: JetFrame) -> JetFrame:
    """Pull back by the deterministic linear change so X^k(0) = d_k."""
    constants = F.constant_matrix()
    if _linalg.rank(constants) != F.m:
        raise ValueError("frame fields are linearly dependent at the origin")
    M = _linear_change_matrix(constants, F.n)
    Minv = _linalg.invert(M)
    space = F.space
    # x_i -> sum_j M[i][j] y_j as polynomials in the new coordinates
    substitution = {
        i: _sum_products(space, ((Polynomial.variable(space, j), M[i][j]) for j in range(F.n)))
        for i in range(F.n)
    }
    new_components = []
    for row in F.components:
        composed = [js.body.substitute(substitution) for js in row]
        pulled = [_sum_products(space, zip(Minv[i], composed)) for i in range(F.n)]
        new_components.append(tuple(JetSeries(c, F.order) for c in pulled))
    out = JetFrame(F.n, F.m, F.order, tuple(new_components), "V(1)",
                   tuple(tuple(row) for row in M))
    if not out.satisfies_v(1):
        raise StageError("linear normalization did not reach stage V(1)")
    return out


def _expect_stage(F: JetFrame, expected: str):
    if F.stage != expected:
        raise StageError(f"expected a frame in stage {expected}, got {F.stage}")


def phi_step(F: JetFrame, j: int) -> JetFrame:
    """Rescale X^j by the truncated inverse of its j-th component."""
    _expect_stage(F, f"V({j})")
    diag = F.coefficient(j, j)
    if diag.body.constant_term() == 0:
        raise NonUnitError(f"component ({j},{j}) is not a unit")
    U = diag.invert_unit()
    rows = list(F.components)
    rows[j - 1] = tuple(U * js for js in rows[j - 1])
    out = JetFrame(F.n, F.m, F.order, tuple(rows), f"Z({j})", F.chart)
    if not out.satisfies_z(j):
        raise StageError(f"unit rescale did not reach stage Z({j})")
    return out


def psi_step(F: JetFrame, j: int) -> JetFrame:
    """Clear the j-th component of every field other than X^j."""
    _expect_stage(F, f"Z({j})")
    rows = list(F.components)
    xj = rows[j - 1]
    for k in range(1, F.m + 1):
        if k == j:
            continue
        a = F.coefficient(k, j)
        if a.is_zero():
            continue
        rows[k - 1] = tuple(c - a * d for c, d in zip(rows[k - 1], xj))
    stage = f"V({j + 1})" if j < F.m else "normal"
    out = JetFrame(F.n, F.m, F.order, tuple(rows), stage, F.chart)
    if not out.satisfies_v(j + 1):
        raise StageError(f"elimination did not reach stage V({j + 1})")
    return out


def normalize_frame(F: JetFrame) -> JetFrame:
    """Full sweep: linear change, then unit rescale and elimination per column."""
    out = normalize_linear(F)
    for j in range(1, F.m + 1):
        out = phi_step(out, j)
        out = psi_step(out, j)
    if not out.is_normal():
        raise StageError("normalization did not reach the normal form")
    return out
