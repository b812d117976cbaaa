"""Polynomial vector fields on the base and on phase space.

A base field has n components in the variables x1..xn; a phase field has 2n
components (x-block then p-block) in the variables (x, p).  Both are exact:
coefficients are rationals and all operations below (Lie bracket,
Hamiltonian lift, Hamiltonian vector field, Poisson bracket, Euclidean
divergence) are pure polynomial calculus.

The divergence is taken in the declared coordinates with the Euclidean
volume; this is the only metric used anywhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Sequence

from singfol import _linalg
from singfol.exactpoly import (FIELD_BITS, Polynomial, Space, _check_degree, _exact_pairs,
                               _polynomial, _Record, _Sum, _sum_products)

__all__ = [
    "VectorField",
    "Frame",
    "lie_bracket",
    "hamiltonian_lift",
    "hamiltonian_vector_field",
    "poisson_bracket",
    "divergence",
]


class VectorField:
    """A tuple of polynomial components over one space: n components for a
    base field, 2n for a phase field, whose space has a fiber."""

    __slots__ = ("space", "components")

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise ValueError("a vector field needs at least one component")
        space = components[0].space
        for c in components:
            if c.space != space:
                raise ValueError("components declared over different spaces")
        if len(components) != space.nvars:
            raise ValueError(f"a field over {space} needs {space.nvars} components, "
                             f"got {len(components)}")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("VectorField is immutable")

    @classmethod
    def zero(cls, space: Space) -> "VectorField":
        return cls([Polynomial.zero(space)] * space.nvars)

    @classmethod
    def coordinate(cls, space: Space, pos: int) -> "VectorField":
        """The constant field d/d(variable at position pos) of base kind."""
        comps = [Polynomial.zero(space) for _ in range(space.n)]
        comps[pos] = Polynomial.constant(space, 1)
        return cls(comps)

    @property
    def n(self) -> int:
        return self.space.n

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField([-c for c in self.components])

    def __mul__(self, factor) -> "VectorField":
        if isinstance(factor, VectorField):
            return NotImplemented
        return VectorField([c * factor for c in self.components])

    __rmul__ = __mul__

    def apply(self, f: Polynomial) -> Polynomial:
        """Derivation action: sum of component * partial of f."""
        if f.space != self.space:
            raise ValueError("function lives in a different space")
        return _sum_products(self.space, (
            (comp, f.partial(pos))
            for pos, comp in enumerate(self.components) if not comp.is_zero()
        ))

    def evaluate(self, point: Sequence) -> list[Fraction]:
        """Exact component values at a rational point, through one evaluator."""
        pair = _exact_pairs(point)
        return [Fraction(*pair(c)) for c in self.components]

    def constant_part(self) -> list[Fraction]:
        return [c.constant_term() for c in self.components]

    def p_homogeneity(self) -> tuple[int | None, int | None]:
        """Fiber degrees (x-block, p-block) of a phase field, if uniform.

        Each slot is None when the corresponding block mixes degrees; a zero
        block reports None as well.
        """
        if not self.space.fiber:
            raise ValueError("homogeneity record applies to phase fields")
        n = self.n
        xdegs = {d for c in self.components[:n]
                 for d in [c.p_homogeneous_degree()] if not c.is_zero()}
        pdegs = {d for c in self.components[n:]
                 for d in [c.p_homogeneous_degree()] if not c.is_zero()}
        xd = xdegs.pop() if len(xdegs) == 1 else None
        pd = pdegs.pop() if len(pdegs) == 1 else None
        return xd, pd

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self) -> str:
        return f"VectorField{self}"


class Frame(_Record):
    """An m-tuple of base vector fields generating a rank-m distribution.

    The dimension n, the rank m and :attr:`normal_form` are read from the
    fields, so a frame is one distribution however it was written down.
    Linear independence of the fields at the origin is always required.
    :attr:`omega` is the frame's annihilating 1-form when it has one.
    """

    _fields = ("fields", "name")

    def __init__(self, fields: tuple[VectorField, ...], *, name: str = ""):
        self.__dict__.update(fields=fields, name=name)
        if not 1 <= self.m < self.n:
            raise ValueError("need 1 <= m < n")
        if self.space.fiber or any(X.space != self.space for X in self.fields):
            raise ValueError("frame fields must be base fields in dimension n")
        const = [X.constant_part() for X in self.fields]
        if _linalg.rank(const) != self.m:
            raise ValueError("frame fields are linearly dependent at the origin")

    @classmethod
    def corank1(cls, n: int, coeffs: Sequence[Polynomial], name: str = "") -> "Frame":
        """Build the frame X^i = d_i + A_i d_n from A_1..A_{n-1}, over their space."""
        if len(coeffs) != n - 1:
            raise ValueError(f"corank-1 frame in dimension {n} needs {n - 1} coefficients")
        space = coeffs[0].space if coeffs and coeffs[0].space == Space(n) else Space(n)
        return cls(tuple(VectorField(VectorField.coordinate(space, i).components[:-1] + (A,))
                         for i, A in enumerate(coeffs)), name=name)

    @property
    def space(self) -> Space:
        return self.fields[0].space

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def m(self) -> int:
        return len(self.fields)

    @cached_property
    def normal_form(self) -> tuple[Polynomial, ...] | None:
        """(A_1, ..., A_{n-1}) when m = n - 1 and every field reads
        X^i = d_i + A_i d_n, None otherwise; read once from the fields."""
        if self.m != self.n - 1 or any(
                X.components[:-1] != VectorField.coordinate(self.space, i).components[:-1]
                for i, X in enumerate(self.fields)):
            return None
        return tuple(X.components[-1] for X in self.fields)

    @cached_property
    def omega(self) -> tuple[Polynomial, ...] | None:
        """The 1-form omega = (-A_1, ..., -A_{n-1}, 1) spanning the
        annihilator of a normal-form frame: omega . X^i = 0 for every field,
        and omega_n = 1.  None for a frame without a normal form; computed
        once."""
        if self.normal_form is None:
            return None
        return tuple(-A for A in self.normal_form) + (Polynomial.constant(self.space, 1),)

    def annihilator_basis(self, x: Sequence[Fraction]) -> list[list[Fraction]]:
        """Exact basis of covectors p with p . X^i(x) = 0 for all i."""
        return _linalg.nullspace(self._annihilator_rows(x))

    def _annihilator_rows(self, x: Sequence[Fraction]) -> list[list[int]]:
        """The fields at x as integer rows, whose right kernel is the annihilator."""
        pair = _exact_pairs(x)
        return [_linalg.integer_row(map(pair, X.components)) for X in self.fields]

    def bracket_generation_depth(self, x: Sequence[Fraction], max_depth: int = 4) -> int | None:
        """Smallest bracket depth at which the iterated brackets span R^n at x.

        Returns None when the span is still deficient at ``max_depth``.  This
        is a bounded diagnostic only; it never certifies nonholonomicity.
        """
        pair = _exact_pairs(x)
        layer = list(self.fields)
        vectors = []
        for depth in range(1, max_depth + 1):
            vectors.extend(_linalg.integer_row(map(pair, V.components)) for V in layer)
            if _linalg.rank(vectors) == self.n:
                return depth
            if depth == max_depth:
                break
            layer = [lie_bracket(X, V) for V in layer for X in self.fields]
        return None


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Exact Lie bracket [X, Y] = DY . X - DX . Y, componentwise.

    Component k sums X_j dY_k/dx_j over the support (nonzero components)
    of X, and subtracts Y_j dX_k/dx_j over that of Y, each product added
    straight into one sum; a partial is taken only of a nonzero
    component, and a product only with a nonzero partial.
    """
    if X.space != Y.space:
        raise ValueError("fields live in different spaces")
    sx = [(j, c) for j, c in enumerate(X.components) if c]
    sy = [(j, c) for j, c in enumerate(Y.components) if c]

    def component(Xk: Polynomial, Yk: Polynomial) -> Polynomial:
        acc = _Sum()
        for sign, support, f in ((1, sx, Yk), (-1, sy, Xk)):
            if f:
                for j, c in support:
                    if df := f.partial(j):
                        acc.add_product(c, df, sign)
        return acc.polynomial(X.space)
    return VectorField([component(Xk, Yk) for Xk, Yk in zip(X.components, Y.components)])


def hamiltonian_lift(X: VectorField) -> Polynomial:
    """The momentum function p . X(x) of a base field (fiber-linear).

    Component k contributes its terms lifted to the phase space, times p_k;
    terms of different components never share a key.  The numerators go
    over the lcm of the components' denominators, which leaves no common
    factor to divide out.
    """
    if X.space.fiber:
        raise ValueError("lift applies to base fields")
    phase, n = X.space.phase, X.space.n
    den = lcm(*(comp._den for comp in X.components))
    shift = n * FIELD_BITS
    num = {(key << shift) + unit: c * (den // comp._den)
           for comp, unit in zip(X.components, phase._units[n:]) for key, c in comp._num.items()}
    _check_degree(max(num, default=0) >> phase._deg_shift)
    return _polynomial(phase, num, den, reduce=False)


def hamiltonian_vector_field(h: Polynomial) -> VectorField:
    """Symplectic gradient with the convention xdot = dh/dp, pdot = -dh/dx."""
    space = h.space if h.space.fiber else h.space.phase
    if not h.space.fiber:
        h = h.lift_to_phase()
    n = space.n
    xblock = [h.partial(space.p(k)) for k in range(1, n + 1)]
    pblock = [-h.partial(space.x(k)) for k in range(1, n + 1)]
    return VectorField(xblock + pblock)


def poisson_bracket(h: Polynomial, g: Polynomial) -> Polynomial:
    """{h, g} = sum_k dh/dp_k dg/dx_k - dh/dx_k dg/dp_k, the Hamiltonian
    field of h applied to g.

    The p-block of that field holds -dh/dx_k, so its products are added,
    which equals subtracting dh/dx_k dg/dp_k.
    """
    if not h.space.fiber or g.space != h.space:
        raise ValueError("Poisson bracket needs two phase-space functions")
    return hamiltonian_vector_field(h).apply(g)


def divergence(V: VectorField) -> Polynomial:
    """Euclidean divergence in the declared coordinates."""
    return _sum_products(V.space, ((1, comp.partial(pos))
                                   for pos, comp in enumerate(V.components) if comp))
