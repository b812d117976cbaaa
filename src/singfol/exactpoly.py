"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives in a :class:`Space` holding ``n`` base variables
``x1..xn`` and, optionally, ``n`` fiber variables ``p1..pn`` (cotangent
coordinates).  It is stored as integer numerators over one denominator:
``_num`` maps exponent tuples to nonzero ints, ``_den`` is an int > 0.

    x1^2*p3 - 3/2  ->  _num = {(2,0,0,0,0,1): 2, (0,...,0): -3}, _den = 2

Exponent tuples have one slot per variable, base block first.  The form is
canonical: no zero numerator is stored, and ``_den`` shares no factor with
all the numerators (``_den`` is 1 for the zero polynomial), as in FLINT's
``fmpq_poly``.  So two polynomials are equal iff their ``(_den, _num)``
are, and every zero test is exact.  Every ring operation, partial,
substitution and reshape runs on ints; a ``Fraction`` is built only where a
coefficient leaves the kernel: printing, :meth:`Polynomial.sorted_terms`,
:meth:`Polynomial.coefficient` and the :attr:`Polynomial.terms` view, whose
``len`` and iteration read ``_num`` alone.

Printing sorts terms by descending (total degree, exponent tuple), i.e. a
graded lexicographic order with x1 < ... < xn < p1 < ... < pn, so output is
deterministic and round-trips through :func:`parse_expression`.

One accumulator sums polynomials and products (:class:`_Sum`): numerators
over one denominator, rescaled only when a summand's denominator does not
divide it, reduced to canonical form once at the end.  Its
:meth:`_Sum.add_product` multiplies straight into the sum, with the sign as
an argument, so no product dictionary is built and no factor is negated.
Every product goes through it, :meth:`Polynomial.__mul__` included, and so
do the Lie bracket (``vectorfield``), the Pfaffian recursion and derivative
sums (``pfaffian``), the cyclic Jacobi sums (``abnormal``) and
:func:`_sum_products`, which sums the products ``a * b`` of given pairs.
:func:`_polynomial` wraps numerators that need no check; it is the
constructor of every result.

Every output is a function of the polynomial's value alone: the float layer
sums terms in the printing order (:meth:`Polynomial._float_terms`), so
insertion order is never output.

Exact point values run on ints.  A polynomial valued at a rational point
keeps, in the slot ``_exact``, its numerators with the nonzero exponents and
total degree of each term.  The slot is set on first use, never by the
constructors, which run far more often than points are valued; equality,
hashing and printing do not read it.  The point is written as integer
numerators over one common denominator too, so a value is a sum of ints,
normalized into one Fraction at the end (:func:`_exact_pairs`).  A rational
has one canonical Fraction, so every value equals the term-by-term Fraction
sum.

Callers test for zero before they build a product: :func:`_sum_products`
skips a pair with a zero operand, and the brackets, Pfaffian expansions and
:meth:`Polynomial.substitute` skip a zero factor lazily, before they
differentiate or multiply, so a sum is given only the products formed.  An
empty product adds nothing to a sum.

The module also provides truncated power series in the base variables
(:class:`JetSeries`) and a recursive-descent parser for the expression
grammar used by the CLI input format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Mapping
from math import comb, gcd, lcm
from operator import add
from typing import Sequence

__all__ = [
    "Space",
    "Polynomial",
    "JetSeries",
    "SpaceMismatchError",
    "NonUnitError",
    "SingfolError",
    "ParseError",
    "parse_expression",
]

# Guard against pathological inputs like "x1^99999999" blowing up memory.
MAX_EXPONENT = 4096
# ... and "((((x1))))" or "----x1" nested deeper than the parser recurses.
MAX_NESTING = 100
# The parser rejects a power whose result may have more terms than this
# ((t terms)^k has at most C(k+t-1, t-1) of them), and a product or sum
# that has more.
MAX_TERMS = 10 ** 4
# ... and a product, or one multiplication of a power's square-and-multiply
# schedule, that multiplies more term pairs than this (about a second of
# work): two powers within MAX_TERMS can still multiply 3*10^7 pairs.
MAX_PRODUCT_PAIRS = 10 ** 6


class SpaceMismatchError(ValueError):
    """Raised when combining polynomials declared over different spaces."""


class NonUnitError(ValueError):
    """Raised when inverting a series whose constant term is zero."""


class SingfolError(Exception):
    """Bad input or a failed certificate: ``exit_code`` is the command line's
    exit status, ``detail`` (if set) the detail of its ``--json`` error."""

    exit_code = 1
    detail = None


class ParseError(SingfolError, ValueError):
    """Syntax or lookup error while parsing an expression.

    The byte offset of the offending position is available as ``offset``.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class Space:
    """Variable layout shared by a family of polynomials.

    ``n`` is the base dimension.  With ``fiber=True`` the space also carries
    the n cotangent variables ``p1..pn`` after the base block.
    """

    n: int
    fiber: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("base dimension must be >= 1")

    @property
    def nvars(self) -> int:
        return 2 * self.n if self.fiber else self.n

    def x(self, k: int) -> int:
        """Position of the base variable x_k (1-based k)."""
        if not 1 <= k <= self.n:
            raise IndexError(f"x{k} out of range for n={self.n}")
        return k - 1

    def p(self, k: int) -> int:
        """Position of the fiber variable p_k (1-based k)."""
        if not self.fiber:
            raise IndexError("space has no fiber variables")
        if not 1 <= k <= self.n:
            raise IndexError(f"p{k} out of range for n={self.n}")
        return self.n + k - 1

    def var_name(self, pos: int) -> str:
        if not 0 <= pos < self.nvars:
            raise IndexError(f"variable position {pos} out of range")
        if pos < self.n:
            return f"x{pos + 1}"
        return f"p{pos - self.n + 1}"

    @property
    def base(self) -> "Space":
        """The same space without fiber variables."""
        return Space(self.n, False)

    @property
    def phase(self) -> "Space":
        """The same space with fiber variables."""
        return Space(self.n, True)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


def _as_ratio(value) -> tuple[int, int]:
    """``(numerator, denominator)`` of an int or Fraction, denominator > 0."""
    if type(value) is int:
        return value, 1
    if isinstance(value, Fraction):
        return value.as_integer_ratio()
    return _as_fraction(value).as_integer_ratio()


def _degree_key(exps: tuple) -> tuple:
    """The printing order's key: total degree, then the exponent tuple."""
    return sum(exps), exps


def _is_constant(num: dict) -> bool:
    """Whether ``num`` is one term with every exponent 0."""
    return len(num) == 1 and not any(next(iter(num)))


class _Sum:
    """A sum of polynomials and of products of polynomials, accumulated in
    place as int numerators ``num`` over one denominator ``den``.

    A summand over d adds its numerators times den/d; ``num`` is rescaled
    only when d does not divide ``den``.  :meth:`add_product` multiplies
    straight into the sum, with no product dictionary.  A key whose
    numerator cancels is removed, so every zero test is exact.
    :meth:`polynomial` reduces the sum to canonical form; the sum is not
    used after it.
    """

    __slots__ = ("num", "den")

    def __init__(self):
        self.num: dict = {}
        self.den = 1

    def _factor(self, den: int) -> int:
        """The factor that puts numerators over ``den`` on the sum's
        denominator, rescaling the sum first when ``den`` does not divide it."""
        if den == self.den:
            return 1
        new = lcm(self.den, den)
        if new != self.den:
            f, num = new // self.den, self.num
            for e in num:
                num[e] *= f
            self.den = new
        return new // den

    def _add(self, terms: dict, k: int) -> None:
        """Add k times the numerators ``terms`` (already on ``den``)."""
        acc = self.num
        if not acc:
            self.num = dict(terms) if k == 1 else {e: c * k for e, c in terms.items()}
            return
        for e, c in terms.items():
            old = acc.get(e)
            if old is None:
                acc[e] = c * k
            elif new := old + c * k:
                acc[e] = new
            else:
                del acc[e]

    def add(self, poly: "Polynomial", sign: int = 1) -> None:
        """Add ``poly`` (subtract it when ``sign`` is -1)."""
        if poly._num:
            self._add(poly._num, self._factor(poly._den) * sign)

    def add_product(self, a: "Polynomial", b: "Polynomial", sign: int = 1,
                    order: int | None = None) -> None:
        """Add ``sign * a * b``, skipping every pair of terms whose total
        degree exceeds ``order`` (when given).  A constant operand scales the
        other one, as a scalar does; a zero operand adds nothing."""
        an, bn = a._num, b._num
        if not an or not bn:
            return
        if order is None:
            if _is_constant(bn):
                an, bn = bn, an
            if _is_constant(an):
                (c,) = an.values()
                self._add(bn, self._factor(a._den * b._den) * sign * c)
                return
        self._multiply(an, bn, self._factor(a._den * b._den) * sign, order)

    def _multiply(self, an: dict, bn: dict, k: int, order: int | None) -> None:
        """Add k times the product of the numerators ``an`` and ``bn``: the
        loop over pairs of terms."""
        acc = self.num
        inner_by_limit: dict[int, list] = {}
        b_items = bn.items()
        for ea, ca in an.items():
            ca *= k
            inner = b_items
            if order is not None:
                limit = order - sum(ea)
                inner = inner_by_limit.get(limit)
                if inner is None:
                    inner = inner_by_limit[limit] = [(eb, cb) for eb, cb in b_items
                                                     if sum(eb) <= limit]
            for eb, cb in inner:
                key = tuple(map(add, ea, eb))
                old = acc.get(key)
                if old is None:
                    acc[key] = ca * cb
                elif new := old + ca * cb:
                    acc[key] = new
                else:
                    del acc[key]

    def polynomial(self, space: Space) -> "Polynomial":
        return _polynomial(space, self.num, self.den)


def _sum_products(space: Space, pairs) -> "Polynomial":
    """The sum of ``a * b`` over ``pairs``, each operand a Polynomial, an int
    or a Fraction.  A pair with a falsy operand (an empty Polynomial,
    ``Fraction(0)``) is skipped: its product is empty and would add nothing;
    a pair ``(1, b)`` adds ``b``."""
    acc = _Sum()
    for a, b in pairs:
        if a and b:
            if type(a) is int and a == 1:
                acc.add(b)
            elif isinstance(a, Polynomial) and isinstance(b, Polynomial):
                acc.add_product(a, b)
            else:
                acc.add(a * b)
    return acc.polynomial(space)


def _exact_pairs(point: Sequence):
    """``pair(poly, form=None) -> (num, den)``: the value at one exact point
    as an unreduced ratio of ints, den > 0, so num is 0 iff the value is.

    The point is a/D, integer numerators over the lcm D of its denominators,
    so a term c x^e of a form over d is c * a^e * D^(top - deg) over
    d * D^top; each power a_pos**e and D**k is computed once per point.
    ``form`` defaults to the polynomial's cached form.  A point of another
    length raises ``ValueError``.
    """
    ratios = [_as_ratio(v) for v in point]
    D = lcm(*(q for _, q in ratios))
    nums = [a * (D // q) for a, q in ratios]
    powers: dict[tuple[int, int], int] = {}
    scale = [1]

    def pair(poly: "Polynomial", form=None) -> tuple[int, int]:
        if poly.space.nvars != len(nums):
            raise ValueError(f"point of length {len(nums)}, expected {poly.space.nvars}")
        items, d, top = form or poly._exact_form()
        while len(scale) <= top:
            scale.append(scale[-1] * D)
        total = 0
        for factors, c, deg in items:
            for key in factors:
                power = powers.get(key)
                if power is None:
                    power = powers[key] = nums[key[0]] ** key[1]
                c *= power
            if deg != top:
                c *= scale[top - deg]
            total += c
        return total, d * scale[top]

    return pair


def _eval_float_form(form, point: Sequence[float]) -> float:
    """Value of a compiled float form (``Polynomial._float_terms``) at a point."""
    total = 0.0
    for coeff, factors in form:
        term = coeff
        for pos, e in factors:
            term *= point[pos] ** e
        total += term
    return total


class _Terms(Mapping):
    """Read-only view of a polynomial's terms, exponent tuple -> Fraction.

    ``len``, iteration and membership read the int numerators; a Fraction
    is built per coefficient only when one is read.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int):
        self._num = num
        self._den = den

    def __getitem__(self, exps) -> Fraction:
        return Fraction(self._num[exps], self._den)

    def __len__(self) -> int:
        return len(self._num)

    def __iter__(self):
        return iter(self._num)

    def __contains__(self, exps) -> bool:
        return exps in self._num

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("space", "_num", "_den", "_exact")

    def __init__(self, space: Space, terms: Mapping[tuple, Fraction] | None = None):
        _set_space(self, space)
        ratios = {}
        if terms:
            nv = space.nvars
            for exps, coeff in terms.items():
                p, q = _as_ratio(coeff)
                if p == 0:
                    continue
                if len(exps) != nv:
                    raise SpaceMismatchError(
                        f"exponent tuple of length {len(exps)} in a space with {nv} variables"
                    )
                ratios[tuple(exps)] = p, q
        if not ratios:
            _set_num(self, {})
            _set_den(self, 1)
            return
        # the lcm of reduced denominators leaves no common factor to divide out
        den = lcm(*(q for _, q in ratios.values()))
        _set_num(self, {e: p * (den // q) for e, (p, q) in ratios.items()})
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def terms(self) -> Mapping[tuple, Fraction]:
        """The terms, exponent tuple -> nonzero Fraction, as a read-only view."""
        return _Terms(self._num, self._den)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space: Space) -> "Polynomial":
        return _polynomial(space, {})

    @classmethod
    def constant(cls, space: Space, value) -> "Polynomial":
        p, q = _as_ratio(value)
        return _polynomial(space, {(0,) * space.nvars: p} if p else {}, q, reduce=False)

    @classmethod
    def variable(cls, space: Space, pos: int) -> "Polynomial":
        if not 0 <= pos < space.nvars:
            raise IndexError(f"variable position {pos} out of range")
        exps = [0] * space.nvars
        exps[pos] = 1
        return _polynomial(space, {tuple(exps): 1})

    @classmethod
    def monomial(cls, space: Space, exps: Sequence[int], coeff=1) -> "Polynomial":
        return cls(space, {tuple(exps): coeff})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.space == other.space and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.space, self._den, frozenset(self._num.items())))

    def total_degree(self) -> int:
        """Max total degree over stored terms; 0 for the zero polynomial."""
        return max((sum(e) for e in self._num), default=0)

    def degree_in(self, pos: int) -> int:
        return max((e[pos] for e in self._num), default=0)

    def constant_term(self) -> Fraction:
        return self.coefficient((0,) * self.space.nvars)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self._num.get(tuple(exps), 0), self._den)

    def leading_term(self) -> tuple[tuple, Fraction]:
        """The first term in the printing order (:meth:`sorted_terms`); the
        polynomial must be nonzero."""
        exps = max(self._num, key=_degree_key)
        return exps, Fraction(self._num[exps], self._den)

    def _p_degrees(self):
        """The fiber degree of each term."""
        n = self.space.n
        return (sum(e[n:]) for e in self._num) if self.space.fiber else (0 for _ in self._num)

    def p_degree(self) -> int:
        """Max degree in the fiber variables; 0 for base polynomials."""
        return max(self._p_degrees(), default=0)

    def p_homogeneous_degree(self) -> int | None:
        """Common fiber degree of all terms, or None.

        Returns k if every stored term has fiber degree exactly k.  Returns
        None when the degrees are mixed and also for the zero polynomial
        (callers distinguish via :meth:`is_zero`).
        """
        degs = set(self._p_degrees())
        if len(degs) == 1:
            return degs.pop()
        return None

    # -- ring operations ----------------------------------------------------

    def _check_space(self, other: "Polynomial"):
        if self.space != other.space:
            raise SpaceMismatchError(f"space mismatch: {self.space} vs {other.space}")

    def _plus(self, other, sign: int) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.space, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_space(other)
        if not other._num:
            return self
        if not self._num:
            return other if sign > 0 else -other
        acc = _Sum()
        acc.add(self)
        acc.add(other, sign)
        return acc.polynomial(self.space)

    def __add__(self, other) -> "Polynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _polynomial(self.space, {e: -c for e, c in self._num.items()}, self._den,
                           reduce=False)

    def __sub__(self, other) -> "Polynomial":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check_space(other)
            acc = _Sum()
            acc.add_product(self, other)
            return acc.polynomial(self.space)
        if isinstance(other, (int, Fraction)):
            p, q = _as_ratio(other)
            if p == 0:
                return Polynomial.zero(self.space)
            if p == q:
                # immutable, so the product may be self; every calibrated
                # Pfaffian prefactor is 1
                return self
            return _polynomial(self.space, {e: p * v for e, v in self._num.items()},
                               q * self._den)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        result = Polynomial.constant(self.space, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus -----------------------------------------------------------

    def partial(self, pos: int) -> "Polynomial":
        """Exact formal partial derivative with respect to variable ``pos``."""
        if not 0 <= pos < self.space.nvars:
            raise IndexError(f"variable position {pos} out of range")
        out = {}
        for exps, c in self._num.items():
            e = exps[pos]
            if e:
                out[exps[:pos] + (e - 1,) + exps[pos + 1:]] = c * e
        return _polynomial(self.space, out, self._den)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, point: Sequence):
        """Evaluate at a point (one value per variable, base block first).

        Exact Fraction arithmetic when every input is an int or Fraction;
        otherwise the IEEE double path is used.
        """
        if len(point) != self.space.nvars:
            raise ValueError(
                f"point of length {len(point)}, expected {self.space.nvars}"
            )
        if all(isinstance(v, (int, Fraction)) for v in point):
            return self.eval_exact(point)
        return self.eval_float([float(v) for v in point])

    def eval_exact(self, point: Sequence) -> Fraction:
        """Exact value at a rational point.  A form not cached yet is built
        for this call only, so one value does not keep a copy of the terms."""
        num, den = _exact_pairs(point)(self, self._exact_form(store=False))
        return Fraction(num, den)

    def _exact_form(self, store: bool = True) -> tuple[tuple, int, int]:
        """The integer form ``(items, d, top)`` that exact point values read:
        one ``(((pos, e), ...), c, deg)`` per term, with the nonzero
        exponents, the numerator c over the denominator d and the total
        degree; ``top`` is the top total degree.
        Cached in the ``_exact`` slot on first use, unless ``store`` is false.
        """
        try:
            return self._exact
        except AttributeError:
            items = tuple((tuple((pos, e) for pos, e in enumerate(exps) if e), c, sum(exps))
                          for exps, c in self._num.items())
            form = items, self._den, max((deg for _, _, deg in items), default=0)
            if store:
                object.__setattr__(self, "_exact", form)
            return form

    def eval_float(self, point: Sequence[float]) -> float:
        """IEEE double value at a point: the loop of :func:`_eval_float_form`
        over :meth:`_float_terms`.

        Each term is its float coefficient times ``point[pos] ** e`` for its
        nonzero exponents, left to right, and the terms are summed in the
        printing order.  ``**`` is Python's float power (libm ``pow``); it
        raises ``OverflowError`` when a power overflows, as ``float`` does
        for a coefficient beyond the double range.
        """
        return _eval_float_form(self._float_terms(), point)

    def _float_terms(self) -> list[tuple[float, tuple[tuple[int, int], ...]]]:
        """The compiled float form: ``(float(coeff), ((pos, e), ...))`` per
        term in the printing order (:meth:`sorted_terms`), with the nonzero
        exponents only.  Float addition is not associative, so this one
        order makes every float a function of the polynomial's value.  The
        coefficient is the int quotient numerator / denominator, correctly
        rounded as ``float(Fraction)`` is, with no Fraction built.

        Compile once and evaluate many times: ``eval_float`` on one point,
        ``dynamics`` also on arrays of points, with the same arithmetic in
        the same order.  Not memoized: a float form lives as long as its
        caller holds it (the exact integer form is the one that is cached).
        """
        num, den = self._num, self._den
        return [(num[exps] / den, tuple((pos, e) for pos, e in enumerate(exps) if e))
                for exps in self._printing_order()]

    # -- substitution and reshaping ------------------------------------------

    def substitute(self, replacements: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for variables (positions not listed stay)."""
        for pos, rep in replacements.items():
            if rep.space != self.space:
                raise SpaceMismatchError("replacement lives in a different space")
            if not 0 <= pos < self.space.nvars:
                raise IndexError(f"variable position {pos} out of range")
        # cache powers of each replacement up to its max needed exponent; a
        # zero replacement has zero powers, and a term using one vanishes
        one = Polynomial.constant(self.space, 1)
        pow_cache: dict[int, list[Polynomial]] = {}
        for pos, rep in replacements.items():
            powers = [one]
            for _ in range(self.degree_in(pos)):
                powers.append(powers[-1] * rep if rep else rep)
            pow_cache[pos] = powers
        # the terms grouped by their exponents at the replaced positions: each
        # group is one polynomial in the kept variables times one product of
        # powers, whose last factor is multiplied straight into the sum
        groups: dict[tuple, dict] = {}
        for exps, c in self._num.items():
            kept = list(exps)
            for pos in replacements:
                kept[pos] = 0
            groups.setdefault(tuple(exps[pos] for pos in replacements), {})[tuple(kept)] = c
        acc = _Sum()
        for es, num in groups.items():
            factors = [pow_cache[pos][e] for pos, e in zip(replacements, es) if e]
            if all(factors):
                rest = _polynomial(self.space, num, self._den)
                last = factors.pop() if factors else one
                for power in factors:
                    rest = rest * power
                acc.add_product(rest, last)
        return acc.polynomial(self.space)

    def lift_to_phase(self) -> "Polynomial":
        """Re-declare a base polynomial over the phase space (zero fiber block)."""
        if self.space.fiber:
            return self
        pad = (0,) * self.space.n
        return _polynomial(self.space.phase, {e + pad: c for e, c in self._num.items()},
                           self._den, reduce=False)

    def truncate_total(self, order: int) -> "Polynomial":
        """Drop every term of total degree exceeding ``order``."""
        if all(sum(e) <= order for e in self._num):
            return self
        return _polynomial(self.space, {e: c for e, c in self._num.items() if sum(e) <= order},
                           self._den)

    # -- printing -----------------------------------------------------------

    def _printing_order(self) -> list[tuple]:
        """The exponent tuples by descending (total degree, exponents)."""
        return sorted(self._num, key=_degree_key, reverse=True)

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        num, den = self._num, self._den
        return [(e, Fraction(num[e], den)) for e in self._printing_order()]

    def __str__(self) -> str:
        if not self._num:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for pos, e in enumerate(exps):
                if e == 0:
                    continue
                name = self.space.var_name(pos)
                factors.append(name if e == 1 else f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not chunks:
                if coeff > 0:
                    chunks.append(body)
                else:
                    # "-1*x1^2" is the printed form of a leading -x1^2; it
                    # parses to the same polynomial whether unary minus
                    # binds above or below '^'
                    if mag == 1 and factors and "^" in factors[0]:
                        body = "*".join(["1"] + factors)
                    chunks.append(f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# the slot setters of Polynomial, bound once: a Polynomial is immutable, so
# its own __setattr__ raises
_new = object.__new__
_set_space = Polynomial.space.__set__
_set_num = Polynomial._num.__set__
_set_den = Polynomial._den.__set__


def _polynomial(space: Space, num: dict, den: int = 1, reduce: bool = True) -> "Polynomial":
    """Wrap int numerators over ``den`` > 0 without validation or copying.

    With ``reduce``, the common factor of ``den`` and the numerators is
    divided out, so the result is canonical whenever ``num`` holds no zero
    and its keys fit the space; without it, the caller's data must already
    be canonical.  ``num`` is not modified afterwards.
    """
    if den != 1:
        if not num:
            den = 1
        elif reduce and (g := gcd(den, *num.values())) != 1:
            num = {e: v // g for e, v in num.items()}
            den //= g
    poly = _new(Polynomial)
    _set_space(poly, space)
    _set_num(poly, num)
    _set_den(poly, den)
    return poly


class JetSeries:
    """Truncated power series: a base polynomial cut at total degree ``order``.

    Every arithmetic result is re-truncated, so a JetSeries is a class
    representative of a d-jet at the origin.
    """

    __slots__ = ("body", "order")

    def __init__(self, body: Polynomial, order: int):
        if body.space.fiber:
            raise ValueError("jets are taken in the base variables only")
        if order < 0:
            raise ValueError("jet order must be >= 0")
        object.__setattr__(self, "body", body.truncate_total(order))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("JetSeries is immutable")

    @property
    def space(self) -> Space:
        return self.body.space

    @classmethod
    def zero(cls, space: Space, order: int) -> "JetSeries":
        return cls(Polynomial.zero(space), order)

    @classmethod
    def constant(cls, space: Space, value, order: int) -> "JetSeries":
        return cls(Polynomial.constant(space, value), order)

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, JetSeries):
            return NotImplemented
        return self.order == other.order and self.body == other.body

    def __hash__(self):
        return hash((self.body, self.order))

    def _coerce(self, other) -> "JetSeries":
        if isinstance(other, JetSeries):
            if other.order != self.order:
                raise ValueError("jet orders differ")
            return other
        if isinstance(other, Polynomial):
            return JetSeries(other, self.order)
        if isinstance(other, (int, Fraction)):
            return JetSeries.constant(self.space, other, self.order)
        raise TypeError(f"cannot combine JetSeries with {type(other).__name__}")

    def __add__(self, other) -> "JetSeries":
        other = self._coerce(other)
        return JetSeries(self.body + other.body, self.order)

    __radd__ = __add__

    def __neg__(self) -> "JetSeries":
        return JetSeries(-self.body, self.order)

    def __sub__(self, other) -> "JetSeries":
        other = self._coerce(other)
        return JetSeries(self.body - other.body, self.order)

    def __mul__(self, other) -> "JetSeries":
        if isinstance(other, (int, Fraction)):
            return JetSeries(self.body * other, self.order)
        other = self._coerce(other)
        self.body._check_space(other.body)
        acc = _Sum()
        if self.body and other.body:
            acc.add_product(self.body, other.body, order=self.order)
        return JetSeries(acc.polynomial(self.space), self.order)

    __rmul__ = __mul__

    def invert_unit(self) -> "JetSeries":
        """Multiplicative inverse modulo degree ``order``+1.

        Requires a nonzero constant term.  Computed by the geometric series:
        for u = c(1 - w) with w of positive order, 1/u = (1/c) sum w^k.
        """
        c = self.body.constant_term()
        if c == 0:
            raise NonUnitError("series has zero constant term")
        w = JetSeries(Polynomial.constant(self.space, 1) - self.body * (1 / c), self.order)
        power = JetSeries.constant(self.space, 1, self.order)
        acc = _Sum()
        acc.add(power.body)
        for _ in range(self.order):
            power = power * w
            if power.is_zero():
                break
            acc.add(power.body)
        return JetSeries(acc.polynomial(self.space), self.order) * (1 / c)

    def __str__(self) -> str:
        return f"{self.body} + O(deg {self.order + 1})"

    def __repr__(self) -> str:
        return f"JetSeries({self.body!r}, order={self.order})"


# ---------------------------------------------------------------------------
# Expression parser
#
# Grammar (whitespace insignificant, no implicit multiplication):
#   expr     := term  (('+'|'-') term)*
#   term     := factor ('*' factor)*
#   factor   := '-' factor | atom ('^' uint)?
#   atom     := rational | var | '(' expr ')'
#   rational := uint ('/' uint)?
#   var      := ('x'|'p') uint          (1-based, bounds-checked)
#
# Unary minus binds below '^' and above '*': -x1^2 is -(x1^2), -2^2 is -4,
# and -x1*x2 is (-x1)*x2.
# ---------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str, space: Space):
        self.text = text
        self.space = space
        self.pos = 0
        self.depth = 0  # open '(' and unary '-' around the current factor

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(f"expected '{ch}'", self.pos)

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an unsigned integer", start)
        return int(self.text[start:self.pos])

    def expr(self) -> Polynomial:
        value = self.term()
        while True:
            if self.take("+"):
                at = self.pos
                value = value + self.term()
            elif self.take("-"):
                at = self.pos
                value = value - self.term()
            else:
                return value
            self.check_size(value, "a sum", at)

    def term(self) -> Polynomial:
        value = self.factor()
        while self.take("*"):
            at = self.pos
            other = self.factor()
            pairs = len(value.terms) * len(other.terms)
            if pairs > MAX_PRODUCT_PAIRS:
                raise ParseError(f"a product of {len(value.terms)} and {len(other.terms)} terms "
                                 f"multiplies {pairs} term pairs, above the limit "
                                 f"{MAX_PRODUCT_PAIRS}", at)
            value = value * other
            self.check_size(value, "a product", at)
        return value

    @staticmethod
    def check_size(value: Polynomial, what: str, at: int):
        if len(value.terms) > MAX_TERMS:
            raise ParseError(f"{what} with {len(value.terms)} terms, above the limit "
                             f"{MAX_TERMS}", at)

    def enter(self):
        """Step over the '(' or unary '-' at the cursor, one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"'(' and unary '-' nested deeper than {MAX_NESTING}", self.pos)
        self.depth += 1
        self.pos += 1

    def factor(self) -> Polynomial:
        if self.peek() == "-":
            self.enter()
            value = -self.factor()
            self.depth -= 1
            return value
        base = self.atom()
        if self.take("^"):
            at = self.pos
            k = self.uint()
            if k > MAX_EXPONENT:
                raise ParseError(f"exponent {k} exceeds limit {MAX_EXPONENT}", at)
            t = len(base.terms)
            bound = comb(k + t - 1, t - 1) if t else 1
            if bound > MAX_TERMS:
                raise ParseError(f"a {t}-term base to the power {k} may have up to "
                                 f"{bound} terms, above the limit {MAX_TERMS}", at)
            pairs = self.power_pairs(t, k) if t else 0
            if pairs > MAX_PRODUCT_PAIRS:
                raise ParseError(f"a {t}-term base to the power {k} may multiply {pairs} "
                                 f"term pairs in one step, above the limit "
                                 f"{MAX_PRODUCT_PAIRS}", at)
            return base ** k
        return base

    @staticmethod
    def power_pairs(t: int, k: int) -> int:
        """The most term pairs one multiplication of ``Polynomial.__pow__``
        may multiply for a t-term base (t >= 1) to the power k: its
        square-and-multiply schedule, with (t terms)^e bounded by
        C(e+t-1, t-1) terms."""
        def bound(e: int) -> int:
            return comb(e + t - 1, t - 1)

        most, done, base = 0, 0, 1  # exponents of the result and of the base
        while k:
            if k & 1:
                most = max(most, bound(done) * bound(base))
                done += base
            if k > 1:
                most = max(most, bound(base) ** 2)
                base *= 2
            k >>= 1
        return most

    def atom(self) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.enter()
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        if ch in ("x", "p"):
            at = self.pos
            self.pos += 1
            k = self.uint()
            try:
                pos = self.space.x(k) if ch == "x" else self.space.p(k)
            except IndexError as exc:
                raise ParseError(str(exc), at) from None
            return Polynomial.variable(self.space, pos)
        if ch.isdigit():
            num = self.uint()
            if self.take("/"):
                at = self.pos
                den = self.uint()
                if den == 0:
                    raise ParseError("zero denominator", at)
                return Polynomial.constant(self.space, Fraction(num, den))
            return Polynomial.constant(self.space, num)
        raise ParseError("expected a number, variable, '(' or '-'", self.pos)


def parse_expression(text: str, space: Space) -> Polynomial:
    """Parse an expression into a canonical Polynomial over ``space``.

    Raises :class:`ParseError` (carrying the byte offset) on syntax errors,
    unknown variables, oversized exponents, '(' and unary '-' nested more
    than ``MAX_NESTING`` deep, powers that may exceed ``MAX_TERMS`` terms,
    products and steps of a power that may multiply more than
    ``MAX_PRODUCT_PAIRS`` term pairs, and products and sums of more than
    ``MAX_TERMS`` terms.
    """
    scanner = _Scanner(text, space)
    value = scanner.expr()
    scanner.skip_ws()
    if scanner.pos != len(text):
        raise ParseError("trailing input", scanner.pos)
    return value
