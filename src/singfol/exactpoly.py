"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial lives in a :class:`Space` holding ``n`` base variables
``x1..xn`` and, optionally, ``n`` fiber variables ``p1..pn`` (cotangent
coordinates).  Terms are stored as a dictionary mapping exponent tuples to
``Fraction`` coefficients:

    x1^2*p3 - 3/2  ->  {(2,0,0,0,0,1): Fraction(1), (0,...,0): Fraction(-3,2)}

Exponent tuples have one slot per variable, base block first.  Zero
coefficients are never stored, so two polynomials are equal iff their term
dictionaries are equal.  Coefficients are arbitrary-precision rationals;
every zero test is exact.

Printing sorts terms by descending (total degree, exponent tuple), i.e. a
graded lexicographic order with x1 < ... < xn < p1 < ... < pn, so output is
deterministic and round-trips through :func:`parse_expression`.

Term-dictionary invariants.  Every stored dictionary has tuple keys of
length ``space.nvars`` and nonzero ``Fraction`` values.  The public
constructor enforces them; ``Polynomial._trusted`` wraps a dictionary that
already meets them without a check.  One primitive adds one dictionary
into another in place (:func:`_add_terms`).  Most sums go through
:func:`_signed_sum`, which adds ``(sign, polynomial)`` items into one
dictionary, and :func:`_sum_products`, which adds products ``a * b``.
Outside this module, only the two hottest sums, the Pfaffian recursion and
derivative sums (``pfaffian``) and the cyclic Jacobi sums (``abnormal``),
call ``_add_terms`` on a fresh dictionary of their own and wrap it with
``_trusted``, and ``_trusted`` wraps otherwise only the disjoint reshape of
``vectorfield.hamiltonian_lift``.

Every output is a function of the polynomial's value alone: the float layer
sums terms in the printing order (:meth:`Polynomial._float_terms`), so
insertion order is never output.

Exact point values run on ints.  A polynomial valued at a rational point
keeps its integer form in the slot ``_exact``: integer numerators over one
common denominator, and the nonzero exponents and total degree of each
term.  The slot is set on first use, never by the constructors, which run
far more often than points are valued; equality, hashing and printing do not
read it.  The point is written as integer numerators over one common
denominator too, so a value is a sum of ints, normalized into one Fraction
at the end (:func:`_exact_pairs`).  A rational has one canonical Fraction,
so every value equals the term-by-term Fraction sum.

Callers test for zero before they build a product: :func:`_sum_products`
skips a pair with a zero operand, and the brackets, Pfaffian expansions and
:meth:`Polynomial.substitute` skip a zero factor lazily, before they
differentiate or multiply, so a sum is given only the products formed.  An
empty product adds nothing to a sum.  Adding ``(-1, t)`` is adding
``(1, -t)``, so a sign may sit in the item or in a factor.

The module also provides truncated power series in the base variables
(:class:`JetSeries`) and a recursive-descent parser for the expression
grammar used by the CLI input format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from operator import add
from typing import Mapping, Sequence

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


def _add_terms(acc: dict, terms: Mapping[tuple, Fraction], sign: int = 1) -> None:
    """Add ``terms`` into ``acc`` in place (subtract when ``sign`` < 0); a
    key whose coefficient cancels is removed."""
    for exps, coeff in terms.items():
        old = acc.get(exps)
        if old is None:
            acc[exps] = coeff if sign > 0 else -coeff
            continue
        new = old + coeff if sign > 0 else old - coeff
        if new:
            acc[exps] = new
        else:
            del acc[exps]


def _integer_terms(terms: Mapping[tuple, Fraction]) -> tuple[list, int]:
    """Items with coefficients scaled to ints by the common denominator d."""
    ratios = [(e, c.as_integer_ratio()) for e, c in terms.items()]
    d = lcm(*{q for _, (_, q) in ratios})
    return [(e, p * (d // q)) for e, (p, q) in ratios], d


def _mul_terms(a: Mapping[tuple, Fraction], b: Mapping[tuple, Fraction],
               order: int | None = None) -> dict:
    """Product of two term dictionaries, skipping every pair whose total
    degree exceeds ``order`` (when given).

    Coefficients run on ints scaled by the common denominators; the scale is
    a nonzero constant, so every zero test agrees with a Fraction loop.
    """
    if not a or not b:
        return {}
    a_items, da = _integer_terms(a)
    b_items, db = _integer_terms(b)
    inner_by_limit: dict[int, list] = {}
    out: dict = {}
    for ea, ca in a_items:
        inner = b_items
        if order is not None:
            limit = order - sum(ea)
            inner = inner_by_limit.get(limit)
            if inner is None:
                inner = [(eb, cb) for eb, cb in b_items if sum(eb) <= limit]
                inner_by_limit[limit] = inner
        for eb, cb in inner:
            key = tuple(map(add, ea, eb))
            old = out.get(key)
            if old is None:
                out[key] = ca * cb
                continue
            new = old + ca * cb
            if new:
                out[key] = new
            else:
                del out[key]
    scale = da * db
    if scale == 1:
        return {e: Fraction(v) for e, v in out.items()}
    return {e: Fraction(v, scale) for e, v in out.items()}


def _signed_sum(space: Space, items) -> "Polynomial":
    """The sum of ``sign * poly`` over ``(sign, poly)`` items, each added
    into one dictionary by :func:`_add_terms`."""
    acc: dict = {}
    for sign, poly in items:
        _add_terms(acc, poly.terms, sign)
    return Polynomial._trusted(space, acc)


def _sum_products(space: Space, pairs) -> "Polynomial":
    """The sum of ``a * b`` over ``pairs``, each product added into one
    dictionary by :func:`_add_terms`.  A pair with a falsy operand (an
    empty Polynomial, ``Fraction(0)``) is skipped: its product is empty and
    would add nothing."""
    acc: dict = {}
    for a, b in pairs:
        if a and b:
            _add_terms(acc, (a * b).terms)
    return Polynomial._trusted(space, acc)


def _exact_pairs(point: Sequence):
    """``pair(poly, form=None) -> (num, den)``: the value at one exact point
    as an unreduced ratio of ints, den > 0, so num is 0 iff the value is.

    The point is a/D, integer numerators over the lcm D of its denominators,
    so a term c x^e of a form over d is c * a^e * D^(top - deg) over
    d * D^top; each power a_pos**e and D**k is computed once per point.
    ``form`` defaults to the polynomial's cached form.  A point of another
    length raises ``ValueError``.
    """
    ratios = [(v, 1) if type(v) is int else _as_fraction(v).as_integer_ratio() for v in point]
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


def _exact_evaluator(point: Sequence):
    """``value(poly) -> Fraction`` at one exact point: the ratio of
    :func:`_exact_pairs`, normalized once into one Fraction."""
    pair = _exact_pairs(point)

    def value(poly: "Polynomial") -> Fraction:
        num, den = pair(poly)
        return Fraction(num, den)

    return value


def _eval_float_form(form, point: Sequence[float]) -> float:
    """Value of a compiled float form (``Polynomial._float_terms``) at a point."""
    total = 0.0
    for coeff, factors in form:
        term = coeff
        for pos, e in factors:
            term *= point[pos] ** e
        total += term
    return total


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("space", "terms", "_exact")

    def __init__(self, space: Space, terms: Mapping[tuple, Fraction] | None = None):
        object.__setattr__(self, "space", space)
        clean = {}
        if terms:
            nv = space.nvars
            for exps, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                if len(exps) != nv:
                    raise SpaceMismatchError(
                        f"exponent tuple of length {len(exps)} in a space with {nv} variables"
                    )
                clean[tuple(exps)] = coeff
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, space: Space, terms: dict) -> "Polynomial":
        """Wrap ``terms`` without validation or copying.

        Only for library code whose dictionary already meets the invariants
        in the module docstring and is not modified afterwards.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "space", space)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space: Space) -> "Polynomial":
        return cls._trusted(space, {})

    @classmethod
    def constant(cls, space: Space, value) -> "Polynomial":
        return cls(space, {(0,) * space.nvars: _as_fraction(value)})

    @classmethod
    def variable(cls, space: Space, pos: int) -> "Polynomial":
        if not 0 <= pos < space.nvars:
            raise IndexError(f"variable position {pos} out of range")
        exps = [0] * space.nvars
        exps[pos] = 1
        return cls(space, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, space: Space, exps: Sequence[int], coeff=1) -> "Polynomial":
        return cls(space, {tuple(exps): _as_fraction(coeff)})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    def __hash__(self):
        return hash((self.space, frozenset(self.terms.items())))

    def total_degree(self) -> int:
        """Max total degree over stored terms; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, pos: int) -> int:
        return max((e[pos] for e in self.terms), default=0)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.space.nvars, Fraction(0))

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def _p_degree(self, exps: tuple) -> int:
        n = self.space.n
        return sum(exps[n:]) if self.space.fiber else 0

    def p_degree(self) -> int:
        """Max degree in the fiber variables; 0 for base polynomials."""
        return max((self._p_degree(e) for e in self.terms), default=0)

    def p_homogeneous_degree(self) -> int | None:
        """Common fiber degree of all terms, or None.

        Returns k if every stored term has fiber degree exactly k.  Returns
        None when the degrees are mixed and also for the zero polynomial
        (callers distinguish via :meth:`is_zero`).
        """
        degs = {self._p_degree(e) for e in self.terms}
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
        out = dict(self.terms)
        _add_terms(out, other.terms, sign)
        return Polynomial._trusted(self.space, out)

    def __add__(self, other) -> "Polynomial":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.space, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return Polynomial(self.space)
            if c == 1:
                # immutable, so the product may be self; every calibrated
                # Pfaffian prefactor is 1
                return self
            return Polynomial._trusted(self.space, {e: c * v for e, v in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_space(other)
        return Polynomial._trusted(self.space, _mul_terms(self.terms, other.terms))

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
        for exps, coeff in self.terms.items():
            e = exps[pos]
            if e == 0:
                continue
            out[exps[:pos] + (e - 1,) + exps[pos + 1:]] = coeff * e
        return Polynomial._trusted(self.space, out)

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
        exponents, the integer numerator c over the common denominator d and
        the total degree; ``top`` is the top total degree.
        Cached in the ``_exact`` slot on first use, unless ``store`` is false.
        """
        try:
            return self._exact
        except AttributeError:
            ints, d = _integer_terms(self.terms)
            items = tuple((tuple((pos, e) for pos, e in enumerate(exps) if e), c, sum(exps))
                          for exps, c in ints)
            form = items, d, max((deg for _, _, deg in items), default=0)
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
        order makes every float a function of the polynomial's value.

        Compile once and evaluate many times: ``eval_float`` on one point,
        ``dynamics`` also on arrays of points, with the same arithmetic in
        the same order.  Not memoized: a float form lives as long as its
        caller holds it (the exact integer form is the one that is cached).
        """
        return [(float(coeff), tuple((pos, e) for pos, e in enumerate(exps) if e))
                for exps, coeff in self.sorted_terms()]

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
        one = Polynomial._trusted(self.space, {(0,) * self.space.nvars: Fraction(1)})
        pow_cache: dict[int, list[Polynomial]] = {}
        for pos, rep in replacements.items():
            top = max((e[pos] for e in self.terms), default=0)
            powers = [one]
            for _ in range(top):
                powers.append(powers[-1] * rep if rep else rep)
            pow_cache[pos] = powers
        result: dict = {}
        for exps, coeff in self.terms.items():
            kept = list(exps)
            for pos in replacements:
                kept[pos] = 0
            term = {tuple(kept): coeff}
            for pos in replacements:
                if exps[pos]:
                    power = pow_cache[pos][exps[pos]].terms
                    if not power:
                        break
                    term = _mul_terms(term, power)
            else:
                _add_terms(result, term)
        return Polynomial._trusted(self.space, result)

    def lift_to_phase(self) -> "Polynomial":
        """Re-declare a base polynomial over the phase space (zero fiber block)."""
        if self.space.fiber:
            return self
        phase = self.space.phase
        pad = (0,) * self.space.n
        return Polynomial._trusted(phase, {e + pad: c for e, c in self.terms.items()})

    def drop_fiber(self) -> "Polynomial":
        """Forget the fiber block (requires no fiber variable to occur)."""
        if not self.space.fiber:
            return self
        n = self.space.n
        out = {}
        for exps, coeff in self.terms.items():
            if any(exps[n:]):
                raise ValueError("polynomial depends on fiber variables")
            out[exps[:n]] = coeff
        return Polynomial._trusted(self.space.base, out)

    def factor_out(self, pos: int) -> tuple[int, "Polynomial"]:
        """Largest k with variable^k dividing self, and the exact quotient.

        The zero polynomial returns (0, 0).
        """
        if self.is_zero():
            return 0, self
        k = min(e[pos] for e in self.terms)
        if k == 0:
            return 0, self
        out = {
            exps[:pos] + (exps[pos] - k,) + exps[pos + 1:]: c
            for exps, c in self.terms.items()
        }
        return k, Polynomial._trusted(self.space, out)

    def truncate_total(self, order: int) -> "Polynomial":
        """Drop every term of total degree exceeding ``order``."""
        return Polynomial._trusted(
            self.space, {e: c for e, c in self.terms.items() if sum(e) <= order}
        )

    # -- printing -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self) -> str:
        if not self.terms:
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
                    # a leading unary minus binds to the first atom only, so
                    # "-x1^2" would re-parse as (-x1)^2; spell the -1 out
                    if mag == 1 and factors and "^" in factors[0]:
                        body = "*".join(["1"] + factors)
                    chunks.append(f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


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
        body = _mul_terms(self.body.terms, other.body.terms, self.order)
        return JetSeries(Polynomial._trusted(self.space, body), self.order)

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
        acc = JetSeries.constant(self.space, 1, self.order)
        power = acc
        for _ in range(self.order):
            power = power * w
            if power.is_zero():
                break
            acc = acc + power
        return acc * (1 / c)

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
#   factor   := atom ('^' uint)?
#   atom     := rational | var | '(' expr ')' | '-' atom
#   rational := uint ('/' uint)?
#   var      := ('x'|'p') uint          (1-based, bounds-checked)
# ---------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str, space: Space):
        self.text = text
        self.space = space
        self.pos = 0
        self.depth = 0  # open '(' and unary '-' around the current atom

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

    def factor(self) -> Polynomial:
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
        if ch in ("-", "("):
            if self.depth == MAX_NESTING:
                raise ParseError(f"'(' and unary '-' nested deeper than {MAX_NESTING}", self.pos)
            self.depth += 1
            self.pos += 1
            if ch == "-":
                value = -self.atom()
            else:
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
