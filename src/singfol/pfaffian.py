"""Exact skew-symmetric linear algebra over the polynomial ring.

A :class:`SkewMatrix` stores the strictly-upper entries a_ij (i < j) of an
antisymmetric matrix; the lower triangle is derived as a_ji = -a_ij and the
diagonal is structurally zero.  Pfaffians of index-set minors come in two
routes:

* :func:`pfaffian_by_definition` expands the wedge power (1/s!) A_I^s and
  reads off the coefficient of e_{i1} ^ ... ^ e_{ir}.  This is the ground
  truth.
* :func:`pfaffian_by_recursion` uses the cofactor-style expansion along a
  pivot row, by default the row of I with the fewest stored entries inside
  I, over those stored entries only; a row with none makes the minor zero
  at once.  Its scalar prefactor is not trusted from any source: it is
  calibrated once per minor size against the wedge definition on a block
  matrix (see :func:`calibration_report`) and then checked exactly on random
  corpora by the test suite.  The same goes for the prefactor of
  :func:`pfaffian_derivative`.

Sub-Pfaffians from the recursion are memoized on the matrix itself, so
every caller working on one matrix (kernel generators, certificates, rank,
singular-set equations) shares one set of minors.  The memo is sound because
a SkewMatrix is immutable: the Pfaffian of A_I is a fixed function of I, so
two threads filling the same slot store equal values and either may win.

Kernel generators Z_I (one per index set of cardinality r+1) are the
Pfaffian-cofactor vectors spanning ker(A) wherever A has rank r.  The rank
at a rational point is the exact rank of the evaluated matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Callable, Sequence

from singfol import _linalg
from singfol.exactpoly import Polynomial, Space, _exact_pairs, _Sum, _sum_products
from singfol.vectorfield import VectorField

__all__ = [
    "SkewMatrix",
    "KernelGenerator",
    "index_sets",
    "epsilon_sign",
    "pfaffian_by_definition",
    "pfaffian_by_recursion",
    "pfaffian_derivative",
    "minor_determinant",
    "kernel_generators",
    "skew_rank",
    "calibration_report",
]


def index_sets(m: int, l: int) -> list[tuple[int, ...]]:
    """All subsets of {1..m} of cardinality l, in lexicographic order."""
    return list(combinations(range(1, m + 1), l))


def _check_index_set(I: Sequence[int], m: int) -> tuple[int, ...]:
    I = tuple(I)
    if list(I) != sorted(set(I)):
        raise ValueError(f"index set {I} must be strictly increasing")
    if I and not (1 <= I[0] and I[-1] <= m):
        raise ValueError(f"index set {I} out of range 1..{m}")
    return I


def epsilon_sign(I: Sequence[int], j: int) -> int:
    """Sign of moving e_j to the front of the ordered wedge over I."""
    I = tuple(I)
    if j not in I:
        raise ValueError(f"{j} is not in the index set {I}")
    return -1 if I.index(j) % 2 else 1


class SkewMatrix:
    """Antisymmetric matrix with Polynomial entries (upper triangle stored).

    ``_rows[i]`` maps each j with a stored entry a_ij to that stored upper
    value and the sign that gives a_ij from it (+1 for i < j, -1 for i > j),
    and ``_neighbours[i]`` is the set of those j; both are built once, so
    the Pfaffian sums visit stored entries only.
    """

    __slots__ = ("space", "size", "upper", "_rows", "_neighbours", "_pfaffians")

    def __init__(self, space: Space, size: int, upper: dict[tuple[int, int], Polynomial]):
        if size < 1:
            raise ValueError("size must be >= 1")
        clean = {}
        rows: list[dict[int, tuple[Polynomial, int]]] = [{} for _ in range(size + 1)]
        for (i, j), value in upper.items():
            if not (1 <= i < j <= size):
                raise ValueError(f"upper entry index ({i},{j}) out of range")
            if value.space != space:
                raise ValueError("entry declared over a different space")
            if not value.is_zero():
                clean[(i, j)] = value
                rows[i][j] = (value, 1)
                rows[j][i] = (value, -1)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "upper", clean)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_neighbours", [frozenset(row) for row in rows])
        object.__setattr__(self, "_pfaffians", {})

    def __setattr__(self, name, value):
        raise AttributeError("SkewMatrix is immutable")

    def entry(self, i: int, j: int) -> Polynomial:
        """The entry a_ij.  A missing entry (the diagonal, or a zero that
        the constructor dropped) is the zero polynomial, built only in that
        case."""
        if not (1 <= i <= self.size and 1 <= j <= self.size):
            raise IndexError(f"entry ({i},{j}) out of range")
        value = self.upper.get((i, j) if i < j else (j, i))
        if value is None:
            return Polynomial.zero(self.space)
        return value if i < j else -value

    def evaluate(self, point: Sequence) -> list[list[Fraction]]:
        """Full numeric matrix at a rational point: each stored upper entry
        is valued once, by one evaluator, and negated for the lower triangle."""
        pair = _exact_pairs(point)
        rows = [[Fraction(0)] * self.size for _ in range(self.size)]
        for (i, j), entry in self.upper.items():
            rows[i - 1][j - 1] = Fraction(*pair(entry))
            rows[j - 1][i - 1] = -rows[i - 1][j - 1]
        return rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, SkewMatrix):
            return NotImplemented
        return (self.space == other.space and self.size == other.size
                and self.upper == other.upper)

    def __str__(self) -> str:
        body = ";  ".join(
            "[" + ", ".join(str(self.entry(i, j)) for j in range(1, self.size + 1)) + "]"
            for i in range(1, self.size + 1)
        )
        return f"SkewMatrix{self.size}({body})"


# ---------------------------------------------------------------------------
# Wedge-power definition
# ---------------------------------------------------------------------------


def _merge_disjoint(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Merge two ascending index tuples; None on overlap, else (merged, sign)."""
    out = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining elements of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


def _wedge(u: dict, v: dict, space: Space) -> dict:
    """u ^ v for forms stored as {ascending basis tuple: coefficient}: the
    products on each basis are summed, the sign of each in its first factor,
    and a basis whose sum is zero is dropped."""
    products: dict = {}
    for bu, cu in u.items():
        for bv, cv in v.items():
            merged = _merge_disjoint(bu, bv)
            if merged is not None:
                basis, sign = merged
                products.setdefault(basis, []).append((cu if sign > 0 else -cu, cv))
    sums = {basis: _sum_products(space, pairs) for basis, pairs in products.items()}
    return {basis: value for basis, value in sums.items() if value}


def pfaffian_by_definition(A: SkewMatrix, I: Sequence[int]) -> Polynomial:
    """Pfaffian of the minor A_I straight from the wedge-power definition.

    Conventions: 1 for the empty index set, 0 for odd cardinality.
    """
    I = _check_index_set(I, A.size)
    if len(I) == 0:
        return Polynomial.constant(A.space, 1)
    if len(I) % 2:
        return Polynomial.zero(A.space)
    s = len(I) // 2
    two_vector = {}
    for i, j in combinations(I, 2):
        value = A.entry(i, j)
        if not value.is_zero():
            two_vector[(i, j)] = value
    power = {(): Polynomial.constant(A.space, 1)}
    for _ in range(s):
        power = _wedge(power, two_vector, A.space)
        if not power:
            return Polynomial.zero(A.space)
    top = power.get(tuple(I))
    if top is None:
        return Polynomial.zero(A.space)
    return top * Fraction(1, factorial(s))


# ---------------------------------------------------------------------------
# Calibrated recursion and derivative formula
# ---------------------------------------------------------------------------

_recursion_prefactors: dict[int, Fraction] = {}
_derivative_prefactors: dict[int, Fraction] = {}


def _block_matrix(r: int, variable_entries: bool) -> SkewMatrix:
    """Block matrix e1^e2 + e3^e4 + ... of size r, unit or variable weights."""
    s = r // 2
    space = Space(max(s, 1))
    upper = {}
    for k in range(s):
        if variable_entries:
            upper[(2 * k + 1, 2 * k + 2)] = Polynomial.variable(space, k)
        else:
            upper[(2 * k + 1, 2 * k + 2)] = Polynomial.constant(space, 1)
    return SkewMatrix(space, r, upper)


def _proportionality(target: Polynomial, raw: Polynomial) -> Fraction:
    """The rational c with target = c * raw, or raise if none exists."""
    if raw.is_zero():
        if target.is_zero():
            return Fraction(0)
        raise ArithmeticError("calibration failed: raw sum is zero but target is not")
    exps, coeff = raw.leading_term()
    c = target.coefficient(exps) / coeff
    if raw * c != target:
        raise ArithmeticError("calibration failed: sides are not proportional")
    return c


def _minor_without(I: tuple[int, ...], p: int, q: int) -> tuple[int, ...]:
    """I without its elements at the positions p != q."""
    lo, hi = (p, q) if p < q else (q, p)
    return I[:lo] + I[lo + 1:hi] + I[hi + 1:]


def _cofactor_sign(p0: int, p: int) -> int:
    """eps(I, I[p0]) * eps(I - I[p0], I[p]) for positions p0 != p of I."""
    return -1 if (p0 + p - (p > p0)) % 2 else 1


def _raw_recursion_sum(A: SkewMatrix, I: tuple[int, ...], i0: int,
                       sub: Callable[[tuple[int, ...]], Polynomial]) -> Polynomial:
    """Sum of eps(I,i0) eps(I-i0,j) a_i0j sub(I-i0j) over the j in I with a
    stored entry a_i0j."""
    row, p0 = A._rows[i0], I.index(i0)
    acc = _Sum()
    for p, j in enumerate(I):
        entry = row.get(j)
        if entry is not None:
            phi = sub(_minor_without(I, p0, p))
            if phi:
                a, sign = entry
                acc.add_product(a, phi, sign * _cofactor_sign(p0, p))
    return acc.polynomial(A.space)


def _recursion_prefactor(r: int) -> Fraction:
    """Prefactor c(r) fixed by comparing the raw pivot expansion against the
    wedge definition on the size-r block matrix (sub-Pfaffians taken from the
    definition, so the calibration never assumes the formula it fixes)."""
    if r not in _recursion_prefactors:
        block = _block_matrix(r, variable_entries=False)
        I = tuple(range(1, r + 1))
        raw = _raw_recursion_sum(block, I, 1, lambda J: pfaffian_by_definition(block, J))
        target = pfaffian_by_definition(block, I)
        _recursion_prefactors[r] = _proportionality(target, raw)
    return _recursion_prefactors[r]


def _raw_derivative_sum(A: SkewMatrix, I: tuple[int, ...], d: Callable[[Polynomial], Polynomial],
                        sub: Callable[[tuple[int, ...]], Polynomial]) -> Polynomial:
    """Sum of eps(I,i) eps(I-i,j) sub(I-ij) d(a_ij) over the ordered pairs
    (i, j) of I with a stored entry a_ij; ``d`` is linear, so it is applied
    to the stored value and the entry's sign goes with the product."""
    acc = _Sum()
    for p0, i in enumerate(I):
        row = A._rows[i]
        for p, j in enumerate(I):
            entry = row.get(j)
            if entry is not None:
                a, sign = entry
                da = d(a)
                if da:
                    phi = sub(_minor_without(I, p0, p))
                    if phi:
                        acc.add_product(phi, da, sign * _cofactor_sign(p0, p))
    return acc.polynomial(A.space)


def _derivative_prefactor(r: int) -> Fraction:
    """Prefactor of the derivative formula, fixed on the size-r block matrix
    with variable weights (sub-Pfaffians again from the definition)."""
    if r not in _derivative_prefactors:
        block = _block_matrix(r, variable_entries=True)
        I = tuple(range(1, r + 1))
        d1 = lambda f: f.partial(0)
        raw = _raw_derivative_sum(block, I, d1, lambda J: pfaffian_by_definition(block, J))
        target = d1(pfaffian_by_definition(block, I))
        _derivative_prefactors[r] = _proportionality(target, raw)
    return _derivative_prefactors[r]


def calibration_report(max_size: int = 8) -> dict[str, dict[int, str]]:
    """Calibrated prefactors per even minor size, as printable fractions."""
    rec = {r: str(_recursion_prefactor(r)) for r in range(2, max_size + 1, 2)}
    der = {r: str(_derivative_prefactor(r)) for r in range(2, max_size + 1, 2)}
    return {"recursion": rec, "derivative": der}


def _pf_cached(A: SkewMatrix, I: tuple[int, ...]) -> Polynomial:
    """phi(A, I), memoized on A; the expansion runs along the row of I with
    the fewest stored entries inside I, so an empty row is zero at once."""
    memo = A._pfaffians
    value = memo.get(I)
    if value is not None:
        return value
    if len(I) == 0:
        value = Polynomial.constant(A.space, 1)
    elif len(I) % 2:
        value = Polynomial.zero(A.space)
    elif len(I) == 2:
        value = A.upper.get(I) or Polynomial.zero(A.space)
    else:
        # the number of stored entries of each row of I inside I
        within = frozenset(I)
        counts = [len(A._neighbours[i] & within) for i in I]
        fewest = min(counts)
        if fewest:
            raw = _raw_recursion_sum(A, I, I[counts.index(fewest)], lambda J: _pf_cached(A, J))
            value = raw * _recursion_prefactor(len(I))
        else:
            value = Polynomial.zero(A.space)
    memo[I] = value
    return value


def pfaffian_by_recursion(A: SkewMatrix, I: Sequence[int], pivot: int | None = None) -> Polynomial:
    """Pfaffian of A_I by the calibrated pivot expansion.

    ``pivot`` defaults to the row of I with the fewest stored entries inside
    I (the first such row on a tie); any element gives the same value.
    Sub-Pfaffians are memoized on the matrix: it is immutable, so repeated
    calls share them and a concurrent fill stores an equal value.  An
    explicit pivot expands along its row, and only the sub-Pfaffians are
    read from or added to the memo.
    """
    I = _check_index_set(I, A.size)
    if len(I) % 2:
        raise ValueError("recursion applies to even-cardinality index sets")
    if len(I) == 0:
        return Polynomial.constant(A.space, 1)
    if pivot is None:
        return _pf_cached(A, I)
    if pivot not in I:
        raise ValueError(f"pivot {pivot} is not in {I}")
    raw = _raw_recursion_sum(A, I, pivot, lambda J: _pf_cached(A, J))
    return raw * _recursion_prefactor(len(I))


def pfaffian_derivative(A: SkewMatrix, I: Sequence[int], D: VectorField) -> Polynomial:
    """Apply the derivation D to the Pfaffian of A_I without differentiating
    the Pfaffian itself: the calibrated cofactor formula sums
    phi(A, I minus {i,j}) * D(a_ij) over ordered pairs."""
    I = _check_index_set(I, A.size)
    if len(I) % 2:
        raise ValueError("derivative formula applies to even-cardinality index sets")
    total = _raw_derivative_sum(A, I, D.apply, lambda J: _pf_cached(A, J))
    if total.is_zero():
        return total
    return total * _derivative_prefactor(len(I))


# ---------------------------------------------------------------------------
# Independent determinant oracle (no Pfaffians involved)
# ---------------------------------------------------------------------------


def minor_determinant(A: SkewMatrix, rows: Sequence[int], cols: Sequence[int] | None = None) -> Polynomial:
    """Determinant of the (rows x cols) minor by memoized cofactor expansion.

    Defaults to the symmetric minor (cols = rows).  Kept free of any Pfaffian
    machinery so it can serve as the oracle for phi^2 = Det and for the
    odd-minor factorization identity.
    """
    rows = _check_index_set(rows, A.size)
    cols = rows if cols is None else _check_index_set(cols, A.size)
    if len(rows) != len(cols):
        raise ValueError("minor must be square")
    if len(rows) == 0:
        return Polynomial.constant(A.space, 1)

    memo: dict[tuple[int, ...], Polynomial] = {}

    def expand(depth: int, remaining: tuple[int, ...]) -> Polynomial:
        if not remaining:
            return Polynomial.constant(A.space, 1)
        if remaining in memo:
            return memo[remaining]
        memo[remaining] = value = _sum_products(A.space, cofactors(depth, remaining))
        return value

    def cofactors(depth: int, remaining: tuple[int, ...]):
        for pos, j in enumerate(remaining):
            a = A.entry(rows[depth], j)
            if not a.is_zero():
                sub = expand(depth + 1, remaining[:pos] + remaining[pos + 1:])
                yield a if pos % 2 == 0 else -a, sub

    return expand(0, cols)


# ---------------------------------------------------------------------------
# Kernel generators and rank
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelGenerator:
    """The vector Z_I = sum over i in I of eps(I,i) phi(A, I minus i) e_i."""

    I: tuple[int, ...]
    size: int
    coefficients: tuple[Polynomial, ...]

    def vector(self) -> list[Polynomial]:
        """Z_I embedded as a length-``size`` coefficient vector."""
        space = self.coefficients[0].space
        out = [Polynomial.zero(space) for _ in range(self.size)]
        for idx, coeff in zip(self.I, self.coefficients):
            out[idx - 1] = coeff
        return out


def kernel_generators(A: SkewMatrix, r: int) -> list[KernelGenerator]:
    """One generator per I in Lambda_{r+1}; spans ker(A) wherever rank(A) = r."""
    if r % 2:
        raise ValueError("rank parameter must be even")
    if not 0 <= r < A.size:
        raise ValueError(f"need 0 <= r < {A.size}")
    return [KernelGenerator(I, A.size, _cofactors(A, I)) for I in index_sets(A.size, r + 1)]


def _cofactors(A: SkewMatrix, I: tuple[int, ...]) -> tuple[Polynomial, ...]:
    """eps(I,i) phi(A, I minus i) for i in I, from the matrix's memo."""
    minors = (_pf_cached(A, I[:p] + I[p + 1:]) for p in range(len(I)))
    return tuple(-phi if p % 2 else phi for p, phi in enumerate(minors))


def _integer_values(A: SkewMatrix, pair) -> list[list[int]]:
    """A at the point of the evaluator ``pair`` (:func:`_exact_pairs`) as an
    integer matrix: the exact values of the stored entries times one
    positive scale, the lcm of their denominators."""
    nums = _linalg.integer_row(pair(entry) for entry in A.upper.values())
    rows = [[0] * A.size for _ in range(A.size)]
    for (i, j), v in zip(A.upper, nums):
        rows[i - 1][j - 1] = v
        rows[j - 1][i - 1] = -v
    return rows


def skew_rank(A: SkewMatrix, at: Sequence | None = None) -> int:
    """Largest even r with a nonvanishing Pfaffian minor of size r.

    With a rational point ``at`` this is the exact rank of the evaluated
    matrix, by fraction-free forward elimination of its values over one
    common denominator (the rank of a skew matrix is even, and equals the
    largest size of a nonvanishing Pfaffian minor).

    Without ``at`` it is the generic rank over the fraction field: the
    largest size with a Pfaffian minor that is a nonzero polynomial.  A
    stored entry is a nonzero 2-minor, and the rank at the fixed point
    (k % 5 + 1)_k is a lower bound too, since a minor that is nonzero at a
    point is a nonzero polynomial.  From that bound r upwards, r is proven
    once every (r+2)-minor is the zero polynomial: by row expansion of the
    Pfaffian every larger minor then vanishes as well.  A nonzero
    (r+2)-minor means the point was unlucky, and r steps up by 2.  Only the
    minors checked are expanded, and they stay in the matrix's memo.
    """
    if at is not None:
        return _linalg.rank(_integer_values(A, _exact_pairs(at)))
    r = 2 if A.upper else 0
    if r + 2 <= A.size:
        point = [k % 5 + 1 for k in range(A.space.nvars)]
        r = max(r, _linalg.rank(_integer_values(A, _exact_pairs(point))))
    while r + 2 <= A.size:
        if all(_pf_cached(A, I).is_zero() for I in index_sets(A.size, r + 2)):
            return r
        r += 2
    return r
