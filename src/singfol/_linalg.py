"""Exact linear algebra over the rationals, run on integer matrices (small
sizes only).

Matrices are lists of row lists of ints or Fractions.  Each row is scaled to
ints by the lcm of its denominators (:func:`integer_row`); a row scale is a
nonzero constant, so it keeps the rank, the pivot columns and the reduced
echelon form.  :func:`rank` counts the pivots of one-step fraction-free
(Bareiss, Math. Comp. 22, 1968) forward elimination, whose every division is
exact.  :func:`row_echelon`, :func:`nullspace` and :func:`kernel_combination`
run Gauss-Jordan elimination on integer rows kept primitive by their gcd,
and build a Fraction only at the end, one division by a pivot for each entry
they return.  Sizes in this package stay small (a Goh matrix has one row per
frame field) and the arithmetic is exact, so no pivoting strategy beyond
"first nonzero" is needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def integer_row(ratios) -> list[int]:
    """The numerators of ``(num, den)`` ratios, den > 0, rewritten over the
    lcm of their denominators: the values times one positive scale."""
    ratios = list(ratios)
    scale = lcm(*(den for _, den in ratios))
    return [num * (scale // den) for num, den in ratios]


def _integer_rows(matrix) -> list[list[int]]:
    """A copy of the matrix with every row scaled to ints; a row of ints is
    copied as it is."""
    return [list(row) if all(type(v) is int for v in row)
            else integer_row(v.as_integer_ratio() for v in row) for row in matrix]


def _reduce(matrix) -> tuple[list[list[int]], list[int]]:
    """Integer Gauss-Jordan elimination: the integer rows, each pivot column
    zero outside its pivot row, and the pivot columns.  A row is divided by
    the gcd of its entries after each elimination step, which keeps them
    small."""
    m = _integer_rows(matrix)
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        head = m[r]
        piv = head[c]
        for i in range(rows):
            if i != r and (f := m[i][c]):
                row = [piv * a - f * b for a, b in zip(m[i], head)]
                g = gcd(*row)
                m[i] = [v // g for v in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def row_echelon(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and the list of pivot column indices."""
    m, pivots = _reduce(matrix)
    # rows past the last pivot are zero; a pivot row divides by its pivot
    echelon = [[Fraction(v, row[c]) for v in row] for row, c in zip(m, pivots)]
    return echelon + [[Fraction(0)] * len(row) for row in m[len(pivots):]], pivots


def rank(matrix) -> int:
    """Number of pivots of one-step Bareiss forward elimination: each row
    below the pivot becomes ``(piv * a - f * b) // prev``, with ``prev`` the
    previous pivot, and that division is exact (every entry is a minor of
    the integer matrix).  Only the columns right of the pivot are kept up,
    and the reduced form is never built."""
    m = _integer_rows(matrix)
    r, prev = 0, 1
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        head = m[r]
        piv = head[c]
        tail = head[c + 1:]
        for i in range(r + 1, len(m)):
            row = m[i]
            f = row[c]
            row[c + 1:] = [(piv * a - f * b) // prev for a, b in zip(row[c + 1:], tail)]
        prev = piv
        r += 1
        if r == len(m):
            break
    return r


def nullspace(matrix) -> list[list[Fraction]]:
    """Basis of the right kernel (one vector per free column): the free
    column's entries of the reduced echelon form, negated, at the pivots."""
    m, pivots = _reduce(matrix)
    return [_kernel_vector(m, pivots, {fc: 1}) for fc in _free_columns(m, pivots)]


def kernel_combination(matrix, draw) -> list[Fraction] | None:
    """The sum over the free columns f of c_f times f's :func:`nullspace`
    vector, c_f = ``draw()`` called once per free column, left to right;
    None, with no call, when there is no free column.  The reduced echelon
    form is unique, so this equals the Fraction sum of the basis vectors."""
    m, pivots = _reduce(matrix)
    free = _free_columns(m, pivots)
    return _kernel_vector(m, pivots, {fc: draw() for fc in free}) if free else None


def _free_columns(m, pivots) -> list[int]:
    return [c for c in range(len(m[0]) if m else 0) if c not in pivots]


def _kernel_vector(m, pivots, coeffs: dict[int, int]) -> list[Fraction]:
    """The kernel vector read off the integer Gauss-Jordan rows: c_f at each
    free column f of ``coeffs`` (0 at the others), and at each pivot column
    pc, -(sum over f of c_f row[f]) / row[pc], one Fraction each."""
    vec = [Fraction(coeffs.get(c, 0)) for c in range(len(m[0]))]
    for row, pc in zip(m, pivots):
        vec[pc] = Fraction(-sum(c * row[fc] for fc, c in coeffs.items()), row[pc])
    return vec


def invert(matrix) -> list[list[Fraction]]:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    echelon, pivots = row_echelon(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in echelon[:n]]
