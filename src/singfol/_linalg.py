"""Exact linear algebra over Fraction matrices (small sizes only).

Matrices are lists of row lists.  Everything here is plain Gaussian
elimination over Q; sizes in this package stay small (a Goh matrix has one
row per frame field) and the arithmetic is exact, so no pivoting strategy
beyond "first nonzero" is needed.
"""

from __future__ import annotations

from fractions import Fraction


def _copy(matrix) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in matrix]


def row_echelon(matrix) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and the list of pivot column indices."""
    m = _copy(matrix)
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(matrix) -> int:
    return len(row_echelon(matrix)[1])


def nullspace(matrix) -> list[list[Fraction]]:
    """Basis of the right kernel (one vector per free column)."""
    if not matrix:
        return []
    cols = len(matrix[0])
    echelon, pivots = row_echelon(matrix)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -echelon[r][fc]
        basis.append(vec)
    return basis


def invert(matrix) -> list[list[Fraction]]:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(matrix)
    aug = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    echelon, pivots = row_echelon(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in echelon[:n]]
