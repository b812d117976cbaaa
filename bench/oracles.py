"""Exact oracles the benchmark checks singfol's output against.

They share no code with the paths being timed: ranks and determinants come
from plain Gaussian elimination over Fractions, not from Pfaffians.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Iterable, Sequence


def _eliminate(rows: Sequence[Sequence[Fraction]]) -> tuple[int, Fraction]:
    """Row-reduce a copy; return (rank, determinant if square else 0)."""
    a = [list(map(Fraction, row)) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    rank = 0
    det = Fraction(1)
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if a[r][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        lead = a[rank][col]
        det *= lead
        for r in range(rank + 1, nrows):
            f = a[r][col] / lead
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank, (det if nrows == ncols else Fraction(0))


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    return _eliminate(rows)[0] if rows else 0


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    return _eliminate(rows)[1] if rows else Fraction(1)


def submatrix(rows, index: Sequence[int]) -> list[list[Fraction]]:
    """Principal submatrix on 1-based indices."""
    return [[rows[i - 1][j - 1] for j in index] for i in index]


def cofactor_residuals(values, value_rank: int, I: Sequence[int],
                       u: dict[int, Fraction]) -> list[str]:
    """Check a Pfaffian cofactor vector against the skew matrix ``values``.

    ``u`` maps each index of I to the value of eps(I,j) * Pf(A_{I minus j})
    and ``value_rank`` is the elimination rank of ``values``.  Expanding a
    Pfaffian along a row gives (A u)_i = 0 for i in I and
    (A u)_i = +-Pf(A_{I + i}) otherwise, and Pf^2 = det.  So u lies in the
    kernel of A wherever A has rank below |I| + 1, and elsewhere
    ((A u)_i)^2 = det(A_{I + i}).  Returns the broken identities.
    """
    bad = []
    in_kernel = value_rank < len(I) + 1
    for i in range(1, len(values) + 1):
        s = sum((values[i - 1][j - 1] * u[j] for j in I), Fraction(0))
        if i in I or in_kernel:
            if s != 0:
                bad.append(f"(A u)_{i} = {s}, not 0, for I={tuple(I)} at rank {value_rank}")
        elif s * s != det(submatrix(values, sorted(tuple(I) + (i,)))):
            bad.append(f"(A u)_{i}^2 != det(A_I+{i}) for I={tuple(I)}")
    return bad


def digest(chunks: Iterable[str]) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\n")
    return h.hexdigest()
