"""Exact linear algebra over Q and over F_p.

There is one Gauss-Jordan elimination per field: ``echelon`` over Q, which
runs fraction-free over Z, and ``rref_mod_p`` over F_p, on numpy ``int64``
arrays.  Both run on integers alone.  Ranks and inverses are read off the
reduced row echelon form, which is unique, so every result is independent
of the pivoting order.  The library eliminates over Q in one place only,
``RootSystem.cartan_inverse``, and over F_p in one place only, the ranks of
``SymmetricPairRealization.centralizer_dims``.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

import numpy as np


class LinalgError(ValueError):
    """A modulus outside the range where int64 elimination is exact."""


# -- over Q --------------------------------------------------------------------


def _primitive(row: List[int]) -> List[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def echelon(rows: Sequence[Sequence]) -> Tuple[List[List[int]], List[int]]:
    """The reduced row echelon form over Q, fraction-free: its nonzero rows
    and their pivot columns.  Row i is the primitive integer multiple, with
    a positive pivot, of row i of the reduced form, so it is unique too.  A
    row of rationals is first scaled by the lcm of its denominators; an
    integer row is used as it is.  Each step replaces a row R by a R - f P
    (P the pivot row, a > 0 its pivot, f the entry of R there) and divides
    by the gcd (Bareiss 1968 divides by the previous pivot instead).
    """
    A = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        A.append([x.numerator * (scale // x.denominator) for x in row])
    ncols = len(A[0]) if A else 0
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(A):
            break
        sel = next((i for i in range(r, len(A)) if A[i][c]), None)
        if sel is None:
            continue
        A[r], A[sel] = A[sel], A[r]
        P = _primitive(A[r] if A[r][c] > 0 else [-x for x in A[r]])
        A[r] = P
        a = P[c]
        for i, R in enumerate(A):
            f = R[c]
            if f and i != r:
                A[i] = _primitive([a * x - f * y for x, y in zip(R, P)])
        pivots.append(c)
    return A[: len(pivots)], pivots


def scaled_inverse(rows: Sequence[Sequence]) -> Optional[Tuple[List[List[int]], int]]:
    """(L A^-1, L) for a square matrix A over Q, with L the least positive
    integer that makes L A^-1 integral; None when A is singular.  Row i of
    the echelon form of [A | 1] is the primitive p_i (e_i | row i of A^-1),
    so the lcm of the denominators of that row is p_i."""
    n = len(rows)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    R, pivots = echelon([list(row) + e for row, e in zip(rows, identity)])
    if pivots != list(range(n)):
        return None
    L = lcm(*(row[i] for i, row in enumerate(R)))
    return [[x * (L // row[i]) for x in row[n:]] for i, row in enumerate(R)], L


# -- over F_p ------------------------------------------------------------------


def rref_mod_p(mat, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over F_p of a 2-D integer matrix.

    Returns the nonzero rows of the form (entries in [0, p)) and their pivot
    columns.  Raises LinalgError when p >= 2**31, where int64 products of
    two residues could overflow.

    The elimination runs on the transpose T, so that column c is the
    contiguous row T[c].  Columns before c are already reduced, and rows r
    and below are zero there, so each pivot only updates T[c:].
    """
    if p >= 2**31:  # entries stay in [0, p), so products stay below p^2 < 2**62
        raise LinalgError(f"modulus {p} is too large for int64 elimination")
    T = np.ascontiguousarray(np.mod(np.asarray(mat, dtype=np.int64), p).T)
    ncols, nrows = T.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        rest = T[c:]
        col = rest[0]
        nonzero = col[r:].nonzero()[0]
        if not nonzero.size:
            continue
        sel = r + int(nonzero[0])
        if sel != r:
            rest[:, [r, sel]] = rest[:, [sel, r]]
        pivot_row = rest[:, r] * pow(int(col[r]), -1, p) % p
        # clears column c everywhere, row r included; row r is then restored
        rest -= pivot_row[:, None] * col
        rest[:, r] = pivot_row
        rest %= p
        pivots.append(c)
        r += 1
    return T[:, :r].T, pivots


def rank_mod_p(mat, p: int) -> int:
    """Rank over F_p."""
    return len(rref_mod_p(mat, p)[1])
