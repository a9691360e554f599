"""Exact linear algebra over Q and over F_p.

There is one elimination per field, on integers alone.  Over Q it is the
Gauss-Jordan ``echelon``, which runs fraction-free over Z; inverses are
read off the reduced row echelon form, which is unique, so they are
independent of the pivoting order.  Over F_p it is ``rank_mod_p``, one
forward elimination on numpy ``int64`` arrays that counts pivots and forms
no reduced form.  The library eliminates over Q in one place only,
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


def rank_mod_p(mat, p: int) -> int:
    """Rank over F_p of a 2-D integer matrix, by forward elimination alone:
    each step pivots on the first nonzero entry a in row-major order, at
    (i, c), drops rows i and above (the rows above are zero) and sets
    A <- a A - A[:, c] (x) A[i] mod p.  There is no inverse, no row swap and
    no back-substitution; the rank is the number of steps.  Raises
    LinalgError when p >= 2**31, where int64 products of two residues could
    overflow.
    """
    if p >= 2**31:  # entries stay in [0, p), so products stay below p^2 < 2**62
        raise LinalgError(f"modulus {p} is too large for int64 elimination")
    A = np.mod(np.asarray(mat, dtype=np.int64), p)
    rank = 0
    while A.size:
        nonzero = (A != 0).ravel()
        first = int(nonzero.argmax())
        if not nonzero[first]:
            break
        i, c = divmod(first, A.shape[1])
        pivot_row, A = A[i], A[i + 1 :]
        A = (pivot_row[c] * A - A[:, c, None] * pivot_row) % p
        rank += 1
    return rank
