"""Exact linear algebra over F_p.

The library eliminates over F_p in one place only, the ranks of
``SymmetricPairRealization.centralizer_dims``, by ``rank_mod_p``: one
forward elimination on numpy ``int64`` arrays that walks the rows in order,
counts pivots, reduces mod p only when the entries could next reach 2**63
(delayed reduction, as in Dumas, Giorgi and Pernet, "FFLAS and FFPACK",
ACM TOMS 35(3), 2008) and forms no reduced form.  There is no elimination
over Q: the one inverse the library needs, ``RootSystem.cartan_inverse``,
is read off the root system.
"""

from __future__ import annotations

import numpy as np


class LinalgError(ValueError):
    """A modulus or matrix outside the range where int64 elimination is exact."""


def rank_mod_p(mat, p: int) -> int:
    """Rank over F_p of a 2-D integer matrix, by forward elimination alone.

    The matrix is reduced mod p and transposed if it has more rows than
    columns.  Then its rows are walked in order.  Only the current row is
    reduced mod p; a zero row is dropped, and otherwise the row pivots at
    its largest residue a, in column c, and every row below is set to
    A <- a A - A[:, c] (x) row, with no reduction.  The rank is the number
    of pivots.  There is no inverse, no row swap and no back-substitution.

    Exactness.  Column c of each row below becomes exactly 0, over Z and
    not only mod p, so every later pivot row is zero at the earlier pivot
    columns, and the pivot rows are independent mod p.  Each row below is
    scaled by a, a unit mod p, before the multiple of the pivot row is
    taken off, so the row space mod p is unchanged, and every dropped row
    is zero mod p.  With |entries| <= M and a and the row in [0, p), an
    updated entry is at most (p - 1) M + M (p - 1) = 2 (p - 1) M.  M starts
    at p - 1 and follows that map; whenever 2 (p - 1) M could reach 2**63,
    the whole matrix is first reduced mod p, back to M = p - 1, and
    2 (p - 1)**2 < 2**63 for p < 2**31.  So no int64 product or sum
    overflows.

    p must be an integer at least 2 and below 2**31, and mat a 2-D array
    of an integer type within int64 (object arrays of such integers
    included); anything else raises LinalgError.  Whether p is prime is
    the caller's concern: the answer is a rank over F_p only when it is.
    """
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 2:
        raise LinalgError(f"modulus {p!r} is not an integer of at least 2")
    if p >= 2**31:  # 2 (p - 1)**2 must stay below 2**63
        raise LinalgError(f"modulus {p} is too large for int64 elimination")
    p = int(p)  # so that the bound below is an exact Python int
    A = np.asarray(mat)
    if A.ndim != 2:
        raise LinalgError(f"matrix has {A.ndim} dimensions, expected 2")
    if A.dtype == object and all(
        isinstance(v, (int, np.integer)) and not isinstance(v, bool) and -(2**63) <= v < 2**63
        for v in A.flat
    ):
        A = A.astype(np.int64)
    if A.dtype.kind not in "iu" or not np.can_cast(A.dtype, np.int64):
        raise LinalgError(f"matrix has dtype {A.dtype}, expected an integer type within int64")
    A = np.mod(A.astype(np.int64, copy=False), p)
    if A.shape[0] > A.shape[1]:
        A = A.T
    rank, bound, step = 0, p - 1, 2 * (p - 1)
    while len(A):
        row, A = A[0] % p, A[1:]
        c = row.argmax()
        if not row[c]:
            continue
        if bound * step >= 2**63:
            A, bound = A % p, p - 1
        A = row[c] * A - A[:, c, None] * row
        bound *= step
        rank += 1
    return rank
