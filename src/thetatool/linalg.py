"""Exact linear algebra over F_p.

The library eliminates over F_p in one place only, the ranks of
``SymmetricPairRealization.centralizer_dims``, by ``rank_mod_p``: one
forward elimination on numpy ``int64`` arrays that counts pivots and forms
no reduced form.  There is no elimination over Q: the one inverse the
library needs, ``RootSystem.cartan_inverse``, is read off the root system.
"""

from __future__ import annotations

import numpy as np


class LinalgError(ValueError):
    """A modulus outside the range where int64 elimination is exact."""


def rank_mod_p(mat, p: int) -> int:
    """Rank over F_p of a 2-D integer matrix, by forward elimination alone:
    each step pivots on the first nonzero entry a in row-major order, at
    (i, c), drops rows i and above (the rows above are zero) and sets
    A <- a A - A[:, c] (x) A[i] mod p.  There is no inverse, no row swap and
    no back-substitution; the rank is the number of steps, and the steps
    stop at rank min(m, n) with no scan of what is left.  Raises
    LinalgError when p >= 2**31, where int64 products of two residues could
    overflow.
    """
    if p >= 2**31:  # entries stay in [0, p), so products stay below p^2 < 2**62
        raise LinalgError(f"modulus {p} is too large for int64 elimination")
    A = np.mod(np.asarray(mat, dtype=np.int64), p)
    rank, full = 0, min(A.shape)
    while A.size and rank < full:
        nonzero = (A != 0).ravel()
        first = int(nonzero.argmax())
        if not nonzero[first]:
            break
        i, c = divmod(first, A.shape[1])
        pivot_row, A = A[i], A[i + 1 :]
        A = (pivot_row[c] * A - A[:, c, None] * pivot_row) % p
        rank += 1
    return rank
