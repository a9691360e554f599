"""Dense brackets for the tests: the integral ``ad`` scattered from the
sparse Chevalley table, the stack of ad(x) mod p for the rows x of a
matrix, the structure constants N_{a,b} and the bracket of two
coefficient vectors read off it, literal Jacobi checks on sampled basis
triples (from the table rows, so E8 needs no dense ``ad``), the dense
matrix of a realization's dtheta, the kernel over F_p that is the oracle
for its eigenspaces, the dense eigenspace bases of a realization and the
samples drawn from them, and the grading laws of a realization checked
bracket by bracket.

Apart from ``eigenbases``, which spells out the (lead, partner, coef)
rows a realization holds as dense matrices, these are independent of the
plan of ``centralizer_dims`` and of the signed permutation, so the tests
that use them check the library against a second route through the same
table.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from typing import List, Tuple

import numpy as np

from thetatool.liealg import LieAlgebraError
from thetatool.linalg import LinalgError


@lru_cache(maxsize=4)
def dense_ad(table) -> np.ndarray:
    """ad[i][l][k] = c for each table row (i, k, l, c): column k of ad x_i
    is [x_i, x_k]."""
    ad = np.zeros((table.dim,) * 3, dtype=np.int64)
    i, k, l, c = table.entries.T
    ad[i, l, k] = c
    ad.flags.writeable = False
    return ad


@lru_cache(maxsize=None)
def _scatter(table) -> tuple:
    """The plan of ``adjoint``: the table rows sorted by the matrix position
    l*dim + k, as (i, c, segment starts, one position per segment)."""
    i, k, l, c = table.entries.T
    pos = l * table.dim + k
    order = np.argsort(pos, kind="stable")
    pos = pos[order]
    starts = np.flatnonzero(np.r_[True, pos[1:] != pos[:-1]])
    return i[order], c[order], starts, pos[starts]


def adjoint(table, X: np.ndarray, p: int) -> np.ndarray:
    """The stack of ad(x) mod p for the rows x of X, shape (n, dim, dim);
    entry (l, k) of ad(x) is the x_l coefficient of [x, x_k]."""
    X = np.mod(X, p)
    first, coef, starts, pos = _scatter(table)
    out = np.zeros((len(X), table.dim * table.dim), dtype=np.int64)
    out[:, pos] = np.add.reduceat(X[:, first] * coef, starts, axis=1) % p
    return out.reshape(-1, table.dim, table.dim)


def root_constants(table) -> dict:
    """{(a, b): N_{a,b}} on root indices, from the table rows
    [e_a, e_b] = N_{a,b} e_{a+b}."""
    n = table.rs.rank
    i, k, _, c = table.entries[(table.entries[:, :3] >= n).all(axis=1)].T
    return {(a, b): v for a, b, v in zip((i - n).tolist(), (k - n).tolist(), c.tolist())}


def bracket_vec(alg, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] mod p for coefficient vectors."""
    ad = dense_ad(alg.table)
    out = np.zeros(alg.dim, dtype=np.int64)
    for i in np.nonzero(x)[0]:
        out += x[i] * (ad[i] @ y)
    return np.mod(out, alg.p)


@lru_cache(maxsize=4)
def basis_brackets(table) -> dict:
    """{(i, k): [(l, c), ...]} from the table rows [x_i, x_k] = c x_l."""
    out = {}
    for i, k, l, c in table.entries.tolist():
        out.setdefault((i, k), []).append((l, c))
    return out


def sample_jacobi(alg, count: int, seed: int = 0) -> None:
    """Literal Jacobi checks on random basis triples mod p: [[x_i, x_j], x_k]
    + [[x_j, x_k], x_i] + [[x_k, x_i], x_j], each bracket a sum over the
    table rows of its pair."""
    rng = random.Random(seed)
    brackets = basis_brackets(alg.table)
    n = alg.dim
    for _ in range(count):
        i, j, k = (rng.randrange(n) for _ in range(3))
        total = Counter()
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, u in brackets.get((a, b), ()):
                for l, v in brackets.get((m, c), ()):
                    total[l] += u * v
        if any(v % alg.p for v in total.values()):
            raise LieAlgebraError(f"Jacobi failure at triple ({i},{j},{k})")


def dense_dtheta(pair) -> np.ndarray:
    """The dim x dim matrix of dtheta: column i is sign[i] e_{perm[i]}."""
    d = np.zeros((pair.alg.dim,) * 2, dtype=np.int64)
    d[pair.perm, np.arange(pair.alg.dim)] = pair.sign
    return d


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


def kernel_mod_p(mat, p: int) -> np.ndarray:
    """Basis of the right kernel {x : mat @ x = 0} over F_p.

    One row per free column f, in increasing order: 1 at f, 0 at the other
    free columns, and minus the reduced form's column f at the pivots.
    """
    R, pivots = rref_mod_p(mat, p)
    ncols = R.shape[1]
    free = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        basis[k, pivots] = -R[:, f] % p
    return basis


def eigenbases(pair) -> Tuple[np.ndarray, np.ndarray]:
    """The dense k and p bases of a realization: one row e_j + c e_{perm[j]}
    for each column (j, perm[j], c) of its ``_rows``, k rows then p rows."""
    lead, partner, coef = pair._rows
    basis = np.eye(pair.alg.dim, dtype=np.int64)[lead]
    basis[np.arange(pair.alg.dim), partner] += coef
    return basis[: pair.dim_k], basis[pair.dim_k :]


def dense_p_element(pair, rng: random.Random) -> np.ndarray:
    """The sample ``random_p_element`` owes rng: dim_p coefficients drawn by
    rng.randrange(p), times the dense p basis, mod p."""
    coeffs = [rng.randrange(pair.alg.p) for _ in range(pair.dim_p)]
    return np.mod(np.array(coeffs, dtype=np.int64) @ eigenbases(pair)[1], pair.alg.p)


def dense_centralizer_dims(pair, x) -> tuple:
    """(dim z_k(x), dim z_p(x)) from the full products of the dense k and p
    bases with ad.T over all dim columns, ranked by ``rref_mod_p``."""
    p = pair.alg.p
    ad = adjoint(pair.alg.table, x[None], p)[0]
    return tuple(
        len(basis) - len(rref_mod_p(basis @ ad.T, p)[1])
        for basis in eigenbases(pair)
    )


def grading_laws_hold(pair) -> bool:
    """The dense k and p bases are the +1 and -1 eigenspaces of the dense
    dtheta (each row fixed or negated, together of rank dim mod p), and
    [k,k] in k, [k,p] in p and [p,p] in k on all pairs of basis vectors:
    every bracket is formed densely, and each law holds when appending the
    brackets to the target basis leaves its rank mod p unchanged.  The
    ranks are pivot counts of ``rref_mod_p``, not the library's
    ``rank_mod_p``, so that the check is independent of it."""
    alg, p = pair.alg, pair.alg.p
    ad = dense_ad(alg.table)
    k, pp = eigenbases(pair)
    d = dense_dtheta(pair)
    if np.any((k @ d.T - k) % p) or np.any((pp @ d.T + pp) % p):
        return False
    if len(rref_mod_p(np.vstack([k, pp]), p)[1]) != alg.dim:
        return False
    for left, right, target in ((k, k, k), (k, pp, pp), (pp, pp, k)):
        # [x, y] = ad(x) @ y, with ad(x) = sum_i x_i ad(x_i)
        ad_left = np.tensordot(left, ad, axes=1) % p
        brackets = (right @ ad_left.transpose(0, 2, 1)).reshape(-1, alg.dim)
        rank = len(rref_mod_p(target, p)[1])
        if len(rref_mod_p(np.vstack([target, brackets]), p)[1]) != rank:
            return False
    return True
