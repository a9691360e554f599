"""Chevalley-basis Lie algebras over prime fields, with the theta-grading
g = k + p realized for inner involutions and for the split (Chevalley)
involution, and exact centralizer-dimension solves over F_p.

Structure-constant signs are fixed by the extraspecial-pair convention:
for each non-simple positive root the pair (alpha, beta) with alpha minimal
in the canonical root order gets N_{alpha,beta} = +(q+1), and every other
constant follows from the Jacobi identity and the standard rotation rule
N_{a,b}/(c,c) = N_{b,c}/(a,a) for a + b + c = 0 (Carter, *Simple Groups of
Lie Type*, 4.1-4.2).  The constants are built on index arrays: the sum and
difference tables of the roots are one kernel lookup each, the chain
lengths q are three steps through the difference table, and N is filled
one height of alpha + beta at a time, every value scattered at once to the
12 ordered pairs of its triple a + b + c = 0 and of the negated triple.

The integral table does not depend on p, so each type has one
``ChevalleyTable``, built and verified once and shared by every prime.  It
holds a sparse bracket table with one row (i, k, l, c) for each
[x_i, x_k] = c x_l, and no dim^3 array is ever built.  The table is verified
by reading off it that the 2n simple root vectors x generate it, and by
checking ad[x, y] = [ad x, ad y] over Z for each of them and every basis
y, as joins of the rows of x with the table, one x at a time.

A realization dtheta is a signed permutation of the Chevalley basis.  Its
eigenspaces k and p are held once, as one (lead, partner, coef) triple per
basis row, read off the orbits; the grading check relabels the bracket
table.  Each realization composes the table with its rows once, into a
sparse plan from x in p to the matrix of [x, row b] on the rows, which
one scatter mod p fills per sample.  Only ``centralizer_dims`` eliminates
over F_p, on the blocks [x, k] -> p and [x, p] -> k of that matrix.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .rootsys import (
    RootSystem,
    _is_integer,
    _read_only,
    build_root_system,
    good_primes_from,
    is_odd_prime,
)


class LieAlgebraError(ValueError):
    """Bad prime, inconsistent constants, or a non-automorphism."""


# Largest |entry| of an integral ad matrix: |N_{a,b}| = q + 1 <= 3, Cartan
# integers are at most 3, and a coroot has simple-coroot coefficients at
# most 6 (the highest root of E8).
_AD_ENTRY_BOUND = 6

# find_inner_coweight pairs at most this many masks with the roots at once.
_MASK_BLOCK = 1 << 10


def _brackets_fit_int64(dim: int, p: int) -> bool:
    """Whether every int64 sum over reduced residues stays below 2**63.

    The sums bounded are: one entry of the matrix Q of
    ``SymmetricPairRealization.centralizer_dims``, at most dim terms (one
    per source index of the plan) of two residues, (p-1)^2 each; and a
    bracket of two reduced vectors summed over all dim^2 pairs of their
    coordinates, 6*(p-1)^2 each.  6*dim^2*(p-1)^2 covers both.
    """
    return _AD_ENTRY_BOUND * dim * dim * (p - 1) ** 2 < 2**63


# -- sparse joins ----------------------------------------------------------------


def _join(left: np.ndarray, starts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All index pairs (a, b) with left[a] == right[b], for a sorted column
    right given by starts[v] = np.searchsorted(right, v)."""
    lo = starts[left]
    n = starts[left + 1] - lo
    a = np.repeat(np.arange(len(left)), n)
    b = np.arange(int(n.sum())) + np.repeat(lo - np.cumsum(n) + n, n)
    return a, b


def _first_nonzero_key(keys: np.ndarray, vals: np.ndarray, p: int = 0) -> Optional[int]:
    """The smallest key whose values sum to nonzero (mod p when p > 0)."""
    if not keys.size:
        return None
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(vals, starts)
    if p:
        sums %= p
    bad = np.flatnonzero(sums)
    return int(keys[starts[bad[0]]]) if bad.size else None


# -- structure constants -----------------------------------------------------------


@lru_cache(maxsize=None)
def _root_tables(rs: RootSystem) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, D, q) on root indices, read-only: S[a, b] and D[a, b] index
    roots[a] + roots[b] and roots[b] - roots[a] (-1 where that is no root),
    each table from one kernel lookup, and q[a, b] = max{i : b - i a in Phi}
    by three steps through D (a root string has at most four roots)."""
    kernel, m = rs.kernel, len(rs.roots)
    V = rs.roots
    S, D = (
        kernel.lookup(W.reshape(-1, rs.rank)).reshape(m, m)
        for W in (V[:, None] + V, V - V[:, None])
    )
    rows, cur = np.arange(m)[:, None], np.arange(m)[None, :]
    q = np.zeros((m, m), dtype=np.int64)
    for _ in range(3):
        cur = np.where(cur >= 0, D[rows, cur], -1)
        q += cur >= 0
    return _read_only(S), _read_only(D), _read_only(q)


def _structure_constants(rs: RootSystem) -> np.ndarray:
    """N[a, b] = N_{a,b} on root indices, 0 where roots[a] + roots[b] is no
    root.  Each positive pair (x, y), x < y, with x + y a root stands for
    the triple x + y + c = 0 and its negative; the pairs go by the height
    of x + y, and at each height the extraspecial pair of each sum (x
    least) is seeded with q + 1 before the rest are derived from it by
    Jacobi, reading only lower heights.  Each value is scattered to the 12
    ordered pairs of its triple by antisymmetry, N_{-a,-b} = -N_{a,b} and
    N_{a,b}/(c,c) = N_{b,c}/(a,a) = N_{c,a}/(b,b)."""
    S, D, q = _root_tables(rs)
    m, npos, norms, neg = len(rs.roots), rs.num_positive, rs.kernel.norms, rs.negation
    # one spare row and column of zeros: N[-1, b] reads 0 for "no root"
    N = np.zeros((m + 1, m + 1), dtype=np.int64)

    def put(a, b, n):
        c = neg[S[a, b]]
        bc, ca = n * norms[a], n * norms[b]
        if (bc % norms[c]).any() or (ca % norms[c]).any():
            raise LieAlgebraError("non-integral rotation in structure constants")
        for i, j, v in ((a, b, n), (b, c, bc // norms[c]), (c, a, ca // norms[c])):
            N[i, j], N[j, i], N[neg[i], neg[j]], N[neg[j], neg[i]] = v, -v, -v, v

    x, y = np.nonzero(np.triu(S[:npos, :npos] >= 0, 1))
    # stable: the pairs of each sum keep increasing x, so the first is extraspecial
    order = np.argsort(S[x, y], kind="stable")
    x, y = x[order], y[order]
    z = S[x, y]
    seed = np.diff(z, prepend=-1) != 0
    es = np.flatnonzero(seed)[np.cumsum(seed) - 1]  # each pair's extraspecial pair
    g, d = x[es], y[es]
    height = rs.roots.sum(axis=1)[z]
    for h in range(2, sum(rs.highest_root) + 1):
        first, at = seed & (height == h), ~seed & (height == h)
        put(x[first], y[first], q[x[first], y[first]] + 1)
        a, b, ga, de = x[at], y[at], g[at], d[at]
        # Jacobi on (e_g, e_d, e_{-b}): N_{g,d} N_{z,-b} + term = 0, with
        # N_{z,-b} = N_{a,b} (a,a)/(z,z)
        term = N[de, neg[b]] * N[D[b, de], ga] + N[neg[b], ga] * N[D[b, ga], de]
        num, den = -term * norms[z[at]], N[ga, de] * norms[a]
        if (num % den).any():
            raise LieAlgebraError("non-integral derived structure constant")
        put(a, b, num // den)
    return N[:m, :m]


def _bracket_entries(rs: RootSystem) -> np.ndarray:
    """Rows (i, k, l, c), one for each [x_i, x_k] = c x_l with c != 0:
    [h_j, e_b] = <b, alpha_j^vee> e_b, [e_a, e_{-a}] = a^vee for a positive,
    and [e_a, e_b] = N_{a,b} e_{a+b}."""
    n, npos = rs.rank, rs.num_positive
    simple = rs.kernel.cartan_rows(rs.roots)[0][:, rs.simple_indices]
    r, h = np.nonzero(simple)
    c, e = simple[r, h], n + r
    q, k = np.nonzero(rs.coroots[:npos])
    v, neg = rs.coroots[q, k], rs.negation[q]
    S = _root_tables(rs)[0]
    a, b = np.nonzero(S >= 0)
    blocks = [
        (h, e, e, c), (e, h, e, -c),
        (n + q, n + neg, k, v), (n + neg, n + q, k, -v),
        (n + a, n + b, n + S[a, b], _structure_constants(rs)[a, b]),
    ]
    return np.concatenate([np.stack(b, axis=1) for b in blocks])


class ChevalleyTable:
    """The integral Chevalley basis of one simple type, shared by all primes.

    Basis order: h_1..h_n (simple coroots), then e_beta for beta in the
    canonical root order.  ``entries`` is the sparse bracket table, rows
    (i, k, l, c) for [x_i, x_k] = c x_l sorted by (i, k, l), read-only.
    """

    def __init__(self, rs: RootSystem, entries: np.ndarray):
        self.rs = rs
        self.dim = rs.rank + len(rs.roots)
        entries = np.array(entries, dtype=np.int64).reshape(-1, 4)
        self.entries = _read_only(entries[np.lexsort(entries[:, 2::-1].T)])

    def basis_name(self, i: int) -> str:
        if i < self.rs.rank:
            return f"h{i + 1}"
        return f"e{tuple(self.rs.roots[i - self.rs.rank].tolist())}"

    def check_jacobi(self) -> None:
        """ad[x_g, x_j] = [ad x_g, ad x_j] over Z for every j and each g in
        S = e_{alpha_1}..e_{alpha_n}, e_{-alpha_1}..e_{-alpha_n}.

        The pairwise identity for (i, j) says that ad x_i is a derivation
        at x_j.  The x with ad x a derivation form a Lie subalgebra: if ad x
        and ad y are derivations, ad[x, y] = [ad x, ad y] is a commutator of
        derivations, hence one.  So the identity holds for all pairs once
        it holds on S and S generates g (Humphreys, *Introduction to Lie
        Algebras and Representation Theory*, 18.3 and 25.2).  Generation
        over Q is read off the table first: each basis element outside S
        must be the x_l of a row [g, y] = c x_l with g in S, c != 0, that
        is the lone row of its pair (g, y); h_i from [e_{alpha_i},
        e_{-alpha_i}], a root vector from a y of smaller |height| (h has
        height 0), so induction on |height| gives g.

        With [x_i, x_k] = T(i,k,l) x_l, entry (l, k) of ad[x_g, x_j] -
        [ad x_g, ad x_j] is

            sum_m T(g,j,m) T(m,k,l) - sum_n T(j,k,n) T(g,n,l)
                                    + sum_n T(g,k,n) T(j,n,l),

        each sum a join of the rows of g with the table on its middle index,
        one g at a time in the order of S.  The first failing pair is raised.
        """
        rs, dim, n = self.rs, self.dim, self.rs.rank
        first, second, out, coef = self.entries.T
        neg = np.r_[np.arange(n), n + rs.negation]  # x_b -> x_{-b} on basis indices
        simple = n + rs.simple_indices
        gens = np.concatenate([simple, neg[simple]])
        in_s, coroot_of = np.zeros(dim, dtype=bool), np.full(dim, -1)
        in_s[gens], coroot_of[simple] = True, np.arange(n)
        height = np.r_[np.zeros(n, dtype=np.int64), np.abs(rs.roots.sum(axis=1))]
        pair = first * dim + second
        edge = np.concatenate([[True], pair[1:] != pair[:-1], [True]])
        lone = edge[:-1] & edge[1:]
        witness = in_s[first] & (coef != 0) & lone & np.where(
            out < n,
            (coroot_of[first] == out) & (second == neg[first]),
            height[second] < height[out],
        )
        covered = in_s | (np.bincount(out[witness], minlength=dim) > 0)
        if not covered.all():
            missing = self.basis_name(int(np.argmin(covered)))
            raise LieAlgebraError(f"{missing} is not generated by the simple root vectors")
        by_second, by_out = np.argsort(second, kind="stable"), np.argsort(out, kind="stable")
        at_first, at_second, at_out = (
            np.searchsorted(col, np.arange(dim + 1)) for col in (first, second[by_second], out[by_out])
        )
        for g in gens.tolist():
            rows = np.arange(at_first[g], at_first[g + 1])
            # u runs over the rows of g, v over the table, in each of the three sums
            u1, v1 = _join(out[rows], at_first)  # T(g,j,m) T(m,k,l)
            u2, v2 = _join(out[rows], at_second)  # T(g,k,n) T(j,n,l)
            u3, v3 = _join(second[rows], at_out)  # T(g,n,l) T(j,k,n)
            u1, u2, u3, v2, v3 = rows[u1], rows[u2], rows[u3], by_second[v2], by_out[v3]
            j = np.concatenate([second[u1], first[v2], first[v3]])
            k = np.concatenate([second[v1], second[u2], second[v3]])
            l = np.concatenate([out[v1], out[v2], out[u3]])
            vals = np.concatenate([coef[u1] * coef[v1], coef[u2] * coef[v2], -coef[u3] * coef[v3]])
            key = _first_nonzero_key((j * dim + k) * dim + l, vals)
            if key is not None:
                names = f"{self.basis_name(g)}, {self.basis_name(key // (dim * dim))}"
                raise LieAlgebraError(f"Jacobi failure at basis pair ({names})")

    def check_chevalley_property(self) -> None:
        """|N_{a,b}| = q + 1 on every row [e_a, e_b] = N_{a,b} e_{a+b},
        with q the length of the a-chain below b."""
        rs, n = self.rs, self.rs.rank
        a, b, _, c = (self.entries[(self.entries[:, :3] >= n).all(axis=1)] - [n, n, n, 0]).T
        bad = np.flatnonzero(np.abs(c) != _root_tables(rs)[2][a, b] + 1)
        if bad.size:
            r = bad[0]
            x, y = (tuple(rs.roots[k].tolist()) for k in (a[r], b[r]))
            raise LieAlgebraError(f"|N| != q+1 at ({x}, {y}): N = {c[r]}")


@lru_cache(maxsize=None)
def chevalley_table(series: str, rank: int) -> ChevalleyTable:
    """Build, verify (Jacobi and |N| = q + 1) and cache the integral table
    of a simple type."""
    rs = build_root_system(series, rank)
    table = ChevalleyTable(rs, _bracket_entries(rs))
    table.check_jacobi()
    table.check_chevalley_property()
    return table


class ModularLieAlgebra:
    """The derived Chevalley form of a simple type over F_p: the prime and
    the shared integral table.  The bracket reduces the integral structure
    constants mod p.
    """

    def __init__(self, rs: RootSystem, p: int):
        dim = rs.rank + len(rs.roots)
        if not _is_integer(p):
            raise LieAlgebraError(f"p = {p!r} is not an integer")
        p = int(p)
        if not _brackets_fit_int64(dim, p):
            raise LieAlgebraError(
                f"p = {p} is too large for exact int64 brackets of "
                f"{rs.series}{rs.rank} (dimension {dim})"
            )
        if not is_odd_prime(p):
            raise LieAlgebraError(f"p = {p} is not an odd prime")
        bound = good_primes_from(rs)
        if p <= bound:
            raise LieAlgebraError(
                f"p = {p} is not good for {rs.series}{rs.rank}: highest root "
                f"has coefficient {bound}"
            )
        self.p = p
        self.table = chevalley_table(rs.series, rs.rank)

    @property
    def rs(self) -> RootSystem:
        return self.table.rs

    @property
    def dim(self) -> int:
        return self.table.dim

    def e_index(self, root_idx: int) -> int:
        return self.rs.rank + root_idx


@lru_cache(maxsize=None, typed=True)
def build_algebra(series: str, rank: int, p: int) -> ModularLieAlgebra:
    """Build (and cache) the Chevalley algebra of a simple type over F_p.

    Raises LieAlgebraError when p is not an odd good prime for the type.
    The cache is typed, so p = 7.0 is validated, not answered as p = 7.
    """
    return ModularLieAlgebra(build_root_system(series, rank), p)


# -- symmetric pair realizations ----------------------------------------------


class SymmetricPairRealization:
    """A concrete Z/2-grading g = k + p over F_p.

    dtheta(x_i) = sign[i] x_{perm[i]}, so dtheta x = sign * x[perm]; perm
    and sign are read-only int64 arrays.  ``_rows`` is the one record of
    the eigenspaces: a read-only (3, dim) array with one column (lead j,
    partner perm[j], coef) per basis row e_j + coef e_{perm[j]} (residues
    mod p), one row per orbit of perm, k rows then p rows, each ordered by
    its larger index j.  A fixed point j gives e_j (coef 0), to k when
    sign[j] = +1 and to p otherwise; a 2-cycle i < j gives e_j + s e_i to k
    and e_j - s e_i to p, s = sign[j].  These are the reduced echelon
    kernels of dtheta -+ 1, with no elimination.  ``_p_rows`` is the p
    part of ``_rows``, a read-only copy.
    """

    def __init__(self, alg: ModularLieAlgebra, perm, sign):
        self.alg = alg
        dim = alg.dim
        perm = np.asarray(perm, dtype=np.int64)
        sign = np.asarray(sign, dtype=np.int64)
        # dtheta^2 = 1: perm an involution, sign +-1 and constant on its orbits
        if not (
            perm.shape == sign.shape == (dim,)
            and ((perm >= 0) & (perm < dim)).all()
            and np.array_equal(perm[perm], np.arange(dim))
            and (np.abs(sign) == 1).all()
            and np.array_equal(sign[perm], sign)
        ):
            raise LieAlgebraError("dtheta is not an involution")
        self.perm, self.sign = _read_only(perm), _read_only(sign)
        k_rows, p_rows = self._eigenbasis(1), self._eigenbasis(-1)
        self.dim_k, self.dim_p = k_rows.shape[1], p_rows.shape[1]
        self._rows = _read_only(np.hstack([k_rows, p_rows]))
        self._p_rows = _read_only(p_rows)

    def _eigenbasis(self, eig: int) -> np.ndarray:
        """Rows (lead j, partner perm[j], coef), one column per basis row
        e_j + coef e_{perm[j]}: coef is 0 at a fixed point and eig * sign[j]
        mod p on a 2-cycle."""
        perm, sign = self.perm, self.sign
        j = np.flatnonzero(perm <= np.arange(len(perm)))
        j = j[(perm[j] != j) | (sign[j] == eig)]
        return np.stack([j, perm[j], np.where(perm[j] != j, eig * sign[j] % self.alg.p, 0)])

    def check_grading(self) -> None:
        """[k,k] in k, [k,p] in p, [p,p] in k, exhaustively on basis pairs.

        The laws hold exactly when dtheta preserves brackets.  Each row of
        ``_rows`` is an eigenvector: with s = sign[j] = sign[perm[j]] (the
        constructor checks it) and c = eig * s, dtheta(e_j + c e_i) =
        s e_i + c s e_j = eig (e_j + c e_i).  An orbit gives as many rows
        as it has elements, and e_j + s e_i, e_j - s e_i span e_i and e_j
        since 2 is invertible mod p, so the rows span g.  On eigenvectors x
        and y, [x, y] lies in the eigenspace of the product eigenvalue
        exactly when dtheta[x, y] = [dtheta x, dtheta y].

        With sigma = perm, s = sign and [x_i, x_k] = T(i,k,l) x_l, dtheta
        preserves brackets when s_i s_k s_l T(sigma i, sigma k, sigma l) =
        T(i,k,l) mod p for all (i, k, l): the table rows and their
        relabelled copies, valued -s_i s_k s_l c at key (sigma i, sigma k,
        sigma l), are summed per key.  The first failing pair (i, k) in
        row-major order is reported.
        """
        dim, perm, s = self.alg.dim, self.perm, self.sign
        i, k, l, c = self.alg.table.entries.T
        keys = np.r_[(i * dim + k) * dim + l, (perm[i] * dim + perm[k]) * dim + perm[l]]
        vals = np.r_[c, -s[i] * s[k] * s[l] * c]
        key = _first_nonzero_key(keys, vals, self.alg.p)
        if key is not None:
            i, j = divmod(key // dim, dim)
            raise LieAlgebraError(f"dtheta fails to preserve brackets at pair ({i}, {j})")

    @cached_property
    def _plan(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The linear map from x in p to the dim x dim matrix Q of
        ``_bracket_matrix``, as read-only (source index, coefficient mod p,
        segment starts, one position r*dim + b per segment):
        Q.flat[pos] = reduceat(x[src] * coef, starts) mod p.

        Q[r, b] is the component on row r of [x, row b].  With R the matrix
        of ``_rows`` (R[r, lead] = 1, R[r, partner] = coef), Q = W R ad(x)
        R^T, three sparse maps composed:
        - the table rows (i, k, l, c), entry (l, k) of ad x_i;
        - R^T, since row b is e_lead + coef e_partner;
        - W R, the projection of coordinate l onto the rows, with
          W = diag(w), w = 1 at a fixed point and 2^-1 mod p on a 2-cycle
          (p is odd): on a 2-cycle i < j with s = sign[j], v_j e_j + v_i e_i
          = (v_j + s v_i)/2 (e_j + s e_i) + (v_j - s v_i)/2 (e_j - s e_i).
        Since x is in p, x = sum_r x[lead_r] R[r] over the p rows, so each
        x_i is read at the lead of the one p row through i, and indices in
        no p row are dropped.  Terms of equal (position, source) are summed
        and zero sums dropped, so a segment has at most dim terms.
        """
        dim, p, dk = self.alg.dim, self.alg.p, self.dim_k
        lead, partner, coef = self._rows
        two = lead != partner
        # R as (row, column, value) sorted by column: an index is the lead or
        # the partner of one row at a fixed point, of a k and a p row otherwise
        row = np.r_[np.arange(dim), np.flatnonzero(two)]
        col = np.r_[lead, partner[two]]
        val = np.r_[np.ones(dim, dtype=np.int64), coef[two]]
        order = np.argsort(col, kind="stable")
        row, col, val = row[order], col[order], val[order]
        at = np.searchsorted(col, np.arange(dim + 1))
        in_p = row >= dk
        src, fold = np.full(dim, -1, dtype=np.int64), np.zeros(dim, dtype=np.int64)
        src[col[in_p]], fold[col[in_p]] = lead[row[in_p]], val[in_p]
        i, k, l, c = self.alg.table.entries[src[self.alg.table.entries[:, 0]] >= 0].T
        c = c * fold[i] % p
        u, v = _join(k, at)  # row b = row[v] has weight val[v] at column k
        uu, vv = _join(l[u], at)  # coordinate l goes to row r = row[vv]
        u, v = u[uu], v[uu]
        r, b = row[vv], row[v]
        w = np.where(two[r], pow(2, -1, p), 1) * val[vv] % p
        key = (r * dim + b) * dim + src[i[u]]
        vals = c[u] * val[v] % p * w % p
        order = np.argsort(key)
        key, vals = key[order], vals[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        vals = np.add.reduceat(vals, first) % p
        key, vals = key[first[vals != 0]], vals[vals != 0]
        pos = key // dim
        starts = np.flatnonzero(np.diff(pos, prepend=-1))
        return tuple(_read_only(a) for a in (key % dim, vals, starts, pos[starts]))

    def _bracket_matrix(self, x: np.ndarray) -> np.ndarray:
        """Q for x in p, entry (r, b) the component on row r of [x, row b]:
        one gather-multiply, one ``reduceat`` and one scatter mod p through
        ``_plan``."""
        dim, p = self.alg.dim, self.alg.p
        src, coef, starts, pos = self._plan
        Q = np.zeros(dim * dim, dtype=np.int64)
        Q[pos] = np.add.reduceat(np.mod(x, p)[src] * coef, starts) % p
        return Q.reshape(dim, dim)

    def centralizer_dims(self, x: np.ndarray) -> Tuple[int, int]:
        """(dim z_k(x), dim z_p(x)) for x in p, by exact F_p ranks of the
        blocks [x, k] -> p and [x, p] -> k of ``_bracket_matrix``, k rows
        first.

        Each call checks that Q[:dk, :dk] ([x, k] on k) and Q[dk:, dk:]
        ([x, p] on p) vanish, whether or not ``check_grading`` ran.  Then
        [x, k] lies in p, and its components on the p rows are its
        coordinates at their leads (no other row touches a row's lead), so
        the off-diagonal blocks are those of ad x at the lead rows; each is
        eliminated on its own.  Raises LieAlgebraError when x is not an
        integer array that int64 holds (a bool is not one), has the wrong
        shape or is not in p, or when a check fails.
        """
        dim, p, dk = self.alg.dim, self.alg.p, self.dim_k
        x = np.asarray(x)
        if x.dtype.kind not in "iu" or not np.can_cast(x.dtype, np.int64):
            raise LieAlgebraError(f"x has dtype {x.dtype}, expected an integer type within int64")
        if x.shape != (dim,):
            raise LieAlgebraError(f"x has shape {x.shape}, expected ({dim},)")
        if np.any((self.sign * x[self.perm] + x) % p):
            raise LieAlgebraError("x is not in p: dtheta x != -x mod p")
        Q = self._bracket_matrix(x)
        if Q[:dk, :dk].any():
            raise LieAlgebraError("grading fails at x: [x, k] is not in p")
        if Q[dk:, dk:].any():
            raise LieAlgebraError("grading fails at x: [x, p] is not in k")
        return (
            dk - linalg.rank_mod_p(Q[dk:, :dk], p),
            self.dim_p - linalg.rank_mod_p(Q[:dk, dk:], p),
        )

    def random_p_element(self, rng: random.Random) -> np.ndarray:
        """sum_r c_r (e_lead + coef e_partner) mod p over the p rows, the c_r
        drawn by rng.randrange(p) in row order.  No two p rows share a lead
        or a partner, so each sum is two scatters."""
        p = self.alg.p
        lead, partner, coef = self._p_rows
        c = np.array([rng.randrange(p) for _ in range(self.dim_p)], dtype=np.int64)
        x = np.zeros(self.alg.dim, dtype=np.int64)
        x[lead] = c
        x[partner] += c * coef
        return x % p


def realize_inner(alg: ModularLieAlgebra, mu: Sequence[int]) -> SymmetricPairRealization:
    """Inner involution from a 2-torsion coweight.

    mu lives in the coweight lattice mod 2, given by its pairings with the
    simple roots: dtheta(e_a) = (-1)^{<a, mu>} e_a and dtheta fixes h.
    """
    rs = alg.rs
    if len(mu) != rs.rank:
        raise LieAlgebraError("mu must pair against each simple root")
    parity = rs.roots @ np.array(mu, dtype=np.int64) % 2
    sign = np.r_[np.ones(rs.rank, dtype=np.int64), 1 - 2 * parity]
    return SymmetricPairRealization(alg, np.arange(alg.dim), sign)


def realize_chevalley_involution(alg: ModularLieAlgebra) -> SymmetricPairRealization:
    """The split involution: e_a -> -e_{-a}, h -> -h.

    Verified to be an automorphism against the structure constants
    (a failure would mean a sign bug in the constant table).
    """
    rs = alg.rs
    perm = np.r_[np.arange(rs.rank), alg.e_index(rs.negation)]
    sign = -np.ones(alg.dim, dtype=np.int64)
    pair = SymmetricPairRealization(alg, perm, sign)
    # no dimension check: each h_i is a negated fixed point and each 2-cycle
    # e_a <-> e_{-a} gives one k row and one p row, so the orbits fix
    # (dim k, dim p) = (|Phi+|, |Phi+| + rank)
    pair.check_grading()
    return pair


def find_inner_coweight(
    alg: ModularLieAlgebra, dim_k: int, dim_p: int
) -> Optional[Tuple[int, ...]]:
    """The first 2-torsion coweight, in mask order, whose grading has the
    given dimensions; None when no inner realization matches.  The root
    parities of a block of _MASK_BLOCK masks are one product, so every
    type of rank <= 10 takes one."""
    rs = alg.rs
    for start in range(1, 2**rs.rank, _MASK_BLOCK):
        masks = np.arange(start, min(start + _MASK_BLOCK, 2**rs.rank))
        mus = (masks[:, None] >> np.arange(rs.rank)) & 1
        dp = (rs.roots @ mus.T % 2).sum(axis=0)
        hit = np.flatnonzero((dp == dim_p) & (alg.dim - dp == dim_k))
        if hit.size:
            return tuple(mus[hit[0]].tolist())
    return None
