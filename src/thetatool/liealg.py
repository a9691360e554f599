"""Chevalley-basis Lie algebras over prime fields, with the theta-grading
g = k + p realized for inner involutions and for the split (Chevalley)
involution, and exact centralizer-dimension solves over F_p.

Structure-constant signs are fixed by the extraspecial-pair convention:
for each non-simple positive root the pair (alpha, beta) with alpha minimal
in the canonical root order gets N_{alpha,beta} = +(q+1), and every other
constant follows from the Jacobi identity and the standard rotation rule
N_{a,b}/(c,c) = N_{b,c}/(a,a) for a + b + c = 0.  The integral table is
verified wholesale by checking ad[x,y] = [ad x, ad y] over Z (faithful for
the derived Chevalley form), then reduced mod p.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .rootsys import (
    Root,
    RootSystem,
    _neg,
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


def _brackets_fit_int64(dim: int, p: int) -> bool:
    """``bracket_vec`` of two reduced vectors sums dim^2 products of two
    residues and an ad entry: all of them must stay below 2**63."""
    return _AD_ENTRY_BOUND * dim * dim * (p - 1) ** 2 < 2**63


class ModularLieAlgebra:
    """The derived Chevalley form of a simple type over F_p.

    Basis order: h_1..h_n (simple coroots), then e_beta for beta in the
    canonical root order.  All structure constants are integers; the
    bracket reduces them mod p.
    """

    def __init__(self, rs: RootSystem, p: int, check: bool = True):
        dim = rs.rank + len(rs.roots)
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
        self.rs = rs
        self.p = p
        self.dim = dim
        self._nconst: Dict[Tuple[int, int], int] = {}
        self._build_constants()
        self._ad = self._adjoint_matrices()
        if check:
            self._verify_integral_jacobi()
            self._verify_chevalley_property()

    # -- basis bookkeeping ---------------------------------------------------

    def e_index(self, root_idx: int) -> int:
        return self.rs.rank + root_idx

    def basis_name(self, i: int) -> str:
        if i < self.rs.rank:
            return f"h{i + 1}"
        return f"e{self.rs.roots[i - self.rs.rank]}"

    # -- structure constants ---------------------------------------------------

    def _chain_down(self, beta: Root, alpha: Root) -> int:
        """q = max { i : beta - i*alpha in Phi }."""
        rs = self.rs
        q = 0
        cur = tuple(b - a for b, a in zip(beta, alpha))
        while rs.is_root(cur):
            q += 1
            cur = tuple(c - a for c, a in zip(cur, alpha))
        return q

    def _build_constants(self) -> None:
        """Positive-pair table by increasing height of the sum, extraspecial
        pairs seeded positive, the rest propagated through Jacobi."""
        rs = self.rs
        pos = rs.roots[: rs.num_positive]
        order = {v: i for i, v in enumerate(pos)}  # canonical root order
        self._extraspecial: Dict[Root, Tuple[Root, Root]] = {}
        table: Dict[Tuple[Root, Root], int] = {}

        for gamma in pos:
            if sum(gamma) < 2:
                continue
            pairs = []
            for alpha in pos:
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                if beta in order and order[alpha] < order[beta]:
                    pairs.append((alpha, beta))
            pairs.sort(key=lambda ab: order[ab[0]])
            g_es, d_es = pairs[0]
            self._extraspecial[gamma] = (g_es, d_es)
            table[(g_es, d_es)] = self._chain_down(d_es, g_es) + 1
            for alpha, beta in pairs[1:]:
                table[(alpha, beta)] = self._derive_constant(
                    alpha, beta, g_es, d_es, table
                )
        self._pos_table = table
        # full signed table indexed by root indices: every (i, j) with
        # roots[i] + roots[j] a root
        for i, a in enumerate(rs.roots):
            for j, b in enumerate(rs.roots):
                s = tuple(x + y for x, y in zip(a, b))
                if rs.is_root(s):
                    self._nconst[(i, j)] = self._N(a, b, table)

    def _norm2(self, v: Root) -> int:
        return self.rs.norm2(v)

    def _N(self, a: Root, b: Root, table: Dict[Tuple[Root, Root], int]) -> int:
        """Constant N_{a,b} for arbitrary sign patterns, reduced to the
        positive table via N_{-a,-b} = -N_{a,b} and the rotation rule
        N_{a,b}/(c,c) = N_{b,c}/(a,a) for a + b + c = 0."""
        s = tuple(x + y for x, y in zip(a, b))
        if not self.rs.is_root(s):
            raise LieAlgebraError("N requested for a non-root sum")
        a_pos = self._is_pos(a)
        b_pos = self._is_pos(b)
        if a_pos and b_pos:
            if (a, b) in table:
                return table[(a, b)]
            return -table[(b, a)]
        if not a_pos and not b_pos:
            return -self._N(_neg(a), _neg(b), table)
        if not a_pos:  # negative first: antisymmetry
            return -self._N(b, a, table)
        # a positive, b negative
        if not self._is_pos(s):
            # flip signs twice: N(a,b) = N(-b,-a) with -b positive, sum -s > 0
            return self._N(_neg(b), _neg(a), table)
        # positive sum: N(a,b) = N(b,c) (c,c)/(a,a) with c = -s, and
        # N(b,c) = -N(-b, s) is a positive pair summing to a
        nbc = -self._N(_neg(b), s, table)
        num = nbc * self._norm2(s)
        den = self._norm2(a)
        q, r = divmod(num, den)
        if r:
            raise LieAlgebraError("non-integral rotation in structure constants")
        return q

    def _is_pos(self, v: Root) -> bool:
        return self.rs.root_index(v) < self.rs.num_positive

    def _derive_constant(self, alpha, beta, g_es, d_es, table) -> int:
        """Jacobi on (e_g, e_d, e_{-beta}) determines N_{alpha,beta} from the
        extraspecial pair (g, d) with g + d = alpha + beta."""
        rs = self.rs
        gamma_hat = tuple(a + b for a, b in zip(alpha, beta))
        neg_beta = tuple(-x for x in beta)
        term = 0
        xi = tuple(d - b for d, b in zip(d_es, beta))
        if rs.is_root(xi):
            term += self._N(d_es, neg_beta, table) * self._N(xi, g_es, table)
        g_minus_b = tuple(g - b for g, b in zip(g_es, beta))
        if rs.is_root(g_minus_b):
            term += self._N(neg_beta, g_es, table) * self._N(g_minus_b, d_es, table)
        n_es = table[(g_es, d_es)]
        # N_{g,d} * N_{hat,-beta} + term = 0 and
        # N_{hat,-beta} = N_{alpha,beta} (alpha,alpha)/(hat,hat)
        num = -term * self._norm2(gamma_hat)
        den = n_es * self._norm2(alpha)
        q, r = divmod(num, den)
        if r:
            raise LieAlgebraError("non-integral derived structure constant")
        return q

    # -- brackets ---------------------------------------------------------------

    def structure_constant(self, i: int, j: int) -> int:
        """N_{a,b} for root indices i, j with roots[i] + roots[j] a root."""
        return self._nconst[(i, j)]

    def bracket_basis(self, i: int, j: int) -> Dict[int, int]:
        """[x_i, x_j] on basis elements, as a sparse integer vector."""
        rs = self.rs
        n = rs.rank
        out: Dict[int, int] = {}
        if i < n and j < n:
            return out
        if i < n or j < n:
            if i < n:
                h, e = i, j
                sign = 1
            else:
                h, e = j, i
                sign = -1
            beta = rs.roots[e - n]
            c = sign * rs.pair_coroot_simple(beta, h)
            if c:
                out[e] = c
            return out
        a = rs.roots[i - n]
        b = rs.roots[j - n]
        s = tuple(x + y for x, y in zip(a, b))
        if all(x == 0 for x in s):
            # [e_a, e_{-a}] = a^vee in the simple-coroot basis
            sign = 1 if i - n < rs.num_positive else -1
            posroot = a if sign == 1 else b
            for k, c in enumerate(rs.coroot_coords(posroot)):
                if c:
                    out[k] = sign * c
            return out
        if rs.is_root(s):
            out[self.e_index(rs.root_index(s))] = self._nconst[(i - n, j - n)]
        return out

    def _adjoint_matrices(self) -> np.ndarray:
        ad = np.zeros((self.dim, self.dim, self.dim), dtype=np.int64)
        for i in range(self.dim):
            for j in range(self.dim):
                for k, c in self.bracket_basis(i, j).items():
                    ad[i][k][j] = c
        return ad

    def ad(self, i: int) -> np.ndarray:
        """Integer adjoint matrix of the i-th basis element."""
        return self._ad[i]

    def bracket_vec(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """[x, y] mod p for coefficient vectors."""
        out = np.zeros(self.dim, dtype=np.int64)
        for i in np.nonzero(x)[0]:
            out += x[i] * (self._ad[i] @ y)
        return np.mod(out, self.p)

    def bracket_rows(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """All brackets [left[a], right[b]] of two stacks of coefficient
        vectors, as rows in (a, b) order; entries are right mod p but not
        reduced."""
        ad_left = np.tensordot(left, self._ad, axes=(1, 0))
        ad_left %= self.p
        # [x, y] = ad(x) @ y, for every x in left at once
        return np.matmul(right, ad_left.transpose(0, 2, 1)).reshape(-1, self.dim)

    # -- verification -------------------------------------------------------------

    def _verify_integral_jacobi(self) -> None:
        """ad[x_i, x_j] = [ad x_i, ad x_j] over Z for all basis pairs.

        The adjoint representation of the rational Chevalley form is
        faithful, so this is equivalent to the Jacobi identity on all
        basis triples.
        """
        for i in range(self.dim):
            adi = self._ad[i]
            for j in range(i + 1, self.dim):
                adj = self._ad[j]
                comm = adi @ adj - adj @ adi
                lie = np.zeros_like(comm)
                for k, c in self.bracket_basis(i, j).items():
                    lie += c * self._ad[k]
                if not np.array_equal(comm, lie):
                    raise LieAlgebraError(
                        f"Jacobi failure at basis pair ({self.basis_name(i)}, "
                        f"{self.basis_name(j)})"
                    )

    def _verify_chevalley_property(self) -> None:
        """|N_{a,b}| = q + 1 with q the length of the a-chain below b."""
        rs = self.rs
        for (i, j), n in self._nconst.items():
            a, b = rs.roots[i], rs.roots[j]
            if abs(n) != self._chain_down(b, a) + 1:
                raise LieAlgebraError(
                    f"|N| != q+1 at ({a}, {b}): N = {n}"
                )

    def sample_jacobi(self, count: int, seed: int = 0) -> None:
        """Literal Jacobi checks on random basis triples mod p."""
        rng = random.Random(seed)
        n = self.dim
        for _ in range(count):
            i, j, k = (rng.randrange(n) for _ in range(3))
            x = np.zeros(n, dtype=np.int64); x[i] = 1
            y = np.zeros(n, dtype=np.int64); y[j] = 1
            z = np.zeros(n, dtype=np.int64); z[k] = 1
            total = (
                self.bracket_vec(self.bracket_vec(x, y), z)
                + self.bracket_vec(self.bracket_vec(y, z), x)
                + self.bracket_vec(self.bracket_vec(z, x), y)
            )
            if np.any(np.mod(total, self.p)):
                raise LieAlgebraError(f"Jacobi failure at triple ({i},{j},{k})")


@lru_cache(maxsize=None)
def build_algebra(series: str, rank: int, p: int) -> ModularLieAlgebra:
    """Build (and cache) the Chevalley algebra of a simple type over F_p.

    Raises LieAlgebraError when p is not an odd good prime for the type.
    """
    return ModularLieAlgebra(build_root_system(series, rank), p)


# -- symmetric pair realizations ----------------------------------------------


class SymmetricPairRealization:
    """A concrete Z/2-grading g = k + p over F_p.

    k_basis / p_basis are integer coefficient matrices (rows = basis
    vectors of the eigenspaces); dtheta is the defining involution matrix.
    """

    def __init__(self, alg: ModularLieAlgebra, dtheta: np.ndarray, kind: str):
        self.alg = alg
        self.kind = kind
        self.dtheta = np.mod(dtheta, alg.p)
        p = alg.p
        eye = np.eye(alg.dim, dtype=np.int64)
        if np.any(np.mod(self.dtheta @ self.dtheta - eye, p)):
            raise LieAlgebraError("dtheta is not an involution")
        self.k_basis = linalg.kernel_mod_p(self.dtheta - eye, p)
        self.p_basis = linalg.kernel_mod_p(self.dtheta + eye, p)
        self.dim_k = self.k_basis.shape[0]
        self.dim_p = self.p_basis.shape[0]
        if self.dim_k + self.dim_p != alg.dim:
            raise LieAlgebraError("eigenspaces do not span")

    def check_automorphism(self, sample: int = 1000, seed: int = 1) -> None:
        """dtheta[x,y] = [dtheta x, dtheta y] on sampled basis pairs."""
        alg, p = self.alg, self.alg.p
        rng = random.Random(seed)
        pairs = alg.dim * alg.dim
        todo = (
            [(i, j) for i in range(alg.dim) for j in range(alg.dim)]
            if pairs <= sample
            else [(rng.randrange(alg.dim), rng.randrange(alg.dim)) for _ in range(sample)]
        )
        for i, j in todo:
            x = self.dtheta[:, i].copy()
            y = self.dtheta[:, j].copy()
            lhs = alg.bracket_vec(x, y)
            ei = np.zeros(alg.dim, dtype=np.int64); ei[i] = 1
            ej = np.zeros(alg.dim, dtype=np.int64); ej[j] = 1
            rhs = np.mod(self.dtheta @ alg.bracket_vec(ei, ej), p)
            if np.any(np.mod(lhs - rhs, p)):
                raise LieAlgebraError(
                    f"dtheta fails to preserve brackets at pair ({i}, {j})"
                )

    def check_grading(self) -> None:
        """[k,k] in k, [k,p] in p, [p,p] in k, exhaustively on basis pairs.

        Each law is one rank test: the brackets of all basis pairs lie in
        the target space exactly when appending them to its basis leaves
        the rank at its dimension.
        """
        alg, p = self.alg, self.alg.p
        for left, right, target, name in (
            (self.k_basis, self.k_basis, self.k_basis, "[k,k] in k"),
            (self.k_basis, self.p_basis, self.p_basis, "[k,p] in p"),
            (self.p_basis, self.p_basis, self.k_basis, "[p,p] in k"),
        ):
            rows = np.vstack([target, alg.bracket_rows(left, right)])
            if linalg.rank_mod_p(rows, p) != target.shape[0]:
                raise LieAlgebraError(f"grading law {name} fails")

    def centralizer_dims(self, x: np.ndarray) -> Tuple[int, int]:
        """(dim z_k(x), dim z_p(x)) for x in p, by exact F_p ranks."""
        alg, p = self.alg, self.alg.p
        ad_x = np.mod(np.tensordot(x, alg._ad, axes=(0, 0)), p)
        return (
            self.dim_k - linalg.rank_mod_p(self.k_basis @ ad_x.T, p),
            self.dim_p - linalg.rank_mod_p(self.p_basis @ ad_x.T, p),
        )

    def random_p_element(self, rng: random.Random) -> np.ndarray:
        coeffs = [rng.randrange(self.alg.p) for _ in range(self.dim_p)]
        return np.mod(
            np.array(coeffs, dtype=np.int64) @ self.p_basis, self.alg.p
        )


def realize_inner(alg: ModularLieAlgebra, mu: Sequence[int]) -> SymmetricPairRealization:
    """Inner involution from a 2-torsion coweight.

    mu lives in the coweight lattice mod 2, given by its pairings with the
    simple roots: dtheta(e_a) = (-1)^{<a, mu>} e_a and dtheta fixes h.
    """
    rs = alg.rs
    if len(mu) != rs.rank:
        raise LieAlgebraError("mu must pair against each simple root")
    d = np.zeros((alg.dim, alg.dim), dtype=np.int64)
    for i in range(rs.rank):
        d[i][i] = 1
    for ridx, beta in enumerate(rs.roots):
        sign = -1 if sum(c * m for c, m in zip(beta, mu)) % 2 else 1
        j = alg.e_index(ridx)
        d[j][j] = sign
    return SymmetricPairRealization(alg, d, kind=f"inner mu={tuple(mu)}")


def realize_chevalley_involution(alg: ModularLieAlgebra) -> SymmetricPairRealization:
    """The split involution: e_a -> -e_{-a}, h -> -h.

    Verified to be an automorphism against the structure constants
    (a failure would mean a sign bug in the constant table).
    """
    rs = alg.rs
    d = np.zeros((alg.dim, alg.dim), dtype=np.int64)
    for i in range(rs.rank):
        d[i][i] = -1
    npos = rs.num_positive
    for ridx in range(len(rs.roots)):
        neg = (ridx + npos) % len(rs.roots)
        d[alg.e_index(neg)][alg.e_index(ridx)] = -1
    pair = SymmetricPairRealization(alg, d, kind="chevalley")
    pair.check_automorphism()
    if pair.dim_k != npos or pair.dim_p != npos + rs.rank:
        raise LieAlgebraError("split realization has wrong eigenspace dimensions")
    return pair


def find_inner_coweight(
    alg: ModularLieAlgebra, dim_k: int, dim_p: int
) -> Optional[Tuple[int, ...]]:
    """Search the 2-torsion coweights for one whose grading has the given
    dimensions; None when no inner realization matches."""
    rs = alg.rs
    for mask in range(1, 2**rs.rank):
        mu = tuple((mask >> i) & 1 for i in range(rs.rank))
        dp = sum(
            1
            for beta in rs.roots
            if sum(c * m for c, m in zip(beta, mu)) % 2
        )
        if dp == dim_p and alg.dim - dp == dim_k:
            return mu
    return None
