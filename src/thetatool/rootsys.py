"""Exact root-system engine.

Roots are integer coordinate vectors in the simple-root basis; all pairings
go through the (symmetrized) Cartan matrix, so there is no floating point
anywhere.  Every bulk pairing, coroot and membership test goes through one
integer kernel, ``GramKernel``: a block of rows of the Gram table V F V^T of
a vector list V is one matrix product.  Each root system owns one kernel
over its roots, built with them and kept, and one exact coroot array.  The
root list is the kernel's read-only int64 array, and ``kernel.lookup`` finds
roots in it.  The inverse Cartan matrix is one product of the coroot and
root arrays (``cartan_inverse``): the package eliminates over Q nowhere.
A Weyl group element is a read-only int64 permutation w of the (finite,
canonically ordered) root list, sending roots[i] to roots[w[i]]; the
product x y is x[y].

The one Weyl orbit walk of the package, ``orbit_levels``, runs on Python
tuples: the roots are built with it, and ``weylinv`` walks the parabolic
coset orbits of its Poincare polynomial with it.  The module also provides
Smith-normal-form arithmetic for integer lattice quotients, which is how
fundamental groups and their two-torsion are computed downstream.

Root ordering convention: positive roots sorted by (height, coordinate
tuple), then the negative roots in the mirrored order, so that
``roots[i + num_positive] == -roots[i]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

SERIES = ("A", "B", "C", "D", "E", "F", "G")

# Reflection-group degrees per simple type; their product is |W|.
WEYL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}


class RootSystemError(ValueError):
    """Invalid root-system input (bad series/rank, bad index, bad lattice)."""


# Default cap on the order of W_A behind the report's Poincare field and the
# tests' enumerators; nothing in the library lists the group.
DEFAULT_CAP = 5 * 10**6


class CapExceededError(RootSystemError):
    """Raised when a Weyl group's predicted order exceeds the caller's cap.

    The cap guards the report's Poincare field (``build_report`` prints null
    and the reason) and the enumerators of the tests; nothing in the library
    lists the group element by element."""

    def __init__(self, predicted_order: int, cap: int):
        self.predicted_order = predicted_order
        self.cap = cap
        super().__init__(
            f"Weyl group has order {predicted_order}, exceeding the cap {cap}"
        )


class NonFiniteQuotientError(RootSystemError):
    """Raised when a lattice quotient has a free part."""

    def __init__(self, free_rank: int):
        self.free_rank = free_rank
        super().__init__(f"lattice quotient is not finite (free rank {free_rank})")


def degrees_for(series: str, rank: int) -> Tuple[int, ...]:
    """Invariant degrees of the Weyl group of a simple type."""
    if series == "A":
        return tuple(range(2, rank + 2))
    if series in ("B", "C"):
        return tuple(range(2, 2 * rank + 1, 2))
    if series == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    key = f"{series}{rank}"
    if key in WEYL_DEGREES:
        return WEYL_DEGREES[key]
    raise RootSystemError(f"no degree table for {key}")


# Miller-Rabin on the first thirteen prime bases decides primality exactly
# below this bound, the least strong pseudoprime to all of them (Sorenson
# and Webster, Math. Comp. 86, 2017); twelve bases are fooled far below it.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_integer(x) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; 2, every integer below it and every
    value that is not an integer are rejected.  Raises RootSystemError at or
    above the bound where the bases are proven to decide, rather than guess."""
    if not _is_integer(p):
        return False
    p = int(p)
    if p >= _PRIME_BOUND:
        raise RootSystemError(f"p = {p} is too large to test for primality exactly")
    if p < 3 or p % 2 == 0 or p in _PRIME_BASES:
        return p in _PRIME_BASES[1:]
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^s d with d odd
    for a in _PRIME_BASES:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def good_primes_from(rs: "RootSystem") -> int:
    """The largest coefficient of the highest root: an odd prime p is good
    for rs iff p exceeds it."""
    return int(rs.highest_root.max())


def weyl_order(series: str, rank: int) -> int:
    return prod(degrees_for(series, rank))


def validate_type(series: str, rank: int) -> None:
    """Reject (series, rank) pairs that are not a simple type, and a rank
    that is not a Python or numpy integer (a bool included).

    D3 (= A3) is accepted since it is a legitimate simple system under the
    D-shaped Cartan matrix.
    """
    ok = _is_integer(rank) and (
        (series == "A" and rank >= 1)
        or (series in ("B", "C") and rank >= 2)
        or (series == "D" and rank >= 3)
        or (series == "E" and rank in (6, 7, 8))
        or (series == "F" and rank == 4)
        or (series == "G" and rank == 2)
    )
    if not ok:
        raise RootSystemError(f"not a valid simple type: {series}{rank}")


def cartan_matrix(series: str, rank: int) -> Tuple[Tuple[int, ...], ...]:
    """Bourbaki Cartan matrix, entry [i][j] = <alpha_i, alpha_j^vee>."""
    validate_type(series, rank)
    n = rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def join(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if series in ("A", "B", "C"):
        for i in range(n - 1):
            join(i, i + 1)
        if series == "B" and n >= 2:
            # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
            join(n - 2, n - 1, -2, -1)
        if series == "C" and n >= 2:
            # alpha_n long
            join(n - 2, n - 1, -1, -2)
    elif series == "D":
        for i in range(n - 2):
            join(i, i + 1)
        join(n - 3, n - 1)
    elif series == "E":
        # chain 1-3-4-5-6(-7-8), node 2 attached to 4 (Bourbaki numbering)
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for a, b in zip(chain, chain[1:]):
            join(a, b)
        join(1, 3)
    elif series == "F":
        join(0, 1)
        join(1, 2, -2, -1)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        join(2, 3)
    elif series == "G":
        join(0, 1, -1, -3)  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in C)


def _root_halflengths(series: str, rank: int) -> Tuple[int, ...]:
    """d_i = (alpha_i, alpha_i)/2, normalized so short roots have d = 1."""
    n = rank
    if series == "B":
        return tuple([2] * (n - 1) + [1])
    if series == "C":
        return tuple([1] * (n - 1) + [2])
    if series == "F":
        return (2, 2, 1, 1)
    if series == "G":
        return (1, 3)
    return tuple([1] * n)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of an int64 matrix: equal keys are equal rows."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[1]))).ravel()


class GramKernel:
    """Exact pairings and membership for a fixed list of integer vectors.

    The vectors are the rows of an (M, n) int64 array V; F is the
    symmetrized form.  The Gram table V F V^T is never stored: any block of
    its rows is one product (rows F) V^T, and the Cartan integers
    <v, v_j^vee> = 2 (v, v_j) / (v_j, v_j) are read off it with ``//`` and
    an exact ``%`` check.  ``lookup`` finds integer vectors in the list by
    binary search over their bytes.
    """

    def __init__(self, vectors: Sequence[Sequence[int]], form: Sequence[Sequence[int]]):
        n = len(form)
        self.form = _read_only(np.array(form, dtype=np.int64).reshape(n, n))
        self.vectors = _read_only(np.array(vectors, dtype=np.int64).reshape(len(vectors), n))
        self.norms = _read_only(((self.vectors @ self.form) * self.vectors).sum(axis=1))
        self._keys = _row_keys(self.vectors)
        self._order = np.argsort(self._keys)

    def cartan_rows(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Cartan integers <rows[a], v_b^vee> for every b, and the mask of
        the entries where 2 (rows[a], v_b) / (v_b, v_b) is integral."""
        num = 2 * ((rows @ self.form) @ self.vectors.T)
        return num // self.norms, num % self.norms == 0

    def lookup(self, queries: np.ndarray) -> np.ndarray:
        """Index of each query row in the list, or -1 where it is absent."""
        if not len(self._keys):
            return np.full(len(queries), -1, dtype=np.int64)
        keys = _row_keys(queries)
        pos = np.searchsorted(self._keys, keys, sorter=self._order)
        found = self._order[pos % len(self._keys)]
        found[self._keys[found] != keys] = -1
        return found

    def reflections(self, js: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """s_{v_j} on the list for each j in js: row k holds the index of
        each s_{v_j}(v_i) (-1 where absent) for j = js[k], and where
        <v_i, v_j^vee> is integral.  The pairings are rows js of V F V^T."""
        js = np.asarray(js, dtype=np.int64)
        B = self.vectors[js]
        num = 2 * (B @ self.form @ self.vectors.T)
        norms = self.norms[js, None]
        # s_{v_j} fixes v_i where the pairing is 0: only the others are looked up
        c = num // norms
        k, i = np.nonzero(c)
        found = np.tile(np.arange(len(self.vectors)), (len(js), 1))
        found[k, i] = self.lookup(self.vectors[i] - c[k, i, None] * B[k])
        return found, num % norms == 0


def orbit_levels(
    level: Sequence[Tuple[int, ...]], steps: Sequence[Tuple[int, ...]]
) -> List[List[Tuple[int, ...]]]:
    """Breadth-first walk from the vectors of ``level`` under the simple
    reflections s_j(x) = x - <x, alpha_j^vee> alpha_j.

    A vector carries its pairings <x, alpha_j^vee> in its last len(steps)
    entries, and steps[j] is alpha_j in the same layout, so x moves to
    x - c steps[j] wherever its pairing c with alpha_j^vee is positive.
    Returns the levels: the given one, then the vectors first reached from
    each level, every vector listed once.
    """
    n = len(steps)
    seen = set(level)
    levels = [list(level)]
    while True:
        nxt = []
        for x in levels[-1]:
            for c, step in zip(x[len(x) - n :], steps):
                if c > 0:
                    y = tuple(a - c * b for a, b in zip(x, step))
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        if not nxt:
            return levels
        levels.append(nxt)


class RootSystem:
    """Root system of a simple type, with exact integer arithmetic.

    Attributes:
        series, rank: the simple type.
        cartan: Cartan matrix, cartan[i][j] = <alpha_i, alpha_j^vee>.
        roots: ``kernel.vectors``, the roots as int64 rows in canonical order.
        num_positive: the first num_positive rows of ``roots`` are the
            positive roots; roots[i + num_positive] = -roots[i].
        simple_indices: read-only int64 array, entry i the row of alpha_i.
        kernel: the ``GramKernel`` of the roots.
        coroots: read-only int64 array, row i the simple-coroot
            coordinates of roots[i]^vee.
    """

    def __init__(self, series: str, rank: int):
        validate_type(series, rank)
        self.series = series
        self.rank = int(rank)  # a numpy rank would reach the reports
        self.cartan = cartan_matrix(series, rank)
        d = _root_halflengths(series, rank)
        # Symmetrized form (alpha_i, alpha_j) = cartan[i][j] * d_j.
        self.form = tuple(
            tuple(self.cartan[i][j] * d[j] for j in range(rank)) for i in range(rank)
        )
        if any(self.form[i][j] != self.form[j][i] for i in range(rank) for j in range(i)):
            raise RootSystemError(f"symmetrized form of {series}{rank} is not symmetric")
        self._build_roots()

    # -- construction -----------------------------------------------------

    def _build_roots(self) -> None:
        """The roots from one orbit walk.  Each vector is a root's
        coordinates followed by its pairings <v, alpha_j^vee>, and the walk
        starts at the negative simple roots: every step lowers the height,
        and the walk finds all negative roots.  Their negatives, the
        positive roots, are sorted by (height, coordinates), and the root
        system keeps one ``GramKernel`` over the sorted list."""
        n = self.rank
        steps = [tuple(int(i == j) for i in range(n)) + self.cartan[j] for j in range(n)]
        levels = orbit_levels([tuple(-x for x in step) for step in steps], steps)
        pos = sorted((tuple(-x for x in v[:n]) for level in levels for v in level),
                     key=lambda v: (sum(v), v))
        pos = np.array(pos, dtype=np.int64)
        vectors = np.vstack([pos, -pos])
        self.kernel = GramKernel(vectors, self.form)
        self.roots = self.kernel.vectors
        self.num_positive = len(pos)
        self.simple_indices = _read_only(self.kernel.lookup(np.eye(n, dtype=np.int64)))
        # beta^vee = sum_i b_i (alpha_i, alpha_i)/(beta, beta) alpha_i^vee
        num = self.roots * np.diag(self.kernel.form)
        if (num % self.kernel.norms[:, None]).any():
            raise RootSystemError(f"a coroot of {self.series}{self.rank} is not integral")
        self.coroots = _read_only(num // self.kernel.norms[:, None])

    @cached_property
    def cartan_inverse(self) -> Tuple[Tuple[Tuple[int, ...], ...], int]:
        """(L C^-1, L) for the Cartan matrix C, with L the least positive
        integer that makes L C^-1 integral, read off the roots once, with no
        elimination.  T(x) = sum_a <x, a^vee> a over the roots commutes with
        W, so on the irreducible reflection representation it is kappa
        times the identity (Schur; Bourbaki, Lie VI 1.12), and kappa > 0
        since (x, T x) = sum_a 2 (x, a)^2 / (a, a).  Row i of C X, with
        X = coroots^T roots, is T(alpha_i) in the simple-root basis, so
        C X = kappa I; dividing X and kappa by their gcd g leaves the least
        L = kappa / g.  The identity is checked, so a wrong coroot array
        raises RootSystemError.  Root and coroot coefficients are at most 6,
        so |X_ij| <= 36 |Phi|: X and C X are exact in int64."""
        X = self.coroots.T @ self.roots
        CX = np.array(self.cartan, dtype=np.int64) @ X
        kappa = int(CX[0, 0])
        if kappa <= 0 or (CX != kappa * np.eye(self.rank, dtype=np.int64)).any():
            raise RootSystemError(
                f"the coroots of {self.series}{self.rank} do not invert its Cartan matrix"
            )
        g = gcd(kappa, *X.ravel().tolist())
        return tuple(map(tuple, (X // g).tolist())), kappa // g

    @cached_property
    def simple_cartan_rows(self) -> np.ndarray:
        """Read-only (rank, |Phi|) array, entry (i, b) the Cartan integer
        <alpha_i, roots[b]^vee>."""
        return _read_only(self.kernel.cartan_rows(self.roots[self.simple_indices])[0])

    @property
    def highest_root(self) -> np.ndarray:
        return self.roots[self.num_positive - 1]

    def __repr__(self) -> str:
        return f"RootSystem({self.series}{self.rank}, {len(self.roots)} roots)"

    # -- Weyl elements ------------------------------------------------------

    def reflections(self, indices: Sequence[int]) -> np.ndarray:
        """Read-only (k, |Phi|) array, row k the permutation of s_beta for
        beta = roots[indices[k]], from one kernel call."""
        if any(not 0 <= i < len(self.roots) for i in indices):
            raise RootSystemError(f"root indices {tuple(indices)} out of range")
        images, integral = self.kernel.reflections(indices)
        bad = np.flatnonzero(~integral.all(axis=1) | (images < 0).any(axis=1))
        if bad.size:
            beta = tuple(self.roots[indices[bad[0]]].tolist())
            raise RootSystemError(f"roots of {self.series}{self.rank} not closed under s_{beta}")
        return _read_only(images)

    @cached_property
    def simple_reflections(self) -> np.ndarray:
        """Read-only (rank, |Phi|) array, row i the permutation of s_{alpha_i}."""
        return self.reflections(self.simple_indices)

    def longest_element(self, simple: Optional[Iterable[int]] = None) -> np.ndarray:
        """The longest element of the parabolic subgroup generated by the
        given simple indices (all of them by default): the unique element
        of that subgroup sending each of its positive roots to a negative one.

        Built greedily: while some simple root of the subgroup stays
        positive, multiply by that reflection (each step raises the length
        by one).
        """
        if simple is None:
            return self._longest
        indices = sorted(simple)
        if any(not 0 <= i < self.rank for i in indices):
            raise RootSystemError(f"simple indices {tuple(indices)} out of range")
        simples = self.simple_indices[indices]
        w = np.arange(len(self.roots), dtype=np.int64)
        while True:
            positive = np.flatnonzero(w[simples] < self.num_positive)
            if not positive.size:
                return _read_only(w)
            w = w[self.simple_reflections[indices[positive[0]]]]

    @cached_property
    def _longest(self) -> np.ndarray:
        """The longest element w_0 of the whole Weyl group."""
        return self.longest_element(range(self.rank))


@lru_cache(maxsize=None, typed=True)
def build_root_system(series: str, rank: int) -> RootSystem:
    """Build (and cache) the root system of a simple type.

    Raises RootSystemError on an invalid (series, rank) pair.  The cache
    is typed, so a rank of 3.0 is validated, not answered as rank 3.
    """
    return RootSystem(series, rank)


# -- integer lattice arithmetic ---------------------------------------------


def smith_normal_form(mat: Sequence[Sequence[int]]) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the list of nonzero diagonal entries d_1 | d_2 | ... (positive);
    the rank of the matrix is the number of entries returned.
    """
    M = [list(row) for row in mat]
    diag = []
    while any(any(row) for row in M):
        # an entry of least absolute value goes to the corner; reducing its
        # row and column by it leaves remainders smaller than it, or none
        _, i, j = min((abs(x), i, j) for i, row in enumerate(M) for j, x in enumerate(row) if x)
        M[0], M[i] = M[i], M[0]
        for row in M:
            row[0], row[j] = row[j], row[0]
        p = M[0][0]
        for row in M[1:]:
            q = row[0] // p
            row[:] = [x - q * y for x, y in zip(row, M[0])]
        qs = [0] + [x // p for x in M[0][1:]]
        for row in M:
            row[:] = [x - q * row[0] for x, q in zip(row, qs)]
        if not any(row[0] for row in M[1:]) and not any(M[0][1:]):
            diag.append(abs(p))
            M = [row[1:] for row in M[1:]]
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                diag[i], diag[i + 1] = gcd(a, b), lcm(a, b)
                changed = True
    return diag


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant-factor form d_1 | d_2 | ... of a finite abelian group."""

    invariant_factors: Tuple[int, ...]

    def __post_init__(self):
        for d in self.invariant_factors:
            if d < 2:
                raise RootSystemError("invariant factors must be >= 2")
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise RootSystemError("invariant factors must form a divisor chain")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors) if self.invariant_factors else 1

    def mod_squares(self) -> "FiniteAbelianGroup":
        """The quotient G / G^2 (elementary abelian 2-group)."""
        return FiniteAbelianGroup(
            tuple(2 for d in self.invariant_factors if d % 2 == 0)
        )

    @classmethod
    def from_diagonal(cls, diag: Sequence[int]) -> "FiniteAbelianGroup":
        return cls(tuple(sorted(d for d in diag if d > 1)))


def cokernel(rows: Sequence[Sequence[int]], ambient_rank: int) -> FiniteAbelianGroup:
    """Z^n modulo the span of the given row vectors (must be finite).

    Memoized on the rows: the inputs depend on the type alone."""
    return _cokernel(tuple(map(tuple, rows)), ambient_rank)


@lru_cache(maxsize=None)
def _cokernel(rows: Tuple[Tuple[int, ...], ...], ambient_rank: int) -> FiniteAbelianGroup:
    if not rows:
        if ambient_rank:
            raise NonFiniteQuotientError(ambient_rank)
        return FiniteAbelianGroup(())
    diag = smith_normal_form(rows)
    if len(diag) < ambient_rank:
        raise NonFiniteQuotientError(ambient_rank - len(diag))
    return FiniteAbelianGroup.from_diagonal(diag)


def fundamental_group(rs: RootSystem) -> FiniteAbelianGroup:
    """Coweight lattice modulo coroot lattice (the center of the s.c. group).

    In fundamental-coweight coordinates the simple coroot alpha_j^vee is the
    j-th column of the Cartan matrix; the rows of C give the same quotient,
    since C and C^T have the same Smith normal form.
    """
    return cokernel(rs.cartan, rs.rank)
