"""Exact linear algebra over F_p, checked against the loop-based
eliminations it replaced (kept below, verbatim in substance, as reference
oracles) on random, low-rank, empty and zero matrices.  The library keeps
only ``rank_mod_p``, which walks the rows in order, pivots each at its
largest residue after the updates before it and reduces mod p only when
int64 could next overflow, and no elimination over Q (``test_rootsys``
checks ``RootSystem.cartan_inverse``).  The reduced form
``brackets.rref_mod_p`` is its oracle, checked here against its earlier
row-major numpy body, and ``rank_mod_p`` must count its pivots on every
input: edge cases at the largest modulus, and products of known rank at
four primes that run the delayed reduction, one of which overflows int64
within five steps without it.  Inputs outside the exact range (a modulus
below 2 or not an integer, an array that is not 2-D or not of an integer
type within int64) raise ``LinalgError``.
``brackets.kernel_mod_p``, the oracle for the eigenspaces of a realization
(the library reads them off the orbits of dtheta), is checked here against
the loop-based eigenspace it replaced."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thetatool import linalg

from brackets import kernel_mod_p, rref_mod_p

PRIMES = st.sampled_from([3, 5, 7, 11, 13])
LARGEST_PRIME = 2**31 - 1


# -- reference oracles ------------------------------------------------------------


def ref_rank_mod_p(mat: np.ndarray, p: int) -> int:
    M = np.mod(np.array(mat, dtype=np.int64), p)
    rows, cols = M.shape
    rank = 0
    for c in range(cols):
        piv = None
        for r in range(rank, rows):
            if M[r][c] % p:
                piv = r
                break
        if piv is None:
            continue
        M[[rank, piv]] = M[[piv, rank]]
        inv = pow(int(M[rank][c]), p - 2, p)
        M[rank] = (M[rank] * inv) % p
        for r in range(rows):
            if r != rank and M[r][c]:
                M[r] = (M[r] - M[r][c] * M[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def ref_rref_mod_p(mat, p: int) -> Tuple[np.ndarray, List[int]]:
    """The row-major Gauss-Jordan that the transposed kernel replaced."""
    M = np.mod(np.asarray(mat, dtype=np.int64), p)
    nrows, ncols = M.shape
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nonzero = np.flatnonzero(M[r:, c])
        if not nonzero.size:
            continue
        sel = r + int(nonzero[0])
        M[[r, sel]] = M[[sel, r]]
        M[r] = M[r] * pow(int(M[r, c]), -1, p) % p
        factors = M[:, c].copy()
        factors[r] = 0
        M -= np.outer(factors, M[r])
        M %= p
        pivots.append(c)
    return M[: len(pivots)], pivots


def ref_eigenspace(mat: np.ndarray, eigval: int, p: int) -> np.ndarray:
    """Basis (rows, reduced echelon) of ker(mat - eigval) over F_p."""
    n = mat.shape[0]
    M = np.mod(mat - eigval * np.eye(n, dtype=np.int64), p)
    A = M.copy()
    pivots = []
    rank = 0
    for c in range(n):
        piv = None
        for r in range(rank, n):
            if A[r][c] % p:
                piv = r
                break
        if piv is None:
            continue
        A[[rank, piv]] = A[[piv, rank]]
        inv = pow(int(A[rank][c]), p - 2, p)
        A[rank] = (A[rank] * inv) % p
        for r in range(n):
            if r != rank and A[r][c]:
                A[r] = (A[r] - A[r][c] * A[rank]) % p
        pivots.append(c)
        rank += 1
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k][fc] = 1
        for r, pc in enumerate(pivots):
            basis[k][pc] = (-A[r][fc]) % p
    return basis


def ref_in_row_span(basis: np.ndarray, v: np.ndarray, p: int) -> bool:
    """Membership v in rowspan(basis) over F_p, by reduction against the RREF."""
    rows = basis.shape[0]
    n = basis.shape[1] if rows else 0
    A = np.mod(np.array(basis, dtype=np.int64), p)
    pivots = []
    rank = 0
    for c in range(n):
        piv = None
        for r in range(rank, rows):
            if A[r][c] % p:
                piv = r
                break
        if piv is None:
            continue
        A[[rank, piv]] = A[[piv, rank]]
        inv = pow(int(A[rank][c]), p - 2, p)
        A[rank] = (A[rank] * inv) % p
        for r in range(rows):
            if r != rank and A[r][c]:
                A[r] = (A[r] - A[r][c] * A[rank]) % p
        pivots.append(c)
        rank += 1
    w = np.mod(np.array(v, dtype=np.int64), p)
    for r, c in enumerate(pivots):
        if w[c]:
            w = (w - w[c] * A[r]) % p
    return not np.any(w)


# -- strategies -------------------------------------------------------------------


def dims(max_size=7):
    return st.integers(0, max_size)


@st.composite
def int_matrices(draw, rows=None, cols=None):
    """Random integer matrices, half of them products of thin factors so
    that low ranks (and the zero matrix, at inner dimension 0) are common."""
    m = draw(dims()) if rows is None else rows
    n = draw(dims()) if cols is None else cols
    if draw(st.booleans()):
        return draw(arrays(np.int64, (m, n), elements=st.integers(-20, 20)))
    k = draw(st.integers(0, 3))
    left = draw(arrays(np.int64, (m, k), elements=st.integers(-4, 4)))
    right = draw(arrays(np.int64, (k, n), elements=st.integers(-4, 4)))
    return left @ right


@st.composite
def square_matrices(draw):
    n = draw(dims())
    return draw(int_matrices(rows=n, cols=n))


def _mod_product(left: np.ndarray, right: np.ndarray, p: int) -> np.ndarray:
    """left @ right mod p in Python integers, exact for any p."""
    prod = np.asarray(left, dtype=object) @ np.asarray(right, dtype=object)
    return np.mod(prod, p).astype(np.int64).reshape(left.shape[0], right.shape[1])


@st.composite
def rref_inputs(draw):
    """(matrix, p) pairs of every shape the kernel meets: random and
    low-rank, zero and empty, tall (rows >> cols, like the stacks of
    brackets) and wide, and products L @ U that reduce with no row swap."""
    p = draw(st.one_of(PRIMES, st.just(LARGEST_PRIME)))
    kind = draw(st.sampled_from(["random", "zero", "empty", "tall", "wide", "no_swap"]))
    residues = st.integers(0, p - 1)
    if kind == "random":
        if p == LARGEST_PRIME:
            m, n = draw(dims()), draw(dims())
            return draw(arrays(np.int64, (m, n), elements=residues)), p
        return draw(int_matrices()), p
    if kind == "zero":
        return np.zeros((draw(dims()), draw(dims())), dtype=np.int64), p
    if kind == "empty":
        shape = draw(st.sampled_from([(0, 0), (0, 1), (0, 5), (1, 0), (6, 0)]))
        return np.zeros(shape, dtype=np.int64), p
    if kind in ("tall", "wide"):
        m, n = draw(st.integers(10, 40)), draw(st.integers(1, 6))
        if kind == "wide":
            m, n = n, m
        k = draw(st.integers(0, min(m, n)))
        left = draw(arrays(np.int64, (m, k), elements=residues))
        right = draw(arrays(np.int64, (k, n), elements=residues))
        return _mod_product(left, right, p), p
    # no_swap: L unit lower triangular, U upper triangular with a unit
    # diagonal mod p, so every pivot is already in place
    n = draw(st.integers(1, 7))
    lower = np.tril(draw(arrays(np.int64, (n, n), elements=residues)), -1)
    lower += np.eye(n, dtype=np.int64)
    upper = np.triu(draw(arrays(np.int64, (n, n), elements=residues)), 1)
    upper += np.diag(draw(arrays(np.int64, (n,), elements=st.integers(1, p - 1))))
    extra = draw(arrays(np.int64, (n, draw(st.integers(0, 4))), elements=residues))
    return _mod_product(lower, np.hstack([upper, extra]), p), p


# -- F_p -----------------------------------------------------------------------------


@settings(deadline=None, max_examples=300)
@given(rref_inputs())
def test_rref_mod_p_matches_row_major_oracle(case):
    mat, p = case
    got, got_pivots = rref_mod_p(mat, p)
    want, want_pivots = ref_rref_mod_p(mat, p)
    assert got_pivots == want_pivots
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_rref_mod_p_no_swap_and_swap():
    # pivots in place: no row moves
    R, pivots = rref_mod_p(np.array([[1, 2, 3], [0, 1, 4], [0, 0, 2]]), 5)
    assert pivots == [0, 1, 2] and R.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    # the first pivot is in the last row, the second needs none
    R, pivots = rref_mod_p(np.array([[0, 3, 1], [0, 0, 0], [2, 1, 1]]), 7)
    want, want_pivots = ref_rref_mod_p(np.array([[0, 3, 1], [0, 0, 0], [2, 1, 1]]), 7)
    assert pivots == want_pivots and np.array_equal(R, want)


@settings(deadline=None)
@given(int_matrices(), PRIMES)
def test_rank_mod_p_matches_reference(mat, p):
    assert linalg.rank_mod_p(mat, p) == ref_rank_mod_p(mat, p)


@settings(deadline=None, max_examples=300)
@given(rref_inputs())
def test_rank_mod_p_counts_the_oracle_pivots(case):
    mat, p = case
    before = mat.copy()
    assert linalg.rank_mod_p(mat, p) == len(rref_mod_p(mat, p)[1])
    assert np.array_equal(mat, before)


def _edge_cases():
    """(name, matrix, p): the largest modulus with every entry p - 1, empty
    and zero matrices, a single row and a single column, matrices whose
    only nonzero row is the last, tall, wide and square matrices of full
    rank, a tall rank-deficient matrix (eliminated as its transpose), a
    zero row between two pivot rows, a row whose pivot column is zero
    until the update by the row above, and a dependent row that the update
    leaves nonzero over Z but zero mod p."""
    big = LARGEST_PRIME
    rng = np.random.default_rng(20)
    row = rng.integers(0, big, size=(1, 9))
    full = [
        (f"full rank {kind} {m}x{n}, p={p}", rng.integers(0, p, size=(m, n)), p)
        for p in (7, big)
        for kind, m, n in (("tall", 9, 4), ("wide", 4, 9), ("square", 6, 6))
    ]
    return full + [
        ("all p-1, 1x1", np.full((1, 1), big - 1), big),
        ("all p-1, 4x7", np.full((4, 7), big - 1), big),
        ("all -1, 6x3", np.full((6, 3), -1), big),
        ("p-1 diagonal", (big - 1) * np.eye(5, dtype=np.int64), big),
        ("0x0", np.zeros((0, 0), dtype=np.int64), 7),
        ("0x5", np.zeros((0, 5), dtype=np.int64), big),
        ("6x0", np.zeros((6, 0), dtype=np.int64), 7),
        ("zero 4x4", np.zeros((4, 4), dtype=np.int64), 5),
        ("zero 3x8", np.zeros((3, 8), dtype=np.int64), big),
        ("1xn", row, big),
        ("1xn zero", np.zeros((1, 9), dtype=np.int64), big),
        ("nx1", row.T, big),
        ("nx1, nonzero last", np.r_[np.zeros((8, 1), dtype=np.int64), [[3]]], 7),
        ("last row only", np.array([[0, 0, 0], [0, 0, 0], [0, 2, 1]]), 5),
        ("last row, p-1", np.r_[np.zeros((3, 4), dtype=np.int64), [[0, 0, big - 1, 1]]], big),
        ("first nonzero right of a later pivot", np.array([[0, 1], [1, 0]]), 3),
        ("multiples below the first pivot", np.array([[0, 0, 2], [3, 1, 1], [6, 2, 4]]), 7),
        ("tall rank 2, 9x4", _mod_product(rng.integers(0, 7, (9, 2)), rng.integers(0, 7, (2, 4)), 7), 7),
        ("zero row between pivots", np.array([[1, 2, 3], [0, 0, 0], [0, 1, 4]]), 5),
        ("pivot column nonzero only after the update", np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1]]), 3),
        ("dependent row nonzero over Z after the update", np.array([[1, 2], [3, 1]]), 5),
    ]


@pytest.mark.parametrize("name, mat, p", _edge_cases(), ids=[c[0] for c in _edge_cases()])
def test_rank_mod_p_edge_cases_match_oracle(name, mat, p):
    before = mat.copy()
    assert linalg.rank_mod_p(mat, p) == len(rref_mod_p(mat, p)[1]) == ref_rank_mod_p(mat, p)
    assert np.array_equal(mat, before)
    if name.startswith("full rank"):
        assert ref_rank_mod_p(mat, p) == min(mat.shape)


def _known_rank(m: int, n: int, r: int, p: int, seed: int) -> np.ndarray:
    """An m x n matrix of rank exactly r over F_p: L @ U mod p with L[:r]
    unit lower and U[:, :r] unit upper triangular (so the product's leading
    r x r block is invertible), the other entries random, then rows and
    columns shuffled."""
    rng = np.random.default_rng(seed)
    left = rng.integers(0, p, size=(m, r))
    left[:r] = np.tril(left[:r], -1) + np.eye(r, dtype=np.int64)
    right = rng.integers(0, p, size=(r, n))
    right[:, :r] = np.triu(right[:, :r], 1) + np.eye(r, dtype=np.int64)
    return _mod_product(left, right, p)[rng.permutation(m)][:, rng.permutation(n)]


def _unreduced_peaks(mat, p: int) -> List[int]:
    """The row walk of ``rank_mod_p`` with the delayed reduction removed,
    in Python integers: the largest |entry| left after each pivot."""
    A = np.mod(np.asarray(mat, dtype=object), p)
    if A.shape[0] > A.shape[1]:
        A = A.T
    peaks = []
    while len(A):
        row, A = A[0] % p, A[1:]
        c = int(np.argmax(row))
        if row[c]:
            A = row[c] * A - A[:, c, None] * row
            peaks.append(max((abs(v) for v in A.flat), default=0))
    return peaks


KNOWN_RANK_SHAPES = {"tall": (64, 24, 17), "wide": (24, 64, 17), "square": (64, 64, 48),
                     "square full": (64, 64, 64)}


@pytest.mark.parametrize("p", [3, 5, 10007, LARGEST_PRIME])
@pytest.mark.parametrize("kind", list(KNOWN_RANK_SHAPES))
def test_delayed_reduction_gives_the_known_rank(kind, p):
    m, n, r = KNOWN_RANK_SHAPES[kind]
    mat = _known_rank(m, n, r, p, seed=29)
    before = mat.copy()
    assert linalg.rank_mod_p(mat, p) == r == len(rref_mod_p(mat, p)[1])
    assert np.array_equal(mat, before)


def test_known_rank_cases_run_the_delayed_reduction():
    """At p = 3 an entry bound of 2 * 4**k after k unreduced steps allows 30
    of them, and the square cases pivot more often than that; at p = 10007
    the square case leaves int64 within five steps unless it is reduced."""
    bound, unreduced = 2, 0
    while bound * 4 < 2**63:
        bound, unreduced = bound * 4, unreduced + 1
    assert unreduced == 30
    for kind in ("square", "square full"):
        m, n, r = KNOWN_RANK_SHAPES[kind]
        assert len(_unreduced_peaks(_known_rank(m, n, r, 3, seed=29), 3)) == r > 30
    m, n, r = KNOWN_RANK_SHAPES["square"]
    assert max(_unreduced_peaks(_known_rank(m, n, r, 10007, seed=29), 10007)[:5]) >= 2**63


@pytest.mark.parametrize(
    "mat, p",
    [
        (np.eye(2, dtype=np.int64), 0),
        (np.eye(2, dtype=np.int64), 1),
        (np.eye(2, dtype=np.int64), -5),
        (np.eye(2, dtype=np.int64), 5.0),
        (np.eye(2, dtype=np.int64), True),
        (np.eye(2, dtype=np.int64), "7"),
        (np.ones(3, dtype=np.int64), 5),
        (np.ones((2, 2, 2), dtype=np.int64), 5),
        (np.int64(3), 5),
        (0.5 * np.eye(2), 5),
        (np.eye(2, dtype=bool), 5),
        (np.array([["1", "2"]]), 5),
        (np.array([[2**70, 1]], dtype=object), 5),
        (np.array([[1, 0.5]], dtype=object), 5),
        (np.array([[2**63, 1]], dtype=np.uint64), 5),
    ],
    ids=["p=0", "p=1", "p=-5", "p=5.0", "p=True", "p='7'", "1-D", "2x2x2", "0-D", "float",
         "bool", "str", "object beyond int64", "object float", "uint64"],
)
def test_rank_mod_p_rejects_inputs_outside_the_exact_range(mat, p):
    with pytest.raises(linalg.LinalgError):
        linalg.rank_mod_p(mat, p)


def test_rank_mod_p_accepts_integer_types_within_int64():
    mat = np.array([[2, 4, 1], [1, 2, 4], [3, 6, 5]])
    assert linalg.rank_mod_p(mat, 5) == 2
    for dtype in (np.int8, np.uint8, np.int32, np.uint32, object):
        assert linalg.rank_mod_p(mat.astype(dtype), 5) == 2
    assert linalg.rank_mod_p(mat.tolist(), np.int64(5)) == 2
    big = np.array([[2**63 - 1, -(2**63)], [1, 1]], dtype=object)
    assert linalg.rank_mod_p(big, 7) == ref_rank_mod_p(big.astype(np.int64), 7)


@settings(deadline=None)
@given(square_matrices(), st.integers(-3, 3), PRIMES)
def test_kernel_byte_equal_to_eigenspace(mat, eigval, p):
    n = mat.shape[0]
    got = kernel_mod_p(mat - eigval * np.eye(n, dtype=np.int64), p)
    want = ref_eigenspace(mat, eigval, p)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(deadline=None)
@given(int_matrices(), PRIMES)
def test_rank_plus_nullity(mat, p):
    kernel = kernel_mod_p(mat, p)
    ncols = mat.shape[1]
    assert kernel.shape == (ncols - linalg.rank_mod_p(mat, p), ncols)
    assert not np.any(np.mod(mat @ kernel.T, p))
    assert linalg.rank_mod_p(kernel, p) == kernel.shape[0]


@settings(deadline=None)
@given(st.data(), PRIMES)
def test_row_span_membership_by_rank(data, p):
    basis = data.draw(int_matrices())
    n = basis.shape[1]
    if data.draw(st.booleans()):
        coeffs = data.draw(arrays(np.int64, (basis.shape[0],), elements=st.integers(-9, 9)))
        v = coeffs @ basis if basis.shape[0] else np.zeros(n, dtype=np.int64)
    else:
        v = data.draw(arrays(np.int64, (n,), elements=st.integers(-20, 20)))
    by_rank = linalg.rank_mod_p(np.vstack([basis, v]), p) == linalg.rank_mod_p(basis, p)
    assert by_rank == ref_in_row_span(basis, v, p)


def test_rref_mod_p_shape_and_edge_cases():
    R, pivots = rref_mod_p(np.array([[2, 4, 1], [1, 2, 0]]), 5)
    assert pivots == [0, 2]
    assert R.tolist() == [[1, 2, 0], [0, 0, 1]]
    assert linalg.rank_mod_p(np.zeros((0, 4), dtype=np.int64), 7) == 0
    assert kernel_mod_p(np.zeros((0, 3), dtype=np.int64), 7).tolist() == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]
    ]
    assert kernel_mod_p(np.zeros((4, 0), dtype=np.int64), 7).shape == (0, 0)
    assert linalg.rank_mod_p(np.zeros((3, 3), dtype=np.int64), 3) == 0


@pytest.mark.parametrize("p", [2**31, 2**31 + 11, 2**61 - 1])
def test_large_modulus_rejected(p):
    mat = np.eye(2, dtype=np.int64)
    for call in (rref_mod_p, linalg.rank_mod_p, kernel_mod_p):
        with pytest.raises(linalg.LinalgError):
            call(mat, p)


@settings(deadline=None)
@given(arrays(np.int64, (2, 2), elements=st.integers(0, 2**31 - 2)))
def test_largest_modulus_is_exact(mat):
    p = 2**31 - 1  # prime; products of residues reach 2**62
    a, b, c, d = (int(x) for x in mat.ravel())
    want = 2 if (a * d - b * c) % p else (1 if any((a, b, c, d)) else 0)
    assert linalg.rank_mod_p(mat, p) == want
