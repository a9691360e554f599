"""Modular Chevalley algebras: structure constants, realizations, gradings,
centralizer dimensions, and the commutation relations of the restricted
sl2-triples."""

from __future__ import annotations

import random
import re
import time

import numpy as np
import pytest

from thetatool import liealg
from thetatool.liealg import (
    LieAlgebraError,
    SymmetricPairRealization,
    build_algebra,
    find_inner_coweight,
    realize_chevalley_involution,
    realize_inner,
)
from thetatool.restricted import restrict
from thetatool.satake import _catalog_types, catalog_list, catalog_lookup
from thetatool.verify import realized_pairs

from brackets import (
    adjoint,
    bracket_vec,
    dense_ad,
    dense_centralizer_dims,
    dense_dtheta,
    dense_p_element,
    eigenbases,
    grading_laws_hold,
    kernel_mod_p,
    root_constants,
    rref_mod_p,
    sample_jacobi,
)
from scalar import (
    _chain_down,
    coroot_coords,
    pair_coroot_simple,
    ref_chevalley_dtheta,
    ref_find_inner_coweight,
    ref_inner_dtheta,
    root_index,
    root_tuples,
)


def basis_vec(alg, i):
    v = np.zeros(alg.dim, dtype=np.int64)
    v[i] = 1
    return v


def test_sl2_relations():
    alg = build_algebra("A", 1, 5)
    e = basis_vec(alg, alg.e_index(0))
    f = basis_vec(alg, alg.e_index(1))
    h = basis_vec(alg, 0)
    assert list(bracket_vec(alg, e, f)) == [1, 0, 0]
    assert list(bracket_vec(alg, h, e)) == [0, 2, 0]
    assert list(bracket_vec(alg, h, f)) == [0, 0, 3]  # -2 mod 5


def test_a2_simple_constant():
    alg = build_algebra("A", 2, 7)
    i1 = root_index(alg.rs, (1, 0))
    i2 = root_index(alg.rs, (0, 1))
    n = root_constants(alg.table)[(i1, i2)]
    assert n in (1, -1)
    x = basis_vec(alg, alg.e_index(i1))
    y = basis_vec(alg, alg.e_index(i2))
    assert np.any(bracket_vec(alg, x, y))


def test_g2_has_chain_constant_three():
    alg = build_algebra("G", 2, 7)
    assert any(abs(v) == 3 for v in root_constants(alg.table).values())


def test_bad_prime_rejected():
    with pytest.raises(LieAlgebraError) as exc:
        build_algebra("G", 2, 3)
    assert "coefficient" in str(exc.value)
    with pytest.raises(LieAlgebraError):
        build_algebra("A", 2, 4)  # not prime
    with pytest.raises(LieAlgebraError):
        build_algebra("F", 4, 3)


def test_non_integer_prime_rejected():
    """A prime that is not an integer is refused, also when the integer
    prime is already cached; numpy integers are accepted."""
    build_algebra("A", 2, 7)
    for p in (7.0, True, 1e300):
        with pytest.raises(LieAlgebraError, match="not an integer"):
            build_algebra("A", 2, p)
    alg = build_algebra("A", 2, np.int64(7))
    assert alg.p == 7 and type(alg.p) is int


def test_jacobi_exhaustive_small_ranks():
    # the constructor already verifies ad[x,y] = [ad x, ad y] over Z;
    # here the literal triple identity is re-checked exhaustively mod p
    for series, rank in [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]:
        alg = build_algebra(series, rank, 5)
        n = alg.dim
        for i in range(n):
            xi = basis_vec(alg, i)
            for j in range(n):
                xj = basis_vec(alg, j)
                bij = bracket_vec(alg, xi, xj)
                for k in range(n):
                    xk = basis_vec(alg, k)
                    total = (
                        bracket_vec(alg, bij, xk)
                        + bracket_vec(alg, bracket_vec(alg, xj, xk), xi)
                        + bracket_vec(alg, bracket_vec(alg, xk, xi), xj)
                    )
                    assert not np.any(np.mod(total, alg.p)), (series, rank, i, j, k)


def test_jacobi_sampled_rank_up_to_six():
    for series, rank in [("A", 4), ("D", 4), ("F", 4), ("B", 5), ("D", 5), ("E", 6)]:
        alg = build_algebra(series, rank, 7)
        sample_jacobi(alg, 10**4 if rank >= 4 else 10**3, seed=11)


def test_jacobi_sampled_on_e8():
    """10^5 literal basis triples of E8 at p = 7 (seed 24) within 10 s; each
    bracket is read off the table rows, so no 122 MB dense ad is built."""
    t0 = time.perf_counter()
    sample_jacobi(build_algebra("E", 8, 7), 10**5, seed=24)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"E8 sampling took {elapsed:.1f} s"


def test_chevalley_n_property():
    # |N_{a,b}| = q + 1 is asserted at build time; exercise it explicitly
    alg = build_algebra("C", 3, 5)
    rs = alg.rs
    for (i, j), n in root_constants(alg.table).items():
        assert abs(n) == _chain_down(rs, root_tuples(rs)[j], root_tuples(rs)[i]) + 1


def test_coroot_bracket():
    alg = build_algebra("B", 2, 5)
    rs = alg.rs
    for ridx in range(rs.num_positive):
        e = basis_vec(alg, alg.e_index(ridx))
        f = basis_vec(alg, alg.e_index(ridx + rs.num_positive))
        h = bracket_vec(alg, e, f)
        expected = np.zeros(alg.dim, dtype=np.int64)
        for k, c in enumerate(coroot_coords(rs, root_tuples(rs)[ridx])):
            expected[k] = c % alg.p
        assert list(h) == list(expected)


def test_realize_inner_trivial():
    alg = build_algebra("A", 2, 5)
    pair = realize_inner(alg, (0, 0))
    assert pair.dim_p == 0 and pair.dim_k == alg.dim


def test_realize_inner_a1():
    alg = build_algebra("A", 1, 5)
    pair = realize_inner(alg, (1,))
    assert (pair.dim_k, pair.dim_p) == (1, 2)  # k = span h, p = span{e, f}


def test_realize_inner_ci_matches_kp_dimensions():
    alg = build_algebra("C", 2, 7)
    dims = catalog_lookup("C", 2, "CI").satake.kp_dimensions()
    mu = find_inner_coweight(alg, dims.k, dims.p)
    assert mu is not None
    pair = realize_inner(alg, mu)
    assert (pair.dim_k, pair.dim_p) == (dims.k, dims.p) == (4, 6)


REALIZED_TYPES = [("A", n) for n in range(1, 5)] + [
    ("B", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)
]


@pytest.mark.parametrize("block", [liealg._MASK_BLOCK, 5])
@pytest.mark.parametrize("series, rank", REALIZED_TYPES + [("E", 6), ("E", 7), ("E", 8)])
def test_find_inner_coweight_matches_the_root_loop(series, rank, block, monkeypatch):
    """The mask found from blocks of masks is the root loop's first match,
    for the (k, p) of every catalog class of the type and a pair no mask
    has; block 5 splits every type of rank >= 3 into several blocks."""
    monkeypatch.setattr(liealg, "_MASK_BLOCK", block)
    alg = build_algebra(series, rank, 7)
    dims = [e.satake.kp_dimensions() for e in catalog_list(series, rank)]
    for k, p in sorted({(d.k, d.p) for d in dims}) + [(0, alg.dim)]:
        assert find_inner_coweight(alg, k, p) == ref_find_inner_coweight(alg, k, p), (k, p)


@pytest.mark.parametrize("series, rank", REALIZED_TYPES)
def test_realized_dtheta_matches_the_root_loop(series, rank):
    """dtheta of every inner mask and of the Chevalley involution equals
    the one built root by root."""
    alg = build_algebra(series, rank, 7)
    for mask in range(2**rank):
        mu = tuple((mask >> i) & 1 for i in range(rank))
        pair = realize_inner(alg, mu)
        assert np.array_equal(dense_dtheta(pair), ref_inner_dtheta(alg, mu)), mu
    pair = realize_chevalley_involution(alg)
    assert np.array_equal(dense_dtheta(pair), ref_chevalley_dtheta(alg))


def _split_pairs():
    """The split involution of every catalog type at p = 7, E8 included."""
    return [
        (f"{series}{rank}/chevalley/p=7",
         realize_chevalley_involution(build_algebra(series, rank, 7)))
        for series, rank in _catalog_types()
    ]


def test_eigenbases_are_the_kernels_of_dtheta_byte_for_byte():
    """The k and p bases spelled out from the (lead, partner, coef) rows
    read off the orbits of the signed permutation equal byte for byte the
    reduced echelon kernels of dtheta -+ 1 over F_p, on the 120 realized
    pairs and the split involution of all 32 catalog types at p = 7, so
    the samples drawn from the p rows are the same as by elimination."""
    pairs = [(name, pair) for name, _, pair in realized_pairs()] + _split_pairs()
    assert len(pairs) == 152
    for name, pair in pairs:
        p, eye = pair.alg.p, np.eye(pair.alg.dim, dtype=np.int64)
        d = dense_dtheta(pair)
        for got, eig in zip(eigenbases(pair), (1, -1)):
            want = kernel_mod_p(d - eig * eye, p)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name


def test_random_p_element_is_the_dense_sample_byte_for_byte():
    """random_p_element scatters its draws at the p rows' leads and
    partners.  On the 120 realized pairs and on split E8 at p = 7 it equals
    byte for byte the dense formula coeffs @ p basis mod p on the same
    seeded stream, and leaves the stream in the same state."""
    pairs = [(name, pair) for name, _, pair in realized_pairs()]
    pairs.append(("E8/chevalley/p=7", realize_chevalley_involution(build_algebra("E", 8, 7))))
    assert len(pairs) == 121
    for name, pair in pairs:
        got, want = random.Random(name), random.Random(name)
        for _ in range(5):
            x, y = pair.random_p_element(got), dense_p_element(pair, want)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert got.getstate() == want.getstate(), name


def test_constructor_rejects_non_involutions():
    """perm must be an involution of the basis indices, sign +-1 and
    constant on the orbits of perm; the arrays kept are read-only."""
    alg = build_algebra("A", 2, 5)
    split = realize_chevalley_involution(alg)
    perm, sign = split.perm, split.sign
    cycle = np.r_[perm[1:], perm[:1]]  # a permutation of order dim
    swapped = perm.copy()
    swapped[[0, 1]] = swapped[[1, 0]]  # h_1 <-> -h_2: k gains h_2 - h_1
    one_sided = sign.copy()
    one_sided[alg.e_index(0)] = 1  # e_a -> e_{-a} but e_{-a} -> -e_a
    for bad_perm, bad_sign in (
        (cycle, sign),
        (perm, 2 * sign),
        (perm, np.zeros_like(sign)),
        (perm, one_sided),
        (perm[:-1], sign[:-1]),
        (perm + alg.dim, sign),
        (-perm - 1, sign),
    ):
        with pytest.raises(LieAlgebraError, match="^dtheta is not an involution$"):
            SymmetricPairRealization(alg, bad_perm, bad_sign)
    assert SymmetricPairRealization(alg, swapped, sign).dim_k == split.dim_k + 1
    for arr in (split.perm, split.sign):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_chevalley_involution_a1():
    alg = build_algebra("A", 1, 5)
    pair = realize_chevalley_involution(alg)
    assert (pair.dim_k, pair.dim_p) == (1, 2)
    # k is spanned by e - f
    v = eigenbases(pair)[0][0]
    assert v[0] == 0 and v[alg.e_index(0)] != 0 and v[alg.e_index(1)] != 0


def test_chevalley_involution_g2():
    alg = build_algebra("G", 2, 7)
    pair = realize_chevalley_involution(alg)
    assert (pair.dim_k, pair.dim_p) == (6, 8)
    pair.check_grading()  # exhaustive: all 196 basis pairs


def test_grading_check_rejects_swapped_eigenspaces():
    """-dtheta swaps k and p.  It is an involution but, when p is odd,
    never an automorphism of a non-abelian g: on eigenvectors x and y of
    dtheta, -dtheta[x, y] = -[-dtheta x, -dtheta y]."""
    pair = realize_chevalley_involution(build_algebra("G", 2, 7))
    swapped = SymmetricPairRealization(pair.alg, pair.perm, -pair.sign)
    assert (swapped.dim_k, swapped.dim_p) == (pair.dim_p, pair.dim_k)
    assert not grading_laws_hold(swapped)
    with pytest.raises(LieAlgebraError, match=r"^dtheta fails to preserve brackets at pair \(\d+, \d+\)$"):
        swapped.check_grading()


def _passes_grading(pair) -> bool:
    try:
        pair.check_grading()
    except LieAlgebraError:
        return False
    return True


SMALL_PAIRS = [(name, pair) for name, _, pair in realized_pairs() if pair.alg.rs.rank <= 3]


@pytest.mark.parametrize("name, pair", SMALL_PAIRS, ids=[name for name, _ in SMALL_PAIRS])
def test_grading_check_matches_dense_oracle(name, pair):
    """check_grading passes exactly when every basis bracket lands in the
    right eigenspace: both pass on the realized pair and, for an inner one,
    both fail on each involution made by flipping one diagonal sign of its
    dtheta (a flip at h_i or e_a breaks [e_b, e_-b] = b^vee for some b)."""
    assert _passes_grading(pair) and grading_laws_hold(pair)
    if "/chevalley/" in name:
        return
    for i in range(pair.alg.dim):
        sign = pair.sign.copy()
        sign[i] = -sign[i]
        bad = SymmetricPairRealization(pair.alg, pair.perm, sign)
        assert (_passes_grading(bad), grading_laws_hold(bad)) == (False, False), (name, i)


def _centralizer_samples(pair, rng):
    """x = 0, two random elements of p, two sparse ones (two or three
    p-basis rows with random coefficients) and up to eight single p-basis
    rows."""
    p, rows = pair.alg.p, eigenbases(pair)[1]
    yield np.zeros(pair.alg.dim, dtype=np.int64)
    for _ in range(2):
        yield pair.random_p_element(rng)
    for count in (2, 3):
        picked = rng.sample(range(len(rows)), min(count, len(rows)))
        coeffs = np.array([rng.randrange(1, p) for _ in picked], dtype=np.int64)
        yield coeffs @ rows[picked] % p
    for i in rng.sample(range(len(rows)), min(8, len(rows))):
        yield rows[i]


def test_centralizer_dims_match_the_dense_oracle():
    """The ranks of the two off-diagonal blocks at the lead rows equal the
    ranks of the full products over all dim columns, on every realized pair
    and on split E8 at p = 7, for zero, random, sparse and single-row x."""
    pairs = [(name, pair) for name, _, pair in realized_pairs()]
    pairs.append(("E8/chevalley/p=7", realize_chevalley_involution(build_algebra("E", 8, 7))))
    assert len(pairs) == 121
    for name, pair in pairs:
        rng = random.Random(name)
        for x in _centralizer_samples(pair, rng):
            assert pair.centralizer_dims(x) == dense_centralizer_dims(pair, x), name


def test_bracket_matrix_is_the_dense_projection():
    """Q from the plan equals, entry by entry, the components on the rows
    of [x, row b], solved densely from the k and p bases and ad(x) (the
    dense scatter of the table, so E8 needs no dim^3 array), on the 120
    realized pairs and split E8 at p = 7, for three samples each."""
    pairs = [(name, pair) for name, _, pair in realized_pairs()]
    pairs.append(("E8/chevalley/p=7", realize_chevalley_involution(build_algebra("E", 8, 7))))
    assert len(pairs) == 121
    for name, pair in pairs:
        rng, p, dim = random.Random(name), pair.alg.p, pair.alg.dim
        R = np.vstack(eigenbases(pair))
        xs = [pair.random_p_element(rng) for _ in range(3)]
        # row b of R^T Q = ad(x) R^T is [x, row b] written on the rows
        brackets = [adjoint(pair.alg.table, x[None], p)[0] @ R.T % p for x in xs]
        reduced, pivots = rref_mod_p(np.hstack([R.T] + brackets), p)
        assert pivots == list(range(dim)), name
        for x, want in zip(xs, np.split(reduced[:, dim:], 3, axis=1)):
            got = pair._bracket_matrix(x)
            assert got.dtype == np.int64 and np.array_equal(got, want), name


def test_centralizer_at_zero():
    alg = build_algebra("B", 2, 5)
    pair = realize_chevalley_involution(alg)
    zk, zp = pair.centralizer_dims(np.zeros(alg.dim, dtype=np.int64))
    assert (zk, zp) == (pair.dim_k, pair.dim_p)


def test_centralizer_dims_rejects_wrong_length():
    pair = realize_chevalley_involution(build_algebra("B", 2, 5))
    for bad in (np.zeros(pair.alg.dim + 1, dtype=np.int64), np.zeros((1, pair.alg.dim), dtype=np.int64)):
        with pytest.raises(LieAlgebraError, match=r"x has shape .*, expected \(10,\)"):
            pair.centralizer_dims(bad)


def test_centralizer_dims_rejects_x_outside_p():
    pair = realize_chevalley_involution(build_algebra("B", 2, 5))
    k, pp = eigenbases(pair)
    for bad in (k[0], k[0] + pp[0]):
        with pytest.raises(LieAlgebraError, match="x is not in p"):
            pair.centralizer_dims(bad)
    pair.centralizer_dims(pp[0])


def test_centralizer_dims_refuses_x_that_is_not_an_int64_integer_array():
    """x must be an integer array that int64 holds, or the answer would
    come from truncated values (a float), from 0/1 (a bool) or from an
    uncaught TypeError (a string).  The dtype is refused before the shape
    and in-p checks; int32 and int64 answer as before, pinned on B3 at
    p = 7: zero, the twelve rows of p and one random element."""
    pair = realize_chevalley_involution(build_algebra("B", 3, 7))
    x = pair.random_p_element(random.Random(1))
    for bad in (x / 2, x.astype(float), x.astype(bool), x.astype(str), x.astype(np.uint64),
                (x / 2)[:-1]):
        with pytest.raises(LieAlgebraError, match=re.escape(f"x has dtype {bad.dtype}, expected")):
            pair.centralizer_dims(bad)
    _, pp = eigenbases(pair)
    samples = [np.zeros(pair.alg.dim, dtype=np.int64), *pp, x]
    want = [(9, 12)] + [(2, 5), (2, 5), (4, 7), (4, 7), (2, 5), (2, 5),
                        (4, 7), (2, 5), (2, 5), (4, 7), (2, 5), (2, 5)] + [(0, 3)]
    for dtype in (np.int64, np.int32):
        assert [pair.centralizer_dims(v.astype(dtype)) for v in samples] == want


def test_centralizer_identity_sampled():
    rng = random.Random(42)
    for series, rank, p in [("A", 2, 5), ("B", 2, 7), ("G", 2, 11), ("C", 3, 5)]:
        alg = build_algebra(series, rank, p)
        pair = realize_chevalley_involution(alg)
        for _ in range(100):
            x = pair.random_p_element(rng)
            zk, zp = pair.centralizer_dims(x)
            assert zk - zp == pair.dim_k - pair.dim_p


def test_centralizer_regular_semisimple_split():
    # generic toral element: (z_k, z_p) = (dim m, dim a) = (0, rank).
    # Over a small field a regular point may not exist, so search; p = 11
    # is plenty for rank 2.
    alg = build_algebra("G", 2, 11)
    pair = realize_chevalley_involution(alg)
    rs = alg.rs
    found = None
    for c0 in range(11):
        for c1 in range(11):
            if all(
                (c0 * pair_coroot_simple(rs, v, 0) + c1 * pair_coroot_simple(rs, v, 1)) % 11
                for v in root_tuples(rs)
            ):
                found = (c0, c1)
                break
        if found:
            break
    assert found is not None
    x = np.zeros(alg.dim, dtype=np.int64)
    x[0], x[1] = found
    zk, zp = pair.centralizer_dims(x)
    assert (zk, zp) == (0, 2)


def test_regularity_bound_attained():
    # min over samples of dim z_g(x) is >= dim m + dim a, attained at some x
    rng = random.Random(7)

    e = catalog_lookup("B", 3, "BI(2)")
    dims = e.satake.kp_dimensions()
    alg = build_algebra("B", 3, 11)
    mu = find_inner_coweight(alg, dims.k, dims.p)
    pair = realize_inner(alg, mu)
    best = min(
        sum(pair.centralizer_dims(pair.random_p_element(rng))) for _ in range(100)
    )
    assert best == dims.m + dims.a

    # split G2: dim m + dim a = 0 + 2
    alg = build_algebra("G", 2, 11)
    pair = realize_chevalley_involution(alg)
    best = min(
        sum(pair.centralizer_dims(pair.random_p_element(rng))) for _ in range(100)
    )
    assert best == 2


def test_commutation_relations_split_triples():
    """The sl2-triples (h_a, e_a, e_{-a}) attached to the restricted basis of
    a split realization: commuting H's, Cartan-integer weights, [E_a, F_b] = 0
    off the diagonal, the Serre-style vanishing, and restrictedness."""
    for series, rank, p in [("A", 2, 5), ("C", 3, 7), ("G", 2, 7)]:
        alg = build_algebra(series, rank, p)
        rs = alg.rs
        e_entry = [e for e in catalog_list(series, rank) if e.is_split][0]
        rrs = restrict(e_entry.satake)
        C = rrs.cartan_matrix()
        npos = rs.num_positive
        triples = []
        for j in range(rrs.r):
            lift = rrs.pi_lifts[j]
            ridx = rs.simple_indices[lift]
            H = basis_vec(alg, lift)
            E = basis_vec(alg, alg.e_index(ridx))
            F = basis_vec(alg, alg.e_index(ridx + npos))
            triples.append((H, E, F))
        for a, (Ha, Ea, Fa) in enumerate(triples):
            assert list(bracket_vec(alg, Ea, Fa)) == list(Ha)
            for b, (Hb, Eb, Fb) in enumerate(triples):
                # (a) commuting toral elements
                assert not np.any(bracket_vec(alg, Ha, Hb))
                # (b)/(c) with E raising and F lowering: the printed relations
                # carry the opposite sign (see the decisions ledger)
                assert list(bracket_vec(alg, Ha, Eb)) == list((C[b][a] * Eb) % p)
                assert list(bracket_vec(alg, Ha, Fb)) == list((-C[b][a] * Fb) % p)
                if a != b:
                    # (d)
                    assert not np.any(bracket_vec(alg, Ea, Fb))
                    # (e) Serre-style vanishing
                    m = 1 - C[b][a]
                    v = Eb.copy()
                    for _ in range(m):
                        v = bracket_vec(alg, Ea, v)
                    assert not np.any(v)
                    v = Fb.copy()
                    for _ in range(m):
                        v = bracket_vec(alg, Fa, v)
                    assert not np.any(v)
            # (f) restrictedness through the adjoint representation
            adE = _ad_matrix(alg, Ea)
            adH = _ad_matrix(alg, Ha)
            assert not np.any(_mat_power_mod(adE, p, p))
            assert np.array_equal(_mat_power_mod(adH, p, p), adH % p)


def _ad_matrix(alg, x):
    cols = []
    for j in range(alg.dim):
        v = np.zeros(alg.dim, dtype=np.int64)
        v[j] = 1
        cols.append(bracket_vec(alg, x, v))
    return np.array(cols, dtype=np.int64).T % alg.p


def _mat_power_mod(m, k, p):
    out = np.eye(m.shape[0], dtype=np.int64)
    base = m % p
    while k:
        if k & 1:
            out = (out @ base) % p
        base = (base @ base) % p
        k >>= 1
    return out


def test_centdim_fails_outside_hypotheses():
    """Documenting the exclusion of (A4, p = 5): with p | n+1 the derived
    form has a center, no nondegenerate invariant form exists, and the
    centralizer identity genuinely fails on special elements."""
    alg = build_algebra("A", 4, 5)
    pair = realize_chevalley_involution(alg)
    rng = random.Random(2024)
    violated = False
    for _ in range(500):
        x = pair.random_p_element(rng)
        zk, zp = pair.centralizer_dims(x)
        if zk - zp != pair.dim_k - pair.dim_p:
            violated = True
            break
    assert violated, "expected a centdim violation for sl(5) over F_5"


def _python_rank(rows, p):
    """Rank mod p of lists of Python ints, by Gauss-Jordan elimination."""
    rows = [[v % p for v in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _accepts(series, rank, p):
    """False when the algebra rejects p as too large for int64 brackets."""
    try:
        build_algebra(series, rank, p)
    except LieAlgebraError as exc:
        return "int64" not in str(exc)
    return True


def test_prime_too_large_for_int64_brackets_rejected():
    from thetatool.rootsys import is_odd_prime

    # E8: bracket_vec sums about 3 dim^2 p^2, which passes 2**63 near 2**22
    p = next(q for q in range(2**23 + 1, 2**24, 2) if is_odd_prime(q))
    with pytest.raises(LieAlgebraError, match="int64"):
        build_algebra("E", 8, p)
    # G2: the first size rejected, found by bisection (monotone in p) ...
    lo, hi = 3, 2**40
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _accepts("G", 2, mid) else (lo, mid)
    assert 2**20 < hi < 2**32
    above = next(q for q in range(hi | 1, hi + 10**4, 2) if is_odd_prime(q))
    with pytest.raises(LieAlgebraError, match="int64"):
        build_algebra("G", 2, above)
    # ... and the largest prime accepted still brackets exactly
    p = next(q for q in range(lo - (1 - lo % 2), 3, -2) if is_odd_prime(q))
    alg = build_algebra("G", 2, p)
    x = np.full(alg.dim, p - 1, dtype=np.int64)
    y = np.full(alg.dim, p - 1, dtype=np.int64)
    ad = dense_ad(alg.table).tolist()
    pairs = [(i, j) for i in range(alg.dim) for j in range(alg.dim)]
    exact = [
        sum((p - 1) * ad[i][k][j] * (p - 1) for i, j in pairs) % p for k in range(alg.dim)
    ]
    assert bracket_vec(alg, x, y).tolist() == exact
    # ... and ranks the centralizers exactly: against ad x in Python ints, of
    # rank dim k - dim z_k(x) on the k rows and dim p - dim z_p(x) on the p rows
    pair = realize_chevalley_involution(alg)
    rng = random.Random(p)
    table = pair.alg.table.entries.tolist()
    for _ in range(3):
        x = pair.random_p_element(rng)
        xs = x.tolist()
        ad_x = [[0] * alg.dim for _ in range(alg.dim)]
        for i, k, l, c in table:
            ad_x[l][k] += xs[i] * c
        images = [
            [sum(a * b for a, b in zip(ad_row, row)) for ad_row in ad_x]
            for row in np.vstack(eigenbases(pair)).tolist()
        ]
        want = (pair.dim_k - _python_rank(images[: pair.dim_k], p),
                pair.dim_p - _python_rank(images[pair.dim_k :], p))
        assert pair.centralizer_dims(x) == want
