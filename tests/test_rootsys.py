"""Root-system engine: enumeration counts, reflections, Weyl elements as
root permutations, lattice quotients."""

from __future__ import annotations

import copy
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetatool.rootsys import (
    CapExceededError,
    FiniteAbelianGroup,
    NonFiniteQuotientError,
    RootSystemError,
    build_root_system,
    cokernel,
    degrees_for,
    fundamental_group,
    is_odd_prime,
    smith_normal_form,
    weyl_order,
)
from thetatool.satake import _catalog_types, catalog_list

from scalar import act, coroot_coords, pair_coroot, ref_roots, ref_rref, root_tuples
from weylgroup import element, enumerate_weyl, identity, inverse, length, reflection, simple_reflection

# every type of rank <= 8 (D3 included), and three larger classical ones
RANK_UP_TO_EIGHT = _catalog_types() + [("D", 3)]
CLOSURE_TYPES = RANK_UP_TO_EIGHT + [("A", 24), ("B", 10), ("D", 16)]


def is_identity(w):
    return all(p == i for i, p in enumerate(w.perm))


def is_minus_identity(w):
    npos = w.rs.num_positive
    n = len(w.perm)
    return all(w.perm[i] == (i + npos) % n for i in range(n))


def preserves_pairing(w):
    """Check <w(a), w(b)^vee> = <a, b^vee> on all root pairs."""
    rs, roots = w.rs, root_tuples(w.rs)
    for i, a in enumerate(roots):
        wa = roots[w.perm[i]]
        for j, b in enumerate(roots):
            wb = roots[w.perm[j]]
            if pair_coroot(rs, wa, wb) != pair_coroot(rs, a, b):
                return False
    return True


def a_series_count(n):
    # independent count oracle for A_n: n(n+1) roots
    return n * (n + 1)


def test_build_counts_match_closure_oracle():
    # closure enumeration cross-checked against the classical count formulas
    assert len(build_root_system("A", 2).roots) == a_series_count(2) == 6
    rs = build_root_system("G", 2)
    assert len(rs.roots) == 12
    assert rs.num_positive == 6
    for n in range(1, 6):
        assert len(build_root_system("A", n).roots) == a_series_count(n)
    assert len(build_root_system("B", 3).roots) == 2 * 3**2
    assert len(build_root_system("C", 4).roots) == 2 * 4**2
    assert len(build_root_system("D", 4).roots) == 2 * 4 * 3
    assert len(build_root_system("F", 4).roots) == 48


@pytest.mark.parametrize("series,rank", CLOSURE_TYPES, ids=[f"{s}{r}" for s, r in CLOSURE_TYPES])
def test_root_closure_matches_frontier_search(series, rank):
    """The orbit walk gives the root tuple of the scalar frontier search,
    in the same order, and its kernel holds the same rows."""
    rs = build_root_system(series, rank)
    assert root_tuples(rs) == ref_roots(series, rank)
    assert rs.num_positive == len(rs.roots) // 2
    assert rs.kernel.vectors.tolist() == [list(v) for v in ref_roots(series, rank)]
    assert [root_tuples(rs)[i] for i in rs.simple_indices] == [
        tuple(int(k == i) for k in range(rank)) for i in range(rank)
    ]


@pytest.mark.parametrize("series,rank", RANK_UP_TO_EIGHT, ids=[f"{s}{r}" for s, r in RANK_UP_TO_EIGHT])
def test_coroots_match_scalar_formula(series, rank):
    rs = build_root_system(series, rank)
    assert rs.coroots.tolist() == [list(coroot_coords(rs, v)) for v in rs.roots]
    assert not rs.coroots.flags.writeable and not rs.kernel.vectors.flags.writeable
    # <beta, beta^vee> = 2: the coroot pairs with the root through the Cartan matrix
    assert all(
        sum(b * c * x for b, row in zip(beta, rs.cartan) for c, x in zip(row, cov)) == 2
        for beta, cov in zip(rs.roots, rs.coroots.tolist())
    )


def test_rank_one_roots():
    rs = build_root_system("A", 1)
    assert set(root_tuples(rs)) == {(1,), (-1,)}


def test_invalid_type_rejected():
    for series, rank in [("A", 0), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2), ("D", 2)]:
        with pytest.raises(RootSystemError):
            build_root_system(series, rank)


def test_non_integer_rank_rejected():
    """A rank that is not an integer is refused with RootSystemError, also
    when the integer rank is already cached, by the root system and by the
    catalog; numpy integers are accepted."""
    build_root_system("A", 3)
    catalog_list("A", 3)
    for rank in (3.0, True, "3"):
        for build in (build_root_system, catalog_list):
            with pytest.raises(RootSystemError):
                build("A", rank)
    assert build_root_system("A", np.int64(3)).rank == 3


def test_closure_and_negation_invariants():
    for series, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]:
        rs = build_root_system(series, rank)
        roots = set(root_tuples(rs))
        for v in root_tuples(rs):
            assert tuple(-x for x in v) in roots
            for i in range(rs.rank):
                assert act(simple_reflection(rs, i), v) in roots
            for w in root_tuples(rs):
                assert pair_coroot(rs, v, w) in range(-3, 4)


def test_reflection_formula_a2():
    rs = build_root_system("A", 2)
    s1 = simple_reflection(rs, 0)
    assert act(s1, (0, 1)) == (1, 1)  # s_{a1}(a2) = a1 + a2


def test_reflection_involutive():
    for series, rank in [("A", 2), ("B", 2), ("G", 2)]:
        rs = build_root_system(series, rank)
        for i in range(len(rs.roots)):
            s = reflection(rs, i)
            assert is_identity(s * s)


def test_reflections_reject_out_of_range_indices():
    rs = build_root_system("A", 2)
    for bad in ([len(rs.roots)], [-1], [0, 99]):
        with pytest.raises(RootSystemError, match="out of range"):
            rs.reflections(bad)


def test_reflection_rank1_defining_case():
    rs = build_root_system("A", 1)
    s = simple_reflection(rs, 0)
    assert act(s, (1,)) == (-1,)


def test_longest_element():
    rs = build_root_system("A", 1)
    w0 = element(rs, rs.longest_element())
    assert length(w0) == 1
    assert w0 == simple_reflection(rs, 0)

    rs = build_root_system("G", 2)
    assert length(element(rs, rs.longest_element())) == 6 == rs.num_positive

    # B2: w0 = -id, checked on both simple roots
    rs = build_root_system("B", 2)
    w0 = element(rs, rs.longest_element())
    for i in range(2):
        e = tuple(1 if k == i else 0 for k in range(2))
        assert act(w0, e) == (-e[0], -e[1])
    assert is_minus_identity(w0)


def test_longest_element_word_length():
    for series, rank in [("A", 3), ("C", 3), ("D", 4)]:
        rs = build_root_system(series, rank)
        w0 = rs.longest_element()
        assert w0.dtype == np.int64 and not w0.flags.writeable
        assert length(element(rs, w0)) == rs.num_positive


def test_enumerate_weyl_a2():
    rs = build_root_system("A", 2)
    lengths = {}
    for w, l in enumerate_weyl(rs, 100):
        assert length(w) == l
        lengths[l] = lengths.get(l, 0) + 1
    assert lengths == {0: 1, 1: 2, 2: 2, 3: 1}  # 1 + 2t + 2t^2 + t^3


def test_enumerate_weyl_a1():
    els = list(enumerate_weyl(build_root_system("A", 1), 10))
    assert [l for _, l in els] == [0, 1]


def test_enumerate_weyl_f4_order_oracle():
    # degree product 2*6*8*12 = 1152 as the independent oracle
    rs = build_root_system("F", 4)
    count = sum(1 for _ in enumerate_weyl(rs, 2000))
    assert count == 2 * 6 * 8 * 12 == weyl_order("F", 4)


def test_enumerate_weyl_counts_small_types():
    for series, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]:
        rs = build_root_system(series, rank)
        count = sum(1 for _ in enumerate_weyl(rs, 10**6))
        assert count == weyl_order(series, rank)


def test_enumerate_weyl_cap():
    rs = build_root_system("F", 4)
    with pytest.raises(CapExceededError) as exc:
        list(enumerate_weyl(rs, 1000))
    assert exc.value.predicted_order == 1152


def test_weyl_elements_preserve_pairing():
    rs = build_root_system("B", 2)
    rng = random.Random(7)
    w = identity(rs)
    for _ in range(12):
        w = w * simple_reflection(rs, rng.randrange(rs.rank))
    assert preserves_pairing(w)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=10))
def test_weyl_word_properties(word):
    rs = build_root_system("B", 3)
    w = identity(rs)
    for i in word:
        w = w * simple_reflection(rs, i)
    # length never exceeds the word length and has the same parity
    assert length(w) <= len(word)
    assert (length(w) - len(word)) % 2 == 0
    assert is_identity(w * inverse(w))


def test_lattice_quotient_a1_weight_mod_root():
    # P(A1)/Q(A1): in P-coordinates Q is generated by 2; det oracle = 2
    assert cokernel([[2]], 1) == FiniteAbelianGroup((2,))


def test_lattice_quotient_trivial():
    assert cokernel([[1, 0], [0, 1]], 2).order == 1
    assert cokernel([], 0).order == 1


def test_lattice_quotient_d4():
    # coweights mod coroots of D4 = (Z/2)^2, spanned by the columns of the
    # Cartan matrix; matches the 4-component count for the split
    # involution of D_{2n}
    rs = build_root_system("D", 4)
    grp = cokernel(list(zip(*rs.cartan)), 4)
    assert grp == FiniteAbelianGroup((2, 2))
    assert fundamental_group(rs) == grp


def test_lattice_quotient_free_rank_error():
    for rows, n, free_rank in (([[3, 0]], 2, 1), ([], 2, 2)):
        with pytest.raises(NonFiniteQuotientError) as exc:
            cokernel(rows, n)
        assert exc.value.free_rank == free_rank


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_lattice_quotient_order_is_det_ratio(diag, seed):
    # random unimodular change of basis must not change the quotient order
    n = len(diag)
    rng = random.Random(seed)
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            for k in range(n):
                U[i][k] += c * U[j][k]
    sub = [[diag[i] * U[i][k] for k in range(n)] for i in range(n)]
    grp = cokernel(sub, n)
    expected = 1
    for d in diag:
        expected *= d
    assert grp.order == expected


def test_smith_normal_form_divisor_chain():
    diag = smith_normal_form([[2, 0], [0, 3]])
    assert diag == [1, 6]


def ref_smith_normal_form(mat):
    """The pivot-by-pivot Smith form that the corner-peeling one replaced."""
    M = [list(row) for row in mat]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    diag = []
    r = c = 0
    while r < rows and c < cols:
        piv = None
        for i in range(r, rows):
            for j in range(c, cols):
                if M[i][j] != 0 and (piv is None or abs(M[i][j]) < abs(M[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        M[r], M[i0] = M[i0], M[r]
        for row in M:
            row[c], row[j0] = row[j0], row[c]
        while True:
            done = True
            for i in range(r + 1, rows):
                if M[i][c] % M[r][c] != 0:
                    q = M[i][c] // M[r][c]
                    for j in range(c, cols):
                        M[i][j] -= q * M[r][j]
                    M[r], M[i] = M[i], M[r]
                    done = False
            if done:
                break
        for i in range(r + 1, rows):
            q = M[i][c] // M[r][c]
            for j in range(c, cols):
                M[i][j] -= q * M[r][j]
        for j in range(c + 1, cols):
            q = M[r][j] // M[r][c]
            for i in range(r, rows):
                M[i][j] -= q * M[i][c]
        if any(M[i][c] for i in range(r + 1, rows)) or any(M[r][j] for j in range(c + 1, cols)):
            continue
        diag.append(abs(M[r][c]))
        r += 1
        c += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a != 0:
                diag[i], diag[i + 1] = math.gcd(a, b), a * b // math.gcd(a, b)
                changed = True
    return diag


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 6).flatmap(lambda m: st.integers(0, 6).flatmap(
    lambda n: st.lists(st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3, 4, 6, -9, 12]),
                                min_size=n, max_size=n), min_size=m, max_size=m))))
def test_smith_normal_form_matches_pivot_oracle(mat):
    assert smith_normal_form(mat) == ref_smith_normal_form(mat)


def test_is_odd_prime_agrees_with_trial_division():
    def trial(n):
        return n > 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(-3, 200_000) if is_odd_prime(n)] == [
        n for n in range(-3, 200_000) if trial(n)
    ]


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


def test_is_odd_prime_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; 3,215,031,751 = 151 * 751 * 28351 passes
    # the strong test to each of the bases 2, 3, 5 and 7, and the product
    # below to each of the twelve prime bases 2..37, which is why 41 is used
    for psp, factors, bases in [
        (3_215_031_751, (151, 751, 28351), (2, 3, 5, 7)),
        (318_665_857_834_031_151_167_461, (399_165_290_221, 798_330_580_441),
         (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    ]:
        assert psp == math.prod(factors)
        assert all(_strong_probable_prime(psp, a) for a in bases)
        assert not is_odd_prime(psp)
    assert not is_odd_prime(561)
    assert is_odd_prime(2**61 - 1)


def test_is_odd_prime_rejects_non_integers():
    assert [is_odd_prime(p) for p in (7.0, 7.5, True, "7", None)] == [False] * 5
    assert is_odd_prime(np.int64(10007)) and not is_odd_prime(np.int64(10001))


def test_is_odd_prime_refuses_to_guess_above_its_bound():
    bound = 3_317_044_064_679_887_385_961_981
    assert is_odd_prime(bound - 2) in (True, False)
    for p in (bound, bound + 2, 2**127 - 1):
        with pytest.raises(RootSystemError, match="too large to test for primality exactly"):
            is_odd_prime(p)


def test_fundamental_groups():
    assert fundamental_group(build_root_system("A", 3)).invariant_factors == (4,)
    assert fundamental_group(build_root_system("E", 8)).order == 1
    assert fundamental_group(build_root_system("E", 7)).invariant_factors == (2,)
    assert fundamental_group(build_root_system("E", 6)).invariant_factors == (3,)


def test_degrees_table_orders():
    assert weyl_order("E", 8) == 696729600
    assert weyl_order("D", 4) == 192
    assert degrees_for("A", 3) == (2, 3, 4)


def test_fundamental_group_order_is_cartan_determinant():
    # |coweights / coroots| equals |det(Cartan)| (full-rank quotient)
    for series, rank in [("A", 4), ("B", 3), ("C", 5), ("D", 6), ("E", 6), ("F", 4), ("G", 2)]:
        rs = build_root_system(series, rank)
        det = _int_det([list(row) for row in rs.cartan])
        assert fundamental_group(rs).order == abs(det)


# every simple type of rank <= 8, and the classical ones up to A24, B16, C16, D16
CARTAN_INVERSE_TYPES = (
    [("A", n) for n in range(1, 25)] + [("B", n) for n in range(2, 17)]
    + [("C", n) for n in range(2, 17)] + [("D", n) for n in range(3, 17)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_cartan_inverse_is_exact_and_cached():
    """cartan_inverse is (L cartan^-1, L), against the inverse over Q read
    off the reduced row echelon form of [cartan | 1]: L is the least
    denominator, and |Z| is a multiple of it (the inverse is the adjugate
    over det = |Z|)."""
    for series, rank in CARTAN_INVERSE_TYPES:
        rs = build_root_system(series, rank)
        scaled, L = rs.cartan_inverse
        assert rs.cartan_inverse is rs.cartan_inverse
        n = rs.rank
        R, pivots = ref_rref([list(row) + [int(i == j) for j in range(n)]
                              for i, row in enumerate(rs.cartan)])
        assert pivots == list(range(n))
        assert [[Fraction(x, L) for x in row] for row in scaled] == [row[n:] for row in R], rs
        assert all(type(x) is int for row in scaled for x in row) and type(L) is int
        assert math.lcm(*(Fraction(x, L).denominator for row in scaled for x in row)) == L, rs
        assert fundamental_group(rs).order % L == 0, rs


@pytest.mark.parametrize("series, rank", RANK_UP_TO_EIGHT)
def test_simple_cartan_rows_are_cached_read_only_kernel_rows(series, rank):
    """simple_cartan_rows is built once per root system, cannot be written,
    and equals the kernel's Cartan rows of the simple roots."""
    rs = build_root_system(series, rank)
    rows = rs.simple_cartan_rows
    assert rs.simple_cartan_rows is rows
    assert rows.dtype == np.int64 and rows.shape == (rs.rank, len(rs.roots))
    assert np.array_equal(rows, rs.kernel.cartan_rows(rs.roots[rs.simple_indices])[0])
    with pytest.raises(ValueError):
        rows[0, 0] = 0


@pytest.mark.parametrize("series, rank", RANK_UP_TO_EIGHT)
def test_negation_is_a_read_only_root_permutation(series, rank):
    """roots[negation[i]] == -roots[i] on every type of rank <= 8, and the
    array cannot be written."""
    rs = build_root_system(series, rank)
    neg = rs.negation
    assert neg.dtype == np.int64 and sorted(neg.tolist()) == list(range(len(rs.roots)))
    assert np.array_equal(rs.roots[neg], -rs.roots)
    with pytest.raises(ValueError):
        neg[0] = 0


@pytest.mark.parametrize("series,rank,corrupt", [
    ("A", 4, lambda rs: np.vstack([rs.coroots[1:2], rs.coroots[1:]])),
    ("B", 3, lambda rs: rs.roots),
    ("G", 2, lambda rs: rs.roots),
    ("A", 1, lambda rs: rs.coroots * [[1], [-1]]),
], ids=["A4-row", "B3-roots", "G2-roots", "A1-zero"])
def test_cartan_inverse_refuses_wrong_coroots(series, rank, corrupt):
    """cartan_inverse checks C X = kappa I with kappa > 0, so coroots that
    are not those of the roots raise RootSystemError instead of answering:
    one coroot row replaced, the roots themselves on a doubly-laced or
    triply-laced type, and coroots that make X vanish."""
    rs = copy.copy(build_root_system(series, rank))
    rs.__dict__.pop("cartan_inverse", None)
    rs.coroots = corrupt(rs)
    with pytest.raises(RootSystemError, match="do not invert"):
        rs.cartan_inverse


def _int_det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    assert det.denominator == 1
    return int(det)
