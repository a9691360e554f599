"""The shared integral Chevalley table.

The dense Python loops the table replaced (the dim^2 bracket scatter and the
O(dim^5) pairwise Jacobi check) are kept here as oracles, together with a
dense check on the simple root vectors in the library's order, a dense
all-pairs automorphism check and dense products with the integral ``ad``.
The sparse checks and the scatter ``adjoint`` of ``brackets`` must agree
with them, the checks also on seeded corruptions, message for message.  The
constants come from the root-tuple recursion ``ref_structure_constants``,
so the array build by height is checked against it on every type of rank
at most 8.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from thetatool import liealg
from thetatool.liealg import (
    ChevalleyTable,
    LieAlgebraError,
    SymmetricPairRealization,
    build_algebra,
    chevalley_table,
    find_inner_coweight,
    realize_chevalley_involution,
    realize_inner,
)
from thetatool.rootsys import build_root_system
from thetatool.satake import catalog_list

from brackets import adjoint, dense_ad, dense_centralizer_dims, dense_dtheta, eigenbases
from scalar import (
    _chain_down,
    coroot_coords,
    is_root,
    pair_coroot_simple,
    ref_structure_constants,
    root_index,
    root_tuples,
)

RANK_UP_TO_SIX = [("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 7)] + [
    ("C", n) for n in range(3, 7)
] + [("D", n) for n in range(4, 7)] + [("E", 6), ("F", 4), ("G", 2)]

SMALL = [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4)]

RANK_UP_TO_EIGHT = [("D", 3)] + [("A", n) for n in range(1, 9)] + [
    (s, n) for s in "BC" for n in range(2, 9)
] + [("D", n) for n in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]


# -- oracles: the dense loops the sparse table replaced ---------------------------


def ref_bracket_basis(rs, nconst, i, j):
    """[x_i, x_j] on basis elements, as a sparse integer vector."""
    n = rs.rank
    out = {}
    if i < n and j < n:
        return out
    if i < n or j < n:
        h, e, sign = (i, j, 1) if i < n else (j, i, -1)
        c = sign * pair_coroot_simple(rs, root_tuples(rs)[e - n], h)
        if c:
            out[e] = c
        return out
    a, b = root_tuples(rs)[i - n], root_tuples(rs)[j - n]
    s = tuple(x + y for x, y in zip(a, b))
    if all(x == 0 for x in s):
        # [e_a, e_{-a}] = a^vee in the simple-coroot basis
        sign = 1 if i - n < rs.num_positive else -1
        posroot = a if sign == 1 else b
        for k, c in enumerate(coroot_coords(rs, posroot)):
            if c:
                out[k] = sign * c
        return out
    if is_root(rs, s):
        out[n + root_index(rs, s)] = nconst[(i - n, j - n)]
    return out


def ref_entries(rs, nconst):
    """The table rows (i, k, l, c) from the bracket loop, unsorted."""
    dim = rs.rank + len(rs.roots)
    rows = [
        (i, k, l, c)
        for i in range(dim)
        for k in range(dim)
        for l, c in ref_bracket_basis(rs, nconst, i, k).items()
    ]
    return np.array(rows, dtype=np.int64)


def ref_verify_integral_jacobi(table):
    """ad[x_i, x_j] = [ad x_i, ad x_j] over Z, pair by pair, by dense
    products; [x_i, x_j] is column j of ad x_i."""
    ad = dense_ad(table)
    for i in range(table.dim):
        adi = ad[i]
        for j in range(i + 1, table.dim):
            adj = ad[j]
            comm = adi @ adj - adj @ adi
            lie = np.zeros_like(comm)
            for k in np.flatnonzero(adi[:, j]):
                lie += adi[k, j] * ad[k]
            if not np.array_equal(comm, lie):
                raise LieAlgebraError(
                    f"Jacobi failure at basis pair ({table.basis_name(i)}, "
                    f"{table.basis_name(j)})"
                )


def ref_generator_jacobi(table):
    """The check on the simple root vectors S, e_{alpha_i} then
    e_{-alpha_i}: first the generation rule by a loop over the table rows
    (each basis element outside S is the output of the lone, nonzero row
    of a pair (g, y), g in S; h_i of [e_{alpha_i}, e_{-alpha_i}] only, a
    root vector of a y of smaller |height|), then ad[x_g, x_j] =
    [ad x_g, ad x_j] by dense products for each g in S and every j."""
    rs, n, npos = table.rs, table.rs.rank, table.rs.num_positive
    simple = [n + int(s) for s in rs.simple_indices]
    gens = simple + [s + npos for s in simple]
    rows = {}
    for i, k, l, c in table.entries.tolist():
        rows.setdefault((i, k), []).append((l, c))

    def height(x):
        return 0 if x < n else abs(sum(root_tuples(rs)[x - n]))

    made = set(gens)
    for (g, y), products in rows.items():
        if g in gens and len(products) == 1 and products[0][1] != 0:
            l = products[0][0]
            if (l < n and (g, y) == (simple[l], simple[l] + npos)) or (
                l >= n and height(y) < height(l)
            ):
                made.add(l)
    for x in range(table.dim):
        if x not in made:
            raise LieAlgebraError(
                f"{table.basis_name(x)} is not generated by the simple root vectors"
            )
    ad = dense_ad(table)
    for g in gens:
        for j in range(table.dim):
            comm = ad[g] @ ad[j] - ad[j] @ ad[g]
            lie = np.zeros_like(comm)
            for k in np.flatnonzero(ad[g][:, j]):
                lie += ad[g][k, j] * ad[k]
            if not np.array_equal(comm, lie):
                raise LieAlgebraError(
                    f"Jacobi failure at basis pair ({table.basis_name(g)}, "
                    f"{table.basis_name(j)})"
                )


def ref_first_automorphism_failure(pair):
    """The first basis pair (i, j), row-major, with dtheta[e_i, e_j] !=
    [dtheta e_i, dtheta e_j] mod p, from dense products."""
    p, d, ad = pair.alg.p, dense_dtheta(pair) % pair.alg.p, dense_ad(pair.alg.table)
    for i in range(pair.alg.dim):
        lhs = (np.tensordot(d[:, i], ad, axes=(0, 0)) % p) @ d  # [D e_i, D e_j]
        rhs = d @ ad[i]  # D [e_i, e_j]
        bad = np.flatnonzero(((lhs - rhs) % p).any(axis=0))
        if bad.size:
            return i, int(bad[0])
    return None


def _outcome(fn):
    try:
        fn()
    except LieAlgebraError as exc:
        return str(exc)
    return None


# -- the table ----------------------------------------------------------------------


@pytest.mark.parametrize("series, rank", RANK_UP_TO_SIX)
def test_sparse_table_scatters_to_the_bracket_loop_and_passes_jacobi(series, rank):
    table = chevalley_table(series, rank)
    rs, dim = table.rs, table.dim
    nconst = ref_structure_constants(rs)
    ad = np.zeros((dim, dim, dim), dtype=np.int64)
    for i in range(dim):
        for j in range(dim):
            for k, c in ref_bracket_basis(rs, nconst, i, j).items():
                ad[i][k][j] = c
    assert np.array_equal(dense_ad(table), ad)
    assert len(table.entries) == np.count_nonzero(ad)
    rng = np.random.default_rng(dim)
    for p in (7, 2**31 - 1):  # the largest prime linalg accepts
        for X in (
            rng.integers(0, p, size=(1, dim)),  # a single x
            rng.integers(0, p, size=(5, dim)),  # a stack
            np.zeros((3, dim), dtype=np.int64),  # a stack of zeros
            np.zeros((0, dim), dtype=np.int64),  # the empty stack
            np.full((2, dim), p - 1, dtype=np.int64),  # the largest residues
            rng.integers(0, p, size=(2, dim)) + p * (2**62 // p),  # unreduced
        ):
            want = np.tensordot(X % p, ad, axes=(1, 0)) % p
            assert np.array_equal(adjoint(table, X, p), want), (p, X.shape)
    table.check_jacobi()
    table.check_chevalley_property()


@pytest.mark.parametrize("series, rank", RANK_UP_TO_EIGHT)
def test_array_build_matches_the_recursion_byte_for_byte(series, rank):
    """The entries built by height equal, byte for byte, those built from
    the root-tuple recursion, and the chain lengths q[a, b] equal the
    recursion's on every pair of roots."""
    table = chevalley_table(series, rank)
    rs = table.rs
    ref = ChevalleyTable(rs, ref_entries(rs, ref_structure_constants(rs)))
    assert table.entries.dtype == ref.entries.dtype
    assert table.entries.shape == ref.entries.shape
    assert table.entries.tobytes() == ref.entries.tobytes()
    q = liealg._root_tables(rs)[2]
    want = [[_chain_down(rs, b, a) for b in root_tuples(rs)] for a in root_tuples(rs)]
    assert np.array_equal(q, np.array(want, dtype=np.int64))


@pytest.mark.parametrize("series, rank, root, norm, message", [
    ("A", 2, (1, 1), 3, "non-integral rotation in structure constants"),
    ("A", 3, (1, 1, 1), 1, "non-integral derived structure constant"),
])
def test_array_build_rejects_non_integral_constants(series, rank, root, norm, message, monkeypatch):
    """A wrong norm of one root pair +-root makes a rotated or a derived
    constant non-integral; the build raises instead of rounding."""
    rs = build_root_system(series, rank)
    norms = rs.kernel.norms.copy()
    i = root_index(rs, root)
    norms[[i, i + rs.num_positive]] = norm
    monkeypatch.setattr(rs.kernel, "norms", norms)
    with pytest.raises(LieAlgebraError, match=f"^{message}$"):
        liealg._structure_constants(rs)


@pytest.mark.parametrize("series, rank", SMALL)
def test_raised_constant_fails_the_chevalley_property(series, rank):
    """Each [e_a, e_b] coefficient raised in magnitude by one is caught by
    ``check_chevalley_property``, with the pair and the wrong value."""
    table = chevalley_table(series, rank)
    rs, n = table.rs, table.rs.rank
    for r in np.flatnonzero((table.entries[:, :3] >= n).all(axis=1)):
        entries = table.entries.copy()
        entries[r, 3] += np.sign(entries[r, 3])
        i, k, _, c = entries[r]
        a, b = root_tuples(rs)[i - n], root_tuples(rs)[k - n]
        with pytest.raises(LieAlgebraError) as exc:
            ChevalleyTable(rs, entries).check_chevalley_property()
        assert str(exc.value) == f"|N| != q+1 at ({a}, {b}): N = {c}"


# two independent seeded draws of corruptions per type
SEEDS = [65536, 64]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("series, rank", SMALL)
def test_corrupted_tables_fail_jacobi_with_the_oracle_message(series, rank, seed):
    """Every corruption is rejected by the dense all-pairs oracle, and the
    library rejects it too, with the message of the dense oracle on the
    simple root vectors."""
    rng = random.Random(f"{series}{rank}-{seed}")
    table = chevalley_table(series, rank)
    assert _outcome(lambda: ref_verify_integral_jacobi(table)) is None
    assert _outcome(lambda: ref_generator_jacobi(table)) is None
    n = table.rs.rank
    first, second, out, _ = table.entries.T
    coroot_rows = np.flatnonzero((first >= n) & (second >= n) & (out < n))
    for kind in ["sign", "drop", "zero", "coroot"] * 4:
        entries = table.entries.copy()
        if kind == "sign":
            entries[rng.randrange(len(entries)), 3] *= -1
        elif kind == "drop":
            entries = np.delete(entries, rng.randrange(len(entries)), axis=0)
        elif kind == "zero":
            entries[rng.randrange(len(entries)), 3] = 0
        else:  # a wrong coefficient of a^vee in [e_a, e_{-a}]
            r = rng.choice(coroot_rows.tolist())
            entries[r, 3] += np.sign(entries[r, 3])
        fake = ChevalleyTable(table.rs, entries)
        assert _outcome(lambda: ref_verify_integral_jacobi(fake)) is not None, (series, rank, kind)
        expected = _outcome(lambda: ref_generator_jacobi(fake))
        assert expected is not None, (series, rank, kind)
        assert _outcome(fake.check_jacobi) == expected, (series, rank, kind)


def _without(table, *pairs):
    """A copy of the table without the rows of the given basis pairs."""
    keep = [r for r, (i, k) in enumerate(table.entries[:, :2].tolist()) if (i, k) not in pairs]
    return ChevalleyTable(table.rs, table.entries[keep])


@pytest.mark.parametrize("series, rank, pairs, passes_all_pairs, message", [
    # the solvable algebra h + e + f with [e, f] = 0 is a Lie algebra
    ("A", 1, [(1, 2), (2, 1)], True, "h1 is not generated by the simple root vectors"),
    # [f, e] = -h1 is left, but h_i is read off [e_{alpha_i}, e_{-alpha_i}] only
    ("A", 1, [(1, 2)], False, "h1 is not generated by the simple root vectors"),
    ("A", 2, [(2, 3), (3, 2)], False, "e(1, 1) is not generated by the simple root vectors"),
    ("A", 2, [(5, 6), (6, 5)], False, "e(-1, -1) is not generated by the simple root vectors"),
], ids=["A1-solvable", "A1-without-e-f", "A2-positive", "A2-negative"])
def test_tables_not_generated_by_the_simple_root_vectors_are_refused(
    series, rank, pairs, passes_all_pairs, message
):
    """Without the rows that make an element out of S, the table is refused
    before any join, with the dense oracle's message, whether or not the
    all-pairs identity holds on it."""
    fake = _without(chevalley_table(series, rank), *pairs)
    assert (_outcome(lambda: ref_verify_integral_jacobi(fake)) is None) == passes_all_pairs
    assert _outcome(lambda: ref_generator_jacobi(fake)) == message
    assert _outcome(fake.check_jacobi) == message


def test_e_type_tables_pass_their_checks():
    """The tables of E6, E7 and E8 pass the Jacobi and |N| = q + 1 checks."""
    for rank in (6, 7, 8):
        table = chevalley_table("E", rank)
        table.check_jacobi()
        table.check_chevalley_property()


def test_one_read_only_table_shared_across_primes():
    algs = [build_algebra("B", 3, p) for p in (5, 7, 11)]
    table = chevalley_table("B", 3)
    assert all(alg.table is table for alg in algs)
    plan = realize_chevalley_involution(algs[0])._plan
    for arr in (table.entries, *plan, *liealg._root_tables(table.rs)):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1


# -- the exhaustive grading check ----------------------------------------------------


def _flipped(pair, rng, count):
    """Copies of pair with a corrupted sign that keeps dtheta an involution:
    one fixed point's sign flipped, or both signs of one 2-cycle."""
    for _ in range(count):
        i = rng.randrange(pair.alg.dim)
        sign = pair.sign.copy()
        sign[[i, pair.perm[i]]] *= -1
        yield SymmetricPairRealization(pair.alg, pair.perm, sign)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("series, rank, p", [("G", 2, 7), ("B", 3, 5), ("D", 4, 5), ("F", 4, 5)])
def test_flipped_sign_in_dtheta_fails_at_the_oracle_pair(series, rank, p, seed):
    """The grading check reports the dense oracle's first failing pair
    on corrupted signs."""
    pair = realize_chevalley_involution(build_algebra(series, rank, p))
    assert ref_first_automorphism_failure(pair) is None
    for bad in _flipped(pair, random.Random(f"{series}{rank}-{seed}"), 6):
        i, j = ref_first_automorphism_failure(bad)
        with pytest.raises(LieAlgebraError) as exc:
            bad.check_grading()
        assert str(exc.value) == f"dtheta fails to preserve brackets at pair ({i}, {j})"


def _dense_grading_failure(pair, x):
    """The message centralizer_dims owes x in p: None when [x, k] lies in p
    and [x, p] in k, from the dense tensordot ad and dense dtheta."""
    p, d = pair.alg.p, dense_dtheta(pair)
    ad = np.tensordot(x, dense_ad(pair.alg.table), axes=1) % p
    for basis, eig, law in zip(eigenbases(pair), (-1, 1),
                               ("[x, k] is not in p", "[x, p] is not in k")):
        images = basis @ ad.T % p  # rows [x, b]
        if np.any((images @ d.T - eig * images) % p):
            return f"grading fails at x: {law}"
    return None


def _flip_cases():
    """Split involutions of four types and two inner involutions, each
    with the kind that names it in its seed."""
    for series, rank, p in [("G", 2, 7), ("B", 3, 5), ("D", 4, 5), ("F", 4, 5)]:
        yield "chevalley", realize_chevalley_involution(build_algebra(series, rank, p))
    for series, rank, label in [("D", 4, "DI(2)"), ("F", 4, "FII")]:
        alg = build_algebra(series, rank, 5)
        dims = next(e for e in catalog_list(series, rank) if e.label == label).satake.kp_dimensions()
        mu = find_inner_coweight(alg, dims.k, dims.p)
        yield f"inner mu={tuple(mu)}", realize_inner(alg, mu)


def test_flipped_sign_in_dtheta_is_caught_by_centralizer_dims():
    """On realizations whose dtheta fails check_grading, every sample
    x in p whose [x, k] leaves p or whose [x, p] leaves k (by the dense
    oracle) makes centralizer_dims raise, so no rank read at the lead rows
    is returned; on the other samples the ranks equal the full products'."""
    messages = []
    for kind, pair in _flip_cases():
        rng = random.Random(f"flipped {pair.alg.rs.series}{pair.alg.rs.rank} {kind}")
        for bad in _flipped(pair, rng, 6):
            with pytest.raises(LieAlgebraError):
                bad.check_grading()
            for x in [bad.random_p_element(rng) for _ in range(3)] + list(eigenbases(bad)[1][:6]):
                want = _dense_grading_failure(bad, x)
                if want is None:
                    assert bad.centralizer_dims(x) == dense_centralizer_dims(bad, x)
                    continue
                with pytest.raises(LieAlgebraError) as exc:
                    bad.centralizer_dims(x)
                assert str(exc.value) == want
                messages.append(want)
    assert len(messages) >= 100
    assert set(messages) == {"grading fails at x: [x, k] is not in p",
                             "grading fails at x: [x, p] is not in k"}


def test_automorphism_check_on_inner_involutions():
    alg = build_algebra("D", 4, 7)
    for entry in catalog_list("D", 4):
        dims = entry.satake.kp_dimensions()
        mu = find_inner_coweight(alg, dims.k, dims.p)
        if mu is not None:
            pair = realize_inner(alg, mu)
            pair.check_grading()
            assert ref_first_automorphism_failure(pair) is None
            for bad in _flipped(pair, random.Random(4), 6):
                i, j = ref_first_automorphism_failure(bad)
                with pytest.raises(LieAlgebraError, match=rf"at pair \({i}, {j}\)$"):
                    bad.check_grading()


# -- E7 and E8 end to end -------------------------------------------------------------


def test_e7_built_and_realized_with_full_checks():
    """E7 at p = 5: the sparse Jacobi and |N| = q + 1 checks at build, the
    exhaustive automorphism check of the split involution, the grading
    laws, and the Kostant-Rallis identity on 5 samples, within 5 s."""
    t0 = time.perf_counter()
    alg = build_algebra("E", 7, 5)
    pair = realize_chevalley_involution(alg)
    split = [e for e in catalog_list("E", 7) if e.is_split][0]
    dims = split.satake.kp_dimensions()
    assert (pair.dim_k, pair.dim_p) == (dims.k, dims.p) == (63, 70)
    pair.check_grading()
    rng = random.Random("E7/chevalley/p=5")
    for _ in range(5):
        zk, zp = pair.centralizer_dims(pair.random_p_element(rng))
        assert zk - zp == pair.dim_k - pair.dim_p
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"E7 took {elapsed:.1f} s"


# The child reads its peak RSS from VmHWM: Linux carries a process's
# ru_maxrss over from its parent through exec, so under a large test runner
# ru_maxrss would report the runner's own peak.
E8_CHILD = """
import json, random
from thetatool.liealg import build_algebra, realize_chevalley_involution
pair = realize_chevalley_involution(build_algebra("E", 8, 7))
pair.check_grading()
rng = random.Random("E8/chevalley/p=7")
samples = [pair.centralizer_dims(pair.random_p_element(rng)) for _ in range(5)]
with open("/proc/self/status") as fh:
    peak_kb = int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
print(json.dumps({"kp": [pair.dim_k, pair.dim_p], "samples": samples, "peak_kb": peak_kb}))
"""


def test_e8_built_and_realized_under_60_mb():
    """E8 at p = 7 in a fresh interpreter: the checked table, the split
    involution with the exhaustive automorphism check, the grading laws,
    (k, p) = (120, 128) and the Kostant-Rallis identity on 5 samples, all
    within 60 MB of peak resident memory (a dense integral ad alone would
    be 122 MB)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    child = subprocess.run(
        [sys.executable, "-c", E8_CHILD], env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    out = json.loads(child.stdout)
    split = [e for e in catalog_list("E", 8) if e.is_split][0]
    dims = split.satake.kp_dimensions()
    assert tuple(out["kp"]) == (dims.k, dims.p) == (120, 128)
    for zk, zp in out["samples"]:
        assert zk - zp == 120 - 128
    assert out["peak_kb"] < 60 * 1024, f"E8 peak RSS {out['peak_kb']} KB"
