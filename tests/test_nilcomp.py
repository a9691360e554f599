"""Regular-nilpotent cocharacters, Z cap A, component counts, and the
longest-element decompositions."""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from thetatool.nilcomp import (
    OmegaError,
    OrthogonalDecomposition,
    _conjugate_involutions,
    _sommers_connected,
    _theta_on_coroots,
    builtin_decompositions,
    component_count,
    omega,
    verify_w0_decomposition,
    z_cap_a,
)
from thetatool.restricted import restrict
from thetatool.rootsys import FiniteAbelianGroup, RootSystemError, build_root_system
from thetatool.satake import (
    SatakeInvolution,
    _catalog_types,
    all_catalog_entries,
    catalog_list,
    catalog_lookup,
)

from brackets import dense_ad, eigenbases
from scalar import coroot_coords, theta_star
from weylgroup import enumerate_weyl, simple_reflection


def test_theta_on_coroots_matches_scalar():
    """theta sends alpha_j^vee to theta*(alpha_j)^vee, read off the coroot
    array, on every catalog class."""
    for e in all_catalog_entries():
        inv = e.satake
        rs = inv.ambient
        for j in range(rs.rank):
            unit = tuple(int(k == j) for k in range(rs.rank))
            assert _theta_on_coroots(inv, unit) == coroot_coords(rs, theta_star(inv, unit))


def test_omega_split_all_two():
    e = catalog_lookup("F", 4, "FI")
    _, diagram = omega(restrict(e.satake))
    assert diagram == (2, 2, 2, 2)


def test_omega_evi_diagram():
    # printed row order (a1 a3 a4 a5 a6 a7) = 2 2 2 0 2 0 with a2 = 0
    e = catalog_lookup("E", 7, "EVI")
    _, w = omega(restrict(e.satake))
    assert (w[0], w[2], w[3], w[4], w[5], w[6]) == (2, 2, 2, 0, 2, 0)
    assert w[1] == 0


def test_omega_bi_m_twos():
    for n, m in [(4, 1), (5, 2), (6, 3)]:
        e = catalog_lookup("B", n, f"BI({m})")
        _, diagram = omega(restrict(e.satake))
        assert diagram == tuple([2] * m + [0] * (n - m))


def test_omega_rejects_a_non_integral_diagram():
    """A2 with I = {alpha_1} and psi = 1 is no Satake datum, so it has no
    restricted system; omega's integrality check runs before it reads
    anything of one but its involution, so a stand-in that holds only
    ``inv`` reaches it.  The diagram (0, 2) solves to the coroot
    coordinates (2/3, 4/3)."""
    inv = SatakeInvolution(build_root_system("A", 2), compact=(0,))
    assert not inv.validate().ok
    with pytest.raises(OmegaError, match="no integral cocharacter"):
        omega(SimpleNamespace(inv=inv))


def test_omega_pairings():
    for e in all_catalog_entries(max_rank=5):
        rrs = restrict(e.satake)
        cochar, _ = omega(rrs)
        assert all(v == 2 for v in cochar.pairings)


def test_z_cap_a_split_c():
    e = catalog_lookup("C", 3, "CI")
    za, za_sq = z_cap_a(restrict(e.satake))
    assert za == FiniteAbelianGroup((2,))
    assert za_sq == FiniteAbelianGroup((2,))


def test_z_cap_a_aiii_inner_trivial():
    e = catalog_lookup("A", 4, "AIII(2,3)")
    za, _ = z_cap_a(restrict(e.satake))
    assert za.order == 1


def test_z_cap_a_split_d_even():
    e = catalog_lookup("D", 4, "DI(4)")
    za, za_sq = z_cap_a(restrict(e.satake))
    assert za == FiniteAbelianGroup((2, 2))
    assert za_sq.order == 4


def test_z_cap_a_matches_ambient_center_for_split():
    # independent code path: the split restricted system is the ambient one,
    # so Z cap A must be the full fundamental group
    from thetatool.rootsys import fundamental_group

    for e in all_catalog_entries(max_rank=6):
        if not e.is_split:
            continue
        za, _ = z_cap_a(restrict(e.satake))
        assert za == fundamental_group(e.satake.ambient)


def test_component_count_b_parity():
    # (so(2n+1), so(2m) + so(2(n-m)+1)): two components iff even part smaller
    assert component_count(catalog_lookup("B", 4, "BI(2)")).count == 2
    assert component_count(catalog_lookup("B", 4, "BI(1)")).count == 1
    assert component_count(catalog_lookup("B", 4, "BI(3)")).count == 1
    assert component_count(catalog_lookup("B", 5, "BI(4)")).count == 2


def test_component_count_sp_equal_pair_irreducible():
    # (sp(4n), sp(2n) + sp(2n))
    assert component_count(catalog_lookup("C", 4, "CII(2)")).count == 1
    assert component_count(catalog_lookup("C", 6, "CII(3)")).count == 1


def test_component_count_e7_e6_class():
    assert component_count(catalog_lookup("E", 7, "EVII")).count == 2


def test_component_count_methods():
    assert component_count(catalog_lookup("G", 2, "G")).method == "split-formula"
    assert (
        component_count(catalog_lookup("A", 5, "AIII(3,3)")).method
        == "quasi-split-formula"
    )
    assert component_count(catalog_lookup("D", 6, "DIII")).method == "case-table"


def test_component_count_matches_catalog_column():
    for e in all_catalog_entries():
        rep = component_count(e)
        assert rep.count == e.components, (e.series, e.rank, e.label)
        assert rep.z_cap_a_mod_sq.order % rep.count == 0


def test_component_count_beyond_catalog_refuses_nothing_known():
    # rank-9 classical families still resolve through the same methods
    assert component_count(catalog_lookup("B", 9, "BI(4)")).count == 2
    assert component_count(catalog_lookup("D", 9, "DI(9)")).count == 2
    assert component_count(catalog_lookup("A", 9, "AII")).count == 1


def test_w0_builtin_fixtures_all_pass():
    decs = builtin_decompositions()
    assert len(decs) >= 13
    for dec in decs:
        rep = verify_w0_decomposition(dec)
        assert rep.ok, (dec.name, rep.failures)


def test_w0_f4_fixture_contents():
    f4 = next(d for d in builtin_decompositions() if d.name == "F4-regular")
    assert (0, 1, 2, 2) in f4.betas  # a2 + 2a3 + 2a4
    assert (2, 3, 4, 2) in f4.betas  # the highest root


def test_w0_g2_fixture_contents():
    g2 = next(d for d in builtin_decompositions() if d.name == "G2-regular")
    assert set(g2.betas) == {(3, 2), (1, 0)}


def test_w0_a_odd_betas_alternating():
    a5 = next(d for d in builtin_decompositions() if d.name == "A5-regular")
    assert a5.betas == ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1))


def test_w0_e8_subsubregular_zeros():
    e8 = next(d for d in builtin_decompositions() if d.name == "E8-subsubregular")
    zeros = [i for i, w in enumerate(e8.lambda_diagram) if w == 0]
    assert zeros == [3, 5]  # a4 and a6 (0-based positions 3, 5)


def test_w0_perturbed_fixture_fails():
    g2 = next(d for d in builtin_decompositions() if d.name == "G2-regular")
    bad = OrthogonalDecomposition(
        name="G2-perturbed", series="G", rank=2,
        betas=((3, 2), (0, 1)),  # alpha_2 is not orthogonal to the highest root
        lambda_diagram=g2.lambda_diagram,
    )
    rep = verify_w0_decomposition(bad)
    assert not rep.ok
    assert rep.failures == ("beta_1 and beta_2 are not orthogonal",)

    bad2 = OrthogonalDecomposition(
        name="F4-wrong-beta", series="F", rank=4,
        betas=((2, 3, 4, 2), (0, 1, 2, 2), (0, 1, 2, 0), (0, 0, 0, 1)),
        lambda_diagram=(2, 2, 2, 2),
    )
    rep = verify_w0_decomposition(bad2)
    assert not rep.ok


def _conjugacy_classes(rs):
    """Every element of W(rs), a representative of each conjugacy class and
    the class number of each permutation: the orbits under conjugation by
    the simple reflections, which generate the group."""
    elements = [w for w, _ in enumerate_weyl(rs, 10**3)]
    gens = [simple_reflection(rs, i) for i in range(rs.rank)]
    label, reps = {}, []
    for w in elements:
        if w.perm in label:
            continue
        label[w.perm] = len(reps)
        stack = [w]
        while stack:
            u = stack.pop()
            for s in gens:
                v = s * u * s
                if v.perm not in label:
                    label[v.perm] = len(reps)
                    stack.append(v)
        reps.append(w)
    return elements, reps, label


def test_type_a_class_test_matches_brute_force_classes():
    """The fixed-root test agrees with the brute-force classes on every
    pair (x, y) of A1..A5 with x an involution, 58,108 pairs."""
    pairs = 0
    # S_{n+1} has p(n + 1) classes: 2, 3, 5, 7, 11 for A1..A5
    for rank, n_classes in zip(range(1, 6), (2, 3, 5, 7, 11)):
        rs = build_root_system("A", rank)
        elements, reps, label = _conjugacy_classes(rs)
        assert len(reps) == n_classes
        ident = np.arange(len(rs.roots))
        perms = [(np.array(w.perm), label[w.perm]) for w in elements]
        for x, kx in perms:
            if not np.array_equal(x[x], ident):
                continue
            for y, ky in perms:
                assert _conjugate_involutions(x, y) == (kx == ky), (rank, x, y)
                pairs += 1
    assert pairs == 58108


def test_w0_mutations_fail_the_product_without_raising():
    # s_1 alone is a transposition, w0 of A4 a product of two
    a4 = next(d for d in builtin_decompositions() if d.name == "A4-regular")
    rep = verify_w0_decomposition(replace(a4, name="A4-one-root", betas=((1, 0, 0, 0),)))
    assert not rep.ok
    assert rep.failures == ("product of reflections does not match the target",)

    # outside type A conjugacy is not decided, so it never passes
    b4 = next(d for d in builtin_decompositions() if d.name == "B4-regular")
    assert verify_w0_decomposition(b4).ok
    rep = verify_w0_decomposition(replace(b4, name="B4-up-to-conjugacy", up_to_conjugacy=True))
    assert not rep.ok
    assert rep.failures == ("conjugacy is decided only in type A",)


@pytest.mark.parametrize("beta", [(1, 0, 0), (1.5, 0, 0, 0), (1, 0, 1, 0), (1, 0, 0, 0, 0)])
def test_w0_malformed_or_non_root_beta_fails_without_raising(beta):
    """A beta of the wrong length, with a non-integral entry, or off the
    root list is a failure of the report, found before any kernel lookup
    could truncate or reject its row.  It stops the orthogonality and
    product checks, so only mod-4 failures may follow it."""
    a4 = next(d for d in builtin_decompositions() if d.name == "A4-regular")
    rep = verify_w0_decomposition(replace(a4, betas=(beta,) + a4.betas[1:]))
    assert not rep.ok
    assert rep.failures[0] == f"beta_1 = {beta} is not a root"
    assert all(f.endswith("is not 2 mod 4 (root vector not in p)") for f in rep.failures[1:])
    # an integral float names the same root as its int
    assert verify_w0_decomposition(replace(a4, betas=((1.0, 0, 0, 0),) + a4.betas[1:])).ok


@pytest.mark.parametrize("conjugator", [(2, 0, 0, 0, 0, 0), (1, 0), (0.5, 0, 0, 0, 0, 0)])
def test_w0_non_root_conjugator_raises(conjugator):
    e6 = next(d for d in builtin_decompositions() if d.name == "E6-subregular")
    assert verify_w0_decomposition(e6).ok
    with pytest.raises(RootSystemError) as exc:
        verify_w0_decomposition(replace(e6, conjugator=conjugator))
    assert str(exc.value) == f"{conjugator} is not a root of E6"


def test_component_report_notes_for_split_a():
    rep = component_count(catalog_lookup("A", 3, "AI"))
    assert any("gl" in n for n in rep.notes)


# -- omega diagram -> nilpotent partition (classical types) --------------------


def _h_coords(series, rank, w):
    """e-coordinates of the diagram cocharacter in the defining module."""
    h = [0] * rank
    if series == "B":
        h[rank - 1] = w[rank - 1]
    elif series == "C":
        assert w[rank - 1] % 2 == 0
        h[rank - 1] = w[rank - 1] // 2
    elif series == "D":
        h[rank - 1] = (w[rank - 1] - w[rank - 2]) // 2
        h[rank - 2] = (w[rank - 1] + w[rank - 2]) // 2
    start = rank - 3 if series == "D" else rank - 2
    for i in range(start, -1, -1):
        h[i] = h[i + 1] + w[i]
    return h


def partition_from_diagram(series, rank, w):
    """Jordan partition of the nilpotent orbit with an even dominant diagram.

    Builds the weight multiset of the defining representation and peels off
    maximal chains M, M-2, ..., -M (each a Jordan block of size M + 1).
    Independent of everything in nilcomp: a pure decoding oracle.
    """
    from collections import Counter

    if series == "A":
        h = [0] * (rank + 1)
        for i in range(rank - 1, -1, -1):
            h[i] = h[i + 1] + w[i]
        shift = sum(h)  # center so the multiset is symmetric
        eig = [x * (rank + 1) - shift for x in h]
        step = rank + 1
    else:
        hh = _h_coords(series, rank, w)
        eig = hh + [-x for x in hh] + ([0] if series == "B" else [])
        step = 1
    c = Counter(eig)
    part = []
    while c:
        top = max(c)
        x = top
        size = 0
        while True:
            assert c[x] > 0, "weight multiset is not a union of chains"
            c[x] -= 1
            if c[x] == 0:
                del c[x]
            size += 1
            if x == -top:
                break
            x -= 2 * step
        part.append(size)
    return tuple(sorted(part, reverse=True))


def _omega_diagram(series, rank, label):
    e = catalog_lookup(series, rank, label)
    _, dia = omega(restrict(e.satake))
    return dia


def test_regular_partitions_type_b():
    # m twos <-> one block 2m+1 plus ones, as in the published case list
    for m in range(1, 6):
        w = _omega_diagram("B", 5, f"BI({m})")
        expected = tuple([2 * m + 1] + [1] * (2 * (5 - m)))
        assert partition_from_diagram("B", 5, w) == expected


def test_regular_partitions_type_c():
    # the equal pair gives (2n)^2; the split class the regular partition
    assert partition_from_diagram("C", 4, _omega_diagram("C", 4, "CII(2)")) == (4, 4)
    assert partition_from_diagram("C", 4, _omega_diagram("C", 4, "CI")) == (8,)
    assert partition_from_diagram("C", 4, _omega_diagram("C", 4, "CII(1)")) == (3, 3, 1, 1)


def test_regular_partitions_type_d():
    # inner so-pairs: one block 2p+1 plus ones (the published list prints
    # these one family-step off; the connectedness conclusion is unchanged);
    # the gl-classes give (n)^2 and the split class the regular partition
    assert partition_from_diagram("D", 6, _omega_diagram("D", 6, "DI(2)")) == (
        5, 1, 1, 1, 1, 1, 1, 1,
    )
    assert partition_from_diagram("D", 6, _omega_diagram("D", 6, "DI(4)")) == (9, 1, 1, 1)
    assert partition_from_diagram("D", 6, _omega_diagram("D", 6, "DIII")) == (6, 6)
    assert partition_from_diagram("D", 6, _omega_diagram("D", 6, "DI(6)")) == (11, 1)


def test_split_and_quasisplit_regular_in_p_is_regular_in_g():
    # for split or quasi-split theta a regular nilpotent of p is regular in g
    for series, rank, label, regular in [
        ("A", 3, "AI", (4,)),
        ("A", 3, "AIII(2,2)", (4,)),
        ("B", 4, "BI(4)", (9,)),
        ("C", 3, "CI", (6,)),
        ("D", 5, "DI(5)", (9, 1)),
        ("D", 5, "DI(4)", (9, 1)),
    ]:
        w = _omega_diagram(series, rank, label)
        assert partition_from_diagram(series, rank, w) == regular


def test_aii_regular_partition():
    assert partition_from_diagram("A", 3, _omega_diagram("A", 3, "AII")) == (2, 2)
    assert partition_from_diagram("A", 5, _omega_diagram("A", 5, "AII")) == (3, 3)


# -- point-count sanity: the component count is visible in |N(F_q)| -----------


def _nilcone_point_count(series, rank, label, p):
    import itertools

    import numpy as np

    from thetatool import liealg

    entry = catalog_lookup(series, rank, label)
    dims = entry.satake.kp_dimensions()
    alg = liealg.build_algebra(series, rank, p)
    if entry.is_split:
        pair = liealg.realize_chevalley_involution(alg)
    else:
        mu = liealg.find_inner_coweight(alg, dims.k, dims.p)
        pair = liealg.realize_inner(alg, mu)
    ad, p_basis = dense_ad(alg.table), eigenbases(pair)[1]
    count = 0
    for coeffs in itertools.product(range(p), repeat=pair.dim_p):
        x = np.mod(np.array(coeffs, dtype=np.int64) @ p_basis, p)
        if not np.any(x):
            count += 1
            continue
        m = sum(int(x[i]) * ad[i] for i in np.nonzero(x)[0]) % p
        for _ in range(6):
            m = (m @ m) % p  # ad(x)^64 = 0 iff ad(x) nilpotent at these dims
        if not np.any(m):
            count += 1
    return count, pair.dim_p - restrict(entry.satake).r


def test_nilcone_point_counts_reflect_component_count():
    """|N(F_5)| is close to (number of components) * 5^dim for small pairs;
    the nilpotent cone is enumerated by brute force over F_5.

    Exact values for the split rank-1 pair, where N is two lines: 2(q-1)+1
    points when -1 is a square, and the sole origin when the two lines are
    conjugate over the prime field.
    """
    count, dim_n = _nilcone_point_count("A", 1, "AI", 5)
    assert (count, dim_n) == (9, 1)
    count, _ = _nilcone_point_count("A", 1, "AI", 13)
    assert count == 25
    count, _ = _nilcone_point_count("A", 1, "AI", 7)
    assert count == 1

    # leading coefficient distinguishes one component from two
    for series, rank, label, expected in [
        ("A", 2, "AI", 1),
        ("B", 2, "BI(2)", 2),
        ("C", 2, "CII(1)", 1),
    ]:
        count, dim_n = _nilcone_point_count(series, rank, label, 5)
        assert round(count / 5**dim_n) == expected, (series, rank, label, count)
        assert expected == catalog_lookup(series, rank, label).components


def test_connectedness_table_matches_a_rule_on_the_restricted_data():
    """Evidence for stating the connectedness table on the Satake datum:
    on every class of rank <= 12 whose count the table decides (method
    case-table, no "forced" note), the table says connected exactly when
    some restricted root has multiplicity 1 and Phi_A is of type C or of
    even rank.  The library keeps the table: the rule has no proof here."""
    types = _catalog_types() + [(s, r) for s in "ABCD" for r in range(9, 13)]
    decided = 0
    for series, rank in types:
        for e in catalog_list(series, rank):
            rep = component_count(e)
            if rep.method != "case-table" or any(n.startswith("forced") for n in rep.notes):
                continue
            rrs = restrict(e.satake)
            rule = bool((rrs.multiplicity == 1).any()) and (
                rrs.reduced_type.startswith("C") or rrs.r % 2 == 0
            )
            assert _sommers_connected(e)[0] == rule, (series, rank, e.label)
            decided += 1
    assert decided == 103
