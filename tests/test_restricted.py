"""Restricted root systems: restriction, multiplicities, classification,
baby Weyl groups, omega_alpha."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from thetatool.restricted import case_iii_count, omega_alpha, restrict
from thetatool.rootsys import CapExceededError, build_root_system
from thetatool.satake import (
    SatakeError,
    SatakeInvolution,
    _catalog_types,
    all_catalog_entries,
    catalog_list,
    catalog_lookup,
)

from scalar import (
    act,
    coroot_coords,
    doubled_tuples,
    multiplicities,
    pair_coroot,
    ref_factors,
    ref_minus_one_rank,
    ref_omega_alpha,
    ref_pi_coords,
    root_tuples,
    theta_star,
    tuples,
)
from test_satake import diagram_automorphisms, satake_data
from weylgroup import baby_weyl, enumerate_weyl, index_of


@lru_cache(maxsize=None)
def enumerated_data():
    """The 3,590 (I, psi) of the catalog types of rank <= 8, with psi an
    involutive diagram automorphism and I any set of nodes."""
    data = []
    for series, rank in _catalog_types():
        rs = build_root_system(series, rank)
        data += satake_data(rs, diagram_automorphisms(rs.cartan))
    return tuple(data)


def test_restrict_admits_exactly_the_validated_data():
    """restrict() succeeds exactly on the (I, psi) that validate() accepts.
    Each of the 3,416 others raises the admission gate's SatakeError, which
    names the datum and validate()'s first failure, from restrict() and
    from kp_dimensions() alike."""
    rejected = 0
    for inv in enumerated_data():
        failures = inv.validate().failures
        if not failures:
            restrict(inv)
            continue
        rejected += 1
        for compute in (restrict, SatakeInvolution.kp_dimensions):
            with pytest.raises(SatakeError) as exc:
                compute(inv)
            assert str(exc.value) == f"{inv!r} is not admissible: {failures[0]}"
    assert (len(enumerated_data()), rejected) == (3590, 3416)


def test_datum_failing_only_araki_is_refused(monkeypatch):
    """B2 with I = {alpha_1} fails only Araki's condition: <alpha_2,
    rho_I^vee> = 1/2.  Its restriction passes every internal check, so only
    the gate refuses it: with the gate patched out it restricts.  No
    restricted system, split rank or (k, p) dimensions are computed for it."""
    inv = SatakeInvolution(build_root_system("B", 2), compact=(0,))
    assert inv.validate().failures == ("<alpha_2, rho_I^vee> is not an integer",)
    message = "SatakeInvolution(B2, I={1}, psi=-) is not admissible: " + inv.validate().failures[0]
    for compute in (restrict, SatakeInvolution.minus_one_rank, SatakeInvolution.kp_dimensions):
        with pytest.raises(SatakeError) as exc:
            compute(inv)
        assert str(exc.value) == message
    monkeypatch.setattr(SatakeInvolution, "admit", lambda self: None)
    assert restrict(inv).r == inv.minus_one_rank() == 1


def test_constructor_gate_refuses_before_theta_perm():
    """A3 with psi = (1 2) does not preserve the Cartan matrix.  The
    constructor's own gate refuses it with validate()'s first failure;
    without that gate theta_perm() would raise first, a RootSystemError
    about roots, before minus_one_rank() reached its own gate."""
    inv = SatakeInvolution(build_root_system("A", 3), psi=(1, 0, 2))
    with pytest.raises(SatakeError) as exc:
        restrict(inv)
    assert str(exc.value) == (
        "SatakeInvolution(A3, I={}, psi=(1,2)) is not admissible: "
        "psi does not preserve the Cartan matrix"
    )


def test_admissible_data_are_certified_and_split_rank_is_the_trace():
    """Every admissible datum -- the 174 enumerated ones and the catalog
    classes, A/B/C/D of ranks 9-16 included -- restricts with the basis
    certificate holding, and its split rank (n - tr theta*)/2 equals
    n - rank(theta* + 1) over Q."""
    classes = all_catalog_entries() + [
        e for series in "ABCD" for rank in range(9, 17) for e in catalog_list(series, rank)
    ]
    admissible = [inv for inv in enumerated_data() if inv.validate().ok]
    assert (len(classes), len(admissible)) == (463, 174)
    for inv in admissible + [e.satake for e in classes]:
        rrs = restrict(inv)
        assert rrs._certificate_failure() is None, inv
        assert inv.minus_one_rank() == ref_minus_one_rank(inv) == rrs.r, inv


def test_split_restriction_is_bijection():
    for series, rank, label in [("G", 2, "G"), ("B", 3, "BI(3)"), ("A", 3, "AI")]:
        e = catalog_lookup(series, rank, label)
        rrs = restrict(e.satake)
        rs = e.satake.ambient
        mult = multiplicities(rrs)
        assert all(m == 1 for m in mult.values())
        assert len(rrs.doubled) == len(rs.roots)
        # doubled restriction of a is 2a; Cartan integers agree
        for v in root_tuples(rs):
            assert tuple(2 * x for x in v) in mult
        assert rrs.restricted_type == e.phi_a_type


def test_quasi_split_outer_a_odd_gives_c_type():
    # A_{2n+1} quasi-split outer: reduced type C_{n+1}
    e = catalog_lookup("A", 5, "AIII(3,3)")
    rrs = restrict(e.satake)
    assert rrs.reduced_type == "C3"
    assert rrs.restricted_type == "C3"  # reduced (no multipliable roots)


def test_e7_class_with_k_e6_gives_c3():
    rrs = restrict(catalog_lookup("E", 7, "EVII").satake)
    assert rrs.reduced_type == "C3"


def test_multiplicity_sum_over_catalog():
    for e in all_catalog_entries():
        rrs = restrict(e.satake)
        total = sum(multiplicities(rrs).values())
        expected = len(e.satake.ambient.roots) - np.count_nonzero(e.satake.compact_roots)
        assert total == expected, (e.series, e.rank, e.label)


def test_catalog_phi_a_types():
    for e in all_catalog_entries():
        rrs = restrict(e.satake)
        assert rrs.restricted_type == e.phi_a_type, (e.series, e.rank, e.label)
        assert rrs.r == len(rrs.pi) == e.satake.minus_one_rank()


def test_quasi_split_outer_d_odd_reduced_type():
    # D_{2n+1} quasi-split: split rank N-1, reduced type B_{N-1}
    rrs = restrict(catalog_lookup("D", 5, "DI(4)").satake)
    assert rrs.reduced_type == "B4"


def test_no_triple_restricted_roots_catalog():
    for e in all_catalog_entries(max_rank=6):
        rrs = restrict(e.satake)
        mult = multiplicities(rrs)
        for d in mult:
            assert tuple(3 * x for x in d) not in mult


def test_baby_weyl_orders():
    e = catalog_lookup("A", 1, "AI")
    W = baby_weyl(restrict(e.satake), 10)
    assert W.length_counts() == [1, 1]  # lengths {0, 1}

    # F4-restricted: 1152 = 2*6*8*12 (degree-product oracle)
    e = catalog_lookup("E", 6, "EII")
    W = baby_weyl(restrict(e.satake), 2000)
    assert sum(W.length_counts()) == 1152

    # C3-restricted: 2^3 * 3! = 48
    e = catalog_lookup("E", 7, "EVII")
    W = baby_weyl(restrict(e.satake), 100)
    assert sum(W.length_counts()) == 48


def test_baby_weyl_length_function():
    # the handle's length function agrees with the BFS depth
    e = catalog_lookup("A", 5, "AIII(2,4)")
    W = baby_weyl(restrict(e.satake), 10**4)
    for perm, depth in W.elements():
        assert W.length_of(perm) == depth


def test_baby_weyl_cap():
    e = catalog_lookup("E", 6, "EII")
    with pytest.raises(CapExceededError) as exc:
        baby_weyl(restrict(e.satake), 100)
    assert exc.value.predicted_order == 1152


def test_check_p_good():
    rrs = restrict(catalog_lookup("G", 2, "G").satake)
    assert rrs.check_p_good(5) == (True, "good")
    ok, witness = rrs.check_p_good(3)
    assert not ok and "coefficient 3" in witness

    rrs = restrict(catalog_lookup("A", 4, "AI").satake)
    assert rrs.check_p_good(3)[0]  # all coefficients 1 in type A

    # B2-restricted: highest root coefficients (1, 2), so p = 3 is good
    rrs = restrict(catalog_lookup("B", 4, "BI(2)").satake)
    assert rrs.check_p_good(3) == (True, "good")
    assert rrs.check_p_good(2)[0] is False


def test_factors_and_pi_coords_match_the_diagram_walk_and_q_elimination():
    """The factors named from root supports and the pi-coordinates read by
    one division equal the Dynkin-diagram walk and the elimination over Q:
    on the 275 catalog classes of rank <= 12, and on every (I, psi) that
    validate() accepts among the 3,590 on the catalog types of rank <= 8."""
    classes = all_catalog_entries() + [
        e for series in "ABCD" for rank in range(9, 13) for e in catalog_list(series, rank)
    ]
    data = [e.satake for e in classes]
    data += [inv for inv in enumerated_data() if inv.validate().ok]
    assert (len(classes), len(data)) == (275, 275 + 174)
    for inv in data:
        rrs = restrict(inv)
        assert rrs.factors == ref_factors(rrs), inv
        assert rrs._pi_coords.tolist() == ref_pi_coords(rrs), inv


def test_highest_root_coefficients_match_the_reduced_type():
    # per factor, the coefficients of the highest reduced root are those of
    # the highest root of its type (as multisets: B_n and C_n share theirs)
    for e in all_catalog_entries():
        rrs = restrict(e.satake)
        got = rrs.highest_root_coefficients()
        assert [f for f, _ in got] == list(rrs.factors)
        for f, coeffs in got:
            want = build_root_system(f.series, f.rank).highest_root
            assert sorted(c for c in coeffs if c) == sorted(want), (e.label, f)
            assert all(coeffs[i] == 0 for i in range(rrs.r) if i not in f.basis)
    # p = 3 is bad for the ambient E6 too, but the restricted F4 is named first
    rrs = restrict(catalog_lookup("E", 6, "EII").satake)
    assert rrs.check_p_good(3) == (
        False, "highest root of factor F4 has coefficient 4 >= p = 3"
    )


def test_omega_alpha_split_case_i():
    e = catalog_lookup("C", 3, "CI")
    rrs = restrict(e.satake)
    for j in range(rrs.r):
        oc = omega_alpha(rrs, j)
        assert oc.case == "i"
        # omega_alpha = beta^vee for the simple lift
        assert oc.coords == coroot_coords(
            e.satake.ambient, tuple(1 if k == rrs.pi_lifts[j] else 0 for k in range(3))
        )


def test_omega_alpha_matches_scalar_oracle():
    """Cases, coordinates and pairings of every basis cocharacter of every
    catalog class equal the scalar classification's."""
    cases = set()
    for e in all_catalog_entries():
        rrs = restrict(e.satake)
        for j in range(rrs.r):
            oc = omega_alpha(rrs, j)
            assert oc == ref_omega_alpha(e.satake, rrs, j), (e.series, e.rank, e.label, j)
            assert all(type(x) is int for x in oc.coords + oc.pairings)
            cases.add(oc.case)
    assert cases == {"i", "ii", "iii"}


def test_omega_alpha_case_iii_detected():
    e = catalog_lookup("A", 4, "AIII(2,3)")
    rrs = restrict(e.satake)
    cases = [omega_alpha(rrs, j).case for j in range(rrs.r)]
    assert "iii" in cases


def test_omega_alpha_pairings_are_cartan_integers():
    for e in all_catalog_entries(max_rank=5):
        rrs = restrict(e.satake)
        C = rrs.cartan_matrix()
        for j in range(rrs.r):
            oc = omega_alpha(rrs, j)
            assert oc.pairings[j] == 2
            for b in range(rrs.r):
                assert oc.pairings[b] == C[b][j]


def test_case_iii_at_most_one_per_factor():
    for e in all_catalog_entries(max_rank=6):
        rrs = restrict(e.satake)
        count = case_iii_count(rrs)  # raises if a factor has two
        multipliable = {d for d, m in zip(doubled_tuples(rrs), rrs.multipliable) if m}
        n_mult = sum(1 for d in tuples(rrs.pi) if d in multipliable)
        assert count == n_mult


def test_split_entries_preserve_cartan_integers():
    e = catalog_lookup("B", 3, "BI(3)")
    rrs = restrict(e.satake)
    rs = e.satake.ambient
    cartan, integral = rrs.kernel.cartan_rows(np.array(rrs.doubled))
    assert integral.all()
    for a in root_tuples(rs)[: rs.num_positive]:
        for b in root_tuples(rs)[: rs.num_positive]:
            da = tuple(2 * x for x in a)
            db = tuple(2 * x for x in b)
            assert cartan[index_of(rrs, da), index_of(rrs, db)] == pair_coroot(rs, a, b)


def weyl_matrix(w):
    """Integer matrix on the root lattice; column i is w(alpha_i)."""
    n = w.rs.rank
    cols = [act(w, tuple(1 if k == i else 0 for k in range(n))) for i in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _minus_one_space(inv):
    """theta* matrix and a rational basis of its (-1)-eigenspace."""
    from fractions import Fraction

    rs = inv.ambient
    n = rs.rank
    T = [[0] * n for _ in range(n)]
    for j in range(n):
        e = tuple(1 if k == j else 0 for k in range(n))
        img = theta_star(inv, e)
        for i in range(n):
            T[i][j] = img[i]
    A = [
        [Fraction(T[i][j] + (1 if i == j else 0)) for j in range(n)]
        for i in range(n)
    ]
    piv = []
    r = 0
    for c in range(n):
        sel = next((i for i in range(r, n) if A[i][c] != 0), None)
        if sel is None:
            continue
        A[r], A[sel] = A[sel], A[r]
        scale = 1 / A[r][c]
        A[r] = [x * scale for x in A[r]]
        for i in range(n):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        piv.append(c)
        r += 1
    free = [c for c in range(n) if c not in piv]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = 1
        for i, pc in enumerate(piv):
            v[pc] = -A[i][fc]
        basis.append(v)
    return T, basis


def _normalizer_quotient_order(inv, cap=500):
    """|W_1| / |W_2| for W_1 = stabilizer of the split eigenspace in the
    ambient Weyl group and W_2 = its pointwise fixer: the group-theoretic
    model of the baby Weyl group, independent of the reflection realization."""
    from fractions import Fraction

    rs = inv.ambient
    T, basis = _minus_one_space(inv)
    n = rs.rank

    def theta_plus_one(vec):
        return [
            sum(Fraction(T[i][j]) * vec[j] for j in range(n)) + vec[i]
            for i in range(n)
        ]

    w1 = w2 = 0
    for w, _ in enumerate_weyl(rs, cap):
        M = weyl_matrix(w)
        imgs = [
            [sum(Fraction(M[i][j]) * b[j] for j in range(n)) for i in range(n)]
            for b in basis
        ]
        if all(all(x == 0 for x in theta_plus_one(img)) for img in imgs):
            w1 += 1
            if all(img == list(b) for img, b in zip(imgs, basis)):
                w2 += 1
    assert w2 > 0
    assert w1 % w2 == 0
    return w1 // w2


def test_baby_weyl_matches_normalizer_quotient():
    # the reflection-group realization against the W_1/W_2 model, computed
    # by brute force in the ambient Weyl group
    for series, rank, label in [
        ("A", 3, "AIII(1,3)"), ("A", 3, "AII"), ("A", 3, "AIII(2,2)"),
        ("B", 2, "BI(1)"), ("B", 3, "BI(2)"), ("C", 3, "CII(1)"),
        ("D", 4, "DI(2)"), ("D", 4, "DIII"), ("D", 4, "DI(3)"),
        ("A", 4, "AIII(2,3)"), ("G", 2, "G"),
    ]:
        e = catalog_lookup(series, rank, label)
        rrs = restrict(e.satake)
        assert _normalizer_quotient_order(e.satake) == rrs.weyl_order(), (
            series, rank, label,
        )


def test_multiplicity_table_fii():
    # FII: BC1 with multiplicities 8 (short) and 7 (double)
    rrs = restrict(catalog_lookup("F", 4, "FII").satake)
    assert rrs.restricted_type == "BC1"
    mults = sorted(m for _, m in rrs.multiplicity_table())
    assert mults == [7, 8]


def test_multiplicity_profiles_match_classification_tables():
    # positive-root multiplicity histograms of the classical tables:
    # {multiplicity: number of positive restricted roots}
    expected = {
        ("E", 6, "EII"): ("F4", {1: 12, 2: 12}),
        ("E", 6, "EIII"): ("BC2", {1: 2, 6: 2, 8: 2}),
        ("E", 6, "EIV"): ("A2", {8: 3}),
        ("E", 7, "EVI"): ("F4", {1: 12, 4: 12}),
        ("E", 7, "EVII"): ("C3", {1: 3, 8: 6}),
        ("E", 8, "EIX"): ("F4", {1: 12, 8: 12}),
        ("A", 5, "AII"): ("A2", {4: 3}),
        ("D", 5, "DIII"): ("BC2", {1: 2, 4: 4}),
        ("D", 6, "DIII"): ("C3", {1: 3, 4: 6}),
    }
    for (series, rank, label), (rtype, hist) in expected.items():
        rrs = restrict(catalog_lookup(series, rank, label).satake)
        assert rrs.restricted_type == rtype
        got: dict = {}
        for _, m in rrs.multiplicity_table():
            got[m] = got.get(m, 0) + 1
        assert got == hist, (series, rank, label, got)


def test_check_p_good_rejects_composites():
    for series, rank, label, p in (("A", 3, "AI", 9), ("G", 2, "G", 15), ("A", 1, "AI", 1)):
        rrs = restrict(catalog_lookup(series, rank, label).satake)
        assert rrs.check_p_good(p) == (False, f"p = {p} is not an odd prime")


def test_check_p_good_requires_ambient_good_prime():
    # restricted F4 has coefficients up to 4, but 5 is bad for the ambient E8
    rrs = restrict(catalog_lookup("E", 8, "EIX").satake)
    assert rrs.reduced_type == "F4"
    assert rrs.check_p_good(5) == (
        False, "highest root of ambient E8 has coefficient 6 >= p = 5"
    )
    assert rrs.check_p_good(7) == (True, "good")
    for series, rank, label, worst in (
        ("E", 6, "EIV", 3), ("E", 7, "EVII", 4), ("F", 4, "FII", 4)
    ):
        rrs = restrict(catalog_lookup(series, rank, label).satake)
        assert rrs.check_p_good(3) == (
            False,
            f"highest root of ambient {series}{rank} has coefficient {worst} >= p = 3",
        )


def test_classical_sweep_rank_9_to_12():
    from thetatool import nilcomp
    from thetatool.satake import catalog_list

    n = 0
    for series in "ABCD":
        for rank in range(9, 13):
            for e in catalog_list(series, rank):
                rrs = restrict(e.satake)
                assert rrs.restricted_type == e.phi_a_type, (series, rank, e.label)
                count = nilcomp.component_count(e).count
                assert count == e.components, (series, rank, e.label)
                n += 1
    assert n == 140
