"""Invariant degrees and the length generating polynomial."""

from __future__ import annotations

from math import prod

import pytest

from thetatool.restricted import restrict
from thetatool.rootsys import CapExceededError
from thetatool.satake import all_catalog_entries, catalog_lookup
from thetatool.weylinv import (
    DegreeError,
    degrees_from_poincare,
    invariant_degrees,
    poincare_polynomial,
    q_product,
)

from weylgroup import baby_weyl, poincare_from_enumeration


def poincare_by_factoring(rrs):
    """Independent degree oracle: factor the enumerated length polynomial."""
    poly = poincare_from_enumeration(baby_weyl(rrs, 10**5))
    return degrees_from_poincare(poly, rrs.r)


def test_degrees_f4_by_factoring():
    rrs = restrict(catalog_lookup("F", 4, "FI").satake)
    assert invariant_degrees(rrs) == (2, 6, 8, 12)
    assert poincare_by_factoring(rrs) == (2, 6, 8, 12)


def test_degrees_a1():
    rrs = restrict(catalog_lookup("A", 1, "AI").satake)
    assert invariant_degrees(rrs) == (2,)


def test_degrees_evii_c3_by_factoring():
    rrs = restrict(catalog_lookup("E", 7, "EVII").satake)
    assert rrs.r == len(rrs.pi) == 3
    assert invariant_degrees(rrs) == (2, 4, 6)
    assert poincare_by_factoring(rrs) == (2, 4, 6)


def test_poincare_order_two():
    rrs = restrict(catalog_lookup("A", 1, "AI").satake)
    assert poincare_polynomial(rrs) == (1, 1)


def test_poincare_a2():
    rrs = restrict(catalog_lookup("A", 2, "AI").satake)
    assert poincare_polynomial(rrs) == (1, 2, 2, 1)


def test_poincare_c3_value_at_one():
    rrs = restrict(catalog_lookup("A", 5, "AIII(3,3)").satake)
    assert sum(poincare_polynomial(rrs)) == 48


def test_poincare_matches_enumeration_small():
    for series, rank, label in [
        ("A", 3, "AI"), ("B", 2, "BI(2)"), ("G", 2, "G"),
        ("A", 5, "AII"), ("D", 4, "DIII"),
    ]:
        rrs = restrict(catalog_lookup(series, rank, label).satake)
        assert poincare_polynomial(rrs) == poincare_from_enumeration(baby_weyl(rrs, 10**4))


def test_poincare_cap_propagates():
    rrs = restrict(catalog_lookup("E", 8, "EVIII").satake)
    with pytest.raises(CapExceededError):
        poincare_polynomial(rrs, 10**6)


def test_demazure_identity_trivial():
    assert q_product((2,)) == (1, 1)


def test_demazure_corrupted_degrees():
    # (1, 2, 1) is the A1 x A1 polynomial, of the degrees (2, 2), not (2, 3)
    assert q_product((2, 2)) == (1, 2, 1)
    assert q_product((2, 3)) != (1, 2, 1)


def test_degree_product_equals_weyl_order():
    for e in all_catalog_entries(max_rank=6):
        rrs = restrict(e.satake)
        assert prod(invariant_degrees(rrs)) == rrs.weyl_order()


# The four catalog classes whose W_A is over the default cap, so that no
# report or verify suite walks them.
OVER_THE_CAP = [("B", 8, "BI(8)"), ("C", 8, "CI"), ("D", 8, "DI(8)"), ("E", 8, "EVIII")]


def test_poincare_degree_equals_positive_reduced_roots():
    """The polynomial has degree |Phi_A^*+|, and it is the Demazure product
    of the invariant degrees, which factoring it gives back."""
    classes = [("B", 4, "BI(3)"), ("C", 4, "CII(2)"), ("E", 6, "EIII")] + OVER_THE_CAP
    for series, rank, label in classes:
        rrs = restrict(catalog_lookup(series, rank, label).satake)
        poly = poincare_polynomial(rrs, order_cap=10**10)
        assert len(poly) - 1 == len(rrs.reduced_indices)
        degrees = invariant_degrees(rrs)
        assert poly == q_product(degrees), label
        assert degrees_from_poincare(poly, rrs.r) == degrees


def test_poincare_palindromic():
    # w -> w0 w is a length-reversing bijection, so the coefficients are
    # symmetric for every entry
    for e in all_catalog_entries(max_rank=6):
        rrs = restrict(e.satake)
        c = poincare_polynomial(rrs)
        assert c == tuple(reversed(c)), (e.series, e.rank, e.label)


def test_factoring_inverts_the_demazure_product_on_the_catalog():
    """Every catalog class's degrees come back from their q-product, the
    four classes over the cap included: the division by 1 - t^d never
    needs the polynomial itself."""
    seen = set()
    for e in all_catalog_entries():
        degrees = invariant_degrees(restrict(e.satake))
        assert degrees_from_poincare(q_product(degrees), len(degrees)) == degrees, e.label
        seen.add((e.series, e.rank, e.label))
    assert len(seen) == 135
    assert set(OVER_THE_CAP) <= seen


@pytest.mark.parametrize("coeffs, r, message", [
    ((1, 3, 1), 1, "not a product"),  # (1 + 3t + t^2)(1 - t) = 1 + 2t - ...
    ((1, -1, 5), 0, "remainder"),  # 1 - t leaves 5t^2 over
    ((2,), 0, "not a product"),  # no term above the constant
    ((), 0, "not a product"),  # the zero polynomial
], ids=["positive-low-term", "remainder", "constant", "zero"])
def test_factoring_refuses_a_non_product_and_a_remainder(coeffs, r, message):
    with pytest.raises(DegreeError, match=message):
        degrees_from_poincare(coeffs, r)
