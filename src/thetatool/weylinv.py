"""Invariant degrees of the baby Weyl group and the length generating
polynomial.

A polynomial is a tuple of ints, lowest degree first, with no trailing
zero; a degree multiset is a sorted tuple.  The degrees come from the
per-type table of each simple factor of the reduced restricted system; the
Poincare polynomial is computed exactly by the parabolic-coset
factorization P_W(t) = prod_k P_{W_k / W_{k-1}}(t), each factor being the
level sizes of ``rootsys.orbit_levels`` on a dominant-weight orbit, the
walk that also builds the roots, so even the 2.9-million-element restricted
E7 group costs only a few thousand vector operations.  The identity
sum_w t^{l(w)} = prod_i (1 - t^{d_i})/(1 - t) is checked against
``q_product`` coefficient by coefficient.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .rootsys import DEFAULT_CAP, CapExceededError, degrees_for, orbit_levels
from .restricted import RestrictedRootSystem


class DegreeError(ValueError):
    """Unclassified restricted type or inconsistent degree data."""


def _multiply(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    """The product of two coefficient lists; () is the zero polynomial."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def q_product(degrees: Sequence[int]) -> Tuple[int, ...]:
    """prod_i (1 + t + ... + t^(d_i - 1)); a degree 1 contributes 1."""
    poly: Tuple[int, ...] = (1,)
    for d in degrees:
        poly = _multiply(poly, (1,) * d)
    return poly


def invariant_degrees(rrs: RestrictedRootSystem) -> Tuple[int, ...]:
    """Degrees of the polynomial invariants of k[a]^{W_A}, sorted.

    Type lookup on each simple factor of the reduced subsystem.
    """
    return tuple(sorted(d for f in rrs.factors for d in degrees_for(f.series, f.rank)))


def poincare_polynomial(
    rrs: RestrictedRootSystem, order_cap: int = DEFAULT_CAP
) -> Tuple[int, ...]:
    """Exact length generating polynomial of W_A.

    The predicted order is checked against the cap first (CapExceededError
    names it); the polynomial itself is assembled from parabolic-coset
    factors, never materializing the full group.  For each k the quotient
    W_{1..k} / W_{1..k-1} is walked as the orbit of a weight with pairing
    vector (0,...,0,1), in which alpha_j is row j of the Cartan matrix C;
    each step away from the dominant chamber raises the minimal coset
    length by one, so level l of the walk holds the cosets of length l.
    """
    predicted = rrs.weyl_order()
    if predicted > order_cap:
        raise CapExceededError(predicted, order_cap)
    C = rrs.cartan_matrix()
    poly: Tuple[int, ...] = (1,)
    for k in range(1, len(C) + 1):
        steps = [tuple(row[:k]) for row in C[:k]]
        levels = orbit_levels([(0,) * (k - 1) + (1,)], steps)
        poly = _multiply(poly, [len(level) for level in levels])
    return poly


def degrees_from_poincare(poincare: Sequence[int], r: int) -> Tuple[int, ...]:
    """Recover the degree multiset from the length polynomial.

    Multiplies back by (1 - t)^r and peels factors (1 - t^d) off the lowest
    nonzero term above the constant: q = (1 - t^d) s gives s_i = q_i +
    s_{i-d}, and the product s (1 - t^d) must give q back.  This inverts
    the Demazure product without consulting the degree table.
    """
    q = tuple(poincare)
    for _ in range(r):
        q = _multiply(q, (1, -1))
    degs: List[int] = []
    while q != (1,):
        low = next((i for i in range(1, len(q)) if q[i]), None)
        if low is None or q[low] > 0:
            raise DegreeError("polynomial is not a product of (1 - t^d) factors")
        factor = (1,) + (0,) * (low - 1) + (-1,)
        for _ in range(-q[low]):
            s = list(q[: len(q) - low])
            for i in range(low, len(s)):
                s[i] += s[i - low]
            if _multiply(s, factor) != q:
                raise DegreeError("division leaves a remainder")
            q = tuple(s)
            degs.append(low)
    return tuple(sorted(degs))
