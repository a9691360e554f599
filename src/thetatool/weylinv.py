"""Invariant degrees of the baby Weyl group and the length generating
polynomial.

The degrees come from the per-type table of each simple factor of the
reduced restricted system; the Poincare polynomial
is computed exactly by the parabolic-coset factorization
P_W(t) = prod_k P_{W_k / W_{k-1}}(t), each factor being the level sizes of
``rootsys.orbit_levels`` on a dominant-weight orbit, the walk that also
builds the roots, so even the 2.9-million-element restricted E7 group costs
only a few thousand vector operations.  The identity
sum_w t^{l(w)} = prod_i (1 - t^{d_i})/(1 - t) is then checked coefficient
by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import List, Sequence, Tuple

from .rootsys import DEFAULT_CAP, CapExceededError, degrees_for, orbit_levels
from .restricted import RestrictedRootSystem


class DegreeError(ValueError):
    """Unclassified restricted type or inconsistent degree data."""


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, ascending coefficients, no trailing zeros."""

    coeffs: Tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise DegreeError("trailing zero coefficient")

    @classmethod
    def from_list(cls, coeffs: Sequence[int]) -> "IntPolynomial":
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def q_integer(cls, d: int) -> "IntPolynomial":
        """1 + t + ... + t^(d-1)."""
        return cls(tuple([1] * d))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial.from_list(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0] * n
        for i, a in enumerate(self.coeffs):
            out[i] += a
        for i, b in enumerate(other.coeffs):
            out[i] -= b
        return IntPolynomial.from_list(out)

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact polynomial division; raises DegreeError on a remainder."""
        num = list(self.coeffs)
        den = other.coeffs
        if not den:
            raise DegreeError("division by zero polynomial")
        if not num:
            return IntPolynomial(())
        if len(num) < len(den):
            raise DegreeError("division leaves a remainder")
        out = [0] * (len(num) - len(den) + 1)
        for k in range(len(out) - 1, -1, -1):
            q, r = divmod(num[k + len(den) - 1], den[-1])
            if r:
                raise DegreeError("division leaves a remainder")
            out[k] = q
            for j, b in enumerate(den):
                num[k + j] -= q * b
        if any(num):
            raise DegreeError("division leaves a remainder")
        return IntPolynomial.from_list(out)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                terms.append(str(a))
            elif i == 1:
                terms.append(f"{a}t" if a != 1 else "t")
            else:
                terms.append(f"{a}t^{i}" if a != 1 else f"t^{i}")
        return " + ".join(terms)


@dataclass(frozen=True)
class DegreeProfile:
    """Multiset of the r invariant degrees, one per basis root."""

    degrees: Tuple[int, ...]

    @property
    def product(self) -> int:
        return prod(self.degrees) if self.degrees else 1


def invariant_degrees(rrs: RestrictedRootSystem) -> DegreeProfile:
    """Degrees of the polynomial invariants of k[a]^{W_A}.

    Type lookup on each simple factor of the reduced subsystem.
    """
    degs: List[int] = []
    for f in rrs.factors:
        try:
            degs.extend(degrees_for(f.series, f.rank))
        except Exception as exc:
            raise DegreeError(f"no degree table for factor {f.type_name}") from exc
    profile = DegreeProfile(tuple(sorted(degs)))
    if profile.product != rrs.weyl_order():
        raise DegreeError("degree product does not match the Weyl group order")
    return profile


def poincare_polynomial(
    rrs: RestrictedRootSystem, order_cap: int = DEFAULT_CAP
) -> IntPolynomial:
    """Exact length generating polynomial of W_A.

    The predicted order is checked against the cap first (CapExceededError
    names it); the polynomial itself is assembled from parabolic-coset
    factors, never materializing the full group.
    """
    predicted = rrs.weyl_order()
    if predicted > order_cap:
        raise CapExceededError(predicted, order_cap)
    C = rrs.cartan_matrix()
    return poincare_from_cartan(C)


def poincare_from_cartan(C: Sequence[Sequence[int]]) -> IntPolynomial:
    """Length generating polynomial of the Weyl group of a Cartan matrix.

    For each k the quotient W_{1..k} / W_{1..k-1} is walked as the orbit of
    a weight with pairing vector (0,...,0,1), in which alpha_j is row j of
    C; each step away from the dominant chamber raises the minimal coset
    length by one, so level l of the walk holds the cosets of length l.
    """
    result = IntPolynomial.one()
    for k in range(1, len(C) + 1):
        steps = [tuple(row[:k]) for row in C[:k]]
        levels = orbit_levels([(0,) * (k - 1) + (1,)], steps)
        result = result * IntPolynomial.from_list([len(level) for level in levels])
    return result


def demazure_identity_check(
    profile: DegreeProfile, poincare: IntPolynomial
) -> Tuple[bool, IntPolynomial]:
    """Check sum_w t^l(w) = prod_i (1 + t + ... + t^(d_i - 1}) exactly.

    Returns (equal, coefficient-wise difference); a degree-1 factor
    contributes (1 - t)/(1 - t) = 1 to the product.
    """
    product = IntPolynomial.one()
    for d in profile.degrees:
        product = product * IntPolynomial.q_integer(d)
    diff = poincare - product
    return (not diff.coeffs, diff)


def degrees_from_poincare(poincare: IntPolynomial, r: int) -> Tuple[int, ...]:
    """Recover the degree multiset from the length polynomial.

    Multiplies back by (1 - t)^r and peels cyclotomic-style factors
    (1 - t^d) off the lowest nonzero term; this inverts the Demazure
    product without consulting the degree table.
    """
    q = poincare
    one_minus_t = IntPolynomial((1, -1))
    for _ in range(r):
        q = q * one_minus_t
    degs: List[int] = []
    while q.coeffs != (1,):
        low = next(
            (i for i in range(1, len(q.coeffs)) if q.coeffs[i] != 0), None
        )
        if low is None or q.coeffs[low] > 0:
            raise DegreeError("polynomial is not a product of (1 - t^d) factors")
        mult = -q.coeffs[low]
        for _ in range(mult):
            q = q.exact_div(IntPolynomial((1,) + (0,) * (low - 1) + (-1,)))
            degs.append(low)
    return tuple(sorted(degs))
