"""Restricted root systems of involutions, with multiplicities.

The restriction of an ambient root a to the maximal split torus is
(a - theta(a))/2.  To stay in integer arithmetic we store the *doubled*
restriction d(a) = a - theta(a) throughout; Cartan integers are unaffected
by the scaling.  Every Cartan integer, reflection and membership test on
restricted roots goes through the one ``GramKernel`` over the doubled roots
that each restricted system owns; ambient pairings and coroots are read off
the ambient root system's kernel and coroot array.  Only admissible Satake
data are restricted: the constructor calls ``SatakeInvolution.admit``
first, which raises ``SatakeError`` otherwise.  The root-system axioms of
the restricted roots are then certified from the reflections in the basis;
a refusal is an internal fault.  The reduced subsystem consists of the
indivisible restricted roots, kept as one index array read off the same
lookup that finds the multipliable roots.  Nothing here eliminates or
walks a graph.  The pi-coordinates of a restricted root are one exact
division at the lift nodes of the basis, where the basis matrix is
diagonal.  The simple factors of the reduced subsystem are the classes of
basis roots that share the support of some root.  Each factor's type is
the one with its rank, its number of positive roots and its number of
short simple roots.  The baby Weyl group W_A is known through those types
alone (its order and degrees); nothing here lists its elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .rootsys import (
    SERIES,
    GramKernel,
    RootSystemError,
    _read_only,
    _root_halflengths,
    degrees_for,
    good_primes_from,
    is_odd_prime,
    validate_type,
    weyl_order,
)
from .satake import SatakeInvolution


class RestrictionError(ValueError):
    """Restricted-root data that an internal cross-check refuses."""


@dataclass(frozen=True)
class SimpleFactor:
    """One irreducible factor of the reduced restricted system."""

    series: str
    rank: int
    basis: Tuple[int, ...]  # positions into the restricted basis pi
    non_reduced: bool  # True when some root of this factor is multipliable

    @property
    def type_name(self) -> str:
        if self.non_reduced:
            return f"BC{self.rank}"
        return f"{self.series}{self.rank}"

    @property
    def reduced_type_name(self) -> str:
        return f"{self.series}{self.rank}"


def _shape(series: str, rank: int) -> Optional[Tuple[int, int]]:
    """(positive roots, short simple roots) of a simple type, or None when
    (series, rank) is not one."""
    try:
        validate_type(series, rank)
    except RootSystemError:
        return None
    half = _root_halflengths(series, rank)
    return sum(d - 1 for d in degrees_for(series, rank)), half.count(min(half))


class RestrictedRootSystem:
    """Restricted roots of an involution, with multiplicities.

    Attributes:
        inv: the defining Satake involution.
        doubled: ``kernel.vectors``, the distinct doubled restrictions
            a - theta(a) as int64 rows: the positive ones by (height,
            coordinates), then their negatives in the mirrored order.
        multiplicity: int64 array aligned with ``doubled``, the number of
            ambient roots restricting to each row.
        multipliable: boolean mask over ``doubled``, the rows whose double
            is also a restricted root.
        pi: (r, n) int64 array, the restricted basis (doubled), one row per
            psi-orbit of non-compact simple roots.
        pi_lifts: for each basis root, the smallest simple index lifting it.
        r: dim A, the rank of the split torus and of the reduced subsystem.
        reduced_indices: read-only int64 array, the positions in ``doubled``
            of the positive indivisible restricted roots, ascending.
        kernel: the ``GramKernel`` of ``doubled``.
    """

    def __init__(self, inv: SatakeInvolution):
        inv.admit()
        self.inv = inv
        rs = inv.ambient

        # doubled restrictions a - theta*(a) of the roots outside Phi_I,
        # none of them zero since theta* fixes no root outside Phi_I
        R = rs.roots
        D = R - R[inv.theta_perm()]
        # the distinct rows by (height, coordinates) and their counts: one
        # lexsort, then the run starts ([: 0] drops the leading True when
        # there is no row)
        rows = D[~inv.compact_roots]
        rows = rows[np.lexsort(np.vstack([rows[:, ::-1].T, rows.sum(axis=1)]))]
        starts = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)])[: len(rows)]
        distinct, counts = rows[starts], np.diff(np.r_[starts, len(rows)])
        # a row is positive when its first nonzero coordinate is
        lead = distinct[np.arange(len(distinct)), (distinct != 0).argmax(axis=1)]
        pos = distinct[lead > 0]
        self.kernel = kernel = GramKernel(np.vstack([pos, -pos]), rs.form)
        self.doubled = kernel.vectors
        self.num_positive = len(pos)
        self.multiplicity = _read_only(counts[np.argsort(kernel.lookup(distinct))])

        # restricted basis: one representative per psi-orbit of white nodes,
        # each a restricted root since white simple roots lie outside Phi_I
        white = [i for i in range(rs.rank) if i not in inv.compact]
        seen = kernel.lookup(D[rs.simple_indices[white]]).tolist()
        firsts = [k for k, f in enumerate(seen) if f not in seen[:k]]
        pi_idx = [seen[k] for k in firsts]
        self.pi = _read_only(self.doubled[pi_idx])
        self.pi_lifts: Tuple[int, ...] = tuple(white[k] for k in firsts)
        self.r = len(pi_idx)
        if inv.minus_one_rank() != self.r:
            raise RestrictionError(
                f"basis size {self.r} differs from split rank {inv.minus_one_rank()}"
            )

        # twice row i is row halves[i]: i is multipliable, halves[i] divisible
        halves = kernel.lookup(2 * kernel.vectors)
        self.multipliable = _read_only(halves >= 0)
        divisible = np.bincount(halves[self.multipliable], minlength=len(halves)) > 0
        self.reduced_indices = _read_only(np.flatnonzero(~divisible[: self.num_positive]))
        self._check_axioms()
        self._pi_coords = self._pi_division[0]
        cartan, _ = kernel.cartan_rows(self.pi)
        self._pi_cartan = tuple(tuple(row) for row in cartan[:, pi_idx].tolist())
        # <pi_a, alpha_j^vee> for the simple roots alpha_j of the ambient system
        cartan, _ = rs.kernel.cartan_rows(self.pi)
        self._pi_coroot_pairings = cartan[:, rs.simple_indices]
        self._pi_norms = tuple(kernel.norms[pi_idx].tolist())
        self.factors: Tuple[SimpleFactor, ...] = self._classify(self.multipliable[pi_idx])

    # -- setup helpers -------------------------------------------------------

    def pair_pi(self, coroot_coords: Sequence[int]) -> List[int]:
        """<pi_a, cochar> for each basis root pi_a, with cochar in the
        simple-coroot coordinates of the ambient system."""
        return (self._pi_coroot_pairings @ np.asarray(coroot_coords)).tolist()

    def _check_axioms(self) -> None:
        """Closure under reflections and integral Cartan numbers, certified
        from the basis Pi.

        Integrality also excludes 3a: if a and 3a were both restricted roots,
        <a, (3a)^vee> = 2/3 would fail it.  With X the pi-coordinates of the
        rows (``_pi_division``) and js the rows of Pi plus each 2 pi_i in the
        list, the certificate holds when
          1. every pi_i is a row, P[:, pi_lifts] is diagonal with no zero on
             its diagonal, and no row is zero;
          2. every row is an integral combination of Pi (X P = D), and its
             nonzero pi-coordinates share one sign;
          3. a row with exactly one nonzero pi-coordinate has it in
             {1, 2, -1, -2};
          4. for each pi in Pi, s_pi maps every row into the list;
          5. <v, pi^vee> is an integer for every row v and every pi in js.
        One ``kernel.reflections`` call, on at most 2r rows, reads 4 and 5.
        The restricted roots of an involution form a root system, so on
        admissible data the certificate holds; a refusal is an internal
        fault, raised as RestrictionError naming the first failed condition.

        Proof that the certificate implies the axioms (the descent by
        height: Humphreys, *Introduction to Lie Algebras*, 10.3 Thm (c);
        Bourbaki, *Lie* VI 1.5-1.6).  Take a positive row beta with two or
        more nonzero coordinates.  The form is positive definite, so
        (beta, beta) = sum_j x_j (beta, pi_j) > 0 gives a j with x_j > 0
        and, by 5, <beta, pi_j^vee> >= 1.  By 4, s_j beta is a row; it
        keeps a positive coordinate, so by 2 it is a positive row of lower
        height.  By 3 the descent ends at pi_j or 2 pi_j; likewise a
        negative row climbs to -pi_j or -2 pi_j, which s_j sends to pi_j or
        2 pi_j.  So W = <s_pi>, which permutes the list by 4, takes every
        row b to c pi_j with c in {1, 2}, and c pi_j is then in js.  For
        b = w(c pi_j), s_b = w s_{c pi_j} w^-1 keeps the list, and
        <a, b^vee> = <w^-1 a, (c pi_j)^vee> is an integer by 5.  So no
        pair (a, b) fails.
        """
        failure = self._certificate_failure()
        if failure is not None:
            raise RestrictionError(f"restricted-root axioms not certified: {failure}")

    def _certificate_failure(self) -> Optional[str]:
        """The first of conditions 1-5 of ``_check_axioms`` that fails, or
        None when all hold."""
        r = len(self.pi)
        found = self.kernel.lookup(np.vstack([self.pi, 2 * self.pi]))
        if (found[:r] < 0).any():
            return "condition 1, a basis root is not a row"
        if self._pi_division is None:
            return "condition 1, the basis is not diagonal at its lift nodes"
        if not self.doubled.any(axis=1).all():
            return "condition 1, a row is zero"
        X, bad = self._pi_division
        if bad.any():
            return "condition 2, a row is not an integral combination of the basis"
        if (np.abs(X.sum(axis=1)) != np.abs(X).sum(axis=1)).any():
            return "condition 2, a row has pi-coordinates of both signs"
        if (np.abs(X[(X != 0).sum(axis=1) == 1]) > 2).any():
            return "condition 3, a row is c pi_i with |c| > 2"
        images, integral = self.kernel.reflections(found[found >= 0])
        if (images[:r] < 0).any():
            return "condition 4, a basis reflection leaves the list"
        if not integral.all():
            return "condition 5, a row pairs non-integrally with a basis coroot"
        return None

    # -- classification --------------------------------------------------------

    def _classify(self, pi_multipliable: np.ndarray) -> Tuple[SimpleFactor, ...]:
        """The simple factors of the reduced system, read off the supports S
        of the pi-coordinates of its positive roots.  A root's support is
        connected and the highest root of a factor covers that factor, so
        basis roots i and j lie in one factor exactly when (S^T S)[i, j].
        Each factor is named by its rank, its number of positive roots and
        its number of short simple roots; it is non-reduced when one of its
        basis roots is multipliable."""
        S = self._pi_coords[self.reduced_indices] != 0
        factors = []
        for row in map(np.array, {tuple(r) for r in (S.T @ S).tolist()}):
            basis = tuple(np.flatnonzero(row).tolist())
            norms = [self._pi_norms[i] for i in basis]
            shape = (int((~S[:, ~row].any(axis=1)).sum()), norms.count(min(norms, default=0)))
            # A comes before D, so D3 is named A3; B before C, so B2 = C2 is B2
            series = next((s for s in SERIES if _shape(s, len(basis)) == shape), None)
            if series is None:
                raise RestrictionError(
                    f"factor on basis {basis} has {shape[0]} positive roots and "
                    f"{shape[1]} short simple roots: no simple type"
                )
            non_red = any(pi_multipliable[i] for i in basis)
            factors.append(SimpleFactor(series, len(basis), basis, non_red))
        return tuple(sorted(factors, key=lambda f: (f.series, f.rank, f.basis)))

    # -- public type info -------------------------------------------------------

    @property
    def restricted_type(self) -> str:
        """Type of Phi_A, with BC markers on non-reduced factors."""
        if not self.factors:
            return "0"
        return "+".join(f.type_name for f in self.factors)

    @property
    def reduced_type(self) -> str:
        """Type of the reduced subsystem Phi_A^*."""
        if not self.factors:
            return "0"
        return "+".join(f.reduced_type_name for f in self.factors)

    def weyl_order(self) -> int:
        out = 1
        for f in self.factors:
            out *= weyl_order(f.series, f.rank)
        return out

    def cartan_matrix(self) -> List[List[int]]:
        return [list(row) for row in self._pi_cartan]

    def multiplicity_table(self) -> List[Tuple[Tuple[int, ...], int]]:
        """Positive restricted roots in pi-coordinates with multiplicities."""
        n = self.num_positive
        rows = zip(self._pi_coords[:n].tolist(), self.multiplicity[:n].tolist())
        return [(tuple(x), m) for x, m in rows]

    @cached_property
    def _pi_division(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The pi-coordinates of the doubled roots, one row each, and the
        mask of the rows they do not give back; None when the basis is not
        diagonal at its lift nodes.

        theta* sends each white alpha_l to -alpha_psi(l) modulo Phi_I, so a
        basis root vanishes at the lift node of every other basis root: with
        P the r x n matrix of pi, B = P[:, pi_lifts] is diagonal with
        entries 1 or 2.  The coordinates of the rows D of the doubled roots
        are X = D[:, pi_lifts] // diag(B), good where X P = D: at the lift
        columns that says the division is exact.
        """
        D = self.kernel.vectors
        lifts = list(self.pi_lifts)
        P = self.pi
        b = np.diag(P[:, lifts])
        if (P[:, lifts] != np.diag(b)).any() or not b.all():
            return None
        X = D[:, lifts] // b
        return X, (X @ P != D).any(axis=1)

    def highest_root_coefficients(self) -> List[Tuple[SimpleFactor, Tuple[int, ...]]]:
        """Per factor, the pi-coordinates of its highest reduced root."""
        X = self._pi_coords[self.reduced_indices]
        out = []
        for f in self.factors:
            within = X[~X[:, np.isin(np.arange(self.r), f.basis, invert=True)].any(axis=1)]
            out.append((f, tuple(within[within.sum(axis=1).argmax()].tolist())))
        return out

    def check_p_good(self, p: int) -> Tuple[bool, str]:
        """Is p a good prime for the restricted root system?

        Good means p exceeds every coefficient of the highest root of each
        simple factor of the reduced subsystem, and of the highest root of
        the ambient system.  The witness names the violating coefficient.
        (No 3a needs excluding here: the axiom check already rejects it.)
        """
        if not is_odd_prime(p):
            return False, f"p = {p} is not an odd prime"
        for f, coeffs in self.highest_root_coefficients():
            worst = max(coeffs)
            if p <= worst:
                return (
                    False,
                    f"highest root of factor {f.type_name} has coefficient "
                    f"{worst} >= p = {p}",
                )
        rs = self.inv.ambient
        worst = good_primes_from(rs)
        if p <= worst:
            return (
                False,
                f"highest root of ambient {rs.series}{rs.rank} has coefficient "
                f"{worst} >= p = {p}",
            )
        return True, "good"


def restrict(inv: SatakeInvolution) -> RestrictedRootSystem:
    """Compute the restricted root system of an involution; raises
    SatakeError when its Satake datum is not admissible.

    The result is memoized on the involution (everything is immutable)."""
    cached = getattr(inv, "_restricted_cache", None)
    if cached is None:
        cached = RestrictedRootSystem(inv)
        inv._restricted_cache = cached
    return cached


@dataclass(frozen=True)
class RestrictedCocharacter:
    """A cocharacter of the split torus, in simple-coroot coordinates of the
    ambient system, together with its pairings against the basis pi."""

    coords: Tuple[int, ...]
    pairings: Tuple[int, ...]
    case: Optional[str] = None  # 'i' | 'ii' | 'iii' for omega_alpha


def omega_alpha(rrs: RestrictedRootSystem, basis_pos: int) -> RestrictedCocharacter:
    """The basis cocharacter dual to the restricted simple root pi[basis_pos].

    Classified by the lift beta of the basis root: (i) theta(beta) = -beta,
    (ii) beta and -theta(beta) orthogonal, (iii) beta and -theta(beta) span
    an A2.  The returned cocharacter satisfies <pi[basis_pos], omega> = 2 and
    <pi[j], omega> equals the Cartan integer of the restricted basis.
    """
    inv = rrs.inv
    rs = inv.ambient
    if not 0 <= basis_pos < rrs.r:
        raise RestrictionError(f"basis position {basis_pos} out of range")
    b = rs.simple_indices[rrs.pi_lifts[basis_pos]]
    t = inv.theta_perm()[b]  # theta*(beta)
    if t == (b + rs.num_positive) % len(rs.roots):
        case = "i"
        coords = rs.coroots[b]
    else:
        cartan, _ = rs.kernel.cartan_rows(rs.roots[[b]])
        diff = rs.coroots[b] - rs.coroots[t]
        if cartan[0, t] == 0:
            case = "ii"
            coords = diff
        else:
            case = "iii"
            coords = 2 * diff
    pairings = []
    for val in rrs.pair_pi(coords):
        if val % 2:
            raise RestrictionError("odd pairing of doubled root with omega_alpha")
        pairings.append(val // 2)
    if pairings[basis_pos] != 2:
        raise RestrictionError(
            f"<alpha, omega_alpha> = {pairings[basis_pos]} != 2 "
            f"(corrupted basis bookkeeping)"
        )
    return RestrictedCocharacter(tuple(coords.tolist()), tuple(pairings), case)


def case_iii_count(rrs: RestrictedRootSystem) -> int:
    """Number of basis roots of type (iii); at most one per simple factor."""
    count = 0
    per_factor = {f: 0 for f in rrs.factors}
    for j in range(rrs.r):
        oc = omega_alpha(rrs, j)
        if oc.case == "iii":
            count += 1
            for f in rrs.factors:
                if j in f.basis:
                    per_factor[f] += 1
    for f, c in per_factor.items():
        if c > 1:
            raise RestrictionError(f"factor {f.type_name} has {c} type-(iii) roots")
    return count
