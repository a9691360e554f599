"""Restricted root systems of involutions, with multiplicities.

The restriction of an ambient root a to the maximal split torus is
(a - theta(a))/2.  To stay in integer arithmetic we store the *doubled*
restriction d(a) = a - theta(a) throughout; Cartan integers are unaffected
by the scaling.  Every Cartan integer, reflection and membership test on
restricted roots goes through the one ``GramKernel`` over the doubled roots
that each restricted system owns; ambient pairings and coroots are read off
the ambient root system's kernel and coroot array.
The reduced subsystem consists of the indivisible restricted roots; its
type is recognized from the Cartan matrix on the restricted basis, and the
baby Weyl group is realized as permutations of the restricted-root vectors
generated by the basis reflections.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import linalg
from .rootsys import (
    CapExceededError,
    GramKernel,
    Root,
    RootSystemError,
    good_primes_from,
    is_odd_prime,
    permutation_bfs,
    weyl_order,
)
from .satake import SatakeInvolution


class RestrictionError(ValueError):
    """Inconsistent restricted-root data (corrupted Satake input)."""


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


class RestrictedRootSystem:
    """Restricted roots of an involution, with multiplicities.

    Attributes:
        inv: the defining Satake involution.
        doubled: ordered tuple of distinct doubled restrictions a - theta(a)
            (positive ones first, mirrored negatives after).
        multiplicity: dict doubled-vector -> number of ambient roots
            restricting to it.
        pi: the restricted basis (doubled), one entry per psi-orbit of
            non-compact simple roots.
        pi_lifts: for each basis root, the smallest simple index lifting it.
        r: dim A (rank of the split torus, plus any central split rank).
        r0: rank of the reduced subsystem.
        kernel: the ``GramKernel`` of ``doubled``, in the same order.
    """

    def __init__(self, inv: SatakeInvolution):
        self.inv = inv
        rs = inv.ambient
        compact_roots = inv.compact_subsystem()

        # doubled restrictions a - theta*(a) of the roots outside Phi_I
        R = rs.kernel.vectors
        D = R - R[list(inv.theta_perm())]
        outside = ~np.isin(np.arange(len(R)), list(compact_roots))
        zero = np.flatnonzero(outside & ~D.any(axis=1))
        if zero.size:
            raise RestrictionError(
                f"root {rs.roots[zero[0]]} restricts to zero but is not in Phi_I"
            )
        self.multiplicity = mult = dict(Counter(map(tuple, D[outside].tolist())))

        positives = sorted(
            (d for d in mult if self._is_positive(d)), key=lambda d: (sum(d), d)
        )
        negatives = [tuple(-x for x in d) for d in positives]
        if set(negatives) != set(mult) - set(positives):
            raise RestrictionError("restricted roots are not closed under negation")
        self.doubled: Tuple[Root, ...] = tuple(positives) + tuple(negatives)
        self.num_positive = len(positives)
        self._index = {d: i for i, d in enumerate(self.doubled)}

        # restricted basis: one representative per psi-orbit of white nodes
        pi: List[Root] = []
        lifts: List[int] = []
        for i, s in enumerate(rs.simple_indices):
            if i in inv.compact:
                continue
            d = tuple(D[s].tolist())
            if d not in self._index:
                raise RestrictionError(f"basis restriction {d} is not restricted root")
            if d not in pi:
                pi.append(d)
                lifts.append(i)
        self.pi: Tuple[Root, ...] = tuple(pi)
        self.pi_lifts: Tuple[int, ...] = tuple(lifts)
        self.r = inv.minus_one_rank() + inv.central_split
        self.r0 = len(pi)
        if inv.minus_one_rank() != self.r0:
            raise RestrictionError(
                f"basis size {self.r0} differs from split rank {inv.minus_one_rank()}"
            )

        self.kernel = kernel = GramKernel(self.doubled, rs.form)
        doubles = np.flatnonzero(kernel.lookup(2 * kernel.vectors) >= 0)
        self.multipliable = frozenset(self.doubled[i] for i in doubles)
        self._check_axioms()
        pi_idx = [self._index[d] for d in self.pi]
        cartan, _ = kernel.cartan_rows(kernel.vectors[pi_idx])
        self._pi_cartan = tuple(tuple(row) for row in cartan[:, pi_idx].tolist())
        # <pi_a, alpha_j^vee> for the simple roots alpha_j of the ambient system
        cartan, _ = rs.kernel.cartan_rows(kernel.vectors[pi_idx])
        self._pi_coroot_pairings = cartan[:, list(rs.simple_indices)]
        self._pi_norms = tuple(kernel.norms[pi_idx].tolist())
        self.factors: Tuple[SimpleFactor, ...] = self._classify()
        self._pi_coords: Dict[Root, Tuple[int, ...]] = self._compute_pi_coords()

    # -- setup helpers -------------------------------------------------------

    def _is_positive(self, d: Root) -> bool:
        for c in d:
            if c:
                return c > 0
        return False

    def pair_pi(self, coroot_coords: Sequence[int]) -> List[int]:
        """<pi_a, cochar> for each basis root pi_a, with cochar in the
        simple-coroot coordinates of the ambient system."""
        return (self._pi_coroot_pairings @ np.asarray(coroot_coords)).tolist()

    def index_of(self, d: Sequence[int]) -> int:
        try:
            return self._index[tuple(d)]
        except KeyError:
            raise RestrictionError(f"{tuple(d)} is not a restricted root")

    def _check_axioms(self) -> None:
        """Closure under reflections and integral Cartan numbers.

        Integrality also excludes 3a: if a and 3a were both restricted roots,
        <a, (3a)^vee> = 2/3 would fail it.  Reads the kernel's reflection
        table block by block.  The first failure in the order (a, b) is the
        one raised: RootSystemError for a non-integral pairing,
        RestrictionError for a reflection leaving the list.
        """
        for start, cartan, integral, images in self.kernel.reflection_blocks():
            bad = np.flatnonzero((images < 0) | ~integral)
            if not bad.size:
                continue
            i, j = divmod(int(bad[0]), cartan.shape[1])
            a, b = self.doubled[start + i], self.doubled[j]
            if not integral[i, j]:
                raise RootSystemError(f"non-integral Cartan pairing of {a} with {b}")
            c = int(cartan[i, j])
            img = tuple(x - c * y for x, y in zip(a, b))
            raise RestrictionError(
                f"restricted roots not closed under reflection: "
                f"s_{b}({a}) = {img}"
            )

    # -- classification --------------------------------------------------------

    def reduced_positive(self) -> List[Root]:
        """Positive indivisible restricted roots (Phi_A^* half)."""
        out = []
        for d in self.doubled[: self.num_positive]:
            if not any(x % 2 for x in d) and tuple(x // 2 for x in d) in self._index:
                continue  # divisible: d/2 is a restricted root
            out.append(d)
        return out

    def _classify(self) -> Tuple[SimpleFactor, ...]:
        n = self.r0
        C = self._pi_cartan
        # connected components of the Coxeter graph on pi
        seen: set[int] = set()
        comps: List[List[int]] = []
        for s in range(n):
            if s in seen:
                continue
            comp = [s]
            seen.add(s)
            stack = [s]
            while stack:
                u = stack.pop()
                for v in range(n):
                    if v not in seen and C[u][v] != 0 and u != v:
                        seen.add(v)
                        comp.append(v)
                        stack.append(v)
            comps.append(sorted(comp))
        factors = []
        for comp in comps:
            series = self._component_series(comp, C)
            non_red = any(self.pi[i] in self.multipliable for i in comp)
            factors.append(
                SimpleFactor(series=series, rank=len(comp), basis=tuple(comp),
                             non_reduced=non_red)
            )
        return tuple(
            sorted(factors, key=lambda f: (f.series, f.rank, f.basis))
        )

    def _component_series(self, comp: List[int], C: Sequence[Sequence[int]]) -> str:
        k = len(comp)
        if k == 1:
            return "A"
        sub = [[C[i][j] for j in comp] for i in comp]
        bond = max(
            sub[i][j] * sub[j][i] for i in range(k) for j in range(k) if i != j
        )
        degrees = [sum(1 for j in range(k) if j != i and sub[i][j] != 0) for i in range(k)]
        if bond == 3:
            if k != 2:
                raise RestrictionError("G2 bond in a component of rank != 2")
            return "G"
        if bond == 2:
            if k == 2:
                return "B"  # B2 = C2, canonical name
            norms = [self._pi_norms[comp[i]] for i in range(k)]
            short = min(norms)
            n_short = sum(1 for x in norms if x == short)
            if k == 4 and n_short == 2:
                return "F"
            if n_short == 1:
                return "B"
            if n_short == k - 1:
                return "C"
            raise RestrictionError("unrecognized multiply-laced component")
        # simply laced
        if max(degrees) <= 2:
            return "A"
        if max(degrees) != 3 or degrees.count(3) != 1:
            raise RestrictionError("unrecognized simply-laced component")
        # one branch node: D or E, telling them apart by arm lengths
        arms = sorted(self._arm_lengths(comp, sub))
        if arms[0] == 1 and arms[1] == 1:
            return "D"
        if arms[0] == 1 and arms[1] == 2:
            return "E"
        raise RestrictionError(f"unrecognized branched diagram with arms {arms}")

    def _arm_lengths(self, comp: List[int], sub: List[List[int]]) -> List[int]:
        k = len(comp)
        degs = [sum(1 for j in range(k) if j != i and sub[i][j] != 0) for i in range(k)]
        center = degs.index(3)
        arms = []
        for nb in (j for j in range(k) if j != center and sub[center][j] != 0):
            length = 1
            prev, cur = center, nb
            while True:
                nxt = [
                    j for j in range(k)
                    if j not in (prev, cur) and sub[cur][j] != 0
                ]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
        return arms

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
        out = []
        for d in self.doubled[: self.num_positive]:
            out.append((self._pi_coords[d], self.multiplicity[d]))
        return out

    def _compute_pi_coords(self) -> Dict[Root, Tuple[int, ...]]:
        """Express each doubled root in the basis pi (integer coordinates).

        With P the r0 x n matrix of pi and J the pivot columns of P, the
        coordinates of the rows D of the doubled roots are X = D_J P_J^{-1}:
        one exact inverse A = L P_J^{-1}, integral with its least common
        denominator L, and one integer product, kept where L divides it and
        X P = D.
        """
        if not self.r0:
            return {}
        D = self.kernel.vectors
        P = np.array(self.pi, dtype=np.int64).reshape(self.r0, D.shape[1])
        _, cols = linalg.echelon(self.pi)
        inverse = linalg.scaled_inverse(P[:, cols].tolist()) if len(cols) == self.r0 else None
        if inverse is None:
            raise RestrictionError("restricted basis is linearly dependent")
        A, L = inverse
        a_max = max(abs(x) for row in A for x in row)
        d_max = int(np.abs(D).max())
        if a_max * d_max * self.r0 >= 2**63:
            raise RestrictionError("pi-coordinates exceed int64")
        scaled = D[:, cols] @ np.array(A, dtype=np.int64)
        X = scaled // L
        bad = (scaled % L != 0).any(axis=1) | (X @ P != D).any(axis=1)
        if bad.any():
            d = self.doubled[int(np.flatnonzero(bad)[0])]
            raise RestrictionError(f"{d} has non-integer pi-coordinates")
        return dict(zip(self.doubled, map(tuple, X.tolist())))

    def highest_root_coefficients(self) -> List[Tuple[SimpleFactor, Tuple[int, ...]]]:
        """Per factor, the pi-coordinates of its highest reduced root."""
        out = []
        for f in self.factors:
            best = None
            for d in self.reduced_positive():
                c = self._pi_coords[d]
                if any(c[i] and i not in f.basis for i in range(self.r0)):
                    continue
                if best is None or sum(c) > sum(best):
                    best = c
            if best is None:
                raise RestrictionError(f"factor {f.type_name} has no highest root")
            out.append((f, best))
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

    # -- baby Weyl group ----------------------------------------------------------

    def reflection_perm(self, d: Sequence[int]) -> Tuple[int, ...]:
        """s_d as a permutation of the restricted root list."""
        images, integral = self.kernel.reflections([self.index_of(d)])
        if not integral.all() or (images < 0).any():
            raise RestrictionError(f"restricted roots not closed under s_{tuple(d)}")
        return tuple(images[0].tolist())

    def baby_weyl(self, order_cap: int) -> "BabyWeylGroup":
        """The little Weyl group W_A acting on the restricted roots.

        Raises CapExceededError when the predicted order (degree-product of
        the classified reduced type) exceeds the cap.
        """
        if self.r0 < 1:
            raise RestrictionError("trivial restricted system has no Weyl group")
        predicted = self.weyl_order()
        if predicted > order_cap:
            raise CapExceededError(predicted, order_cap)
        return BabyWeylGroup(self)


class BabyWeylGroup:
    """W_A as permutations of the restricted-root vectors, with lengths
    relative to the basis pi (inversion counts on the reduced system)."""

    def __init__(self, rrs: RestrictedRootSystem):
        self.rrs = rrs
        self.generators = [rrs.reflection_perm(d) for d in rrs.pi]
        self.order = rrs.weyl_order()
        reduced_pos = rrs.reduced_positive()
        self._reduced_pos_idx = [rrs.index_of(d) for d in reduced_pos]

    def length_of(self, perm: Tuple[int, ...]) -> int:
        npos = self.rrs.num_positive
        return sum(1 for i in self._reduced_pos_idx if perm[i] >= npos)

    def elements(self) -> Iterator[Tuple[Tuple[int, ...], int]]:
        """BFS enumeration (permutation, length), each element once,
        by right multiplication with the basis reflections."""
        return permutation_bfs(self.generators, len(self.rrs.doubled))

    def length_counts(self) -> List[int]:
        """Number of elements of each length, by direct enumeration."""
        counts: List[int] = []
        for _, l in self.elements():
            while len(counts) <= l:
                counts.append(0)
            counts[l] += 1
        return counts


def restrict(inv: SatakeInvolution) -> RestrictedRootSystem:
    """Compute the restricted root system of a validated involution.

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


def omega_alpha(
    inv: SatakeInvolution, rrs: RestrictedRootSystem, basis_pos: int
) -> RestrictedCocharacter:
    """The basis cocharacter dual to the restricted simple root pi[basis_pos].

    Classified by the lift beta of the basis root: (i) theta(beta) = -beta,
    (ii) beta and -theta(beta) orthogonal, (iii) beta and -theta(beta) span
    an A2.  The returned cocharacter satisfies <pi[basis_pos], omega> = 2 and
    <pi[j], omega> equals the Cartan integer of the restricted basis.
    """
    rs = inv.ambient
    if not 0 <= basis_pos < rrs.r0:
        raise RestrictionError(f"basis position {basis_pos} out of range")
    b = rs.simple_indices[rrs.pi_lifts[basis_pos]]
    t = inv.theta_perm()[b]  # theta*(beta)
    if t == (b + rs.num_positive) % len(rs.roots):
        case = "i"
        coords = rs.coroots[b]
    else:
        cartan, _ = rs.kernel.cartan_rows(rs.kernel.vectors[[b]])
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


def case_iii_count(inv: SatakeInvolution, rrs: RestrictedRootSystem) -> int:
    """Number of basis roots of type (iii); at most one per simple factor."""
    count = 0
    per_factor = {f: 0 for f in rrs.factors}
    for j in range(rrs.r0):
        oc = omega_alpha(inv, rrs, j)
        if oc.case == "iii":
            count += 1
            for f in rrs.factors:
                if j in f.basis:
                    per_factor[f] += 1
    for f, c in per_factor.items():
        if c > 1:
            raise RestrictionError(f"factor {f.type_name} has {c} type-(iii) roots")
    return count
