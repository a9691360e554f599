"""Involutions of simple groups encoded by Satake data.

An involution class is stored as (ambient root system, compact set I of
simple-root indices, diagram automorphism psi); the induced map on roots is
theta(a) = -w_I(psi(a)), where w_I is the longest element of the parabolic
generated by I.  The module also carries the embedded catalog of involution
classes for the simple types and computes the k/p eigenspace dimensions of
the symmetric decomposition from the Satake data alone.

A datum must be admissible before anything is computed from it: ``validate``
runs Araki's conditions, and ``admit`` turns its first failure into a
``SatakeError``.  ``minus_one_rank`` (hence ``kp_dimensions``) and
``restricted.restrict`` call ``admit`` first, so every later layer sees an
involution theta*, and the split rank is read off its trace.

The catalog is generated: ``class_records`` lists the classes of each type
from the families of the classification, each as one
``InvolutionClassEntry``.  Its ``components`` column is the summary table
of non-irreducible classes, which ``verify proposition`` compares against
the computed count; the computation never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .rootsys import RootSystem, RootSystemError, _is_integer, _read_only, build_root_system


class SatakeError(ValueError):
    """Invalid Satake data or unknown catalog entry."""


class UnknownClassError(SatakeError):
    def __init__(self, series: str, rank: int, label: str, available: Sequence[str]):
        self.available = tuple(available)
        if self.available:
            choices = f"available: {', '.join(available)}"
        else:  # D3, whose classes are listed once, under A3
            choices = (
                f"{series}{rank} has no classes of its own: it is catalogued as "
                f"{_canonical_type(series, rank)}"
            )
        super().__init__(f"no involution class '{label}' for {series}{rank}; {choices}")


class SatakeInvolution:
    """Satake datum (I, psi) on an ambient root system.

    ``compact`` is a frozenset of 0-based simple indices; ``psi`` a tuple
    permutation of 0..rank-1.  The ambient group is simple, so it has no
    central torus.
    """

    def __init__(
        self,
        ambient: RootSystem,
        compact: Sequence[int] = (),
        psi: Optional[Sequence[int]] = None,
    ):
        self.ambient = ambient
        compact = tuple(compact)
        psi = tuple(psi) if psi is not None else tuple(range(ambient.rank))
        for i in compact + psi:
            if not _is_integer(i):
                raise SatakeError(f"Satake index {i!r} is not an integer")
        self.compact: FrozenSet[int] = frozenset(compact)
        self.psi: Tuple[int, ...] = psi
        self._admitted = False
        if sorted(self.psi) != list(range(ambient.rank)):
            raise SatakeError("psi is not a permutation of the simple indices")
        for i in self.compact:
            if not 0 <= i < ambient.rank:
                raise SatakeError(f"compact index {i} out of range")

    # -- basic derived data --------------------------------------------------

    @property
    def is_quasi_split(self) -> bool:
        return not self.compact

    @property
    def is_split(self) -> bool:
        return not self.compact and self.psi == tuple(range(self.ambient.rank))

    @cached_property
    def _w_I(self) -> np.ndarray:
        """Longest element of the parabolic subgroup W_I."""
        return self.ambient.longest_element(self.compact)

    def theta_perm(self) -> np.ndarray:
        """theta as a read-only int64 permutation of the ambient root list,
        computed once."""
        return self._theta_perm

    @cached_property
    def _theta_perm(self) -> np.ndarray:
        """psi permutes the columns of the root array and one Gram-kernel
        lookup finds the images; then w_I, then the negation."""
        rs = self.ambient
        psi = rs.kernel.lookup(rs.roots[:, np.argsort(self.psi)])
        if (psi < 0).any():
            raise RootSystemError(f"psi does not map the roots of {rs.series}{rs.rank} to roots")
        return _read_only(rs.negation[self._w_I[psi]])

    @cached_property
    def compact_roots(self) -> np.ndarray:
        """Read-only boolean mask of Phi_I, the roots supported on I."""
        white = [j for j in range(self.ambient.rank) if j not in self.compact]
        return _read_only(~self.ambient.roots[:, white].any(axis=1))

    def minus_one_rank(self) -> int:
        """Dimension of the (-1)-eigenspace of theta* on the character
        lattice, for an admissible datum."""
        self.admit()
        return self._minus_one_rank

    @cached_property
    def _minus_one_rank(self) -> int:
        """theta* is an involution, with eigenvalues +-1, so its trace is
        n - 2a; row j of the matrix is theta*(alpha_j)."""
        rs = self.ambient
        rows = rs.roots[self.theta_perm()[rs.simple_indices]]
        return (rs.rank - int(np.trace(rows))) // 2

    def out_class(self) -> Tuple[int, ...]:
        """Image of theta in the outer automorphism group, as a diagram
        permutation: the composite of psi with the -w_0 symmetry."""
        rs = self.ambient
        w0, simple = rs.longest_element(), rs.simple_indices
        # the simple roots are the first rank rows, so argsort inverts simple
        sigma0 = np.argsort(simple)[rs.negation[w0[simple]]]
        return tuple(sigma0[list(self.psi)].tolist())

    # -- validation -----------------------------------------------------------

    def validate(self) -> "ValidationReport":
        """Check the Satake axioms; failures are data, not exceptions."""
        rs = self.ambient
        failures: List[str] = []
        if any(rs.cartan[self.psi[i]][self.psi[j]] != rs.cartan[i][j]
               for i in range(rs.rank) for j in range(rs.rank)):
            failures.append("psi does not preserve the Cartan matrix")
        if {self.psi[i] for i in self.compact} != set(self.compact):
            failures.append("psi does not stabilize I")
        try:
            perm = self.theta_perm()
        except RootSystemError:
            failures.append("psi does not map the root set to itself")
            return ValidationReport(tuple(failures))
        ident = np.arange(len(perm))
        if (perm[perm] != ident).any():
            failures.append("theta* is not an involution")
        fixed, compact = perm == ident, self.compact_roots
        if (compact & ~fixed).any():
            failures.append("theta* does not fix Phi_I pointwise")
        if (fixed & ~compact).any():
            failures.append("theta* fixes roots outside Phi_I")
        # the two expressions -w_I psi and -psi w_I must agree, with psi
        # read back from theta* = -w_I psi
        wI = self._w_I
        psi = np.argsort(wI)[rs.negation[perm]]
        if (wI[psi] != psi[wI]).any():
            failures.append("-w_I(psi(a)) != -psi(w_I(a))")
        # Araki: <alpha_j, rho_I^vee> is an integer for each white node j
        # fixed by psi, i.e. alpha_j pairs with the positive coroots of
        # Phi_I to an even sum
        cartan = rs.simple_cartan_rows
        sums = cartan[:, : rs.num_positive][:, compact[: rs.num_positive]].sum(axis=1)
        for j in range(rs.rank):
            if j not in self.compact and self.psi[j] == j and sums[j] % 2:
                failures.append(f"<alpha_{j + 1}, rho_I^vee> is not an integer")
        return ValidationReport(tuple(failures))

    def admit(self) -> None:
        """Raise SatakeError, naming the datum and the first failure of
        ``validate``, unless the datum is admissible.  A datum that passes
        is validated once."""
        if not self._admitted:
            failures = self.validate().failures
            if failures:
                raise SatakeError(f"{self!r} is not admissible: {failures[0]}")
            self._admitted = True

    # -- dimension data --------------------------------------------------------

    def kp_dimensions(self) -> "KPDimensions":
        """Dimensions (g, k, p, a, m) of the symmetric decomposition.

        dim p = dim a + (|Phi| - |Phi_I|)/2 and dim m = (n - dim a) + |Phi_I|
        counts the centralizer of a inside k.  Both identities hold for
        every (I, psi) by arithmetic:
          - Phi and Phi_I are both closed under negation, so |Phi| - |Phi_I|
            is even;
          - dim m - dim a = n - 2a + |Phi_I| = dim k - dim p.
        Raises SatakeError for a datum that is not admissible.
        """
        rs = self.ambient
        dim_a = self.minus_one_rank()
        n_compact = int(self.compact_roots.sum())
        dim_g = rs.rank + len(rs.roots)
        dim_p = dim_a + (len(rs.roots) - n_compact) // 2
        dim_k = dim_g - dim_p
        dim_m = (rs.rank - dim_a) + n_compact
        return KPDimensions(dim_g, dim_k, dim_p, dim_a, dim_m)

    def __repr__(self) -> str:
        rs = self.ambient
        return (
            f"SatakeInvolution({rs.series}{rs.rank}, "
            f"I={{{','.join(str(i + 1) for i in sorted(self.compact))}}}, "
            f"psi={_psi_to_cycles(self.psi)})"
        )


class KPDimensions(NamedTuple):
    g: int
    k: int
    p: int
    a: int
    m: int


@dataclass(frozen=True)
class ValidationReport:
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


# -- catalog ------------------------------------------------------------------


@dataclass(frozen=True)
class InvolutionClassEntry:
    """One involution class of a simple, simply-connected group."""

    series: str
    rank: int
    label: str
    fixed_algebra_name: str
    phi_a_type: str  # expected restricted type, e.g. "BC2"
    components: int  # expected number of irreducible components of N
    satake: SatakeInvolution = field(compare=False, repr=False)

    @property
    def is_quasi_split(self) -> bool:
        return self.satake.is_quasi_split

    @property
    def is_split(self) -> bool:
        return self.satake.is_split


def _psi_to_cycles(psi: Sequence[int]) -> str:
    seen = set()
    cycles = []
    for i in range(len(psi)):
        if i in seen or psi[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        seen.add(i)
        j = psi[i]
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = psi[j]
        cycles.append("(" + ",".join(str(k + 1) for k in cyc) + ")")
    return "".join(cycles) if cycles else "-"


def _flip(n: int) -> Tuple[int, ...]:
    return tuple(n - 1 - i for i in range(n))


def _fork(n: int) -> Tuple[int, ...]:
    psi = list(range(n))
    psi[n - 2], psi[n - 1] = psi[n - 1], psi[n - 2]
    return tuple(psi)


def _canonical_type(series: str, rank: int) -> str:
    if rank == 1:
        return "A1"
    if series in ("B", "C") and rank == 2:
        return "B2"
    if series == "D" and rank == 3:
        return "A3"
    return f"{series}{rank}"


def class_records(series: str, rank: int) -> List[InvolutionClassEntry]:
    """The involution classes of a simple type, in the order of the families.

    Labels follow the customary classification names (AI, AII, AIII(p,q),
    BI(m), CI, CII(m), DI(p), DIII, EI..EIX, FI, FII, G).  Satake indices
    are 0-based.  Raises RootSystemError for an invalid type.
    """
    n = rank
    ambient = build_root_system(series, rank)
    recs: List[InvolutionClassEntry] = []

    def rec(label, compact, psi, k_name, phi_a, components):
        inv = SatakeInvolution(ambient, compact, psi)
        recs.append(InvolutionClassEntry(series, rank, label, k_name, phi_a, components, inv))

    ident = tuple(range(n))
    if series == "A":
        rec("AI", (), ident, f"so({n + 1})", _canonical_type("A", n),
            2 if (n + 1) % 2 == 0 else 1)
        if n % 2 == 1 and n >= 3:
            m = (n + 1) // 2
            rec("AII", set(range(0, n, 2)), ident, f"sp({n + 1})",
                _canonical_type("A", m - 1), 1)
        for p in range(1, (n + 1) // 2 + 1):
            q = n + 1 - p
            if p > q or (p, q) == (1, 1):
                continue
            compact = set(range(p, n - p))
            phi_a = f"BC{p}" if p < q else _canonical_type("C", p)
            rec(f"AIII({p},{q})", compact, _flip(n),
                f"s(gl({p})+gl({q}))", phi_a, 2 if p == q else 1)
    elif series == "B":
        for m in range(1, n + 1):
            comps = 2 if (m == n or m % 2 == 0) else 1
            rec(f"BI({m})", set(range(m, n)), ident,
                f"so({m})+so({2 * n + 1 - m})", _canonical_type("B", m), comps)
    elif series == "C":
        rec("CI", (), ident, f"gl({n})", _canonical_type("C", n), 2)
        for m in range(1, n // 2 + 1):
            compact = set(range(n)) - set(range(1, 2 * m, 2))
            phi_a = f"BC{m}" if 2 * m < n else _canonical_type("C", m)
            rec(f"CII({m})", compact, ident,
                f"sp({2 * m})+sp({2 * n - 2 * m})", phi_a, 1)
    elif series == "D" and n >= 4:  # D3 = A3 is listed once, as A3
        for p in range(1, n + 1):
            if p <= n - 2:
                compact = set(range(p, n))
                psi = ident if (n - p) % 2 == 0 else _fork(n)
            elif p == n - 1:
                compact = set()
                psi = _fork(n)
            else:
                compact = set()
                psi = ident
            if p == n:
                phi_a = _canonical_type("D", n)
                comps = 4 if n % 2 == 0 else 2
            else:
                phi_a = _canonical_type("B", p)
                comps = 2 if p % 2 == 0 else 1
            rec(f"DI({p})", compact, psi, f"so({p})+so({2 * n - p})", phi_a, comps)
        if n % 2 == 0:
            compact = set(range(0, n - 1, 2))
            rec("DIII", compact, ident, f"gl({n})",
                _canonical_type("C", n // 2), 2)
        else:
            compact = set(range(0, n - 2, 2))
            rec("DIII", compact, _fork(n), f"gl({n})", f"BC{(n - 1) // 2}", 1)
    elif series == "E" and n == 6:
        rec("EI", (), ident, "sp(8)", "E6", 1)
        rec("EII", (), (5, 1, 4, 3, 2, 0), "sl(6)+sl(2)", "F4", 1)
        rec("EIII", {2, 3, 4}, (5, 1, 4, 3, 2, 0), "so(10)+R", "BC2", 1)
        rec("EIV", {1, 2, 3, 4}, ident, "f4", "A2", 1)
    elif series == "E" and n == 7:
        rec("EV", (), ident, "sl(8)", "E7", 2)
        rec("EVI", {1, 4, 6}, ident, "so(12)+sl(2)", "F4", 1)
        rec("EVII", {1, 2, 3, 4}, ident, "e6+R", "C3", 2)
    elif series == "E" and n == 8:
        rec("EVIII", (), ident, "so(16)", "E8", 1)
        rec("EIX", {1, 2, 3, 4}, ident, "e7+sl(2)", "F4", 1)
    elif series == "F":
        rec("FI", (), ident, "sp(6)+sl(2)", "F4", 1)
        rec("FII", {0, 1, 2}, ident, "so(9)", "BC1", 1)
    elif series == "G":
        rec("G", (), ident, "sl(2)+sl(2)", "G2", 1)
    return recs


MAX_CATALOG_RANK = 8


def _catalog_types() -> List[Tuple[str, int]]:
    out = [("A", r) for r in range(1, MAX_CATALOG_RANK + 1)]
    out += [("B", r) for r in range(2, MAX_CATALOG_RANK + 1)]
    out += [("C", r) for r in range(2, MAX_CATALOG_RANK + 1)]
    out += [("D", r) for r in range(4, MAX_CATALOG_RANK + 1)]
    out += [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
    return out


@lru_cache(maxsize=None, typed=True)
def _catalog_list_cached(series: str, rank: int) -> Tuple[InvolutionClassEntry, ...]:
    return tuple(sorted(class_records(series, rank), key=lambda e: e.label))


def catalog_list(series: str, rank: int) -> List[InvolutionClassEntry]:
    """All involution classes for a simple type, sorted by label."""
    return list(_catalog_list_cached(series, rank))


def catalog_lookup(series: str, rank: int, label: str) -> InvolutionClassEntry:
    """Look up an involution class; raises UnknownClassError with choices."""
    entries = catalog_list(series, rank)
    for e in entries:
        if e.label == label:
            return e
    raise UnknownClassError(series, rank, label, [e.label for e in entries])


def all_catalog_entries(max_rank: int = MAX_CATALOG_RANK) -> List[InvolutionClassEntry]:
    out = []
    for series, rank in _catalog_types():
        if rank <= max_rank:
            out.extend(catalog_list(series, rank))
    return out
