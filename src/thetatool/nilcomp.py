"""Regular-nilpotent combinatorics and the component count of the nilpotent
cone N in p.

Three computations live here:

* the even cocharacter omega (weight 2 on non-compact simple roots, 0 on
  the compact ones) and its weighted diagram;
* the finite groups Z cap A and (Z cap A)/(Z cap A)^2, via the fundamental
  group of the reduced restricted system and the count of type-(iii) basis
  roots (the covering B* -> G* has kernel of order 2^i);
* the number of irreducible components of N: |Z/Z^2| for split classes,
  |(Z cap A)/tau(Z)| for quasi-split ones, and a short connectedness table
  (Sommers' computations for the one-big-block partitions plus the two
  explicit matrix cases) for the rest.  Classes outside all three methods
  raise; nothing is guessed.

The module also carries the orthogonal-reflection decompositions of the
longest Weyl element for every simple type (plus the subregular E-series
variants), with the verifier for orthogonality, the product identity, and
the mod-4 sign condition that puts each root vector in p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .restricted import (
    RestrictedCocharacter,
    RestrictedRootSystem,
    case_iii_count,
    restrict,
)
from .rootsys import (
    FiniteAbelianGroup,
    NonFiniteQuotientError,
    RootSystem,
    RootSystemError,
    build_root_system,
    cokernel,
    fundamental_group,
)
from .satake import InvolutionClassEntry, SatakeInvolution


class ComponentCountError(ValueError):
    """The class is outside every method the component table covers."""


class OmegaError(ValueError):
    """The even-cocharacter system has no integral solution."""


def omega(rrs: RestrictedRootSystem) -> Tuple[RestrictedCocharacter, Tuple[int, ...]]:
    """The regular-nilpotent cocharacter: <a, omega> = 0 on I, 2 off I.

    Solves the integral system on the coroot lattice and asserts both
    descriptions: the diagram values on the simple roots and the pairing
    <pi, omega> = 2 with every restricted basis root.  Returns the
    cocharacter and its weighted diagram, the weights on the simple roots
    in Bourbaki order.
    """
    inv = rrs.inv
    rs = inv.ambient
    n = rs.rank
    diagram = tuple(0 if i in inv.compact else 2 for i in range(n))
    # <alpha_i, sum_j c_j alpha_j^vee> = sum_j c_j cartan[i][j], so c is
    # cartan^-1 @ diagram, read off the scaled inverse (L cartan^-1, L)
    scaled, L = rs.cartan_inverse
    sol = [sum(a * d for a, d in zip(row, diagram)) for row in scaled]
    if any(x % L for x in sol):
        raise OmegaError("no integral cocharacter with the even diagram")
    coords = tuple(x // L for x in sol)
    # omega must lie in the (-1)-eigenlattice: theta reverses it
    timg = _theta_on_coroots(inv, coords)
    if timg != tuple(-c for c in coords):
        raise OmegaError("omega is not reversed by theta")
    pairings = []
    for j, val in enumerate(rrs.pair_pi(coords)):
        if val != 4:  # doubled root, so <pi, omega> = val/2 must be 2
            raise OmegaError(f"<pi_{j}, omega> = {val}/2 != 2")
        pairings.append(2)
    return RestrictedCocharacter(coords, tuple(pairings)), diagram


def _theta_on_coroots(inv: SatakeInvolution, coords: Sequence[int]) -> Tuple[int, ...]:
    """Action of theta on a coroot-lattice vector (dual to theta*): it sends
    alpha_j^vee to theta*(alpha_j)^vee."""
    rs = inv.ambient
    images = rs.coroots[inv.theta_perm()[rs.simple_indices]]
    return tuple((np.asarray(coords) @ images).tolist())


# -- Z cap A and the component count -------------------------------------------


def z_cap_a(rrs: RestrictedRootSystem) -> Tuple[FiniteAbelianGroup, FiniteAbelianGroup]:
    """(Z cap A, (Z cap A)/(Z cap A)^2) for a simply-connected ambient group.

    |Z cap A| = |Z(B*)| / 2^i, where Z(B*) is the fundamental group of the
    reduced restricted system and i counts the type-(iii) basis roots.  For
    i = 0 the covering is an isomorphism onto Z cap A, so the group
    structure transfers; every i >= 1 case in the classification has
    |Z(B*)| = 2, leaving the trivial group, and anything else is refused.
    """
    zb = cokernel(rrs.cartan_matrix(), rrs.r)  # Z(B*)
    i = case_iii_count(rrs)
    if i == 0:
        grp = zb
    else:
        order, rem = divmod(zb.order, 2**i)
        if rem:
            raise ComponentCountError(
                f"|Z(B*)| = {zb.order} is not divisible by 2^{i}"
            )
        if order != 1:
            raise ComponentCountError(
                "ambiguous Z cap A structure: |Z(B*)|/2^i = "
                f"{order} with i = {i}"
            )
        grp = FiniteAbelianGroup(())
    return grp, grp.mod_squares()


def _tau_z_data(inv: SatakeInvolution) -> Tuple[int, int]:
    """(|Z|, |Z / tau(Z)|) where tau(z) = z^{-1} theta(z) on the center.

    theta acts on Z = (coweights)/(coroots) through its outer class; inner
    automorphisms act trivially.  |Z/tau(Z)| is the cokernel order of
    [Cartan | P_delta - 1], whose columns are the rows handed to ``cokernel``
    (it is not symmetric under transposition, so they stay columns of C).
    """
    rs = inv.ambient
    n = rs.rank
    z = fundamental_group(rs)
    delta = inv.out_class()
    cols = [[rs.cartan[i][j] for i in range(n)] for j in range(n)]
    for j in range(n):
        col = [0] * n
        col[delta[j]] += 1
        col[j] -= 1
        cols.append(col)
    try:
        return z.order, cokernel(cols, n).order
    except NonFiniteQuotientError:
        raise ComponentCountError("center quotient is not finite")


@dataclass(frozen=True)
class ComponentReport:
    """Number of irreducible components of N, with the derivation trail."""

    count: int
    method: str  # split-formula | quasi-split-formula | case-table
    z_mod_z2: FiniteAbelianGroup
    z_cap_a: FiniteAbelianGroup
    z_cap_a_mod_sq: FiniteAbelianGroup
    tau_z_order: int
    notes: Tuple[str, ...] = ()


# Whether the reductive centralizer C of a regular nilpotent element of p is
# connected modulo Z(G) (then tau(C) = tau(Z)); the non-connected cases
# collapse the orbit count completely.  Keys are class families.
def _sommers_connected(entry: InvolutionClassEntry) -> Optional[Tuple[bool, str]]:
    series, rank, label = entry.series, entry.rank, entry.label
    if series == "B" and label.startswith("BI("):
        m = int(label[3:-1])
        if m < rank:
            if m % 2 == 0:
                return True, (
                    f"one-big-block partition ({2 * m + 1}, 1^{2 * (rank - m)}): "
                    "reductive centralizer connected mod Z"
                )
            return False, (
                "odd so-part: reductive centralizer meets the non-identity "
                "component of the fixed-point group"
            )
    if series == "C" and label.startswith("CII("):
        m = int(label[4:-1])
        if 2 * m == rank:
            return False, (
                f"partition ({rank})^2: an explicit centralizer element maps "
                "to -1 in Z cap A"
            )
    if series == "D" and label.startswith("DI("):
        p = int(label[3:-1])
        if p <= rank - 2 and p % 2 == 0:
            return True, (
                f"one-big-block partition ({2 * p + 1}, 1^{2 * rank - 2 * p - 1}): "
                "reductive centralizer connected mod Z"
            )
    if series == "D" and label == "DIII" and rank % 2 == 0:
        return True, (
            f"partition ({rank})^2: reductive centralizer connected mod Z"
        )
    if series == "E" and rank == 7 and label == "EVII":
        return True, "E7(a2)-class regular element: centralizer connected mod Z"
    return None


def component_count(
    entry: InvolutionClassEntry, rrs: Optional[RestrictedRootSystem] = None
) -> ComponentReport:
    """Irreducible components of the nilpotent cone of p (simply-connected
    almost simple ambient group, good characteristic).

    Split classes use |Z/Z^2|; quasi-split ones |(Z cap A)/tau(Z)|; the
    remaining classes use the bound |(Z cap A)/tau(Z)| sharpened by the
    connectedness table.  A class outside all methods raises
    ComponentCountError rather than guessing.
    """
    inv = entry.satake
    if rrs is None:
        rrs = restrict(inv)
    z = fundamental_group(inv.ambient)
    z_mod_z2 = z.mod_squares()
    za, za_sq = z_cap_a(rrs)
    z_order, z_mod_tau = _tau_z_data(inv)
    tau_z_order, rem = divmod(z_order, z_mod_tau)
    if rem:
        raise ComponentCountError(
            f"|Z/tau(Z)| = {z_mod_tau} does not divide |Z| = {z_order}"
        )
    bound, rem = divmod(za.order, tau_z_order)
    if rem:
        raise ComponentCountError(
            f"|tau(Z)| = {tau_z_order} does not divide |Z cap A| = {za.order}"
        )
    notes: List[str] = []

    if inv.is_split:
        # two independent routes: the 2-torsion of Z, and Z cap A over tau(Z)
        count = z_mod_z2.order
        if bound != count:
            raise ComponentCountError(
                f"split cross-check failed: |Z/Z^2| = {count}, "
                f"|Z cap A|/|tau(Z)| = {za.order}/{tau_z_order}"
            )
        method = "split-formula"
        if entry.series == "A":
            notes.append(
                "sl-normalization: the gl-form pairs (gl(n), so(n)) carry the "
                "same count, 2 exactly when n is even"
            )
    elif inv.is_quasi_split:
        count = bound
        method = "quasi-split-formula"
    else:
        method = "case-table"
        if bound == 1:
            count = 1
            notes.append("forced: |Z cap A| / |tau(Z)| = 1")
        elif za_sq.order == 1:
            count = 1
            notes.append("forced: (Z cap A)/(Z cap A)^2 is trivial")
        else:
            fact = _sommers_connected(entry)
            if fact is None:
                raise ComponentCountError(
                    f"class {entry.series}{entry.rank} {entry.label} is outside "
                    "the connectedness table"
                )
            connected, why = fact
            notes.append(why)
            count = bound if connected else 1

    if za_sq.order % count != 0:
        raise ComponentCountError(
            f"count {count} does not divide |(Z cap A)/(Z cap A)^2| = {za_sq.order}"
        )
    return ComponentReport(
        count=count,
        method=method,
        z_mod_z2=z_mod_z2,
        z_cap_a=za,
        z_cap_a_mod_sq=za_sq,
        tau_z_order=tau_z_order,
        notes=tuple(notes),
    )


# -- longest-element decompositions ---------------------------------------------


@dataclass(frozen=True)
class OrthogonalDecomposition:
    """A product of reflections in pairwise orthogonal roots equal to a
    target Weyl element, with the grading diagram that puts every root
    vector in p.

    ``conjugator``: optional root; the product must equal the conjugate of
    the target by its reflection (the subregular rank-6 case).
    ``up_to_conjugacy``: the product need only be conjugate to the target
    (type A, where the decomposition is stated up to conjugacy; conjugacy
    is decided there only, and the check fails in any other type).
    """

    name: str
    series: str
    rank: int
    betas: Tuple[Tuple[int, ...], ...]
    lambda_diagram: Tuple[int, ...]  # weights on the simple roots
    target_simple_twists: Tuple[int, ...] = ()  # w0 * product of these s_i
    conjugator: Optional[Tuple[int, ...]] = None
    up_to_conjugacy: bool = False


@dataclass(frozen=True)
class DecompositionReport:
    name: str
    orthogonal: bool
    product_matches: bool
    mod4_in_p: bool
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.orthogonal and self.product_matches and self.mod4_in_p


def _root_indices(rs: RootSystem, vectors: Sequence[Sequence[int]]) -> np.ndarray:
    """The index of each vector in the root list, -1 for no root.  The
    lookup reads int64 rows of width rank, so a vector of another length or
    with a non-integral entry (int64 truncates 1.5 to 1) is sent to 0."""
    ok = [len(v) == rs.rank and all(c == int(c) for c in v) for v in vectors]
    rows = [v if k else (0,) * rs.rank for v, k in zip(vectors, ok)]
    return rs.kernel.lookup(np.array(rows, dtype=np.int64).reshape(-1, rs.rank))


def verify_w0_decomposition(dec: OrthogonalDecomposition) -> DecompositionReport:
    """Check orthogonality, the product identity, and the mod-4 condition.

    The product check compares against w0 (times the recorded simple
    twists); when a conjugator is present the identity is
    s_a . product . s_a = target, and in the up-to-conjugacy mode the two
    must share their class, which is decided in type A only (by traces) and
    counts as a failure in every other type.
    """
    rs = build_root_system(dec.series, dec.rank)
    idx = _root_indices(rs, dec.betas)
    failures = [f"beta_{i + 1} = {dec.betas[i]} is not a root" for i in np.flatnonzero(idx < 0)]
    orthogonal = not failures
    if orthogonal:
        cartan, _ = rs.kernel.cartan_rows(rs.roots[idx])
        for i in range(len(idx)):
            for j in range(i + 1, len(idx)):
                if cartan[i, idx[j]] != 0:
                    orthogonal = False
                    failures.append(
                        f"beta_{i + 1} and beta_{j + 1} are not orthogonal"
                    )

    product_matches = False
    reason = "product of reflections does not match the target"
    if orthogonal:
        # Weyl elements are root permutations; the product x y is x[y]
        prod = np.arange(len(rs.roots))
        for s in rs.reflections(idx):
            prod = prod[s]
        target = rs.longest_element()
        for i in dec.target_simple_twists:
            target = target[rs.simple_reflections[i]]
        if dec.conjugator is not None:
            c = _root_indices(rs, [dec.conjugator])[0]
            if c < 0:
                raise RootSystemError(
                    f"{tuple(dec.conjugator)} is not a root of {rs.series}{rs.rank}"
                )
            s = rs.reflections([c])[0]
            product_matches = np.array_equal(s[prod[s]], target)
        elif dec.up_to_conjugacy and rs.series != "A":
            reason = "conjugacy is decided only in type A"
        elif dec.up_to_conjugacy:
            product_matches = _conjugate_in_type_a(rs, prod, target)
        else:
            product_matches = np.array_equal(prod, target)
        if not product_matches:
            failures.append(reason)

    mod4_in_p = True
    for i, b in enumerate(dec.betas):
        val = sum(c * w for c, w in zip(b, dec.lambda_diagram))
        if val % 4 != 2:
            mod4_in_p = False
            failures.append(
                f"<beta_{i + 1}, lambda> = {val} is not 2 mod 4 "
                "(root vector not in p)"
            )

    return DecompositionReport(
        name=dec.name,
        orthogonal=orthogonal,
        product_matches=product_matches,
        mod4_in_p=mod4_in_p,
        failures=tuple(failures),
    )


def _conjugate_in_type_a(rs: RootSystem, x: np.ndarray, y: np.ndarray) -> bool:
    """Whether x and y are conjugate in W(A_n) = S_{n+1}.

    Conjugacy there is cycle type, which the characteristic polynomial of w
    on the root lattice fixes, and over Q that polynomial is fixed by the
    traces of w^k for k = 1..n.  Row i of each matrix is w(alpha_i) in
    simple-root coordinates; every power is again a Weyl element, so the
    int64 products are exact.
    """
    mx, my = (rs.roots[w[rs.simple_indices]] for w in (x, y))
    return all(
        np.trace(np.linalg.matrix_power(mx, k)) == np.trace(np.linalg.matrix_power(my, k))
        for k in range(1, rs.rank + 1)
    )


def _simple(rank: int, i: int) -> Tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(rank))


def builtin_decompositions() -> List[OrthogonalDecomposition]:
    """The per-type orthogonal decompositions of w0 (and the subregular
    variants in the E series), each with its grading diagram."""
    out: List[OrthogonalDecomposition] = []

    def all_two(n: int, zeros: Sequence[int] = ()) -> Tuple[int, ...]:
        return tuple(0 if i in zeros else 2 for i in range(n))

    # type A, both parities: alternating simple reflections, up to conjugacy
    n = 5
    out.append(
        OrthogonalDecomposition(
            name="A5-regular", series="A", rank=n,
            betas=tuple(_simple(n, i) for i in range(0, n, 2)),
            lambda_diagram=all_two(n), up_to_conjugacy=True,
        )
    )
    n = 4
    out.append(
        OrthogonalDecomposition(
            name="A4-regular", series="A", rank=n,
            betas=tuple(_simple(n, i) for i in range(0, n - 1, 2)),
            lambda_diagram=all_two(n), up_to_conjugacy=True,
        )
    )

    # type B: beta_i = alpha_i + 2 alpha_{i+1} + ... + 2 alpha_n (i odd),
    #         alpha_{i-1} (i even)
    n = 4
    betas = []
    for i in range(1, n + 1):
        if i % 2 == 1:
            v = [0] * n
            v[i - 1] = 1
            for j in range(i, n):
                v[j] = 2
            betas.append(tuple(v))
        else:
            betas.append(_simple(n, i - 2))
    out.append(
        OrthogonalDecomposition(
            name="B4-regular", series="B", rank=n, betas=tuple(betas),
            lambda_diagram=all_two(n),
        )
    )

    # type C: beta_i = 2 alpha_i + ... + 2 alpha_{n-1} + alpha_n, beta_n = alpha_n
    n = 4
    betas = []
    for i in range(1, n):
        v = [0] * n
        for j in range(i - 1, n - 1):
            v[j] = 2
        v[n - 1] = 1
        betas.append(tuple(v))
    betas.append(_simple(n, n - 1))
    out.append(
        OrthogonalDecomposition(
            name="C4-regular", series="C", rank=n, betas=tuple(betas),
            lambda_diagram=all_two(n),
        )
    )

    # F4
    out.append(
        OrthogonalDecomposition(
            name="F4-regular", series="F", rank=4,
            betas=((2, 3, 4, 2), (0, 1, 2, 2), (0, 1, 2, 0), (0, 1, 0, 0)),
            lambda_diagram=all_two(4),
        )
    )

    # G2
    out.append(
        OrthogonalDecomposition(
            name="G2-regular", series="G", rank=2,
            betas=((3, 2), (1, 0)),
            lambda_diagram=all_two(2),
        )
    )

    # E6 regular and subregular (the latter conjugated by s_a, a = hat - a2)
    e6_betas = (
        (1, 2, 2, 3, 2, 1),
        (1, 0, 1, 1, 1, 1),
        (0, 0, 1, 1, 1, 0),
        (0, 0, 0, 1, 0, 0),
    )
    out.append(
        OrthogonalDecomposition(
            name="E6-regular", series="E", rank=6, betas=e6_betas,
            lambda_diagram=all_two(6),
        )
    )
    # conjugated subregular betas: s_a(beta_i) for the first three
    hat_minus_a2 = (1, 1, 2, 3, 2, 1)
    out.append(
        OrthogonalDecomposition(
            name="E6-subregular", series="E", rank=6,
            betas=(
                (0, 1, 0, 0, 0, 0),
                (0, -1, -1, -2, -1, 0),
                (-1, -1, -1, -2, -1, -1),
            ),
            lambda_diagram=all_two(6, zeros=(3,)),
            target_simple_twists=(3,),
            conjugator=hat_minus_a2,
        )
    )

    # E7 regular / subregular / sub-subregular share one beta list
    e7_betas = (
        (2, 2, 3, 4, 3, 2, 1),
        (0, 1, 1, 2, 2, 2, 1),
        (0, 0, 0, 0, 0, 0, 1),
        (0, 1, 1, 2, 1, 0, 0),
        (0, 1, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0),
    )
    for name, zeros in (
        ("E7-regular", ()),
        ("E7-subregular", (3,)),
        ("E7-subsubregular", (3, 5)),
    ):
        out.append(
            OrthogonalDecomposition(
                name=name, series="E", rank=7, betas=e7_betas,
                lambda_diagram=all_two(7, zeros=zeros),
            )
        )

    # E8: the highest root plus the embedded E7 list
    e8_hat = (2, 3, 4, 6, 5, 4, 3, 2)
    e8_betas = (e8_hat,) + tuple(b + (0,) for b in e7_betas)
    for name, zeros in (
        ("E8-regular", ()),
        ("E8-subregular", (3,)),
        ("E8-subsubregular", (3, 5)),
    ):
        out.append(
            OrthogonalDecomposition(
                name=name, series="E", rank=8, betas=e8_betas,
                lambda_diagram=all_two(8, zeros=zeros),
            )
        )
    return out
