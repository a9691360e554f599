"""Scalar pairings for the tests: the per-vector Python versions of the
pairing, coroot and theta* computations that the library now reads off its
arrays (``RootSystem.kernel``, ``RootSystem.coroots``, ``theta_perm``).

They compute each value from the Cartan matrix and the symmetrized form
alone, one vector at a time, so the tests that use them check the arrays
against a second route.  ``ref_roots`` is the frontier search that built
the root list before the array closure, and ``ref_omega_alpha`` the scalar
classification of the basis cocharacters.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from thetatool.restricted import RestrictedCocharacter, RestrictionError
from thetatool.rootsys import RootSystemError, cartan_matrix


def inner(rs, v: Sequence[int], w: Sequence[int]) -> int:
    """(v, w) under the W-invariant symmetrized form."""
    return sum(x * f * y for x, row in zip(v, rs.form) if x for f, y in zip(row, w) if f)


def norm2(rs, v: Sequence[int]) -> int:
    return inner(rs, v, v)


def pair_coroot_simple(rs, v: Sequence[int], j: int) -> int:
    """<v, alpha_j^vee> for v in root-lattice coordinates."""
    return sum(v[i] * rs.cartan[i][j] for i in range(rs.rank))


def pair_coroot(rs, v: Sequence[int], beta: Sequence[int]) -> int:
    """Cartan integer <v, beta^vee> = 2(v, beta)/(beta, beta)."""
    q, r = divmod(2 * inner(rs, v, beta), norm2(rs, beta))
    if r:
        raise RootSystemError(f"non-integral Cartan pairing of {v} with {beta}")
    return q


def coroot_coords(rs, beta: Sequence[int]) -> Tuple[int, ...]:
    """beta^vee = sum_i b_i (alpha_i, alpha_i)/(beta, beta) alpha_i^vee, in
    the simple-coroot basis."""
    n2 = norm2(rs, beta)
    out = []
    for i in range(rs.rank):
        q, r = divmod(beta[i] * rs.form[i][i], n2)
        if r:
            raise RootSystemError(f"{beta} is not a root (coroot not integral)")
        out.append(q)
    return tuple(out)


def theta_star(inv, root: Sequence[int]) -> Tuple[int, ...]:
    """theta*(root) = -w_I(psi(root)); raises if root is not a root."""
    rs = inv.ambient
    return rs.roots[inv.theta_perm()[rs.root_index(tuple(root))]]


def ref_roots(series: str, rank: int) -> Tuple[Tuple[int, ...], ...]:
    """The root list by a frontier search from the simple roots under the
    simple reflections, positives sorted by (height, coordinates), then
    their negatives in the same order."""
    C = cartan_matrix(series, rank)
    simples = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for j in range(rank):
                c = sum(v[i] * C[i][j] for i in range(rank))
                w = tuple(v[k] - c * simples[j][k] for k in range(rank))
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    positives = sorted((v for v in seen if sum(v) > 0), key=lambda v: (sum(v), v))
    roots = tuple(positives) + tuple(tuple(-x for x in v) for v in positives)
    if set(roots) != seen:
        raise RootSystemError(f"roots of {series}{rank} not closed under -1")
    return roots


def ref_omega_alpha(inv, rrs, basis_pos: int) -> RestrictedCocharacter:
    """The basis cocharacter dual to pi[basis_pos], classified by the lift
    beta: (i) theta(beta) = -beta, (ii) beta and -theta(beta) orthogonal,
    (iii) they span an A2."""
    rs = inv.ambient
    beta = tuple(1 if k == rrs.pi_lifts[basis_pos] else 0 for k in range(rs.rank))
    tb = theta_star(inv, beta)
    minus_tb = tuple(-x for x in tb)
    beta_cov = coroot_coords(rs, beta)
    if minus_tb == beta:
        case, coords = "i", beta_cov
    else:
        diff = tuple(a - b for a, b in zip(beta_cov, coroot_coords(rs, tb)))
        if pair_coroot(rs, beta, minus_tb) == 0:
            case, coords = "ii", diff
        else:
            case, coords = "iii", tuple(2 * x for x in diff)
    simple = [sum(a * c for a, c in zip(row, coords)) for row in rs.cartan]
    pairings = []
    for d in rrs.pi:
        val = sum(x * y for x, y in zip(d, simple))
        if val % 2:
            raise RestrictionError("odd pairing of doubled root with omega_alpha")
        pairings.append(val // 2)
    return RestrictedCocharacter(tuple(coords), tuple(pairings), case)
