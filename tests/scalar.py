"""Scalar pairings for the tests: the per-vector Python versions of the
pairing, coroot and theta* computations that the library now reads off its
arrays (``RootSystem.kernel``, ``RootSystem.coroots``, ``theta_perm``).

They compute each value from the Cartan matrix and the symmetrized form
alone, one vector at a time, so the tests that use them check the arrays
against a second route.  ``ref_roots`` is the frontier search that built
the root list before the array closure, ``ref_omega_alpha`` the scalar
classification of the basis cocharacters, ``ref_pi_coords`` the elimination
over Q for the pi-coordinates (by ``ref_rref``, a Gauss-Jordan over
``Fraction``s; the library eliminates over Q nowhere), ``ref_factors`` the
Dynkin-diagram walk that named the restricted factors,
``ref_minus_one_rank`` the split rank as n - rank(theta* + 1) over Q (by
``ref_rref`` too), and ``ref_structure_constants`` the recursion on root
tuples that built N_{a,b} before the array build by height; ``act``
applies a Weyl element to one root tuple.  The ``ref_*`` realization loops
build dtheta and search the coweights root by root.

The library keeps each root list as one int64 array; ``root_tuples``,
``root_index`` and ``is_root`` (by a dict over the tuples) and
``doubled_tuples``, ``doubled_index`` and ``multiplicities`` give the tests
the tuple face of those arrays.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from thetatool.liealg import LieAlgebraError
from thetatool.restricted import RestrictedCocharacter, RestrictionError, SimpleFactor
from thetatool.rootsys import RootSystem, RootSystemError, cartan_matrix

Root = Tuple[int, ...]


def tuples(rows: np.ndarray) -> Tuple[Root, ...]:
    """The rows of an int64 array as tuples of ints."""
    return tuple(map(tuple, rows.tolist()))


@lru_cache(maxsize=None)
def root_tuples(rs: RootSystem) -> Tuple[Root, ...]:
    """The root list of rs as tuples, in its order."""
    return tuples(rs.roots)


@lru_cache(maxsize=None)
def _root_dict(rs: RootSystem) -> Dict[Root, int]:
    return {v: i for i, v in enumerate(root_tuples(rs))}


def root_index(rs: RootSystem, v: Sequence[int]) -> int:
    """The position of the root v, by a dict over the root tuples."""
    try:
        return _root_dict(rs)[tuple(v)]
    except KeyError:
        raise RootSystemError(f"{tuple(v)} is not a root of {rs.series}{rs.rank}")


def is_root(rs: RootSystem, v: Sequence[int]) -> bool:
    return tuple(v) in _root_dict(rs)


def doubled_tuples(rrs) -> Tuple[Root, ...]:
    """The doubled restricted roots as tuples, in their order."""
    return tuples(rrs.doubled)


def doubled_index(rrs) -> Dict[Root, int]:
    """The position of each doubled restricted root, keyed by its tuple."""
    return {d: i for i, d in enumerate(doubled_tuples(rrs))}


def multiplicities(rrs) -> Dict[Root, int]:
    """The multiplicity of each doubled restricted root, keyed by its tuple."""
    return dict(zip(doubled_tuples(rrs), rrs.multiplicity.tolist()))


def inner(rs, v: Sequence[int], w: Sequence[int]) -> int:
    """(v, w) under the W-invariant symmetrized form."""
    return sum(x * f * y for x, row in zip(v, rs.form) if x for f, y in zip(row, w) if f)


def norm2(rs, v: Sequence[int]) -> int:
    return inner(rs, v, v)


def pair_coroot_simple(rs, v: Sequence[int], j: int) -> int:
    """<v, alpha_j^vee> for v in root-lattice coordinates."""
    return sum(v[i] * rs.cartan[i][j] for i in range(rs.rank))


def pair_coroot(rs, v: Sequence[int], beta: Sequence[int], beta_norm2: Optional[int] = None) -> int:
    """Cartan integer <v, beta^vee> = 2(v, beta)/(beta, beta); a caller
    pairing many v with one beta may pass (beta, beta) as beta_norm2."""
    if beta_norm2 is None:
        beta_norm2 = norm2(rs, beta)
    q, r = divmod(2 * inner(rs, v, beta), beta_norm2)
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
    return root_tuples(rs)[inv.theta_perm()[root_index(rs, root)]]


def ref_minus_one_rank(inv) -> int:
    """The dimension of the (-1)-eigenspace of theta*, n - rank(theta* + 1)
    by ``ref_rref``.  Unlike (n - tr theta*)/2 it needs no
    involution, so it is defined on every (I, psi) whose theta* permutes
    the roots."""
    n = inv.ambient.rank
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rows = [[x + y for x, y in zip(theta_star(inv, e), e)] for e in unit]
    return n - len(ref_rref(rows)[1])


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
    for d in tuples(rrs.pi):
        val = sum(x * y for x, y in zip(d, simple))
        if val % 2:
            raise RestrictionError("odd pairing of doubled root with omega_alpha")
        pairings.append(val // 2)
    return RestrictedCocharacter(tuple(coords), tuple(pairings), case)


def ref_rref(rows) -> Tuple[List[List[Fraction]], List[int]]:
    """The reduced row echelon form over Q and its pivot columns, by
    Gauss-Jordan over Fractions."""
    A = [[Fraction(x) for x in row] for row in rows]
    ncols = len(A[0]) if A else 0
    pivots: List[int] = []
    for c in range(ncols):
        r = len(pivots)
        sel = next((i for i in range(r, len(A)) if A[i][c] != 0), None)
        if sel is None:
            continue
        A[r], A[sel] = A[sel], A[r]
        inv = 1 / A[r][c]
        A[r] = [x * inv for x in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return A[: len(pivots)], pivots


def ref_pi_coords(rrs) -> List[List[int]]:
    """The pi-coordinates of each doubled root, read off the reduced row
    echelon form over Q of the columns [pi | doubled]: a root lies in the
    span of pi when its column vanishes below the first r rows."""
    n = rrs.r
    doubled = doubled_tuples(rrs)
    R, pivots = ref_rref([list(row) for row in zip(*tuples(rrs.pi), *doubled)])
    if pivots[:n] != list(range(n)):
        raise RestrictionError("restricted basis is linearly dependent")
    coords = []
    for m, d in enumerate(doubled):
        col = [row[n + m] for row in R]
        if any(col[n:]) or any(f.denominator != 1 for f in col):
            raise RestrictionError(f"{d} has non-integer pi-coordinates")
        coords.append([int(f) for f in col[:n]])
    return coords


def ref_factors(rrs) -> Tuple[SimpleFactor, ...]:
    """The simple factors of the reduced system, named by walking the
    Coxeter graph of the restricted Cartan matrix: its connected components,
    then bonds, branch nodes and arm lengths."""
    n = rrs.r
    C = rrs.cartan_matrix()
    seen: set = set()
    comps = []
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
    doubled, pi = set(doubled_tuples(rrs)), tuples(rrs.pi)
    factors = []
    for comp in comps:
        series = _component_series(rrs, comp, C)
        non_red = any(tuple(2 * x for x in pi[i]) in doubled for i in comp)
        factors.append(SimpleFactor(series, len(comp), tuple(comp), non_red))
    return tuple(sorted(factors, key=lambda f: (f.series, f.rank, f.basis)))


def _component_series(rrs, comp: List[int], C: List[List[int]]) -> str:
    k = len(comp)
    if k == 1:
        return "A"
    sub = [[C[i][j] for j in comp] for i in comp]
    bond = max(sub[i][j] * sub[j][i] for i in range(k) for j in range(k) if i != j)
    degrees = [sum(1 for j in range(k) if j != i and sub[i][j] != 0) for i in range(k)]
    if bond == 3:
        if k != 2:
            raise RestrictionError("G2 bond in a component of rank != 2")
        return "G"
    if bond == 2:
        if k == 2:
            return "B"  # B2 = C2, canonical name
        norms = [rrs._pi_norms[comp[i]] for i in range(k)]
        n_short = norms.count(min(norms))
        if k == 4 and n_short == 2:
            return "F"
        if n_short == 1:
            return "B"
        if n_short == k - 1:
            return "C"
        raise RestrictionError("unrecognized multiply-laced component")
    if max(degrees) <= 2:
        return "A"
    if max(degrees) != 3 or degrees.count(3) != 1:
        raise RestrictionError("unrecognized simply-laced component")
    # one branch node: D or E, told apart by arm lengths
    arms = sorted(_arm_lengths(sub, degrees.index(3)))
    if arms[0] == 1 and arms[1] == 1:
        return "D"
    if arms[0] == 1 and arms[1] == 2:
        return "E"
    raise RestrictionError(f"unrecognized branched diagram with arms {arms}")


def _arm_lengths(sub: List[List[int]], center: int) -> List[int]:
    k = len(sub)
    arms = []
    for nb in (j for j in range(k) if j != center and sub[center][j] != 0):
        length = 1
        prev, cur = center, nb
        while True:
            nxt = [j for j in range(k) if j not in (prev, cur) and sub[cur][j] != 0]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    return arms


def _neg(v: Root) -> Root:
    return tuple(-x for x in v)


def act(w, v: Sequence[int]) -> Root:
    """The Weyl element w applied to the root v."""
    return root_tuples(w.rs)[w.perm[root_index(w.rs, v)]]


def _chain_down(rs: RootSystem, beta: Root, alpha: Root) -> int:
    """q = max { i : beta - i*alpha in Phi }."""
    q = 0
    cur = tuple(b - a for b, a in zip(beta, alpha))
    while is_root(rs, cur):
        q += 1
        cur = tuple(c - a for c, a in zip(cur, alpha))
    return q


def _is_pos(rs: RootSystem, v: Root) -> bool:
    return root_index(rs, v) < rs.num_positive


def _N(rs: RootSystem, a: Root, b: Root, table: Dict[Tuple[Root, Root], int]) -> int:
    """Constant N_{a,b} for arbitrary sign patterns, reduced to the
    positive table via N_{-a,-b} = -N_{a,b} and the rotation rule
    N_{a,b}/(c,c) = N_{b,c}/(a,a) for a + b + c = 0."""
    s = tuple(x + y for x, y in zip(a, b))
    if not is_root(rs, s):
        raise LieAlgebraError("N requested for a non-root sum")
    a_pos = _is_pos(rs, a)
    b_pos = _is_pos(rs, b)
    if a_pos and b_pos:
        if (a, b) in table:
            return table[(a, b)]
        return -table[(b, a)]
    if not a_pos and not b_pos:
        return -_N(rs, _neg(a), _neg(b), table)
    if not a_pos:  # negative first: antisymmetry
        return -_N(rs, b, a, table)
    # a positive, b negative
    if not _is_pos(rs, s):
        # flip signs twice: N(a,b) = N(-b,-a) with -b positive, sum -s > 0
        return _N(rs, _neg(b), _neg(a), table)
    # positive sum: N(a,b) = N(b,c) (c,c)/(a,a) with c = -s, and
    # N(b,c) = -N(-b, s) is a positive pair summing to a
    nbc = -_N(rs, _neg(b), s, table)
    num = nbc * int(rs.kernel.norms[_root_dict(rs)[s]])
    den = int(rs.kernel.norms[_root_dict(rs)[a]])
    q, r = divmod(num, den)
    if r:
        raise LieAlgebraError("non-integral rotation in structure constants")
    return q


def _derive_constant(rs: RootSystem, alpha, beta, g_es, d_es, table) -> int:
    """Jacobi on (e_g, e_d, e_{-beta}) determines N_{alpha,beta} from the
    extraspecial pair (g, d) with g + d = alpha + beta."""
    gamma_hat = tuple(a + b for a, b in zip(alpha, beta))
    neg_beta = tuple(-x for x in beta)
    term = 0
    xi = tuple(d - b for d, b in zip(d_es, beta))
    if is_root(rs, xi):
        term += _N(rs, d_es, neg_beta, table) * _N(rs, xi, g_es, table)
    g_minus_b = tuple(g - b for g, b in zip(g_es, beta))
    if is_root(rs, g_minus_b):
        term += _N(rs, neg_beta, g_es, table) * _N(rs, g_minus_b, d_es, table)
    n_es = table[(g_es, d_es)]
    # N_{g,d} * N_{hat,-beta} + term = 0 and
    # N_{hat,-beta} = N_{alpha,beta} (alpha,alpha)/(hat,hat)
    num = -term * int(rs.kernel.norms[_root_dict(rs)[gamma_hat]])
    den = n_es * int(rs.kernel.norms[_root_dict(rs)[alpha]])
    q, r = divmod(num, den)
    if r:
        raise LieAlgebraError("non-integral derived structure constant")
    return q


def ref_structure_constants(rs: RootSystem) -> Dict[Tuple[int, int], int]:
    """N_{a,b} on root indices, for every (i, j) with roots[i] + roots[j] a
    root.  The positive-pair table goes by increasing height of the sum,
    extraspecial pairs seeded positive, the rest propagated through Jacobi."""
    roots = root_tuples(rs)
    pos = roots[: rs.num_positive]
    order = {v: i for i, v in enumerate(pos)}  # canonical root order
    table: Dict[Tuple[Root, Root], int] = {}
    for gamma in pos:
        if sum(gamma) < 2:
            continue
        pairs = []
        for alpha in pos:
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            if beta in order and order[alpha] < order[beta]:
                pairs.append((alpha, beta))
        pairs.sort(key=lambda ab: order[ab[0]])
        g_es, d_es = pairs[0]
        table[(g_es, d_es)] = _chain_down(rs, d_es, g_es) + 1
        for alpha, beta in pairs[1:]:
            table[(alpha, beta)] = _derive_constant(rs, alpha, beta, g_es, d_es, table)
    nconst = {}
    for i, a in enumerate(roots):
        for j, b in enumerate(roots):
            if is_root(rs, tuple(x + y for x, y in zip(a, b))):
                nconst[(i, j)] = _N(rs, a, b, table)
    return nconst


def ref_inner_dtheta(alg, mu: Sequence[int]) -> np.ndarray:
    """dtheta(e_a) = (-1)^{<a, mu>} e_a, identity on h, root by root."""
    rs = alg.rs
    d = np.zeros((alg.dim, alg.dim), dtype=np.int64)
    for i in range(rs.rank):
        d[i][i] = 1
    for ridx, beta in enumerate(root_tuples(rs)):
        sign = -1 if sum(c * m for c, m in zip(beta, mu)) % 2 else 1
        j = alg.e_index(ridx)
        d[j][j] = sign
    return d


def ref_chevalley_dtheta(alg) -> np.ndarray:
    """e_a -> -e_{-a}, h -> -h, root by root."""
    rs = alg.rs
    d = np.zeros((alg.dim, alg.dim), dtype=np.int64)
    for i in range(rs.rank):
        d[i][i] = -1
    npos = rs.num_positive
    for ridx in range(len(rs.roots)):
        neg = (ridx + npos) % len(rs.roots)
        d[alg.e_index(neg)][alg.e_index(ridx)] = -1
    return d


def ref_find_inner_coweight(alg, dim_k: int, dim_p: int) -> Optional[Tuple[int, ...]]:
    """The first mask, in increasing order, whose grading has the given
    dimensions, counted root by root."""
    rs = alg.rs
    for mask in range(1, 2**rs.rank):
        mu = tuple((mask >> i) & 1 for i in range(rs.rank))
        dp = sum(
            1
            for beta in root_tuples(rs)
            if sum(c * m for c, m in zip(beta, mu)) % 2
        )
        if dp == dim_p and alg.dim - dp == dim_k:
            return mu
    return None
