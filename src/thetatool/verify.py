"""Verification suites over the catalog and the built-in fixtures.

Each suite returns a SuiteResult with one Check per assertion, so the CLI
can print machine-readable pass/fail lists and the test suite can assert
on the same objects.  The `proposition` suite compares the computed
component counts against the catalog's ``components`` column, the summary
table of non-irreducible classes (the computation itself never consults
that column; it goes through the split / quasi-split / connectedness
methods).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Optional, Tuple

from . import liealg, nilcomp, restricted, weylinv
from .rootsys import DEFAULT_CAP, CapExceededError, build_root_system, fundamental_group
from .satake import InvolutionClassEntry, _catalog_types, all_catalog_entries, catalog_list

SUITE_NAMES = ("poincare", "w0", "centdim", "grading", "proposition")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: List[Check] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> List[Check]:
        return [c for c in self.checks if not c.ok]

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, ok, detail))


def _entry_key(e: InvolutionClassEntry) -> str:
    return f"{e.series}{e.rank} {e.label}"


# -- proposition table ----------------------------------------------------------


def expected_component_count(entry: InvolutionClassEntry) -> int:
    """The class's row of the summary table of non-irreducible classes."""
    return entry.components


def run_proposition() -> SuiteResult:
    """Component counts over the whole catalog against the summary table.
    (``component_count`` itself refuses a count that does not divide
    |(Z cap A)/(Z cap A)^2|, which is reported here as "no method".)"""
    res = SuiteResult("proposition")
    for e in all_catalog_entries():
        rrs = restricted.restrict(e.satake)
        try:
            rep = nilcomp.component_count(e, rrs)
        except nilcomp.ComponentCountError as exc:
            res.add(_entry_key(e), False, f"no method: {exc}")
            continue
        want = expected_component_count(e)
        detail = f"computed {rep.count} ({rep.method}), table {want}"
        res.add(_entry_key(e), rep.count == want, detail)
    return res


# -- poincare / demazure -----------------------------------------------------------


def run_poincare(order_cap: int = DEFAULT_CAP) -> SuiteResult:
    """Demazure identity for every catalog entry under the cap, plus the
    independent re-derivation of the degrees from the length polynomial."""
    res = SuiteResult("poincare")
    for e in all_catalog_entries():
        rrs = restricted.restrict(e.satake)
        degrees = weylinv.invariant_degrees(rrs)
        try:
            poly = weylinv.poincare_polynomial(rrs, order_cap)
        except CapExceededError as exc:
            res.skipped.append(f"{_entry_key(e)}: W_A too large ({exc.predicted_order})")
            continue
        product = weylinv.q_product(degrees)
        equal = poly == product
        res.add(
            f"demazure {_entry_key(e)}",
            equal,
            "" if equal else f"length polynomial {poly}, degree product {product}",
        )
        rederived = weylinv.degrees_from_poincare(poly, rrs.r)
        res.add(
            f"degrees {_entry_key(e)}",
            rederived == degrees,
            f"factored {rederived}, table {degrees}",
        )
        # degree of the polynomial = number of positive reduced roots
        n_pos_reduced = len(rrs.reduced_indices)
        res.add(
            f"top-length {_entry_key(e)}",
            len(poly) - 1 == n_pos_reduced,
            f"deg {len(poly) - 1}, positive reduced roots {n_pos_reduced}",
        )
    return res


# -- w0 decompositions ----------------------------------------------------------------


def run_w0() -> SuiteResult:
    res = SuiteResult("w0")
    for dec in nilcomp.builtin_decompositions():
        rep = nilcomp.verify_w0_decomposition(dec)
        res.add(dec.name, rep.ok, "; ".join(rep.failures))
    return res


# -- Lie-algebra suites -------------------------------------------------------------


REALIZATION_PRIMES = (5, 7, 11)
REALIZATION_MAX_RANK = 4
CENTDIM_SAMPLES = 100


def _realizable_types() -> List[Tuple[str, int]]:
    return [t for t in _catalog_types() if t[1] <= REALIZATION_MAX_RANK]


def _usable_primes(series: str, rank: int) -> List[int]:
    """Good odd primes coprime to the fundamental group order.

    When p divides the fundamental group order (type A with p | n+1 for odd
    good p), the derived Chevalley form has a nonzero center and carries no
    nondegenerate invariant trace form, so the centralizer-dimension
    identity provably fails on special elements; those pairs are outside
    the standing hypotheses and are excluded here.
    """
    z = fundamental_group(build_root_system(series, rank)).order
    return [p for p in REALIZATION_PRIMES if z % p != 0]


@lru_cache(maxsize=None)
def realized_pairs() -> Tuple[
    Tuple[str, Optional[InvolutionClassEntry], liealg.SymmetricPairRealization], ...
]:
    """All realized symmetric pairs: the Chevalley involution for every type
    of rank <= REALIZATION_MAX_RANK and an inner realization for every inner
    catalog class of those types, each over the usable REALIZATION_PRIMES.
    Inner classes are matched by eigenspace dimensions."""
    pairs = []
    for series, rank in _realizable_types():
        usable = _usable_primes(series, rank)
        for p in usable:
            alg = liealg.build_algebra(series, rank, p)
            pairs.append((f"{series}{rank}/chevalley/p={p}", None,
                          liealg.realize_chevalley_involution(alg)))
        for entry in catalog_list(series, rank):
            ident = tuple(range(rank))
            if entry.satake.out_class() != ident:
                continue  # outer class: no inner realization
            dims = entry.satake.kp_dimensions()
            for p in usable:
                alg = liealg.build_algebra(series, rank, p)
                mu = liealg.find_inner_coweight(alg, dims.k, dims.p)
                if mu is None:
                    raise liealg.LieAlgebraError(
                        f"no inner coweight matches {entry.label} on {series}{rank}"
                    )
                pairs.append(
                    (f"{series}{rank}/{entry.label}/p={p}", entry,
                     liealg.realize_inner(alg, mu))
                )
    return tuple(pairs)


def run_centdim(seed: int = 42) -> SuiteResult:
    """The centralizer-dimension identity dim z_k(x) - dim z_p(x) =
    dim k - dim p on CENTDIM_SAMPLES fixed-seed random elements of p."""
    res = SuiteResult("centdim")
    for name, entry, pair in realized_pairs():
        rng = random.Random(f"{seed}/{name}")
        expected = pair.dim_k - pair.dim_p
        bad = None
        for i in range(CENTDIM_SAMPLES):
            x = pair.random_p_element(rng)
            zk, zp = pair.centralizer_dims(x)
            if zk - zp != expected:
                bad = (i, zk, zp)
                break
        res.add(
            f"centdim {name}",
            bad is None,
            "" if bad is None else f"sample {bad[0]}: z_k={bad[1]}, z_p={bad[2]}",
        )
        if entry is not None:
            dims = entry.satake.kp_dimensions()
            res.add(
                f"dims {name}",
                (pair.dim_k, pair.dim_p) == (dims.k, dims.p),
                f"realized ({pair.dim_k},{pair.dim_p}), class ({dims.k},{dims.p})",
            )
    return res


def run_grading() -> SuiteResult:
    """[k,k] in k, [k,p] in p, [p,p] in k, exhaustively on basis pairs."""
    res = SuiteResult("grading")
    for name, _, pair in realized_pairs():
        try:
            pair.check_grading()
            res.add(f"grading {name}", True)
        except liealg.LieAlgebraError as exc:
            res.add(f"grading {name}", False, str(exc))
    return res


def run_suite(
    suite: str,
    seed: int = 42,
    order_cap: int = DEFAULT_CAP,
) -> SuiteResult:
    if suite == "poincare":
        return run_poincare(order_cap)
    if suite == "w0":
        return run_w0()
    if suite == "centdim":
        return run_centdim(seed)
    if suite == "grading":
        return run_grading()
    if suite == "proposition":
        return run_proposition()
    raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)}")
