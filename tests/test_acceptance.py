"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All checks are exact (integer equalities); the runtime budgets from the
criteria are asserted with the stated bounds.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from thetatool import cli, liealg, nilcomp, restricted, verify
from thetatool.satake import all_catalog_entries

from brackets import bracket_vec, sample_jacobi
from test_gram_kernel import scan_axioms


# `theta-tool verify grading|centdim --format json` as recorded before the
# F_p kernel was rewritten, `verify poincare|w0 --format json` as recorded
# before the Weyl-group enumeration left the library, and `verify proposition
# --format json` as recorded before its table became the catalog's
# ``components`` column; the suites must keep printing them byte for byte.
FIXTURES = Path(__file__).resolve().parent


def _matches_fixture(res: verify.SuiteResult, name: str) -> bool:
    want = (FIXTURES / f"verify_{name}.json").read_text()
    return cli.suite_json(res) + "\n" == want


def _report(name: str, ok: bool, elapsed: float, budget: float, extra: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}: {elapsed:.1f}s (budget {budget:.0f}s)"
    if extra:
        line += f" -- {extra}"
    print(line)
    assert ok, name
    assert elapsed < budget, f"{name} exceeded its runtime budget"


def test_criterion_1_proposition_table():
    """Every catalog class reproduces the non-irreducibility table exactly:
    count 2 on the listed classes, 4 for split D_{2n}, 1 elsewhere.  The
    suite's JSON equals the recorded `verify proposition --format json`."""
    t0 = time.time()
    res = verify.run_proposition()
    counts_4 = 0
    for e in all_catalog_entries():
        rep = nilcomp.component_count(e)
        if rep.count == 4:
            counts_4 += 1
            assert e.is_split and e.series == "D" and e.rank % 2 == 0
    _report(
        "criterion 1: proposition table",
        res.passed and counts_4 == 3 and _matches_fixture(res, "proposition"),  # D4, D6, D8
        time.time() - t0,
        10,
        f"{len(res.checks)} classes",
    )


def _split_value(series: str, rank: int) -> int:
    if series == "A":
        return 2 if rank % 2 == 1 else 1  # A_{2n-1} vs A_{2n}
    if series in ("B", "C"):
        return 2
    if series == "D":
        return 4 if rank % 2 == 0 else 2
    if series == "E":
        return 2 if rank == 7 else 1
    return 1  # F4, G2


def _quasisplit_value(series: str, rank: int) -> int:
    # quasi-split, non-split classes only exist for A, D, E6
    if series == "A":
        return 2 if rank % 2 == 1 else 1  # A_{2n+1} vs A_{2n}
    if series == "D":
        return 2 if rank % 2 == 1 else 1  # D_{2n+1} vs D_{2n}
    return 1  # E6


def split_and_quasisplit_counts(max_rank: int = 8) -> verify.SuiteResult:
    """The split and quasi-split component values, class by class."""
    res = verify.SuiteResult("split-quasisplit")
    for e in all_catalog_entries(max_rank):
        if not (e.is_split or e.is_quasi_split):
            continue
        rep = nilcomp.component_count(e)
        if e.is_split:
            want = _split_value(e.series, e.rank)
            kind = "split"
        else:
            want = _quasisplit_value(e.series, e.rank)
            kind = "quasi-split"
        res.add(
            f"{kind} {e.series}{e.rank} {e.label}",
            rep.count == want,
            f"computed {rep.count}, expected {want}",
        )
    return res


def test_criterion_2_split_quasisplit_counts():
    """Split values (4/2/1 by type) and quasi-split values (2 for A_odd,
    D_odd; 1 for A_even, D_even, E6)."""
    t0 = time.time()
    res = split_and_quasisplit_counts(max_rank=8)
    _report(
        "criterion 2: split/quasi-split counts",
        res.passed,
        time.time() - t0,
        5,
        f"{len(res.checks)} classes",
    )


def test_criterion_3_demazure_identity():
    """Coefficient-exact sum_w t^l(w) = prod (1-t^d_i)/(1-t) for every
    catalog entry with |W_A| <= 5e6, plus the independent degree
    re-derivation by factoring.  The suite's JSON equals the recorded
    `verify poincare --format json`."""
    t0 = time.time()
    res = verify.run_poincare(order_cap=5 * 10**6)
    covered = {c.name.split(" ", 1)[1] for c in res.checks}
    _report(
        "criterion 3: Demazure identity",
        # B8, C8, D8 splits and E8 split
        res.passed and len(res.skipped) == 4 and _matches_fixture(res, "poincare"),
        time.time() - t0,
        120,
        f"{len(covered)} entries, {len(res.skipped)} over cap",
    )


def test_criterion_4_w0_decompositions():
    """All built-in orthogonal decompositions of w0 pass orthogonality,
    the product identity (incl. the conjugated subregular rank-6 case),
    and the mod-4 membership condition.  The suite's JSON equals the
    recorded `verify w0 --format json`."""
    t0 = time.time()
    res = verify.run_w0()
    _report(
        "criterion 4: w0 decompositions",
        res.passed and len(res.checks) >= 13 and _matches_fixture(res, "w0"),
        time.time() - t0,
        5,
        f"{len(res.checks)} fixtures",
    )


def test_criterion_5_centdim_identity():
    """dim z_k(x) - dim z_p(x) = dim k - dim p on 100 fixed-seed random
    x in p for every realized pair over p in {5, 7, 11} (combinations with
    p dividing the fundamental-group order fall outside the nondegenerate-
    form hypothesis and are excluded; see the A4/p=5 regression test).
    The suite's JSON equals the recorded `verify centdim --format json`."""
    t0 = time.time()
    res = verify.run_centdim(seed=42)
    n_pairs = sum(1 for c in res.checks if c.name.startswith("centdim"))
    _report(
        "criterion 5: centralizer dimension identity",
        res.passed and _matches_fixture(res, "centdim"),
        time.time() - t0,
        60,
        f"{n_pairs} realized pairs x 100 samples",
    )


def test_criterion_6_grading_laws():
    """[k,k] in k, [k,p] in p, [p,p] in k, exhaustively on basis pairs of
    every realized pair.  The suite's JSON equals the recorded
    `verify grading --format json`."""
    t0 = time.time()
    res = verify.run_grading()
    _report(
        "criterion 6: grading laws",
        res.passed and _matches_fixture(res, "grading"),
        time.time() - t0,
        30,
        f"{len(res.checks)} realized pairs",
    )


def test_criterion_7_cross_module_dimensions():
    """Realization dimensions equal the Satake-level kp_dimensions for every
    matched class, and dim m - dim a = dim k - dim p over the whole catalog."""
    t0 = time.time()
    ok = True
    for name, entry, pair in verify.realized_pairs():
        if entry is None:
            continue
        dims = entry.satake.kp_dimensions()
        if (pair.dim_k, pair.dim_p) != (dims.k, dims.p):
            ok = False
    n = 0
    for e in all_catalog_entries():
        d = e.satake.kp_dimensions()
        if d.m - d.a != d.k - d.p:
            ok = False
        n += 1
    _report(
        "criterion 7: cross-module dimension agreement",
        ok,
        time.time() - t0,
        5,
        f"{n} catalog classes",
    )


def test_criterion_8_structural_invariants():
    """Jacobi (exhaustive rank <= 3, 10^4 samples rank <= 6); restricted-root
    closure + integral Cartan numbers + 3a-exclusion per catalog entry; the
    divisibility bound count | |(Z cap A)/(Z cap A)^2|."""
    t0 = time.time()
    ok = True

    # Jacobi: exhaustive for rank <= 3 through literal triples
    for series, rank in [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 3)]:
        alg = liealg.build_algebra(series, rank, 5)
        n = alg.dim
        for i in range(n):
            xi = np.zeros(n, dtype=np.int64); xi[i] = 1
            for j in range(n):
                xj = np.zeros(n, dtype=np.int64); xj[j] = 1
                bij = bracket_vec(alg, xi, xj)
                for k in range(n):
                    xk = np.zeros(n, dtype=np.int64); xk[k] = 1
                    total = (
                        bracket_vec(alg, bij, xk)
                        + bracket_vec(alg, bracket_vec(alg, xj, xk), xi)
                        + bracket_vec(alg, bracket_vec(alg, xk, xi), xj)
                    )
                    if np.any(np.mod(total, alg.p)):
                        ok = False

    # Jacobi: sampled for rank <= 6
    for series, rank in [("F", 4), ("D", 5), ("E", 6)]:
        sample_jacobi(liealg.build_algebra(series, rank, 7), 10**4, seed=8)

    # restricted-root axioms: closure under reflections and integral Cartan
    # numbers (which exclude 3a).  The constructor certifies them from the
    # basis reflections; the full scan over every pair (a, b) re-checks
    # them here independently of that certificate
    for e in all_catalog_entries():
        rrs = restricted.restrict(e.satake)
        scan_axioms(rrs)
        rep = nilcomp.component_count(e, rrs)
        if rep.z_cap_a_mod_sq.order % rep.count != 0:
            ok = False

    _report(
        "criterion 8: structural invariants",
        ok,
        time.time() - t0,
        60,
    )
