"""The Gram-matrix root kernel, checked against the scalar pairings it
replaced: Cartan tables, ambient and restricted reflections, the restricted
Cartan matrix and pi-coordinates equal the loop-based versions (kept below
or in ``scalar.py``, verbatim in substance, as reference oracles).  The
basis certificate of the restricted axiom check holds on the catalog, and
only where the loop-based check passes.  On corrupted restricted data the
certificate refuses, the library raises ``RestrictionError``, and the
vectorized pair-by-pair scan ``scan_axioms`` (an oracle kept here) raises
the same error, with the same message, as the loop-based check."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np
import pytest

from thetatool.restricted import RestrictedRootSystem, RestrictionError, restrict
from thetatool.rootsys import GramKernel, RootSystemError, build_root_system
from thetatool.satake import (
    SatakeInvolution,
    _catalog_types,
    all_catalog_entries,
    catalog_lookup,
)

from scalar import (
    doubled_index,
    doubled_tuples,
    norm2,
    pair_coroot,
    ref_minus_one_rank,
    ref_pi_coords,
    root_index,
    root_tuples,
    tuples,
)
from test_satake import diagram_automorphisms, satake_data
from weylgroup import index_of, reflection_perm

TYPES = _catalog_types() + [("D", 3)]


# -- reference oracles ------------------------------------------------------------


def ref_reflection(rs, table, j: int) -> Tuple[int, ...]:
    roots = root_tuples(rs)
    beta = roots[j]
    perm = []
    for i, v in enumerate(roots):
        c = table[i][j]
        perm.append(root_index(rs, tuple(v[k] - c * beta[k] for k in range(rs.rank))))
    return tuple(perm)


def ref_check_axioms(rrs) -> None:
    rs, index = rrs.inv.ambient, doubled_index(rrs)
    norms = {b: norm2(rs, b) for b in index}  # once per b, not per pair
    for a in index:
        for b in index:
            c = pair_coroot(rs, a, b, norms[b])  # raises if non-integral
            img = tuple(x - c * y for x, y in zip(a, b))
            if img not in index:
                raise RestrictionError(
                    f"restricted roots not closed under reflection: "
                    f"s_{b}({a}) = {img}"
                )
        triple = tuple(3 * x for x in a)
        if triple in index:
            raise RestrictionError(f"3a is a restricted root for a = {a}")


# Most integers in one block of reflection images (32 KiB of int64).
BLOCK_ENTRIES = 1 << 12


def scan_axioms(rrs) -> None:
    """Every pair (a, b) of restricted roots, vectorized: reads the kernel's
    reflection table in blocks of reflections s_b.  The first failure in
    the order (a, b) is the one raised: RootSystemError for a non-integral
    pairing, RestrictionError for a reflection leaving the list."""
    m, n = rrs.doubled.shape
    step = max(1, BLOCK_ENTRIES // max(1, m * n))
    bad = np.empty((m, m), dtype=bool)  # bad[a, b]: s_b(a) fails
    for start in range(0, m, step):
        images, integral = rrs.kernel.reflections(np.arange(start, min(start + step, m)))
        bad[:, start : start + step] = ((images < 0) | ~integral).T
    fails = np.flatnonzero(bad)
    if not fails.size:
        return
    i, j = divmod(int(fails[0]), m)
    cartan, integral = rrs.kernel.cartan_rows(rrs.doubled[[i]])
    a, b = (tuple(rrs.doubled[k].tolist()) for k in (i, j))
    if not integral[0, j]:
        raise RootSystemError(f"non-integral Cartan pairing of {a} with {b}")
    c = int(cartan[0, j])
    img = tuple(x - c * y for x, y in zip(a, b))
    raise RestrictionError(
        f"restricted roots not closed under reflection: s_{b}({a}) = {img}"
    )


def ref_reflection_perm(rrs, d: Sequence[int]) -> Tuple[int, ...]:
    perm = []
    for a in doubled_tuples(rrs):
        c = pair_coroot(rrs.inv.ambient, a, d)
        perm.append(index_of(rrs, tuple(x - c * y for x, y in zip(a, d))))
    return tuple(perm)


def _outcome(check):
    try:
        return check()
    except (RestrictionError, RootSystemError) as exc:
        return type(exc), str(exc)


def _with_roots(rrs, vectors, pi=None, pi_lifts=None) -> RestrictedRootSystem:
    """A copy of rrs whose restricted roots (and basis, with its lift nodes)
    are replaced, with nothing checked."""
    fake = RestrictedRootSystem.__new__(RestrictedRootSystem)
    fake.inv = rrs.inv
    fake.kernel = GramKernel(vectors, rrs.inv.ambient.form)
    fake.doubled = fake.kernel.vectors
    fake.pi = rrs.pi if pi is None else np.array(pi, dtype=np.int64)
    fake.pi_lifts = rrs.pi_lifts if pi_lifts is None else tuple(pi_lifts)
    fake.r = len(fake.pi)
    return fake


# -- ambient root systems ------------------------------------------------------------


@pytest.mark.parametrize("series,rank", TYPES, ids=[f"{s}{r}" for s, r in TYPES])
def test_cartan_table_and_reflections_match_scalar(series, rank):
    rs = build_root_system(series, rank)
    roots = root_tuples(rs)
    table = [[pair_coroot(rs, a, b) for b in roots] for a in roots]
    kernel = rs.kernel
    cartan, integral = kernel.cartan_rows(kernel.vectors)
    assert integral.all()
    assert cartan.tolist() == table
    assert kernel.norms.tolist() == [norm2(rs, v) for v in roots]
    perms = rs.reflections(range(len(rs.roots)))
    assert not perms.flags.writeable and perms.dtype == np.int64
    for j in range(len(rs.roots)):
        assert tuple(perms[j].tolist()) == ref_reflection(rs, table, j)


def test_kernel_lookup_and_reflection_blocks():
    rs = build_root_system("E", 8)
    kernel = rs.kernel
    assert kernel.lookup(kernel.vectors).tolist() == list(range(len(rs.roots)))
    zero_and_double = np.array([[0] * 8, [2] + [0] * 7, [7] * 8], dtype=np.int64)
    assert kernel.lookup(zero_and_double).tolist() == [-1, -1, -1]
    # blocks of consecutive reflections, as ``scan_axioms`` reads them,
    # tile the full reflection table in order
    perms = rs.reflections(range(len(rs.roots))).tolist()
    step = BLOCK_ENTRIES // (len(rs.roots) * rs.rank)
    rows = []
    for start in range(0, len(rs.roots), step):
        images, integral = kernel.reflections(np.arange(start, min(start + step, len(rs.roots))))
        assert images.size * rs.rank <= BLOCK_ENTRIES
        assert integral.all() and (images >= 0).all()
        rows += images.tolist()
    assert rows == perms


def test_empty_kernel():
    kernel = GramKernel([], ((2, -1), (-1, 2)))
    assert kernel.vectors.shape == (0, 2)
    assert kernel.lookup(np.array([[1, 0]], dtype=np.int64)).tolist() == [-1]
    images, integral = kernel.reflections(np.arange(0))
    assert images.shape == integral.shape == (0, 0)


# The kernel builds of two catalog sweeps in a fresh interpreter, where no
# cache is warm yet.
_COUNT_BUILDS = """
from thetatool import cli, rootsys, satake
builds = []
real = rootsys.GramKernel.__init__
rootsys.GramKernel.__init__ = lambda self, *a: builds.append(1) or real(self, *a)
counts = []
for _ in range(2):
    for e in satake.all_catalog_entries():
        rep = cli.build_report(e.series, e.rank, e.label)
    counts.append(len(builds))
print(len(satake._catalog_types()), len(satake.all_catalog_entries()), *counts)
"""


def test_catalog_sweep_builds_one_kernel_per_system():
    """A report reads the one kernel its root system owns and the one its
    restricted system owns: a cold sweep of the catalog builds one per type
    and one per class, and a second sweep builds none."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _COUNT_BUILDS], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    ).stdout.split()
    types, classes, first, second = map(int, out)
    assert (types, classes) == (32, 135)
    assert first == second == types + classes
    rs = build_root_system("E", 8)
    rrs = restrict(catalog_lookup("E", 8, "EVIII").satake)
    assert rs.kernel is build_root_system("E", 8).kernel
    assert rrs.kernel is restrict(catalog_lookup("E", 8, "EVIII").satake).kernel


# -- restricted root systems ------------------------------------------------------------


def test_restricted_tables_match_scalar():
    for e in all_catalog_entries():
        rrs = restrict(e.satake)
        rs = e.satake.ambient
        pi = tuples(rrs.pi)
        C = [[pair_coroot(rs, a, b) for b in pi] for a in pi]
        assert rrs.cartan_matrix() == C
        for d in pi:
            assert reflection_perm(rrs, d) == ref_reflection_perm(rrs, d)


def test_restricted_all_reflections_and_coords_match_scalar():
    for e in all_catalog_entries(max_rank=5):
        rrs = restrict(e.satake)
        assert ref_check_axioms(rrs) is None
        for d in doubled_tuples(rrs):
            assert reflection_perm(rrs, d) == ref_reflection_perm(rrs, d)
        assert rrs._pi_coords.tolist() == ref_pi_coords(rrs)


def _refused(fake) -> None:
    """The certificate refuses fake, and the axiom check raises the
    RestrictionError that names the condition it failed."""
    failure = fake._certificate_failure()
    assert failure is not None
    with pytest.raises(RestrictionError) as exc:
        fake._check_axioms()
    assert str(exc.value) == f"restricted-root axioms not certified: {failure}"


def test_corrupted_restricted_roots_raise_the_same_error():
    rng = random.Random(3)
    seen = set()
    for series, rank, label in [
        ("A", 4, "AIII(2,3)"), ("B", 3, "BI(2)"), ("C", 4, "CII(1)"),
        ("D", 5, "DIII"), ("E", 6, "EII"), ("F", 4, "FII"), ("G", 2, "G"),
    ]:
        rrs = restrict(catalog_lookup(series, rank, label).satake)
        roots = list(doubled_tuples(rrs))
        for _ in range(12):
            vectors = list(roots)
            kind = rng.choice(["drop", "triple", "stray"])
            a = rng.choice(roots)
            if kind == "drop":
                vectors.remove(a)  # no longer closed under reflections
            elif kind == "triple":
                vectors.insert(rng.randrange(len(vectors) + 1), tuple(3 * x for x in a))
            else:  # a stray 0/1 vector, with non-integral pairings
                stray = a
                while stray in roots or not any(stray):
                    stray = tuple(rng.choice([0, 1]) for _ in range(rank))
                vectors.insert(rng.randrange(len(vectors) + 1), stray)
            fake = _with_roots(rrs, vectors)
            expected = _outcome(lambda: ref_check_axioms(fake))
            assert expected is not None, (series, rank, label, kind)
            assert _outcome(lambda: scan_axioms(fake)) == expected, (series, rank, label, kind)
            _refused(fake)
            seen.add(expected[1].split(" ")[0])
    # closure and integrality failures both occur ("3a" rows always meet
    # the non-integral pairing <a, (3a)^vee> = 2/3 first)
    assert {"restricted", "non-integral"} <= seen


def test_certificate_holds_on_the_catalog_without_the_scan(monkeypatch):
    """Every catalog class is certified from its basis: the axiom check
    reflects in at most 2r rows, and no pair-by-pair scan runs."""
    rows = {}
    real = GramKernel.reflections

    def reflections(kernel, js):
        rows[id(kernel)] = rows.get(id(kernel), 0) + len(js)
        return real(kernel, js)

    monkeypatch.setattr(GramKernel, "reflections", reflections)
    entries = all_catalog_entries()
    for e in entries:
        rrs = RestrictedRootSystem(e.satake)
        assert rrs.r <= rows.pop(id(rrs.kernel)) <= 2 * rrs.r, (e.series, e.rank, e.label)
    assert len(entries) == 135


def _basis_size(inv) -> int:
    """The size of the basis ``RestrictedRootSystem`` takes: one root per
    distinct doubled restriction a - theta*(a) of a white simple root."""
    rs = inv.ambient
    simple = rs.simple_indices[[i for i in range(rs.rank) if i not in inv.compact]]
    rows = rs.roots[simple] - rs.roots[inv.theta_perm()[simple]]
    return len(set(map(tuple, rows.tolist())))


def test_certificate_is_sound_on_every_enumerated_datum(monkeypatch):
    """Wherever the certificate holds, the loop-based oracle passes: on the
    (I, psi) of the catalog types of rank <= 8 that reach the axiom check
    with the admission gate patched out.  Without the gate theta* need not
    be an involution, so the split rank of the cross-check before the axiom
    check is the one over Q, ``ref_minus_one_rank``.  That cross-check is
    taken first, from the basis size alone, and only the data it passes
    are built: the others never reach the certificate, and the pinned
    count of those that do shows none was skipped.  (The corrupted lists
    above are all refused.)"""
    certified, refused = [], []
    real = RestrictedRootSystem._certificate_failure

    def certify(rrs):
        failure = real(rrs)
        (certified if failure is None else refused).append(rrs)
        return failure

    monkeypatch.setattr(SatakeInvolution, "admit", lambda inv: None)
    monkeypatch.setattr(SatakeInvolution, "minus_one_rank", ref_minus_one_rank)
    monkeypatch.setattr(RestrictedRootSystem, "_certificate_failure", certify)
    for series, rank in _catalog_types():
        rs = build_root_system(series, rank)
        for inv in satake_data(rs, diagram_automorphisms(rs.cartan)):
            if _basis_size(inv) == ref_minus_one_rank(inv):
                _outcome(lambda: RestrictedRootSystem(inv))
    assert (len(certified) + len(refused), len(certified)) == (1165, 237)
    for rrs in certified:
        assert ref_check_axioms(rrs) is None, rrs.inv


@pytest.mark.parametrize(
    "series,rank,label", [("B", 3, "BI(2)"), ("A", 3, "AI"), ("C", 3, "CI"), ("G", 2, "G")]
)
def test_certificate_needs_the_single_coordinate_bound(series, rank, label):
    """Phi together with 3 Phi meets every condition but the third: it is
    closed under the basis reflections and pairs integrally with the basis
    coroots, yet <a, (3b)^vee> is not an integer.  The certificate refuses it
    on condition 3, and the scan raises the oracle's error."""
    rrs = restrict(catalog_lookup(series, rank, label).satake)
    fake = _with_roots(rrs, np.vstack([rrs.doubled, 3 * rrs.doubled]))
    js = fake.kernel.lookup(np.vstack([fake.pi, 2 * fake.pi]))
    images, integral = fake.kernel.reflections(js[js >= 0])
    assert (images >= 0).all() and integral.all()
    assert not fake._pi_division[1].any()
    assert fake._certificate_failure().startswith("condition 3,")
    _refused(fake)
    expected = _outcome(lambda: ref_check_axioms(fake))
    assert expected[0] is RootSystemError
    assert expected[1].startswith("non-integral Cartan pairing")
    assert _outcome(lambda: scan_axioms(fake)) == expected


def test_corrupted_basis_raises_the_same_error():
    """A basis replaced by its double, or made dependent by repeating a
    root: the elimination over Q fails, and the certificate refuses."""
    for series, rank, label in [("A", 3, "AI"), ("D", 5, "DIII"), ("E", 7, "EVII")]:
        rrs = restrict(catalog_lookup(series, rank, label).satake)
        doubled_pi = [tuple(2 * x for x in d) for d in tuples(rrs.pi)]
        fake = _with_roots(rrs, rrs.doubled, pi=doubled_pi)
        assert _outcome(lambda: ref_pi_coords(fake)) == (
            RestrictionError, f"{doubled_tuples(rrs)[0]} has non-integer pi-coordinates"
        )
        _refused(fake)
        pi = tuples(rrs.pi)
        dependent = _with_roots(
            rrs, rrs.doubled, pi=pi + pi[:1], pi_lifts=rrs.pi_lifts + rrs.pi_lifts[:1]
        )
        with pytest.raises(RestrictionError, match="linearly dependent"):
            ref_pi_coords(dependent)
        _refused(dependent)
