"""The benchmark's workloads: which operations make up one pass, how each is
run through the public thetatool API, and how each answer is checked.

The caller puts ``<checkout>/src`` on ``sys.path`` before importing this
module, so that importing it imports the library under test.

Every op returns a value that ``check_*`` judges after the op's clock has
stopped; a check returns an empty string when the answer is right and a
one-line reason otherwise.  An op that raises is a failed op; it never
aborts the pass.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

from thetatool import cli, liealg, rootsys, satake, verify

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference" / "catalog_seed.json"

WORKLOADS = ("catalog_sweep", "lie_centdim")

# centralizer samples per realized pair in lie_centdim (the verify suite uses
# 100; 30 keeps centralizer_dims the largest part of a pass at under half the
# cost, so that several passes fit in one run)
CENTDIM_SAMPLES = 30

CENTDIM_PRIMES = (5, 7, 11)
CENTDIM_TYPES = (
    [("A", r) for r in range(1, 5)]
    + [("B", r) for r in range(2, 5)]
    + [("C", r) for r in range(2, 5)]
    + [("D", 4), ("F", 4), ("G", 2)]
)


def load_catalog() -> None:
    """The catalog load that set-up time covers."""
    satake.all_catalog_entries()


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str]


@dataclass
class OpRecord:
    name: str
    seconds: float
    ok: bool
    detail: str = ""


def run_pass(ops: Sequence[Op], around_op=None) -> List[OpRecord]:
    """Run ops in order, closed loop, timing each; check after timing.

    ``around_op(fn)``, when given, makes each op's call (a tracer uses it)."""
    records = []
    for op in ops:
        t0 = time.perf_counter()
        try:
            out = op.run() if around_op is None else around_op(op.run)
        except Exception as exc:  # a failed op, counted; the pass goes on
            dt = time.perf_counter() - t0
            records.append(OpRecord(op.name, dt, False, f"{type(exc).__name__}: {exc}"))
            continue
        dt = time.perf_counter() - t0
        try:
            detail = op.check(out)
        except Exception as exc:
            detail = f"check raised {type(exc).__name__}: {exc}"
        records.append(OpRecord(op.name, dt, not detail, detail))
    return records


def make_ops(workload: str, seed: int) -> List[Op]:
    """The ops of one pass, in the order the seed gives."""
    rng = random.Random(f"{seed}/{workload}")
    if workload == "catalog_sweep":
        ops = catalog_ops()
        rng.shuffle(ops)
        return ops
    if workload == "lie_centdim":
        return centdim_ops(seed, rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# -- catalog_sweep ----------------------------------------------------------------


def load_reference() -> List[dict]:
    with open(REFERENCE) as fh:
        return json.load(fh)["classes"]


def catalog_ops() -> List[Op]:
    ops = []
    for ref in load_reference():
        s, n, label = ref["series"], ref["rank"], ref["label"]
        ops.append(
            Op(
                f"{s}{n} {label}",
                lambda s=s, n=n, label=label: cli.build_report(s, n, label),
                lambda rep, ref=ref: check_report(rep, ref),
            )
        )
    return ops


def q_product(degrees: Sequence[int]) -> List[int]:
    """Coefficients of prod_d (1 + t + ... + t^(d-1))."""
    coeffs = [1]
    for d in degrees:
        out = [0] * (len(coeffs) + d - 1)
        for i, c in enumerate(coeffs):
            for k in range(d):
                out[i + k] += c
        coeffs = out
    return coeffs


def check_report(report: dict, ref: dict) -> str:
    """A report against the catalog columns, the independent component
    table, the Demazure identity and the report recorded at the seed."""
    rep = json.loads(json.dumps(report))
    if rep["restricted"]["type"] != ref["phiA"]:
        return f"restricted type {rep['restricted']['type']}, catalog {ref['phiA']}"
    count = rep["components"]["count"]
    if count != ref["components"]:
        return f"component count {count}, catalog {ref['components']}"
    entry = satake.catalog_lookup(ref["series"], ref["rank"], ref["label"])
    table = verify.expected_component_count(entry)
    if count != table:
        return f"component count {count}, summary table {table}"
    weyl = rep["weyl"]
    if weyl["poincare"] is not None:
        if q_product(weyl["degrees"]) != weyl["poincare"]:
            return "Poincare polynomial differs from the product of q-integers"
        if sum(weyl["poincare"]) != weyl["order"]:
            return "Poincare polynomial does not sum to |W_A|"
    if rep != ref["report"]:
        diff = sorted(k for k in set(rep) | set(ref["report"]) if rep.get(k) != ref["report"].get(k))
        return f"report differs from the seed report in {', '.join(diff)}"
    return ""


# -- lie_centdim --------------------------------------------------------------------


def split_entry(series: str, rank: int) -> satake.InvolutionClassEntry:
    for e in satake.catalog_list(series, rank):
        if e.is_split:
            return e
    raise LookupError(f"no split class for {series}{rank}")


def fundamental_group_order(series: str, rank: int) -> int:
    return rootsys.fundamental_group(rootsys.build_root_system(series, rank)).order


def centdim_pairs() -> List[Tuple[str, int, Optional[str], int]]:
    """(series, rank, label or None for the Chevalley involution, p): the
    pairs of ``theta-tool verify centdim``, enumerated from the catalog."""
    pairs = []
    for s, n in CENTDIM_TYPES:
        z = fundamental_group_order(s, n)
        usable = [p for p in CENTDIM_PRIMES if z % p]
        pairs += [(s, n, None, p) for p in usable]
        for e in satake.catalog_list(s, n):
            if e.satake.out_class() == tuple(range(n)):
                pairs += [(s, n, e.label, p) for p in usable]
    return pairs


def pair_name(series: str, rank: int, label: Optional[str], p: int) -> str:
    return f"{series}{rank}/{label or 'chevalley'}/p={p}"


def centdim_ops(seed: int, rng: random.Random) -> List[Op]:
    """The pairs grouped by algebra (type and prime), groups and the inner
    classes inside each in seeded order.  Each group starts with its
    Chevalley pair, so the op that pays for build_algebra is the same
    whatever the seed."""
    groups = {}
    for s, n, label, p in centdim_pairs():
        name = pair_name(s, n, label, p)
        entry = split_entry(s, n) if label is None else satake.catalog_lookup(s, n, label)
        groups.setdefault((s, n, p), []).append(
            Op(
                name,
                lambda s=s, n=n, label=label, p=p, name=name: centdim_op(
                    s, n, label, p, random.Random(f"{seed}/{name}")
                ),
                lambda out, entry=entry: check_pair(out, entry),
            )
        )
    keys = list(groups)
    rng.shuffle(keys)
    ops = []
    for key in keys:
        chevalley, inner = groups[key][0], groups[key][1:]
        rng.shuffle(inner)
        ops += [chevalley] + inner
    return ops


def realize(series: str, rank: int, label: Optional[str], p: int):
    alg = liealg.build_algebra(series, rank, p)
    if label is None:
        return liealg.realize_chevalley_involution(alg)
    dims = satake.catalog_lookup(series, rank, label).satake.kp_dimensions()
    mu = liealg.find_inner_coweight(alg, dims.k, dims.p)
    if mu is None:
        raise liealg.LieAlgebraError(f"no inner coweight matches {label} on {series}{rank}")
    return liealg.realize_inner(alg, mu)


def centdim_op(series, rank, label, p, rng):
    pair = realize(series, rank, label, p)
    pair.check_grading()
    dims = [pair.centralizer_dims(pair.random_p_element(rng)) for _ in range(CENTDIM_SAMPLES)]
    return pair, dims


def check_pair(out, entry: satake.InvolutionClassEntry) -> str:
    """Kostant-Rallis on every sample and realized (k, p) against the
    Satake dimensions; the grading laws were checked inside the op, which
    raises when they fail."""
    pair, dims = out
    want = pair.dim_k - pair.dim_p
    for i, (zk, zp) in enumerate(dims):
        if zk - zp != want:
            return f"sample {i}: z_k - z_p = {zk - zp}, dim k - dim p = {want}"
    kp = entry.satake.kp_dimensions()
    if (pair.dim_k, pair.dim_p) != (kp.k, kp.p):
        return f"realized (k, p) = ({pair.dim_k}, {pair.dim_p}), class ({kp.k}, {kp.p})"
    return ""
