"""Command-line front end: per-involution reports, catalog listings, and
verification suites, in text or JSON.

Exit codes: 0 success, 1 verification failure, a computation that
rejected its data or memory exhaustion, 2 usage error.  The JSON report
schema is versioned by a top-level "schema": 1 field; the cap on |W_A| for
the Poincare polynomial defaults to 5e6 and can be overridden with --cap or
the THETA_TOOL_CAP environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Optional

from . import nilcomp, restricted, verify, weylinv
from .nilcomp import ComponentCountError, OmegaError
from .restricted import RestrictionError
from .rootsys import DEFAULT_CAP, SERIES, CapExceededError, RootSystemError, _is_integer
from .satake import SatakeError, catalog_list, catalog_lookup
from .weylinv import DegreeError

SCHEMA_VERSION = 1


def build_report(
    series: str,
    rank: int,
    label: str,
    order_cap: int = DEFAULT_CAP,
    prime: Optional[int] = None,
) -> Dict[str, Any]:
    """Assemble the full JSON-ready report for one involution class."""
    entry = catalog_lookup(series, rank, label)
    inv = entry.satake
    dims = inv.kp_dimensions()
    rrs = restricted.restrict(inv)
    degrees = weylinv.invariant_degrees(rrs)
    cochar, diagram = nilcomp.omega(rrs)
    comp = nilcomp.component_count(entry)

    poincare: Optional[list] = None
    poincare_skipped = None
    try:
        poincare = list(weylinv.poincare_polynomial(rrs, order_cap))
    except CapExceededError as exc:
        poincare_skipped = (
            f"W_A too large: order {exc.predicted_order} exceeds cap {exc.cap}"
        )

    report: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "series": series,
        "rank": inv.ambient.rank,
        "label": entry.label,
        "fixed_algebra": entry.fixed_algebra_name,
        "is_split": entry.is_split,
        "is_quasi_split": entry.is_quasi_split,
        "dims": {"g": dims.g, "k": dims.k, "p": dims.p, "a": dims.a, "m": dims.m},
        "restricted": {
            "type": rrs.restricted_type,
            "reduced_type": rrs.reduced_type,
            "rank": rrs.r,
            "reduced_rank": rrs.r,
            "multiplicities": [
                {"root": list(coords), "multiplicity": m}
                for coords, m in rrs.multiplicity_table()
            ],
        },
        "weyl": {
            "order": rrs.weyl_order(),
            "degrees": list(degrees),
            "poincare": poincare,
            "poincare_skipped": poincare_skipped,
        },
        "omega_diagram": list(diagram),
        "omega_cocharacter": list(cochar.coords),
        "components": {
            "count": comp.count,
            "method": comp.method,
            "z_mod_z2": list(comp.z_mod_z2.invariant_factors),
            "z_cap_a": list(comp.z_cap_a.invariant_factors),
            "z_cap_a_mod_squares": list(comp.z_cap_a_mod_sq.invariant_factors),
            "tau_z_order": comp.tau_z_order,
            "notes": list(comp.notes),
        },
        "codim_nilcone": rrs.r,
    }
    if prime is not None:
        prime = int(prime) if _is_integer(prime) else prime  # a numpy prime would not serialize
        good, witness = rrs.check_p_good(prime)
        report["p_good"] = {"p": prime, "good": good, "witness": witness}
    return report


def _print_text_report(rep: Dict[str, Any]) -> None:
    head = f"{rep['series']}{rep['rank']} {rep['label']}  (k = {rep['fixed_algebra']})"
    flags = []
    if rep["is_split"]:
        flags.append("split")
    elif rep["is_quasi_split"]:
        flags.append("quasi-split")
    if flags:
        head += "  [" + ", ".join(flags) + "]"
    print(head)
    d = rep["dims"]
    print(f"  dims: g={d['g']} k={d['k']} p={d['p']} a={d['a']} m={d['m']}")
    r = rep["restricted"]
    print(
        f"  restricted system: {r['type']} (reduced {r['reduced_type']}), "
        f"rank {r['rank']}"
    )
    mults = ", ".join(
        f"{tuple(row['root'])}:{row['multiplicity']}" for row in r["multiplicities"]
    )
    print(f"  multiplicities (basis coords): {mults}")
    w = rep["weyl"]
    print(f"  |W_A| = {w['order']}, degrees {tuple(w['degrees'])}")
    if w["poincare"] is not None:
        print(f"  Poincare polynomial: {_poly_str(w['poincare'])}")
    else:
        print(f"  Poincare polynomial: skipped ({w['poincare_skipped']})")
    print(f"  omega diagram (Bourbaki order): {' '.join(map(str, rep['omega_diagram']))}")
    c = rep["components"]
    print(
        f"  nilpotent cone: {c['count']} component(s) [{c['method']}], "
        f"codim {rep['codim_nilcone']}"
    )
    print(
        f"    Z cap A = {_group_str(c['z_cap_a'])}, "
        f"(Z cap A)/sq = {_group_str(c['z_cap_a_mod_squares'])}, "
        f"|tau(Z)| = {c['tau_z_order']}"
    )
    for note in c["notes"]:
        print(f"    note: {note}")
    if "p_good" in rep:
        pg = rep["p_good"]
        print(f"  p = {pg['p']}: {'good' if pg['good'] else 'NOT good'} ({pg['witness']})")


def _poly_str(coeffs) -> str:
    """sum_i c_i t^i, lowest degree first: "1 + 2t^2", with a coefficient
    of 1 left out after the constant term and "0" for no terms."""
    terms = [
        str(a) if i == 0 else ("" if a == 1 else str(a)) + ("t" if i == 1 else f"t^{i}")
        for i, a in enumerate(coeffs)
        if a
    ]
    return " + ".join(terms) or "0"


def _group_str(factors) -> str:
    return " x ".join(f"Z/{d}" for d in factors) if factors else "1"


def cmd_report(args: argparse.Namespace) -> int:
    rep = build_report(args.series, args.rank, args.label, order_cap=args.cap, prime=args.prime)
    if args.format == "json":
        print(json.dumps(rep, indent=2, sort_keys=True))
    else:
        _print_text_report(rep)
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for e in catalog_list(args.series, args.rank):
        rrs = restricted.restrict(e.satake)
        kind = "split" if e.is_split else ("quasi-split" if e.is_quasi_split else "-")
        rows.append((e.label, e.fixed_algebra_name, kind, rrs.reduced_type))
    if args.format == "json":
        print(
            json.dumps(
                {
                    "schema": SCHEMA_VERSION,
                    "series": args.series,
                    "rank": args.rank,
                    "classes": [
                        {
                            "label": a,
                            "fixed_algebra": b,
                            "kind": c,
                            "reduced_restricted_type": d,
                        }
                        for a, b, c, d in rows
                    ],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        widths = [max(len(str(r[i])) for r in rows + [("label", "k", "kind", "Phi_A^*")]) for i in range(4)]
        header = ("label", "k", "kind", "Phi_A^*")
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str(x).ljust(w) for x, w in zip(row, widths)))
    return 0


def suite_json(res: verify.SuiteResult) -> str:
    """The JSON text of a suite result, as ``verify --format json`` prints it."""
    return json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "suite": res.suite,
            "passed": res.passed,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in res.checks
            ],
            "skipped": res.skipped,
        },
        indent=2,
        sort_keys=True,
    )


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in verify.SUITE_NAMES:
        print(
            f"error: unknown suite {args.suite!r}; choose from "
            f"{', '.join(verify.SUITE_NAMES)}",
            file=sys.stderr,
        )
        return 2
    res = verify.run_suite(args.suite, seed=args.seed, order_cap=args.cap)
    if args.format == "json":
        print(suite_json(res))
    else:
        for c in res.checks:
            mark = "PASS" if c.ok else "FAIL"
            detail = f"  ({c.detail})" if (c.detail and not c.ok) else ""
            print(f"{mark} {c.name}{detail}")
        for s in res.skipped:
            print(f"SKIP {s}")
        n_fail = len(res.failures)
        print(
            f"suite {res.suite}: {len(res.checks) - n_fail}/{len(res.checks)} passed"
            + (f", {len(res.skipped)} skipped" if res.skipped else "")
        )
    return 0 if res.passed else 1


def _cap(text: str) -> int:
    """Type of --cap, whose default is THETA_TOOL_CAP when that is set: a
    positive whole number, float notation such as 1e9 allowed."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not (value >= 1 and value.is_integer()):
        raise argparse.ArgumentTypeError(
            f"{text!r} (from --cap or THETA_TOOL_CAP) is not a positive whole number"
        )
    return int(value)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="theta-tool",
        description=(
            "Symmetric-pair combinatorics of involutions of simple groups: "
            "restricted roots, baby Weyl groups, invariant degrees, and "
            "nilpotent-cone component counts."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    options = {
        "--cap": dict(type=_cap,
                      default=os.environ.get("THETA_TOOL_CAP") or str(DEFAULT_CAP),
                      help="cap on |W_A| for the Poincare polynomial (default 5e6)"),
        "--seed": dict(type=int, default=42),
        "--prime": dict(type=int, default=None, help="also report goodness of this prime"),
    }

    def add_options(p, *names):
        """--format, and the named options, which the command reads."""
        p.add_argument("--format", choices=("text", "json"), default="text")
        for name in names:
            p.add_argument(name, **options[name])

    p = sub.add_parser("report", help="full report for one involution class")
    p.add_argument("series", choices=SERIES)
    p.add_argument("rank", type=int)
    p.add_argument("label")
    add_options(p, "--cap", "--prime")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("list", help="catalog classes for a simple type")
    p.add_argument("series", choices=SERIES)
    p.add_argument("rank", type=int)
    add_options(p)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="|".join(verify.SUITE_NAMES))
    add_options(p, "--cap", "--seed")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv: Optional[list] = None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (RootSystemError, SatakeError) as exc:
        # an invalid type or an unknown class: a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RestrictionError, DegreeError, OmegaError, ComponentCountError) as exc:
        # valid input that a consistency check of the computation rejected
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory running {args.command}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
