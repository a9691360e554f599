"""thetatool benchmark driver.

    python3 perfbench/run.py --workload catalog_sweep|lie_centdim \
        [--seed 42] [--seconds 60] [--trace 0|1]

Single process, single thread, closed loop: each pass is one fresh
interpreter (``worker.py``) that imports thetatool, loads the catalog and
runs every op of the workload once, so every pass starts with cold library
caches.  Passes come in rounds of two and rounds repeat until the next one
would end after ``--seconds``.  Set-up-only interpreters, two per code at
the start and one before each pass, add set-up samples.

With ``--trace 0`` a round is one pass of the program (``src/``) and one of
the frozen reference (``frozen/``, the library as of commit df871fa), and
the last stdout line carries the end-to-end metrics.  Each time metric is
the program's value as measured, scaled by a reference value in REFERENCE
over the frozen reference's set-up or pass time in the same run, which
takes out the drift in machine speed between runs.  With ``--trace 1`` a round is
one untraced and one traced pass of the program, and the last line carries
the per-layer metrics of the traced passes and the tracing overhead.
Details (environment, raw values, quartiles) go to
``perfbench/out/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CODE = {"program": SRC, "frozen": HERE / "frozen"}
OUT = HERE / "out"
WORKLOADS = ("catalog_sweep", "lie_centdim")
SETUP_PROBES = 2  # per code at the start; one more before each pass
MIN_ROUNDS = 2  # untraced; a traced run makes at least one round
RUN_LIMIT_S = 170  # every run ends well inside 180 s
# Set-up and pass time of the frozen reference at the reference machine
# speed.  The program's times are reported at that speed: set-up time is
# scaled by REFERENCE setup_s over the frozen reference's median set-up time
# in the same run, and pass time and op latencies by REFERENCE pass_s over
# its median pass time.  (Scaling each op percentile by the reference's own
# percentile was tried; the whole pass is the steadier yardstick.)
REFERENCE = {
    "catalog_sweep": {"setup_s": 0.25, "pass_s": 6.5},
    "lie_centdim": {"setup_s": 0.25, "pass_s": 7.5},
}

# span name -> extra computed counts reported beside busy_s, calls and share
LAYERS = {
    "rootsys.build_root_system": (),
    "satake.catalog": (),
    "satake.theta_perm": (),
    "satake.kp_dimensions": (),
    "restricted.restrict": ("pairings",),
    "weylinv.invariant_degrees": (),
    "weylinv.poincare_polynomial": (),
    "nilcomp.omega": (),
    "nilcomp.component_count": (),
    "liealg.build_algebra": ("ad_bytes",),
    "liealg.realize": (),
    "liealg.centralizer_dims": ("rank_solves",),
    "liealg.random_p_element": (),
    "liealg.check_grading": ("brackets",),
    "cli.build_report": (),
}


class BenchError(RuntimeError):
    pass


def percentile(xs: List[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(xs: List[float]) -> Dict[str, float]:
    return {"n": len(xs), "q1": percentile(xs, 0.25), "median": percentile(xs, 0.5),
            "q3": percentile(xs, 0.75)}


def worker(workload: str, seed: int, mode: str, code: str, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload,
             "--seed", str(seed), "--mode", mode, "--code", code],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{mode} pass printed no result:\n{proc.stdout[-2000:]}")
    if not rec["thetatool"].startswith(str(CODE[code].resolve())):
        raise BenchError(f"imported thetatool from {rec['thetatool']}, not from {CODE[code]}")
    return rec


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "isolation": "none: CPUs are shared and not pinned",
    }


def layer_metrics(traced: List[dict], untraced: List[dict]) -> Dict[str, float]:
    """Per-layer metrics: median busy time over the traced passes, calls and
    computed counts of one traced pass, and the tracing overhead."""
    pass_s = statistics.median(r["pass_s"] for r in traced)
    last = traced[-1]
    m: Dict[str, float] = {}
    for name, extra in LAYERS.items():
        busy = statistics.median(r["layers"].get(name, {}).get("busy_s", 0.0) for r in traced)
        row = last["layers"].get(name, {"calls": 0, "errors": {}})
        m[f"{name}.busy_s"] = busy
        m[f"{name}.calls"] = row["calls"]
        m[f"{name}.share"] = busy / pass_s
        for key in extra:
            m[f"{name}.{key}"] = last["counts"].get(f"{name}.{key}", 0)
    pairings = m["restricted.restrict.pairings"]
    m["restricted.restrict.ns_per_pairing"] = (
        m["restricted.restrict.busy_s"] * 1e9 / pairings if pairings else 0.0
    )
    m["weylinv.poincare_polynomial.skipped"] = (
        last["layers"].get("weylinv.poincare_polynomial", {}).get("errors", {}).get("CapExceededError", 0)
    )
    m["trace.pass_s"] = pass_s
    m["trace.untraced_pass_s"] = statistics.median(r["pass_s"] for r in untraced)
    m["trace.overhead_s"] = pass_s - m["trace.untraced_pass_s"]
    coverage = [share for r in traced for _, share in r["coverage"]]
    m["trace.coverage_min"] = min(coverage)
    m["trace.ops_under_90pct"] = sum(c < 0.9 for c in coverage)
    return m


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    limit = started + RUN_LIMIT_S
    load_before = os.getloadavg()
    # an untraced run pairs each pass of the program with one of the frozen
    # reference; a traced run pairs untraced and traced passes of the program.
    # The order inside a round alternates from round to round.
    slots = [("pass", "program"), ("trace", "program") if trace else ("pass", "frozen")]
    codes = sorted({code for _, code in slots})
    for code in codes:  # warm-up: byte-compiles, checks the import
        worker(workload, seed, "setup", code, limit)
    deadline = time.monotonic() + seconds
    setups = {code: [worker(workload, seed, "setup", code, limit)
                     for _ in range(SETUP_PROBES)] for code in codes}
    passes: Dict[tuple, List[dict]] = {slot: [] for slot in slots}
    walls: Dict[tuple, List[float]] = {slot: [] for slot in slots}
    rounds = 0
    while rounds < (1 if trace else MIN_ROUNDS) or (
        time.monotonic() + sum(statistics.median(w) for w in walls.values()) <= deadline
    ):
        for mode, code in slots if rounds % 2 == 0 else slots[::-1]:
            setups[code].append(worker(workload, seed, "setup", code, limit))
            t0 = time.monotonic()
            passes[(mode, code)].append(worker(workload, seed, mode, code, limit))
            walls[(mode, code)].append(time.monotonic() - t0)
        rounds += 1

    program = passes[("pass", "program")]
    measured = program + passes.get(("trace", "program"), [])
    attempted = sum(len(r["ops"]) for r in measured)
    failures = [(op[0], op[3]) for r in measured for op in r["ops"] if not op[2]]
    frozen_failures = [op[0] for r in passes.get(("pass", "frozen"), []) for op in r["ops"]
                       if not op[2]]
    if frozen_failures:
        raise BenchError(f"the frozen reference failed its checks: {frozen_failures[:5]}")
    raw = time_metrics(setups["program"] + measured, program)
    rss = [r["peak_rss_mb"] for r in program]
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": dict(environment(), numpy=program[0]["numpy"],
                            loadavg_before=load_before, loadavg_after=os.getloadavg()),
        "passes": {"/".join(slot): len(v) for slot, v in passes.items()},
        "op_samples": sum(len(r["ops"]) for r in program),
        "program_raw": raw,
        "peak_rss_mb": quartiles(rss),
        "failures": failures[:50],
    }
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in
                   layer_metrics(passes[("trace", "program")], program).items()}
        details["layers_per_pass"] = [r["layers"] for r in passes[("trace", "program")]]
        details["counts_per_pass"] = [r["counts"] for r in passes[("trace", "program")]]
    else:
        frozen = time_metrics(setups["frozen"] + passes[("pass", "frozen")],
                              passes[("pass", "frozen")])
        ref = REFERENCE[workload]
        pass_scale = ref["pass_s"] / frozen["pass_s"]
        scale = {"setup_s": ref["setup_s"] / frozen["setup_s"], "pass_s": pass_scale,
                 "op_p50_ms": pass_scale, "op_p90_ms": pass_scale}
        details.update(frozen_raw=frozen, scale=scale)
        metrics = {k: {"value": raw[k] * scale[k], "unit": k.rsplit("_", 1)[1]} for k in scale}
        metrics.update({
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "ok_rate": {"value": (attempted - len(failures)) / attempted, "unit": "ratio"},
        })
    details["wall_s"] = time.monotonic() - started
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"details": details, "metrics": metrics}, indent=1)
    )
    return {
        "details": details,
        "result": {"correct": not failures, "attempted": attempted,
                   "failed": len(failures), "metrics": metrics},
    }


def time_metrics(workers: List[dict], untraced: List[dict]) -> dict:
    """The time metrics as measured: median set-up and pass time, and the op
    latency percentiles (each op's median over the passes, then percentiles
    over the ops), with the quartiles of the samples."""
    op_ms = op_latencies_ms(untraced)
    setup_s = [r["setup_s"] for r in workers]
    pass_s = [r["pass_s"] for r in untraced]
    return {
        "setup_s": statistics.median(setup_s),
        "pass_s": statistics.median(pass_s),
        "op_p50_ms": percentile(op_ms, 0.5),
        "op_p90_ms": percentile(op_ms, 0.9),
        "quartiles": {"setup_s": quartiles(setup_s), "pass_s": quartiles(pass_s),
                      "op_ms": quartiles(op_ms)},
    }


def op_latencies_ms(untraced: List[dict]) -> List[float]:
    """Each op's median latency over the passes of the run."""
    per_op: Dict[str, List[float]] = {}
    for r in untraced:
        for name, sec, _, _ in r["ops"]:
            per_op.setdefault(name, []).append(sec * 1e3)
    return [statistics.median(v) for v in per_op.values()]


def unit_of(name: str) -> str:
    kind = name.rsplit(".", 1)[1]
    return {"busy_s": "s", "pass_s": "s", "untraced_pass_s": "s", "overhead_s": "s",
            "share": "ratio", "coverage_min": "ratio", "ns_per_pairing": "ns",
            "ad_bytes": "bytes"}.get(kind, "count")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "thetatool" / "__init__.py").is_file():
        print(f"error: no thetatool source under {SRC}", file=sys.stderr)
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    d = out["details"]
    print(f"# {d['workload']} seed={d['seed']} passes={d['passes']} "
          f"op_samples={d['op_samples']} wall={d['wall_s']:.1f}s "
          f"loadavg {d['environment']['loadavg_before'][0]:.2f}->"
          f"{d['environment']['loadavg_after'][0]:.2f}")
    for name, f in d["failures"]:
        print(f"# FAILED {name}: {f}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
