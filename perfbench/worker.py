"""One cold pass in a fresh interpreter: set up (import thetatool and load
its catalog), then optionally run every op of a workload once.

    python3 perfbench/worker.py --workload W --seed N --mode setup|pass|trace \
        [--code program|frozen]

``--code frozen`` runs the reference copy of thetatool in ``frozen/``
instead of the program under ``src/``.

Prints one JSON object on its last stdout line.  In trace mode the spans are
also written to ``perfbench/out/trace-<workload>-seed<N>.json``, with the op
names in the order of the ``op`` spans.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CODE = {"program": HERE.parent / "src", "frozen": HERE / "frozen"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "trace"), required=True)
    ap.add_argument("--code", choices=tuple(CODE), default="program")
    args = ap.parse_args()

    sys.path.insert(0, str(CODE[args.code]))
    sys.path.insert(1, str(HERE))
    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer()
        import thetatool.cli  # noqa: F401  (every layer module, for install)

        tracing.install(tracer)
        tracer.enabled = True
    import workloads

    workloads.load_catalog()
    setup_s = time.perf_counter() - T_START
    if tracer is not None:
        tracer.enabled = False

    import thetatool
    import numpy

    out = {
        "setup_s": setup_s,
        "thetatool": str(Path(thetatool.__file__).resolve()),
        "numpy": numpy.__version__,
    }
    if args.mode != "setup":
        ops = workloads.make_ops(args.workload, args.seed)
        around = None
        if tracer is not None:

            def around(fn):
                tracer.enabled = True
                try:
                    return tracer.call(tracing.OP, fn)
                finally:
                    tracer.enabled = False

        records = workloads.run_pass(ops, around)
        out["ops"] = [[r.name, r.seconds, r.ok, r.detail] for r in records]
        out["pass_s"] = setup_s + sum(r.seconds for r in records)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            out["layers"] = {
                name: {"busy_s": row["busy_s"], "calls": row["calls"], "errors": dict(row["errors"])}
                for name, row in tracer.summary().items()
            }
            out["counts"] = dict(tracer.counts)
            out["coverage"] = tracer.op_coverage()
            trace_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.parent.mkdir(exist_ok=True)
            trace_file.write_text(json.dumps({"ops": [r.name for r in records], "spans": tracer.spans}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
