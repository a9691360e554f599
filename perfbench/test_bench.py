"""Self-tests of the benchmark itself (not of thetatool):

    python3 perfbench/test_bench.py        # about two minutes

They check that the computed counts of a traced pass repeat exactly and
that the layer spans cover each op to within 10%, that the correctness gate
counts a wrong or raising op as a failed op without stopping the pass, that
lie_centdim enumerates the same pairs as ``theta-tool verify centdim``, that
the printed metrics are the ones BENCHMARK.json lists, that the frozen
reference is unchanged, and that the benchmark refuses to run without the
thetatool sources.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from thetatool import cli, liealg, verify  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# the files of frozen/thetatool, the library as of commit df871fa
FROZEN_SHA256 = "58b9e37ad48faaffdb7f1e59ad3cea964b3fe1abd7af93a6db748679a10f9324"


def traced_pass(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--mode", "trace"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts_of(rec: dict) -> dict:
    out = dict(rec["counts"])
    out["calls"] = {name: row["calls"] for name, row in rec["layers"].items()}
    out["skipped"] = rec["layers"].get("weylinv.poincare_polynomial", {}).get(
        "errors", {}).get("CapExceededError", 0)
    return out


class TracedCounts(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = traced_pass(workload, 42), traced_pass(workload, 42)
                self.assertEqual(counts_of(first), counts_of(second))
                self.assertTrue(all(r[2] for r in first["ops"]))
                # the layer spans cover each op to within 10%, for ops long
                # enough (5 ms) that the wrappers' own cost stays below that
                self.assertGreaterEqual(
                    min(share for sec, share in first["coverage"] if sec >= 0.005), 0.9
                )
                metrics = run.layer_metrics([first, second], [first])
                self.assertEqual(sorted(metrics), sorted(m["name"] for m in BENCHMARK["per_layer"]))
                if workload == "catalog_sweep":
                    self.assertEqual(first["counts"]["restricted.restrict.pairings"], 273908)
                    self.assertEqual(counts_of(first)["skipped"], 4)


def by_name(ops, names):
    chosen = [op for op in ops if op.name in names]
    assert len(chosen) == len(names), [op.name for op in chosen]
    return chosen


class Gate(unittest.TestCase):
    def test_wrong_report_counts_as_failed_op(self):
        ops = by_name(workloads.make_ops("catalog_sweep", 42),
                      {"A3 AI", "G2 G", "E6 EII", "C2 CI"})
        real = cli.build_report

        def wrong(series, rank, label, **kw):
            rep = real(series, rank, label, **kw)
            if label == "G":
                rep["components"]["count"] += 1
            if label == "EII":
                rep["weyl"]["poincare"][1] += 1
            return rep

        cli.build_report = wrong
        try:
            records = workloads.run_pass(ops)
        finally:
            cli.build_report = real
        self.assertEqual(len(records), 4)
        self.assertEqual(sorted(r.name for r in records if not r.ok), ["E6 EII", "G2 G"])

    def test_wrong_centralizer_dims_and_raising_op_count_as_failed(self):
        names = {"A1/chevalley/p=5", "A2/chevalley/p=5", "G2/G/p=7", "B2/chevalley/p=7"}
        ops = by_name(workloads.make_ops("lie_centdim", 42), names)
        real_dims = liealg.SymmetricPairRealization.centralizer_dims
        real_build = liealg.build_algebra

        def wrong_dims(pair, x):
            zk, zp = real_dims(pair, x)
            return (zk + 1, zp) if pair.alg.rs.series == "A" and pair.alg.rs.rank == 2 else (zk, zp)

        def raising_build(series, rank, p):
            if series == "G":
                raise liealg.LieAlgebraError("injected")
            return real_build(series, rank, p)

        liealg.SymmetricPairRealization.centralizer_dims = wrong_dims
        liealg.build_algebra = raising_build
        try:
            records = workloads.run_pass(ops)
        finally:
            liealg.SymmetricPairRealization.centralizer_dims = real_dims
            liealg.build_algebra = real_build
        self.assertEqual(len(records), 4)
        self.assertEqual(sorted(r.name for r in records if not r.ok),
                         ["A2/chevalley/p=5", "G2/G/p=7"])

    def test_centdim_pairs_match_the_verify_suite(self):
        ours = [workloads.pair_name(*x) for x in workloads.centdim_pairs()]
        suite = [name for name, _, _ in verify.realized_pairs()]
        self.assertEqual(len(ours), 120)
        self.assertEqual(sorted(ours), sorted(suite))


class Output(unittest.TestCase):
    def test_frozen_reference_is_untouched(self):
        digest = hashlib.sha256()
        for f in sorted((HERE / "frozen" / "thetatool").iterdir()):
            if f.is_file():
                digest.update(f.name.encode())
                digest.update(f.read_bytes())
        self.assertEqual(digest.hexdigest(), FROZEN_SHA256)

    def test_workload_lists_agree(self):
        names = tuple(w["name"] for w in BENCHMARK["workloads"])
        self.assertEqual(run.WORKLOADS, names)
        self.assertEqual(workloads.WORKLOADS, names)
        self.assertEqual(sorted(run.REFERENCE), sorted(names))

    def test_last_line_carries_every_end_to_end_metric(self):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "lie_centdim",
             "--seed", "3", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]),
                         sorted(m["name"] for m in BENCHMARK["end_to_end"]))
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(result["metrics"][m["name"]]["value"], 0)


class BareDirectory(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "catalog_sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
