"""CLI contract: exit codes, JSON round-trip, report values."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from thetatool.cli import _poly_str, build_report, main
from thetatool.satake import catalog_lookup

# The benchmark's record of every catalog class of rank <= 8: its catalog
# columns and its JSON report.  Read here, never written.
BENCH_REFERENCE = (Path(__file__).resolve().parent.parent / "perfbench" / "reference"
                   / "catalog_seed.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_ev_components(capsys):
    code, out, _ = run_cli(capsys, "report", "E", "7", "EV", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["components"]["count"] == 2
    assert rep["schema"] == 1


def test_report_a2_ai_irreducible(capsys):
    code, out, _ = run_cli(capsys, "report", "A", "2", "AI", "--format", "json")
    assert code == 0
    assert json.loads(out)["components"]["count"] == 1


def test_report_g2(capsys):
    code, out, _ = run_cli(capsys, "report", "G", "2", "G", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert sorted(rep["weyl"]["degrees"]) == [2, 6]
    assert rep["weyl"]["order"] == 12
    assert rep["codim_nilcone"] == rep["dims"]["a"]


@pytest.mark.parametrize("coeffs, text", [
    ((1, 0, 2), "1 + 2t^2"),
    ((1, 2, 2, 2, 2, 2, 1), "1 + 2t + 2t^2 + 2t^3 + 2t^4 + 2t^5 + t^6"),  # G2
    ((0, 1, -1), "t + -1t^2"),
    ((), "0"),
], ids=["gap", "g2", "negative", "zero"])
def test_text_report_polynomial_format(coeffs, text):
    """The text report writes a coefficient list lowest degree first, with
    a coefficient of 1 left out after the constant term."""
    assert _poly_str(coeffs) == text


def test_report_unknown_label_exit_2(capsys):
    code, _, err = run_cli(capsys, "report", "A", "2", "NOPE")
    assert code == 2
    assert "AI" in err  # lists the available labels


def test_report_type_with_no_classes_names_its_catalog_type(capsys):
    """D3 is catalogued as A3: the error says so instead of listing no labels."""
    code, out, err = run_cli(capsys, "report", "D", "3", "DI(1)")
    assert code == 2
    assert out == ""
    assert err == (
        "error: no involution class 'DI(1)' for D3; D3 has no classes of its own: "
        "it is catalogued as A3\n"
    )
    assert "available" not in err


def test_report_invalid_type_exit_2(capsys):
    code, _, _ = run_cli(capsys, "report", "E", "5", "EV")
    assert code == 2


def test_report_cap_exceeded_partial_exit_0(capsys):
    code, out, _ = run_cli(capsys, "report", "E", "8", "EVIII", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["weyl"]["poincare"] is None
    assert "too large" in rep["weyl"]["poincare_skipped"]


def test_report_cap_override_allows_e8(capsys):
    code, out, _ = run_cli(
        capsys, "report", "E", "8", "EVIII", "--format", "json",
        "--cap", "1000000000",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["weyl"]["poincare"] is not None
    assert sum(rep["weyl"]["poincare"]) == 696729600


def test_json_round_trip():
    rep = build_report("D", 4, "DIII")
    assert json.loads(json.dumps(rep)) == rep


def test_reports_and_catalog_columns_match_the_benchmark_reference():
    """Each report, and the entry fields the benchmark's reference records,
    as recorded there for all 135 classes."""
    classes = json.loads(BENCH_REFERENCE.read_text())["classes"]
    assert len(classes) == 135
    for ref in classes:
        key = (ref["series"], ref["rank"], ref["label"])
        entry = catalog_lookup(*key)
        assert json.loads(json.dumps(build_report(*key))) == ref["report"], key
        assert entry.phi_a_type == ref["phiA"], key
        assert entry.components == ref["components"], key


@pytest.mark.parametrize("series, rank, label, prime", [
    ("A", 3, "AI", None), ("A", 3, "AI", 7), ("A", 3, "AI", 9), ("E", 6, "EII", 5),
])
def test_numpy_integer_arguments_give_the_same_json(series, rank, label, prime):
    """A numpy rank or prime is stored as a Python int: the JSON equals the
    one from Python-int arguments byte for byte (a good prime, a composite
    and none)."""
    want = json.dumps(build_report(series, rank, label, prime=prime))
    got = build_report(series, np.int64(rank), label,
                       prime=None if prime is None else np.int64(prime))
    assert json.dumps(got) == want


def test_list_d4(capsys):
    code, out, _ = run_cli(capsys, "list", "D", "4")
    assert code == 0
    assert "DIII" in out and "DI(2)" in out and "DI(3)" in out
    assert "quasi-split" in out and "split" in out


def test_list_e6_has_quasi_split_outer(capsys):
    code, out, _ = run_cli(capsys, "list", "E", "6", "--format", "json")
    assert code == 0
    data = json.loads(out)
    kinds = {c["label"]: c["kind"] for c in data["classes"]}
    assert kinds["EII"] == "quasi-split"


def test_list_a1_only_split(capsys):
    code, out, _ = run_cli(capsys, "list", "A", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert [c["label"] for c in data["classes"]] == ["AI"]


def test_verify_unknown_suite_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "nonsense")
    assert code == 2
    assert "poincare" in err


def test_verify_w0_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "w0")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_json_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "w0", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["checks"]) >= 13
    assert all(c["ok"] for c in data["checks"])


def test_report_with_prime(capsys):
    code, out, _ = run_cli(
        capsys, "report", "G", "2", "G", "--format", "json", "--prime", "5"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["p_good"]["good"] is True
    code, out, _ = run_cli(
        capsys, "report", "G", "2", "G", "--format", "json", "--prime", "3"
    )
    assert json.loads(out)["p_good"]["good"] is False


def test_report_composite_prime_not_good(capsys):
    for argv in (("A", "3", "AI", "--prime", "9"), ("G", "2", "G", "--prime", "15")):
        code, out, _ = run_cli(capsys, "report", *argv, "--format", "json")
        assert code == 0
        pg = json.loads(out)["p_good"]
        assert pg["good"] is False
        assert pg["witness"] == f"p = {pg['p']} is not an odd prime"


def test_report_large_prime_is_decided_quickly(capsys):
    """2^61 - 1 is tested by Miller-Rabin, not by 1.5e9 trial divisions."""
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "report", "A", "3", "AI", "--format", "json", "--prime", str(2**61 - 1)
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["p_good"] == {"p": 2**61 - 1, "good": True, "witness": "good"}


def test_report_prime_beyond_the_exact_bound_exit_2(capsys):
    p = 3_317_044_064_679_887_385_961_981 + 2  # odd, above the Miller-Rabin bound
    code, out, err = run_cli(capsys, "report", "A", "3", "AI", "--prime", str(p))
    assert code == 2
    assert out == ""
    assert err == f"error: p = {p} is too large to test for primality exactly\n"


def test_invalid_cap_exit_2(capsys):
    for cap in ("-1", "0", "2.5", "lots"):
        code, out, err = run_cli(capsys, "report", "A", "2", "AI", "--cap", cap)
        assert code == 2
        assert out == ""
        assert "error:" in err


def test_invalid_cap_environment_exit_2(capsys, monkeypatch):
    for value in ("lots", "-5"):
        monkeypatch.setenv("THETA_TOOL_CAP", value)
        for argv in (("report", "A", "2", "AI"), ("verify", "w0")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "error:" in err and "THETA_TOOL_CAP" in err


def test_invalid_cap_environment_does_not_break_list(capsys, monkeypatch):
    monkeypatch.setenv("THETA_TOOL_CAP", "abc")
    code, out, err = run_cli(capsys, "list", "A", "2")
    assert code == 0
    assert "AI" in out and err == ""


def test_options_a_command_does_not_read_exit_2(capsys):
    for argv in (
        ("list", "A", "2", "--cap", "10"),
        ("list", "A", "2", "--seed", "1"),
        ("list", "A", "2", "--prime", "4"),
        ("report", "A", "2", "AI", "--seed", "1"),
        ("verify", "w0", "--prime", "5"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "unrecognized arguments" in err


def test_cap_environment_float_notation(capsys, monkeypatch):
    monkeypatch.setenv("THETA_TOOL_CAP", "1e9")
    code, out, _ = run_cli(capsys, "report", "E", "8", "EVIII", "--format", "json")
    assert code == 0
    assert json.loads(out)["weyl"]["poincare"] is not None


def test_computation_errors_exit_1(capsys, monkeypatch):
    from thetatool import restricted
    from thetatool.nilcomp import ComponentCountError, OmegaError
    from thetatool.weylinv import DegreeError

    for exc_type in (restricted.RestrictionError, DegreeError, OmegaError,
                     ComponentCountError):
        def broken(inv, exc_type=exc_type):
            raise exc_type("injected failure")

        monkeypatch.setattr(restricted, "restrict", broken)
        for argv in (("report", "A", "2", "AI"), ("list", "A", "2")):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err == "error: injected failure\n"


def test_out_of_memory_exits_1_without_traceback():
    """``list A 1000`` under a 300 MB address-space limit runs out of memory
    and ends in one error line and exit 1."""
    resource = pytest.importorskip("resource")
    limit = 300 << 20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "thetatool.cli", "list", "A", "1000"],
        capture_output=True, text=True, env=env, preexec_fn=cap_address_space, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == "error: out of memory running list\n"
    assert "Traceback" not in proc.stdout + proc.stderr


def test_report_prime_bad_for_ambient_type(capsys):
    code, out, _ = run_cli(
        capsys, "report", "E", "8", "EIX", "--format", "json", "--prime", "5"
    )
    assert code == 0
    assert json.loads(out)["p_good"] == {
        "p": 5, "good": False,
        "witness": "highest root of ambient E8 has coefficient 6 >= p = 5",
    }
    code, out, _ = run_cli(capsys, "report", "E", "8", "EIX", "--prime", "5")
    assert "p = 5: NOT good (highest root of ambient E8" in out
