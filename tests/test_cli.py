import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import SPEC_DIR

SMALL_GRID = '{"kind":"polar","r_max":1.0,"n_r":3,"n_theta":4}'


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "lagdpw.cli", *args],
                          capture_output=True, text=True)


def test_build_clifford(tmp_path):
    out = tmp_path / "o"
    proc = run_cli("build", "--spec", str(SPEC_DIR / "clifford.json"),
                   "--grid", SMALL_GRID, "--out", str(out),
                   "--format", "csv,json,obj")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = (out / "samples.csv").read_text().strip().splitlines()
    assert len(lines) == 13  # header + 12 rows
    header = lines[0].split(",")
    u_col = header.index("u")
    for row in lines[1:]:
        assert abs(float(row.split(",")[u_col])) < 1e-8
    report = json.loads((out / "report.json").read_text())
    assert report["n_failures"] == 0
    mesh = (out / "mesh.obj").read_text()
    assert mesh.count("\nv ") + mesh.startswith("v ") == 12
    assert " f " in mesh or "\nf " in mesh


def test_build_deterministic_across_runs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    args = ("build", "--spec", str(SPEC_DIR / "rp2.json"),
            "--grid", SMALL_GRID)
    p1 = run_cli(*args, "--out", str(a))
    p2 = run_cli(*args, "--out", str(b))
    assert p1.returncode == 0 and p2.returncode == 0
    for name in ("samples.csv", "report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_validate_rp2(tmp_path):
    out = tmp_path / "v"
    proc = run_cli("validate", "--spec", str(SPEC_DIR / "rp2.json"),
                   "--grid", '{"kind":"polar","r_max":1.5,"n_r":3,"n_theta":4}',
                   "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((out / "report.json").read_text())
    assert report["passed"]
    assert report["horizontality"] < 1e-5
    assert report["conformality"] < 1e-5
    assert report["tzitzeica"] < 1e-4
    assert report["codazzi"] < 1e-5


def test_painleve_exact_case(tmp_path):
    out = tmp_path / "p"
    proc = run_cli("painleve", "--k", "0", "--n", "0", "--psi0", "1.0",
                   "--ak", "1.0", "--smax", "10", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = (out / "painleve.csv").read_text().strip().splitlines()[1:]
    worst = 0.0
    for row in rows:
        s, h, hd, res = (float(v) for v in row.split(","))
        worst = max(worst, abs(h - s ** (1 / 3)))
    assert worst < 1e-6


def test_painleve_seed_guard_exit_code(tmp_path):
    proc = run_cli("painleve", "--psi0", "2.0", "--s0", "1e-3",
                   "--out", str(tmp_path / "x"))
    assert proc.returncode == 3
    msg = json.loads(proc.stdout)
    assert msg["error"] == "SeedTooLarge"


def test_closing_command():
    proc = run_cli("closing", "--l1", "1", "--l2", "0", "--l3", "0")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["closed"]
    assert doc["delta"][0] == pytest.approx(2 * np.pi / 3)
    assert doc["k_residue"] == 2
    assert doc["residual"] < 1e-9


def test_symmetry_command_rotational():
    proc = run_cli("symmetry", "--spec", str(SPEC_DIR / "rotational_m4.json"),
                   "--grid", SMALL_GRID)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["m"] == 4
    assert doc["potential_residual"] < 1e-12
    assert doc["surface_residual"] < 1e-7


def test_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "normalized", "a": [[1,0]], "b": [], "zzz": 3}')
    proc = run_cli("build", "--spec", str(bad), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["error"] == "SchemaError"


def test_malformed_json_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    proc = run_cli("build", "--spec", str(bad), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2


def test_trunc_bound_rejected(tmp_path):
    proc = run_cli("build", "--spec", str(SPEC_DIR / "clifford.json"),
                   "--grid", SMALL_GRID, "--trunc", "2",
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2


def _build_with_grid(tmp_path, grid, *extra):
    return run_cli("build", "--spec", str(SPEC_DIR / "clifford.json"), "--grid", grid,
                   "--out", str(tmp_path / "o"), *extra)


def test_grid_non_numeric_field_is_schema_error(tmp_path):
    proc = _build_with_grid(tmp_path, '{"kind":"polar","r_max":"x","n_r":2,"n_theta":4}')
    assert proc.returncode == 2, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["error"] == "SchemaError" and doc["path"] == "grid.r_max"


def test_bool_count_and_bool_exponent_are_schema_errors(tmp_path):
    proc = _build_with_grid(tmp_path, '{"kind":"polar","r_max":1.0,"n_r":true,"n_theta":4}')
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["path"] == "grid.n_r"

    spec = tmp_path / "k_true.json"
    spec.write_text('{"kind": "radial_monomial", "k": true, "n": 0, '
                    '"a_k": 1.0, "psi0": -1.0}')
    proc = run_cli("build", "--spec", str(spec), "--grid", SMALL_GRID,
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["path"] == "k"


def test_non_finite_extent_is_schema_error(tmp_path):
    proc = _build_with_grid(tmp_path, '{"kind":"polar","r_max":1e400,"n_r":2,"n_theta":4}')
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["path"] == "grid.r_max"
    assert not (tmp_path / "o" / "report.json").exists()


def test_build_with_every_node_failed_exits_3(tmp_path):
    # |z| = 14 overflows trunc 8 (cf. test_truncation_overflow)
    proc = _build_with_grid(tmp_path, '{"kind":"polar","r_max":14.0,"n_r":1,"n_theta":1}',
                            "--trunc", "8", "--tol", "1e-8")
    assert proc.returncode == 3, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["error"] == "NoNodeSolved"
    assert "TruncationOverflow" in doc["message"]
