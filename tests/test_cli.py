import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from conftest import SPEC_DIR
from lagdpw import cli, geometry
from lagdpw.potentials import MAX_TRUNC

SRC_DIR = SPEC_DIR.parents[1]

SMALL_GRID = '{"kind":"polar","r_max":1.0,"n_r":3,"n_theta":4}'


def run_cli(*args, timeout=None):
    """``lagdpw`` with these arguments, as a finished process.

    In-process through cli.main, with stdout and stderr captured and every
    warning written to stderr as a fresh interpreter would; argparse's
    rejections leave main by SystemExit.  A ``timeout`` guards against a
    hang, which only a separate process can: the command then runs as
    ``python -m lagdpw.cli``.
    """
    if timeout is not None:
        return run_module(*args, timeout=timeout)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    err.writelines(warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
                   for w in caught)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_module(*args, timeout=60):
    return subprocess.run([sys.executable, "-m", "lagdpw.cli", *args], capture_output=True,
                          text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": str(SRC_DIR)})


def test_build_clifford(tmp_path):
    # the one smoke test of the module entry point
    out = tmp_path / "o"
    proc = run_module("build", "--spec", str(SPEC_DIR / "clifford.json"),
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
    for spec in ("clifford", "radial_ab", "radial_k1", "rotational_m4", "rp2"):
        a = tmp_path / spec / "a"
        b = tmp_path / spec / "b"
        args = ("build", "--spec", str(SPEC_DIR / f"{spec}.json"),
                "--grid", SMALL_GRID)
        p1 = run_cli(*args, "--out", str(a))
        p2 = run_cli(*args, "--out", str(b))
        assert p1.returncode == 0 and p2.returncode == 0, spec
        for name in ("samples.csv", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), (spec, name)


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
    # s0 = 0.5 lies beyond the radius where the seed series is accurate
    proc = run_cli("painleve", "--psi0", "2.0", "--s0", "0.5",
                   "--out", str(tmp_path / "x"))
    assert proc.returncode == 3
    msg = json.loads(proc.stdout)
    assert msg["error"] == "SeedTooLarge"


@pytest.mark.parametrize("s0", ["0", "-1e-3", "nan"])
def test_painleve_nonpositive_s0_is_domain_error(tmp_path, s0):
    proc = run_cli("painleve", f"--s0={s0}", "--out", str(tmp_path / "x"))
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"] == "DomainError"


@pytest.mark.parametrize("flag, value", [("--tol", "nan"), ("--tol", "0"), ("--tol", "-1"),
                                         ("--tol", "inf"), ("--smax", "nan"),
                                         ("--smax", "inf")])
def test_painleve_bad_tol_or_smax_is_domain_error(tmp_path, flag, value):
    # NaN and inf used to run without end, and tol 0 ran silently at 1e-10;
    # the timeout keeps a hang from stalling the suite
    proc = run_cli("painleve", f"{flag}={value}", "--out", str(tmp_path / "x"), timeout=60)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"] == "DomainError"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("h", ["0", "-1e-3", "nan", "inf"])
def test_validate_bad_stencil_step_is_domain_error(tmp_path, h):
    # h = 0 used to certify the surface with every residual at 0.0, since
    # max() drops the NaN difference quotients
    proc = run_cli("validate", "--spec", str(SPEC_DIR / "rp2.json"), "--grid", SMALL_GRID,
                   f"--h={h}", "--out", str(tmp_path / "v"), timeout=60)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"] == "DomainError"
    assert not (tmp_path / "v" / "report.json").exists()


@pytest.mark.parametrize("command", ["build", "validate", "symmetry"])
def test_frame_tol_option_is_gone(tmp_path, command, capsys):
    # the frame is an exact Picard sum; only painleve keeps --tol
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--spec", str(SPEC_DIR / "clifford.json"), "--tol", "1e-8",
                  "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_closing_command():
    proc = run_cli("closing", "--l1", "1", "--l2", "0", "--l3", "0")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["closed"]
    assert doc["delta"][0] == pytest.approx(2 * np.pi / 3)
    assert doc["k_residue"] == 2
    assert doc["residual"] < 1e-9


@pytest.mark.parametrize("value", ["nan", "1e300", "0", "2", "abc", "1,1j"])
def test_closing_bad_lambda0_is_schema_error(value):
    # off S^1, non-finite or not exactly one value: no bare NaN, no traceback
    proc = run_cli("closing", "--l1", "1", "--l2", "0", "--l3", "0", "--lambda0", value)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"] == "SchemaError"
    assert not proc.stderr


def test_symmetry_command_rotational():
    proc = run_cli("symmetry", "--spec", str(SPEC_DIR / "rotational_m4.json"),
                   "--grid", SMALL_GRID)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["m"] == 4
    assert doc["potential_residual"] < 1e-12
    assert doc["surface_residual"] < 1e-7


@pytest.mark.parametrize("spec", ["rotational_m4", "radial_ab"])
def test_symmetry_without_a_node_to_check_is_too_coarse(spec):
    # no node lies in 0.05 < |z| < 0.9: the rotational check used to report
    # a surface residual of 0.0, the radial one to check an off-grid point
    proc = run_cli("symmetry", "--spec", str(SPEC_DIR / f"{spec}.json"),
                   "--grid", '{"kind":"polar","r_max":0.04,"n_r":2,"n_theta":4}')
    assert proc.returncode == 3, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["error"] == "GridTooCoarse"


@pytest.mark.parametrize("command", ["build", "validate"])
@pytest.mark.parametrize("spec_lambda, flag", [(None, ","), ([], None), ([2], None),
                                               (None, "2")])
def test_bad_lambda_list_is_schema_error(tmp_path, capsys, command, spec_lambda, flag):
    # an empty list used to end validate in an IndexError and build with 0
    # samples; a spec value off S^1 was a ValueError (exit 3), unlike --lambda
    doc = json.loads((SPEC_DIR / "rp2.json").read_text())
    if spec_lambda is not None:
        doc["lambda"] = spec_lambda
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    argv = [command, "--spec", str(spec), "--grid", SMALL_GRID, "--out", str(tmp_path / "o")]
    code = cli.main(argv + ([f"--lambda={flag}"] if flag is not None else []))
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == "SchemaError"
    assert not (tmp_path / "o").exists()


def test_schema_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "normalized", "a": [[1,0]], "b": [], "zzz": 3}')
    proc = run_cli("build", "--spec", str(bad), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc["error"] == "SchemaError"


_NIL = [0.0, 0.0]


def _clifford_d(x):
    """JSON "d" field {-1: x A_CLIFFORD, 1: tau(x A_CLIFFORD)} for a complex x."""
    return {"-1": [[_NIL, _NIL, x], [x, _NIL, _NIL], [_NIL, x, _NIL]],
            "1": [[_NIL, x, _NIL], [_NIL, _NIL, x], [x, _NIL, _NIL]]}


# 1e308 i * A_CLIFFORD and its tau image: the twist check overflows
_OVERFLOWING_D = _clifford_d([0.0, 1e308])


@pytest.mark.parametrize("doc, path", [
    ({"kind": "vacuum", "a": 0, "b": 0}, "a"),
    ({"kind": "radial_monomial", "k": 0, "n": 0, "a_k": 1e100, "b_n": 1e300}, "b_n"),
    ({"kind": "normalized", "a": [1e200], "b": [1]}, "a"),
    ({"kind": "constant_degree_one", "d": _OVERFLOWING_D}, "d"),
    # rejections that only a constructor makes: b(0) != 0 is a pole of the
    # rotational slot z^-3 b(z^m) (exit 3 before), and an identically zero a
    # made an all-singular surface (build exited 0 with "status": "ok")
    ({"kind": "rotational", "m": 3, "a": [1], "b": [1]}, "b"),
    ({"kind": "normalized", "a": [0], "b": [1]}, "a"),
    ({"kind": "normalized", "a": [], "b": []}, "a"),
    ({"kind": "rotational", "m": 3, "a": [], "b": []}, "a"),
])
def test_degenerate_potential_is_schema_error(tmp_path, doc, path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    proc = run_cli("build", "--spec", str(spec), "--grid", SMALL_GRID,
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    out = json.loads(proc.stdout)
    assert out["error"] == "SchemaError" and out["path"] == path
    assert not (tmp_path / "o" / "report.json").exists()


def test_mesh_has_one_vertex_per_node_for_any_lambda_list(tmp_path, capsys):
    # a repeated first lambda_0 used to add a second vertex per node
    meshes = []
    for name, lam in (("one", "1"), ("repeat", "1,0.6+0.8j,1")):
        assert cli.main(["build", "--spec", str(SPEC_DIR / "clifford.json"), "--grid",
                         SMALL_GRID, f"--lambda={lam}", "--format", "obj",
                         "--out", str(tmp_path / name)]) == 0
        meshes.append((tmp_path / name / "mesh.obj").read_text())
    assert meshes[1] == meshes[0]
    assert meshes[0].count("\nv ") == 12


def test_validate_report_has_no_bare_nan(tmp_path, monkeypatch, capsys):
    nan_report = geometry.ResidualReport(
        horizontality=math.nan, conformality=math.inf, unitarity=0.0,
        determinant=0.0, tzitzeica=0.0, codazzi=0.0, stencil_h=1e-3)
    monkeypatch.setattr(geometry, "certify", lambda *args, **kwargs: nan_report)
    out = tmp_path / "v"
    code = cli.main(["validate", "--spec", str(SPEC_DIR / "rp2.json"),
                     "--grid", SMALL_GRID, "--out", str(out)])
    assert code == 4

    def reject(constant):
        raise ValueError(f"bare {constant} in JSON")

    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    assert report["horizontality"] == "nan" and report["conformality"] == "inf"
    assert report["passed"] is False
    status = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert status["failed"] == {"horizontality": "nan", "conformality": "inf"}


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


@pytest.mark.parametrize("trunc", [MAX_TRUNC + 1, 1_000_000_000])
def test_trunc_ceiling_is_schema_error(tmp_path, trunc):
    # refused at load, before a frame of that size is allocated
    proc = run_cli("build", "--spec", str(SPEC_DIR / "clifford.json"),
                   "--grid", SMALL_GRID, "--trunc", str(trunc),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["error"] == "SchemaError" and doc["path"] == "trunc"


def _build_with_grid(tmp_path, grid, *extra, timeout=None):
    return run_cli("build", "--spec", str(SPEC_DIR / "clifford.json"), "--grid", grid,
                   "--out", str(tmp_path / "o"), *extra, timeout=timeout)


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


def test_build_flags_a_truncated_unitary_factor(tmp_path):
    # the frame's boundary coefficient passes the 1e-6 rule at trunc 16, the
    # unitary factor h's does not (4.6e-2 of its peak at the corners); the
    # build used to exit 0 with no failure and an Iwasawa residual of 7.1e3
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "rotational", "m": 6, "a": [[0, 5127.301873607869]],
                                "b": [0, [5.4616485780672416e-05, 0.6016043232480199]]}))
    proc = run_cli("build", "--spec", str(spec), "--out", str(tmp_path / "o"), "--grid",
                   '{"kind":"cartesian","extent":0.11025569938055528,"nx":5,"ny":3}')
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["n_failures"] == 8 and report["n_samples"] == 7
    assert {f["error"] for f in report["failures"]} == {"TruncationOverflow"}
    # the known limit: the 7 nodes left pass the rule with h's tail at up to
    # 1.7e-7 of its peak and residuals up to 1.07e-2
    assert report["max_iwasawa_residual"] < 2e-2


def test_build_with_every_node_failed_exits_3(tmp_path):
    # |z| = 14 overflows trunc 8 (cf. test_truncation_overflow)
    proc = _build_with_grid(tmp_path, '{"kind":"polar","r_max":14.0,"n_r":1,"n_theta":1}',
                            "--trunc", "8")
    assert proc.returncode == 3, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["error"] == "NoNodeSolved"
    assert "TruncationOverflow" in doc["message"]


def test_constant_degree_one_overflow_is_pole_on_path(tmp_path):
    # 1e307 keeps the Wiener norm finite, so the spec loads; exp(z D) then
    # overflows at every node, which must fail typed and without warnings
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "constant_degree_one",
                                "d": _clifford_d([0.0, 1e307])}))
    proc = run_cli("build", "--spec", str(spec),
                   "--grid", '{"kind":"polar","r_max":1.0,"n_r":1,"n_theta":2}',
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 3, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["error"] == "NoNodeSolved"
    assert "PoleOnPath" in doc["message"]
    assert proc.stderr == ""


@pytest.mark.parametrize("d, r_max", [
    # x lambda^-1 A_CLIFFORD: exp(z D) overflows inside loop_exp's window
    # before its last squaring
    ({"-1": _clifford_d([1e15, 0.0])["-1"]}, 1.0),
    ({"-1": _clifford_d([1e100, 0.0])["-1"]}, 1.0),
    # every coefficient of 12 D is finite, but its Wiener norm is not
    (_clifford_d([0.0, 1e307]), 12.0),
])
def test_constant_degree_one_overflow_in_loop_exp_is_pole_on_path(tmp_path, d, r_max):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"kind": "constant_degree_one", "d": d}))
    grid = {"kind": "polar", "r_max": r_max, "n_r": 1, "n_theta": 2}
    proc = run_cli("build", "--spec", str(spec), "--grid", json.dumps(grid),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 3, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["error"] == "NoNodeSolved"
    assert "PoleOnPath" in doc["message"]
    assert proc.stderr == ""


def test_grid_node_cap_is_schema_error(tmp_path):
    proc = _build_with_grid(
        tmp_path, '{"kind":"polar","r_max":1,"n_r":1000000000000,"n_theta":1000000}')
    assert proc.returncode == 2, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["error"] == "SchemaError" and doc["path"] == "grid"


def test_far_ring_overflows_without_integrating(tmp_path):
    # at |z| = 1e6 every node overflows trunc 16; the exact frame decides that
    # at once (a time-stepping integrator would crawl out to the node)
    proc = _build_with_grid(
        tmp_path, '{"kind":"polar","r_min":1e6,"r_max":1e6,"n_r":1,"n_theta":1}',
        timeout=30)
    assert proc.returncode == 3, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["error"] == "NoNodeSolved"
    assert "TruncationOverflow" in doc["message"]


def test_build_never_loads_scipy(tmp_path):
    # scipy is imported on first use by su3.expm3 and the PIII solver only
    code = textwrap.dedent(f"""
        import sys
        import numpy as np
        from lagdpw import cli
        rc = cli.main(["build", "--spec", {str(SPEC_DIR / "clifford.json")!r},
                       "--grid", '{{"kind":"polar","r_max":1.0,"n_r":1,"n_theta":4}}',
                       "--out", {str(tmp_path / "o")!r}])
        assert rc == 0, rc
        loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        assert not loaded, loaded
        from lagdpw import painleve, su3
        x = np.diag([1j, -1j, 0.0])
        assert np.allclose(su3.expm3(x), np.diag(np.exp(np.diag(x))), atol=1e-14)
        sol = painleve.solve_piii(painleve.PainleveParams(0, 0, 1.0, 1.0), s_max=1.0)
        assert np.max(np.abs(sol.h - sol.s_samples ** (1 / 3))) < 1e-6
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC_DIR)}, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "o" / "samples.csv").is_file()


_RING = '{"kind":"polar","r_max":0.6,"n_r":1,"n_theta":5}'
_RESIDUALS = tuple(cli.VALIDATE_THRESHOLDS)


def _validate(tmp_path, name, lam, spec="rp2.json", grid=_RING):
    out = tmp_path / name
    code = cli.main(["validate", "--spec", str(SPEC_DIR / spec), "--grid", grid,
                     f"--lambda={lam}", "--out", str(out)])
    return code, out / "report.json"


def test_validate_certifies_every_lambda0(tmp_path, capsys, monkeypatch):
    # only the first value used to be certified, and the report named none
    runs = [_validate(tmp_path, name, lam)
            for name, lam in (("one", "1"), ("two", "0.6+0.8j"), ("both", "1,0.6+0.8j"))]
    assert [code for code, _ in runs] == [0, 0, 0]
    one, two, both = (json.loads(path.read_text()) for _, path in runs)
    assert both["lambda0"] == [one["lambda0"][0], two["lambda0"][0]]
    assert two["lambda0"][0] == pytest.approx([0.6, 0.8])
    for key in _RESIDUALS:
        assert both[key] == max(one[key], two[key]), key
    # a threshold between the two lambda_0 fails the list as a whole
    key = max(_RESIDUALS, key=lambda k: abs(one[k] - two[k]))
    assert one[key] != two[key]
    monkeypatch.setitem(cli.VALIDATE_THRESHOLDS, key, min(one[key], two[key]))
    code, path = _validate(tmp_path, "again", "1,0.6+0.8j")
    assert code == 4 and json.loads(path.read_text())["passed"] is False


def test_validate_all_singular_grid_is_too_coarse(tmp_path, capsys):
    # every node sits inside e^{u/2} < 1e-10; the run used to pass with zeros
    spec = tmp_path / "k3.json"
    spec.write_text(json.dumps({"kind": "radial_monomial", "k": 3, "n": 0,
                                "a_k": 1.0, "psi0": -1.0}))
    code = cli.main(["validate", "--spec", str(spec), "--grid",
                     '{"kind":"polar","r_max":1e-4,"n_r":1,"n_theta":5}',
                     "--out", str(tmp_path / "v")])
    assert code == 3
    assert json.loads(capsys.readouterr().out)["error"] == "GridTooCoarse"
    assert not (tmp_path / "v").exists()


def test_symmetry_takes_the_max_over_lambda0(capsys):
    def surface_residual(lam):
        assert cli.main(["symmetry", "--spec", str(SPEC_DIR / "rotational_m4.json"),
                         "--grid", SMALL_GRID, f"--lambda={lam}"]) == 0
        return json.loads(capsys.readouterr().out)

    one, two, both = (surface_residual(lam) for lam in ("1", "0.6+0.8j", "1,0.6+0.8j"))
    assert both["lambda0"] == [one["lambda0"][0], two["lambda0"][0]]
    assert both["surface_residual"] == max(one["surface_residual"], two["surface_residual"])
