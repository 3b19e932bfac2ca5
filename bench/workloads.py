"""Seeded inputs, jobs and output checks of the three benchmark workloads.

A workload is a fixed list of jobs (one *pass*); the runner repeats passes in
a closed loop with one client.  A job is one top-level call into the public
entry points (``lagdpw.cli.main``, ``painleve.crosscheck``,
``factorization.iwasawa``/``birkhoff``); only that call is timed.  Every job
has an output check that runs after the timer stops and relies on closed
forms, documented thresholds or the benchmark's own numpy evaluation, never
on the layer that produced the output.

The seed moves only the lambda_0 values, the grid placement (a uniform
scaling of each bundled polar grid by a factor in [0.98, 1]) and the random
loops; the spec set and the node count per pass never change.

Jobs are kept short (mostly well under a second) and many, so that the
median over a run's repetitions of each job, summed over a pass, averages
over the shared machine's changes of speed within the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from lagdpw import cli, dpw, factorization, loops, painleve, potentials, su3

SPEC_DIR = Path(cli.__file__).resolve().parent / "specs"
SPECS = ("clifford", "rp2", "radial_k1", "radial_ab", "rotational_m4")
PIII_SPECS = ("clifford", "radial_ab", "radial_k1")  # specs with a PIII reduction
WORKLOADS = ("build", "validate", "crosscheck")

BUILD_TRUNC = 16
CROSSCHECK_TRUNC = 36
CROSSCHECK_RANGE = (1e-3, 5.0)
CROSSCHECK_POINTS = 40  # painleve.crosscheck's default n_points
CROSSCHECK_PIECES = 4   # the 40 points as 4 calls on consecutive sub-ranges
ROUND_TRIPS = 24
VALIDATE_RING = 5
VALIDATE_RADIUS = 0.3   # the validate ring's radius, as a share of the bundled r_max
ROUND_TRIP_TRUNC = 16

ORACLE_TOL = 1e-6        # lift/u/psi of the closed-form Clifford and rp2 surfaces
CROSSCHECK_TOL = 1e-4    # DPW vs PIII metric gap (acceptance criterion 6)
ROUND_TRIP_TOL = 1e-8    # reconstruction and unitarity of the factors on S^1
PAINLEVE_SAMPLES = 400   # rows solve_piii produces by default
# the frozen samples.csv column order documented in the README
CSV_COLUMNS = ("z_re", "z_im", "lift1_re", "lift1_im", "lift2_re", "lift2_im",
               "lift3_re", "lift3_im", "u", "psi_re", "psi_im", "v0_re", "v0_im",
               "lambda0_re", "lambda0_im", "singular", "iwasawa_residual", "tail_norm")


@dataclass
class Outcome:
    """What a job's output check found."""
    nodes: int = 0                                 # DPW nodes completed
    errors: list = field(default_factory=list)     # failed operations
    problems: list = field(default_factory=list)   # wrong or non-finite outputs
    accuracy: dict = field(default_factory=dict)   # name -> value for this job
    bytes_written: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors and not self.problems

    def measure(self, name: str, value: float):
        value = float(value)
        if math.isfinite(value):
            self.accuracy[name] = value
        else:
            self.problems.append(f"{name} is not finite")


@dataclass
class Job:
    name: str
    call: Callable[[], object]                 # the timed top-level call
    check: Callable[[object, Outcome], None]   # untimed output check
    prepare: Callable[[], None] = lambda: None  # untimed, before the call


# -- helpers -------------------------------------------------------------------

def _bundled(name: str) -> dict:
    return json.loads((SPEC_DIR / f"{name}.json").read_text())


def _scaled_grid(grid: dict, factor: float) -> dict:
    out = dict(grid)
    for key in ("r_max", "r_min"):
        if key in out:
            out[key] = out[key] * factor
    return out


def _fmt_lambda(lam: complex) -> str:
    return f"{lam.real:.17g}{lam.imag:+.17g}j"


def _run_cli(argv):
    """cli.main with its one-line JSON status captured: (exit code, status)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    lines = buf.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


def _status(result, outcome: Outcome):
    """The parsed status line of a command that should have exited 0."""
    code, line = result
    if code != 0:
        outcome.errors.append(f"exit code {code}: {line}")
        return None
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        outcome.problems.append(f"status line is not JSON: {line!r}")
        return None


def _finite_json(doc, outcome: Outcome, where: str):
    """Every number in a JSON report must be finite (JSON NaN/Infinity too)."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            _finite_json(value, outcome, f"{where}.{key}")
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            _finite_json(value, outcome, f"{where}[{i}]")
    elif isinstance(doc, float) and not math.isfinite(doc):
        outcome.problems.append(f"{where} = {doc}")


def _read_json(path: Path, outcome: Outcome):
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        outcome.problems.append(f"{path.name}: {exc}")
        return None
    _finite_json(doc, outcome, path.name)
    return doc


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _fresh(path: Path):
    shutil.rmtree(path, ignore_errors=True)


def _evaluate(loop, lams: np.ndarray) -> np.ndarray:
    """The loop's values at lams from its coefficients, by plain numpy."""
    degrees = loop.min_degree + np.arange(loop.coeffs.shape[0])
    powers = lams[:, None] ** degrees[None, :]
    return np.einsum("ld,dij->lij", powers, loop.coeffs)


def _op_norm_max(a: np.ndarray) -> float:
    return float(np.max(np.linalg.norm(a, 2, axis=(1, 2))))


# -- build -----------------------------------------------------------------------

_ORACLES = {"clifford": lambda z, lam: dpw.clifford_oracle(z, lam),
            "rp2": lambda z, lam: dpw.rp2_oracle(1j, z, lam)}


def _check_oracle_rows(name, rows, outcome: Outcome):
    """Clifford and rp2 rows against their closed forms (lift phase-aligned)."""
    oracle = _ORACLES[name]
    worst = 0.0
    for row in rows:
        z = complex(row["z_re"], row["z_im"])
        lam = complex(row["lambda0_re"], row["lambda0_im"])
        lift = np.array([complex(row[f"lift{i}_re"], row[f"lift{i}_im"])
                         for i in (1, 2, 3)])
        exact = oracle(z, lam)
        phase = np.vdot(exact.lift, lift)
        phase = phase / abs(phase) if abs(phase) > 0 else 1.0
        worst = max(worst, float(np.max(np.abs(lift - phase * exact.lift))),
                    abs(row["u"] - exact.u),
                    abs(complex(row["psi_re"], row["psi_im"]) - exact.psi))
    outcome.measure("oracle_err_max", worst)
    if not worst < ORACLE_TOL:
        outcome.problems.append(f"{name}: rows deviate from the closed form by {worst:.3e}")


def _parse_samples(text: str, outcome: Outcome):
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        outcome.problems.append("samples.csv header differs from the frozen columns")
        return []
    rows = []
    for line in lines[1:]:
        row = dict(zip(CSV_COLUMNS, (float(c) for c in line.split(","))))
        bad = [k for k, v in row.items() if not math.isfinite(v)
               and not (k == "u" and row["singular"] == 1.0)]
        if bad:
            outcome.problems.append(f"non-finite {bad} in samples.csv")
        rows.append(row)
    return rows


def _rings(grid: dict) -> list[dict]:
    """A polar grid as one single-ring grid per radius: the same nodes."""
    g = dpw.GridSpec.from_dict(grid)
    r0 = g.r_min if g.r_min is not None else g.r_max / g.n_r
    return [{"kind": "polar", "r_min": float(r), "r_max": float(r), "n_r": 1,
             "n_theta": g.n_theta} for r in np.linspace(r0, g.r_max, g.n_r)]


def _build_job(name: str, grid: dict, lam0: complex, out: Path) -> Job:
    n_nodes = len(dpw.GridSpec.from_dict(grid).nodes())
    lambdas = [1.0, lam0]
    argv = ["build", "--spec", str(SPEC_DIR / f"{name}.json"), "--grid", json.dumps(grid),
            "--lambda=1," + _fmt_lambda(lam0), "--trunc", str(BUILD_TRUNC),
            "--out", str(out), "--format", "csv,json"]
    digest = {}

    def check(result, outcome: Outcome):
        if _status(result, outcome) is None:
            return
        report = _read_json(out / "report.json", outcome)
        try:
            text = (out / "samples.csv").read_text()
        except OSError as exc:
            outcome.problems.append(f"samples.csv: {exc}")
            return
        outcome.bytes_written = _dir_bytes(out)
        sha = hashlib.sha256(text.encode()).hexdigest()
        if digest.setdefault("sha", sha) != sha:
            outcome.problems.append("samples.csv differs from the first pass of this run")
        rows = _parse_samples(text, outcome)
        if report is None:
            return
        for failure in report.get("failures", []):
            outcome.errors.append(f"node failed: {failure.get('error')}")
        if len(rows) != report.get("n_samples") or len(rows) % len(lambdas):
            outcome.problems.append(f"{len(rows)} rows vs n_samples {report.get('n_samples')}")
        outcome.nodes = len(rows) // len(lambdas)
        if outcome.nodes + len(report.get("failures", [])) != n_nodes:
            outcome.problems.append(f"{outcome.nodes} nodes sampled of {n_nodes}")
        outcome.measure("iwasawa_residual_max", report.get("max_iwasawa_residual", math.nan))
        outcome.measure("tail_norm_max", report.get("max_tail_norm", math.nan))
        if name in _ORACLES:
            _check_oracle_rows(name, rows, outcome)

    return Job(f"build:{out.name}", lambda: _run_cli(argv), check, lambda: _fresh(out))


def build(rng: np.random.Generator, out: Path) -> list[Job]:
    """All five bundled specs on their bundled grids, lambda_0 in {1, seeded}.

    Each grid is built one ring per call, so that a job is short.
    """
    lam0 = complex(np.exp(2j * np.pi * rng.random()))
    jobs = []
    for name in SPECS:
        grid = _scaled_grid(_bundled(name)["grid"], 0.98 + 0.02 * rng.random())
        jobs += [_build_job(name, ring, lam0, out / f"{name}.r{i}")
                 for i, ring in enumerate(_rings(grid))]
    return jobs


# -- validate --------------------------------------------------------------------

def _validate_job(name: str, grid: dict, lam0: complex, out: Path) -> Job:
    n_nodes = sum(1 for z in dpw.GridSpec.from_dict(grid).nodes() if abs(z) > 1e-9)
    argv = ["validate", "--spec", str(SPEC_DIR / f"{name}.json"), "--grid", json.dumps(grid),
            "--lambda=" + _fmt_lambda(lam0), "--out", str(out)]

    def check(result, outcome: Outcome):
        code = result[0]
        if code == 4:
            outcome.problems.append(f"thresholds exceeded: {result[1]}")
        elif _status(result, outcome) is None:
            return
        report = _read_json(out / "report.json", outcome)
        if report is None:
            return
        outcome.bytes_written = _dir_bytes(out)
        margins = []
        for key, threshold in cli.VALIDATE_THRESHOLDS.items():
            value = report.get(key, math.nan)
            if not value <= threshold:
                outcome.problems.append(f"{key} = {value} exceeds {threshold}")
            elif value > 0:
                margins.append(math.log10(threshold / value))
        if report.get("passed") is not True and not outcome.problems:
            outcome.problems.append("report says passed is not true")
        if not outcome.problems:
            outcome.nodes = n_nodes
            if margins:
                outcome.measure("certify_margin_digits", min(margins))

    return Job(f"validate:{name}", lambda: _run_cli(argv), check, lambda: _fresh(out))


def validate(rng: np.random.Generator, out: Path) -> list[Job]:
    """Each bundled spec on a ring of 5 nodes at 0.3 of its bundled r_max, at a seeded lambda_0.

    Five nodes is the fewest ``geometry.certify`` accepts; a single small
    ring keeps a job short, so a run repeats every job often.  radial_k1
    certifies with the least margin there (0.9 digits, against 0.6 at a
    quarter of r_max).
    """
    lam0 = complex(np.exp(2j * np.pi * rng.random()))
    jobs = []
    for name in SPECS:
        # with n_r = 1 the ring lies at r_max
        grid = {"kind": "polar", "r_max": VALIDATE_RADIUS * _bundled(name)["grid"]["r_max"],
                "n_r": 1, "n_theta": VALIDATE_RING}
        grid = _scaled_grid(grid, 0.98 + 0.02 * rng.random())
        jobs.append(_validate_job(name, grid, lam0, out / name))
    return jobs


# -- crosscheck ------------------------------------------------------------------

def _painleve_job(out: Path) -> Job:
    argv = ["painleve", "--spec", str(SPEC_DIR / "radial_ab.json"), "--s0", "1e-7",
            "--out", str(out)]

    def check(result, outcome: Outcome):
        status = _status(result, outcome)
        if status is None:
            return
        _finite_json(status, outcome, "painleve status")
        try:
            lines = (out / "painleve.csv").read_text().splitlines()
        except OSError as exc:
            outcome.problems.append(f"painleve.csv: {exc}")
            return
        outcome.bytes_written = _dir_bytes(out)
        values = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        if values.shape != (PAINLEVE_SAMPLES, 4) or status.get("samples") != PAINLEVE_SAMPLES:
            outcome.problems.append(f"painleve.csv has shape {values.shape}")
        elif not np.all(np.isfinite(values)) or not np.all(values[:, 1] > 0):
            outcome.problems.append("painleve.csv has non-finite or non-positive h")

    return Job("crosscheck:painleve", lambda: _run_cli(argv), check, lambda: _fresh(out))


def _crosscheck_job(name: str, piece: int, s_range) -> Job:
    spec, _ = potentials.spec_from_dict(_bundled(name))
    n_points = CROSSCHECK_POINTS // CROSSCHECK_PIECES

    def check(gap, outcome: Outcome):
        outcome.measure("piii_gap_max", gap)
        if not gap < CROSSCHECK_TOL:
            outcome.problems.append(f"{name}: DPW vs PIII gap {gap:.3e}")
        else:
            outcome.nodes = n_points

    return Job(f"crosscheck:{name}.{piece}",
               lambda: painleve.crosscheck(spec, s_range, trunc=CROSSCHECK_TRUNC,
                                           n_points=n_points),
               check)


def _crosscheck_ranges():
    """CROSSCHECK_RANGE cut into consecutive pieces that hold the same 40 s-values.

    crosscheck samples its range geometrically, so piece k, from s_{10k} to
    s_{10k+9} with 10 points, samples exactly those ten of the 40.
    """
    s = np.geomspace(*CROSSCHECK_RANGE, CROSSCHECK_POINTS)
    n = CROSSCHECK_POINTS // CROSSCHECK_PIECES
    return [(float(s[k * n]), float(s[k * n + n - 1])) for k in range(CROSSCHECK_PIECES)]


def random_group_loop(rng: np.random.Generator, trunc: int = ROUND_TRIP_TRUNC,
                      amp: float = 0.12, wiener_max: float = 2.0):
    """exp of a random sigma-twisted algebra loop of degrees -2..2, Wiener norm capped."""
    entries = {}
    for d in range(-2, 3):
        x = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * amp
        entries[d] = su3.eigenspace_project(x, d % 6)
    xi = loops.LoopMatrix.from_coeffs(entries, twisted=True)
    g = loops.loop_exp(xi, trunc)
    while g.wiener_norm() > wiener_max:
        xi = loops.loop_scale(xi, 0.8)
        g = loops.loop_exp(xi, trunc)
    return g


_CIRCLE = np.exp(2j * np.pi * (np.arange(32) + 0.21) / 32)


def _round_trip_job(i: int, g) -> Job:
    g_vals = _evaluate(g, _CIRCLE)
    eye = np.eye(3)

    def call():
        return (factorization.iwasawa(g, ROUND_TRIP_TRUNC),
                factorization.birkhoff(g, ROUND_TRIP_TRUNC))

    def check(result, outcome: Outcome):
        iw, bk = result
        h = _evaluate(iw.unitary, _CIRCLE)
        worst = max(_op_norm_max(g_vals - h @ _evaluate(iw.v_plus, _CIRCLE)),
                    _op_norm_max(np.conj(np.swapaxes(h, 1, 2)) @ h - eye),
                    _op_norm_max(g_vals - _evaluate(bk.f_minus, _CIRCLE)
                                 @ _evaluate(bk.f_plus, _CIRCLE)))
        if not worst < ROUND_TRIP_TOL:
            outcome.problems.append(f"round trip {i}: residual {worst:.3e}")
        if (iw.v_plus.min_degree < 0 or bk.f_plus.min_degree < 0
                or bk.f_minus.max_degree > 0
                or np.max(np.abs(bk.f_minus.coefficient(0) - eye)) > 1e-12):
            outcome.problems.append(f"round trip {i}: factor degrees or normalization")
        outcome.measure("iwasawa_residual_max", iw.residual)
        outcome.measure("birkhoff_residual_max", bk.residual)

    return Job(f"crosscheck:round_trip_{i:02d}", call, check)


def crosscheck(rng: np.random.Generator, out: Path) -> list[Job]:
    """The paper's independent routes: PIII profile, DPW-vs-PIII, factorization round trips."""
    jobs = [_painleve_job(out / "painleve")]
    jobs += [_crosscheck_job(name, k, s_range) for name in PIII_SPECS
             for k, s_range in enumerate(_crosscheck_ranges())]
    jobs += [_round_trip_job(i, random_group_loop(rng)) for i in range(ROUND_TRIPS)]
    return jobs


def make(workload: str, seed: int, out: Path) -> list[Job]:
    """The jobs of one pass of ``workload``; inputs depend only on ``seed``."""
    factory = {"build": build, "validate": validate, "crosscheck": crosscheck}[workload]
    return factory(np.random.default_rng(seed), out)
