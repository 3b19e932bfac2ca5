"""Command-line front end: build surfaces, validate residuals, run the
Painleve reduction, closing conditions, and symmetry checks.

Exit codes: 0 ok, 2 schema error, 3 numeric failure, 4 validation threshold
exceeded.  Errors are emitted as one-line JSON on stdout.  CSV floats are
written with 17 significant digits in scientific notation so outputs are
byte-stable across runs (see README for the frozen column order).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import dpw, geometry, painleve, periodicity, potentials
from .errors import GridTooCoarse, LagdpwError, NoNodeSolved, SchemaError

VALIDATE_THRESHOLDS = {
    "horizontality": 1e-5,
    "conformality": 1e-5,
    "codazzi": 1e-5,
    "tzitzeica": 1e-4,
    "unitarity": 1e-8,
    "determinant": 1e-8,
}

CSV_COLUMNS = ("z_re", "z_im", "lift1_re", "lift1_im", "lift2_re", "lift2_im",
               "lift3_re", "lift3_im", "u", "psi_re", "psi_im", "v0_re",
               "v0_im", "lambda0_re", "lambda0_im", "singular",
               "iwasawa_residual", "tail_norm")


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _csv_rows(s: dpw.SurfaceSamples) -> list:
    """A 1-d batch's CSV rows, point-major then lambda_0, in the order of CSV_COLUMNS."""
    def cells(*columns):  # the comma-separated cells of each row of the columns
        return [",".join(map(_fmt, row)) for row in np.stack(columns, axis=-1).tolist()]

    lams = cells(np.real(s.lambda0), np.imag(s.lambda0))
    # lift.view(float) is (n, L, 6): re, im of each lift component, read in row order
    lifts = iter(cells(*s.lift.view(float).reshape(-1, 6).T))
    points = zip(cells(s.z.real, s.z.imag), s.singular.tolist(), cells(s.residual, s.tail),
                 cells(s.u, s.psi.real, s.psi.imag, s.v0.real, s.v0.imag))
    return [f"{z},{next(lifts)},{data},{lam},{flag:d},{health}"
            for z, flag, health, data in points for lam in lams]


def _finite_json(obj):
    """obj with each non-finite float spelled as the string "nan", "inf" or "-inf"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(float(obj))
    if isinstance(obj, dict):
        return {k: _finite_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_json(v) for v in obj]
    return obj


def _dumps(obj, **kw) -> str:
    """Strict JSON: no bare NaN or Infinity ever reaches a report or stdout."""
    return json.dumps(_finite_json(obj), allow_nan=False, **kw)


def _write_report(path: Path, doc: dict) -> None:
    path.write_text(_dumps(doc, indent=2, sort_keys=True) + "\n")


def _parse_lambdas(text: str):
    """Comma-separated S^1 values, checked and projected like a spec's "lambda" list."""
    out = []
    for tok in filter(None, (t.strip() for t in text.split(","))):
        try:
            out.append(complex(tok.replace("i", "j")))
        except ValueError:
            raise SchemaError("lambda", f"{tok!r} is not a complex number") from None
    return potentials.circle_values(out)


_PROJECTIONS = ("re1", "im1", "re2", "im2", "re3", "im3")  # the entries of lift.view(float)


def _write_mesh(path: Path, samples, grid: dpw.GridSpec, triple):
    """OBJ export of one real 3-projection of the lift in R^6 at the first lambda_0.

    A visualization aid only: CP^2 admits no faithful R^3 picture.
    """
    columns = [_PROJECTIONS.index(key) for key in triple]
    lines = [f"# lagdpw mesh, projection {','.join(triple)}"]
    lines += [f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}"
              for x, y, z in samples.lift[:, 0].view(float)[:, columns].tolist()]

    def quad(a, b, c, d):
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
        lines.append(f"f {a + 1} {c + 1} {d + 1}")

    if grid.kind == "polar":
        nr, nt = grid.n_r, grid.n_theta
        for i in range(nr - 1):
            for j in range(nt):
                jn = (j + 1) % nt
                quad(i * nt + j, i * nt + jn, (i + 1) * nt + jn, (i + 1) * nt + j)
    else:
        ny, nx = grid.ny, grid.nx
        for i in range(ny - 1):
            for j in range(nx - 1):
                quad(i * nx + j, i * nx + j + 1, (i + 1) * nx + j + 1, (i + 1) * nx + j)
    path.write_text("\n".join(lines) + "\n")


def parse_spec(path):
    """Validated (PotentialSpec, run defaults) from a JSON file.

    Raises SchemaError with the offending field path on invalid input; any
    normalization gauge applied to the potential is recorded on the spec.
    """
    doc = json.loads(Path(path).read_text())
    return potentials.spec_from_dict(doc)


def _load_config(args):
    spec, run = parse_spec(args.spec)
    trunc = args.trunc if args.trunc is not None else run.get("trunc", dpw.DEFAULT_TRUNC)
    if not 4 <= trunc <= potentials.MAX_TRUNC:
        raise SchemaError("trunc", f"must be in 4..{potentials.MAX_TRUNC}")
    if args.grid is not None:
        grid = dpw.GridSpec.from_dict(json.loads(args.grid))
    elif "grid" in run:
        grid = dpw.GridSpec.from_dict(run["grid"])
    else:
        grid = dpw.GridSpec(kind="polar", r_max=2.0, n_r=8, n_theta=8)
    if args.lam is not None:
        lambdas = _parse_lambdas(args.lam)
    else:
        lambdas = run.get("lambda", [1.0 + 0.0j])
    return spec, grid, lambdas, trunc


def _cmd_build(args) -> int:
    spec, grid, lambdas, trunc = _load_config(args)
    formats = set(args.fmt.split(","))
    if not formats <= {"csv", "json", "obj"}:
        raise SchemaError("format", f"expected a subset of csv,json,obj, got {args.fmt!r}")
    samples, failures = dpw.grid_sample(spec, grid, lambdas, trunc)
    n_rows = samples.z.size * len(lambdas)
    if failures and not samples.z.size:
        z, exc = failures[0]
        raise NoNodeSolved(f"all {len(failures)} grid nodes failed; first at "
                           f"z = {z}: {type(exc).__name__}: {exc}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if "csv" in formats:
        rows = [",".join(CSV_COLUMNS)]
        rows += _csv_rows(samples)
        (out / "samples.csv").write_text("\n".join(rows) + "\n")
    if "json" in formats:
        report = {
            "spec_kind": spec.kind,
            "n_samples": n_rows,
            "n_failures": len(failures),
            "failures": [{"z": [z.real, z.imag], "error": type(e).__name__}
                         for z, e in failures],
            "max_iwasawa_residual": float(np.max(samples.residual, initial=0.0)),
            "max_tail_norm": float(np.max(samples.tail, initial=0.0)),
            "trunc": trunc,
        }
        _write_report(out / "report.json", report)
    if "obj" in formats:
        triple = args.project.split(",")
        if len(triple) != 3 or any(k not in _PROJECTIONS for k in triple):
            raise SchemaError("project", f"expected a triple from "
                              f"{sorted(_PROJECTIONS)}, got {args.project!r}")
        if failures or not samples.z.size:
            print(_dumps({"warning": "mesh skipped: failed grid nodes"}))
        else:
            _write_mesh(out / "mesh.obj", samples, grid, triple)
    print(_dumps({"status": "ok", "samples": n_rows,
                  "out": str(out)}))
    return 0


def _cmd_validate(args) -> int:
    spec, grid, lambdas, trunc = _load_config(args)
    nodes = [z for z in grid.nodes() if abs(z) > 1e-9]
    report = geometry.certify(dpw.PipelineSurface(spec, lambdas, trunc).samples, nodes, args.h)
    doc = dataclasses.asdict(report)
    failed = {k: doc[k] for k, thr in VALIDATE_THRESHOLDS.items()
              if not (doc[k] <= thr)}
    doc.update(lambda0=[[lam.real, lam.imag] for lam in lambdas],
               thresholds=VALIDATE_THRESHOLDS, passed=not failed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_report(out / "report.json", doc)
    print(_dumps({"status": "ok" if not failed else "threshold-exceeded",
                  "failed": failed}))
    return 0 if not failed else 4


def _cmd_painleve(args) -> int:
    if args.spec:
        doc = json.loads(Path(args.spec).read_text())
        spec, _ = potentials.spec_from_dict(doc)
        params = painleve.PainleveParams.from_spec(spec)
    else:
        params = painleve.PainleveParams(args.k, args.n, args.psi0, args.ak)
    sol = painleve.solve_piii(params, s_max=args.smax, tol=args.tol, s0=args.s0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["s,h,h_dot,residual"]
    rows += [",".join(_fmt(v) for v in row)
             for row in zip(sol.s_samples, sol.h, sol.h_dot, sol.residual)]
    (out / "painleve.csv").write_text("\n".join(rows) + "\n")
    print(_dumps({"status": "ok", "samples": len(sol.s_samples),
                  "max_residual": sol.max_residual,
                  "blowup_at": sol.blowup_at}))
    return 0


def _cmd_closing(args) -> int:
    lambdas = _parse_lambdas(args.lambda0)
    if len(lambdas) != 1:
        raise SchemaError("lambda", f"expected one S^1 value, got {args.lambda0!r}")
    rep = periodicity.closing_report(args.l1, args.l2, args.l3, lambdas[0])
    print(_dumps({
        "delta": [rep.delta.real, rep.delta.imag],
        "lambda0": [rep.lambda0.real, rep.lambda0.imag],
        "closed": rep.closed,
        "c": [rep.c.real, rep.c.imag],
        "k_residue": rep.k_residue,
        "residual": rep.residual,
    }, indent=2, sort_keys=True))
    return 0


def _cmd_symmetry(args) -> int:
    spec, grid, lambdas, trunc = _load_config(args)
    result = {"spec_kind": spec.kind}
    r_max = 0.9 * max(grid.r_max if grid.kind == "polar" else grid.extent, 1.0)
    nodes = [z for z in grid.nodes() if 0.05 < abs(z) < r_max][:12]
    if not nodes:
        raise GridTooCoarse(f"no grid node in 0.05 < |z| < {r_max:g} to check")
    if spec.kind == "rotational":
        m = spec.m
        p = np.exp(2j * np.pi / m)
        t_mat = np.diag([p, 1.0 / p, 1.0])
        result["m"] = m
        result["potential_residual"] = potentials.check_potential_symmetry(
            spec, p, 1.0, t_mat)
        result["surface_residual"] = geometry.symmetry_residual(
            spec, lambda z: p * z, t_mat, nodes, lambdas, trunc)
        result["lambda0"] = [[lam.real, lam.imag] for lam in lambdas]
    elif spec.is_radial:
        k, n = spec.monomial_exponents()
        hd = potentials.homogeneity_params(k, n, 1.0)
        t_vals = (0.4, 1.1, 2.3)
        worst_pot = max(potentials.check_potential_symmetry(
            spec, hd.p_at(t), hd.q_at(t), hd.T_at(t)) for t in t_vals)
        result["k"], result["n"] = k, n
        result["potential_residual"] = worst_pot
        result["frame_transport_residual"] = geometry.homogeneity_frame_residual(
            spec, t_vals, nodes[:4], trunc=trunc)
    else:
        raise LagdpwError(f"no symmetry check defined for kind {spec.kind!r}")
    print(_dumps(result, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="lagdpw", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="potential spec JSON file")
        p.add_argument("--grid", default=None, help="grid JSON, e.g. "
                       '\'{"kind":"polar","r_max":2,"n_r":8,"n_theta":8}\'')
        p.add_argument("--lambda", dest="lam", default=None,
                       help="comma-separated S^1 values, e.g. '1,0.707+0.707j'")
        p.add_argument("--trunc", type=int, default=None)
        p.add_argument("--out", default="out")

    pb = sub.add_parser("build", help="sample the surface over a grid")
    common(pb)
    pb.add_argument("--format", dest="fmt", default="csv,json",
                    help="subset of csv,json,obj")
    pb.add_argument("--project", default="re1,im1,re2",
                    help="OBJ projection triple from re1,im1,...,im3")
    pb.set_defaults(func=_cmd_build)

    pv = sub.add_parser("validate", help="residual certification")
    common(pv)
    pv.add_argument("--h", type=float, default=1e-3, help="stencil step")
    pv.set_defaults(func=_cmd_validate)

    pp = sub.add_parser("painleve", help="integrate the radial PIII reduction")
    pp.add_argument("--spec", default=None)
    pp.add_argument("--k", type=int, default=0)
    pp.add_argument("--n", type=int, default=0)
    pp.add_argument("--psi0", type=float, default=1.0, help="|psi0|")
    pp.add_argument("--ak", type=float, default=1.0, help="|a_k|")
    pp.add_argument("--smax", type=float, default=10.0)
    pp.add_argument("--s0", type=float, default=1e-3)
    pp.add_argument("--tol", type=float, default=1e-10,
                    help="PIII solver tolerance, finite and > 0")
    pp.add_argument("--out", default="out")
    pp.set_defaults(func=_cmd_painleve)

    pc = sub.add_parser("closing", help="Clifford lattice closing conditions")
    pc.add_argument("--l1", type=int, required=True)
    pc.add_argument("--l2", type=int, required=True)
    pc.add_argument("--l3", type=int, required=True)
    pc.add_argument("--lambda0", default="1", help="one S^1 value, e.g. '0.6+0.8j'")
    pc.set_defaults(func=_cmd_closing)

    ps = sub.add_parser("symmetry", help="potential/surface symmetry residuals")
    common(ps)
    ps.set_defaults(func=_cmd_symmetry)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(_dumps({"error": "SchemaError", "path": exc.path,
                      "message": str(exc)}))
        return 2
    except (json.JSONDecodeError, FileNotFoundError) as exc:
        print(_dumps({"error": "SchemaError", "message": str(exc)}))
        return 2
    except (LagdpwError, ValueError) as exc:
        print(_dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
