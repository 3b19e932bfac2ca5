"""Command-line front end: build surfaces, validate residuals, run the
Painleve reduction, closing conditions, and symmetry checks.

Exit codes: 0 ok, 2 schema error, 3 numeric failure, 4 validation threshold
exceeded.  Errors are emitted as one-line JSON on stdout.  CSV floats are
written with 17 significant digits in scientific notation so outputs are
byte-stable across runs (see README for the frozen column order).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import dpw, geometry, painleve, periodicity, potentials
from .errors import LagdpwError, NoNodeSolved, SchemaError

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


def _sample_row(s: dpw.SurfaceSample) -> str:
    vals = [s.z.real, s.z.imag,
            s.lift[0].real, s.lift[0].imag, s.lift[1].real, s.lift[1].imag,
            s.lift[2].real, s.lift[2].imag, s.u, s.psi.real, s.psi.imag,
            s.v0.real, s.v0.imag, s.lambda0.real, s.lambda0.imag]
    cells = [_fmt(v) for v in vals]
    cells.append("1" if s.singular else "0")
    cells.append(_fmt(s.residual))
    cells.append(_fmt(s.tail))
    return ",".join(cells)


def _parse_lambdas(text: str):
    """Comma-separated S^1 values; typed input is projected onto the circle."""
    out = []
    for tok in text.split(","):
        if not tok.strip():
            continue
        lam = complex(tok.strip().replace("i", "j"))
        r = abs(lam)
        if not 0.9 <= r <= 1.1:
            raise SchemaError("lambda", f"{tok.strip()!r} is not near S^1")
        out.append(lam / r)
    return out


_PROJECTIONS = {"re1": (0, "re"), "im1": (0, "im"), "re2": (1, "re"),
                "im2": (1, "im"), "re3": (2, "re"), "im3": (2, "im")}


def _project(lift: np.ndarray, triple):
    out = []
    for key in triple:
        idx, part = _PROJECTIONS[key]
        c = lift[idx]
        out.append(c.real if part == "re" else c.imag)
    return out


def _write_mesh(path: Path, samples, grid: dpw.GridSpec, triple):
    """OBJ export of one real 3-projection of the lift in R^6.

    A visualization aid only: CP^2 admits no faithful R^3 picture.
    """
    lines = [f"# lagdpw mesh, projection {','.join(triple)}"]
    for s in samples:
        x, y, z = _project(s.lift, triple)
        lines.append(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)}")

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
    tol = args.tol if args.tol is not None else run.get("tol", dpw.DEFAULT_TOL)
    if trunc < 4:
        raise SchemaError("trunc", "must be >= 4")
    if not 0 < tol <= 1e-4:
        raise SchemaError("tol", "must lie in (0, 1e-4]")
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
    return spec, grid, lambdas, trunc, tol


def _cmd_build(args) -> int:
    spec, grid, lambdas, trunc, tol = _load_config(args)
    formats = set(args.fmt.split(","))
    if not formats <= {"csv", "json", "obj"}:
        raise SchemaError("format", f"expected a subset of csv,json,obj, got {args.fmt!r}")
    samples, field, failures = dpw.grid_sample(spec, grid, lambdas, trunc, tol)
    if failures and not field.points:
        z, exc = failures[0]
        raise NoNodeSolved(f"all {len(failures)} grid nodes failed; first at "
                           f"z = {z}: {type(exc).__name__}: {exc}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    if "csv" in formats:
        rows = [",".join(CSV_COLUMNS)]
        rows += [_sample_row(s) for s in samples]
        (out / "samples.csv").write_text("\n".join(rows) + "\n")
    if "json" in formats:
        report = {
            "spec_kind": spec.kind,
            "n_samples": len(samples),
            "n_failures": len(failures),
            "failures": [{"z": [z.real, z.imag], "error": type(e).__name__}
                         for z, e in failures],
            "max_iwasawa_residual": max((s.residual for s in samples), default=0.0),
            "max_tail_norm": max((s.tail for s in samples), default=0.0),
            "trunc": trunc,
            "tol": tol,
        }
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if "obj" in formats:
        triple = args.project.split(",")
        if len(triple) != 3 or any(k not in _PROJECTIONS for k in triple):
            raise SchemaError("project", f"expected a triple from "
                              f"{sorted(_PROJECTIONS)}, got {args.project!r}")
        first = [s for s in samples if samples and s.lambda0 == samples[0].lambda0]
        if failures or not first:
            print(json.dumps({"warning": "mesh skipped: failed grid nodes"}))
        else:
            _write_mesh(out / "mesh.obj", first, grid, triple)
    print(json.dumps({"status": "ok", "samples": len(samples),
                      "out": str(out)}))
    return 0


def _cmd_validate(args) -> int:
    spec, grid, lambdas, trunc, tol = _load_config(args)
    surf = dpw.PipelineSurface(spec, lambdas[0], trunc, tol)
    nodes = [z for z in grid.nodes() if abs(z) > 1e-9]
    report = geometry.certify(surf, nodes, h=args.h)
    doc = json.loads(report.to_json())
    doc["thresholds"] = VALIDATE_THRESHOLDS
    failed = {k: doc[k] for k, thr in VALIDATE_THRESHOLDS.items()
              if not (doc[k] <= thr)}
    doc["passed"] = not failed
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"status": "ok" if not failed else "threshold-exceeded",
                      "failed": failed}))
    return 0 if not failed else 4


def _cmd_painleve(args) -> int:
    if args.spec:
        doc = json.loads(Path(args.spec).read_text())
        spec, _ = potentials.spec_from_dict(doc)
        params = painleve.PainleveParams.from_spec(spec)
    else:
        params = painleve.PainleveParams(args.k, args.n, args.psi0, args.ak)
    sol = painleve.solve_piii(params, s_max=args.smax,
                              tol=args.tol if args.tol else 1e-10, s0=args.s0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = ["s,h,h_dot,residual"]
    rows += [",".join(_fmt(v) for v in row)
             for row in zip(sol.s_samples, sol.h, sol.h_dot, sol.residual)]
    (out / "painleve.csv").write_text("\n".join(rows) + "\n")
    print(json.dumps({"status": "ok", "samples": len(sol.s_samples),
                      "max_residual": sol.max_residual,
                      "blowup_at": sol.blowup_at}))
    return 0


def _cmd_closing(args) -> int:
    lam = complex(args.lambda0.replace("i", "j"))
    rep = periodicity.closing_report(args.l1, args.l2, args.l3, lam)
    print(json.dumps({
        "delta": [rep.delta.real, rep.delta.imag],
        "lambda0": [rep.lambda0.real, rep.lambda0.imag],
        "closed": rep.closed,
        "c": [rep.c.real, rep.c.imag],
        "k_residue": rep.k_residue,
        "residual": rep.residual,
    }, indent=2, sort_keys=True))
    return 0


def _cmd_symmetry(args) -> int:
    spec, grid, lambdas, trunc, tol = _load_config(args)
    result = {"spec_kind": spec.kind}
    nodes = [z for z in grid.nodes() if 0.05 < abs(z) < 0.9 * max(
        grid.r_max if grid.kind == "polar" else grid.extent, 1.0)][:12]
    if spec.kind == "rotational":
        m = spec.m
        p = np.exp(2j * np.pi / m)
        t_mat = np.diag([p, 1.0 / p, 1.0])
        result["m"] = m
        result["potential_residual"] = potentials.check_potential_symmetry(
            spec, p, 1.0, t_mat)
        result["surface_residual"] = geometry.symmetry_residual(
            spec, lambda z: p * z, t_mat, nodes, lambdas[0], trunc)
    elif spec.is_radial:
        k, n = spec.monomial_exponents()
        hd = potentials.homogeneity_params(k, n, 1.0)
        t_vals = (0.4, 1.1, 2.3)
        worst_pot = max(potentials.check_potential_symmetry(
            spec, hd.p_at(t), hd.q_at(t), hd.T_at(t)) for t in t_vals)
        result["k"], result["n"] = k, n
        result["potential_residual"] = worst_pot
        result["frame_transport_residual"] = geometry.homogeneity_frame_residual(
            spec, t_vals, nodes[:4] or [0.5 + 0.2j], trunc=trunc)
    else:
        raise LagdpwError(f"no symmetry check defined for kind {spec.kind!r}")
    print(json.dumps(result, indent=2, sort_keys=True))
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
        p.add_argument("--tol", type=float, default=None)
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
    pp.add_argument("--tol", type=float, default=None)
    pp.add_argument("--out", default="out")
    pp.set_defaults(func=_cmd_painleve)

    pc = sub.add_parser("closing", help="Clifford lattice closing conditions")
    pc.add_argument("--l1", type=int, required=True)
    pc.add_argument("--l2", type=int, required=True)
    pc.add_argument("--l3", type=int, required=True)
    pc.add_argument("--lambda0", default="1")
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
        print(json.dumps({"error": "SchemaError", "path": exc.path,
                          "message": str(exc)}))
        return 2
    except (json.JSONDecodeError, FileNotFoundError) as exc:
        print(json.dumps({"error": "SchemaError", "message": str(exc)}))
        return 2
    except (LagdpwError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
