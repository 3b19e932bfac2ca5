"""Residual certification: horizontality, conformality, integrability, symmetry.

All derivatives are Wirtinger derivatives taken by real/imaginary central
differences, d/dz = (d/dx - i d/dy)/2, with a local stencil of step h around
each evaluation node (h is recorded in the report as stencil_h).  First
derivatives use the 4th-order 5-point rule; second derivatives use the
4th-order axis rule plus a Richardson-extrapolated cross term.

The Hopf coefficient measured from a lift at loop parameter lambda_0 is
nu * psi with nu = -i lambda_0^{-3} (the associated family scales the cubic
form); ``hopf_coefficient`` divides that factor back out, so its output is
directly comparable with the potential-level psi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import su3
from .errors import GridTooCoarse
from .loops import loop_product, loop_scale, loop_sum

_DOT = lambda a, b: complex(np.sum(a * np.conj(b)))  # Hermitian Z . conj(W)


@dataclass(frozen=True)
class ResidualReport:
    horizontality: float
    conformality: float
    unitarity: float
    determinant: float
    tzitzeica: float
    codazzi: float
    stencil_h: float
    symmetry: float | None = None

    def to_json(self) -> str:
        doc = {k: v for k, v in self.__dict__.items() if v is not None}
        return json.dumps(doc, indent=2, sort_keys=True)

    def worst(self) -> float:
        vals = [self.horizontality, self.conformality, self.unitarity,
                self.determinant, self.tzitzeica, self.codazzi]
        if self.symmetry is not None:
            vals.append(self.symmetry)
        return max(vals)


def fubini_study_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Distance of [u], [v] in CP^2: arccos |<u, v>| for unit lifts."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    c = abs(_DOT(u, v)) / (nu * nv)
    return float(math.acos(min(c, 1.0)))


def _wirtinger_first(f, z: complex, h: float):
    """(f_z, f_zbar) by 4th-order central differences."""
    fx = (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h) + f(z - 2 * h)) / (12 * h)
    fy = (-f(z + 2j * h) + 8 * f(z + 1j * h) - 8 * f(z - 1j * h)
          + f(z - 2j * h)) / (12 * h)
    return (fx - 1j * fy) / 2, (fx + 1j * fy) / 2


def _wirtinger_second_zz(f, z: complex, h: float):
    """f_zz = (f_xx - f_yy - 2i f_xy)/4, 4th order."""
    f0 = f(z)
    fxx = (-f(z + 2 * h) + 16 * f(z + h) - 30 * f0 + 16 * f(z - h)
           - f(z - 2 * h)) / (12 * h * h)
    fyy = (-f(z + 2j * h) + 16 * f(z + 1j * h) - 30 * f0 + 16 * f(z - 1j * h)
           - f(z - 2j * h)) / (12 * h * h)

    def cross(step):
        return (f(z + step + 1j * step) + f(z - step - 1j * step)
                - f(z + step - 1j * step) - f(z - step + 1j * step)) / (4 * step * step)

    fxy = (4 * cross(h) - cross(2 * h)) / 3
    return (fxx - fyy - 2j * fxy) / 4


def hopf_coefficient(surface, z: complex, h: float = 1e-3) -> complex:
    """psi from the lift: i lambda_0^3 * (f_zz . conj(f_zbar))."""
    lift = surface.lift
    _, fzb = _wirtinger_first(lift, z, h)
    fzz = _wirtinger_second_zz(lift, z, h)
    lam = getattr(surface, "lambda0", 1.0)
    return 1j * lam ** 3 * _DOT(fzz, fzb)


def structure_residuals(surface, nodes, h: float = 1e-3,
                        s1_samples: int = 12) -> ResidualReport:
    """Horizontality/conformality of the lift, unitarity/det of the frame.

    ``surface`` provides .sample(z) (and .frame_at(z, lams), the frame at an
    array of lambdas, where frame checks apply); residuals are maxima over the
    node list.
    """
    nodes = list(nodes)
    if len(nodes) < 5:
        raise GridTooCoarse(f"need at least 5 nodes, got {len(nodes)}")
    lift = surface.lift
    frame_at = getattr(surface, "frame_at", None)
    lams = su3.unit_circle(s1_samples)

    horiz = conf = unit = det = 0.0
    for z in nodes:
        s = surface.sample(z)
        if s.singular:
            continue
        fz, fzb = _wirtinger_first(lift, z, h)
        f0 = s.lift
        horiz = max(horiz, abs(_DOT(fz, f0)) + abs(_DOT(fzb, f0)))
        eu = math.exp(s.u)
        conf = max(conf, abs(_DOT(fz, fz) - eu), abs(_DOT(fz, fzb)))
        if frame_at is not None:
            fr = frame_at(z, lams)
            unit = max(unit, float(np.max(su3.unitarity_defect(fr))))
            det = max(det, float(np.max(np.abs(np.linalg.det(fr) - 1.0))))
    return ResidualReport(horizontality=horiz, conformality=conf,
                          unitarity=unit, determinant=det,
                          tzitzeica=math.nan, codazzi=math.nan, stencil_h=h)


def tzitzeica_residual(u_grid: np.ndarray, psi_grid: np.ndarray, h: float) -> float:
    """max | u_zzbar + e^u - e^{-2u} |psi|^2 | with u_zzbar = Lap(u)/4."""
    u = np.asarray(u_grid, dtype=float)
    psi = np.asarray(psi_grid, dtype=complex)
    if u.ndim != 2 or min(u.shape) < 3:
        raise GridTooCoarse("need a 2-d grid with at least 3 nodes per direction")
    lap = (u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
           - 4.0 * u[1:-1, 1:-1]) / (h * h)
    ui = u[1:-1, 1:-1]
    res = lap / 4.0 + np.exp(ui) - np.exp(-2.0 * ui) * np.abs(psi[1:-1, 1:-1]) ** 2
    return float(np.max(np.abs(res)))


def codazzi_residual(psi_grid: np.ndarray, h: float) -> float:
    """max |psi_zbar| = max |(psi_x + i psi_y)/2| by central differences.

    Uses the 4th-order rule when the grid is at least 5 nodes per direction
    (the 2nd-order truncation error h^2 psi'''/6 does not cancel for
    holomorphic input), the 3-point rule otherwise.
    """
    psi = np.asarray(psi_grid, dtype=complex)
    if psi.ndim != 2 or min(psi.shape) < 3:
        raise GridTooCoarse("need a 2-d grid with at least 3 nodes per direction")
    if min(psi.shape) >= 5:
        px = (-psi[2:-2, 4:] + 8 * psi[2:-2, 3:-1]
              - 8 * psi[2:-2, 1:-3] + psi[2:-2, :-4]) / (12 * h)
        py = (-psi[4:, 2:-2] + 8 * psi[3:-1, 2:-2]
              - 8 * psi[1:-3, 2:-2] + psi[:-4, 2:-2]) / (12 * h)
    else:
        px = (psi[1:-1, 2:] - psi[1:-1, :-2]) / (2 * h)
        py = (psi[2:, 1:-1] - psi[:-2, 1:-1]) / (2 * h)
    return float(np.max(np.abs((px + 1j * py) / 2)))


def _patch(surface, z: complex, h: float, half: int = 1):
    """(u, psi) arrays on the (2*half+1)^2 patch around z, spacing h.

    Grid layout: row index = y offset, column index = x offset.
    """
    n = 2 * half + 1
    u = np.empty((n, n))
    psi = np.empty((n, n), dtype=complex)
    for iy in range(-half, half + 1):
        for ix in range(-half, half + 1):
            s = surface.sample(z + ix * h + 1j * iy * h)
            u[iy + half, ix + half] = s.u
            psi[iy + half, ix + half] = s.psi
    return u, psi


def integrability_residuals(surface, nodes, h: float = 1e-3):
    """(tzitzeica, codazzi) maxima over the nodes, via local 3x3 patches."""
    worst_t = worst_c = 0.0
    for z in nodes:
        if surface.sample(z).singular:
            continue
        u, psi = _patch(surface, z, h)
        if not np.all(np.isfinite(u)):
            continue
        worst_t = max(worst_t, tzitzeica_residual(u, psi, h))
        worst_c = max(worst_c, codazzi_residual(psi, h))
    return worst_t, worst_c


def certify(surface, nodes, h: float = 1e-3, s1_samples: int = 12) -> ResidualReport:
    """Full residual report over a node list."""
    rep = structure_residuals(surface, nodes, h, s1_samples)
    tz, cod = integrability_residuals(surface, nodes, h)
    return replace(rep, tzitzeica=tz, codazzi=cod)


def symmetry_residual(spec, gamma, T: np.ndarray, nodes,
                      lambda0: complex = 1.0, trunc: int = 16) -> float:
    """max Fubini-Study distance between f(gamma(z), lambda0) and [T] f(z, lambda0)."""
    from .dpw import PipelineSurface

    surf = PipelineSurface(spec, lambda0, trunc)
    worst = 0.0
    for z in nodes:
        a = surf.lift(gamma(z))
        b = T @ surf.lift(z)
        worst = max(worst, fubini_study_distance(a, b))
    return worst


def metric_consistency_residual(surface, z: complex, h: float = 1e-4) -> float:
    """| |(F^{-1} F_z)_{lambda^{-1}, (1,3)}| - e^{u/2} | by loop differencing."""
    fp = surface.frame_point(z)
    fp_p = surface.frame_point(z + h)
    fp_m = surface.frame_point(z - h)
    fz = loop_scale(loop_sum(fp_p.frame, fp_m.frame, sign=-1.0), 1.0 / (2 * h))
    mc = loop_product(fp.frame.conj_transpose(), fz)
    entry = mc.coefficient(-1)[0, 2]
    s = surface.sample(z)
    return abs(abs(entry) - math.exp(s.u / 2.0))


def homogeneity_frame_residual(spec, t_values, z_values, p0: float = 1.0,
                               trunc: int = 16,
                               lambda_samples: int = 8) -> float:
    """max || F(p_t z, q_t lambda) - T(t) F(z, lambda) T(t)^{-1} ||.

    Frame transport under the homogeneity condition of a radial potential.
    """
    from .dpw import PipelineSurface
    from .potentials import homogeneity_params

    k, n = spec.monomial_exponents()
    hd = homogeneity_params(k, n, p0)
    surf = PipelineSurface(spec, 1.0, trunc)
    lams = su3.unit_circle(lambda_samples)
    worst = 0.0
    for t in t_values:
        p, q = hd.p_at(t), hd.q_at(t)
        t_mat = hd.T_at(t)
        t_inv = np.linalg.inv(t_mat)
        for z in z_values:
            lhs = surf.frame_point(p * z).frame.evaluate_many(q * lams)
            rhs = t_mat @ surf.frame_point(z).frame.evaluate_many(lams) @ t_inv
            worst = max(worst, float(np.max(su3.op_norm(lhs - rhs))))
    return worst
