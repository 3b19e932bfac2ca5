"""Residual certification: horizontality, conformality, integrability, symmetry.

All derivatives are Wirtinger derivatives taken by real/imaginary central
differences, d/dz = (d/dx - i d/dy)/2, on a stencil of step h around each
node (recorded as stencil_h), sampled for all nodes in one call of the
surface's ``samples`` function (see dpw); the rules act on arrays over the
nodes and every lambda_0.
First derivatives use the 4th-order 5-point rule; second derivatives use
the 4th-order axis rule plus a Richardson-extrapolated cross term.

The Hopf coefficient measured from a lift at loop parameter lambda_0 is
nu * psi with nu = -i lambda_0^{-3} (the associated family scales the cubic
form); ``hopf_coefficient`` divides that factor back out, so its output is
directly comparable with the potential-level psi.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import su3
from .dpw import (DEFAULT_TRUNC, PipelineSurface, SurfaceSamples, frame_point, frame_values,
                  sample_from_frame)
from .errors import DomainError, GridTooCoarse
from .loops import loop_product, loop_scale, loop_sum

S1_SAMPLES = 12         # lambdas per node of the frame unitarity/determinant checks
TRANSPORT_SAMPLES = 8   # lambdas per (t, z) of the homogeneity frame transport
MIN_NODES = 5           # certified nodes a report needs

# (x, y) offsets, in units of h, of the stencil corners beyond the two axes
CORNERS = ((-1, -1), (1, -1), (-1, 1), (1, 1))
WIDE_CORNERS = ((-2, -2), (2, -2), (-2, 2), (2, 2))  # the Richardson cross term


@dataclass(frozen=True)
class ResidualReport:
    horizontality: float
    conformality: float
    unitarity: float
    determinant: float
    tzitzeica: float
    codazzi: float
    stencil_h: float


StructureResiduals = namedtuple("StructureResiduals",
                                "horizontality conformality unitarity determinant")


@dataclass(frozen=True)
class Stencil:
    """The surface on every node's stencil: ``samples`` of shape (n, K), at node n
    and offset ``offsets[k]`` ((x, y) in units of h)."""
    h: float
    offsets: tuple
    samples: SurfaceSamples

    def values(self, name: str) -> dict:
        """{offset: (n, ...) array} of one SurfaceSamples field; the lift is (n, L, 3)."""
        return dict(zip(self.offsets, np.moveaxis(getattr(self.samples, name), 1, 0)))


def _sample_stencil(samples, nodes, h: float, corners) -> Stencil:
    """Every stencil point of every node, sampled in one ``samples`` call.

    The points are the centre, z +- h, z +- 2h, z +- ih, z +- 2ih and the
    given corners; each is listed once, so every rule reads the same sample.
    """
    z = np.asarray(list(nodes), dtype=complex)
    pts = {(0, 0): z, (2, 0): z + 2 * h, (1, 0): z + h, (-1, 0): z - h, (-2, 0): z - 2 * h,
           (0, 2): z + 2j * h, (0, 1): z + 1j * h, (0, -1): z - 1j * h, (0, -2): z - 2j * h}
    pts.update({(ix, iy): z + ix * h + 1j * iy * h for ix, iy in corners})
    return Stencil(h, tuple(pts), samples(np.stack(list(pts.values()), axis=1)))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hermitian a . conj(b) over the last axis."""
    return np.sum(a * np.conj(b), axis=-1)


def fubini_study_distance(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Distance of [u], [v] in CP^2 over the leading axes of u and v, shape S + (3,):
    atan2(|v - <v, u> u|, |<v, u>|) for unit lifts.

    Accurate to rounding at both ends; arccos |<u, v>| loses half the digits near 0.
    """
    u = u / np.linalg.norm(u, axis=-1, keepdims=True)
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    c = _dot(v, u)
    return np.arctan2(np.linalg.norm(v - c[..., None] * u, axis=-1), np.abs(c))


def _first(f: dict, h: float):
    """(f_z, f_zbar) by the 4th-order 5-point rules on the axes."""
    fx = (-f[2, 0] + 8 * f[1, 0] - 8 * f[-1, 0] + f[-2, 0]) / (12 * h)
    fy = (-f[0, 2] + 8 * f[0, 1] - 8 * f[0, -1] + f[0, -2]) / (12 * h)
    return (fx - 1j * fy) / 2, (fx + 1j * fy) / 2


def _second_zz(f: dict, h: float):
    """f_zz = (f_xx - f_yy - 2i f_xy)/4, 4th order; needs the corners and the wide corners."""
    f0 = f[0, 0]
    fxx = (-f[2, 0] + 16 * f[1, 0] - 30 * f0 + 16 * f[-1, 0] - f[-2, 0]) / (12 * h * h)
    fyy = (-f[0, 2] + 16 * f[0, 1] - 30 * f0 + 16 * f[0, -1] - f[0, -2]) / (12 * h * h)

    def cross(k):
        step = k * h
        return (f[k, k] + f[-k, -k] - f[k, -k] - f[-k, k]) / (4 * step * step)

    fxy = (4 * cross(1) - cross(2)) / 3
    return (fxx - fyy - 2j * fxy) / 4


def hopf_coefficient(samples, z: complex, h: float = 1e-3) -> complex:
    """psi from the lift: i lambda_0^3 * (f_zz . conj(f_zbar)), for a surface with one lambda_0."""
    st = _sample_stencil(samples, [z], h, CORNERS + WIDE_CORNERS)
    lams = st.samples.lambda0
    if len(lams) != 1:
        raise ValueError(f"hopf_coefficient needs one lambda_0, got {len(lams)}")
    f = st.values("lift")
    _, fzb = _first(f, h)
    psi_nu = complex(_dot(_second_zz(f, h), fzb)[0, 0])
    return 1j * lams[0] ** 3 * psi_nu


def structure_residuals(st: Stencil) -> StructureResiduals:
    """Horizontality/conformality of the lift and unitarity/det of the frames, maxima over st."""
    f = st.values("lift")
    fz, fzb = _first(f, st.h)
    horiz = np.abs(_dot(fz, f[0, 0])) + np.abs(_dot(fzb, f[0, 0]))
    eu = np.exp(st.values("u")[0, 0])
    conf = np.maximum(np.abs(_dot(fz, fz) - eu[:, None]), np.abs(_dot(fz, fzb)))
    fr = frame_values(st.values("frames")[0, 0], su3.unit_circle(S1_SAMPLES))
    return StructureResiduals(float(np.max(horiz)), float(np.max(conf)),
                              float(np.max(su3.unitarity_defect(fr))),
                              float(np.max(np.abs(np.linalg.det(fr) - 1.0))))


def tzitzeica_residual(u_grid: np.ndarray, psi_grid: np.ndarray, h: float) -> float:
    """max | u_zzbar + e^u - e^{-2u} |psi|^2 | with u_zzbar = Lap(u)/4.

    Over a grid, or a stack of grids on the last two axes.
    """
    u = np.asarray(u_grid, dtype=float)
    psi = np.asarray(psi_grid, dtype=complex)
    if u.ndim < 2 or min(u.shape[-2:]) < 3:
        raise GridTooCoarse("need a 2-d grid with at least 3 nodes per direction")
    lap = (u[..., 2:, 1:-1] + u[..., :-2, 1:-1] + u[..., 1:-1, 2:] + u[..., 1:-1, :-2]
           - 4.0 * u[..., 1:-1, 1:-1]) / (h * h)
    ui = u[..., 1:-1, 1:-1]
    res = lap / 4.0 + np.exp(ui) - np.exp(-2.0 * ui) * np.abs(psi[..., 1:-1, 1:-1]) ** 2
    return float(np.max(np.abs(res)))


def codazzi_residual(psi_grid: np.ndarray, h: float) -> float:
    """max |psi_zbar| = max |(psi_x + i psi_y)/2| by central differences.

    Over a grid, or a stack of grids on the last two axes.  Uses the
    4th-order rule when the grid is at least 5 nodes per direction (the
    2nd-order truncation error h^2 psi'''/6 does not cancel for holomorphic
    input), the 3-point rule otherwise.
    """
    psi = np.asarray(psi_grid, dtype=complex)
    if psi.ndim < 2 or min(psi.shape[-2:]) < 3:
        raise GridTooCoarse("need a 2-d grid with at least 3 nodes per direction")
    if min(psi.shape[-2:]) >= 5:
        px = (-psi[..., 2:-2, 4:] + 8 * psi[..., 2:-2, 3:-1]
              - 8 * psi[..., 2:-2, 1:-3] + psi[..., 2:-2, :-4]) / (12 * h)
        py = (-psi[..., 4:, 2:-2] + 8 * psi[..., 3:-1, 2:-2]
              - 8 * psi[..., 1:-3, 2:-2] + psi[..., :-4, 2:-2]) / (12 * h)
    else:
        px = (psi[..., 1:-1, 2:] - psi[..., 1:-1, :-2]) / (2 * h)
        py = (psi[..., 2:, 1:-1] - psi[..., :-2, 1:-1]) / (2 * h)
    return float(np.max(np.abs((px + 1j * py) / 2)))


def _patch_grids(values: dict) -> np.ndarray:
    """(..., 3, 3) patches around the nodes; row index = y offset, column index = x offset."""
    grids = np.stack([values[ix, iy] for iy in (-1, 0, 1) for ix in (-1, 0, 1)], axis=-1)
    return grids.reshape(grids.shape[:-1] + (3, 3))


def integrability_residuals(st: Stencil):
    """(tzitzeica, codazzi) maxima over the 3x3 patches of a stencil."""
    psi = _patch_grids(st.values("psi"))
    return tzitzeica_residual(_patch_grids(st.values("u")), psi, st.h), codazzi_residual(psi, st.h)


def certify(samples, nodes, h: float = 1e-3) -> ResidualReport:
    """Full residual report: maxima over the nodes and every lambda_0 of ``samples``.

    A node is certified when its centre is not singular and its 3x3 patch of
    u is finite.  GridTooCoarse unless at least MIN_NODES are; DomainError
    unless 0 < h < inf.
    """
    if not 0.0 < h < math.inf:
        raise DomainError(f"the stencil step needs 0 < h < inf, got h={h}")
    st = _sample_stencil(samples, nodes, h, CORNERS)
    keep = (~st.values("singular")[0, 0]
            & np.isfinite(_patch_grids(st.values("u"))).all(axis=(1, 2)))
    if np.count_nonzero(keep) < MIN_NODES:
        raise GridTooCoarse(f"{np.count_nonzero(keep)} of {len(keep)} nodes certifiable, "
                            f"need {MIN_NODES}")
    st = replace(st, samples=st.samples.take(keep))
    return ResidualReport(*structure_residuals(st), *integrability_residuals(st), stencil_h=h)


def symmetry_residual(spec, gamma, T: np.ndarray, nodes,
                      lambdas=1.0, trunc: int = DEFAULT_TRUNC) -> float:
    """max Fubini-Study distance between f(gamma(z), lambda_0) and [T] f(z, lambda_0).

    Over the nodes and every lambda_0 of ``lambdas`` (one S^1 value or a list).
    """
    nodes = list(nodes)
    images, lifts = PipelineSurface(spec, lambdas, trunc).samples(
        [[gamma(z) for z in nodes], nodes]).lift
    return float(np.max(fubini_study_distance(images, lifts @ T.T), initial=0.0))


def metric_consistency_residual(spec, z: complex, h: float = 1e-4,
                                trunc: int = DEFAULT_TRUNC) -> float:
    """| |(F^{-1} F_z)_{lambda^{-1}, (1,3)}| - e^{u/2} | by loop differencing."""
    fp, fp_p, fp_m = (frame_point(spec, w, trunc) for w in (z, z + h, z - h))
    fz = loop_scale(loop_sum(fp_p.frame, fp_m.frame, sign=-1.0), 1.0 / (2 * h))
    mc = loop_product(fp.frame.conj_transpose(), fz)
    entry = mc.coefficient(-1)[0, 2]
    return abs(abs(entry) - math.exp(sample_from_frame(spec, [fp], 1.0, trunc).u[0] / 2.0))


def homogeneity_frame_residual(spec, t_values, z_values, p0: float = 1.0,
                               trunc: int = DEFAULT_TRUNC) -> float:
    """max || F(p_t z, q_t lambda) - T(t) F(z, lambda) T(t)^{-1} ||.

    Frame transport under the homogeneity condition of a radial potential.
    """
    from .potentials import homogeneity_params

    k, n = spec.monomial_exponents()
    hd = homogeneity_params(k, n, p0)
    lams = su3.unit_circle(TRANSPORT_SAMPLES)
    worst = 0.0
    for z in z_values:
        base = frame_point(spec, z, trunc).frame.evaluate_many(lams)
        for t in t_values:
            p, q = hd.p_at(t), hd.q_at(t)
            t_mat = hd.T_at(t)
            lhs = frame_point(spec, p * z, trunc).frame.evaluate_many(q * lams)
            rhs = t_mat @ base @ np.linalg.inv(t_mat)
            worst = max(worst, float(np.max(su3.op_norm(lhs - rhs))))
    return worst
