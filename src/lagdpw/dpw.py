"""The central pipeline: holomorphic frame ODE, pointwise Iwasawa splitting,
and extraction of the immersion data.

From a potential eta the holomorphic frame solves dC = C eta, C(0, .) = I,
integrated coefficientwise over the Laurent stack by an embedded
Dormand-Prince 4(5) pair.  The unique Iwasawa split C = F V_+ yields the
extended frame F (unitary, twisted) and the plus factor V_+.  Per point, the
immersion data are

    lift     f = F(z, lambda_0) e_3  in S^5,
    metric   e^{u/2} = |eta_{-1}(z)_{13} * v_0|,  v_0 = V_+(lambda=0)_{11},
    cubic    psi(z) = -a(z)^2 b(z)  (inverse of the normalized-potential
             formula; the axis-metric exponentials cancel),

and a sample is flagged singular when e^{u/2} underflows 1e-10 (branch
points, e.g. z = 0 for a radial monomial with k > 0).

The lift computed from the frame at lambda_0 carries the associated-family
Hopf factor: finite differences of the lift measure nu * psi with
nu = -i lambda_0^{-3}, not psi itself (cf. geometry.hopf_coefficient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import su3
from .errors import PoleOnPath, SchemaError, TruncationOverflow
from .factorization import IwasawaFactors, iwasawa
from .loops import LoopMatrix, loop_exp, loop_scale
from .potentials import PotentialSpec, is_finite_number

DEFAULT_TRUNC = 16
DEFAULT_TOL = 1e-10
METRIC_FLOOR = 1e-10

E3 = np.array([0.0, 0.0, 1.0], dtype=complex)

# Dormand-Prince 4(5) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _rk45(deriv, y0: np.ndarray, length: float, tol: float) -> np.ndarray:
    """Adaptive DP45 over t in [0,1]; local error kept near tol*h per step."""
    y = y0.copy()
    t = 0.0
    h = min(1.0, 0.5 / max(length, 1e-12))
    while t < 1.0:
        h = min(h, 1.0 - t)
        ks = []
        for i in range(7):
            yi = y
            for a, k in zip(_DP_A[i], ks):
                yi = yi + (h * a) * k
            ks.append(deriv(t + _DP_C[i] * h, yi))
        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks) if b != 0.0)
        y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks) if b != 0.0)
        err = float(np.max(np.abs(y5 - y4)))
        if not np.isfinite(err):
            raise PoleOnPath("non-finite values while integrating the frame ODE")
        budget = tol * h * length  # local error <= tol per unit path length
        if err <= budget or h <= 1e-13:
            t += h
            y = y5
        factor = 0.9 * (budget / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return y


def integrate_frame(spec: PotentialSpec, z: complex, trunc: int = DEFAULT_TRUNC,
                    tol: float = DEFAULT_TOL, path=None) -> LoopMatrix:
    """Holomorphic frame C(z, .) solving dC = C eta, C(base, .) = I.

    Integrates along the straight segment from the base point (or the
    polygonal ``path`` of waypoints ending at z).  Constant degree-one
    potentials integrate exactly to exp(z D(lambda)).
    """
    if spec.kind == "constant_degree_one":
        return loop_exp(loop_scale(spec.d_matrix, z - spec.base_point), trunc)

    waypoints = [spec.base_point] + (list(path) if path else []) + [z]
    lo = -trunc
    n_deg = trunc + 1  # degrees lo..0; eta only lowers the degree
    y = np.zeros((n_deg, 3, 3), dtype=complex)
    y[-1] = np.eye(3)

    for za, zb in zip(waypoints[:-1], waypoints[1:]):
        dz = zb - za
        if dz == 0:
            continue

        def deriv(t, c, za=za, dz=dz):
            a = spec.coefficient_matrix(za + t * dz) * dz
            out = np.empty_like(c)
            out[:-1] = c[1:] @ a  # multiplication by lambda^{-1} a
            out[-1] = 0.0
            return out

        y = _rk45(deriv, y, abs(dz), tol)

    frame = LoopMatrix(y, lo, twisted=True)
    boundary = frame.tail_norm(trunc)
    peak = float(np.max(np.abs(y)))
    if boundary > 1e-6 * peak:
        raise TruncationOverflow(
            f"boundary coefficient {boundary:.3e} vs peak {peak:.3e} at trunc={trunc}")
    return frame.trim(0.0)


@dataclass(frozen=True)
class FramePoint:
    z: complex
    c_frame: LoopMatrix
    frame: LoopMatrix
    v_plus: LoopMatrix
    residual: float
    tail: float


@dataclass(frozen=True)
class FrameField:
    points: tuple
    potential: PotentialSpec
    trunc: int

    @property
    def residual_summary(self):
        return tuple((p.z, p.residual, p.tail) for p in self.points)


def frame_point(spec: PotentialSpec, z: complex, trunc: int = DEFAULT_TRUNC,
                tol: float = DEFAULT_TOL) -> FramePoint:
    c = integrate_frame(spec, z, trunc, tol)
    fac: IwasawaFactors = iwasawa(c, trunc)
    return FramePoint(z=complex(z), c_frame=c, frame=fac.unitary,
                      v_plus=fac.v_plus, residual=fac.residual,
                      tail=c.tail_norm(trunc))


@dataclass(frozen=True)
class SurfaceSample:
    z: complex
    lift: np.ndarray  # in S^5 within the factorization residual
    u: float          # metric exponent, g = 2 e^u dz dzbar; -inf when singular
    psi: complex      # cubic-form coefficient
    v0: complex       # lambda^0 (1,1)-entry of V_+
    lambda0: complex
    singular: bool
    residual: float = 0.0
    tail: float = 0.0


def _normalize_lambda0(lambda0: complex) -> complex:
    lam = complex(lambda0)
    r = abs(lam)
    if abs(r - 1.0) > 1e-8:
        raise ValueError(f"lambda0 must lie on S^1, got |lambda0| = {r}")
    return lam / r


def sample_from_frame(spec: PotentialSpec, fp: FramePoint,
                      lambda0: complex) -> SurfaceSample:
    lam = _normalize_lambda0(lambda0)
    lift = fp.frame.evaluate(lam) @ E3
    v0 = complex(fp.v_plus.coefficient(0)[0, 0])
    a13 = complex(spec.coefficient_matrix(fp.z)[0, 2])
    metric_half = abs(a13 * v0)
    singular = metric_half < METRIC_FLOOR
    u = -math.inf if singular else 2.0 * math.log(metric_half)
    return SurfaceSample(z=fp.z, lift=lift, u=u, psi=spec.psi(fp.z), v0=v0,
                         lambda0=lam, singular=singular,
                         residual=fp.residual, tail=fp.tail)


def surface_sample(spec: PotentialSpec, z: complex, lambda0: complex = 1.0,
                   trunc: int = DEFAULT_TRUNC, tol: float = DEFAULT_TOL) -> SurfaceSample:
    return sample_from_frame(spec, frame_point(spec, z, trunc, tol), lambda0)


# -- grids ---------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    kind: str  # "polar" | "cartesian"
    r_max: float = 2.0
    n_r: int = 8
    n_theta: int = 8
    r_min: float | None = None
    extent: float = 2.0
    nx: int = 9
    ny: int = 9

    def nodes(self) -> np.ndarray:
        """Row-major node list; deterministic ordering."""
        if self.kind == "polar":
            r0 = self.r_min if self.r_min is not None else self.r_max / self.n_r
            radii = np.linspace(r0, self.r_max, self.n_r)
            thetas = 2 * np.pi * np.arange(self.n_theta) / self.n_theta
            return (radii[:, None] * np.exp(1j * thetas)[None, :]).ravel()
        if self.kind == "cartesian":
            xs = np.linspace(-self.extent, self.extent, self.nx)
            ys = np.linspace(-self.extent, self.extent, self.ny)
            return (xs[None, :] + 1j * ys[:, None]).ravel()
        raise SchemaError("grid.kind", f"unknown grid kind {self.kind!r}")

    @staticmethod
    def from_dict(doc: dict) -> "GridSpec":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise SchemaError("grid", "expected an object with 'kind'")
        kind = doc["kind"]
        if kind == "polar":
            allowed = {"r_max", "n_r", "n_theta", "r_min"}
        elif kind == "cartesian":
            allowed = {"extent", "nx", "ny"}
        else:
            raise SchemaError("grid.kind", "expected 'polar' or 'cartesian'")
        for key, value in doc.items():
            if key == "kind":
                continue
            if key not in allowed:
                raise SchemaError(f"grid.{key}", "unknown field")
            count = key in ("n_r", "n_theta", "nx", "ny")
            if not (is_finite_number(value) and value > 0
                    and (isinstance(value, int) or not count)):
                raise SchemaError(f"grid.{key}", "expected a positive integer" if count
                                  else "expected a finite positive number")
        return GridSpec(**doc)


def grid_sample(spec: PotentialSpec, grid: GridSpec, lambdas=(1.0,),
                trunc: int = DEFAULT_TRUNC, tol: float = DEFAULT_TOL):
    """Samples for every grid node and lambda_0, plus the frame field.

    Nodes are solved in order, so the output is the same on every run.
    Per-node errors are collected, not fatal.  ``grid`` may be a GridSpec
    or any iterable of complex nodes.
    """
    nodes = grid.nodes() if hasattr(grid, "nodes") else \
        np.asarray(list(grid), dtype=complex)
    lams = [_normalize_lambda0(l) for l in lambdas]
    samples = []
    good_points = []
    failures = []
    for z in nodes:
        try:
            fp = frame_point(spec, z, trunc, tol)
        except Exception as exc:  # noqa: BLE001 - per-node failures are data
            failures.append((complex(z), exc))
            continue
        good_points.append(fp)
        samples += [sample_from_frame(spec, fp, lam) for lam in lams]
    field = FrameField(points=tuple(good_points), potential=spec, trunc=trunc)
    return samples, field, failures


# -- closed-form oracles --------------------------------------------------------

def clifford_frame_loop(z: complex, trunc: int = DEFAULT_TRUNC) -> LoopMatrix:
    """exp(z lambda^{-1} A + zbar lambda tau(A)) as a Laurent loop."""
    a = su3.A_CLIFFORD
    exponent = LoopMatrix.from_coeffs(
        {-1: z * a, 1: np.conj(z) * su3.tau(a)}, twisted=True)
    return loop_exp(exponent, trunc)


def clifford_oracle(z: complex, lambda0: complex = 1.0) -> SurfaceSample:
    """Closed-form Clifford sample: flat metric u = 0 and psi = -1."""
    lam = _normalize_lambda0(lambda0)
    a = su3.A_CLIFFORD
    m = (z / lam) * a + (np.conj(z) * lam) * su3.tau(a)
    lift = su3.expm3(m) @ E3
    return SurfaceSample(z=complex(z), lift=lift, u=0.0, psi=-1.0 + 0.0j,
                         v0=1.0 + 0.0j, lambda0=lam, singular=False)


def rp2_oracle(a: complex, z: complex, lambda0: complex = 1.0) -> SurfaceSample:
    """Totally geodesic (psi = 0) sample from the round closed form.

    ``a`` is the purely imaginary constant i e^{u0/2}; the lift is
    (lambda0^{-1} a z, lambda0 a zbar, 1 - |az|^2/2) / (1 + |az|^2/2).
    """
    a = complex(a)
    if abs(a.real) > 1e-12 * abs(a):
        raise ValueError("a must be purely imaginary (a = i e^{u0/2})")
    lam = _normalize_lambda0(lambda0)
    w = abs(a * z) ** 2 / 2.0
    lift = np.array([a * z / lam, a * np.conj(z) * lam, 1.0 - w],
                    dtype=complex) / (1.0 + w)
    u = 2.0 * math.log(abs(a) / (1.0 + w))
    # e^{u/2} = |a_slot v0| with a_slot = e^{u0/2} = |a|, so v0 = 1/(1+w)
    return SurfaceSample(z=complex(z), lift=lift, u=u, psi=0.0 + 0.0j,
                         v0=complex(1.0 / (1.0 + w)), lambda0=lam, singular=False)


# -- surface maps (uniform sampling protocol for residual certification) --------

class PipelineSurface:
    """Point sampler backed by the full integrate + Iwasawa pipeline.

    Frame points are cached by z, so finite-difference stencils and repeated
    lambda values reuse the expensive factorizations.
    """

    def __init__(self, spec: PotentialSpec, lambda0: complex = 1.0,
                 trunc: int = DEFAULT_TRUNC, tol: float = DEFAULT_TOL):
        self.spec = spec
        self.lambda0 = _normalize_lambda0(lambda0)
        self.trunc = trunc
        self.tol = tol
        self._points: dict[complex, FramePoint] = {}

    def frame_point(self, z: complex) -> FramePoint:
        z = complex(z)
        fp = self._points.get(z)
        if fp is None:
            fp = frame_point(self.spec, z, self.trunc, self.tol)
            self._points[z] = fp
        return fp

    def sample(self, z: complex) -> SurfaceSample:
        return sample_from_frame(self.spec, self.frame_point(z), self.lambda0)

    def lift(self, z: complex) -> np.ndarray:
        return self.sample(z).lift

    def frame_at(self, z: complex, lams: np.ndarray) -> np.ndarray:
        """The extended frame at z for each of lams, (n, 3, 3)."""
        return self.frame_point(z).frame.evaluate_many(lams)


class CliffordSurface:
    def __init__(self, lambda0: complex = 1.0):
        self.lambda0 = _normalize_lambda0(lambda0)

    def sample(self, z: complex) -> SurfaceSample:
        return clifford_oracle(z, self.lambda0)

    def lift(self, z: complex) -> np.ndarray:
        return self.sample(z).lift


class RP2Surface:
    def __init__(self, a: complex = 1j, lambda0: complex = 1.0):
        self.a = complex(a)
        self.lambda0 = _normalize_lambda0(lambda0)

    def sample(self, z: complex) -> SurfaceSample:
        return rp2_oracle(self.a, z, self.lambda0)

    def lift(self, z: complex) -> np.ndarray:
        return self.sample(z).lift


# -- axis metric continuation ----------------------------------------------------

def axis_log_v0(spec: PotentialSpec, radius: float = 1.0, n_radii: int = 14,
                n_theta: int = 32, fit_degree: int = 12,
                trunc: int = DEFAULT_TRUNC, tol: float = DEFAULT_TOL):
    """Polynomial continuation of log v_0(z, zbar) to the axis zbar = 0.

    v_0 is real-analytic, so on a circle |z| = rho its log has Fourier modes
    mode_j(rho) = sum_n c_{n+j, n} rho^{2n+j}; fitting each mode over several
    radii isolates the axis coefficients c_{j,0} and

        u(z, 0) = u(0, 0) - 2 * sum_j c_{j,0} z^j.

    Returns the Poly sum_j c_{j,0} z^j (valid on |z| <= radius).
    """
    from .potentials import Poly

    radii = np.geomspace(0.12 * radius, 0.85 * radius, n_radii)
    j_max = min(fit_degree, n_theta // 2 - 1)
    modes = np.zeros((n_radii, j_max + 1), dtype=complex)
    for ri, rho in enumerate(radii):
        w = np.empty(n_theta)
        for mi in range(n_theta):
            z = rho * np.exp(2j * np.pi * mi / n_theta)
            fp = frame_point(spec, z, trunc, tol)
            w[mi] = math.log(abs(fp.v_plus.coefficient(0)[0, 0]))
        spec_w = np.fft.fft(w) / n_theta  # index j: coefficient of e^{i j theta}
        modes[ri] = spec_w[:j_max + 1]
    # Fit mode_j(rho) = rho^j * P_j(rho^2) with P_j expanded in Chebyshev
    # polynomials on the sampled rho^2 interval; a monomial basis would
    # amplify the sample noise by its ~1e9 condition number, while the
    # Chebyshev extrapolation to rho = 0 only costs the T_n growth factor
    # just outside the interval (~25 here).
    t = radii ** 2
    t_lo, t_hi = t[0], t[-1]
    x_of = lambda tt: (2 * tt - (t_lo + t_hi)) / (t_hi - t_lo)
    cheb = np.polynomial.chebyshev.chebvander(x_of(t), fit_degree)
    at_zero = np.polynomial.chebyshev.chebvander(
        np.array([x_of(0.0)]), fit_degree)[0]
    coeffs = []
    for j in range(j_max + 1):
        # the rho^j row weighting concentrates information in the largest
        # radii, so the resolvable polynomial degree shrinks with j
        deg_j = max(2, fit_degree - j)
        design = radii[:, None] ** j * cheb[:, :deg_j + 1]
        sol, *_ = np.linalg.lstsq(design, modes[:, j], rcond=None)
        coeffs.append(at_zero[:deg_j + 1] @ sol)
    return Poly(tuple(complex(c) for c in coeffs))
