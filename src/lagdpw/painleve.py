"""Painleve III (type D_7) reduction of the radial metric equation.

For an entire radially symmetric surface with cubic form psi_0 z^{2k+n} the
metric exponent u(r) satisfies the polar integrability equation

    u'' + u'/r + 4 e^u - 4 |psi|^2 e^{-2u} = 0,   |psi| = |psi_0| r^{2k+n},

and the substitution h(s) = e^{u(r(s))} s^j with s = r^l,
l = (2k+n+3)/2, j l = (1-2k-n)/2, turns it into the degenerate Painleve III

    h.. = h.^2/h - h./s - (16/(2k+n+3)^2) h^2/s + (16 |psi_0|^2/(2k+n+3)^2) / h.

Near s = 0 the branch coming from a potential with leading coefficient a_k
is h = |a_k|^2 s^c e^{v(x)} with c = (2k-n+1)/(2k+n+3) and x = s^{2/l} = r^2,
where v = sum_{m>=1} c_m x^m, v(0) = 0, solves

    (x v')' = -|a_k|^2 x^k e^v + |psi_0|^2 |a_k|^-4 x^n e^{-2v}.

The leading term is the power law |a_k|^2 s^c, but log h = c log s
+ 2 log|a_k| + o(s) holds only for k = n = 0 (first correction of order
s^{4/3}); in general the first correction is of order
x^{1+min(k,n)} = s^{2(1+min(k,n))/l}, for radial_k1 (k = 1, n = 0) s^{4/5}.
The integration is therefore seeded from SERIES_TERMS terms of the series
(``series_seed``; ``asymptotic_seed`` is its leading term), which singles
out the unique entire-surface solution, and runs scipy's DOP853, the
order-8 Dormand-Prince pair.  For k = n = 0, |psi_0| = |a_k| = 1 every c_m
vanishes and h(s) = s^{1/3} exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NotRadialPIII, SeedTooLarge
from .potentials import PotentialSpec

BLOWUP_LOW = 1e-8
BLOWUP_HIGH = 1e8
SERIES_TERMS = 12       # terms of v = sum c_m x^m behind series_seed
PIII_SAMPLES = 400      # s-values of a solve_piii solution
CROSSCHECK_TOL = 1e-10  # solve_piii tolerance inside crosscheck
CROSSCHECK_S0 = 1e-7    # crosscheck's series seed point, far below its s-range


@dataclass(frozen=True)
class PainleveParams:
    k: int
    n: int
    psi0_abs: float
    ak_abs: float

    def __post_init__(self):
        if self.k < 0 or self.n < 0:
            raise ValueError("k, n must be nonnegative")
        if self.psi0_abs <= 0 or self.ak_abs <= 0:
            raise ValueError("|psi0| and |a_k| must be positive")

    @property
    def l(self) -> Fraction:
        return Fraction(2 * self.k + self.n + 3, 2)

    @property
    def j(self) -> Fraction:
        return Fraction(1 - 2 * self.k - self.n, 2) / self.l

    @property
    def slope(self) -> Fraction:
        """Asymptotic exponent c = (2k - n + 1)/(2k + n + 3)."""
        return Fraction(2 * self.k - self.n + 1, 2 * self.k + self.n + 3)

    @property
    def coeff(self) -> float:
        return 16.0 / (2 * self.k + self.n + 3) ** 2

    @staticmethod
    def from_spec(spec: PotentialSpec) -> "PainleveParams":
        if spec.kind not in ("radial_monomial", "vacuum"):
            raise NotRadialPIII(f"kind {spec.kind!r} has no radial PIII reduction")
        k, n = spec.monomial_exponents()
        psi0 = spec.psi0
        if psi0 is None or psi0 == 0:
            raise NotRadialPIII("psi0 = 0: the reduction assumes psi0 < 0")
        ak = spec.a_fn.coeffs[k]
        return PainleveParams(k=k, n=n, psi0_abs=abs(psi0), ak_abs=abs(ak))


def piii_rhs(s, h, h_dot, params: PainleveParams):
    """h.. for the D_7 equation, for scalars or arrays; domain s > 0, h > 0."""
    if np.any(s <= 0) or np.any(h <= 0):
        raise DomainError(f"piii_rhs needs s > 0 and h > 0, got min s={np.min(s)}, "
                          f"min h={np.min(h)}")
    c = params.coeff
    return (h_dot ** 2 / h - h_dot / s - c * h ** 2 / s
            + c * params.psi0_abs ** 2 / h)


def asymptotic_seed(params: PainleveParams, s0: float = 1e-3):
    """(h0, h_dot0) from log h ~ c log s + 2 log|a_k|: h = |a_k|^2 s^c."""
    c = float(params.slope)
    h0 = params.ak_abs ** 2 * s0 ** c
    return h0, c * h0 / s0


def series_coefficients(params: PainleveParams) -> list[float]:
    """[c_0 = 0, c_1, ..., c_SERIES_TERMS] of v(x) = sum c_m x^m.

    Here e^u = |a_k|^2 x^k e^v with x = r^2, and
    (x v')' = -|a_k|^2 x^k e^v + |psi0|^2 |a_k|^-4 x^n e^{-2v} with v(0) = 0
    gives m^2 c_m = [x^{m-1}] of the right side.  That coefficient needs
    e^v and e^{-2v} only up to x^{m-1}, which c_1..c_{m-1} fix through the
    series exponential i E_i = sum_j j a_j E_{i-j}.
    """
    # products, not powers: on Python floats they overflow to inf, never raise
    a = params.ak_abs * params.ak_abs
    q = params.psi0_abs / params.ak_abs / params.ak_abs
    b = q * q
    cs = [0.0]
    exp_v, exp_m2v = [1.0], [1.0]
    for m in range(1, SERIES_TERMS + 1):
        i = m - 1
        if i:
            acc = sum(j * cs[j] * exp_v[i - j] for j in range(1, m))
            exp_v.append(acc / i)
            acc = sum(j * cs[j] * exp_m2v[i - j] for j in range(1, m))
            exp_m2v.append(-2.0 * acc / i)
        rhs = 0.0
        if i >= params.k:
            rhs -= a * exp_v[i - params.k]
        if i >= params.n:
            rhs += b * exp_m2v[i - params.n]
        cs.append(rhs / (m * m))
    return cs


def series_seed(params: PainleveParams, s0: float):
    """(h0, h_dot0) from h = |a_k|^2 s^c e^{v(x)}, x = s^{2/l}.

    h. = (h/s)(c + (2/l) x v'(x)); the series is summed by Horner.  Raises
    DomainError unless 0 < s0 < inf, and SeedTooLarge when the seed is not a
    finite positive number.
    """
    if not 0.0 < s0 < math.inf:
        raise DomainError(f"the seed needs 0 < s0 < inf, got s0={s0}")
    c = float(params.slope)
    two_over_l = 2.0 / float(params.l)
    cs = series_coefficients(params)
    try:
        x = s0 ** two_over_l
        v = xdv = 0.0
        for m in range(len(cs) - 1, 0, -1):
            v = (v + cs[m]) * x
            xdv = (xdv + m * cs[m]) * x
        h0 = params.ak_abs * params.ak_abs * s0 ** c * math.exp(v)
        hd0 = h0 / s0 * (c + two_over_l * xdv)
    except OverflowError:
        h0 = hd0 = math.inf
    if not (0.0 < h0 < math.inf and math.isfinite(hd0)):
        raise SeedTooLarge(f"series seed at s0={s0} is not finite and positive: "
                           f"h0={h0}, h_dot0={hd0}")
    return h0, hd0


@dataclass(frozen=True)
class PainleveSolution:
    s_samples: np.ndarray
    h: np.ndarray
    h_dot: np.ndarray
    params: PainleveParams
    residual: np.ndarray  # per sample |h.. - rhs|, h.. by differencing dense h.
    max_residual: float
    blowup_at: float | None = None
    dense: object = None  # callable s -> (h, h_dot) rows

    def interp(self, s):
        """Dense-output evaluation of h on the integrated range."""
        return self.dense(np.atleast_1d(s))[0]


def _integrate(params, s0, s_max, tol):
    from scipy.integrate import solve_ivp  # not at module level: only PIII solves need it
    c = params.coeff
    c_psi = c * params.psi0_abs * params.psi0_abs

    def rhs(s, y):
        """piii_rhs on Python floats: no numpy reductions, no overflow warnings."""
        s = float(s)
        h, hd = y.tolist()
        if s <= 0 or h <= 0:
            raise DomainError(f"piii_rhs needs s > 0 and h > 0, got s={s}, h={h}")
        return [hd, hd * hd / h - hd / s - c * h * h / s + c_psi / h]

    def low(s, y):
        return y[0] - BLOWUP_LOW

    def high(s, y):
        return y[0] - BLOWUP_HIGH

    low.terminal = True
    high.terminal = True
    y0 = series_seed(params, s0)
    sol = solve_ivp(rhs, (s0, s_max), y0, method="DOP853", rtol=tol,
                    atol=tol * 1e-2, dense_output=True, events=[low, high])
    return sol


def solve_piii(params: PainleveParams, s_max: float = 10.0, tol: float = 1e-10,
               s0: float = 1e-3) -> PainleveSolution:
    """Integrate by DOP853 from the series seed at s0; dual-seed guarded.

    A second integration seeded at s0/2 must agree with the first within
    100*tol where both exist, otherwise s0 sits outside the range where
    SERIES_TERMS terms of the seed series are accurate and SeedTooLarge is
    raised.  Blow-up (h below 1e-8 or above 1e8) terminates the solution
    early and is recorded in blowup_at.  DomainError unless tol is finite
    and positive and s_max is finite; otherwise the solve need not end.
    """
    if not (0.0 < tol < math.inf and math.isfinite(s_max)):
        raise DomainError(f"solve_piii needs 0 < tol < inf and a finite s_max, "
                          f"got tol={tol}, s_max={s_max}")
    if s_max < s0:
        raise ValueError("s_max must be >= s0")
    if s_max == s0:
        h0, hd0 = series_seed(params, s0)
        dense = lambda s: np.vstack(
            [np.full_like(np.asarray(s, dtype=float), h0),
             np.full_like(np.asarray(s, dtype=float), hd0)])
        return PainleveSolution(np.array([s0]), np.array([h0]), np.array([hd0]),
                                params, np.zeros(1), 0.0, dense=dense)

    main = _integrate(params, s0, s_max, tol)
    check = _integrate(params, s0 / 2, s_max, tol)
    s_hi = min(main.t[-1], check.t[-1])
    probe = np.geomspace(s0, s_hi, 64)
    h_main = main.sol(probe)[0]
    gap = float(np.max(np.abs(h_main - check.sol(probe)[0])))
    scale = float(np.max(np.abs(h_main)))
    if gap > 100 * tol * max(scale, 1.0):
        raise SeedTooLarge(
            f"seeds at s0 and s0/2 disagree by {gap:.3e}; shrink s0")

    blowup = float(main.t[-1]) if main.status == 1 else None
    s = np.geomspace(s0, main.t[-1], PIII_SAMPLES)
    # residual of the dense output against the ODE: differentiate the dense
    # h_dot locally (s and s +- ds in one dense call) and compare with the
    # rhs; the maximum is taken over the interior samples, normalized by the
    # term scale (the rhs itself diverges like s^{c-2} towards 0)
    ds = 1e-4 * s
    n = s.size
    vals = main.sol(np.concatenate([s, s + ds, s - ds]))
    h, h_dot = vals[0, :n], vals[1, :n]
    hdd = (vals[1, n:2 * n] - vals[1, 2 * n:]) / (2 * ds)
    residual = np.abs(hdd - piii_rhs(s, h, h_dot, params))
    c = params.coeff
    scale = 1.0 + np.abs(h_dot ** 2 / h) + np.abs(h_dot / s) + c * h ** 2 / s \
        + c * params.psi0_abs ** 2 / h
    max_residual = float(np.max(residual[1:-1] / scale[1:-1], initial=0.0))
    return PainleveSolution(s, h, h_dot, params, residual, max_residual, blowup,
                            dense=main.sol)


def metric_to_h(r_samples, u_samples, params: PainleveParams):
    """(s, h) from sampled u(r): s = r^l, h = e^u s^j, sorted by s."""
    r = np.asarray(r_samples, dtype=float)
    u = np.asarray(u_samples, dtype=float)
    if r.size == 0:
        return np.array([]), np.array([])
    order = np.argsort(r)
    r, u = r[order], u[order]
    s = r ** float(params.l)
    return s, np.exp(u) * s ** float(params.j)


def crosscheck(spec: PotentialSpec, s_range=(1e-3, 5.0), trunc: int = 24,
               n_points: int = 40) -> float:
    """max |h_DPW - h_PIII| over the s-range.

    h_DPW comes from metric extraction along a radial ray through the full
    integrate + Iwasawa pipeline; h_PIII from integrating the Painleve
    equation with the matching parameters.  The two computations share
    nothing but the potential coefficients: the series seed is built from
    |a_k| and |psi_0| alone.  It sits at an s0 far below the comparison range,
    where the terms it drops (x^{SERIES_TERMS+1} and beyond, x = s^{2/l}) are
    far below CROSSCHECK_TOL.
    """
    from .dpw import frame_point, sample_from_frame

    params = PainleveParams.from_spec(spec)
    s_lo, s_hi = s_range
    piii = solve_piii(params, s_max=s_hi, tol=CROSSCHECK_TOL, s0=min(CROSSCHECK_S0, s_lo))
    s_vals = np.geomspace(max(s_lo, piii.s_samples[0]), s_hi, n_points)
    r_vals = s_vals ** (1.0 / float(params.l))
    fps = [frame_point(spec, complex(r), trunc) for r in r_vals]
    s_dpw, h_dpw = metric_to_h(r_vals, sample_from_frame(spec, fps, 1.0).u, params)
    h_ref = piii.interp(s_dpw)
    return float(np.max(np.abs(h_dpw - h_ref)))


def polar_tzitzeica_residual(params: PainleveParams, sol: PainleveSolution,
                             n_probe: int = 200) -> float:
    """max |u'' + u'/r + 4 e^u - 4 |psi|^2 e^{-2u}| for u rebuilt from h.

    u and u' come from the dense (h, h_dot) pair without differencing; u'' is
    a central difference of u', with r and r +- dr in one dense call.
    """
    l = float(params.l)
    jl = float(params.j * params.l)
    s = np.geomspace(max(sol.s_samples[0] * 4, 0.05), sol.s_samples[-1] * 0.9,
                     n_probe)
    r = s ** (1.0 / l)
    dr = 5e-4
    rr = np.concatenate([r, r + dr, r - dr])
    h, hd = sol.dense(rr ** l)
    u = np.log(h) - jl * np.log(rr)
    du = (hd / h) * l * rr ** (l - 1.0) - jl / rr
    n = r.size
    upp = (du[n:2 * n] - du[2 * n:]) / (2 * dr)
    psi_abs = params.psi0_abs * r ** (2 * params.k + params.n)
    res = upp + du[:n] / r + 4 * np.exp(u[:n]) - 4 * psi_abs ** 2 * np.exp(-2 * u[:n])
    return float(np.max(np.abs(res), initial=0.0))
