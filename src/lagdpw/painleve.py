"""Painleve III (type D_7) reduction of the radial metric equation.

For an entire radially symmetric surface with cubic form psi_0 z^{2k+n} the
metric exponent u(r) satisfies the polar integrability equation

    u'' + u'/r + 4 e^u - 4 |psi|^2 e^{-2u} = 0,   |psi| = |psi_0| r^{2k+n},

and the substitution h(s) = e^{u(r(s))} s^j with s = r^l,
l = (2k+n+3)/2, j l = (1-2k-n)/2, turns it into the degenerate Painleve III

    h.. = h.^2/h - h./s - (16/(2k+n+3)^2) h^2/s + (16 |psi_0|^2/(2k+n+3)^2) / h.

Near s = 0 the branch coming from a potential with leading coefficient a_k
obeys log h(s) ~ c log s + 2 log|a_k| + o(s) with c = (2k-n+1)/(2k+n+3);
seeding the integration with exactly that power law singles out the unique
entire-surface solution.  For k = n = 0, |psi_0| = |a_k| = 1 the solution is
h(s) = s^{1/3} exactly.
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
    def rhs(s, y):
        h, hd = y
        return [hd, piii_rhs(s, h, hd, params)]

    def low(s, y):
        return y[0] - BLOWUP_LOW

    def high(s, y):
        return y[0] - BLOWUP_HIGH

    low.terminal = True
    high.terminal = True
    y0 = asymptotic_seed(params, s0)
    sol = solve_ivp(rhs, (s0, s_max), y0, method="RK45", rtol=tol,
                    atol=tol * 1e-2, dense_output=True, events=[low, high])
    return sol


def solve_piii(params: PainleveParams, s_max: float = 10.0, tol: float = 1e-10,
               s0: float = 1e-3, n_samples: int = 400) -> PainleveSolution:
    """Integrate from the asymptotic seed at s0; dual-seed guarded.

    A second integration seeded at s0/2 must agree with the first within
    100*tol where both exist, otherwise the seed sits outside the validity
    range of the leading-order asymptotics and SeedTooLarge is raised.
    Blow-up (h below 1e-8 or above 1e8) terminates the solution early and is
    recorded in blowup_at.
    """
    if s_max < s0:
        raise ValueError("s_max must be >= s0")
    if s_max == s0:
        h0, hd0 = asymptotic_seed(params, s0)
        dense = lambda s: np.vstack(
            [np.full_like(np.asarray(s, dtype=float), h0),
             np.full_like(np.asarray(s, dtype=float), hd0)])
        return PainleveSolution(np.array([s0]), np.array([h0]), np.array([hd0]),
                                params, np.zeros(1), 0.0, dense=dense)

    main = _integrate(params, s0, s_max, tol)
    check = _integrate(params, s0 / 2, s_max, tol)
    s_hi = min(main.t[-1], check.t[-1])
    probe = np.geomspace(s0, s_hi, 64)
    gap = float(np.max(np.abs(main.sol(probe)[0] - check.sol(probe)[0])))
    scale = float(np.max(np.abs(main.sol(probe)[0])))
    if gap > 100 * tol * max(scale, 1.0):
        raise SeedTooLarge(
            f"seeds at s0 and s0/2 disagree by {gap:.3e}; shrink s0")

    blowup = float(main.t[-1]) if main.status == 1 else None
    s = np.geomspace(s0, main.t[-1], n_samples)
    vals = main.sol(s)
    h, h_dot = vals[0], vals[1]
    # residual of the dense output against the ODE: differentiate the dense
    # h_dot locally and compare with the rhs; the maximum is taken over the
    # interior samples, normalized by the term scale (the rhs itself
    # diverges like s^{c-2} towards 0)
    ds = 1e-4 * s
    hdd = (main.sol(s + ds)[1] - main.sol(s - ds)[1]) / (2 * ds)
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


def crosscheck(spec: PotentialSpec, s_range=(1e-3, 5.0), tol: float = 1e-10,
               trunc: int = 24, n_points: int = 40, s0: float = 1e-7) -> float:
    """max |h_DPW - h_PIII| over the s-range.

    h_DPW comes from metric extraction along a radial ray through the full
    integrate + Iwasawa pipeline; h_PIII from integrating the Painleve
    equation with the matching parameters.  The two computations share
    nothing but the potential coefficients.  The seed sits at a much smaller
    s0 than the comparison range so the neglected o(s) of the asymptotics
    stays below tol.
    """
    from .dpw import surface_sample

    params = PainleveParams.from_spec(spec)
    s_lo, s_hi = s_range
    piii = solve_piii(params, s_max=s_hi, tol=tol, s0=min(s0, s_lo))
    s_vals = np.geomspace(max(s_lo, piii.s_samples[0]), s_hi, n_points)
    r_vals = s_vals ** (1.0 / float(params.l))
    u_vals = []
    for r in r_vals:
        smp = surface_sample(spec, complex(r), 1.0, trunc=trunc)
        u_vals.append(smp.u)
    s_dpw, h_dpw = metric_to_h(r_vals, u_vals, params)
    h_ref = piii.interp(s_dpw)
    return float(np.max(np.abs(h_dpw - h_ref)))


def polar_tzitzeica_residual(params: PainleveParams, sol: PainleveSolution,
                             n_probe: int = 200) -> float:
    """max |u'' + u'/r + 4 e^u - 4 |psi|^2 e^{-2u}| for u rebuilt from h."""
    l = float(params.l)
    jl = float(params.j * params.l)
    s = np.geomspace(max(sol.s_samples[0] * 4, 0.05), sol.s_samples[-1] * 0.9,
                     n_probe)
    r = s ** (1.0 / l)

    def u_and_du(rv):
        """u(r) and u'(r) from the dense (h, h_dot) pair (no differencing)."""
        sv = rv ** l
        h, hd = sol.dense(np.atleast_1d(sv))[:, 0]
        u = math.log(h) - jl * math.log(rv)
        du = (hd / h) * l * rv ** (l - 1.0) - jl / rv
        return u, du

    worst = 0.0
    for rv in r:
        dr = 5e-4
        u0, up = u_and_du(rv)
        upp = (u_and_du(rv + dr)[1] - u_and_du(rv - dr)[1]) / (2 * dr)
        psi_abs = params.psi0_abs * rv ** (2 * params.k + params.n)
        res = upp + up / rv + 4 * math.exp(u0) - 4 * psi_abs ** 2 * math.exp(-2 * u0)
        worst = max(worst, abs(float(res)))
    return worst
