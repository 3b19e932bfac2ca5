"""Monodromy and closing conditions for the Clifford family.

The extended frame of the Clifford torus is F(z, lambda) =
exp(z lambda^{-1} A + zbar lambda tau(A)) with commuting exponents, so the
monodromy of the translation z -> z + delta is the unitary matrix

    M(delta, lambda0) = exp(delta lambda0^{-1} A + conj(delta) lambda0 tau(A)).

The translated surface closes in CP^2 iff M(delta, lambda0) = c I with
c^3 = 1.  Since the eigenvalues of A are i, i alpha, i alpha^2
(alpha = e^{2 pi i/3}), the closing translations form the lattice

    delta = ((2 l1 - l2 - l3)/3) lambda0 pi + i ((l3 - l2)/sqrt(3)) lambda0 pi,

the lambda0 = 1 lattice rotated by lambda0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import su3
from .factorization import iwasawa
from .loops import LoopMatrix, loop_scale, loop_exp

CLOSING_TOL = 1e-9
_CUBE_ROOTS = tuple(np.exp(2j * np.pi * k / 3) for k in range(3))


def monodromy(delta: complex, lambda0: complex = 1.0) -> np.ndarray:
    """M(delta, lambda0); unitary for lambda0 on S^1."""
    a = su3.A_CLIFFORD
    return su3.expm3(delta / lambda0 * a + np.conj(delta) * lambda0 * su3.tau(a))


def closing_delta(l1: int, l2: int, l3: int, lambda0: complex = 1.0) -> complex:
    """The lattice translation solving the three closing congruences."""
    return complex(lambda0) * math.pi * ((2 * l1 - l2 - l3) / 3.0
                                         + 1j * (l3 - l2) / math.sqrt(3.0))


def check_closing(delta: complex, lambda0: complex = 1.0,
                  tol: float = CLOSING_TOL):
    """(closed, c): closed iff ||M - c I|| < tol for the best cube root c."""
    m = monodromy(delta, lambda0)
    best = min(_CUBE_ROOTS, key=lambda c: np.linalg.norm(m - c * np.eye(3)))
    return bool(np.linalg.norm(m - best * np.eye(3)) < tol), complex(best)


@dataclass(frozen=True)
class ClosingReport:
    delta: complex
    lambda0: complex
    closed: bool
    c: complex
    k_residue: int  # index of the matched cube root, c = e^{2 pi i k/3}
    residual: float
    omega1: complex = 0.0  # generators of the closing lattice at lambda0
    omega2: complex = 0.0


def closing_report(l1: int, l2: int, l3: int,
                   lambda0: complex = 1.0) -> ClosingReport:
    delta = closing_delta(l1, l2, l3, lambda0)
    m = monodromy(delta, lambda0)
    dists = [float(np.linalg.norm(m - c * np.eye(3))) for c in _CUBE_ROOTS]
    k = int(np.argmin(dists))
    return ClosingReport(delta=delta, lambda0=complex(lambda0),
                         closed=dists[k] < CLOSING_TOL,
                         c=complex(_CUBE_ROOTS[k]), k_residue=k,
                         residual=dists[k],
                         omega1=closing_delta(1, 0, 0, lambda0),
                         omega2=closing_delta(0, 0, 1, lambda0))


def translational_frame(d_matrix: LoopMatrix, x: float, trunc: int = 16) -> LoopMatrix:
    """Extended frame at real parameter x for a constant degree-one potential.

    Iwasawa split of exp(x D(lambda)); satisfies the equivariance cocycle
    F(x + y) = chi(x) F(y) up to the K-gauge circle (see cocycle_residual).
    D comes from a unitary frame (D = F^{-1} dF/dx at 0), so it is
    su(3)-valued on S^1: D_0 in su(3) and D_1 = tau(D_{-1}).
    """
    c = loop_exp(loop_scale(d_matrix, x), trunc)
    return iwasawa(c, trunc).unitary


def cocycle_residual(d_matrix: LoopMatrix, x: float, y: float,
                     trunc: int = 16, lambda_samples: int = 12,
                     phase_steps: int = 720) -> float:
    """Gauge-minimized lift cocycle defect of the equivariant frame.

    The equivariant frame differs from the unique-Iwasawa frame by a K-gauge
    diag(e^{i phi}, e^{-i phi}, 1), so on lifts the cocycle reads
    f(x+y) = F(x) k_phi f(y) for one phi; the residual minimizes over phi.
    """
    f_xy = translational_frame(d_matrix, x + y, trunc)
    f_x = translational_frame(d_matrix, x, trunc)
    f_y = translational_frame(d_matrix, y, trunc)
    lams = su3.unit_circle(lambda_samples)
    lift_xy = f_xy.evaluate_many(lams)[:, :, 2]  # F e_3 at each lambda
    fx_vals = f_x.evaluate_many(lams)
    lift_y = f_y.evaluate_many(lams)[:, :, 2]

    def defect(phi):
        k = np.diag([np.exp(1j * phi), np.exp(-1j * phi), 1.0])
        moved = np.einsum("lij,jk,lk->li", fx_vals, k, lift_y)
        return float(np.max(np.linalg.norm(lift_xy - moved, axis=1)))

    phis = np.linspace(0.0, 2 * np.pi, phase_steps, endpoint=False)
    vals = [defect(p) for p in phis]
    i0 = int(np.argmin(vals))
    lo = phis[i0] - 2 * np.pi / phase_steps
    hi = phis[i0] + 2 * np.pi / phase_steps
    # golden-section refinement of the single continuous gauge parameter
    gr = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1 = b - gr * (b - a)
    c2 = a + gr * (b - a)
    f1, f2 = defect(c1), defect(c2)
    for _ in range(60):
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = defect(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = defect(c2)
    return min(f1, f2)
