"""Independent oracle for the holomorphic frame: adaptive Dormand-Prince 4(5).

``rk45_frame`` integrates dC = C eta coefficientwise from the pointwise
values of ``spec.coefficient_matrix`` along the straight segment from 0,
or along a polygonal path of waypoints.  It shares nothing with
the exact Picard stack of ``lagdpw.dpw`` beyond the potential's slots.
"""

import numpy as np

from lagdpw.errors import PoleOnPath
from lagdpw.loops import LoopMatrix

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


def rk45_frame(spec, z: complex, trunc: int, tol: float, path=None) -> LoopMatrix:
    """The frame on degrees -trunc..0 by DP45 along the waypoints ``path`` to z.

    The local error is kept near ``tol`` per unit path length.
    """
    waypoints = [0.0] + (list(path) if path else []) + [z]
    y = np.zeros((trunc + 1, 3, 3), dtype=complex)
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
    return LoopMatrix(y, -trunc, twisted=True)
