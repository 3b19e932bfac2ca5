"""Order-6 automorphism of sl(3,C), real form su(3), and eigenspace arithmetic.

The symmetric-space structure behind everything here is carried by the pair

    sigma(g) = P (g^t)^{-1} P^{-1}   on SL(3,C),
    sigma(X) = -P X^t P^{-1}         on sl(3,C),
    tau(X)   = -conj(X)^t            (fixed points = su(3)),

with P = [[0, eps^2, 0], [eps^4, 0, 0], [0, 0, 1]], eps = exp(i pi/3).
P is Hermitian, unitary and an involution (P^2 = I), so P^{-1} = P.

sigma has order 6; its eigenspace g_k (eigenvalue eps^k) on sl(3,C) is a
fixed entry pattern, e.g. g_5 = [[0,0,a],[b,0,0],[0,a,0]], which is where
potential coefficients of minimal Lagrangian frames live.  The square
sigma^2 is inner, conjugation by D = diag(eps^4, eps^2, 1), which induces a
mod-3 entry grading used by the factorization engines: a Fourier
coefficient of a sigma-twisted *group* loop at degree d can only populate
entries (i,j) with w_i - w_j = 2d (mod 6), w = (4, 2, 0).
"""

from __future__ import annotations

import numpy as np

EPS = np.exp(1j * np.pi / 3)  # primitive 6th root of unity
ALPHA = np.exp(2j * np.pi / 3)  # primitive cube root, ALPHA = EPS^2

P = np.array(
    [[0, EPS**2, 0],
     [EPS**4, 0, 0],
     [0, 0, 1]], dtype=complex)

# Constant coefficient of the Clifford torus potential, in the g_5 pattern.
A_CLIFFORD = np.array(
    [[0, 0, 1j],
     [1j, 0, 0],
     [0, 1j, 0]], dtype=complex)

IDENTITY = np.eye(3, dtype=complex)

CIRCLE_OFFSET = 0.37  # unit_circle's turn, in units of its sample spacing

# Conjugation weights of sigma^2 = Ad(diag(eps^4, eps^2, 1)).
WEIGHTS = np.array([4, 2, 0])
_ENTRY_GRADE = np.mod(WEIGHTS[:, None] - WEIGHTS[None, :], 6)  # values in {0, 2, 4}


def sigma_alg(x: np.ndarray) -> np.ndarray:
    """Algebra automorphism X -> -P X^t P^{-1} (order 6)."""
    return -P @ x.T @ P


def sigma_grp(g: np.ndarray) -> np.ndarray:
    """Group automorphism g -> P (g^t)^{-1} P^{-1} (order 6), per matrix of a stack."""
    return P @ np.linalg.inv(np.swapaxes(g, -1, -2)) @ P


def tau(x: np.ndarray) -> np.ndarray:
    """Anti-holomorphic involution X -> -conj(X)^t of sl(3,C)."""
    return -np.conj(x).T


def eigenspace_project(x: np.ndarray, k: int) -> np.ndarray:
    """Project onto the eps^k eigenspace of sigma_alg.

    Uses the group-average projector (1/6) sum_m eps^{-km} sigma^m, so the six
    projections sum to x exactly and are mutually annihilating, also for
    matrices with trace (the identity sits in the eps^3 eigenspace of gl(3)).
    """
    acc = np.zeros((3, 3), dtype=complex)
    y = np.asarray(x, dtype=complex)
    for m in range(6):
        acc += EPS ** (-k * m) * y
        y = sigma_alg(y)
    return acc / 6.0


def group_slot_mask(degree) -> np.ndarray:
    """Boolean mask of entries a twisted group-loop coefficient may occupy.

    An integer array of degrees shaped (n, 1, 1) gives the (n, 3, 3) stack.

    Derived from sigma^2 only (the inner part); the remaining order-2
    condition relates a loop to its inverse and is not entrywise linear.
    """
    return _ENTRY_GRADE == (2 * degree) % 6


def expm3(x: np.ndarray) -> np.ndarray:
    """Matrix exponential of a 3x3 block or of each of a stack (scaling-and-squaring Pade)."""
    from scipy.linalg import expm  # not at module level: nothing on the build path needs it
    return expm(np.asarray(x, dtype=complex))


def op_norm(x: np.ndarray):
    """Spectral norm of a matrix, or of each matrix of a stack."""
    return np.linalg.norm(x, 2, axis=(-2, -1))


def unitarity_defect(g: np.ndarray):
    """||g* g - I||_2 of a matrix, or of each matrix of a stack."""
    return op_norm(np.conj(np.swapaxes(g, -1, -2)) @ g - IDENTITY)


def unit_circle(n: int) -> np.ndarray:
    """n sample points on S^1, turned by CIRCLE_OFFSET to avoid eps-multiple coincidences."""
    return np.exp(2j * np.pi * (np.arange(n) + CIRCLE_OFFSET) / n)
