"""Truncated Laurent loops with 3x3 complex matrix coefficients.

A LoopMatrix stores g(lambda) = sum_d lambda^d G_d over a contiguous degree
window [min_degree, max_degree].  Coefficients are a stacked complex array of
shape (n_degrees, 3, 3).  Values are immutable; every operation allocates.

Twisting conventions (both are checked, neither is silently assumed):

* algebra loops:  xi(eps lambda) = sigma(xi(lambda)) holds iff each
  coefficient xi_d lies in the eigenspace g_{d mod 6}; checked
  coefficientwise by ``algebra_twist_residual``.
* group loops:    g(eps lambda) = sigma(g(lambda)) is nonlinear in the
  coefficients and is checked by sampling S^1 (``twist_residual``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su3
from .errors import SingularLoop

COND_LIMIT = 1e12
DEFAULT_CIRCLE_SAMPLES = 24


@dataclass(frozen=True)
class LoopMatrix:
    coeffs: np.ndarray  # (n, 3, 3) complex, degree min_degree + index
    min_degree: int
    twisted: bool = False

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 3 or c.shape[1:] != (3, 3):
            raise ValueError(f"coefficient stack must be (n,3,3), got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite loop coefficient")
        object.__setattr__(self, "coeffs", c)

    # -- basic structure ---------------------------------------------------

    @property
    def max_degree(self) -> int:
        return self.min_degree + self.coeffs.shape[0] - 1

    @property
    def degrees(self) -> range:
        return range(self.min_degree, self.max_degree + 1)

    def coefficient(self, d: int) -> np.ndarray:
        if self.min_degree <= d <= self.max_degree:
            return self.coeffs[d - self.min_degree]
        return np.zeros((3, 3), dtype=complex)

    def trim(self, floor: float = 0.0) -> "LoopMatrix":
        """Drop zero (or <= floor) boundary coefficients."""
        norms = np.max(np.abs(self.coeffs), axis=(1, 2))
        keep = np.nonzero(norms > floor)[0]
        if keep.size == 0:
            return LoopMatrix(np.zeros((1, 3, 3), complex), 0, self.twisted)
        lo, hi = keep[0], keep[-1]
        return LoopMatrix(self.coeffs[lo:hi + 1], self.min_degree + lo, self.twisted)

    def restrict(self, lo: int, hi: int) -> "LoopMatrix":
        """Coefficients clipped to the window [lo, hi]."""
        n = hi - lo + 1
        out = np.zeros((n, 3, 3), dtype=complex)
        s_lo = max(lo, self.min_degree)
        s_hi = min(hi, self.max_degree)
        if s_lo <= s_hi:
            out[s_lo - lo:s_hi - lo + 1] = self.coeffs[s_lo - self.min_degree:
                                                       s_hi - self.min_degree + 1]
        return LoopMatrix(out, lo, self.twisted)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(twisted: bool = True) -> "LoopMatrix":
        return LoopMatrix(np.eye(3, dtype=complex)[None], 0, twisted)

    @staticmethod
    def constant(m: np.ndarray, twisted: bool = False) -> "LoopMatrix":
        return LoopMatrix(np.asarray(m, dtype=complex)[None], 0, twisted)

    @staticmethod
    def monomial(d: int, m: np.ndarray, twisted: bool = False) -> "LoopMatrix":
        return LoopMatrix(np.asarray(m, dtype=complex)[None], d, twisted)

    @staticmethod
    def from_coeffs(entries: dict[int, np.ndarray], twisted: bool = False) -> "LoopMatrix":
        lo = min(entries)
        hi = max(entries)
        c = np.zeros((hi - lo + 1, 3, 3), dtype=complex)
        for d, m in entries.items():
            c[d - lo] = np.asarray(m, dtype=complex)
        return LoopMatrix(c, lo, twisted)

    # -- evaluation and norms ----------------------------------------------

    def evaluate(self, lam: complex) -> np.ndarray:
        """g(lam) = sum_d lam^d G_d."""
        return self.evaluate_many(np.array([lam]))[0]

    def evaluate_many(self, lams: np.ndarray) -> np.ndarray:
        """g(lam) at each of lams, (n, 3, 3); Horner over the degree window."""
        pw = np.asarray(lams)[:, None, None]
        acc = np.zeros((len(pw), 3, 3), dtype=complex)
        for c in self.coeffs[::-1]:
            acc = acc * pw + c
        return acc * pw ** self.min_degree

    def wiener_norm(self) -> float:
        """Sum over degrees of the entrywise max norm of each coefficient."""
        return float(np.sum(np.max(np.abs(self.coeffs), axis=(1, 2))))

    def tail_norm(self, n: int | None = None) -> float:
        """Max coefficient norm at the truncation boundary |d| = n."""
        if n is None:
            n = max(abs(self.min_degree), abs(self.max_degree))
        return float(max(np.max(np.abs(self.coefficient(n))),
                         np.max(np.abs(self.coefficient(-n)))))

    def conj_transpose(self) -> "LoopMatrix":
        """Pointwise Hermitian adjoint on S^1: (g*)_d = conj(G_{-d})^t."""
        c = np.conj(np.transpose(self.coeffs[::-1], (0, 2, 1)))
        return LoopMatrix(c, -self.max_degree, self.twisted)


def loop_product(a: LoopMatrix, b: LoopMatrix, trunc: int | None = None) -> LoopMatrix:
    """Cauchy product; exact for all |d| <= trunc, clipped to that window."""
    lo = a.min_degree + b.min_degree
    na, nb = a.coeffs.shape[0], b.coeffs.shape[0]
    out = np.zeros((na + nb - 1, 3, 3), dtype=complex)
    for i in range(na):
        out[i:i + nb] += np.einsum("jk,dkl->djl", a.coeffs[i], b.coeffs)
    res = LoopMatrix(out, lo, a.twisted and b.twisted)
    if trunc is not None:
        res = res.restrict(max(lo, -trunc), min(res.max_degree, trunc))
    return res


def loop_sum(a: LoopMatrix, b: LoopMatrix, sign: float = 1.0) -> LoopMatrix:
    lo = min(a.min_degree, b.min_degree)
    hi = max(a.max_degree, b.max_degree)
    c = np.zeros((hi - lo + 1, 3, 3), dtype=complex)
    c[a.min_degree - lo:a.max_degree - lo + 1] += a.coeffs
    c[b.min_degree - lo:b.max_degree - lo + 1] += sign * b.coeffs
    return LoopMatrix(c, lo, a.twisted and b.twisted)


def loop_scale(a: LoopMatrix, s: complex) -> LoopMatrix:
    return LoopMatrix(a.coeffs * s, a.min_degree, a.twisted)


def _series_inverse(c: np.ndarray, n_out: int) -> np.ndarray:
    """Inverse of I-leading power series sum_{d>=0} C_d x^d with C_0 invertible."""
    c0 = c[0]
    if np.linalg.cond(c0) > COND_LIMIT:
        raise SingularLoop("leading coefficient numerically singular")
    c0inv = np.linalg.inv(c0)
    out = np.zeros((n_out, 3, 3), dtype=complex)
    out[0] = c0inv
    for d in range(1, n_out):
        acc = np.zeros((3, 3), dtype=complex)
        for k in range(1, min(d, len(c) - 1) + 1):
            acc += c[k] @ out[d - k]
        out[d] = -c0inv @ acc
    return out


def loop_inverse(g: LoopMatrix, trunc: int) -> LoopMatrix:
    """Inverse loop, correct on |d| <= trunc.

    Plus/minus loops invert by exact series recursion off the extreme
    coefficient; genuinely mixed loops fall back to pointwise inversion on a
    fine S^1 grid and an FFT back to coefficients.
    """
    g = g.trim()
    if g.coeffs.shape[0] == 1:  # monomial lambda^d G
        m = g.coeffs[0]
        if np.linalg.cond(m) > COND_LIMIT:
            raise SingularLoop("constant coefficient numerically singular")
        return LoopMatrix(np.linalg.inv(m)[None], -g.min_degree, g.twisted)
    if g.min_degree >= 0:
        inv = _series_inverse(g.coeffs, trunc + 1)
        return LoopMatrix(inv, 0, g.twisted).restrict(0, trunc)
    if g.max_degree <= 0:
        inv = _series_inverse(g.coeffs[::-1], trunc + 1)
        return LoopMatrix(inv[::-1], -trunc, g.twisted).restrict(-trunc, 0)

    span = g.max_degree - g.min_degree
    m = 1 << max(int(np.ceil(np.log2(8 * max(trunc, span, 32)))), 6)
    lams = np.exp(2j * np.pi * np.arange(m) / m)
    vals = g.evaluate_many(lams)
    conds = np.linalg.cond(vals)
    if np.max(conds) > COND_LIMIT:
        raise SingularLoop("loop not invertible at an S^1 sample")
    inv_vals = np.linalg.inv(vals)
    spec = np.fft.ifft(inv_vals, axis=0)  # index k holds degree -k mod m
    degs = np.arange(-trunc, trunc + 1)
    c = spec[np.mod(-degs, m)]
    return LoopMatrix(c, -trunc, g.twisted)


def loop_exp(x: LoopMatrix, trunc: int, guard: int = 8) -> LoopMatrix:
    """exp of a loop by scaling-and-squaring over the truncated algebra.

    Internal window is trunc+guard so cross terms shed during squaring stay
    below the target accuracy; the result is clipped to |d| <= trunc.
    """
    work = trunc + guard
    nrm = x.wiener_norm()
    s = max(0, int(np.ceil(np.log2(max(nrm, 1e-300) / 0.5))))
    xs = loop_scale(x, 0.5 ** s)
    term = LoopMatrix.identity(twisted=x.twisted)
    acc = term
    k = 1
    while True:
        term = loop_scale(loop_product(term, xs, work), 1.0 / k)
        acc = loop_sum(acc, term)
        if term.wiener_norm() < 1e-18 or k > 40:
            break
        k += 1
    for _ in range(s):
        acc = loop_product(acc, acc, work)
    return acc.restrict(max(acc.min_degree, -trunc), min(acc.max_degree, trunc))


def twist_residual(g: LoopMatrix, samples: int = DEFAULT_CIRCLE_SAMPLES) -> float:
    """max over sampled lambda of ||g(eps lambda) - sigma(g(lambda))||_2."""
    lams = su3.unit_circle(samples)
    vals = g.evaluate_many(lams)
    singular = np.linalg.cond(vals) > COND_LIMIT
    if np.any(singular):
        raise SingularLoop(f"g({lams[np.argmax(singular)]}) not invertible")
    return float(np.max(su3.op_norm(g.evaluate_many(su3.EPS * lams) - su3.sigma_grp(vals))))


def algebra_twist_residual(x: LoopMatrix) -> float:
    """max over degrees of the distance of x_d from the eigenspace g_{d mod 6}."""
    worst = 0.0
    for d in x.degrees:
        c = x.coefficient(d)
        worst = max(worst, float(np.max(np.abs(c - su3.eigenspace_project(c, d % 6)))))
    return worst


def unitarity_residual(g: LoopMatrix, samples: int = DEFAULT_CIRCLE_SAMPLES) -> float:
    return float(np.max(su3.unitarity_defect(g.evaluate_many(su3.unit_circle(samples)))))


def max_distance_on_circle(a: LoopMatrix, b: LoopMatrix,
                           samples: int = DEFAULT_CIRCLE_SAMPLES) -> float:
    lams = su3.unit_circle(samples)
    return float(np.max(su3.op_norm(a.evaluate_many(lams) - b.evaluate_many(lams))))
