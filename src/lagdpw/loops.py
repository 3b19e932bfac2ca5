"""Truncated Laurent loops with 3x3 complex matrix coefficients.

A LoopMatrix stores g(lambda) = sum_d lambda^d G_d over a contiguous degree
window [min_degree, max_degree].  The coefficients are a stacked complex array of
shape (n_degrees, 3, 3).  Values are immutable; every operation allocates.

Twisting conventions (both are checked, neither is silently assumed):

* algebra loops:  xi(eps lambda) = sigma(xi(lambda)) holds iff each
  coefficient xi_d lies in the eigenspace g_{d mod 6}; checked
  coefficientwise by ``algebra_twist_residual``.
* group loops:    g(eps lambda) = sigma(g(lambda)) is nonlinear in the
  coefficients, so only sampling S^1 can check it.

Products and exponentials work on bare coefficient stacks (``_cauchy``) and
build one LoopMatrix for their result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su3

COND_LIMIT = 1e12  # condition number past which a loop or split counts as singular
DEFAULT_CIRCLE_SAMPLES = 24
EXP_GUARD = 8  # extra degrees loop_exp carries beyond trunc


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
        """The coefficients clipped to the window [lo, hi]."""
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
        """g(lam) at each of lams, (n, 3, 3): the power table lam^d contracted with G_d."""
        powers = np.asarray(lams)[:, None] ** np.arange(self.min_degree, self.max_degree + 1)
        # unoptimized einsum sums each value in one order for any len(lams)
        return np.einsum("ld,dij->lij", powers, self.coeffs)

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


def _cauchy(a: np.ndarray, a_lo: int, b: np.ndarray, b_lo: int,
            trunc: int | None = None) -> tuple[np.ndarray, int]:
    """(coefficients, lowest degree) of the Cauchy product of the stacks a and b,
    whose lowest degrees are a_lo and b_lo, clipped to |d| <= trunc if given;
    a product wholly outside that window is an empty stack.

    out[i + j] += a[i] @ b[j] loops over the shorter stack: each step is one
    (3 n, 3) @ (3, 3) GEMM of the slice of the longer stack that lands in the
    window with one coefficient, so temporaries stay O(len(a) + len(b)).  A
    shorter left factor takes the transposed form b_j^t a_i^t = (a_i b_j)^t.
    """
    if len(a) < len(b):
        out, lo = _cauchy(b.transpose(0, 2, 1), b_lo, a.transpose(0, 2, 1), a_lo, trunc)
        return np.ascontiguousarray(out.transpose(0, 2, 1)), lo
    a = np.ascontiguousarray(a)  # so that a slice reshapes to (3 n, 3) as a view
    base = a_lo + b_lo
    lo, hi = 0, len(a) + len(b) - 2  # the window, counted from degree base
    if trunc is not None:
        lo, hi = max(lo, -trunc - base), min(hi, trunc - base)
    out = np.zeros((max(hi - lo + 1, 0), 3, 3), dtype=complex)
    for j, bj in enumerate(b):
        i0, i1 = max(0, lo - j), min(len(a), hi - j + 1)
        if i0 < i1:
            out[i0 + j - lo:i1 + j - lo] += (a[i0:i1].reshape(-1, 3) @ bj).reshape(-1, 3, 3)
    return out, base + lo


def loop_product(a: LoopMatrix, b: LoopMatrix) -> LoopMatrix:
    """Cauchy product over the full degree window."""
    c, lo = _cauchy(a.coeffs, a.min_degree, b.coeffs, b.min_degree)
    return LoopMatrix(c, lo, a.twisted and b.twisted)


def loop_sum(a: LoopMatrix, b: LoopMatrix, sign: float = 1.0) -> LoopMatrix:
    lo = min(a.min_degree, b.min_degree)
    hi = max(a.max_degree, b.max_degree)
    c = np.zeros((hi - lo + 1, 3, 3), dtype=complex)
    c[a.min_degree - lo:a.max_degree - lo + 1] += a.coeffs
    c[b.min_degree - lo:b.max_degree - lo + 1] += sign * b.coeffs
    return LoopMatrix(c, lo, a.twisted and b.twisted)


def loop_scale(a: LoopMatrix, s: complex) -> LoopMatrix:
    return LoopMatrix(a.coeffs * s, a.min_degree, a.twisted)


def loop_exp(x: LoopMatrix, trunc: int) -> LoopMatrix:
    """exp of a loop by scaling-and-squaring over the truncated algebra.

    Internal window is trunc+EXP_GUARD so cross terms shed during squaring
    stay below the target accuracy; the result is clipped to |d| <= trunc.
    Its degrees are those the Taylor terms reach, doubled by each squaring.
    An input whose Wiener norm overflows, or a squaring that overflows inside
    the internal window, raises ValueError; degrees beyond that window are
    never formed.
    """
    work = trunc + EXP_GUARD
    nrm = x.wiener_norm()
    if not np.isfinite(nrm):  # finite coefficients whose sum overflows
        raise ValueError("non-finite Wiener norm")
    s = max(0, int(np.ceil(np.log2(max(nrm, 1e-300) / 0.5))))
    xs = x.coeffs * 0.5 ** s
    term, t_lo = np.eye(3, dtype=complex)[None], 0
    acc = np.zeros((2 * work + 1, 3, 3), dtype=complex)  # degrees -work..work
    acc[work] = np.eye(3)
    lo = hi = 0  # the degrees the terms reach
    for k in range(1, 42):
        term, t_lo = _cauchy(term, t_lo, xs, x.min_degree, work)
        if not len(term):  # every degree of the term lies outside the window
            break
        term *= 1.0 / k
        acc[t_lo + work:t_lo + work + len(term)] += term
        lo, hi = min(lo, t_lo), max(hi, t_lo + len(term) - 1)
        if np.sum(np.max(np.abs(term), axis=(1, 2))) < 1e-18:  # its Wiener norm
            break
    acc = acc[lo + work:hi + work + 1]
    for _ in range(s):
        acc, lo = _cauchy(acc, lo, acc, lo, work)
        if not np.all(np.isfinite(acc)):  # overflow: the remaining squarings cannot undo it
            raise ValueError("non-finite loop coefficient")
    lo_out, hi_out = max(lo, -trunc), min(lo + len(acc) - 1, trunc)
    return LoopMatrix(acc[lo_out - lo:hi_out - lo + 1], lo_out, x.twisted)


def algebra_twist_residual(x: LoopMatrix) -> float:
    """max over degrees of the distance of x_d from the eigenspace g_{d mod 6}."""
    worst = 0.0
    for d in x.degrees:
        c = x.coefficient(d)
        worst = max(worst, float(np.max(np.abs(c - su3.eigenspace_project(c, d % 6)))))
    return worst


def max_distance_on_circle(a: LoopMatrix, b: LoopMatrix,
                           samples: int = DEFAULT_CIRCLE_SAMPLES) -> float:
    lams = su3.unit_circle(samples)
    return float(np.max(su3.op_norm(a.evaluate_many(lams) - b.evaluate_many(lams))))
