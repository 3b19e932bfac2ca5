"""The central pipeline: holomorphic frame ODE, pointwise Iwasawa splitting,
and extraction of the immersion data.

From a potential eta the holomorphic frame solves dC = C eta, C(0, .) = I.
eta only lowers the lambda-degree and its slots are polynomials, so every
Laurent coefficient of C is a matrix polynomial in z, computed exactly once
per potential (the Picard stack) and evaluated by Horner, with no step
size and no tolerance.  The unique Iwasawa split C = F V_+ yields the
extended frame F (unitary, twisted) and the plus factor V_+.  Per point, the immersion data are

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

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import su3
from .errors import PoleOnPath, SchemaError, TruncationOverflow
from .factorization import IwasawaFactors, iwasawa
from .loops import LoopMatrix, loop_exp, loop_scale, stack_values
from .potentials import Poly, PotentialSpec, is_finite_number

DEFAULT_TRUNC = 16
METRIC_FLOOR = 1e-10
TAIL_RATIO = 1e-6      # boundary coefficient / peak past which a loop overflows trunc
MAX_GRID_NODES = 100_000
PICARD_CACHE_SIZE = 32
AXIS_RADII = 14        # axis_log_v0 fits on this many circles inside |z| = 1 ...
AXIS_THETA = 32        # ... of this many points each
AXIS_FIT_DEGREE = 12   # Chebyshev degree of each Fourier mode's radial fit

E3 = np.array([0.0, 0.0, 1.0], dtype=complex)


def _horner(stack: np.ndarray, z: complex) -> np.ndarray:
    """sum_j stack[j] z^j over the leading axis."""
    acc = np.zeros_like(stack[0])
    for c in stack[::-1]:
        acc = acc * z + c
    return acc


@functools.lru_cache(maxsize=PICARD_CACHE_SIZE)
def _picard_stack(a_fn: Poly, b_fn: Poly, trunc: int) -> np.ndarray:
    """The truncated frame as a matrix polynomial in z, shape (D, trunc+1, 3, 3).

    Index [j, i] holds the z^j coefficient of C_{i - trunc}, where C_0 = I and
    C_{-k} = int_0^z C_{-(k-1)} A dw: a convolution with the polynomial stack
    of A followed by the antiderivative vanishing at 0.  Cached, so the array
    is read-only.
    """
    n_a = max(len(a_fn.coeffs), len(b_fn.coeffs), 1)
    a_poly = np.zeros((n_a, 3, 3), dtype=complex)
    a_poly[:len(a_fn.coeffs), 0, 2] = a_poly[:len(a_fn.coeffs), 2, 1] = \
        1j * np.array(a_fn.coeffs, dtype=complex)
    a_poly[:len(b_fn.coeffs), 1, 0] = 1j * np.array(b_fn.coeffs, dtype=complex)
    stack = np.zeros((trunc * n_a + 1, trunc + 1, 3, 3), dtype=complex)
    stack[0, trunc] = np.eye(3)
    with np.errstate(all="ignore"):  # overflow surfaces as PoleOnPath at evaluation
        for k in range(1, trunc + 1):
            m = (k - 1) * n_a + 1  # coefficients of C_{-(k-1)}
            prev = stack[:m, trunc - k + 1]
            cur = stack[:m + n_a, trunc - k]
            for q in range(n_a):  # the z^j product term lands at index j + 1 ...
                cur[q + 1:q + 1 + m] += prev @ a_poly[q]
            cur[1:] /= np.arange(1, m + n_a)[:, None, None]  # ... and / (j + 1)
    stack.flags.writeable = False
    return stack


def integrate_frame(spec: PotentialSpec, z: complex,
                    trunc: int = DEFAULT_TRUNC) -> LoopMatrix:
    """Holomorphic frame C(z, .) solving dC = C eta, C(0, .) = I.

    eta = lambda^{-1} A(z) dz only lowers the lambda-degree, so on degrees
    -trunc..0 the frame is the finite Picard sum C_0 = I,
    C_{-k}(z) = int_0^z C_{-(k-1)} A dw.  The slots are polynomials, so
    each C_{-k} is an exact matrix polynomial (``_picard_stack``), evaluated
    at z by Horner; the integral of a holomorphic form does not depend on
    the path.  Constant degree-one potentials integrate exactly to
    exp(z D(lambda)).

    Raises PoleOnPath on non-finite values and TruncationOverflow when the
    boundary coefficient exceeds 1e-6 of the peak.
    """
    if spec.kind == "constant_degree_one":
        with np.errstate(all="ignore"):  # overflow surfaces as PoleOnPath below
            try:
                return loop_exp(loop_scale(spec.d_matrix, z), trunc)
            except ValueError as exc:  # LoopMatrix and loop_exp refuse non-finite values
                raise PoleOnPath(
                    f"non-finite loop exponential at z = {complex(z)}") from exc

    stack = _picard_stack(spec.a_fn, spec.b_fn, trunc)
    with np.errstate(all="ignore"):
        y = _horner(stack, complex(z))
    if not np.all(np.isfinite(y)):
        raise PoleOnPath(f"non-finite frame coefficients at z = {complex(z)}")

    frame = LoopMatrix(y, -trunc, twisted=True)
    _check_boundary(frame, trunc, "")
    return frame.trim(0.0)


@dataclass(frozen=True)
class FramePoint:
    z: complex
    frame: LoopMatrix
    v_plus: LoopMatrix
    residual: float
    tail: float


def _check_boundary(loop: LoopMatrix, trunc: int, what: str) -> None:
    """TruncationOverflow when the coefficient at |degree| = trunc exceeds 1e-6 of the peak."""
    boundary = loop.tail_norm(trunc)
    peak = float(np.max(np.abs(loop.coeffs)))
    if boundary > TAIL_RATIO * peak:
        raise TruncationOverflow(f"{what}boundary coefficient {boundary:.3e} vs peak "
                                 f"{peak:.3e} at trunc={trunc}")


def frame_point(spec: PotentialSpec, z: complex, trunc: int = DEFAULT_TRUNC) -> FramePoint:
    """The Iwasawa split of the frame at z, with h on degrees -trunc..trunc;
    TruncationOverflow when h is cut off there like the frame."""
    c = integrate_frame(spec, z, trunc)
    fac: IwasawaFactors = iwasawa(c, trunc)
    _check_boundary(fac.unitary, trunc, "unitary factor ")
    return FramePoint(z=complex(z), frame=fac.unitary.restrict(-trunc, trunc),
                      v_plus=fac.v_plus, residual=fac.residual,
                      tail=c.tail_norm(trunc))


@dataclass(frozen=True, eq=False)
class SurfaceSamples:
    """Points of any shape S: lambda_0-independent data once each, the lift at each lambda0[l]."""
    z: np.ndarray         # S, complex
    lift: np.ndarray      # S + (L, 3): F(z, lambda0[l]) e_3 in S^5 within the residual
    u: np.ndarray         # S: metric exponent, g = 2 e^u dz dzbar; -inf where singular
    psi: np.ndarray       # S: cubic-form coefficient
    v0: np.ndarray        # S: lambda^0 (1,1)-entry of V_+
    lambda0: tuple        # the L values on S^1
    singular: np.ndarray  # S, bool
    residual: np.ndarray  # S
    tail: np.ndarray      # S
    frames: np.ndarray    # S + (2 trunc + 1, 3, 3): the extended frame on degrees -trunc..trunc

    def take(self, index) -> "SurfaceSamples":
        """The points at ``index`` over the leading axes: integers of any shape, or a mask."""
        return replace(self, **{k: v[index] for k, v in vars(self).items() if k != "lambda0"})


def _normalize_lambda0(lambda0: complex) -> complex:
    lam = complex(lambda0)
    r = abs(lam)
    if abs(r - 1.0) > 1e-8:
        raise ValueError(f"lambda0 must lie on S^1, got |lambda0| = {r}")
    return lam / r


def _circle(lambdas) -> tuple:
    """One S^1 value or a list of them, each projected onto S^1."""
    return tuple(_normalize_lambda0(lam) for lam in np.atleast_1d(lambdas))


def frame_values(frames: np.ndarray, lams) -> np.ndarray:
    """F(lambda) at each of lams, S + (L, 3, 3), from frames of shape S + (2 trunc + 1, 3, 3)."""
    return stack_values(frames, -((frames.shape[-3] - 1) // 2), lams)


def sample_from_frame(spec: PotentialSpec, fps, lambdas,
                      trunc: int = DEFAULT_TRUNC) -> SurfaceSamples:
    """The 1-d batch of a sequence of frame points at ``trunc``, with the lift at every value of
    ``lambdas``."""
    lams, fps = _circle(lambdas), list(fps)
    z = np.array([fp.z for fp in fps], dtype=complex)
    v0 = np.array([fp.v_plus.coefficient(0)[0, 0] for fp in fps], dtype=complex)
    half = np.abs(spec.a(z) * v0)  # e^{u/2}
    singular = half < METRIC_FLOOR
    with np.errstate(divide="ignore"):
        u = np.where(singular, -np.inf, 2.0 * np.log(half))
    frames = np.array([fp.frame.coeffs for fp in fps], dtype=complex).reshape(
        len(fps), 2 * trunc + 1, 3, 3)
    return SurfaceSamples(z, frame_values(frames, lams) @ E3, u, spec.psi(z), v0, lams, singular,
                          np.array([fp.residual for fp in fps], dtype=float),
                          np.array([fp.tail for fp in fps], dtype=float), frames)


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
        grid = GridSpec(**doc)
        n_nodes = grid.n_r * grid.n_theta if kind == "polar" else grid.nx * grid.ny
        if n_nodes > MAX_GRID_NODES:
            raise SchemaError("grid", f"{n_nodes} nodes exceed the cap of {MAX_GRID_NODES}")
        return grid


def grid_sample(spec: PotentialSpec, grid: GridSpec, lambdas=(1.0,),
                trunc: int = DEFAULT_TRUNC):
    """(samples, failures): the 1-d batch of solved grid nodes, holding the
    lift at every lambda_0, and (z, exception) per node that failed.

    Nodes are solved in order, so the output is the same on every run.
    Per-node errors are collected, not fatal.  ``grid`` may be a GridSpec
    or any iterable of complex nodes.
    """
    nodes = grid.nodes() if hasattr(grid, "nodes") else \
        np.asarray(list(grid), dtype=complex)
    fps, failures = [], []
    for z in nodes:
        try:
            fps.append(frame_point(spec, z, trunc))
        except Exception as exc:  # noqa: BLE001 - per-node failures are data
            failures.append((complex(z), exc))
    return sample_from_frame(spec, fps, lambdas, trunc), failures


# -- closed-form oracles --------------------------------------------------------
# z of any shape, computed on a 1-d array: numpy's 0-d arithmetic is not bit-equal to its loops

def clifford_frame_loop(z: complex, trunc: int = DEFAULT_TRUNC) -> LoopMatrix:
    """exp(z lambda^{-1} A + zbar lambda tau(A)) as a Laurent loop."""
    a = su3.A_CLIFFORD
    exponent = LoopMatrix.from_coeffs(
        {-1: z * a, 1: np.conj(z) * su3.tau(a)}, twisted=True)
    return loop_exp(exponent, trunc)


def _oracle_samples(z: np.ndarray, lam: complex, lift, u, psi, v0) -> SurfaceSamples:
    """Closed-form samples (L = 1) from values (or constants) over z.ravel(), shaped like z;
    each frame is the identity stack of shape (1, 3, 3)."""
    n = z.size
    u, psi, v0, singular, zero = (np.broadcast_to(x, n) for x in (u, psi, v0, False, 0.0))
    batch = SurfaceSamples(z.ravel(), lift[:, None], u, psi, v0, (lam,), singular, zero, zero,
                           np.broadcast_to(su3.IDENTITY, (n, 1, 3, 3)))
    return batch.take(np.arange(n).reshape(z.shape))


def clifford_oracle(z, lambda0: complex = 1.0) -> SurfaceSamples:
    """Closed-form Clifford samples (L = 1): flat metric u = 0 and psi = -1."""
    lam = _normalize_lambda0(lambda0)
    z = np.asarray(z, dtype=complex)
    w, a = z.reshape(-1, 1, 1), su3.A_CLIFFORD
    lift = su3.expm3((w / lam) * a + (np.conj(w) * lam) * su3.tau(a)) @ E3
    return _oracle_samples(z, lam, lift, 0.0, -1.0 + 0.0j, 1.0 + 0.0j)


def rp2_oracle(a: complex, z, lambda0: complex = 1.0) -> SurfaceSamples:
    """Totally geodesic (psi = 0) samples (L = 1) from the round closed form.

    ``a`` is the purely imaginary constant i e^{u0/2}; the lift is
    (lambda0^{-1} a z, lambda0 a zbar, 1 - |az|^2/2) / (1 + |az|^2/2).
    """
    a = complex(a)
    if abs(a.real) > 1e-12 * abs(a):
        raise ValueError("a must be purely imaginary (a = i e^{u0/2})")
    lam = _normalize_lambda0(lambda0)
    z = np.asarray(z, dtype=complex)
    w = z.ravel()
    half = np.abs(a * w) ** 2 / 2.0
    lift = np.stack([a * w / lam, a * np.conj(w) * lam, 1.0 - half], axis=-1) \
        / (1.0 + half)[:, None]
    # e^{u/2} = |a_slot v0| with a_slot = e^{u0/2} = |a|, so v0 = 1/(1+|az|^2/2)
    return _oracle_samples(z, lam, lift, 2.0 * np.log(abs(a) / (1.0 + half)), 0.0j,
                           1.0 / (1.0 + half) + 0.0j)


# -- surface maps: samples(points) gives the SurfaceSamples at points of any shape, e.g.
# PipelineSurface(...).samples or ``lambda p: clifford_oracle(p, lam)`` ----------------

class PipelineSurface:
    """Batched sampler backed by the full integrate + Iwasawa pipeline.

    ``lambdas`` is one S^1 value or a list.  ``samples`` solves each distinct
    point once and reads its lift at every lambda_0 from that one frame.
    """

    def __init__(self, spec: PotentialSpec, lambdas=1.0, trunc: int = DEFAULT_TRUNC):
        self.spec = spec
        self.lambdas = _circle(lambdas)
        self.trunc = trunc

    def frame_point(self, z: complex) -> FramePoint:  # a span of bench/tracer.py
        return frame_point(self.spec, z, self.trunc)

    def samples(self, points) -> SurfaceSamples:
        z = np.asarray(points, dtype=complex)
        first = {}  # distinct point -> its index in the batch, in order of appearance
        index = [first.setdefault(p, len(first)) for p in z.ravel().tolist()]
        batch = sample_from_frame(self.spec, [self.frame_point(p) for p in first], self.lambdas,
                                  self.trunc)
        return batch.take(np.array(index, dtype=int).reshape(z.shape))


# -- axis metric continuation ----------------------------------------------------

def axis_log_v0(spec: PotentialSpec):
    """Polynomial continuation of log v_0(z, zbar) to the axis zbar = 0.

    v_0 is real-analytic, so on a circle |z| = rho its log has Fourier modes
    mode_j(rho) = sum_n c_{n+j, n} rho^{2n+j}; fitting each mode over several
    radii isolates the axis coefficients c_{j,0} and

        u(z, 0) = u(0, 0) - 2 * sum_j c_{j,0} z^j.

    Returns the Poly sum_j c_{j,0} z^j (valid on |z| <= 1), from frames at
    DEFAULT_TRUNC.
    """
    radii = np.geomspace(0.12, 0.85, AXIS_RADII)
    j_max = min(AXIS_FIT_DEGREE, AXIS_THETA // 2 - 1)
    z = radii[:, None] * np.exp(2j * np.pi * np.arange(AXIS_THETA) / AXIS_THETA)
    w = np.log(np.abs(PipelineSurface(spec).samples(z).v0))
    # index j along the circle: the coefficient of e^{i j theta}
    modes = (np.fft.fft(w, axis=1) / AXIS_THETA)[:, :j_max + 1]
    # Fit mode_j(rho) = rho^j * P_j(rho^2) with P_j expanded in Chebyshev
    # polynomials on the sampled rho^2 interval; a monomial basis would
    # amplify the sample noise by its ~1e9 condition number, while the
    # Chebyshev extrapolation to rho = 0 only costs the T_n growth factor
    # just outside the interval (~25 here).
    t = radii ** 2
    t_lo, t_hi = t[0], t[-1]
    x_of = lambda tt: (2 * tt - (t_lo + t_hi)) / (t_hi - t_lo)
    cheb = np.polynomial.chebyshev.chebvander(x_of(t), AXIS_FIT_DEGREE)
    at_zero = np.polynomial.chebyshev.chebvander(
        np.array([x_of(0.0)]), AXIS_FIT_DEGREE)[0]
    coeffs = []
    for j in range(j_max + 1):
        # the rho^j row weighting concentrates information in the largest
        # radii, so the resolvable polynomial degree shrinks with j
        deg_j = max(2, AXIS_FIT_DEGREE - j)
        design = radii[:, None] ** j * cheb[:, :deg_j + 1]
        sol, *_ = np.linalg.lstsq(design, modes[:, j], rcond=None)
        coeffs.append(at_zero[:deg_j + 1] @ sol)
    return Poly(tuple(complex(c) for c in coeffs))
