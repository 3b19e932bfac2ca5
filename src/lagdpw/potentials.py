"""Potential one-forms: construction, normalization, symmetry checks.

A potential is stored through its two coefficient slots.  For every kind
except ``constant_degree_one`` the one-form is

    eta(z, lambda) = lambda^{-1} [[0, 0, i a(z)],
                                  [i b(z), 0, 0],
                                  [0, i a(z), 0]] dz,

whose lambda^{-1} coefficient lies in the g_5 entry pattern.  With this
convention the inverse of the metric/cubic-form relation reads

    a(z) = exp(u(z,0) - u(0,0)/2),
    b(z) = -psi(z) exp(-2 u(z,0) + u(0,0)),

so the cubic form implied by a potential is psi(z) = -a(z)^2 b(z)
(the axis-metric factors cancel), and a radial monomial pair
a = a_k z^k, b = b_n z^n gives psi = psi_0 z^{2k+n} with psi_0 = -a_k^2 b_n.

``constant_degree_one`` potentials are D(lambda) dz with D a twisted
algebra loop supported on degrees {-1, 0, 1} (translationally equivariant
surfaces).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import su3
from .errors import NotVacuum, PoleAtOrigin, SchemaError
from .loops import LoopMatrix, algebra_twist_residual

KINDS = ("normalized", "constant_degree_one", "radial_monomial", "rotational", "vacuum")
SYMMETRY_ANGLES = 12  # z per ring in check_potential_symmetry
MAX_TRUNC = 256  # caps a frame node's memory, which grows as trunc^2 (README)


@dataclass(frozen=True)
class Poly:
    """Polynomial in z with complex coefficients, ascending order."""

    coeffs: tuple

    @staticmethod
    def of(*coeffs) -> "Poly":
        return Poly(tuple(complex(c) for c in coeffs))

    def __call__(self, z):
        """p(z) by Horner, shaped like z."""
        acc = 0j * z
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return -1

    def scale(self, s: complex) -> "Poly":
        return Poly(tuple(complex(s) * c for c in self.coeffs))

    def compose_monomial(self, m: int, shift: int = 0) -> "Poly":
        """z^shift * p(z^m); requires the result to be polynomial."""
        out = {}
        for q, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = m * q + shift
            if e < 0:
                raise PoleAtOrigin(f"slot exponent {e} < 0")
            out[e] = out.get(e, 0) + c
        deg = max(out) if out else 0
        coeffs = [out.get(j, 0.0) for j in range(deg + 1)]
        return Poly(tuple(complex(c) for c in coeffs))


@dataclass(frozen=True)
class PotentialSpec:
    kind: str
    a_fn: Poly
    b_fn: Poly
    k: int | None = None
    n: int | None = None
    psi0: complex | None = None
    d_matrix: LoopMatrix | None = None
    m: int | None = None
    gauge_delta: float = 0.0
    coord_scale: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if not (isinstance(self.a_fn, Poly) and isinstance(self.b_fn, Poly)):
            raise ValueError("potential slots must be Poly: the frame is an exact "
                             "Picard sum over polynomial slots")
        if self.kind == "constant_degree_one":
            d = self.d_matrix
            if d is None or d.min_degree < -1 or d.max_degree > 1:
                raise ValueError("constant_degree_one needs a degree {-1,0,1} loop")
            with np.errstate(over="ignore", invalid="ignore"):
                scale = d.wiener_norm()
                residual = algebra_twist_residual(d)
            if not math.isfinite(scale):
                raise ValueError("d_matrix entries overflow the float range")
            if not residual <= 1e-10 * max(scale, 1.0):  # a NaN residual fails too
                raise ValueError("d_matrix is not algebra-twisted")
        elif self.a_fn.degree < 0:  # the metric e^{u/2} = |a v_0| would vanish everywhere
            raise ValueError("a must not vanish identically")

    # -- coefficient access --------------------------------------------------

    # a, b and psi take z of any shape and return values shaped like it

    def a(self, z):
        if self.kind == "constant_degree_one":
            return self.d_matrix.coefficient(-1)[0, 2] / 1j + np.zeros_like(z, dtype=complex)
        return self.a_fn(z)

    def b(self, z):
        if self.kind == "constant_degree_one":
            return self.d_matrix.coefficient(-1)[1, 0] / 1j + np.zeros_like(z, dtype=complex)
        return self.b_fn(z)

    def psi(self, z):
        """Cubic-form coefficient implied by the potential."""
        return -self.a(z) ** 2 * self.b(z)

    def coefficient_matrix(self, z: complex) -> np.ndarray:
        """lambda^{-1} coefficient of eta at z (g_5 entry pattern)."""
        if self.kind == "constant_degree_one":
            return self.d_matrix.coefficient(-1)
        a = self.a(z)
        b = self.b(z)
        return np.array([[0, 0, 1j * a], [1j * b, 0, 0], [0, 1j * a, 0]], dtype=complex)

    def eta_coefficients(self, z: complex) -> LoopMatrix:
        """The lambda-loop multiplying dz at the point z."""
        if self.kind == "constant_degree_one":
            return self.d_matrix
        return LoopMatrix.monomial(-1, self.coefficient_matrix(z), twisted=True)

    @property
    def is_radial(self) -> bool:
        if self.kind in ("radial_monomial", "vacuum"):
            return True
        return (self.kind == "normalized"
                and self.a_fn.degree <= 0 and self.b_fn.degree <= 0)

    def monomial_exponents(self) -> tuple[int, int]:
        if self.k is not None and self.n is not None:
            return self.k, self.n
        if self.is_radial:
            return 0, 0
        raise ValueError("potential has no monomial exponents")


def clifford_spec() -> PotentialSpec:
    """Normalized potential of the Clifford torus: a = b = 1."""
    return PotentialSpec(kind="vacuum", a_fn=Poly.of(1.0), b_fn=Poly.of(1.0),
                         k=0, n=0, psi0=-1.0 + 0.0j)


def normalized_spec(a_fn: Poly, b_fn: Poly) -> PotentialSpec:
    spec = PotentialSpec(kind="normalized", a_fn=a_fn, b_fn=b_fn)  # checks the slots
    if not spec.is_radial:
        return spec
    psi0 = -a_fn(0.0) ** 2 * b_fn(0.0)
    if not cmath.isfinite(psi0):
        raise ValueError(f"psi0 = -a^2 b = {psi0} is outside the float range")
    return replace(spec, k=0, n=0, psi0=psi0)


def constant_degree_one_spec(d_matrix: LoopMatrix) -> PotentialSpec:
    return PotentialSpec(kind="constant_degree_one", a_fn=Poly.of(0), b_fn=Poly.of(0),
                         d_matrix=d_matrix)


def radial_monomial_spec(k: int, n: int, a_k: complex,
                         b_n: complex | None = None,
                         psi0: complex | None = None) -> PotentialSpec:
    """Monomial potential a = a_k z^k, b = b_n z^n, normalized in place.

    A unit coordinate rotation w = s z plus a diagonal gauge bring any such
    pair to the normal form a_k > 0, psi_0 = -a_k^2 b_n < 0; the applied
    (gauge_delta, coord_scale) are recorded on the returned spec.
    """
    if k < 0 or n < 0:
        raise ValueError("monomial exponents must be nonnegative")
    a_k = complex(a_k)
    if (b_n is None) == (psi0 is None):
        raise ValueError("give exactly one of b_n, psi0")
    if b_n is None:
        b_n = -complex(psi0) / a_k ** 2 if a_k != 0 else 0.0
    b_n = complex(b_n)
    if a_k == 0 or b_n == 0:
        raise ValueError("a_k and b_n must be nonzero (b = 0 is the totally "
                         "geodesic case; use a normalized spec)")

    # w = s z with |s| = 1 rotates a_k^2 b_n onto the positive axis; the gauge
    # then makes a_k positive.  In the normal form the values are exactly
    # a -> |a_k|, b -> |b_n|, psi0 -> -|a_k^2 b_n|.
    s = cmath.exp(1j * cmath.phase(a_k ** 2 * b_n) / (2 * k + n + 3))
    delta = -cmath.phase(a_k / s ** (k + 1))
    psi0_abs = abs(a_k) ** 2 * abs(b_n)
    if not 0 < psi0_abs < math.inf:
        raise ValueError(f"|psi0| = |a_k^2 b_n| = {psi0_abs} is outside the float range")
    a_poly = Poly(tuple([0.0] * k + [abs(a_k)]))
    b_poly = Poly(tuple([0.0] * n + [abs(b_n)]))
    return PotentialSpec(kind="radial_monomial", a_fn=a_poly, b_fn=b_poly,
                         k=k, n=n, psi0=complex(-psi0_abs, 0.0),
                         gauge_delta=float(delta), coord_scale=s)


def wu_potential(u_on_axis: float, u00: float, psi: Poly) -> PotentialSpec:
    """Normalized potential from axis metric u(z,0) and cubic form psi(z).

    ``u_on_axis`` is the real constant value of the metric on the axis, and
    ``psi`` a Poly, so both slots a = e^{u00/2} and b = -psi e^{-u00} are
    exact polynomials.  A callable ``u_on_axis`` or a non-Poly ``psi`` is a
    ValueError: the frame takes polynomial slots only.
    """
    if callable(u_on_axis) or not isinstance(psi, Poly):
        raise ValueError("wu_potential needs a constant u_on_axis and a Poly psi")
    if abs(complex(u_on_axis) - u00) > 1e-12:
        raise ValueError("u_on_axis(0) must equal u00")
    return normalized_spec(Poly.of(math.exp(u00 / 2)), psi.scale(-math.exp(-u00)))


@dataclass(frozen=True)
class HomogeneityData:
    """Rotation rates of the homogeneity condition eta(pz, q lambda) = T eta T^{-1}."""

    k: int
    n: int
    p0: float
    q0_factor: Fraction  # q0 = q0_factor * p0, exactly (2k+n+3)/3
    t0_factor: Fraction  # t0 = t0_factor * p0, exactly (k-n)/3

    @property
    def q0(self) -> float:
        return self.q0_factor.numerator * self.p0 / self.q0_factor.denominator

    @property
    def t0(self) -> float:
        return self.t0_factor.numerator * self.p0 / self.t0_factor.denominator

    def p_at(self, t: float) -> complex:
        return cmath.exp(1j * self.p0 * t)

    def q_at(self, t: float) -> complex:
        return cmath.exp(1j * self.q0 * t)

    def tau_at(self, t: float) -> complex:
        return cmath.exp(1j * self.t0 * t)

    def T_at(self, t: float) -> np.ndarray:
        tau_t = self.tau_at(t)
        return np.diag([tau_t, 1.0 / tau_t, 1.0]).astype(complex)


def homogeneity_params(k: int, n: int, p0: float) -> HomogeneityData:
    """q0 = (2k+n+3) p0 / 3 and t0 = (k-n) p0 / 3, kept as exact rationals."""
    return HomogeneityData(k=k, n=n, p0=float(p0),
                           q0_factor=Fraction(2 * k + n + 3, 3),
                           t0_factor=Fraction(k - n, 3))


def vacuum_normalize(a: complex, b: complex, tol: float = 1e-12):
    """Reduce a constant vacuum coefficient to the Clifford potential.

    ``a`` and ``b`` are the raw (1,3)/(2,1) entries of the constant matrix
    A (so the Clifford torus itself has a = b = i).  Returns
    (gauge_delta, coord_scale, spec): conjugation by
    diag(e^{i delta}, e^{-i delta}, 1) followed by the coordinate change
    w = coord_scale * z turns lambda^{-1} A dz into the Clifford potential.
    """
    a = complex(a)
    b = complex(b)
    scale = max(abs(a), abs(b), 1.0)
    if abs(abs(a) - abs(b)) > tol * scale:
        raise NotVacuum(f"|a| = {abs(a)} != |b| = {abs(b)}: [A, tau(A)] != 0")
    if a == 0 or b == 0:
        raise ValueError("a and b must be nonzero (a = b = 0 is the zero potential)")
    r = abs(a)
    theta = cmath.phase(a / 1j)
    beta = cmath.phase(b / 1j)
    delta = (beta - theta) / 3.0
    coord_scale = r * cmath.exp(1j * (2 * theta + beta) / 3.0)
    spec = replace(clifford_spec(), gauge_delta=float(delta),
                   coord_scale=coord_scale)
    return float(delta), coord_scale, spec


def rotational_potential(m: int, a_fn: Poly, b_fn: Poly):
    """Potential with slots a(z^m), z^{-3} b(z^m) and its m-fold symmetry.

    Requires m >= 3 and b(0) = 0 so that the b-slot is holomorphic at the
    origin.  Returns (spec, T) with T = diag(e^{2 pi i/m}, e^{-2 pi i/m}, 1);
    the pair satisfies gamma^* eta = T eta T^{-1} for gamma.z = e^{2 pi i/m} z.
    """
    if m < 3:
        raise ValueError("m >= 3 required")
    if b_fn.coeffs and b_fn.coeffs[0] != 0:
        raise PoleAtOrigin("b must vanish at 0: z^-3 b(z^m) has a pole")
    a_slot = a_fn.compose_monomial(m)
    b_slot = b_fn.compose_monomial(m, shift=-3)
    om = cmath.exp(2j * cmath.pi / m)
    t_mat = np.diag([om, 1.0 / om, 1.0]).astype(complex)
    spec = PotentialSpec(kind="rotational", a_fn=a_slot, b_fn=b_slot, m=m)
    return spec, t_mat


def check_potential_symmetry(spec: PotentialSpec, p: complex, q: complex,
                             T: np.ndarray) -> float:
    """max over sampled (z, lambda) of || p eta(pz, q lambda) - T eta(z,lambda) T^{-1} ||.

    The extra factor p is the dz-pullback of gamma.z = p z; the condition is
    stated on the one-form, we check it on coefficients.
    """
    t_inv = np.linalg.inv(T)
    worst = 0.0
    z_ring = [0.4, 0.9]
    angles = np.exp(2j * np.pi * (np.arange(SYMMETRY_ANGLES) + 0.19) / SYMMETRY_ANGLES)
    lams = su3.unit_circle(8)
    for rad in z_ring:
        for ang in angles:
            z = rad * ang
            lhs = p * spec.eta_coefficients(p * z).evaluate_many(q * lams)
            rhs = T @ spec.eta_coefficients(z).evaluate_many(lams) @ t_inv
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@dataclass(frozen=True)
class OuterSymmetry:
    """Finite-order extrinsic symmetry of a radial potential (q(t_hat) = 1)."""

    t_hat: float
    p_hat: complex
    tau_hat: complex

    @property
    def T_hat(self) -> np.ndarray:
        return np.diag([self.tau_hat, 1.0 / self.tau_hat, 1.0]).astype(complex)


def outer_symmetry_order(k: int, n: int, p0: float = 1.0) -> OuterSymmetry:
    """Finite-order symmetry data at t_hat = 6 pi / ((2k+n+3) p0).

    p(t_hat) = exp(6 pi i/(2k+n+3)) and tau(t_hat) = exp(i t0 t_hat) =
    exp(2 pi (k-n) i/(2k+n+3)); the latter equals p(t_hat)^{k+1} as the
    homogeneity relation q^{-1} p^{k+1} = tau demands at q(t_hat) = 1.
    """
    denom = 2 * k + n + 3
    if denom == 0:
        raise ValueError("2k + n + 3 must be nonzero")
    return OuterSymmetry(
        t_hat=6.0 * math.pi / (denom * p0),
        p_hat=cmath.exp(6j * cmath.pi / denom),
        tau_hat=cmath.exp(2j * cmath.pi * (k - n) / denom),
    )


# -- JSON schema --------------------------------------------------------------

_TOP_KEYS = {"kind", "a", "b", "k", "n", "a_k", "b_n", "psi0", "m", "d",
             "trunc", "grid", "lambda"}


def is_finite_number(v) -> bool:
    """A finite JSON number; bools are not numbers here (Python counts them as ints)."""
    try:
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v))
    except OverflowError:  # an int beyond the float range
        return False


def _int_from(v, path, lo: int, hi: int | None = None) -> int:
    if not (is_finite_number(v) and isinstance(v, int) and v >= lo
            and (hi is None or v <= hi)):
        raise SchemaError(path, f"integer >= {lo} required" if hi is None
                          else f"integer in {lo}..{hi} required")
    return v


def _complex_from(v, path):
    if is_finite_number(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(is_finite_number(x) for x in v):
        return complex(v[0], v[1])
    raise SchemaError(path, "expected a finite number or [re, im]")


def _poly_from(v, path) -> Poly:
    if not isinstance(v, list):
        raise SchemaError(path, "expected a coefficient list")
    return Poly(tuple(_complex_from(c, f"{path}[{i}]") for i, c in enumerate(v)))


def spec_from_dict(doc: dict):
    """Validated (PotentialSpec, run_defaults) from a JSON document.

    Unknown fields are rejected with the offending path.
    """
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise SchemaError(key, "unknown field")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise SchemaError("kind", f"expected one of {KINDS}")

    def need(key):
        if key not in doc:
            raise SchemaError(key, f"required for kind {kind!r}")
        return doc[key]

    def forbid(keys):
        for key in keys:
            if key in doc:
                raise SchemaError(key, f"not allowed for kind {kind!r}")

    if kind == "normalized":
        forbid(("k", "n", "a_k", "b_n", "psi0", "m", "d"))
        a_fn, b_fn = _poly_from(need("a"), "a"), _poly_from(need("b"), "b")
        try:
            spec = normalized_spec(a_fn, b_fn)
        except ArithmeticError:
            raise SchemaError("a", "a^2 is outside the float range") from None
        except ValueError as exc:  # a zero a, or psi0 outside the float range
            raise SchemaError("a" if a_fn.degree < 0 else "b", str(exc)) from None
    elif kind == "radial_monomial":
        forbid(("a", "b", "m", "d"))
        k = _int_from(need("k"), "k", 0)
        n = _int_from(need("n"), "n", 0)
        a_k = _complex_from(need("a_k"), "a_k")
        b_n = _complex_from(doc["b_n"], "b_n") if "b_n" in doc else None
        psi0 = _complex_from(doc["psi0"], "psi0") if "psi0" in doc else None
        if (b_n is None) == (psi0 is None):
            raise SchemaError("psi0", "give exactly one of b_n, psi0")
        try:
            spec = radial_monomial_spec(k, n, a_k, b_n=b_n, psi0=psi0)
        except ArithmeticError:
            raise SchemaError("a_k", "a_k^2 is outside the float range") from None
        except ValueError as exc:  # a zero slot, or psi0 outside the float range
            raise SchemaError("a_k" if a_k == 0 else "psi0" if b_n is None else "b_n",
                              str(exc)) from None
    elif kind == "rotational":
        forbid(("k", "n", "a_k", "b_n", "psi0", "d"))
        m = _int_from(need("m"), "m", 3)
        a_fn, b_fn = _poly_from(need("a"), "a"), _poly_from(need("b"), "b")
        try:
            spec, _ = rotational_potential(m, a_fn, b_fn)
        except (PoleAtOrigin, ValueError) as exc:  # b(0) != 0, or a zero a
            raise SchemaError("b" if isinstance(exc, PoleAtOrigin) else "a", str(exc)) from None
    elif kind == "vacuum":
        forbid(("k", "n", "a_k", "b_n", "psi0", "m", "d"))
        a = _complex_from(need("a"), "a")
        b = _complex_from(need("b"), "b")
        try:
            _, _, spec = vacuum_normalize(a, b)
        except NotVacuum as exc:
            raise SchemaError("b", str(exc)) from None
        except ValueError as exc:  # a zero slot
            raise SchemaError("a" if a == 0 else "b", str(exc)) from None
    else:  # constant_degree_one
        forbid(("a", "b", "k", "n", "a_k", "b_n", "psi0", "m"))
        d_doc = need("d")
        if not isinstance(d_doc, dict):
            raise SchemaError("d", "expected {degree: 3x3 matrix}")
        entries = {}
        for key, rows in d_doc.items():
            try:
                deg = int(key)
            except ValueError:
                raise SchemaError(f"d.{key}", "degree keys must be integers") from None
            if deg not in (-1, 0, 1):
                raise SchemaError(f"d.{key}", "degrees must lie in {-1, 0, 1}")
            if not (isinstance(rows, list) and len(rows) == 3):
                raise SchemaError(f"d.{key}", "expected 3 rows")
            mat = np.zeros((3, 3), dtype=complex)
            for i, row in enumerate(rows):
                if not (isinstance(row, list) and len(row) == 3):
                    raise SchemaError(f"d.{key}[{i}]", "expected 3 entries")
                for j, v in enumerate(row):
                    mat[i, j] = _complex_from(v, f"d.{key}[{i}][{j}]")
            entries[deg] = mat
        try:
            spec = constant_degree_one_spec(
                LoopMatrix.from_coeffs(entries, twisted=True))
        except ValueError as exc:
            raise SchemaError("d", str(exc)) from None

    run = {}
    if "trunc" in doc:
        run["trunc"] = _int_from(doc["trunc"], "trunc", 4, MAX_TRUNC)
    if "grid" in doc:
        run["grid"] = doc["grid"]
    if "lambda" in doc:
        if not isinstance(doc["lambda"], list):
            raise SchemaError("lambda", "expected a list")
        run["lambda"] = circle_values([_complex_from(v, f"lambda[{i}]")
                                       for i, v in enumerate(doc["lambda"])])
    return spec, run


def circle_values(lams) -> list:
    """A spec's or --lambda's values on S^1; SchemaError unless non-empty and 0.9 <= |lam| <= 1.1."""
    if not lams:
        raise SchemaError("lambda", "expected at least one S^1 value")
    for i, lam in enumerate(lams):
        if not 0.9 <= abs(lam) <= 1.1:  # NaN fails too
            raise SchemaError(f"lambda[{i}]", f"{lam} is not near S^1")
    return [lam / abs(lam) for lam in lams]
