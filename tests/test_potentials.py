import cmath
import math

import numpy as np
import pytest

from lagdpw import su3
from lagdpw.errors import NotVacuum, PoleAtOrigin, SchemaError
from lagdpw.loops import algebra_twist_residual
from lagdpw.potentials import (Poly, check_potential_symmetry,
                               clifford_spec, constant_degree_one_spec,
                               homogeneity_params, normalized_spec,
                               outer_symmetry_order, radial_monomial_spec,
                               rotational_potential, spec_from_dict,
                               spec_to_dict, vacuum_normalize, wu_potential)

CLIFFORD_MATRIX = np.array([[0, 0, 1j], [1j, 0, 0], [0, 1j, 0]], dtype=complex)


# -- Wu's formula ----------------------------------------------------------

def test_wu_clifford():
    spec = wu_potential(0.0, 0.0, Poly.of(-1.0))
    assert np.allclose(spec.coefficient_matrix(0.37 + 0.2j), CLIFFORD_MATRIX,
                       atol=1e-15)


def test_wu_totally_geodesic():
    u0 = 0.8
    spec = wu_potential(u0, u0, Poly.of(0.0))
    m = spec.coefficient_matrix(1.3)
    a = 1j * math.exp(u0 / 2)
    expected = np.array([[0, 0, a], [0, 0, 0], [0, a, 0]])
    assert np.allclose(m, expected, atol=1e-14)


def test_wu_linear_psi():
    # psi(z) = -z with u = 0: the (2,1) entry is -i psi e^{0} = i z
    spec = wu_potential(0.0, 0.0, Poly.of(0.0, -1.0))
    z = 0.7
    assert spec.a(z) == pytest.approx(1.0)
    assert spec.coefficient_matrix(z)[1, 0] == pytest.approx(1j * z)
    assert spec.b(z) == pytest.approx(z)


def test_wu_callable_round():
    spec = wu_potential(lambda z: 0.1 * z, 0.0, lambda z: -1.0 - z)
    z = 0.4 + 0.1j
    assert spec.a(z) == pytest.approx(cmath.exp(0.1 * z))
    assert spec.b(z) == pytest.approx((1.0 + z) * cmath.exp(-0.2 * z))


# -- homogeneity data -------------------------------------------------------

@pytest.mark.parametrize("k,n,p0,q0,t0", [
    (0, 0, 3.0, 3.0, 0.0),
    (1, 0, 3.0, 5.0, 1.0),
    (0, 1, 3.0, 4.0, -1.0),
])
def test_homogeneity_params_examples(k, n, p0, q0, t0):
    hd = homogeneity_params(k, n, p0)
    assert hd.q0 == pytest.approx(q0)
    assert hd.t0 == pytest.approx(t0)


def test_homogeneity_exact_rationals():
    for k, n in [(0, 0), (1, 0), (0, 1), (2, 3), (5, 1)]:
        hd = homogeneity_params(k, n, 1.7)
        assert 3 * hd.q0_factor == 2 * k + n + 3
        assert 3 * hd.t0_factor == k - n
        t = hd.T_at(0.9)
        assert t[0, 0] * t[1, 1] == pytest.approx(1.0)
        assert t[2, 2] == 1.0


# -- vacuum normalization ----------------------------------------------------

def test_vacuum_normalize_trivial():
    delta, scale, spec = vacuum_normalize(1j, 1j)
    assert delta == 0.0
    assert scale == pytest.approx(1.0)
    assert np.allclose(spec.coefficient_matrix(0.0), CLIFFORD_MATRIX)


def test_vacuum_normalize_phase_case():
    delta, scale, spec = vacuum_normalize(1j * cmath.exp(1j * math.pi / 3), 1j)
    assert delta == pytest.approx(-math.pi / 9)
    assert scale == pytest.approx(cmath.exp(2j * math.pi / 9))
    assert spec.a_fn.coeffs == (1.0 + 0.0j,)
    assert spec.b_fn.coeffs == (1.0 + 0.0j,)


def test_vacuum_normalize_scaling_case():
    delta, scale, spec = vacuum_normalize(2j, 2j)
    assert delta == 0.0
    assert scale == pytest.approx(2.0)
    # output is the Clifford spec bit-exactly
    assert spec.a_fn.coeffs == clifford_spec().a_fn.coeffs
    assert spec.b_fn.coeffs == clifford_spec().b_fn.coeffs


def test_vacuum_normalize_rejects():
    with pytest.raises(NotVacuum):
        vacuum_normalize(1j, 2j)


# -- rotational potentials ----------------------------------------------------

def test_rotational_m3_constant():
    spec, t_mat = rotational_potential(3, Poly.of(1.0), Poly.of(0.0, 1.0))
    assert spec.b_fn.coeffs == (1.0 + 0.0j,)  # z^{-3} z^3 = 1
    assert spec.a_fn.coeffs == (1.0 + 0.0j,)


def test_rotational_m4_symmetry_residual_zero():
    spec, t_mat = rotational_potential(4, Poly.of(1.0), Poly.of(0.0, 1.0))
    assert spec.b_fn.degree == 1  # b-slot = z
    p = cmath.exp(2j * math.pi / 4)
    assert check_potential_symmetry(spec, p, 1.0, t_mat) < 1e-14


def test_rotational_geodesic_family():
    spec, t_mat = rotational_potential(3, Poly.of(1.0), Poly.of(0.0))
    p = cmath.exp(2j * math.pi / 3)
    assert check_potential_symmetry(spec, p, 1.0, t_mat) < 1e-14


def test_rotational_pole_at_origin():
    with pytest.raises(PoleAtOrigin):
        rotational_potential(3, Poly.of(1.0), Poly.of(1.0))


# -- symmetry checks -----------------------------------------------------------

def test_clifford_invariance_p_equals_q():
    cl = clifford_spec()
    for t in (0.3, 1.2):
        pt = cmath.exp(1j * t)
        assert check_potential_symmetry(cl, pt, pt, np.eye(3)) < 1e-14


def test_radial_homogeneity_exact():
    spec = radial_monomial_spec(1, 0, 1.0, psi0=-1.0)
    hd = homogeneity_params(1, 0, 1.0)
    for t in (0.37, 1.9):
        r = check_potential_symmetry(spec, hd.p_at(t), hd.q_at(t), hd.T_at(t))
        assert r < 1e-13


def test_clifford_lambda_flip_detected():
    cl = clifford_spec()
    assert check_potential_symmetry(cl, 1.0, -1.0, np.eye(3)) > 1.0


# -- outer symmetry -------------------------------------------------------------

def test_outer_symmetry_examples():
    o = outer_symmetry_order(0, 0)
    assert o.p_hat == pytest.approx(1.0)
    assert o.tau_hat == pytest.approx(1.0)
    o = outer_symmetry_order(1, 0)
    assert o.p_hat == pytest.approx(cmath.exp(6j * math.pi / 5))
    # tau(t_hat) = exp(i t0 t_hat) = exp(2 pi i/5) = p_hat^2: the value the
    # homogeneity relation q^{-1} p^{k+1} = tau forces at q = 1
    assert o.tau_hat == pytest.approx(cmath.exp(2j * math.pi / 5))
    assert o.tau_hat == pytest.approx(o.p_hat ** 2)
    o = outer_symmetry_order(0, 3)
    assert o.p_hat == pytest.approx(-1.0)
    assert o.tau_hat == pytest.approx(-1.0)


def test_outer_symmetry_is_potential_symmetry():
    k, n = 1, 0
    spec = radial_monomial_spec(k, n, 1.0, psi0=-1.0)
    o = outer_symmetry_order(k, n)
    assert check_potential_symmetry(spec, o.p_hat, 1.0, o.T_hat) < 1e-12


# -- structural invariants --------------------------------------------------------

def test_every_spec_coefficient_in_g5(rng):
    specs = [
        clifford_spec(),
        normalized_spec(Poly.of(1.0), Poly.of(0.0)),
        radial_monomial_spec(1, 0, 1.0, psi0=-1.0),
        radial_monomial_spec(0, 0, 1.0, b_n=2.0),
        rotational_potential(4, Poly.of(1.0), Poly.of(0.0, 1.0))[0],
        wu_potential(0.0, 0.0, Poly.of(-1.0, 0.5)),
    ]
    for spec in specs:
        for z in (0.3, 0.9 + 0.4j, -1.1j):
            eta = spec.eta_coefficients(z)
            assert algebra_twist_residual(eta) < 1e-12


def test_radial_cubic_form():
    for k, n in [(0, 0), (1, 0), (0, 2), (2, 1)]:
        spec = radial_monomial_spec(k, n, 1.3, psi0=-0.7)
        for z in (0.4, 0.8 - 0.3j):
            assert spec.psi(z) == pytest.approx(spec.psi0 * z ** (2 * k + n))


def test_radial_normalization_arbitrary_input():
    spec = radial_monomial_spec(1, 2, 0.5j, b_n=1.0 + 1.0j)
    assert spec.a_fn.coeffs[1].real > 0
    assert spec.psi0.real < 0 and spec.psi0.imag == 0
    assert abs(spec.coord_scale) == pytest.approx(1.0)
    # the recorded gauge and rotation reproduce the normal form from the input
    k, n = 1, 2
    s, delta = spec.coord_scale, spec.gauge_delta
    a_back = 0.5j * cmath.exp(1j * delta) / s ** (k + 1)
    assert a_back.imag == pytest.approx(0.0, abs=1e-14)
    assert a_back.real == pytest.approx(abs(0.5j))
    # a zero slot is a ValueError, also when psi0 would be divided by a_k^2
    for a_k, psi0 in ((0.0, -1.0), (1.0, 0.0)):
        with pytest.raises(ValueError):
            radial_monomial_spec(0, 0, a_k, psi0=psi0)


def test_constant_degree_one_requires_twisted():
    from lagdpw.loops import LoopMatrix
    good = LoopMatrix.from_coeffs(
        {-1: su3.A_CLIFFORD, 1: su3.tau(su3.A_CLIFFORD)}, twisted=True)
    spec = constant_degree_one_spec(good)
    assert spec.a(0.0) == pytest.approx(1.0)
    bad = LoopMatrix.from_coeffs({-1: np.eye(3)}, twisted=True)
    with pytest.raises(ValueError):
        constant_degree_one_spec(bad)


# -- serialization ------------------------------------------------------------------

def test_json_round_trips():
    for spec in (clifford_spec(), radial_monomial_spec(1, 0, 1.0, psi0=-1.0),
                 normalized_spec(Poly.of(1.0), Poly.of(2.0))):
        doc = spec_to_dict(spec)
        back, run = spec_from_dict(doc)
        assert back.kind == spec.kind
        for z in (0.3, 0.7 - 0.2j):
            assert back.a(z) == pytest.approx(spec.a(z))
            assert back.b(z) == pytest.approx(spec.b(z))


def test_schema_rejects_unknown_field():
    with pytest.raises(SchemaError) as err:
        spec_from_dict({"kind": "normalized", "a": [[1, 0]], "b": [], "x": 1})
    assert err.value.path == "x"


def test_schema_kind_field_rules():
    with pytest.raises(SchemaError):
        spec_from_dict({"kind": "nope"})
    with pytest.raises(SchemaError):
        spec_from_dict({"kind": "normalized", "a": [[1, 0]]})  # missing b
    with pytest.raises(SchemaError):
        spec_from_dict({"kind": "radial_monomial", "k": 0, "n": 0,
                        "a_k": 1.0, "b_n": 1.0, "psi0": -1.0})  # both given
    with pytest.raises(SchemaError):
        spec_from_dict({"kind": "vacuum", "a": [0, 1], "b": [0, 1], "m": 3})
    with pytest.raises(SchemaError):
        spec_from_dict({"kind": "rotational", "m": 2, "a": [[1, 0]], "b": []})
    # bools are not integers here, and numbers must be finite
    for bad in ({"k": True}, {"n": False}, {"a_k": float("inf")},
                {"psi0": [-1.0, True]}, {"a_k": 10 ** 400}):
        with pytest.raises(SchemaError) as err:
            spec_from_dict({"kind": "radial_monomial", "k": 0, "n": 0,
                            "a_k": 1.0, "psi0": -1.0, **bad})
        assert err.value.path == next(iter(bad))
    with pytest.raises(SchemaError):
        spec_from_dict({"kind": "rotational", "m": True, "a": [[1, 0]], "b": []})


def test_schema_constant_degree_one():
    enc = lambda m: [[[m[i][j].real, m[i][j].imag] for j in range(3)]
                     for i in range(3)]
    a = su3.A_CLIFFORD
    doc = {"kind": "constant_degree_one",
           "d": {"-1": enc(a), "1": enc(su3.tau(a))}}
    spec, _ = spec_from_dict(doc)
    assert spec.kind == "constant_degree_one"
    with pytest.raises(SchemaError):
        spec_from_dict({"kind": "constant_degree_one", "d": {"2": enc(a)}})


def test_schema_run_defaults():
    doc = {"kind": "normalized", "a": [[1, 0]], "b": [], "trunc": 12,
           "tol": 1e-9, "lambda": [[0, 1]], "grid": {"kind": "polar"}}
    spec, run = spec_from_dict(doc)
    assert run["trunc"] == 12
    assert run["lambda"] == [1j]
    with pytest.raises(SchemaError):
        spec_from_dict({"kind": "normalized", "a": [[1, 0]], "b": [],
                        "trunc": 2})
    with pytest.raises(SchemaError):
        spec_from_dict({"kind": "normalized", "a": [[1, 0]], "b": [],
                        "tol": 1.0})
    with pytest.raises(SchemaError):
        spec_from_dict({"kind": "normalized", "a": [[1, 0]], "b": [],
                        "trunc": True})
