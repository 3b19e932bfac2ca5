import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_realform_degree_one
from lagdpw import su3
from lagdpw.dpw import (GridSpec, PipelineSurface, axis_log_v0,
                        clifford_frame_loop, clifford_oracle,
                        frame_point, grid_sample,
                        integrate_frame, rp2_oracle, surface_sample)
from lagdpw.errors import SchemaError, TruncationOverflow
from lagdpw.geometry import fubini_study_distance, metric_consistency_residual
from lagdpw.loops import (LoopMatrix, loop_exp, loop_scale, loop_sum,
                          max_distance_on_circle, twist_residual,
                          unitarity_residual)
from lagdpw.potentials import (Poly, clifford_spec, constant_degree_one_spec,
                               normalized_spec, radial_monomial_spec)

A = su3.A_CLIFFORD
CL = clifford_spec()
RP2 = normalized_spec(Poly.of(1.0), Poly.of(0.0))


def test_integrate_frame_clifford_matches_exponential():
    z = 1.3 - 0.8j
    c = integrate_frame(CL, z, 16, 1e-10)
    oracle = loop_exp(LoopMatrix.monomial(-1, z * A, twisted=True), 16)
    assert max_distance_on_circle(c, oracle) < 1e-9


def test_integrate_frame_at_base_point():
    c = integrate_frame(RP2, 0.0, 16)
    assert max_distance_on_circle(c, LoopMatrix.identity()) == 0.0


def test_integrate_frame_constant_degree_one(rng):
    d = random_realform_degree_one(rng)
    z = 0.6 + 0.2j
    c = integrate_frame(constant_degree_one_spec(d), z, 16)
    assert max_distance_on_circle(c, loop_exp(loop_scale(d, z), 16)) < 1e-12


def test_path_independence():
    spec = radial_monomial_spec(1, 0, 1.0, psi0=-1.0)
    z = 1.1 + 0.7j
    tol = 1e-10
    c1 = integrate_frame(spec, z, 16, tol)
    c2 = integrate_frame(spec, z, 16, tol, path=[0.9j, 0.5 + 0.1j])
    assert max_distance_on_circle(c1, c2) < 10 * tol


def test_truncation_overflow():
    with pytest.raises(TruncationOverflow):
        integrate_frame(CL, 14.0, 8, 1e-8)


def test_extended_frame_clifford_and_base():
    z = 0.9 + 0.5j
    frame = frame_point(CL, z, 16).frame
    assert max_distance_on_circle(frame, clifford_frame_loop(z, 16)) < 1e-9
    fp0 = frame_point(CL, 0.0, 16)
    assert max_distance_on_circle(fp0.frame, LoopMatrix.identity()) < 1e-12
    assert max_distance_on_circle(fp0.v_plus, LoopMatrix.identity()) < 1e-12


def test_extended_frame_unitary_twisted_positive_v0():
    spec = radial_monomial_spec(1, 0, 1.0, psi0=-1.0)
    fp = frame_point(spec, 0.8 + 0.3j, 16)
    assert unitarity_residual(fp.frame) < 1e-9
    assert twist_residual(fp.frame) < 1e-9
    v0 = fp.v_plus.coefficient(0)
    assert np.all(np.diagonal(v0).real > 0)


def test_extended_frame_rp2_structure():
    # F = exp(lambda^{-1} h_- N_-) D exp(lambda h_+ N_+): modes -2..2 only
    z = 0.8 + 0.4j
    frame = frame_point(RP2, z, 16).frame.trim(1e-12)
    assert frame.min_degree >= -2 and frame.max_degree <= 2
    a = 1j  # u0 = 0
    s = surface_sample(RP2, z, 1.0)
    w = abs(a * z) ** 2 / 2
    assert s.v0 == pytest.approx(1.0 / (1.0 + w), abs=1e-10)


def test_surface_sample_clifford_values():
    s0 = surface_sample(CL, 0.0, 1.0)
    assert np.allclose(s0.lift, [0, 0, 1], atol=1e-12)
    assert s0.u == pytest.approx(0.0, abs=1e-12)
    assert s0.psi == pytest.approx(-1.0)
    for z in (0.7, 1.2 - 0.9j):
        for lam in (1.0, 1j):
            s = surface_sample(CL, z, lam)
            assert abs(s.u) < 1e-8
            assert s.psi == pytest.approx(-1.0)
            assert np.linalg.norm(s.lift) == pytest.approx(1.0, abs=1e-8)


def test_surface_sample_radial_branch_point():
    spec = radial_monomial_spec(1, 0, 1.0, psi0=-1.0)
    s = surface_sample(spec, 0.0, 1.0)
    assert s.singular
    assert s.u == -math.inf
    s1 = surface_sample(spec, 0.8, 1.0)
    assert not s1.singular
    assert np.isfinite(s1.u)


def test_grid_sample_clifford_flat():
    grid = GridSpec(kind="polar", r_max=2.0, n_r=4, n_theta=8)
    samples, field, failures = grid_sample(CL, grid, [1.0])
    assert len(samples) == 32 and not failures
    assert max(abs(s.u) for s in samples) < 1e-8
    # frame field normalized at the base point
    fp0 = frame_point(CL, 0.0, 16)
    assert max_distance_on_circle(fp0.frame, LoopMatrix.identity()) < 1e-12


def test_grid_sample_empty():
    samples, field, failures = grid_sample(CL, [], [1.0])
    assert samples == [] and field.points == () and failures == []


def test_grid_sample_collects_failures():
    # the branch point z = 0 is not fatal for the rest of the grid
    spec = radial_monomial_spec(1, 0, 1.0, psi0=-1.0)
    samples, field, failures = grid_sample(spec, [0.5, 0.9], [1.0])
    assert len(samples) == 2 and not failures


def test_grid_sample_run_determinism():
    grid = GridSpec(kind="polar", r_max=1.0, n_r=3, n_theta=4)
    s1, _, _ = grid_sample(CL, grid, [1.0])
    s2, _, _ = grid_sample(CL, grid, [1.0])
    assert len(s1) == len(s2) == 12
    for a, b in zip(s1, s2):
        assert np.array_equal(a.lift, b.lift)
        assert a.u == b.u and a.v0 == b.v0


_JSON = (st.none() | st.booleans() | st.integers() | st.floats()
         | st.text(max_size=2) | st.lists(st.integers(), max_size=2))
_GRID_FIELDS = ("r_max", "n_r", "n_theta", "r_min", "extent", "nx", "ny")


@settings(deadline=None)
@given(st.fixed_dictionaries(
    {"kind": st.sampled_from(["polar", "cartesian", "spiral"])},
    optional={k: _JSON | st.integers(1, 4) | st.floats(0.1, 3.0)
              for k in _GRID_FIELDS + ("zz",)}))
def test_grid_from_dict_admits_only_finite_positive_fields(doc):
    try:
        grid = GridSpec.from_dict(doc)
    except SchemaError:
        return
    for key in set(doc) & set(_GRID_FIELDS):
        value = getattr(grid, key)
        assert type(value) in (int, float) and 0 < value < math.inf
        if key in ("n_r", "n_theta", "nx", "ny"):
            assert type(value) is int


def test_clifford_oracle_values():
    s = clifford_oracle(0.0, 1.0)
    assert np.allclose(s.lift, [0, 0, 1], atol=1e-15)
    s = clifford_oracle(1.0, 1.0)
    assert np.linalg.norm(s.lift) == pytest.approx(1.0, abs=1e-12)
    # eigenbasis components of the flat lift have modulus 1/sqrt(3) everywhere
    for z in (0.3, 1.7 - 0.4j, 2.0j):
        lift = clifford_oracle(z, 1.0).lift
        for j in range(3):
            v = np.array([1.0, su3.ALPHA ** j, su3.ALPHA ** (2 * j)]) / np.sqrt(3)
            assert abs(np.vdot(v, lift)) == pytest.approx(1 / np.sqrt(3), abs=1e-12)


def test_rp2_oracle_values():
    assert np.allclose(rp2_oracle(1j, 0.0).lift, [0, 0, 1], atol=1e-15)
    z = np.sqrt(2.0)  # |az|^2 = 2 kills the third component
    assert abs(rp2_oracle(1j, z).lift[2]) < 1e-14
    for z in (0.4, 1.9 - 0.8j):
        assert np.linalg.norm(rp2_oracle(1j, z).lift) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rp2_oracle(1.0, 0.3)


def test_pipeline_matches_rp2_oracle():
    for z in (0.5, 1.3 + 0.8j, -1.9j):
        for lam in (1.0, 1j):
            s = surface_sample(RP2, z, lam)
            o = rp2_oracle(1j, z, lam)
            phase = np.vdot(o.lift, s.lift)
            phase /= abs(phase)
            assert np.max(np.abs(s.lift - phase * o.lift)) < 1e-6
            assert s.u == pytest.approx(o.u, abs=1e-8)


def test_metric_consistency_against_frame_derivative():
    surf = PipelineSurface(radial_monomial_spec(0, 0, 1.0, b_n=2.0), 1.0, 16)
    for z in (0.5, 0.9 + 0.4j):
        assert metric_consistency_residual(surf, z) < 1e-6


def test_homogeneity_transport_radial():
    from lagdpw.geometry import homogeneity_frame_residual
    spec = radial_monomial_spec(1, 0, 1.0, psi0=-1.0)
    res = homogeneity_frame_residual(spec, (0.4, 1.1, 2.3),
                                     (0.5 + 0.2j, 0.8), trunc=16)
    assert res < 1e-7


def test_associated_family_reparametrization():
    # for constant potentials the sample at (z, lam) is the sample at
    # (z/lam, 1): Fubini-Study distance below 1e-7
    for spec in (CL, radial_monomial_spec(0, 0, 1.0, b_n=2.0)):
        for lam in (1j, np.exp(1j * np.pi / 7)):
            for z in (0.8, 0.6 - 0.9j):
                s_lam = surface_sample(spec, z, lam)
                s_one = surface_sample(spec, z / lam, 1.0)
                assert fubini_study_distance(s_lam.lift, s_one.lift) < 1e-7


def test_axis_continuation_rp2():
    # on the slice v0 = 1/(1 + |z|^2/2) != 1, while its continuation to the
    # axis zbar = 0 is exactly 1: all fitted axis coefficients must vanish
    w = axis_log_v0(RP2, radius=1.0)
    assert np.sum(np.abs(w.coeffs)) < 1e-8


def test_radial_k1_cubic_form_from_lift():
    # branch-point spec: Wu's formula is degenerate at 0, but the cubic form
    # psi0 z^{2k+n} is still measurable from the lift away from the origin
    from lagdpw.geometry import hopf_coefficient
    spec = radial_monomial_spec(1, 0, 1.0, psi0=-1.0)
    surf = PipelineSurface(spec, 1.0, 16)
    for z in (0.6, 0.45 + 0.45j):
        psi_fd = hopf_coefficient(surf, z, h=1e-3)
        assert abs(psi_fd - spec.psi0 * z ** 2) < 1e-6


def test_constant_degree_one_same_surface_as_clifford():
    # exp(z D) = exp(z lambda^{-1} A) * (plus loop) spans the same positive
    # subspace, so the unique unitary factor and the lift coincide with the
    # normalized Clifford potential's
    d = LoopMatrix.from_coeffs({-1: A, 1: su3.tau(A)}, twisted=True)
    spec_d = constant_degree_one_spec(d)
    for z in (0.6, 0.4 - 0.7j):
        s_d = surface_sample(spec_d, z, 1.0)
        s_o = clifford_oracle(z, 1.0)
        assert np.max(np.abs(s_d.lift - s_o.lift)) < 1e-9
        assert abs(s_d.u) < 1e-9
        assert s_d.psi == pytest.approx(-1.0)


def test_frame_maurer_cartan_structure():
    # F^{-1} F_z must be lambda^{-1} U_{-1} + U_0 with U_{-1} in the g_5
    # entry pattern and U_0 diagonal traceless; no positive lambda modes
    spec = radial_monomial_spec(0, 0, 1.0, b_n=2.0)
    surf = PipelineSurface(spec, 1.0, 16)
    z, h = 0.6 + 0.3j, 1e-5
    from lagdpw.loops import loop_product

    def diff(a, b, s):
        return loop_scale(loop_sum(a, b, sign=-1.0), s)

    fx = diff(surf.frame_point(z + h).frame, surf.frame_point(z - h).frame,
              1.0 / (2 * h))
    fy = diff(surf.frame_point(z + 1j * h).frame,
              surf.frame_point(z - 1j * h).frame, 1.0 / (2 * h))
    f_z = loop_sum(fx, loop_scale(fy, -1j))
    f_z = loop_scale(f_z, 0.5)
    mc = loop_product(surf.frame_point(z).frame.conj_transpose(), f_z)
    u_m1 = mc.coefficient(-1)
    scale = np.max(np.abs(u_m1))
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 2] = mask[1, 0] = mask[2, 1] = True
    assert np.max(np.abs(u_m1[~mask])) < 1e-6 * scale
    u_0 = mc.coefficient(0)
    assert np.max(np.abs(u_0 - np.diag(np.diagonal(u_0)))) < 1e-5
    assert abs(np.trace(u_0)) < 1e-5
    for d in mc.degrees:
        if d > 0:
            assert np.max(np.abs(mc.coefficient(d))) < 1e-5 * scale


def test_lambda0_validation():
    with pytest.raises(ValueError):
        surface_sample(CL, 0.3, 1.2)
