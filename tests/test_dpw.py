import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (bundled_spec, random_realform_degree_one, twist_residual,
                      unitarity_on_circle)
from frame_oracle import rk45_frame
from lagdpw import su3
from lagdpw.dpw import (E3, MAX_GRID_NODES, FramePoint, GridSpec, PipelineSurface,
                        axis_log_v0, clifford_frame_loop, clifford_oracle, frame_point,
                        grid_sample, integrate_frame, rp2_oracle, sample_from_frame)
from lagdpw.errors import PoleOnPath, SchemaError, TruncationOverflow
from lagdpw.geometry import fubini_study_distance, metric_consistency_residual
from lagdpw.loops import LoopMatrix, loop_exp, loop_scale, loop_sum, max_distance_on_circle
from lagdpw.potentials import (Poly, clifford_spec, constant_degree_one_spec,
                               normalized_spec, radial_monomial_spec)

A = su3.A_CLIFFORD
CL = clifford_spec()
RP2 = normalized_spec(Poly.of(1.0), Poly.of(0.0))
BUNDLED = ("clifford", "radial_ab", "radial_k1", "rotational_m4", "rp2")


def test_integrate_frame_clifford_matches_exponential():
    z = 1.3 - 0.8j
    c = integrate_frame(CL, z, 16)
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


ORACLE_TOL = 1e-10


def _relative_gap(exact, oracle):
    lo = min(exact.min_degree, oracle.min_degree)
    a, b = exact.restrict(lo, 0).coeffs, oracle.restrict(lo, 0).coeffs
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_path_independence():
    # the exact stack against RK45 along a polygonal path of the same slots
    spec = radial_monomial_spec(1, 0, 1.0, psi0=-1.0)
    z = 1.1 + 0.7j
    c1 = integrate_frame(spec, z, 16)
    c2 = rk45_frame(spec, z, 16, ORACLE_TOL, path=[0.9j, 0.5 + 0.1j])
    assert max_distance_on_circle(c1, c2) < 10 * ORACLE_TOL


@pytest.mark.parametrize("name", BUNDLED)
def test_exact_frame_matches_rk45_on_outer_ring(name):
    spec, run = bundled_spec(name)
    grid = GridSpec.from_dict(run["grid"])
    ring = grid.nodes()[-grid.n_theta:]
    for z in ring:
        gap = _relative_gap(integrate_frame(spec, z, 16), rk45_frame(spec, z, 16, ORACLE_TOL))
        assert gap < 1e-9, (z, gap)


_SMALL_COEFF = st.complex_numbers(max_magnitude=1.0)


@settings(max_examples=15, deadline=None)
@given(st.lists(_SMALL_COEFF, min_size=1, max_size=3),
       st.lists(_SMALL_COEFF, min_size=1, max_size=3),
       st.complex_numbers(max_magnitude=1.0))
def test_exact_frame_matches_rk45_on_random_polys(a, b, z):
    if not any(a):  # an identically zero a makes no surface
        with pytest.raises(ValueError):
            normalized_spec(Poly.of(*a), Poly.of(*b))
        return
    spec = normalized_spec(Poly.of(*a), Poly.of(*b))
    gap = _relative_gap(integrate_frame(spec, z, 16), rk45_frame(spec, z, 16, ORACLE_TOL))
    assert gap < 1e-9


def test_truncation_overflow():
    with pytest.raises(TruncationOverflow):
        integrate_frame(CL, 14.0, 8)


def test_exact_frame_overflow_is_pole_on_path():
    # Horner overflows at z = 1e200; typed error, no numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PoleOnPath):
            integrate_frame(RP2, 1e200, 16)
        with pytest.raises(TruncationOverflow):
            integrate_frame(CL, 1e6, 16)


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
    assert unitarity_on_circle(fp.frame) < 1e-9
    assert twist_residual(fp.frame) < 1e-9
    v0 = fp.v_plus.coefficient(0)
    assert np.all(np.diagonal(v0).real > 0)


def test_extended_frame_rp2_structure():
    # F = exp(lambda^{-1} h_- N_-) D exp(lambda h_+ N_+): modes -2..2 only
    z = 0.8 + 0.4j
    frame = frame_point(RP2, z, 16).frame.trim(1e-12)
    assert frame.min_degree >= -2 and frame.max_degree <= 2
    a = 1j  # u0 = 0
    s = PipelineSurface(RP2, 1.0).samples(z)
    w = abs(a * z) ** 2 / 2
    assert s.v0 == pytest.approx(1.0 / (1.0 + w), abs=1e-10)


def test_surface_sample_clifford_values():
    s0 = PipelineSurface(CL, 1.0).samples(0.0)
    assert np.allclose(s0.lift, [0, 0, 1], atol=1e-12)
    assert s0.u == pytest.approx(0.0, abs=1e-12)
    assert s0.psi == pytest.approx(-1.0)
    for z in (0.7, 1.2 - 0.9j):
        for lam in (1.0, 1j):
            s = PipelineSurface(CL, lam).samples(z)
            assert abs(s.u) < 1e-8
            assert s.psi == pytest.approx(-1.0)
            assert np.linalg.norm(s.lift) == pytest.approx(1.0, abs=1e-8)


def test_surface_sample_radial_branch_point():
    spec = radial_monomial_spec(1, 0, 1.0, psi0=-1.0)
    s = PipelineSurface(spec, 1.0).samples(0.0)
    assert s.singular
    assert s.u == -math.inf
    s1 = PipelineSurface(spec, 1.0).samples(0.8)
    assert not s1.singular
    assert np.isfinite(s1.u)


def test_grid_sample_clifford_flat():
    grid = GridSpec(kind="polar", r_max=2.0, n_r=4, n_theta=8)
    samples, failures = grid_sample(CL, grid, [1.0])
    assert samples.z.shape == (32,) and not failures
    assert np.max(np.abs(samples.u)) < 1e-8
    # the frame is normalized at z = 0
    fp0 = frame_point(CL, 0.0, 16)
    assert max_distance_on_circle(fp0.frame, LoopMatrix.identity()) < 1e-12


@functools.cache
def _bundled_frame_points(name):
    spec, run = bundled_spec(name)
    nodes = GridSpec.from_dict(run["grid"]).nodes()[::11]
    return spec, [frame_point(spec, z, 16) for z in nodes]


_ANGLE = st.floats(0.0, 2 * math.pi, exclude_max=True)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BUNDLED), st.integers(0, 5),
       st.lists(_ANGLE, min_size=1, max_size=4).flatmap(
           lambda t: st.lists(st.sampled_from(t), min_size=len(t), max_size=4)))
def test_record_lifts_match_per_lambda0_evaluation(name, index, angles):
    # lambda_0-independent data once per point: lift[0, l] is the frame at
    # lambda0[l] (duplicates allowed), and the other fields are those of L = 1
    spec, fps = _bundled_frame_points(name)
    fp = fps[index % len(fps)]
    rec = sample_from_frame(spec, [fp], [np.exp(1j * t) for t in angles])
    one = sample_from_frame(spec, [fp], rec.lambda0[0])
    assert rec.lift.shape == (1, len(angles), 3) and len(rec.lambda0) == len(angles)
    for lam, lift in zip(rec.lambda0, rec.lift[0]):
        assert np.array_equal(lift, fp.frame.evaluate(lam) @ E3)
    for field in ("z", "u", "psi", "v0", "singular", "residual", "tail"):
        assert np.array_equal(getattr(rec, field), getattr(one, field)), field
    assert np.array_equal(rec.frames[0], fp.frame.coeffs)
    assert np.array_equal(one.frames[0], fp.frame.coeffs)


_BATCH_POINT = st.builds(complex, st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
_BATCH_FIELDS = ("z", "lift", "u", "psi", "v0", "singular", "residual", "tail")
# samples functions, with examples each: the pipeline solves up to 30 points per example
_BATCH_SAMPLES = {
    "rp2": (lambda: PipelineSurface(bundled_spec("rp2")[0], (1.0, 0.6 + 0.8j), 16).samples, 8),
    "radial_ab": (lambda: PipelineSurface(
        bundled_spec("radial_ab")[0], (0.6 + 0.8j, 1.0), 16).samples, 8),
    "clifford_oracle": (lambda: lambda p: clifford_oracle(p, 0.6 + 0.8j), 15),
    "rp2_oracle": (lambda: lambda p: rp2_oracle(1j, p, np.exp(0.3j)), 15),
}


@pytest.mark.parametrize("name", sorted(_BATCH_SAMPLES))
def test_a_batch_equals_its_batches_of_one(name):
    # every field has the shape of the points, and each point's values are
    # bit for bit those it gets alone, repeats and 2-d arrays included
    make, examples = _BATCH_SAMPLES[name]
    samples = make()

    @settings(max_examples=examples, deadline=None)
    @given(st.data())
    def check(data):
        base = data.draw(st.lists(_BATCH_POINT, min_size=1, max_size=10))
        n = data.draw(st.integers(1, 20))
        picks = data.draw(st.lists(st.integers(0, len(base) - 1), min_size=n, max_size=n))
        shape = data.draw(st.sampled_from([(n,)] + [(r, n // r) for r in range(2, n + 1)
                                                    if n % r == 0]))
        points = np.array(base)[picks].reshape(shape)
        batch = samples(points)
        ones = [samples(np.array([z])) for z in points.ravel()]
        assert all(one.lambda0 == batch.lambda0 for one in ones)
        for field in _BATCH_FIELDS + ("frames",):
            values = getattr(batch, field)
            assert values.shape[:len(shape)] == shape, field
            flat = values.reshape((n,) + values.shape[len(shape):])
            for value, one in zip(flat, ones):
                assert np.array_equal(value, getattr(one, field)[0]), field

    check()


def test_a_large_batch_equals_its_batches_of_one(rng):
    # past 16384 complex values numpy may run an operation on a temporary in place, which
    # can round a complex product differently; a point's u, psi and v0 must not depend on it
    spec = normalized_spec(Poly.of(0.3 + 0.2j, 1.1 - 0.4j), Poly.of(0.5j, -0.7, 0.2 + 0.1j))
    n = 17000
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 0.5
    v0 = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.random(n))
    frame = LoopMatrix.identity().restrict(-1, 1)
    fps = [FramePoint(w, frame, LoopMatrix.constant(np.diag([v, 1.0, 1.0])), 0.0, 0.0)
           for w, v in zip(z.tolist(), v0.tolist())]
    batch = sample_from_frame(spec, fps, 1.0, trunc=1)
    for i in rng.choice(n, 40, replace=False):
        one = sample_from_frame(spec, [fps[i]], 1.0, trunc=1)
        for field in ("u", "psi", "v0"):
            assert np.array_equal(getattr(batch, field)[i], getattr(one, field)[0]), field


def test_oracle_at_a_scalar_point_has_scalar_fields():
    for s in (clifford_oracle(0.3 - 0.2j, 1j), rp2_oracle(1j, 0.3 - 0.2j, 1j)):
        assert s.z.shape == s.u.shape == s.psi.shape == s.singular.shape == ()
        assert s.lift.shape == (1, 3) and s.lambda0 == (1j,)
        assert np.array_equal(s.frames, su3.IDENTITY[None])
        assert math.isfinite(float(s.u)) and math.isfinite(abs(complex(s.psi)))


def test_grid_sample_empty():
    samples, failures = grid_sample(CL, [], [1.0], trunc=8)
    assert samples.z.shape == (0,) and samples.lift.shape == (0, 1, 3) and failures == []
    assert samples.frames.shape == (0, 17, 3, 3)


def test_sample_from_frame_refuses_frames_of_another_trunc():
    # 33 frames on -8..8 hold as many coefficients as 17 frames on -16..16
    fps = [frame_point(CL, 0.3, 8)] * 33
    with pytest.raises(ValueError):
        sample_from_frame(CL, fps, 1.0, trunc=16)


def test_grid_sample_collects_failures():
    # the branch point z = 0 is not fatal for the rest of the grid
    spec = radial_monomial_spec(1, 0, 1.0, psi0=-1.0)
    samples, failures = grid_sample(spec, [0.5, 0.9], [1.0])
    assert samples.z.size == 2 and not failures


def test_grid_sample_run_determinism():
    grid = GridSpec(kind="polar", r_max=1.0, n_r=3, n_theta=4)
    s1, _ = grid_sample(CL, grid, [1.0])
    s2, _ = grid_sample(CL, grid, [1.0])
    assert s1.z.shape == s2.z.shape == (12,)
    for field in ("lift", "u", "v0"):
        assert np.array_equal(getattr(s1, field), getattr(s2, field)), field


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
    assert len(grid.nodes()) <= MAX_GRID_NODES


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
    assert abs(rp2_oracle(1j, z).lift[0, 2]) < 1e-14
    for z in (0.4, 1.9 - 0.8j):
        assert np.linalg.norm(rp2_oracle(1j, z).lift) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        rp2_oracle(1.0, 0.3)


def test_pipeline_matches_rp2_oracle():
    for z in (0.5, 1.3 + 0.8j, -1.9j):
        for lam in (1.0, 1j):
            s = PipelineSurface(RP2, lam).samples(z)
            o = rp2_oracle(1j, z, lam)
            phase = np.vdot(o.lift, s.lift)
            phase /= abs(phase)
            assert np.max(np.abs(s.lift - phase * o.lift)) < 1e-6
            assert s.u == pytest.approx(o.u, abs=1e-8)


def test_metric_consistency_against_frame_derivative():
    spec = radial_monomial_spec(0, 0, 1.0, b_n=2.0)
    for z in (0.5, 0.9 + 0.4j):
        assert metric_consistency_residual(spec, z, trunc=16) < 1e-6


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
                s_lam = PipelineSurface(spec, lam).samples(z)
                s_one = PipelineSurface(spec, 1.0).samples(z / lam)
                assert fubini_study_distance(s_lam.lift[0], s_one.lift[0]) < 1e-7


def test_axis_continuation_rp2():
    # on the slice v0 = 1/(1 + |z|^2/2) != 1, while its continuation to the
    # axis zbar = 0 is exactly 1: all fitted axis coefficients must vanish
    w = axis_log_v0(RP2)
    assert np.sum(np.abs(w.coeffs)) < 1e-8


def test_radial_k1_cubic_form_from_lift():
    # branch-point spec: Wu's formula is degenerate at 0, but the cubic form
    # psi0 z^{2k+n} is still measurable from the lift away from the origin
    from lagdpw.geometry import hopf_coefficient
    spec = radial_monomial_spec(1, 0, 1.0, psi0=-1.0)
    samples = PipelineSurface(spec, 1.0, 16).samples
    for z in (0.6, 0.45 + 0.45j):
        psi_fd = hopf_coefficient(samples, z, h=1e-3)
        assert abs(psi_fd - spec.psi0 * z ** 2) < 1e-6


def test_constant_degree_one_same_surface_as_clifford():
    # exp(z D) = exp(z lambda^{-1} A) * (plus loop) spans the same positive
    # subspace, so the unique unitary factor and the lift coincide with the
    # normalized Clifford potential's
    d = LoopMatrix.from_coeffs({-1: A, 1: su3.tau(A)}, twisted=True)
    spec_d = constant_degree_one_spec(d)
    for z in (0.6, 0.4 - 0.7j):
        s_d = PipelineSurface(spec_d, 1.0).samples(z)
        s_o = clifford_oracle(z, 1.0)
        assert np.max(np.abs(s_d.lift - s_o.lift)) < 1e-9
        assert abs(s_d.u) < 1e-9
        assert s_d.psi == pytest.approx(-1.0)


def test_frame_maurer_cartan_structure():
    # F^{-1} F_z must be lambda^{-1} U_{-1} + U_0 with U_{-1} in the g_5
    # entry pattern and U_0 diagonal traceless; no positive lambda modes
    spec = radial_monomial_spec(0, 0, 1.0, b_n=2.0)
    frame = lambda w: frame_point(spec, w, 16).frame
    z, h = 0.6 + 0.3j, 1e-5
    from lagdpw.loops import loop_product

    def diff(a, b, s):
        return loop_scale(loop_sum(a, b, sign=-1.0), s)

    fx = diff(frame(z + h), frame(z - h), 1.0 / (2 * h))
    fy = diff(frame(z + 1j * h), frame(z - 1j * h), 1.0 / (2 * h))
    f_z = loop_sum(fx, loop_scale(fy, -1j))
    f_z = loop_scale(f_z, 0.5)
    mc = loop_product(frame(z).conj_transpose(), f_z)
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
        PipelineSurface(CL, 1.2).samples(0.3)
